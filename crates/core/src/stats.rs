//! Endpoint statistics: datapath counters and a log-bucketed latency
//! histogram (HDR-histogram style) used throughout the benchmarks for
//! median/99/99.9/99.99th percentiles (Figure 5, Tables 2/5/6).

/// Datapath counters for one `Rpc` endpoint.
#[derive(Debug, Default, Clone)]
pub struct RpcStats {
    /// Requests issued by this endpoint (client role).
    pub requests_sent: u64,
    /// Responses completed (continuations invoked with success).
    pub responses_completed: u64,
    /// Requests failed (continuations invoked with an error).
    pub requests_failed: u64,
    /// Request handlers invoked (server role).
    pub handlers_invoked: u64,
    /// Handlers dispatched to worker threads.
    pub handlers_to_workers: u64,
    /// Data packets transmitted (Req/Resp).
    pub data_pkts_tx: u64,
    /// Control packets transmitted (CR/RFR).
    pub ctrl_pkts_tx: u64,
    /// Management packets transmitted.
    pub mgmt_pkts_tx: u64,
    /// Packets received and accepted.
    pub pkts_rx: u64,
    /// Received packets dropped as stale/out-of-order (§5.3 treats
    /// reordering as loss).
    pub rx_dropped_stale: u64,
    /// Data packets that took the §5.2 straight-line case of their RX
    /// routine: a new single-packet request run inline on the RX ring by
    /// a dispatch-mode handler (response queued in the same pass), or the
    /// first-and-only packet of a response that fit the app's buffer.
    /// Counted in `process_one_pkt` (`rpc/rx.rs`), the one classification
    /// point: each routine reports which case the packet took.
    pub fast_path_hits: u64,
    /// Every other packet that passed the dispatcher's validity check:
    /// multi-packet, duplicate, reordered or stale data packets, requests
    /// for worker-mode or unknown handlers (or with `opt_zero_copy_rx`
    /// off), credit returns, RFRs, management. Counted at the same point,
    /// so `fast_path_hits + slow_path_entries` is exactly the packets
    /// that parsed, and `fast_path_hits / (fast_path_hits +
    /// slow_path_entries)` is the steady-state common-case share — the
    /// bench smoke run asserts ≥99%.
    pub slow_path_entries: u64,
    /// Go-back-N rollbacks (retransmission events).
    pub retransmissions: u64,
    /// TX DMA queue flushes (rare path, §4.2.2).
    pub tx_flushes: u64,
    /// `Transport::tx_burst` calls issued (each is one DMA doorbell).
    pub tx_bursts: u64,
    /// Distribution of packets-per-`tx_burst` (the §4.3 transmit-batching
    /// factor): `mean()` > 1 means batching is real, not just plumbed.
    pub tx_batch_hist: LatencyHistogram,
    /// Queued TX descriptors dropped at drain time because their slot was
    /// rolled back / completed / freed first (the Rust analogue of the
    /// §4.2.2 DMA-queue flush: a stale descriptor never reaches the wire).
    pub tx_stale_dropped: u64,
    /// Packets that went through the timing wheel (not bypassed).
    pub pkts_paced: u64,
    /// Packets that bypassed the rate limiter (§5.2.2 opt 2).
    pub pkts_bypassed_pacer: u64,
    /// Timely updates performed / bypassed (§5.2.2 opt 1).
    pub timely_updates: u64,
    pub timely_bypasses: u64,
    /// Real reads of the transport clock by the datapath (to verify the
    /// batched-timestamp optimization): one per event-loop pass and one
    /// per batch of enqueues that share a stamp — not one per request.
    pub clock_reads: u64,
    /// Sessions declared failed by the management layer.
    pub sessions_failed: u64,
    /// ECN-marked packets observed (DCQCN mode).
    pub ecn_marks_seen: u64,
    /// Msgbuf-pool misses: allocations that hit the heap because no
    /// pooled buffer of the size class was free (§4.2.1 — should stop
    /// growing once warm). Synced from `BufPool` once per event-loop pass
    /// and on every `alloc_msg_buffer`/`free_msg_buffer` call.
    pub pool_allocs_new: u64,
    /// Msgbuf-pool hits: allocations served from a freelist (steady-state
    /// allocations are all of this kind).
    pub pool_allocs_reused: u64,
    /// Packets dropped because an internal datapath invariant did not
    /// hold (a state the protocol logic says is unreachable). The hot
    /// paths drop-and-count instead of panicking — a counted drop is
    /// recoverable via retransmission (§5.3), an abort of the event loop
    /// is not. Non-zero values are a bug; `debug_assert!`s catch the
    /// same states in test builds.
    pub rx_invariant_breach: u64,
    /// Retransmission-timeout firings (each go-back-N rollback triggered
    /// by the RTO scan; a subset of `retransmissions`, which also counts
    /// other rollback causes).
    pub rto_events: u64,
    /// Distribution of the *effective* RTO (ns) in force at each RTO
    /// event — with `opt_adaptive_rto` this shows the Jacobson estimate
    /// plus exponential backoff actually applied; with the fixed RTO it
    /// is a spike at `rto_ns`.
    pub rto_backoff_hist: LatencyHistogram,
    /// Server sessions reset because a ConnectReq or ping arrived from a
    /// peer with a *different incarnation id* than the one that opened
    /// the session — i.e. the peer process restarted and its old session
    /// state would otherwise blackhole the new endpoint.
    pub sessions_reset_incarnation: u64,
}

impl RpcStats {
    /// Fold another endpoint's counters into this one — the cross-thread
    /// aggregation step for multi-`Rpc` runs (Figure 5's per-node numbers
    /// are the sum over that node's dispatch threads). Counters add;
    /// `tx_batch_hist` merges bucket-wise, so percentile queries on the
    /// merged histogram see every thread's samples.
    pub fn merge(&mut self, other: &RpcStats) {
        let RpcStats {
            requests_sent,
            responses_completed,
            requests_failed,
            handlers_invoked,
            handlers_to_workers,
            data_pkts_tx,
            ctrl_pkts_tx,
            mgmt_pkts_tx,
            pkts_rx,
            rx_dropped_stale,
            fast_path_hits,
            slow_path_entries,
            retransmissions,
            tx_flushes,
            tx_bursts,
            tx_batch_hist,
            tx_stale_dropped,
            pkts_paced,
            pkts_bypassed_pacer,
            timely_updates,
            timely_bypasses,
            clock_reads,
            sessions_failed,
            ecn_marks_seen,
            pool_allocs_new,
            pool_allocs_reused,
            rx_invariant_breach,
            rto_events,
            rto_backoff_hist,
            sessions_reset_incarnation,
        } = other;
        self.requests_sent += requests_sent;
        self.responses_completed += responses_completed;
        self.requests_failed += requests_failed;
        self.handlers_invoked += handlers_invoked;
        self.handlers_to_workers += handlers_to_workers;
        self.data_pkts_tx += data_pkts_tx;
        self.ctrl_pkts_tx += ctrl_pkts_tx;
        self.mgmt_pkts_tx += mgmt_pkts_tx;
        self.pkts_rx += pkts_rx;
        self.rx_dropped_stale += rx_dropped_stale;
        self.fast_path_hits += fast_path_hits;
        self.slow_path_entries += slow_path_entries;
        self.retransmissions += retransmissions;
        self.tx_flushes += tx_flushes;
        self.tx_bursts += tx_bursts;
        self.tx_batch_hist.merge(tx_batch_hist);
        self.tx_stale_dropped += tx_stale_dropped;
        self.pkts_paced += pkts_paced;
        self.pkts_bypassed_pacer += pkts_bypassed_pacer;
        self.timely_updates += timely_updates;
        self.timely_bypasses += timely_bypasses;
        self.clock_reads += clock_reads;
        self.sessions_failed += sessions_failed;
        self.ecn_marks_seen += ecn_marks_seen;
        self.pool_allocs_new += pool_allocs_new;
        self.pool_allocs_reused += pool_allocs_reused;
        self.rx_invariant_breach += rx_invariant_breach;
        self.rto_events += rto_events;
        self.rto_backoff_hist.merge(rto_backoff_hist);
        self.sessions_reset_incarnation += sessions_reset_incarnation;
    }
}

/// Log-bucketed latency histogram: 2 % worst-case relative error, constant
/// memory (allocated on the first record), O(1) record.
#[derive(Clone)]
pub struct LatencyHistogram {
    /// `buckets[major][minor]`: major = log2(value), minor = next 6 bits.
    /// Empty until the first sample.
    buckets: Vec<u64>,
    count: u64,
    max: u64,
    min: u64,
    sum: u64,
}

const MINOR_BITS: u32 = 6;
const MINORS: usize = 1 << MINOR_BITS;
const MAJORS: usize = 40; // up to ~2^40 ns ≈ 18 minutes

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    fn index(value: u64) -> usize {
        let v = value.max(1);
        let major = (63 - v.leading_zeros()) as usize;
        let major = major.min(MAJORS - 1);
        let minor = if major >= MINOR_BITS as usize {
            ((v >> (major - MINOR_BITS as usize)) as usize) & (MINORS - 1)
        } else {
            (v as usize) & (MINORS - 1)
        };
        major * MINORS + minor
    }

    fn bucket_value(idx: usize) -> u64 {
        let major = (idx / MINORS) as u32;
        let minor = (idx % MINORS) as u64;
        if major >= MINOR_BITS {
            (1u64 << major) + (minor << (major - MINOR_BITS))
        } else {
            minor.max(1)
        }
    }

    /// Record one sample (nanoseconds, but any unit works).
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.alloc_buckets();
        }
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Buckets from the start, for a rare path whose first sample may come
    /// in steady state and must not allocate there (the RTO scan's).
    pub(crate) fn preallocated() -> Self {
        let mut h = Self::new();
        h.alloc_buckets();
        h
    }

    #[cold]
    #[inline(never)]
    fn alloc_buckets(&mut self) {
        self.buckets = vec![0; MAJORS * MINORS];
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` in [0, 100].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        if self.buckets.is_empty() && !other.buckets.is_empty() {
            self.alloc_buckets();
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn empty_histogram_allocates_nothing_until_recorded() {
        let empty = LatencyHistogram::new();
        assert!(empty.buckets.is_empty());
        let mut h = empty.clone();
        h.clear();
        h.merge(&LatencyHistogram::new());
        assert!(h.buckets.is_empty());
        assert_eq!(
            (h.count(), h.percentile(99.0), h.min(), h.max()),
            (0, 0, 0, 0)
        );
        // Merging samples into an empty histogram is recording them.
        let mut full = LatencyHistogram::new();
        full.record(1234);
        full.record(99);
        h.merge(&full);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(50.0), full.percentile(50.0));
        assert_eq!(h.percentile(100.0), full.percentile(100.0));
        // And an empty one merged into a full one changes nothing.
        full.merge(&LatencyHistogram::new());
        assert_eq!((full.count(), full.min(), full.max()), (2, 99, 1234));
        full.clear();
        assert_eq!((full.count(), full.percentile(50.0)), (0, 0));
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        let p50 = h.percentile(50.0);
        assert!((1210..=1234).contains(&p50), "p50 = {p50}");
        assert_eq!(h.max(), 1234);
        assert_eq!(h.min(), 1234);
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 50_000u64), (99.0, 99_000), (99.9, 99_900)] {
            let got = h.percentile(p);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.025, "p{p}: got {got}, expect ~{expect}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for v in [5u64, 100, 2_000, 80_000, 1_000_000] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 300, 9_000, 700_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
    }

    #[test]
    fn tiny_values() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!(h.percentile(100.0) <= 3);
    }

    #[test]
    fn rpc_stats_merge_sums_counters_and_histograms() {
        let mut a = RpcStats {
            requests_sent: 10,
            responses_completed: 9,
            data_pkts_tx: 100,
            ..RpcStats::default()
        };
        a.tx_batch_hist.record(4);
        let mut b = RpcStats {
            requests_sent: 5,
            responses_completed: 5,
            retransmissions: 2,
            rto_events: 3,
            sessions_reset_incarnation: 1,
            ..RpcStats::default()
        };
        b.tx_batch_hist.record(8);
        b.rto_backoff_hist.record(5_000_000);
        a.merge(&b);
        assert_eq!(a.requests_sent, 15);
        assert_eq!(a.responses_completed, 14);
        assert_eq!(a.data_pkts_tx, 100);
        assert_eq!(a.retransmissions, 2);
        assert_eq!(a.tx_batch_hist.count(), 2);
        assert_eq!(a.tx_batch_hist.max(), 8);
        assert_eq!(a.rto_events, 3);
        assert_eq!(a.rto_backoff_hist.count(), 1);
        assert_eq!(a.sessions_reset_incarnation, 1);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }
}
