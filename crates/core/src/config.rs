//! Rpc endpoint configuration, including every common-case optimization
//! the paper's factor analysis toggles (Table 3).

use erpc_congestion::{DcqcnConfig, TimelyConfig};

/// Which congestion-control algorithm client sessions run (§5.2.1).
#[derive(Debug, Clone)]
pub enum CcAlgorithm {
    /// No congestion control (the FaSST-like configuration; also used for
    /// the "no cc" rows of Table 5).
    None,
    /// RTT-gradient control; the paper's deployed choice.
    Timely(TimelyConfig),
    /// ECN-based control; usable on fabrics that mark (our simulator can —
    /// the paper's testbeds could not, §5.2.1 footnote).
    Dcqcn(DcqcnConfig),
}

/// Endpoint configuration.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Session credits `C`: max in-flight packets per session (§4.3.1).
    /// The evaluation uses 32 (§6.4); latency-sensitive apps may use less.
    /// At least 1 (`Rpc::new` rejects 0).
    pub session_credits: u32,
    /// Concurrent request slots per session (§4.3: constant, default 8).
    /// Additional requests are transparently queued. 1..=255: the slot
    /// index travels as a `u8` (`Rpc::new` rejects anything else).
    pub slots_per_session: usize,
    /// Per-session bound on requests *waiting* for a slot (§4.3's
    /// transparent queue); `enqueue_request` beyond it fails with
    /// `BacklogFull`. A request that finds a free slot never counts: with
    /// 0 a connected session still takes `slots_per_session` requests.
    pub backlog_cap: usize,
    /// Maximum message size (8 MB, the largest eRPC supports, §6.4).
    pub max_msg_size: usize,
    /// Retransmission timeout (5 ms: conservative because dynamic-buffer
    /// switches can add ≈3.8 ms of queueing, §5.2.3).
    pub rto_ns: u64,
    /// Give up and fail the session after this many consecutive
    /// retransmissions of one packet window.
    pub max_retransmissions: u32,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Link rate used for pacing calculations, bits/sec.
    pub link_bps: f64,

    // ── Common-case optimizations (Table 3 factor analysis) ────────────
    /// §5.2.2 opt 1: skip Timely's rate update when the session is
    /// uncongested and the sample is below the low threshold.
    pub opt_timely_bypass: bool,
    /// §5.2.2 opt 2: transmit directly instead of going through the
    /// timing-wheel rate limiter for uncongested sessions.
    pub opt_rate_limiter_bypass: bool,
    /// §5.2.2 opt 3: read the clock once per RX/TX batch instead of once
    /// per packet — and once per batch of enqueues instead of once per
    /// request: the first `enqueue_request` after an event-loop pass reads
    /// the clock, and the requests enqueued before the next pass share
    /// that stamp (requests enqueued from inside a pass use the pass's).
    /// `Completion::latency_ns` of a later request of such a batch is
    /// therefore measured from the first one's enqueue. Off: a fresh read
    /// per packet and per request.
    pub opt_batched_timestamps: bool,
    /// §4.3: serve small responses from a per-slot preallocated msgbuf
    /// instead of the allocator.
    pub opt_preallocated_responses: bool,
    /// §4.2.3: run dispatch-mode handlers directly on the RX-ring bytes of
    /// single-packet requests, with no copy.
    pub opt_zero_copy_rx: bool,
    /// §4.1.1 / App. A: multi-packet RQ descriptors — re-post one
    /// 512-packet descriptor instead of one descriptor per packet.
    pub opt_multi_packet_rq: bool,
    /// Adaptive retransmission timeout: per-session SRTT/RTTVAR (Jacobson,
    /// RFC 6298) fed by the same RTT samples Timely consumes, Karn's rule
    /// across go-back-N rollbacks (no samples from retransmitted windows),
    /// and exponential backoff per consecutive RTO (capped). `rto_ns`
    /// becomes the adaptive *upper bound*; when off, `rto_ns` is the fixed
    /// timeout exactly as before (the paper's conservative 5 ms).
    pub opt_adaptive_rto: bool,

    // ── Event loop tuning ───────────────────────────────────────────────
    /// Max packets per RX burst (at least 1).
    pub rx_batch: usize,
    /// Max packets per `tx_burst` doorbell (§4.3 transmit batching), and
    /// max descriptors in the deferred TX queue before the event loop
    /// flushes mid-pass (a descriptor is one packet, or a client slot's
    /// unpaced window of request packets). The queue also always flushes
    /// at the end of every event-loop pass, so this bounds batch *size*,
    /// not latency. At least 1; 1 = one `tx_burst` doorbell per packet
    /// (the "transmit batching off" ablation).
    pub tx_batch: usize,
    /// Timing-wheel slot count and width.
    pub wheel_slots: usize,
    pub wheel_granularity_ns: u64,
    /// How often the event loop scans for RTOs and runs management timers.
    pub timer_scan_interval_ns: u64,
    /// Packets per multi-packet RQ descriptor (512-way, App. A).
    pub rq_multi_packet_factor: usize,

    // ── Session management (Appendix B) ────────────────────────────────
    /// Send a ping on idle client sessions this often (0 disables).
    pub ping_interval_ns: u64,
    /// Declare the remote failed after this long without any packet.
    pub failure_timeout_ns: u64,
    /// Resend ConnectReq while connecting at this interval.
    pub connect_retry_ns: u64,
    /// Worker threads for long-running handlers (§3.2). 0 = none; worker
    /// handler registration then falls back to dispatch.
    pub num_worker_threads: usize,
    /// Capacity of the pooled response msgbuf handed to worker-mode
    /// handlers (capped at `max_msg_size`). Workers write into this
    /// pre-sized buffer in place — the dispatch thread installs it as the
    /// slot's response without copying — so a worker response cannot
    /// exceed it (growing past capacity panics loudly in the handler).
    pub worker_resp_capacity: usize,
    /// Record every client-side RTT sample into a histogram readable via
    /// `Rpc::rtt_histogram` (Table 5 uses per-packet RTTs measured at
    /// clients as the switch-queueing proxy). Off by default: it adds a
    /// histogram update per ack.
    pub record_rtt_samples: bool,
}

impl Default for RpcConfig {
    fn default() -> Self {
        Self {
            session_credits: 32,
            slots_per_session: 8,
            backlog_cap: 4096,
            max_msg_size: 8 << 20,
            rto_ns: 5_000_000,
            max_retransmissions: 100,
            cc: CcAlgorithm::Timely(TimelyConfig::for_link(25e9)),
            link_bps: 25e9,
            opt_timely_bypass: true,
            opt_rate_limiter_bypass: true,
            opt_batched_timestamps: true,
            opt_preallocated_responses: true,
            opt_zero_copy_rx: true,
            opt_multi_packet_rq: true,
            opt_adaptive_rto: true,
            rx_batch: 32,
            tx_batch: 32,
            wheel_slots: 4096,
            wheel_granularity_ns: 200,
            timer_scan_interval_ns: 100_000,
            rq_multi_packet_factor: 512,
            ping_interval_ns: 50_000_000,
            failure_timeout_ns: 500_000_000,
            connect_retry_ns: 20_000_000,
            num_worker_threads: 0,
            worker_resp_capacity: 64 << 10,
            record_rtt_samples: false,
        }
    }
}

impl RpcConfig {
    /// The FaSST-like specialization (§6.2's baseline): no congestion
    /// control, no generality overheads. Used to quantify the *cost of
    /// generality* in Figure 4.
    pub fn fasst_like() -> Self {
        Self {
            cc: CcAlgorithm::None,
            ping_interval_ns: 0,
            ..Self::default()
        }
    }

    /// Disable every Table 3 optimization (the bottom row's configuration).
    pub fn all_optimizations_off(mut self) -> Self {
        self.opt_timely_bypass = false;
        self.opt_rate_limiter_bypass = false;
        self.opt_batched_timestamps = false;
        self.opt_preallocated_responses = false;
        self.opt_zero_copy_rx = false;
        self.opt_multi_packet_rq = false;
        self.opt_adaptive_rto = false;
        self
    }

    /// Credits sized to one BDP (§4.3.1: "allowing BDP/MTU credits per
    /// session ensures each session can achieve line rate").
    pub fn with_bdp_credits(mut self, bdp_bytes: usize, mtu: usize) -> Self {
        self.session_credits = (bdp_bytes.div_ceil(mtu)).max(1) as u32;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = RpcConfig::default();
        assert_eq!(c.session_credits, 32);
        assert_eq!(c.slots_per_session, 8);
        assert_eq!(c.max_msg_size, 8 << 20);
        assert_eq!(c.rto_ns, 5_000_000);
        assert!(matches!(c.cc, CcAlgorithm::Timely(_)));
    }

    #[test]
    fn bdp_credit_sizing() {
        // CX4: 19 kB BDP, 1064 B wire MTU ⇒ ~18 credits; with the paper's
        // 1024 B data MTU they round to 32 for headroom — we compute exact.
        let c = RpcConfig::default().with_bdp_credits(19_000, 1024);
        assert_eq!(c.session_credits, 19);
        let c = RpcConfig::default().with_bdp_credits(100, 1024);
        assert_eq!(c.session_credits, 1);
    }

    #[test]
    fn factor_flags_toggle() {
        let c = RpcConfig::default().all_optimizations_off();
        assert!(!c.opt_timely_bypass);
        assert!(!c.opt_rate_limiter_bypass);
        assert!(!c.opt_batched_timestamps);
        assert!(!c.opt_preallocated_responses);
        assert!(!c.opt_zero_copy_rx);
        assert!(!c.opt_multi_packet_rq);
        assert!(!c.opt_adaptive_rto);
    }
}
