//! Deterministic fault injection around any [`Transport`].
//!
//! The virtual-time simulator has always been able to drop, delay and
//! reorder packets; the *real* datapaths (`MemTransport`, `UdpTransport`)
//! had never seen a fault until this wrapper existed.
//! [`FaultTransport`] composes around any inner transport and perturbs the
//! **TX** direction with seeded, reproducible faults:
//!
//! * **drop** — the packet vanishes (Bernoulli per packet);
//! * **duplicate** — the packet is sent twice in the same burst;
//! * **reorder** — the packet is held in a delay queue and released after
//!   `reorder_delay_ns`, so packets queued behind it overtake it (§5.3
//!   treats reordering as loss, which is exactly what this provokes);
//! * **corrupt** — one of the header's magic bits is flipped before the
//!   send, so the receiver's validity check *provably* discards it (the
//!   [`Transport`] contract is "never corrupted silently": a corruption
//!   fault must surface as a drop, not as garbage data);
//! * **partition** — a per-peer one-way blackhole over a scheduled
//!   `[from_ns, until_ns)` window of the inner clock, healing itself when
//!   the window closes;
//! * **latency** — a fixed added delay applied to every surviving packet
//!   through the same delay queue.
//!
//! Injecting on TX only is sufficient for symmetric chaos: wrap both ends
//! and each direction of the path is covered by its sender's wrapper.
//! Faults are decided by a [`SmallRng`] seeded from `FaultConfig::seed`
//! mixed with the endpoint address (the same idiom as `MemFabric` loss),
//! so a failing chaos campaign is replayed exactly
//! by re-running its seed. [`FaultStats`] counts every decision.
//!
//! The wrapper is deliberately **not** in the linter's hot-module set: it
//! copies corrupted and held packets into owned buffers, allocating per
//! such packet. Packets it leaves alone are forwarded as sub-slices of the
//! caller's burst, so drops — the fault the benchmark's lossy workload
//! injects — cost no allocation (`alloc_steady_state` gates that).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::pkt::{Addr, RxToken, TransportStats, TxPacket};
use crate::Transport;

/// Per-packet fault probabilities and delays for a [`FaultTransport`].
///
/// All probabilities are independent Bernoulli draws evaluated in the
/// order: partition (not random) → drop → corrupt → duplicate → reorder.
/// A packet takes at most one of {drop, corrupt}; duplication and
/// reordering can combine with corruption (the duplicate of a corrupted
/// packet is also corrupted — both copies are invalid).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault RNG (mixed with the endpoint address).
    pub seed: u64,
    /// Probability of dropping a TX packet.
    pub drop_prob: f64,
    /// Probability of sending a TX packet twice.
    pub dup_prob: f64,
    /// Probability of holding a TX packet in the delay queue so later
    /// packets overtake it.
    pub reorder_prob: f64,
    /// How long a reordered packet is held before release.
    pub reorder_delay_ns: u64,
    /// Probability of flipping a header magic bit (detectable corruption).
    pub corrupt_prob: f64,
    /// Fixed extra latency applied to every surviving packet (0 = off).
    pub extra_latency_ns: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5EED,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay_ns: 200_000,
            corrupt_prob: 0.0,
            extra_latency_ns: 0,
        }
    }
}

impl FaultConfig {
    /// A chaos profile with every random fault enabled at once — the shape
    /// the chaos campaigns use (5 % loss + dup + reorder).
    pub fn lossy(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.05,
            dup_prob: 0.03,
            reorder_prob: 0.03,
            reorder_delay_ns: 300_000,
            corrupt_prob: 0.01,
            extra_latency_ns: 0,
        }
    }
}

/// Counters for every fault decision a [`FaultTransport`] made.
#[derive(Debug, Default, Clone)]
pub struct FaultStats {
    /// Packets offered to `tx_burst` (before any fault).
    pub tx_seen: u64,
    /// Packets dropped by `drop_prob`.
    pub dropped: u64,
    /// Extra copies sent by `dup_prob`.
    pub duplicated: u64,
    /// Packets held back by `reorder_prob` (released later).
    pub reordered: u64,
    /// Packets whose header magic was flipped.
    pub corrupted: u64,
    /// Packets blackholed by an active partition window.
    pub partition_dropped: u64,
    /// Packets that passed through the delay queue for added latency.
    pub delayed: u64,
    /// Delayed/reordered packets released to the inner transport.
    pub released: u64,
}

impl FaultStats {
    /// Total packets injected with *some* fault (for bench table notes).
    pub fn total_injected(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.corrupted + self.partition_dropped
    }

    /// Fold another endpoint's counters into this one (campaign totals).
    /// Exhaustive destructuring: adding a counter without summing it here
    /// is a compile error.
    pub fn merge(&mut self, other: &FaultStats) {
        let FaultStats {
            tx_seen,
            dropped,
            duplicated,
            reordered,
            corrupted,
            partition_dropped,
            delayed,
            released,
        } = other;
        self.tx_seen += tx_seen;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.corrupted += corrupted;
        self.partition_dropped += partition_dropped;
        self.delayed += delayed;
        self.released += released;
    }
}

/// A one-way blackhole toward one peer over a clock window.
#[derive(Debug, Clone, Copy)]
struct Partition {
    peer_key: u32,
    from_ns: u64,
    until_ns: u64,
}

/// A packet held in the delay queue (owned bytes: the borrowed
/// [`TxPacket`] views do not outlive the `tx_burst` call that carried
/// them).
#[derive(Debug)]
struct HeldPkt {
    release_ns: u64,
    dst: Addr,
    bytes: Vec<u8>,
}

/// The faults drawn for one TX packet; the default is "none".
#[derive(Debug, Default, PartialEq)]
struct Faults {
    /// Dropped or blackholed by a partition: nothing else applies.
    lost: bool,
    corrupt: bool,
    dup: bool,
    /// Time in the delay queue (reordering or added latency); 0 = none.
    delay_ns: u64,
}

/// Fault-injecting wrapper around any [`Transport`]; see the module docs.
pub struct FaultTransport<T> {
    inner: T,
    cfg: FaultConfig,
    rng: SmallRng,
    partitions: Vec<Partition>,
    held: Vec<HeldPkt>,
    fstats: FaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner` with the given fault profile.
    pub fn new(inner: T, cfg: FaultConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ ((inner.addr().key() as u64) << 17));
        Self {
            inner,
            cfg,
            rng,
            partitions: Vec::new(),
            held: Vec::new(),
            fstats: FaultStats::default(),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably (e.g. to add socket routes).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Fault counters (separate from the inner transport's
    /// [`TransportStats`]).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fstats
    }

    /// Replace the fault profile mid-run (chaos campaigns switch phases
    /// this way; the RNG stream is kept, so a run stays reproducible).
    pub fn set_config(&mut self, cfg: FaultConfig) {
        self.cfg = cfg;
    }

    /// Schedule a one-way partition toward `peer` over the absolute inner
    /// clock window `[from_ns, until_ns)`. The partition heals itself when
    /// the clock passes `until_ns`; no explicit heal call is needed.
    pub fn partition(&mut self, peer: Addr, from_ns: u64, until_ns: u64) {
        self.partitions.push(Partition {
            peer_key: peer.key(),
            from_ns,
            until_ns,
        });
    }

    /// Partition `peer` starting now, for `dur_ns`.
    pub fn partition_for(&mut self, peer: Addr, dur_ns: u64) {
        let now = self.inner.now_ns();
        self.partition(peer, now, now.saturating_add(dur_ns));
    }

    /// Tear down every partition window immediately.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// True while some window blackholes packets toward `peer`.
    pub fn is_partitioned(&self, peer: Addr, now: u64) -> bool {
        let key = peer.key();
        self.partitions
            .iter()
            .any(|p| p.peer_key == key && now >= p.from_ns && now < p.until_ns)
    }

    /// Release every held packet whose delay has expired. Called from all
    /// three datapath entry points so delayed packets drain even when the
    /// application only polls RX.
    fn release_due(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let now = self.inner.now_ns();
        if !self.held.iter().any(|h| h.release_ns <= now) {
            return;
        }
        // Oldest release first, so two packets held toward the same peer
        // keep their relative order once both are due.
        self.held.sort_by_key(|h| h.release_ns);
        let due = self.held.iter().take_while(|h| h.release_ns <= now).count();
        {
            let released: Vec<TxPacket<'_>> = self.held[..due]
                .iter()
                .map(|h| TxPacket {
                    dst: h.dst,
                    hdr: &h.bytes,
                    data: &[],
                })
                .collect();
            self.inner.tx_burst(&released);
        }
        self.held.drain(..due);
        self.fstats.released += due as u64;
    }

    /// Draw (and count) the faults of one TX packet, in the order given on
    /// [`FaultConfig`].
    fn draw_faults(&mut self, p: &TxPacket<'_>, now: u64) -> Faults {
        self.fstats.tx_seen += 1;
        let lost = Faults {
            lost: true,
            ..Faults::default()
        };
        if self.is_partitioned(p.dst, now) {
            self.fstats.partition_dropped += 1;
            return lost;
        }
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            self.fstats.dropped += 1;
            return lost;
        }
        let corrupt = self.cfg.corrupt_prob > 0.0 && self.rng.gen_bool(self.cfg.corrupt_prob);
        let dup = self.cfg.dup_prob > 0.0 && self.rng.gen_bool(self.cfg.dup_prob);
        let reorder = self.cfg.reorder_prob > 0.0 && self.rng.gen_bool(self.cfg.reorder_prob);
        let delay_ns = if reorder {
            self.cfg.reorder_delay_ns.max(1)
        } else {
            self.cfg.extra_latency_ns
        };
        self.fstats.corrupted += u64::from(corrupt);
        self.fstats.duplicated += u64::from(dup);
        if reorder {
            self.fstats.reordered += 1;
        } else if delay_ns > 0 {
            self.fstats.delayed += 1;
        }
        Faults {
            lost: false,
            corrupt,
            dup,
            delay_ns,
        }
    }

    /// Copy a packet into one owned buffer (header then data, the layout
    /// every transport serializes to the wire anyway).
    fn own_bytes(p: &TxPacket<'_>) -> Vec<u8> {
        let mut v = Vec::with_capacity(p.len());
        v.extend_from_slice(p.hdr);
        v.extend_from_slice(p.data);
        v
    }

    /// Flip one of the three header magic bits (bits 5–7 of byte 0), so
    /// the receiver's `PktHdrView::parse` magic check rejects the packet.
    /// Corruption is thereby always *detectable* — the Transport contract
    /// forbids silent corruption.
    fn corrupt(bytes: &mut [u8], rng: &mut SmallRng) {
        if let Some(b0) = bytes.first_mut() {
            *b0 ^= 1 << rng.gen_range(5u32..8);
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn addr(&self) -> Addr {
        self.inner.addr()
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn tx_burst(&mut self, pkts: &[TxPacket<'_>]) {
        self.release_due();
        let now = self.inner.now_ns();
        // Untouched packets are forwarded as the maximal sub-slices of the
        // caller's burst between faulted ones (`pkts[start..i]` is the one
        // pending), in order — so a burst with no fault or only drops, the
        // steady state of a lossy run, copies and allocates nothing.
        let mut start = 0;
        for (i, p) in pkts.iter().enumerate() {
            let f = self.draw_faults(p, now);
            if f == Faults::default() {
                continue;
            }
            if start < i {
                self.inner.tx_burst(&pkts[start..i]);
            }
            start = i + 1;
            if f.lost {
                continue;
            }
            if !f.corrupt && f.delay_ns == 0 {
                // A plain duplicate needs no owned copy.
                self.inner.tx_burst(&[*p, *p]);
                continue;
            }
            // A fault that changes bytes or timing needs an owned copy.
            let mut bytes = Self::own_bytes(p);
            if f.corrupt {
                Self::corrupt(&mut bytes, &mut self.rng);
            }
            let owned = TxPacket {
                dst: p.dst,
                hdr: &bytes,
                data: &[],
            };
            // Both copies of a corrupted packet are corrupted. The
            // duplicate of a held packet goes out immediately: the copies
            // then straddle the reorder window.
            let copies_now = usize::from(f.delay_ns == 0) + usize::from(f.dup);
            if copies_now > 0 {
                self.inner.tx_burst(&[owned, owned][..copies_now]);
            }
            if f.delay_ns > 0 {
                self.held.push(HeldPkt {
                    release_ns: now.saturating_add(f.delay_ns),
                    dst: p.dst,
                    bytes,
                });
            }
        }
        if start < pkts.len() {
            self.inner.tx_burst(&pkts[start..]);
        }
    }

    fn tx_flush(&mut self) {
        self.release_due();
        self.inner.tx_flush();
    }

    fn rx_burst(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize {
        // RX polling is the steady state of an idle endpoint; draining the
        // delay queue here guarantees held packets go out even when the
        // caller has nothing left to transmit.
        self.release_due();
        self.inner.rx_burst(max, out)
    }

    fn rx_bytes(&self, tok: &RxToken) -> &[u8] {
        self.inner.rx_bytes(tok)
    }

    fn rx_release(&mut self) {
        self.inner.rx_release();
    }

    fn stats(&self) -> &TransportStats {
        self.inner.stats()
    }

    fn rx_ring_size(&self) -> usize {
        self.inner.rx_ring_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemFabric, MemFabricConfig};
    use crate::MemTransport;

    const A: Addr = Addr::new(0, 0);
    const B: Addr = Addr::new(1, 0);

    fn pair(cfg: FaultConfig) -> (FaultTransport<MemTransport>, MemTransport) {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let a = fabric.create_transport(A);
        let b = fabric.create_transport(B);
        (FaultTransport::new(a, cfg), b)
    }

    fn send_n(t: &mut impl Transport, n: usize) {
        for i in 0..n {
            let hdr = [i as u8; 8];
            t.tx_burst(&[TxPacket {
                dst: B,
                hdr: &hdr,
                data: b"payload",
            }]);
        }
    }

    fn drain(b: &mut MemTransport) -> Vec<Vec<u8>> {
        let mut toks = Vec::new();
        b.rx_burst(1024, &mut toks);
        let got = toks.iter().map(|t| b.rx_bytes(t).to_vec()).collect();
        b.rx_release();
        got
    }

    #[test]
    fn passthrough_when_no_faults() {
        let (mut a, mut b) = pair(FaultConfig::default());
        send_n(&mut a, 16);
        let got = drain(&mut b);
        assert_eq!(got.len(), 16);
        for (i, bytes) in got.iter().enumerate() {
            assert_eq!(&bytes[..8], &[i as u8; 8]);
            assert_eq!(&bytes[8..], b"payload");
        }
        assert_eq!(a.fault_stats().tx_seen, 16);
        assert_eq!(a.fault_stats().total_injected(), 0);
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 42,
            drop_prob: 0.3,
            ..FaultConfig::default()
        };
        let (mut a1, mut b1) = pair(cfg.clone());
        let (mut a2, mut b2) = pair(cfg);
        send_n(&mut a1, 200);
        send_n(&mut a2, 200);
        let g1 = drain(&mut b1);
        let g2 = drain(&mut b2);
        assert_eq!(g1, g2, "same seed must produce the same fault schedule");
        assert!(a1.fault_stats().dropped > 0);
        assert_eq!(a1.fault_stats().dropped, a2.fault_stats().dropped);
        assert_eq!(g1.len() as u64 + a1.fault_stats().dropped, 200);
    }

    #[test]
    fn faulted_burst_forwards_survivors_in_order() {
        // One 64-packet burst with drops and duplicates mixed in: what
        // arrives is the burst minus the drops, duplicates adjacent.
        let (mut a, mut b) = pair(FaultConfig {
            seed: 7,
            drop_prob: 0.2,
            dup_prob: 0.2,
            ..FaultConfig::default()
        });
        let hdrs: Vec<[u8; 1]> = (0..64u8).map(|i| [i]).collect();
        let burst: Vec<TxPacket<'_>> = hdrs
            .iter()
            .map(|h| TxPacket {
                dst: B,
                hdr: h,
                data: b"payload",
            })
            .collect();
        a.tx_burst(&burst);
        let got: Vec<u8> = drain(&mut b).iter().map(|bytes| bytes[0]).collect();
        let fs = a.fault_stats();
        assert!(fs.dropped > 0 && fs.duplicated > 0, "{fs:?}");
        assert_eq!(got.len() as u64, 64 - fs.dropped + fs.duplicated);
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "reordered: {got:?}");
        let mut distinct = got.clone();
        distinct.dedup();
        assert_eq!(distinct.len() as u64, 64 - fs.dropped);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| FaultConfig {
            seed,
            drop_prob: 0.3,
            ..FaultConfig::default()
        };
        let (mut a1, mut b1) = pair(mk(1));
        let (mut a2, mut b2) = pair(mk(2));
        send_n(&mut a1, 200);
        send_n(&mut a2, 200);
        assert_ne!(drain(&mut b1), drain(&mut b2));
    }

    #[test]
    fn duplicates_add_copies() {
        let (mut a, mut b) = pair(FaultConfig {
            dup_prob: 1.0,
            ..FaultConfig::default()
        });
        send_n(&mut a, 10);
        let got = drain(&mut b);
        assert_eq!(got.len(), 20, "every packet must arrive twice");
        assert_eq!(a.fault_stats().duplicated, 10);
        for i in 0..10 {
            assert_eq!(got[2 * i], got[2 * i + 1]);
        }
    }

    #[test]
    fn corruption_flips_magic_and_keeps_length() {
        let (mut a, mut b) = pair(FaultConfig {
            corrupt_prob: 1.0,
            ..FaultConfig::default()
        });
        send_n(&mut a, 5);
        let got = drain(&mut b);
        assert_eq!(got.len(), 5);
        assert_eq!(a.fault_stats().corrupted, 5);
        for (i, bytes) in got.iter().enumerate() {
            assert_eq!(bytes.len(), 15);
            // Exactly one of the three magic bits of byte 0 flipped.
            let diff = bytes[0] ^ i as u8;
            assert!(diff.count_ones() == 1 && diff >= 1 << 5, "diff {diff:#x}");
            assert_eq!(&bytes[1..8], &[i as u8; 7]);
            assert_eq!(&bytes[8..], b"payload");
        }
    }

    #[test]
    fn reorder_holds_then_releases() {
        let (mut a, mut b) = pair(FaultConfig {
            reorder_prob: 1.0,
            reorder_delay_ns: 1, // expires immediately; release on next call
            ..FaultConfig::default()
        });
        a.tx_burst(&[TxPacket {
            dst: B,
            hdr: b"first",
            data: &[],
        }]);
        assert_eq!(a.fault_stats().reordered, 1);
        assert_eq!(drain(&mut b).len(), 0, "held packet must not be sent yet");
        // Disable faults; the next burst releases the held packet *after*
        // forwarding nothing new of its own.
        a.set_config(FaultConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(1));
        a.tx_burst(&[TxPacket {
            dst: B,
            hdr: b"second",
            data: &[],
        }]);
        let got = drain(&mut b);
        assert_eq!(got.len(), 2);
        // The held "first" was released at the top of the burst, before
        // "second" — but it spent the intervening drain in the queue while
        // drain() observed nothing, which is the reordering observable.
        assert_eq!(got[0], b"first");
        assert_eq!(got[1], b"second");
        assert_eq!(a.fault_stats().released, 1);
    }

    #[test]
    fn reorder_overtake_within_stream() {
        // Hold the first packet long enough that the second overtakes it.
        let (mut a, mut b) = pair(FaultConfig {
            reorder_prob: 1.0,
            reorder_delay_ns: 20_000_000, // well above a host scheduling stall
            ..FaultConfig::default()
        });
        a.tx_burst(&[TxPacket {
            dst: B,
            hdr: b"late",
            data: &[],
        }]);
        a.set_config(FaultConfig::default());
        a.tx_burst(&[TxPacket {
            dst: B,
            hdr: b"early",
            data: &[],
        }]);
        let first = drain(&mut b);
        assert_eq!(first, vec![b"early".to_vec()], "overtaker arrives first");
        std::thread::sleep(std::time::Duration::from_millis(21));
        a.rx_burst(1, &mut Vec::new()); // RX poll drains the delay queue
        let second = drain(&mut b);
        assert_eq!(second, vec![b"late".to_vec()], "held packet arrives late");
    }

    #[test]
    fn extra_latency_delays_everything() {
        let (mut a, mut b) = pair(FaultConfig {
            extra_latency_ns: 20_000_000, // well above a host scheduling stall
            ..FaultConfig::default()
        });
        send_n(&mut a, 3);
        assert_eq!(a.fault_stats().delayed, 3);
        assert_eq!(drain(&mut b).len(), 0);
        std::thread::sleep(std::time::Duration::from_millis(21));
        a.tx_flush(); // the flush barrier also drains the queue
        let got = drain(&mut b);
        assert_eq!(got.len(), 3);
        // Held packets are released oldest-first: order is preserved.
        for (i, bytes) in got.iter().enumerate() {
            assert_eq!(&bytes[..8], &[i as u8; 8]);
        }
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (mut a, mut b) = pair(FaultConfig::default());
        let now = a.now_ns();
        a.partition(B, now, now + 20_000_000);
        assert!(a.is_partitioned(B, a.now_ns()));
        send_n(&mut a, 4);
        assert_eq!(a.fault_stats().partition_dropped, 4);
        assert_eq!(drain(&mut b).len(), 0);
        // The window expires on its own — no heal call.
        std::thread::sleep(std::time::Duration::from_millis(21));
        assert!(!a.is_partitioned(B, a.now_ns()));
        send_n(&mut a, 4);
        assert_eq!(drain(&mut b).len(), 4);
        assert_eq!(a.fault_stats().partition_dropped, 4);
    }

    #[test]
    fn partition_is_per_peer() {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let mut a = FaultTransport::new(fabric.create_transport(A), FaultConfig::default());
        let mut b = fabric.create_transport(B);
        let c_addr = Addr::new(2, 0);
        let mut c = fabric.create_transport(c_addr);
        a.partition_for(B, 10_000_000_000);
        a.tx_burst(&[
            TxPacket {
                dst: B,
                hdr: b"toB",
                data: &[],
            },
            TxPacket {
                dst: c_addr,
                hdr: b"toC",
                data: &[],
            },
        ]);
        assert_eq!(drain(&mut b).len(), 0, "B is partitioned");
        let mut toks = Vec::new();
        c.rx_burst(8, &mut toks);
        assert_eq!(toks.len(), 1, "C is not partitioned");
        assert_eq!(c.rx_bytes(&toks[0]), b"toC");
        c.rx_release();
        // heal_all clears windows early.
        a.heal_all();
        assert!(!a.is_partitioned(B, a.now_ns()));
        a.tx_burst(&[TxPacket {
            dst: B,
            hdr: b"toB2",
            data: &[],
        }]);
        assert_eq!(drain(&mut b).len(), 1);
    }

    #[test]
    fn inner_stats_and_geometry_delegate() {
        let (mut a, _b) = pair(FaultConfig::default());
        assert_eq!(a.addr(), A);
        let mtu = a.mtu();
        let ring = a.rx_ring_size();
        assert!(mtu > 0 && ring > 0);
        send_n(&mut a, 2);
        assert_eq!(a.stats().tx_pkts, 2, "inner TransportStats visible");
        assert!(a.inner().stats().tx_pkts == 2);
        a.inner_mut(); // compiles: mutable inner access for route setup
    }
}
