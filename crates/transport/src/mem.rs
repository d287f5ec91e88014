//! In-process transport: endpoints exchange packets through lock-free
//! [`PacketRing`]s, one ring per endpoint, shared across threads.
//!
//! This is the "NIC" for the wall-clock benchmarks: pushing to a remote
//! ring is the DMA write, the fixed slot count is the RX descriptor count,
//! a full ring drops the packet at the sender exactly like an empty RQ
//! drops it at a NIC (§4.1.1), and consumers read payloads in place
//! (zero-copy RX, §4.2.3).
//!
//! The unit of TX work is a **run** — the maximal consecutive packets of a
//! burst that go to one destination: one route resolution, one liveness
//! check and one slot reservation ([`PacketRing::push_run`]) per run, the
//! way `udp.rs` turns a run into one kernel message (DESIGN.md
//! § "MemFabric"). RX claims a burst and releases it as one range.
//!
//! Fault injection: an optional seeded Bernoulli drop probability on the TX
//! path turns the fabric lossy for the loss-tolerance experiments
//! (Table 4).
//!
//! Endpoint lifecycle: dropping a `MemTransport` (or calling
//! [`MemFabric::remove_endpoint`]) closes its ring and deregisters the
//! address. Senders holding a cached route see the closed ring on their
//! next send, drop the cache entry, and re-resolve — so packets to a dead
//! endpoint are *counted* (`tx_drop_no_route`) rather than silently
//! swallowed by a ring nobody drains, and a re-registered address starts
//! receiving without any manual cache invalidation.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::MonoClock;
use crate::pkt::{Addr, RxToken, TransportStats, TxPacket};
use crate::ring::PacketRing;
use crate::Transport;

/// Tunables for a [`MemFabric`].
#[derive(Debug, Clone)]
pub struct MemFabricConfig {
    /// RX descriptors per endpoint ring.
    pub ring_capacity: usize,
    /// Max packet bytes admitted by `tx_burst` (the link MTU at eRPC
    /// layer). Also sizes the ring slots: `mtu` rounded up to 64 B.
    pub mtu: usize,
    /// Probability of dropping each TX packet (injected loss).
    pub loss_prob: f64,
    /// Seed for the per-transport loss RNGs (deterministic given seed+addr).
    pub seed: u64,
}

impl Default for MemFabricConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 4096,
            mtu: 1040, // 16 B eRPC header + 1024 B data, like eRPC's Ethernet MTU
            loss_prob: 0.0,
            seed: 0x5eed,
        }
    }
}

struct FabricInner {
    endpoints: RwLock<HashMap<u32, Arc<PacketRing>>>,
    cfg: MemFabricConfig,
    clock: MonoClock,
}

/// Registry connecting [`MemTransport`] endpoints in one process.
///
/// Cloning is cheap (shared handle). Create one fabric per benchmark
/// "cluster", then one transport per endpoint/thread.
#[derive(Clone)]
pub struct MemFabric {
    inner: Arc<FabricInner>,
}

impl MemFabric {
    pub fn new(cfg: MemFabricConfig) -> Self {
        Self {
            inner: Arc::new(FabricInner {
                endpoints: RwLock::new(HashMap::new()),
                cfg,
                clock: MonoClock::new(),
            }),
        }
    }

    /// Register `addr` and return its transport endpoint.
    ///
    /// # Panics
    /// Panics if `addr` is already registered (an endpoint is exclusive to
    /// one thread, like an `Rpc` object).
    pub fn create_transport(&self, addr: Addr) -> MemTransport {
        let cfg = &self.inner.cfg;
        let ring = Arc::new(PacketRing::new(cfg.ring_capacity, cfg.mtu));
        let prev = self
            .inner
            .endpoints
            .write()
            .insert(addr.key(), Arc::clone(&ring));
        assert!(prev.is_none(), "endpoint {addr} registered twice");
        MemTransport {
            addr,
            fabric: Arc::clone(&self.inner),
            rx: ring,
            last_route: None,
            routes: (0..ROUTE_WAYS).map(|_| None).collect(),
            claimed: (0, 0),
            rng: SmallRng::seed_from_u64(cfg.seed ^ (addr.key() as u64) << 17),
            stats: TransportStats::default(),
        }
    }

    /// Deregister an endpoint; subsequent sends to it count as
    /// `tx_drop_no_route` (used to emulate node failure). Closing the ring
    /// makes senders with a cached route observe the death too — their
    /// next send invalidates the cache entry instead of pushing packets
    /// into a ring nobody will ever drain.
    pub fn remove_endpoint(&self, addr: Addr) {
        if let Some(ring) = self.inner.endpoints.write().remove(&addr.key()) {
            ring.close();
        }
    }
}

/// Ways in the direct-mapped route table. Power of two; 256 covers a full
/// benchmark cluster without conflict misses (distinct nodes with the same
/// low `Addr::key` bits evict each other, which only costs a registry
/// re-resolve).
const ROUTE_WAYS: usize = 256;

/// One route-table entry: the full `Addr::key` tag plus the ring.
type RouteEntry = Option<(u32, Arc<PacketRing>)>;

/// One endpoint of a [`MemFabric`]. Owned by exactly one thread.
pub struct MemTransport {
    addr: Addr,
    fabric: Arc<FabricInner>,
    rx: Arc<PacketRing>,
    /// One-entry last-destination cache: the common case (a burst of
    /// packets to the same peer) resolves with one compare, no hashing.
    last_route: Option<(u32, Arc<PacketRing>)>,
    /// Direct-mapped route table indexed by `Addr::key & (ROUTE_WAYS-1)`
    /// — a fixed-stride array probe instead of the old per-packet
    /// `HashMap` lookup. The registry lock is taken only on a miss or
    /// when a cached ring has closed.
    routes: Box<[RouteEntry]>,
    /// Slots claimed since the last `rx_release`: (first position, count).
    /// One range suffices, the ring hands out consecutive positions.
    claimed: (u64, usize),
    rng: SmallRng,
    stats: TransportStats,
}

impl MemTransport {
    /// The live ring of `key`, resolved once per run. Borrowed from the
    /// one-entry cache: no reference count moves on the datapath.
    #[inline]
    fn route(&mut self, key: u32) -> Option<&PacketRing> {
        let hit = matches!(&self.last_route, Some((k, r)) if *k == key && !r.is_closed());
        if !hit {
            self.route_slow(key)?;
        }
        self.last_route.as_ref().map(|(_, r)| &**r)
    }

    /// Point `last_route` at the live ring of `key`, through the
    /// direct-mapped table or, on a miss, the registry.
    fn route_slow(&mut self, key: u32) -> Option<()> {
        let idx = key as usize & (ROUTE_WAYS - 1);
        if let Some((k, r)) = &self.routes[idx] {
            if *k == key {
                if !r.is_closed() {
                    self.last_route = Some((key, Arc::clone(r)));
                    return Some(());
                }
                // The cached peer died (endpoint dropped or removed):
                // forget the ghost ring and re-resolve — the address may
                // have been re-registered by a replacement endpoint.
                self.routes[idx] = None;
            }
        }
        if matches!(&self.last_route, Some((k, _)) if *k == key) {
            self.last_route = None;
        }
        let r = self.fabric.endpoints.read().get(&key).cloned()?;
        if r.is_closed() {
            // Raced a teardown between registry read and use.
            return None;
        }
        self.routes[idx] = Some((key, Arc::clone(&r)));
        self.last_route = Some((key, r));
        Some(())
    }

    /// Whether the sender itself drops `p` (and counts why): over the MTU,
    /// or picked by the injected-loss draw. One draw per admissible packet,
    /// in burst order, so a seed fixes the loss schedule.
    #[inline]
    fn tx_drops(&mut self, p: &TxPacket<'_>) -> bool {
        let cfg = &self.fabric.cfg;
        if p.len() > cfg.mtu {
            self.stats.tx_drop_err += 1;
            true
        } else if cfg.loss_prob > 0.0 && self.rng.gen_bool(cfg.loss_prob) {
            self.stats.tx_drop_fault += 1;
            true
        } else {
            false
        }
    }

    /// Deliver one run — consecutive packets of a burst to one destination
    /// — with one route resolution and one slot reservation.
    fn tx_run(&mut self, run: &[TxPacket<'_>]) {
        let Some(first) = run.first() else {
            return;
        };
        let Some(ring) = self.route(first.dst.key()) else {
            self.stats.tx_drop_no_route += run.len() as u64;
            return;
        };
        let sent = ring.push_run(run);
        self.stats.tx_pkts += sent as u64;
        self.stats.tx_bytes += run[..sent].iter().map(|p| p.len() as u64).sum::<u64>();
        self.stats.tx_drop_ring_full += (run.len() - sent) as u64;
    }

    /// Drop a cached route (e.g. after the peer was removed). The datapath
    /// re-resolves on next use. Since endpoints now close their rings on
    /// drop/removal, stale cache entries also self-invalidate; this hook
    /// remains for tests and explicit failover.
    pub fn invalidate_route(&mut self, dst: Addr) {
        let key = dst.key();
        if matches!(&self.last_route, Some((k, _)) if *k == key) {
            self.last_route = None;
        }
        let idx = key as usize & (ROUTE_WAYS - 1);
        if matches!(&self.routes[idx], Some((k, _)) if *k == key) {
            self.routes[idx] = None;
        }
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        // Endpoint teardown: mark our ring dead so peers' cached routes
        // observe it (packets then count as `tx_drop_no_route` at the
        // sender instead of vanishing into an undrained ring), and free
        // the address for re-registration — but only if the registry still
        // holds *this* ring (a replacement endpoint may already own it).
        self.rx.close();
        let mut eps = self.fabric.endpoints.write();
        if let Some(cur) = eps.get(&self.addr.key()) {
            if Arc::ptr_eq(cur, &self.rx) {
                eps.remove(&self.addr.key());
            }
        }
    }
}

impl Transport for MemTransport {
    fn addr(&self) -> Addr {
        self.addr
    }

    fn mtu(&self) -> usize {
        self.fabric.cfg.mtu
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.fabric.clock.now_ns()
    }

    fn tx_burst(&mut self, pkts: &[TxPacket<'_>]) {
        // Split the burst into runs: maximal groups of consecutive packets
        // to one destination. A packet the sender drops ends the run
        // before it; nothing is reordered.
        let mut start = 0;
        for (i, p) in pkts.iter().enumerate() {
            let dropped = self.tx_drops(p);
            if dropped || p.dst != pkts[start].dst {
                self.tx_run(&pkts[start..i]);
                start = i + usize::from(dropped);
            }
        }
        self.tx_run(&pkts[start..]);
    }

    fn tx_flush(&mut self) {
        // Pushing into the destination ring is synchronous: by the time
        // `tx_burst` returns, the "DMA" has completed, so the flush barrier
        // is trivially satisfied. Still counted — the protocol layer calls
        // this only on the rare retransmission/failure paths.
        self.stats.tx_flushes += 1;
    }

    fn rx_burst(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize {
        let n = self.rx.claim_run(max, out);
        let toks = &out[out.len() - n..];
        if let Some(first) = toks.first() {
            if self.claimed.1 == 0 {
                self.claimed.0 = first.slot;
            }
            self.claimed.1 += n;
            self.stats.rx_pkts += n as u64;
            self.stats.rx_bytes += toks.iter().map(|t| t.len as u64).sum::<u64>();
        }
        n
    }

    fn rx_bytes(&self, tok: &RxToken) -> &[u8] {
        self.rx.claimed_bytes(tok)
    }

    fn rx_release(&mut self) {
        let (first, count) = std::mem::take(&mut self.claimed);
        self.rx.release(first, count);
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn rx_ring_size(&self) -> usize {
        self.rx.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (MemTransport, MemTransport) {
        let f = MemFabric::new(MemFabricConfig::default());
        (
            f.create_transport(Addr::new(0, 0)),
            f.create_transport(Addr::new(1, 0)),
        )
    }

    fn send(from: &mut MemTransport, to: Addr, hdr: &[u8], data: &[u8]) {
        from.tx_burst(&[TxPacket { dst: to, hdr, data }]);
    }

    #[test]
    fn pingpong() {
        let (mut a, mut b) = pair();
        send(&mut a, b.addr(), b"hdr.", b"payload");
        let mut toks = Vec::new();
        assert_eq!(b.rx_burst(8, &mut toks), 1);
        assert_eq!(b.rx_bytes(&toks[0]), b"hdr.payload");
        b.rx_release();
        assert_eq!(b.stats().rx_pkts, 1);
        assert_eq!(a.stats().tx_pkts, 1);
    }

    #[test]
    fn unknown_route_counted() {
        let (mut a, _b) = pair();
        send(&mut a, Addr::new(99, 0), b"x", b"");
        assert_eq!(a.stats().tx_drop_no_route, 1);
        assert_eq!(a.stats().tx_pkts, 0);
    }

    #[test]
    fn ring_overrun_drops() {
        let f = MemFabric::new(MemFabricConfig {
            ring_capacity: 4,
            ..Default::default()
        });
        let mut a = f.create_transport(Addr::new(0, 0));
        let b = f.create_transport(Addr::new(1, 0));
        for _ in 0..10 {
            send(&mut a, b.addr(), b"z", b"");
        }
        assert_eq!(a.stats().tx_pkts, 4);
        assert_eq!(a.stats().tx_drop_ring_full, 6);
    }

    #[test]
    fn default_ring_holds_exactly_ring_capacity_packets() {
        // The ring's hot window changes where bytes lie, not how many
        // descriptors there are: the drop point and `rx_ring_size` (which
        // bounds sessions, |RQ|/C) stay `ring_capacity`.
        let cfg = MemFabricConfig::default();
        let f = MemFabric::new(cfg.clone());
        let mut a = f.create_transport(Addr::new(0, 0));
        let mut b = f.create_transport(Addr::new(1, 0));
        assert_eq!(b.rx_ring_size(), cfg.ring_capacity);
        let body = vec![0xAB; cfg.mtu - 4];
        for i in 0..=cfg.ring_capacity as u32 {
            send(&mut a, b.addr(), &i.to_le_bytes(), &body);
        }
        assert_eq!(a.stats().tx_pkts, cfg.ring_capacity as u64);
        assert_eq!(a.stats().tx_drop_ring_full, 1, "the next one drops");
        let got = drain(&mut b);
        assert_eq!(got.len(), cfg.ring_capacity);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p[..4], (i as u32).to_le_bytes());
            assert!(p[4..] == body[..], "packet {i} intact");
        }
        assert_eq!(b.rx_ring_size(), cfg.ring_capacity);
    }

    /// Payloads waiting at `t`, in arrival order.
    fn drain(t: &mut MemTransport) -> Vec<Vec<u8>> {
        let mut toks = Vec::new();
        t.rx_burst(usize::MAX, &mut toks);
        let got = toks.iter().map(|tok| t.rx_bytes(tok).to_vec()).collect();
        t.rx_release();
        got
    }

    #[test]
    fn interleaved_burst_keeps_per_destination_order() {
        // A,A,B,A,A: three runs, nothing reordered within a destination.
        let f = MemFabric::new(MemFabricConfig::default());
        let mut s = f.create_transport(Addr::new(0, 0));
        let mut a = f.create_transport(Addr::new(1, 0));
        let mut b = f.create_transport(Addr::new(2, 0));
        let to = |dst: &MemTransport, hdr: &'static [u8], data: &'static [u8]| TxPacket {
            dst: dst.addr(),
            hdr,
            data,
        };
        s.tx_burst(&[
            to(&a, b"a0", b""),
            to(&a, b"a1", b"+data"),
            to(&b, b"b0", b""),
            to(&a, b"a2", b""),
            to(&a, b"a3", b"!"),
        ]);
        assert_eq!(s.stats().tx_pkts, 5);
        assert_eq!(s.stats().tx_bytes, 2 + 7 + 2 + 2 + 3);
        assert_eq!(drain(&mut a), [&b"a0"[..], b"a1+data", b"a2", b"a3!"]);
        assert_eq!(drain(&mut b), [b"b0"]);
        assert_eq!(a.stats().rx_pkts, 4);
        assert_eq!(a.stats().rx_bytes, 2 + 7 + 2 + 3);
    }

    #[test]
    fn ring_full_mid_run_drops_the_tail() {
        let f = MemFabric::new(MemFabricConfig {
            ring_capacity: 4,
            ..Default::default()
        });
        let mut a = f.create_transport(Addr::new(0, 0));
        let mut b = f.create_transport(Addr::new(1, 0));
        let bodies: Vec<[u8; 1]> = (0..6u8).map(|i| [i]).collect();
        let burst: Vec<TxPacket<'_>> = bodies
            .iter()
            .map(|body| TxPacket {
                dst: b.addr(),
                hdr: body,
                data: &[],
            })
            .collect();
        a.tx_burst(&burst);
        assert_eq!(a.stats().tx_pkts, 4, "the prefix that fits is delivered");
        assert_eq!(a.stats().tx_bytes, 4);
        assert_eq!(a.stats().tx_drop_ring_full, 2);
        assert_eq!(drain(&mut b), [[0], [1], [2], [3]]);
    }

    #[test]
    fn over_mtu_packets_are_dropped_at_the_sender() {
        // In release builds too: 1041 B would fit the 1088 B slot and 1089 B
        // would not; both are over the MTU and neither reaches the ring.
        let (mut a, mut b) = pair();
        let mtu = a.mtu();
        let big = vec![7u8; 1100];
        let to_b = |hdr, data| TxPacket {
            dst: Addr::new(1, 0),
            hdr,
            data,
        };
        a.tx_burst(&[
            to_b(b"first", &[]),
            to_b(&big[..16], &big[..mtu - 15]),
            to_b(&big[..mtu], &[]),
            to_b(&big, &[]),
            to_b(b"last", &[]),
        ]);
        assert_eq!(a.stats().tx_drop_err, 2);
        assert_eq!(a.stats().tx_drop_ring_full, 0);
        assert_eq!(
            a.stats().tx_pkts,
            3,
            "neighbours of a dropped packet go out"
        );
        assert_eq!(a.stats().tx_bytes, (5 + mtu + 4) as u64);
        let got = drain(&mut b);
        assert_eq!(got.len(), 3);
        assert_eq!(
            (&got[0][..], got[1].len(), &got[2][..]),
            (&b"first"[..], mtu, &b"last"[..])
        );
    }

    #[test]
    fn run_to_a_closed_ring_is_counted_and_re_resolved() {
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let addr = Addr::new(1, 0);
        let b = f.create_transport(addr);
        let run = [TxPacket {
            dst: addr,
            hdr: b"x",
            data: &[],
        }; 3];
        a.tx_burst(&run);
        assert_eq!(a.stats().tx_pkts, 3, "route cached and used");
        drop(b); // closes the ring between bursts
        a.tx_burst(&run);
        assert_eq!(a.stats().tx_pkts, 3);
        assert_eq!(a.stats().tx_drop_no_route, 3, "the whole run, once each");
        let mut b2 = f.create_transport(addr);
        a.tx_burst(&run);
        assert_eq!(a.stats().tx_pkts, 6, "next run finds the replacement");
        assert_eq!(drain(&mut b2).len(), 3);
    }

    #[test]
    fn loss_injection_is_deterministic() {
        let run = || {
            let f = MemFabric::new(MemFabricConfig {
                loss_prob: 0.5,
                seed: 42,
                ..Default::default()
            });
            let mut a = f.create_transport(Addr::new(0, 0));
            let b = f.create_transport(Addr::new(1, 0));
            for _ in 0..100 {
                send(&mut a, b.addr(), b"z", b"");
            }
            (a.stats().tx_pkts, a.stats().tx_drop_fault)
        };
        let (sent1, dropped1) = run();
        let (sent2, dropped2) = run();
        assert_eq!((sent1, dropped1), (sent2, dropped2));
        assert_eq!(sent1 + dropped1, 100);
        assert!(dropped1 > 20 && dropped1 < 80, "dropped {dropped1}/100");
    }

    #[test]
    fn failed_node_becomes_unroutable() {
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let b = f.create_transport(Addr::new(1, 0));
        let dst = b.addr();
        send(&mut a, dst, b"x", b"");
        assert_eq!(a.stats().tx_pkts, 1);
        f.remove_endpoint(dst);
        a.invalidate_route(dst);
        send(&mut a, dst, b"x", b"");
        assert_eq!(a.stats().tx_drop_no_route, 1);
    }

    #[test]
    fn fabric_and_endpoints_cross_threads() {
        // The Nexus threading model needs the fabric handle shareable
        // across threads and endpoints constructible/ownable per thread.
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemFabric>();
        assert_send::<MemTransport>();
        assert_send::<crate::UdpTransport>();
    }

    #[test]
    fn dropped_endpoint_deregisters_and_counts_sends() {
        // Regression: endpoints used to stay in the registry (and in
        // peers' route caches) forever, so a dropped transport left a
        // ghost ring that silently swallowed packets.
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let b = f.create_transport(Addr::new(1, 0));
        let dst = b.addr();
        send(&mut a, dst, b"x", b"");
        assert_eq!(a.stats().tx_pkts, 1, "route cached and used");
        drop(b);
        // No manual invalidate_route: the cached route self-invalidates.
        send(&mut a, dst, b"x", b"");
        assert_eq!(
            a.stats().tx_pkts,
            1,
            "send to dropped endpoint not counted as delivered"
        );
        assert_eq!(a.stats().tx_drop_no_route, 1, "drop must be counted");
    }

    #[test]
    fn address_is_reusable_after_drop() {
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let addr = Addr::new(1, 0);
        let b = f.create_transport(addr);
        send(&mut a, addr, b"to-old", b"");
        drop(b);
        // Same address, new endpoint: must not panic, and cached senders
        // must reach the replacement without manual invalidation.
        let mut b2 = f.create_transport(addr);
        send(&mut a, addr, b"to-new", b"");
        let mut toks = Vec::new();
        assert_eq!(b2.rx_burst(8, &mut toks), 1);
        assert_eq!(b2.rx_bytes(&toks[0]), b"to-new");
        b2.rx_release();
    }

    #[test]
    fn remove_endpoint_closes_cached_routes() {
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let b = f.create_transport(Addr::new(1, 0));
        let dst = b.addr();
        send(&mut a, dst, b"x", b"");
        assert_eq!(a.stats().tx_pkts, 1);
        f.remove_endpoint(dst);
        // Victim transport still exists, but senders must observe the
        // removal through their cache — no invalidate_route call.
        send(&mut a, dst, b"x", b"");
        assert_eq!(a.stats().tx_drop_no_route, 1);
        drop(b); // second close + registry check are no-ops
    }

    #[test]
    fn conflicting_route_slots_still_deliver() {
        // Addr::new(1, 5) and Addr::new(2, 5) map to the same direct-mapped
        // way (key & 0xFF == 5): alternating sends must evict-and-reload
        // without losing packets.
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let mut b = f.create_transport(Addr::new(1, 5));
        let mut c = f.create_transport(Addr::new(2, 5));
        for _ in 0..10 {
            send(&mut a, b.addr(), b"to-b", b"");
            send(&mut a, c.addr(), b"to-c", b"");
        }
        assert_eq!(a.stats().tx_pkts, 20);
        let mut toks = Vec::new();
        assert_eq!(b.rx_burst(32, &mut toks), 10);
        assert!(toks.iter().all(|t| b.rx_bytes(t) == b"to-b"));
        b.rx_release();
        toks.clear();
        assert_eq!(c.rx_burst(32, &mut toks), 10);
        assert!(toks.iter().all(|t| c.rx_bytes(t) == b"to-c"));
        c.rx_release();
    }

    #[test]
    fn last_route_survives_peer_replacement() {
        // The one-entry fast path must observe ring closure like the
        // direct-mapped table does.
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let addr = Addr::new(1, 0);
        let b = f.create_transport(addr);
        send(&mut a, addr, b"one", b"");
        send(&mut a, addr, b"two", b""); // hits the last-dst fast path
        drop(b);
        let mut b2 = f.create_transport(addr);
        send(&mut a, addr, b"three", b"");
        let mut toks = Vec::new();
        assert_eq!(b2.rx_burst(8, &mut toks), 1);
        assert_eq!(b2.rx_bytes(&toks[0]), b"three");
        b2.rx_release();
    }

    #[test]
    fn cross_thread_traffic() {
        let f = MemFabric::new(MemFabricConfig::default());
        let mut a = f.create_transport(Addr::new(0, 0));
        let mut b = f.create_transport(Addr::new(1, 0));
        let dst = b.addr();
        let src = a.addr();
        let t = std::thread::spawn(move || {
            let mut toks = Vec::new();
            let mut got = 0u32;
            while got < 1000 {
                toks.clear();
                let n = b.rx_burst(32, &mut toks);
                for tok in &toks {
                    let v = u32::from_le_bytes(b.rx_bytes(tok).try_into().unwrap());
                    assert_eq!(v, got);
                    got += 1;
                }
                b.rx_release();
                if n == 0 {
                    std::hint::spin_loop();
                }
            }
            got
        });
        let mut sent = 0u32;
        while sent < 1000 {
            let bytes = sent.to_le_bytes();
            let before = a.stats().tx_pkts;
            a.tx_burst(&[TxPacket {
                dst,
                hdr: &bytes,
                data: &[],
            }]);
            if a.stats().tx_pkts > before {
                sent += 1;
            }
        }
        assert_eq!(t.join().unwrap(), 1000);
        let _ = src;
    }
}
