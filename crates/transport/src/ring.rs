//! A bounded, lock-free, multi-producer single-consumer **packet ring**:
//! the software analogue of a NIC RX queue.
//!
//! Design (and why it mirrors the paper's NIC model, §4.1.1):
//!
//! * The ring has a fixed number of fixed-size slots — like RX descriptors
//!   pre-posted to a NIC RQ. A full ring **drops** the incoming packet at the
//!   producer (the NIC drops when the RQ is empty); producers never block.
//! * The unit of work is a **run** of packets (§4.3 batching, §4.1.1
//!   multi-packet RQ descriptors): a producer reserves the slots of a whole
//!   run with one CAS, the consumer claims a whole burst with one position
//!   store. A single packet is a run of one, on the same path.
//! * The consumer *claims* slots and reads payloads **in place** — this is
//!   the zero-copy request processing path (§4.2.3). Claimed slots are not
//!   reusable by producers until the consumer *releases* them, which models
//!   re-posting RX descriptors.
//! * Multi-producer support uses the Vyukov bounded-MPMC protocol on a
//!   per-slot sequence number; the single consumer needs no CAS.
//!
//! Memory layout: one contiguous arena of `W + capacity` slots holds all
//! payload bytes (`stride` a multiple of 64, slot 0 on a page), beside
//! an array of 16-byte `SlotMeta` records — sequence number, payload length
//! and arena offset together, four slots to a cache line. Sequence numbers
//! provide the acquire/release edges that make the payload writes of a
//! producer visible to the consumer. Position `p` is written to **hot** slot
//! `p % W` if a published watermark says every position up to `p − W` is
//! released, else to its positional slot `W + p % capacity`: a shallow ring
//! reuses the slots it just released. Admission is positional as before.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;

use crate::mapping::Mapping;
use crate::pkt::{RxToken, TxPacket};

/// Cache-line size; the slot stride is a multiple of it.
const LINE: usize = 64;

/// Hot window slots (at most half the ring); DESIGN.md § "MemFabric" has W's sweep.
const HOT_SLOTS: usize = 64;

/// Per-slot bookkeeping. Deliberately not padded to a cache line: a run
/// walks consecutive records, so four slots share a line (DESIGN.md
/// § "MemFabric" weighs this against sharing across threads).
struct SlotMeta {
    /// Vyukov sequence number of the slot, for position `p`: `p` = free,
    /// `p + 1` = filled, `p + capacity` = released (free for the next lap).
    seq: AtomicUsize,
    /// Payload length. `Relaxed` throughout, it publishes nothing: the
    /// slot's owning producer writes it before the `seq` release-store and
    /// the consumer reads it after the matching acquire-load.
    len: AtomicU32,
    /// Arena offset of the payload, hot or positional; `Relaxed` like `len`.
    off: AtomicU32,
}

/// Fixed-capacity MPSC ring of variable-length packets stored in place.
///
/// ```
/// use erpc_transport::{Addr, PacketRing, TxPacket};
/// let ring = PacketRing::new(16, 64);
/// let pkt = TxPacket { dst: Addr::new(0, 0), hdr: b"hdr", data: b"payload" };
/// assert_eq!(ring.push_run(&[pkt, pkt]), 2); // gather, like a 2-DMA NIC
/// let mut toks = Vec::new();
/// assert_eq!(ring.claim_run(8, &mut toks), 2);
/// assert_eq!(ring.claimed_bytes(&toks[1]), b"hdrpayload"); // zero-copy read
/// ring.release(toks[0].slot(), 2); // re-post the descriptors
/// ```
pub struct PacketRing {
    meta: Box<[SlotMeta]>,
    /// Payload arena: anonymous pages, resident only where packets land.
    arena: Mapping,
    /// Bytes per slot, a multiple of 64.
    stride: usize,
    mask: usize,
    /// Slots in the hot window, a power of two.
    hot: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    /// Consumer-owned: `[0]` the next position to claim, `[1]` the exact
    /// released prefix (every position below it is released).
    dequeue_pos: CachePadded<[AtomicUsize; 2]>,
    /// `dequeue_pos[1]` as producers see it (acquire-load, once per run):
    /// release-stored only after `W / 2` of progress, so a producer on
    /// another core misses on this line once per `W / 2` positions.
    released: CachePadded<AtomicUsize>,
    /// Set when the consumer endpoint goes away (NIC teardown). Producers
    /// holding a stale `Arc` to this ring check it before pushing, so a
    /// dropped endpoint cannot silently swallow packets forever.
    closed: AtomicBool,
}

// SAFETY: shared access is race-free by the Vyukov slot-ownership
// protocol; every field but `arena` is an atomic or is never written
// after `new`, and `arena`'s mapped pages (`Send`, owned by the ring, no
// thread-affine state) are written only through `slot_bytes` pointers.
// (1) Any thread may call `push_run` (multi-producer): the
// `enqueue_pos` CAS from `pos` to `pos + n` gives the winning producer
// *exclusive* ownership of the slots of positions `pos .. pos + n` — it
// saw each of them free (`seq == position`), and a free slot is taken
// only by moving `enqueue_pos` across its position, which the CAS proves
// nobody did — so its `arena` writes are unaliased; each slot's `seq`
// release-store publishes them. (2) Only the single consumer thread may
// call `claim_run` / `claimed_bytes` / `release` (enforced by the
// transport wrapper, which never shares the consumer handle): its `seq`
// acquire-load synchronizes with the producer's release-store before it
// reads the slot, and producers cannot touch a claimed slot again until
// `release` bumps the sequence by one full lap (a release-store, paired
// with the acquire-load in `push_run`). (3) The hot window: a producer
// writes position `p` to hot slot `p % W` only after acquire-loading a
// `released` watermark above `p − W`, which the consumer release-stores
// after its last read of every position below it. Any other position
// `q ≡ p (mod W)` that shares the hot slot is either `≤ p − W`, hence
// released and never read again, or `≥ p + W`, which takes the hot slot
// only once `p` itself is released; so no two live positions share one. A
// stale (or lazily published, so smaller) watermark only sends a producer
// to its positional slot. (4) `closed` is an independent monotonic flag
// with its own release/acquire pair; it gates new pushes only and never
// transfers data.
// COVERS: ring_stress (Miri), concurrent_producers_no_loss_no_dup, hot_window_* unit tests (Miri)
unsafe impl Sync for PacketRing {}

impl PacketRing {
    /// Create a ring with `capacity` slots (rounded up to a power of two)
    /// for packets of up to `slot_size` bytes (rounded up to a multiple of
    /// 64, so every slot starts on a cache line). Panics past a 4 GiB arena.
    pub fn new(capacity: usize, slot_size: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let hot = (cap / 2).min(HOT_SLOTS);
        let stride = slot_size.max(1).next_multiple_of(LINE);
        let meta = (0..cap)
            .map(|i| SlotMeta {
                seq: AtomicUsize::new(i),
                len: AtomicU32::new(0),
                off: AtomicU32::new(0),
            })
            .collect();
        // One mapping, hot window first: zero pages the kernel faults in
        // only where packets land, whatever the heap would recycle. Offsets
        // are `u32`.
        let arena_len = (cap + hot)
            .checked_mul(stride)
            .filter(|&len| u32::try_from(len).is_ok())
            .expect("ring arena exceeds 4 GiB");
        Self {
            meta,
            arena: Mapping::zeroed(arena_len),
            stride,
            mask: cap - 1,
            hot,
            enqueue_pos: CachePadded::new(AtomicUsize::new(0)),
            dequeue_pos: CachePadded::new([AtomicUsize::new(0), AtomicUsize::new(0)]),
            released: CachePadded::new(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
        }
    }

    /// Mark the ring dead: its consumer is gone and nothing will ever
    /// drain it again. Producers observe this via [`PacketRing::is_closed`]
    /// and drop (and count) instead of enqueueing into the void.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the consumer endpoint has been torn down. One atomic load,
    /// which the TX path pays once per run.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Maximum payload bytes per packet (the slot stride).
    pub fn slot_size(&self) -> usize {
        self.stride
    }

    #[inline]
    fn meta(&self, pos: usize) -> &SlotMeta {
        &self.meta[pos & self.mask]
    }

    /// Arena offset of the slot position `pos` is written to: its hot slot
    /// if `pos < hot_end` (the watermark plus `W`), else its positional one.
    #[inline]
    fn slot_off(&self, pos: usize, hot_end: usize) -> usize {
        let slot = if pos < hot_end {
            pos & (self.hot - 1)
        } else {
            self.hot + (pos & self.mask)
        };
        slot * self.stride
    }

    /// First byte of the slot at arena offset `off`. Derived from the
    /// whole arena, so the pointer is good for all `stride` bytes of it.
    #[inline]
    fn slot_bytes(&self, off: usize) -> *mut u8 {
        debug_assert!(off + self.stride <= self.arena.len());
        self.arena.as_ptr().wrapping_add(off)
    }

    /// Producer side: copy a run of packets (`hdr` then `data` of each)
    /// into consecutive slots reserved with **one** `enqueue_pos` CAS.
    ///
    /// Returns how many were delivered, always a prefix of `pkts`: a full
    /// ring (the next slot is not released yet) or a packet larger than a
    /// slot ends the run, and the caller counts the rest as dropped. Safe
    /// to call from many threads concurrently; the packets of one run land
    /// at adjacent positions.
    pub fn push_run(&self, pkts: &[TxPacket<'_>]) -> usize {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        let n = loop {
            // Count free slots from `pos`. A slot's `seq` against its
            // position `p`: equal — free; behind — the consumer has not
            // released the previous lap, the ring is full from here;
            // ahead — another producer already filled `p`.
            let mut n = 0;
            while n < pkts.len()
                && pkts[n].len() <= self.stride
                && self.meta(pos + n).seq.load(Ordering::Acquire) == pos + n
            {
                n += 1;
            }
            if n == 0 {
                // Nothing to take at `pos` — unless another producer has
                // moved on from it since.
                let actual = self.enqueue_pos.load(Ordering::Relaxed);
                if actual == pos {
                    return 0;
                }
                pos = actual;
                continue;
            }
            match self.enqueue_pos.compare_exchange_weak(
                pos,
                pos + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break n,
                Err(actual) => pos = actual,
            }
        };
        // Pairs with the consumer's release-store in `release`.
        let hot_end = self.released.load(Ordering::Acquire) + self.hot;
        for (k, p) in pkts[..n].iter().enumerate() {
            let off = self.slot_off(pos + k, hot_end);
            let dst = self.slot_bytes(off);
            // SAFETY: the CAS gave this thread exclusive ownership of the `n`
            // positions from `pos`, and so of their slots (`Sync` impl (3)),
            // until their release-stores below; `p.len() <= stride` was checked
            // while counting, so both copies stay inside the slot, and the
            // sources are live borrows that cannot overlap owned memory.
            // COVERS: ring unit tests, hot_window_*, ring_props, ring_stress (Miri)
            unsafe {
                std::ptr::copy_nonoverlapping(p.hdr.as_ptr(), dst, p.hdr.len());
                std::ptr::copy_nonoverlapping(p.data.as_ptr(), dst.add(p.hdr.len()), p.data.len());
            }
            let m = self.meta(pos + k);
            m.len.store(p.len() as u32, Ordering::Relaxed);
            m.off.store(off as u32, Ordering::Relaxed);
            m.seq.store(pos + k + 1, Ordering::Release);
        }
        n
    }

    /// Consumer side: claim up to `max` filled slots without releasing
    /// them, appending one token each to `out` (`slot` is the position to
    /// pass to [`PacketRing::release`]; positions are consecutive). One
    /// `dequeue_pos` load and store per call. Must only be called by the
    /// single consumer.
    pub fn claim_run(&self, max: usize, out: &mut Vec<RxToken>) -> usize {
        let pos = self.dequeue_pos[0].load(Ordering::Relaxed);
        let mut n = 0;
        while n < max {
            let m = self.meta(pos + n);
            // Pairs with the producer's release-store: makes `len`, `off`
            // and the payload bytes visible.
            if m.seq.load(Ordering::Acquire) != pos + n + 1 {
                break;
            }
            out.push(RxToken {
                slot: (pos + n) as u64,
                len: m.len.load(Ordering::Relaxed),
                off: m.off.load(Ordering::Relaxed),
            });
            n += 1;
        }
        self.dequeue_pos[0].store(pos + n, Ordering::Relaxed);
        n
    }

    /// Borrow the payload of a claimed slot.
    ///
    /// # Contract (enforced by the transport wrapper)
    /// `tok` must come from [`PacketRing::claim_run`] on this ring and not
    /// have been released yet.
    pub fn claimed_bytes(&self, tok: &RxToken) -> &[u8] {
        let len = tok.len().min(self.stride);
        let off = (tok.off as usize).min(self.arena.len() - self.stride);
        // SAFETY: per the contract the token's position is claimed by the
        // (single) consumer and not released, so no producer writes its slot
        // (hot or positional, `Sync` impl (3)) while the borrow lives; `off`
        // and `len` are clamped to the arena and the slot.
        // COVERS: ring unit tests, hot_window_*, ring_props, ring_stress (Miri)
        unsafe { std::slice::from_raw_parts(self.slot_bytes(off), len) }
    }

    /// Consumer side: return `count` claimed slots from position `first`
    /// on to the producers ("re-post the RX descriptors"). Ranges may be
    /// released in any order; a slot released late holds producers up at
    /// its own position only, and the hot-window watermark behind it.
    pub fn release(&self, first: u64, count: usize) {
        let first = first as usize;
        for pos in first..first + count {
            self.meta(pos)
                .seq
                .store(pos + self.mask + 1, Ordering::Release);
        }
        let mut wm = self.dequeue_pos[1].load(Ordering::Relaxed);
        if first <= wm {
            // Extend the prefix over this range and ranges released ahead of
            // it (a held position has `seq == p + 1`, a released one moved on).
            wm = wm.max(first + count);
            let claimed = self.dequeue_pos[0].load(Ordering::Relaxed);
            while wm < claimed && self.meta(wm).seq.load(Ordering::Relaxed) != wm + 1 {
                wm += 1;
            }
            self.dequeue_pos[1].store(wm, Ordering::Relaxed);
            if wm >= self.released.load(Ordering::Relaxed) + self.hot / 2 {
                self.released.store(wm, Ordering::Release);
            }
        }
    }

    /// Approximate number of filled-but-unclaimed packets (racy; for stats).
    pub fn len_approx(&self) -> usize {
        let e = self.enqueue_pos.load(Ordering::Relaxed);
        let d = self.dequeue_pos[0].load(Ordering::Relaxed);
        e.saturating_sub(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt::Addr;
    use std::sync::Arc;

    fn pkt<'a>(hdr: &'a [u8], data: &'a [u8]) -> TxPacket<'a> {
        TxPacket {
            dst: Addr::new(0, 0),
            hdr,
            data,
        }
    }

    fn push(r: &PacketRing, bytes: &[u8]) -> bool {
        r.push_run(&[pkt(bytes, &[])]) == 1
    }

    fn claim(r: &PacketRing) -> Option<RxToken> {
        let mut out = Vec::new();
        (r.claim_run(1, &mut out) == 1).then(|| out[0])
    }

    #[test]
    fn push_claim_release_roundtrip() {
        let r = PacketRing::new(4, 64);
        assert_eq!(r.push_run(&[pkt(b"hello ", b"world")]), 1);
        let tok = claim(&r).unwrap();
        assert_eq!(r.claimed_bytes(&tok), b"hello world");
        r.release(tok.slot(), 1);
        assert!(claim(&r).is_none());
    }

    #[test]
    fn full_ring_drops_at_producer() {
        let r = PacketRing::new(2, 16);
        assert!(push(&r, b"a"));
        assert!(push(&r, b"b"));
        assert!(!push(&r, b"c"), "full ring must drop");
        // Claim but do NOT release: slot still unavailable to producers.
        let tok = claim(&r).unwrap();
        assert!(!push(&r, b"d"), "claimed-but-unreleased slot is not free");
        r.release(tok.slot(), 1);
        assert!(push(&r, b"e"), "released slot is reusable");
    }

    #[test]
    fn oversized_packet_ends_the_run() {
        let r = PacketRing::new(4, 64);
        assert_eq!(r.slot_size(), 64);
        let (fits, big) = ([1u8; 64], [2u8; 65]);
        assert_eq!(r.push_run(&[pkt(&big, &[])]), 0);
        assert_eq!(r.push_run(&[pkt(&fits[..60], &big[..5])]), 0, "hdr + data");
        assert_eq!(r.push_run(&[pkt(&fits, &[]), pkt(&big, &[])]), 1);
        assert_eq!(r.len_approx(), 1, "only the prefix took a slot");
    }

    #[test]
    fn slot_size_rounds_up_to_cache_lines() {
        for (asked, stride) in [(0, 64), (1, 64), (64, 64), (65, 128), (1040, 1088)] {
            let r = PacketRing::new(2, asked);
            assert_eq!(r.slot_size(), stride);
            let (a, b) = (
                r.slot_bytes(r.slot_off(0, 0)),
                r.slot_bytes(r.slot_off(1, 0)),
            );
            assert_eq!(a as usize % LINE, 0);
            assert_eq!(b as usize - a as usize, stride);
        }
    }

    #[test]
    fn run_wraps_and_stops_at_a_full_ring() {
        let r = PacketRing::new(4, 16);
        let bodies: Vec<[u8; 1]> = (0..8u8).map(|i| [i]).collect();
        let pkts: Vec<TxPacket<'_>> = bodies.iter().map(|b| pkt(b, &[])).collect();
        assert_eq!(r.push_run(&pkts[..3]), 3);
        let mut toks = Vec::new();
        assert_eq!(r.claim_run(2, &mut toks), 2);
        r.release(toks[0].slot(), 2);
        // Positions 3, then 4 and 5 on the next lap; slot 2 is unclaimed.
        assert_eq!(r.push_run(&pkts[3..8]), 3, "prefix up to the full slot");
        toks.clear();
        assert_eq!(r.claim_run(8, &mut toks), 4);
        let seen: Vec<u8> = toks.iter().map(|t| r.claimed_bytes(t)[0]).collect();
        assert_eq!(seen, vec![2, 3, 4, 5]);
        assert_eq!(toks[0].slot(), 2, "claims are consecutive positions");
        assert_eq!(toks[3].slot(), 5);
    }

    #[test]
    fn out_of_order_release() {
        let r = PacketRing::new(4, 8);
        for i in 0..4u8 {
            assert!(push(&r, &[i]));
        }
        let a = claim(&r).unwrap();
        let b = claim(&r).unwrap();
        // Release the second claim first: the hole at `a` blocks the run.
        r.release(b.slot(), 1);
        assert!(!push(&r, &[8]), "position 4 waits for slot 0");
        r.release(a.slot(), 1);
        // Both slots reusable; a run of two must succeed.
        assert_eq!(r.push_run(&[pkt(&[9], &[]), pkt(&[10], &[])]), 2);
        // Drain the remaining four packets in FIFO order.
        let mut seen = Vec::new();
        while let Some(tok) = claim(&r) {
            seen.push(r.claimed_bytes(&tok)[0]);
            r.release(tok.slot(), 1);
        }
        assert_eq!(seen, vec![2, 3, 9, 10]);
    }

    /// Whether `tok`'s bytes lie in `r`'s hot window.
    fn in_window(r: &PacketRing, tok: &RxToken) -> bool {
        (tok.off as usize) < r.hot * r.stride
    }

    /// Push packets `from..from + n` (4-byte payloads) one at a time, claim them
    /// and return the tokens, unreleased.
    fn hold(r: &PacketRing, from: u32, n: u32) -> Vec<RxToken> {
        for i in from..from + n {
            assert!(push(r, &i.to_le_bytes()));
        }
        let mut toks = Vec::new();
        assert_eq!(r.claim_run(n as usize, &mut toks), n as usize);
        toks
    }

    #[test]
    fn hot_window_engages_below_w_unreleased_positions() {
        let w = HOT_SLOTS as u32;
        for held in [w - 1, w, w + 1] {
            let r = PacketRing::new(256, 64);
            assert_eq!(r.hot, HOT_SLOTS);
            // Move the watermark off zero and the hot index past a wrap.
            let warm = hold(&r, 0, 100);
            r.release(warm[0].slot(), 100);
            let toks = hold(&r, 100, held + 1);
            let placed: Vec<bool> = toks.iter().map(|t| in_window(&r, t)).collect();
            // Occupancy `k` before a push: hot iff k < W.
            let want: Vec<bool> = (0..=held).map(|k| k < w).collect();
            assert_eq!(placed, want, "{held} held");
            for (i, t) in toks.iter().enumerate() {
                assert_eq!(r.claimed_bytes(t), (100 + i as u32).to_le_bytes());
            }
        }
    }

    #[test]
    fn hot_window_run_straddles_the_edge() {
        let r = PacketRing::new(256, 64);
        let held = hold(&r, 0, HOT_SLOTS as u32 - 5);
        let bodies: Vec<[u8; 4]> = (0..10u32).map(|i| (1000 + i).to_le_bytes()).collect();
        let run: Vec<TxPacket<'_>> = bodies.iter().map(|b| pkt(b, &[])).collect();
        assert_eq!(r.push_run(&run), 10, "one reservation, both kinds of slot");
        let mut toks = Vec::new();
        assert_eq!(r.claim_run(10, &mut toks), 10);
        let placed: Vec<bool> = toks.iter().map(|t| in_window(&r, t)).collect();
        assert_eq!(placed, [[true; 5], [false; 5]].concat());
        for (t, b) in toks.iter().zip(&bodies) {
            assert_eq!(r.claimed_bytes(t), b);
        }
        for (i, t) in held.iter().enumerate() {
            assert_eq!(r.claimed_bytes(t), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn hot_window_watermark_is_published_every_half_window() {
        let r = PacketRing::new(256, 64);
        for i in 0..200u32 {
            let tok = hold(&r, i, 1)[0];
            assert!(in_window(&r, &tok), "packet {i} of a ring one deep");
            r.release(tok.slot(), 1);
            let (exact, seen) = (i as usize + 1, r.released.load(Ordering::Relaxed));
            assert_eq!(r.dequeue_pos[1].load(Ordering::Relaxed), exact);
            assert_eq!(seen, exact / 32 * 32, "published in steps of W / 2");
        }
    }

    #[test]
    fn hot_window_watermark_waits_behind_a_hole() {
        let r = PacketRing::new(256, 64);
        let n = HOT_SLOTS as u32 + 10;
        let toks = hold(&r, 0, n);
        // Release every position but 0, back to front.
        for t in toks[1..].iter().rev() {
            r.release(t.slot(), 1);
        }
        assert_eq!(
            r.released.load(Ordering::Relaxed),
            0,
            "held behind the hole"
        );
        // Position 0 holds hot slot 0; position W + 10 must not take a hot
        // slot, and position 0's bytes stay intact.
        let next = hold(&r, n, 1);
        assert!(!in_window(&r, &next[0]));
        assert_eq!(r.claimed_bytes(&toks[0]), 0u32.to_le_bytes());
        r.release(toks[0].slot(), 1);
        // The prefix now runs to the last claimed position, still held.
        assert_eq!(r.released.load(Ordering::Relaxed), n as usize);
        let after = hold(&r, n + 1, 1);
        assert!(in_window(&r, &after[0]));
        assert_eq!(r.claimed_bytes(&next[0]), n.to_le_bytes());
        assert_eq!(r.claimed_bytes(&after[0]), (n + 1).to_le_bytes());
    }

    /// The arena is mapped, not cleared: a fresh ring holds none of its
    /// pages, and a push makes resident the page its slot lies in.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn arena_pages_are_resident_only_where_packets_land() {
        let r = PacketRing::new(4096, 1040);
        let pages = r.arena.resident_pages();
        assert!(
            pages.iter().all(|&p| !p),
            "a fresh ring holds no arena page"
        );
        assert!(push(&r, b"first"));
        let tok = claim(&r).unwrap();
        let pages = r.arena.resident_pages();
        assert!(
            pages[tok.off as usize / 4096],
            "the slot's page is resident"
        );
        let resident = pages.iter().filter(|&&p| p).count();
        assert!(
            resident < pages.len() / 2,
            "{resident} of {} pages",
            pages.len()
        );
    }

    #[test]
    fn fifo_order_single_producer() {
        let r = PacketRing::new(8, 16);
        for i in 0..8u32 {
            assert!(push(&r, &i.to_le_bytes()));
        }
        for i in 0..8u32 {
            let tok = claim(&r).unwrap();
            assert_eq!(r.claimed_bytes(&tok), i.to_le_bytes());
            r.release(tok.slot(), 1);
        }
    }

    #[test]
    fn concurrent_producers_no_loss_no_dup() {
        const PRODUCERS: usize = 4;
        // Miri interprets every access; keep its schedule short.
        const PER_PRODUCER: usize = if cfg!(miri) { 200 } else { 20_000 };
        let r = Arc::new(PacketRing::new(256, 16));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut sent = 0u64;
                for i in 0..PER_PRODUCER {
                    let v = ((p as u64) << 32) | i as u64;
                    while !push(&r, &v.to_le_bytes()) {
                        // Yield instead of spinning so Miri's scheduler
                        // always lets the consumer make progress.
                        std::thread::yield_now();
                    }
                    sent += 1;
                }
                sent
            }));
        }
        let mut seen = vec![Vec::new(); PRODUCERS];
        let mut total = 0usize;
        let mut toks = Vec::new();
        while total < PRODUCERS * PER_PRODUCER {
            toks.clear();
            let n = r.claim_run(32, &mut toks);
            if n == 0 {
                std::thread::yield_now();
                continue;
            }
            for tok in &toks {
                let v = u64::from_le_bytes(r.claimed_bytes(tok).try_into().unwrap());
                seen[(v >> 32) as usize].push(v & 0xFFFF_FFFF);
            }
            r.release(toks[0].slot(), n);
            total += n;
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), PER_PRODUCER as u64);
        }
        // Per-producer FIFO: each producer's values arrive in order, exactly once.
        for s in &seen {
            assert_eq!(s.len(), PER_PRODUCER);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
