//! Deterministic multi-thread stress of the `PacketRing` hand-off,
//! written to run under Miri (CI: `cargo +nightly miri test -p
//! erpc-transport --test ring_stress`): short schedules under
//! `cfg!(miri)`, `yield_now` instead of spin loops so the interpreter's
//! scheduler always lets the peer make progress, no FFI, no clocks, no
//! randomness. These tests exercise exactly the ownership protocol the
//! `unsafe impl Send/Sync for PacketRing` comments claim: producer
//! threads pushing runs, one consumer thread claiming/reading/releasing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use erpc_transport::{Addr, PacketRing, RxToken, TxPacket};

/// Miri interprets every memory access; keep its schedule short but
/// still long enough to lap a small ring many times.
const PACKETS: usize = if cfg!(miri) { 300 } else { 50_000 };

fn pkt<'a>(hdr: &'a [u8], data: &'a [u8]) -> TxPacket<'a> {
    TxPacket {
        dst: Addr::new(0, 0),
        hdr,
        data,
    }
}

fn push(ring: &PacketRing, bytes: &[u8]) -> bool {
    ring.push_run(&[pkt(bytes, &[])]) == 1
}

fn claim(ring: &PacketRing) -> Option<RxToken> {
    let mut out = Vec::new();
    (ring.claim_run(1, &mut out) == 1).then(|| out[0])
}

/// Deterministic variable-length payload for packet `i`: length cycles
/// 1..=13, bytes are a function of (i, offset) so torn or misattributed
/// reads cannot go unnoticed.
fn payload(i: usize) -> Vec<u8> {
    let len = 1 + i % 13;
    (0..len)
        .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8) ^ 0x5A)
        .collect()
}

/// One producer, one consumer, a ring far smaller than the packet count:
/// every slot is reused dozens of times, so the release → next-lap-push
/// edge (the part of the protocol a single-threaded test cannot reach)
/// is crossed on every lap. Asserts exact FIFO order and exact bytes.
#[test]
fn two_thread_fifo_exact_bytes() {
    let ring = Arc::new(PacketRing::new(8, 16));
    let producer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            for i in 0..PACKETS {
                let p = payload(i);
                // Split the payload so the gather path (multi-part copy
                // into one slot) is exercised too.
                let mid = p.len() / 2;
                while ring.push_run(&[pkt(&p[..mid], &p[mid..])]) == 0 {
                    thread::yield_now();
                }
            }
        })
    };
    let mut next = 0usize;
    while next < PACKETS {
        let Some(tok) = claim(&ring) else {
            thread::yield_now();
            continue;
        };
        assert_eq!(
            ring.claimed_bytes(&tok),
            payload(next).as_slice(),
            "packet {next} torn or out of order"
        );
        ring.release(tok.slot(), 1);
        next += 1;
    }
    producer.join().unwrap();
    assert!(claim(&ring).is_none(), "ring must drain empty");
}

/// Consumer holds claims (in-place zero-copy reads, §4.2.3) while the
/// producer keeps pushing: held slots must stay invisible to the
/// producer until released, and their bytes must stay intact while
/// later slots churn around them.
#[test]
fn held_claims_survive_producer_churn() {
    let rounds = if cfg!(miri) { 50 } else { 5_000 };
    let ring = Arc::new(PacketRing::new(8, 16));
    let producer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            for i in 0..rounds * 3 {
                let p = payload(i);
                while !push(&ring, &p) {
                    thread::yield_now();
                }
            }
        })
    };
    let mut next = 0usize;
    for _ in 0..rounds {
        // Claim three packets, verify + release them out of order
        // (2, 0, 1) so release order ≠ claim order on every round.
        let mut held = Vec::with_capacity(3);
        while held.len() < 3 {
            match claim(&ring) {
                Some(tok) => held.push(tok),
                None => thread::yield_now(),
            }
        }
        for &k in &[2usize, 0, 1] {
            assert_eq!(ring.claimed_bytes(&held[k]), payload(next + k).as_slice());
            ring.release(held[k].slot(), 1);
        }
        next += 3;
    }
    producer.join().unwrap();
}

/// Several producers push *runs* of varying length into a ring smaller
/// than a lap of their traffic while the consumer claims bursts: nothing
/// is lost or duplicated, each producer's packets arrive in its order,
/// and every accepted run — a prefix of what was offered, when the ring
/// was nearly full — sits at adjacent positions (one reservation).
#[test]
fn concurrent_run_producers() {
    const PRODUCERS: usize = 3;
    let per_producer = if cfg!(miri) { 60 } else { 20_000 };
    let ring = Arc::new(PacketRing::new(16, 16));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let bodies: Vec<[u8; 8]> = (0..per_producer)
                    .map(|i| (((p as u64) << 32) | i as u64).to_le_bytes())
                    .collect();
                // (first packet, length) of every run the ring accepted.
                let mut runs = Vec::new();
                let mut sent = 0;
                while sent < per_producer {
                    let want = (1 + (sent + p) % 5).min(per_producer - sent);
                    let run: Vec<TxPacket<'_>> = bodies[sent..sent + want]
                        .iter()
                        .map(|b| pkt(&b[..3], &b[3..]))
                        .collect();
                    let took = ring.push_run(&run);
                    assert!(took <= want);
                    if took == 0 {
                        thread::yield_now();
                        continue;
                    }
                    runs.push((sent, took));
                    sent += took;
                }
                runs
            })
        })
        .collect();
    // Ring position at which packet `i` of producer `p` arrived.
    let mut arrived = vec![Vec::new(); PRODUCERS];
    let mut toks = Vec::new();
    let mut total = 0;
    while total < PRODUCERS * per_producer {
        toks.clear();
        let n = ring.claim_run(5, &mut toks);
        if n == 0 {
            thread::yield_now();
            continue;
        }
        for tok in &toks {
            let v = u64::from_le_bytes(ring.claimed_bytes(tok).try_into().unwrap());
            let (p, i) = ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize);
            assert_eq!(
                i,
                arrived[p].len(),
                "producer {p}: lost, repeated or reordered"
            );
            arrived[p].push(tok.slot());
        }
        ring.release(toks[0].slot(), n);
        total += n;
    }
    for (p, h) in producers.into_iter().enumerate() {
        for (first, len) in h.join().unwrap() {
            let at = &arrived[p][first..first + len];
            assert!(
                at.windows(2).all(|w| w[1] == w[0] + 1),
                "producer {p}: run of {len} from packet {first} scattered over {at:?}"
            );
        }
    }
    assert!(claim(&ring).is_none(), "ring must drain empty");
}

/// `close()` must become visible to a producer on another thread, and a
/// closed ring still drains: packets pushed before the close are not
/// lost.
#[test]
fn close_is_visible_across_threads() {
    let ring = Arc::new(PacketRing::new(8, 16));
    let producer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            let mut accepted = 0u64;
            loop {
                if ring.is_closed() {
                    return accepted;
                }
                if push(&ring, b"x") {
                    accepted += 1;
                } else {
                    thread::yield_now();
                }
            }
        })
    };
    // Drain a few packets, then tear the consumer down.
    let mut drained = 0u64;
    while drained < 16 {
        if let Some(tok) = claim(&ring) {
            ring.release(tok.slot(), 1);
            drained += 1;
        } else {
            thread::yield_now();
        }
    }
    ring.close();
    let accepted = producer.join().unwrap();
    // Everything the producer got a `true` for is either already drained
    // or still sitting in the ring — a closed ring loses nothing.
    while let Some(tok) = claim(&ring) {
        ring.release(tok.slot(), 1);
        drained += 1;
    }
    assert_eq!(drained, accepted);
}

/// Checksummed payload of packet `i` of producer `p`: the tag, a body of
/// 0..=20 bytes derived from both, then an FNV-1a sum of everything
/// before it, so a torn, stale or misplaced slot is caught on its own.
fn tagged(p: usize, i: usize) -> Vec<u8> {
    let mut b = (((p as u64) << 32) | i as u64).to_le_bytes().to_vec();
    b.extend((0..(i + p) % 21).map(|j| (i * 7 + j * 13 + p) as u8));
    let sum = fnv(&b);
    b.extend_from_slice(&sum.to_le_bytes());
    b
}

/// Verify a claimed packet against its checksum and its expected bytes;
/// return its (producer, index) tag.
fn check(ring: &PacketRing, tok: &RxToken) -> (usize, usize) {
    let b = ring.claimed_bytes(tok);
    let (body, sum) = b.split_at(b.len() - 4);
    assert_eq!(
        fnv(body).to_le_bytes(),
        sum,
        "torn packet at {}",
        tok.slot()
    );
    let v = u64::from_le_bytes(body[..8].try_into().unwrap());
    let (p, i) = ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize);
    assert_eq!(b, tagged(p, i).as_slice());
    (p, i)
}

fn fnv(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &x| {
        (h ^ x as u32).wrapping_mul(0x0100_0193)
    })
}

/// Several producers push runs while the consumer holds its claims until
/// a threshold that cycles below, at and above the hot window (half of
/// this 16-slot ring), then releases them in two ranges, back half first.
/// The ring's occupancy thus keeps crossing the window's edge, so packets
/// land in hot and positional slots in turn and the watermark both waits
/// behind a hole and jumps over ranges released ahead of it. Every packet
/// arrives once, intact, and in its producer's order.
#[test]
fn producers_across_the_hot_window() {
    const PRODUCERS: usize = 3;
    const WINDOW: usize = 8;
    let per_producer = if cfg!(miri) { 40 } else { 20_000 };
    let ring = Arc::new(PacketRing::new(16, 64));
    let finished = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (ring, finished) = (Arc::clone(&ring), Arc::clone(&finished));
            thread::spawn(move || {
                let bodies: Vec<Vec<u8>> = (0..per_producer).map(|i| tagged(p, i)).collect();
                let mut sent = 0;
                while sent < per_producer {
                    let end = (sent + 1 + (sent + p) % 4).min(per_producer);
                    let run: Vec<TxPacket<'_>> = bodies[sent..end]
                        .iter()
                        .map(|b| pkt(&b[..5], &b[5..]))
                        .collect();
                    match ring.push_run(&run) {
                        0 => thread::yield_now(),
                        n => sent += n,
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            })
        })
        .collect();
    let thresholds = [WINDOW - 1, WINDOW, WINDOW + 1, 3, 14];
    let (mut next, mut held, mut rounds) = (vec![0usize; PRODUCERS], Vec::new(), 0);
    while next.iter().sum::<usize>() < PRODUCERS * per_producer {
        // Read before claiming: once every producer is done, a claim of
        // nothing means the ring is empty.
        let done = finished.load(Ordering::Acquire) == PRODUCERS;
        let n = ring.claim_run(4, &mut held);
        let flush = n == 0 && done && !held.is_empty();
        if held.len() < thresholds[rounds % thresholds.len()] && !flush {
            if n == 0 {
                thread::yield_now();
            }
            continue;
        }
        for tok in &held {
            let (p, i) = check(&ring, tok);
            assert_eq!(i, next[p], "producer {p}: lost, repeated or reordered");
            next[p] += 1;
        }
        // The front half stays held while the back half goes back and the
        // producers refill: the watermark may not pass it, so its bytes
        // must survive.
        let (first, mid) = (held[0].slot(), held.len() / 2);
        ring.release(first + mid as u64, held.len() - mid);
        for _ in 0..8 {
            if ring.len_approx() >= mid {
                break;
            }
            thread::yield_now();
        }
        for tok in &held[..mid] {
            check(&ring, tok);
        }
        ring.release(first, mid);
        held.clear();
        rounds += 1;
    }
    for h in producers {
        h.join().unwrap();
    }
    assert!(claim(&ring).is_none(), "ring must drain empty");
}
