//! Property tests for the packet ring: arbitrary interleavings of run
//! pushes / burst claims / releases against a model deque, plus a
//! multi-producer stress with randomized payload sizes. (Seeded-RNG case
//! generation; the workspace builds offline, so no proptest.)

use erpc_transport::{Addr, PacketRing, RxToken, TxPacket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

fn pkt(bytes: &[u8]) -> TxPacket<'_> {
    TxPacket {
        dst: Addr::new(0, 0),
        hdr: bytes,
        data: &[],
    }
}

#[derive(Debug, Clone)]
enum RingOp {
    /// One `push_run` of these payloads (a single packet is a run of one).
    PushRun(Vec<Vec<u8>>),
    /// One `claim_run` of at most this many packets.
    Claim(usize),
    ReleaseOldest,
    ReleaseNewest,
}

fn random_op(rng: &mut SmallRng) -> RingOp {
    // Weights mirror the original strategy: 3:3:1:1.
    match rng.gen_range(0..8) {
        0..=2 => {
            // Mostly short runs; some longer than the whole ring.
            let k = if rng.gen_bool(0.5) {
                1
            } else {
                rng.gen_range(2..12)
            };
            RingOp::PushRun(
                (0..k)
                    .map(|_| {
                        let len = rng.gen_range(0..32);
                        (0..len).map(|_| rng.gen::<u8>()).collect()
                    })
                    .collect(),
            )
        }
        3..=5 => RingOp::Claim(rng.gen_range(1..4)),
        6 => RingOp::ReleaseOldest,
        _ => RingOp::ReleaseNewest,
    }
}

/// Single-threaded model check. Slot-reuse discipline (Vyukov): the
/// producer takes positions in order, and position `g` is admissible
/// iff `g < CAP` or the claim at position `g − CAP` has been released —
/// releases may happen out of order, but a slot blocks its own next
/// lap until released. A run is accepted up to the first inadmissible
/// position and no further. Payloads come back FIFO and intact.
#[test]
fn ring_matches_model() {
    // What the generated cases reached, so a change to the generator
    // cannot quietly stop covering the run-specific behaviours.
    let (mut partial, mut wrapped, mut holes) = (0, 0, 0);
    for case in 0u64..128 {
        let mut rng = SmallRng::seed_from_u64(0x4116 ^ case);
        let n_ops = rng.gen_range(1..200);
        const CAP: u64 = 8;
        let ring = PacketRing::new(CAP as usize, 32);
        let mut next_push = 0u64;
        let mut next_claim = 0u64;
        let mut fifo: VecDeque<Vec<u8>> = VecDeque::new(); // pushed, unclaimed
        let mut claimed: Vec<(RxToken, Vec<u8>)> = Vec::new(); // claimed, unreleased
        let mut released: HashSet<u64> = HashSet::new();
        let mut toks = Vec::new();
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                RingOp::PushRun(payloads) => {
                    let free = |g: u64| g < CAP || released.contains(&(g - CAP));
                    let fits = (0..payloads.len() as u64)
                        .take_while(|k| free(next_push + k))
                        .count();
                    let run: Vec<TxPacket<'_>> = payloads.iter().map(|p| pkt(p)).collect();
                    let took = ring.push_run(&run);
                    assert_eq!(took, fits, "run admission mismatch at {next_push}");
                    if 0 < took && took < payloads.len() {
                        partial += 1;
                        // Stopped by a hole, not by the consumer's tail: a
                        // later slot of the same lap is already free again.
                        let stop = next_push + took as u64;
                        holes += usize::from((stop + 1..next_claim + CAP).any(free));
                    }
                    wrapped += usize::from(took > 1 && next_push % CAP + took as u64 > CAP);
                    fifo.extend(payloads.into_iter().take(took));
                    next_push += took as u64;
                }
                RingOp::Claim(max) => {
                    toks.clear();
                    let n = ring.claim_run(max, &mut toks);
                    assert_eq!(n, toks.len());
                    assert_eq!(n, max.min(fifo.len()), "claim takes all that is there");
                    for tok in &toks {
                        assert_eq!(tok.slot(), next_claim, "claims must be in order");
                        let expect = fifo.pop_front().expect("n <= fifo.len()");
                        assert_eq!(ring.claimed_bytes(tok), &expect[..]);
                        claimed.push((*tok, expect));
                        next_claim += 1;
                    }
                }
                RingOp::ReleaseOldest => {
                    if !claimed.is_empty() {
                        let (tok, _) = claimed.remove(0);
                        ring.release(tok.slot(), 1);
                        released.insert(tok.slot());
                    }
                }
                RingOp::ReleaseNewest => {
                    if let Some((tok, _)) = claimed.pop() {
                        ring.release(tok.slot(), 1);
                        released.insert(tok.slot());
                    }
                }
            }
            // Held claims stay intact while the ring churns around them.
            for (tok, expect) in &claimed {
                assert_eq!(ring.claimed_bytes(tok), &expect[..]);
            }
        }
    }
    assert!(partial > 0, "no run was accepted in part");
    assert!(wrapped > 0, "no run crossed the mask boundary");
    assert!(holes > 0, "no run was stopped by an out-of-order release");
}

/// Multi-producer: no loss, no duplication, per-producer FIFO, for
/// randomized producer counts, run lengths and payload lengths.
#[test]
fn ring_mpsc_stress() {
    for case in 0u64..4 {
        let mut rng = SmallRng::seed_from_u64(0x517E55 ^ case);
        let producers = rng.gen_range(2usize..5);
        let per_producer = rng.gen_range(100usize..600);
        let payload_len = rng.gen_range(8usize..32);
        let run_len = rng.gen_range(1usize..9);

        let ring = std::sync::Arc::new(PacketRing::new(64, 64));
        let mut handles = Vec::new();
        for p in 0..producers {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                let payloads: Vec<Vec<u8>> = (0..per_producer)
                    .map(|i| {
                        let mut payload = vec![0u8; payload_len];
                        payload[..8]
                            .copy_from_slice(&(((p as u64) << 32) | i as u64).to_le_bytes());
                        payload
                    })
                    .collect();
                let mut sent = 0;
                while sent < per_producer {
                    let end = (sent + run_len).min(per_producer);
                    let run: Vec<TxPacket<'_>> =
                        payloads[sent..end].iter().map(|b| pkt(b)).collect();
                    match ring.push_run(&run) {
                        0 => std::thread::yield_now(),
                        n => sent += n,
                    }
                }
            }));
        }
        let mut last_seen = vec![-1i64; producers];
        let mut total = 0usize;
        let mut toks = Vec::new();
        while total < producers * per_producer {
            toks.clear();
            let n = ring.claim_run(16, &mut toks);
            if n == 0 {
                std::thread::yield_now();
                continue;
            }
            for tok in &toks {
                let b = ring.claimed_bytes(tok);
                assert_eq!(b.len(), payload_len);
                let v = u64::from_le_bytes(b[..8].try_into().unwrap());
                let (p, i) = ((v >> 32) as usize, (v & 0xFFFF_FFFF) as i64);
                assert_eq!(i, last_seen[p] + 1, "per-producer FIFO violated");
                last_seen[p] = i;
            }
            ring.release(toks[0].slot(), n);
            total += n;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.claim_run(1, &mut toks), 0, "phantom packet");
    }
}
