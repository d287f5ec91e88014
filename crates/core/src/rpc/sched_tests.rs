//! Seeded model test of the slot scheduler (in the style of
//! `crates/transport/tests/ring_props.rs`; the workspace builds offline,
//! so no proptest): random enqueue / ack / rollback / complete /
//! fail-session steps against a scripted server on the MemFabric, with
//! `Rpc::assert_slot_scheduling` and credit conservation checked after
//! every step. Lives in the crate because it reads the session's slots to
//! script valid acks and calls the rollback and failure paths directly.

use std::cell::Cell;
use std::rc::Rc;

use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport, Transport};

use super::{Rpc, SessionHandle};
use crate::pkthdr::{PktHdr, PktType};
use crate::{CcAlgorithm, RpcConfig, RpcError};

use super::fake_peer::{fake_server_accept_session, recv_all, send};

const CREDITS: u32 = 8;
const RESP_BYTES: [usize; 2] = [8, 2500];

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Model {
    client: Rpc<MemTransport>,
    server: MemTransport,
    sess: SessionHandle,
    /// Continuations fired (with any result) / requests accepted.
    fired: Rc<Cell<u64>>,
    accepted: u64,
}

impl Model {
    fn new() -> Self {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let cfg = RpcConfig {
            ping_interval_ns: 0,
            cc: CcAlgorithm::None,
            // Rollbacks are scripted, not timed.
            rto_ns: 60_000_000_000,
            opt_adaptive_rto: false,
            session_credits: CREDITS,
            backlog_cap: 6,
            ..RpcConfig::default()
        };
        let client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
        let server = fabric.create_transport(Addr::new(9, 0));
        let mut m = Self {
            client,
            server,
            sess: SessionHandle::invalid(),
            fired: Rc::default(),
            accepted: 0,
        };
        m.connect();
        m
    }

    /// Open a session; the server's acceptance is in the client's ring, so
    /// the handshake completes on a later pass.
    fn connect(&mut self) {
        self.sess = self.client.create_session(self.server.addr()).unwrap();
        fake_server_accept_session(&mut self.client, &mut self.server);
    }

    /// Run the client; the server discards what it sent (acks are scripted
    /// from the client's own state).
    fn pass(&mut self) {
        self.client.run_event_loop_once();
        recv_all(&mut self.server);
    }

    fn enqueue(&mut self, pkts: usize) {
        let size = (pkts - 1) * self.client.data_per_pkt() + 8;
        let mut req = self.client.alloc_msg_buffer(size);
        req.resize(size);
        let resp = self.client.alloc_msg_buffer(RESP_BYTES[1]);
        let fired = self.fired.clone();
        let r = self
            .client
            .enqueue_request(self.sess, 3, req, resp, move |ctx, comp| {
                fired.set(fired.get() + 1);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            });
        match r {
            Ok(()) => self.accepted += 1,
            Err(e) => {
                assert_eq!(e.err, RpcError::BacklogFull);
                self.client.free_msg_buffer(e.req);
                self.client.free_msg_buffer(e.resp);
            }
        }
    }

    /// Active slots with a packet in flight: the ones an ack or a
    /// rollback can name.
    fn in_flight_slots(&self) -> Vec<usize> {
        let sess = self.client.sessions[self.sess.0 as usize].as_ref().unwrap();
        (0..sess.slots.len())
            .filter(|i| {
                let c = sess.slots[*i].client();
                c.active && c.in_flight() > 0
            })
            .collect()
    }

    /// Send the next in-order ack for `slot`: the CR or response packet
    /// that is RX sequence `num_rx`.
    fn ack(&mut self, slot: usize) {
        let dpp = self.client.data_per_pkt();
        let sess = self.client.sessions[self.sess.0 as usize].as_ref().unwrap();
        let c = sess.slots[slot].client();
        let resp_bytes = RESP_BYTES[(c.req_num / 8 % 2) as usize];
        let (hdr, len) = if c.num_rx + 1 < c.req_total {
            let cr = PktHdr::control(PktType::CreditReturn, sess.local_num, c.req_num, 0);
            (
                PktHdr {
                    pkt_num: c.num_rx as u16,
                    ..cr
                },
                0,
            )
        } else {
            let p = (c.num_rx + 1 - c.req_total) as usize;
            let hdr = PktHdr {
                pkt_type: PktType::Resp,
                ecn: false,
                req_type: 3,
                dest_session: sess.local_num,
                msg_size: resp_bytes as u32,
                req_num: c.req_num,
                pkt_num: p as u16,
            };
            (hdr, (resp_bytes - p * dpp).min(dpp))
        };
        send(&mut self.server, self.client.addr(), &hdr, &vec![0; len]);
    }

    /// The scheduler's invariants plus credit conservation.
    fn check(&self) {
        self.client.assert_slot_scheduling();
        let sess = self.client.sessions[self.sess.0 as usize].as_ref().unwrap();
        let held: u32 = sess.slots.iter().map(|s| s.client().in_flight()).sum();
        assert_eq!(sess.credits + held, CREDITS, "credits conserved");
    }
}

#[test]
fn scheduler_invariants_hold_under_random_steps() {
    // What the generated steps reached, so a change to the generator
    // cannot quietly stop covering the scheduler's three regimes.
    let (mut direct, mut queued, mut starved, mut failed) = (0, 0, 0, 0);
    for case in 0u64..24 {
        let mut rng = Rng(0x510D ^ case);
        let mut m = Model::new();
        for _ in 0..400 {
            let connected = m.client.is_connected(m.sess);
            match rng.below(16) {
                0..=5 => {
                    let pkts = [1, 1, 3, 12][rng.below(4) as usize];
                    let info = m.client.session_info(m.sess).unwrap();
                    if connected && info.backlogged == 0 && info.outstanding_requests < 8 {
                        direct += 1;
                    } else {
                        queued += 1;
                    }
                    m.enqueue(pkts);
                }
                6..=11 => {
                    // One ack, or (one time in three) acks until the
                    // request completes.
                    let slots = m.in_flight_slots();
                    if !slots.is_empty() {
                        let slot = slots[rng.below(slots.len() as u64) as usize];
                        let req_num = {
                            let s = m.client.sessions[m.sess.0 as usize].as_ref().unwrap();
                            s.slots[slot].client().req_num
                        };
                        let rounds = if rng.below(3) == 0 { 64 } else { 1 };
                        for _ in 0..rounds {
                            let s = m.client.sessions[m.sess.0 as usize].as_ref().unwrap();
                            let c = s.slots[slot].client();
                            if !c.active || c.req_num != req_num || c.in_flight() == 0 {
                                break;
                            }
                            m.ack(slot);
                            m.pass();
                            m.check();
                        }
                    }
                }
                12..=13 => {
                    let slots = m.in_flight_slots();
                    if !slots.is_empty() {
                        let slot = slots[rng.below(slots.len() as u64) as usize];
                        let now = m.client.now_cache;
                        m.client.rollback_and_retransmit(m.sess.0, slot, now);
                    }
                }
                14 => m.pass(),
                _ => {
                    // Rarely: the session fails (every request errors out)
                    // and the model moves on to a fresh one.
                    if connected && rng.below(8) == 0 {
                        m.client.fail_session(m.sess.0, RpcError::RemoteFailure);
                        m.client.assert_slot_scheduling();
                        assert_eq!(m.fired.get(), m.accepted, "failure completes all");
                        m.connect();
                        failed += 1;
                    }
                }
            }
            m.check();
            let s = m.client.sessions[m.sess.0 as usize].as_ref().unwrap();
            starved += (0..8).any(|i| s.wants_tx.contains(i)) as u32;
        }
        // Drain: ack everything outstanding, then nothing may be left.
        for _ in 0..10_000 {
            m.pass();
            match m.in_flight_slots().first() {
                Some(slot) => m.ack(*slot),
                None if m.fired.get() == m.accepted => break,
                None => {}
            }
        }
        m.check();
        assert_eq!(
            m.fired.get(),
            m.accepted,
            "case {case}: every request completed"
        );
        let s = m.client.sessions[m.sess.0 as usize].as_ref().unwrap();
        assert_eq!((s.credits, s.backlog.len()), (CREDITS, 0));
        assert_eq!(m.client.stats().rx_invariant_breach, 0);
    }
    assert!(direct > 100 && queued > 100 && starved > 100 && failed > 0);
}
