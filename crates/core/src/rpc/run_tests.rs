//! Scripted tests of runs — a large request's packets handled as one unit
//! on both sides — on the fake-peer rig (`tests/fake_peer`): a raw
//! `MemTransport` plays the other endpoint, so every burst is exactly what
//! the script sends. Server side: the in-order run of a burst's request
//! packets is consumed in one pass and answered with one cumulative CR,
//! and anything that fails a check ends the run before its bytes land.
//! Client side: an unpaced credit window is one counted TX descriptor.
//! Plus the drain's other change: a server response is validated where
//! its view is taken. Lives in the crate because it reads the server's
//! assembly buffer and the client's deferred TX queue.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};

use super::fake_peer::{cfg, fake_client_connect, fake_server_accept, recv_all, send};
use super::tx::TxDesc;
use super::{Rpc, SessionHandle};
use crate::pkthdr::{PktHdr, PktType};
use crate::RpcConfig;

const REQ_TYPE: u8 = 1;
/// Packets of the scripted request.
const PKTS: u32 = 40;

/// A forged stand-in for request packet 10: its header and payload length.
type Forge = fn(&Srv) -> (PktHdr, usize);

/// A real server and a scripted client.
struct Srv {
    server: Rpc<MemTransport>,
    fake: MemTransport,
    /// The server's session number for the fake client.
    sess: u16,
    /// Requests the handler saw, in order.
    seen: Rc<RefCell<Vec<Vec<u8>>>>,
}

/// Payload byte of request packet `k`: every byte of a packet names it.
fn mark(k: u32) -> u8 {
    k as u8 + 1
}

impl Srv {
    fn new() -> Self {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
        let seen: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let seen2 = seen.clone();
        server.register_request_handler(
            REQ_TYPE,
            Box::new(move |ctx, req| {
                seen2.borrow_mut().push(req.to_vec());
                ctx.respond(&[0; 8]);
            }),
        );
        let mut fake = fabric.create_transport(Addr::new(9, 0));
        let sess = fake_client_connect(&mut server, &mut fake);
        Self {
            server,
            fake,
            sess,
            seen,
        }
    }

    fn dpp(&self) -> usize {
        self.server.data_per_pkt()
    }

    /// Header of packet `k` of a `PKTS`-packet request `req_num`.
    fn hdr(&self, req_num: u64, k: u32) -> PktHdr {
        PktHdr {
            pkt_type: PktType::Req,
            ecn: false,
            req_type: REQ_TYPE,
            dest_session: self.sess,
            msg_size: PKTS * self.dpp() as u32,
            req_num,
            pkt_num: k as u16,
        }
    }

    fn send(&mut self, hdr: PktHdr, payload: &[u8]) {
        let dst = self.server.addr();
        send(&mut self.fake, dst, &hdr, payload);
    }

    /// Send request packets `ks` of request `req_num`, genuine.
    fn send_pkts(&mut self, req_num: u64, ks: std::ops::Range<u32>) {
        for k in ks {
            let payload = vec![mark(k); self.dpp()];
            self.send(self.hdr(req_num, k), &payload);
        }
    }

    /// One server pass over what the script sent (at most one RX burst);
    /// returns the CRs it answered with as `(req_num, pkt_num, ecn)`.
    fn pass(&mut self) -> Vec<(u64, u16, bool)> {
        self.server.run_event_loop_once();
        let got = recv_all(&mut self.fake);
        got.iter()
            .filter(|(h, _)| h.pkt_type == PktType::CreditReturn)
            .map(|(h, _)| (h.req_num, h.pkt_num, h.ecn))
            .collect()
    }

    /// The slot's assembly state: packets received and the buffer bytes.
    fn assembly(&self, slot: usize) -> (u32, Vec<u8>) {
        let sess = self.server.sessions[self.sess as usize].as_ref().unwrap();
        let s = sess.slots[slot].server();
        (s.req_rcvd, s.req_buf.as_ref().unwrap().data().to_vec())
    }

    /// The request the handler must see: packet `k` is `mark(k)` bytes.
    fn expected(&self) -> Vec<u8> {
        (0..PKTS).flat_map(|k| vec![mark(k); self.dpp()]).collect()
    }
}

#[test]
fn a_burst_of_in_order_packets_draws_one_cr() {
    let mut s = Srv::new();
    let before = s.server.stats().clone();
    s.send_pkts(0, 0..32);
    assert_eq!(s.pass(), [(0, 31, false)]);
    s.send_pkts(0, 32..PKTS);
    assert_eq!(
        s.pass(),
        [(0, 38, false)],
        "packet 39 is acked by the response"
    );
    assert_eq!(*s.seen.borrow(), [s.expected()]);
    // Every packet counted exactly once, all on the general path.
    let st = s.server.stats();
    assert_eq!(st.pkts_rx - before.pkts_rx, PKTS as u64);
    assert_eq!(st.slow_path_entries - before.slow_path_entries, PKTS as u64);
    assert_eq!(st.fast_path_hits, before.fast_path_hits);
    assert_eq!(st.rx_dropped_stale, 0);
    assert_eq!(st.ctrl_pkts_tx - before.ctrl_pkts_tx, 2);
}

#[test]
fn a_gap_ends_the_run_and_go_back_n_completes_it() {
    let mut s = Srv::new();
    let dpp = s.dpp();
    s.send_pkts(0, 0..10);
    s.send_pkts(0, 11..32); // packet 10 lost
    assert_eq!(s.pass(), [(0, 9, false)]);
    assert_eq!(
        s.server.stats().rx_dropped_stale,
        21,
        "11–31 dropped as stale"
    );
    let (rcvd, buf) = s.assembly(0);
    assert_eq!(rcvd, 10);
    assert!(
        buf[10 * dpp..].iter().all(|b| *b == 0),
        "no byte past the gap reached the assembly buffer"
    );
    // The client's go-back-N resends from the first unacked packet.
    s.send_pkts(0, 10..PKTS);
    assert_eq!(s.pass(), [(0, 38, false)]);
    assert_eq!(*s.seen.borrow(), [s.expected()], "handler ran once");
    assert_eq!(s.server.stats().handlers_invoked, 1);
}

#[test]
fn interleaved_slots_draw_one_cr_per_packet() {
    let mut s = Srv::new();
    // A0 B0 A1 B1 A2 B2 A3 B3 on slots 0 and 1, 4-packet requests.
    let msg_size = 4 * s.dpp() as u32;
    for k in 0..4u32 {
        for req_num in [0u64, 1] {
            let hdr = PktHdr {
                msg_size,
                ..s.hdr(req_num, k)
            };
            let payload = vec![mark(k); s.dpp()];
            s.send(hdr, &payload);
        }
    }
    let crs: Vec<_> = s.pass().iter().map(|c| (c.0, c.1)).collect();
    assert_eq!(crs, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    assert_eq!(s.server.stats().handlers_invoked, 2);
}

#[test]
fn an_ecn_mark_mid_run_rides_on_its_cr() {
    let mut s = Srv::new();
    for k in 0..32 {
        let hdr = PktHdr {
            ecn: k == 15,
            ..s.hdr(0, k)
        };
        let payload = vec![mark(k); s.dpp()];
        s.send(hdr, &payload);
    }
    assert_eq!(s.pass(), [(0, 31, true)]);
    s.send_pkts(0, 32..PKTS);
    assert_eq!(
        s.pass(),
        [(0, 38, false)],
        "an unmarked run's CR is unmarked"
    );
}

#[test]
fn a_forged_packet_ends_the_run_before_its_bytes_land() {
    const POISON: u8 = 0xEE;
    let forgeries: [(&str, Forge); 4] = [
        ("wrong length", |s| (s.hdr(0, 10), s.dpp() - 1)),
        ("wrong req_num", |s| (s.hdr(8, 10), s.dpp())),
        ("wrong session", |s| {
            let to_other = PktHdr {
                dest_session: s.sess + 1,
                ..s.hdr(0, 10)
            };
            (to_other, s.dpp())
        }),
        ("skipped pkt_num", |s| (s.hdr(0, 11), s.dpp())),
    ];
    for (what, forge) in forgeries {
        let mut s = Srv::new();
        let (hdr, len) = forge(&s);
        s.send_pkts(0, 0..10);
        s.send(hdr, &vec![POISON; len]);
        s.send_pkts(0, 10..20);
        // The forged packet ends the first run and is dropped on its own;
        // the genuine packet 10 starts the next run.
        assert_eq!(s.pass(), [(0, 9, false), (0, 19, false)], "{what}");
        assert_eq!(s.server.stats().rx_dropped_stale, 1, "{what}");
        let (rcvd, buf) = s.assembly(0);
        assert_eq!(rcvd, 20, "{what}");
        assert!(!buf.contains(&POISON), "{what}: forged bytes landed");
        s.send_pkts(0, 20..PKTS);
        s.pass();
        assert_eq!(*s.seen.borrow(), [s.expected()], "{what}");
    }
}

#[test]
fn a_response_gone_stale_before_the_drain_is_dropped() {
    // A server response is validated where the drain takes its view. Two
    // single-packet requests on slot 0 in one burst (a misbehaving client:
    // the second before the first completed) replace the first response
    // before the pass's flush: only the second may reach the wire.
    let mut s = Srv::new();
    for req_num in [0, 8] {
        let hdr = PktHdr {
            msg_size: 8,
            ..s.hdr(req_num, 0)
        };
        s.send(hdr, &[mark(0); 8]);
    }
    s.server.run_event_loop_once();
    let resps: Vec<u64> = recv_all(&mut s.fake)
        .iter()
        .filter(|(h, _)| h.pkt_type == PktType::Resp)
        .map(|(h, _)| h.req_num)
        .collect();
    assert_eq!(resps, [8]);
    let st = s.server.stats();
    assert_eq!(
        (st.handlers_invoked, st.data_pkts_tx, st.tx_stale_dropped),
        (2, 1, 1)
    );
}

/// A real client of one session to a scripted server.
fn client_rig(cfg: RpcConfig) -> (Rpc<MemTransport>, MemTransport, SessionHandle) {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
    let mut fake = fabric.create_transport(Addr::new(9, 0));
    let sess = fake_server_accept(&mut client, &mut fake);
    (client, fake, sess)
}

/// Enqueue a `PKTS`-packet request; its continuation sets `done`.
fn enqueue_big(client: &mut Rpc<MemTransport>, sess: SessionHandle, done: &Rc<Cell<bool>>) {
    let size = PKTS as usize * client.data_per_pkt();
    let req = client.alloc_msg_buffer(size);
    let resp = client.alloc_msg_buffer(8);
    let done = done.clone();
    client
        .enqueue_request(sess, REQ_TYPE, req, resp, move |ctx, comp| {
            assert!(comp.result.is_ok());
            done.set(true);
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
        })
        .unwrap();
}

/// Request packet numbers among `pkts`.
fn req_pkts(pkts: &[(PktHdr, Vec<u8>)]) -> Vec<u16> {
    pkts.iter()
        .filter(|(h, _)| h.pkt_type == PktType::Req)
        .map(|(h, _)| h.pkt_num)
        .collect()
}

#[test]
fn a_rollback_drops_a_queued_window_whole() {
    let (mut client, mut fake, sess) = client_rig(cfg());
    let done = Rc::new(Cell::new(false));
    enqueue_big(&mut client, sess, &done);
    // The 32-credit window is one counted descriptor, not yet flushed.
    assert!(matches!(
        client.tx_queue[..],
        [TxDesc::Client(r)] if (r.seq, r.count) == (0, 32)
    ));
    let now = client.now_cache;
    client.rollback_and_retransmit(sess.0, 0, now);
    client.run_event_loop_once();
    let st = client.stats();
    assert_eq!(
        st.tx_stale_dropped, 32,
        "the stale window, packet by packet"
    );
    assert_eq!(st.data_pkts_tx, 32, "only the re-kicked window");
    let sent = req_pkts(&recv_all(&mut fake));
    assert_eq!(
        sent,
        (0..32).collect::<Vec<u16>>(),
        "nothing of the stale one"
    );
}

#[test]
fn tx_batch_bounds_the_packets_per_doorbell() {
    // `tx_batch = 1` is Table 3's "transmit batching off": one doorbell
    // per packet, however many packets a descriptor carries.
    for tx_batch in [1, 4] {
        let (mut client, mut fake, sess) = client_rig(RpcConfig { tx_batch, ..cfg() });
        let bursts = client.stats().tx_bursts;
        let done = Rc::new(Cell::new(false));
        enqueue_big(&mut client, sess, &done);
        client.run_event_loop_once();
        assert_eq!(
            req_pkts(&recv_all(&mut fake)),
            (0..32).collect::<Vec<u16>>()
        );
        // One cumulative CR returns the window; the last 8 packets follow.
        let cr = PktHdr::control(PktType::CreditReturn, sess.0, 0, 31);
        send(&mut fake, client.addr(), &cr, &[]);
        client.run_event_loop_once();
        assert_eq!(
            req_pkts(&recv_all(&mut fake)),
            (32..40).collect::<Vec<u16>>()
        );
        let st = client.stats();
        assert_eq!(st.data_pkts_tx, PKTS as u64);
        assert_eq!(st.tx_bursts - bursts, PKTS as u64 / tx_batch as u64);
        assert_eq!(st.tx_batch_hist.max(), tx_batch as u64);
        assert!(!done.get());
    }
}
