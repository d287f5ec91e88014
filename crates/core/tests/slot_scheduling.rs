//! Which slot a request runs in, when it waits, and what its enqueue
//! stamp means — observed from the wire by a scripted fake server
//! (`fake_peer`), so the schedule is pinned independently of how the
//! endpoint tracks its slots.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{PktHdr, PktType, Rpc, RpcConfig, RpcError, SessionHandle};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport, Transport};

mod fake_peer;
use fake_peer::{cfg, fake_server_accept_session, recv_all, send};

/// A real client with one session to a scripted fake server.
struct Rig {
    client: Rpc<MemTransport>,
    fake: MemTransport,
    sess: SessionHandle,
    /// Ids of completed requests, in completion order.
    completed: Rc<RefCell<Vec<u8>>>,
    /// `(id, slot, req_num)` of every request packet seen on the wire.
    wire: Vec<(u8, u64, u64)>,
}

impl Rig {
    fn new(cfg: RpcConfig) -> Self {
        let mut r = Self::connecting(cfg);
        fake_server_accept_session(&mut r.client, &mut r.fake);
        r.pump();
        assert!(r.client.is_connected(r.sess));
        r
    }

    /// The session is created but the fake server has not answered yet.
    fn connecting(cfg: RpcConfig) -> Self {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
        let fake = fabric.create_transport(Addr::new(9, 0));
        let sess = client.create_session(fake.addr()).unwrap();
        Self {
            client,
            fake,
            sess,
            completed: Rc::default(),
            wire: Vec::new(),
        }
    }

    /// Enqueue single-packet request `id` (its first payload byte).
    fn enqueue(&mut self, id: u8) -> Result<(), RpcError> {
        let mut req = self.client.alloc_msg_buffer(8);
        req.fill(&[id; 8]);
        let resp = self.client.alloc_msg_buffer(8);
        let completed = self.completed.clone();
        self.client
            .enqueue_request(self.sess, 3, req, resp, move |ctx, comp| {
                comp.result.expect("scripted rpc succeeds");
                completed.borrow_mut().push(id);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .map_err(|e| {
                self.client.free_msg_buffer(e.req);
                self.client.free_msg_buffer(e.resp);
                e.err
            })
    }

    /// Run the client and log the request packets it put on the wire.
    fn pump(&mut self) {
        for _ in 0..4 {
            self.client.run_event_loop_once();
        }
        for (h, body) in recv_all(&mut self.fake) {
            if h.pkt_type == PktType::Req {
                self.wire.push((body[0], h.req_num % 8, h.req_num));
            }
        }
    }

    /// Answer request `req_num` (8 B response), then pump.
    fn respond(&mut self, req_num: u64) {
        let hdr = PktHdr {
            pkt_type: PktType::Resp,
            ecn: false,
            req_type: 3,
            dest_session: self.sess.num(),
            msg_size: 8,
            req_num,
            pkt_num: 0,
        };
        send(&mut self.fake, self.client.addr(), &hdr, &[0; 8]);
        self.pump();
    }
}

/// The schedule on the wire for 20 enqueues interleaved with out-of-order
/// completions: a request takes the lowest-numbered free slot, the
/// backlog is FIFO, and a completion hands its slot to the backlog head.
/// The expected sequence was recorded at the commit before slots were
/// tracked in a bitmap (when every event re-scanned the session).
#[test]
fn wire_schedule_is_lowest_free_slot_then_fifo_backlog() {
    let mut r = Rig::new(cfg());
    for id in 0..12 {
        r.enqueue(id).unwrap(); // 8 in slots, 8..=11 wait
    }
    r.pump();
    for req_num in [5, 2, 7] {
        r.respond(req_num); // ids 8, 9, 10 take slots 5, 2, 7
    }
    r.enqueue(12).unwrap();
    r.enqueue(13).unwrap(); // backlog: 11, 12, 13
    r.pump();
    for req_num in [0, 13, 1, 3, 4] {
        r.respond(req_num); // 11, 12, 13 promoted; slots 3 and 4 stay free
    }
    for id in 14..20 {
        r.enqueue(id).unwrap(); // 14, 15 go straight to slots 3, 4
    }
    r.pump();
    for req_num in [15, 21, 12, 11, 10, 9, 8, 6] {
        r.respond(req_num); // 16..=19 promoted as these complete
    }
    for req_num in [23, 29, 20, 19] {
        r.respond(req_num);
    }
    #[rustfmt::skip]
    let golden = vec![
        (0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (7, 7, 7),
        (8, 5, 13), (9, 2, 10), (10, 7, 15),
        (11, 0, 8), (12, 5, 21), (13, 1, 9),
        (14, 3, 11), (15, 4, 12),
        (16, 7, 23), (17, 5, 29), (18, 4, 20), (19, 3, 19),
    ];
    assert_eq!(r.wire, golden);
    assert_eq!(r.completed.borrow().len(), 20);
    assert_eq!(r.client.session_credits_available(r.sess), Some(32));
    assert_eq!(r.client.stats().rx_invariant_breach, 0);
}

/// `backlog_cap` bounds the requests that really queue: with cap 0 the
/// slots still take `slots_per_session` requests, and the refused one
/// comes back whole with its continuation unfired.
#[test]
fn backlog_cap_zero_still_fills_the_slots() {
    let mut r = Rig::new(RpcConfig {
        backlog_cap: 0,
        ..cfg()
    });
    for id in 0..8 {
        r.enqueue(id).unwrap();
    }
    let fired = Rc::new(Cell::new(false));
    let fired2 = fired.clone();
    let mut req = r.client.alloc_msg_buffer(8);
    req.fill(&[8; 8]);
    let resp = r.client.alloc_msg_buffer(16);
    let e = r
        .client
        .enqueue_request(r.sess, 3, req, resp, move |_, _| fired2.set(true))
        .unwrap_err();
    assert_eq!(e.err, RpcError::BacklogFull);
    assert_eq!(e.req.data(), &[8; 8]);
    assert_eq!(e.resp.capacity(), 16);
    drop(e.cont);
    assert!(!fired.get(), "a refused request's continuation never fires");
    r.pump();
    assert_eq!(r.wire.len(), 8);
    assert_eq!(
        r.client.session_info(r.sess).unwrap().outstanding_requests,
        8
    );

    // One completion frees one slot: one more request fits, a second not.
    r.respond(4);
    r.enqueue(9).unwrap();
    assert_eq!(r.enqueue(10), Err(RpcError::BacklogFull));
    r.pump();
    assert_eq!(r.wire.last(), Some(&(9, 4, 12)));
}

/// With cap 2, two requests wait and are promoted in FIFO order.
#[test]
fn backlog_cap_two_queues_two_in_fifo_order() {
    let mut r = Rig::new(RpcConfig {
        backlog_cap: 2,
        ..cfg()
    });
    for id in 0..10 {
        r.enqueue(id).unwrap();
    }
    assert_eq!(r.enqueue(10), Err(RpcError::BacklogFull));
    assert_eq!(r.client.session_info(r.sess).unwrap().backlogged, 2);
    r.pump();
    r.respond(3);
    r.respond(1);
    assert_eq!(r.wire[8..], [(8, 3, 11), (9, 1, 9)]);
    assert_eq!(*r.completed.borrow(), [3, 1]);
}

/// A request enqueued while the session is still connecting waits (and so
/// counts against the cap) and is sent when the handshake completes.
#[test]
fn requests_enqueued_while_connecting_queue_until_connected() {
    let mut r = Rig::connecting(RpcConfig {
        backlog_cap: 2,
        ..cfg()
    });
    r.enqueue(0).unwrap();
    r.enqueue(1).unwrap();
    assert_eq!(r.enqueue(2), Err(RpcError::BacklogFull));
    assert_eq!(r.client.session_info(r.sess).unwrap().backlogged, 2);
    fake_server_accept_session(&mut r.client, &mut r.fake);
    r.pump();
    assert!(r.client.is_connected(r.sess));
    assert_eq!(r.wire, [(0, 0, 0), (1, 1, 1)]);
    r.respond(0);
    r.respond(1);
    assert_eq!(*r.completed.borrow(), [0, 1]);
}

/// Requests enqueued between two event-loop passes share one clock read
/// (§5.2.2's batched timestamp, extended to issue); with
/// `opt_batched_timestamps` off each takes its own.
#[test]
fn enqueues_between_passes_share_one_clock_read() {
    for (batched, reads) in [(true, 1), (false, 3)] {
        let mut r = Rig::new(RpcConfig {
            opt_batched_timestamps: batched,
            ..cfg()
        });
        r.client.run_event_loop_once();
        let before = r.client.stats().clock_reads;
        for id in 0..3 {
            r.enqueue(id).unwrap();
        }
        assert_eq!(r.client.stats().clock_reads, before + reads);
        // The next pass ends the sharing: a later enqueue reads again.
        r.client.run_event_loop_once();
        let before = r.client.stats().clock_reads;
        r.enqueue(3).unwrap();
        assert_eq!(r.client.stats().clock_reads, before + 1);
    }
}

/// What sharing the stamp costs in accuracy: the third of three requests
/// enqueued between two passes carries the first one's stamp, so its
/// `latency_ns` overstates a fresh-stamp measurement by at most the gap
/// between the first and the third enqueue.
#[test]
fn shared_stamp_overstates_latency_by_at_most_the_enqueue_gap() {
    let mut r = Rig::new(cfg());
    r.client.run_event_loop_once();
    let lat: Rc<RefCell<Vec<(u64, Instant)>>> = Rc::default();
    let mut enqueued_at = Vec::new();
    for id in 0..3u8 {
        enqueued_at.push(Instant::now());
        let mut req = r.client.alloc_msg_buffer(8);
        req.fill(&[id; 8]);
        let resp = r.client.alloc_msg_buffer(8);
        let lat2 = lat.clone();
        r.client
            .enqueue_request(r.sess, 3, req, resp, move |ctx, comp| {
                lat2.borrow_mut().push((comp.latency_ns, Instant::now()));
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let gap = enqueued_at[2] - enqueued_at[0];
    r.pump();
    // All three responses arrive in one burst, so one pass completes them.
    for req_num in 0..3 {
        let hdr = PktHdr {
            pkt_type: PktType::Resp,
            ecn: false,
            req_type: 3,
            dest_session: r.sess.num(),
            msg_size: 8,
            req_num,
            pkt_num: 0,
        };
        send(&mut r.fake, r.client.addr(), &hdr, &[0; 8]);
    }
    r.pump();
    let lat = lat.borrow();
    assert_eq!(lat.len(), 3);
    // One stamp, one completion pass: identical latencies.
    assert_eq!(lat[0].0, lat[2].0);
    let fresh = lat[2].1 - enqueued_at[2];
    assert!(Duration::from_nanos(lat[2].0) >= gap - Duration::from_millis(1));
    assert!(Duration::from_nanos(lat[2].0) <= fresh + gap);
}

/// Slot and credit counts that are not powers of two (the slot index and
/// the RTT-stamp index are masks only when they can be).
#[test]
fn non_power_of_two_slots_and_credits_round_trip() {
    let cfg = RpcConfig {
        slots_per_session: 5,
        session_credits: 6,
        ..cfg()
    };
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg.clone());
    server.register_request_handler(3, Box::new(|ctx, req| ctx.respond(req)));
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg);
    let sess = client.create_session(server.addr()).unwrap();
    let done = Rc::new(Cell::new(0u32));
    // 24 requests over 5 slots: single-packet and 9-packet, interleaved.
    for i in 0..24u8 {
        let size = if i % 3 == 0 { 9000 } else { 32 };
        let mut req = client.alloc_msg_buffer(size);
        let body: Vec<u8> = (0..size).map(|j| (j as u8).wrapping_mul(i)).collect();
        req.fill(&body);
        let resp = client.alloc_msg_buffer(size);
        let done2 = done.clone();
        client
            .enqueue_request(sess, 3, req, resp, move |ctx, comp| {
                comp.result.expect("echo succeeds");
                assert!(comp.resp.data() == comp.req.data(), "echo {i} intact");
                done2.set(done2.get() + 1);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
    }
    let start = Instant::now();
    while done.get() < 24 {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed() < Duration::from_secs(10), "echoes stalled");
    }
    assert_eq!(client.session_credits_available(sess), Some(6));
    assert_eq!(client.stats().retransmissions, 0);
    assert_eq!(client.stats().rx_invariant_breach, 0);
    assert_eq!(server.stats().rx_invariant_breach, 0);
}
