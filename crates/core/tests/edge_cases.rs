//! Protocol edge cases: slot exhaustion ordering, C = 1 stop-and-wait,
//! out-of-order completion, server-session reclamation, MTU boundaries,
//! and multi-server fan-out.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use erpc::{DeferredHandle, Rpc, RpcConfig, SessionState};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};

const ECHO: u8 = 1;
const SLOW: u8 = 2;

type TestRpc = Rpc<MemTransport>;

fn cfg() -> RpcConfig {
    RpcConfig {
        ping_interval_ns: 0,
        rto_ns: 2_000_000,
        ..RpcConfig::default()
    }
}

fn echo_server(fabric: &MemFabric, node: u16, cfg: RpcConfig) -> TestRpc {
    let mut s = Rpc::new(fabric.create_transport(Addr::new(node, 0)), cfg);
    s.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let mut v = req.to_vec();
            v.reverse();
            ctx.respond(&v);
        }),
    );
    s
}

fn connect(c: &mut TestRpc, s: &mut TestRpc, peer: Addr) -> erpc::SessionHandle {
    let sess = c.create_session(peer).unwrap();
    while !c.is_connected(sess) {
        c.run_event_loop_once();
        s.run_event_loop_once();
    }
    sess
}

#[test]
fn single_slot_sessions_serialize_strictly() {
    // slots_per_session = 1: the backlog must drain in strict FIFO order.
    let one_slot = RpcConfig {
        slots_per_session: 1,
        ..cfg()
    };
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = echo_server(&fabric, 0, one_slot.clone());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), one_slot);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..20u64 {
        let mut req = client.alloc_msg_buffer(8);
        req.fill(&i.to_le_bytes());
        let resp = client.alloc_msg_buffer(8);
        let o2 = order.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                assert!(comp.result.is_ok());
                o2.borrow_mut().push(i);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
    }
    while order.borrow().len() < 20 {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    assert_eq!(*order.borrow(), (0..20u64).collect::<Vec<_>>());
}

#[test]
fn one_credit_stop_and_wait_multi_packet() {
    // C = 1 (§4.3.2's latency-sensitive configuration): multi-packet
    // messages degrade to stop-and-wait but stay correct.
    let c1 = RpcConfig {
        session_credits: 1,
        ..cfg()
    };
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = echo_server(&fabric, 0, c1.clone());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), c1);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    let mut req = client.alloc_msg_buffer(5000);
    let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
    req.fill(&payload);
    let resp = client.alloc_msg_buffer(5000);
    client
        .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
            assert!(comp.result.is_ok());
            assert_eq!(comp.resp.len(), 5000);
            d2.set(true);
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
        })
        .unwrap();
    let mut iters = 0u64;
    while !done.get() {
        client.run_event_loop_once();
        server.run_event_loop_once();
        iters += 1;
        assert!(iters < 10_000_000, "stop-and-wait stalled");
    }
    // Credit restored.
    assert_eq!(client.session_credits_available(sess), Some(1));
}

#[test]
fn out_of_order_completion_across_slots() {
    // §4.3: "concurrent requests on a session can complete out-of-order
    // with respect to each other. This avoids blocking dispatch-mode RPCs
    // behind a long-running worker-mode RPC."
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg());
    // SLOW defers; the response is released manually later.
    let deferred: Rc<RefCell<Option<DeferredHandle>>> = Rc::new(RefCell::new(None));
    let d2 = deferred.clone();
    server.register_request_handler(
        SLOW,
        Box::new(move |ctx, _req| {
            *d2.borrow_mut() = Some(ctx.defer());
        }),
    );
    server.register_request_handler(ECHO, Box::new(|ctx, req| ctx.respond(req)));
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let order = Rc::new(RefCell::new(Vec::new()));
    // Issue SLOW (id 1) then ECHO (id 2) on the same session; each
    // closure captures its own id.
    for (ty, id) in [(SLOW, 1u64), (ECHO, 2u64)] {
        let mut req = client.alloc_msg_buffer(4);
        req.fill(b"abcd");
        let resp = client.alloc_msg_buffer(8);
        let o2 = order.clone();
        client
            .enqueue_request(sess, ty, req, resp, move |ctx, comp| {
                assert!(comp.result.is_ok());
                o2.borrow_mut().push(id);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
    }
    // The fast echo completes while SLOW is still deferred.
    while order.borrow().is_empty() {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    assert_eq!(
        order.borrow()[0],
        2,
        "fast RPC must not block behind the deferred one"
    );
    // Now release the deferred response.
    let h = deferred.borrow_mut().take().expect("slow handler ran");
    server.enqueue_response(h, b"late").unwrap();
    while order.borrow().len() < 2 {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    assert_eq!(*order.borrow(), vec![2, 1]);
}

#[test]
fn server_session_reclaimed_after_client_death() {
    // Appendix B, server side: when the client vanishes, the management
    // timeout frees the server-side session resources.
    let fabric = MemFabric::new(MemFabricConfig::default());
    let scfg = RpcConfig {
        ping_interval_ns: 1_000_000,
        failure_timeout_ns: 30_000_000, // 30 ms
        ..cfg()
    };
    let mut server = echo_server(&fabric, 0, scfg);
    let ccfg = RpcConfig {
        ping_interval_ns: 1_000_000,
        ..cfg()
    };
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), ccfg);
    let _sess = connect(&mut client, &mut server, Addr::new(0, 0));
    assert_eq!(server.active_sessions(), 1);
    // Kill the client.
    drop(client);
    fabric.remove_endpoint(Addr::new(1, 0));
    let start = std::time::Instant::now();
    while server.active_sessions() > 0 {
        server.run_event_loop_once();
        assert!(
            start.elapsed().as_secs() < 10,
            "server session never reclaimed"
        );
    }
}

#[test]
fn mtu_boundary_sizes() {
    // Sizes straddling packet boundaries (dpp = 1024 with the default
    // 1040 B MTU): 1 packet, exactly 1, 1+1 byte, exactly 2, …
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = echo_server(&fabric, 0, cfg());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    assert_eq!(client.data_per_pkt(), 1024);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let done = Rc::new(Cell::new(0usize));
    let sizes = [1023usize, 1024, 1025, 2047, 2048, 2049, 4096];
    for &size in sizes.iter() {
        let mut req = client.alloc_msg_buffer(size);
        let payload: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
        req.fill(&payload);
        let resp = client.alloc_msg_buffer(size);
        let d2 = done.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                assert!(comp.result.is_ok());
                let expect: Vec<u8> = (0..comp.req.len()).map(|i| (i % 251) as u8).rev().collect();
                assert_eq!(comp.resp.data(), &expect[..], "size {}", comp.req.len());
                d2.set(d2.get() + 1);
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
    }
    while done.get() < sizes.len() {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
}

#[test]
fn one_client_many_servers() {
    // Fan-out: one endpoint holding client sessions to 8 servers at once.
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut servers: Vec<TestRpc> = (0..8).map(|n| echo_server(&fabric, n, cfg())).collect();
    let mut client = Rpc::new(fabric.create_transport(Addr::new(99, 0)), cfg());
    let sessions: Vec<_> = (0..8u16)
        .map(|n| client.create_session(Addr::new(n, 0)).unwrap())
        .collect();
    loop {
        client.run_event_loop_once();
        for s in servers.iter_mut() {
            s.run_event_loop_once();
        }
        if sessions.iter().all(|&s| client.is_connected(s)) {
            break;
        }
    }
    assert_eq!(client.active_sessions(), 8);
    let done = Rc::new(Cell::new(0usize));
    for (i, &sess) in sessions.iter().enumerate() {
        for j in 0..5 {
            let mut req = client.alloc_msg_buffer(32);
            req.fill(&[i as u8 * 8 + j; 32]);
            let resp = client.alloc_msg_buffer(32);
            let d2 = done.clone();
            client
                .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                    assert!(comp.result.is_ok());
                    d2.set(d2.get() + 1);
                    ctx.free_msg_buffer(comp.req);
                    ctx.free_msg_buffer(comp.resp);
                })
                .unwrap();
        }
    }
    while done.get() < 40 {
        client.run_event_loop_once();
        for s in servers.iter_mut() {
            s.run_event_loop_once();
        }
    }
    for s in &servers {
        assert_eq!(s.stats().handlers_invoked, 5);
    }
}

#[test]
fn disconnect_then_reconnect() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = echo_server(&fabric, 0, cfg());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    client.disconnect(sess).unwrap();
    while client.session_state(sess).is_some() {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    assert_eq!(client.active_sessions(), 0);
    // Server side freed too (disconnect handshake, not timeout).
    assert_eq!(server.active_sessions(), 0);
    // A fresh session works.
    let sess2 = connect(&mut client, &mut server, Addr::new(0, 0));
    assert_eq!(client.session_state(sess2), Some(SessionState::Connected));
}

#[test]
fn per_run_credit_returns() {
    // The server answers each in-order run of a request's packets with one
    // cumulative CR (§5.1; §6.4's future work). `sink` mode (20-packet
    // request, 32 B response — the Figure 6 shape), one request at a time:
    // all 20 packets leave in one flush and arrive in one RX burst, so
    // packets 0–18 are one run and draw exactly one CR (packet 19 is
    // acknowledged by the response). Lossless, and with the RTO far above
    // any host stall, so no retransmission adds a CR. `echo` mode under
    // 2 % loss each way checks the bytes through go-back-N.
    let run = |loss: f64, echo: bool| -> (u64, u64) {
        let fabric = MemFabric::new(MemFabricConfig {
            loss_prob: loss,
            seed: 0xCC,
            ..Default::default()
        });
        let c = if loss > 0.0 {
            RpcConfig {
                rto_ns: 500_000,
                ..cfg()
            }
        } else {
            RpcConfig {
                rto_ns: 60_000_000_000,
                opt_adaptive_rto: false,
                ..cfg()
            }
        };
        let mut server = Rpc::new(fabric.create_transport(Addr::new(0, 0)), c.clone());
        server.register_request_handler(
            ECHO,
            Box::new(move |ctx, req| {
                if echo {
                    let mut v = req.to_vec();
                    v.reverse();
                    ctx.respond(&v);
                } else {
                    ctx.respond(&[req[0]; 32]);
                }
            }),
        );
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), c);
        let sess = connect(&mut client, &mut server, Addr::new(0, 0));
        let done = Rc::new(Cell::new(0usize));
        for i in 0..5usize {
            let size = 20_000; // 20 request packets
            let mut req = client.alloc_msg_buffer(size);
            let payload: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
            req.fill(&payload);
            let resp = client.alloc_msg_buffer(size);
            let d2 = done.clone();
            client
                .enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                    assert!(comp.result.is_ok());
                    if echo {
                        let expect: Vec<u8> =
                            (0..comp.req.len()).map(|i| (i % 251) as u8).rev().collect();
                        assert_eq!(comp.resp.data(), &expect[..]);
                    }
                    d2.set(d2.get() + 1);
                    ctx.free_msg_buffer(comp.req);
                    ctx.free_msg_buffer(comp.resp);
                })
                .unwrap();
            let start = std::time::Instant::now();
            while done.get() <= i {
                client.run_event_loop_once();
                server.run_event_loop_once();
                assert!(start.elapsed().as_secs() < 30, "stalled (loss {loss})");
            }
        }
        // Quiesce: credits fully restored ⇒ no leak through cumulative CRs.
        assert_eq!(
            client.session_credits_available(sess),
            Some(client.config().session_credits)
        );
        (server.stats().ctrl_pkts_tx, client.stats().retransmissions)
    };
    let (crs, retx) = run(0.0, false);
    assert_eq!(retx, 0);
    assert_eq!(crs, 5, "one CR per 20-packet request");
    // Still byte-exact under loss (echo both ways).
    let (_, retx) = run(0.02, true);
    assert!(retx > 0, "loss path exercised");
}

#[test]
fn server_at_session_capacity_refuses_connects() {
    // §4.3.1: an Rpc participates in at most |RQ|/C sessions; a server at
    // capacity refuses ConnectReqs and the client learns promptly.
    let fabric = MemFabric::new(MemFabricConfig {
        ring_capacity: 64, // |RQ|/C = 64/32 = 2 sessions
        ..Default::default()
    });
    let mut server = echo_server(&fabric, 0, cfg());
    let mut c1 = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let mut c2 = Rpc::new(fabric.create_transport(Addr::new(2, 0)), cfg());
    let mut c3 = Rpc::new(fabric.create_transport(Addr::new(3, 0)), cfg());
    let s1 = c1.create_session(Addr::new(0, 0)).unwrap();
    let s2 = c2.create_session(Addr::new(0, 0)).unwrap();
    loop {
        for r in [&mut server, &mut c1, &mut c2] {
            r.run_event_loop_once();
        }
        if c1.is_connected(s1) && c2.is_connected(s2) {
            break;
        }
    }
    // Third client: the server is full; its session must fail.
    let s3 = c3.create_session(Addr::new(0, 0)).unwrap();
    let start = std::time::Instant::now();
    loop {
        for r in [&mut server, &mut c3] {
            r.run_event_loop_once();
        }
        match c3.session_state(s3) {
            Some(SessionState::Failed) => break,
            Some(SessionState::Connected) => panic!("server over-admitted"),
            _ => assert!(start.elapsed().as_secs() < 10, "refusal never arrived"),
        }
    }
    assert_eq!(server.active_sessions(), 2);
}

#[test]
fn session_info_reflects_state() {
    let fabric = MemFabric::new(MemFabricConfig::default());
    let mut server = echo_server(&fabric, 0, cfg());
    let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), cfg());
    let sess = client.create_session(Addr::new(0, 0)).unwrap();
    let info = client.session_info(sess).unwrap();
    assert_eq!(info.state, SessionState::Connecting);
    assert!(info.is_client);
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    let info = client.session_info(sess).unwrap();
    assert_eq!(info.state, SessionState::Connected);
    assert_eq!(info.credits_available, client.config().session_credits);
    assert_eq!(info.outstanding_requests, 0);
    assert!(info.uncongested);
    // Pile on 20 requests: outstanding + backlog visible mid-flight.
    for _ in 0..20u64 {
        let mut req = client.alloc_msg_buffer(64);
        req.fill(&[0; 64]);
        let resp = client.alloc_msg_buffer(64);
        client
            .enqueue_request(sess, ECHO, req, resp, |ctx, comp| {
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            })
            .unwrap();
    }
    let info = client.session_info(sess).unwrap();
    assert_eq!(info.outstanding_requests, 20);
    assert_eq!(info.backlogged, 12, "8 slots busy, 12 queued");
    assert!(info.in_flight_pkts > 0);
    // Drain.
    while client.session_info(sess).unwrap().outstanding_requests > 0 {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
}

// ── `RpcConfig` is validated once, in `Rpc::new` ────────────────────────

fn new_rpc_with(cfg: RpcConfig) -> TestRpc {
    let fabric = MemFabric::new(MemFabricConfig::default());
    Rpc::new(fabric.create_transport(Addr::new(0, 0)), cfg)
}

#[test]
#[should_panic(expected = "session_credits must be >= 1")]
fn zero_session_credits_rejected() {
    // `session_limit()` divides by it.
    new_rpc_with(RpcConfig {
        session_credits: 0,
        ..cfg()
    });
}

#[test]
#[should_panic(expected = "slots_per_session must be in 1..=255")]
fn zero_slots_per_session_rejected() {
    new_rpc_with(RpcConfig {
        slots_per_session: 0,
        ..cfg()
    });
}

#[test]
#[should_panic(expected = "slots_per_session must be in 1..=255")]
fn slots_per_session_beyond_u8_rejected() {
    // 256 travels as `num_slots: 0u8` in the ConnectReq and connects to
    // nobody; 300 would truncate to 44 silently.
    new_rpc_with(RpcConfig {
        slots_per_session: 256,
        ..cfg()
    });
}

#[test]
#[should_panic(expected = "rx_batch must be >= 1")]
fn zero_rx_batch_rejected() {
    // Would never receive a packet.
    new_rpc_with(RpcConfig {
        rx_batch: 0,
        ..cfg()
    });
}

#[test]
#[should_panic(expected = "tx_batch must be >= 1")]
fn zero_tx_batch_rejected() {
    new_rpc_with(RpcConfig {
        tx_batch: 0,
        ..cfg()
    });
}

#[test]
fn extreme_valid_slot_counts_accepted() {
    for slots_per_session in [1, 255] {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let c = RpcConfig {
            slots_per_session,
            ..cfg()
        };
        let mut server = echo_server(&fabric, 0, c.clone());
        let mut client = Rpc::new(fabric.create_transport(Addr::new(1, 0)), c);
        connect(&mut client, &mut server, Addr::new(0, 0));
    }
}
