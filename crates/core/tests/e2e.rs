//! End-to-end protocol tests: two (or more) `Rpc` endpoints exchanging
//! RPCs over the in-process fabric, single-threaded, with deterministic
//! fault injection.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use erpc::{CcAlgorithm, Rpc, RpcConfig, RpcError};
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};

const ECHO: u8 = 1;

type TestRpc = Rpc<MemTransport>;

fn fabric(loss: f64, seed: u64) -> MemFabric {
    MemFabric::new(MemFabricConfig {
        loss_prob: loss,
        seed,
        ..Default::default()
    })
}

fn fast_cfg() -> RpcConfig {
    RpcConfig {
        // Short RTO so loss tests run in milliseconds of wall time.
        rto_ns: 1_000_000,
        timer_scan_interval_ns: 50_000,
        // Liveness pings off by default (tests opt in).
        ping_interval_ns: 0,
        ..RpcConfig::default()
    }
}

/// Install an echo server handler: response = request bytes reversed.
fn install_echo(server: &mut TestRpc) {
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let mut out = req.to_vec();
            out.reverse();
            ctx.respond(&out);
        }),
    );
}

/// Pump both endpoints until `done()` or the iteration budget is hit.
fn pump_until(rpcs: &mut [&mut TestRpc], mut done: impl FnMut() -> bool, max_iters: u64) {
    for _ in 0..max_iters {
        for r in rpcs.iter_mut() {
            r.run_event_loop_once();
        }
        if done() {
            return;
        }
    }
    panic!("pump_until budget exhausted");
}

fn connect(client: &mut TestRpc, server: &mut TestRpc, peer: Addr) -> erpc::SessionHandle {
    let sess = client.create_session(peer).unwrap();
    // Time-based budget: under heavy injected loss the handshake needs
    // wall-clock time for connect retries (20 ms apart), not iterations.
    let start = std::time::Instant::now();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "connect stalled");
    }
    sess
}

struct Pair {
    client: TestRpc,
    server: TestRpc,
    sess: erpc::SessionHandle,
}

fn pair_with(loss: f64, seed: u64, ccfg: RpcConfig, scfg: RpcConfig) -> Pair {
    let f = fabric(loss, seed);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), scfg);
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), ccfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    Pair {
        client,
        server,
        sess,
    }
}

fn pair(loss: f64, seed: u64) -> Pair {
    pair_with(loss, seed, fast_cfg(), fast_cfg())
}

/// Run `n` echo RPCs of `size` bytes sequentially; assert data integrity.
fn run_echos(p: &mut Pair, n: usize, size: usize) {
    let completed = Rc::new(Cell::new(0usize));
    let ok = Rc::new(Cell::new(true));
    for _ in 0..n {
        let mut req = p.client.alloc_msg_buffer(size);
        let payload: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
        req.fill(&payload);
        let resp = p.client.alloc_msg_buffer(size.max(1));
        let (c2, ok2) = (completed.clone(), ok.clone());
        p.client
            .enqueue_request(p.sess, ECHO, req, resp, move |_ctx, comp| {
                if comp.result.is_err() {
                    ok2.set(false);
                } else {
                    let expect: Vec<u8> =
                        (0..comp.req.len()).map(|i| (i % 251) as u8).rev().collect();
                    if comp.resp.data() != &expect[..] {
                        ok2.set(false);
                    }
                }
                c2.set(c2.get() + 1);
            })
            .unwrap();
    }
    let done = {
        let completed = completed.clone();
        move || completed.get() >= n
    };
    let Pair { client, server, .. } = p;
    pump_until(&mut [client, server], done, 10_000_000);
    assert!(ok.get(), "payload mismatch or error");
    assert_eq!(completed.get(), n);
}

#[test]
fn small_rpc_roundtrip() {
    let mut p = pair(0.0, 1);
    run_echos(&mut p, 1, 32);
    assert_eq!(p.client.stats().responses_completed, 1);
    assert_eq!(p.server.stats().handlers_invoked, 1);
    // Single-packet RPC: exactly 1 request + 1 response data packet.
    assert_eq!(p.client.stats().data_pkts_tx, 1);
    assert_eq!(p.server.stats().data_pkts_tx, 1);
    assert_eq!(
        p.client.stats().ctrl_pkts_tx,
        0,
        "no CRs/RFRs for small RPCs"
    );
}

#[test]
fn zero_length_request_and_response() {
    let f = fabric(0.0, 2);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            assert!(req.is_empty());
            ctx.respond(&[]);
        }),
    );
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    let req = client.alloc_msg_buffer(0);
    let resp = client.alloc_msg_buffer(16);
    client
        .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            assert_eq!(comp.resp.len(), 0);
            d2.set(true);
        })
        .unwrap();
    pump_until(&mut [&mut client, &mut server], || done.get(), 100_000);
}

#[test]
fn multi_packet_request_and_response() {
    let mut p = pair(0.0, 3);
    // 5000 B = 5 packets each way with the default 1024 B data/packet.
    run_echos(&mut p, 3, 5000);
    let cs = p.client.stats();
    // Per RPC: 5 req pkts + 4 RFRs from client; 1 CR + 5 resp pkts from
    // server. The client's 32 credits let all 5 request packets leave in
    // one flush, so they reach the server in one RX burst: packets 0–3 are
    // one in-order run and draw one cumulative CR (naming packet 3), and
    // packet 4 is acknowledged by the response, not by a CR.
    assert_eq!(cs.data_pkts_tx, 15);
    assert_eq!(cs.ctrl_pkts_tx, 12);
    let ss = p.server.stats();
    assert_eq!(ss.data_pkts_tx, 15);
    assert_eq!(ss.ctrl_pkts_tx, 3);
}

#[test]
fn pipelined_requests_fill_slots_and_backlog() {
    let mut p = pair(0.0, 4);
    // 50 concurrent 64 B echos: 8 slots + 42 backlogged, all complete.
    let completed = Rc::new(Cell::new(0usize));
    for i in 0..50 {
        let mut req = p.client.alloc_msg_buffer(64);
        req.fill(&[i as u8; 64]);
        let resp = p.client.alloc_msg_buffer(64);
        let c2 = completed.clone();
        p.client
            .enqueue_request(p.sess, ECHO, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                c2.set(c2.get() + 1);
            })
            .unwrap();
    }
    let Pair { client, server, .. } = &mut p;
    pump_until(&mut [client, server], || completed.get() == 50, 1_000_000);
}

#[test]
fn credits_restored_after_traffic() {
    let mut p = pair(0.0, 5);
    let before = p.client.session_credits_available(p.sess).unwrap();
    run_echos(&mut p, 10, 3000);
    let after = p.client.session_credits_available(p.sess).unwrap();
    assert_eq!(before, after, "credit leak");
    assert_eq!(after, p.client.config().session_credits);
}

#[test]
fn loss_recovery_go_back_n() {
    // 10 % packet loss: everything still completes, with retransmissions.
    let mut p = pair(0.10, 6);
    run_echos(&mut p, 20, 4000);
    assert!(
        p.client.stats().retransmissions > 0,
        "loss must trigger rollback"
    );
    // At-most-once: the server ran each handler exactly once.
    assert_eq!(p.server.stats().handlers_invoked, 20);
    // Flush precedes every retransmission (§4.2.2).
    assert!(p.client.stats().tx_flushes >= p.client.stats().retransmissions);
}

#[test]
fn heavy_loss_recovery() {
    let mut p = pair(0.30, 7);
    run_echos(&mut p, 5, 2500);
    assert_eq!(p.server.stats().handlers_invoked, 5);
    let after = p.client.session_credits_available(p.sess).unwrap();
    assert_eq!(
        after,
        p.client.config().session_credits,
        "credit leak under loss"
    );
}

#[test]
fn at_most_once_under_duplicate_timeouts() {
    // Tiny RTO forces spurious retransmissions even without loss; the
    // server must not run handlers twice, and clients must not complete
    // twice.
    let mut ccfg = fast_cfg();
    ccfg.rto_ns = 20_000; // 20 µs: far below loopback scheduling jitter
    let mut p = pair_with(0.0, 8, ccfg, fast_cfg());
    run_echos(&mut p, 10, 2048);
    assert_eq!(p.server.stats().handlers_invoked, 10);
    assert_eq!(p.client.stats().responses_completed, 10);
}

#[test]
fn response_too_large_for_resp_msgbuf() {
    let f = fabric(0.0, 9);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, _req| {
            ctx.respond(&[7u8; 4096]);
        }),
    );
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let result = Rc::new(RefCell::new(None));
    let r2 = result.clone();
    let req = client.alloc_msg_buffer(8);
    let resp = client.alloc_msg_buffer(64); // too small for 4096 B
    client
        .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
            *r2.borrow_mut() = Some(comp.result);
        })
        .unwrap();
    pump_until(
        &mut [&mut client, &mut server],
        || result.borrow().is_some(),
        100_000,
    );
    assert_eq!(*result.borrow(), Some(Err(RpcError::MsgTooLarge)));
}

#[test]
fn nested_rpc_with_deferred_response() {
    // Three nodes: client → proxy → backend. The proxy's handler defers,
    // issues a nested RPC to the backend, and responds from the nested
    // continuation (§3.1's nested-RPC flow).
    let f = fabric(0.0, 10);
    let mut backend = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut proxy = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(2, 0)), fast_cfg());

    install_echo(&mut backend);

    // Proxy: connect to backend first.
    let backend_sess = connect(&mut proxy, &mut backend, Addr::new(0, 0));
    const PROXY_TYPE: u8 = 2;
    // Handler: defer, forward to the backend; the nested continuation
    // captures the deferred handle directly (the old cont_id/tag API
    // needed a thread-local handle registry for exactly this).
    proxy.register_request_handler(
        PROXY_TYPE,
        Box::new(move |ctx, req| {
            let handle = ctx.defer();
            let mut fwd = ctx.alloc_msg_buffer(req.len());
            fwd.fill(req);
            let resp = ctx.alloc_msg_buffer(req.len().max(1));
            ctx.enqueue_request(backend_sess, ECHO, fwd, resp, move |ctx, comp| {
                assert!(comp.result.is_ok());
                ctx.enqueue_response(handle, comp.resp.data());
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
            });
        }),
    );

    let sess = connect(&mut client, &mut proxy, Addr::new(1, 0));
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    let mut req = client.alloc_msg_buffer(7);
    req.fill(b"abcdefg");
    let resp = client.alloc_msg_buffer(16);
    client
        .enqueue_request(sess, PROXY_TYPE, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            assert_eq!(comp.resp.data(), b"gfedcba");
            d2.set(true);
        })
        .unwrap();
    pump_until(
        &mut [&mut client, &mut proxy, &mut backend],
        || done.get(),
        1_000_000,
    );
}

#[test]
fn worker_thread_handlers() {
    let f = fabric(0.0, 11);
    let mut scfg = fast_cfg();
    scfg.num_worker_threads = 2;
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), scfg);
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    const SLOW: u8 = 5;
    server.register_worker_handler(
        SLOW,
        std::sync::Arc::new(|req: &[u8], out: &mut erpc::MsgBuf| {
            // A "long-running" handler (§3.2).
            std::thread::sleep(std::time::Duration::from_millis(1));
            out.append(req);
            out.append(b"!");
        }),
    );
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let completed = Rc::new(Cell::new(0));
    for _ in 0..4 {
        let mut req = client.alloc_msg_buffer(4);
        req.fill(b"work");
        let resp = client.alloc_msg_buffer(16);
        let c2 = completed.clone();
        client
            .enqueue_request(sess, SLOW, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                assert_eq!(comp.resp.data(), b"work!");
                c2.set(c2.get() + 1);
            })
            .unwrap();
    }
    pump_until(
        &mut [&mut client, &mut server],
        || completed.get() == 4,
        10_000_000,
    );
    assert_eq!(server.stats().handlers_to_workers, 4);
}

#[test]
fn node_failure_fails_pending_requests() {
    let f = fabric(0.0, 12);
    let mut ccfg = fast_cfg();
    ccfg.ping_interval_ns = 1_000_000; // 1 ms
    ccfg.failure_timeout_ns = 20_000_000; // 20 ms
    ccfg.rto_ns = 2_000_000;
    ccfg.max_retransmissions = 1_000_000; // let failure detection win
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), ccfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));

    let failures = Rc::new(Cell::new(0));

    // Kill the server, then enqueue requests into the void. Every
    // continuation must fire exactly once, with the failure.
    f.remove_endpoint(Addr::new(0, 0));
    client.transport_mut().invalidate_route(Addr::new(0, 0));
    drop(server);
    for _ in 0..3 {
        let mut req = client.alloc_msg_buffer(8);
        req.fill(b"hello!!!");
        let resp = client.alloc_msg_buffer(16);
        let f2 = failures.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
                assert_eq!(comp.result, Err(RpcError::RemoteFailure));
                f2.set(f2.get() + 1);
            })
            .unwrap();
    }
    let start = std::time::Instant::now();
    while failures.get() < 3 {
        client.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "failure detection stalled");
    }
    assert_eq!(client.session_state(sess), Some(erpc::SessionState::Failed));
    // Subsequent enqueues fail immediately, returning the buffers and the
    // continuation unfired.
    let req = client.alloc_msg_buffer(8);
    let resp = client.alloc_msg_buffer(8);
    let fired = Rc::new(Cell::new(false));
    let fired2 = fired.clone();
    let err = client
        .enqueue_request(sess, ECHO, req, resp, move |_ctx, _comp| fired2.set(true))
        .unwrap_err();
    assert_eq!(err.err, RpcError::RemoteFailure);
    assert!(
        !fired.get(),
        "failed enqueue must not fire the continuation"
    );
}

#[test]
fn disconnect_flow() {
    let f = fabric(0.0, 13);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    client.disconnect(sess).unwrap();
    let mut iters = 0;
    while client.session_state(sess).is_some() {
        client.run_event_loop_once();
        server.run_event_loop_once();
        iters += 1;
        assert!(iters < 100_000, "disconnect stalled");
    }
    // The handle is now invalid.
    let req = client.alloc_msg_buffer(4);
    let resp = client.alloc_msg_buffer(4);
    let err = client
        .enqueue_request(sess, ECHO, req, resp, |_ctx, _comp| {})
        .unwrap_err();
    assert_eq!(err.err, RpcError::InvalidSession);
}

#[test]
fn all_optimizations_off_still_correct() {
    let ccfg = fast_cfg().all_optimizations_off();
    let scfg = fast_cfg().all_optimizations_off();
    let mut p = pair_with(0.05, 14, ccfg, scfg);
    run_echos(&mut p, 10, 3000);
    assert_eq!(p.server.stats().handlers_invoked, 10);
    // With batched timestamps off, clock reads grow per packet.
    assert!(p.client.stats().clock_reads > p.client.stats().pkts_rx);
}

#[test]
fn cc_none_fasst_configuration() {
    let mut p = pair_with(0.0, 15, RpcConfig::fasst_like(), RpcConfig::fasst_like());
    run_echos(&mut p, 50, 32);
    assert_eq!(p.client.stats().timely_updates, 0);
    assert_eq!(p.client.stats().pkts_paced, 0);
}

#[test]
fn timely_cc_samples_rtts() {
    let ccfg = RpcConfig {
        cc: CcAlgorithm::Timely(erpc_congestion::TimelyConfig::for_link(25e9)),
        // Disable the bypass so every ack updates Timely.
        opt_timely_bypass: false,
        ..fast_cfg()
    };
    let mut p = pair_with(0.0, 16, ccfg, fast_cfg());
    run_echos(&mut p, 20, 2048);
    assert!(p.client.stats().timely_updates > 0);
}

#[test]
fn timely_bypass_skips_updates_when_uncongested() {
    // With a t_low far above any loopback RTT (10 ms, vs the production
    // 50 µs), every sample on an uncongested session takes the bypass.
    let ccfg = RpcConfig {
        cc: CcAlgorithm::Timely(erpc_congestion::TimelyConfig {
            t_low_ns: 10_000_000,
            ..erpc_congestion::TimelyConfig::for_link(25e9)
        }),
        ..fast_cfg()
    };
    let mut p = pair_with(0.0, 17, ccfg, fast_cfg());
    run_echos(&mut p, 20, 2048);
    assert_eq!(p.client.stats().timely_updates, 0);
    assert!(p.client.stats().timely_bypasses > 0);
}

#[test]
fn session_limit_enforced() {
    let f = MemFabric::new(MemFabricConfig {
        ring_capacity: 64,
        ..Default::default()
    });
    let cfg = RpcConfig {
        session_credits: 32, // limit = 64/32 = 2 sessions
        ..fast_cfg()
    };
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    let _s1 = client.create_session(Addr::new(0, 0)).unwrap();
    let _s2 = client.create_session(Addr::new(0, 1)).unwrap();
    let err = client.create_session(Addr::new(0, 2)).unwrap_err();
    assert_eq!(err, RpcError::TooManySessions);
}

#[test]
fn unknown_request_type_gets_empty_response() {
    let f = fabric(0.0, 18);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    // No handler registered on the server.
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    let mut req = client.alloc_msg_buffer(4);
    req.fill(b"ping");
    let resp = client.alloc_msg_buffer(16);
    client
        .enqueue_request(sess, 77, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            assert_eq!(comp.resp.len(), 0);
            d2.set(true);
        })
        .unwrap();
    pump_until(&mut [&mut client, &mut server], || done.get(), 100_000);
}

#[test]
fn enqueue_error_returns_buffers_and_continuation_unfired() {
    // Errors detected at enqueue hand everything back: the msgbufs AND
    // the owned continuation, unfired — so no closure-captured state is
    // lost when the caller wants to retry.
    let f = fabric(0.0, 19);
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    let req = client.alloc_msg_buffer(4);
    let resp = client.alloc_msg_buffer(4);
    let fired = Rc::new(Cell::new(false));
    let fired2 = fired.clone();
    let err = client
        .enqueue_request(
            erpc::SessionHandle::invalid(),
            ECHO,
            req,
            resp,
            move |_ctx, _comp| fired2.set(true),
        )
        .unwrap_err();
    assert_eq!(err.err, RpcError::InvalidSession);
    assert!(!fired.get());
    assert!(err.req.capacity() >= 4);
    // The returned continuation is still callable state — dropping it
    // must also be safe (drop-safety of owned FnOnce closures).
    drop(err);
    assert!(!fired.get());
}

#[test]
fn bidirectional_sessions_same_endpoints() {
    // Both endpoints play both roles simultaneously (the §6.2 symmetric
    // workload shape).
    let f = fabric(0.0, 20);
    let mut a = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut b = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    install_echo(&mut a);
    install_echo(&mut b);
    let sab = connect(&mut a, &mut b, Addr::new(1, 0));
    let sba = connect(&mut b, &mut a, Addr::new(0, 0));
    let done_a = Rc::new(Cell::new(0));
    let done_b = Rc::new(Cell::new(0));
    for _ in 0..10 {
        let mut req = a.alloc_msg_buffer(16);
        req.fill(&[1; 16]);
        let resp = a.alloc_msg_buffer(16);
        let da = done_a.clone();
        a.enqueue_request(sab, ECHO, req, resp, move |_c, comp| {
            assert!(comp.result.is_ok());
            da.set(da.get() + 1);
        })
        .unwrap();
        let mut req = b.alloc_msg_buffer(16);
        req.fill(&[2; 16]);
        let resp = b.alloc_msg_buffer(16);
        let db = done_b.clone();
        b.enqueue_request(sba, ECHO, req, resp, move |_c, comp| {
            assert!(comp.result.is_ok());
            db.set(db.get() + 1);
        })
        .unwrap();
    }
    pump_until(
        &mut [&mut a, &mut b],
        || done_a.get() == 10 && done_b.get() == 10,
        1_000_000,
    );
}

#[test]
fn max_message_size_roundtrip() {
    // 8 MB request, small response — the Figure 6 / Table 4 shape.
    let f = MemFabric::new(MemFabricConfig::default());
    let mut scfg = fast_cfg();
    scfg.session_credits = 32;
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), scfg);
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    const SINK: u8 = 6;
    server.register_request_handler(
        SINK,
        Box::new(|ctx, req| {
            let sum: u64 = req.iter().map(|&b| b as u64).sum();
            ctx.respond(&sum.to_le_bytes());
        }),
    );
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    let size = 8 << 20;
    let expect_sum: u64 = (0..size as u64).map(|i| (i % 199) & 0xFF).sum();
    let mut req = client.alloc_msg_buffer(size);
    for (i, b) in req.data_mut().iter_mut().enumerate() {
        *b = ((i as u64 % 199) & 0xFF) as u8;
    }
    let resp = client.alloc_msg_buffer(16);
    client
        .enqueue_request(sess, SINK, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            let sum = u64::from_le_bytes(comp.resp.data().try_into().unwrap());
            assert_eq!(sum, expect_sum);
            d2.set(true);
        })
        .unwrap();
    pump_until(&mut [&mut client, &mut server], || done.get(), 50_000_000);
}
