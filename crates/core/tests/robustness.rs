//! Robustness tests: adaptive RTO × go-back-N under duplication and
//! reordering, peer-crash recovery via incarnation ids, and the
//! no-hung-callers guarantee (every pending continuation and `CallHandle`
//! resolves with a typed error when a session fails).
//!
//! Fault injection composes [`erpc_transport::FaultTransport`] over the
//! in-process fabric, so the schedules here are seeded and single-threaded
//! (packet order is deterministic; only RTO timing follows wall clock).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{Channel, Rpc, RpcConfig, RpcError};
use erpc_transport::{Addr, FaultConfig, FaultTransport, MemFabric, MemFabricConfig, MemTransport};

const ECHO: u8 = 1;

const SERVER: Addr = Addr::new(0, 0);
const CLIENT: Addr = Addr::new(1, 0);

fn fabric() -> MemFabric {
    MemFabric::new(MemFabricConfig::default())
}

fn fast_cfg() -> RpcConfig {
    RpcConfig {
        rto_ns: 1_000_000,
        timer_scan_interval_ns: 50_000,
        ping_interval_ns: 0,
        ..RpcConfig::default()
    }
}

fn install_echo<T: erpc_transport::Transport>(server: &mut Rpc<T>) {
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let out = req.to_vec();
            ctx.respond(&out);
        }),
    );
}

// ── RTO × go-back-N under duplication + reordering ─────────────────────

/// Multi-packet requests and responses through a dup+reorder+drop fault
/// profile on both directions: go-back-N must converge with exactly-once
/// completions and zero protocol-invariant breaches.
fn rto_go_back_n_multi_packet(seed: u64) {
    let f = fabric();
    let fcfg = FaultConfig {
        seed,
        drop_prob: 0.03,
        dup_prob: 0.05,
        reorder_prob: 0.10,
        reorder_delay_ns: 200_000,
        corrupt_prob: 0.01,
        extra_latency_ns: 0,
    };
    let cfg = fast_cfg();
    let mut server = Rpc::new(
        FaultTransport::new(f.create_transport(SERVER), fcfg.clone()),
        cfg.clone(),
    );
    install_echo(&mut server);
    let mut client = Rpc::new(FaultTransport::new(f.create_transport(CLIENT), fcfg), cfg);

    let sess = client.create_session(SERVER).unwrap();
    let t0 = Instant::now();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(t0.elapsed().as_secs() < 10, "connect stalled");
    }

    // ~5 request packets + ~5 response packets per RPC at the 1024 B MTU.
    const TOTAL: usize = 30;
    const SIZE: usize = 5000;
    let done: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![0; TOTAL]));
    let ok = Rc::new(Cell::new(0usize));
    let mut next = 0usize;
    let mut inflight = 0usize;
    let t0 = Instant::now();
    while ok.get() < TOTAL {
        while inflight < 4 && next < TOTAL {
            let mut req = client.alloc_msg_buffer(SIZE);
            req.resize(SIZE);
            req.data_mut().fill(next as u8);
            let resp = client.alloc_msg_buffer(SIZE);
            let (id, done, ok) = (next, done.clone(), ok.clone());
            let cont = move |_ctx: &mut erpc::ContContext<'_>, comp: erpc::Completion| {
                assert_eq!(comp.result, Ok(()), "rpc {id} failed");
                assert_eq!(comp.resp.len(), SIZE);
                assert!(
                    comp.resp.data().iter().all(|&b| b == id as u8),
                    "rpc {id}: echoed payload corrupted"
                );
                done.borrow_mut()[id] += 1;
                ok.set(ok.get() + 1);
            };
            client.enqueue_request(sess, ECHO, req, resp, cont).unwrap();
            inflight += 1;
            next += 1;
        }
        client.run_event_loop_once();
        server.run_event_loop_once();
        inflight = next - ok.get().min(next);
        assert!(
            t0.elapsed().as_secs() < 30,
            "seed {seed:#x}: stalled at {}/{TOTAL}",
            ok.get()
        );
    }
    assert!(
        done.borrow().iter().all(|&c| c == 1),
        "seed {seed:#x}: duplicate or missing completion: {:?}",
        done.borrow()
    );
    assert_eq!(client.stats().rx_invariant_breach, 0);
    assert_eq!(server.stats().rx_invariant_breach, 0);
    let injected = client.transport().fault_stats().total_injected()
        + server.transport().fault_stats().total_injected();
    assert!(injected > 0, "fault layer injected nothing");
    // ~600 data packets at 3 % drop: a clean run is a ~5e-6 event, so a
    // zero here means the RTO path never fired at all.
    assert!(
        client.stats().retransmissions > 0,
        "expected go-back-N retransmissions under 3 % drop"
    );
    assert!(client.stats().rto_events >= client.stats().retransmissions);
}

#[test]
fn rto_go_back_n_multi_packet_dup_reorder_seed_1() {
    rto_go_back_n_multi_packet(0x60BA_C401);
}

#[test]
fn rto_go_back_n_multi_packet_dup_reorder_seed_2() {
    rto_go_back_n_multi_packet(0x60BA_C402);
}

/// Counter conservation: every received packet is counted exactly once —
/// rejected by the dispatcher's one validity check, or classified as a
/// straight-line hit or a general-path entry at the one classification
/// point — across single- and multi-packet RPCs, loss-driven go-back-N,
/// duplicates, and one malformed packet per endpoint.
#[test]
fn rx_classification_counters_are_conserved() {
    use erpc_transport::{Transport, TxPacket};
    let f = fabric();
    let fcfg = FaultConfig {
        seed: 0xC0_5E47,
        drop_prob: 0.03,
        dup_prob: 0.03,
        reorder_prob: 0.0,
        reorder_delay_ns: 0,
        corrupt_prob: 0.0,
        extra_latency_ns: 0,
    };
    let mut server = Rpc::new(
        FaultTransport::new(f.create_transport(SERVER), fcfg.clone()),
        fast_cfg(),
    );
    install_echo(&mut server);
    let mut client = Rpc::new(
        FaultTransport::new(f.create_transport(CLIENT), fcfg),
        fast_cfg(),
    );
    let sess = client.create_session(SERVER).unwrap();
    let t0 = Instant::now();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(t0.elapsed().as_secs() < 10, "connect stalled");
    }

    // One malformed packet (bad magic) at each endpoint, from a third party.
    let mut stranger = f.create_transport(Addr::new(7, 0));
    for dst in [SERVER, CLIENT] {
        stranger.tx_burst(&[TxPacket {
            dst,
            hdr: &[0u8; 16],
            data: &[],
        }]);
    }

    let ok = Rc::new(Cell::new(0usize));
    const TOTAL: usize = 60;
    for i in 0..TOTAL {
        // Alternate straight-line (32 B) and multi-packet (5000 B) RPCs.
        let size = if i % 2 == 0 { 32 } else { 5000 };
        let mut req = client.alloc_msg_buffer(size);
        req.resize(size);
        let resp = client.alloc_msg_buffer(size);
        let ok2 = ok.clone();
        let cont = move |_ctx: &mut erpc::ContContext<'_>, comp: erpc::Completion| {
            assert_eq!(comp.result, Ok(()));
            ok2.set(ok2.get() + 1);
        };
        client.enqueue_request(sess, ECHO, req, resp, cont).unwrap();
        while ok.get() <= i {
            client.run_event_loop_once();
            server.run_event_loop_once();
            assert!(
                t0.elapsed().as_secs() < 30,
                "stalled at {}/{TOTAL}",
                ok.get()
            );
        }
    }
    assert!(client.stats().retransmissions > 0, "loss never exercised");
    for (name, rpc) in [("client", &client), ("server", &server)] {
        let s = rpc.stats();
        assert!(s.fast_path_hits > 0 && s.slow_path_entries > 0, "{name}");
        assert_eq!(
            s.fast_path_hits + s.slow_path_entries + 1,
            s.pkts_rx,
            "{name}: fast {} + slow {} + 1 malformed != pkts_rx",
            s.fast_path_hits,
            s.slow_path_entries
        );
        assert_eq!(s.rx_invariant_breach, 0, "{name}");
    }
}

// ── Peer-crash recovery: incarnation ids ───────────────────────────────

/// A restarted *client* re-connecting with the same `(addr, session)` key
/// must not be handed the stale session's ConnectResp: the server detects
/// the new incarnation, resets the old session, and accepts fresh.
#[test]
fn client_restart_resets_stale_server_session() {
    let f = fabric();
    let mut server = Rpc::new(f.create_transport(SERVER), fast_cfg());
    install_echo(&mut server);

    let roundtrip = |client: &mut Rpc<MemTransport>, server: &mut Rpc<MemTransport>| {
        let sess = client.create_session(SERVER).unwrap();
        let t0 = Instant::now();
        while !client.is_connected(sess) {
            client.run_event_loop_once();
            server.run_event_loop_once();
            assert!(t0.elapsed().as_secs() < 10, "connect stalled");
        }
        let chan = Channel::new(sess);
        let call = chan.call(client, ECHO, b"ping").unwrap();
        let resp = call
            .wait_with(client, || server.run_event_loop_once())
            .unwrap();
        assert_eq!(resp, b"ping");
    };

    let mut client = Rpc::new(f.create_transport(CLIENT), fast_cfg());
    roundtrip(&mut client, &mut server);
    assert_eq!(server.stats().sessions_reset_incarnation, 0);
    let old_incarnation = client.incarnation();

    // "Crash" the client: drop the endpoint (frees the fabric address)
    // and bring up a new one at the same address. Its first session gets
    // local number 0 again — the same connect_map key as the stale one.
    drop(client);
    let mut client = Rpc::new(f.create_transport(CLIENT), fast_cfg());
    assert_ne!(client.incarnation(), old_incarnation);
    roundtrip(&mut client, &mut server);
    assert_eq!(
        server.stats().sessions_reset_incarnation,
        1,
        "server must have reset the stale session for the restarted client"
    );
}

/// A restarted *server* must not blackhole a stale client session until
/// the failure timeout: the first pong carrying an unexpected incarnation
/// fails the session immediately (typed error, reconnectable), long
/// before the 10 s failure timeout configured here.
#[test]
fn server_restart_fails_stale_client_session_via_pong() {
    let f = fabric();
    let ping_cfg = RpcConfig {
        ping_interval_ns: 500_000,
        failure_timeout_ns: 10_000_000_000,
        ..fast_cfg()
    };
    let mut server = Rpc::new(f.create_transport(SERVER), ping_cfg.clone());
    install_echo(&mut server);
    let mut client = Rpc::new(f.create_transport(CLIENT), ping_cfg.clone());

    let connect = |client: &mut Rpc<MemTransport>, server: &mut Rpc<MemTransport>| {
        let sess = client.create_session(SERVER).unwrap();
        let t0 = Instant::now();
        while !client.is_connected(sess) {
            client.run_event_loop_once();
            server.run_event_loop_once();
            assert!(t0.elapsed().as_secs() < 10, "connect stalled");
        }
        sess
    };
    let sess1 = connect(&mut client, &mut server);
    // Idle for a few ping intervals so the client adopts the server's
    // incarnation from a pong.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(5) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }

    // Server crash + restart at the same address.
    drop(server);
    let mut server = Rpc::new(f.create_transport(SERVER), ping_cfg);
    install_echo(&mut server);

    // A fresh session connects fine (lands on the restarted server's
    // session 0 — the same number the stale session still points at).
    let sess2 = connect(&mut client, &mut server);

    // The stale session's next ping draws a pong with the *new* server
    // incarnation: the client must fail it well before the 10 s timeout.
    let t0 = Instant::now();
    while client.session_state(sess1) != Some(erpc::SessionState::Failed) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stale session not failed by incarnation mismatch"
        );
    }
    assert!(client.stats().sessions_reset_incarnation >= 1);
    // The replacement session keeps working.
    let chan = Channel::new(sess2);
    let call = chan.call(&mut client, ECHO, b"after").unwrap();
    let resp = call
        .wait_with(&mut client, || server.run_event_loop_once())
        .unwrap();
    assert_eq!(resp, b"after");
}

// ── No hung callers ────────────────────────────────────────────────────

/// A `CallHandle` whose peer dies mid-call resolves with a typed error —
/// it never hangs, and the error is `RemoteFailure`, not a panic or an
/// eternally-pending handle.
#[test]
fn call_handle_resolves_typed_error_when_peer_dies() {
    let f = fabric();
    let cfg = RpcConfig {
        ping_interval_ns: 1_000_000,
        failure_timeout_ns: 20_000_000,
        max_retransmissions: 1_000_000, // let failure detection win
        ..fast_cfg()
    };
    let mut server = Rpc::new(f.create_transport(SERVER), cfg.clone());
    // A server that never responds: requests park in its slots.
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, _req| {
            let _ = ctx.defer();
        }),
    );
    let mut client = Rpc::new(f.create_transport(CLIENT), cfg);

    let chan = Channel::connect(&mut client, SERVER).unwrap();
    let t0 = Instant::now();
    while !chan.is_connected(&client) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(t0.elapsed().as_secs() < 10, "connect stalled");
    }
    let calls: Vec<_> = (0..3)
        .map(|i| chan.call(&mut client, ECHO, &[i]).unwrap())
        .collect();
    // Let the requests reach the server, then kill it.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(3) {
        client.run_event_loop_once();
        server.run_event_loop_once();
    }
    drop(server);

    let t0 = Instant::now();
    while !calls.iter().all(|c| c.is_done()) {
        client.run_event_loop_once();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "CallHandle hung after peer death"
        );
    }
    for c in calls {
        match c.try_take() {
            Some(Err(RpcError::RemoteFailure)) => {}
            other => panic!(
                "every pending call must resolve with the typed failure, got {:?}",
                other.map(|r| r.map(|b| b.len()))
            ),
        }
    }
}
