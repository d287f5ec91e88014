//! Tests for the deferred TX batch (transmit batching, §4.3 / Table 3) and
//! the session-lifecycle fixes that ride along with it:
//!
//! * batching is real (mean packets-per-burst > 1 under pipelined load);
//! * go-back-N rollback with a pending TX batch never transmits a stale
//!   descriptor (the Rust analogue of the §4.2.2 DMA-queue flush);
//! * disconnect survives a lossy fabric (DisconnectReq retry + idempotent
//!   server-side ack, even for already-freed sessions);
//! * `Completion::latency_ns` includes backlog queueing time;
//! * a client connecting to a dead peer gives up even with pings disabled.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use erpc::{PktHdr, PktType, Rpc, RpcConfig, RpcError, SessionState, PKT_HDR_SIZE};
use erpc_transport::codec::ByteWriter;
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport, Transport, TxPacket};

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
        rto_ns: 1_000_000,
        timer_scan_interval_ns: 50_000,
        ping_interval_ns: 0,
        ..RpcConfig::default()
    }
}

fn install_echo(server: &mut TestRpc) {
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let out = req.to_vec();
            ctx.respond(&out);
        }),
    );
}

fn connect(client: &mut TestRpc, server: &mut TestRpc, peer: Addr) -> erpc::SessionHandle {
    let sess = client.create_session(peer).unwrap();
    let start = Instant::now();
    while !client.is_connected(sess) {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "connect stalled");
    }
    sess
}

// ── Tentpole: transmit batching ─────────────────────────────────────────

/// Under pipelined load the event loop must coalesce packets: multiple
/// descriptors per `tx_burst` call, not one doorbell per packet.
#[test]
fn pipelined_load_produces_real_batches() {
    let f = fabric(0.0, 11);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), fast_cfg());
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));

    let completed = Rc::new(Cell::new(0usize));
    for _ in 0..64 {
        let mut req = client.alloc_msg_buffer(32);
        req.fill(&[7u8; 32]);
        let resp = client.alloc_msg_buffer(32);
        let c2 = completed.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                c2.set(c2.get() + 1);
            })
            .unwrap();
    }
    let start = Instant::now();
    while completed.get() < 64 {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "echo stalled");
    }

    // 64 requests left the client; with 8 slots filled per pass the flush
    // must have coalesced them (mean batch > 1, fewer doorbells than pkts).
    let cs = client.stats();
    assert!(
        cs.tx_batch_hist.mean() > 1.0,
        "mean {}",
        cs.tx_batch_hist.mean()
    );
    let pkts = cs.data_pkts_tx + cs.ctrl_pkts_tx + cs.mgmt_pkts_tx;
    assert!(
        cs.tx_bursts < pkts,
        "bursts {} !< pkts {}",
        cs.tx_bursts,
        pkts
    );
    // The server's responses ride the same deferred queue.
    assert!(server.stats().tx_batch_hist.mean() > 1.0);
}

/// With `tx_batch: 1` (the "transmit batching off" ablation of tab3)
/// every packet is its own burst: one doorbell per packet, mean batch
/// exactly 1.
#[test]
fn batching_disabled_is_one_doorbell_per_packet() {
    let f = fabric(0.0, 12);
    let cfg = RpcConfig {
        tx_batch: 1,
        ..fast_cfg()
    };
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), cfg.clone());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));

    let completed = Rc::new(Cell::new(0usize));
    for _ in 0..16 {
        let mut req = client.alloc_msg_buffer(32);
        req.fill(&[3u8; 32]);
        let resp = client.alloc_msg_buffer(32);
        let c2 = completed.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                c2.set(c2.get() + 1);
            })
            .unwrap();
    }
    let start = Instant::now();
    while completed.get() < 16 {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "echo stalled");
    }
    let cs = client.stats();
    let pkts = cs.data_pkts_tx + cs.ctrl_pkts_tx + cs.mgmt_pkts_tx;
    assert_eq!(cs.tx_bursts, pkts);
    assert!((cs.tx_batch_hist.mean() - 1.0).abs() < 1e-9);
}

/// Go-back-N rollback while descriptors are still queued: the stale
/// descriptors must be dropped at drain (epoch check), so the wire sees
/// each packet exactly once — no duplicate/stale egress.
#[test]
fn rollback_with_pending_batch_drops_stale_descriptors() {
    let f = fabric(0.0, 13);
    let cfg = RpcConfig {
        // RTO shorter than the stall below; scan timers every pass.
        rto_ns: 2_000_000,
        timer_scan_interval_ns: 0,
        ping_interval_ns: 0,
        // Large cap: nothing mid-pass-flushes, descriptors stay queued.
        tx_batch: 1024,
        ..RpcConfig::default()
    };
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), cfg.clone());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    let tx_before = client.transport().stats().tx_pkts;

    // Enqueue outside the event loop: the slot's kick queues 3 request-packet
    // descriptors (3 * 1024 B data), but nothing flushes until the next
    // event-loop pass.
    let mut req = client.alloc_msg_buffer(3 * 1024);
    req.fill(&vec![9u8; 3 * 1024]);
    let resp = client.alloc_msg_buffer(4 * 1024);
    let done = Rc::new(Cell::new(false));
    let d2 = done.clone();
    client
        .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            d2.set(true);
        })
        .unwrap();

    // Stall past the RTO: the first event-loop pass runs the timers BEFORE
    // the end-of-pass flush, so rollback fires while the 3 descriptors are
    // still pending. The epoch bump must kill them; the retransmitted
    // descriptors (new epoch) are the only ones allowed out.
    std::thread::sleep(Duration::from_millis(5));
    client.run_event_loop_once();

    assert_eq!(
        client.stats().retransmissions,
        1,
        "rollback must have fired"
    );
    assert_eq!(
        client.stats().tx_stale_dropped,
        3,
        "all pre-rollback descriptors must be dropped"
    );
    let sent = client.transport().stats().tx_pkts - tx_before;
    assert_eq!(
        sent, 3,
        "exactly one copy of each request packet may reach the wire"
    );

    // And the RPC still completes.
    let start = Instant::now();
    while !done.get() {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "echo stalled");
    }
}

// ── Satellite: disconnect lifecycle ─────────────────────────────────────

/// A lossy fabric drops DisconnectReq/DisconnectResp packets; the client
/// must retry until both ends free the session (no session leak).
#[test]
fn disconnect_survives_lossy_fabric() {
    let f = fabric(0.4, 21);
    let cfg = RpcConfig {
        connect_retry_ns: 1_000_000,
        failure_timeout_ns: 2_000_000_000,
        timer_scan_interval_ns: 50_000,
        ping_interval_ns: 0,
        ..RpcConfig::default()
    };
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), cfg.clone());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));
    assert_eq!(server.active_sessions(), 1);

    client.disconnect(sess).unwrap();
    let start = Instant::now();
    while client.session_state(sess).is_some() || server.active_sessions() > 0 {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(
            start.elapsed().as_secs() < 10,
            "disconnect leaked: client={:?} server_sessions={}",
            client.session_state(sess),
            server.active_sessions()
        );
    }
    // Retries actually happened under 40 % loss (with overwhelming
    // probability for this seed) — more than one DisconnectReq went out.
    assert!(client.stats().mgmt_pkts_tx > 1);
}

/// A retransmitted DisconnectReq for a session the server has already
/// freed (or never had) must still be acked — the ack is what lets the
/// client free its end when the first DisconnectResp was lost.
#[test]
fn disconnect_req_for_unknown_session_is_acked() {
    let f = fabric(0.0, 22);
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), fast_cfg());
    // A raw transport standing in for a client whose session the server
    // has long forgotten.
    let mut raw = f.create_transport(Addr::new(7, 0));

    // Handcraft DisconnectReq { client_addr: 7:0, client_session: 3 } for
    // a server session number that does not exist.
    let hdr = PktHdr::control(PktType::DisconnectReq, 42, 0, 0).encode();
    let mut body = Vec::new();
    ByteWriter::new(&mut body).u32(Addr::new(7, 0).key()).u16(3);
    raw.tx_burst(&[TxPacket {
        dst: Addr::new(0, 0),
        hdr: &hdr,
        data: &body,
    }]);

    server.run_event_loop_once();
    server.run_event_loop_once();

    let mut toks = Vec::new();
    assert_eq!(raw.rx_burst(8, &mut toks), 1, "ack must come back");
    let got = PktHdr::decode(raw.rx_bytes(&toks[0])).unwrap();
    assert_eq!(got.pkt_type, PktType::DisconnectResp);
    assert_eq!(got.dest_session, 3, "ack addressed to the client session");
    // Body: the acking server's address (clients verify it against the
    // session peer before freeing).
    let body = &raw.rx_bytes(&toks[0])[PKT_HDR_SIZE..];
    assert_eq!(body, Addr::new(0, 0).key().to_le_bytes());
    raw.rx_release();
}

// ── Satellite: latency accounting ───────────────────────────────────────

/// `Completion::latency_ns` is documented as enqueue → continuation: a
/// request that waits in the backlog (all slots busy) must count that
/// waiting time, not just its wire time.
#[test]
fn backlogged_request_latency_includes_queue_time() {
    let f = fabric(0.0, 31);
    let cfg = RpcConfig {
        slots_per_session: 1, // second request must backlog
        ping_interval_ns: 0,
        ..RpcConfig::default()
    };
    let mut server = Rpc::new(f.create_transport(Addr::new(0, 0)), cfg.clone());
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    install_echo(&mut server);
    let sess = connect(&mut client, &mut server, Addr::new(0, 0));

    let lat = Rc::new(Cell::new((0u64, 0u64)));
    for i in 0..2 {
        let mut req = client.alloc_msg_buffer(8);
        req.fill(&[i as u8; 8]);
        let resp = client.alloc_msg_buffer(8);
        let l2 = lat.clone();
        client
            .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
                assert!(comp.result.is_ok());
                let mut v = l2.get();
                if i == 0 {
                    v.0 = comp.latency_ns;
                } else {
                    v.1 = comp.latency_ns;
                }
                l2.set(v);
            })
            .unwrap();
    }
    // Stall the server: request 0 occupies the only slot for ≥ 50 ms, and
    // request 1 sits in the backlog the whole time.
    let stall = Duration::from_millis(50);
    let t0 = Instant::now();
    while t0.elapsed() < stall {
        client.run_event_loop_once();
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    while lat.get().1 == 0 {
        client.run_event_loop_once();
        server.run_event_loop_once();
        assert!(start.elapsed().as_secs() < 10, "echo stalled");
    }
    let (l0, l1) = lat.get();
    // Both were enqueued before the stall; both latencies must reflect it.
    assert!(l0 >= 20_000_000, "first request latency {l0} ns");
    assert!(
        l1 >= 20_000_000,
        "backlogged request latency {l1} ns must include queue time"
    );
}

// ── Satellite: connect to a dead peer with pings disabled ───────────────

/// With `ping_interval_ns == 0` a ConnectReq to a dead/absent peer used to
/// retry forever, stranding every enqueued request. The give-up path must
/// be bounded by `failure_timeout_ns` unconditionally.
#[test]
fn connect_to_dead_peer_fails_without_pings() {
    let f = fabric(0.0, 41);
    let cfg = RpcConfig {
        ping_interval_ns: 0, // the regression trigger
        connect_retry_ns: 2_000_000,
        failure_timeout_ns: 30_000_000,
        timer_scan_interval_ns: 100_000,
        ..RpcConfig::default()
    };
    let mut client = Rpc::new(f.create_transport(Addr::new(1, 0)), cfg);
    // No endpoint ever registers 9:0 — the peer is dead from the start.
    let sess = client.create_session(Addr::new(9, 0)).unwrap();

    let mut req = client.alloc_msg_buffer(8);
    req.fill(b"stranded");
    let resp = client.alloc_msg_buffer(8);
    let failed = Rc::new(Cell::new(false));
    let f2 = failed.clone();
    client
        .enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
            assert!(matches!(comp.result, Err(RpcError::RemoteFailure)));
            f2.set(true);
        })
        .unwrap();

    let start = Instant::now();
    while !failed.get() {
        client.run_event_loop_once();
        assert!(
            start.elapsed().as_secs() < 10,
            "connect to dead peer never gave up (pings disabled)"
        );
    }
    assert_eq!(client.session_state(sess), Some(SessionState::Failed));
}
