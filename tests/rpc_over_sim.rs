//! Cross-crate integration: the full eRPC protocol running over the
//! discrete-event fabric, under clean and adverse (lossy / reordering /
//! corrupting) network conditions — all in deterministic virtual time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use erpc::{Rpc, RpcConfig};
use erpc_sim::{driver, Cluster, FaultConfig, SimNet, SimTransport, Topology};
use erpc_transport::Addr;

const ECHO: u8 = 1;

struct Harness {
    net: erpc_sim::NetHandle,
    eps: Vec<Ep>,
}

struct Ep {
    rpc: Rpc<SimTransport>,
}

impl driver::PolledEndpoint for Ep {
    fn poll(&mut self, _now: u64) -> u64 {
        self.rpc.run_event_loop_once();
        let w = self.rpc.take_work();
        40 + (w.tx_pkts + w.rx_pkts) * 40 + w.callbacks * 20
    }
}

fn harness(faults: FaultConfig, rto_ns: u64) -> Harness {
    harness_with(
        faults,
        RpcConfig {
            ping_interval_ns: 0,
            rto_ns,
            ..RpcConfig::default()
        },
    )
}

fn harness_with(faults: FaultConfig, rpc_cfg: RpcConfig) -> Harness {
    let mut cfg = Cluster::Cx4.config();
    cfg.topology = Topology::SingleSwitch { hosts: 2 };
    cfg.faults = faults;
    let net = SimNet::new(cfg).into_handle();
    let mut server = Rpc::new(
        SimTransport::new(net.clone(), Addr::new(0, 0)),
        rpc_cfg.clone(),
    );
    server.register_request_handler(
        ECHO,
        Box::new(|ctx, req| {
            let mut v = req.to_vec();
            v.reverse();
            ctx.respond(&v);
        }),
    );
    let client = Rpc::new(SimTransport::new(net.clone(), Addr::new(1, 0)), rpc_cfg);
    Harness {
        net,
        eps: vec![Ep { rpc: server }, Ep { rpc: client }],
    }
}

/// Run `n` sequential echos of `size` bytes; panics on stall/corruption.
/// Returns total retransmissions.
fn run_echos(h: &mut Harness, n: u64, size: usize, budget_ns: u64) -> u64 {
    let sess = h.eps[1].rpc.create_session(Addr::new(0, 0)).unwrap();
    let done = Rc::new(Cell::new(0u64));
    let ok = Rc::new(Cell::new(true));
    // Connect.
    let mut t = 0u64;
    while !h.eps[1].rpc.is_connected(sess) {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < budget_ns, "connect stalled");
    }
    for i in 0..n {
        let issued_at = done.get();
        {
            let rpc = &mut h.eps[1].rpc;
            let mut req = rpc.alloc_msg_buffer(size);
            let payload: Vec<u8> = (0..size).map(|j| (j % 251) as u8).collect();
            req.fill(&payload);
            let resp = rpc.alloc_msg_buffer(size.max(1));
            let (d2, o2) = (done.clone(), ok.clone());
            rpc.enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
                if comp.result.is_err() {
                    o2.set(false);
                } else {
                    let expect: Vec<u8> =
                        (0..comp.req.len()).map(|i| (i % 251) as u8).rev().collect();
                    if comp.resp.data() != &expect[..] {
                        o2.set(false);
                    }
                }
                ctx.free_msg_buffer(comp.req);
                ctx.free_msg_buffer(comp.resp);
                d2.set(d2.get() + 1);
            })
            .unwrap();
        }
        while done.get() == issued_at {
            t += 100_000;
            driver::run(&h.net, &mut h.eps, t);
            assert!(t < budget_ns, "rpc {i} stalled at vtime {t}");
        }
    }
    assert!(ok.get(), "payload corruption or failure");
    h.eps[1].rpc.stats().retransmissions
}

#[test]
fn clean_network_multi_packet() {
    let mut h = harness(FaultConfig::default(), 5_000_000);
    let retx = run_echos(&mut h, 5, 5000, 1_000_000_000);
    assert_eq!(retx, 0, "no loss ⇒ no retransmissions");
    // One CR per request packet but the last (4 of 5, five times): a
    // 1 KiB packet takes longer to serialize than a poll takes, so the
    // server finds one packet per pass and no run forms (see
    // `golden_case`).
    assert_eq!(h.eps[0].rpc.stats().ctrl_pkts_tx, 20);
}

#[test]
fn lossy_network_recovers() {
    let faults = FaultConfig {
        drop_prob: 0.05,
        ..Default::default()
    };
    let mut h = harness(faults, 1_000_000);
    let retx = run_echos(&mut h, 10, 4000, 60_000_000_000);
    assert!(retx > 0, "5 % loss must trigger go-back-N");
    // At-most-once held (handler count == completions).
    assert_eq!(h.eps[0].rpc.stats().handlers_invoked, 10);
}

#[test]
fn reordering_treated_as_loss() {
    let faults = FaultConfig {
        reorder_prob: 0.05,
        reorder_delay_ns: 30_000,
        ..Default::default()
    };
    let mut h = harness(faults, 1_000_000);
    run_echos(&mut h, 10, 4000, 60_000_000_000);
    let stale = h.eps[0].rpc.stats().rx_dropped_stale + h.eps[1].rpc.stats().rx_dropped_stale;
    assert!(stale > 0, "reordered packets must be dropped (§5.3)");
    assert_eq!(h.eps[0].rpc.stats().handlers_invoked, 10);
}

/// Goldens for the adverse-network suites (loss, reorder, heavy
/// retransmit), recorded at the last commit that carried a second,
/// knob-selected implementation of the RX/TX datapath (ISSUE 21, both
/// implementations agreeing). Virtual time is deterministic, so the one
/// routine per packet type must reproduce every protocol decision —
/// `(retransmissions, handlers invoked, responses completed, stale drops)`
/// — *and* the same straight-line/general classification —
/// `(fast_path_hits, slow_path_entries)`, both endpoints summed — exactly.
///
/// They also held unchanged when the server began answering an in-order
/// run of a burst's request packets with one cumulative CR: the simulated
/// link delivers a 1 KiB packet more slowly than an endpoint polls, so
/// `Rpc` is handed one packet per event-loop pass and every run is a run
/// of one (`clean_network_multi_packet` pins that). Runs are exercised
/// over `MemFabric` instead (`crates/core/src/rpc/run_tests.rs`).
fn golden_case(faults: FaultConfig, n: u64, size: usize, budget: u64, golden: [u64; 6]) {
    let mut h = harness(faults, 1_000_000);
    let retx = run_echos(&mut h, n, size, budget);
    let srv = h.eps[0].rpc.stats();
    let cli = h.eps[1].rpc.stats();
    let got = [
        retx,
        srv.handlers_invoked,
        cli.responses_completed,
        srv.rx_dropped_stale + cli.rx_dropped_stale,
        cli.fast_path_hits + srv.fast_path_hits,
        cli.slow_path_entries + srv.slow_path_entries,
    ];
    assert_eq!(
        got, golden,
        "{n} x {size} B: (retx, handlers, completions, stale drops, fast, slow)"
    );
}

#[test]
fn common_case_goldens_under_loss() {
    let faults = FaultConfig {
        drop_prob: 0.05,
        ..Default::default()
    };
    // Single-packet echoes (the straight-line case) and multi-packet ones.
    golden_case(
        faults.clone(),
        12,
        32,
        60_000_000_000,
        [1, 12, 12, 0, 24, 2],
    );
    golden_case(faults, 6, 4000, 60_000_000_000, [6, 6, 6, 12, 0, 102]);
}

#[test]
fn common_case_goldens_under_reordering() {
    let faults = FaultConfig {
        reorder_prob: 0.05,
        reorder_delay_ns: 30_000,
        ..Default::default()
    };
    golden_case(
        faults.clone(),
        12,
        32,
        60_000_000_000,
        [0, 12, 12, 0, 24, 2],
    );
    golden_case(faults, 6, 4000, 60_000_000_000, [5, 6, 6, 11, 0, 101]);
}

#[test]
fn common_case_goldens_under_heavy_retransmission() {
    let faults = FaultConfig {
        drop_prob: 0.25,
        ..Default::default()
    };
    golden_case(faults, 8, 2500, 120_000_000_000, [21, 8, 8, 14, 0, 101]);
}

/// Eight slots share four credits: every kick leaves slots wanting, so
/// the session's `wants_tx` set is never empty and each returned credit is
/// offered to the starved slots in index order. Under 2 % loss every one
/// of the eight 40-packet requests must still complete — no slot is
/// passed over until it gives up — and the credits must all come home.
#[test]
fn eight_slots_on_four_credits_all_complete_under_loss() {
    let faults = FaultConfig {
        drop_prob: 0.02,
        ..Default::default()
    };
    let rpc_cfg = RpcConfig {
        ping_interval_ns: 0,
        rto_ns: 1_000_000,
        session_credits: 4,
        ..RpcConfig::default()
    };
    let max_retx = rpc_cfg.max_retransmissions;
    let mut h = harness_with(faults, rpc_cfg);
    let sess = h.eps[1].rpc.create_session(Addr::new(0, 0)).unwrap();
    let size = 40 * h.eps[1].rpc.data_per_pkt();
    let done: Rc<RefCell<Vec<u8>>> = Rc::default();
    for i in 0..8u8 {
        let rpc = &mut h.eps[1].rpc;
        let mut req = rpc.alloc_msg_buffer(size);
        req.fill(&vec![i; size]);
        let resp = rpc.alloc_msg_buffer(size);
        let done2 = done.clone();
        rpc.enqueue_request(sess, ECHO, req, resp, move |ctx, comp| {
            comp.result.expect("no slot may give up");
            assert!(comp.resp.data().iter().all(|b| *b == i), "echo {i} intact");
            done2.borrow_mut().push(i);
            ctx.free_msg_buffer(comp.req);
            ctx.free_msg_buffer(comp.resp);
        })
        .unwrap();
    }
    let mut t = 0u64;
    while done.borrow().len() < 8 {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < 60_000_000_000, "stalled with {:?} done", done.borrow());
    }
    let mut ids = done.borrow().clone();
    ids.sort_unstable();
    assert_eq!(ids, [0, 1, 2, 3, 4, 5, 6, 7]);
    let client = &h.eps[1].rpc;
    assert!(
        client.stats().retransmissions > 0,
        "2 % loss must cost RTOs"
    );
    assert!(client.stats().retransmissions < max_retx as u64);
    assert_eq!(client.stats().sessions_failed, 0);
    assert_eq!(client.session_credits_available(sess), Some(4));
    assert_eq!(h.eps[0].rpc.stats().handlers_invoked, 8);
}

#[test]
fn corruption_dropped_by_fabric() {
    let faults = FaultConfig {
        corrupt_prob: 0.1,
        ..Default::default()
    };
    let mut h = harness(faults, 1_000_000);
    run_echos(&mut h, 8, 3000, 60_000_000_000);
    assert!(h.net.borrow().stats.drops_corrupt > 0);
    assert_eq!(h.eps[0].rpc.stats().handlers_invoked, 8);
}

#[test]
fn bdp_credits_sustain_line_rate_without_drops() {
    // One flow with BDP-sized credits on a clean CX4 link: the switch
    // must never drop (§2.1's claim) and goodput must approach line rate.
    let mut cfg = Cluster::Cx4.config();
    cfg.topology = Topology::SingleSwitch { hosts: 2 };
    let bdp = cfg.bdp_bytes();
    let net = SimNet::new(cfg).into_handle();
    let rpc_cfg = RpcConfig {
        ping_interval_ns: 0,
        link_bps: 25e9,
        ..RpcConfig::default()
    }
    .with_bdp_credits(bdp, 1024);
    let mut server = Rpc::new(
        SimTransport::new(net.clone(), Addr::new(0, 0)),
        rpc_cfg.clone(),
    );
    server.register_request_handler(ECHO, Box::new(|ctx, _| ctx.respond(&[0; 16])));
    let mut client = Rpc::new(SimTransport::new(net.clone(), Addr::new(1, 0)), rpc_cfg);
    let done = Rc::new(Cell::new(0u64));
    let bufs: Rc<RefCell<Vec<(erpc::MsgBuf, erpc::MsgBuf)>>> = Rc::new(RefCell::new(Vec::new()));
    let sess = client.create_session(Addr::new(0, 0)).unwrap();
    let mut eps = vec![Ep { rpc: server }, Ep { rpc: client }];
    let mut t = 0u64;
    while !eps[1].rpc.is_connected(sess) {
        t += 100_000;
        driver::run(&net, &mut eps, t);
        assert!(t < 1_000_000_000);
    }
    // Stream 512 kB messages, 2 outstanding, for 2 ms of virtual time.
    let done2 = done.clone();
    let issue = move |rpc: &mut Rpc<SimTransport>,
                      bufs: &Rc<RefCell<Vec<(erpc::MsgBuf, erpc::MsgBuf)>>>| {
        let (mut req, resp) = bufs
            .borrow_mut()
            .pop()
            .unwrap_or((rpc.alloc_msg_buffer(512 << 10), rpc.alloc_msg_buffer(64)));
        req.resize(512 << 10);
        let (d2, b2) = (done2.clone(), bufs.clone());
        rpc.enqueue_request(sess, ECHO, req, resp, move |_ctx, comp| {
            assert!(comp.result.is_ok());
            d2.set(d2.get() + 1);
            b2.borrow_mut().push((comp.req, comp.resp));
        })
        .unwrap();
    };
    issue(&mut eps[1].rpc, &bufs);
    issue(&mut eps[1].rpc, &bufs);
    let t0 = t;
    let mut issued = 2u64;
    while t - t0 < 2_000_000 {
        t += 50_000;
        driver::run(&net, &mut eps, t);
        while done.get() + 2 > issued {
            issue(&mut eps[1].rpc, &bufs);
            issued += 1;
        }
    }
    let delivered_bytes = done.get() * (512 << 10);
    let goodput = delivered_bytes as f64 * 8.0 / ((t - t0) as f64 / 1e9);
    assert!(
        goodput > 15e9,
        "goodput {:.1} Gbps should approach the 25 Gbps line",
        goodput / 1e9
    );
    assert_eq!(
        net.borrow().stats.drops_switch_buffer,
        0,
        "BDP flow control ⇒ no switch drops"
    );
    assert_eq!(eps[1].rpc.stats().retransmissions, 0);
}

#[test]
fn channel_call_roundtrip_over_sim_transport() {
    // The `Channel` facade over the discrete-event fabric: the sim driver
    // advances virtual time between polls, so the call is resolved with
    // `is_done`/`try_take` rather than a blocking wait.
    let mut h = harness(FaultConfig::default(), 5_000_000);
    let chan = erpc::Channel::connect(&mut h.eps[1].rpc, Addr::new(0, 0)).unwrap();
    let mut t = 0u64;
    while !chan.is_connected(&h.eps[1].rpc) {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < 1_000_000_000, "connect stalled");
    }
    let call = chan.call(&mut h.eps[1].rpc, ECHO, b"simulated").unwrap();
    while !call.is_done() {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < 10_000_000_000, "channel call stalled in sim");
    }
    assert_eq!(
        call.try_take_vec(&mut h.eps[1].rpc).unwrap().unwrap(),
        b"detalumis"
    );

    // A lossy fabric still resolves the call (go-back-N under the hood).
    let mut h = harness(
        FaultConfig {
            drop_prob: 0.05,
            ..Default::default()
        },
        1_000_000,
    );
    let chan = erpc::Channel::connect(&mut h.eps[1].rpc, Addr::new(0, 0)).unwrap();
    let mut t = 0u64;
    while !chan.is_connected(&h.eps[1].rpc) {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < 10_000_000_000, "lossy connect stalled");
    }
    let payload: Vec<u8> = (0..4000).map(|i| (i % 251) as u8).collect();
    let call = chan.call(&mut h.eps[1].rpc, ECHO, &payload).unwrap();
    while !call.is_done() {
        t += 100_000;
        driver::run(&h.net, &mut h.eps, t);
        assert!(t < 60_000_000_000, "lossy channel call stalled");
    }
    let expect: Vec<u8> = payload.iter().rev().copied().collect();
    // Zero-copy take: borrow-decode from the pooled response msgbuf.
    let matched = call
        .try_take_with(&mut h.eps[1].rpc, |bytes| bytes == &expect[..])
        .unwrap()
        .unwrap();
    assert!(matched);
}
