//! **Appendix A** — eRPC's NIC memory footprint is constant per core.
//!
//! Four on-NIC structures matter: TX queue (64 entries suffice), TX CQ
//! (64), RQ descriptors (÷512 with multi-packet RQs), RX CQ (8, allowed
//! to overrun). None grows with cluster size — unlike RDMA's per-
//! connection state.
//!
//! The second table is the host side, measured: what building an
//! endpoint, opening a session and tearing both down costs in time and
//! resident memory (§6.3 runs ≈ 20 000 sessions per node).

use std::time::Instant;

use crate::table::Table;
use erpc::{Rpc, RpcConfig};
use erpc_sim::NicFootprintConfig;
use erpc_transport::{Addr, MemFabric, MemFabricConfig, MemTransport};

pub fn run() -> String {
    let cfg = NicFootprintConfig::default();
    let mut t = Table::new(
        "Appendix A: on-NIC memory footprint per core",
        &["cluster connections", "eRPC (B)", "RDMA verbs (B)"],
    );
    for &conns in &[10usize, 100, 1_000, 5_000, 20_000] {
        t.row(&[
            conns.to_string(),
            cfg.erpc_bytes().to_string(),
            cfg.rdma_bytes(conns).to_string(),
        ]);
    }
    let trad = NicFootprintConfig {
        rq_multi_packet: 1,
        ..cfg.clone()
    };
    t.note(format!(
        "multi-packet RQ (512-way): {} B; traditional RQ descriptors: {} B",
        cfg.erpc_bytes(),
        trad.erpc_bytes()
    ));
    t.note(
        "paper: eRPC footprint independent of cluster size; 5000 RDMA conns ≈ 1.8 MB > NIC SRAM",
    );
    t.print();
    let host = setup_table(&[(2, 1, 50), (2, 64, 20), (16, 64, 5)]);
    t.render() + &host
}

/// Host-side set-up cost of one shape (see [`measure_setup`]): µs per
/// endpoint (build, `Rpc::new`, teardown) or per session
/// (`create_session`, connect), medians over rounds.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    pub build_us: f64,
    pub rpc_new_us: f64,
    pub create_us: f64,
    pub connect_us: f64,
    pub teardown_us: f64,
}

/// Resident bytes of this process (`/proc/self/statm`, 4 KiB pages), if
/// the platform has it.
fn rss_bytes() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0)
}

/// One shape, built and connected on this thread: `endpoints`
/// `MemTransport` endpoints, each opening `sessions` client sessions
/// round-robin over the others (so each also serves about as many, and
/// 2 × `sessions` must stay within the |RQ| / C session limit).
struct Built {
    fabric: MemFabric,
    rpcs: Vec<Rpc<MemTransport>>,
    /// Seconds: transports, `Rpc::new`, `create_session`, connect.
    secs: [f64; 4],
    /// Resident bytes grown by the endpoints, then by the sessions.
    rss: [Option<f64>; 2],
}

fn build(endpoints: usize, sessions: usize) -> Built {
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    let fabric = MemFabric::new(MemFabricConfig::default());
    let transports: Vec<_> = (0..endpoints)
        .map(|i| fabric.create_transport(Addr::new(i as u16, 0)))
        .collect();
    let t1 = Instant::now();
    let mut rpcs: Vec<_> = transports
        .into_iter()
        .map(|t| Rpc::new(t, RpcConfig::default()))
        .collect();
    let t2 = Instant::now();
    let rss1 = rss_bytes();
    let handles: Vec<Vec<_>> = (0..endpoints)
        .map(|i| {
            (0..sessions)
                .map(|k| {
                    let peer = (i + 1 + k % (endpoints - 1)) % endpoints;
                    rpcs[i]
                        .create_session(Addr::new(peer as u16, 0))
                        .expect("session")
                })
                .collect()
        })
        .collect();
    let t3 = Instant::now();
    loop {
        let mut connected = true;
        for (rpc, hs) in rpcs.iter_mut().zip(&handles) {
            rpc.run_event_loop_once();
            connected &= hs.iter().all(|&h| rpc.is_connected(h));
        }
        if connected {
            break;
        }
    }
    let t4 = Instant::now();
    let rss2 = rss_bytes();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Built {
        fabric,
        rpcs,
        secs: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
        rss: [
            rss0.zip(rss1).map(|(a, b)| b - a),
            rss1.zip(rss2).map(|(a, b)| b - a),
        ],
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Build, connect and drop one shape `rounds` times; see [`Built`].
pub fn measure_setup(endpoints: usize, sessions: usize, rounds: usize) -> SetupCost {
    assert!(endpoints >= 2 && rounds >= 1);
    let per = [1.0, 1.0, sessions as f64, sessions as f64, 1.0].map(|p| p * endpoints as f64);
    let mut phases: [Vec<f64>; 5] = Default::default();
    for _ in 0..rounds {
        let b = build(endpoints, sessions);
        let t = Instant::now();
        drop((b.rpcs, b.fabric));
        let all = [
            b.secs[0],
            b.secs[1],
            b.secs[2],
            b.secs[3],
            t.elapsed().as_secs_f64(),
        ];
        for ((v, s), per) in phases.iter_mut().zip(all).zip(per) {
            v.push(s * 1e6 / per);
        }
    }
    let [build_us, rpc_new_us, create_us, connect_us, teardown_us] = phases.map(median);
    SetupCost {
        build_us,
        rpc_new_us,
        create_us,
        connect_us,
        teardown_us,
    }
}

/// The host-side table: one row per `(endpoints, sessions, rounds)`.
/// Resident memory comes first, from one build of every shape held live
/// together (so no shape reuses heap another freed); then the timed rounds.
fn setup_table(shapes: &[(usize, usize, usize)]) -> String {
    let live: Vec<Built> = shapes.iter().map(|&(e, s, _)| build(e, s)).collect();
    let kib = |v: Option<f64>, per: usize| {
        v.map_or("n/a".to_string(), |v| {
            format!("{:.1}", v / per as f64 / 1024.0)
        })
    };
    let rss: Vec<[String; 2]> = live
        .iter()
        .zip(shapes)
        .map(|(b, &(e, s, _))| [kib(b.rss[0], e), kib(b.rss[1], e * s)])
        .collect();
    drop(live);
    let mut t = Table::new(
        "Host-side set-up per endpoint and per session (MemFabric, one thread)",
        &[
            "endpoints × sessions",
            "build µs/ep",
            "Rpc::new µs/ep",
            "create µs/sess",
            "connect µs/sess",
            "teardown µs/ep",
            "RSS KiB/ep",
            "RSS KiB/idle sess",
        ],
    );
    for (&(endpoints, sessions, rounds), [rss_ep, rss_sess]) in shapes.iter().zip(rss) {
        let c = measure_setup(endpoints, sessions, rounds);
        t.row(&[
            format!("{endpoints} × {sessions}"),
            format!("{:.1}", c.build_us),
            format!("{:.1}", c.rpc_new_us),
            format!("{:.2}", c.create_us),
            format!("{:.2}", c.connect_us),
            format!("{:.1}", c.teardown_us),
            rss_ep,
            rss_sess,
        ]);
    }
    t.note("default RpcConfig and MemFabricConfig; each endpoint opens `sessions` client sessions round-robin over the others and serves as many");
    t.note("times: median over rounds; RSS: /proc/self/statm around one build of each shape, all held live together");
    t.print();
    t.render()
}
