//! Scaled-down smoke runs of every experiment harness: exercises the full
//! bench plumbing (sim clusters, wall-clock clusters, Raft-over-eRPC,
//! Masstree service) and asserts the headline *shapes* that must hold for
//! the reproduction to be meaningful.

use erpc_bench::experiments::fig6_large_rpc_bw::RX_COPY_NS_PER_BYTE;
use erpc_bench::experiments::*;
use erpc_sim::{Cluster, RdmaNicModel};

#[test]
fn fig1_shape_cache_cliff() {
    let m = RdmaNicModel::default();
    let small = m.read_rate_mops(100, 1);
    let large = m.read_rate_mops(5_000, 1);
    assert!(
        large < small * 0.6,
        "connection-cache cliff missing: {small} vs {large}"
    );
}

#[test]
fn tab2_latency_shapes() {
    for cluster in [Cluster::Cx3, Cluster::Cx4, Cluster::Cx5] {
        let (erpc_ns, _, _, _) = tab2_small_rpc_latency::erpc_median_latency_ns(cluster, 50);
        let rdma_ns = cluster.rdma_read_latency_ns();
        // Both µs-scale; eRPC within ~1 µs above RDMA (paper: ≤ 0.8 µs).
        assert!(
            (1_000..8_000).contains(&erpc_ns),
            "{cluster:?}: eRPC median {erpc_ns} ns out of range"
        );
        assert!(
            erpc_ns > rdma_ns,
            "{cluster:?}: eRPC must cost more than raw RDMA"
        );
        assert!(
            erpc_ns < rdma_ns + 1_500,
            "{cluster:?}: eRPC {erpc_ns} vs RDMA {rdma_ns}: gap too large"
        );
    }
}

#[test]
fn fig4_erpc_close_to_fasst() {
    use erpc_bench::thread_cluster::{run_symmetric, SymmetricOpts};
    let run = |cfg| {
        run_symmetric(SymmetricOpts {
            endpoints: 2,
            warmup_ms: 30,
            measure_ms: 120,
            rpc_cfg: cfg,
            ..Default::default()
        })
        .per_core_rate
    };
    // Best-of-2 to damp shared-host noise.
    let full = |cfg: &erpc::RpcConfig| (0..2).map(|_| run(cfg.clone())).fold(0.0, f64::max);
    let erpc_cfg = erpc::RpcConfig {
        ping_interval_ns: 0,
        cc: erpc::CcAlgorithm::Timely(erpc_congestion::TimelyConfig {
            t_low_ns: 5_000_000,
            ..erpc_congestion::TimelyConfig::for_link(25e9)
        }),
        ..erpc::RpcConfig::default()
    };
    let erpc_rate = full(&erpc_cfg);
    let fasst_rate = full(&erpc::RpcConfig::fasst_like());
    assert!(erpc_rate > 50_000.0, "rate collapsed: {erpc_rate}");
    // Paper: within 18 %. Allow extra noise headroom on shared hosts.
    assert!(
        erpc_rate > fasst_rate * 0.65,
        "cost of generality too high: eRPC {erpc_rate:.0} vs FaSST {fasst_rate:.0}"
    );
}

#[test]
fn fig6_shape_crossover_and_copy_bound() {
    let small = fig6_large_rpc_bw::sim_goodput_bps(4 << 10, 8, RX_COPY_NS_PER_BYTE, 0.0);
    let big = fig6_large_rpc_bw::sim_goodput_bps(2 << 20, 3, RX_COPY_NS_PER_BYTE, 0.0);
    let big_nocopy = fig6_large_rpc_bw::sim_goodput_bps(2 << 20, 3, 0.0, 0.0);
    assert!(
        big > small * 3.0,
        "large messages must amortize: {small:.2e} vs {big:.2e}"
    );
    assert!(big > 60e9, "plateau too low: {big:.2e}");
    assert!(big_nocopy > big, "removing the RX copy must raise goodput");
    let rdma = RdmaNicModel::default().write_goodput_gbps(2 << 20, 100e9) * 1e9;
    assert!(
        big > rdma * 0.7,
        "paper: ≥70 % of RDMA write for large sizes"
    );
}

#[test]
fn tab4_shape_loss_cliff() {
    let clean = fig6_large_rpc_bw::sim_goodput_bps(8 << 20, 4, RX_COPY_NS_PER_BYTE, 1e-7);
    let heavy = fig6_large_rpc_bw::sim_goodput_bps(8 << 20, 3, RX_COPY_NS_PER_BYTE, 1e-3);
    assert!(
        heavy < clean * 0.25,
        "1e-3 loss must collapse goodput: {clean:.2e} vs {heavy:.2e}"
    );
}

#[test]
fn fig5_scale_smoke() {
    let r = fig5_scalability::run_scale(10, 1, 1_500_000);
    assert!(r.per_node_rate > 1e6, "rate {:.2e}", r.per_node_rate);
    let p50 = r.latency.percentile(50.0);
    assert!((3_000..60_000).contains(&p50), "p50 {p50} ns");
}

#[test]
fn tab5_shape_cc_cuts_queueing() {
    let on = tab5_incast::run_incast(10, true, false, 6_000_000);
    let off = tab5_incast::run_incast(10, false, false, 6_000_000);
    // Without cc, RTT ≈ M × C × MTU / link; with cc, several times lower.
    assert!(
        on.rtt.percentile(50.0) * 2 < off.rtt.percentile(50.0),
        "cc must cut median queueing: {} vs {}",
        on.rtt.percentile(50.0),
        off.rtt.percentile(50.0)
    );
    // The headline claim: no switch drops either way (buffer ≫ BDP).
    assert_eq!(on.switch_drops, 0);
    assert_eq!(off.switch_drops, 0);
    // And the no-cc queue really is the credit-window arithmetic.
    let expected_ns = 10.0 * 32.0 * 1068.0 * 8.0 / 25.0; // M*C*wire_mtu/25Gbps
    let measured = off.rtt.percentile(50.0) as f64;
    assert!(
        (measured - expected_ns).abs() < expected_ns * 0.5,
        "no-cc RTT {measured} vs predicted {expected_ns}"
    );
}

#[test]
fn tab6_raft_latency_single_digit_us() {
    let r = tab6_raft_replication::run_raft_latency(100);
    let client_p50 = r.client.percentile(50.0);
    let leader_p50 = r.leader_commit.percentile(50.0);
    // Paper: 5.5 µs client / 3.1 µs leader; NetChain 9.7 µs.
    assert!(
        (2_000..9_700).contains(&client_p50),
        "client p50 {client_p50} ns must be single-digit µs (beat NetChain)"
    );
    assert!(
        leader_p50 < client_p50,
        "commit happens before the client reply"
    );
}

#[test]
fn sec72_masstree_smoke() {
    let r = sec72_masstree::run_masstree(2, true, 100, 1, 128);
    assert!(r.gets_per_sec > 10_000.0, "rate {:.0}", r.gets_per_sec);
    assert!(r.get_latency.count() > 0);
    let p50 = r.get_latency.percentile(50.0);
    assert!(p50 < 20_000_000, "p50 {p50} ns implausible");
}

#[test]
fn nic_footprint_constant() {
    let cfg = erpc_sim::NicFootprintConfig::default();
    assert_eq!(cfg.erpc_bytes(), cfg.erpc_bytes());
    assert!(cfg.rdma_bytes(20_000) > cfg.erpc_bytes() * 100);
}

#[test]
fn host_setup_row_connects_every_session() {
    // 2 × 64 puts each endpoint at the |RQ| / C limit of 128 live sessions.
    let c = nic_footprint::measure_setup(2, 64, 1);
    let phases = [
        c.build_us,
        c.rpc_new_us,
        c.create_us,
        c.connect_us,
        c.teardown_us,
    ];
    assert!(phases.iter().all(|us| us.is_finite() && *us > 0.0), "{c:?}");
}

#[test]
fn fig5_real_threads_scaling_shape() {
    let t1 = fig5_scalability::run_scale_threads(1, 120);
    let t4 = fig5_scalability::run_scale_threads(4, 120);
    // Structure: per-thread breakdown sums to the total, latency merged
    // cross-thread, RpcStats merged across endpoints.
    assert_eq!(t4.per_thread.len(), 4);
    assert_eq!(
        t4.per_thread.iter().map(|s| s.completed).sum::<u64>(),
        t4.total_completed
    );
    assert_eq!(t4.latency.count(), t4.total_completed);
    assert!(t4.stats.responses_completed >= t4.total_completed);
    assert!(t1.aggregate_rate > 0.0 && t4.aggregate_rate > 0.0);
    // Thread scaling needs cores to scale onto: with cores >= T, the
    // aggregate must grow (Figure 5's whole point). Hosts with fewer
    // cores time-share the T busy-polling threads, and oversubscription
    // can measure *below* the cache-hot T=1 loopback — not a regression.
    if erpc_bench::host_cores() >= 4 {
        assert!(
            t4.aggregate_rate > t1.aggregate_rate,
            "T=4 aggregate {:.0} rps must exceed T=1 {:.0} rps on a {}-core host",
            t4.aggregate_rate,
            t1.aggregate_rate,
            erpc_bench::host_cores(),
        );
    }
}
