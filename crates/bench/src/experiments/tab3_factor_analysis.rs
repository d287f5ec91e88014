//! **Table 3** — Factor analysis: impact of disabling the common-case
//! optimizations on small-RPC rate (§6.2).
//!
//! Paper (CX4, B = 3, cumulative disabling):
//!
//! | action                              | rate      | loss  |
//! |-------------------------------------|-----------|-------|
//! | baseline (with congestion control)  | 4.96 M/s  | –     |
//! | − batched RTT timestamps            | 4.84 M/s  | 2.4 % |
//! | − Timely bypass                     | 4.52 M/s  | 6.6 % |
//! | − rate limiter bypass               | 4.30 M/s  | 4.8 % |
//! | − multi-packet RQ                   | 4.06 M/s  | 5.6 % |
//! | − preallocated responses            | 3.55 M/s  | 12.6 %|
//! | − 0-copy request processing         | 3.05 M/s  | 14.0 %|
//!
//! Plus §6.2's headline: disabling congestion control entirely lifts the
//! baseline 4.96 → 5.44 Mrps (9 % total overhead).
//!
//! Our table adds one factor the paper names in §4.3 but does not ablate
//! in Table 3: **transmit batching** — the deferred TX queue that
//! coalesces every packet queued in an event-loop pass into one `tx_burst`
//! doorbell. `tx_batch: 1` reverts to one burst per packet. It is reported
//! as a *standalone* ablation against the baseline, not folded into the
//! cumulative ladder, so the paper rows stay measured under the paper's
//! own configuration. (The "header templates off" row went with its knob;
//! CHANGES.md, ISSUE 23, keeps its last measured value.)
//!
//! Mode: wall-clock threads; each flag removes/adds *real* work (clock
//! reads, FP updates, pacing-wheel traffic, descriptor writes, allocator
//! calls, memcpys).

use crate::table::{mrps, Table};
use crate::thread_cluster::{run_symmetric, SymmetricOpts};
use erpc::{CcAlgorithm, RpcConfig};

/// Timely tuned to the in-process fabric: thresholds scale with the
/// fabric's RTT (the paper's 50 µs t_low assumes ~6 µs datacenter RTTs;
/// loopback RTTs under a 60-deep window are hundreds of µs). This keeps
/// the *uncongested* common case actually uncongested, as in §6.2.
fn wall_clock_timely() -> erpc_congestion::TimelyConfig {
    erpc_congestion::TimelyConfig {
        t_low_ns: 5_000_000,
        t_high_ns: 50_000_000,
        min_rtt_ns: 100_000,
        ..erpc_congestion::TimelyConfig::for_link(25e9)
    }
}

fn base_cfg() -> RpcConfig {
    RpcConfig {
        ping_interval_ns: 0,
        cc: erpc::CcAlgorithm::Timely(wall_clock_timely()),
        ..RpcConfig::default()
    }
}

pub fn run() -> String {
    let endpoints = 4;
    let measure_ms = crate::bench_millis();
    // Best-of-3: on a shared core, scheduler noise dwarfs the smaller
    // effects; the best run is the least-perturbed one.
    let measure = |cfg: RpcConfig| -> f64 {
        (0..3)
            .map(|_| {
                run_symmetric(SymmetricOpts {
                    endpoints,
                    batch: 3,
                    measure_ms,
                    rpc_cfg: cfg.clone(),
                    ..Default::default()
                })
                .per_core_rate
            })
            .fold(0.0, f64::max)
    };
    // Throwaway run: page in code paths, warm the allocator.
    let _ = run_symmetric(SymmetricOpts {
        endpoints,
        batch: 3,
        measure_ms: 100,
        rpc_cfg: base_cfg(),
        ..Default::default()
    });

    // Cumulative ladder, same order as the paper.
    let mut cfg = base_cfg();
    let mut rows: Vec<(&str, f64)> = Vec::new();
    rows.push(("baseline (with congestion control)", measure(cfg.clone())));
    cfg.opt_batched_timestamps = false;
    rows.push(("disable batched RTT timestamps", measure(cfg.clone())));
    cfg.opt_timely_bypass = false;
    rows.push(("disable Timely bypass", measure(cfg.clone())));
    cfg.opt_rate_limiter_bypass = false;
    rows.push(("disable rate limiter bypass", measure(cfg.clone())));
    cfg.opt_multi_packet_rq = false;
    rows.push(("disable multi-packet RQ", measure(cfg.clone())));
    cfg.opt_preallocated_responses = false;
    rows.push(("disable preallocated responses", measure(cfg.clone())));
    cfg.opt_zero_copy_rx = false;
    rows.push(("disable 0-copy request processing", measure(cfg.clone())));

    let no_cc = measure(RpcConfig {
        cc: CcAlgorithm::None,
        ..base_cfg()
    });
    // Our transmit-batching factor, ablated ALONE against the baseline
    // (not cumulatively): the paper's Table 3 never disables TX batching,
    // so folding it into the ladder would measure every paper row under a
    // configuration the paper numbers were not taken in.
    let tx_batching_off = measure(RpcConfig {
        tx_batch: 1,
        ..base_cfg()
    });
    // Adaptive RTO (robustness PR), ablated alone: with no injected loss
    // the estimator never fires, so this row prices the bookkeeping —
    // one SRTT/RTTVAR fold per Karn-valid ack — which should be ~free.
    // Its latency win under loss is gated in the chaos_smoke target.
    let adaptive_rto_off = measure(RpcConfig {
        opt_adaptive_rto: false,
        ..base_cfg()
    });

    let mut t = Table::new(
        format!(
            "Table 3: factor analysis, cumulative ({endpoints} endpoints on one core, B=3, 32 B)"
        ),
        &[
            "action",
            "RPC rate",
            "step loss",
            "paper rate",
            "paper loss",
        ],
    );
    let paper = [
        ("4.96 M/s", "–"),
        ("4.84 M/s", "2.4 %"),
        ("4.52 M/s", "6.6 %"),
        ("4.30 M/s", "4.8 %"),
        ("4.06 M/s", "5.6 %"),
        ("3.55 M/s", "12.6 %"),
        ("3.05 M/s", "14.0 %"),
    ];
    let mut prev = rows[0].1;
    for (i, (name, rate)) in rows.iter().enumerate() {
        let loss = if i == 0 {
            "–".to_string()
        } else {
            format!("{:.1} %", (prev - rate) / prev * 100.0)
        };
        t.row(&[
            name.to_string(),
            mrps(*rate),
            loss,
            paper[i].0.to_string(),
            paper[i].1.to_string(),
        ]);
        prev = *rate;
    }
    let base = rows[0].1;
    let bottom = rows.last().unwrap().1;
    // Standalone (non-cumulative) factor: loss is relative to the baseline.
    t.row(&[
        "disable transmit batching (tx_batch = 1, alone)".to_string(),
        mrps(tx_batching_off),
        format!("{:.1} %", (base - tx_batching_off) / base * 100.0),
        "–".to_string(),
        "–".to_string(),
    ]);
    t.row(&[
        "disable adaptive RTO (alone)".to_string(),
        mrps(adaptive_rto_off),
        format!("{:.1} %", (base - adaptive_rto_off) / base * 100.0),
        "–".to_string(),
        "–".to_string(),
    ]);
    t.note(format!(
        "congestion control off: {} (+{:.0} % over baseline; paper: 5.44 M/s, +9 %)",
        mrps(no_cc),
        (no_cc - base) / base * 100.0
    ));
    t.note(format!(
        "all optimizations off: {:.0} % of baseline (paper: ≈60 %)",
        bottom / base * 100.0
    ));
    t.note("shape to hold: every step loses throughput; prealloc + 0-copy are the biggest steps");
    t.print();
    t.render()
}
