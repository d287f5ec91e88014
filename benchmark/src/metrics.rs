//! The metric tables — the one place names, units, directions and
//! bounds are written down; `BENCHMARK.json` is generated from here
//! (`erpc-benchmark manifest`) and a test keeps the file in step — and
//! the arithmetic that turns a run's raw outcome into those metrics.

use std::hint::black_box;
use std::time::Instant;

use erpc_congestion::{Timely, TimelyConfig, TimingWheel};

use crate::stats::Summary;
use crate::trace::SpanName;
use crate::workloads::{Outcome, WORKLOADS};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the library sees. Every workload reports all of them.
/// One bound for all: the widest spread seen over ten seeds on the
/// defining host was 14 % (README, "Baseline"), and a bound may not
/// exceed a quarter.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "rate_krps",
        unit: "krps",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_gbps",
        unit: "Gb/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Single-layer metrics from the traced run; no bounds.
pub const PER_LAYER: [Layer; 25] = [
    layer("transport.tx_ns_per_pkt", "ns", "lower"),
    layer("transport.rx_ns_per_pkt", "ns", "lower"),
    layer("transport.pkts_per_tx_burst", "count", "higher"),
    layer("transport.empty_rx_share", "share", "lower"),
    layer("transport.syscalls_per_rpc", "count", "lower"),
    layer("transport.drops", "count", "lower"),
    layer("core.self_ns_per_rpc", "ns", "lower"),
    layer("core.issue_ns_per_rpc", "ns", "lower"),
    layer("core.respond_ns_per_rpc", "ns", "lower"),
    layer("core.fast_path_share", "share", "higher"),
    layer("core.pkts_per_rpc", "count", "lower"),
    layer("core.passes_per_rpc", "count", "lower"),
    layer("core.retx_per_krpc", "count", "lower"),
    layer("core.rto_events", "count", "lower"),
    layer("core.pool_miss_per_krpc", "count", "lower"),
    layer("core.invariant_breach", "count", "lower"),
    layer("core.allocs_per_rpc", "count", "lower"),
    layer("congestion.update_share", "share", "lower"),
    layer("congestion.paced_share", "share", "lower"),
    layer("congestion.timely_update_ns", "ns", "lower"),
    layer("congestion.wheel_op_ns", "ns", "lower"),
    layer("app.handler_ns_per_rpc", "ns", "lower"),
    layer("app.cont_ns_per_rpc", "ns", "lower"),
    layer("harness.other_ns_per_rpc", "ns", "lower"),
    layer("trace.overhead_share", "share", "lower"),
];

/// Measuring seconds the driver passes as `--seconds`: 1-second slices.
pub const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

/// One reported value: the median of its per-slice (or per-cycle)
/// values, with their spread beside it.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The end-to-end metrics of an untraced run, in table order.
pub fn end_to_end(o: &Outcome, setup: Summary) -> Vec<Value> {
    let summaries = [
        o.rate_krps,
        o.goodput_gbps,
        o.lat_p50_us,
        o.lat_p99_us,
        setup,
    ];
    END_TO_END
        .iter()
        .zip(summaries)
        .map(|(m, summary)| Value {
            name: m.name,
            unit: m.unit,
            summary,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Waterfall rows of a traced run, ns per RPC. Spans nest on one thread,
/// so the rows add up to the traced window (1 / traced rate per RPC).
pub fn waterfall(o: &Outcome) -> Vec<(&'static str, f64)> {
    let t = o.trace.as_ref().expect("waterfall of an untraced run");
    let rpcs = o.window_completed as f64;
    let row = |names: &[SpanName]| {
        ratio(
            names.iter().map(|&n| t.self_ns(n)).sum::<u64>() as f64,
            rpcs,
        )
    };
    vec![
        ("transport.tx", row(&[SpanName::TxBurst, SpanName::TxFlush])),
        (
            "transport.rx",
            row(&[SpanName::RxBurst, SpanName::RxRelease]),
        ),
        ("core.self", row(&[SpanName::EventLoop])),
        ("core.issue", row(&[SpanName::Issue])),
        ("core.respond", row(&[SpanName::Respond])),
        ("app.handler", row(&[SpanName::Handler])),
        ("app.cont", row(&[SpanName::Cont])),
        ("harness.other", row(&[SpanName::Harness])),
    ]
}

/// Direct call loops on the congestion layer's two hot operations.
pub struct CongestionMicro {
    pub timely_update_ns: f64,
    /// One `TimingWheel::insert` plus its share of a `reap`.
    pub wheel_op_ns: f64,
}

pub fn congestion_micro() -> CongestionMicro {
    const N: u64 = 1_000_000;
    let mut timely = Timely::new(TimelyConfig::default());
    let t0 = Instant::now();
    for i in 0..N {
        // RTTs sweeping 5–68 µs cross Timely's low threshold both ways.
        timely.update(black_box(5_000 + (i % 64) * 1_000), i * 1_000);
    }
    black_box(timely.rate_bps());
    let timely_update_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    let mut wheel = TimingWheel::<u64>::new(4096, 200, 0);
    let mut reaped = 0u64;
    let t0 = Instant::now();
    for i in 0..N {
        let now = i * 100;
        wheel.insert(black_box(now + 1_000 + (i % 16) * 200), i);
        if i % 16 == 15 {
            wheel.reap(now, |x| reaped += black_box(x) & 1);
        }
    }
    black_box(reaped);
    let wheel_op_ns = t0.elapsed().as_nanos() as f64 / N as f64;
    CongestionMicro {
        timely_update_ns,
        wheel_op_ns,
    }
}

/// The per-layer metrics of a traced run as (name, value, unit), in
/// table order. `untraced_krps` is the workload's rate with tracing off.
pub fn per_layer(
    o: &Outcome,
    untraced_krps: f64,
    micro: &CongestionMicro,
) -> Vec<(&'static str, f64, &'static str)> {
    let t = o
        .trace
        .as_ref()
        .expect("per-layer metrics of an untraced run");
    let c = &o.counters;
    let rpcs = o.window_completed as f64;
    let rows = waterfall(o);
    let row = |label: &str| {
        rows.iter()
            .find(|(l, _)| *l == label)
            .expect("waterfall row")
            .1
    };
    let values = [
        ratio(row("transport.tx") * rpcs, t.io.tx_pkts as f64),
        ratio(row("transport.rx") * rpcs, t.io.rx_pkts as f64),
        ratio(t.io.tx_pkts as f64, t.io.tx_bursts as f64),
        ratio(t.io.rx_empty as f64, t.io.rx_polls as f64),
        ratio(c.syscalls as f64, rpcs),
        c.drops as f64,
        row("core.self"),
        row("core.issue"),
        row("core.respond"),
        ratio(
            c.fast_path_hits as f64,
            (c.fast_path_hits + c.slow_path_entries) as f64,
        ),
        ratio(c.pkts_tx as f64, rpcs),
        ratio(o.passes as f64, rpcs),
        ratio(c.retransmissions as f64 * 1e3, rpcs),
        c.rto_events as f64,
        ratio(c.pool_misses as f64 * 1e3, rpcs),
        c.invariant_breaches as f64,
        ratio(o.allocs as f64, rpcs),
        ratio(
            c.timely_updates as f64,
            (c.timely_updates + c.timely_bypasses) as f64,
        ),
        ratio(c.pkts_paced as f64, (c.pkts_paced + c.pkts_unpaced) as f64),
        micro.timely_update_ns,
        micro.wheel_op_ns,
        row("app.handler"),
        row("app.cont"),
        row("harness.other"),
        1.0 - ratio(o.rate_krps.median, untraced_krps),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}

/// Do the waterfall rows add up to 1 / traced rate within 5 %?
pub fn waterfall_balances(o: &Outcome) -> bool {
    let sum: f64 = waterfall(o).iter().map(|(_, ns)| ns).sum();
    let per_rpc = ratio(o.window_s * 1e9, o.window_completed as f64);
    per_rpc > 0.0 && (sum / per_rpc - 1.0).abs() <= 0.05
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, unit: &str) {
        let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        assert!(
            name.len() <= 64 && name.chars().all(|c| ok(c, "_.-")),
            "{name}"
        );
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            unit.len() <= 16 && unit.chars().all(|c| ok(c, "_/%.-")),
            "{unit}"
        );
    }

    #[test]
    fn tables_meet_the_manifest_rules() {
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            well_formed(m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["higher", "lower"].contains(&m.better));
            names.push(m.name);
        }
        for m in &PER_LAYER {
            well_formed(m.name, m.unit);
            assert!(["higher", "lower"].contains(&m.better));
            names.push(m.name);
        }
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `erpc-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn congestion_micro_times_something() {
        let m = congestion_micro();
        assert!(m.timely_update_ns > 0.0 && m.wheel_op_ns > 0.0);
    }
}
