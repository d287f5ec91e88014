//! The repo benchmark: five single-core RPC workloads, their end-to-end
//! metrics, and a per-layer trace taken at the `Transport` seam. See
//! `README.md` for what each workload and metric is for.

mod arrivals;
mod host;
mod hostspeed;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use erpc::alloc_count::CountingAlloc;

use metrics::{CongestionMicro, Value, END_TO_END};
use stats::Summary;
use workloads::{Arrivals, Outcome, RunOpts, Spec, WORKLOADS};

// Counts every heap allocation of the process; `core.allocs_per_rpc` is
// its delta over the measured window.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: erpc-benchmark [run] [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                      [--trace-out PREFIX] [--quick]
       erpc-benchmark repeat [--sets N] [--seed N] [--seconds N] [--quick]
       erpc-benchmark manifest

run       every workload (or one), untraced then traced; --trace 0 / 1 runs only
          the end-to-end or only the per-layer part. The last line of each part is
          one JSON object; the exit code is non-zero if any output was wrong.
repeat    N full untraced sets (default 2, every other set in reverse workload
          order) and, per metric and workload, whether they agree within its bound.
manifest  print BENCHMARK.json.
--seconds length of the measured window of each run (default 12).
--quick   0.4 s windows, under 10 s in all; numbers are for smoke use only.
--trace-out PREFIX  write the traced spans to PREFIX.<workload>.csv.";

#[derive(PartialEq)]
enum Cmd {
    Run,
    Repeat,
    Manifest,
}

struct Args {
    cmd: Cmd,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: usize,
    trace: Option<bool>,
    trace_out: Option<String>,
    quick: bool,
    sets: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        cmd: Cmd::Run,
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as usize,
        trace: None,
        trace_out: None,
        quick: false,
        sets: 2,
    };
    let mut first = true;
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" if first => a.cmd = Cmd::Run,
            "repeat" if first => a.cmd = Cmd::Repeat,
            "manifest" if first => a.cmd = Cmd::Manifest,
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(workloads::find(&name).ok_or(format!(
                    "unknown workload {name}; one of: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--sets" => {
                a.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if a.sets < 2 {
                    return Err("--sets must be at least 2".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--trace-out" => a.trace_out = Some(value("a path prefix")?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        first = false;
    }
    Ok(a)
}

/// How one invocation splits its time, in seconds.
struct Plan {
    warmup_s: f64,
    /// The untraced, end-to-end run.
    e2e_s: f64,
    /// The untraced reference run a traced-only invocation makes for
    /// `trace.overhead_share`.
    reference_s: f64,
    traced_s: f64,
    setup_cycles: usize,
}

/// Build → connect → teardown rounds behind `setup_s`. A round takes a
/// fraction of a millisecond, so its timing is noisy; many rounds cost
/// little and steady the median.
const SETUP_CYCLES: usize = 101;

fn plan(args: &Args) -> Plan {
    if args.quick {
        return Plan {
            warmup_s: 0.15,
            e2e_s: 0.4,
            reference_s: 0.4,
            traced_s: 0.4,
            setup_cycles: 5,
        };
    }
    let seconds = args.seconds as f64;
    let third = (seconds / 3.0).max(1.0);
    Plan {
        warmup_s: 2.0,
        e2e_s: seconds,
        reference_s: third,
        traced_s: match args.trace {
            Some(true) => (seconds - third).max(1.0),
            _ => third,
        },
        setup_cycles: SETUP_CYCLES,
    }
}

fn opts(args: &Args, plan: &Plan, measure_s: f64) -> RunOpts {
    RunOpts {
        seed: args.seed,
        warmup_s: plan.warmup_s,
        measure_s,
    }
}

// ── Printing ───────────────────────────────────────────────────────────

fn print_counts(o: &Outcome) {
    println!(
        "  attempted {}  completed {}  failed {} (errored {}, wrong {}, undrained {})  handled {}  fail_share {}",
        o.attempted,
        o.completed,
        o.failed(),
        o.errored,
        o.wrong,
        o.undrained,
        o.handled,
        o.failed() as f64 / o.attempted.max(1) as f64,
    );
    if !o.correct() {
        println!(
            "  INCORRECT: see the counts above; core.invariant_breach {}",
            o.counters.invariant_breaches
        );
    }
}

/// The last line of a part: the result object the driver reads.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

struct EndToEndPart {
    values: Vec<Value>,
    outcome: Outcome,
}

/// Set-up cycles, then one untraced run; prints the end-to-end block.
fn end_to_end_part(spec: &Spec, args: &Args, plan: &Plan) -> EndToEndPart {
    let (setup, setup_speed) = workloads::setup_seconds(spec, args.seed, plan.setup_cycles);
    let setup = Summary::of(&setup);
    let o = workloads::run(spec, &opts(args, plan, plan.e2e_s), false);
    println!(
        "== {}  seed {}  end to end (tracing off)  {} s in {} ms slices ==",
        spec.name, args.seed, plan.e2e_s, spec.slice_ms
    );
    let values = metrics::end_to_end(&o, setup);
    for v in &values {
        println!(
            "  {:<14} {:>14.4} {:<5} iqr {:>5.2} %  n {}",
            v.name,
            v.summary.median,
            v.unit,
            v.summary.spread() * 100.0,
            v.summary.n
        );
    }
    let scaled: Vec<&str> = [
        (true, "setup_s"),
        (spec.scaled.rate, "rate_krps, goodput_gbps"),
        (spec.scaled.p50, "lat_p50_us"),
        (spec.scaled.p99, "lat_p99_us"),
    ]
    .iter()
    .filter_map(|&(on, name)| on.then_some(name))
    .collect();
    println!(
        "  host_speed     {:.4} of reference, iqr {:.2} % ({:.4} during set-up); scaled to speed 1: {}; unscaled rate {:.4} krps",
        o.host_speed.median,
        o.host_speed.spread() * 100.0,
        setup_speed,
        scaled.join(", "),
        o.raw_rate_krps
    );
    println!(
        "  disturbed      {} of {} slices (rate under 0.8x or p99 over 5x the median slice's)",
        o.disturbed_slices, o.rate_krps.n
    );
    match o.tail {
        Some((p, us, n)) => {
            println!("  lat_tail       p{p} = {us:.3} us over {n} samples (not gated)")
        }
        None => println!("  lat_tail       too few samples for any percentile"),
    }
    if o.min_slice_samples < 1000 || o.lat_dropped > 0 {
        println!(
            "  note: fewest latency samples in a slice {} (p99 wants 1000); samples over the cap dropped {}",
            o.min_slice_samples, o.lat_dropped
        );
    }
    if let (Some(l), Arrivals::Poisson { per_s }) = (o.late, spec.arrivals) {
        println!(
            "  generator      {per_s} /s offered; issued late by mean {:.3} us, max {:.3} us",
            l.sum_ns as f64 / l.issued.max(1) as f64 / 1e3,
            l.max_ns as f64 / 1e3
        );
    }
    print_counts(&o);
    let metrics: Vec<_> = values
        .iter()
        .map(|v| (v.name, v.summary.median, v.unit))
        .collect();
    print_result(o.correct(), o.attempted, o.failed(), &metrics);
    EndToEndPart { values, outcome: o }
}

fn write_spans(prefix: &str, workload: &str, report: &trace::Report) -> std::io::Result<()> {
    let path = format!("{prefix}.{workload}.csv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "name,start_ns,end_ns,parent,req")?;
    for s in &report.spans {
        let parent = if s.parent == trace::NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "{},{},{},{parent},{}",
            s.name.label(),
            s.start_ns,
            s.end_ns,
            s.req
        )?;
    }
    f.flush()?;
    println!(
        "  spans          {} written to {path} ({} more not kept)",
        report.spans.len(),
        report.spans_dropped
    );
    Ok(())
}

/// One traced run (after an untraced reference run unless the caller
/// already has the untraced rate); prints the waterfall and the layer
/// metrics. Returns whether everything checked out.
fn per_layer_part(
    spec: &Spec,
    args: &Args,
    plan: &Plan,
    untraced: Option<&Outcome>,
    micro: &CongestionMicro,
) -> bool {
    let reference;
    let untraced = match untraced {
        Some(o) => o,
        None => {
            reference = workloads::run(spec, &opts(args, plan, plan.reference_s), false);
            &reference
        }
    };
    let o = workloads::run(spec, &opts(args, plan, plan.traced_s), true);
    println!(
        "== {}  seed {}  per layer (tracing on)  {} s ==",
        spec.name, args.seed, plan.traced_s
    );
    let per_rpc = o.window_s * 1e9 / o.window_completed.max(1) as f64;
    println!(
        "  waterfall, ns per RPC (1 / traced rate = {per_rpc:.1} ns; each span carries about {:.0} ns of tracing):",
        trace::span_cost_ns()
    );
    let rows = metrics::waterfall(&o);
    for (label, ns) in &rows {
        println!(
            "    {label:<16} {ns:>12.1}  {:>5.1} %",
            ns / per_rpc * 100.0
        );
    }
    let balanced = metrics::waterfall_balances(&o);
    println!(
        "    {:<16} {:>12.1}  {}",
        "sum",
        rows.iter().map(|(_, ns)| ns).sum::<f64>(),
        if balanced {
            "within 5 % of 1 / traced rate"
        } else {
            "DOES NOT BALANCE"
        }
    );
    let layers = metrics::per_layer(&o, untraced.rate_krps.median, micro);
    for (name, value, unit) in &layers {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    println!(
        "  rate           traced {:.3} krps, untraced {:.3} krps (both at reference host speed; this run's was {:.4}, the rows above are unscaled)",
        o.rate_krps.median, untraced.rate_krps.median, o.host_speed.median
    );
    print_counts(&o);
    let mut correct = o.correct() && untraced.correct() && balanced;
    if let (Some(prefix), Some(report)) = (&args.trace_out, &o.trace) {
        if let Err(e) = write_spans(prefix, spec.name, report) {
            println!("  INCORRECT: could not write spans: {e}");
            correct = false;
        }
    }
    print_result(correct, o.attempted, o.failed(), &layers);
    correct
}

// ── Commands ───────────────────────────────────────────────────────────

fn run(args: &Args) -> bool {
    let plan = plan(args);
    println!("host: {}", host::record());
    let micro = (args.trace != Some(false)).then(metrics::congestion_micro);
    let all: Vec<&Spec> = WORKLOADS.iter().collect();
    let chosen = args.workload.map_or(all, |w| vec![w]);
    let mut correct = true;
    for spec in chosen {
        let e2e = (args.trace != Some(true)).then(|| end_to_end_part(spec, args, &plan));
        if let Some(part) = &e2e {
            correct &= part.outcome.correct();
        }
        if let Some(micro) = &micro {
            let untraced = e2e.as_ref().map(|p| &p.outcome);
            correct &= per_layer_part(spec, args, &plan, untraced, micro);
        }
    }
    correct
}

/// `sets` full untraced sets, then per metric and workload: each set's
/// median, their relative difference (max − min over their median), the
/// widest slice IQR, and whether the difference is within the bound.
fn repeat(args: &Args) -> bool {
    let plan = plan(args);
    println!("host: {}", host::record());
    let mut correct = true;
    // sets[set][workload] in table order, whatever order they ran in.
    let mut sets: Vec<Vec<EndToEndPart>> = Vec::new();
    for set in 0..args.sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        println!("── set {} of {} ──", set + 1, args.sets);
        let mut parts: Vec<(usize, EndToEndPart)> = order
            .into_iter()
            .map(|w| (w, end_to_end_part(&WORKLOADS[w], args, &plan)))
            .collect();
        correct &= parts.iter().all(|(_, p)| p.outcome.correct());
        parts.sort_by_key(|&(w, _)| w);
        sets.push(parts.into_iter().map(|(_, p)| p).collect());
    }
    println!("── agreement across {} sets ──", args.sets);
    println!(
        "{:<18} {:<14} {:>12} {:>9} {:>9} {:>7}  verdict{}",
        "workload",
        "metric",
        "median",
        "diff %",
        "iqr %",
        "bound %",
        if args.quick {
            " (quick: not gated)"
        } else {
            ""
        }
    );
    let mut agree = true;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let summaries: Vec<Summary> = sets.iter().map(|s| s[w].values[m].summary).collect();
            let medians: Vec<f64> = summaries.iter().map(|s| s.median).collect();
            let mid = Summary::of(&medians).median;
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let diff = if mid == 0.0 { 0.0 } else { (hi - lo) / mid };
            let iqr = summaries.iter().map(Summary::spread).fold(0.0, f64::max);
            let within = diff <= metric.bound;
            agree &= within;
            println!(
                "{:<18} {:<14} {:>12.4} {:>9.2} {:>9.2} {:>7.1}  {}",
                spec.name,
                metric.name,
                mid,
                diff * 100.0,
                iqr * 100.0,
                metric.bound * 100.0,
                if within { "pass" } else { "FAIL" }
            );
        }
    }
    correct && (agree || args.quick)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.cmd {
        Cmd::Manifest => {
            print!("{}", metrics::manifest_json());
            true
        }
        Cmd::Run => run(&args),
        Cmd::Repeat => repeat(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
