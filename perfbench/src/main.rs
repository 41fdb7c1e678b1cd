//! Runs one benchmark workload for a fixed wall-clock budget and prints
//! its metrics.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--spans-out PATH] [--rev REV] [--expect-fingerprint HEX]
//! ```
//!
//! Each iteration sets the workload up from scratch and runs it to its
//! last rendered report. Iterations repeat until `--seconds` have passed
//! (at least three; four when traced). `setup_s` is the median of all
//! set-ups; the other timings are those of the fastest iteration.
//! With `--trace 0` the last stdout line holds the end-to-end metrics;
//! with `--trace 1` traced and untraced iterations alternate and it holds
//! the per-layer metrics, the untraced ones giving the tracing overhead.
//! Human-readable lines (host facts, every metric by name and unit, the
//! output fingerprint) come first.

use sonet_core::{CaptureConfig, FleetRunConfig};
use sonet_netsim::FidelityMode;
use sonet_perfbench::trace::{self, Tracer};
use sonet_perfbench::{capture_run, capture_setup, fleet_run, fleet_setup};
use sonet_util::SimDuration;
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated trace length of the capture workloads.
const CAPTURE_MS: u64 = 500;
/// Fbflow samples per host of the fleet workload.
const FLEET_SAMPLES_PER_HOST: u32 = 1000;
/// Iterations a run makes however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// The same for a traced run, half of whose iterations are untraced.
const MIN_ITERATIONS_TRACED: usize = 4;
/// Set-ups per iteration; `setup_s` is the median over all of them.
const SETUP_REPEATS: usize = 20;
/// Share of `run_s` the top-level spans must cover in a traced run.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Clone, Copy)]
enum Kind {
    Capture(FidelityMode),
    Fleet,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    width: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "capture_packet",
        kind: Kind::Capture(FidelityMode::Packet),
        width: 1,
    },
    Workload {
        name: "capture_hybrid",
        kind: Kind::Capture(FidelityMode::Hybrid),
        width: 1,
    },
    Workload {
        name: "capture_packet_w2",
        kind: Kind::Capture(FidelityMode::Packet),
        width: 2,
    },
    Workload {
        name: "fleet_day",
        kind: Kind::Fleet,
        width: 1,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
    rev: String,
    expect_fingerprint: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        flags.insert(key, value);
    }
    let take = |key: &str| flags.get(key).copied();
    let name = take("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        take(key)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("--{key}: {e}"))
    };
    let seed = take("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let expect_fingerprint = take("expect-fingerprint")
        .map(|h| u64::from_str_radix(h, 16).map_err(|e| format!("--expect-fingerprint: {e}")))
        .transpose()?;
    for key in flags.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "spans-out",
            "rev",
            "expect-fingerprint",
        ]
        .contains(key)
        {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds: num("seconds", "10")?,
        trace: num("trace", "0")? != 0.0,
        spans_out: take("spans-out").map(str::to_owned),
        rev: take("rev").unwrap_or("unknown").to_owned(),
        expect_fingerprint,
    })
}

/// One iteration's measurements.
#[derive(Default)]
struct Iteration {
    traced: bool,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    /// Simulated RPCs completed (captures) or rows tagged (fleet).
    done: u64,
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    /// Why the iteration's output is wrong, if it is.
    wrong: Option<String>,
    /// Layer metrics from counters (spans are read later).
    counts: BTreeMap<&'static str, f64>,
}

/// Process CPU seconds (user + system, all threads, live and exited).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // utime and stime are fields 14 and 15 of the line, counted in the
    // kernel's fixed 100 Hz user ticks.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sets the workload up `SETUP_REPEATS` times and keeps the last set-up;
/// only that one is traced. Returns it with the median set-up time.
fn timed_setups<S>(
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let traced = tr.on();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        tr.set_on(traced && i + 1 == SETUP_REPEATS);
        let t0 = Instant::now();
        let span = tr.open("setup");
        let setup = build(tr)?;
        tr.close(span);
        times.push(t0.elapsed().as_secs_f64());
        // The previous set-up is dropped here, outside the timed region.
        last = Some(setup);
    }
    tr.set_on(traced);
    Ok((last.expect("at least one set-up"), median(times)))
}

/// Runs `f` inside the root `run` span and times it.
fn timed_run<R>(
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> Result<R, String>,
) -> Result<(R, f64), String> {
    let t0 = Instant::now();
    let span = tr.open("run");
    let out = f(tr)?;
    tr.close(span);
    Ok((out, t0.elapsed().as_secs_f64()))
}

fn run_iteration(args: &Args, tr: &mut Tracer) -> Result<Iteration, String> {
    let w = args.workload;
    let mut it = Iteration {
        traced: tr.on(),
        ..Iteration::default()
    };
    let cpu0 = cpu_seconds();
    match w.kind {
        Kind::Capture(fidelity) => {
            let mut cfg = CaptureConfig::standard(args.seed).with_fidelity(fidelity);
            cfg.duration = SimDuration::from_millis(CAPTURE_MS);
            let (setup, setup_s) = timed_setups(tr, |tr| capture_setup(&cfg, w.width, tr))?;
            let (out, run_s) = timed_run(tr, |tr| capture_run(&cfg, setup, w.width, tr))?;
            it.cpu_s = cpu_seconds() - cpu0;
            it.setup_s = setup_s;
            it.run_s = run_s;

            let o = &out.capture.outputs;
            let c = &out.counters;
            let p = &c.parallel;
            it.done = o.completed_requests;
            it.attempted = c.issued_calls;
            it.failed = out.failed_calls();
            it.fingerprint = out.fingerprint();
            if let Err(e) = &out.audit {
                it.wrong = Some(format!("audit failed: {e}"));
            }
            let flows = (o.flows_fast + o.flows_packet) as f64;
            for (k, v) in [
                ("workload.calls", c.issued_calls as f64),
                ("engine.events", c.events as f64),
                ("engine.barriers", p.barriers as f64),
                (
                    "engine.events_per_barrier",
                    ratio(c.events as f64, p.barriers as f64),
                ),
                ("engine.pool_busy_s", p.busy_ns as f64 / 1e9),
                ("engine.pool_idle_s", p.idle_ns as f64 / 1e9),
                ("engine.pool_wall_s", p.wall_ns as f64 / 1e9),
                ("engine.steals", p.steals as f64),
                (
                    "engine.critical_path_share",
                    ratio(p.bottleneck_events as f64, p.events as f64),
                ),
                ("engine.calendar_peak", c.calendar_peak as f64),
                ("fidelity.flows_fast", o.flows_fast as f64),
                ("fidelity.flows_packet", o.flows_packet as f64),
                ("fidelity.fast_share", ratio(o.flows_fast as f64, flows)),
                ("fidelity.demotions", o.fast_path_demotions as f64),
                (
                    "fidelity.events_per_rpc",
                    ratio(c.events as f64, o.completed_requests as f64),
                ),
                ("tap.mirror_records", c.mirror_records as f64),
                ("checkpoint.bytes", c.checkpoint_bytes as f64),
                ("sim.rpcs_completed", o.completed_requests as f64),
                ("sim.delivered_packets", o.delivered_packets as f64),
            ] {
                it.counts.insert(k, v);
            }
        }
        Kind::Fleet => {
            let mut cfg = FleetRunConfig::standard(args.seed);
            cfg.samples_per_host = FLEET_SAMPLES_PER_HOST;
            let (setup, setup_s) = timed_setups(tr, |tr| fleet_setup(&cfg, w.width, tr))?;
            let (out, run_s) = timed_run(tr, |tr| fleet_run(setup, w.width, tr))?;
            it.cpu_s = cpu_seconds() - cpu0;
            it.setup_s = setup_s;
            it.run_s = run_s;

            let rows = out.data.table.len() as u64;
            it.done = rows;
            it.attempted = out.generated;
            it.failed = out.generated - rows;
            it.fingerprint = out.fingerprint();
            it.counts.insert("fleet.rows", rows as f64);
        }
    }
    if it.done == 0 {
        it.wrong = Some("the workload completed nothing".into());
    }
    Ok(it)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Span name whose summed self time gives each per-layer time metric.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("topology.build_s", "topology.build"),
    ("workload.generate_s", "workload.generate"),
    ("fleet.generate_s", "fleet.generate"),
    ("engine.run_s", "engine.run_until"),
    ("engine.finish_s", "engine.finish"),
    ("telemetry.tag_s", "telemetry.tag"),
    ("checkpoint.s", "checkpoint"),
    ("analysis.traces_s", "analysis.traces"),
    ("analysis.capture_reports_s", "analysis.capture_reports"),
    ("analysis.table3_s", "analysis.table3"),
    ("analysis.fig5_s", "analysis.fig5"),
];

/// Per-layer metrics of traced iteration `run`, from its spans and
/// counters. Metrics of layers the workload never enters read 0.
fn layer_metrics(
    spans: &[trace::Span],
    selfs: &[u64],
    run: u32,
    it: &Iteration,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in LAYER_SPANS {
        m.insert(metric, trace::self_seconds_by_name(spans, selfs, run, span));
    }
    m.insert(
        "render.s",
        trace::self_seconds_by_name(spans, selfs, run, "render"),
    );
    for k in [
        "workload.calls",
        "fleet.rows",
        "engine.events",
        "engine.barriers",
        "engine.events_per_barrier",
        "engine.pool_busy_s",
        "engine.pool_idle_s",
        "engine.steals",
        "engine.critical_path_share",
        "engine.calendar_peak",
        "fidelity.flows_fast",
        "fidelity.flows_packet",
        "fidelity.fast_share",
        "fidelity.demotions",
        "fidelity.events_per_rpc",
        "tap.mirror_records",
        "checkpoint.bytes",
        "sim.rpcs_completed",
        "sim.delivered_packets",
    ] {
        m.insert(k, it.counts.get(k).copied().unwrap_or(0.0));
    }
    let engine_ns = m["engine.run_s"] * 1e9;
    let draining_ns = it.counts.get("engine.pool_wall_s").copied().unwrap_or(0.0) * 1e9;
    m.insert(
        "workload.ns_per_call",
        ratio(m["workload.generate_s"] * 1e9, m["workload.calls"]),
    );
    m.insert("engine.ns_per_event", ratio(engine_ns, m["engine.events"]));
    m.insert(
        "engine.ns_per_barrier",
        ratio((engine_ns - draining_ns).max(0.0), m["engine.barriers"]),
    );
    // The root `run` span's self time is wall time no layer span covers.
    let (run_ns, unattributed) = spans
        .iter()
        .zip(selfs)
        .find(|(s, _)| s.run == run && s.name == "run" && s.parent.is_none())
        .map_or((0.0, 0.0), |(s, &ns)| (s.duration_ns() as f64, ns as f64));
    m.insert(
        "trace.coverage_pct",
        100.0 * ratio(run_ns - unattributed, run_ns),
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    // The process-wide worker default, as `sonet capture --threads N` sets
    // it: the engine width and every fan-out (traces, tagging, reports).
    sonet_util::par::set_threads(w.width);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} width={} rev={} seed={} workload={} trace={}",
        w.width,
        args.rev,
        args.seed,
        w.name,
        u8::from(args.trace)
    );

    let mut tr = Tracer::new(false);
    let mut iters: Vec<Iteration> = Vec::new();
    let start = Instant::now();
    let min_iters = if args.trace {
        MIN_ITERATIONS_TRACED
    } else {
        MIN_ITERATIONS
    };
    while iters.len() < min_iters || start.elapsed().as_secs_f64() < args.seconds {
        // In a traced run, untraced and traced iterations alternate so
        // both see the same machine state.
        tr.set_on(args.trace && iters.len() % 2 == 1);
        tr.set_run(iters.len() as u32);
        match run_iteration(&args, &mut tr) {
            Ok(it) => {
                println!(
                    "iteration {} traced={} setup_s={:.6} run_s={:.6} cpu_s={:.2}",
                    iters.len(),
                    u8::from(it.traced),
                    it.setup_s,
                    it.run_s,
                    it.cpu_s
                );
                iters.push(it);
            }
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", w.name);
                std::process::exit(1);
            }
        }
    }
    let peak_rss = peak_rss_mb();

    // Correctness: every iteration's own checks, one fingerprint for the
    // whole run (same seed, same bytes), and the counterpart's fingerprint
    // when the caller knows it.
    let fp = iters[0].fingerprint;
    let mut wrong: Vec<String> = iters.iter().filter_map(|i| i.wrong.clone()).collect();
    if iters.iter().any(|i| i.fingerprint != fp) {
        wrong.push("iterations of one seed produced different outputs".into());
    }
    if let Some(expect) = args.expect_fingerprint {
        if expect != fp {
            wrong.push(format!(
                "fingerprint {fp:016x} differs from expected {expect:016x}"
            ));
        }
    }

    let untraced: Vec<&Iteration> = iters.iter().filter(|i| !i.traced).collect();
    // Timings are those of the fastest untraced iteration. Shared 2-vCPU
    // VMs slow down in phases of tens of seconds (every iteration up to 40%
    // slower, then back), so the best iteration of a run is what repeats
    // from run to run: over ten seeds it spread less than the median
    // iteration on every workload (0.038 against 0.232 on capture_hybrid).
    // Set-up keeps the median of its many repeats.
    let fastest = |f: fn(&Iteration) -> f64, set: &[&Iteration]| {
        set.iter().map(|i| f(i)).fold(f64::INFINITY, f64::min)
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    // `work_per_s` is the throughput under one name for all workloads:
    // simulated RPCs completed per second on the captures, tagged rows per
    // second on the fleet day.
    let work_name = match w.kind {
        Kind::Capture(_) => "rpcs_per_s",
        Kind::Fleet => "rows_per_s",
    };
    let end_to_end = [
        (
            "setup_s",
            median(untraced.iter().map(|i| i.setup_s).collect()),
            "s",
        ),
        ("run_s", fastest(|i| i.run_s, &untraced), "s"),
        (
            "work_per_s",
            1.0 / fastest(|i| ratio(i.run_s, i.done as f64), &untraced),
            "1/s",
        ),
        ("cpu_s", fastest(|i| i.cpu_s, &untraced), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    let attempted: u64 = iters.iter().map(|i| i.attempted).sum();
    let mut failed: u64 = iters.iter().map(|i| i.failed).sum();
    if args.trace {
        let spans = tr.spans();
        let selfs = trace::self_times(spans);
        let traced: Vec<(u32, &Iteration)> = iters
            .iter()
            .enumerate()
            .filter(|(_, i)| i.traced)
            .map(|(r, i)| (r as u32, i))
            .collect();
        let per_run: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .map(|&(r, i)| layer_metrics(spans, &selfs, r, i))
            .collect();
        let traced_run = traced
            .iter()
            .map(|(_, i)| i.run_s)
            .fold(f64::INFINITY, f64::min);
        let untraced_run = end_to_end[1].1;
        for key in per_run[0].keys() {
            let unit = per_layer_unit(key);
            metrics.push((key, median(per_run.iter().map(|m| m[key]).collect()), unit));
        }
        metrics.push((
            "trace.overhead_pct",
            100.0 * (ratio(traced_run, untraced_run) - 1.0),
            "%",
        ));
        let coverage = per_run
            .iter()
            .map(|m| m["trace.coverage_pct"])
            .fold(f64::INFINITY, f64::min);
        if coverage < 100.0 * MIN_COVERAGE {
            wrong.push(format!("layer spans cover only {coverage:.2}% of run_s"));
        }
        if let Some(path) = &args.spans_out {
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"width\":{},\"nproc\":{nproc},\"rev\":\"{}\"}}\n",
                w.name, args.seed, w.width, args.rev
            );
            if let Err(e) = std::fs::write(path, header + &trace::to_jsonl(spans)) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
            }
        }
    } else {
        metrics.extend(end_to_end);
    }

    let correct = wrong.is_empty();
    if !correct {
        failed = attempted;
    }
    for reason in &wrong {
        println!("check failed: {reason}");
    }
    println!(
        "iterations={} (traced {}) fingerprint={fp:016x} correct={correct}",
        iters.len(),
        iters.len() - untraced.len()
    );
    println!("{:<28} {:>16} unit", "metric", "value");
    if !args.trace {
        println!("{work_name:<28} {:>16.6} 1/s", end_to_end[2].1);
        let run_median = median(untraced.iter().map(|i| i.run_s).collect());
        println!("{:<28} {run_median:>16.6} s", "run_s_median");
    }
    println!(
        "{:<28} {:>16.6} share",
        "failed_share",
        ratio(failed as f64, attempted as f64)
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn per_layer_unit(key: &str) -> &'static str {
    match key {
        k if k.ends_with("_pct") => "%",
        k if k.contains(".ns_per_") => "ns",
        k if k.ends_with("_s") || k.ends_with(".s") => "s",
        "checkpoint.bytes" => "bytes",
        k if k.ends_with("_share") => "share",
        k if k.ends_with("_per_barrier") || k.ends_with("_per_rpc") => "ratio",
        _ => "count",
    }
}
