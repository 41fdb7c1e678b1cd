//! `sonet` — command-line front end for the sonet-dc reproduction.
//!
//! ```text
//! sonet list                         list experiment ids
//! sonet run <id> [--seed N] [--fast] regenerate one table/figure
//! sonet all [--seed N] [--fast]      regenerate everything (panic-isolated,
//!                                    experiments fan over the worker pool)
//! sonet capture [opts]               supervised packet-tier capture
//! sonet fleet [opts]                 supervised fleet-tier run
//! sonet chaos [opts]                 deterministic fault-injection campaign:
//!                                    profiles × seeds, recovery SLOs, and
//!                                    automatic fault-plan shrinking; or
//!                                    --replay FILE to re-run a shrunk repro
//! sonet top <run-dir>                live dashboard tailing TIMELINE.jsonl
//! sonet diff <a> <b>                 regression table between two runs
//! sonet export-fleet <out.jsonl>     dump a fleet-tier Fbflow day
//! sonet export-matrix <out.csv>      dump the Fig 5 frontend rack matrix
//! ```
//!
//! Every command also takes `--obs[=off|summary|deep]` (flight-recorder
//! level; bare `--obs` means `summary`), `--obs-interval MS` (sim time
//! between streaming timeline snapshots; deep mode defaults to one per
//! simulated second), and `--trace-out FILE` (Chrome `trace_event` JSON
//! for Perfetto). Observability is strictly a side channel: no output
//! byte of any run changes with it off, on, or deep.
//!
//! All run commands take `--threads N` (default: available parallelism).
//! The worker count never changes any output byte — only wall-clock.
//! For `capture` the flag also sets the engine's worker width: each
//! datacenter of the plant runs its own event calendar, synchronized at
//! conservative lookahead barriers (see DESIGN.md §10), so a multi-DC
//! capture uses up to one worker per datacenter.
//!
//! Supervised runs (`capture`, `fleet`) checkpoint to `--checkpoint DIR`
//! at regular intervals, audit engine invariants at every checkpoint
//! boundary (in debug builds or with the `audit` feature), stop cleanly
//! when a `--max-*` budget trips (exit code 2, resumable), and pick up
//! from a prior checkpoint with `--resume FILE` — producing final results
//! byte-identical to an uninterrupted run.

use sonet_dc::core::chaos::{replay_repro, run_campaign, CampaignConfig, ChaosProfile, ReproFile};
use sonet_dc::core::reports::{self, Fig15Config};
use sonet_dc::core::supervised::{
    resume_capture, resume_fleet, run_capture, run_fleet, RunStatus, SuperviseOptions,
};
use sonet_dc::core::supervisor::{isolate, BatchSummary, RunBudget, RunSupervisor};
use sonet_dc::core::{CaptureConfig, FleetData, FleetRunConfig, LabConfig, StandardCapture};
use sonet_dc::netsim::FidelityMode;
use sonet_dc::util::obs::{self, report};
use sonet_dc::util::{par, SimDuration};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table2", "outbound traffic mix per host type (§3.2)"),
    ("table3", "traffic locality by cluster type (§4.3)"),
    ("table4", "heavy hitters in 1-ms intervals (§5.3)"),
    ("fig4", "per-second traffic locality (§4.2)"),
    ("fig5", "rack/cluster demand matrices (§4.3)"),
    ("fig6", "flow size CDFs by locality (§5.1)"),
    ("fig7", "flow duration CDFs by locality (§5.1)"),
    ("fig8", "per-destination-rack rate stability (§5.2)"),
    ("fig9", "cache-follower per-host flow sizes (§5.1)"),
    ("fig10", "heavy-hitter persistence (§5.3)"),
    ("fig11", "heavy hitters vs enclosing second (§5.3)"),
    ("fig12", "packet size distributions (§6.1)"),
    ("fig13", "Hadoop arrivals are not on/off (§6.2)"),
    ("fig14", "flow (SYN) inter-arrival (§6.2)"),
    ("fig15", "buffer occupancy / utilization / drops (§6.3)"),
    ("fig16", "concurrent racks per 5 ms (§6.4)"),
    ("fig17", "concurrent heavy-hitter racks per 5 ms (§6.4)"),
    ("util", "link utilization by fabric layer (§4.1)"),
    ("te", "traffic-engineering predictability (§5.4)"),
];

/// Exit code for a budget-stopped (resumable) supervised run.
const EXIT_STOPPED: u8 = 2;

struct Options {
    seed: u64,
    fast: bool,
    /// `--threads N`: worker threads for parallel stages. `None` defers
    /// to available parallelism. Never changes any output, only speed.
    threads: Option<usize>,
    /// `--fidelity packet|hybrid`: packet-level DES everywhere (default)
    /// or the flow-level fast path outside fidelity islands.
    fidelity: FidelityMode,
}

/// Supervision flags shared by `capture` and `fleet`.
struct SuperviseFlags {
    checkpoint_dir: PathBuf,
    every_ms: Option<u64>,
    resume: Option<PathBuf>,
    budget: RunBudget,
    audit: Option<bool>,
    chunk_hosts: Option<u32>,
}

fn parse_common(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 42,
        fast: false,
        threads: None,
        fidelity: FidelityMode::Packet,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--fast" => opts.fast = true,
            "--threads" => {
                opts.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--fidelity" => match it.next().map(String::as_str).and_then(FidelityMode::parse) {
                Some(m) => opts.fidelity = m,
                None => report::warn("--fidelity takes packet|hybrid; staying on packet"),
            },
            other => {
                if let Some(v) = other.strip_prefix("--fidelity=") {
                    match FidelityMode::parse(v) {
                        Some(m) => opts.fidelity = m,
                        None => report::warn(&format!(
                            "--fidelity takes packet|hybrid, not '{v}'; staying on packet"
                        )),
                    }
                }
            }
        }
    }
    // Make the explicit count the process-wide default so analysis
    // stages that fan out internally see the same setting.
    if let Some(n) = opts.threads {
        par::set_threads(n);
    }
    Ok(opts)
}

/// Flight-recorder flags, valid on every subcommand.
struct ObsFlags {
    mode: obs::ObsMode,
    trace_out: Option<PathBuf>,
    /// `--obs-interval MS`: sim time between timeline window snapshots.
    /// `None` defers to the mode default (1 sim-second at deep, none
    /// otherwise).
    interval_ms: Option<u64>,
}

/// Parses `--obs[=off|summary|deep]` (bare `--obs` means `summary`),
/// `--obs-interval MS`, and `--trace-out PATH` from anywhere on the
/// command line, so the flight recorder covers every subcommand
/// uniformly.
fn parse_obs(args: &[String]) -> Result<ObsFlags, String> {
    let mut flags = ObsFlags {
        mode: obs::ObsMode::Off,
        trace_out: None,
        interval_ms: None,
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--obs" {
            // The value is optional: consume the next token only when it
            // names a mode, so `--obs --threads 4` still parses.
            match args
                .get(i + 1)
                .map(String::as_str)
                .and_then(obs::ObsMode::parse)
            {
                Some(m) => {
                    flags.mode = m;
                    i += 1;
                }
                None => flags.mode = obs::ObsMode::Summary,
            }
        } else if let Some(v) = a.strip_prefix("--obs=") {
            flags.mode = obs::ObsMode::parse(v)
                .ok_or_else(|| format!("--obs takes off|summary|deep, not '{v}'"))?;
        } else if a == "--obs-interval" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--obs-interval needs sim milliseconds".to_owned())?;
            flags.interval_ms = Some(v.parse().map_err(|e| format!("--obs-interval: {e}"))?);
            i += 1;
        } else if let Some(v) = a.strip_prefix("--obs-interval=") {
            flags.interval_ms = Some(v.parse().map_err(|e| format!("--obs-interval: {e}"))?);
        } else if a == "--trace-out" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--trace-out needs a path".to_owned())?;
            flags.trace_out = Some(PathBuf::from(v));
            i += 1;
        }
        i += 1;
    }
    Ok(flags)
}

/// Exports the span trace at process exit when `--trace-out` was given.
fn finish_obs(flags: &ObsFlags) {
    let Some(path) = &flags.trace_out else { return };
    if !obs::on() {
        report::warn("--trace-out set but --obs is off; writing an empty trace");
    }
    match obs::trace::export_chrome(path) {
        Ok(n) => report::line(&format!("wrote {n} trace events to {}", path.display())),
        Err(e) => report::warn(&format!("trace export to {} failed: {e}", path.display())),
    }
}

/// Starts a `RUNINFO.json` manifest for the unsupervised commands when
/// observability is on. Supervised runs (`capture`, `fleet`) write theirs
/// next to their checkpoints instead.
fn cli_runinfo(command: &str, opts: &Options) -> Option<obs::runinfo::RunInfo> {
    obs::on().then(|| {
        obs::runinfo::RunInfo::start(
            command,
            opts.seed,
            &format!(
                "{{\"seed\":{},\"fast\":{},\"fidelity\":\"{}\"}}",
                opts.seed,
                opts.fast,
                opts.fidelity.name()
            ),
            par::resolve_threads(opts.threads),
        )
    })
}

/// Installs a `./TIMELINE.jsonl` writer for the unsupervised commands
/// (`run`, `all`). Supervised runs and chaos campaigns install theirs
/// next to their checkpoints / campaign output instead.
fn cli_timeline() {
    if obs::on() && !obs::timeline::installed() {
        let path = std::path::Path::new(obs::timeline::TIMELINE);
        if let Err(e) = obs::timeline::install(path) {
            report::warn(&format!("timeline install failed: {e}"));
        }
    }
}

/// Finalizes and writes `./RUNINFO.json` (no-op with observability off).
/// Cuts the timeline's final record first — with no metric writes in
/// between, so timeline deltas sum to the manifest finals. (The sim
/// instant 0 is bumped past the last record automatically; drivers that
/// finished their own timeline already make this a no-op.)
fn finish_cli_runinfo(runinfo: Option<obs::runinfo::RunInfo>, status: String) {
    obs::timeline::finish(0);
    let Some(mut info) = runinfo else { return };
    info.finish(status);
    let path = PathBuf::from("RUNINFO.json");
    if let Err(e) = info.write_atomic(&path) {
        report::warn(&format!("could not write {}: {e}", path.display()));
    }
}

fn parse_supervise(args: &[String]) -> Result<SuperviseFlags, String> {
    let mut flags = SuperviseFlags {
        checkpoint_dir: PathBuf::from("sonet-checkpoints"),
        every_ms: None,
        resume: None,
        budget: RunBudget::unlimited(),
        audit: None,
        chunk_hosts: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--checkpoint" => flags.checkpoint_dir = PathBuf::from(value("--checkpoint")?),
            "--every-ms" => {
                flags.every_ms = Some(
                    value("--every-ms")?
                        .parse()
                        .map_err(|e| format!("--every-ms: {e}"))?,
                )
            }
            "--resume" => flags.resume = Some(PathBuf::from(value("--resume")?)),
            "--max-wall-secs" => {
                let secs: u64 = value("--max-wall-secs")?
                    .parse()
                    .map_err(|e| format!("--max-wall-secs: {e}"))?;
                flags.budget.wall_clock = Some(Duration::from_secs(secs));
            }
            "--max-events" => {
                flags.budget.max_events = Some(
                    value("--max-events")?
                        .parse()
                        .map_err(|e| format!("--max-events: {e}"))?,
                )
            }
            "--max-rss-mb" => {
                let mb: u64 = value("--max-rss-mb")?
                    .parse()
                    .map_err(|e| format!("--max-rss-mb: {e}"))?;
                flags.budget.max_peak_rss = Some(mb * 1024 * 1024);
            }
            "--audit" => {
                flags.audit = match value("--audit")?.as_str() {
                    "on" => Some(true),
                    "off" => Some(false),
                    other => return Err(format!("--audit takes on|off, not '{other}'")),
                }
            }
            "--chunk-hosts" => {
                flags.chunk_hosts = Some(
                    value("--chunk-hosts")?
                        .parse()
                        .map_err(|e| format!("--chunk-hosts: {e}"))?,
                )
            }
            _ => {}
        }
    }
    Ok(flags)
}

fn supervise_options(flags: &SuperviseFlags, opts: &Options) -> SuperviseOptions {
    let mut sup = SuperviseOptions::new(&flags.checkpoint_dir);
    if let Some(ms) = flags.every_ms {
        sup.every = SimDuration::from_millis(ms);
    }
    if let Some(hosts) = flags.chunk_hosts {
        sup.hosts_per_chunk = hosts;
    }
    sup.budget = flags.budget.clone();
    sup.audit = flags.audit;
    sup.threads = opts.threads;
    sup
}

fn lab_config(opts: &Options) -> LabConfig {
    let mut cfg = if opts.fast {
        LabConfig::fast(opts.seed)
    } else {
        LabConfig::standard(opts.seed)
    };
    cfg.threads = opts.threads;
    cfg.capture.fidelity = opts.fidelity;
    cfg
}

/// Which substrates an experiment consumes ([`reports`] free functions
/// take them explicitly; `fig15` runs its own simulation and needs
/// neither).
struct Needs {
    capture: bool,
    fleet: bool,
}

fn experiment_needs(id: &str) -> Needs {
    match id {
        "table3" | "fig5" => Needs {
            capture: false,
            fleet: true,
        },
        "fig15" => Needs {
            capture: false,
            fleet: false,
        },
        _ => Needs {
            capture: true,
            fleet: false,
        },
    }
}

/// Renders one experiment from pre-built substrates. Shared by `sonet
/// run` (which builds only what the experiment needs) and `sonet all`
/// (which builds both once and fans experiments over a worker pool).
fn render_report(
    id: &str,
    capture: Option<&StandardCapture>,
    fleet: Option<&FleetData>,
    fig15: &Fig15Config,
) -> Result<String, String> {
    // Test hook: lets the integration suite force one experiment to blow
    // up under the batch isolator and assert on the process exit code,
    // without shipping a deliberately broken scenario.
    if std::env::var("SONET_PANIC_EXPERIMENT").as_deref() == Ok(id) {
        panic!("{id}: injected test panic (SONET_PANIC_EXPERIMENT)");
    }
    let cap = || capture.ok_or_else(|| format!("{id}: capture unavailable"));
    let flt = || fleet.ok_or_else(|| format!("{id}: fleet data unavailable"));
    let out = match id {
        "table2" => reports::table2(cap()?).render(),
        "table3" => reports::table3(flt()?).render(),
        "table4" => reports::table4(cap()?).render(),
        "fig4" => reports::fig4(cap()?).render(),
        "fig5" => reports::fig5(flt()?).map_err(|e| e.to_string())?.render(),
        "fig6" => reports::fig6(cap()?).render(),
        "fig7" => reports::fig7(cap()?).render(),
        "fig8" => reports::fig8(cap()?)
            .map(|r| r.render())
            .unwrap_or_else(|| "fig8: traces missing".into()),
        "fig9" => reports::fig9(cap()?)
            .map(|r| r.render())
            .unwrap_or_else(|| "fig9: cache trace missing".into()),
        "fig10" => reports::fig10(cap()?).render(),
        "fig11" => reports::fig11(cap()?).render(),
        "fig12" => reports::fig12(cap()?).render(),
        "fig13" => reports::fig13(cap()?)
            .map(|r| r.render())
            .unwrap_or_else(|| "fig13: hadoop trace missing".into()),
        "fig14" => reports::fig14(cap()?).render(),
        "fig15" => reports::fig15(fig15).map_err(|e| e.to_string())?.render(),
        "fig16" => reports::fig16(cap()?).render(),
        "fig17" => reports::fig17(cap()?).render(),
        "util" => reports::utilization(cap()?).render(),
        "te" => reports::te_predictability(cap()?).render(),
        other => return Err(format!("unknown experiment '{other}' (try `sonet list`)")),
    };
    Ok(out)
}

/// `sonet all`: build both substrates concurrently (each panic-isolated),
/// then fan the experiments over the worker pool. Output order and bytes
/// are identical for any `--threads` value: renders are collected per
/// experiment and printed in `EXPERIMENTS` order.
fn cmd_all(args: &[String]) -> ExitCode {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let budget = match parse_supervise(args) {
        Ok(f) => f.budget,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let mut runinfo = cli_runinfo("all", &opts);
    cli_timeline();
    let cfg = lab_config(&opts);
    let threads = par::resolve_threads(opts.threads);

    // Substrate builds are independent scenarios: run them concurrently,
    // each under `isolate` so one blowing up costs only its dependents.
    let (capture, fleet) = std::thread::scope(|s| {
        let cap_cfg = &cfg.capture;
        let handle = s.spawn(move || isolate(AssertUnwindSafe(|| StandardCapture::run(cap_cfg))));
        let fleet = isolate(AssertUnwindSafe(|| {
            FleetData::run_with(&cfg.fleet, cfg.threads)
        }));
        (handle.join().expect("capture builder thread"), fleet)
    });
    let fleet: Result<FleetData, String> =
        fleet.and_then(|r| r.map_err(|e| format!("fleet run failed: {e}")));

    // The batch budget is checked at every scenario start — a cooperative
    // cancellation point, like checkpoint boundaries in supervised runs.
    let supervisor = RunSupervisor::new(budget);
    let results = par::map_indexed(threads, EXPERIMENTS.len(), |i| {
        let id = EXPERIMENTS[i].0;
        if let Some(reason) = supervisor.check(0) {
            return Err(format!("skipped: {reason}"));
        }
        let needs = experiment_needs(id);
        if needs.capture {
            if let Err(e) = &capture {
                return Err(format!("capture failed: {e}"));
            }
        }
        if needs.fleet {
            if let Err(e) = &fleet {
                return Err(e.clone());
            }
        }
        match isolate(AssertUnwindSafe(|| {
            render_report(id, capture.as_ref().ok(), fleet.as_ref().ok(), &cfg.fig15)
        })) {
            Ok(r) => r,
            Err(panic_msg) => Err(format!("panicked: {panic_msg}")),
        }
    });

    let mut batch = BatchSummary::new();
    for ((id, _), outcome) in EXPERIMENTS.iter().zip(&results) {
        if let Ok(out) = outcome {
            println!("{out}");
        }
        batch.push(*id, outcome.clone().map(|_| "rendered".to_string()));
    }
    report::line(batch.render().trim_end());
    if let Some(info) = runinfo.as_mut() {
        for o in &batch.outcomes {
            if let Err(e) = &o.result {
                info.note(format!("{}: {e}", o.name));
            }
        }
    }
    if batch.all_ok() {
        finish_cli_runinfo(runinfo, "completed".to_owned());
        ExitCode::SUCCESS
    } else {
        let failures = batch.failures();
        finish_cli_runinfo(runinfo, format!("failed: {failures} scenarios"));
        ExitCode::FAILURE
    }
}

/// Flags specific to `sonet chaos`.
struct ChaosFlags {
    profiles: String,
    seeds: u64,
    duration_ms: Option<u64>,
    out_dir: PathBuf,
    resume: bool,
    inject_bad: bool,
    max_shrinks: Option<usize>,
    replay: Option<PathBuf>,
}

fn parse_chaos(args: &[String]) -> Result<ChaosFlags, String> {
    let mut flags = ChaosFlags {
        profiles: "all".to_owned(),
        seeds: 4,
        duration_ms: None,
        out_dir: PathBuf::from("sonet-chaos"),
        resume: false,
        inject_bad: false,
        max_shrinks: None,
        replay: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--profiles" => flags.profiles = value("--profiles")?.clone(),
            "--seeds" => {
                flags.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--duration-ms" => {
                flags.duration_ms = Some(
                    value("--duration-ms")?
                        .parse()
                        .map_err(|e| format!("--duration-ms: {e}"))?,
                )
            }
            "--out" => flags.out_dir = PathBuf::from(value("--out")?),
            "--resume" => flags.resume = true,
            "--inject-bad" => flags.inject_bad = true,
            "--max-shrinks" => {
                flags.max_shrinks = Some(
                    value("--max-shrinks")?
                        .parse()
                        .map_err(|e| format!("--max-shrinks: {e}"))?,
                )
            }
            "--replay" => flags.replay = Some(PathBuf::from(value("--replay")?)),
            _ => {}
        }
    }
    Ok(flags)
}

/// `sonet chaos --replay FILE`: re-run a shrunk repro file standalone.
/// Exits 0 iff the recorded SLO violation reproduces.
fn cmd_chaos_replay(path: &std::path::Path) -> ExitCode {
    let repro = match ReproFile::read(path) {
        Ok(r) => r,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    obs::trace::set_export_meta("fault_plan_hash", repro.plan_hash.clone());
    match replay_repro(&repro) {
        Ok(true) => {
            println!(
                "repro {}: SLO '{}' violation REPRODUCES ({} fault events)",
                repro.plan_hash,
                repro.slo,
                repro.plan.events().len()
            );
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!(
                "repro {}: SLO '{}' violation did NOT reproduce",
                repro.plan_hash, repro.slo
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            report::line(&format!("replay failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// `sonet chaos`: drive a deterministic fault-injection campaign —
/// generative profiles × seeds, fault-free twins, recovery-SLO
/// evaluation, and automatic shrinking of violating fault plans.
/// Campaign completion is success regardless of SLO verdicts (violations
/// are results, written to the report); only infrastructure failures
/// exit nonzero.
fn cmd_chaos(args: &[String]) -> ExitCode {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let flags = match parse_chaos(args) {
        Ok(f) => f,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &flags.replay {
        return cmd_chaos_replay(path);
    }
    let profiles = match ChaosProfile::select(&flags.profiles) {
        Ok(p) => p,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = CampaignConfig::new(profiles, flags.seeds, opts.seed);
    if let Some(ms) = flags.duration_ms {
        cfg.duration = SimDuration::from_millis(ms);
    }
    if let Some(n) = flags.max_shrinks {
        cfg.max_shrinks = n;
    }
    cfg.inject_known_bad = flags.inject_bad;
    cfg.fidelity = opts.fidelity;

    let campaign_id = cfg.campaign_id();
    obs::trace::set_export_meta("campaign_id", campaign_id.clone());
    let mut runinfo = cli_runinfo("chaos", &opts);
    if let Some(info) = runinfo.as_mut() {
        info.campaign_id = Some(campaign_id.clone());
    }

    match run_campaign(&cfg, Some(&flags.out_dir), flags.resume) {
        Ok(rep) => {
            print!("{}", rep.render());
            report::line(&format!(
                "campaign report: {}",
                flags.out_dir.join("campaign-report.json").display()
            ));
            if let Some(info) = runinfo.as_mut() {
                for r in rep.runs.iter().filter(|r| !r.pass) {
                    info.note(format!(
                        "{} seed={}: {}",
                        r.profile,
                        r.seed,
                        if r.status == "ok" {
                            "SLO violated".to_owned()
                        } else {
                            r.status.clone()
                        }
                    ));
                }
            }
            finish_cli_runinfo(
                runinfo,
                format!(
                    "completed: {} passed, {} violated, {} infra-failed",
                    rep.passed, rep.violated, rep.infra_failed
                ),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            report::line(&format!("chaos campaign failed: {e}"));
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

fn cmd_capture(args: &[String]) -> ExitCode {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let flags = match parse_supervise(args) {
        Ok(f) => f,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let sup = supervise_options(&flags, &opts);
    let result = match &flags.resume {
        Some(path) => resume_capture(path, &sup),
        None => {
            let cfg = if opts.fast {
                CaptureConfig::fast(opts.seed)
            } else {
                CaptureConfig::standard(opts.seed)
            }
            .with_fidelity(opts.fidelity);
            run_capture(&cfg, &sup)
        }
    };
    match result {
        Ok((RunStatus::Completed, Some(cap))) => {
            println!(
                "capture complete: {} calls issued, {} packets mirrored \
                 ({} overflowed, {} fault-dropped){}",
                cap.issued_calls,
                cap.mirror_offered,
                cap.mirror_overflow,
                cap.mirror_fault_dropped,
                if cap.truncated { ", TRUNCATED" } else { "" },
            );
            ExitCode::SUCCESS
        }
        Ok((RunStatus::Stopped(reason), _)) => {
            report::line(&format!(
                "capture stopped ({reason}); resume with:\n  sonet capture --resume {}",
                sup.capture_checkpoint_path().display()
            ));
            ExitCode::from(EXIT_STOPPED)
        }
        Ok((RunStatus::Completed, None)) => unreachable!("completed runs carry results"),
        Err(e) => {
            report::line(&format!("capture failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

fn cmd_fleet(args: &[String]) -> ExitCode {
    let opts = match parse_common(args) {
        Ok(o) => o,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let flags = match parse_supervise(args) {
        Ok(f) => f,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let sup = supervise_options(&flags, &opts);
    if opts.fidelity == FidelityMode::Hybrid {
        report::line(
            "note: the fleet tier samples flows directly; --fidelity=hybrid changes nothing there",
        );
    }
    let result = match &flags.resume {
        Some(path) => resume_fleet(path, &sup),
        None => {
            let cfg = if opts.fast {
                FleetRunConfig::fast(opts.seed)
            } else {
                FleetRunConfig::standard(opts.seed)
            };
            run_fleet(&cfg, &sup)
        }
    };
    match result {
        Ok((RunStatus::Completed, Some(data))) => {
            println!(
                "fleet run complete: {} tagged rows ({} relaxed picks, {} agent-dropped); \
                 samples spooled at {}",
                data.table.len(),
                data.relaxed_picks,
                data.agent_dropped,
                sup.fleet_spool_path().display(),
            );
            ExitCode::SUCCESS
        }
        Ok((RunStatus::Stopped(reason), _)) => {
            report::line(&format!(
                "fleet run stopped ({reason}); resume with:\n  sonet fleet --resume {}",
                sup.fleet_checkpoint_path().display()
            ));
            ExitCode::from(EXIT_STOPPED)
        }
        Ok((RunStatus::Completed, None)) => unreachable!("completed runs carry results"),
        Err(e) => {
            report::line(&format!("fleet run failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(id) = args.first() else {
        report::line("usage: sonet run <id> [--seed N] [--fast] [--threads N]");
        return ExitCode::FAILURE;
    };
    if !EXPERIMENTS.iter().any(|(e, _)| e == id) {
        report::line(&format!("unknown experiment '{id}' (try `sonet list`)"));
        return ExitCode::FAILURE;
    }
    let opts = match parse_common(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let runinfo = cli_runinfo(&format!("run {id}"), &opts);
    cli_timeline();
    let cfg = lab_config(&opts);
    let needs = experiment_needs(id);
    let capture = needs.capture.then(|| StandardCapture::run(&cfg.capture));
    let fleet = match needs
        .fleet
        .then(|| FleetData::run_with(&cfg.fleet, cfg.threads))
        .transpose()
    {
        Ok(f) => f,
        Err(e) => {
            report::line(&format!("fleet run failed: {e}"));
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            return ExitCode::FAILURE;
        }
    };
    match render_report(id, capture.as_ref(), fleet.as_ref(), &cfg.fig15) {
        Ok(out) => {
            println!("{out}");
            finish_cli_runinfo(runinfo, "completed".to_owned());
            ExitCode::SUCCESS
        }
        Err(e) => {
            report::line(&e);
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            ExitCode::FAILURE
        }
    }
}

/// `sonet top <run-dir|TIMELINE.jsonl>`: live dashboard tailing a run's
/// timeline artifact — progress/ETA, event and flow rates, sparklines,
/// drop and SLO-breach flags. Reads only the file; never touches the
/// simulator process. `--once` renders a single frame (for scripts and
/// CI); interactive mode refreshes until the `final` record lands.
fn cmd_top(args: &[String]) -> ExitCode {
    let Some(target) = args.first().filter(|a| !a.starts_with("--")) else {
        report::line("usage: sonet top <run-dir|TIMELINE.jsonl> [--once] [--refresh-ms N]");
        return ExitCode::FAILURE;
    };
    let once = args.iter().any(|a| a == "--once");
    let mut refresh_ms = 500u64;
    if let Some(i) = args.iter().position(|a| a == "--refresh-ms") {
        match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => refresh_ms = v,
            None => {
                report::line("--refresh-ms needs a number");
                return ExitCode::FAILURE;
            }
        }
    }
    let path = match obs::dash::resolve_artifact(std::path::Path::new(target)) {
        Ok(p) => p,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    if path.file_name().and_then(|n| n.to_str()) == Some("RUNINFO.json") {
        report::line(&format!(
            "{}: found a RUNINFO.json but no TIMELINE.jsonl; `sonet top` needs a timeline \
             (run with --obs=deep or --obs-interval)",
            target
        ));
        return ExitCode::FAILURE;
    }
    let mut series = obs::dash::RunSeries::default();
    let mut offset = 0u64;
    let interactive = {
        use std::io::IsTerminal;
        !once && std::io::stdout().is_terminal()
    };
    loop {
        match obs::timeline::read_rows(&path, offset) {
            Ok((rows, next)) => {
                offset = next;
                for r in rows {
                    series.push(r);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                report::line(&format!("{}: {e}", path.display()));
                return ExitCode::FAILURE;
            }
        }
        let done = series.rows.last().is_some_and(|r| r.trigger == "final");
        if interactive {
            // Home + clear-to-end keeps the frame flicker-free.
            print!("\x1b[H\x1b[2J");
        }
        print!("{}", obs::dash::render_frame(&series.rows, &series));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if once || done || !interactive {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }
}

/// `sonet diff <a> <b> [--gate PCT]`: regression table between two runs,
/// from their `TIMELINE.jsonl` or `RUNINFO.json` artifacts (a directory
/// selects its timeline, then its manifest). With `--gate`, exits
/// nonzero when any regression exceeds PCT percent.
fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut gate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--gate" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => gate = Some(v),
                None => {
                    report::line("--gate needs a percentage");
                    return ExitCode::FAILURE;
                }
            }
        } else if !a.starts_with("--") {
            paths.push(a);
        }
    }
    let [a_path, b_path] = paths[..] else {
        report::line(
            "usage: sonet diff <runinfo|timeline|dir> <runinfo|timeline|dir> [--gate PCT]",
        );
        return ExitCode::FAILURE;
    };
    let load = |p: &str| obs::dash::load_series(std::path::Path::new(p));
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    let report_ = obs::dash::diff(&a, &b);
    print!("{}", report_.render(&a.label, &b.label));
    if let Some(pct) = gate {
        let regressions = report_.regressions(pct);
        if !regressions.is_empty() {
            for r in &regressions {
                report::line(&format!(
                    "regression: {} changed {:+.2}% (gate {pct}%)",
                    r.what, r.change_pct
                ));
            }
            return ExitCode::FAILURE;
        }
        report::line(&format!("no regressions beyond {pct}%"));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let obs_flags = match parse_obs(&args) {
        Ok(f) => f,
        Err(e) => {
            report::line(&e);
            return ExitCode::FAILURE;
        }
    };
    obs::set_mode(obs_flags.mode);
    // Timeline window-snapshot policy: explicit `--obs-interval` wins;
    // deep mode defaults to one snapshot per simulated second; summary
    // keeps checkpoint-boundary and final records only.
    let interval_ns = match obs_flags.interval_ms {
        Some(ms) => {
            if !obs::on() {
                report::warn("--obs-interval set but --obs is off; no timeline will be written");
            }
            ms.saturating_mul(1_000_000)
        }
        None if obs::deep() => obs::timeline::DEFAULT_DEEP_INTERVAL_NS,
        None => 0,
    };
    obs::timeline::set_interval_ns(interval_ns);
    let code = dispatch(&args);
    finish_obs(&obs_flags);
    code
}

fn dispatch(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("experiments:");
            for (id, what) in EXPERIMENTS {
                println!("  {id:<8} {what}");
            }
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("capture") => cmd_capture(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("export-fleet") => {
            let Some(path) = args.get(1) else {
                report::line("usage: sonet export-fleet <out.jsonl> [--seed N] [--fast]");
                return ExitCode::FAILURE;
            };
            let opts = match parse_common(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    report::line(&e);
                    return ExitCode::FAILURE;
                }
            };
            let cfg = if opts.fast {
                FleetRunConfig::fast(opts.seed)
            } else {
                FleetRunConfig::standard(opts.seed)
            };
            let fleet = match FleetData::run(&cfg) {
                Ok(f) => f,
                Err(e) => {
                    report::line(&format!("fleet run failed: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            let records: Vec<_> = fleet.table.rows().iter().map(|r| r.rec).collect();
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    report::line(&format!("cannot create {path}: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = sonet_dc::telemetry::export::write_flows(file, &records) {
                report::line(&format!("export failed: {e}"));
                return ExitCode::FAILURE;
            }
            println!("wrote {} Fbflow samples to {path}", records.len());
            ExitCode::SUCCESS
        }
        Some("export-matrix") => {
            let Some(path) = args.get(1) else {
                report::line("usage: sonet export-matrix <out.csv> [--seed N] [--fast]");
                return ExitCode::FAILURE;
            };
            let opts = match parse_common(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    report::line(&e);
                    return ExitCode::FAILURE;
                }
            };
            let cfg = if opts.fast {
                FleetRunConfig::fast(opts.seed)
            } else {
                FleetRunConfig::standard(opts.seed)
            };
            let fleet = match FleetData::run(&cfg) {
                Ok(f) => f,
                Err(e) => {
                    report::line(&format!("fleet run failed: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            let f5 = match reports::fig5(&fleet) {
                Ok(f) => f,
                Err(e) => {
                    report::line(&format!("fig5 failed: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    report::line(&format!("cannot create {path}: {e}"));
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = sonet_dc::telemetry::export::write_matrix_csv(file, &f5.frontend_matrix)
            {
                report::line(&format!("export failed: {e}"));
                return ExitCode::FAILURE;
            }
            println!("wrote frontend rack-to-rack matrix to {path}");
            ExitCode::SUCCESS
        }
        _ => {
            report::line(
                "sonet — reproduce 'Inside the Social Network's (Datacenter) Network'\n\
                 usage:\n\
                 \x20 sonet list\n\
                 \x20 sonet run <id> [--seed N] [--fast] [--threads N]\n\
                 \x20 sonet all [--seed N] [--fast] [--threads N] [--max-wall-secs N]\n\
                 \x20 sonet capture [--seed N] [--fast] [--threads N] [--checkpoint DIR]\n\
                 \x20               [--every-ms N] [--resume FILE] [--max-wall-secs N]\n\
                 \x20               [--max-events N] [--max-rss-mb N] [--audit on|off]\n\
                 \x20 sonet fleet   [--seed N] [--fast] [--threads N] [--checkpoint DIR]\n\
                 \x20               [--chunk-hosts N] [--resume FILE] [--max-wall-secs N]\n\
                 \x20               [--max-events N] [--max-rss-mb N] [--audit on|off]\n\
                 \x20 sonet chaos   [--profiles all|a,b,…] [--seeds N] [--seed BASE]\n\
                 \x20               [--duration-ms N] [--out DIR] [--resume] [--threads N]\n\
                 \x20               [--max-shrinks N] [--inject-bad] [--replay FILE]\n\
                 \x20 sonet top <run-dir|TIMELINE.jsonl> [--once] [--refresh-ms N]\n\
                 \x20 sonet diff <a> <b> [--gate PCT]   (a, b: timeline/runinfo/dir)\n\
                 \x20 sonet export-fleet <out.jsonl> [--seed N] [--fast]\n\
                 \x20 sonet export-matrix <out.csv> [--seed N] [--fast]\n\
                 run, capture, fleet, and chaos also take --fidelity packet|hybrid\n\
                 (default packet; hybrid advances bulk flows analytically outside\n\
                 fidelity islands — mirrored hosts, sampled switches, faulted paths)\n\
                 every command also takes --obs[=off|summary|deep], --obs-interval MS\n\
                 (sim time between timeline snapshots; deep defaults to 1000), and\n\
                 --trace-out FILE\n\
                 supervised runs exit 2 when a budget stops them (resumable)",
            );
            ExitCode::FAILURE
        }
    }
}
