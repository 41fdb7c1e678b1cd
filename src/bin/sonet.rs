//! `sonet` — command-line front end for the sonet-dc reproduction.
//!
//! Run `sonet` with no arguments for the usage. It is generated from two
//! tables, [`COMMANDS`] and [`FLAGS`], which are also the only thing
//! [`parse`] reads: every flag row names the subcommands that read it,
//! and a command given a flag that is unknown, or one it never reads, or
//! a value the flag does not accept, exits 1 naming that flag before any
//! work starts. Value flags take `--flag V` and `--flag=V` alike.
//!
//! Every command also takes `--obs[=off|summary|deep]` (flight-recorder
//! level; bare `--obs` means `summary`), `--obs-interval MS` (sim time
//! between streaming timeline snapshots; deep mode defaults to one per
//! simulated second), and `--trace-out FILE` (Chrome `trace_event` JSON
//! for Perfetto). Observability is strictly a side channel: no output
//! byte of any run changes with it off, on, or deep.
//!
//! `--threads N` (default: available parallelism) never changes any
//! output byte — only wall-clock. For `capture` the flag also sets the
//! engine's worker width: each datacenter of the plant runs its own event
//! calendar, synchronized at conservative lookahead barriers (see
//! DESIGN.md §10), so a multi-DC capture uses up to one worker per
//! datacenter.
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
use sonet_dc::util::obs::{self, report, ObsMode};
use sonet_dc::util::{par, SimDuration};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
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

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;

/// Subcommands: name, positional arguments (all required), summary.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], &str)] = &[
    ("list", &[], "list experiment ids"),
    ("run", &["<id>"], "regenerate one table/figure"),
    ("all", &[], "regenerate everything (panic-isolated, over the worker pool)"),
    ("capture", &[], "supervised packet-tier capture"),
    ("fleet", &[], "supervised fleet-tier run"),
    ("chaos", &[], "fault-injection campaign: profiles x seeds, SLOs, shrinking"),
    ("top", &["<run-dir|TIMELINE.jsonl>"], "live dashboard tailing a timeline"),
    ("diff", &["<a>", "<b>"], "regression table between two runs' artifacts"),
    ("export-fleet", &["<out.jsonl>"], "dump a fleet-tier Fbflow day"),
    ("export-matrix", &["<out.csv>"], "dump the Fig 5 frontend rack matrix"),
];

/// How many values a flag takes.
#[derive(Clone, Copy)]
enum Arity {
    /// A bare switch.
    Switch,
    /// One value, `--flag V` or `--flag=V`; the text names it in the usage.
    Value(&'static str),
    /// `--obs`'s optional mode: `--obs=M`, or `--obs M` when the next
    /// token names a mode, so `--obs --threads 4` is a bare `--obs`.
    OptionalMode,
}
use Arity::{OptionalMode, Switch, Value};

/// One row of the flag table.
struct Flag {
    name: &'static str,
    arity: Arity,
    help: &'static str,
    /// The subcommands that read the flag; any other rejects it.
    cmds: &'static [&'static str],
}

// Groups of subcommands that read the same flags.
#[rustfmt::skip]
const EVERY: &[&str] = &[
    "list", "run", "all", "capture", "fleet", "chaos", "top", "diff", "export-fleet",
    "export-matrix",
];
#[rustfmt::skip]
const SEEDED: &[&str] = &["run", "all", "capture", "fleet", "chaos", "export-fleet", "export-matrix"];
const BUDGETED: &[&str] = &["all", "capture", "fleet"];
const SUPERVISED: &[&str] = &["capture", "fleet"];

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--seed", arity: Value("N"), cmds: SEEDED, help: "base RNG seed (default 42)" },
    Flag { name: "--fast", arity: Switch, help: "tiny plant and short horizon",
           cmds: &["run", "all", "capture", "fleet", "export-fleet", "export-matrix"] },
    Flag { name: "--threads", arity: Value("N"), cmds: SEEDED,
           help: "worker threads (default: available parallelism); never changes output" },
    Flag { name: "--fidelity", arity: Value("packet|hybrid"),
           cmds: &["run", "all", "capture", "fleet", "chaos"],
           help: "packet (default), or hybrid: bulk flows analytic outside fidelity islands" },
    Flag { name: "--checkpoint", arity: Value("DIR"), cmds: SUPERVISED,
           help: "checkpoint directory (default sonet-checkpoints)" },
    Flag { name: "--every-ms", arity: Value("N"), cmds: &["capture"],
           help: "simulated ms between checkpoints (default 2000)" },
    Flag { name: "--chunk-hosts", arity: Value("N"), cmds: &["fleet"],
           help: "hosts generated between checkpoints (default 64)" },
    Flag { name: "--resume", arity: Value("FILE"), cmds: SUPERVISED,
           help: "continue from the checkpoint file a stopped run names" },
    Flag { name: "--max-wall-secs", arity: Value("N"), cmds: BUDGETED, help: "wall-clock budget" },
    Flag { name: "--max-events", arity: Value("N"), cmds: BUDGETED,
           help: "work budget: engine events (fleet: samples)" },
    Flag { name: "--max-rss-mb", arity: Value("N"), cmds: BUDGETED, help: "peak-RSS budget in MiB" },
    Flag { name: "--audit", arity: Value("on|off"), cmds: SUPERVISED,
           help: "invariant auditor at checkpoints (default: debug or `audit` builds)" },
    Flag { name: "--profiles", arity: Value("all|a,b,…"), cmds: &["chaos"],
           help: "chaos profiles to sweep (default all)" },
    Flag { name: "--seeds", arity: Value("N"), cmds: &["chaos"], help: "seeds per profile (default 4)" },
    Flag { name: "--duration-ms", arity: Value("N"), cmds: &["chaos"],
           help: "simulated ms per run (default 2000)" },
    Flag { name: "--out", arity: Value("DIR"), cmds: &["chaos"],
           help: "campaign output directory (default sonet-chaos)" },
    Flag { name: "--resume", arity: Switch, cmds: &["chaos"],
           help: "continue a killed campaign from its last flushed chunk" },
    Flag { name: "--max-shrinks", arity: Value("N"), cmds: &["chaos"],
           help: "shrink at most N violating runs (default 4)" },
    Flag { name: "--inject-bad", arity: Switch, cmds: &["chaos"],
           help: "mix in the seeded known-bad fault plan" },
    Flag { name: "--replay", arity: Value("FILE"), cmds: &["chaos"],
           help: "re-run a shrunk repro; exit 0 iff its violation reproduces" },
    Flag { name: "--once", arity: Switch, cmds: &["top"], help: "render one frame and exit" },
    Flag { name: "--refresh-ms", arity: Value("N"), cmds: &["top"],
           help: "redraw interval (default 500)" },
    Flag { name: "--gate", arity: Value("PCT"), cmds: &["diff"],
           help: "exit 1 when any regression exceeds PCT percent" },
    Flag { name: "--obs", arity: OptionalMode, cmds: EVERY,
           help: "flight recorder (default off; bare --obs means summary)" },
    Flag { name: "--obs-interval", arity: Value("MS"), cmds: EVERY,
           help: "sim time between timeline snapshots (deep defaults to 1000)" },
    Flag { name: "--trace-out", arity: Value("FILE"), cmds: EVERY,
           help: "write the span trace as Chrome trace_event JSON" },
];

impl Flag {
    /// `--seed N`, `--fast`, `--obs[=off|summary|deep]`.
    fn spelled(&self) -> String {
        match self.arity {
            Switch => self.name.to_owned(),
            Value(v) => format!("{} {v}", self.name),
            OptionalMode => format!("{}[=off|summary|deep]", self.name),
        }
    }
}

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = "sonet — reproduce 'Inside the Social Network's (Datacenter) Network'\n\
                   usage: sonet <command> [flags]\n\ncommands:\n"
        .to_owned();
    for (name, positionals, help) in COMMANDS {
        out += &format!(
            "  {:<34} {help}\n",
            [&[*name], *positionals].concat().join(" ")
        );
    }
    out += "\nflags (`--flag V` or `--flag=V`; a command rejects a flag it does not read):\n";
    for f in FLAGS {
        let cmds = if f.cmds == EVERY {
            "every command".to_owned()
        } else {
            f.cmds.join(" ")
        };
        out += &format!("  {:<26} {}\n  {:<26} [{cmds}]\n", f.spelled(), f.help, "");
    }
    out + "\nsupervised runs exit 2 when a budget stops them (resumable)"
}

/// A parsed command line: the command's positionals in order, and every
/// flag given with its value (`None` for switches and a bare `--obs`).
#[derive(Debug)]
struct Args {
    positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

/// Parses the arguments after the subcommand `cmd` — the one walk of
/// argv. Errors name the offending flag (or the command, for a wrong
/// number of positionals) and end with the command's one-line usage.
fn parse(cmd: &str, argv: &[String]) -> Result<Args, String> {
    let Some((_, want, _)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        return Err(format!("unknown command '{cmd}'\n{}", usage()));
    };
    let reads = |f: &&Flag| f.cmds.contains(&cmd);
    let line = || {
        let flags = FLAGS
            .iter()
            .filter(reads)
            .map(|f| format!(" [{}]", f.spelled()));
        let head = [&[cmd], *want].concat().join(" ");
        format!("usage: sonet {head}{}", flags.collect::<String>())
    };
    let mut args = Args {
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(tok) = it.next() {
        if !tok.starts_with("--") {
            args.positionals.push(tok.clone());
            continue;
        }
        let (name, inline) = match tok.split_once('=') {
            Some((n, v)) => (n, Some(v.to_owned())),
            None => (tok.as_str(), None),
        };
        let Some(flag) = FLAGS.iter().filter(reads).find(|f| f.name == name) else {
            let why = if FLAGS.iter().any(|f| f.name == name) {
                format!("`sonet {cmd}` does not read {name}")
            } else {
                format!("unknown flag {name}")
            };
            return Err(format!("{why}\n{}", line()));
        };
        let value = match (flag.arity, inline) {
            (Switch, Some(_)) => return Err(format!("{name} takes no value\n{}", line())),
            (_, Some(v)) => Some(v),
            (Switch, None) => None,
            (Value(_), None) => match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => Some(v.clone()),
                None => return Err(format!("{name} needs a value\n{}", line())),
            },
            (OptionalMode, None) => it.next_if(|v| ObsMode::parse(v).is_some()).cloned(),
        };
        args.flags.push((flag.name, value));
    }
    if args.positionals.len() != want.len() {
        let (n, got) = (want.len(), &args.positionals);
        return Err(format!(
            "`sonet {cmd}` takes {n} positional argument(s), got {got:?}\n{}",
            line()
        ));
    }
    Ok(args)
}

impl Args {
    /// The last occurrence of `name`, with its value. A repeated flag
    /// keeps its last value.
    fn last(&self, name: &str) -> Option<Option<&str>> {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == name),
            "{name} is not in FLAGS"
        );
        let (_, v) = self.flags.iter().rev().find(|(n, _)| *n == name)?;
        Some(v.as_deref())
    }

    /// Whether `name` was given.
    fn flag(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    /// The value of `name`; `None` when absent (or a bare `--obs`).
    fn value(&self, name: &str) -> Option<&str> {
        self.last(name).flatten()
    }

    /// The value of `name` as a path.
    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// The value of `name` parsed as `T`; `None` when absent.
    fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|e| format!("{name}: {e}"))
    }

    /// The value of `name` parsed by `parse`, which accepts `expected`.
    fn choice<T>(
        &self,
        name: &str,
        parse: fn(&str) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        parse(v)
            .map(Some)
            .ok_or_else(|| format!("{name} takes {expected}, not '{v}'"))
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.get("--seed")?.unwrap_or(DEFAULT_SEED))
    }

    fn fidelity(&self) -> Result<FidelityMode, String> {
        let mode = self.choice("--fidelity", FidelityMode::parse, "packet|hybrid")?;
        Ok(mode.unwrap_or(FidelityMode::Packet))
    }

    fn obs_mode(&self) -> Result<ObsMode, String> {
        let bare = if self.flag("--obs") {
            ObsMode::Summary
        } else {
            ObsMode::Off
        };
        Ok(self
            .choice("--obs", ObsMode::parse, "off|summary|deep")?
            .unwrap_or(bare))
    }
}

/// Applies the flight-recorder flags. Timeline window-snapshot policy:
/// an explicit `--obs-interval` wins; deep mode defaults to one snapshot
/// per simulated second; summary keeps checkpoint-boundary and final
/// records only.
fn start_obs(args: &Args) -> Result<(), String> {
    obs::set_mode(args.obs_mode()?);
    let interval_ns = match args.get::<u64>("--obs-interval")? {
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
    Ok(())
}

/// Exports the span trace at process exit when `--trace-out` was given.
fn finish_obs(args: &Args) {
    let Some(path) = args.path("--trace-out") else {
        return;
    };
    if !obs::on() {
        report::warn("--trace-out set but --obs is off; writing an empty trace");
    }
    match obs::trace::export_chrome(&path) {
        Ok(n) => report::line(&format!("wrote {n} trace events to {}", path.display())),
        Err(e) => report::warn(&format!("trace export to {} failed: {e}", path.display())),
    }
}

/// Starts a `RUNINFO.json` manifest for the unsupervised commands when
/// observability is on. Supervised runs (`capture`, `fleet`) write theirs
/// next to their checkpoints instead.
fn cli_runinfo(command: &str, args: &Args) -> Result<Option<obs::runinfo::RunInfo>, String> {
    let (seed, fidelity) = (args.seed()?, args.fidelity()?);
    let threads = par::resolve_threads(args.get("--threads")?);
    Ok(obs::on().then(|| {
        obs::runinfo::RunInfo::start(
            command,
            seed,
            &format!(
                "{{\"seed\":{seed},\"fast\":{},\"fidelity\":\"{}\"}}",
                args.flag("--fast"),
                fidelity.name()
            ),
            threads,
        )
    }))
}

/// Installs a `./TIMELINE.jsonl` writer for the unsupervised commands
/// (`run`, `all`). Supervised runs and chaos campaigns install theirs
/// next to their checkpoints / campaign output instead.
fn cli_timeline() {
    if obs::on() && !obs::timeline::installed() {
        let path = Path::new(obs::timeline::TIMELINE);
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

/// The `--max-*` budget flags.
fn budget(args: &Args) -> Result<RunBudget, String> {
    Ok(RunBudget {
        wall_clock: args.get("--max-wall-secs")?.map(Duration::from_secs),
        max_events: args.get("--max-events")?,
        max_peak_rss: args
            .get::<u64>("--max-rss-mb")?
            .map(|mb| mb.saturating_mul(1 << 20)),
    })
}

/// Supervision options for `capture` and `fleet`.
fn supervise_options(args: &Args) -> Result<SuperviseOptions, String> {
    let dir = args.path("--checkpoint");
    let mut sup = SuperviseOptions::new(dir.unwrap_or_else(|| PathBuf::from("sonet-checkpoints")));
    if let Some(ms) = args.get("--every-ms")? {
        sup.every = SimDuration::from_millis(ms);
    }
    if let Some(hosts) = args.get("--chunk-hosts")? {
        sup.hosts_per_chunk = hosts;
    }
    sup.budget = budget(args)?;
    let on_off = |v: &str| match v {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    };
    sup.audit = args.choice("--audit", on_off, "on|off")?;
    sup.threads = args.get("--threads")?;
    Ok(sup)
}

fn lab_config(args: &Args) -> Result<LabConfig, String> {
    let seed = args.seed()?;
    let mut cfg = if args.flag("--fast") {
        LabConfig::fast(seed)
    } else {
        LabConfig::standard(seed)
    };
    cfg.threads = args.get("--threads")?;
    cfg.capture.fidelity = args.fidelity()?;
    Ok(cfg)
}

fn fleet_config(args: &Args) -> Result<FleetRunConfig, String> {
    let seed = args.seed()?;
    Ok(if args.flag("--fast") {
        FleetRunConfig::fast(seed)
    } else {
        FleetRunConfig::standard(seed)
    })
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
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let cfg = lab_config(args)?;
    let budget = budget(args)?;
    let mut runinfo = cli_runinfo("all", args)?;
    cli_timeline();
    let threads = par::resolve_threads(cfg.threads);

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
        Ok(ExitCode::SUCCESS)
    } else {
        let failures = batch.failures();
        finish_cli_runinfo(runinfo, format!("failed: {failures} scenarios"));
        Ok(ExitCode::FAILURE)
    }
}

/// `sonet chaos --replay FILE`: re-run a shrunk repro file standalone.
/// Exits 0 iff the recorded SLO violation reproduces.
fn cmd_chaos_replay(path: &Path) -> Result<ExitCode, String> {
    let repro = ReproFile::read(path)?;
    obs::trace::set_export_meta("fault_plan_hash", repro.plan_hash.clone());
    if replay_repro(&repro).map_err(|e| format!("replay failed: {e}"))? {
        println!(
            "repro {}: SLO '{}' violation REPRODUCES ({} fault events)",
            repro.plan_hash,
            repro.slo,
            repro.plan.events().len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "repro {}: SLO '{}' violation did NOT reproduce",
            repro.plan_hash, repro.slo
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `sonet chaos`: drive a deterministic fault-injection campaign —
/// generative profiles × seeds, fault-free twins, recovery-SLO
/// evaluation, and automatic shrinking of violating fault plans.
/// Campaign completion is success regardless of SLO verdicts (violations
/// are results, written to the report); only infrastructure failures
/// exit nonzero.
fn cmd_chaos(args: &Args) -> Result<ExitCode, String> {
    let mut cfg = CampaignConfig::new(
        ChaosProfile::select(args.value("--profiles").unwrap_or("all"))?,
        args.get("--seeds")?.unwrap_or(4),
        args.seed()?,
    );
    if let Some(ms) = args.get("--duration-ms")? {
        cfg.duration = SimDuration::from_millis(ms);
    }
    if let Some(n) = args.get("--max-shrinks")? {
        cfg.max_shrinks = n;
    }
    cfg.inject_known_bad = args.flag("--inject-bad");
    cfg.fidelity = args.fidelity()?;
    if let Some(path) = args.path("--replay") {
        return cmd_chaos_replay(&path);
    }
    let out_dir = args.path("--out").unwrap_or_else(|| "sonet-chaos".into());

    let campaign_id = cfg.campaign_id();
    obs::trace::set_export_meta("campaign_id", campaign_id.clone());
    let mut runinfo = cli_runinfo("chaos", args)?;
    if let Some(info) = runinfo.as_mut() {
        info.campaign_id = Some(campaign_id.clone());
    }

    match run_campaign(&cfg, Some(&out_dir), args.flag("--resume")) {
        Ok(rep) => {
            print!("{}", rep.render());
            report::line(&format!(
                "campaign report: {}",
                out_dir.join("campaign-report.json").display()
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
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            Err(format!("chaos campaign failed: {e}"))
        }
    }
}

fn cmd_capture(args: &Args) -> Result<ExitCode, String> {
    let sup = supervise_options(args)?;
    let seed = args.seed()?;
    let cfg = if args.flag("--fast") {
        CaptureConfig::fast(seed)
    } else {
        CaptureConfig::standard(seed)
    }
    .with_fidelity(args.fidelity()?);
    let result = match args.path("--resume") {
        Some(path) => resume_capture(&path, &sup),
        None => run_capture(&cfg, &sup),
    };
    match result.map_err(|e| format!("capture failed: {e}"))? {
        (RunStatus::Completed, Some(cap)) => {
            println!(
                "capture complete: {} calls issued, {} packets mirrored \
                 ({} overflowed, {} fault-dropped){}",
                cap.issued_calls,
                cap.mirror_offered,
                cap.mirror_overflow,
                cap.mirror_fault_dropped,
                if cap.truncated { ", TRUNCATED" } else { "" },
            );
            Ok(ExitCode::SUCCESS)
        }
        (RunStatus::Stopped(reason), _) => {
            report::line(&format!(
                "capture stopped ({reason}); resume with:\n  sonet capture --resume {}",
                sup.capture_checkpoint_path().display()
            ));
            Ok(ExitCode::from(EXIT_STOPPED))
        }
        (RunStatus::Completed, None) => unreachable!("completed runs carry results"),
    }
}

fn cmd_fleet(args: &Args) -> Result<ExitCode, String> {
    let sup = supervise_options(args)?;
    let cfg = fleet_config(args)?;
    if args.fidelity()? == FidelityMode::Hybrid {
        report::line(
            "note: the fleet tier samples flows directly; --fidelity=hybrid changes nothing there",
        );
    }
    let result = match args.path("--resume") {
        Some(path) => resume_fleet(&path, &sup),
        None => run_fleet(&cfg, &sup),
    };
    match result.map_err(|e| format!("fleet run failed: {e}"))? {
        (RunStatus::Completed, Some(data)) => {
            println!(
                "fleet run complete: {} tagged rows ({} relaxed picks, {} agent-dropped); \
                 samples spooled at {}",
                data.table.len(),
                data.relaxed_picks,
                data.agent_dropped,
                sup.fleet_spool_path().display(),
            );
            Ok(ExitCode::SUCCESS)
        }
        (RunStatus::Stopped(reason), _) => {
            report::line(&format!(
                "fleet run stopped ({reason}); resume with:\n  sonet fleet --resume {}",
                sup.fleet_checkpoint_path().display()
            ));
            Ok(ExitCode::from(EXIT_STOPPED))
        }
        (RunStatus::Completed, None) => unreachable!("completed runs carry results"),
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let id = args.positionals[0].as_str();
    if !EXPERIMENTS.iter().any(|(e, _)| *e == id) {
        return Err(format!("unknown experiment '{id}' (try `sonet list`)"));
    }
    let cfg = lab_config(args)?;
    let runinfo = cli_runinfo(&format!("run {id}"), args)?;
    cli_timeline();
    let needs = experiment_needs(id);
    let capture = needs.capture.then(|| StandardCapture::run(&cfg.capture));
    let fleet = match needs
        .fleet
        .then(|| FleetData::run_with(&cfg.fleet, cfg.threads))
        .transpose()
    {
        Ok(f) => f,
        Err(e) => {
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            return Err(format!("fleet run failed: {e}"));
        }
    };
    match render_report(id, capture.as_ref(), fleet.as_ref(), &cfg.fig15) {
        Ok(out) => {
            println!("{out}");
            finish_cli_runinfo(runinfo, "completed".to_owned());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            finish_cli_runinfo(runinfo, format!("failed: {e}"));
            Err(e)
        }
    }
}

/// `sonet top <run-dir|TIMELINE.jsonl>`: live dashboard tailing a run's
/// timeline artifact — progress/ETA, event and flow rates, sparklines,
/// drop and SLO-breach flags. Reads only the file; never touches the
/// simulator process. `--once` renders a single frame (for scripts and
/// CI); interactive mode refreshes until the `final` record lands.
fn cmd_top(args: &Args) -> Result<ExitCode, String> {
    let target = &args.positionals[0];
    let once = args.flag("--once");
    let refresh_ms = args.get("--refresh-ms")?.unwrap_or(500);
    let path = obs::dash::resolve_artifact(Path::new(target))?;
    if path.file_name().and_then(|n| n.to_str()) == Some("RUNINFO.json") {
        return Err(format!(
            "{target}: found a RUNINFO.json but no TIMELINE.jsonl; `sonet top` needs a timeline \
             (run with --obs=deep or --obs-interval)"
        ));
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
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        let done = series.rows.last().is_some_and(|r| r.trigger == "final");
        if interactive {
            // Home + clear-to-end keeps the frame flicker-free.
            print!("\x1b[H\x1b[2J");
        }
        print!("{}", obs::dash::render_frame(&series));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if once || done || !interactive {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_millis(refresh_ms));
    }
}

/// `sonet diff <a> <b> [--gate PCT]`: regression table between two runs,
/// from their `TIMELINE.jsonl` or `RUNINFO.json` artifacts (a directory
/// selects its timeline, then its manifest). With `--gate`, exits
/// nonzero when any regression exceeds PCT percent.
fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let gate: Option<f64> = args.get("--gate")?;
    let load = |p: &String| obs::dash::load_series(Path::new(p));
    let (a, b) = (load(&args.positionals[0])?, load(&args.positionals[1])?);
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
            return Ok(ExitCode::FAILURE);
        }
        report::line(&format!("no regressions beyond {pct}%"));
    }
    Ok(ExitCode::SUCCESS)
}

/// `export-fleet` and `export-matrix`: run the fleet day the flags
/// select, derive the artifact from it, and write it to the positional
/// path. Returns the artifact and the path for the command's message.
fn cmd_export<T>(
    args: &Args,
    derive: impl FnOnce(FleetData) -> Result<T, String>,
    write: impl FnOnce(std::fs::File, &T) -> std::io::Result<()>,
) -> Result<(T, &str), String> {
    let path = args.positionals[0].as_str();
    let fleet =
        FleetData::run(&fleet_config(args)?).map_err(|e| format!("fleet run failed: {e}"))?;
    let artifact = derive(fleet)?;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write(file, &artifact).map_err(|e| format!("export failed: {e}"))?;
    Ok((artifact, path))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        report::line(&usage());
        return ExitCode::FAILURE;
    };
    match parse(cmd, rest).and_then(|args| execute(cmd, &args)) {
        Ok(code) => code,
        Err(e) => {
            report::line(&e);
            ExitCode::FAILURE
        }
    }
}

/// Applies the process-wide flags (flight recorder, worker count), runs
/// `cmd`, then exports the span trace.
fn execute(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    start_obs(args)?;
    // The explicit count becomes the process-wide default, so analysis
    // stages that fan out internally see the same setting.
    if let Some(n) = args.get("--threads")? {
        par::set_threads(n);
    }
    let result = match cmd {
        "list" => {
            println!("experiments:");
            for (id, what) in EXPERIMENTS {
                println!("  {id:<8} {what}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "run" => cmd_run(args),
        "all" => cmd_all(args),
        "capture" => cmd_capture(args),
        "fleet" => cmd_fleet(args),
        "chaos" => cmd_chaos(args),
        "top" => cmd_top(args),
        "diff" => cmd_diff(args),
        "export-fleet" => cmd_export(
            args,
            |fleet| Ok(fleet.table.rows().iter().map(|r| r.rec).collect::<Vec<_>>()),
            |file, records| sonet_dc::telemetry::export::write_flows(file, records),
        )
        .map(|(records, path)| {
            println!("wrote {} Fbflow samples to {path}", records.len());
            ExitCode::SUCCESS
        }),
        "export-matrix" => cmd_export(
            args,
            |fleet| reports::fig5(&fleet).map_err(|e| format!("fig5 failed: {e}")),
            |file, f5| sonet_dc::telemetry::export::write_matrix_csv(file, &f5.frontend_matrix),
        )
        .map(|(_, path)| {
            println!("wrote frontend rack-to-rack matrix to {path}");
            ExitCode::SUCCESS
        }),
        other => unreachable!("parse accepted unknown command {other}"),
    };
    finish_obs(args);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace()
            .map(|t| t.trim_matches('"').to_owned())
            .collect()
    }

    fn parse_line(line: &str) -> Result<Args, String> {
        let toks = argv(line);
        parse(&toks[0], &toks[1..])
    }

    /// Every `--bin sonet -- …` command line in the README and the CI
    /// workflow, with `\` continuations joined and `#` comments cut.
    fn documented_commands() -> Vec<String> {
        let docs = [
            include_str!("../../README.md"),
            include_str!("../../.github/workflows/ci.yml"),
        ];
        let mut out = Vec::new();
        for doc in docs {
            for line in doc.replace("\\\n", " ").lines() {
                if let Some((_, cmd)) = line.split_once("--bin sonet -- ") {
                    out.extend(cmd.split(" #").next().map(str::to_owned));
                }
            }
        }
        out
    }

    #[test]
    fn every_documented_command_parses() {
        let cmds = documented_commands();
        assert!(cmds.len() >= 20, "found only {cmds:?}");
        // The typed getters accept every documented value too.
        let values = |args: Args| -> Result<(), String> {
            args.seed()?;
            args.fidelity()?;
            args.obs_mode()?;
            args.get::<usize>("--threads")?;
            args.get::<u64>("--obs-interval")?;
            supervise_options(&args).map(drop)
        };
        for line in &cmds {
            if let Err(e) = parse_line(line).and_then(values) {
                panic!("`sonet {line}`: {e}");
            }
        }
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        let text = usage();
        for (name, positionals, _) in COMMANDS {
            assert!(text.contains(name), "usage lacks command {name}");
            for p in *positionals {
                assert!(text.contains(p), "usage lacks {name} {p}");
            }
        }
        for f in FLAGS {
            assert!(text.contains(&f.spelled()), "usage lacks {}", f.spelled());
            for c in f.cmds {
                assert!(
                    COMMANDS.iter().any(|(n, _, _)| n == c),
                    "{} names unknown command {c}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn equals_and_space_forms_agree_and_obs_value_is_optional() {
        let seed = |line: &str| parse_line(line).and_then(|a| a.seed());
        assert_eq!(seed("capture --seed=7"), Ok(7));
        assert_eq!(seed("capture --seed 7"), Ok(7));
        assert_eq!(seed("capture"), Ok(DEFAULT_SEED));

        let obs = |line: &str| parse_line(line).and_then(|a| a.obs_mode());
        assert_eq!(obs("capture --obs --threads 4"), Ok(ObsMode::Summary));
        assert_eq!(obs("capture --obs deep"), Ok(ObsMode::Deep));
        assert_eq!(obs("capture --obs=deep"), Ok(ObsMode::Deep));
        assert_eq!(obs("capture --obs=deep --obs"), Ok(ObsMode::Summary));
        assert_eq!(obs("capture"), Ok(ObsMode::Off));
        let threads = parse_line("capture --obs --threads 4").and_then(|a| a.get("--threads"));
        assert_eq!(threads, Ok(Some(4usize)));
    }

    #[test]
    fn arity_is_per_command() {
        let chaos = parse_line("chaos --resume --seeds 2").expect("chaos --resume is a switch");
        assert!(chaos.flag("--resume") && chaos.path("--resume").is_none());
        let cap = parse_line("capture --resume ckpts/capture.ckpt").expect("capture --resume FILE");
        assert_eq!(
            cap.path("--resume"),
            Some(PathBuf::from("ckpts/capture.ckpt"))
        );
        let err = parse_line("capture --resume").expect_err("capture --resume needs a file");
        assert!(err.starts_with("--resume needs a value"), "{err}");
        let err = parse_line("chaos --resume=x").expect_err("a switch takes no value");
        assert!(err.starts_with("--resume takes no value"), "{err}");
    }
}
