//! Supervised, checkpointable runs of the two data substrates.
//!
//! A plain [`StandardCapture::run`] or [`FleetData::run`] is
//! all-or-nothing: kill the process and everything is lost. The
//! supervised drivers here advance the same deterministic machinery in
//! small steps and, at every step boundary:
//!
//! 1. **audit** the engine's invariants (packet conservation, link-rate
//!    bounds, calendar monotonicity, telemetry accounting) when auditing
//!    is on — always in debug builds, via the `audit` feature in release;
//! 2. **checkpoint** full dynamic state to disk atomically (write to a
//!    temp file, fsync, rename, fsync the directory), so a crash leaves
//!    either the old or the new checkpoint, never a torn one;
//! 3. **check the budget** ([`RunBudget`]) and stop cooperatively at this
//!    clean boundary when wall-clock, event, or memory limits trip.
//!
//! Resuming from a checkpoint replays nothing and recomputes nothing
//! random: static structure (plant, rosters, schedules) is rebuilt from
//! the config — it is a pure function of it — and dynamic state (RNG
//! streams, calendars, counters, capture buffers) is restored bit-for-bit.
//! A resumed run therefore produces **byte-identical** final reports to an
//! uninterrupted one; the determinism suite asserts exactly that.

use crate::capture::{CaptureConfig, CaptureState, StandardCapture};
use crate::fleet_run::{build_fleet_model, FleetData, FleetRunConfig, FleetRunError};
use crate::supervisor::{RunBudget, RunSupervisor, StopReason};
use serde::{Deserialize, Serialize};
use sonet_netsim::{AuditReport, AuditViolation, EngineCheckpoint, Simulator};
use sonet_telemetry::{export::read_flows, FlowRecord, PortMirror, TraceSpool};
use sonet_util::{SimDuration, SimTime};
use sonet_workload::{FleetModelState, WorkloadCheckpoint};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the rolling capture checkpoint inside the checkpoint dir.
pub const CAPTURE_CKPT: &str = "capture.ckpt";
/// File name of the rolling fleet checkpoint inside the checkpoint dir.
pub const FLEET_CKPT: &str = "fleet.ckpt";
/// File name of the fleet sample spool inside the checkpoint dir.
pub const FLEET_SPOOL: &str = "fleet_samples.jsonl";
/// File name of the flight-recorder run manifest inside the checkpoint
/// dir (written only when observability is on).
pub const RUNINFO: &str = "RUNINFO.json";

/// How a run is supervised: where checkpoints go, how often they are
/// taken, what budget applies, and whether the auditor runs.
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Directory holding the rolling checkpoint (and, for fleet runs, the
    /// sample spool). Created if missing.
    pub checkpoint_dir: PathBuf,
    /// Virtual-time interval between capture checkpoints (rounded up to
    /// the engine's 250 ms generation windows).
    pub every: SimDuration,
    /// Resource budget; checked at every checkpoint boundary.
    pub budget: RunBudget,
    /// Whether the invariant auditor runs at checkpoint boundaries.
    /// `None` means the build decides: on under `debug_assertions` or the
    /// `audit` cargo feature, off otherwise.
    pub audit: Option<bool>,
    /// Fleet runs: hosts sampled per chunk between checkpoints.
    pub hosts_per_chunk: u32,
    /// Worker-thread override for this run. Takes precedence over the
    /// config's own setting — which is how `--resume --threads N` runs a
    /// checkpoint under a different thread count than the original run
    /// (the output is identical either way; only wall-clock changes).
    pub threads: Option<usize>,
}

impl SuperviseOptions {
    /// Sensible defaults: checkpoint every 2 simulated seconds (capture)
    /// or 64 hosts (fleet), no budget, build-default auditing.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> SuperviseOptions {
        SuperviseOptions {
            checkpoint_dir: checkpoint_dir.into(),
            every: SimDuration::from_secs(2),
            budget: RunBudget::unlimited(),
            audit: None,
            hosts_per_chunk: 64,
            threads: None,
        }
    }

    fn audit_enabled(&self) -> bool {
        self.audit
            .unwrap_or(cfg!(any(feature = "audit", debug_assertions)))
    }

    /// Path of the rolling capture checkpoint under this options' dir.
    pub fn capture_checkpoint_path(&self) -> PathBuf {
        self.checkpoint_dir.join(CAPTURE_CKPT)
    }

    /// Path of the rolling fleet checkpoint under this options' dir.
    pub fn fleet_checkpoint_path(&self) -> PathBuf {
        self.checkpoint_dir.join(FLEET_CKPT)
    }

    /// Path of the fleet sample spool under this options' dir.
    pub fn fleet_spool_path(&self) -> PathBuf {
        self.checkpoint_dir.join(FLEET_SPOOL)
    }

    /// Path of the run manifest under this options' dir.
    pub fn runinfo_path(&self) -> PathBuf {
        self.checkpoint_dir.join(RUNINFO)
    }
}

/// Freezes and writes the run manifest, if one is being kept. Failures
/// to write are reported, never fatal — observability must not take a
/// run down.
fn finish_runinfo(
    runinfo: &mut Option<sonet_util::obs::runinfo::RunInfo>,
    path: &Path,
    status: String,
    notes: Vec<String>,
) {
    if let Some(mut ri) = runinfo.take() {
        for n in notes {
            ri.note(n);
        }
        ri.finish(status);
        if let Err(e) = ri.write_atomic(path) {
            sonet_util::obs::report::warn(&format!("could not write {}: {e}", path.display()));
        }
    }
}

/// Surfaces a supervised-run failure into the metrics registry and
/// returns the manifest notes describing it. Audit reports get their
/// violation count as a gauge — a supervised run records *why* it
/// degraded, not just that it did.
fn error_obs(e: &SupervisedError) -> Vec<String> {
    use sonet_util::obs;
    if let SupervisedError::Audit(r) = e {
        obs::gauge_set!("supervisor.audit_violations", r.violations.len() as u64);
    }
    vec![format!("{e}")]
}

/// Errors from supervised runs.
#[derive(Debug)]
pub enum SupervisedError {
    /// Checkpoint or spool I/O failed.
    Io(io::Error),
    /// A checkpoint file exists but does not describe a resumable run
    /// (parse failure, dimension mismatch, spool disagreement).
    Corrupt(String),
    /// The invariant auditor found violations.
    Audit(AuditReport),
    /// The run's own machinery failed to build or advance.
    Build(String),
    /// A fleet config was rejected.
    Fleet(FleetRunError),
}

impl fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisedError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            SupervisedError::Corrupt(e) => write!(f, "checkpoint unusable: {e}"),
            SupervisedError::Audit(r) => write!(f, "{r}"),
            SupervisedError::Build(e) => write!(f, "run failed: {e}"),
            SupervisedError::Fleet(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SupervisedError {}

impl From<io::Error> for SupervisedError {
    fn from(e: io::Error) -> SupervisedError {
        SupervisedError::Io(e)
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Ran to the configured horizon; results are final.
    Completed,
    /// Stopped cooperatively at a checkpoint boundary; the checkpoint on
    /// disk resumes the run.
    Stopped(StopReason),
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A crash at any
/// point leaves either the previous checkpoint or the new one intact.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Flight recorder: checkpoint write latency + size. The wall-clock
    // read lives behind the obs gate, strictly on the side channel.
    let started = sonet_util::obs::on().then(std::time::Instant::now);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    if let Some(started) = started {
        use sonet_util::obs;
        obs::counter_add!("supervisor.checkpoints", 1);
        obs::gauge_set!("supervisor.checkpoint_bytes", bytes.len() as u64);
        obs::hist_observe!(
            "supervisor.checkpoint_write_us",
            started.elapsed().as_micros() as u64,
            obs::metrics::BOUNDS_POW4
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Capture tier
// ---------------------------------------------------------------------

/// On-disk snapshot of a supervised capture run. Static structure (plant,
/// monitored hosts, telemetry schedule) is *not* stored — it is rebuilt
/// from `config` on resume; everything dynamic is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaptureCheckpoint {
    /// The run's configuration (resume rebuilds static structure from it).
    pub config: CaptureConfig,
    /// Virtual time of the snapshot (a generation-window boundary).
    pub at: SimTime,
    /// Telemetry-fault cursor.
    pub tel_next: u64,
    /// Engine dynamic state.
    pub engine: EngineCheckpoint,
    /// Workload dynamic state (RNG streams, burst schedules, pool).
    pub workload: WorkloadCheckpoint,
    /// The capture buffer itself (the engine's tap).
    pub mirror: PortMirror,
}

/// Runs a capture under supervision from the start.
pub fn run_capture(
    cfg: &CaptureConfig,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<StandardCapture>), SupervisedError> {
    let state = CaptureState::build(cfg).map_err(SupervisedError::Build)?;
    drive_capture(cfg.clone(), state, opts)
}

/// Resumes a capture from a checkpoint file written by a prior supervised
/// run. The resumed run's final report is byte-identical to what the
/// uninterrupted run would have produced.
pub fn resume_capture(
    ckpt_path: &Path,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<StandardCapture>), SupervisedError> {
    let text = fs::read_to_string(ckpt_path)?;
    let ckpt: CaptureCheckpoint = serde_json::from_str(&text)
        .map_err(|e| SupervisedError::Corrupt(format!("{}: {e}", ckpt_path.display())))?;
    let cfg = ckpt.config.clone();
    let mut statics = CaptureState::rebuild_static(&cfg).map_err(SupervisedError::Build)?;
    statics
        .workload
        .restore(ckpt.workload)
        .map_err(|e| SupervisedError::Corrupt(e.to_string()))?;
    let sim = Simulator::restore(statics.topo.clone(), ckpt.mirror, ckpt.engine)
        .map_err(|e| SupervisedError::Corrupt(e.to_string()))?;
    if ckpt.tel_next as usize > statics.telemetry.len() {
        return Err(SupervisedError::Corrupt(format!(
            "telemetry cursor {} exceeds the {} scheduled events",
            ckpt.tel_next,
            statics.telemetry.len()
        )));
    }
    let state = CaptureState {
        topo: statics.topo,
        workload: statics.workload,
        sim,
        monitored: statics.monitored,
        telemetry: statics.telemetry,
        tel_next: ckpt.tel_next as usize,
        t: ckpt.at,
    };
    drive_capture(cfg, state, opts)
}

fn drive_capture(
    cfg: CaptureConfig,
    mut state: CaptureState,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<StandardCapture>), SupervisedError> {
    use sonet_util::obs;
    fs::create_dir_all(&opts.checkpoint_dir)?;
    let ckpt_path = opts.capture_checkpoint_path();
    let audit_on = opts.audit_enabled();
    // Flight recorder: run manifest + heartbeat. Strictly write-only side
    // channel — a run behaves identically with this on or off.
    let mut runinfo = obs::on().then(|| {
        let mut ri = obs::runinfo::RunInfo::start(
            "capture",
            cfg.seed,
            &serde_json::to_string(&cfg).unwrap_or_default(),
            sonet_util::par::resolve_threads(opts.threads),
        );
        if !cfg.faults.is_empty() {
            let hash = crate::chaos::plan_hash(&cfg.faults);
            obs::trace::set_export_meta("fault_plan_hash", hash.clone());
            ri.fault_plan_hash = Some(hash);
        }
        ri
    });
    let runinfo_path = opts.runinfo_path();
    let mut hb = obs::report::Heartbeat::new("capture");
    let sup = RunSupervisor::new(opts.budget.clone());
    let horizon = SimTime::ZERO + cfg.duration;
    // Streaming timeline: install next to the checkpoint unless the CLI
    // already installed one (e.g. a campaign-wide timeline). Window
    // snapshots fire from inside the engine; checkpoint and final records
    // are driven from this loop. Write-only side channel — scheduling
    // reads nothing but the sim clock.
    if obs::on() && !obs::timeline::installed() {
        let tl = opts.checkpoint_dir.join(obs::timeline::TIMELINE);
        if let Err(e) = obs::timeline::install(&tl) {
            obs::report::warn(&format!("timeline install failed: {e}"));
        }
    }
    if obs::timeline::installed() {
        obs::timeline::set_horizon_ns(horizon.as_nanos());
        let hash = (!cfg.faults.is_empty()).then(|| crate::chaos::plan_hash(&cfg.faults));
        obs::timeline::set_identity(hash, None);
    }
    let mut next_ckpt = state.t + opts.every;
    while state.t < horizon {
        state.advance(horizon).map_err(SupervisedError::Build)?;
        hb.tick_progress(
            state.sim.processed_events(),
            Some((state.t.as_nanos(), horizon.as_nanos())),
        );
        if state.t < next_ckpt && state.t < horizon {
            continue;
        }
        // A clean boundary: audit, checkpoint, then honor the budget.
        if audit_on {
            if let Err(e) = audit_capture(&state) {
                let notes = error_obs(&e);
                obs::timeline::finish(state.t.as_nanos());
                finish_runinfo(
                    &mut runinfo,
                    &runinfo_path,
                    "failed: audit".to_owned(),
                    notes,
                );
                return Err(e);
            }
            obs::gauge_set!("supervisor.audit_violations", 0);
        }
        let snapshot = CaptureCheckpoint {
            config: cfg.clone(),
            at: state.t,
            tel_next: state.tel_next as u64,
            engine: state.sim.checkpoint(),
            workload: state.workload.checkpoint(),
            mirror: state.sim.tap().clone(),
        };
        let text =
            serde_json::to_string(&snapshot).map_err(|e| SupervisedError::Build(e.to_string()))?;
        atomic_write(&ckpt_path, text.as_bytes())?;
        obs::timeline::checkpoint(state.t.as_nanos());
        next_ckpt = state.t + opts.every;
        if state.t < horizon {
            if let Some(reason) = sup.check(state.sim.processed_events()) {
                obs::timeline::finish(state.t.as_nanos());
                finish_runinfo(
                    &mut runinfo,
                    &runinfo_path,
                    format!("stopped: {reason}"),
                    Vec::new(),
                );
                return Ok((RunStatus::Stopped(reason), None));
            }
        }
    }
    let final_ns = state.t.as_nanos();
    let capture = state.finish(&cfg);
    if runinfo.is_some() {
        let deg = crate::reports::degradation(&capture);
        deg.publish_obs();
        let notes = if deg.is_clean() {
            Vec::new()
        } else {
            vec![format!("degradation: {}", deg.summary_line())]
        };
        // The timeline's final record is cut before the manifest snapshot,
        // with no metric writes in between, so the summed counter deltas
        // equal the RUNINFO finals exactly.
        obs::timeline::finish(final_ns);
        finish_runinfo(&mut runinfo, &runinfo_path, "completed".to_owned(), notes);
    }
    Ok((RunStatus::Completed, Some(capture)))
}

/// Audits the engine plus the telemetry-accounting invariant the engine
/// cannot see (it owns the tap but not its counters): packets offered to
/// the mirror must equal captured + overflowed + fault-dropped.
fn audit_capture(state: &CaptureState) -> Result<(), SupervisedError> {
    state.sim.audit().map_err(SupervisedError::Audit)?;
    let m = state.sim.tap();
    let captured = m.records().len() as u64;
    if m.offered() != captured + m.overflow() + m.fault_dropped() {
        return Err(SupervisedError::Audit(AuditReport {
            at: state.t,
            violations: vec![AuditViolation::TelemetryAccounting {
                offered: m.offered(),
                captured,
                overflow: m.overflow(),
                fault_dropped: m.fault_dropped(),
            }],
        }));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Fleet tier
// ---------------------------------------------------------------------

/// On-disk snapshot of a supervised fleet run. Samples themselves live in
/// the crash-safe spool next to the checkpoint; the checkpoint records how
/// many spooled lines are durable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// The run's configuration.
    pub config: FleetRunConfig,
    /// Generator dynamic state (host cursor + relaxation counter; RNG
    /// streams are per-host forks and need no saving).
    pub model: FleetModelState,
    /// Durable lines in the sample spool at snapshot time.
    pub spool_lines: u64,
}

/// Runs the fleet tier under supervision from the start.
pub fn run_fleet(
    cfg: &FleetRunConfig,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<FleetData>), SupervisedError> {
    let (topo, mut model) = build_fleet_model(cfg).map_err(SupervisedError::Fleet)?;
    model.set_parallelism(opts.threads);
    fs::create_dir_all(&opts.checkpoint_dir)?;
    let spool = TraceSpool::create(opts.fleet_spool_path())?;
    drive_fleet(cfg.clone(), topo, model, spool, Vec::new(), opts)
}

/// Resumes a fleet run from its checkpoint, recovering already-generated
/// samples from the spool (truncating any appended after the checkpoint).
pub fn resume_fleet(
    ckpt_path: &Path,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<FleetData>), SupervisedError> {
    let text = fs::read_to_string(ckpt_path)?;
    let ckpt: FleetCheckpoint = serde_json::from_str(&text)
        .map_err(|e| SupervisedError::Corrupt(format!("{}: {e}", ckpt_path.display())))?;
    let cfg = ckpt.config.clone();
    let (topo, mut model) = build_fleet_model(&cfg).map_err(SupervisedError::Fleet)?;
    model.set_parallelism(opts.threads);
    model
        .restore_state(ckpt.model)
        .map_err(SupervisedError::Corrupt)?;
    let spool_path = opts.fleet_spool_path();
    let spool = TraceSpool::resume(&spool_path, ckpt.spool_lines).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            SupervisedError::Corrupt(e.to_string())
        } else {
            SupervisedError::Io(e)
        }
    })?;
    let (samples, stats) = read_flows(File::open(&spool_path)?)?;
    if stats.skipped > 0 || stats.ok != ckpt.spool_lines {
        return Err(SupervisedError::Corrupt(format!(
            "spool {} re-read as {} ok / {} skipped lines, checkpoint expects {}",
            spool_path.display(),
            stats.ok,
            stats.skipped,
            ckpt.spool_lines
        )));
    }
    drive_fleet(cfg, topo, model, spool, samples, opts)
}

fn drive_fleet(
    cfg: FleetRunConfig,
    topo: std::sync::Arc<sonet_topology::Topology>,
    mut model: sonet_workload::FleetModel,
    mut spool: TraceSpool,
    mut samples: Vec<FlowRecord>,
    opts: &SuperviseOptions,
) -> Result<(RunStatus, Option<FleetData>), SupervisedError> {
    use sonet_util::obs;
    let ckpt_path = opts.fleet_checkpoint_path();
    let audit_on = opts.audit_enabled();
    let mut runinfo = obs::on().then(|| {
        obs::runinfo::RunInfo::start(
            "fleet",
            cfg.seed,
            &serde_json::to_string(&cfg).unwrap_or_default(),
            sonet_util::par::resolve_threads(opts.threads),
        )
    });
    let runinfo_path = opts.runinfo_path();
    let mut hb = obs::report::Heartbeat::new("fleet");
    let sup = RunSupervisor::new(opts.budget.clone());
    let chunk_hosts = opts.hosts_per_chunk.max(1);
    // Fleet timeline: the fleet tier has no global sim clock, so records
    // advance in generated-host units — sim_ns counts hosts done and the
    // horizon is the fleet size. `sonet top` renders progress the same
    // way either way.
    let total_hosts = topo.hosts().len() as u64;
    if obs::on() && !obs::timeline::installed() {
        let tl = opts.checkpoint_dir.join(obs::timeline::TIMELINE);
        if let Err(e) = obs::timeline::install(&tl) {
            obs::report::warn(&format!("timeline install failed: {e}"));
        }
    }
    obs::timeline::set_horizon_ns(total_hosts);
    while !model.exhausted() {
        let chunk = {
            let _span = obs::trace::span("generate");
            model.generate_chunk(chunk_hosts)
        };
        for r in &chunk {
            spool.append(r)?;
        }
        samples.extend(chunk);
        // A clean boundary: make the spool durable, audit the accounting,
        // snapshot the generator, then honor the budget.
        let durable = spool.sync()?;
        obs::gauge_set!("fleet.samples", samples.len() as u64);
        obs::gauge_set!("fleet.spool_durable_lines", durable);
        hb.tick_progress(
            samples.len() as u64,
            Some((model.hosts_done() as u64, total_hosts)),
        );
        if audit_on {
            if let Err(e) = audit_fleet(&cfg, &model, &samples, durable) {
                let notes = error_obs(&e);
                obs::timeline::finish(model.hosts_done() as u64);
                finish_runinfo(
                    &mut runinfo,
                    &runinfo_path,
                    "failed: audit".to_owned(),
                    notes,
                );
                return Err(e);
            }
            obs::gauge_set!("supervisor.audit_violations", 0);
        }
        let snapshot = FleetCheckpoint {
            config: cfg.clone(),
            model: model.state(),
            spool_lines: durable,
        };
        let text =
            serde_json::to_string(&snapshot).map_err(|e| SupervisedError::Build(e.to_string()))?;
        atomic_write(&ckpt_path, text.as_bytes())?;
        obs::timeline::checkpoint(model.hosts_done() as u64);
        if !model.exhausted() {
            if let Some(reason) = sup.check(samples.len() as u64) {
                obs::timeline::finish(model.hosts_done() as u64);
                finish_runinfo(
                    &mut runinfo,
                    &runinfo_path,
                    format!("stopped: {reason}"),
                    Vec::new(),
                );
                return Ok((RunStatus::Stopped(reason), None));
            }
        }
    }
    // Chunks are per-host, so `samples` is the one-shot path's stream
    // before its sort; the same stable sort makes the assembled table
    // byte-identical to an uninterrupted run's.
    sonet_workload::fleet::sort_by_time(&mut samples);
    let data = FleetData::assemble(&cfg, topo, samples, model.relaxed_picks(), opts.threads);
    obs::timeline::finish(model.hosts_done() as u64);
    finish_runinfo(
        &mut runinfo,
        &runinfo_path,
        "completed".to_owned(),
        Vec::new(),
    );
    Ok((RunStatus::Completed, Some(data)))
}

/// Fleet-tier accounting invariants: every generated sample is in memory
/// and durable in the spool, and the generator emitted exactly
/// `samples_per_host` records per completed host.
fn audit_fleet(
    cfg: &FleetRunConfig,
    model: &sonet_workload::FleetModel,
    samples: &[FlowRecord],
    durable_lines: u64,
) -> Result<(), SupervisedError> {
    let expected = model.hosts_done() as u64 * cfg.samples_per_host as u64;
    if samples.len() as u64 != expected {
        return Err(SupervisedError::Corrupt(format!(
            "fleet accounting: {} samples in memory, {} hosts done x {} samples/host = {}",
            samples.len(),
            model.hosts_done(),
            cfg.samples_per_host,
            expected
        )));
    }
    if durable_lines != samples.len() as u64 {
        return Err(SupervisedError::Corrupt(format!(
            "fleet accounting: spool holds {durable_lines} durable lines, memory holds {}",
            samples.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioScale;
    use std::time::Duration;

    fn temp_dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sonet-supervised-{}-{name}", std::process::id()));
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn tiny_capture(seed: u64) -> CaptureConfig {
        CaptureConfig {
            duration: SimDuration::from_secs(1),
            ..CaptureConfig::fast(seed)
        }
    }

    #[test]
    fn supervised_capture_completes_and_matches_plain_run() {
        let dir = temp_dir("cap-complete");
        let cfg = tiny_capture(5);
        let opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            ..SuperviseOptions::new(&dir)
        };
        let (status, cap) = run_capture(&cfg, &opts).expect("run");
        assert_eq!(status, RunStatus::Completed);
        let supervised = cap.expect("completed run yields a capture");
        let plain = StandardCapture::run(&cfg);
        let a = serde_json::to_string(&supervised.outputs).expect("json");
        let b = serde_json::to_string(&plain.outputs).expect("json");
        assert_eq!(a, b, "supervised run must not perturb the simulation");
        assert!(opts.capture_checkpoint_path().exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capture_stop_and_resume_is_byte_identical() {
        let dir = temp_dir("cap-resume");
        let cfg = tiny_capture(7);
        // Zero wall-clock budget: stops at the first checkpoint boundary.
        let stop_opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            budget: RunBudget {
                wall_clock: Some(Duration::ZERO),
                ..RunBudget::unlimited()
            },
            ..SuperviseOptions::new(&dir)
        };
        let (status, cap) = run_capture(&cfg, &stop_opts).expect("run");
        assert!(matches!(
            status,
            RunStatus::Stopped(StopReason::WallClock(_))
        ));
        assert!(cap.is_none());

        let resume_opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            ..SuperviseOptions::new(&dir)
        };
        let (status, cap) =
            resume_capture(&stop_opts.capture_checkpoint_path(), &resume_opts).expect("resume");
        assert_eq!(status, RunStatus::Completed);
        let resumed = cap.expect("capture");
        let plain = StandardCapture::run(&cfg);
        assert_eq!(
            serde_json::to_string(&resumed.outputs).expect("json"),
            serde_json::to_string(&plain.outputs).expect("json"),
            "kill + resume must be byte-identical to an uninterrupted run"
        );
        assert_eq!(resumed.issued_calls, plain.issued_calls);
        assert_eq!(resumed.mirror_offered, plain.mirror_offered);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_stop_and_resume_is_byte_identical() {
        let dir = temp_dir("fleet-resume");
        let cfg = FleetRunConfig::fast(11);
        let stop_opts = SuperviseOptions {
            hosts_per_chunk: 16,
            budget: RunBudget {
                wall_clock: Some(Duration::ZERO),
                ..RunBudget::unlimited()
            },
            ..SuperviseOptions::new(&dir)
        };
        let (status, data) = run_fleet(&cfg, &stop_opts).expect("run");
        assert!(matches!(status, RunStatus::Stopped(_)));
        assert!(data.is_none());

        let resume_opts = SuperviseOptions {
            hosts_per_chunk: 16,
            ..SuperviseOptions::new(&dir)
        };
        let (status, data) =
            resume_fleet(&stop_opts.fleet_checkpoint_path(), &resume_opts).expect("resume");
        assert_eq!(status, RunStatus::Completed);
        let resumed = data.expect("fleet data");
        let plain = FleetData::run(&cfg).expect("plain run");
        assert_eq!(
            serde_json::to_string(&resumed.table).expect("json"),
            serde_json::to_string(&plain.table).expect("json"),
            "kill + resume must be byte-identical to an uninterrupted run"
        );
        assert_eq!(resumed.relaxed_picks, plain.relaxed_picks);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_checkpoint_for_a_different_plant() {
        let dir = temp_dir("cap-mismatch");
        let cfg = tiny_capture(9);
        let opts = SuperviseOptions::new(&dir);
        let (_, cap) = run_capture(&cfg, &opts).expect("run");
        assert!(cap.is_some());

        // Corrupt the checkpoint: claim a different scale so the rebuilt
        // plant no longer matches the engine snapshot.
        let path = opts.capture_checkpoint_path();
        let text = fs::read_to_string(&path).expect("read");
        let mut ckpt: CaptureCheckpoint = serde_json::from_str(&text).expect("parse");
        ckpt.config.scale = ScenarioScale::Standard;
        fs::write(&path, serde_json::to_string(&ckpt).expect("json")).expect("write");
        match resume_capture(&path, &opts) {
            Err(SupervisedError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_truncated_fleet_spool() {
        let dir = temp_dir("fleet-spool-gone");
        let cfg = FleetRunConfig::fast(13);
        let opts = SuperviseOptions {
            hosts_per_chunk: 8,
            budget: RunBudget {
                wall_clock: Some(Duration::ZERO),
                ..RunBudget::unlimited()
            },
            ..SuperviseOptions::new(&dir)
        };
        let (status, _) = run_fleet(&cfg, &opts).expect("run");
        assert!(matches!(status, RunStatus::Stopped(_)));
        // Blow away spooled samples the checkpoint depends on.
        fs::write(opts.fleet_spool_path(), b"").expect("truncate");
        match resume_fleet(&opts.fleet_checkpoint_path(), &opts) {
            Err(SupervisedError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_budget_stops_a_capture_cooperatively() {
        let dir = temp_dir("cap-events");
        let cfg = tiny_capture(15);
        let opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            budget: RunBudget {
                max_events: Some(1),
                ..RunBudget::unlimited()
            },
            ..SuperviseOptions::new(&dir)
        };
        let (status, _) = run_capture(&cfg, &opts).expect("run");
        assert!(matches!(status, RunStatus::Stopped(StopReason::Events(_))));
        assert!(
            opts.capture_checkpoint_path().exists(),
            "a budget stop must leave a resumable checkpoint behind"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
