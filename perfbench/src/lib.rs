//! Layer-attributed benchmark for sonet-dc.
//!
//! The drivers here do what `sonet capture` and `sonet fleet` do, but
//! step by step through each layer's public functions, so every call can
//! be timed from outside: plant build, workload generation in 250 ms
//! windows, the engine, a mid-run checkpoint, trace building, the
//! paper's reports, and rendering. `tests/driver_equivalence.rs` checks
//! that the drivers produce the same bytes as the library's own runners.

pub mod trace;

use sonet_analysis::HostTrace;
use sonet_core::capture::MONITORED_ROLES;
use sonet_core::reports::{
    self, ConcurrencyReport, DegradationReport, Fig12Report, Fig13Report, Fig14Report, Fig4Report,
    Fig8Report, Fig9Report, FlowCdfReport, HitterDynamicsReport, Table2Report, Table4Report,
    TeReport, UtilizationReport,
};
use sonet_core::{
    fleet_spec, packet_tier_spec, CaptureCheckpoint, CaptureConfig, FleetData, FleetRunConfig,
    StandardCapture,
};
use sonet_netsim::{FidelityConfig, FidelityMode, ParallelStats, SimConfig, SimOutputs, Simulator};
use sonet_telemetry::{PortMirror, ScubaTable, Tagger};
use sonet_topology::{HostId, HostRole, Topology};
use sonet_util::{SimDuration, SimTime};
use sonet_workload::{FleetConfig, FleetModel, ServiceProfiles, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use trace::Tracer;

/// The generation-window stride `sonet capture` uses.
const WINDOW: SimDuration = SimDuration::from_millis(250);

/// A capture built up to its first window: plant, workload, and engine
/// with the port mirror as its tap.
pub struct CaptureSetup {
    topo: Arc<Topology>,
    workload: Workload,
    sim: Simulator<PortMirror>,
    monitored: HashMap<HostRole, HostId>,
}

/// Builds the plant, workload, and engine for `cfg` at engine `width`,
/// with mirrors on one host of each monitored role.
pub fn capture_setup(
    cfg: &CaptureConfig,
    width: usize,
    tr: &mut Tracer,
) -> Result<CaptureSetup, String> {
    if !cfg.faults.is_empty() {
        return Err("the benchmark drives healthy captures only".into());
    }
    let topo = tr
        .leaf("topology.build", || {
            Topology::build(packet_tier_spec(cfg.scale))
        })
        .map_err(|e| e.to_string())?;
    let topo = Arc::new(topo);
    let profiles = ServiceProfiles {
        rate_scale: cfg.rate_scale,
        ..ServiceProfiles::default()
    };
    let mut workload = tr
        .leaf("workload.new", || {
            Workload::new(Arc::clone(&topo), profiles, cfg.seed)
        })
        .map_err(|e| e.to_string())?;
    let span = tr.open("engine.new");
    let mut sim = Simulator::new(
        Arc::clone(&topo),
        SimConfig::default(),
        PortMirror::new(cfg.mirror_capacity),
    )
    .map_err(|e| e.to_string())?;
    if cfg.fidelity == FidelityMode::Hybrid {
        sim.set_fidelity(FidelityConfig::hybrid())
            .map_err(|e| e.to_string())?;
    }
    sim.set_parallel_width(Some(width));
    let mut monitored = HashMap::new();
    for role in MONITORED_ROLES {
        if let Some(h) = workload.monitored_host(role) {
            sim.watch_link(topo.host_uplink(h));
            sim.watch_link(topo.host_downlink(h));
            monitored.insert(role, h);
        }
    }
    if let Some(&h) = monitored.get(&HostRole::Hadoop) {
        workload.ensure_busy_start(h, cfg.duration.as_secs_f64());
    }
    tr.close(span);
    Ok(CaptureSetup {
        topo,
        workload,
        sim,
        monitored,
    })
}

/// Engine and workload counters read at the last window boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaptureCounters {
    /// Barrier and pool counters of the partitioned engine.
    pub parallel: ParallelStats,
    /// Events handled, packet plus fast-path.
    pub events: u64,
    /// Largest calendar size seen at a window boundary.
    pub calendar_peak: u64,
    /// Calls the workload issued.
    pub issued_calls: u64,
    /// Calls the workload skipped for lack of a destination.
    pub skipped_calls: u64,
    /// Bytes of the serialized mid-run checkpoint.
    pub checkpoint_bytes: u64,
    /// Packets the mirror captured.
    pub mirror_records: u64,
}

/// Everything a capture run hands back.
pub struct CaptureOutcome {
    /// The capture, as `StandardCapture::run` would return it.
    pub capture: StandardCapture,
    /// Every capture report, rendered.
    pub renders: Vec<String>,
    /// Counters read along the way.
    pub counters: CaptureCounters,
    /// The engine's audit after the last window.
    pub audit: Result<(), String>,
}

impl CaptureOutcome {
    /// Calls that ended badly: aborted connections, failed handshakes,
    /// messages on closed connections, reroute failures, skipped calls.
    pub fn failed_calls(&self) -> u64 {
        let o = &self.capture.outputs;
        o.aborted_connections
            + o.failed_handshakes
            + o.messages_on_closed
            + o.reroute_failures
            + self.counters.skipped_calls
    }

    /// Fingerprint of the engine outputs and every rendered report.
    pub fn fingerprint(&self) -> u64 {
        capture_fingerprint(&self.capture.outputs, &self.renders)
    }
}

/// Drives a set-up capture to its horizon in 250 ms windows, checkpoints
/// it to memory at the mid-run window boundary, audits the engine, then
/// builds the per-role traces and every report that takes a capture.
pub fn capture_run(
    cfg: &CaptureConfig,
    setup: CaptureSetup,
    width: usize,
    tr: &mut Tracer,
) -> Result<CaptureOutcome, String> {
    let CaptureSetup {
        topo,
        mut workload,
        mut sim,
        monitored,
    } = setup;
    let horizon = SimTime::ZERO + cfg.duration;
    let windows = cfg.duration.as_nanos().div_ceil(WINDOW.as_nanos());
    let checkpoint_after = (windows / 2).max(1);
    let mut counters = CaptureCounters::default();
    let mut t = SimTime::ZERO;
    let mut window = 0;
    while t < horizon {
        t = (t + WINDOW).min(horizon);
        tr.leaf("workload.generate", || workload.generate(&mut sim, t))
            .map_err(|e| e.to_string())?;
        tr.leaf("engine.run_until", || sim.run_until(t));
        counters.calendar_peak = counters.calendar_peak.max(sim.pending_events() as u64);
        window += 1;
        if window == checkpoint_after {
            let text = tr.leaf("checkpoint", || {
                serde_json::to_string(&CaptureCheckpoint {
                    config: cfg.clone(),
                    at: t,
                    tel_next: 0,
                    engine: sim.checkpoint(),
                    workload: workload.checkpoint(),
                    mirror: sim.tap().clone(),
                })
            });
            counters.checkpoint_bytes = text.map_err(|e| e.to_string())?.len() as u64;
        }
    }
    let audit = tr
        .leaf("engine.audit", || sim.audit())
        .map_err(|e| e.to_string());
    counters.parallel = sim.parallel_stats();
    counters.events = sim.processed_events();
    counters.issued_calls = workload.issued_calls();
    counters.skipped_calls = workload.skipped_calls();
    let (outputs, mirror) = tr.leaf("engine.finish", || sim.finish());

    let span = tr.open("analysis.traces");
    let truncated = mirror.truncated();
    let mirror_fault_dropped = mirror.fault_dropped();
    let mirror_overflow = mirror.overflow();
    let mirror_offered = mirror.offered();
    let records = mirror.into_records();
    counters.mirror_records = records.len() as u64;
    let roles: Vec<(HostRole, HostId)> = monitored.iter().map(|(&r, &h)| (r, h)).collect();
    let traces = sonet_util::par::map_indexed(width, roles.len(), |i| {
        (roles[i].0, HostTrace::from_mirror(&records, roles[i].1))
    })
    .into_iter()
    .collect();
    drop(records);
    tr.close(span);

    let capture = StandardCapture {
        topo,
        monitored,
        traces,
        outputs,
        duration: cfg.duration,
        truncated,
        issued_calls: counters.issued_calls,
        mirror_fault_dropped,
        mirror_overflow,
        mirror_offered,
    };
    let reports = tr.leaf("analysis.capture_reports", || CaptureReports::new(&capture));
    let renders = tr.leaf("render", || reports.render());
    Ok(CaptureOutcome {
        capture,
        renders,
        counters,
        audit,
    })
}

/// Every report that takes a [`StandardCapture`].
pub struct CaptureReports {
    table2: Table2Report,
    table4: Table4Report,
    fig4: Fig4Report,
    fig6: FlowCdfReport,
    fig7: FlowCdfReport,
    fig8: Option<Fig8Report>,
    fig9: Option<Fig9Report>,
    fig10: HitterDynamicsReport,
    fig11: HitterDynamicsReport,
    fig12: Fig12Report,
    fig13: Option<Fig13Report>,
    fig14: Fig14Report,
    fig16: ConcurrencyReport,
    fig17: ConcurrencyReport,
    util: UtilizationReport,
    te: TeReport,
    degradation: DegradationReport,
}

impl CaptureReports {
    /// Computes every capture report.
    pub fn new(cap: &StandardCapture) -> CaptureReports {
        CaptureReports {
            table2: reports::table2(cap),
            table4: reports::table4(cap),
            fig4: reports::fig4(cap),
            fig6: reports::fig6(cap),
            fig7: reports::fig7(cap),
            fig8: reports::fig8(cap),
            fig9: reports::fig9(cap),
            fig10: reports::fig10(cap),
            fig11: reports::fig11(cap),
            fig12: reports::fig12(cap),
            fig13: reports::fig13(cap),
            fig14: reports::fig14(cap),
            fig16: reports::fig16(cap),
            fig17: reports::fig17(cap),
            util: reports::utilization(cap),
            te: reports::te_predictability(cap),
            degradation: reports::degradation(cap),
        }
    }

    /// Renders every report; a report whose trace is missing renders as
    /// an empty string.
    pub fn render(&self) -> Vec<String> {
        vec![
            self.table2.render(),
            self.table4.render(),
            self.fig4.render(),
            self.fig6.render(),
            self.fig7.render(),
            self.fig8
                .as_ref()
                .map(Fig8Report::render)
                .unwrap_or_default(),
            self.fig9
                .as_ref()
                .map(Fig9Report::render)
                .unwrap_or_default(),
            self.fig10.render(),
            self.fig11.render(),
            self.fig12.render(),
            self.fig13
                .as_ref()
                .map(Fig13Report::render)
                .unwrap_or_default(),
            self.fig14.render(),
            self.fig16.render(),
            self.fig17.render(),
            self.util.render(),
            self.te.render(),
            self.degradation.render(),
        ]
    }
}

/// A fleet run built up to generation: plant and sample generator.
pub struct FleetSetup {
    topo: Arc<Topology>,
    model: FleetModel,
}

/// Builds the fleet plant and generator for `cfg` at `width` workers.
pub fn fleet_setup(
    cfg: &FleetRunConfig,
    width: usize,
    tr: &mut Tracer,
) -> Result<FleetSetup, String> {
    if cfg.agent_loss != 0.0 {
        return Err("the benchmark drives loss-free fleet runs only".into());
    }
    let topo = tr
        .leaf("topology.build", || Topology::build(fleet_spec(cfg.scale)))
        .map_err(|e| e.to_string())?;
    let topo = Arc::new(topo);
    let mut model = tr.leaf("fleet.new", || {
        FleetModel::new(
            Arc::clone(&topo),
            FleetConfig {
                samples_per_host: cfg.samples_per_host,
                ..FleetConfig::default()
            },
            cfg.seed,
        )
    });
    model.set_parallelism(Some(width));
    Ok(FleetSetup { topo, model })
}

/// Everything a fleet run hands back.
pub struct FleetOutcome {
    /// The tagged table, as `FleetData::run_with` would return it.
    pub data: FleetData,
    /// Table 3 and Fig 5, rendered.
    pub renders: Vec<String>,
    /// Samples the generator produced.
    pub generated: u64,
}

impl FleetOutcome {
    /// Fingerprint of the tagged table and both rendered reports.
    pub fn fingerprint(&self) -> u64 {
        fleet_fingerprint(&self.data.table, &self.renders)
    }
}

/// Generates the day of samples, tags them, and computes and renders
/// Table 3 and Fig 5.
pub fn fleet_run(setup: FleetSetup, width: usize, tr: &mut Tracer) -> Result<FleetOutcome, String> {
    let FleetSetup { topo, mut model } = setup;
    let samples = tr.leaf("fleet.generate", || model.generate());
    let table = tr.leaf("telemetry.tag", || {
        Tagger::new(&topo).ingest_sharded(&samples, width)
    });
    let generated = samples.len() as u64;
    drop(samples);
    let data = FleetData {
        topo,
        table,
        relaxed_picks: model.relaxed_picks(),
        agent_dropped: 0,
    };
    let table3 = tr.leaf("analysis.table3", || reports::table3(&data));
    let fig5 = tr
        .leaf("analysis.fig5", || reports::fig5(&data))
        .map_err(|e| e.to_string())?;
    let renders = tr.leaf("render", || vec![table3.render(), fig5.render()]);
    Ok(FleetOutcome {
        data,
        renders,
        generated,
    })
}

/// FNV-1a hash of everything written into it, as text or as `Hash`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `s` plus a separator, so `["ab", "c"]` and `["a", "bc"]`
    /// differ.
    fn field(&mut self, s: &str) {
        std::hash::Hasher::write(self, s.as_bytes());
        std::hash::Hasher::write_u8(self, 0xff);
    }
}

impl std::hash::Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    // Integers are mixed a word at a time: tables hold millions of rows.
    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a capture: its engine outputs in JSON form and every
/// rendered report. Equal fingerprints mean equal output bytes.
pub fn capture_fingerprint(outputs: &SimOutputs, renders: &[String]) -> u64 {
    let mut h = Fnv::new();
    h.field(&outputs_json(outputs));
    renders.iter().for_each(|r| h.field(r));
    h.0
}

/// Fingerprint of a fleet run: every field of every tagged row, hashed
/// in place so a multi-million-row table is never serialized, and both
/// rendered reports.
pub fn fleet_fingerprint(table: &ScubaTable, renders: &[String]) -> u64 {
    use std::hash::Hash;
    let mut h = Fnv::new();
    for r in table.rows() {
        let f = &r.rec;
        (f.at, f.capture_host, f.src, f.dst).hash(&mut h);
        (f.src_port, f.dst_port, f.bytes, f.packets).hash(&mut h);
        (r.src_role, r.dst_role, r.src_rack, r.dst_rack).hash(&mut h);
        (
            r.src_cluster,
            r.dst_cluster,
            r.src_cluster_type,
            r.dst_cluster_type,
        )
            .hash(&mut h);
        (r.src_dc, r.dst_dc, r.locality).hash(&mut h);
    }
    renders.iter().for_each(|r| h.field(r));
    h.0
}

/// The engine outputs of a capture in JSON form.
pub fn outputs_json(outputs: &SimOutputs) -> String {
    serde_json::to_string(outputs).expect("outputs serialize")
}
