//! The standard packet-tier capture: one simulation run with port
//! mirrors on a representative host of each monitored type, mirroring the
//! paper's §3.3.2 deployment ("a rack of Web servers, a Hadoop node,
//! cache followers and leaders, and a Multifeed node").

use crate::scenario::{packet_tier_spec, ScenarioScale};
use serde::{Deserialize, Serialize};
use sonet_analysis::HostTrace;
use sonet_netsim::{
    FaultEvent, FaultKind, FaultPlan, FidelityConfig, FidelityMode, SimConfig, SimOutputs,
    Simulator,
};
use sonet_telemetry::PortMirror;
use sonet_topology::{HostId, HostRole, Topology};
use sonet_util::{SimDuration, SimTime};
use sonet_workload::{ServiceProfiles, Workload};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Configuration of a standard capture run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureConfig {
    /// Scenario seed (determines every trace byte).
    pub seed: u64,
    /// Plant size.
    pub scale: ScenarioScale,
    /// Trace length (paper: 10 minutes, 2.5 for the Web rack; scaled
    /// runs use tens of seconds).
    pub duration: SimDuration,
    /// Global rate multiplier over the profile defaults.
    pub rate_scale: f64,
    /// Mirror buffer capacity in packets per §3.3.2's RAM limit.
    pub mirror_capacity: usize,
    /// Faults injected during the run (empty = healthy baseline).
    /// Network faults go to the engine; mirror-loss faults are applied to
    /// the capture path at the next 250 ms generation-window boundary.
    pub faults: FaultPlan,
    /// Engine fidelity: full packet DES (default) or the hybrid
    /// flow/packet fast path. Mirrored hosts are fidelity islands, so
    /// traces stay packet-exact either way.
    pub fidelity: FidelityMode,
}

impl CaptureConfig {
    /// Bench-grade capture: tens of simulated seconds at elevated rates.
    pub fn standard(seed: u64) -> CaptureConfig {
        CaptureConfig {
            seed,
            scale: ScenarioScale::Standard,
            duration: SimDuration::from_secs(15),
            rate_scale: 10.0,
            mirror_capacity: 4_000_000,
            faults: FaultPlan::new(),
            fidelity: FidelityMode::Packet,
        }
    }

    /// Test-grade capture: a few simulated seconds on a tiny plant.
    pub fn fast(seed: u64) -> CaptureConfig {
        CaptureConfig {
            seed,
            scale: ScenarioScale::Tiny,
            duration: SimDuration::from_secs(3),
            rate_scale: 5.0,
            mirror_capacity: 500_000,
            faults: FaultPlan::new(),
            fidelity: FidelityMode::Packet,
        }
    }

    /// The same capture with `faults` injected.
    pub fn with_faults(mut self, faults: FaultPlan) -> CaptureConfig {
        self.faults = faults;
        self
    }

    /// The same capture under a different engine fidelity.
    pub fn with_fidelity(mut self, fidelity: FidelityMode) -> CaptureConfig {
        self.fidelity = fidelity;
        self
    }
}

/// The roles the paper monitored with port mirrors.
pub const MONITORED_ROLES: [HostRole; 5] = [
    HostRole::Web,
    HostRole::CacheFollower,
    HostRole::CacheLeader,
    HostRole::Hadoop,
    HostRole::Multifeed,
];

/// Output of one capture run: per-role host traces plus engine counters.
pub struct StandardCapture {
    /// The plant.
    pub topo: Arc<Topology>,
    /// Monitored host per role.
    pub monitored: HashMap<HostRole, HostId>,
    /// Per-role traces of the monitored hosts.
    pub traces: HashMap<HostRole, HostTrace>,
    /// Engine outputs (counters, drops).
    pub outputs: SimOutputs,
    /// Trace duration.
    pub duration: SimDuration,
    /// Whether the mirror hit its memory limit.
    pub truncated: bool,
    /// Total calls the workload issued.
    pub issued_calls: u64,
    /// Mirrored packets lost to injected capture faults (counted, not
    /// silently gone).
    pub mirror_fault_dropped: u64,
    /// Mirrored packets lost to the mirror's memory limit.
    pub mirror_overflow: u64,
    /// Packets offered to the mirror (captured + overflowed + lost).
    pub mirror_offered: u64,
}

/// The live, resumable innards of a capture run: plant, workload, engine
/// (with the port mirror as its tap), and the telemetry-fault cursor.
///
/// [`StandardCapture::run`] drives it start to finish in one go; the
/// supervised driver ([`crate::supervised`]) drives it window by window so
/// it can checkpoint at window boundaries and resume mid-trace.
pub(crate) struct CaptureState {
    /// The plant.
    pub(crate) topo: Arc<Topology>,
    /// Traffic generator.
    pub(crate) workload: Workload,
    /// The engine; the port mirror is its tap.
    pub(crate) sim: Simulator<PortMirror>,
    /// Monitored host per role.
    pub(crate) monitored: HashMap<HostRole, HostId>,
    /// Telemetry fault events, time-ordered.
    pub(crate) telemetry: Vec<FaultEvent>,
    /// Next telemetry event to apply.
    pub(crate) tel_next: usize,
    /// Virtual time reached so far.
    pub(crate) t: SimTime,
}

/// The deterministic structure [`CaptureState::rebuild_static`] recomputes
/// from a [`CaptureConfig`] on resume; the caller pairs it with the
/// checkpointed dynamic state (engine, workload RNGs, mirror).
pub(crate) struct CaptureStatics {
    /// The plant.
    pub(crate) topo: Arc<Topology>,
    /// Traffic generator with freshly built (not yet restored) state.
    pub(crate) workload: Workload,
    /// Monitored host per role.
    pub(crate) monitored: HashMap<HostRole, HostId>,
    /// Telemetry fault events, time-ordered.
    pub(crate) telemetry: Vec<FaultEvent>,
}

/// The generation-window stride of every capture run. Supervised
/// checkpoints land on these boundaries, which is what keeps a resumed
/// run's window sequence identical to an uninterrupted one.
pub(crate) const CAPTURE_WINDOW: SimDuration = SimDuration::from_millis(250);

impl CaptureState {
    /// Builds the plant, workload, engine, and mirrors for `cfg`: the
    /// static structure from [`CaptureState::rebuild_static`], then the
    /// fresh engine with its mirrors and faults. Fallible: arbitrary
    /// configs (wrong scale spec, invalid fault plan) surface as errors
    /// instead of panics.
    pub(crate) fn build(cfg: &CaptureConfig) -> Result<CaptureState, String> {
        let CaptureStatics {
            topo,
            mut workload,
            monitored,
            telemetry,
        } = CaptureState::rebuild_static(cfg)?;

        let mirror = PortMirror::new(cfg.mirror_capacity);
        let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), mirror)
            .map_err(|e| e.to_string())?;
        if cfg.fidelity == FidelityMode::Hybrid {
            sim.set_fidelity(FidelityConfig::hybrid())
                .map_err(|e| e.to_string())?;
        }

        // Mirror one host of each monitored role (§3.3.2).
        for role in MONITORED_ROLES {
            if let Some(&h) = monitored.get(&role) {
                sim.watch_link(topo.host_uplink(h));
                sim.watch_link(topo.host_downlink(h));
            }
        }
        // The paper traced its Hadoop node "over a relatively busy
        // 10-minute interval" — pin the monitored node busy for the trace.
        if let Some(&h) = monitored.get(&HostRole::Hadoop) {
            workload.ensure_busy_start(h, cfg.duration.as_secs_f64());
        }

        // Network faults ride the engine's event calendar; telemetry
        // faults are applied to the tap at window boundaries.
        cfg.faults.validate(&topo).map_err(|e| e.to_string())?;
        sim.inject_faults(&cfg.faults).map_err(|e| e.to_string())?;
        let mut state = CaptureState {
            topo,
            workload,
            sim,
            monitored,
            telemetry,
            tel_next: 0,
            t: SimTime::ZERO,
        };
        state.apply_telemetry();
        Ok(state)
    }

    /// Rebuilds the deterministic structure (plant, monitored hosts,
    /// telemetry schedule) for `cfg` *without* touching dynamic state —
    /// the restore path: the caller then installs the checkpointed engine,
    /// workload, and mirror.
    pub(crate) fn rebuild_static(cfg: &CaptureConfig) -> Result<CaptureStatics, String> {
        let topo =
            Arc::new(Topology::build(packet_tier_spec(cfg.scale)).map_err(|e| e.to_string())?);
        let mut profiles = ServiceProfiles::default();
        profiles.rate_scale = cfg.rate_scale;
        let workload =
            Workload::new(Arc::clone(&topo), profiles, cfg.seed).map_err(|e| e.to_string())?;
        let mut monitored = HashMap::new();
        for role in MONITORED_ROLES {
            if let Some(h) = workload.monitored_host(role) {
                monitored.insert(role, h);
            }
        }
        let telemetry: Vec<FaultEvent> = cfg.faults.telemetry_events().copied().collect();
        Ok(CaptureStatics {
            topo,
            workload,
            monitored,
            telemetry,
        })
    }

    fn apply_telemetry(&mut self) {
        while self.tel_next < self.telemetry.len() && self.telemetry[self.tel_next].at <= self.t {
            if let FaultKind::MirrorLoss { fraction } = self.telemetry[self.tel_next].kind {
                self.sim.tap_mut().set_fault_loss(fraction);
            }
            self.tel_next += 1;
        }
    }

    /// Advances one generation window (or to `horizon`, whichever is
    /// nearer): generate calls, run the engine, apply due telemetry
    /// faults. Returns the new virtual time.
    pub(crate) fn advance(&mut self, horizon: SimTime) -> Result<SimTime, String> {
        self.t = (self.t + CAPTURE_WINDOW).min(horizon);
        {
            let _span = sonet_util::obs::trace::span("generate");
            self.workload
                .generate(&mut self.sim, self.t)
                .map_err(|e| e.to_string())?;
        }
        let _span = sonet_util::obs::trace::span("ingest");
        self.sim.run_until(self.t);
        self.apply_telemetry();
        Ok(self.t)
    }

    /// Finishes the run, turning engine state into a [`StandardCapture`].
    pub(crate) fn finish(self, cfg: &CaptureConfig) -> StandardCapture {
        let _span = sonet_util::obs::trace::span("analyze");
        let issued_calls = self.workload.issued_calls();
        let (outputs, mirror) = self.sim.finish();
        let truncated = mirror.truncated();
        let mirror_fault_dropped = mirror.fault_dropped();
        let mirror_overflow = mirror.overflow();
        let mirror_offered = mirror.offered();
        let records = mirror.into_records();
        // Each monitored host filters the full mirror stream independently,
        // so the per-role trace builds fan out across the worker pool.
        let monitored: Vec<(HostRole, HostId)> =
            self.monitored.iter().map(|(&r, &h)| (r, h)).collect();
        let threads = sonet_util::par::resolve_threads(None);
        let traces = sonet_util::par::map_indexed(threads, monitored.len(), |i| {
            let (role, host) = monitored[i];
            (role, HostTrace::from_mirror(&records, host))
        })
        .into_iter()
        .collect();
        StandardCapture {
            topo: self.topo,
            monitored: self.monitored,
            traces,
            outputs,
            duration: cfg.duration,
            truncated,
            issued_calls,
            mirror_fault_dropped,
            mirror_overflow,
            mirror_offered,
        }
    }
}

impl fmt::Debug for StandardCapture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StandardCapture")
            .field("monitored", &self.monitored.len())
            .field("duration", &self.duration)
            .field("issued_calls", &self.issued_calls)
            .field("mirror_offered", &self.mirror_offered)
            .field("truncated", &self.truncated)
            .finish()
    }
}

impl StandardCapture {
    /// Runs the capture.
    pub fn run(cfg: &CaptureConfig) -> StandardCapture {
        let mut state = CaptureState::build(cfg).expect("preset capture configs are valid");
        let horizon = SimTime::ZERO + cfg.duration;
        sonet_util::obs::timeline::set_horizon_ns(horizon.as_nanos());
        let mut hb = sonet_util::obs::report::Heartbeat::new("capture");
        while state.t < horizon {
            state
                .advance(horizon)
                .expect("generation stays in the future");
            hb.tick_progress(
                state.sim.processed_events(),
                Some((state.t.as_nanos(), horizon.as_nanos())),
            );
        }
        state.finish(cfg)
    }

    /// The trace of a monitored role, if that role exists in the plant.
    pub fn trace(&self, role: HostRole) -> Option<&HostTrace> {
        self.traces.get(&role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_traces_for_all_monitored_roles() {
        let cap = StandardCapture::run(&CaptureConfig::fast(1));
        for role in MONITORED_ROLES {
            let trace = cap.trace(role).unwrap_or_else(|| panic!("{role} missing"));
            assert!(
                !trace.outbound().is_empty(),
                "{role} produced no outbound packets"
            );
        }
        assert!(
            !cap.truncated,
            "tiny capture should not overflow the mirror"
        );
        assert!(cap.issued_calls > 0);
        assert!(cap.outputs.delivered_packets > 0);
    }

    #[test]
    fn capture_is_deterministic() {
        let a = StandardCapture::run(&CaptureConfig::fast(7));
        let b = StandardCapture::run(&CaptureConfig::fast(7));
        assert_eq!(a.outputs.delivered_packets, b.outputs.delivered_packets);
        let ta = &a.traces[&HostRole::Web];
        let tb = &b.traces[&HostRole::Web];
        assert_eq!(ta.outbound().len(), tb.outbound().len());
    }

    #[test]
    fn faulted_capture_degrades_instead_of_panicking() {
        use sonet_netsim::{FaultKind, FaultPlan};
        use sonet_topology::{SwitchId, SwitchKind};

        // Find a CSW on the same plant the capture will build.
        let topo = Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("valid");
        let csw = topo
            .switches()
            .iter()
            .position(|s| s.kind == SwitchKind::Csw)
            .map(|i| SwitchId(i as u32))
            .expect("tiny plant has CSWs");

        // A CSW post dies one second in and never recovers, and the
        // mirror's capture path fails completely half-way through.
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(1), FaultKind::SwitchDown(csw))
            .at(
                SimTime::from_millis(1500),
                FaultKind::MirrorLoss { fraction: 1.0 },
            );
        let cap = StandardCapture::run(&CaptureConfig::fast(7).with_faults(plan));

        assert_eq!(
            cap.outputs.faults_applied, 1,
            "network fault reached the engine"
        );
        assert!(
            cap.outputs.reroutes > 0,
            "flows re-hashed around the dead post"
        );
        let fault_drops: u64 = cap
            .outputs
            .link_counters
            .iter()
            .map(|c| c.fault_drop_packets)
            .sum();
        assert!(
            fault_drops > 0,
            "in-flight packets on the dead post were counted"
        );
        assert!(cap.mirror_fault_dropped > 0, "telemetry losses are counted");
        assert!(
            cap.mirror_offered > cap.mirror_fault_dropped,
            "the first half of the capture still exists"
        );
        assert!(cap.outputs.delivered_packets > 0);

        // Faulted runs are just as deterministic as healthy ones.
        let plan2 = FaultPlan::new()
            .at(SimTime::from_secs(1), FaultKind::SwitchDown(csw))
            .at(
                SimTime::from_millis(1500),
                FaultKind::MirrorLoss { fraction: 1.0 },
            );
        let again = StandardCapture::run(&CaptureConfig::fast(7).with_faults(plan2));
        assert_eq!(
            cap.outputs.delivered_packets,
            again.outputs.delivered_packets
        );
        assert_eq!(cap.outputs.reroutes, again.outputs.reroutes);
        assert_eq!(cap.mirror_fault_dropped, again.mirror_fault_dropped);
    }
}
