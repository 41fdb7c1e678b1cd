//! Byte-identity of the partitioned engine across worker widths.
//!
//! The conservative-lookahead parallel calendar (DESIGN.md §10) promises
//! that `--threads N` never changes an output byte — not in the engine
//! counters, not in the tap stream, not in any sampler series or
//! rendered report, with or without an active fault plan. This suite is
//! that promise, stated as tests.
//!
//! CI runs it as a matrix leg with `SONET_THREADS={1,2,8}`: when the
//! thread variable is set, each test compares that width against the
//! serial baseline; unset, it sweeps widths 1, 2, and 8 itself.

use sonet_dc::core::reports::Fig15Config;
use sonet_dc::core::supervised::{run_capture, RunStatus, SuperviseOptions};
use sonet_dc::core::supervisor::RunBudget;
use sonet_dc::core::{
    packet_tier_spec, reports, CaptureConfig, FleetData, FleetRunConfig, ScenarioScale,
    StandardCapture,
};
use sonet_dc::netsim::{FaultPlan, NullTap, SimConfig, Simulator};
use sonet_dc::telemetry::{FbflowConfig, FbflowSampler};
use sonet_dc::topology::{HostRole, Topology};
use sonet_dc::util::obs::{self, ObsMode};
use sonet_dc::util::{par, Rng, SimDuration, SimTime};
use sonet_dc::workload::{ServiceProfiles, Workload};
use std::sync::Arc;
use std::time::Duration;

/// Worker widths under test: `SONET_THREADS` (the CI matrix leg) against
/// the serial baseline, or the default 1/2/8 sweep.
fn widths() -> Vec<usize> {
    match std::env::var("SONET_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(w) => vec![1, w],
        None => vec![1, 2, 8],
    }
}

/// Runs `f` with the process-default worker width pinned to `w`. The
/// global is restored afterwards; the whole point of the suite is that
/// a concurrent test seeing the altered value cannot observe it in any
/// output byte.
fn at_width<T>(w: usize, f: impl FnOnce() -> T) -> T {
    par::set_threads(w);
    let out = f();
    par::set_threads(0);
    out
}

/// The observability modes swept by the flight-recorder legs.
const OBS_MODES: [ObsMode; 3] = [ObsMode::Off, ObsMode::Summary, ObsMode::Deep];

/// Runs `f` with the process-wide observability mode pinned to `m`,
/// restoring `Off` afterwards. The determinism firewall (DESIGN.md §11)
/// claims the mode — like the worker width — cannot be observed in any
/// output byte, so a concurrent test seeing the altered global is
/// harmless by construction.
fn at_obs<T>(m: ObsMode, f: impl FnOnce() -> T) -> T {
    obs::set_mode(m);
    let out = f();
    obs::set_mode(ObsMode::Off);
    out
}

/// Everything a capture run emits, flattened to one string: engine
/// outputs (link counters, utilization series, buffer windows, every
/// counter), the port-mirror tap stream as seen through each monitored
/// host's trace, mirror accounting, and the rendered reports built on
/// top.
fn capture_fingerprint(cfg: &CaptureConfig) -> String {
    let cap = StandardCapture::run(cfg);
    let mut traces: Vec<(HostRole, String)> = cap
        .traces
        .iter()
        .map(|(&role, trace)| (role, format!("{trace:?}")))
        .collect();
    traces.sort_by_key(|(role, _)| format!("{role:?}"));
    let trace_blob: Vec<String> = traces
        .into_iter()
        .map(|(role, t)| format!("{role:?}={t}"))
        .collect();
    format!(
        "outputs={}|mirror={}/{}/{}/{}|calls={}|traces={}|t2={}|f4={}|f6={}|f12={}|f16={}",
        serde_json::to_string(&cap.outputs).expect("outputs serialize"),
        cap.mirror_offered,
        cap.mirror_overflow,
        cap.mirror_fault_dropped,
        cap.truncated,
        cap.issued_calls,
        trace_blob.join(";"),
        reports::table2(&cap).render(),
        reports::fig4(&cap).render(),
        reports::fig6(&cap).render(),
        reports::fig12(&cap).render(),
        reports::fig16(&cap).render(),
    )
}

#[test]
fn capture_outputs_taps_and_reports_identical_at_every_width() {
    let cfg = CaptureConfig::fast(4242);
    let base = at_width(1, || capture_fingerprint(&cfg));
    for w in widths() {
        assert_eq!(
            base,
            at_width(w, || capture_fingerprint(&cfg)),
            "width {w} changed a capture output byte"
        );
    }
}

#[test]
fn capture_identical_at_every_width_under_active_faults() {
    // A seed-derived fault plan: switch/link outages plus telemetry loss,
    // replayed from the calendar while partitions run in parallel. Fault
    // application, rerouting, and the degraded tap stream must all stay
    // width-independent.
    let topo = Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("valid spec");
    let plan = FaultPlan::random(&topo, 97, SimDuration::from_secs(3), 2);
    let cfg = CaptureConfig::fast(97).with_faults(plan);
    let base = at_width(1, || capture_fingerprint(&cfg));
    assert!(
        base.contains("\"faults_applied\":"),
        "fingerprint must include fault accounting"
    );
    for w in widths() {
        assert_eq!(
            base,
            at_width(w, || capture_fingerprint(&cfg)),
            "width {w} changed a faulted capture output byte"
        );
    }
}

/// Fleet-wide Fbflow sampling as the engine tap: per-host samplers fire
/// on access links in event order, so an order perturbation anywhere in
/// the partitioned calendar would surface here as a differing sample
/// stream.
fn fbflow_fingerprint(width: usize) -> String {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("spec"));
    let sampler = FbflowSampler::new(&topo, FbflowConfig { sampling_rate: 11 }, Rng::new(2015));
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), sampler).expect("sim");
    sim.set_parallel_width(Some(width));
    let mut workload =
        Workload::new(Arc::clone(&topo), ServiceProfiles::default(), 2015).expect("workload");
    for ms in [250u64, 500] {
        let t = SimTime::from_millis(ms);
        workload.generate(&mut sim, t).expect("generate");
        sim.run_until(t);
    }
    let (outputs, sampler) = sim.finish();
    format!(
        "samples={}|dropped={}|outputs={}",
        serde_json::to_string(sampler.samples()).expect("samples serialize"),
        sampler.agent_dropped(),
        serde_json::to_string(&outputs).expect("outputs serialize"),
    )
}

#[test]
fn fbflow_sample_stream_identical_at_every_width() {
    let base = fbflow_fingerprint(1);
    assert!(
        base.len() > 100,
        "the sampler must actually collect something"
    );
    for w in widths() {
        assert_eq!(
            base,
            fbflow_fingerprint(w),
            "width {w} changed the Fbflow sample stream"
        );
    }
}

#[test]
fn buffer_sampler_series_identical_at_every_width() {
    // Fig 15 is the switch-side buffer-occupancy experiment: µs-scale
    // occupancy windows, per-second utilization series, and drop counts,
    // all read from `SimOutputs`. The sampler windows close inside
    // partition event loops, so this pins their series against width.
    let cfg = Fig15Config::fast(31);
    let base = at_width(1, || {
        serde_json::to_string(&reports::fig15(&cfg).expect("fig15")).expect("serialize")
    });
    for w in widths() {
        let got = at_width(w, || {
            serde_json::to_string(&reports::fig15(&cfg).expect("fig15")).expect("serialize")
        });
        assert_eq!(base, got, "width {w} changed the buffer sampler series");
    }
}

#[test]
fn capture_identical_at_every_obs_mode_and_width() {
    // The flight recorder is a write-only side channel: counters,
    // histograms, heartbeats, and (at deep) per-window spans all record
    // while the capture runs, and none of it may move an output byte —
    // at any worker width.
    let cfg = CaptureConfig::fast(4242);
    let base = at_obs(ObsMode::Off, || at_width(1, || capture_fingerprint(&cfg)));
    // The mode sweep at the serial width, then the expensive tier (deep,
    // with per-window spans recording) against the full width matrix.
    for m in [ObsMode::Summary, ObsMode::Deep] {
        assert_eq!(
            base,
            at_obs(m, || at_width(1, || capture_fingerprint(&cfg))),
            "--obs {} changed a capture output byte",
            m.name()
        );
    }
    for w in widths() {
        assert_eq!(
            base,
            at_obs(ObsMode::Deep, || at_width(w, || capture_fingerprint(&cfg))),
            "--obs deep at width {w} changed a capture output byte"
        );
    }
}

#[test]
fn fleet_table_identical_at_every_obs_mode() {
    // The fleet tier's deterministic artifacts — the tagged Scuba table
    // and the reports rendered from it — against the obs-mode sweep.
    let cfg = FleetRunConfig::fast(7);
    let fingerprint = || {
        let data = FleetData::run(&cfg).expect("fleet run");
        format!(
            "rows={}|relaxed={}|dropped={}|t3={}|f5={}",
            data.table.len(),
            data.relaxed_picks,
            data.agent_dropped,
            reports::table3(&data).render(),
            reports::fig5(&data).expect("fig5").render(),
        )
    };
    let base = at_obs(ObsMode::Off, fingerprint);
    for m in OBS_MODES {
        assert_eq!(
            base,
            at_obs(m, fingerprint),
            "--obs {} changed a fleet output byte",
            m.name()
        );
    }
}

#[test]
fn checkpoint_bytes_identical_with_obs_deep() {
    // Deep observability writes a RUNINFO.json next to the checkpoint;
    // the checkpoint itself must stay byte-identical to an unobserved
    // run's — the manifest is a sibling artifact, never an ingredient.
    let ckpt_at = |m: ObsMode| {
        let dir = std::env::temp_dir().join(format!(
            "sonet-equivalence-obs-{}-{}",
            m.name(),
            std::process::id()
        ));
        let cfg = CaptureConfig {
            duration: SimDuration::from_secs(1),
            ..CaptureConfig::fast(88)
        };
        let opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            budget: RunBudget {
                wall_clock: Some(Duration::ZERO),
                ..RunBudget::unlimited()
            },
            threads: Some(2),
            ..SuperviseOptions::new(&dir)
        };
        let (status, _) = at_obs(m, || run_capture(&cfg, &opts).expect("supervised run"));
        assert!(matches!(status, RunStatus::Stopped(_)));
        let bytes = std::fs::read(opts.capture_checkpoint_path()).expect("checkpoint on disk");
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let base = ckpt_at(ObsMode::Off);
    for m in [ObsMode::Summary, ObsMode::Deep] {
        assert_eq!(
            base,
            ckpt_at(m),
            "--obs {} changed the on-disk checkpoint bytes",
            m.name()
        );
    }
}

#[test]
fn checkpoint_bytes_identical_at_every_width() {
    // The supervised driver's on-disk capture checkpoint (canonical
    // engine state + workload RNGs + mirror) must not encode the width
    // that produced it: stop two runs at their first checkpoint with
    // different widths and compare the files byte for byte.
    let ckpt_at = |w: usize| {
        let dir =
            std::env::temp_dir().join(format!("sonet-equivalence-w{w}-{}", std::process::id()));
        let cfg = CaptureConfig {
            duration: SimDuration::from_secs(1),
            ..CaptureConfig::fast(88)
        };
        let opts = SuperviseOptions {
            every: SimDuration::from_millis(250),
            budget: RunBudget {
                wall_clock: Some(Duration::ZERO),
                ..RunBudget::unlimited()
            },
            threads: Some(w),
            ..SuperviseOptions::new(&dir)
        };
        let (status, cap) = run_capture(&cfg, &opts).expect("supervised run");
        assert!(
            matches!(status, RunStatus::Stopped(_)),
            "zero budget stops at the first checkpoint"
        );
        assert!(cap.is_none());
        let bytes = std::fs::read(opts.capture_checkpoint_path()).expect("checkpoint on disk");
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let base = ckpt_at(1);
    for w in widths() {
        assert_eq!(
            base,
            ckpt_at(w),
            "width {w} changed the on-disk checkpoint bytes"
        );
    }
}

#[test]
fn direct_engine_run_identical_with_audit_at_every_barrier() {
    // The raw engine, no capture machinery: a cross-DC workload with the
    // per-barrier invariant auditor enabled, compared across widths. The
    // auditor re-checks packet conservation and calendar monotonicity at
    // every lookahead barrier, so a merge-order bug aborts loudly instead
    // of surfacing as a silent diff.
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("spec"));
    let run = |w: usize| {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("sim");
        sim.set_parallel_width(Some(w));
        sim.audit_every_barrier(true);
        let webs = topo.hosts_with_role(HostRole::Web);
        let caches = topo.hosts_with_role(HostRole::CacheLeader);
        for (i, &web) in webs.iter().take(24).enumerate() {
            let c = sim
                .open_connection(
                    SimTime::from_micros(13 * i as u64),
                    web,
                    caches[i % caches.len()],
                    11211,
                )
                .expect("open");
            for m in 0..6u64 {
                sim.send_message(
                    c,
                    SimTime::from_micros(13 * i as u64 + m * 800),
                    2_000 + m * 700,
                    1_000,
                    SimDuration::from_micros(40),
                )
                .expect("send");
            }
        }
        sim.run_to_quiescence();
        let (out, _) = sim.finish();
        serde_json::to_string(&out).expect("serialize")
    };
    let base = run(1);
    for w in widths() {
        assert_eq!(base, run(w), "width {w} changed direct engine outputs");
    }
}
