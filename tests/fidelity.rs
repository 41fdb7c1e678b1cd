//! The differential shape-equivalence harness for the hybrid
//! flow/packet fidelity engine (DESIGN.md §13).
//!
//! The hybrid engine's contract is statistical, not per-packet: a
//! `--fidelity=hybrid` run must reproduce the *shapes* the paper's
//! analyses are built on — FCT CDFs, heavy-hitter ranks, locality
//! mixes — while packet-only runs stay byte-identical to the engine
//! before the fast path existed. Every capture-level gate here runs at
//! 1, 2 and 8 threads, because the fast path must be as blind to the
//! thread count as the packet calendar; a direct engine run reads no
//! thread count, so it runs once.

use sonet_dc::analysis::heavy_hitters::{hitters_per_interval, HeavyHitterAgg};
use sonet_dc::analysis::locality::service_matrix_row;
use sonet_dc::core::supervised::{resume_capture, run_capture, RunStatus, SuperviseOptions};
use sonet_dc::core::supervisor::{RunBudget, StopReason};
use sonet_dc::core::{packet_tier_spec, reports, CaptureConfig, ScenarioScale, StandardCapture};
use sonet_dc::netsim::{
    FaultKind, FaultPlan, FidelityConfig, FidelityMode, NullTap, SimConfig, SimOutputs, Simulator,
};
use sonet_dc::topology::{HostRole, Topology};
use sonet_dc::util::{par, EmpiricalCdf, SimDuration, SimTime};
use sonet_dc::workload::{ServiceProfiles, Workload};
use std::sync::Arc;
use std::time::Duration;

/// Thread counts under test (the CI matrix leg or the 1/2/8 sweep).
fn widths() -> Vec<usize> {
    match std::env::var("SONET_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(w) => vec![1, w],
        None => vec![1, 2, 8],
    }
}

fn at_width<T>(w: usize, f: impl FnOnce() -> T) -> T {
    par::set_threads(w);
    let out = f();
    par::set_threads(0);
    out
}

/// A direct engine run of the standard workload generator with request
/// latency recording on: the FCT source for the K-S gates. No watched
/// links, no samplers — in hybrid mode every sub-heavy flow rides the
/// fast path.
fn fct_run(seed: u64, fidelity: FidelityMode) -> SimOutputs {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("spec"));
    let mut profiles = ServiceProfiles::default();
    profiles.rate_scale = 5.0;
    let mut workload = Workload::new(Arc::clone(&topo), profiles, seed).expect("workload");
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("sim");
    if fidelity == FidelityMode::Hybrid {
        sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
    }
    sim.record_latencies(true);
    let end = SimTime::from_millis(2_000);
    let mut t = SimTime::ZERO;
    while t < end {
        t += SimDuration::from_millis(250);
        workload.generate(&mut sim, t).expect("generate");
        sim.run_until(t);
    }
    sim.run_to_quiescence();
    sim.audit().expect("conservation");
    let (out, _) = sim.finish();
    out
}

/// Kolmogorov–Smirnov statistic between two empirical CDFs: the largest
/// vertical gap, evaluated at every sample point of both.
fn ks_statistic(a: &[f64], b: &[f64], cdf_a: &EmpiricalCdf, cdf_b: &EmpiricalCdf) -> f64 {
    let mut worst = 0.0f64;
    for &x in a.iter().chain(b.iter()) {
        let d = (cdf_a.fraction_at(x) - cdf_b.fraction_at(x)).abs();
        if d > worst {
            worst = d;
        }
    }
    worst
}

fn latencies_ms(out: &SimOutputs) -> Vec<f64> {
    out.rpc_latencies
        .iter()
        .map(|d| d.as_nanos() as f64 / 1e6)
        .collect()
}

/// Shape gate thresholds. Calibrated against the tiny packet-tier plant
/// (DESIGN.md §13 records the calibration runs): the analytic FCT model
/// ignores per-packet interleaving, so CDFs drift by a few percent, and
/// the gates bound that drift rather than pretending it is zero.
const FCT_KS_EPSILON: f64 = 0.15;
const FCT_MEAN_REL_ERR: f64 = 0.35;

#[test]
fn fct_cdf_shape_matches_packet_engine_at_every_width() {
    // A direct `Simulator` run reads no thread count, so one hybrid run
    // stands for every width; the capture-level legs below sweep them.
    let packet = fct_run(11, FidelityMode::Packet);
    let pl = latencies_ms(&packet);
    assert!(pl.len() > 200, "need a real FCT sample, got {}", pl.len());
    let cdf_p = EmpiricalCdf::new(pl.clone());
    let p_mean = pl.iter().sum::<f64>() / pl.len() as f64;
    let hybrid = fct_run(11, FidelityMode::Hybrid);
    assert!(hybrid.flows_fast > 0, "nothing took the fast path");
    let hl = latencies_ms(&hybrid);
    let cdf_h = EmpiricalCdf::new(hl.clone());
    let ks = ks_statistic(&pl, &hl, &cdf_p, &cdf_h);
    assert!(
        ks <= FCT_KS_EPSILON,
        "FCT K-S statistic {ks:.4} exceeds epsilon {FCT_KS_EPSILON}"
    );
    let h_mean = hl.iter().sum::<f64>() / hl.len() as f64;
    let rel = (h_mean - p_mean).abs() / p_mean;
    assert!(
        rel <= FCT_MEAN_REL_ERR,
        "FCT mean drifted {rel:.3} (packet {p_mean:.3} ms, hybrid {h_mean:.3} ms)"
    );
}

/// A capture run flattened to one string, the same shape as the
/// equivalence suite's fingerprint: engine outputs, mirror accounting,
/// per-role traces and the rendered reports built on top.
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
        "outputs={}|mirror={}/{}/{}/{}|calls={}|traces={}|t2={}|f4={}",
        serde_json::to_string(&cap.outputs).expect("outputs serialize"),
        cap.mirror_offered,
        cap.mirror_overflow,
        cap.mirror_fault_dropped,
        cap.truncated,
        cap.issued_calls,
        trace_blob.join(";"),
        reports::table2(&cap).render(),
        reports::fig4(&cap).render(),
    )
}

/// Shipping the `fidelity` knob must not perturb a packet-mode run by a
/// single byte: the explicit flag and the default are the same engine.
#[test]
fn explicit_packet_fidelity_flag_is_byte_inert() {
    let default_cfg = CaptureConfig::fast(4242);
    let explicit = CaptureConfig::fast(4242).with_fidelity(FidelityMode::Packet);
    assert_eq!(
        capture_fingerprint(&default_cfg),
        capture_fingerprint(&explicit),
        "an explicit --fidelity=packet must be indistinguishable from the default"
    );
}

/// The fast path runs on the coordinator, so a hybrid run is subject to
/// the same promise as a packet run: the thread count must not change one
/// output byte.
#[test]
fn hybrid_capture_identical_at_every_width() {
    let cfg = CaptureConfig::fast(4242).with_fidelity(FidelityMode::Hybrid);
    let base = at_width(1, || capture_fingerprint(&cfg));
    for w in widths().into_iter().skip(1) {
        let probe = at_width(w, || capture_fingerprint(&cfg));
        assert_eq!(base, probe, "hybrid capture diverged at width {w}");
    }
}

/// Jaccard overlap of two heavy-hitter sets.
fn rank_overlap(
    a: &sonet_dc::analysis::heavy_hitters::IntervalHitters,
    b: &sonet_dc::analysis::heavy_hitters::IntervalHitters,
) -> f64 {
    if a.hitters.is_empty() && b.hitters.is_empty() {
        return 1.0;
    }
    let inter = a.hitters.intersection(&b.hitters).count() as f64;
    let union = a.hitters.union(&b.hitters).count() as f64;
    inter / union
}

/// Shape gates over the capture pipeline: the island planner keeps every
/// mirrored host's traffic on the packet engine, so the heavy-hitter
/// ranks and locality mix the paper's analyses read from those traces
/// must track the packet-only run closely — while the bulk of the plant
/// rides the fast path.
#[test]
fn capture_heavy_hitter_ranks_and_locality_track_packet_engine() {
    const RANK_OVERLAP_MIN: f64 = 0.80;
    const LOCALITY_ABS_ERR: f64 = 0.05;
    let packet = StandardCapture::run(&CaptureConfig::fast(97));
    let hybrid = StandardCapture::run(&CaptureConfig::fast(97).with_fidelity(FidelityMode::Hybrid));
    assert!(
        hybrid.outputs.flows_fast > 0,
        "the hybrid capture must put the non-island bulk on the fast path"
    );
    assert!(
        hybrid.outputs.flows_packet > 0,
        "mirrored islands must stay on the packet engine"
    );
    for role in [HostRole::Web, HostRole::CacheLeader] {
        let tp = &packet.traces[&role];
        let th = &hybrid.traces[&role];
        // Heavy-hitter rank overlap, per observation interval.
        let bin = SimDuration::from_millis(250);
        let hp = hitters_per_interval(tp, &packet.topo, bin, HeavyHitterAgg::Flow);
        let hh = hitters_per_interval(th, &hybrid.topo, bin, HeavyHitterAgg::Flow);
        assert_eq!(
            hp.len(),
            hh.len(),
            "{role:?}: interval counts diverged between engines"
        );
        for (i, (a, b)) in hp.iter().zip(hh.iter()).enumerate() {
            let overlap = rank_overlap(a, b);
            assert!(
                overlap >= RANK_OVERLAP_MIN,
                "{role:?} interval {i}: heavy-hitter rank overlap {overlap:.3} below {RANK_OVERLAP_MIN}"
            );
        }
        // Locality mix: per-peer-role byte fractions within an absolute
        // error band.
        let lp = service_matrix_row(tp, &packet.topo);
        let lh = service_matrix_row(th, &hybrid.topo);
        for (peer, &frac_p) in &lp {
            let frac_h = lh.get(peer).copied().unwrap_or(0.0);
            assert!(
                (frac_p - frac_h).abs() <= LOCALITY_ABS_ERR * 100.0,
                "{role:?}→{peer:?}: locality {frac_h:.2}% drifted from packet {frac_p:.2}%"
            );
        }
    }
}

/// Builds a busy hybrid simulator with a fault window (link down at
/// 1 ms, up at 3 ms) around the checkpoint instant (2 ms), mirroring the
/// packet-mode chaos test: fast flows, demotions in flight, and the
/// analytic calendar all land inside the checkpoint.
fn faulted_hybrid_sim(topo: &Arc<Topology>) -> Simulator<NullTap> {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("valid config");
    sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
    // Open before injecting: the plant is clean, so every flow plans
    // onto the fast path. The plan then lands on two of the pinned
    // routes, demoting those flows mid-life at the fault instant; the
    // third flow stays fast throughout.
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[2].hosts[0];
    let c = topo.racks()[1].hosts[0];
    let d = topo.racks()[3].hosts[0];
    let e = topo.racks()[4].hosts[0];
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    let conn2 = sim.open_connection(SimTime::ZERO, c, b, 80).expect("open");
    let conn3 = sim.open_connection(SimTime::ZERO, d, e, 80).expect("open");
    let uplink = topo.host_uplink(a);
    let plan = FaultPlan::new()
        .at(SimTime::from_millis(1), FaultKind::LinkDown(uplink))
        .at(SimTime::from_millis(3), FaultKind::LinkUp(uplink))
        .at(
            SimTime::from_millis(1),
            FaultKind::GrayLink {
                link: topo.host_uplink(c),
                drop_fraction: 0.2,
            },
        );
    sim.inject_faults(&plan).expect("inject");
    for i in 0..12 {
        for (cn, off) in [(conn, 0), (conn2, 150), (conn3, 70)] {
            sim.send_message(
                cn,
                SimTime::from_micros(i * 300 + off),
                8_000,
                1_000,
                SimDuration::from_micros(20),
            )
            .expect("send");
        }
    }
    sim
}

/// The versioned checkpoint carries the whole fast-path section —
/// calendar, virtual queues, fault schedule, counters — so a hybrid run
/// checkpointed inside a fault window resumes byte-identically.
#[test]
fn hybrid_checkpoint_inside_fault_window_resumes_identically_across_widths() {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("build"));

    let mut origin = faulted_hybrid_sim(&topo);
    origin.run_until(SimTime::from_millis(2));
    let saved = serde_json::to_string(&origin.checkpoint()).expect("json");

    origin.run_until(SimTime::from_millis(6));
    origin.run_to_quiescence();
    origin
        .audit()
        .expect("conservation across the fault window");
    let reference = serde_json::to_string(&origin.checkpoint()).expect("json");
    let (outputs, _) = origin.finish();
    assert!(outputs.flows_fast > 0, "flows must ride the fast path");
    assert!(
        outputs.fast_path_demotions > 0,
        "the fault window must demote the flow pinned through the dead uplink"
    );

    let ckpt = serde_json::from_str(&saved).expect("parse");
    let mut resumed = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    resumed.run_until(SimTime::from_millis(6));
    resumed.run_to_quiescence();
    assert_eq!(
        serde_json::to_string(&resumed.checkpoint()).expect("json"),
        reference,
        "the hybrid resume diverged from the uninterrupted run"
    );
}

/// The supervised driver's kill-at-a-barrier path, in hybrid mode: a
/// zero wall-clock budget stops the run at its first checkpoint, the
/// resume picks a different thread count, and the final outputs and reports still match an uninterrupted hybrid run
/// byte for byte.
#[test]
fn killed_hybrid_capture_resumes_at_new_width_identically() {
    let dir = std::env::temp_dir().join(format!("sonet-fidelity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CaptureConfig {
        duration: SimDuration::from_secs(1),
        ..CaptureConfig::fast(2015)
    }
    .with_fidelity(FidelityMode::Hybrid);
    let stop_opts = SuperviseOptions {
        every: SimDuration::from_millis(250),
        budget: RunBudget {
            wall_clock: Some(Duration::ZERO),
            ..RunBudget::unlimited()
        },
        ..SuperviseOptions::new(&dir)
    };
    let (status, cap) = run_capture(&cfg, &stop_opts).expect("supervised run");
    assert!(matches!(
        status,
        RunStatus::Stopped(StopReason::WallClock(_))
    ));
    assert!(cap.is_none(), "a stopped run yields no results yet");

    let resume_opts = SuperviseOptions {
        every: SimDuration::from_millis(250),
        ..SuperviseOptions::new(&dir)
    };
    par::set_threads(8);
    let resumed = resume_capture(&stop_opts.capture_checkpoint_path(), &resume_opts);
    par::set_threads(0);
    let (status, cap) = resumed.expect("resume");
    assert_eq!(status, RunStatus::Completed);
    let resumed = cap.expect("completed run yields a capture");
    assert!(resumed.outputs.flows_fast > 0, "resumed run stayed hybrid");

    let plain = StandardCapture::run(&cfg);
    assert_eq!(
        serde_json::to_string(&resumed.outputs).expect("json"),
        serde_json::to_string(&plain.outputs).expect("json"),
        "hybrid outputs must be byte-identical after kill + resume at a new width"
    );
    assert_eq!(
        serde_json::to_string(&reports::table2(&resumed)).expect("json"),
        serde_json::to_string(&reports::table2(&plain)).expect("json"),
        "downstream reports must be byte-identical after kill + resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hybrid_smoke_fast_flows_complete_and_conserve() {
    let out = fct_run(7, FidelityMode::Hybrid);
    assert!(out.flows_fast > 0, "no flow took the fast path: {out:?}");
    assert!(
        out.fast_completed_requests > 0,
        "fast flows must complete requests"
    );
    assert_eq!(
        out.fast_bytes_offered,
        out.fast_bytes_completed + out.fast_bytes_aborted,
        "drained run must conserve fast-path bytes exactly"
    );
    assert!(out.completed_requests > 0);
}
