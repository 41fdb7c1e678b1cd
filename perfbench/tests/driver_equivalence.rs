//! The benchmark's drivers must measure what `sonet capture` and `sonet
//! fleet` actually do: same inputs, same output bytes as the library's
//! own runners, at every engine width.

use sonet_core::reports;
use sonet_core::{CaptureConfig, FleetData, FleetRunConfig, StandardCapture};
use sonet_netsim::FidelityMode;
use sonet_perfbench::trace::Tracer;
use sonet_perfbench::{
    capture_run, capture_setup, fleet_run, fleet_setup, outputs_json, CaptureOutcome,
    CaptureReports,
};
use sonet_util::SimDuration;

fn small_capture(seed: u64, fidelity: FidelityMode) -> CaptureConfig {
    let mut cfg = CaptureConfig::fast(seed).with_fidelity(fidelity);
    cfg.duration = SimDuration::from_millis(1000);
    cfg
}

fn bench_capture(cfg: &CaptureConfig, width: usize, traced: bool) -> CaptureOutcome {
    let mut tr = Tracer::new(traced);
    let setup = capture_setup(cfg, width, &mut tr).expect("valid config");
    capture_run(cfg, setup, width, &mut tr).expect("capture runs")
}

fn assert_capture_matches_library(cfg: &CaptureConfig) {
    let plain = StandardCapture::run(cfg);
    let bench = bench_capture(cfg, 1, true);
    assert_eq!(
        outputs_json(&bench.capture.outputs),
        outputs_json(&plain.outputs),
        "SimOutputs bytes differ from StandardCapture::run"
    );
    assert_eq!(bench.capture.issued_calls, plain.issued_calls);
    assert_eq!(bench.capture.mirror_offered, plain.mirror_offered);
    assert_eq!(
        bench.renders,
        CaptureReports::new(&plain).render(),
        "reports differ from those of StandardCapture::run"
    );
    assert!(bench.audit.is_ok(), "audit: {:?}", bench.audit);
    assert!(bench.capture.outputs.completed_requests > 0);
    assert!(
        bench.counters.checkpoint_bytes > 0,
        "mid-run checkpoint taken"
    );
}

#[test]
fn packet_capture_driver_matches_standard_capture() {
    assert_capture_matches_library(&small_capture(7, FidelityMode::Packet));
}

#[test]
fn hybrid_capture_driver_matches_standard_capture() {
    let cfg = small_capture(7, FidelityMode::Hybrid);
    assert_capture_matches_library(&cfg);
    let bench = bench_capture(&cfg, 1, false);
    assert!(
        bench.capture.outputs.flows_fast > 0,
        "hybrid uses the fast path"
    );
}

#[test]
fn width_two_prints_the_width_one_fingerprint() {
    let cfg = small_capture(11, FidelityMode::Packet);
    let one = bench_capture(&cfg, 1, false);
    let two = bench_capture(&cfg, 2, false);
    assert_eq!(one.fingerprint(), two.fingerprint());
    assert_eq!(
        one.counters.parallel.barriers,
        two.counters.parallel.barriers
    );
}

#[test]
fn fleet_driver_matches_fleet_data_run_with() {
    let cfg = FleetRunConfig::fast(5);
    let plain = FleetData::run_with(&cfg, Some(1)).expect("valid config");
    let mut tr = Tracer::new(true);
    let setup = fleet_setup(&cfg, 1, &mut tr).expect("valid config");
    let bench = fleet_run(setup, 1, &mut tr).expect("fleet runs");
    assert_eq!(
        serde_json::to_string(&bench.data.table).expect("json"),
        serde_json::to_string(&plain.table).expect("json"),
        "tagged table differs from FleetData::run_with"
    );
    assert_eq!(bench.data.relaxed_picks, plain.relaxed_picks);
    assert_eq!(bench.generated, plain.table.len() as u64);
    let table3 = reports::table3(&plain).render();
    let fig5 = reports::fig5(&plain).expect("fig5").render();
    assert_eq!(bench.renders, vec![table3, fig5]);
}
