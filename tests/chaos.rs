//! Chaos-campaign integration tests: determinism of the campaign report
//! across thread counts, resume of a campaign killed at a manifest
//! barrier on a different thread count, the shrinker on the known-bad plan,
//! standalone repro
//! replay, checkpoint/resume inside an active fault window, and
//! abort/reopen accounting under flapping links.

use sonet_core::chaos::campaign::{execute_run, execute_twin};
use sonet_core::chaos::profile::known_bad_plan;
use sonet_core::chaos::shrink::shrink_plan;
use sonet_core::chaos::slo::{evaluate, SloSpec};
use sonet_core::chaos::{
    plan_hash, replay_repro, run_campaign, CampaignConfig, ChaosProfile, ExecConfig, ReproFile,
};
use sonet_core::scenario::{packet_tier_spec, ScenarioScale};
use sonet_netsim::{FaultKind, FaultPlan, NullTap, SimConfig, Simulator};
use sonet_topology::Topology;
use sonet_util::{par, SimDuration, SimTime};
use sonet_workload::{ServiceProfiles, Workload};
use std::sync::Arc;

fn tiny_exec(seed: u64) -> ExecConfig {
    ExecConfig {
        scale: ScenarioScale::Tiny,
        seed,
        duration: SimDuration::from_secs(2),
        rate_scale: 5.0,
        max_events: None,
        fidelity: Default::default(),
    }
}

#[test]
fn known_bad_plan_violates_and_shrinks_to_one_event() {
    let exec = tiny_exec(1);
    let topo = Arc::new(Topology::build(packet_tier_spec(exec.scale)).expect("build"));
    let plan = known_bad_plan(&topo, exec.duration);
    assert!(plan.len() >= 4, "needs decoys worth stripping");

    let twin = execute_twin(&exec).expect("twin");
    let metrics = execute_run(&exec, &plan).expect("run");
    let slo = SloSpec::default();
    let report = evaluate(&slo, &metrics, &twin);
    assert!(
        !report.pass(),
        "known-bad plan must violate an SLO; metrics: {metrics:?}"
    );
    let target = report.violated()[0].to_string();

    let outcome = shrink_plan(&exec, &twin, &slo, &plan, &target, 64);
    assert!(
        outcome.events_after <= 3,
        "shrunk to {} events (from {}), want ≤ 3",
        outcome.events_after,
        outcome.events_before
    );
    // The shrunk plan still reproduces the violation standalone.
    let m2 = execute_run(&exec, &outcome.plan).expect("shrunk run");
    assert!(
        evaluate(&slo, &m2, &twin)
            .violated()
            .contains(&target.as_str()),
        "shrunk plan must still violate {target}"
    );
}

#[test]
fn campaign_report_is_byte_identical_across_widths() {
    let profiles = ChaosProfile::select("rack-outage,gray-core").expect("profiles");
    let mut cfg = CampaignConfig::new(profiles, 2, 42);
    cfg.max_shrinks = 1;
    let widths = [1usize, 2, 8];
    let mut reports = Vec::new();
    for width in widths {
        par::set_threads(width);
        let report = run_campaign(&cfg, None, false).expect("campaign");
        reports.push(serde_json::to_string(&report).expect("json"));
    }
    par::set_threads(0);
    for (i, width) in widths.iter().enumerate().skip(1) {
        assert_eq!(reports[0], reports[i], "width {width} changed the report");
    }
}

#[test]
fn campaign_killed_at_a_barrier_resumes_at_new_width() {
    let dir = std::env::temp_dir().join(format!("sonet-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Nine runs: one more than the 8-run manifest chunk, so a kill after
    // the first flush leaves genuinely unfinished work behind.
    let mut cfg = CampaignConfig::new(ChaosProfile::select("rack-outage").expect("p"), 9, 13);
    cfg.max_shrinks = 0;

    // The uninterrupted reference: serial.
    par::set_threads(1);
    run_campaign(&cfg, Some(&dir), false).expect("campaign");
    let reference = std::fs::read(dir.join("campaign-report.json")).expect("report");

    // "Kill" the campaign at the first chunk barrier: rewind the manifest
    // to the eight runs the first flush recorded and drop the final
    // report — exactly the on-disk state a SIGKILL between the first and
    // second chunk leaves (manifest writes are atomic renames).
    let manifest_path = dir.join("campaign-manifest.json");
    let mut manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).expect("manifest"))
            .expect("parse manifest");
    let recorded = {
        let serde::Content::Map(entries) = &mut manifest.0 else {
            panic!("manifest must be an object");
        };
        let completed = entries
            .iter_mut()
            .find(|(k, _)| k.as_str() == Some("completed"))
            .map(|(_, v)| v)
            .expect("manifest has a completed list");
        let serde::Content::Seq(runs) = completed else {
            panic!("completed must be an array");
        };
        let recorded = runs.len();
        runs.truncate(8);
        recorded
    };
    assert_eq!(recorded, 9, "nine-run campaign must record 9 runs");
    std::fs::write(
        &manifest_path,
        serde_json::to_string(&manifest).expect("json"),
    )
    .expect("write manifest");
    std::fs::remove_file(dir.join("campaign-report.json")).expect("drop report");

    // Resume on a different thread count: the ninth run re-executes at
    // 8 threads, yet the report must come back byte-for-byte.
    par::set_threads(8);
    run_campaign(&cfg, Some(&dir), true).expect("resume");
    par::set_threads(0);
    assert_eq!(
        std::fs::read(dir.join("campaign-report.json")).expect("resumed report"),
        reference,
        "resumed campaign-report.json must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_writes_report_manifest_and_replayable_repro() {
    let dir = std::env::temp_dir().join(format!("sonet-chaos-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(ChaosProfile::select("brownout").expect("p"), 1, 7);
    cfg.inject_known_bad = true;
    cfg.max_shrinks = 1;
    let report = run_campaign(&cfg, Some(&dir), false).expect("campaign");
    assert!(dir.join("campaign-report.json").exists());
    assert!(dir.join("campaign-manifest.json").exists());
    assert!(
        report.violated >= 1,
        "the injected known-bad run must violate: {}",
        report.render()
    );
    assert_eq!(report.shrinks.len(), 1, "one shrink expected");
    let shrink = &report.shrinks[0];
    assert!(!shrink.repro_file.is_empty());
    let raw = std::fs::read_to_string(dir.join(&shrink.repro_file)).expect("repro file");
    let repro: ReproFile = serde_json::from_str(&raw).expect("parse repro");
    assert_eq!(repro.kind, "chaos-repro");
    assert_eq!(repro.plan_hash, plan_hash(&repro.plan));
    assert!(
        replay_repro(&repro).expect("replay"),
        "repro file must reproduce its violation standalone"
    );

    // Resuming the finished campaign reuses the manifest and reproduces
    // the identical report.
    let again = run_campaign(&cfg, Some(&dir), true).expect("resume");
    assert_eq!(
        serde_json::to_string(&again).expect("json"),
        serde_json::to_string(&report).expect("json"),
        "resume must reproduce the identical report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a busy simulator with a fault window (link down at 1 ms, up at
/// 3 ms) around the checkpoint instant (2 ms).
fn faulted_sim(topo: &Arc<Topology>) -> Simulator<NullTap> {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("valid config");
    let uplink = topo.host_uplink(topo.racks()[0].hosts[0]);
    let plan = FaultPlan::new()
        .at(SimTime::from_millis(1), FaultKind::LinkDown(uplink))
        .at(SimTime::from_millis(3), FaultKind::LinkUp(uplink))
        .at(
            SimTime::from_millis(1),
            FaultKind::GrayLink {
                link: topo.host_uplink(topo.racks()[1].hosts[0]),
                drop_fraction: 0.2,
            },
        );
    sim.inject_faults(&plan).expect("inject");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[2].hosts[0];
    let c = topo.racks()[1].hosts[0];
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    let conn2 = sim.open_connection(SimTime::ZERO, c, b, 80).expect("open");
    for i in 0..12 {
        sim.send_message(
            conn,
            SimTime::from_micros(i * 300),
            8_000,
            1_000,
            SimDuration::from_micros(20),
        )
        .expect("send");
        sim.send_message(
            conn2,
            SimTime::from_micros(i * 300 + 150),
            8_000,
            1_000,
            SimDuration::from_micros(20),
        )
        .expect("send");
    }
    sim
}

#[test]
fn checkpoint_inside_fault_window_resumes_identically_across_widths() {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("build"));

    // Save at 2 ms: the link is DOWN (down at 1 ms, up scheduled at 3 ms)
    // and a gray link is active — the checkpoint lands inside both fault
    // windows.
    let mut origin = faulted_sim(&topo);
    origin.run_until(SimTime::from_millis(2));
    let saved = serde_json::to_string(&origin.checkpoint()).expect("json");

    // The uninterrupted run is the reference.
    origin.run_until(SimTime::from_millis(6));
    let reference = serde_json::to_string(&origin.checkpoint()).expect("json");

    let ckpt = serde_json::from_str(&saved).expect("parse");
    let mut resumed = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    resumed.run_until(SimTime::from_millis(6));
    assert_eq!(
        serde_json::to_string(&resumed.checkpoint()).expect("json"),
        reference,
        "the resume diverged from the uninterrupted run"
    );
}

#[test]
fn workload_reopens_connections_aborted_by_flaps() {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("build"));
    let mut profiles = ServiceProfiles::default();
    profiles.rate_scale = 5.0;
    let mut workload = Workload::new(Arc::clone(&topo), profiles, 11).expect("workload");
    let mut sim =
        Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");

    // Flap every web rack uplink hard enough that pinned routes break
    // while requests are in flight.
    let mut plan = FaultPlan::new();
    for rack in topo.racks().iter().take(3) {
        for &h in rack.hosts.iter().take(1) {
            plan = plan.at(
                SimTime::from_millis(200),
                FaultKind::FlapLink {
                    link: topo.host_uplink(h),
                    half_period: SimDuration::from_millis(150),
                    cycles: 4,
                },
            );
        }
    }
    sim.inject_faults(&plan).expect("inject");

    let end = SimTime::from_millis(2_000);
    let mut t = SimTime::ZERO;
    while t < end {
        t += SimDuration::from_millis(250);
        workload.generate(&mut sim, t).expect("generate");
        sim.run_until(t);
    }
    sim.run_to_quiescence();
    sim.audit().expect("conservation under flaps");
    let (outputs, _) = sim.finish();
    assert!(outputs.faults_applied >= 6, "flaps must expand and apply");
    if outputs.aborted_connections + outputs.failed_handshakes > 0 {
        // Every aborted pooled connection must be replaced, not leaked:
        // the workload's reopen counter tracks the engine's abort count.
        assert!(
            workload.reopened_conns() > 0,
            "aborts happened but no connection was reopened"
        );
    }
    assert!(outputs.completed_requests > 0, "traffic must still flow");
}
