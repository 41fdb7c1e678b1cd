//! Byte-identity of every output across thread counts.
//!
//! `--threads N` sizes the fan-out across independent work (scenarios,
//! chaos cells, fleet shards, trace assembly, tagging and reports); the
//! engine (DESIGN.md §10) always drains its one calendar serially. The
//! promise is that `N` never changes an output byte — not in the engine
//! counters, not in the tap stream, not in any sampler series or
//! rendered report, with or without an active fault plan. This suite is
//! that promise, stated as tests, plus pinned digests of the engine's
//! own bytes (`engine_bytes_match_pinned_digests`).
//!
//! CI runs it as a matrix leg with `SONET_THREADS={1,2,8}`: when the
//! thread variable is set, each test compares that thread count against
//! the serial baseline; unset, it sweeps 1, 2, and 8 itself.

use sonet_dc::core::reports::Fig15Config;
use sonet_dc::core::supervised::{run_capture, RunStatus, SuperviseOptions};
use sonet_dc::core::supervisor::RunBudget;
use sonet_dc::core::{
    packet_tier_spec, reports, CaptureConfig, FleetData, FleetRunConfig, ScenarioScale,
    StandardCapture,
};
use sonet_dc::netsim::{
    FaultKind, FaultPlan, FidelityConfig, NullTap, Packet, PacketTap, SimConfig, Simulator,
};
use sonet_dc::telemetry::{FbflowConfig, FbflowSampler};
use sonet_dc::topology::{
    ClusterSpec, DatacenterSpec, HostRole, LinkId, SiteSpec, Topology, TopologySpec,
};
use sonet_dc::util::obs::{self, ObsMode};
use sonet_dc::util::{par, Rng, SimDuration, SimTime};
use sonet_dc::workload::{ServiceProfiles, Workload};
use std::sync::Arc;
use std::time::Duration;

/// Thread counts under test: `SONET_THREADS` (the CI matrix leg) against
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

/// Runs `f` with the process-default thread count pinned to `w`. The
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
/// claims the mode — like the thread count — cannot be observed in any
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
    // replayed from the calendar. Fault application, rerouting, and the
    // degraded tap stream must all stay independent of the thread count.
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
/// the calendar would surface here as a differing sample stream.
fn fbflow_fingerprint() -> String {
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("spec"));
    let sampler = FbflowSampler::new(&topo, FbflowConfig { sampling_rate: 11 }, Rng::new(2015));
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), sampler).expect("sim");
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
    // A direct `Simulator` run reads no thread count, so the width sweep
    // reduces to determinism: two runs, one sample stream.
    let base = fbflow_fingerprint();
    assert!(
        base.len() > 100,
        "the sampler must actually collect something"
    );
    assert_eq!(
        base,
        fbflow_fingerprint(),
        "a second run changed the Fbflow sample stream"
    );
}

#[test]
fn buffer_sampler_series_identical_at_every_width() {
    // Fig 15 is the switch-side buffer-occupancy experiment: µs-scale
    // occupancy windows, per-second utilization series, and drop counts,
    // all read from `SimOutputs`. The sampler windows close inside the
    // engine's event loop, so this pins their series against the thread
    // count.
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
    // at any thread count.
    let cfg = CaptureConfig::fast(4242);
    let base = at_obs(ObsMode::Off, || at_width(1, || capture_fingerprint(&cfg)));
    // The mode sweep at one thread, then the expensive tier (deep, with
    // per-window spans recording) against the full thread matrix.
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
    // engine state + workload RNGs + mirror) must not encode the thread
    // count that produced it: stop two runs at their first checkpoint
    // with different counts and compare the files byte for byte.
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
    // per-barrier invariant auditor enabled, compared against the same
    // run without it. The auditor re-checks packet conservation and
    // calendar monotonicity at every lookahead barrier, so a merge-order
    // bug aborts loudly instead of surfacing as a silent diff, and it
    // only reads, so it must not move a byte.
    let topo = Arc::new(Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("spec"));
    let run = |audit: bool| {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("sim");
        sim.audit_every_barrier(audit);
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
    assert_eq!(
        run(false),
        run(true),
        "the barrier audit changed direct engine outputs"
    );
}

/// FNV-1a 64 of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Records every tapped packet, in call order.
#[derive(Default)]
struct TapLog(Vec<(SimTime, LinkId, Packet)>);

impl PacketTap for TapLog {
    fn on_packet(&mut self, at: SimTime, link: LinkId, pkt: &Packet) {
        self.0.push((at, link, *pkt));
    }
}

/// The digests a run of [`pinned_engine_run`] must reproduce: its
/// `SimOutputs` JSON, its tap stream and a mid-run checkpoint JSON.
#[derive(Debug, PartialEq, Eq)]
struct EngineDigests {
    outputs: u64,
    taps: u64,
    checkpoint: u64,
}

/// A two-datacenter engine run that touches every path the engine's
/// event keys and merge orders govern: a fault plan (link down/up,
/// degrade, gray), a client abort whose peer sits in the other
/// datacenter, latency recording, utilization tracking, taps on one web
/// host, a buffer sampler over switches in two regions (registered out
/// of region order), connection-slot reuse after the mid-run checkpoint,
/// and — in hybrid mode — fast flows with exactly one heavy-flow
/// demotion.
fn pinned_engine_run(hybrid: bool) -> EngineDigests {
    let site = |cluster: ClusterSpec| SiteSpec {
        datacenters: vec![DatacenterSpec {
            clusters: vec![cluster],
        }],
    };
    let spec = TopologySpec {
        sites: vec![
            site(ClusterSpec::frontend(4, 4)),
            site(ClusterSpec::cache(2, 3)),
        ],
        ..TopologySpec::default()
    };
    let topo = Arc::new(Topology::build(spec).expect("valid spec"));
    let cfg = SimConfig {
        rto: SimDuration::from_millis(4),
        max_consecutive_rtos: 2,
        conn_quarantine: SimDuration::from_millis(5),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(Arc::clone(&topo), cfg, TapLog::default()).expect("sim");
    if hybrid {
        sim.set_fidelity(FidelityConfig {
            heavy_flow_bytes: 256 << 10,
            ..FidelityConfig::hybrid()
        })
        .expect("hybrid");
    }
    sim.record_latencies(true);
    let webs = topo.hosts_with_role(HostRole::Web).to_vec();
    let caches = topo.hosts_with_role(HostRole::CacheLeader).to_vec();
    let followers = topo.hosts_with_role(HostRole::CacheFollower).to_vec();
    assert_eq!((webs.len(), caches.len()), (4, 6));
    sim.watch_link(topo.host_uplink(webs[0]));
    sim.watch_link(topo.host_downlink(webs[0]));
    sim.track_utilization(SimDuration::from_millis(1), &[topo.host_uplink(webs[0])])
        .expect("track");
    // The cache-leader rack 1 switch (second datacenter) before the
    // follower rack switch (first datacenter): two regions, listed out
    // of region order.
    let rsw_of = |h| topo.racks()[topo.host(h).rack.index()].rsw;
    sim.sample_buffers(
        SimDuration::from_micros(100),
        SimDuration::from_millis(2),
        vec![rsw_of(caches[5]), rsw_of(followers[0])],
    )
    .expect("sample");
    let ms = SimTime::from_millis;
    sim.inject_fault(
        ms(0),
        FaultKind::GrayLink {
            link: topo.host_uplink(webs[1]),
            drop_fraction: 0.2,
        },
    )
    .expect("gray");
    sim.inject_fault(
        ms(1),
        FaultKind::DegradeLink {
            link: topo.host_downlink(caches[0]),
            rate_factor: 0.5,
        },
    )
    .expect("degrade");
    // Cache leader 1's downlink dies for long enough that its clients
    // exhaust their RTO budget and abort; the servers they abort on live
    // in the other datacenter.
    sim.inject_fault(ms(8), FaultKind::LinkDown(topo.host_downlink(caches[1])))
        .expect("down");
    sim.inject_fault(ms(80), FaultKind::LinkUp(topo.host_downlink(caches[1])))
        .expect("up");
    let mut conns = Vec::new();
    for (i, &w) in webs.iter().enumerate() {
        for (j, &c) in caches.iter().enumerate() {
            let t0 = (i * caches.len() + j) as u64 * 17;
            let conn = sim
                .open_connection(SimTime::from_micros(t0), w, c, 11211)
                .expect("open");
            for m in 0..3u64 {
                sim.send_message(
                    conn,
                    SimTime::from_micros(t0 + m * 900),
                    300 + m * 1_700,
                    1_200,
                    SimDuration::from_micros(40),
                )
                .expect("send");
            }
            if j == 1 {
                // Still streaming when the downlink dies at 8 ms.
                sim.send_message(conn, ms(7), 400_000, 0, SimDuration::ZERO)
                    .expect("send");
            }
            conns.push(conn);
        }
        // Intra-datacenter traffic, closed early so its slots retire
        // before the second wave opens.
        let f = followers[i % followers.len()];
        let conn = sim
            .open_connection(SimTime::from_micros(5 + i as u64), w, f, 11211)
            .expect("open");
        sim.send_message(
            conn,
            SimTime::from_micros(40),
            4_000,
            9_000,
            SimDuration::ZERO,
        )
        .expect("send");
        sim.close_connection(conn, ms(2)).expect("close");
    }
    // One heavy message on a flow that avoids every island (web 3 to
    // cache leader 2): in hybrid mode, the one demotion.
    let heavy = conns[3 * caches.len() + 2];
    sim.send_message(heavy, ms(1), 200_000, 100_000, SimDuration::ZERO)
        .expect("heavy");
    sim.run_until(ms(20));
    let checkpoint = serde_json::to_string(&sim.checkpoint()).expect("checkpoint");
    // A second wave reuses the retired slots.
    for (i, &w) in webs.iter().enumerate() {
        let conn = sim
            .open_connection(ms(22), w, followers[(i + 1) % followers.len()], 80)
            .expect("reopen");
        sim.send_message(conn, ms(22), 2_500, 500, SimDuration::from_micros(10))
            .expect("send");
    }
    sim.run_until(ms(120));
    sim.run_to_quiescence();
    let (out, taps) = sim.finish();
    assert!(out.faults_applied == 4 && out.aborted_connections > 0);
    assert!(out.gray_dropped_packets > 0 && !out.rpc_latencies.is_empty());
    assert!(!out.buffer_stats.is_empty() && !taps.0.is_empty());
    if hybrid {
        assert!(out.flows_fast > 0 && out.fast_completed_requests > 0);
        assert_eq!(out.fast_path_demotions, 1);
    }
    EngineDigests {
        outputs: fnv64(serde_json::to_string(&out).expect("outputs").as_bytes()),
        taps: fnv64(serde_json::to_string(&taps.0).expect("taps").as_bytes()),
        checkpoint: fnv64(checkpoint.as_bytes()),
    }
}

#[test]
fn engine_bytes_match_pinned_digests() {
    // Every other test here compares two runs of one binary; these
    // constants pin the bytes themselves, so an engine refactor that
    // moves an output, a tap call or a checkpoint field fails here even
    // when it moves every run the same way.
    let packet = pinned_engine_run(false);
    let hybrid = pinned_engine_run(true);
    assert_eq!(
        packet,
        EngineDigests {
            outputs: 0x4c8d_0512_a722_cf49,
            taps: 0x62b7_9c19_3922_1e1a,
            checkpoint: 0x22ab_b32f_99c2_d647,
        },
        "packet-mode engine bytes moved"
    );
    assert_eq!(
        hybrid,
        EngineDigests {
            outputs: 0xab44_3e13_52d1_4610,
            taps: 0x62b7_9c19_3922_1e1a,
            checkpoint: 0xb0e8_bda3_e413_aa8e,
        },
        "hybrid-mode engine bytes moved"
    );
}
