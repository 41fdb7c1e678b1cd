//! Machine-readable throughput benchmark.
//!
//! Measures the three rates the performance work is judged on — engine
//! events/sec, fleet-tier records/sec (generation + tagging), and
//! end-to-end scenario wall time (fleet generate + tag + Table 3 +
//! Fig 5) — plus the partitioned, obs, hybrid, checkpoint and fleet-layer
//! legs, fills a
//! [`sonet_bench::ledger::Bench`] and writes it to `BENCH.json` with
//! `serde_json`. It then runs [`sonet_bench::ledger::gates`] against the
//! committed `crates/bench/BENCH-baseline.json`, prints one
//! `OK`/`SKIP`/`FAIL` line per gate and exits non-zero if any gate
//! fails. The file is written first, so a failing run still leaves its
//! numbers on disk.
//!
//! ```text
//! cargo bench -p sonet-bench --bench throughput -- --threads 2
//! SONET_BENCH_FAST=1 cargo bench -p sonet-bench --bench throughput
//! ```
//!
//! `--threads N` (or `SONET_THREADS=N`) sets the fleet leg's shard
//! fan-out; every engine leg runs serially. The outputs are
//! byte-identical for every value, only the rates move.
//! `SONET_BENCH_OUT` overrides the output path (default `BENCH.json`).

use sonet_bench::ledger::{self, Bench, Checkpoint, Fleet, Hybrid, Obs, ObsTimeline, Partitioned};
use sonet_bench::{banner, fast_mode, BENCH_SEED};
use sonet_core::reports;
use sonet_core::scenario::{fleet_spec, packet_tier_spec, ScenarioScale};
use sonet_core::{FleetData, FleetRunConfig};
use sonet_netsim::{EngineCheckpoint, FidelityConfig, NullTap, SimConfig, Simulator};
use sonet_telemetry::Tagger;
use sonet_topology::{ClusterSpec, DatacenterSpec, HostRole, SiteSpec, Topology, TopologySpec};
use sonet_util::obs::{self, ObsMode};
use sonet_util::{par, SimDuration, SimTime};
use sonet_workload::fleet::sort_by_time;
use sonet_workload::{FleetConfig, FleetModel, ServiceProfiles, Workload};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// `n` per `secs`, guarded against a zero-length timing.
fn per_sec(n: u64, secs: f64) -> f64 {
    n as f64 / secs.max(1e-9)
}

/// Engine throughput: drive the packet-tier workload on its plant for a
/// few simulated seconds and count calendar events per wall second.
fn bench_engine(scale: ScenarioScale, sim_secs: u64) -> (u64, f64) {
    let topo = Arc::new(Topology::build(packet_tier_spec(scale)).expect("preset spec"));
    let mut workload = Workload::new(Arc::clone(&topo), ServiceProfiles::default(), BENCH_SEED)
        .expect("preset workload");
    let mut sim =
        Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("preset sim");
    let start = Instant::now();
    for s in 1..=sim_secs {
        let t = SimTime::from_secs(s);
        workload.generate(&mut sim, t).expect("generation");
        sim.run_until(t);
        // Streaming-timeline window hook, mirroring the supervised
        // drivers: two relaxed loads when no timeline is installed.
        obs::timeline::window_tick(t.as_nanos());
    }
    let events = sim.processed_events();
    (events, start.elapsed().as_secs_f64())
}

/// A four-datacenter plant: four frontend/cache datacenter pairs joined
/// by the backbone, whose DR ↔ backbone links carry 1 ms of
/// propagation.
fn four_dc_topo(fast: bool) -> Arc<Topology> {
    let (fr, fh, cr, ch) = if fast { (4, 3, 2, 3) } else { (6, 8, 4, 8) };
    let dc = || SiteSpec {
        datacenters: vec![DatacenterSpec {
            clusters: vec![ClusterSpec::frontend(fr, fh), ClusterSpec::cache(cr, ch)],
        }],
    };
    let spec = TopologySpec {
        sites: vec![dc(), dc(), dc(), dc()],
        ..TopologySpec::default()
    };
    Arc::new(Topology::build(spec).expect("bench spec"))
}

/// Seeds the paper's frontend locality mix (Table 3): every web server
/// keeps a steady request train to a cache follower in its *own*
/// cluster, and one in four adds a sparse miss train to a cache leader
/// in a *different* datacenter. The intra-cluster bulk never leaves its
/// cluster; only the thin cross-DC tail crosses the backbone. Returns
/// the horizon the caller should run to.
fn seed_locality_mix(sim: &mut Simulator<NullTap>, topo: &Arc<Topology>, fast: bool) -> SimTime {
    let webs = topo.hosts_with_role(HostRole::Web);
    let leaders = topo.hosts_with_role(HostRole::CacheLeader);
    let horizon = if fast {
        SimTime::from_millis(250)
    } else {
        SimTime::from_secs(1)
    };
    for (i, &w) in webs.iter().enumerate() {
        let host = topo.host(w);
        let followers = topo.hosts_with_role_in_cluster(host.cluster, HostRole::CacheFollower);
        let t0 = SimTime::from_micros(i as u64 * 17);
        let c = sim
            .open_connection(t0, w, followers[i % followers.len()], 11211)
            .expect("open");
        // The intra-cluster request train: bulk of the event volume.
        let mut t = t0;
        let mut m = 0u64;
        while t < horizon {
            sim.send_message(
                c,
                t,
                4_000 + (m % 7) * 800,
                1_500,
                SimDuration::from_micros(60),
            )
            .expect("send");
            t += SimDuration::from_micros(1_900);
            m += 1;
        }
        if i % 4 == 0 {
            // The cross-DC miss train: an order of magnitude sparser.
            let remote: Vec<_> = leaders
                .iter()
                .copied()
                .filter(|&l| topo.host(l).datacenter != host.datacenter)
                .collect();
            let l = remote[(i / 4) % remote.len()];
            let t0 = t0 + SimDuration::from_micros(7);
            let c = sim.open_connection(t0, w, l, 11211).expect("open");
            let mut t = t0;
            while t < horizon {
                sim.send_message(c, t, 6_200, 1_500, SimDuration::from_micros(120))
                    .expect("send");
                t += SimDuration::from_micros(19_000);
            }
        }
    }
    horizon
}

/// Capture-tier engine throughput on the four-datacenter plant, driven
/// through one `run_until` horizon.
fn bench_partitioned(topo: &Arc<Topology>, fast: bool) -> Partitioned {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("bench sim");
    let horizon = seed_locality_mix(&mut sim, topo, fast);
    let start = Instant::now();
    sim.run_until(horizon);
    let secs = start.elapsed().as_secs_f64();
    let events = sim.processed_events();
    Partitioned {
        events,
        secs,
        rate: per_sec(events, secs),
        barriers: sim.parallel_stats().barriers,
    }
}

/// Hybrid fast-path speedup: the locality-mix bulk workload — no
/// mirrors, no buffer watchers, no faults, every message well under the
/// heavy-hitter threshold, so nothing carves a fidelity island — run
/// serially once on the packet engine and once with the flow-level fast
/// path. Both runs must complete the same requests; the hybrid run just
/// skips the per-packet event train to get there. Interleaved best-of-N
/// in this process: the hybrid leg finishes in milliseconds on the
/// fast-mode plant, and a single noisy sample must not swing a ≥5×
/// ratio gate.
fn bench_hybrid(topo: &Arc<Topology>, fast: bool, rounds: u32) -> Hybrid {
    let run = |hybrid: bool| {
        let mut sim =
            Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("bench sim");
        if hybrid {
            sim.set_fidelity(FidelityConfig::hybrid())
                .expect("fidelity");
        }
        let horizon = seed_locality_mix(&mut sim, topo, fast);
        let start = Instant::now();
        sim.run_until(horizon);
        let secs = start.elapsed().as_secs_f64();
        let events = sim.processed_events();
        let (out, _) = sim.finish();
        (events, secs, out)
    };
    let (packet_events, mut packet_secs, pout) = run(false);
    let (hybrid_events, mut hybrid_secs, hout) = run(true);
    for _ in 1..rounds {
        packet_secs = packet_secs.min(run(false).1);
        hybrid_secs = hybrid_secs.min(run(true).1);
    }
    assert_eq!(
        pout.completed_requests, hout.completed_requests,
        "hybrid must complete the same requests as packet"
    );
    assert_eq!(
        hout.flows_packet, 0,
        "the bulk workload must not carve fidelity islands"
    );
    Hybrid {
        packet_events,
        packet_secs,
        hybrid_events,
        hybrid_secs,
        completed_requests: hout.completed_requests,
        flows_fast: hout.flows_fast,
        equiv_events_sec: per_sec(packet_events, hybrid_secs),
        wall_speedup_over_packet: packet_secs / hybrid_secs.max(1e-9),
    }
}

/// Checkpoint cost on the hybrid leg's plant and workload: the run is
/// stopped halfway to its horizon, then checkpointed to JSON text and
/// restored from that text `rounds` times, keeping the fastest of each.
/// Restore covers parsing as well as `Simulator::restore`.
fn bench_checkpoint(topo: &Arc<Topology>, fast: bool, rounds: u32) -> Checkpoint {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("bench sim");
    sim.set_fidelity(FidelityConfig::hybrid())
        .expect("fidelity");
    let horizon = seed_locality_mix(&mut sim, topo, fast);
    sim.run_until(SimTime::from_nanos(horizon.as_nanos() / 2));
    let (mut write_secs, mut restore_secs) = (f64::INFINITY, f64::INFINITY);
    let mut bytes = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        let text = serde_json::to_string(&sim.checkpoint()).expect("serialize checkpoint");
        write_secs = write_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let ckpt: EngineCheckpoint = serde_json::from_str(&text).expect("parse checkpoint");
        let restored = Simulator::restore(Arc::clone(topo), NullTap, ckpt).expect("restore");
        restore_secs = restore_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(
            restored.pending_events(),
            sim.pending_events(),
            "the restored engine must hold the same calendar"
        );
        bytes = text.len() as u64;
    }
    Checkpoint {
        bytes,
        write_secs,
        restore_secs,
    }
}

/// Wall seconds each obs-overhead leg is sized to reach: long enough
/// that scheduler and cache noise is a small share of the timing.
const OBS_MIN_LEG_SECS: f64 = 0.25;

/// Paired off/summary rounds of the obs-overhead leg (odd, so the
/// median is one round's value).
const OBS_ROUNDS: usize = 7;

/// The middle value of a non-empty `v` (the upper middle one for an
/// even length).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Flight-recorder overhead: the same serial engine workload with the
/// recorder off and at `--obs summary`, in [`OBS_ROUNDS`] rounds in this
/// process. Each round gives both legs the same number of engine runs,
/// enough that a leg takes at least [`OBS_MIN_LEG_SECS`], alternating
/// between the legs run by run so slow drift in the host hits both. The
/// overhead is the median of the per-round paired overheads: comparing
/// sibling runs (not the committed baseline) keeps the ≤2% gate
/// insensitive to how fast the runner itself is, and the median keeps
/// one noisy round from deciding it. The summary leg streams a timeline
/// (250 ms sim interval) so the ≤2% budget covers the snapshot path too;
/// its cost is returned as the `obs_timeline` BENCH block.
fn bench_obs_overhead(scale: ScenarioScale, sim_secs: u64) -> (Obs, ObsTimeline) {
    let tl_path = std::env::temp_dir().join("sonet-bench-TIMELINE.jsonl");
    let mut tl = ObsTimeline {
        snapshots: 0,
        snapshot_us: 0.0,
        bytes_per_min: 0.0,
    };
    // One engine run, with the recorder off or at summary.
    let mut run = |summary: bool| {
        if !summary {
            return bench_engine(scale, sim_secs);
        }
        obs::set_mode(ObsMode::Summary);
        obs::timeline::set_interval_ns(250_000_000);
        obs::timeline::install(&tl_path).expect("bench timeline install");
        let (events, secs) = bench_engine(scale, sim_secs);
        let stats = obs::timeline::finish(SimTime::from_secs(sim_secs).as_nanos());
        obs::set_mode(ObsMode::Off);
        obs::timeline::set_interval_ns(0);
        if let Some(s) = stats {
            tl = ObsTimeline {
                snapshots: s.snapshots,
                snapshot_us: s.spent_ns as f64 / 1_000.0 / s.snapshots.max(1) as f64,
                bytes_per_min: s.bytes as f64 / (secs.max(1e-9) / 60.0),
            };
        }
        (events, secs)
    };
    // One untimed run warms caches and sizes the legs.
    let (_, once) = run(false);
    let reps = (OBS_MIN_LEG_SECS / once.max(1e-9)).ceil().max(1.0) as usize;
    let (mut offs, mut summaries, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..OBS_ROUNDS {
        // [off, summary] events and seconds. Each pair of runs goes in
        // the order the previous pair did not use.
        let mut legs = [(0u64, 0.0f64); 2];
        for i in 0..reps {
            let first = (round + i) % 2;
            for leg in [first, 1 - first] {
                let (events, secs) = run(leg == 1);
                legs[leg].0 += events;
                legs[leg].1 += secs;
            }
        }
        let [off, summary] = legs.map(|(events, secs)| per_sec(events, secs));
        offs.push(off);
        summaries.push(summary);
        overheads.push((off - summary) / off.max(1e-9) * 100.0);
    }
    std::fs::remove_file(&tl_path).ok();
    let obs = Obs {
        off_events_sec: median(offs),
        summary_events_sec: median(summaries),
        overhead_pct: median(overheads),
    };
    (obs, tl)
}

/// Fleet tier: generation + tagging rate, then the analysis stage
/// (Table 3 + Fig 5) on the resulting table.
fn bench_fleet(cfg: &FleetRunConfig, threads: Option<usize>) -> (u64, f64, f64) {
    let start = Instant::now();
    let fleet = FleetData::run_with(cfg, threads).expect("preset fleet config");
    let generate_secs = start.elapsed().as_secs_f64();
    let records = fleet.table.len() as u64;
    let start = Instant::now();
    let t3 = reports::table3(&fleet);
    let f5 = reports::fig5(&fleet).expect("preset plants have all cluster types");
    assert!(t3.table.all.bytes > 0 && f5.hadoop.diagonal_fraction >= 0.0);
    let analysis_secs = start.elapsed().as_secs_f64();
    (records, generate_secs, analysis_secs)
}

/// `f`'s result and its wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The fleet tier layer by layer on `cfg`, `rounds` times, keeping the
/// fastest of each layer: the host-order sample stream, its time sort,
/// tagging (over `threads` shards, like `FleetData::run_with`), then
/// Table 3 and Fig 5 on the table.
fn bench_fleet_layers(cfg: &FleetRunConfig, threads: usize, rounds: u32) -> Fleet {
    let topo = Arc::new(Topology::build(fleet_spec(cfg.scale)).expect("preset spec"));
    let mut best = Fleet {
        rows: 0,
        generate_secs: f64::INFINITY,
        sort_secs: f64::INFINITY,
        tag_secs: f64::INFINITY,
        table3_secs: f64::INFINITY,
        fig5_secs: f64::INFINITY,
    };
    for _ in 0..rounds {
        let fleet_cfg = FleetConfig {
            samples_per_host: cfg.samples_per_host,
            ..FleetConfig::default()
        };
        let mut model = FleetModel::new(Arc::clone(&topo), fleet_cfg, cfg.seed);
        model.set_parallelism(Some(threads));
        let (mut samples, generate) = timed(|| model.generate_chunk(u32::MAX));
        let ((), sort) = timed(|| sort_by_time(&mut samples));
        let (table, tag) = timed(|| Tagger::new(&topo).ingest_sharded(&samples, threads));
        let data = FleetData {
            topo: Arc::clone(&topo),
            table,
            relaxed_picks: model.relaxed_picks(),
            agent_dropped: 0,
        };
        let (t3, table3) = timed(|| reports::table3(&data));
        let (f5, fig5) = timed(|| reports::fig5(&data).expect("preset plants have both types"));
        assert!(t3.table.all.bytes > 0 && f5.clusters.fill > 0.0);
        best = Fleet {
            rows: data.table.len() as u64,
            generate_secs: best.generate_secs.min(generate),
            sort_secs: best.sort_secs.min(sort),
            tag_secs: best.tag_secs.min(tag),
            table3_secs: best.table3_secs.min(table3),
            fig5_secs: best.fig5_secs.min(fig5),
        };
    }
    best
}

fn main() -> ExitCode {
    // Criterion-style flag noise (`--bench`) is ignored; only --threads
    // matters here.
    let args: Vec<String> = std::env::args().collect();
    let mut threads: Option<usize> = std::env::var("SONET_THREADS")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            threads = it.next().and_then(|v| v.parse().ok());
        }
    }
    if let Some(n) = threads {
        par::set_threads(n);
    }
    let resolved = par::resolve_threads(threads);

    banner("Throughput (machine-readable: BENCH.json)");
    let (scale, sim_secs, fleet_cfg) = if fast_mode() {
        (ScenarioScale::Tiny, 2, FleetRunConfig::fast(BENCH_SEED))
    } else {
        (
            ScenarioScale::Standard,
            4,
            FleetRunConfig::standard(BENCH_SEED),
        )
    };

    let (engine_events, engine_secs) = bench_engine(scale, sim_secs);

    // The engine alone: the locality-mix workload on four datacenters.
    let four_dc = four_dc_topo(fast_mode());
    let partitioned = bench_partitioned(&four_dc, fast_mode());
    println!(
        "partitioned: {:.0} events/s ({} events / {:.2}s), {} barriers",
        partitioned.rate, partitioned.events, partitioned.secs, partitioned.barriers,
    );

    // Hybrid fidelity vs packet on the same bulk mix.
    let hybrid = bench_hybrid(&four_dc, fast_mode(), if fast_mode() { 5 } else { 3 });
    println!(
        "hybrid fidelity: packet {} events / {:.2}s, hybrid {} events / {:.2}s, \
         {} flows fast, {:.1}x wall speedup ({:.0} packet-equivalent events/s)",
        hybrid.packet_events,
        hybrid.packet_secs,
        hybrid.hybrid_events,
        hybrid.hybrid_secs,
        hybrid.flows_fast,
        hybrid.wall_speedup_over_packet,
        hybrid.equiv_events_sec,
    );

    let checkpoint = bench_checkpoint(&four_dc, fast_mode(), 5);
    println!(
        "checkpoint: {} bytes, write {:.4}s, restore {:.4}s (best of 5, hybrid plant at half \
         its horizon)",
        checkpoint.bytes, checkpoint.write_secs, checkpoint.restore_secs,
    );

    // Flight-recorder overhead on the engine, off vs summary
    // with the streaming timeline on.
    let (obs, obs_timeline) = bench_obs_overhead(scale, sim_secs);
    println!(
        "obs overhead: off {:.0} events/s, summary+timeline {:.0} events/s ({:+.2}%, median \
         of {OBS_ROUNDS} paired rounds); timeline {} snapshots, {:.1}us/snapshot, {:.0} bytes/min",
        obs.off_events_sec,
        obs.summary_events_sec,
        obs.overhead_pct,
        obs_timeline.snapshots,
        obs_timeline.snapshot_us,
        obs_timeline.bytes_per_min,
    );

    let fleet = bench_fleet_layers(&FleetRunConfig::fast(BENCH_SEED), resolved, 5);
    println!(
        "fleet layers: {} rows, generate {:.4}s, sort {:.4}s, tag {:.4}s, table3 {:.4}s, \
         fig5 {:.4}s (best of 5, fast fleet)",
        fleet.rows,
        fleet.generate_secs,
        fleet.sort_secs,
        fleet.tag_secs,
        fleet.table3_secs,
        fleet.fig5_secs,
    );

    let (fleet_records, fleet_generate_secs, analysis_secs) = bench_fleet(&fleet_cfg, threads);
    let bench = Bench {
        schema: ledger::SCHEMA,
        threads: resolved,
        fast: fast_mode(),
        engine_events,
        engine_secs,
        events_per_sec: per_sec(engine_events, engine_secs),
        fleet_records,
        fleet_generate_secs,
        fleet_records_per_sec: per_sec(fleet_records, fleet_generate_secs),
        analysis_secs,
        scenario_wall_secs: fleet_generate_secs + analysis_secs,
        partitioned,
        obs,
        obs_timeline,
        hybrid,
        checkpoint,
        fleet,
    };
    println!(
        "threads {}: engine {:.0} events/s ({} events / {:.2}s), fleet {:.0} records/s \
         ({} records / {:.2}s), analysis {:.2}s, scenario wall {:.2}s",
        bench.threads,
        bench.events_per_sec,
        bench.engine_events,
        bench.engine_secs,
        bench.fleet_records_per_sec,
        bench.fleet_records,
        bench.fleet_generate_secs,
        bench.analysis_secs,
        bench.scenario_wall_secs,
    );

    let out = std::env::var("SONET_BENCH_OUT").unwrap_or_else(|_| "BENCH.json".to_string());
    let text = serde_json::to_string_pretty(&bench).expect("serialize BENCH.json");
    std::fs::write(&out, text + "\n").expect("write BENCH.json");
    println!("wrote {out}");

    let baseline: Bench =
        serde_json::from_str(ledger::BASELINE).expect("parse BENCH-baseline.json");
    let mut failed = false;
    for gate in ledger::gates(&bench, &baseline) {
        println!("{gate}");
        failed |= gate.verdict == ledger::Verdict::Fail;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
