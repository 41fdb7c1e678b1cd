//! Property-based tests over cross-crate invariants: random plants,
//! random traffic, and the analysis primitives' defining properties.

use proptest::prelude::*;
use sonet_dc::netsim::{NullTap, SimConfig, Simulator};
use sonet_dc::topology::{
    ClusterSpec, DatacenterSpec, HostId, Locality, Node, SiteSpec, Topology, TopologySpec,
};
use sonet_dc::util::{EmpiricalCdf, SimDuration, SimTime};
use std::sync::Arc;

/// Strategy: a random multi-datacenter plant.
fn arb_spec() -> impl Strategy<Value = TopologySpec> {
    (
        4u32..10,  // frontend racks
        1u32..4,   // hadoop racks
        1u32..3,   // cache racks
        2u32..6,   // hosts per rack
        1usize..3, // number of sites
    )
        .prop_map(|(fe, hd, ca, hosts, sites)| {
            let dc = DatacenterSpec {
                clusters: vec![
                    ClusterSpec::frontend(fe, hosts),
                    ClusterSpec::hadoop(hd, hosts),
                    ClusterSpec::cache(ca, hosts),
                ],
            };
            TopologySpec {
                sites: (0..sites)
                    .map(|_| SiteSpec {
                        datacenters: vec![dc.clone()],
                    })
                    .collect(),
                ..TopologySpec::default()
            }
        })
}

/// Strategy: any fault kind, including the gray-failure and flap variants
/// the chaos subsystem introduced.
fn arb_fault_kind() -> impl Strategy<Value = sonet_dc::netsim::FaultKind> {
    use sonet_dc::netsim::FaultKind;
    use sonet_dc::topology::{LinkId, SwitchId};
    prop_oneof![
        (0u32..64).prop_map(|l| FaultKind::LinkDown(LinkId(l))),
        (0u32..64).prop_map(|l| FaultKind::LinkUp(LinkId(l))),
        (0u32..16).prop_map(|s| FaultKind::SwitchDown(SwitchId(s))),
        (0u32..16).prop_map(|s| FaultKind::SwitchUp(SwitchId(s))),
        (0u32..64, 0.01f64..1.0).prop_map(|(l, f)| FaultKind::DegradeLink {
            link: LinkId(l),
            rate_factor: f,
        }),
        (0u32..64, 0.0f64..1.0).prop_map(|(l, f)| FaultKind::GrayLink {
            link: LinkId(l),
            drop_fraction: f,
        }),
        (0u32..64, 1u64..5_000, 1u32..20).prop_map(|(l, half_us, cycles)| {
            FaultKind::FlapLink {
                link: LinkId(l),
                half_period: SimDuration::from_micros(half_us),
                cycles,
            }
        }),
        (0.0f64..1.0).prop_map(|f| FaultKind::MirrorLoss { fraction: f }),
        (0.0f64..1.0).prop_map(|f| FaultKind::FbflowLoss { fraction: f }),
    ]
}

/// Strategy: any chaos-profile element, bounds chosen to stay valid.
fn arb_chaos_element() -> impl Strategy<Value = sonet_dc::core::chaos::ChaosElement> {
    use sonet_dc::core::chaos::ChaosElement;
    prop_oneof![
        (1u32..4, any::<bool>())
            .prop_map(|(count, recover)| ChaosElement::RackOutage { count, recover }),
        (1u32..4, any::<bool>())
            .prop_map(|(csws, recover)| ChaosElement::PodOutage { csws, recover }),
        (1u32..4, 1u32..6).prop_map(|(links, cycles)| ChaosElement::LinkFlaps { links, cycles }),
        (1u32..4, 0.05f64..0.4).prop_map(|(links, lo)| ChaosElement::GrayCore {
            links,
            min_fraction: lo,
            max_fraction: lo + 0.3,
        }),
        (1u32..4).prop_map(|links| ChaosElement::AsymPartition { links }),
        (1u32..4, 1u32..5, 0.1f64..0.9).prop_map(|(links, steps, floor_factor)| {
            ChaosElement::DegradedRamp {
                links,
                steps,
                floor_factor,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every route is a valid chain from source NIC to destination NIC,
    /// regardless of plant shape, endpoints, or ECMP hash.
    #[test]
    fn routes_always_chain((spec, hash, pick) in (arb_spec(), any::<u64>(), any::<(u32, u32)>())) {
        let topo = Topology::build(spec).expect("generated specs are valid");
        let n = topo.hosts().len() as u32;
        let a = HostId(pick.0 % n);
        let b = HostId(pick.1 % n);
        prop_assume!(a != b);
        let path = topo.route(a, b, hash).expect("distinct endpoints");
        let links = topo.links();
        prop_assert_eq!(links[path[0].index()].from, Node::Host(a));
        prop_assert_eq!(links[path[path.len() - 1].index()].to, Node::Host(b));
        for w in path.windows(2) {
            prop_assert_eq!(links[w[0].index()].to, links[w[1].index()].from);
        }
        // Hop count is determined by locality.
        let expected = match topo.locality(a, b) {
            Locality::IntraRack => 2,
            Locality::IntraCluster => 4,
            Locality::IntraDatacenter => 6,
            Locality::InterDatacenter => 8,
        };
        prop_assert_eq!(path.len(), expected);
    }

    /// Locality is symmetric and consistent with shared containers.
    #[test]
    fn locality_is_symmetric((spec, pick) in (arb_spec(), any::<(u32, u32)>())) {
        let topo = Topology::build(spec).expect("valid");
        let n = topo.hosts().len() as u32;
        let a = HostId(pick.0 % n);
        let b = HostId(pick.1 % n);
        prop_assume!(a != b);
        prop_assert_eq!(topo.locality(a, b), topo.locality(b, a));
    }

    /// Transport conservation: whatever the message mix, the engine
    /// delivers exactly the request payload to the server side, and
    /// all requests complete in an uncongested plant.
    #[test]
    fn transport_conserves_payload(
        sizes in prop::collection::vec(1u64..200_000, 1..12),
        spacing_us in 1u64..5_000,
    ) {
        let topo = Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 3)]))
                .expect("valid"),
        );
        let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
            .expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        let total: u64 = sizes.iter().sum();
        for (i, &s) in sizes.iter().enumerate() {
            sim.send_message(
                conn,
                SimTime::from_micros(i as u64 * spacing_us),
                s,
                0,
                SimDuration::ZERO,
            )
            .expect("send");
        }
        sim.run_to_quiescence();
        let (out, _) = sim.finish();
        prop_assert_eq!(out.completed_requests, sizes.len() as u64);
        // Payload delivered = wire bytes on the destination downlink minus
        // framing of data packets minus control packets; instead check the
        // uplink carried at least the payload and no drops occurred.
        let up = topo.host_uplink(a);
        prop_assert!(out.link_counters[up.index()].tx_bytes >= total);
        prop_assert_eq!(out.link_counters[up.index()].drop_packets, 0);
    }

    /// The heavy-hitter set really is a minimal >= 50 % cover.
    #[test]
    fn heavy_hitters_cover_half_minimally(
        bytes in prop::collection::vec(1u64..1_000_000, 1..50),
    ) {
        use sonet_dc::analysis::heavy_hitters::{hitters_per_interval, HeavyHitterAgg};
        use sonet_dc::analysis::HostTrace;
        use sonet_dc::netsim::{ConnId, Dir, FlowKey, Packet, PacketKind};
        use sonet_dc::telemetry::PacketRecord;
        use sonet_dc::topology::LinkId;

        let topo = Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(
            6, 4,
        )]))
        .expect("valid");
        let src = topo.racks()[0].hosts[0];
        let dst = topo.racks()[1].hosts[0];
        // All packets in one 1-ms interval, one flow per entry.
        let records: Vec<PacketRecord> = bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| PacketRecord {
                at: SimTime::from_micros(i as u64 % 900),
                link: LinkId(0),
                pkt: Packet {
                    conn: ConnId { idx: 0, gen: 0 },
                    key: FlowKey {
                        client: src,
                        server: dst,
                        client_port: i as u16,
                        server_port: 80,
                    },
                    dir: Dir::ClientToServer,
                    kind: PacketKind::Data { last_of_msg: false },
                    seq: 0,
                    msg: 0,
                    payload: 0,
                    wire_bytes: b.min(u32::MAX as u64) as u32,
                },
            })
            .collect();
        let trace = HostTrace::from_mirror(&records, src);
        let per = hitters_per_interval(
            &trace,
            &topo,
            SimDuration::from_millis(1),
            HeavyHitterAgg::Flow,
        );
        prop_assert_eq!(per.len(), 1);
        let hh = &per[0];
        let hh_bytes: u64 = hh.hitter_bytes.iter().sum();
        // Covers at least half...
        prop_assert!(hh_bytes * 2 >= hh.total_bytes);
        // ...and is minimal: dropping the smallest member goes below half.
        if hh.hitter_bytes.len() > 1 {
            let smallest = *hh.hitter_bytes.iter().min().expect("non-empty");
            prop_assert!((hh_bytes - smallest) * 2 < hh.total_bytes);
        }
    }

    /// A checkpoint taken at an *arbitrary* mid-run instant — not just a
    /// tidy window boundary — serializes, deserializes, and restores to
    /// an engine whose remaining run is byte-identical to the original's.
    #[test]
    fn engine_checkpoint_restores_byte_identically(
        ckpt_us in 100u64..3_000,
        sizes in prop::collection::vec(1u64..150_000, 1..10),
    ) {
        let topo = Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 3)]))
                .expect("valid"),
        );
        let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
            .expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        for (i, &s) in sizes.iter().enumerate() {
            sim.send_message(
                conn,
                SimTime::from_micros(i as u64 * 200),
                s,
                s / 2,
                SimDuration::ZERO,
            )
            .expect("send");
        }
        sim.run_until(SimTime::from_micros(ckpt_us));
        let ckpt = sim.checkpoint();
        let text = serde_json::to_string(&ckpt).expect("serializes");
        let back = serde_json::from_str(&text).expect("parses");
        let mut restored = Simulator::restore(Arc::clone(&topo), NullTap, back)
            .expect("restore");
        sim.run_to_quiescence();
        restored.run_to_quiescence();
        let (orig, _) = sim.finish();
        let (res, _) = restored.finish();
        prop_assert_eq!(
            serde_json::to_string(&orig).expect("json"),
            serde_json::to_string(&res).expect("json"),
            "restored engine must finish byte-identically"
        );
    }

    /// The engine on a *random* multi-DC plant with a random workload,
    /// with the invariant auditor re-checking conservation and
    /// monotonicity at every window barrier, replays the unaudited run
    /// event for event: same processed event count, same output bytes.
    /// (The name dates from the per-datacenter calendars.)
    #[test]
    fn partitioned_run_matches_serial_event_for_event(
        spec in arb_spec(),
        conns in prop::collection::vec(
            (
                any::<(u32, u32)>(),
                0u64..2_000,
                prop::collection::vec((1u64..60_000, 0u64..4_000, 1u64..300), 1..5),
            ),
            1..10,
        ),
    ) {
        let topo = Arc::new(Topology::build(spec).expect("generated specs are valid"));
        let n = topo.hosts().len() as u32;
        let run = |audit: bool| {
            let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
                .expect("config");
            sim.audit_every_barrier(audit);
            for (pick, start_us, msgs) in &conns {
                let a = HostId(pick.0 % n);
                let b = HostId(pick.1 % n);
                if a == b {
                    continue;
                }
                let conn = sim
                    .open_connection(SimTime::from_micros(*start_us), a, b, 80)
                    .expect("open");
                let mut t = *start_us;
                for &(req, resp, gap_us) in msgs {
                    sim.send_message(
                        conn,
                        SimTime::from_micros(t),
                        req,
                        resp,
                        SimDuration::from_micros(12),
                    )
                    .expect("send");
                    t += gap_us;
                }
            }
            sim.run_to_quiescence();
            let events = sim.processed_events();
            let (out, _) = sim.finish();
            (events, serde_json::to_string(&out).expect("json"))
        };
        let (plain_events, plain_out) = run(false);
        let (audited_events, audited_out) = run(true);
        prop_assert_eq!(plain_events, audited_events, "event count diverged under audit");
        prop_assert_eq!(plain_out, audited_out, "outputs diverged under audit");
    }

    /// The runtime auditor holds at any instant of a healthy run: packet
    /// conservation, link-rate bounds, calendar monotonicity.
    #[test]
    fn audit_holds_at_any_instant(
        at_us in 1u64..5_000,
        sizes in prop::collection::vec(1u64..100_000, 1..8),
    ) {
        let topo = Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 3)]))
                .expect("valid"),
        );
        let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
            .expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[2].hosts[0];
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        for (i, &s) in sizes.iter().enumerate() {
            sim.send_message(
                conn,
                SimTime::from_micros(i as u64 * 150),
                s,
                0,
                SimDuration::ZERO,
            )
            .expect("send");
        }
        sim.run_until(SimTime::from_micros(at_us));
        if let Err(report) = sim.audit() {
            prop_assert!(false, "audit failed: {report}");
        }
    }

    /// Chunked fleet generation (what the supervised driver checkpoints
    /// between) emits exactly the one-shot sample stream for every chunk
    /// size, so a resumed fleet run tags an identical ScubaTable.
    #[test]
    fn fleet_chunked_generation_matches_one_shot(
        chunk in 1u32..40,
        seed in any::<u64>(),
    ) {
        use sonet_dc::core::{fleet_spec, ScenarioScale};
        use sonet_dc::workload::{FleetConfig, FleetModel};

        let topo = Arc::new(
            Topology::build(fleet_spec(ScenarioScale::Tiny)).expect("valid"),
        );
        let cfg = FleetConfig {
            samples_per_host: 5,
            ..FleetConfig::default()
        };
        let mut one_shot = FleetModel::new(Arc::clone(&topo), cfg.clone(), seed);
        let all = one_shot.generate();

        let mut chunked = FleetModel::new(Arc::clone(&topo), cfg, seed);
        let mut collected = Vec::new();
        while !chunked.exhausted() {
            collected.extend(chunked.generate_chunk(chunk));
        }
        collected.sort_by_key(|r| r.at);
        prop_assert_eq!(&all, &collected);
        prop_assert_eq!(one_shot.relaxed_picks(), chunked.relaxed_picks());
    }

    /// Any fault plan — every kind, including the gray-failure and flap
    /// variants — survives a JSON round trip exactly: same value, same
    /// canonical bytes, same FNV identity hash.
    #[test]
    fn fault_plan_serialization_round_trips(
        events in prop::collection::vec(
            (0u64..10_000, arb_fault_kind()),
            0..20,
        ),
    ) {
        use sonet_dc::core::chaos::plan_hash;
        use sonet_dc::netsim::FaultPlan;

        let mut plan = FaultPlan::new();
        for &(at_us, kind) in &events {
            plan = plan.at(SimTime::from_micros(at_us), kind);
        }
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan parses");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(
            serde_json::to_string(&back).expect("re-serializes"),
            json,
            "canonical bytes must be stable"
        );
        prop_assert_eq!(plan_hash(&back), plan_hash(&plan));
    }

    /// A chaos profile round-trips through JSON, and the parsed copy
    /// expands to the identical fault plan — the property the committed
    /// repro-file format depends on.
    #[test]
    fn chaos_profile_serialization_round_trips(
        elements in prop::collection::vec(arb_chaos_element(), 1..6),
        seed in any::<u64>(),
    ) {
        use sonet_dc::core::chaos::ChaosProfile;
        use sonet_dc::core::{packet_tier_spec, ScenarioScale};

        let profile = ChaosProfile {
            name: "prop-profile".into(),
            elements,
        };
        let json = serde_json::to_string(&profile).expect("profile serializes");
        let back: ChaosProfile = serde_json::from_str(&json).expect("profile parses");
        prop_assert_eq!(&back, &profile);

        let topo = Topology::build(packet_tier_spec(ScenarioScale::Tiny)).expect("valid");
        let horizon = SimDuration::from_millis(2_000);
        let plan = profile.generate(&topo, seed, horizon);
        prop_assert_eq!(back.generate(&topo, seed, horizon), plan);
    }

    /// CDF quantile/fraction are mutually consistent.
    #[test]
    fn cdf_quantile_fraction_consistent(
        mut samples in prop::collection::vec(-1e6f64..1e6, 2..200),
        q in 1.0f64..99.0,
    ) {
        samples.retain(|v| v.is_finite());
        prop_assume!(samples.len() >= 2);
        let n = samples.len() as f64;
        let cdf = EmpiricalCdf::new(samples);
        let v = cdf.quantile(q).expect("non-empty");
        let frac = cdf.fraction_at(v);
        // At least q% of samples are <= the q-quantile, up to the type-7
        // interpolation slack of one order statistic (1/n).
        prop_assert!(frac * 100.0 >= q - 100.0 / n - 1e-9, "q={q} frac={frac}");
        // Monotonicity of the inverse.
        let lo = cdf.quantile(q / 2.0).expect("non-empty");
        prop_assert!(lo <= v);
    }

    /// Forced-fast vs forced-packet on random traffic: the hybrid engine
    /// must complete the same requests, close its byte-conservation law
    /// exactly once drained, and land its FCT means within the
    /// calibrated error bound of the packet engine (tests/fidelity.rs
    /// calibrates the same bound on the standard workload).
    #[test]
    fn hybrid_fast_path_matches_packet_on_random_traffic(
        sizes in prop::collection::vec((1u64..150_000, 0u64..40_000), 1..8),
        spacing_us in 100u64..3_000,
        service_us in 0u64..200,
    ) {
        use sonet_dc::netsim::{FidelityConfig, FidelityMode};

        let topo = Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 3)]))
                .expect("valid"),
        );
        let drive = |fidelity: FidelityMode| {
            let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
                .expect("config");
            if fidelity == FidelityMode::Hybrid {
                sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
            }
            sim.record_latencies(true);
            let a = topo.racks()[0].hosts[0];
            let b = topo.racks()[2].hosts[0];
            let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
            for (i, &(req, resp)) in sizes.iter().enumerate() {
                sim.send_message(
                    conn,
                    SimTime::from_micros(i as u64 * spacing_us),
                    req,
                    resp,
                    SimDuration::from_micros(service_us),
                )
                .expect("send");
            }
            sim.run_to_quiescence();
            sim.audit().expect("conservation");
            let (out, _) = sim.finish();
            out
        };
        let packet = drive(FidelityMode::Packet);
        let hybrid = drive(FidelityMode::Hybrid);

        prop_assert_eq!(packet.completed_requests, sizes.len() as u64);
        prop_assert_eq!(hybrid.completed_requests, packet.completed_requests);
        prop_assert_eq!(hybrid.flows_fast, 1, "the lone flow must plan fast");
        prop_assert_eq!(hybrid.flows_packet, 0);
        // Drained and fault-free: offered closes against completed alone.
        prop_assert_eq!(hybrid.fast_bytes_offered, hybrid.fast_bytes_completed);
        prop_assert_eq!(
            hybrid.fast_bytes_offered,
            sizes.iter().map(|&(r, p)| r + p).sum::<u64>()
        );

        let mean = |out: &sonet_dc::netsim::SimOutputs| {
            out.rpc_latencies.iter().map(|d| d.as_nanos() as f64).sum::<f64>()
                / out.rpc_latencies.len().max(1) as f64
        };
        let (mp, mh) = (mean(&packet), mean(&hybrid));
        // The fidelity harness's calibrated mean bound, with an absolute
        // floor for µs-scale means where one RTT of slack dominates.
        prop_assert!(
            (mh - mp).abs() <= (0.35 * mp).max(100_000.0),
            "hybrid mean FCT {mh:.0} ns drifted from packet {mp:.0} ns"
        );
    }

    /// A fault landing mid-flow on a fast route demotes the flow to the
    /// packet engine without breaking conservation: every offered byte is
    /// still accounted for across both calendars afterwards.
    #[test]
    fn demoted_fast_flows_keep_conservation(
        sizes in prop::collection::vec(1u64..100_000, 2..8),
        fault_at_us in 100u64..2_000,
        spacing_us in 100u64..1_000,
    ) {
        use sonet_dc::netsim::{FaultKind, FaultPlan, FidelityConfig};

        let topo = Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 3)]))
                .expect("valid"),
        );
        let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
            .expect("config");
        sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[2].hosts[0];
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        // The flow plans fast on the clean plant; the fault then hits its
        // pinned route mid-life.
        let fault_at = SimTime::from_micros(fault_at_us);
        let plan = FaultPlan::new()
            .at(fault_at, FaultKind::LinkDown(topo.host_uplink(a)))
            .at(fault_at + SimDuration::from_millis(2), FaultKind::LinkUp(topo.host_uplink(a)));
        sim.inject_faults(&plan).expect("inject");
        for (i, &s) in sizes.iter().enumerate() {
            sim.send_message(
                conn,
                SimTime::from_micros(i as u64 * spacing_us),
                s,
                0,
                SimDuration::ZERO,
            )
            .expect("send");
        }
        sim.run_to_quiescence();
        if let Err(report) = sim.audit() {
            prop_assert!(false, "audit failed after demotion: {report}");
        }
        let (out, _) = sim.finish();
        prop_assert_eq!(out.flows_fast, 1, "the flow must open fast");
        prop_assert!(
            out.fast_path_demotions >= 1,
            "the fault window must demote the flow off the fast path"
        );
        // Whatever the fast path accepted before the demotion is fully
        // accounted: nothing stays in flight after quiescence.
        prop_assert_eq!(
            out.fast_bytes_offered,
            out.fast_bytes_completed + out.fast_bytes_aborted
        );
    }
}

/// The checked-in `.proptest-regressions` file must stay loadable, and
/// the runner must actually replay its seeds before fresh cases — a
/// saved failure that silently stops being exercised is how regressions
/// come back.
#[test]
fn saved_regression_seeds_load_and_replay() {
    let path = proptest::regressions_path(file!());
    let seeds = proptest::load_regression_seeds(file!());
    assert!(
        !seeds.is_empty(),
        "no seeds parsed from {path}; the committed regressions file went stale"
    );
    let cfg = ProptestConfig::with_cases(3);
    let mut runs = 0usize;
    proptest::run_case_loop_for(&cfg, file!(), |_rng| {
        runs += 1;
        Ok(())
    });
    assert_eq!(
        runs,
        3 + seeds.len(),
        "the runner must replay every saved seed before the fresh cases"
    );
}
