//! Analytic oracles: engine results that follow in closed form from the
//! configuration and the topology's link tables, asserted exactly (or to
//! within one packet). Unlike the byte-identity suites, which only show
//! that the engine agrees with itself, these pin it to ground truth.

use sonet_dc::core::reports::Fig15Config;
use sonet_dc::netsim::{BufferConfig, NullTap, SimConfig, Simulator};
use sonet_dc::topology::{ClusterSpec, LinkId, Topology, TopologySpec};
use sonet_dc::util::{SimDuration, SimTime};
use std::sync::Arc;

fn plant() -> Arc<Topology> {
    Arc::new(
        Topology::build(TopologySpec::single_dc(vec![
            ClusterSpec::frontend(8, 4),
            ClusterSpec::hadoop(4, 4),
        ]))
        .expect("valid spec"),
    )
}

/// Time for `wire` bytes to cross `hops` of an idle network: per hop,
/// serialization at the link's rate plus its propagation delay (store
/// and forward, no queueing).
fn crossing(topo: &Topology, hops: &[LinkId], wire: u32) -> SimDuration {
    hops.iter()
        .map(|l| {
            let link = &topo.links()[l.index()];
            SimDuration::for_bytes_at_gbps(wire as u64, link.gbps)
                + SimDuration::from_nanos(link.propagation_ns)
        })
        .fold(SimDuration::ZERO, |a, b| a + b)
}

#[test]
fn one_segment_message_in_one_rack_takes_handshake_plus_data_crossings() {
    let topo = plant();
    let cfg = SimConfig::default();
    let rack = &topo.racks()[0];
    let (client, server) = (rack.hosts[0], rack.hosts[1]);
    // Within one rack both directions cross host → RSW → host.
    let fwd = [topo.host_uplink(client), topo.host_downlink(server)];
    let rev = [topo.host_uplink(server), topo.host_downlink(client)];
    let req = 900;
    assert!(req <= cfg.mss, "the message must fit one segment");
    // SYN out, SYN-ACK back, then the single data segment out.
    let latency = crossing(&topo, &fwd, cfg.control_bytes)
        + crossing(&topo, &rev, cfg.control_bytes)
        + crossing(&topo, &fwd, req + cfg.header_bytes);

    let mut sim = Simulator::new(Arc::clone(&topo), cfg, NullTap).expect("valid config");
    sim.record_latencies(true);
    let t0 = SimTime::from_micros(7);
    let conn = sim.open_connection(t0, client, server, 80).expect("open");
    // No response: the message completes when it lands at the server.
    sim.send_message(conn, t0, req as u64, 0, SimDuration::ZERO)
        .expect("send");
    let arrival = t0 + latency;
    sim.run_until(SimTime::from_nanos(arrival.as_nanos() - 1));
    assert_eq!(
        sim.live_counters().completed_requests,
        0,
        "the message may not land before {arrival}"
    );
    sim.run_until(arrival);
    assert_eq!(
        sim.live_counters().completed_requests,
        1,
        "the message must land at {arrival}"
    );
    let (out, _) = sim.finish();
    assert_eq!(out.rpc_latencies, vec![latency]);
    // SYN, SYN-ACK, data and the data's ACK; nothing was retransmitted.
    assert_eq!(out.emitted_packets, 4);
}

/// Occupancy peak of `rsw` while every host of every other rack streams
/// into one host under it.
fn incast_peak(topo: &Arc<Topology>, buffer: BufferConfig) -> u64 {
    let mut cfg = SimConfig::default();
    cfg.rsw_buffer = buffer;
    let mut sim = Simulator::new(Arc::clone(topo), cfg, NullTap).expect("valid config");
    let dst = topo.racks()[0].hosts[0];
    let rsw = topo.racks()[0].rsw;
    sim.sample_buffers(
        SimDuration::from_micros(2),
        SimDuration::from_millis(100),
        vec![rsw],
    )
    .expect("sample");
    for rack in &topo.racks()[1..8] {
        for &src in &rack.hosts {
            let conn = sim
                .open_connection(SimTime::ZERO, src, dst, 80)
                .expect("open");
            sim.send_message(conn, SimTime::from_micros(1), 300_000, 0, SimDuration::ZERO)
                .expect("send");
        }
    }
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert_eq!(out.completed_requests, 28, "every stream must complete");
    out.buffer_stats
        .iter()
        .filter(|w| w.switch == rsw)
        .map(|w| w.max)
        .max()
        .expect("sampled windows")
}

#[test]
fn incast_occupancy_saturates_at_the_dynamic_threshold_ceiling() {
    let topo = plant();
    let packet = SimConfig::default().data_wire_bytes(SimConfig::default().mss) as f64;
    // The Fig 15 pool's alpha, and a deeper one, over a pool large enough
    // that one packet is a small fraction of the ceiling.
    let alpha = Fig15Config::fast(0).rsw_buffer.alpha;
    for alpha in [alpha, 2.0 * alpha] {
        let buffer = BufferConfig {
            shared_bytes: 64 << 10,
            alpha,
        };
        let ceiling = buffer.dt_ceiling() * buffer.shared_bytes as f64;
        let peak = incast_peak(&topo, buffer) as f64;
        assert!(
            peak <= ceiling + packet,
            "alpha {alpha}: occupancy {peak} above the DT ceiling {ceiling} plus one packet"
        );
        assert!(
            peak >= 0.9 * ceiling,
            "alpha {alpha}: occupancy {peak} short of 90% of the DT ceiling {ceiling}"
        );
    }
}
