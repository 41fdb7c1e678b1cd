//! Analytic oracles: engine results that follow in closed form from the
//! configuration and the topology's link tables, asserted exactly (or to
//! within one packet). Unlike the byte-identity suites, which only show
//! that the engine agrees with itself, these pin it to ground truth.

use sonet_dc::core::reports::Fig15Config;
use sonet_dc::netsim::{
    BufferConfig, ConnId, FlowKey, NullTap, Packet, PacketKind, PacketTap, SimConfig, Simulator,
};
use sonet_dc::topology::{
    ClusterSpec, DatacenterSpec, LinkId, Node, SiteSpec, SwitchKind, Topology, TopologySpec,
};
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

/// Two single-cluster datacenters on two sites, so traffic between them
/// crosses the backbone.
fn two_dc_plant() -> Arc<Topology> {
    let site = |cluster| SiteSpec {
        datacenters: vec![DatacenterSpec {
            clusters: vec![cluster],
        }],
    };
    let spec = TopologySpec {
        sites: vec![
            site(ClusterSpec::frontend(4, 2)),
            site(ClusterSpec::cache(2, 2)),
        ],
        ..TopologySpec::default()
    };
    Arc::new(Topology::build(spec).expect("valid spec"))
}

/// The kind of switch `link` leaves or enters, if any.
fn switch_kinds(topo: &Topology, link: LinkId) -> impl Iterator<Item = SwitchKind> + '_ {
    let l = &topo.links()[link.index()];
    [l.from, l.to].into_iter().filter_map(|n| match n {
        Node::Switch(s) => Some(topo.switches()[s.index()].kind),
        Node::Host(_) => None,
    })
}

#[test]
fn one_segment_message_in_one_rack_takes_handshake_plus_data_crossings() {
    // Each case opens the first connection of a fresh engine from
    // `client` to `server` and sends one `segments` x MSS-or-less message
    // with no response. It lands after the handshake (SYN out, SYN-ACK
    // back) plus the first data segment's crossing of the forward route;
    // every later segment of the back-to-back train arrives one
    // bottleneck serialization after the one before.
    let cfg = SimConfig::default();
    let (one_dc, two_dc) = (plant(), two_dc_plant());
    let rack = &one_dc.racks()[0];
    let other_cluster = one_dc
        .racks()
        .iter()
        .find(|r| r.cluster != rack.cluster)
        .expect("a second cluster");
    let far_dc = two_dc.racks().last().expect("racks").hosts[0];
    let cases = [
        ("one rack", &one_dc, rack.hosts[0], rack.hosts[1], 900, None),
        (
            "two clusters",
            &one_dc,
            rack.hosts[0],
            other_cluster.hosts[0],
            900,
            Some(SwitchKind::Csw),
        ),
        (
            "two datacenters",
            &two_dc,
            two_dc.racks()[0].hosts[0],
            far_dc,
            900,
            Some(SwitchKind::Backbone),
        ),
        (
            "one rack, 8 segments",
            &one_dc,
            rack.hosts[0],
            rack.hosts[1],
            8 * cfg.mss,
            None,
        ),
    ];
    for (what, topo, client, server, req, via) in cases {
        let segments = req.div_ceil(cfg.mss);
        assert!(
            segments == 1 || req % cfg.mss == 0,
            "{what}: every segment but a lone one is full"
        );
        assert!(segments <= cfg.window_segments, "{what}: under the window");
        // The engine pins both directions to the ECMP route of the
        // connection's 5-tuple; a fresh engine hands out port 32768 first.
        let key = FlowKey {
            client,
            server,
            client_port: 32768,
            server_port: 80,
        };
        let fwd = topo.route(client, server, key.ecmp_hash()).expect("route");
        let rev = topo.route(server, client, key.ecmp_hash()).expect("route");
        if let Some(kind) = via {
            assert!(
                fwd.iter()
                    .any(|&l| switch_kinds(topo, l).any(|k| k == kind)),
                "{what}: the route must cross a {kind:?}"
            );
        }
        let full = cfg.data_wire_bytes(cfg.mss) as u64;
        let bottleneck = fwd
            .iter()
            .map(|l| SimDuration::for_bytes_at_gbps(full, topo.links()[l.index()].gbps))
            .max()
            .expect("a non-empty route");
        let mut latency = crossing(topo, &fwd, cfg.control_bytes)
            + crossing(topo, &rev, cfg.control_bytes)
            + crossing(topo, &fwd, cfg.data_wire_bytes(req.min(cfg.mss)));
        for _ in 1..segments {
            latency += bottleneck;
        }

        let mut sim = Simulator::new(Arc::clone(topo), cfg.clone(), NullTap).expect("config");
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
            "{what}: the message may not land before {arrival}"
        );
        sim.run_until(arrival);
        assert_eq!(
            sim.live_counters().completed_requests,
            1,
            "{what}: the message must land at {arrival}"
        );
        let (out, _) = sim.finish();
        assert_eq!(out.rpc_latencies, vec![latency], "{what}");
        // SYN, SYN-ACK, the data segments and one ACK per `ack_every` of
        // them; nothing was retransmitted.
        let acks = segments.div_ceil(cfg.ack_every);
        assert_eq!(
            out.emitted_packets,
            u64::from(2 + segments + acks),
            "{what}"
        );
    }
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

/// Wire bytes of data packets per connection on the watched links,
/// counted only inside `[from, to)`.
struct WindowBytes {
    from: SimTime,
    to: SimTime,
    bytes: Vec<(ConnId, u64)>,
}

impl PacketTap for WindowBytes {
    fn on_packet(&mut self, at: SimTime, _link: LinkId, pkt: &Packet) {
        if at < self.from || at >= self.to || !matches!(pkt.kind, PacketKind::Data { .. }) {
            return;
        }
        match self.bytes.iter_mut().find(|(c, _)| *c == pkt.conn) {
            Some((_, b)) => *b += u64::from(pkt.wire_bytes),
            None => self.bytes.push((pkt.conn, u64::from(pkt.wire_bytes))),
        }
    }
}

#[test]
fn long_flows_into_one_host_share_its_downlink_fairly() {
    // Four long flows from four hosts of one rack into one host of
    // another rack. The receiver's downlink is the one bottleneck, and
    // the rack switch's pool holds every window in flight, so nothing
    // drops and the four windows share the downlink's FIFO queue: after
    // warm-up each flow gets a quarter of the downlink's rate C, and
    // together they keep it busy.
    let topo = plant();
    let senders = &topo.racks()[0].hosts[..4];
    let dst = topo.racks()[1].hosts[0];
    let downlink = topo.host_downlink(dst);
    let c_gbps = topo.links()[downlink.index()].gbps;
    let cfg = SimConfig {
        rsw_buffer: BufferConfig {
            shared_bytes: 64 << 20,
            alpha: 4.0,
        },
        ..SimConfig::default()
    };
    let (from, to) = (SimTime::from_millis(2), SimTime::from_millis(12));
    let tap = WindowBytes {
        from,
        to,
        bytes: Vec::new(),
    };
    let mut sim = Simulator::new(Arc::clone(&topo), cfg, tap).expect("config");
    sim.watch_link(downlink);
    // Each flow carries more than the whole downlink could move by `to`.
    let capacity = |d: SimDuration| (d.as_secs_f64() * c_gbps * 1e9 / 8.0) as u64;
    let long = capacity(to - SimTime::ZERO);
    for &src in senders {
        let conn = sim
            .open_connection(SimTime::ZERO, src, dst, 80)
            .expect("open");
        sim.send_message(conn, SimTime::ZERO, long, 0, SimDuration::ZERO)
            .expect("send");
    }
    sim.run_until(to);
    let (out, tap) = sim.finish();
    let drops: u64 = out
        .link_counters
        .iter()
        .map(|l| l.drop_packets + l.fault_drop_packets)
        .sum();
    assert_eq!(drops, 0, "the buffer must hold every window");
    assert_eq!(
        out.completed_requests, 0,
        "the flows must outlast the window"
    );
    let ct = capacity(to - from);
    let fair = ct as f64 / 4.0;
    assert_eq!(tap.bytes.len(), 4, "every flow delivers in the window");
    for (conn, b) in &tap.bytes {
        assert!(
            (*b as f64 - fair).abs() <= 0.1 * fair,
            "{conn:?}: {b} bytes against a fair share of {fair}"
        );
    }
    let total: u64 = tap.bytes.iter().map(|(_, b)| b).sum();
    assert!(
        total as f64 >= 0.95 * ct as f64,
        "the flows moved {total} of the downlink's {ct} bytes"
    );
}
