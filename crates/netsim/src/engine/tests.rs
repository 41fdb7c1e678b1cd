use super::*;
use crate::config::SimConfig;
use crate::packet::{Dir, Packet, PacketKind};
use crate::tap::{NullTap, PacketTap};
use sonet_topology::{ClusterSpec, TopologySpec};
use std::sync::Arc;

fn two_cluster_topo() -> Arc<Topology> {
    Arc::new(
        Topology::build(TopologySpec::single_dc(vec![
            ClusterSpec::frontend(8, 4),
            ClusterSpec::hadoop(4, 4),
        ]))
        .expect("valid"),
    )
}

/// Collects every observed packet.
#[derive(Default)]
struct Collector {
    pkts: Vec<(SimTime, LinkId, Packet)>,
}
impl PacketTap for Collector {
    fn on_packet(&mut self, at: SimTime, link: LinkId, pkt: &Packet) {
        self.pkts.push((at, link, *pkt));
    }
}

fn sim_with_collector(topo: &Arc<Topology>) -> Simulator<Collector> {
    Simulator::new(Arc::clone(topo), SimConfig::default(), Collector::default())
        .expect("valid config")
}

#[test]
fn handshake_then_request_response() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    sim.watch_link(topo.host_uplink(a));
    sim.watch_link(topo.host_downlink(a));

    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(
        conn,
        SimTime::ZERO,
        500,
        2000,
        SimDuration::from_micros(100),
    )
    .expect("send");
    sim.run_until(SimTime::from_millis(100));
    let (out, tap) = sim.finish();

    assert!(out.delivered_packets > 0);
    assert_eq!(out.completed_requests, 1);
    // The client's uplink saw a SYN then request data; downlink saw
    // SYN-ACK, ACKs, and response data.
    let kinds: Vec<PacketKind> = tap.pkts.iter().map(|(_, _, p)| p.kind).collect();
    assert!(kinds.contains(&PacketKind::Syn));
    assert!(kinds.contains(&PacketKind::SynAck));
    assert!(kinds.iter().any(|k| k.is_data()));
    assert!(kinds.contains(&PacketKind::Ack));
    // Response totals 2000 payload bytes back to the client.
    let resp_payload: u64 = tap
        .pkts
        .iter()
        .filter(|(_, _, p)| p.dir == Dir::ServerToClient && p.kind.is_data())
        .map(|(_, _, p)| p.payload as u64)
        .sum();
    assert_eq!(resp_payload, 2000);
}

#[test]
fn request_segmentation_matches_mss() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    sim.watch_link(topo.host_uplink(a));
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    // 4000 bytes = 1460 + 1460 + 1080.
    sim.send_message(conn, SimTime::ZERO, 4000, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_until(SimTime::from_millis(50));
    let (_, tap) = sim.finish();
    let data: Vec<u32> = tap
        .pkts
        .iter()
        .filter(|(_, _, p)| p.kind.is_data())
        .map(|(_, _, p)| p.payload)
        .collect();
    assert_eq!(data, vec![1460, 1460, 1080]);
    let last_flags: Vec<bool> = tap
        .pkts
        .iter()
        .filter_map(|(_, _, p)| match p.kind {
            PacketKind::Data { last_of_msg } => Some(last_of_msg),
            _ => None,
        })
        .collect();
    assert_eq!(last_flags, vec![false, false, true]);
}

#[test]
fn per_link_timestamps_are_monotone() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let up = topo.host_uplink(a);
    sim.watch_link(up);
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    for i in 0..20 {
        sim.send_message(
            conn,
            SimTime::from_micros(i * 50),
            1000,
            100,
            SimDuration::from_micros(10),
        )
        .expect("send");
    }
    sim.run_until(SimTime::from_millis(100));
    let (_, tap) = sim.finish();
    let times: Vec<SimTime> = tap
        .pkts
        .iter()
        .filter(|(_, l, _)| *l == up)
        .map(|(t, _, _)| *t)
        .collect();
    assert!(times.len() > 20);
    for w in times.windows(2) {
        assert!(w[0] <= w[1], "per-link tap order violated");
    }
}

#[test]
fn utilization_series_accounts_all_bytes() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let up = topo.host_uplink(a);
    sim.track_utilization(SimDuration::from_millis(10), &[up])
        .expect("track");
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 50_000, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_until(SimTime::from_millis(200));
    let (out, _) = sim.finish();
    let series = &out.util_series[&up];
    let series_total: u64 = series.iter().sum();
    assert_eq!(series_total, out.link_counters[up.index()].tx_bytes);
    assert!(series_total > 50_000, "includes framing and SYN");
}

#[test]
fn tiny_buffers_cause_egress_drops_but_transfer_completes() {
    let topo = two_cluster_topo();
    let mut cfg = SimConfig::default();
    // Pathologically small shared buffer at the ToR to force drops.
    cfg.rsw_buffer.shared_bytes = 8 * 1526;
    cfg.rsw_buffer.alpha = 0.5;
    let mut sim = Simulator::new(Arc::clone(&topo), cfg, NullTap).expect("valid config");
    let dst = topo.racks()[0].hosts[0];
    // Many senders burst into one receiver (incast across the cluster).
    let mut conns = Vec::new();
    for r in 1..8 {
        for h in 0..4 {
            let src = topo.racks()[r].hosts[h];
            let c = sim
                .open_connection(SimTime::ZERO, src, dst, 80)
                .expect("open");
            sim.send_message(c, SimTime::from_micros(10), 200_000, 0, SimDuration::ZERO)
                .expect("send");
            conns.push(c);
        }
    }
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    let down = topo.host_downlink(dst);
    assert!(
        out.link_counters[down.index()].drop_packets > 0,
        "incast into a tiny shared buffer must drop"
    );
    // Retransmission still completes all 28 requests.
    assert_eq!(out.completed_requests, 28);
}

#[test]
fn buffer_sampler_produces_windows() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let rsw = topo.racks()[0].rsw;
    sim.sample_buffers(
        SimDuration::from_micros(10),
        SimDuration::from_millis(10),
        vec![rsw],
    )
    .expect("sample");
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 1_000_000, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_until(SimTime::from_millis(35));
    let (out, _) = sim.finish();
    assert!(
        out.buffer_stats.len() >= 3,
        "got {}",
        out.buffer_stats.len()
    );
    for w in &out.buffer_stats {
        assert_eq!(w.switch, rsw);
        assert!(w.max >= w.median);
        assert!(w.capacity > 0);
        assert!(w.samples > 0);
    }
    // Windows are in time order.
    for pair in out.buffer_stats.windows(2) {
        assert!(pair[0].window_start <= pair[1].window_start);
    }
}

#[test]
fn api_validation_errors() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    assert_eq!(
        sim.open_connection(SimTime::ZERO, a, a, 80).unwrap_err(),
        SimError::SelfConnection(a)
    );
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    assert_eq!(
        sim.send_message(conn, SimTime::ZERO, 0, 0, SimDuration::ZERO)
            .unwrap_err(),
        SimError::EmptyRequest
    );
    assert!(matches!(
        sim.send_message(
            ConnId { idx: 99, gen: 0 },
            SimTime::ZERO,
            1,
            0,
            SimDuration::ZERO
        ),
        Err(SimError::NoSuchConn(_))
    ));
    sim.run_until(SimTime::from_secs(1));
    assert!(matches!(
        sim.open_connection(SimTime::ZERO, a, b, 80),
        Err(SimError::TimeInPast { .. })
    ));
}

#[test]
fn close_emits_fin_and_blocks_messages() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    sim.watch_link(topo.host_uplink(a));
    sim.watch_link(topo.host_downlink(a));
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.close_connection(conn, SimTime::from_millis(1))
        .expect("close");
    // Message scheduled after the close fires: counted, not sent.
    sim.send_message(conn, SimTime::from_millis(2), 100, 0, SimDuration::ZERO)
        .expect("scheduling is allowed; rejection happens at fire time");
    sim.run_until(SimTime::from_millis(50));
    let (out, tap) = sim.finish();
    assert_eq!(out.messages_on_closed, 1);
    let kinds: Vec<PacketKind> = tap.pkts.iter().map(|(_, _, p)| p.kind).collect();
    assert!(kinds.contains(&PacketKind::Fin));
    assert!(kinds.contains(&PacketKind::FinAck));
}

#[test]
fn window_caps_in_flight_segments() {
    // With a window of 4 segments, at most 4 unacknowledged data
    // packets are on the wire at once: observe the uplink and count
    // data packets between ACK arrivals.
    let topo = two_cluster_topo();
    let mut cfg = SimConfig::default();
    cfg.window_segments = 4;
    let mut sim = Simulator::new(Arc::clone(&topo), cfg, Collector::default()).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    sim.watch_link(topo.host_uplink(a));
    sim.watch_link(topo.host_downlink(a));
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 100_000, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_to_quiescence();
    let (_, tap) = sim.finish();
    // Replay the tap chronologically: outstanding = data packets put
    // on the wire minus the cumulative count acknowledged.
    let mut sent: i64 = 0;
    let mut acked: i64 = 0;
    let mut max_outstanding: i64 = 0;
    let mut events: Vec<&(SimTime, LinkId, Packet)> = tap.pkts.iter().collect();
    events.sort_by_key(|(t, _, _)| *t);
    for (_, _, p) in events {
        match p.kind {
            PacketKind::Data { .. } if p.dir == Dir::ClientToServer => {
                sent += 1;
                max_outstanding = max_outstanding.max(sent - acked);
            }
            PacketKind::Ack if p.dir == Dir::ServerToClient => {
                // Cumulative ack: seq = total segments acknowledged.
                acked = acked.max(p.seq as i64);
            }
            _ => {}
        }
    }
    assert!(
        max_outstanding <= 4,
        "window violated: {max_outstanding} unacked data packets on the wire"
    );
}

#[test]
fn delayed_ack_ratio_is_one_per_two_segments() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    sim.watch_link(topo.host_downlink(a));
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    // One long one-way transfer: 100 full segments (no boundary ACKs
    // except the last).
    sim.send_message(conn, SimTime::ZERO, 1460 * 100, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_to_quiescence();
    let (_, tap) = sim.finish();
    let acks = tap
        .pkts
        .iter()
        .filter(|(_, _, p)| p.kind == PacketKind::Ack && p.dir == Dir::ServerToClient)
        .count();
    // 100 segments at 1 ACK per 2 → ≈50 (+1 for the boundary).
    assert!((48..=52).contains(&acks), "acks {acks}");
}

#[test]
fn dt_admission_caps_single_queue_at_alpha_fraction() {
    // With alpha = 1 a single hot egress queue can occupy at most half
    // the shared pool: backlog <= alpha * (capacity - occupancy)
    // implies backlog <= capacity / 2 when it is the only user.
    let topo = two_cluster_topo();
    let mut cfg = SimConfig::default();
    cfg.rsw_buffer = crate::config::BufferConfig {
        shared_bytes: 64 << 10,
        alpha: 1.0,
    };
    let mut sim = Simulator::new(Arc::clone(&topo), cfg, NullTap).expect("config");
    let dst = topo.racks()[0].hosts[0];
    let rsw = topo.racks()[0].rsw;
    sim.sample_buffers(
        SimDuration::from_micros(2),
        SimDuration::from_millis(100),
        vec![rsw],
    )
    .expect("sample");
    // Hammer one downlink from many senders.
    for r in 1..8 {
        for h in 0..4 {
            let src = topo.racks()[r].hosts[h];
            let c = sim
                .open_connection(SimTime::ZERO, src, dst, 80)
                .expect("open");
            sim.send_message(c, SimTime::from_micros(1), 500_000, 0, SimDuration::ZERO)
                .expect("send");
        }
    }
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    let max_occ = out
        .buffer_stats
        .iter()
        .map(|w| w.max)
        .max()
        .expect("windows");
    let cap = 64 << 10;
    assert!(
        max_occ <= cap / 2 + 1600,
        "DT should cap a single queue near half the pool: {max_occ} of {cap}"
    );
    assert!(
        max_occ > cap / 4,
        "the hot queue should reach the DT ceiling: {max_occ}"
    );
}

#[test]
fn latency_recording_measures_rpc_round_trips() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    sim.record_latencies(true);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    // One RPC with a 1-ms service time and one one-way message.
    sim.send_message(conn, SimTime::ZERO, 500, 1000, SimDuration::from_millis(1))
        .expect("send");
    sim.send_message(conn, SimTime::from_millis(5), 500, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert_eq!(out.rpc_latencies.len(), 2);
    // The RPC includes the service time; the one-way does not.
    let max = out.rpc_latencies.iter().max().expect("non-empty");
    let min = out.rpc_latencies.iter().min().expect("non-empty");
    assert!(*max >= SimDuration::from_millis(1), "rpc latency {max}");
    assert!(*min < SimDuration::from_millis(1), "one-way latency {min}");
}

#[test]
fn latency_recording_off_by_default() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 500, 1000, SimDuration::ZERO)
        .expect("send");
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert!(out.rpc_latencies.is_empty());
}

#[test]
fn connection_slots_are_recycled_after_quarantine() {
    let topo = two_cluster_topo();
    let mut sim = sim_with_collector(&topo);
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let quarantine = sim.config().conn_quarantine;

    let c1 = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(c1, SimTime::ZERO, 100, 100, SimDuration::ZERO)
        .expect("send");
    sim.close_connection(c1, SimTime::from_millis(5))
        .expect("close");
    sim.run_until(SimTime::from_millis(5) + quarantine + SimDuration::from_millis(1));

    // The freed slot is reused with a bumped generation.
    let c2 = sim.open_connection(sim.now(), a, b, 80).expect("open");
    assert_eq!(c2.idx, c1.idx);
    assert_eq!(c2.gen, c1.gen + 1);

    // The stale handle is rejected, the fresh one works.
    assert_eq!(
        sim.send_message(c1, sim.now(), 1, 0, SimDuration::ZERO)
            .unwrap_err(),
        SimError::NoSuchConn(c1)
    );
    sim.send_message(c2, sim.now(), 100, 100, SimDuration::ZERO)
        .expect("send on reused");
    sim.run_until(sim.now() + SimDuration::from_millis(50));
    let (out, _) = sim.finish();
    assert_eq!(out.completed_requests, 2);
}

#[test]
fn many_ephemeral_connections_bound_the_table() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    // Open/close 2000 short connections, one every 500 µs; with a
    // 200-ms quarantine the live set stays in the hundreds.
    let mut t = SimTime::ZERO;
    for _ in 0..2000 {
        let c = sim.open_connection(t, a, b, 80).expect("open");
        sim.send_message(c, t, 200, 200, SimDuration::ZERO)
            .expect("send");
        sim.close_connection(c, t + SimDuration::from_millis(2))
            .expect("close");
        t += SimDuration::from_micros(500);
        sim.run_until(t);
    }
    sim.run_to_quiescence();
    assert!(
        sim.plant.clients.len() < 1000,
        "slot reuse should bound the table: {}",
        sim.plant.clients.len()
    );
    let (out, _) = sim.finish();
    assert_eq!(out.completed_requests, 2000);
}

#[test]
fn dead_post_mid_transfer_reroutes_and_completes() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    // The first connection from `a` uses client port 32768; recover the
    // CSW post its ECMP hash pins so the fault provably hits this flow.
    let key = FlowKey {
        client: a,
        server: b,
        client_port: 32768,
        server_port: 80,
    };
    let path = topo.route(a, b, key.ecmp_hash()).expect("route");
    let post = match topo.links()[path[1].index()].to {
        sonet_topology::Node::Switch(s) => s,
        sonet_topology::Node::Host(_) => unreachable!("hop 1 ends at the CSW"),
    };

    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 5_000_000, 0, SimDuration::ZERO)
        .expect("send");
    sim.inject_fault(SimTime::from_millis(1), FaultKind::SwitchDown(post))
        .expect("fault");
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert_eq!(out.faults_applied, 1);
    // Each endpoint re-pins its own sending route; at least the client
    // (whose data dies on the dead post) must re-hash onto a survivor.
    assert!(
        (1..=2).contains(&out.reroutes),
        "the flow must re-hash onto a surviving post: {}",
        out.reroutes
    );
    assert_eq!(out.reroute_failures, 0);
    let fault_drops: u64 = out.link_counters.iter().map(|c| c.fault_drop_packets).sum();
    assert!(
        fault_drops > 0,
        "in-flight packets on the dead post must be counted"
    );
    // Retransmission over the new path still completes the transfer.
    assert_eq!(out.completed_requests, 1);
    assert_eq!(out.aborted_connections, 0);
}

#[test]
fn unreachable_server_fails_handshake_instead_of_wedging() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let dst_rsw = topo.racks()[1].rsw;
    // The destination's ToR dies before the SYN goes out: there is no
    // redundant path to a rack, so the handshake must give up.
    sim.inject_fault(SimTime::ZERO, FaultKind::SwitchDown(dst_rsw))
        .expect("fault");
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 1000, 0, SimDuration::ZERO)
        .expect("send");
    // Quiescence is the point: SYN retries are capped, so this returns.
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert_eq!(out.failed_handshakes, 1);
    assert_eq!(out.completed_requests, 0);
    let fault_drops: u64 = out.link_counters.iter().map(|c| c.fault_drop_packets).sum();
    assert_eq!(
        fault_drops,
        SimConfig::default().syn_max_attempts as u64,
        "every SYN dies on the dead RSW and is counted"
    );
}

#[test]
fn severed_route_aborts_connection_via_rto_cap() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    sim.send_message(conn, SimTime::ZERO, 50_000_000, 0, SimDuration::ZERO)
        .expect("send");
    // Mid-transfer the destination ToR dies and never recovers.
    sim.inject_fault(
        SimTime::from_millis(2),
        FaultKind::SwitchDown(topo.racks()[1].rsw),
    )
    .expect("fault");
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert!(
        out.reroute_failures >= 1,
        "no healthy alternative to a rack"
    );
    assert_eq!(out.reroutes, 0);
    assert_eq!(out.aborted_connections, 1);
    assert_eq!(out.completed_requests, 0, "the transfer cannot finish");
}

#[test]
fn degraded_link_stretches_serialization() {
    let topo = two_cluster_topo();
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let run = |factor: Option<f64>| {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
        if let Some(rate_factor) = factor {
            sim.inject_fault(
                SimTime::ZERO,
                FaultKind::DegradeLink {
                    link: topo.host_uplink(a),
                    rate_factor,
                },
            )
            .expect("fault");
        }
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        sim.send_message(conn, SimTime::ZERO, 10_000_000, 0, SimDuration::ZERO)
            .expect("send");
        sim.run_to_quiescence();
        let (out, _) = sim.finish();
        assert_eq!(out.completed_requests, 1);
        out.ended_at
    };
    let nominal = run(None);
    let degraded = run(Some(0.25));
    assert!(
        degraded > nominal,
        "quarter-rate uplink must finish later: {degraded} vs {nominal}"
    );
}

#[test]
fn link_recovery_restores_traffic() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let dst_rsw = topo.racks()[1].rsw;
    // ToR down at 1 ms, back at 40 ms — inside the SYN retry budget.
    sim.inject_fault(SimTime::from_millis(1), FaultKind::SwitchDown(dst_rsw))
        .expect("fault");
    sim.inject_fault(SimTime::from_millis(40), FaultKind::SwitchUp(dst_rsw))
        .expect("fault");
    let conn = sim
        .open_connection(SimTime::from_millis(2), a, b, 80)
        .expect("open");
    sim.send_message(conn, SimTime::from_millis(2), 10_000, 0, SimDuration::ZERO)
        .expect("send");
    sim.run_to_quiescence();
    let (out, _) = sim.finish();
    assert_eq!(
        out.completed_requests, 1,
        "transfer completes after recovery"
    );
    assert_eq!(out.failed_handshakes, 0);
    assert_eq!(out.aborted_connections, 0);
}

#[test]
fn fault_injection_validates_arguments() {
    let topo = two_cluster_topo();
    let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("config");
    assert!(matches!(
        sim.inject_fault(SimTime::ZERO, FaultKind::LinkDown(LinkId(99_999))),
        Err(SimError::Config(_))
    ));
    assert!(matches!(
        sim.inject_fault(SimTime::ZERO, FaultKind::SwitchDown(SwitchId(99_999))),
        Err(SimError::Config(_))
    ));
    assert!(matches!(
        sim.inject_fault(
            SimTime::ZERO,
            FaultKind::DegradeLink {
                link: LinkId(0),
                rate_factor: 0.0
            }
        ),
        Err(SimError::Config(_))
    ));
    assert!(matches!(
        sim.inject_fault(SimTime::ZERO, FaultKind::MirrorLoss { fraction: 0.5 }),
        Err(SimError::Config(_))
    ));
    sim.run_until(SimTime::from_secs(1));
    assert!(matches!(
        sim.inject_fault(SimTime::ZERO, FaultKind::LinkDown(LinkId(0))),
        Err(SimError::TimeInPast { .. })
    ));
}

#[test]
fn faulted_runs_are_deterministic() {
    let topo = two_cluster_topo();
    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(1),
            FaultKind::SwitchDown(topo.racks()[0].rsw),
        )
        .at(
            SimTime::from_millis(3),
            FaultKind::SwitchUp(topo.racks()[0].rsw),
        )
        .at(
            SimTime::from_millis(2),
            FaultKind::DegradeLink {
                link: LinkId(0),
                rate_factor: 0.5,
            },
        );
    let run = || {
        let mut sim = sim_with_collector(&topo);
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[2].hosts[1];
        sim.watch_link(topo.host_uplink(a));
        sim.inject_faults(&plan).expect("plan");
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        for i in 0..50 {
            sim.send_message(
                conn,
                SimTime::from_micros(i * 37),
                700 + i * 13,
                300,
                SimDuration::from_micros(20),
            )
            .expect("send");
        }
        sim.run_to_quiescence();
        let (out, tap) = sim.finish();
        let fault_drops: u64 = out.link_counters.iter().map(|c| c.fault_drop_packets).sum();
        (
            out.delivered_packets,
            out.completed_requests,
            out.faults_applied,
            out.reroutes,
            fault_drops,
            tap.pkts.len(),
            tap.pkts.last().map(|(t, _, _)| *t),
        )
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first.2, 3, "all plan events applied");
}

#[test]
fn deterministic_across_runs() {
    let topo = two_cluster_topo();
    let run = || {
        let mut sim = sim_with_collector(&topo);
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[2].hosts[1];
        sim.watch_link(topo.host_uplink(a));
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        for i in 0..50 {
            sim.send_message(
                conn,
                SimTime::from_micros(i * 37),
                700 + i * 13,
                300,
                SimDuration::from_micros(20),
            )
            .expect("send");
        }
        sim.run_until(SimTime::from_millis(200));
        let (out, tap) = sim.finish();
        (
            out.delivered_packets,
            tap.pkts.len(),
            tap.pkts.last().map(|(t, _, _)| *t),
        )
    };
    assert_eq!(run(), run());
}

fn two_dc_topo() -> Arc<Topology> {
    let spec = TopologySpec {
        sites: vec![
            sonet_topology::SiteSpec {
                datacenters: vec![sonet_topology::DatacenterSpec {
                    clusters: vec![ClusterSpec::frontend(4, 2)],
                }],
            },
            sonet_topology::SiteSpec {
                datacenters: vec![sonet_topology::DatacenterSpec {
                    clusters: vec![ClusterSpec::cache(2, 2)],
                }],
            },
        ],
        ..TopologySpec::default()
    };
    Arc::new(Topology::build(spec).expect("valid"))
}

#[test]
fn inter_datacenter_rtt_reflects_backbone_propagation() {
    // Build a two-DC plant and check a cross-DC response takes > 2 ms
    // (two backbone traversals at 1 ms each, there and back).
    let topo = two_dc_topo();
    let mut sim = sim_with_collector(&topo);
    let web = topo.hosts_with_role(sonet_topology::HostRole::Web)[0];
    let leader = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader)[0];
    sim.watch_link(topo.host_downlink(web));
    let conn = sim
        .open_connection(SimTime::ZERO, web, leader, 11211)
        .expect("open");
    sim.send_message(conn, SimTime::ZERO, 100, 100, SimDuration::ZERO)
        .expect("send");
    sim.run_until(SimTime::from_millis(100));
    let (_, tap) = sim.finish();
    let resp_at = tap
        .pkts
        .iter()
        .find(|(_, _, p)| p.kind.is_data() && p.dir == Dir::ServerToClient)
        .map(|(t, _, _)| *t)
        .expect("response observed");
    // SYN + SYN-ACK + request + response = 4 one-way backbone crossings.
    assert!(resp_at >= SimTime::from_millis(4), "resp at {resp_at}");
}

// -----------------------------------------------------------------
// Regions and windows
// -----------------------------------------------------------------

#[test]
fn regions_are_clusters_then_hubs_then_backbone() {
    // Event keys and checkpoint sequence counters are region-indexed, so
    // the region map is part of the checkpoint format: clusters first,
    // then one hub region per datacenter, then the backbone last.
    for topo in [two_cluster_topo(), two_dc_topo()] {
        let sim = sim_with_collector(&topo);
        let rm = &sim.shared.regions;
        let n_clusters = topo.clusters().len() as u32;
        let n_dcs = topo.datacenters().len() as u32;
        assert_eq!(rm.n_regions, n_clusters + n_dcs + 1);
        for (h, host) in topo.hosts().iter().enumerate() {
            assert_eq!(rm.region_of_host[h], host.cluster.index() as u32);
        }
        for (i, sw) in topo.switches().iter().enumerate() {
            let want = match (sw.cluster, sw.datacenter) {
                (Some(c), _) => c.index() as u32,
                (None, Some(d)) => n_clusters + d.index() as u32,
                (None, None) => rm.n_regions - 1,
            };
            assert_eq!(rm.region_of_switch[i], want, "{:?}", sw.kind);
        }
        for (li, link) in topo.links().iter().enumerate() {
            let from = match link.from {
                Node::Host(h) => rm.region_of_host[h.index()],
                Node::Switch(s) => rm.region_of_switch[s.index()],
            };
            assert_eq!(rm.region_of_link[li], from);
        }
    }
}

#[test]
fn windows_span_the_window_cap() {
    // A lone sampler chain ticking every 100 µs: with no fast instant
    // inside them, windows run exactly `WINDOW_CAP` from the head they
    // opened on, and the last one ends one nanosecond past the horizon.
    let topo = two_dc_topo();
    let mut sim = sim_with_collector(&topo);
    sim.sample_buffers(
        SimDuration::from_micros(100),
        SimDuration::from_millis(1),
        vec![topo.racks()[0].rsw],
    )
    .expect("sample");
    let until = SimTime::from_millis(10);
    sim.run_until(until);
    let spans = until.as_nanos() / WINDOW_CAP.as_nanos();
    assert_eq!(sim.parallel_stats().barriers, spans + 1);
    assert_eq!(sim.plant.wend, until + SimDuration::from_nanos(1));
}

/// Two-DC workload with faults and telemetry, with or without the
/// per-barrier audit; the full observable surface comes back for
/// comparison.
fn cross_dc_run(audit: bool) -> (String, Vec<(SimTime, LinkId, Packet)>) {
    let topo = two_dc_topo();
    let mut sim = sim_with_collector(&topo);
    sim.audit_every_barrier(audit);
    sim.record_latencies(true);
    let webs = topo.hosts_with_role(sonet_topology::HostRole::Web);
    let caches = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader);
    sim.watch_link(topo.host_uplink(webs[0]));
    sim.watch_link(topo.host_downlink(webs[0]));
    sim.sample_buffers(
        SimDuration::from_micros(100),
        SimDuration::from_millis(5),
        vec![topo.racks()[0].rsw],
    )
    .expect("sample");
    // Take down the cache-side ToR (in the *other* datacenter): the
    // watched web host keeps retransmitting across barriers while the
    // fault and its recovery land on the far side.
    let far_rsw = topo.racks().last().expect("racks").rsw;
    sim.inject_fault(SimTime::from_millis(3), FaultKind::SwitchDown(far_rsw))
        .expect("fault");
    sim.inject_fault(SimTime::from_millis(9), FaultKind::SwitchUp(far_rsw))
        .expect("fault");
    for (i, &w) in webs.iter().enumerate() {
        let c = sim
            .open_connection(
                SimTime::from_micros(i as u64 * 13),
                w,
                caches[i % caches.len()],
                11211,
            )
            .expect("open");
        // The message train straddles the fault window, so some
        // exchanges complete cleanly, some retransmit through the
        // outage, and some abort — all of it across the backbone.
        for m in 0..8u64 {
            sim.send_message(
                c,
                SimTime::from_micros(i as u64 * 13 + m * 750),
                300 + m * 211,
                1200,
                SimDuration::from_micros(40),
            )
            .expect("send");
        }
    }
    sim.run_until(SimTime::from_millis(6));
    sim.audit().expect("mid-run invariants");
    sim.run_to_quiescence();
    let (out, tap) = sim.finish();
    (serde_json::to_string(&out).expect("json"), tap.pkts)
}

#[test]
fn barrier_audit_leaves_cross_dc_outputs_unchanged() {
    // The audit only reads plant state at each barrier, so a run
    // with it on must match one without it, byte for byte.
    let (out1, tap1) = cross_dc_run(false);
    let (out2, tap2) = cross_dc_run(true);
    assert_eq!(out1, out2, "the barrier audit changed the outputs");
    assert_eq!(tap1, tap2, "the barrier audit changed the tap stream");
    assert!(
        tap1.len() > 20,
        "the workload must exercise the tap: {} packets",
        tap1.len()
    );
}

#[test]
fn parallel_stats_count_barriers_and_events() {
    let topo = two_dc_topo();
    let mut sim = sim_with_collector(&topo);
    let web = topo.hosts_with_role(sonet_topology::HostRole::Web)[0];
    let leader = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader)[0];
    let c = sim
        .open_connection(SimTime::ZERO, web, leader, 11211)
        .expect("open");
    sim.send_message(
        c,
        SimTime::ZERO,
        10_000,
        2_000,
        SimDuration::from_micros(50),
    )
    .expect("send");
    sim.run_to_quiescence();
    let stats = sim.parallel_stats();
    assert!(stats.barriers > 0);
    assert_eq!(stats.events, sim.processed_events());
    assert!(stats.bottleneck_events > 0);
    assert!(stats.bottleneck_events <= stats.events);
    assert!(stats.busy_ns > 0, "draining windows takes wall time");
    assert_eq!(stats.wall_ns, stats.busy_ns);
    assert_eq!((stats.idle_ns, stats.steals), (0, 0));
}

// -----------------------------------------------------------------
// Checkpoint / restore / audit
// -----------------------------------------------------------------

/// Builds a busy simulator: several cross-rack connections with
/// staggered messages so the calendar holds a mix of every event kind.
fn busy_sim(topo: &Arc<Topology>) -> Simulator<NullTap> {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("valid config");
    sim.track_utilization(
        SimDuration::from_micros(500),
        &[LinkId(0), LinkId(1), LinkId(2), LinkId(3)],
    )
    .expect("track");
    for i in 0..6 {
        let a = topo.racks()[i % 3].hosts[i % 4];
        let b = topo.racks()[3].hosts[(i + 1) % 4];
        let conn = sim
            .open_connection(SimTime::from_micros(i as u64 * 50), a, b, 3306)
            .expect("open");
        for m in 0..3 {
            sim.send_message(
                conn,
                SimTime::from_micros(i as u64 * 50 + m * 200),
                400 + m * 100,
                5_000 + m * 2_000,
                SimDuration::from_micros(80),
            )
            .expect("send");
        }
    }
    sim
}

#[test]
fn checkpoint_resume_is_byte_identical() {
    let topo = two_cluster_topo();

    // Uninterrupted run.
    let mut straight = busy_sim(&topo);
    straight.run_to_quiescence();
    let (out_straight, _) = straight.finish();

    // Same run, checkpointed mid-flight (traffic still on the wire),
    // serialized through JSON, restored, then run to completion.
    let mut first = busy_sim(&topo);
    first.run_until(SimTime::from_micros(700));
    assert!(first.pending_events() > 0, "checkpoint must be mid-flight");
    let json = serde_json::to_string(&first.checkpoint()).expect("serialize");
    let ckpt: EngineCheckpoint = serde_json::from_str(&json).expect("parse");
    let mut resumed = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    resumed.run_to_quiescence();
    let (out_resumed, _) = resumed.finish();

    assert_eq!(
        serde_json::to_string(&out_straight).expect("json"),
        serde_json::to_string(&out_resumed).expect("json"),
        "resumed outputs must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn checkpoint_restore_preserves_counters_and_clock() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    sim.run_until(SimTime::from_micros(900));
    let ckpt = sim.checkpoint();
    assert_eq!(ckpt.taken_at(), SimTime::from_micros(900));
    let restored = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    assert_eq!(restored.now(), sim.now());
    assert_eq!(restored.pending_events(), sim.pending_events());
    assert_eq!(restored.processed_events(), sim.processed_events());
}

#[test]
fn engine_checkpoint_serialization_is_stable() {
    // Regression guard for the region-keyed checkpoint at the current
    // format version: same top-level field order on every run,
    // `util_series` as link-sorted `(LinkId, bins)` pairs covering every
    // tracked link, and the version tag leading the record.
    let topo = two_cluster_topo();
    let mut sim =
        Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[3].hosts[0];
    let mut tracked = vec![topo.host_uplink(a), topo.host_downlink(a)];
    tracked.sort();
    sim.track_utilization(SimDuration::from_micros(500), &tracked)
        .expect("track");
    let conn = sim
        .open_connection(SimTime::ZERO, a, b, 3306)
        .expect("open");
    sim.send_message(
        conn,
        SimTime::ZERO,
        400,
        5_000,
        SimDuration::from_micros(80),
    )
    .expect("send");
    sim.run_until(SimTime::from_micros(800));
    let ckpt = sim.checkpoint();
    let json = serde_json::to_string(&ckpt).expect("serialize");

    let expected_keys = [
        "version",
        "cfg",
        "now",
        "events",
        "next_seqs",
        "ext_seq",
        "conns_client",
        "conns_server",
        "free_conns",
        "next_port",
        "link_free_at",
        "link_backlog",
        "link_counters",
        "link_rate_factor",
        "link_gray",
        "link_gray_seq",
        "health",
        "watched",
        "util_tracked",
        "switch_occ",
        "util_interval",
        "util_series",
        "buf_sampler",
        "buffer_stats",
        "emitted_packets",
        "delivered_packets",
        "completed_requests",
        "messages_on_closed",
        "stale_packets",
        "faults_applied",
        "reroutes",
        "reroute_failures",
        "failed_handshakes",
        "aborted_connections",
        "gray_dropped_packets",
        "record_latencies",
        "latencies",
        "processed_events",
        "fast",
    ];
    let mut cursor = 0usize;
    for key in expected_keys {
        let needle = format!("\"{key}\":");
        let at = json[cursor..]
            .find(&needle)
            .unwrap_or_else(|| panic!("field {key} missing or out of order"));
        cursor += at + needle.len();
    }
    let lead = format!("{{\"version\":{CHECKPOINT_VERSION},");
    assert!(json.starts_with(&lead), "version must lead");

    // util_series value shape: exactly the tracked links, ascending.
    let listed: Vec<LinkId> = ckpt.util_series.iter().map(|(l, _)| *l).collect();
    assert_eq!(listed, tracked, "pairs must cover tracked links in order");
    assert!(
        ckpt.util_series.iter().any(|(_, bins)| !bins.is_empty()),
        "a busy tracked link must have recorded utilization bins"
    );

    // And the checkpoint round-trips into an engine whose own
    // checkpoint serializes to the same bytes.
    let parsed: EngineCheckpoint = serde_json::from_str(&json).expect("parse");
    let restored = Simulator::restore(Arc::clone(&topo), NullTap, parsed).expect("restore");
    assert_eq!(
        serde_json::to_string(&restored.checkpoint()).expect("json"),
        json,
        "restore → checkpoint must be the identity on the serialized form"
    );
}

#[test]
fn checkpoint_restores_mid_flight() {
    // Kill-at-barrier and resume: the continuation must land on the
    // uninterrupted run's bytes.
    let topo = two_dc_topo();
    let build = || {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
        let webs = topo.hosts_with_role(sonet_topology::HostRole::Web);
        let caches = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader);
        for (i, &w) in webs.iter().enumerate() {
            let c = sim
                .open_connection(SimTime::ZERO, w, caches[i % caches.len()], 11211)
                .expect("open");
            sim.send_message(
                c,
                SimTime::ZERO,
                50_000,
                8_000,
                SimDuration::from_micros(60),
            )
            .expect("send");
        }
        sim
    };
    let mut straight = build();
    straight.run_to_quiescence();
    let (out_straight, _) = straight.finish();
    let golden = serde_json::to_string(&out_straight).expect("json");

    let mut first = build();
    first.run_until(SimTime::from_millis(3));
    assert!(first.pending_events() > 0, "checkpoint must be mid-flight");
    let ckpt_json = serde_json::to_string(&first.checkpoint()).expect("serialize");

    let ckpt: EngineCheckpoint = serde_json::from_str(&ckpt_json).expect("parse");
    let mut resumed = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    resumed.run_to_quiescence();
    let (out, _) = resumed.finish();
    assert_eq!(
        golden,
        serde_json::to_string(&out).expect("json"),
        "the resumed run diverged"
    );
}

#[test]
fn checkpoint_keeps_server_halves_of_reverse_connections() {
    // Reverse-direction connections: the client lives in the *second*
    // datacenter and the server in the *first*. The checkpoint's server
    // filter consults the client generation of each slot; a server half
    // it wrongly dropped would make the restored run count its traffic
    // as stale.
    let topo = two_dc_topo();
    let build = || {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
        let webs = topo.hosts_with_role(sonet_topology::HostRole::Web);
        let caches = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader);
        for (i, &leader) in caches.iter().enumerate() {
            let c = sim
                .open_connection(SimTime::ZERO, leader, webs[i % webs.len()], 8080)
                .expect("open");
            for m in 0..4u64 {
                sim.send_message(
                    c,
                    SimTime::from_micros(m * 900),
                    5_000 + m * 97,
                    3_000,
                    SimDuration::from_micros(30),
                )
                .expect("send");
            }
        }
        sim
    };
    let mut straight = build();
    straight.run_to_quiescence();
    let (out_straight, _) = straight.finish();
    let golden = serde_json::to_string(&out_straight).expect("json");

    let mut mid = build();
    // Past the cross-DC handshake (>= 2 ms RTT), with exchanges still in
    // flight so the server halves hold live transfer state.
    mid.run_until(SimTime::from_millis(4));
    assert!(mid.pending_events() > 0, "checkpoint must be mid-flight");
    let ckpt = mid.checkpoint();
    assert!(
        ckpt.conns_server.iter().flatten().count() > 0,
        "snapshot must carry the first datacenter's server halves"
    );
    let mut resumed = Simulator::restore(Arc::clone(&topo), NullTap, ckpt).expect("restore");
    resumed.run_to_quiescence();
    let (out, _) = resumed.finish();
    assert_eq!(
        golden,
        serde_json::to_string(&out).expect("json"),
        "resumed run diverged from the uninterrupted one"
    );
    assert_eq!(out.stale_packets, 0, "no traffic may go stale");
}

#[test]
fn restore_rejects_wrong_topology() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    sim.run_until(SimTime::from_micros(500));
    let ckpt = sim.checkpoint();
    let other = Arc::new(
        Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 2)])).expect("valid"),
    );
    match Simulator::restore(other, NullTap, ckpt) {
        Err(SimError::Config(msg)) => assert!(msg.contains("checkpoint mismatch")),
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a restored simulator"),
    }
}

#[test]
fn restore_rejects_foreign_version() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    sim.run_until(SimTime::from_micros(500));
    let json = serde_json::to_string(&sim.checkpoint()).expect("serialize");
    let forged = json.replacen(
        &format!("{{\"version\":{CHECKPOINT_VERSION},"),
        &format!("{{\"version\":{},", CHECKPOINT_VERSION - 1),
        1,
    );
    assert_ne!(json, forged, "the version tag must be present to forge");
    let ckpt: EngineCheckpoint = serde_json::from_str(&forged).expect("parse");
    match Simulator::restore(Arc::clone(&topo), NullTap, ckpt) {
        Err(SimError::Config(msg)) => assert!(msg.contains("version"), "{msg}"),
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a restored simulator"),
    }
}

/// Replaces the first number that follows `field` after the first
/// occurrence of `anchor` in `json`.
fn forge_number(json: &str, anchor: &str, field: &str, value: u64) -> String {
    let at = json.find(anchor).expect("anchor present") + anchor.len();
    let start = at + json[at..].find(field).expect("field present") + field.len();
    let len = json[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number ends");
    assert!(len > 0, "{field} after {anchor} is not a number");
    format!("{}{value}{}", &json[..start], &json[start + len..])
}

#[test]
fn restore_rejects_corrupt_hosts_and_routes() {
    // Step a busy plant until its calendar holds packets both on the wire
    // and about to be delivered (propagating on their last hop).
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    let mut json = String::new();
    for ns in (100..2_000_000).step_by(100) {
        sim.run_until(SimTime::from_nanos(ns));
        json = serde_json::to_string(&sim.checkpoint()).expect("serialize");
        if json.contains("{\"Deliver\":") && json.contains("{\"Transmit\":") {
            break;
        }
    }
    // Two different events under one key: the second calendar entry
    // takes the first one's `(at, src, seq)`.
    let mut dup: EngineCheckpoint = serde_json::from_str(&json).expect("parse");
    let (at, src, seq) = dup.events[0].key();
    let second = &mut dup.events[1];
    (second.at, second.src, second.seq) = (at, src, seq);
    // One calendar entry rewritten in place (its key kept), for the
    // rejections that name what an event addresses rather than its key.
    let forge_event = |forge: &dyn Fn(&mut Ev) -> bool| {
        let mut ckpt: EngineCheckpoint = serde_json::from_str(&json).expect("parse");
        assert!(
            ckpt.events.iter_mut().any(|s| forge(&mut s.ev)),
            "no calendar entry to forge"
        );
        serde_json::to_string(&ckpt).expect("serialize")
    };
    // The first endpoint of one table rewritten in place; a positional
    // row names no field to find by text.
    let forge_endpoint = |server: bool, forge: &dyn Fn(&mut Conn)| {
        let mut ckpt: EngineCheckpoint = serde_json::from_str(&json).expect("parse");
        let table = if server {
            &mut ckpt.conns_server
        } else {
            &mut ckpt.conns_client
        };
        forge(
            table
                .iter_mut()
                .flatten()
                .next()
                .expect("an endpoint to forge"),
        );
        serde_json::to_string(&ckpt).expect("serialize")
    };
    let unknown = ConnId {
        idx: 999_999,
        gen: 0,
    };
    let replace = |ev: Ev| {
        forge_event(&move |slot: &mut Ev| {
            *slot = ev.clone();
            true
        })
    };
    let cases = [
        (
            "client endpoint host",
            forge_endpoint(false, &|c| c.key.client = HostId(999_999)),
            "out-of-range",
        ),
        (
            "server endpoint host",
            forge_endpoint(true, &|c| c.key.server = HostId(999_999)),
            "out-of-range",
        ),
        (
            "transmit route length",
            forge_number(&json, "{\"Transmit\":", "\"len\":", 200),
            "out-of-range",
        ),
        (
            "transmit route hop",
            forge_number(&json, "{\"Transmit\":", "\"hops\":[", 999_999),
            "out-of-range",
        ),
        (
            "deliver destination host",
            forge_number(&json, "{\"Deliver\":", "\"client\":", 999_999),
            "out-of-range",
        ),
        (
            "duplicate calendar key",
            serde_json::to_string(&dup).expect("serialize"),
            "share one event key",
        ),
        (
            "transmit hop past the route's end",
            forge_event(&|ev| match ev {
                Ev::Transmit { pkt, hop } => {
                    *hop = pkt.route.len() as u8;
                    true
                }
                _ => false,
            }),
            "transmit event beyond its route",
        ),
        (
            "release link",
            replace(Ev::Release {
                link: 999_999,
                bytes: 66,
            }),
            "release event for an out-of-range link",
        ),
        (
            "timer slot",
            replace(Ev::Rto {
                conn: unknown,
                dir: Dir::ClientToServer,
            }),
            "timer event for an unknown slot",
        ),
        (
            "service slot",
            replace(Ev::Service {
                conn: unknown,
                msg: 0,
                meta: MsgMeta {
                    response_bytes: 1,
                    service_time: SimDuration::ZERO,
                    issued_at: SimTime::ZERO,
                },
            }),
            "service event for an unknown slot",
        ),
        (
            "connection slot",
            replace(Ev::SendMsg {
                conn: unknown,
                req: 1,
                meta: MsgMeta {
                    response_bytes: 0,
                    service_time: SimDuration::ZERO,
                    issued_at: SimTime::ZERO,
                },
            }),
            "connection event for an unknown slot",
        ),
        (
            "peer-gone slot",
            replace(Ev::PeerGone {
                conn: unknown,
                client: false,
            }),
            "peer-gone event for an unknown slot",
        ),
        (
            "buffer sample region",
            replace(Ev::BufSample { region: 999 }),
            "buffer sample for an unknown region",
        ),
        (
            "fault link",
            replace(Ev::Fault {
                kind: FaultKind::LinkDown(LinkId(999_999)),
            }),
            "fault event: link999999 is out of range",
        ),
    ];
    for (what, forged, expected) in cases {
        assert_ne!(json, forged, "{what}: nothing was forged");
        let ckpt: EngineCheckpoint = serde_json::from_str(&forged).expect("parse");
        match Simulator::restore(Arc::clone(&topo), NullTap, ckpt) {
            Err(SimError::Config(msg)) => assert!(msg.contains(expected), "{what}: {msg}"),
            Err(other) => panic!("{what}: expected Config error, got {other:?}"),
            Ok(_) => panic!("{what}: expected Config error, got a restored simulator"),
        }
    }
}

/// A hybrid plant with staggered cross-rack messages, checkpointed while
/// its fast calendar holds at least two events; the checkpoint restores
/// as it stands, so each forgery below is what a rejection rejects.
fn hybrid_checkpoint(topo: &Arc<Topology>) -> EngineCheckpoint {
    let mut sim =
        Simulator::new(Arc::clone(topo), SimConfig::default(), NullTap).expect("valid config");
    sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
    for i in 0..4u64 {
        let a = topo.racks()[i as usize % 3].hosts[0];
        let b = topo.racks()[3].hosts[1];
        let conn = sim
            .open_connection(SimTime::from_micros(i * 50), a, b, 3306)
            .expect("open");
        for m in 0..3 {
            let at = SimTime::from_micros(i * 50 + m * 200);
            sim.send_message(conn, at, 400, 5_000, SimDuration::from_micros(80))
                .expect("send");
        }
    }
    sim.run_until(SimTime::from_micros(60));
    let ckpt = sim.checkpoint();
    assert!(
        ckpt.fast.events.len() >= 2,
        "the fast calendar must hold events to forge"
    );
    Simulator::restore(Arc::clone(topo), NullTap, ckpt.clone()).expect("unforged restore");
    ckpt
}

fn assert_restore_rejects(topo: &Arc<Topology>, ckpt: EngineCheckpoint, expected: &str) {
    match Simulator::restore(Arc::clone(topo), NullTap, ckpt) {
        Err(SimError::Config(msg)) => assert!(msg.contains(expected), "{msg}"),
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a restored simulator"),
    }
}

#[test]
fn restore_rejects_fast_event_before_the_clock() {
    let topo = two_cluster_topo();
    let mut ckpt = hybrid_checkpoint(&topo);
    ckpt.fast.events[1].at = SimTime::from_nanos(ckpt.now.as_nanos() - 1);
    assert_restore_rejects(&topo, ckpt, "fast-path event before the checkpointed clock");
}

#[test]
fn restore_rejects_fast_event_with_unissued_seq() {
    let topo = two_cluster_topo();
    let mut ckpt = hybrid_checkpoint(&topo);
    ckpt.fast.events[0].seq = ckpt.fast.seq;
    assert_restore_rejects(
        &topo,
        ckpt,
        "fast-path event with an unissued sequence number",
    );
}

#[test]
fn restore_rejects_fast_events_sharing_a_key() {
    let topo = two_cluster_topo();
    let mut ckpt = hybrid_checkpoint(&topo);
    let (at, seq) = (ckpt.fast.events[0].at, ckpt.fast.events[0].seq);
    (ckpt.fast.events[1].at, ckpt.fast.events[1].seq) = (at, seq);
    assert_restore_rejects(&topo, ckpt, "two fast-path events share one event key");
}

#[test]
fn audit_holds_throughout_a_run() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    for step in 1..=8u64 {
        sim.run_until(SimTime::from_micros(step * 300));
        sim.audit().expect("invariants must hold mid-run");
    }
    sim.run_to_quiescence();
    sim.audit().expect("invariants must hold at quiescence");
}

#[test]
fn audit_detects_conservation_break() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    sim.run_until(SimTime::from_millis(1));
    // Corrupt a counter behind the engine's back.
    sim.plant.counters.delivered_packets += 1;
    let report = sim.audit().expect_err("corruption must be detected");
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, AuditViolation::PacketConservation { .. })));
    let rendered = report.to_string();
    assert!(rendered.contains("packet conservation"), "{rendered}");
}

#[test]
fn audit_detects_link_over_delivery() {
    let topo = two_cluster_topo();
    let mut sim = busy_sim(&topo);
    sim.run_to_quiescence();
    // A link that claims traffic while its clock says it was never busy
    // violates the rate x elapsed bound. Keep packet conservation
    // intact by inflating only the byte counter.
    let n_links = topo.links().len();
    let li = (0..n_links)
        .find(|&i| sim.link_counters(LinkId(i as u32)).tx_bytes > 0)
        .expect("some link carried traffic");
    sim.plant.link_counters[li].tx_bytes += 10_000_000_000;
    let report = sim.audit().expect_err("over-delivery must be detected");
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, AuditViolation::LinkOverDelivery { .. })));
}

#[test]
fn run_until_step_size_is_unobservable() {
    // Splitting one horizon into many run calls must not change a byte:
    // the supervised runner steps the clock in checkpoint intervals while
    // plain captures run straight through, and both must agree. The
    // hybrid input runs the same exchanges on the fast
    // path, whose calendar interleaves with the windows at every fast
    // instant. One heavy-hitter-sized transfer demotes its flow when it
    // is issued, and a link fault on a second flow's pinned route demotes
    // that flow from the fast calendar at the fault instant, mid-run.
    let topo = two_dc_topo();
    let horizon = SimTime::from_millis(12);
    for hybrid in [false, true] {
        let build = || {
            let mut sim = Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap)
                .expect("valid config");
            if hybrid {
                sim.set_fidelity(FidelityConfig::hybrid()).expect("hybrid");
            }
            sim.record_latencies(true);
            let webs = topo.hosts_with_role(sonet_topology::HostRole::Web);
            let caches = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader);
            for (i, &w) in webs.iter().enumerate() {
                let c = sim
                    .open_connection(SimTime::ZERO, w, caches[i % caches.len()], 11211)
                    .expect("open");
                for m in 0..6u64 {
                    let req = if hybrid && i == 0 && m == 2 {
                        FidelityConfig::hybrid().heavy_flow_bytes
                    } else {
                        400 + m * 173
                    };
                    sim.send_message(
                        c,
                        SimTime::from_micros(i as u64 * 31 + m * 900),
                        req,
                        2_000,
                        SimDuration::from_micros(50),
                    )
                    .expect("send");
                }
                sim.close_connection(c, SimTime::from_millis(8))
                    .expect("close");
            }
            if hybrid {
                let uplink = topo.host_uplink(webs[1]);
                sim.inject_fault(SimTime::from_millis(4), FaultKind::LinkDown(uplink))
                    .expect("fault");
                sim.inject_fault(SimTime::from_millis(6), FaultKind::LinkUp(uplink))
                    .expect("fault");
            }
            sim
        };
        let mut straight = build();
        straight.run_until(horizon);
        let want = straight.finish().0;

        let mut stepped = build();
        let mut t = SimTime::ZERO;
        while t < horizon {
            t += SimDuration::from_micros(370);
            stepped.run_until(t.min(horizon));
        }
        let got = stepped.finish().0;
        if hybrid {
            assert!(
                want.flows_fast > 0,
                "the hybrid input must use the fast path"
            );
            assert!(
                want.fast_path_demotions >= 2,
                "the heavy transfer and the link fault must each demote a flow, got {}",
                want.fast_path_demotions
            );
        }
        assert_eq!(
            serde_json::to_string(&got).expect("json"),
            serde_json::to_string(&want).expect("json"),
            "hybrid={hybrid}: the stepped run differs from the straight one"
        );
    }
}

#[test]
fn run_until_step_size_is_unobservable_under_aborts() {
    // Same contract with connections aborting mid-flight: peer-gone
    // notifications are pinned to the abort instant plus a fixed delay,
    // not to wherever the caller's run_until boundaries happen to fall.
    let topo = two_dc_topo();
    let build = || {
        // A tight RTO budget so the outage aborts transfers well inside
        // the horizon instead of after seconds of exponential backoff.
        let cfg = SimConfig {
            rto: SimDuration::from_millis(2),
            max_consecutive_rtos: 3,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(Arc::clone(&topo), cfg, NullTap).expect("valid config");
        let webs = topo.hosts_with_role(sonet_topology::HostRole::Web);
        let caches = topo.hosts_with_role(sonet_topology::HostRole::CacheLeader);
        // A long outage of the ToR over the first cache leader: transfers
        // pinned through it exhaust their RTO budget and abort, their
        // peers in the other datacenter.
        let far_rsw = topo
            .racks()
            .iter()
            .find(|r| r.hosts.contains(&caches[0]))
            .expect("leader rack")
            .rsw;
        sim.inject_fault(SimTime::from_millis(6), FaultKind::SwitchDown(far_rsw))
            .expect("fault");
        for (i, &w) in webs.iter().enumerate() {
            let c = sim
                .open_connection(SimTime::ZERO, w, caches[i % caches.len()], 11211)
                .expect("open");
            // Bulk transfers that are still streaming when the ToR dies
            // at 6 ms — the handshake (~2 ms cross-DC) has completed, so
            // the RTO cap aborts *established* connections.
            for m in 0..4u64 {
                sim.send_message(
                    c,
                    SimTime::from_micros(i as u64 * 47 + m * 1100),
                    40_000 + m * 211,
                    1_500,
                    SimDuration::from_micros(40),
                )
                .expect("send");
            }
        }
        sim
    };
    let horizon = SimTime::from_millis(400);
    let mut straight = build();
    straight.run_until(horizon);
    let (a, _) = straight.finish();
    assert!(a.aborted_connections > 0, "the outage must abort transfers");

    let mut stepped = build();
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += SimDuration::from_micros(7_300);
        stepped.run_until(t.min(horizon));
    }
    let (b, _) = stepped.finish();
    assert_eq!(
        serde_json::to_string(&a).expect("json"),
        serde_json::to_string(&b).expect("json"),
        "step size leaked into outputs when aborts cross the barrier"
    );
}

#[test]
fn gray_link_drops_fraction_without_touching_routing() {
    let topo = two_cluster_topo();
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let uplink = topo.host_uplink(a);

    let run = |gray: f64| {
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
        if gray > 0.0 {
            sim.inject_fault(
                SimTime::ZERO,
                FaultKind::GrayLink {
                    link: uplink,
                    drop_fraction: gray,
                },
            )
            .expect("inject");
        }
        let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        for i in 0..20 {
            sim.send_message(conn, SimTime::from_millis(i), 20_000, 0, SimDuration::ZERO)
                .expect("send");
        }
        sim.run_to_quiescence();
        sim.audit().expect("conservation holds under gray loss");
        let (outputs, _) = sim.finish();
        outputs
    };

    let healthy = run(0.0);
    assert_eq!(healthy.gray_dropped_packets, 0);

    let gray = run(0.3);
    assert!(gray.gray_dropped_packets > 0, "gray link ate packets");
    // Gray drops ride the fault-drop counters for conservation.
    let fault_drops: u64 = gray
        .link_counters
        .iter()
        .map(|c| c.fault_drop_packets)
        .sum();
    assert_eq!(fault_drops, gray.gray_dropped_packets);
    // The control plane never saw a fault: nothing rerouted.
    assert_eq!(gray.reroutes, 0);
    assert_eq!(gray.reroute_failures, 0);
    // Transports still completed everything via retransmission.
    assert_eq!(gray.completed_requests, healthy.completed_requests);

    // Deterministic: same plan, same drops.
    let again = run(0.3);
    assert_eq!(again.gray_dropped_packets, gray.gray_dropped_packets);
    assert_eq!(again.delivered_packets, gray.delivered_packets);
}

#[test]
fn flap_expands_into_down_up_train() {
    let topo = two_cluster_topo();
    let a = topo.racks()[0].hosts[0];
    let b = topo.racks()[1].hosts[0];
    let uplink = topo.host_uplink(a);
    let mut sim =
        Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
    sim.inject_fault(
        SimTime::from_millis(1),
        FaultKind::FlapLink {
            link: uplink,
            half_period: SimDuration::from_millis(2),
            cycles: 3,
        },
    )
    .expect("inject");
    let conn = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
    for i in 0..10 {
        sim.send_message(conn, SimTime::from_millis(i), 5_000, 0, SimDuration::ZERO)
            .expect("send");
    }
    sim.run_to_quiescence();
    sim.audit().expect("conservation holds under flaps");
    let (outputs, _) = sim.finish();
    // 3 cycles → 6 primitive down/up fault events applied.
    assert_eq!(outputs.faults_applied, 6);
    assert!(outputs.delivered_packets > 0);
    // After the final up the link works again; the health mask is clean.
}

#[test]
fn flap_validation_rejects_degenerate_trains() {
    let topo = two_cluster_topo();
    let mut sim =
        Simulator::new(Arc::clone(&topo), SimConfig::default(), NullTap).expect("valid config");
    let uplink = topo.host_uplink(topo.racks()[0].hosts[0]);
    assert!(sim
        .inject_fault(
            SimTime::ZERO,
            FaultKind::FlapLink {
                link: uplink,
                half_period: SimDuration::ZERO,
                cycles: 1,
            },
        )
        .is_err());
    assert!(sim
        .inject_fault(
            SimTime::ZERO,
            FaultKind::FlapLink {
                link: uplink,
                half_period: SimDuration::from_millis(1),
                cycles: 0,
            },
        )
        .is_err());
    assert!(sim
        .inject_fault(
            SimTime::ZERO,
            FaultKind::GrayLink {
                link: uplink,
                drop_fraction: -0.1,
            },
        )
        .is_err());
}
