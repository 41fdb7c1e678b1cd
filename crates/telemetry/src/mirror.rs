//! Port mirroring (§3.3.2).
//!
//! "We collect traces by turning on port mirroring on the RSW ... and
//! mirroring the full, bi-directional traffic for a single server to our
//! collection server. ... a custom kernel module that effectively pins all
//! free RAM on the server and uses it to buffer incoming packets. ...
//! Memory restrictions on our collection servers limit the traces we
//! collect in this fashion to a few minutes in length."
//!
//! [`PortMirror`] reproduces these constraints: it records every packet the
//! engine transmits on the links it was registered on, up to a fixed
//! packet capacity, and reports truncation when the buffer fills.

use crate::records::PacketRecord;
use serde::{Content, DeError, Deserialize, Serialize, Sink};
use sonet_netsim::{ConnId, Dir, FlowKey, Packet, PacketKind, PacketTap, Simulator};
use sonet_topology::{HostId, LinkId, Topology};
use sonet_util::SimTime;

/// RAM-bounded full-fidelity capture of mirrored ports.
///
/// Serializable so a supervised capture can checkpoint its tap alongside
/// the engine: the mirror *is* dynamic state (records, loss counters, the
/// deterministic loss schedule's packet ordinal) and must resume exactly
/// where it stopped for a resumed capture to be byte-identical.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortMirror {
    records: Records,
    capacity: usize,
    overflow: u64,
    mirrored_hosts: Vec<HostId>,
    /// Injected capture loss, in permille (see `set_fault_loss`).
    fault_loss_permille: u32,
    /// Packets offered to the mirror (captured + overflowed + dropped).
    seen: u64,
    fault_dropped: u64,
}

impl PortMirror {
    /// A mirror buffer able to hold `capacity` packet headers (the pinned
    /// free RAM of the collection server).
    pub fn new(capacity: usize) -> PortMirror {
        assert!(capacity > 0, "mirror buffer must hold at least one packet");
        PortMirror {
            records: Records(Vec::new()),
            capacity,
            overflow: 0,
            mirrored_hosts: Vec::new(),
            fault_loss_permille: 0,
            seen: 0,
            fault_dropped: 0,
        }
    }

    /// Injects capture-path loss: from now on, roughly `fraction` of
    /// offered packets are dropped before buffering (0.0 restores full
    /// fidelity). The decision is a deterministic hash of the running
    /// packet count — no RNG — so a faulted capture replays byte-for-byte.
    /// Every drop is counted in [`PortMirror::fault_dropped`], mirroring
    /// how production capture loses data while its loss counters keep
    /// working.
    pub fn set_fault_loss(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "loss fraction {fraction} outside [0, 1]"
        );
        self.fault_loss_permille = (fraction * 1000.0).round() as u32;
    }

    /// Packets lost to injected capture faults (distinct from
    /// [`PortMirror::overflow`], the memory-limit loss).
    pub fn fault_dropped(&self) -> u64 {
        self.fault_dropped
    }

    /// Packets offered to the mirror, whether captured or lost.
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// Registers the bidirectional access links of `host` on `sim` and
    /// notes the host as mirrored.
    pub fn mirror_host<T: PacketTap>(&mut self, sim: &mut Simulator<T>, host: HostId) {
        let topo = sim.topology();
        let up = topo.host_uplink(host);
        let down = topo.host_downlink(host);
        sim.watch_link(up);
        sim.watch_link(down);
        self.mirrored_hosts.push(host);
    }

    /// Registers every host in `rack_hosts` (the Web-server-rack capture of
    /// §3.3.2, possible there because utilization is low).
    pub fn mirror_rack<T: PacketTap>(
        &mut self,
        sim: &mut Simulator<T>,
        topo: &Topology,
        rack: sonet_topology::RackId,
    ) {
        for &h in &topo.rack(rack).hosts.clone() {
            self.mirror_host(sim, h);
        }
    }

    /// Hosts being mirrored.
    pub fn mirrored_hosts(&self) -> &[HostId] {
        &self.mirrored_hosts
    }

    /// Captured records, in per-link time order (interleaved across links).
    pub fn records(&self) -> &[PacketRecord] {
        &self.records.0
    }

    /// Consumes the mirror, returning the capture.
    pub fn into_records(self) -> Vec<PacketRecord> {
        self.records.0
    }

    /// Packets that arrived after the buffer filled.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// True if the capture hit the memory limit.
    pub fn truncated(&self) -> bool {
        self.overflow > 0
    }

    /// Timestamp of the last captured packet, if any.
    pub fn last_capture_at(&self) -> Option<SimTime> {
        self.records.0.iter().map(|r| r.at).max()
    }
}

impl PacketTap for PortMirror {
    fn on_packet(&mut self, at: SimTime, link: LinkId, pkt: &sonet_netsim::Packet) {
        self.seen += 1;
        // Knuth multiplicative hash of the packet ordinal: spreads drops
        // evenly through the stream, deterministically.
        if self.fault_loss_permille > 0
            && self.seen.wrapping_mul(2_654_435_761) % 1000 < self.fault_loss_permille as u64
        {
            self.fault_dropped += 1;
            return;
        }
        if self.records.0.len() >= self.capacity {
            self.overflow += 1;
            return;
        }
        self.records.0.push(PacketRecord {
            at,
            link,
            pkt: *pkt,
        });
    }
}

/// The captured records. Serialized (into checkpoints only) as one flat
/// row of [`RECORD_CELLS`] numbers per record: `at, link, conn.idx,
/// conn.gen, key.client, key.server, key.client_port, key.server_port,
/// dir, kind, seq, msg, payload, wire_bytes`, with `dir` and `kind` as
/// their indices in [`DIRS`] and [`KINDS`].
#[derive(Debug, Clone)]
struct Records(Vec<PacketRecord>);

/// Cells in a serialized record row.
const RECORD_CELLS: usize = 14;

/// A record row's `dir` codes: each direction is coded by its index.
const DIRS: [Dir; 2] = [Dir::ClientToServer, Dir::ServerToClient];

/// A record row's `kind` codes: each kind is coded by its index.
const KINDS: [PacketKind; 7] = [
    PacketKind::Syn,
    PacketKind::SynAck,
    PacketKind::Data { last_of_msg: false },
    PacketKind::Data { last_of_msg: true },
    PacketKind::Ack,
    PacketKind::Fin,
    PacketKind::FinAck,
];

/// The index of `v` in `codes`, which lists every value of its type.
fn code_of<T: PartialEq>(codes: &[T], v: &T) -> u64 {
    codes
        .iter()
        .position(|c| c == v)
        .expect("the code table lists every value") as u64
}

/// The value cell `i` of row `r` codes in `codes`.
fn coded<T: Copy>(codes: &[T], r: &[Content], i: usize, what: &str) -> Result<T, DeError> {
    let code: usize = serde::cell(r, i, what)?;
    codes
        .get(code)
        .copied()
        .ok_or_else(|| DeError::msg(format!("{what}: unknown code {code}")))
}

impl Serialize for Records {
    fn serialize<S: Sink + ?Sized>(&self, s: &mut S) {
        s.seq_begin(self.0.len());
        for r in &self.0 {
            let p = &r.pkt;
            s.seq_begin(RECORD_CELLS);
            r.at.serialize(s);
            r.link.serialize(s);
            s.u64(p.conn.idx.into());
            s.u64(p.conn.gen.into());
            p.key.client.serialize(s);
            p.key.server.serialize(s);
            s.u64(p.key.client_port.into());
            s.u64(p.key.server_port.into());
            s.u64(code_of(&DIRS, &p.dir));
            s.u64(code_of(&KINDS, &p.kind));
            s.u64(p.seq);
            s.u64(p.msg.into());
            s.u64(p.payload.into());
            s.u64(p.wire_bytes.into());
            s.seq_end();
        }
        s.seq_end();
    }
}

impl Deserialize for Records {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let Content::Seq(rows) = c else {
            return Err(DeError::msg(format!(
                "mirror records: expected a sequence, got {}",
                c.kind()
            )));
        };
        rows.iter()
            .map(record_from_row)
            .collect::<Result<_, _>>()
            .map(Records)
    }
}

fn record_from_row(c: &Content) -> Result<PacketRecord, DeError> {
    let r = serde::row(c, RECORD_CELLS, "PacketRecord")?;
    Ok(PacketRecord {
        at: serde::cell(r, 0, "PacketRecord.at")?,
        link: serde::cell(r, 1, "PacketRecord.link")?,
        pkt: Packet {
            conn: ConnId {
                idx: serde::cell(r, 2, "PacketRecord.conn.idx")?,
                gen: serde::cell(r, 3, "PacketRecord.conn.gen")?,
            },
            key: FlowKey {
                client: serde::cell(r, 4, "PacketRecord.key.client")?,
                server: serde::cell(r, 5, "PacketRecord.key.server")?,
                client_port: serde::cell(r, 6, "PacketRecord.key.client_port")?,
                server_port: serde::cell(r, 7, "PacketRecord.key.server_port")?,
            },
            dir: coded(&DIRS, r, 8, "PacketRecord.dir")?,
            kind: coded(&KINDS, r, 9, "PacketRecord.kind")?,
            seq: serde::cell(r, 10, "PacketRecord.seq")?,
            msg: serde::cell(r, 11, "PacketRecord.msg")?,
            payload: serde::cell(r, 12, "PacketRecord.payload")?,
            wire_bytes: serde::cell(r, 13, "PacketRecord.wire_bytes")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_netsim::{SimConfig, Simulator};
    use sonet_topology::{ClusterSpec, TopologySpec};
    use sonet_util::SimDuration;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(
            Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(8, 4)]))
                .expect("valid"),
        )
    }

    #[test]
    fn captures_bidirectional_traffic_of_mirrored_host_only() {
        let topo = topo();
        let mirror = PortMirror::new(100_000);
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), mirror).expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        let c = topo.racks()[2].hosts[0];

        // Mirror host a — requires a reference dance since the mirror *is* the tap.
        let up = topo.host_uplink(a);
        let down = topo.host_downlink(a);
        sim.watch_link(up);
        sim.watch_link(down);

        let c1 = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        sim.send_message(c1, SimTime::ZERO, 1000, 1000, SimDuration::ZERO)
            .expect("send");
        // Unrelated flow between b and c must not be captured.
        let c2 = sim.open_connection(SimTime::ZERO, b, c, 80).expect("open");
        sim.send_message(c2, SimTime::ZERO, 1000, 1000, SimDuration::ZERO)
            .expect("send");

        sim.run_until(SimTime::from_millis(50));
        let (_, mirror) = sim.finish();
        assert!(!mirror.records().is_empty());
        for r in mirror.records() {
            assert!(
                r.pkt.wire_src() == a || r.pkt.wire_dst() == a,
                "captured a packet not touching the mirrored host"
            );
            assert!(r.link == up || r.link == down);
        }
        assert!(!mirror.truncated());
    }

    #[test]
    fn buffer_fills_and_truncates() {
        let topo = topo();
        let mirror = PortMirror::new(10);
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), mirror).expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        sim.watch_link(topo.host_uplink(a));
        sim.watch_link(topo.host_downlink(a));
        let c1 = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        sim.send_message(c1, SimTime::ZERO, 100_000, 100_000, SimDuration::ZERO)
            .expect("send");
        sim.run_until(SimTime::from_millis(100));
        let (_, mirror) = sim.finish();
        assert_eq!(mirror.records().len(), 10);
        assert!(mirror.truncated());
        assert!(mirror.overflow() > 0);
    }

    #[test]
    fn mirror_host_helper_registers_links() {
        let topo = topo();
        // Use a NullTap sim to exercise the helper; the helper only flips
        // watch bits and records the host.
        let mut sim = Simulator::new(
            Arc::clone(&topo),
            SimConfig::default(),
            sonet_netsim::NullTap,
        )
        .expect("config");
        let mut mirror = PortMirror::new(10);
        let a = topo.racks()[0].hosts[0];
        mirror.mirror_host(&mut sim, a);
        assert_eq!(mirror.mirrored_hosts(), &[a]);
    }

    #[test]
    fn records_round_trip_as_flat_rows_for_every_direction_and_kind() {
        let mut mirror = PortMirror::new(100);
        for (i, (&dir, &kind)) in DIRS.iter().cycle().zip(&KINDS).enumerate() {
            let i = i as u32;
            let pkt = Packet {
                conn: ConnId { idx: i, gen: 2 },
                key: FlowKey {
                    client: HostId(i),
                    server: HostId(40 + i),
                    client_port: 40_000,
                    server_port: 11211,
                },
                dir,
                kind,
                seq: u64::from(i) << 33,
                msg: 3 * i,
                payload: 1460,
                wire_bytes: 1526,
            };
            mirror.on_packet(SimTime::from_nanos(5 + u64::from(i)), LinkId(9), &pkt);
        }
        let text = serde_json::to_string(&mirror).expect("serialize");
        assert!(
            text.starts_with(r#"{"records":[[5,9,0,2,0,40,40000,11211,0,0,0,0,1460,1526],"#),
            "{text}"
        );
        let back: PortMirror = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.records(), mirror.records());
        assert_eq!(back.offered(), KINDS.len() as u64);
        assert_eq!(serde_json::to_string(&back).expect("serialize"), text);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_capacity_rejected() {
        let _ = PortMirror::new(0);
    }

    fn run_with_loss(fraction: f64) -> PortMirror {
        let topo = topo();
        let mut mirror = PortMirror::new(100_000);
        mirror.set_fault_loss(fraction);
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), mirror).expect("config");
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        sim.watch_link(topo.host_uplink(a));
        sim.watch_link(topo.host_downlink(a));
        let c1 = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        sim.send_message(c1, SimTime::ZERO, 500_000, 500_000, SimDuration::ZERO)
            .expect("send");
        sim.run_until(SimTime::from_secs(1));
        let (_, mirror) = sim.finish();
        mirror
    }

    #[test]
    fn total_capture_loss_drops_everything_but_counts_it() {
        let mirror = run_with_loss(1.0);
        assert!(mirror.records().is_empty());
        assert!(mirror.fault_dropped() > 0);
        assert_eq!(mirror.fault_dropped(), mirror.offered());
        assert!(!mirror.truncated(), "fault loss is not memory overflow");
    }

    #[test]
    fn partial_capture_loss_is_proportional_and_deterministic() {
        let a = run_with_loss(0.4);
        assert!(a.fault_dropped() > 0);
        assert!(!a.records().is_empty());
        let lost = a.fault_dropped() as f64 / a.offered() as f64;
        assert!(
            (lost - 0.4).abs() < 0.05,
            "lost fraction {lost}, wanted ≈0.4"
        );
        // Same run, same loss schedule: byte-identical capture.
        let b = run_with_loss(0.4);
        assert_eq!(a.records().len(), b.records().len());
        assert_eq!(a.fault_dropped(), b.fault_dropped());
    }
}
