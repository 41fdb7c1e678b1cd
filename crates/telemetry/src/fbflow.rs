//! Fbflow: fleet-wide sampled packet-header collection (§3.3.1, Fig 3).
//!
//! Production Fbflow inserts a Netfilter `nflog` target into every
//! machine's iptables rules, sampling at 1:30 000; a user-level agent
//! parses headers and streams them via Scribe to taggers, which join in
//! rack/cluster/role metadata and feed Scuba/Hive.
//!
//! Here, [`FbflowSampler`] is a [`PacketTap`] registered on every host
//! access link: each *machine* samples the packets it sends and receives,
//! independently, exactly as per-host iptables rules would. [`Tagger`]
//! performs the metadata join against the topology, producing the
//! [`TaggedRecord`]s stored in a [`crate::ScubaTable`].

use crate::records::{FlowRecord, TaggedRecord};
use crate::scuba::ScubaTable;
use serde::{Deserialize, Serialize};
use sonet_netsim::{Packet, PacketTap, Simulator};
use sonet_topology::{HostId, LinkId, Node, Topology};
use sonet_util::{Rng, SimTime};

/// Fbflow collection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FbflowConfig {
    /// Sample one packet in `sampling_rate` (paper: 30 000).
    pub sampling_rate: u64,
}

impl Default for FbflowConfig {
    fn default() -> Self {
        // §3.3.1: "collected with a 1:30,000 sampling rate".
        FbflowConfig {
            sampling_rate: 30_000,
        }
    }
}

/// Per-host packet sampler across the whole fleet.
pub struct FbflowSampler {
    cfg: FbflowConfig,
    rng: Rng,
    /// For each link: the machine whose agent observes it, if it is a host
    /// access link.
    capture_host: Vec<Option<HostId>>,
    samples: Vec<FlowRecord>,
    /// Injected agent loss, in permille (see `set_agent_loss`).
    agent_loss_permille: u32,
    /// Packets that survived nflog sampling (kept + agent-dropped).
    sampled: u64,
    agent_dropped: u64,
}

impl FbflowSampler {
    /// Builds a sampler for `topo`, seeded deterministically.
    pub fn new(topo: &Topology, cfg: FbflowConfig, rng: Rng) -> FbflowSampler {
        assert!(cfg.sampling_rate >= 1, "sampling rate must be >= 1");
        let capture_host = topo
            .links()
            .iter()
            .map(|l| match (l.from, l.to) {
                // Uplink: the sending machine's agent sees it.
                (Node::Host(h), _) => Some(h),
                // Downlink: the receiving machine's agent sees it.
                (_, Node::Host(h)) => Some(h),
                _ => None,
            })
            .collect();
        FbflowSampler {
            cfg,
            rng,
            capture_host,
            samples: Vec::new(),
            agent_loss_permille: 0,
            sampled: 0,
            agent_dropped: 0,
        }
    }

    /// Injects agent-side loss: roughly `fraction` of packets that survive
    /// nflog sampling are dropped before reaching Scribe (0.0 restores
    /// full collection). Deterministic — a hash of the running sample
    /// count, not the RNG — and every drop is counted in
    /// [`FbflowSampler::agent_dropped`], like a real agent's overflow
    /// counters.
    pub fn set_agent_loss(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "loss fraction {fraction} outside [0, 1]"
        );
        self.agent_loss_permille = (fraction * 1000.0).round() as u32;
    }

    /// Samples lost to injected agent faults.
    pub fn agent_dropped(&self) -> u64 {
        self.agent_dropped
    }

    /// Registers every host access link (up and down) on the simulator —
    /// the "every machine's iptables rules" deployment.
    pub fn deploy_fleet_wide<T: PacketTap>(sim: &mut Simulator<T>, topo: &Topology) {
        for (i, link) in topo.links().iter().enumerate() {
            if link.touches_host() {
                sim.watch_link(LinkId(i as u32));
            }
        }
    }

    /// Raw samples collected so far.
    pub fn samples(&self) -> &[FlowRecord] {
        &self.samples
    }

    /// Consumes the sampler, returning the sample stream.
    pub fn into_samples(self) -> Vec<FlowRecord> {
        self.samples
    }

    /// The configured sampling rate (for scale-up estimates).
    pub fn sampling_rate(&self) -> u64 {
        self.cfg.sampling_rate
    }
}

impl PacketTap for FbflowSampler {
    fn on_packet(&mut self, at: SimTime, link: LinkId, pkt: &Packet) {
        let Some(host) = self.capture_host[link.index()] else {
            return;
        };
        // nflog statistical sampling: each packet sampled independently.
        if self.cfg.sampling_rate > 1 && self.rng.below(self.cfg.sampling_rate) != 0 {
            return;
        }
        // Agent-side loss happens downstream of sampling: the kernel
        // sampled the packet, the user-level agent failed to ship it.
        self.sampled += 1;
        if self.agent_loss_permille > 0
            && self.sampled.wrapping_mul(2_654_435_761) % 1000 < self.agent_loss_permille as u64
        {
            self.agent_dropped += 1;
            return;
        }
        let (src_port, dst_port) = match pkt.dir {
            sonet_netsim::Dir::ClientToServer => (pkt.key.client_port, pkt.key.server_port),
            sonet_netsim::Dir::ServerToClient => (pkt.key.server_port, pkt.key.client_port),
        };
        self.samples.push(FlowRecord {
            at,
            capture_host: host,
            src: pkt.wire_src(),
            dst: pkt.wire_dst(),
            src_port,
            dst_port,
            bytes: pkt.wire_bytes as u64,
            packets: 1,
        });
    }
}

/// The tagger stage: joins samples with topology metadata.
#[derive(Debug, Clone, Copy)]
pub struct Tagger<'t> {
    topo: &'t Topology,
}

impl<'t> Tagger<'t> {
    /// A tagger over `topo`.
    pub fn new(topo: &'t Topology) -> Tagger<'t> {
        Tagger { topo }
    }

    /// Annotates one record.
    pub fn tag(&self, rec: FlowRecord) -> TaggedRecord {
        let src = self.topo.host(rec.src);
        let dst = self.topo.host(rec.dst);
        TaggedRecord {
            rec,
            src_role: src.role,
            dst_role: dst.role,
            src_rack: src.rack,
            dst_rack: dst.rack,
            src_cluster: src.cluster,
            dst_cluster: dst.cluster,
            src_cluster_type: self.topo.cluster(src.cluster).ctype,
            dst_cluster_type: self.topo.cluster(dst.cluster).ctype,
            src_dc: src.datacenter,
            dst_dc: dst.datacenter,
            locality: self.topo.locality(rec.src, rec.dst),
        }
    }

    /// Tags a whole sample stream into a Scuba table — the
    /// agent → Scribe → tagger → Scuba pipeline of Fig 3 in one call.
    pub fn ingest(&self, samples: Vec<FlowRecord>) -> ScubaTable {
        ScubaTable::from_rows(samples.into_iter().map(|s| self.tag(s)).collect())
    }

    /// [`Tagger::ingest`] fanned out over `threads` workers: the stream
    /// is split into contiguous shards, tagged concurrently, and the
    /// shard tables merged back in stream order. Tagging is a pure
    /// per-record join, so the resulting table is byte-identical to the
    /// serial `ingest` for every thread count. The first shard's table
    /// is the result; only the later shards are copied, into it.
    pub fn ingest_sharded(&self, samples: &[FlowRecord], threads: usize) -> ScubaTable {
        sonet_util::obs::counter_add!("telemetry.samples_tagged", samples.len() as u64);
        let shards = sonet_util::par::split_ranges(threads, samples.len());
        let tables = sonet_util::par::map_indexed(threads, shards.len(), |s| {
            // Shard 0's rows become the result: room for every shard.
            let cap = if s == 0 {
                samples.len()
            } else {
                shards[s].len()
            };
            let mut rows = Vec::with_capacity(cap);
            rows.extend(samples[shards[s].clone()].iter().map(|&r| self.tag(r)));
            ScubaTable::from_rows(rows)
        });
        let mut tables = tables.into_iter();
        let mut merged = tables.next().unwrap_or_default();
        for t in tables {
            merged.merge(t);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_netsim::SimConfig;
    use sonet_topology::{ClusterSpec, Locality, TopologySpec};
    use sonet_util::SimDuration;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(
            Topology::build(TopologySpec::single_dc(vec![
                ClusterSpec::frontend(8, 4),
                ClusterSpec::hadoop(4, 4),
            ]))
            .expect("valid"),
        )
    }

    #[test]
    fn sampling_rate_one_captures_everything_on_host_links() {
        let topo = topo();
        let sampler = FbflowSampler::new(&topo, FbflowConfig { sampling_rate: 1 }, Rng::new(7));
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), sampler).expect("config");
        FbflowSampler::deploy_fleet_wide(&mut sim, &topo);
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        let c = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        sim.send_message(c, SimTime::ZERO, 1000, 500, SimDuration::ZERO)
            .expect("send");
        sim.run_until(SimTime::from_millis(50));
        let (out, sampler) = sim.finish();
        // Every packet crosses exactly two host links (src uplink + dst
        // downlink), so sample count = 2 × delivered packets.
        assert_eq!(sampler.samples().len() as u64, 2 * out.delivered_packets);
        // Each packet is observed once by each endpoint's agent.
        let by_a = sampler
            .samples()
            .iter()
            .filter(|s| s.capture_host == a)
            .count();
        let by_b = sampler
            .samples()
            .iter()
            .filter(|s| s.capture_host == b)
            .count();
        assert_eq!(by_a, by_b);
        assert_eq!(by_a + by_b, sampler.samples().len());
    }

    #[test]
    fn sampling_rate_thins_the_stream() {
        let topo = topo();
        let sampler = FbflowSampler::new(&topo, FbflowConfig { sampling_rate: 10 }, Rng::new(9));
        let mut sim =
            Simulator::new(Arc::clone(&topo), SimConfig::default(), sampler).expect("config");
        FbflowSampler::deploy_fleet_wide(&mut sim, &topo);
        let a = topo.racks()[0].hosts[0];
        let b = topo.racks()[1].hosts[0];
        let c = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
        // ~2000 data packets each way.
        sim.send_message(c, SimTime::ZERO, 3_000_000, 3_000_000, SimDuration::ZERO)
            .expect("send");
        sim.run_until(SimTime::from_secs(2));
        let (out, sampler) = sim.finish();
        let observed = sampler.samples().len() as f64;
        let expected = 2.0 * out.delivered_packets as f64 / 10.0;
        assert!(
            (observed - expected).abs() < expected * 0.25,
            "observed {observed}, expected ≈{expected}"
        );
    }

    #[test]
    fn agent_loss_thins_samples_and_counts_drops() {
        let run = |loss: f64| {
            let topo = topo();
            let mut sampler =
                FbflowSampler::new(&topo, FbflowConfig { sampling_rate: 1 }, Rng::new(7));
            sampler.set_agent_loss(loss);
            let mut sim =
                Simulator::new(Arc::clone(&topo), SimConfig::default(), sampler).expect("config");
            FbflowSampler::deploy_fleet_wide(&mut sim, &topo);
            let a = topo.racks()[0].hosts[0];
            let b = topo.racks()[1].hosts[0];
            let c = sim.open_connection(SimTime::ZERO, a, b, 80).expect("open");
            sim.send_message(c, SimTime::ZERO, 200_000, 200_000, SimDuration::ZERO)
                .expect("send");
            sim.run_until(SimTime::from_secs(1));
            let (out, sampler) = sim.finish();
            (out, sampler)
        };
        // Total agent failure: nothing collected, everything counted.
        let (out, sampler) = run(1.0);
        assert!(sampler.samples().is_empty());
        assert_eq!(sampler.agent_dropped(), 2 * out.delivered_packets);
        // Partial loss: proportional, and deterministic across runs.
        let (_, a) = run(0.25);
        let total = a.samples().len() as u64 + a.agent_dropped();
        let lost = a.agent_dropped() as f64 / total as f64;
        assert!(
            (lost - 0.25).abs() < 0.05,
            "lost fraction {lost}, wanted ≈0.25"
        );
        let (_, b) = run(0.25);
        assert_eq!(a.samples().len(), b.samples().len());
        assert_eq!(a.agent_dropped(), b.agent_dropped());
    }

    #[test]
    fn sharded_ingest_equals_serial_ingest() {
        let topo = topo();
        let tagger = Tagger::new(&topo);
        let hosts = topo.hosts().len() as u64;
        let mut rng = Rng::new(31);
        let mut stream = |n: usize| -> Vec<FlowRecord> {
            (0..n)
                .map(|i| {
                    let src = HostId(rng.below(hosts) as u32);
                    FlowRecord {
                        at: SimTime::from_nanos(rng.below(1_000_000)),
                        capture_host: src,
                        src,
                        dst: HostId(rng.below(hosts) as u32),
                        src_port: i as u16,
                        dst_port: 80,
                        bytes: 1 + rng.below(10_000),
                        packets: 1,
                    }
                })
                .collect()
        };
        for samples in [stream(0), stream(1), stream(5), stream(1_001)] {
            let serial = tagger.ingest(samples.clone());
            for threads in [1, 2, 3, 8] {
                let sharded = tagger.ingest_sharded(&samples, threads);
                assert_eq!(
                    sharded.rows(),
                    serial.rows(),
                    "{} samples at {threads} threads",
                    samples.len()
                );
            }
        }
    }

    #[test]
    fn tagger_joins_roles_and_locality() {
        let topo = topo();
        let tagger = Tagger::new(&topo);
        let web = topo.hosts_with_role(sonet_topology::HostRole::Web)[0];
        let hadoop = topo.hosts_with_role(sonet_topology::HostRole::Hadoop)[0];
        let rec = FlowRecord {
            at: SimTime::ZERO,
            capture_host: web,
            src: web,
            dst: hadoop,
            src_port: 40000,
            dst_port: 50070,
            bytes: 100,
            packets: 1,
        };
        let tagged = tagger.tag(rec);
        assert_eq!(tagged.src_role, sonet_topology::HostRole::Web);
        assert_eq!(tagged.dst_role, sonet_topology::HostRole::Hadoop);
        assert_eq!(tagged.locality, Locality::IntraDatacenter);
        assert_eq!(
            tagged.src_cluster_type,
            sonet_topology::ClusterType::Frontend
        );
        assert_eq!(tagged.dst_cluster_type, sonet_topology::ClusterType::Hadoop);
    }
}
