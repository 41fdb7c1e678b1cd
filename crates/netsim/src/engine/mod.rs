//! The discrete-event engine.
//!
//! A calendar of timestamped events drives packets across their routes.
//! Each directed link is a FIFO: serialization starts when the link frees,
//! and switch egress queues admit packets against a shared buffer pool
//! with dynamic-threshold sharing (see [`crate::config::BufferConfig`]).
//!
//! # Execution model
//!
//! The plant is statically divided into topology-fixed *regions* — one
//! per cluster, one per datacenter hub tier, one for the backbone — and
//! the regions of each datacenter form one partition (the `part` module).
//! Each partition owns a slice of the link/switch/connection state and a
//! private event calendar. Cluster-local and cluster-crossing traffic —
//! the bulk of the paper's traffic — stays inside one datacenter, so only
//! DR ↔ backbone hops cross a partition boundary. The coordinator
//! advances all partitions in lockstep *windows* of one global
//! conservative lookahead: the smallest propagation delay over
//! partition-straddling links, capped at 1 ms. Boundary packets, tap
//! deliveries, latency samples and buffer windows are exchanged at each
//! barrier in canonical `(time, source-region, sequence)` order.
//! Partitions run on the [`sonet_util::par`] phased pool; because
//! the region keys, the windows and every merge order are fixed by the
//! topology and the event keys (never by thread scheduling), outputs are
//! **byte-identical at any `--threads` value**, including 1. DESIGN.md
//! §10 gives the protocol and the determinism argument.

mod fidelity;
mod part;
#[cfg(test)]
mod tests;

use crate::config::SimConfig;
use crate::conn::{Conn, ConnPhase, MsgMeta};
use crate::faults::{FaultKind, FaultPlan};
use crate::packet::{ConnId, Dir, FlowKey};
use crate::tap::PacketTap;
use fidelity::{FastKind, FastPath};
pub use fidelity::{FidelityConfig, FidelityMode};
use part::{Ev, EvKey, PartSampler, Partition, PartitionMap, Scheduled, SharedCtx, EXT_SRC};
use serde::{Deserialize, Serialize};
use sonet_topology::{HostId, LinkHealth, LinkId, Node, SwitchId, Topology};
use sonet_util::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Checkpoint format version written by this engine. Version 1 was the
/// serial engine's single-calendar snapshot; version 2 predates
/// gray-failure link state; version 3 keyed events by partition rather
/// than region; version 4 predates the hybrid fidelity engine's
/// flow-mode section. None is loadable here (restoring an old
/// checkpoint requires the release that wrote it).
const CHECKPOINT_VERSION: u32 = 5;

/// Hard cap on window length: a plant with no partition-straddling link
/// (a single datacenter) still barriers this often, bounding how stale
/// the coordinator's view can get (and how far a quiescing plant coasts).
const WINDOW_CAP: SimDuration = SimDuration::from_nanos(1_000_000);

/// Delay after which a cross-region abort notification reaches the peer
/// (a RST surfacing after the fabric round-trip). **Must be ≥
/// [`WINDOW_CAP`]**: an abort at `t` is buffered by a window that ends
/// no later than `t + lookahead <= t + WINDOW_CAP`, so the injected
/// `PeerGone` at `t + ABORT_NOTIFY_DELAY` can never land in the peer's
/// past.
const ABORT_NOTIFY_DELAY: SimDuration = WINDOW_CAP;

/// Errors surfaced by the simulator API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested time is in the simulated past.
    TimeInPast {
        /// The rejected timestamp.
        requested: SimTime,
        /// The current simulation clock.
        now: SimTime,
    },
    /// Unknown connection handle.
    NoSuchConn(ConnId),
    /// The connection is closed.
    ConnClosed(ConnId),
    /// Source and destination host are the same.
    SelfConnection(HostId),
    /// A message must carry at least one request byte.
    EmptyRequest,
    /// Bad configuration.
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TimeInPast { requested, now } => {
                write!(
                    f,
                    "requested time {requested} is before simulation clock {now}"
                )
            }
            SimError::NoSuchConn(c) => write!(f, "unknown connection {c}"),
            SimError::ConnClosed(c) => write!(f, "{c} is closed"),
            SimError::SelfConnection(h) => write!(f, "{h} cannot connect to itself"),
            SimError::EmptyRequest => write!(f, "messages must carry at least 1 request byte"),
            SimError::Config(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-link transmit/drop counters (the SNMP-style counters of §6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCounters {
    /// Bytes successfully serialized onto the link.
    pub tx_bytes: u64,
    /// Packets successfully serialized onto the link.
    pub tx_packets: u64,
    /// Bytes dropped at admission (egress drops).
    pub drop_bytes: u64,
    /// Packets dropped at admission.
    pub drop_packets: u64,
    /// Bytes lost to injected faults (dead link or dead switch endpoint).
    pub fault_drop_bytes: u64,
    /// Packets lost to injected faults.
    pub fault_drop_packets: u64,
}

/// Aggregated buffer occupancy for one switch over one aggregation window
/// (the per-second median/max series of Fig 15a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferWindowStat {
    /// Which switch.
    pub switch: SwitchId,
    /// Window start time.
    pub window_start: SimTime,
    /// Median sampled occupancy (bytes).
    pub median: u64,
    /// Maximum sampled occupancy (bytes).
    pub max: u64,
    /// Mean sampled occupancy (bytes).
    pub mean: f64,
    /// Number of samples in the window.
    pub samples: u32,
    /// Shared pool capacity (bytes), for normalization.
    pub capacity: u64,
}

/// Everything the engine hands back at the end of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutputs {
    /// Per-link counters, indexed by `LinkId`.
    pub link_counters: Vec<LinkCounters>,
    /// Per-interval transmitted bytes for utilization-tracked links.
    pub util_series: HashMap<LinkId, Vec<u64>>,
    /// Interval used for `util_series`.
    pub util_interval: Option<SimDuration>,
    /// Buffer occupancy windows, in time order, for sampled switches.
    pub buffer_stats: Vec<BufferWindowStat>,
    /// Total packets handed to the network (first-hop transmissions
    /// scheduled), the source side of the conservation law the auditor
    /// checks: emitted = delivered + dropped + fault-dropped + stale +
    /// in-flight.
    pub emitted_packets: u64,
    /// Total packets delivered to hosts.
    pub delivered_packets: u64,
    /// Total application messages whose request fully arrived at servers.
    pub completed_requests: u64,
    /// Messages rejected because their connection closed first.
    pub messages_on_closed: u64,
    /// In-flight packets discarded because their connection endpoint was
    /// gone or recycled when they arrived.
    pub stale_packets: u64,
    /// Fault events the engine applied.
    pub faults_applied: u64,
    /// Connection endpoints successfully re-hashed onto a healthy path
    /// after a fault broke their pinned route.
    pub reroutes: u64,
    /// Endpoints whose route broke with no healthy alternative (they keep
    /// the dead path and eventually abort).
    pub reroute_failures: u64,
    /// Handshakes abandoned after the SYN retry cap.
    pub failed_handshakes: u64,
    /// Established connections aborted by the consecutive-RTO cap while
    /// their route was broken.
    pub aborted_connections: u64,
    /// Packets silently eaten by gray links (also counted in the owning
    /// link's `fault_drop_*`, so conservation still balances).
    pub gray_dropped_packets: u64,
    /// End-to-end request latencies (request issue → response fully
    /// received, or → request fully received for one-way messages), when
    /// [`Simulator::record_latencies`] was enabled.
    pub rpc_latencies: Vec<SimDuration>,
    /// Flows the hybrid planner put on the analytic fast path at open
    /// time (always 0 in packet mode).
    pub flows_fast: u64,
    /// Flows assigned to the packet engine at open time (every flow, in
    /// packet mode).
    pub flows_packet: u64,
    /// Fast flows demoted to the packet engine mid-life — a fault window
    /// opened on their route, or a heavy-hitter-sized transfer appeared.
    pub fast_path_demotions: u64,
    /// Messages completed analytically (a subset of
    /// `completed_requests`).
    pub fast_completed_requests: u64,
    /// Application bytes offered to the fast path.
    pub fast_bytes_offered: u64,
    /// Application bytes the fast path completed.
    pub fast_bytes_completed: u64,
    /// Application bytes the fast path aborted under faults.
    pub fast_bytes_aborted: u64,
    /// Final simulation clock.
    pub ended_at: SimTime,
}

/// Snapshot of the engine's running totals, readable mid-run between run
/// calls via [`Simulator::live_counters`]. Window-to-window *deltas* of
/// these are what the chaos recovery SLOs are defined over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveCounters {
    /// Packets handed to the network so far.
    pub emitted_packets: u64,
    /// Packets delivered to hosts so far.
    pub delivered_packets: u64,
    /// Application messages fully arrived at servers so far.
    pub completed_requests: u64,
    /// Packets lost to injected faults so far (dead links/switches plus
    /// gray-link drops).
    pub fault_dropped_packets: u64,
    /// The gray-link subset of `fault_dropped_packets`.
    pub gray_dropped_packets: u64,
    /// Endpoints re-hashed onto a healthy path so far.
    pub reroutes: u64,
    /// Endpoints left on a dead path (no healthy alternative) so far.
    pub reroute_failures: u64,
    /// Handshakes abandoned after the SYN retry cap so far.
    pub failed_handshakes: u64,
    /// Established connections aborted by the RTO cap so far.
    pub aborted_connections: u64,
}

/// Barrier/throughput counters for the partitioned execution, for bench
/// reporting. The event counts are deterministic; the `*_ns` fields are
/// wall-clock measurements of the worker pool (they vary run to run and
/// never feed back into simulation state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelStats {
    /// Lookahead windows executed (barriers crossed).
    pub barriers: u64,
    /// Events handled across all partitions and windows.
    pub events: u64,
    /// Sum over windows of the busiest partition's event count — the
    /// critical path a perfectly scheduled run cannot beat.
    pub bottleneck_events: u64,
    /// Always 0. Workers claim partitions from one shared cursor, so no
    /// partition has a seeded owner to be stolen from; the field stays
    /// for readers that still report it (`perfbench`).
    pub steals: u64,
    /// Total worker time spent draining partitions (wall clock).
    pub busy_ns: u64,
    /// Total worker time spent idle at barriers waiting for the slowest
    /// worker (wall clock): `wall_ns * width - busy_ns`.
    pub idle_ns: u64,
    /// Total in-phase wall time across windows (one lane).
    pub wall_ns: u64,
}

/// One allocated connection slot: current generation plus the partitions
/// holding its two endpoints.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    cpart: u32,
    spart: u32,
}

/// Coordinator-owned state: everything touched only between windows.
struct Coord<T: PacketTap> {
    tap: T,
    now: SimTime,
    /// Sequence counter for coordinator-scheduled ([`EXT_SRC`]) events.
    ext_seq: u64,
    slots: Vec<Slot>,
    free_conns: Vec<u32>,
    next_port: Vec<u16>,
    latencies: Vec<SimDuration>,
    buffer_stats: Vec<BufferWindowStat>,
    audit_barriers: bool,
    pstats: ParallelStats,
    /// The hybrid engine's flow-level fast path (inert in packet mode).
    fast: FastPath,
}

/// The packet-level simulator. See the crate docs for the model.
pub struct Simulator<T: PacketTap> {
    shared: SharedCtx,
    coord: Coord<T>,
    parts: Vec<Partition>,
    /// Worker-thread override (`None` = the process-wide `--threads`
    /// setting, resolved at each run call).
    width_override: Option<usize>,
}

enum StopMode {
    Until(SimTime),
    Quiescence,
}

impl<T: PacketTap> Simulator<T> {
    /// Creates a simulator over `topo` with the given transport/buffer
    /// configuration, delivering watched-link packets to `tap`.
    pub fn new(topo: Arc<Topology>, cfg: SimConfig, tap: T) -> Result<Simulator<T>, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        let n_links = topo.links().len();
        let n_hosts = topo.hosts().len();

        let mut link_from_switch = Vec::with_capacity(n_links);
        let mut link_gbps = Vec::with_capacity(n_links);
        let mut link_prop = Vec::with_capacity(n_links);
        for link in topo.links() {
            link_from_switch.push(match link.from {
                Node::Switch(s) => Some(s.0),
                Node::Host(_) => None,
            });
            link_gbps.push(link.gbps);
            link_prop.push(link.propagation_ns);
        }
        let mut switch_cap = Vec::new();
        let mut switch_alpha = Vec::new();
        for sw in topo.switches() {
            let b = cfg.buffer_for(sw.kind);
            switch_cap.push(b.shared_bytes);
            switch_alpha.push(b.alpha);
        }

        let pmap = PartitionMap::new(&topo);
        let shared = SharedCtx {
            topo,
            cfg,
            pmap,
            link_gbps,
            link_prop,
            link_from_switch,
            switch_cap,
            switch_alpha,
            watched: vec![false; n_links],
            util_tracked: vec![false; n_links],
            util_interval: None,
            record_latencies: false,
        };
        let parts = (0..shared.pmap.n_parts)
            .map(|i| Partition::new(i, &shared))
            .collect();
        let n_switches = shared.switch_cap.len();
        Ok(Simulator {
            shared,
            coord: Coord {
                tap,
                now: SimTime::ZERO,
                ext_seq: 0,
                slots: Vec::new(),
                free_conns: Vec::new(),
                next_port: vec![32768; n_hosts],
                latencies: Vec::new(),
                buffer_stats: Vec::new(),
                audit_barriers: false,
                pstats: ParallelStats::default(),
                fast: FastPath::new(n_links, n_switches),
            },
            parts,
            width_override: None,
        })
    }

    /// Selects the fidelity mode for flows opened from now on (the
    /// default is [`FidelityMode::Packet`], which leaves the engine
    /// byte-identical to its pre-hybrid behaviour). Call before opening
    /// connections: already-open flows keep the mode they were planned
    /// with.
    pub fn set_fidelity(&mut self, cfg: FidelityConfig) -> Result<(), SimError> {
        if cfg.heavy_flow_bytes == 0 {
            return Err(SimError::Config(
                "heavy-flow threshold must be positive".into(),
            ));
        }
        self.coord.fast.cfg = cfg;
        Ok(())
    }

    /// The fidelity configuration in effect.
    pub fn fidelity(&self) -> FidelityConfig {
        self.coord.fast.cfg
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.coord.now
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// Transport configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.shared.cfg
    }

    /// Starts delivering packets on `link` to the tap.
    pub fn watch_link(&mut self, link: LinkId) {
        self.shared.watched[link.index()] = true;
    }

    /// Mutable access to the tap (e.g. to degrade a telemetry collector
    /// mid-run when a fault plan says so).
    pub fn tap_mut(&mut self) -> &mut T {
        &mut self.coord.tap
    }

    /// Shared access to the tap (e.g. to checkpoint its state).
    pub fn tap(&self) -> &T {
        &self.coord.tap
    }

    /// Events handled so far (packet events plus fast-path flow events);
    /// run supervisors use this for event-count budgets.
    pub fn processed_events(&self) -> u64 {
        self.parts.iter().map(|p| p.processed_events).sum::<u64>() + self.coord.fast.counters.events
    }

    /// Events still on the calendar (including housekeeping samples and
    /// scheduled fast-path flow events).
    pub fn pending_events(&self) -> usize {
        self.parts.iter().map(|p| p.events.len()).sum::<usize>() + self.coord.fast.pending()
    }

    /// Current link/switch health under the faults applied so far. (Every
    /// partition holds an identical replica; partition 0's is returned.)
    pub fn health(&self) -> &LinkHealth {
        &self.parts[0].health
    }

    /// Number of plant partitions: one per datacenter (the backbone
    /// rides with partition 0).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Barrier/utilization counters accumulated so far.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.coord.pstats
    }

    /// Overrides the worker width for this simulator (`None` reverts to
    /// the process-wide `--threads` setting). Output is byte-identical at
    /// every width; this only chooses how many OS threads carry the
    /// partitions.
    pub fn set_parallel_width(&mut self, width: Option<usize>) {
        self.width_override = width;
    }

    /// Runs every partition's invariant audit after each window when
    /// enabled, panicking on the first violation (used by the
    /// equivalence/property suites to check mid-run states the public
    /// API cannot observe).
    pub fn audit_every_barrier(&mut self, on: bool) {
        self.coord.audit_barriers = on;
    }

    /// Schedules one network fault. Telemetry faults are rejected — they
    /// belong to the capture layer, not the engine.
    pub fn inject_fault(&mut self, at: SimTime, kind: FaultKind) -> Result<(), SimError> {
        if at < self.coord.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.coord.now,
            });
        }
        if kind.is_telemetry() {
            return Err(SimError::Config(
                "telemetry faults are applied by the capture layer, not the engine".into(),
            ));
        }
        let n_links = self.shared.topo.links().len();
        let n_switches = self.shared.topo.switches().len();
        match kind {
            FaultKind::LinkDown(l) | FaultKind::LinkUp(l) if l.index() >= n_links => {
                return Err(SimError::Config(format!("{l} is out of range")));
            }
            FaultKind::SwitchDown(s) | FaultKind::SwitchUp(s) if s.index() >= n_switches => {
                return Err(SimError::Config(format!("{s} is out of range")));
            }
            FaultKind::DegradeLink { link, rate_factor } => {
                if link.index() >= n_links {
                    return Err(SimError::Config(format!("{link} is out of range")));
                }
                if !(rate_factor > 0.0 && rate_factor <= 1.0) {
                    return Err(SimError::Config(format!(
                        "rate factor {rate_factor} outside (0, 1]"
                    )));
                }
            }
            FaultKind::GrayLink {
                link,
                drop_fraction,
            } => {
                if link.index() >= n_links {
                    return Err(SimError::Config(format!("{link} is out of range")));
                }
                if !(0.0..=1.0).contains(&drop_fraction) {
                    return Err(SimError::Config(format!(
                        "gray drop fraction {drop_fraction} outside [0, 1]"
                    )));
                }
            }
            FaultKind::FlapLink {
                link,
                half_period,
                cycles,
            } => {
                if link.index() >= n_links {
                    return Err(SimError::Config(format!("{link} is out of range")));
                }
                if half_period.as_nanos() == 0 {
                    return Err(SimError::Config("flap half-period must be positive".into()));
                }
                if cycles == 0 || cycles > crate::faults::MAX_FLAP_CYCLES {
                    return Err(SimError::Config(format!(
                        "flap cycles {cycles} outside 1..={}",
                        crate::faults::MAX_FLAP_CYCLES
                    )));
                }
                // Expand the flap into primitive down/up events so every
                // replica (and every checkpoint) sees only the kinds the
                // fault handler applies directly.
                for c in 0..cycles as u64 {
                    let down_at = at + half_period * (2 * c);
                    let up_at = at + half_period * (2 * c + 1);
                    self.inject_fault(down_at, FaultKind::LinkDown(link))?;
                    self.inject_fault(up_at, FaultKind::LinkUp(link))?;
                }
                return Ok(());
            }
            _ => {}
        }
        // The fast path replays the same schedule: the touched link or
        // switch becomes island territory for future opens, and any live
        // fast flow whose pinned route the fault degrades is handed to
        // the packet engine at the fault instant.
        self.coord.fast.note_fault(at, kind);
        if self.coord.fast.hybrid() {
            for idx in self
                .coord
                .fast
                .slots_hit_by(&kind, &self.shared.link_from_switch)
            {
                let conn = ConnId {
                    idx,
                    gen: self.coord.slots[idx as usize].gen,
                };
                self.coord.fast.push(at, FastKind::Demote { conn });
            }
        }
        // Replicate to every partition: each applies the fault to its own
        // health/rate replica at the same virtual time, so replicas agree
        // at every barrier without any cross-partition reads. All
        // replicas share ONE sequence number — they are the same
        // canonical event, so the checkpoint calendar (which dedups the
        // replicas) is independent of the partition count.
        let seq = self.coord.ext_seq;
        self.coord.ext_seq += 1;
        for p in &mut self.parts {
            p.push_ext(at, seq, Ev::Fault { kind });
        }
        Ok(())
    }

    /// Schedules every *network* event of `plan` (telemetry events are
    /// skipped; the capture layer replays those against its taps). Events
    /// in the simulated past are rejected, leaving earlier ones scheduled.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        for ev in plan.network_events() {
            self.inject_fault(ev.at, ev.kind)?;
        }
        Ok(())
    }

    /// Live view of a link's counters (SNMP-style mid-run poll; the full
    /// vector is also returned by [`Simulator::finish`]).
    pub fn link_counters(&self, link: LinkId) -> LinkCounters {
        let owner = self.shared.pmap.part_of_link[link.index()] as usize;
        self.parts[owner].link_counters[link.index()]
    }

    /// Live engine totals, observable between run calls (at a barrier, the
    /// only time the public API can see the engine). Deterministic at any
    /// worker width; the chaos SLO evaluator polls these per window to
    /// measure blackhole durations and recovery.
    pub fn live_counters(&self) -> LiveCounters {
        let sum = |f: fn(&part::Counters) -> u64| -> u64 {
            self.parts.iter().map(|p| f(&p.counters)).sum()
        };
        // Per-link state is only ever touched by its owner; every other
        // partition's entry stays zero, so summing all replicas is exact.
        let mut fault_dropped_packets = 0;
        for p in &self.parts {
            fault_dropped_packets += p
                .link_counters
                .iter()
                .map(|c| c.fault_drop_packets)
                .sum::<u64>();
        }
        LiveCounters {
            emitted_packets: sum(|c| c.emitted_packets),
            delivered_packets: sum(|c| c.delivered_packets),
            // Fast-path completions ride the same totals the chaos SLOs
            // are defined over: a hybrid run's recovery behaviour is
            // measured on all of its traffic, not just the islands.
            completed_requests: sum(|c| c.completed_requests) + self.coord.fast.counters.completed,
            fault_dropped_packets,
            gray_dropped_packets: sum(|c| c.gray_dropped_packets),
            reroutes: sum(|c| c.reroutes),
            reroute_failures: sum(|c| c.reroute_failures),
            failed_handshakes: sum(|c| c.failed_handshakes),
            aborted_connections: sum(|c| c.aborted_connections)
                + self.coord.fast.counters.aborted_flows,
        }
    }

    /// Enables end-to-end RPC latency recording (one sample per completed
    /// message; disabled by default to keep long runs lean).
    pub fn record_latencies(&mut self, on: bool) {
        self.shared.record_latencies = on;
    }

    /// Records per-`interval` transmitted bytes for each given link
    /// (powers utilization time series such as Fig 15b).
    pub fn track_utilization(
        &mut self,
        interval: SimDuration,
        links: &[LinkId],
    ) -> Result<(), SimError> {
        if interval.is_zero() {
            return Err(SimError::Config(
                "utilization interval must be positive".into(),
            ));
        }
        if let Some(&l) = links
            .iter()
            .find(|l| l.index() >= self.shared.topo.links().len())
        {
            return Err(SimError::Config(format!("{l} is out of range")));
        }
        self.shared.util_interval = Some(interval);
        for &l in links {
            self.shared.util_tracked[l.index()] = true;
        }
        Ok(())
    }

    /// Samples the shared-buffer occupancy of `switches` every `interval`,
    /// aggregating (median/max/mean) per `window` — the Fig 15a pipeline:
    /// 10-µs samples aggregated per second.
    pub fn sample_buffers(
        &mut self,
        interval: SimDuration,
        window: SimDuration,
        switches: Vec<SwitchId>,
    ) -> Result<(), SimError> {
        if interval.is_zero() || window.is_zero() {
            return Err(SimError::Config("sampler periods must be positive".into()));
        }
        if let Some(&s) = switches
            .iter()
            .find(|s| s.index() >= self.shared.topo.switches().len())
        {
            return Err(SimError::Config(format!("{s} is out of range")));
        }
        // Buffer-sampled switches are fidelity islands: flows opened from
        // now on that cross them stay on the packet path, so occupancy
        // series keep seeing real packet streams.
        for &sw in &switches {
            self.coord.fast.sampled_switches[sw.index()] = true;
        }
        // Split the switch list by *region*, remembering each switch's
        // index in the caller's list — the canonical order the barrier
        // merge (and the checkpoint) reassembles. Sharding by region,
        // with each shard's sample chain keyed by its region, makes the
        // event stream independent of how regions group into partitions.
        let now = self.coord.now;
        for region in 0..self.shared.pmap.n_regions {
            let mut owned = Vec::new();
            let mut orig = Vec::new();
            let mut caps = Vec::new();
            for (i, &sw) in switches.iter().enumerate() {
                if self.shared.pmap.region_of_switch[sw.index()] == region {
                    owned.push(sw);
                    orig.push(i as u32);
                    caps.push(self.shared.switch_cap[sw.index()]);
                }
            }
            if owned.is_empty() {
                continue;
            }
            let n = owned.len();
            let p = &mut self.parts[self.shared.pmap.part_of_region[region as usize] as usize];
            // Re-registering replaces the region's shard (the old chain's
            // events die against the fresh shard state).
            p.buf_samplers.retain(|s| s.region != region);
            p.buf_samplers.push(PartSampler {
                region,
                interval,
                window,
                switches: owned,
                orig,
                caps,
                window_start: now,
                samples: vec![Vec::new(); n],
            });
            p.buf_samplers.sort_by_key(|s| s.region);
            p.push_region(&self.shared, region, now, Ev::BufSample { region });
        }
        Ok(())
    }

    /// Opens a TCP-like connection from `client` to `server:server_port`
    /// at absolute time `at` (SYN emission time). Routes are pinned by the
    /// flow's ECMP hash, as hardware hashing pins real flows.
    pub fn open_connection(
        &mut self,
        at: SimTime,
        client: HostId,
        server: HostId,
        server_port: u16,
    ) -> Result<ConnId, SimError> {
        if at < self.coord.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.coord.now,
            });
        }
        if client == server {
            return Err(SimError::SelfConnection(client));
        }
        let port = self.coord.next_port[client.index()];
        self.coord.next_port[client.index()] = port.checked_add(1).unwrap_or(32768);
        let key = FlowKey {
            client,
            server,
            client_port: port,
            server_port,
        };
        let hash = key.ecmp_hash();
        let id = match self.coord.free_conns.pop() {
            Some(idx) => {
                // Reusing a quarantined slot evicts the previous
                // incarnation's endpoint halves from whichever partitions
                // hold them. Stragglers addressed to the old generation
                // then count as stale instead of being processed by a
                // zombie endpoint — and, just as important, the live
                // tables match exactly what a checkpoint captures, so a
                // restored run evolves identically to an uninterrupted
                // one.
                let old = self.coord.slots[idx as usize];
                self.parts[old.cpart as usize].clients[idx as usize] = None;
                self.parts[old.spart as usize].servers[idx as usize] = None;
                ConnId {
                    idx,
                    gen: old.gen + 1,
                }
            }
            None => ConnId {
                idx: self.coord.slots.len() as u32,
                gen: 0,
            },
        };
        let cpart = self.shared.pmap.part_of_host[client.index()];
        let spart = self.shared.pmap.part_of_host[server.index()];
        let slot = Slot {
            gen: id.gen,
            cpart,
            spart,
        };
        if (id.idx as usize) < self.coord.slots.len() {
            self.coord.slots[id.idx as usize] = slot;
        } else {
            self.coord.slots.push(slot);
        }
        // Route around current faults where possible; when no healthy
        // path exists, pin the nominal route anyway — the SYN dies on the
        // dead hop and the handshake gives up after its retry budget,
        // which is how a real connect() to an unreachable server behaves.
        // (The server endpoint pins its reverse route when the SYN
        // arrives; see `Partition::accept_syn`.)
        let route_fwd = self
            .shared
            .topo
            .route_healthy(client, server, hash, &self.parts[0].health)
            .or_else(|_| self.shared.topo.route(client, server, hash))
            .expect("distinct endpoints were checked above");
        // The fidelity planner: in hybrid mode a flow whose two routes
        // avoid every island (watched/tracked links, sampled switches,
        // fault-plan territory) is advanced analytically; everything
        // else — and everything, in packet mode — goes through the DES.
        self.coord.fast.reset_slot(id.idx as usize);
        let mut fast = false;
        if self.coord.fast.hybrid() {
            let route_rev = self
                .shared
                .topo
                .route_healthy(server, client, hash, &self.parts[0].health)
                .or_else(|_| self.shared.topo.route(server, client, hash))
                .expect("distinct endpoints were checked above");
            let island = |route: &[LinkId]| {
                self.coord.fast.route_in_island(
                    route,
                    &self.shared.watched,
                    &self.shared.util_tracked,
                    &self.shared.link_from_switch,
                )
            };
            if !island(&route_fwd) && !island(&route_rev) {
                fast = true;
                self.coord
                    .fast
                    .adopt(id.idx as usize, route_fwd.clone(), route_rev);
            }
        }
        if fast {
            self.coord.fast.counters.flows_fast += 1;
        } else {
            self.coord.fast.counters.flows_packet += 1;
        }
        let conn = Conn {
            id,
            key,
            phase: ConnPhase::Opening,
            route_fwd,
            route_rev: Vec::new(),
            c2s: crate::conn::DirState::default(),
            s2c: crate::conn::DirState::default(),
            msg_meta: Vec::new(),
            resp_req_issued: Vec::new(),
            pre_open: Vec::new(),
            next_server_msg: 0,
            syn_attempts: 0,
            opened_at: at,
        };
        let n_slots = self.coord.slots.len();
        for p in &mut self.parts {
            if p.clients.len() < n_slots {
                p.clients.resize(n_slots, None);
                p.servers.resize(n_slots, None);
            }
        }
        self.parts[cpart as usize].clients[id.idx as usize] = Some(conn);
        // A fast flow's endpoint record still lives in the partition
        // tables (checkpoints and slot reuse work unchanged), but no
        // packet handshake is scheduled: the analytic model charges the
        // SYN round trip on the flow's first send, and a later demotion
        // simply schedules the `OpenConn` this branch skipped.
        if !fast {
            let seq = self.coord.ext_seq;
            self.coord.ext_seq += 1;
            self.parts[cpart as usize].push_ext(at, seq, Ev::OpenConn { conn: id });
        }
        Ok(id)
    }

    /// Queues a request/response exchange on `conn` at absolute time `at`:
    /// the client sends `request_bytes`; once the full request reaches the
    /// server it works for `service_time` and then sends `response_bytes`
    /// back (zero for one-way transfers).
    pub fn send_message(
        &mut self,
        conn: ConnId,
        at: SimTime,
        request_bytes: u64,
        response_bytes: u64,
        service_time: SimDuration,
    ) -> Result<(), SimError> {
        if at < self.coord.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.coord.now,
            });
        }
        if request_bytes == 0 {
            return Err(SimError::EmptyRequest);
        }
        let slot = self
            .coord
            .slots
            .get(conn.index())
            .filter(|s| s.gen == conn.gen)
            .ok_or(SimError::NoSuchConn(conn))?;
        let cpart = slot.cpart as usize;
        let phase = self.parts[cpart].clients[conn.index()]
            .as_ref()
            .expect("registered slot has a client endpoint")
            .phase;
        if phase == ConnPhase::Closed {
            return Err(SimError::ConnClosed(conn));
        }
        if self.coord.fast.is_fast(conn.index()) {
            return self.send_fast(conn, at, request_bytes, response_bytes, service_time);
        }
        let seq = self.coord.ext_seq;
        self.coord.ext_seq += 1;
        self.parts[cpart].push_ext(
            at,
            seq,
            Ev::SendMsg {
                conn,
                req: request_bytes,
                meta: MsgMeta {
                    response_bytes,
                    service_time,
                    issued_at: at,
                },
            },
        );
        Ok(())
    }

    /// Advances one request/response exchange analytically on a fast
    /// flow. Heavy-hitter-sized transfers demote the flow to the packet
    /// engine instead; fault state on the pinned routes turns into RTO
    /// delays or aborts derived from the same schedule the packet
    /// replicas apply.
    fn send_fast(
        &mut self,
        conn: ConnId,
        at: SimTime,
        request_bytes: u64,
        response_bytes: u64,
        service_time: SimDuration,
    ) -> Result<(), SimError> {
        let idx = conn.index();
        // Heavy-hitter island: hand the flow over and let the packet
        // path carry this message (and all later ones).
        if request_bytes + response_bytes >= self.coord.fast.cfg.heavy_flow_bytes {
            self.coord.demote_to_packet(&mut self.parts, conn, at);
            let cpart = self.coord.slots[idx].cpart as usize;
            let seq = self.coord.ext_seq;
            self.coord.ext_seq += 1;
            self.parts[cpart].push_ext(
                at,
                seq,
                Ev::SendMsg {
                    conn,
                    req: request_bytes,
                    meta: MsgMeta {
                        response_bytes,
                        service_time,
                        issued_at: at,
                    },
                },
            );
            return Ok(());
        }
        // Defer the analytic evaluation to the send instant: the fast
        // calendar drains in `(at, seq)` order, so the virtual link
        // queues are charged causally even though callers (the workload
        // generator above all) issue whole windows of future-stamped
        // messages in arbitrary order.
        self.coord.fast.push(
            at,
            FastKind::Send {
                conn,
                req: request_bytes,
                resp: response_bytes,
                service: service_time,
            },
        );
        Ok(())
    }

    /// Closes `conn` at absolute time `at` (FIN emission).
    pub fn close_connection(&mut self, conn: ConnId, at: SimTime) -> Result<(), SimError> {
        if at < self.coord.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.coord.now,
            });
        }
        let slot = self
            .coord
            .slots
            .get(conn.index())
            .filter(|s| s.gen == conn.gen)
            .ok_or(SimError::NoSuchConn(conn))?;
        let cpart = slot.cpart as usize;
        if self.coord.fast.is_fast(conn.index()) {
            // Fast flows close on the fast calendar; if the flow demotes
            // before the FIN instant, the event handler forwards a packet
            // close instead.
            self.coord.fast.push(at, FastKind::Close { conn });
            return Ok(());
        }
        let seq = self.coord.ext_seq;
        self.coord.ext_seq += 1;
        self.parts[cpart].push_ext(at, seq, Ev::Close { conn });
        Ok(())
    }
}

/// The hybrid fast path's event handlers. They run on the coordinator
/// — from the barrier planner, between windows — so they touch only
/// the shared plant context, the coordinator and the partitions.
impl<T: PacketTap> Coord<T> {
    /// Evaluates one deferred fast send at its issue instant
    /// `meta.issued_at`: fault state turns into RTO delays or aborts,
    /// everything else becomes analytic transfers on the virtual queues.
    /// Runs from the fast calendar, so evaluation order is global time
    /// order.
    fn fast_send_eval(
        &mut self,
        shared: &SharedCtx,
        parts: &mut [Partition],
        conn: ConnId,
        request_bytes: u64,
        meta: MsgMeta,
    ) {
        let MsgMeta {
            response_bytes,
            service_time,
            issued_at: at,
        } = meta;
        let idx = conn.index();
        if !self.slot_live(conn) {
            self.fast.counters.on_closed += 1;
            return;
        }
        if !self.fast.is_fast(idx) {
            // The flow demoted between issue and send instant: the packet
            // engine carries this message.
            let cpart = self.slots[idx].cpart as usize;
            let seq = self.ext_seq;
            self.ext_seq += 1;
            parts[cpart].push_ext(
                at,
                seq,
                Ev::SendMsg {
                    conn,
                    req: request_bytes,
                    meta,
                },
            );
            return;
        }
        let cpart = self.slots[idx].cpart as usize;
        let closed = parts[cpart].clients[idx]
            .as_ref()
            .map(|c| c.phase == ConnPhase::Closed)
            .unwrap_or(true);
        if closed {
            // The flow aborted before the send instant.
            self.fast.counters.on_closed += 1;
            return;
        }
        let cfg = &shared.cfg;
        let fast = &mut self.fast;
        fast.counters.bytes_offered += request_bytes + response_bytes;
        let (fwd, rev) = fast.routes(idx).clone();
        let rf_fwd = fast.route_fault_at(&fwd, at, &shared.link_from_switch);
        let rf_rev = fast.route_fault_at(&rev, at, &shared.link_from_switch);
        if rf_fwd.down || rf_rev.down {
            // A dead hop on the pinned route: the transport burns its
            // consecutive-RTO budget and aborts, as the packet engine's
            // RTO cap would.
            let abort_at = at + cfg.rto * cfg.max_consecutive_rtos as u64;
            fast.push(
                abort_at,
                FastKind::Abort {
                    conn,
                    bytes: request_bytes + response_bytes,
                },
            );
            return;
        }
        let mut t0 = at;
        if fast.establish(idx) {
            t0 += fast.handshake(
                &fwd,
                &rev,
                cfg.control_bytes,
                &shared.link_gbps,
                &shared.link_prop,
            );
        }
        // Gray loss: deterministic drop trials on the worst gray hop add
        // one RTO each; a full budget of consecutive drops aborts. The
        // same splitmix hash as the packet path, keyed by (flow, message,
        // trial) instead of the per-link packet ordinal.
        let msg = fast.next_msg(idx);
        if let Some((l, f)) = rf_fwd.gray.or(rf_rev.gray) {
            let mut gray_delay = SimDuration::ZERO;
            let mut trials = 0u32;
            while trials < cfg.max_consecutive_rtos
                && part::gray_drop(
                    l.index() as u64,
                    ((conn.idx as u64) << 32) | (msg << 8) | trials as u64,
                    f,
                )
            {
                gray_delay += cfg.rto;
                trials += 1;
            }
            if trials >= cfg.max_consecutive_rtos {
                fast.push(
                    at + gray_delay,
                    FastKind::Abort {
                        conn,
                        bytes: request_bytes + response_bytes,
                    },
                );
                return;
            }
            t0 += gray_delay;
        }
        let req_done = fast.transfer(
            &fwd,
            request_bytes,
            t0,
            cfg.mss,
            cfg.header_bytes,
            cfg.window_segments,
            &shared.link_gbps,
            &shared.link_prop,
        );
        if response_bytes == 0 {
            let latency = shared.record_latencies.then(|| req_done - at);
            fast.push(
                req_done,
                FastKind::ReqDone {
                    conn,
                    req: request_bytes,
                    latency,
                },
            );
        } else {
            fast.push(
                req_done,
                FastKind::ReqDone {
                    conn,
                    req: request_bytes,
                    latency: None,
                },
            );
            // The response transfer starts after the server's think time;
            // defer its virtual-queue charge to that instant so it too is
            // evaluated in global time order.
            fast.push(
                req_done + service_time,
                FastKind::RespStart {
                    conn,
                    resp: response_bytes,
                    issued_at: at,
                },
            );
        }
    }

    /// Evaluates a deferred response transfer at its start instant.
    fn fast_resp_eval(
        &mut self,
        shared: &SharedCtx,
        conn: ConnId,
        start: SimTime,
        resp: u64,
        issued_at: SimTime,
    ) {
        let cfg = &shared.cfg;
        let fast = &mut self.fast;
        let rev = fast.routes(conn.index()).1.clone();
        let resp_done = fast.transfer(
            &rev,
            resp,
            start,
            cfg.mss,
            cfg.header_bytes,
            cfg.window_segments,
            &shared.link_gbps,
            &shared.link_prop,
        );
        fast.push(
            resp_done,
            FastKind::RespDone {
                conn,
                resp,
                latency: resp_done - issued_at,
            },
        );
    }

    /// Hands a fast flow to the packet engine: the `OpenConn` skipped at
    /// open time is scheduled now, so the packet handshake (with pre-open
    /// queueing for subsequent sends) takes over. In-flight analytic
    /// transfers still complete on the fast calendar.
    fn demote_to_packet(&mut self, parts: &mut [Partition], conn: ConnId, at: SimTime) {
        let idx = conn.index();
        if !self.fast.is_fast(idx) {
            return;
        }
        self.fast.drop_fast(idx);
        self.fast.counters.demotions += 1;
        let cpart = self.slots[idx].cpart as usize;
        let closed = parts[cpart].clients[idx]
            .as_ref()
            .map(|c| c.phase == ConnPhase::Closed)
            .unwrap_or(true);
        if closed {
            return;
        }
        let seq = self.ext_seq;
        self.ext_seq += 1;
        parts[cpart].push_ext(at, seq, Ev::OpenConn { conn });
    }

    /// True when `conn` still names the slot's current incarnation.
    fn slot_live(&self, conn: ConnId) -> bool {
        self.slots
            .get(conn.index())
            .is_some_and(|s| s.gen == conn.gen)
    }

    /// Applies every fast-path event due at or before `t`, in canonical
    /// `(at, seq)` order. Runs on the coordinator between windows — the
    /// packet clock has already reached `t` — so completions, latency
    /// samples and retirements land in global time order and are
    /// byte-identical at any worker width.
    fn apply_fast_due(&mut self, shared: &SharedCtx, parts: &mut [Partition], t: SimTime) {
        // One event at a time: handling a `Send` or `RespStart` schedules
        // follow-up events that may themselves already be due, and they
        // must drain in canonical `(at, seq)` order with everything else.
        while let Some(ev) = self.fast.pop_next_due(t) {
            self.fast.counters.events += 1;
            match ev.kind {
                FastKind::Send {
                    conn,
                    req,
                    resp,
                    service,
                } => {
                    let meta = MsgMeta {
                        response_bytes: resp,
                        service_time: service,
                        issued_at: ev.at,
                    };
                    self.fast_send_eval(shared, parts, conn, req, meta);
                }
                FastKind::RespStart {
                    conn,
                    resp,
                    issued_at,
                } => {
                    self.fast_resp_eval(shared, conn, ev.at, resp, issued_at);
                }
                FastKind::ReqDone { conn, req, latency } => {
                    // Conservation credits survive slot turnover: the
                    // bytes finished transferring whether or not the flow
                    // is still the slot's current incarnation.
                    let _ = conn;
                    self.fast.counters.completed += 1;
                    self.fast.counters.bytes_completed += req;
                    if let Some(d) = latency {
                        self.latencies.push(d);
                    }
                }
                FastKind::RespDone {
                    conn,
                    resp,
                    latency,
                } => {
                    let _ = conn;
                    self.fast.counters.bytes_completed += resp;
                    if shared.record_latencies {
                        self.latencies.push(latency);
                    }
                }
                FastKind::Demote { conn } => {
                    if self.slot_live(conn) {
                        self.demote_to_packet(parts, conn, ev.at);
                    }
                }
                FastKind::Abort { conn, bytes } => {
                    self.fast.counters.aborted_messages += 1;
                    self.fast.counters.bytes_aborted += bytes;
                    if self.slot_live(conn) && self.fast.is_fast(conn.index()) {
                        let cpart = self.slots[conn.index()].cpart as usize;
                        if let Some(c) = parts[cpart].clients[conn.index()].as_mut() {
                            if c.phase != ConnPhase::Closed {
                                c.phase = ConnPhase::Closed;
                                self.fast.counters.aborted_flows += 1;
                                self.fast.push(
                                    ev.at + shared.cfg.conn_quarantine,
                                    FastKind::Retire { idx: conn.idx },
                                );
                            }
                        }
                    }
                }
                FastKind::Close { conn } => {
                    if !self.slot_live(conn) {
                        continue;
                    }
                    if self.fast.is_fast(conn.index()) {
                        let cpart = self.slots[conn.index()].cpart as usize;
                        if let Some(c) = parts[cpart].clients[conn.index()].as_mut() {
                            if c.phase != ConnPhase::Closed {
                                c.phase = ConnPhase::Closed;
                                self.fast.push(
                                    ev.at + shared.cfg.conn_quarantine,
                                    FastKind::Retire { idx: conn.idx },
                                );
                            }
                        }
                    } else {
                        // The flow demoted between FIN issue and FIN
                        // instant: close it the packet way.
                        let cpart = self.slots[conn.index()].cpart as usize;
                        let seq = self.ext_seq;
                        self.ext_seq += 1;
                        parts[cpart].push_ext(ev.at, seq, Ev::Close { conn });
                    }
                }
                FastKind::Retire { idx } => {
                    self.free_conns.push(idx);
                }
            }
        }
    }
}

impl<T: PacketTap> Simulator<T> {
    /// Publishes the fast path's RUNINFO gauges (write-only side channel;
    /// no-op with observability off).
    fn flush_fast_gauges(&self) {
        use sonet_util::obs;
        if !obs::on() {
            return;
        }
        let c = &self.coord.fast.counters;
        obs::gauge_set!("engine.flows_fast", c.flows_fast);
        obs::gauge_set!("engine.flows_packet", c.flows_packet);
        obs::gauge_set!("engine.fast_path_demotions", c.demotions);
        obs::gauge_set!("engine.fast_completed_requests", c.completed);
    }

    /// Runs the event loop until the clock reaches `until` (all events at
    /// or before `until` are processed; the clock then rests at `until`).
    pub fn run_until(&mut self, until: SimTime) {
        self.run_windows(StopMode::Until(until));
        self.flush_fast_gauges();
    }

    /// Drains every remaining event other than the periodic buffer
    /// sampler, which reschedules itself forever and would otherwise keep
    /// the calendar non-empty (use after the last injection when a
    /// natural quiesce is wanted rather than a fixed horizon).
    pub fn run_to_quiescence(&mut self) {
        self.run_windows(StopMode::Quiescence);
        self.flush_fast_gauges();
    }

    /// Runs lockstep windows on one pool run until `mode` says stop. The
    /// barrier planner also interleaves the hybrid fast calendar, at
    /// fixed, state-independent points: once no packet event at or
    /// before the next fast instant `tf` is pending, the packet clock
    /// rests at `tf` and every fast event due there applies on the
    /// coordinator; until then, windows end one nanosecond past `tf`.
    /// The fast path is coordinator-serial, so hybrid runs stay
    /// byte-identical at any worker width.
    fn run_windows(&mut self, mode: StopMode) {
        let width = self
            .width_override
            .unwrap_or_else(|| sonet_util::par::resolve_threads(None))
            .clamp(1, self.parts.len());
        let shared = &self.shared;
        let coord = &mut self.coord;
        // Flight-recorder handles, resolved once per run. Everything the
        // closure records is write-only side-channel state (DESIGN.md
        // §11): nothing below feeds back into event processing, so the
        // calendar stays byte-identical with observability off or on.
        let part_ev_counters: Option<Vec<_>> = sonet_util::obs::on().then(|| {
            (0..self.parts.len())
                .map(|i| {
                    sonet_util::obs::metrics::global().counter(&format!("engine.part{i}.events"))
                })
                .collect()
        });
        let part_idle_counters: Option<Vec<_>> = sonet_util::obs::deep().then(|| {
            (0..self.parts.len())
                .map(|i| {
                    sonet_util::obs::metrics::global().counter(&format!("engine.part{i}.idle_ns"))
                })
                .collect()
        });
        // Scalar counters ride the same 64-window flush cadence as the
        // per-partition batch: boundary events accumulate here, and the
        // barrier and pool counters are published as the delta of
        // `coord.pstats` since `flushed`. The zero-delta flush below
        // registers them up front, so a serial run still reports
        // `engine.worker_idle_ns: 0` in its RUNINFO manifest, and the
        // wake-latency histogram is present (count 0) even on serial runs
        // that never hand off.
        let mut boundary_events = 0u64;
        let mut flushed = coord.pstats;
        if sonet_util::obs::on() {
            sonet_util::obs::gauge_set!("engine.width", width as u64);
            flush_scalar_metrics(&coord.pstats, &mut flushed, &mut boundary_events);
        }
        let wake_hist = sonet_util::obs::on().then(|| {
            sonet_util::obs::metrics::global().histogram(
                "engine.wake_latency_ns",
                sonet_util::obs::metrics::BOUNDS_POW4,
            )
        });
        let parts = std::mem::take(&mut self.parts);
        let mut win_start_us: Option<u64> = None;
        let mut win_idx: u64 = 0;
        let mut pending_part_events: Vec<u64> = vec![0; parts.len()];
        let parts = sonet_util::par::run_phased(
            width,
            parts,
            |parts: &mut [Partition], stats: &sonet_util::par::PhaseStats| -> bool {
                if let Some(start) = win_start_us.take() {
                    sonet_util::obs::trace::complete(
                        "engine.window",
                        sonet_util::obs::trace::Category::Window,
                        start,
                    );
                }
                boundary_events += barrier_merge(coord, parts);
                for p in parts.iter_mut() {
                    coord.pstats.events += p.window_counted;
                    p.window_counted = 0;
                }
                if let Some(busiest) = parts.iter().map(|p| p.window_events).max() {
                    coord.pstats.bottleneck_events += busiest;
                }
                coord.pstats.busy_ns += stats.busy_ns;
                coord.pstats.idle_ns += stats.idle_ns;
                coord.pstats.wall_ns += stats.wall_ns;
                if let Some(h) = &wake_hist {
                    // Condvar wake → first task start, one sample per
                    // worker per window. The u64::MAX sentinel marks a
                    // worker that claimed no state — nothing started, so
                    // nothing to measure.
                    for &w in &stats.wake_first_ns {
                        if w != u64::MAX {
                            h.observe(w);
                        }
                    }
                }
                if sonet_util::obs::timeline::installed() {
                    // Streaming-timeline window hook: the snapshot
                    // scheduler fires when the sim clock crosses the
                    // `--obs-interval` schedule. Write-only side channel;
                    // two relaxed loads when nothing is due.
                    let now = parts.iter().map(|p| p.now).max().unwrap_or(coord.now);
                    sonet_util::obs::timeline::window_tick(now.as_nanos());
                }
                if let Some(ctrs) = &part_ev_counters {
                    win_idx += 1;
                    let flush = win_idx.is_multiple_of(OBS_FLUSH_WINDOWS);
                    record_window_metrics(parts, ctrs, &mut pending_part_events, flush);
                    if flush {
                        flush_scalar_metrics(&coord.pstats, &mut flushed, &mut boundary_events);
                    }
                }
                if let Some(ctrs) = &part_idle_counters {
                    for (i, &busy) in stats.slot_busy_ns.iter().enumerate() {
                        let idle = stats.wall_ns.saturating_sub(busy);
                        if idle > 0 && i < ctrs.len() {
                            ctrs[i].add(idle);
                        }
                    }
                }
                for p in parts.iter_mut() {
                    p.window_events = 0;
                }
                // The fast calendar's next instant this run may reach, and
                // the packet calendar head. While no packet event at or
                // before `tf` is pending, rest every clock at `tf` and
                // apply the fast events due there (they may schedule
                // packet events at `tf` and fast events later on).
                let (next, tf) = loop {
                    let next = parts.iter().filter_map(|p| p.events.peek_at()).min();
                    let tf = coord.fast.peek_at().filter(|&tf| match mode {
                        StopMode::Until(until) => tf <= until,
                        StopMode::Quiescence => true,
                    });
                    match tf {
                        Some(tf) if next.is_none_or(|t| t > tf) => {
                            for p in parts.iter_mut() {
                                p.now = tf;
                            }
                            coord.now = tf;
                            coord.apply_fast_due(shared, parts, tf);
                        }
                        _ => break (next, tf),
                    }
                };
                if coord.audit_barriers {
                    let now = parts.iter().map(|p| p.now).max().unwrap_or(coord.now);
                    if let Err(report) = audit_parts(shared, parts, now) {
                        panic!("barrier audit failed: {report}");
                    }
                }
                // Window horizon: no event handled at or after `next` can
                // reach another partition before `next + lookahead`. The
                // window also stops one nanosecond past the next fast
                // instant, else past `until`; a quiescing run with no fast
                // event left runs on while real events remain.
                let cap = tf.or(match mode {
                    StopMode::Until(until) => Some(until),
                    StopMode::Quiescence => None,
                });
                let wend = match cap {
                    Some(cap) => next
                        .filter(|&t| t <= cap)
                        .map(|t| (cap + SimDuration::from_nanos(1)).min(t + shared.pmap.lookahead)),
                    None => {
                        let real: u64 = parts.iter().map(|p| p.real_events).sum();
                        (real > 0).then(|| {
                            next.expect("real events imply a calendar head") + shared.pmap.lookahead
                        })
                    }
                };
                match wend {
                    Some(wend) => {
                        for p in parts.iter_mut() {
                            p.wend = wend;
                        }
                        coord.pstats.barriers += 1;
                        if sonet_util::obs::on() {
                            let t = next.expect("a scheduled window has a calendar head");
                            sonet_util::obs::hist_observe!(
                                "engine.effective_lookahead_ns",
                                (wend - t).as_nanos(),
                                sonet_util::obs::metrics::BOUNDS_POW4
                            );
                        }
                        if sonet_util::obs::deep() {
                            win_start_us = Some(sonet_util::obs::trace::now_us());
                        }
                        true
                    }
                    None => {
                        // Epilogue: rest the clock exactly where the
                        // serial contract says — at `until`, or at the
                        // last handled event for a natural quiesce.
                        let end = match mode {
                            StopMode::Until(until) => until,
                            StopMode::Quiescence => parts
                                .iter()
                                .map(|p| p.last_at)
                                .max()
                                .unwrap_or(coord.now)
                                .max(coord.now),
                        };
                        for p in parts.iter_mut() {
                            p.now = end;
                        }
                        coord.now = end;
                        // Final drain: whatever the 64-window batching
                        // still holds lands in the registry before the
                        // run's RUNINFO snapshot is taken.
                        if let Some(ctrs) = &part_ev_counters {
                            flush_window_metrics(parts, ctrs, &mut pending_part_events);
                            flush_scalar_metrics(&coord.pstats, &mut flushed, &mut boundary_events);
                        }
                        false
                    }
                }
            },
            |_, p| p.drain_window(shared),
        );
        self.parts = parts;
    }

    /// Finishes the run: flushes telemetry windows and returns the outputs
    /// together with the tap.
    pub fn finish(mut self) -> (SimOutputs, T) {
        let mut tail = Vec::new();
        for p in &mut self.parts {
            p.flush_buffer_windows();
            tail.append(&mut p.window_stats);
        }
        tail.sort_by_key(|(start, orig, _)| (*start, *orig));
        self.coord
            .buffer_stats
            .extend(tail.into_iter().map(|(_, _, s)| s));

        let n_links = self.shared.topo.links().len();
        let mut link_counters = Vec::with_capacity(n_links);
        let mut util_series = HashMap::new();
        for li in 0..n_links {
            let owner = self.shared.pmap.part_of_link[li] as usize;
            link_counters.push(self.parts[owner].link_counters[li]);
            if self.shared.util_tracked[li] {
                util_series.insert(
                    LinkId(li as u32),
                    std::mem::take(&mut self.parts[owner].util_series[li]),
                );
            }
        }
        let sum = |f: fn(&part::Counters) -> u64| -> u64 {
            self.parts.iter().map(|p| f(&p.counters)).sum()
        };
        let fc = self.coord.fast.counters;
        let outputs = SimOutputs {
            link_counters,
            util_series,
            util_interval: self.shared.util_interval,
            buffer_stats: std::mem::take(&mut self.coord.buffer_stats),
            emitted_packets: sum(|c| c.emitted_packets),
            delivered_packets: sum(|c| c.delivered_packets),
            completed_requests: sum(|c| c.completed_requests) + fc.completed,
            messages_on_closed: sum(|c| c.messages_on_closed) + fc.on_closed,
            stale_packets: sum(|c| c.stale_packets),
            faults_applied: sum(|c| c.faults_applied),
            reroutes: sum(|c| c.reroutes),
            reroute_failures: sum(|c| c.reroute_failures),
            failed_handshakes: sum(|c| c.failed_handshakes),
            aborted_connections: sum(|c| c.aborted_connections) + fc.aborted_flows,
            gray_dropped_packets: sum(|c| c.gray_dropped_packets),
            rpc_latencies: std::mem::take(&mut self.coord.latencies),
            flows_fast: fc.flows_fast,
            flows_packet: fc.flows_packet,
            fast_path_demotions: fc.demotions,
            fast_completed_requests: fc.completed,
            fast_bytes_offered: fc.bytes_offered,
            fast_bytes_completed: fc.bytes_completed,
            fast_bytes_aborted: fc.bytes_aborted,
            ended_at: self.coord.now,
        };
        (outputs, self.coord.tap)
    }
}

/// Publishes per-barrier flight-recorder metrics: window event volume and
/// balance, per-partition event counters, calendar size, and cumulative
/// drops by cause. Called from the coordinator between phases, only when
/// observability is on; purely write-only into the obs side channel.
///
/// Hybrid runs cut a window at every fast-path event instant (the two
/// calendars interleave there), so they still cross tens of thousands of
/// barriers per simulated half-second — about 35k on the standard
/// capture — and per-window registry traffic is a measurable tax (CI
/// pins `--obs summary` to ≤2% of events/sec).
/// Counters therefore accumulate into `pending` (one slot per partition)
/// and flush every `OBS_FLUSH_WINDOWS` barriers of a run call — exact
/// totals, just batched, with the epilogue draining the remainder. The
/// fast-path interleave runs inside the barrier planner, so one batch
/// spans any number of fast instants. Gauges refresh on the same cadence
/// (they are last-write snapshots, so sampling loses nothing at the end
/// of the run), and the per-window distribution histograms ride with the
/// other per-window detail in deep mode.
const OBS_FLUSH_WINDOWS: u64 = 64;

fn record_window_metrics(
    parts: &[Partition],
    ctrs: &[std::sync::Arc<sonet_util::obs::metrics::Counter>],
    pending: &mut [u64],
    flush: bool,
) {
    use sonet_util::obs;
    for (acc, p) in pending.iter_mut().zip(parts) {
        *acc += p.window_events;
    }
    if obs::deep() {
        let total: u64 = parts.iter().map(|p| p.window_events).sum();
        if total > 0 {
            obs::hist_observe!("engine.events_per_window", total, obs::metrics::BOUNDS_POW4);
            let busiest = parts.iter().map(|p| p.window_events).max().unwrap_or(0);
            let lightest = parts.iter().map(|p| p.window_events).min().unwrap_or(0);
            if parts.len() > 1 && busiest > 0 {
                obs::hist_observe!(
                    "engine.barrier_balance_permille",
                    lightest * 1000 / busiest,
                    obs::metrics::BOUNDS_PERMILLE
                );
            }
        }
    }
    if flush {
        flush_window_metrics(parts, ctrs, pending);
    }
}

/// The barrier and pool counters, named, with their [`ParallelStats`]
/// totals.
fn pool_metrics(s: &ParallelStats) -> [(&'static str, u64); 4] {
    [
        ("engine.barriers", s.barriers),
        ("engine.worker_busy_ns", s.busy_ns),
        ("engine.worker_idle_ns", s.idle_ns),
        ("engine.pool_wall_ns", s.wall_ns),
    ]
}

/// Publishes the scalar engine counters on the same cadence as
/// `flush_window_metrics`: the boundary events batched in `boundary`, and
/// each [`pool_metrics`] counter as the delta of `pstats` since `flushed`
/// (the snapshot of the last flush). The pool counters are added even at
/// a zero delta, so every observed run reports them and `barrier_util`
/// (busy / width × wall) is derivable from any artifact.
fn flush_scalar_metrics(pstats: &ParallelStats, flushed: &mut ParallelStats, boundary: &mut u64) {
    use sonet_util::obs;
    if *boundary > 0 {
        obs::counter_add!("engine.boundary_events", *boundary);
        *boundary = 0;
    }
    let m = obs::metrics::global();
    for ((name, now), (_, then)) in pool_metrics(pstats).into_iter().zip(pool_metrics(flushed)) {
        m.counter(name).add(now - then);
    }
    *flushed = *pstats;
}

/// Drains the batched per-partition counters and refreshes the snapshot
/// gauges. Runs on the flush cadence and once more from the epilogue, so
/// RUNINFO finals are exact regardless of where the run stopped.
fn flush_window_metrics(
    parts: &[Partition],
    ctrs: &[std::sync::Arc<sonet_util::obs::metrics::Counter>],
    pending: &mut [u64],
) {
    use sonet_util::obs;
    let total: u64 = pending.iter().sum();
    if total > 0 {
        obs::counter_add!("engine.events", total);
        for (acc, ctr) in pending.iter_mut().zip(ctrs) {
            if *acc > 0 {
                ctr.add(*acc);
                *acc = 0;
            }
        }
    }
    obs::gauge_set!(
        "engine.calendar_events",
        parts.iter().map(|p| p.real_events).sum::<u64>()
    );
    let sum = |f: fn(&part::Counters) -> u64| -> u64 { parts.iter().map(|p| f(&p.counters)).sum() };
    obs::gauge_set!("engine.drop.stale_packets", sum(|c| c.stale_packets));
    obs::gauge_set!(
        "engine.drop.messages_on_closed",
        sum(|c| c.messages_on_closed)
    );
    obs::gauge_set!("engine.drop.reroute_failures", sum(|c| c.reroute_failures));
    obs::gauge_set!("engine.drop.gray_packets", sum(|c| c.gray_dropped_packets));
    obs::gauge_set!(
        "engine.drop.aborted_connections",
        sum(|c| c.aborted_connections)
    );
}

/// Exchanges every cross-partition product of the completed window, in
/// canonical order. Runs on the coordinator thread between phases; also a
/// no-op on a fresh simulator, so the window loop calls it
/// unconditionally. Returns the number of boundary events delivered so
/// the caller can batch the `engine.boundary_events` counter.
fn barrier_merge<T: PacketTap>(coord: &mut Coord<T>, parts: &mut [Partition]) -> u64 {
    let n = parts.len();

    // 1. Boundary events: outbox → target calendar, coalesced per target
    //    across every source so each target's calendar grows once per
    //    barrier instead of once per partition pair. Every entry carries
    //    its (time, source, seq) key, so calendar order — not delivery order
    //    — decides processing order.
    let mut boundary: u64 = 0;
    let mut incoming: Vec<Vec<Scheduled>> = vec![Vec::new(); n];
    for src in parts.iter_mut() {
        // Per-source outbox histograms are deep-mode detail: they would
        // cost `partitions` registry ops on every window in summary mode.
        if sonet_util::obs::deep() {
            let depth: usize = src.outbox.iter().map(Vec::len).sum();
            sonet_util::obs::hist_observe!(
                "engine.outbox_depth",
                depth as u64,
                sonet_util::obs::metrics::BOUNDS_POW4
            );
        }
        for (tgt, evs) in src.outbox.iter_mut().enumerate() {
            incoming[tgt].append(evs);
        }
    }
    for (tgt, evs) in incoming.into_iter().enumerate() {
        if evs.is_empty() {
            continue;
        }
        boundary += evs.len() as u64;
        let p = &mut parts[tgt];
        p.real_events += evs.len() as u64;
        for s in evs {
            debug_assert!(s.at >= p.now, "lookahead violation");
            p.events.push(s);
        }
    }

    // A partition drains its window in key order, so each per-partition
    // product buffer is already key-sorted — the canonical merge sort is
    // only needed when more than one partition contributed this window.

    // 2. Tap deliveries, merged across partitions by generating-event key
    //    (exactly the order a width-1 run produces them in).
    let multi = parts.iter().filter(|p| !p.tap_buf.is_empty()).count() > 1;
    let mut taps: Vec<part::TapCall> = Vec::new();
    for p in parts.iter_mut() {
        taps.append(&mut p.tap_buf);
    }
    if multi {
        taps.sort_by_key(|t| t.key);
    }
    for t in &taps {
        coord.tap.on_packet(t.at, t.link, &t.pkt);
    }

    // 3. RPC latency samples, same canonical order.
    let multi = parts.iter().filter(|p| !p.lat_buf.is_empty()).count() > 1;
    let mut lats: Vec<(EvKey, SimDuration)> = Vec::new();
    for p in parts.iter_mut() {
        lats.append(&mut p.lat_buf);
    }
    if multi {
        lats.sort_by_key(|(k, _)| *k);
    }
    coord.latencies.extend(lats.into_iter().map(|(_, d)| d));

    // 4. Completed buffer windows, ordered by (window start, position in
    //    the caller's switch list) — the order the serial sampler emits.
    //    Always sorted: one partition can own several region shards whose
    //    flushes interleave out of (start, orig) order.
    let mut wins: Vec<(SimTime, u32, BufferWindowStat)> = Vec::new();
    for p in parts.iter_mut() {
        wins.append(&mut p.window_stats);
    }
    wins.sort_by_key(|(start, orig, _)| (*start, *orig));
    coord
        .buffer_stats
        .extend(wins.into_iter().map(|(_, _, s)| s));

    // 5. Cross-region aborts: the peer learns one notification delay
    //    after the abort instant — like a RST surfacing after the fabric
    //    round-trip. Tying the notification to the abort's own timestamp
    //    (not the barrier position) keeps results independent of how the
    //    caller slices its `run_until` horizon: no window ever extends
    //    past its start by more than `lookahead <= ABORT_NOTIFY_DELAY`,
    //    so the notification is never in the peer's past.
    let multi = parts.iter().filter(|p| !p.aborted_buf.is_empty()).count() > 1;
    let mut aborts: Vec<(EvKey, ConnId, bool)> = Vec::new();
    for p in parts.iter_mut() {
        aborts.append(&mut p.aborted_buf);
    }
    if multi {
        aborts.sort_by_key(|(k, _, _)| *k);
    }
    for (key, conn, client_aborted) in aborts {
        let slot = coord.slots[conn.index()];
        if slot.gen != conn.gen {
            continue;
        }
        let (peer, peer_is_client) = if client_aborted {
            (slot.spart as usize, false)
        } else {
            (slot.cpart as usize, true)
        };
        let at = key.0 + ABORT_NOTIFY_DELAY;
        debug_assert!(
            at >= parts[peer].now,
            "abort notification lands in the peer's past"
        );
        let seq = coord.ext_seq;
        coord.ext_seq += 1;
        parts[peer].push_ext(
            at,
            seq,
            Ev::PeerGone {
                conn,
                client: peer_is_client,
            },
        );
    }

    // 6. Retired slots become reusable in retiring-event order — the
    //    same order a width-1 run grows `free_conns` in, whatever the
    //    partition count.
    let multi = parts.iter().filter(|p| !p.retired_buf.is_empty()).count() > 1;
    let mut retired: Vec<(EvKey, u32)> = Vec::new();
    for p in parts.iter_mut() {
        retired.append(&mut p.retired_buf);
    }
    if multi {
        retired.sort_by_key(|(k, _)| *k);
    }
    coord
        .free_conns
        .extend(retired.into_iter().map(|(_, idx)| idx));

    boundary
}

// ---------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------

/// Serialized sampler state: the canonical (width-independent) view — the
/// full switch list in registration order with each switch's in-window
/// samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BufSamplerCkpt {
    interval: SimDuration,
    window: SimDuration,
    switches: Vec<SwitchId>,
    window_start: SimTime,
    samples: Vec<Vec<u64>>,
}

/// Serialized dynamic state of a [`Simulator`].
///
/// Contains everything the engine mutates, merged across partitions into
/// a canonical single-plant view: the event calendar (sorted by
/// `(time, source, seq)` key), both endpoint tables, link and switch
/// state, telemetry accumulators, and totals — plus the [`SimConfig`] it
/// ran under. Topology-derived tables are rebuilt from the topology
/// passed to [`Simulator::restore`], so a checkpoint stays small and
/// cannot disagree with the plant it is replayed against. Because the
/// view is canonical — events keyed by topology-fixed regions, fault
/// replicas deduplicated, sequence counters region-indexed — checkpoint
/// bytes are identical at every worker width, and a checkpoint taken at
/// one width restores at any other.
///
/// Checkpoints from older format versions fail to restore — resuming
/// one requires the release that wrote it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    version: u32,
    cfg: SimConfig,
    now: SimTime,
    events: Vec<Scheduled>,
    /// Per-region event sequence counters, indexed by region (clusters,
    /// then per-DC hub tiers, then the backbone) — partition-count-
    /// independent because event sources are regions, not partitions.
    next_seqs: Vec<u64>,
    ext_seq: u64,
    conns_client: Vec<Option<Conn>>,
    conns_server: Vec<Option<Conn>>,
    free_conns: Vec<u32>,
    next_port: Vec<u16>,
    link_free_at: Vec<SimTime>,
    link_backlog: Vec<u64>,
    link_counters: Vec<LinkCounters>,
    link_rate_factor: Vec<f64>,
    link_gray: Vec<f64>,
    link_gray_seq: Vec<u64>,
    health: LinkHealth,
    watched: Vec<bool>,
    util_tracked: Vec<bool>,
    switch_occ: Vec<u64>,
    util_interval: Option<SimDuration>,
    /// `util_series` flattened to link-sorted pairs so the serialized form
    /// is byte-stable across runs.
    util_series: Vec<(LinkId, Vec<u64>)>,
    buf_sampler: Option<BufSamplerCkpt>,
    buffer_stats: Vec<BufferWindowStat>,
    emitted_packets: u64,
    delivered_packets: u64,
    completed_requests: u64,
    messages_on_closed: u64,
    stale_packets: u64,
    faults_applied: u64,
    reroutes: u64,
    reroute_failures: u64,
    failed_handshakes: u64,
    aborted_connections: u64,
    gray_dropped_packets: u64,
    record_latencies: bool,
    latencies: Vec<SimDuration>,
    processed_events: u64,
    /// The hybrid engine's flow-mode section (version 5+): fast calendar,
    /// per-slot flow modes and routes, per-link analytic queue state, the
    /// replayable fault schedule, and the fast totals.
    fast: fidelity::FastCkpt,
}

impl EngineCheckpoint {
    /// Virtual time the checkpoint was taken at.
    pub fn taken_at(&self) -> SimTime {
        self.now
    }
}

impl<T: PacketTap> Simulator<T> {
    /// Captures the engine's full dynamic state. Non-destructive: the
    /// simulator keeps running; the checkpoint is an independent snapshot
    /// that [`Simulator::restore`] turns back into an identical engine.
    /// Must be taken between run calls (at a barrier), which is the only
    /// time the public API can observe the engine anyway.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let sh = &self.shared;
        let n_links = sh.topo.links().len();
        let n_switches = sh.topo.switches().len();

        let mut events: Vec<Scheduled> = self.parts.iter().flat_map(|p| p.events.iter()).collect();
        events.sort_by_key(Scheduled::key);
        // Fault events are replicated into every partition under one
        // shared key; the canonical calendar keeps a single copy (restore
        // fans it back out), so the bytes are partition-count-independent.
        events.dedup_by(|a, b| a.key() == b.key());

        let n_slots = self.coord.slots.len();
        let mut conns_client: Vec<Option<Conn>> = vec![None; n_slots];
        let mut conns_server: Vec<Option<Conn>> = vec![None; n_slots];
        // Two passes: the server filter below consults the client table,
        // and a conn's server half may live in a lower-indexed partition
        // than its client half.
        for p in &self.parts {
            for (i, c) in p.clients.iter().enumerate() {
                if let Some(c) = c {
                    conns_client[i] = Some(c.clone());
                }
            }
        }
        for p in &self.parts {
            for (i, c) in p.servers.iter().enumerate() {
                if let Some(c) = c {
                    // The canonical server endpoint is the one matching
                    // the current client generation; stale halves left in
                    // other partitions by slot reuse stay behind (they
                    // only ever absorb stragglers).
                    let current = conns_client[i]
                        .as_ref()
                        .is_some_and(|cl| cl.id.gen == c.id.gen);
                    if current {
                        conns_server[i] = Some(c.clone());
                    }
                }
            }
        }

        let mut link_free_at = vec![SimTime::ZERO; n_links];
        let mut link_backlog = vec![0u64; n_links];
        let mut link_counters = vec![LinkCounters::default(); n_links];
        let mut link_rate_factor = vec![1.0f64; n_links];
        let mut link_gray = vec![0.0f64; n_links];
        let mut link_gray_seq = vec![0u64; n_links];
        let mut util_series = Vec::new();
        for li in 0..n_links {
            let owner = &self.parts[sh.pmap.part_of_link[li] as usize];
            link_free_at[li] = owner.link_free_at[li];
            link_backlog[li] = owner.link_backlog[li];
            link_counters[li] = owner.link_counters[li];
            link_rate_factor[li] = owner.link_rate_factor[li];
            link_gray[li] = owner.link_gray[li];
            link_gray_seq[li] = owner.link_gray_seq[li];
            if sh.util_tracked[li] {
                util_series.push((LinkId(li as u32), owner.util_series[li].clone()));
            }
        }
        let mut switch_occ = vec![0u64; n_switches];
        for (si, occ) in switch_occ.iter_mut().enumerate() {
            *occ = self.parts[sh.pmap.part_of_switch[si] as usize].switch_occ[si];
        }

        // Reassemble the canonical sampler from the per-region shards,
        // ordered by each switch's position in the original registration.
        let mut shard_refs: Vec<(&PartSampler, usize)> = Vec::new();
        for p in &self.parts {
            for s in &p.buf_samplers {
                for i in 0..s.switches.len() {
                    shard_refs.push((s, i));
                }
            }
        }
        shard_refs.sort_by_key(|(s, i)| s.orig[*i]);
        let buf_sampler = shard_refs.first().map(|(first, _)| BufSamplerCkpt {
            interval: first.interval,
            window: first.window,
            switches: shard_refs.iter().map(|(s, i)| s.switches[*i]).collect(),
            window_start: first.window_start,
            samples: shard_refs
                .iter()
                .map(|(s, i)| s.samples[*i].clone())
                .collect(),
        });

        let sum = |f: fn(&part::Counters) -> u64| -> u64 {
            self.parts.iter().map(|p| f(&p.counters)).sum()
        };
        EngineCheckpoint {
            version: CHECKPOINT_VERSION,
            cfg: sh.cfg.clone(),
            now: self.coord.now,
            events,
            next_seqs: (0..sh.pmap.n_regions as usize)
                .map(|r| self.parts[sh.pmap.part_of_region[r] as usize].next_seqs[r])
                .collect(),
            ext_seq: self.coord.ext_seq,
            conns_client,
            conns_server,
            free_conns: self.coord.free_conns.clone(),
            next_port: self.coord.next_port.clone(),
            link_free_at,
            link_backlog,
            link_counters,
            link_rate_factor,
            link_gray,
            link_gray_seq,
            health: self.parts[0].health.clone(),
            watched: sh.watched.clone(),
            util_tracked: sh.util_tracked.clone(),
            switch_occ,
            util_interval: sh.util_interval,
            util_series,
            buf_sampler,
            buffer_stats: self.coord.buffer_stats.clone(),
            emitted_packets: sum(|c| c.emitted_packets),
            delivered_packets: sum(|c| c.delivered_packets),
            completed_requests: sum(|c| c.completed_requests),
            messages_on_closed: sum(|c| c.messages_on_closed),
            stale_packets: sum(|c| c.stale_packets),
            faults_applied: sum(|c| c.faults_applied),
            reroutes: sum(|c| c.reroutes),
            reroute_failures: sum(|c| c.reroute_failures),
            failed_handshakes: sum(|c| c.failed_handshakes),
            aborted_connections: sum(|c| c.aborted_connections),
            gray_dropped_packets: sum(|c| c.gray_dropped_packets),
            record_latencies: sh.record_latencies,
            latencies: self.coord.latencies.clone(),
            processed_events: self.parts.iter().map(|p| p.processed_events).sum(),
            fast: self.coord.fast.to_ckpt(n_slots),
        }
    }

    /// Rebuilds a simulator from a checkpoint over the same topology.
    ///
    /// The restored engine is observationally identical to the one that
    /// took the checkpoint: continuing both produces byte-identical
    /// outputs, at any worker width. The tap is supplied by the caller
    /// (its state, if any, is checkpointed by the layer that owns it).
    /// Fails with [`SimError::Config`] when the checkpoint's version or
    /// dimensions do not match, its calendar is internally inconsistent,
    /// or it names a host or link the topology does not have.
    pub fn restore(
        topo: Arc<Topology>,
        tap: T,
        ckpt: EngineCheckpoint,
    ) -> Result<Simulator<T>, SimError> {
        let mut sim = Simulator::new(topo, ckpt.cfg.clone(), tap)?;
        let sh = &sim.shared;
        let n_links = sh.topo.links().len();
        let n_switches = sh.topo.switches().len();
        let n_hosts = sh.topo.hosts().len();
        let n_regions = sh.pmap.n_regions as usize;
        let bad = |what: &str| Err(SimError::Config(format!("checkpoint mismatch: {what}")));
        if ckpt.version != CHECKPOINT_VERSION {
            return bad("unsupported checkpoint version");
        }
        if ckpt.link_free_at.len() != n_links
            || ckpt.link_backlog.len() != n_links
            || ckpt.link_counters.len() != n_links
            || ckpt.link_rate_factor.len() != n_links
            || ckpt.link_gray.len() != n_links
            || ckpt.link_gray_seq.len() != n_links
            || ckpt.watched.len() != n_links
            || ckpt.util_tracked.len() != n_links
        {
            return bad("link state dimensions do not match the topology");
        }
        if ckpt.switch_occ.len() != n_switches {
            return bad("switch state dimensions do not match the topology");
        }
        if ckpt.next_port.len() != n_hosts {
            return bad("host state dimensions do not match the topology");
        }
        if ckpt.health.n_links() != n_links || ckpt.health.n_switches() != n_switches {
            return bad("health mask dimensions do not match the topology");
        }
        if ckpt.next_seqs.len() != n_regions {
            return bad("region count does not match the topology");
        }
        if ckpt.conns_server.len() != ckpt.conns_client.len() {
            return bad("endpoint tables disagree on slot count");
        }
        let n_slots = ckpt.conns_client.len();
        if ckpt.fast.link_free.len() != n_links
            || ckpt.fast.link_rho.len() != n_links
            || ckpt.fast.link_epoch_bytes.len() != n_links
            || ckpt.fast.link_epoch_start.len() != n_links
        {
            return bad("fast-path link state dimensions do not match the topology");
        }
        if ckpt.fast.sampled_switches.len() != n_switches {
            return bad("fast-path switch state dimensions do not match the topology");
        }
        if ckpt.fast.fast.len() != n_slots
            || ckpt.fast.established.len() != n_slots
            || ckpt.fast.routes.len() != n_slots
            || ckpt.fast.msgs.len() != n_slots
        {
            return bad("fast-path slot tables do not match the endpoint tables");
        }
        if ckpt
            .fast
            .routes
            .iter()
            .flat_map(|(f, r)| f.iter().chain(r.iter()))
            .any(|l| l.index() >= n_links)
        {
            return bad("fast-path route references an out-of-range link");
        }

        let hosts_in_range = |k: &FlowKey| k.client.index() < n_hosts && k.server.index() < n_hosts;
        if ckpt
            .conns_client
            .iter()
            .chain(&ckpt.conns_server)
            .flatten()
            .any(|c| !hosts_in_range(&c.key))
        {
            return bad("connection endpoint references an out-of-range host");
        }

        // Rebuild the slot registry from the client endpoints (the client
        // half exists for every allocated slot and persists after
        // retirement, so generation and both partitions are derivable).
        let mut slots = Vec::with_capacity(n_slots);
        for (i, c) in ckpt.conns_client.iter().enumerate() {
            let Some(c) = c else {
                return bad("allocated slot without a client endpoint");
            };
            if c.id.idx as usize != i {
                return bad("client endpoint in the wrong slot");
            }
            if c.route_fwd.iter().any(|l| l.index() >= n_links) {
                return bad("connection route references an out-of-range link");
            }
            slots.push(Slot {
                gen: c.id.gen,
                cpart: sh.pmap.part_of_host[c.key.client.index()],
                spart: sh.pmap.part_of_host[c.key.server.index()],
            });
        }
        for c in ckpt.conns_server.iter().flatten() {
            if c.route_rev.iter().any(|l| l.index() >= n_links) {
                return bad("connection route references an out-of-range link");
            }
        }

        for ev in &ckpt.events {
            if ev.at < ckpt.now {
                return bad("calendar entry before the checkpointed clock");
            }
            let issued = if ev.src == EXT_SRC {
                ckpt.ext_seq
            } else if (ev.src as usize) < n_regions {
                ckpt.next_seqs[ev.src as usize]
            } else {
                return bad("calendar entry from an unknown region");
            };
            if ev.seq >= issued {
                return bad("calendar entry with an unissued sequence number");
            }
            if let Ev::Transmit { pkt, .. } | Ev::Deliver { pkt } = &ev.ev {
                let hops = pkt.route.checked().unwrap_or_default();
                if hops.is_empty() || hops.iter().any(|l| l.index() >= n_links) {
                    return bad("packet route is malformed or references an out-of-range link");
                }
                if !hosts_in_range(&pkt.p.key) {
                    return bad("packet references an out-of-range host");
                }
            }
        }
        // The canonical calendar holds each event once — fault replicas
        // included — so a shared key means a forged or corrupt file, and
        // the next checkpoint's dedup would silently drop one of the two.
        let mut keys: Vec<EvKey> = ckpt.events.iter().map(Scheduled::key).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return bad("two calendar entries share one event key");
        }
        // The fast calendar is monotone too, and its `(at, seq)` key is
        // its only order: an entry in the past, from the future of the
        // sequence counter, or under a shared key would apply out of order.
        for ev in &ckpt.fast.events {
            if ev.at < ckpt.now {
                return bad("fast-path event before the checkpointed clock");
            }
            if ev.seq >= ckpt.fast.seq {
                return bad("fast-path event with an unissued sequence number");
            }
        }
        let mut fast_keys: Vec<(SimTime, u64)> =
            ckpt.fast.events.iter().map(|e| (e.at, e.seq)).collect();
        fast_keys.sort_unstable();
        if fast_keys.windows(2).any(|w| w[0] == w[1]) {
            return bad("two fast-path events share one event key");
        }

        sim.coord.now = ckpt.now;
        sim.coord.ext_seq = ckpt.ext_seq;
        sim.coord.slots = slots;
        sim.coord.free_conns = ckpt.free_conns;
        sim.coord.next_port = ckpt.next_port;
        sim.coord.buffer_stats = ckpt.buffer_stats;
        sim.coord.latencies = ckpt.latencies;
        sim.coord.fast.restore(ckpt.fast);
        sim.shared.watched = ckpt.watched;
        sim.shared.util_tracked = ckpt.util_tracked;
        sim.shared.util_interval = ckpt.util_interval;
        sim.shared.record_latencies = ckpt.record_latencies;
        let sh = &sim.shared;

        for p in &mut sim.parts {
            p.now = ckpt.now;
            p.wend = ckpt.now;
            p.health = ckpt.health.clone();
            p.clients.resize(n_slots, None);
            p.servers.resize(n_slots, None);
        }
        // Each region's counter lands on the partition that owns it.
        for (r, &seq) in ckpt.next_seqs.iter().enumerate() {
            let owner = sh.pmap.part_of_region[r] as usize;
            sim.parts[owner].next_seqs[r] = seq;
        }
        for (i, c) in ckpt.conns_client.into_iter().enumerate() {
            let cpart = sim.coord.slots[i].cpart as usize;
            sim.parts[cpart].clients[i] = c;
        }
        for (i, c) in ckpt.conns_server.into_iter().enumerate() {
            if let Some(c) = c {
                let spart = sh.pmap.part_of_host[c.key.server.index()] as usize;
                sim.parts[spart].servers[i] = Some(c);
            }
        }
        for li in 0..n_links {
            let owner = sh.pmap.part_of_link[li] as usize;
            sim.parts[owner].link_free_at[li] = ckpt.link_free_at[li];
            sim.parts[owner].link_backlog[li] = ckpt.link_backlog[li];
            sim.parts[owner].link_counters[li] = ckpt.link_counters[li];
            sim.parts[owner].link_rate_factor[li] = ckpt.link_rate_factor[li];
            sim.parts[owner].link_gray[li] = ckpt.link_gray[li];
            sim.parts[owner].link_gray_seq[li] = ckpt.link_gray_seq[li];
        }
        for si in 0..n_switches {
            let owner = sh.pmap.part_of_switch[si] as usize;
            sim.parts[owner].switch_occ[si] = ckpt.switch_occ[si];
        }
        for (l, series) in ckpt.util_series {
            if l.index() >= n_links {
                return bad("utilization series references an out-of-range link");
            }
            let owner = sh.pmap.part_of_link[l.index()] as usize;
            sim.parts[owner].util_series[l.index()] = series;
        }
        if let Some(s) = ckpt.buf_sampler {
            if s.samples.len() != s.switches.len() {
                return bad("sampler sample/switch lists disagree");
            }
            if let Some(&sw) = s.switches.iter().find(|sw| sw.index() >= n_switches) {
                return bad(&format!("sampler references out-of-range {sw}"));
            }
            for region in 0..n_regions as u32 {
                let mut owned = Vec::new();
                let mut orig = Vec::new();
                let mut caps = Vec::new();
                let mut samples = Vec::new();
                for (i, &sw) in s.switches.iter().enumerate() {
                    if sh.pmap.region_of_switch[sw.index()] == region {
                        owned.push(sw);
                        orig.push(i as u32);
                        caps.push(sh.switch_cap[sw.index()]);
                        samples.push(s.samples[i].clone());
                    }
                }
                if owned.is_empty() {
                    continue;
                }
                let p = &mut sim.parts[sh.pmap.part_of_region[region as usize] as usize];
                p.buf_samplers.push(PartSampler {
                    region,
                    interval: s.interval,
                    window: s.window,
                    switches: owned,
                    orig,
                    caps,
                    window_start: s.window_start,
                    samples,
                });
            }
        }

        // Route every calendar entry to the partition that owns its
        // subject, then recount the housekeeping split per partition.
        for ev in ckpt.events {
            let target = match &ev.ev {
                Ev::Transmit { pkt, hop } => {
                    let hops = pkt.route.as_slice();
                    let Some(&link) = hops.get(*hop as usize) else {
                        return bad("transmit event beyond its route");
                    };
                    sh.pmap.part_of_link[link.index()] as usize
                }
                Ev::Deliver { pkt } => sh.pmap.part_of_host[pkt.p.wire_dst().index()] as usize,
                Ev::Release { link, .. } => {
                    if *link as usize >= n_links {
                        return bad("release event for an out-of-range link");
                    }
                    sh.pmap.part_of_link[*link as usize] as usize
                }
                Ev::Rto { conn, dir } => {
                    let Some(slot) = sim.coord.slots.get(conn.index()) else {
                        return bad("timer event for an unknown slot");
                    };
                    if *dir == Dir::ClientToServer {
                        slot.cpart as usize
                    } else {
                        slot.spart as usize
                    }
                }
                Ev::Service { conn, .. } => {
                    let Some(slot) = sim.coord.slots.get(conn.index()) else {
                        return bad("service event for an unknown slot");
                    };
                    slot.spart as usize
                }
                Ev::OpenConn { conn }
                | Ev::SynRetry { conn }
                | Ev::SendMsg { conn, .. }
                | Ev::Close { conn }
                | Ev::Retire { conn } => {
                    let Some(slot) = sim.coord.slots.get(conn.index()) else {
                        return bad("connection event for an unknown slot");
                    };
                    slot.cpart as usize
                }
                Ev::PeerGone { conn, client } => {
                    let Some(slot) = sim.coord.slots.get(conn.index()) else {
                        return bad("peer-gone event for an unknown slot");
                    };
                    if *client {
                        slot.cpart as usize
                    } else {
                        slot.spart as usize
                    }
                }
                Ev::Fault { .. } => {
                    // The canonical calendar holds one copy; the live
                    // engine replicates faults into every partition so
                    // each health replica stays in lockstep.
                    for p in &mut sim.parts {
                        p.real_events += 1;
                        p.events.push(ev.clone());
                    }
                    continue;
                }
                Ev::BufSample { region } => {
                    if *region as usize >= n_regions {
                        return bad("buffer sample for an unknown region");
                    }
                    sh.pmap.part_of_region[*region as usize] as usize
                }
            };
            let p = &mut sim.parts[target];
            if !matches!(ev.ev, Ev::BufSample { .. }) {
                p.real_events += 1;
            }
            p.events.push(ev);
        }

        // Flat totals land on partition 0; reports only ever read sums.
        sim.parts[0].counters = part::Counters {
            emitted_packets: ckpt.emitted_packets,
            delivered_packets: ckpt.delivered_packets,
            completed_requests: ckpt.completed_requests,
            messages_on_closed: ckpt.messages_on_closed,
            stale_packets: ckpt.stale_packets,
            faults_applied: ckpt.faults_applied,
            reroutes: ckpt.reroutes,
            reroute_failures: ckpt.reroute_failures,
            failed_handshakes: ckpt.failed_handshakes,
            aborted_connections: ckpt.aborted_connections,
            gray_dropped_packets: ckpt.gray_dropped_packets,
        };
        sim.parts[0].processed_events = ckpt.processed_events;
        for p in &mut sim.parts {
            p.last_at = ckpt.now;
        }
        Ok(sim)
    }
}

// ---------------------------------------------------------------------
// Invariant auditor
// ---------------------------------------------------------------------

/// One violated runtime invariant, with the numbers that violated it.
#[derive(Debug, Clone, Serialize)]
pub enum AuditViolation {
    /// Packet conservation broke: every packet the engine ever emitted
    /// must be delivered, dropped at admission, fault-dropped, counted
    /// stale, or still in flight on the calendar.
    PacketConservation {
        /// Packets handed to the network.
        emitted: u64,
        /// Packets delivered to hosts.
        delivered: u64,
        /// Packets dropped at buffer admission.
        dropped: u64,
        /// Packets lost to injected faults.
        fault_dropped: u64,
        /// In-flight packets discarded against recycled connection slots.
        stale: u64,
        /// Transmit/Deliver events still on the calendar.
        in_flight: u64,
    },
    /// A link transmitted more bytes than its line rate allows in the time
    /// it has been busy.
    LinkOverDelivery {
        /// The offending link.
        link: LinkId,
        /// Bytes the link claims to have serialized.
        tx_bytes: u64,
        /// The rate x elapsed bound (with per-packet rounding slack).
        bound_bytes: u64,
    },
    /// A calendar entry is timestamped before the current clock.
    CalendarInPast {
        /// The stale entry's timestamp.
        event_at: SimTime,
        /// The engine clock.
        now: SimTime,
    },
    /// Telemetry accounting broke: packets offered to a tap must equal
    /// captured + overflowed + deliberately dropped. (Emitted by the
    /// capture layer's auditor; the engine itself never raises it.)
    TelemetryAccounting {
        /// Packets offered to the collector.
        offered: u64,
        /// Packets retained.
        captured: u64,
        /// Packets lost to capacity overflow.
        overflow: u64,
        /// Packets lost to an injected telemetry fault.
        fault_dropped: u64,
    },
    /// Flow conservation broke on the fast path: every byte offered to a
    /// flow-mode message must complete, abort, or still be in flight on
    /// the fast calendar.
    FlowConservation {
        /// Bytes offered to fast-path messages.
        offered: u64,
        /// Bytes whose transfers completed.
        completed: u64,
        /// Bytes lost to fault-driven aborts.
        aborted: u64,
        /// Bytes still pending on the fast calendar.
        in_flight: u64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::PacketConservation {
                emitted,
                delivered,
                dropped,
                fault_dropped,
                stale,
                in_flight,
            } => write!(
                f,
                "packet conservation: emitted {emitted} != delivered {delivered} \
                 + dropped {dropped} + fault-dropped {fault_dropped} + stale {stale} \
                 + in-flight {in_flight}"
            ),
            AuditViolation::LinkOverDelivery {
                link,
                tx_bytes,
                bound_bytes,
            } => write!(
                f,
                "{link} transmitted {tx_bytes} bytes, above its rate x elapsed \
                 bound of {bound_bytes}"
            ),
            AuditViolation::CalendarInPast { event_at, now } => {
                write!(f, "calendar entry at {event_at} is before the clock {now}")
            }
            AuditViolation::TelemetryAccounting {
                offered,
                captured,
                overflow,
                fault_dropped,
            } => write!(
                f,
                "telemetry accounting: offered {offered} != captured {captured} \
                 + overflow {overflow} + fault-dropped {fault_dropped}"
            ),
            AuditViolation::FlowConservation {
                offered,
                completed,
                aborted,
                in_flight,
            } => write!(
                f,
                "flow conservation: offered {offered} bytes != completed {completed} \
                 + aborted {aborted} + in-flight {in_flight}"
            ),
        }
    }
}

/// Structured report of every invariant violated at one audit point.
///
/// Stringly loud by design: `Display` renders each violation with its
/// numbers, and the report serializes to JSON for machine consumption.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Virtual time the audit ran at.
    pub at: SimTime,
    /// Every invariant that did not hold.
    pub violations: Vec<AuditViolation>,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant audit at {} found {} violation(s):",
            self.at,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditReport {}

/// Audit body shared by [`Simulator::audit`] and the per-barrier hook
/// (which only has the partition slice, not the whole simulator).
fn audit_parts(shared: &SharedCtx, parts: &[Partition], now: SimTime) -> Result<(), AuditReport> {
    let mut violations = Vec::new();

    let mut in_flight = 0u64;
    for p in parts {
        for s in p.events.iter() {
            if matches!(s.ev, Ev::Transmit { .. } | Ev::Deliver { .. }) {
                in_flight += 1;
            }
            if s.at < p.now {
                violations.push(AuditViolation::CalendarInPast {
                    event_at: s.at,
                    now: p.now,
                });
            }
        }
        for outbox in &p.outbox {
            for s in outbox {
                if matches!(s.ev, Ev::Transmit { .. } | Ev::Deliver { .. }) {
                    in_flight += 1;
                }
            }
        }
    }
    let sum_links = |f: fn(&LinkCounters) -> u64| -> u64 {
        shared
            .pmap
            .part_of_link
            .iter()
            .enumerate()
            .map(|(li, &owner)| f(&parts[owner as usize].link_counters[li]))
            .sum()
    };
    let dropped = sum_links(|c| c.drop_packets);
    let fault_dropped = sum_links(|c| c.fault_drop_packets);
    let sum = |f: fn(&part::Counters) -> u64| -> u64 { parts.iter().map(|p| f(&p.counters)).sum() };
    let emitted = sum(|c| c.emitted_packets);
    let delivered = sum(|c| c.delivered_packets);
    let stale = sum(|c| c.stale_packets);
    let accounted = delivered + dropped + fault_dropped + stale + in_flight;
    if emitted != accounted {
        violations.push(AuditViolation::PacketConservation {
            emitted,
            delivered,
            dropped,
            fault_dropped,
            stale,
            in_flight,
        });
    }

    for (li, &owner) in shared.pmap.part_of_link.iter().enumerate() {
        let p = &parts[owner as usize];
        let c = &p.link_counters[li];
        if c.tx_bytes == 0 {
            continue;
        }
        // The link serializes back to back, so its cumulative bytes fit
        // under nominal-rate x the time it has been committed to
        // (`link_free_at`), plus up to one nanosecond of rounding per
        // packet. Degraded rates only lower throughput (factor <= 1),
        // so the nominal rate stays a sound bound.
        let bytes_per_ns = shared.link_gbps[li] * 0.125;
        let busy_ns = p.link_free_at[li].as_nanos();
        let bound = bytes_per_ns * (busy_ns + c.tx_packets + 1) as f64;
        if c.tx_bytes as f64 > bound {
            violations.push(AuditViolation::LinkOverDelivery {
                link: LinkId(li as u32),
                tx_bytes: c.tx_bytes,
                bound_bytes: bound as u64,
            });
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(AuditReport {
            at: now,
            violations,
        })
    }
}

impl<T: PacketTap> Simulator<T> {
    /// Checks the engine's conservation laws, failing with a structured
    /// [`AuditReport`] when any are violated:
    ///
    /// 1. packets emitted = delivered + dropped + fault-dropped + stale +
    ///    in-flight (calendar Transmit/Deliver entries);
    /// 2. per-link transmitted bytes <= line rate x busy time (plus one
    ///    nanosecond of serialization-rounding slack per packet);
    /// 3. every partition's event calendar is monotonic (no entry before
    ///    its clock).
    ///
    /// O(events + links); intended to run at checkpoint boundaries, not in
    /// the hot loop.
    ///
    /// When the hybrid fast path is active a fourth law joins the list:
    /// bytes offered to flow-mode messages = completed + aborted +
    /// in-flight on the fast calendar.
    pub fn audit(&self) -> Result<(), AuditReport> {
        let mut result = audit_parts(&self.shared, &self.parts, self.coord.now);
        let fc = &self.coord.fast.counters;
        let in_flight = self.coord.fast.bytes_in_flight();
        if fc.bytes_offered != fc.bytes_completed + fc.bytes_aborted + in_flight {
            let v = AuditViolation::FlowConservation {
                offered: fc.bytes_offered,
                completed: fc.bytes_completed,
                aborted: fc.bytes_aborted,
                in_flight,
            };
            match &mut result {
                Ok(()) => {
                    result = Err(AuditReport {
                        at: self.coord.now,
                        violations: vec![v],
                    });
                }
                Err(report) => report.violations.push(v),
            }
        }
        result
    }
}
