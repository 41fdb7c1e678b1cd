//! The discrete-event engine.
//!
//! A calendar of timestamped events drives packets across their routes.
//! Each directed link is a FIFO: serialization starts when the link frees,
//! and switch egress queues admit packets against a shared buffer pool
//! with dynamic-threshold sharing (see [`crate::config::BufferConfig`]).
//!
//! # Execution model
//!
//! One plant (the `part` module) holds every link, switch and connection
//! endpoint and drains one event calendar on the caller's thread. The
//! plant is statically divided into topology-fixed *regions* — one per
//! cluster, one per datacenter hub tier, one for the backbone — and
//! every event is keyed `(time, source-region, sequence)`, so the
//! calendar order and the checkpoint bytes are fixed by the topology
//! alone. The run loop advances in *windows* of at most [`WINDOW_CAP`]:
//! each barrier hands the window's tap calls and buffer windows to their
//! consumers and interleaves the hybrid fast calendar at fixed,
//! state-independent points. Outputs are **byte-identical at any
//! `--threads` value**: that flag fans out independent runs and never
//! reaches inside one. DESIGN.md §10 gives the loop and the determinism
//! argument.

mod fidelity;
mod part;
#[cfg(test)]
mod tests;

use crate::config::SimConfig;
use crate::conn::{Conn, ConnPhase, MsgMeta};
use crate::faults::{FaultKind, FaultPlan};
use crate::packet::{ConnId, FlowKey};
use crate::tap::PacketTap;
use fidelity::{FastKind, FastPath};
pub use fidelity::{FidelityConfig, FidelityMode};
use part::{Ev, EvKey, Plant, RegionMap, SamplerShard, Scheduled, SharedCtx, EXT_SRC};
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
/// flow-mode section; version 5 wrote connection endpoints as maps of
/// field names rather than positional rows. None is loadable here
/// (restoring an old checkpoint requires the release that wrote it).
pub const CHECKPOINT_VERSION: u32 = 6;

/// Window length: a window ends at most this long after the calendar
/// head it opened on (sooner at a fast-path instant or the run horizon),
/// fixing how often tap calls and buffer windows are handed over and
/// how far a quiescing plant coasts.
const WINDOW_CAP: SimDuration = SimDuration::from_nanos(1_000_000);

/// Delay after which a cross-region abort notification reaches the peer
/// (a RST surfacing after the fabric round-trip). **Must be ≥
/// [`WINDOW_CAP`]**: an abort at `t` is handled in a window that ends
/// no later than `t + WINDOW_CAP`, so the `PeerGone` at
/// `t + ABORT_NOTIFY_DELAY` always lands in a later window.
const ABORT_NOTIFY_DELAY: SimDuration = WINDOW_CAP;
const _: () = assert!(ABORT_NOTIFY_DELAY.as_nanos() >= WINDOW_CAP.as_nanos());

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

/// Barrier/throughput counters of the window loop, for bench reporting.
/// The event counts are deterministic; the `*_ns` fields are wall-clock
/// measurements (they vary run to run and never feed back into
/// simulation state). Several fields only keep their place for readers
/// that still report them (`perfbench`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelStats {
    /// Windows executed (barriers crossed).
    pub barriers: u64,
    /// Packet events handled across all windows.
    pub events: u64,
    /// Always equal to `events`: one calendar is its own critical path.
    pub bottleneck_events: u64,
    /// Always 0: the calendar drains serially, so nothing is stolen.
    pub steals: u64,
    /// Wall time spent draining windows.
    pub busy_ns: u64,
    /// Always 0: no worker idles at a barrier.
    pub idle_ns: u64,
    /// Always equal to `busy_ns`.
    pub wall_ns: u64,
}

/// Run-loop state outside the plant: the tap and the fast path, which
/// the barriers feed, and the window bookkeeping.
struct Coord<T: PacketTap> {
    tap: T,
    next_port: Vec<u16>,
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
    plant: Plant,
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

        let regions = RegionMap::new(&topo);
        let shared = SharedCtx {
            topo,
            cfg,
            regions,
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
        let plant = Plant::new(&shared);
        let n_switches = shared.switch_cap.len();
        Ok(Simulator {
            shared,
            coord: Coord {
                tap,
                next_port: vec![32768; n_hosts],
                buffer_stats: Vec::new(),
                audit_barriers: false,
                pstats: ParallelStats::default(),
                fast: FastPath::new(n_links, n_switches),
            },
            plant,
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
        self.plant.now
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
        self.plant.processed_events + self.coord.fast.counters.events
    }

    /// Events still on the calendar (including housekeeping samples and
    /// scheduled fast-path flow events).
    pub fn pending_events(&self) -> usize {
        self.plant.events.len() + self.coord.fast.pending()
    }

    /// Current link/switch health under the faults applied so far.
    pub fn health(&self) -> &LinkHealth {
        &self.plant.health
    }

    /// Barrier/utilization counters accumulated so far.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.coord.pstats
    }

    /// Has no effect: the calendar always drains on the caller's thread.
    /// Kept only for the `perfbench` harness, which still calls it;
    /// nothing in this workspace does.
    pub fn set_parallel_width(&mut self, _width: Option<usize>) {}

    /// Runs the invariant audit after each window when enabled,
    /// panicking on the first violation (used by the equivalence and
    /// property suites to check mid-run states the public API cannot
    /// observe).
    pub fn audit_every_barrier(&mut self, on: bool) {
        self.coord.audit_barriers = on;
    }

    /// Schedules one network fault. Telemetry faults are rejected — they
    /// belong to the capture layer, not the engine.
    pub fn inject_fault(&mut self, at: SimTime, kind: FaultKind) -> Result<(), SimError> {
        if at < self.plant.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.plant.now,
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
                // Expand the flap into primitive down/up events so the
                // calendar (and every checkpoint) holds only the kinds the
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
                let gen = self.plant.clients[idx as usize]
                    .as_ref()
                    .expect("a fast slot has a client endpoint")
                    .id
                    .gen;
                let conn = ConnId { idx, gen };
                self.coord.fast.push(at, FastKind::Demote { conn });
            }
        }
        self.plant.push_ext(at, Ev::Fault { kind });
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
        self.plant.link_counters[link.index()]
    }

    /// Live engine totals, observable between run calls (at a barrier, the
    /// only time the public API can see the engine). Deterministic; the
    /// chaos SLO evaluator polls these per window to measure blackhole
    /// durations and recovery.
    pub fn live_counters(&self) -> LiveCounters {
        let c = &self.plant.counters;
        let fc = &self.coord.fast.counters;
        LiveCounters {
            emitted_packets: c.emitted_packets,
            delivered_packets: c.delivered_packets,
            // Fast-path completions ride the same totals the chaos SLOs
            // are defined over: a hybrid run's recovery behaviour is
            // measured on all of its traffic, not just the islands.
            completed_requests: c.completed_requests + fc.completed,
            fault_dropped_packets: self
                .plant
                .link_counters
                .iter()
                .map(|l| l.fault_drop_packets)
                .sum(),
            gray_dropped_packets: c.gray_dropped_packets,
            reroutes: c.reroutes,
            reroute_failures: c.reroute_failures,
            failed_handshakes: c.failed_handshakes,
            aborted_connections: c.aborted_connections + fc.aborted_flows,
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
        // (and the checkpoint) reassembles. Each shard's sample chain is
        // keyed by its region.
        let now = self.plant.now;
        for region in 0..self.shared.regions.n_regions {
            let mut owned = Vec::new();
            let mut orig = Vec::new();
            let mut caps = Vec::new();
            for (i, &sw) in switches.iter().enumerate() {
                if self.shared.regions.region_of_switch[sw.index()] == region {
                    owned.push(sw);
                    orig.push(i as u32);
                    caps.push(self.shared.switch_cap[sw.index()]);
                }
            }
            if owned.is_empty() {
                continue;
            }
            let n = owned.len();
            let p = &mut self.plant;
            // Re-registering replaces the region's shard (the old chain's
            // events die against the fresh shard state).
            p.samplers.retain(|s| s.region != region);
            p.samplers.push(SamplerShard {
                region,
                interval,
                window,
                switches: owned,
                orig,
                caps,
                window_start: now,
                samples: vec![Vec::new(); n],
            });
            p.samplers.sort_by_key(|s| s.region);
            p.push_region(region, now, Ev::BufSample { region });
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
        if at < self.plant.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.plant.now,
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
        let plant = &mut self.plant;
        let id = match plant.free_conns.pop() {
            Some(idx) => {
                // Reusing a quarantined slot evicts the previous
                // incarnation's endpoint halves. Stragglers addressed to
                // the old generation then count as stale instead of being
                // processed by a zombie endpoint — and, just as
                // important, the live tables match exactly what a
                // checkpoint captures, so a restored run evolves
                // identically to an uninterrupted one.
                let old = plant.clients[idx as usize]
                    .take()
                    .expect("a retired slot keeps its client endpoint");
                plant.servers[idx as usize] = None;
                ConnId {
                    idx,
                    gen: old.id.gen + 1,
                }
            }
            None => {
                plant.clients.push(None);
                plant.servers.push(None);
                ConnId {
                    idx: plant.clients.len() as u32 - 1,
                    gen: 0,
                }
            }
        };
        // Route around current faults where possible; when no healthy
        // path exists, pin the nominal route anyway — the SYN dies on the
        // dead hop and the handshake gives up after its retry budget,
        // which is how a real connect() to an unreachable server behaves.
        // (The server endpoint pins its reverse route when the SYN
        // arrives; see `Plant::accept_syn`.)
        let route_fwd = self
            .shared
            .topo
            .route_healthy(client, server, hash, &self.plant.health)
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
                .route_healthy(server, client, hash, &self.plant.health)
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
        self.plant.clients[id.index()] = Some(conn);
        // A fast flow's endpoint record still lives in the plant's
        // tables (checkpoints and slot reuse work unchanged), but no
        // packet handshake is scheduled: the analytic model charges the
        // SYN round trip on the flow's first send, and a later demotion
        // simply schedules the `OpenConn` this branch skipped.
        if !fast {
            self.plant.push_ext(at, Ev::OpenConn { conn: id });
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
        if at < self.plant.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.plant.now,
            });
        }
        if request_bytes == 0 {
            return Err(SimError::EmptyRequest);
        }
        let phase = self
            .plant
            .clients
            .get(conn.index())
            .and_then(Option::as_ref)
            .filter(|c| c.id.gen == conn.gen)
            .ok_or(SimError::NoSuchConn(conn))?
            .phase;
        if phase == ConnPhase::Closed {
            return Err(SimError::ConnClosed(conn));
        }
        if self.coord.fast.is_fast(conn.index()) {
            return self.send_fast(conn, at, request_bytes, response_bytes, service_time);
        }
        self.plant.push_ext(
            at,
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
    /// delays or aborts derived from the same schedule the packet plant
    /// applies.
    fn send_fast(
        &mut self,
        conn: ConnId,
        at: SimTime,
        request_bytes: u64,
        response_bytes: u64,
        service_time: SimDuration,
    ) -> Result<(), SimError> {
        // Heavy-hitter island: hand the flow over and let the packet
        // path carry this message (and all later ones).
        if request_bytes + response_bytes >= self.coord.fast.cfg.heavy_flow_bytes {
            self.coord.demote_to_packet(&mut self.plant, conn, at);
            self.plant.push_ext(
                at,
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
        if at < self.plant.now {
            return Err(SimError::TimeInPast {
                requested: at,
                now: self.plant.now,
            });
        }
        if !self.plant.slot_live(conn) {
            return Err(SimError::NoSuchConn(conn));
        }
        if self.coord.fast.is_fast(conn.index()) {
            // Fast flows close on the fast calendar; if the flow demotes
            // before the FIN instant, the event handler forwards a packet
            // close instead.
            self.coord.fast.push(at, FastKind::Close { conn });
            return Ok(());
        }
        self.plant.push_ext(at, Ev::Close { conn });
        Ok(())
    }
}

/// The hybrid fast path's event handlers. They run from the barrier
/// planner, between windows, against the plant's endpoint tables.
impl<T: PacketTap> Coord<T> {
    /// Evaluates one deferred fast send at its issue instant
    /// `meta.issued_at`: fault state turns into RTO delays or aborts,
    /// everything else becomes analytic transfers on the virtual queues.
    /// Runs from the fast calendar, so evaluation order is global time
    /// order.
    fn fast_send_eval(
        &mut self,
        shared: &SharedCtx,
        plant: &mut Plant,
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
        if !plant.slot_live(conn) {
            self.fast.counters.on_closed += 1;
            return;
        }
        if !self.fast.is_fast(idx) {
            // The flow demoted between issue and send instant: the packet
            // engine carries this message.
            plant.push_ext(
                at,
                Ev::SendMsg {
                    conn,
                    req: request_bytes,
                    meta,
                },
            );
            return;
        }
        let closed = plant.clients[idx]
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
    fn demote_to_packet(&mut self, plant: &mut Plant, conn: ConnId, at: SimTime) {
        let idx = conn.index();
        if !self.fast.is_fast(idx) {
            return;
        }
        self.fast.drop_fast(idx);
        self.fast.counters.demotions += 1;
        let closed = plant.clients[idx]
            .as_ref()
            .map(|c| c.phase == ConnPhase::Closed)
            .unwrap_or(true);
        if closed {
            return;
        }
        plant.push_ext(at, Ev::OpenConn { conn });
    }

    /// Applies every fast-path event due at or before `t`, in canonical
    /// `(at, seq)` order. Runs between windows — the packet clock has
    /// already reached `t` — so completions, latency samples and
    /// retirements land in global time order.
    fn apply_fast_due(&mut self, shared: &SharedCtx, plant: &mut Plant, t: SimTime) {
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
                    self.fast_send_eval(shared, plant, conn, req, meta);
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
                        plant.latencies.push(d);
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
                        plant.latencies.push(latency);
                    }
                }
                FastKind::Demote { conn } => {
                    if plant.slot_live(conn) {
                        self.demote_to_packet(plant, conn, ev.at);
                    }
                }
                FastKind::Abort { conn, bytes } => {
                    self.fast.counters.aborted_messages += 1;
                    self.fast.counters.bytes_aborted += bytes;
                    if plant.slot_live(conn) && self.fast.is_fast(conn.index()) {
                        if let Some(c) = plant.clients[conn.index()].as_mut() {
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
                    if !plant.slot_live(conn) {
                        continue;
                    }
                    if self.fast.is_fast(conn.index()) {
                        if let Some(c) = plant.clients[conn.index()].as_mut() {
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
                        plant.push_ext(ev.at, Ev::Close { conn });
                    }
                }
                FastKind::Retire { idx } => {
                    plant.free_conns.push(idx);
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

    /// Runs windows until `mode` says stop: at each barrier the window's
    /// products are handed over and the next window is planned, then the
    /// plant drains that window. The barrier planner also interleaves
    /// the hybrid fast calendar, at fixed, state-independent points: once
    /// no packet event at or before the next fast instant `tf` is
    /// pending, the packet clock rests at `tf` and every fast event due
    /// there applies; until then, windows end one nanosecond past `tf`.
    fn run_windows(&mut self, mode: StopMode) {
        use sonet_util::obs;
        let shared = &self.shared;
        let coord = &mut self.coord;
        let plant = &mut self.plant;
        // Everything recorded below is write-only side-channel state
        // (DESIGN.md §11): nothing feeds back into event processing, so
        // the calendar stays byte-identical with observability off or
        // on. The counters are published as the delta of `coord.pstats`
        // since `flushed`; the flush below registers them up front, so
        // every observed run reports them in its RUNINFO manifest.
        let obs_on = obs::on();
        let mut flushed = coord.pstats;
        if obs_on {
            flush_counters(&coord.pstats, &mut flushed);
        }
        let mut win_start_us: Option<u64> = None;
        let mut win_idx: u64 = 0;
        // Where the clock last rested — the run's start or the latest
        // fast instant. A drained window leaves `plant.now` at its end,
        // past the last event, so a natural quiesce ends at the later of
        // this and the last handled event.
        let mut rested = plant.now;
        loop {
            if let Some(start) = win_start_us.take() {
                obs::trace::complete("engine.window", obs::trace::Category::Window, start);
            }
            barrier_merge(coord, plant);
            coord.pstats.events += plant.window_events;
            coord.pstats.bottleneck_events += plant.window_events;
            if obs::timeline::installed() {
                // Streaming-timeline window hook: the snapshot scheduler
                // fires when the sim clock crosses the `--obs-interval`
                // schedule. Write-only side channel; two relaxed loads
                // when nothing is due.
                obs::timeline::window_tick(plant.now.as_nanos());
            }
            if obs_on {
                if obs::deep() && plant.window_events > 0 {
                    obs::hist_observe!(
                        "engine.events_per_window",
                        plant.window_events,
                        obs::metrics::BOUNDS_POW4
                    );
                }
                win_idx += 1;
                if win_idx.is_multiple_of(OBS_FLUSH_WINDOWS) {
                    flush_counters(&coord.pstats, &mut flushed);
                    flush_gauges(plant);
                }
            }
            plant.window_events = 0;
            // The fast calendar's next instant this run may reach, and
            // the packet calendar head. While no packet event at or
            // before `tf` is pending, rest the clock at `tf` and apply
            // the fast events due there (they may schedule packet events
            // at `tf` and fast events later on).
            let (next, tf) = loop {
                let next = plant.events.peek_at();
                let tf = coord.fast.peek_at().filter(|&tf| match mode {
                    StopMode::Until(until) => tf <= until,
                    StopMode::Quiescence => true,
                });
                match tf {
                    Some(tf) if next.is_none_or(|t| t > tf) => {
                        plant.now = tf;
                        rested = tf;
                        coord.apply_fast_due(shared, plant, tf);
                    }
                    _ => break (next, tf),
                }
            };
            if coord.audit_barriers {
                if let Err(report) = audit_plant(shared, plant) {
                    panic!("barrier audit failed: {report}");
                }
            }
            // Window horizon: at most `WINDOW_CAP` past the calendar
            // head. The window also stops one nanosecond past the next
            // fast instant, else past `until`; a quiescing run with no
            // fast event left runs on while real events remain.
            let cap = tf.or(match mode {
                StopMode::Until(until) => Some(until),
                StopMode::Quiescence => None,
            });
            let wend = match cap {
                Some(cap) => next
                    .filter(|&t| t <= cap)
                    .map(|t| (cap + SimDuration::from_nanos(1)).min(t + WINDOW_CAP)),
                None => (plant.real_events > 0)
                    .then(|| next.expect("real events imply a calendar head") + WINDOW_CAP),
            };
            let Some(wend) = wend else {
                // Epilogue: rest the clock at `until`, or at the last
                // handled event for a natural quiesce.
                plant.now = match mode {
                    StopMode::Until(until) => until,
                    StopMode::Quiescence => plant.last_at.max(rested),
                };
                // Final drain: whatever the 64-window batching still
                // holds lands in the registry before the run's RUNINFO
                // snapshot is taken.
                if obs_on {
                    flush_counters(&coord.pstats, &mut flushed);
                    flush_gauges(plant);
                }
                return;
            };
            plant.wend = wend;
            coord.pstats.barriers += 1;
            if obs_on {
                let t = next.expect("a scheduled window has a calendar head");
                obs::hist_observe!(
                    "engine.effective_lookahead_ns",
                    (wend - t).as_nanos(),
                    obs::metrics::BOUNDS_POW4
                );
            }
            if obs::deep() {
                win_start_us = Some(obs::trace::now_us());
            }
            let drain_start = std::time::Instant::now();
            plant.drain_window(shared);
            let drain_ns = drain_start.elapsed().as_nanos() as u64;
            coord.pstats.busy_ns += drain_ns;
            coord.pstats.wall_ns += drain_ns;
        }
    }

    /// Finishes the run: flushes telemetry windows and returns the outputs
    /// together with the tap.
    pub fn finish(mut self) -> (SimOutputs, T) {
        let plant = &mut self.plant;
        plant.flush_buffer_windows();
        barrier_merge(&mut self.coord, plant);

        let mut util_series = HashMap::new();
        for (li, &tracked) in self.shared.util_tracked.iter().enumerate() {
            if tracked {
                util_series.insert(
                    LinkId(li as u32),
                    std::mem::take(&mut plant.util_series[li]),
                );
            }
        }
        let c = plant.counters;
        let fc = self.coord.fast.counters;
        let outputs = SimOutputs {
            link_counters: std::mem::take(&mut plant.link_counters),
            util_series,
            util_interval: self.shared.util_interval,
            buffer_stats: std::mem::take(&mut self.coord.buffer_stats),
            emitted_packets: c.emitted_packets,
            delivered_packets: c.delivered_packets,
            completed_requests: c.completed_requests + fc.completed,
            messages_on_closed: c.messages_on_closed + fc.on_closed,
            stale_packets: c.stale_packets,
            faults_applied: c.faults_applied,
            reroutes: c.reroutes,
            reroute_failures: c.reroute_failures,
            failed_handshakes: c.failed_handshakes,
            aborted_connections: c.aborted_connections + fc.aborted_flows,
            gray_dropped_packets: c.gray_dropped_packets,
            rpc_latencies: std::mem::take(&mut plant.latencies),
            flows_fast: fc.flows_fast,
            flows_packet: fc.flows_packet,
            fast_path_demotions: fc.demotions,
            fast_completed_requests: fc.completed,
            fast_bytes_offered: fc.bytes_offered,
            fast_bytes_completed: fc.bytes_completed,
            fast_bytes_aborted: fc.bytes_aborted,
            ended_at: plant.now,
        };
        (outputs, self.coord.tap)
    }
}

/// Flight-recorder flush cadence, in windows. Hybrid runs cut a window at
/// every fast-path event instant (the two calendars interleave there),
/// so they still cross tens of thousands of barriers per simulated
/// half-second — about 35k on the standard capture — and per-window
/// registry traffic is a measurable tax (CI pins `--obs summary` to ≤2%
/// of events/sec). The counters therefore publish every
/// `OBS_FLUSH_WINDOWS` barriers of a run call — exact totals, just
/// batched, with the epilogue publishing the remainder. Gauges refresh
/// on the same cadence (they are last-write snapshots, so sampling loses
/// nothing at the end of the run), and the per-window distribution
/// histogram rides with the other per-window detail in deep mode.
const OBS_FLUSH_WINDOWS: u64 = 64;

/// Publishes `engine.events`, `engine.barriers` and `engine.drain_ns` as
/// the delta of `pstats` since `flushed` (the snapshot of the last
/// flush). The latter two are added even at a zero delta, so every
/// observed run reports them.
fn flush_counters(pstats: &ParallelStats, flushed: &mut ParallelStats) {
    use sonet_util::obs;
    let events = pstats.events - flushed.events;
    if events > 0 {
        obs::counter_add!("engine.events", events);
    }
    let m = obs::metrics::global();
    m.counter("engine.barriers")
        .add(pstats.barriers - flushed.barriers);
    m.counter("engine.drain_ns")
        .add(pstats.busy_ns - flushed.busy_ns);
    *flushed = *pstats;
}

/// Refreshes the snapshot gauges: calendar size and cumulative drops by
/// cause.
fn flush_gauges(plant: &Plant) {
    use sonet_util::obs;
    let c = &plant.counters;
    obs::gauge_set!("engine.calendar_events", plant.real_events);
    obs::gauge_set!("engine.drop.stale_packets", c.stale_packets);
    obs::gauge_set!("engine.drop.messages_on_closed", c.messages_on_closed);
    obs::gauge_set!("engine.drop.reroute_failures", c.reroute_failures);
    obs::gauge_set!("engine.drop.gray_packets", c.gray_dropped_packets);
    obs::gauge_set!("engine.drop.aborted_connections", c.aborted_connections);
}

/// Hands the completed window's products to their consumers: tap calls
/// in the order the calendar produced them, then completed buffer
/// windows ordered by (window start, position in the caller's switch
/// list) — the order a single sampler emits; region shards flush
/// independently, so their windows interleave out of that order. A
/// no-op on a fresh simulator, so the window loop calls it
/// unconditionally; `finish` calls it once more for the sampler's last
/// windows.
fn barrier_merge<T: PacketTap>(coord: &mut Coord<T>, plant: &mut Plant) {
    for t in plant.tap_buf.drain(..) {
        coord.tap.on_packet(t.at, t.link, &t.pkt);
    }
    plant
        .window_stats
        .sort_by_key(|(start, orig, _)| (*start, *orig));
    coord
        .buffer_stats
        .extend(plant.window_stats.drain(..).map(|(_, _, s)| s));
}

// ---------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------

/// Serialized sampler state: the canonical view — the full switch list
/// in registration order with each switch's in-window samples.
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
/// Contains everything the engine mutates: the event calendar (sorted by
/// `(time, source, seq)` key), both endpoint tables, link and switch
/// state, telemetry accumulators, and totals — plus the [`SimConfig`] it
/// ran under. Topology-derived tables are rebuilt from the topology
/// passed to [`Simulator::restore`], so a checkpoint stays small and
/// cannot disagree with the plant it is replayed against. Events are
/// keyed by topology-fixed regions and sequence counters are
/// region-indexed, so checkpoint bytes depend only on the simulated
/// state.
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
    /// then per-DC hub tiers, then the backbone).
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

    /// Accepts only the format version this build writes,
    /// [`CHECKPOINT_VERSION`]. [`Simulator::restore`] checks it, and a
    /// reader can check the version field before decoding the rest, so
    /// that another format fails on its version rather than on its shape.
    pub fn check_version(found: u64) -> Result<(), SimError> {
        if found == u64::from(CHECKPOINT_VERSION) {
            return Ok(());
        }
        Err(SimError::Config(format!(
            "checkpoint mismatch: unsupported checkpoint version {found} \
             (this build reads {CHECKPOINT_VERSION})"
        )))
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
        let p = &self.plant;

        let mut events: Vec<Scheduled> = p.events.iter().collect();
        events.sort_by_key(Scheduled::key);

        // The server endpoint recorded is the one matching the current
        // client generation; a stale half created by a straggler SYN of
        // an earlier incarnation stays behind (it only ever absorbs
        // stragglers).
        let conns_server = p
            .servers
            .iter()
            .zip(&p.clients)
            .map(|(s, c)| match (s, c) {
                (Some(s), Some(c)) if s.id.gen == c.id.gen => Some(s.clone()),
                _ => None,
            })
            .collect();
        let util_series = sh
            .util_tracked
            .iter()
            .enumerate()
            .filter(|(_, &tracked)| tracked)
            .map(|(li, _)| (LinkId(li as u32), p.util_series[li].clone()))
            .collect();

        // Reassemble the canonical sampler from the per-region shards,
        // ordered by each switch's position in the original registration.
        let mut shard_refs: Vec<(&SamplerShard, usize)> = Vec::new();
        for s in &p.samplers {
            for i in 0..s.switches.len() {
                shard_refs.push((s, i));
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

        let c = &p.counters;
        EngineCheckpoint {
            version: CHECKPOINT_VERSION,
            cfg: sh.cfg.clone(),
            now: p.now,
            events,
            next_seqs: p.next_seqs.clone(),
            ext_seq: p.ext_seq,
            conns_client: p.clients.clone(),
            conns_server,
            free_conns: p.free_conns.clone(),
            next_port: self.coord.next_port.clone(),
            link_free_at: p.link_free_at.clone(),
            link_backlog: p.link_backlog.clone(),
            link_counters: p.link_counters.clone(),
            link_rate_factor: p.link_rate_factor.clone(),
            link_gray: p.link_gray.clone(),
            link_gray_seq: p.link_gray_seq.clone(),
            health: p.health.clone(),
            watched: sh.watched.clone(),
            util_tracked: sh.util_tracked.clone(),
            switch_occ: p.switch_occ.clone(),
            util_interval: sh.util_interval,
            util_series,
            buf_sampler,
            buffer_stats: self.coord.buffer_stats.clone(),
            emitted_packets: c.emitted_packets,
            delivered_packets: c.delivered_packets,
            completed_requests: c.completed_requests,
            messages_on_closed: c.messages_on_closed,
            stale_packets: c.stale_packets,
            faults_applied: c.faults_applied,
            reroutes: c.reroutes,
            reroute_failures: c.reroute_failures,
            failed_handshakes: c.failed_handshakes,
            aborted_connections: c.aborted_connections,
            gray_dropped_packets: c.gray_dropped_packets,
            record_latencies: sh.record_latencies,
            latencies: p.latencies.clone(),
            processed_events: p.processed_events,
            fast: self.coord.fast.to_ckpt(p.clients.len()),
        }
    }

    /// Rebuilds a simulator from a checkpoint over the same topology.
    ///
    /// The restored engine is observationally identical to the one that
    /// took the checkpoint: continuing both produces byte-identical
    /// outputs. The tap is supplied by the caller
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
        let n_regions = sh.regions.n_regions as usize;
        let bad = |what: &str| Err(SimError::Config(format!("checkpoint mismatch: {what}")));
        EngineCheckpoint::check_version(ckpt.version.into())?;
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

        // Every allocated slot has a client endpoint (it persists after
        // retirement and carries the slot's generation).
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
            // What each event addresses must exist, or handling it would
            // index past a table.
            let unknown_slot = |conn: &ConnId| conn.index() >= n_slots;
            match &ev.ev {
                Ev::Transmit { pkt, .. } | Ev::Deliver { pkt } => {
                    let hops = pkt.route.checked().unwrap_or_default();
                    if hops.is_empty() || hops.iter().any(|l| l.index() >= n_links) {
                        return bad("packet route is malformed or references an out-of-range link");
                    }
                    if !hosts_in_range(&pkt.p.key) {
                        return bad("packet references an out-of-range host");
                    }
                    if matches!(ev.ev, Ev::Transmit { hop, .. } if hop as usize >= hops.len()) {
                        return bad("transmit event beyond its route");
                    }
                }
                Ev::Release { link, .. } if *link as usize >= n_links => {
                    return bad("release event for an out-of-range link");
                }
                Ev::Rto { conn, .. } if unknown_slot(conn) => {
                    return bad("timer event for an unknown slot");
                }
                Ev::Service { conn, .. } if unknown_slot(conn) => {
                    return bad("service event for an unknown slot");
                }
                Ev::OpenConn { conn }
                | Ev::SynRetry { conn }
                | Ev::SendMsg { conn, .. }
                | Ev::Close { conn }
                | Ev::Retire { conn }
                    if unknown_slot(conn) =>
                {
                    return bad("connection event for an unknown slot");
                }
                Ev::PeerGone { conn, .. } if unknown_slot(conn) => {
                    return bad("peer-gone event for an unknown slot");
                }
                Ev::BufSample { region } if *region as usize >= n_regions => {
                    return bad("buffer sample for an unknown region");
                }
                _ => {}
            }
        }
        // Applying a fault indexes the link and switch tables, on both
        // calendars.
        let faults = ckpt
            .events
            .iter()
            .filter_map(|e| match e.ev {
                Ev::Fault { kind } => Some((e.at, kind)),
                _ => None,
            })
            .chain(ckpt.fast.fault_sched.iter().map(|e| (e.at, e.kind)))
            .fold(FaultPlan::new(), |plan, (at, kind)| plan.at(at, kind));
        if let Err(e) = faults.validate(&sh.topo) {
            return bad(&format!("fault event: {e}"));
        }
        // Each event is on the calendar once, so a shared key means a
        // forged or corrupt file.
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
        if ckpt.util_series.iter().any(|(l, _)| l.index() >= n_links) {
            return bad("utilization series references an out-of-range link");
        }
        let mut samplers = Vec::new();
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
                    if sh.regions.region_of_switch[sw.index()] == region {
                        owned.push(sw);
                        orig.push(i as u32);
                        caps.push(sh.switch_cap[sw.index()]);
                        samples.push(s.samples[i].clone());
                    }
                }
                if owned.is_empty() {
                    continue;
                }
                samplers.push(SamplerShard {
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

        sim.coord.next_port = ckpt.next_port;
        sim.coord.buffer_stats = ckpt.buffer_stats;
        sim.coord.fast.restore(ckpt.fast);
        sim.shared.watched = ckpt.watched;
        sim.shared.util_tracked = ckpt.util_tracked;
        sim.shared.util_interval = ckpt.util_interval;
        sim.shared.record_latencies = ckpt.record_latencies;

        let p = &mut sim.plant;
        p.now = ckpt.now;
        p.wend = ckpt.now;
        p.last_at = ckpt.now;
        p.next_seqs = ckpt.next_seqs;
        p.ext_seq = ckpt.ext_seq;
        p.clients = ckpt.conns_client;
        p.servers = ckpt.conns_server;
        p.free_conns = ckpt.free_conns;
        p.latencies = ckpt.latencies;
        p.link_free_at = ckpt.link_free_at;
        p.link_backlog = ckpt.link_backlog;
        p.link_counters = ckpt.link_counters;
        p.link_rate_factor = ckpt.link_rate_factor;
        p.link_gray = ckpt.link_gray;
        p.link_gray_seq = ckpt.link_gray_seq;
        p.health = ckpt.health;
        p.switch_occ = ckpt.switch_occ;
        for (l, series) in ckpt.util_series {
            p.util_series[l.index()] = series;
        }
        p.samplers = samplers;
        for ev in ckpt.events {
            if !matches!(ev.ev, Ev::BufSample { .. }) {
                p.real_events += 1;
            }
            p.events.push(ev);
        }
        p.counters = part::Counters {
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
        p.processed_events = ckpt.processed_events;
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
/// (which borrows the plant, not the whole simulator).
fn audit_plant(shared: &SharedCtx, plant: &Plant) -> Result<(), AuditReport> {
    let mut violations = Vec::new();

    let mut in_flight = 0u64;
    for s in plant.events.iter() {
        if matches!(s.ev, Ev::Transmit { .. } | Ev::Deliver { .. }) {
            in_flight += 1;
        }
        if s.at < plant.now {
            violations.push(AuditViolation::CalendarInPast {
                event_at: s.at,
                now: plant.now,
            });
        }
    }
    let links = &plant.link_counters;
    let dropped = links.iter().map(|c| c.drop_packets).sum();
    let fault_dropped = links.iter().map(|c| c.fault_drop_packets).sum();
    let c = &plant.counters;
    let emitted = c.emitted_packets;
    let delivered = c.delivered_packets;
    let stale = c.stale_packets;
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

    for (li, c) in links.iter().enumerate() {
        if c.tx_bytes == 0 {
            continue;
        }
        // The link serializes back to back, so its cumulative bytes fit
        // under nominal-rate x the time it has been committed to
        // (`link_free_at`), plus up to one nanosecond of rounding per
        // packet. Degraded rates only lower throughput (factor <= 1),
        // so the nominal rate stays a sound bound.
        let bytes_per_ns = shared.link_gbps[li] * 0.125;
        let busy_ns = plant.link_free_at[li].as_nanos();
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
            at: plant.now,
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
    /// 3. the event calendar is monotonic (no entry before the clock).
    ///
    /// O(events + links); intended to run at checkpoint boundaries, not in
    /// the hot loop.
    ///
    /// When the hybrid fast path is active a fourth law joins the list:
    /// bytes offered to flow-mode messages = completed + aborted +
    /// in-flight on the fast calendar.
    pub fn audit(&self) -> Result<(), AuditReport> {
        let mut result = audit_plant(&self.shared, &self.plant);
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
                        at: self.plant.now,
                        violations: vec![v],
                    });
                }
                Err(report) => report.violations.push(v),
            }
        }
        result
    }
}
