//! Partition-local state and event handling for the conservative
//! parallel engine.
//!
//! The plant decomposes into topology-fixed **regions**: one per
//! cluster, one per datacenter's FC/DR hub tier, and one for the
//! backbone switch. Regions group into one runtime **partition** per
//! datacenter: a DC's clusters and hub tier fold together, and the
//! backbone rides with partition 0. Every piece of mutable simulation
//! state has exactly one owning partition:
//!
//! * link and switch state — owned by the partition of the link's
//!   *transmitting* node;
//! * a connection's client endpoint (send state of the forward direction,
//!   receive state of the reverse, message metadata, handshake state) —
//!   owned by the client host's partition;
//! * the server endpoint — owned by the server host's partition.
//!
//! The two endpoints of a connection never share memory: everything the
//! peer needs travels inside the packet ([`WirePacket`] carries the
//! route it was emitted on, plus request metadata / issue timestamps on
//! message-boundary segments). The only events that cross a partition
//! boundary are `Transmit` hops onto a link owned elsewhere — a DR ↔
//! backbone hop — whose propagation delay is the engine's global
//! conservative lookahead ([`PartitionMap::lookahead`]).
//!
//! Determinism: every event carries the key `(at, src, seq)` where `src`
//! is the **region** of the event's subject — not the partition — or
//! [`EXT_SRC`] for the coordinator, and `seq` a per-region counter
//! advanced only by the region's owning partition. Each partition drains
//! its calendar strictly in key order, and the coordinator merges every
//! cross-partition product (boundary events, tap calls, latency samples,
//! buffer windows) in key order at each barrier — so nothing observable
//! depends on how many worker threads carried the partitions.

use crate::config::SimConfig;
use crate::conn::{Conn, ConnPhase, DirState, MsgMeta};
use crate::faults::FaultKind;
use crate::packet::{ConnId, Dir, Packet, PacketKind};
use serde::{Deserialize, Serialize};
use sonet_topology::{LinkHealth, LinkId, Node, SwitchId, Topology};
use sonet_util::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use super::{BufferWindowStat, LinkCounters, WINDOW_CAP};

/// Source tag for events scheduled by the coordinator (API calls, fault
/// replicas, barrier-injected peer notifications). Sorts after every
/// partition-sourced event at the same instant.
pub(crate) const EXT_SRC: u32 = u32::MAX;

/// Longest route the topology can produce (inter-datacenter: host, RSW,
/// CSW, DR, backbone, DR, CSW, RSW, host = 8 hops).
pub(crate) const MAX_HOPS: usize = 8;

/// A packet's pinned path, copied into the packet at emission time so any
/// partition can forward it without touching the owning connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Route {
    len: u8,
    hops: [LinkId; MAX_HOPS],
}

impl Route {
    pub(crate) fn from_slice(hops: &[LinkId]) -> Route {
        assert!(hops.len() <= MAX_HOPS, "route longer than MAX_HOPS");
        let mut arr = [LinkId(0); MAX_HOPS];
        arr[..hops.len()].copy_from_slice(hops);
        Route {
            len: hops.len() as u8,
            hops: arr,
        }
    }

    pub(crate) fn as_slice(&self) -> &[LinkId] {
        &self.hops[..self.len as usize]
    }

    /// The hops, or `None` when `len` exceeds [`MAX_HOPS`] — only a
    /// corrupt checkpoint can hold such a route.
    pub(crate) fn checked(&self) -> Option<&[LinkId]> {
        self.hops.get(..self.len as usize)
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn last(&self) -> LinkId {
        self.hops[self.len as usize - 1]
    }
}

/// A packet plus the per-flight context that used to live in the
/// connection table: its route, and the application metadata the far
/// endpoint needs when a message boundary arrives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct WirePacket {
    pub p: Packet,
    /// Path the packet was emitted on (reroutes only affect later
    /// emissions, as with real in-flight packets).
    pub route: Route,
    /// On the last client→server segment of a message: the request
    /// metadata the server needs to schedule service.
    pub meta: Option<MsgMeta>,
    /// On the last server→client segment of a response: when the request
    /// it answers was issued (for RPC latency recording).
    pub issued: Option<SimTime>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Ev {
    /// Put `pkt` on hop `hop` of its route.
    Transmit { pkt: WirePacket, hop: u8 },
    /// `pkt` fully arrived at its destination host.
    Deliver { pkt: WirePacket },
    /// A packet finished serializing: release buffer/backlog accounting.
    Release { link: u32, bytes: u32 },
    /// Retransmission timer (fires at the sender of `dir`).
    Rto { conn: ConnId, dir: Dir },
    /// Server finished computing the response to message `msg`.
    Service {
        conn: ConnId,
        msg: u32,
        meta: MsgMeta,
    },
    /// Emit the SYN for a connection.
    OpenConn { conn: ConnId },
    /// Re-emit the SYN if the handshake has not completed yet.
    SynRetry { conn: ConnId },
    /// Application queues a message on a connection.
    SendMsg {
        conn: ConnId,
        req: u64,
        meta: MsgMeta,
    },
    /// Application closes a connection.
    Close { conn: ConnId },
    /// Release a closed connection's slot for reuse after quarantine.
    Retire { conn: ConnId },
    /// Barrier-injected notification that the peer endpoint aborted;
    /// `client` selects which endpoint this event is addressed to.
    PeerGone { conn: ConnId, client: bool },
    /// An injected fault takes effect. One calendar entry per partition
    /// replica, all sharing a single `(at, EXT_SRC, seq)` key so the
    /// canonical (checkpoint) calendar is partition-count-independent.
    Fault { kind: FaultKind },
    /// Periodic buffer occupancy sample for the sampler shard of
    /// `region` (processed by the region's owning partition).
    BufSample { region: u32 },
}

/// Canonical event key: `(at, src, seq)`.
pub(crate) type EvKey = (SimTime, u32, u64);

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Scheduled {
    pub at: SimTime,
    /// Region that scheduled the event ([`EXT_SRC`] for the
    /// coordinator).
    pub src: u32,
    /// Per-source sequence number (schedule order within `src`).
    pub seq: u64,
    pub ev: Ev,
}

impl Scheduled {
    pub(crate) fn key(&self) -> EvKey {
        (self.at, self.src, self.seq)
    }
}

/// An event a [`Calendar`] can hold: a small ordered key entry plus a
/// payload parked in the calendar's slab.
pub(crate) trait CalendarEvent: Sized {
    /// The event's key with its slab slot appended, as one flat tuple:
    /// it orders by the key first, and the slot fills the key's
    /// alignment padding (`(SimTime, u32, u64, u32)` is 24 bytes).
    type Entry: Copy + Ord;
    type Payload;
    fn split(self, slot: u32) -> (Self::Entry, Self::Payload);
    fn join(entry: Self::Entry, payload: Self::Payload) -> Self;
    fn slot(entry: &Self::Entry) -> u32;
    fn at(entry: &Self::Entry) -> SimTime;
}

/// Radix buckets of a [`Calendar`]: one per bit of a 64-bit `at`.
const BUCKETS: usize = 64;

/// An event calendar: a monotone radix queue of key entries over a slab
/// of payloads. The queue moves only the keys; a payload is written once
/// on push and read once on pop. Freed slots are reused last-in
/// first-out, so the hottest slab slot is the next one filled.
///
/// Time is monotone: a push is never earlier than the last pop (`last`).
/// An entry with `at > last` is filed in bucket `b`, the highest set bit
/// of `at ^ last`, so every entry of a lower bucket is earlier than every
/// entry of a higher one and each bucket records its own minimum `at`.
/// Entries at exactly `last` wait in a small heap ordered by the full
/// entry. A pop that finds that heap empty advances `last` to the lowest
/// non-empty bucket's minimum and re-files that bucket — each entry
/// lands strictly lower, so it is moved at most 64 times in its life.
/// Events pop in key order; keys are unique per calendar, so the slot
/// never decides.
pub(crate) struct Calendar<E: CalendarEvent> {
    /// Entries at exactly `last`, in key order.
    ties: BinaryHeap<Reverse<E::Entry>>,
    /// Entries later than `last`, filed by the highest bit of
    /// `at ^ last`. A re-filed bucket keeps its own capacity.
    buckets: [Vec<E::Entry>; BUCKETS],
    /// Smallest `at` of each bucket whose bit is set in `occupied`.
    mins: [SimTime; BUCKETS],
    occupied: u64,
    /// Time of the last pop: no push may be earlier.
    last: SimTime,
    len: usize,
    slab: Vec<Option<E::Payload>>,
    free: Vec<u32>,
}

impl<E: CalendarEvent> Default for Calendar<E> {
    fn default() -> Self {
        Calendar {
            ties: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [SimTime::ZERO; BUCKETS],
            occupied: 0,
            last: SimTime::ZERO,
            len: 0,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<E: CalendarEvent> Calendar<E> {
    /// Schedules `ev`.
    ///
    /// # Panics
    ///
    /// If `ev` is earlier than the last popped event: the engine never
    /// schedules into the past, so such a push is a broken invariant.
    pub(crate) fn push(&mut self, ev: E) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
        });
        let (entry, payload) = ev.split(slot);
        assert!(
            E::at(&entry) >= self.last,
            "calendar push before the last popped time"
        );
        self.slab[slot as usize] = Some(payload);
        self.file(entry);
        self.len += 1;
    }

    /// Files `entry` (never earlier than `last`) by its radix bucket.
    fn file(&mut self, entry: E::Entry) {
        let at = E::at(&entry);
        let diff = at.as_nanos() ^ self.last.as_nanos();
        if diff == 0 {
            self.ties.push(Reverse(entry));
            return;
        }
        let b = 63 - diff.leading_zeros() as usize;
        let bit = 1u64 << b;
        if self.occupied & bit == 0 || at < self.mins[b] {
            self.mins[b] = at;
        }
        self.occupied |= bit;
        self.buckets[b].push(entry);
    }

    /// Time of the earliest event.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        if !self.ties.is_empty() {
            Some(self.last)
        } else if self.occupied != 0 {
            Some(self.mins[self.occupied.trailing_zeros() as usize])
        } else {
            None
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<E> {
        if self.ties.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1u64 << b);
            self.last = self.mins[b];
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            for entry in bucket.drain(..) {
                self.file(entry);
            }
            self.buckets[b] = bucket;
        }
        let Reverse(entry) = self.ties.pop().expect("re-filed the earliest bucket");
        self.len -= 1;
        let slot = E::slot(&entry);
        self.free.push(slot);
        let payload = self.slab[slot as usize].take().expect("live slot");
        Some(E::join(entry, payload))
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Copies of the pending events, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = E> + '_
    where
        E::Payload: Clone,
    {
        self.ties
            .iter()
            .map(|r| r.0)
            .chain(self.buckets.iter().flatten().copied())
            .map(|entry| {
                let payload = self.slab[E::slot(&entry) as usize].clone();
                E::join(entry, payload.expect("live slot"))
            })
    }
}

impl CalendarEvent for Scheduled {
    type Entry = (SimTime, u32, u64, u32);
    type Payload = Ev;

    fn split(self, slot: u32) -> (Self::Entry, Ev) {
        ((self.at, self.src, self.seq, slot), self.ev)
    }

    fn join((at, src, seq, _): Self::Entry, ev: Ev) -> Scheduled {
        Scheduled { at, src, seq, ev }
    }

    fn slot(entry: &Self::Entry) -> u32 {
        entry.3
    }

    fn at(entry: &Self::Entry) -> SimTime {
        entry.0
    }
}

/// Static decomposition of the plant: topology-fixed regions (clusters,
/// per-DC hub tiers, backbone) grouped into one runtime partition per
/// datacenter.
#[derive(Debug, Clone)]
pub(crate) struct PartitionMap {
    pub n_parts: u32,
    /// Region count — clusters + datacenters + 1 (backbone). Fixed by
    /// the topology; event sources and checkpoint sequence counters are
    /// region-indexed.
    pub n_regions: u32,
    pub part_of_host: Vec<u32>,
    pub part_of_switch: Vec<u32>,
    /// Partition of the link's *transmitting* node — the owner of the
    /// link's queue, counters and utilization bins.
    pub part_of_link: Vec<u32>,
    /// Region of each host (= its cluster).
    pub region_of_host: Vec<u32>,
    /// Region of each switch: its cluster; else its datacenter's hub
    /// region; else the backbone region.
    pub region_of_switch: Vec<u32>,
    /// Region of each link's transmitting node.
    pub region_of_link: Vec<u32>,
    /// Owning partition of each region.
    pub part_of_region: Vec<u32>,
    /// Global conservative lookahead: the smallest propagation delay over
    /// links whose endpoints sit in different partitions, capped at
    /// [`WINDOW_CAP`]. No event handled at `t` can schedule into another
    /// partition before `t + lookahead`.
    pub lookahead: SimDuration,
}

impl PartitionMap {
    /// Folds each cluster and hub region into its datacenter's partition
    /// and the backbone into partition 0.
    pub(crate) fn new(topo: &Topology) -> PartitionMap {
        let n_clusters = topo.clusters().len() as u32;
        let n_dcs = topo.datacenters().len() as u32;
        let backbone_region = n_clusters + n_dcs;
        let n_regions = backbone_region + 1;

        let region_of_host: Vec<u32> = topo
            .hosts()
            .iter()
            .map(|h| h.cluster.index() as u32)
            .collect();
        let region_of_switch: Vec<u32> = topo
            .switches()
            .iter()
            .map(|s| match (s.cluster, s.datacenter) {
                (Some(c), _) => c.index() as u32,
                (None, Some(d)) => n_clusters + d.index() as u32,
                (None, None) => backbone_region,
            })
            .collect();
        let region_of_node = |n: Node| match n {
            Node::Host(h) => region_of_host[h.index()],
            Node::Switch(s) => region_of_switch[s.index()],
        };
        let region_of_link: Vec<u32> = topo
            .links()
            .iter()
            .map(|l| region_of_node(l.from))
            .collect();

        let part_of_region: Vec<u32> = topo
            .clusters()
            .iter()
            .map(|c| c.datacenter.index() as u32)
            .chain(0..n_dcs)
            .chain([0])
            .collect();
        let part_of_host: Vec<u32> = region_of_host
            .iter()
            .map(|&r| part_of_region[r as usize])
            .collect();
        let part_of_switch: Vec<u32> = region_of_switch
            .iter()
            .map(|&r| part_of_region[r as usize])
            .collect();
        let part_of_node = |n: Node| match n {
            Node::Host(h) => part_of_host[h.index()],
            Node::Switch(s) => part_of_switch[s.index()],
        };
        let part_of_link: Vec<u32> = topo.links().iter().map(|l| part_of_node(l.from)).collect();
        let lookahead = topo
            .links()
            .iter()
            .filter(|l| part_of_node(l.from) != part_of_node(l.to))
            .map(|l| SimDuration::from_nanos(l.propagation_ns))
            .fold(WINDOW_CAP, SimDuration::min);
        PartitionMap {
            n_parts: n_dcs.max(1),
            n_regions,
            part_of_host,
            part_of_switch,
            part_of_link,
            region_of_host,
            region_of_switch,
            region_of_link,
            part_of_region,
            lookahead,
        }
    }
}

/// Read-only context shared by every partition during a window: the
/// topology-derived tables and the quasi-static configuration that only
/// the coordinator mutates (and only between windows).
pub(crate) struct SharedCtx {
    pub topo: Arc<Topology>,
    pub cfg: SimConfig,
    pub pmap: PartitionMap,
    pub link_gbps: Vec<f64>,
    pub link_prop: Vec<u64>,
    pub link_from_switch: Vec<Option<u32>>,
    pub switch_cap: Vec<u64>,
    pub switch_alpha: Vec<f64>,
    pub watched: Vec<bool>,
    pub util_tracked: Vec<bool>,
    pub util_interval: Option<SimDuration>,
    pub record_latencies: bool,
}

/// Partition-local totals, summed by the coordinator for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub emitted_packets: u64,
    pub delivered_packets: u64,
    pub completed_requests: u64,
    pub messages_on_closed: u64,
    pub stale_packets: u64,
    pub faults_applied: u64,
    pub reroutes: u64,
    pub reroute_failures: u64,
    pub failed_handshakes: u64,
    pub aborted_connections: u64,
    pub gray_dropped_packets: u64,
}

/// Per-region buffer occupancy sampler shard over the switches of one
/// region (held by the region's owning partition).
/// `orig[i]` is the switch's index in the full list the caller
/// registered, which keys the canonical merge order of the produced
/// windows.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartSampler {
    /// Region whose switches this shard samples (keys the shard's
    /// `BufSample` event chain).
    pub region: u32,
    pub interval: SimDuration,
    pub window: SimDuration,
    pub switches: Vec<SwitchId>,
    pub orig: Vec<u32>,
    /// Shared-pool capacity of each sampled switch (for normalization).
    pub caps: Vec<u64>,
    pub window_start: SimTime,
    pub samples: Vec<Vec<u64>>,
}

/// A buffered tap call: the key of the event that produced it, plus the
/// exact arguments the serial engine would have passed.
#[derive(Debug, Clone)]
pub(crate) struct TapCall {
    pub key: EvKey,
    pub at: SimTime,
    pub link: LinkId,
    pub pkt: Packet,
}

/// One partition: a sequential discrete-event simulator over its owned
/// slice of the plant.
pub(crate) struct Partition {
    pub idx: u32,
    pub now: SimTime,
    /// Exclusive end of the current window (set by the coordinator).
    pub wend: SimTime,
    /// Key of the event currently being handled (tags buffered outputs).
    cur_key: EvKey,
    /// Region of the event currently being handled — the `src` every
    /// event scheduled by the handler is keyed with.
    cur_region: u32,
    pub events: Calendar<Scheduled>,
    /// Per-region sequence counters (full region-count size; only the
    /// regions this partition owns ever advance). Region-scoped so event
    /// keys — and checkpoints — are fixed by the topology alone.
    pub next_seqs: Vec<u64>,
    /// Client endpoints, dense by connection slot (None = this partition
    /// does not own the slot's client side).
    pub clients: Vec<Option<Conn>>,
    /// Server endpoints, dense by connection slot.
    pub servers: Vec<Option<Conn>>,
    // Link/switch state: full-size dense vectors; only owned indices are
    // ever touched, so non-owned entries stay at their defaults.
    pub link_free_at: Vec<SimTime>,
    pub link_backlog: Vec<u64>,
    pub link_counters: Vec<LinkCounters>,
    pub link_rate_factor: Vec<f64>,
    /// Gray-failure drop fraction per link (0.0 = healthy). Unlike the
    /// health mask this is invisible to routing — that is the point.
    pub link_gray: Vec<f64>,
    /// Per-link count of packets offered to a gray link so far: the
    /// deterministic sequence number feeding the drop decision. Only the
    /// link's owner advances it, so it is width-independent.
    pub link_gray_seq: Vec<u64>,
    /// Replica of the fault-health state. Every partition processes the
    /// same fault schedule in the same key order, so replicas agree at
    /// every barrier.
    pub health: LinkHealth,
    pub switch_occ: Vec<u64>,
    pub util_series: Vec<Vec<u64>>,
    /// Sampler shards for the regions this partition owns, ordered by
    /// region.
    pub buf_samplers: Vec<PartSampler>,
    // Per-window products, drained by the coordinator at each barrier.
    /// Cross-partition events, indexed by target partition.
    pub outbox: Vec<Vec<Scheduled>>,
    pub tap_buf: Vec<TapCall>,
    pub lat_buf: Vec<(EvKey, SimDuration)>,
    /// Completed buffer windows: (window start, original switch index,
    /// stat).
    pub window_stats: Vec<(SimTime, u32, BufferWindowStat)>,
    /// Endpoints that aborted this window: (event key, conn, true when
    /// the *client* endpoint aborted).
    pub aborted_buf: Vec<(EvKey, ConnId, bool)>,
    /// Connection slots retired this window, with the retiring event's
    /// key — the granularity-independent order `free_conns` grows in.
    pub retired_buf: Vec<(EvKey, u32)>,
    pub counters: Counters,
    /// Non-housekeeping events in this partition's calendar + outboxes.
    pub real_events: u64,
    pub processed_events: u64,
    /// Events handled in the current window (for load accounting — fault
    /// replicas and everything else count here).
    pub window_events: u64,
    /// The `processed_events` contribution of the current window: like
    /// `window_events` but counting fault replicas only once (on
    /// partition 0), so the total is partition-count-independent.
    pub window_counted: u64,
    /// Timestamp of the last handled event (quiescence clock).
    pub last_at: SimTime,
}

impl Partition {
    pub(crate) fn new(idx: u32, sh: &SharedCtx) -> Partition {
        let n_links = sh.topo.links().len();
        let n_switches = sh.topo.switches().len();
        Partition {
            idx,
            now: SimTime::ZERO,
            wend: SimTime::ZERO,
            cur_key: (SimTime::ZERO, 0, 0),
            cur_region: 0,
            events: Calendar::default(),
            next_seqs: vec![0; sh.pmap.n_regions as usize],
            clients: Vec::new(),
            servers: Vec::new(),
            link_free_at: vec![SimTime::ZERO; n_links],
            link_backlog: vec![0; n_links],
            link_counters: vec![LinkCounters::default(); n_links],
            link_rate_factor: vec![1.0; n_links],
            link_gray: vec![0.0; n_links],
            link_gray_seq: vec![0; n_links],
            health: LinkHealth::new(&sh.topo),
            switch_occ: vec![0; n_switches],
            util_series: vec![Vec::new(); n_links],
            buf_samplers: Vec::new(),
            outbox: vec![Vec::new(); sh.pmap.n_parts as usize],
            tap_buf: Vec::new(),
            lat_buf: Vec::new(),
            window_stats: Vec::new(),
            aborted_buf: Vec::new(),
            retired_buf: Vec::new(),
            counters: Counters::default(),
            real_events: 0,
            processed_events: 0,
            window_events: 0,
            window_counted: 0,
            last_at: SimTime::ZERO,
        }
    }

    /// Pushes a coordinator-scheduled event (no ownership routing; the
    /// coordinator already picked this partition).
    pub(crate) fn push_ext(&mut self, at: SimTime, seq: u64, ev: Ev) {
        if !matches!(ev, Ev::BufSample { .. }) {
            self.real_events += 1;
        }
        self.events.push(Scheduled {
            at,
            src: EXT_SRC,
            seq,
            ev,
        });
    }

    /// Coordinator-side scheduling under a *region* key: consumes the
    /// region's sequence counter, exactly as a handler running in that
    /// region would (used to seed per-region event chains like the
    /// buffer sampler's).
    pub(crate) fn push_region(&mut self, sh: &SharedCtx, region: u32, at: SimTime, ev: Ev) {
        debug_assert_eq!(sh.pmap.part_of_region[region as usize], self.idx);
        if !matches!(ev, Ev::BufSample { .. }) {
            self.real_events += 1;
        }
        let seq = self.next_seqs[region as usize];
        self.next_seqs[region as usize] += 1;
        self.events.push(Scheduled {
            at,
            src: region,
            seq,
            ev,
        });
    }

    /// Schedules a partition-local event, keyed by the region of the
    /// event currently being handled.
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        if !matches!(ev, Ev::BufSample { .. }) {
            self.real_events += 1;
        }
        let src = self.cur_region;
        let seq = self.next_seqs[src as usize];
        self.next_seqs[src as usize] += 1;
        self.events.push(Scheduled { at, src, seq, ev });
    }

    /// Schedules an event into another partition's next window. The
    /// conservative protocol guarantees `at >= wend` for every such
    /// event, so the target merges it before opening the window that
    /// could process it.
    fn schedule_cross(&mut self, target: u32, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now);
        // real_events is credited to the *target* when the coordinator
        // merges the outbox at the barrier.
        let src = self.cur_region;
        let seq = self.next_seqs[src as usize];
        self.next_seqs[src as usize] += 1;
        self.outbox[target as usize].push(Scheduled { at, src, seq, ev });
    }

    /// Region of the event's subject: the host/link it touches, or the
    /// endpoint host it addresses — the `src` its handler schedules
    /// under. Fixed by the topology, never by the grouping.
    fn region_of_event(&self, sh: &SharedCtx, ev: &Ev) -> u32 {
        let pm = &sh.pmap;
        match ev {
            Ev::Transmit { pkt, hop } => {
                pm.region_of_link[pkt.route.as_slice()[*hop as usize].index()]
            }
            Ev::Deliver { pkt } => pm.region_of_host[pkt.p.wire_dst().index()],
            Ev::Release { link, .. } => pm.region_of_link[*link as usize],
            Ev::Rto { conn, dir } => self.conn_region(sh, *conn, *dir == Dir::ClientToServer),
            Ev::Service { conn, .. } => self.conn_region(sh, *conn, false),
            Ev::OpenConn { conn }
            | Ev::SynRetry { conn }
            | Ev::SendMsg { conn, .. }
            | Ev::Close { conn }
            | Ev::Retire { conn } => self.conn_region(sh, *conn, true),
            Ev::PeerGone { conn, client } => self.conn_region(sh, *conn, *client),
            // Fault handlers never schedule, so the region is unused;
            // BufSample chains carry their region explicitly.
            Ev::Fault { .. } => 0,
            Ev::BufSample { region } => *region,
        }
    }

    /// Region of the addressed endpoint's host. A dead or superseded
    /// endpoint returns region 0 — its handler no-ops and schedules
    /// nothing, so the value never reaches an event key.
    fn conn_region(&self, sh: &SharedCtx, conn: ConnId, client: bool) -> u32 {
        let table = if client { &self.clients } else { &self.servers };
        match table.get(conn.index()).and_then(Option::as_ref) {
            Some(c) => {
                let host = if client { c.key.client } else { c.key.server };
                sh.pmap.region_of_host[host.index()]
            }
            None => 0,
        }
    }

    /// Drains every event with `at < self.wend`, in key order.
    pub(crate) fn drain_window(&mut self, sh: &SharedCtx) {
        while self.events.peek_at().is_some_and(|at| at < self.wend) {
            let sched = self.events.pop().expect("peeked");
            self.now = sched.at;
            self.last_at = sched.at;
            self.cur_key = sched.key();
            self.cur_region = self.region_of_event(sh, &sched.ev);
            if !matches!(sched.ev, Ev::BufSample { .. }) {
                self.real_events -= 1;
            }
            // Fault replicas are processed once per partition but exist
            // once in the canonical calendar: count them only on
            // partition 0 so `processed_events` is grouping-independent.
            if !matches!(sched.ev, Ev::Fault { .. }) || self.idx == 0 {
                self.processed_events += 1;
                self.window_counted += 1;
            }
            self.window_events += 1;
            self.handle(sh, sched.ev);
        }
        self.now = self.wend;
    }

    fn handle(&mut self, sh: &SharedCtx, ev: Ev) {
        match ev {
            Ev::Transmit { pkt, hop } => self.on_transmit(sh, pkt, hop),
            Ev::Deliver { pkt } => self.on_deliver(sh, pkt),
            Ev::Release { link, bytes } => {
                self.link_backlog[link as usize] -= bytes as u64;
                if let Some(sw) = sh.link_from_switch[link as usize] {
                    self.switch_occ[sw as usize] -= bytes as u64;
                }
            }
            Ev::Rto { conn, dir } => {
                if self.half_live(dir == Dir::ClientToServer, conn) {
                    self.on_rto(sh, conn, dir);
                }
            }
            Ev::Service { conn, msg, meta } => {
                if self.half_live(false, conn) {
                    self.on_service(sh, conn, msg, meta);
                }
            }
            Ev::OpenConn { conn } => {
                if self.half_live(true, conn) {
                    self.on_open(sh, conn);
                }
            }
            Ev::SynRetry { conn } => {
                if self.half_live(true, conn)
                    && self.clients[conn.index()].as_ref().expect("live").phase
                        == ConnPhase::Opening
                {
                    self.on_open(sh, conn);
                }
            }
            Ev::SendMsg { conn, req, meta } => {
                if self.half_live(true, conn) {
                    self.on_send_msg(sh, conn, req, meta);
                }
            }
            Ev::Close { conn } => {
                if self.half_live(true, conn) {
                    self.on_close(sh, conn);
                }
            }
            Ev::Retire { conn } => {
                if self.half_live(true, conn) {
                    self.retired_buf.push((self.cur_key, conn.idx));
                }
            }
            Ev::PeerGone { conn, client } => self.on_peer_gone(sh, conn, client),
            Ev::Fault { kind } => self.on_fault(kind),
            Ev::BufSample { region } => self.on_buf_sample(region),
        }
    }

    /// True if this partition holds the given endpoint of `conn`'s
    /// current incarnation.
    fn half_live(&self, client: bool, conn: ConnId) -> bool {
        let table = if client { &self.clients } else { &self.servers };
        table
            .get(conn.index())
            .and_then(Option::as_ref)
            .is_some_and(|c| c.id == conn)
    }

    // ------------------------------------------------------------------
    // Network path
    // ------------------------------------------------------------------

    fn on_transmit(&mut self, sh: &SharedCtx, pkt: WirePacket, hop: u8) {
        let route = pkt.route;
        let link = route.as_slice()[hop as usize];
        let last_hop = hop as usize + 1 == route.len();
        let li = link.index();
        debug_assert_eq!(sh.pmap.part_of_link[li], self.idx, "foreign link transmit");
        let w = pkt.p.wire_bytes;

        // A dead link (or dead switch endpoint) eats the packet; the
        // transport's retransmission machinery — not the network — is
        // responsible for recovery, exactly as with a real outage.
        if !self.health.all_up() && !self.health.link_usable(&sh.topo, link) {
            self.link_counters[li].fault_drop_bytes += w as u64;
            self.link_counters[li].fault_drop_packets += 1;
            return;
        }

        // A gray link looks healthy to routing (ECMP keeps using it) but
        // silently eats a deterministic pseudo-random fraction of offered
        // packets. The per-link offer counter — not an RNG stream — feeds
        // the decision, so it is identical at every worker width.
        let gray = self.link_gray[li];
        if gray > 0.0 {
            let seq = self.link_gray_seq[li];
            self.link_gray_seq[li] = seq + 1;
            if gray_drop(li as u64, seq, gray) {
                self.link_counters[li].fault_drop_bytes += w as u64;
                self.link_counters[li].fault_drop_packets += 1;
                self.counters.gray_dropped_packets += 1;
                return;
            }
        }

        // Shared-buffer admission at switch egress.
        if let Some(sw) = sh.link_from_switch[li] {
            let swi = sw as usize;
            let free = sh.switch_cap[swi].saturating_sub(self.switch_occ[swi]);
            let dt_limit = (sh.switch_alpha[swi] * free as f64) as u64;
            if self.link_backlog[li] + w as u64 > dt_limit
                || self.switch_occ[swi] + w as u64 > sh.switch_cap[swi]
            {
                self.link_counters[li].drop_bytes += w as u64;
                self.link_counters[li].drop_packets += 1;
                return;
            }
            self.switch_occ[swi] += w as u64;
            self.link_backlog[li] += w as u64;
        } else {
            self.link_backlog[li] += w as u64;
        }

        let start = self.now.max(self.link_free_at[li]);
        let gbps = sh.link_gbps[li] * self.link_rate_factor[li];
        let end = start + SimDuration::for_bytes_at_gbps(w as u64, gbps);
        self.link_free_at[li] = end;
        self.link_counters[li].tx_bytes += w as u64;
        self.link_counters[li].tx_packets += 1;
        self.schedule(
            end,
            Ev::Release {
                link: li as u32,
                bytes: w,
            },
        );

        if sh.watched[li] {
            self.tap_buf.push(TapCall {
                key: self.cur_key,
                at: end,
                link,
                pkt: pkt.p,
            });
        }
        if sh.util_tracked[li] {
            let interval = sh.util_interval.expect("tracked links imply interval");
            let idx = end.bin_index(interval) as usize;
            let series = &mut self.util_series[li];
            if series.len() <= idx {
                series.resize(idx + 1, 0);
            }
            series[idx] += w as u64;
        }

        let arrive = end + SimDuration::from_nanos(sh.link_prop[li]);
        let next = if last_hop {
            Ev::Deliver { pkt }
        } else {
            Ev::Transmit { pkt, hop: hop + 1 }
        };
        // The only event that can cross a partition boundary: the next
        // hop of an inter-datacenter route. Its delay from now is at
        // least this link's propagation, which is at least the lookahead.
        let target = if last_hop {
            sh.pmap.part_of_host[pkt.p.wire_dst().index()]
        } else {
            sh.pmap.part_of_link[route.as_slice()[hop as usize + 1].index()]
        };
        if target == self.idx {
            self.schedule(arrive, next);
        } else {
            self.schedule_cross(target, arrive, next);
        }
    }

    fn on_deliver(&mut self, sh: &SharedCtx, pkt: WirePacket) {
        let p = pkt.p;
        let ci = p.conn.index();
        // The receiving endpoint: client→server packets land on the
        // server half, server→client packets on the client half.
        let to_server = p.dir == Dir::ClientToServer;
        let live = if matches!(p.kind, PacketKind::Syn) {
            // A SYN creates the server endpoint (below) unless a newer
            // incarnation already owns the slot.
            self.servers
                .get(ci)
                .and_then(Option::as_ref)
                .is_none_or(|c| c.id.gen <= p.conn.gen)
        } else {
            self.half_live(!to_server, p.conn)
        };
        if !live {
            self.counters.stale_packets += 1;
            return;
        }
        // The access link died while the packet was propagating on it:
        // the packet is lost with the link.
        if !self.health.all_up() {
            let last = pkt.route.last();
            if !self.health.link_usable(&sh.topo, last) {
                self.link_counters[last.index()].fault_drop_bytes += p.wire_bytes as u64;
                self.link_counters[last.index()].fault_drop_packets += 1;
                return;
            }
        }
        self.counters.delivered_packets += 1;
        match p.kind {
            PacketKind::Syn => {
                self.accept_syn(sh, &pkt);
            }
            PacketKind::SynAck => {
                let conn = self.clients[ci].as_mut().expect("live client");
                if conn.phase == ConnPhase::Opening {
                    conn.phase = ConnPhase::Open;
                    let queued = std::mem::take(&mut conn.pre_open);
                    for (req, meta) in queued {
                        self.queue_request(sh, p.conn, req, meta);
                    }
                }
            }
            PacketKind::Data { last_of_msg } => self.on_data(sh, pkt, last_of_msg),
            PacketKind::Ack | PacketKind::FinAck => self.on_ack(sh, p),
            PacketKind::Fin => {
                let conn = self.servers[ci].as_mut().expect("live server");
                conn.phase = ConnPhase::Closed;
                let received = conn.dir_mut(p.dir).received;
                self.emit(sh, p.conn, p.dir.flip(), PacketKind::FinAck, received, 0, 0);
            }
        }
    }

    /// Handles a delivered SYN: creates (or refreshes nothing on) the
    /// server endpoint and accepts immediately with a SYN-ACK, as the
    /// serial engine did. The reverse route is hashed against the health
    /// state at SYN arrival — the first moment the server partition
    /// knows the connection exists.
    fn accept_syn(&mut self, sh: &SharedCtx, pkt: &WirePacket) {
        let p = pkt.p;
        let ci = p.conn.index();
        let present = self.servers[ci].as_ref().is_some_and(|c| c.id == p.conn);
        if !present {
            let key = p.key;
            let hash = key.ecmp_hash();
            let route_rev = sh
                .topo
                .route_healthy(key.server, key.client, hash, &self.health)
                .or_else(|_| sh.topo.route(key.server, key.client, hash))
                .expect("a delivered SYN implies a connectable pair");
            self.servers[ci] = Some(Conn {
                id: p.conn,
                key,
                phase: ConnPhase::Open,
                route_fwd: Vec::new(),
                route_rev,
                c2s: DirState::default(),
                s2c: DirState::default(),
                msg_meta: Vec::new(),
                resp_req_issued: Vec::new(),
                pre_open: Vec::new(),
                next_server_msg: 0,
                syn_attempts: 0,
                opened_at: self.now,
            });
        }
        self.emit(sh, p.conn, Dir::ServerToClient, PacketKind::SynAck, 0, 0, 0);
    }

    fn on_data(&mut self, sh: &SharedCtx, pkt: WirePacket, last_of_msg: bool) {
        let p = pkt.p;
        let ci = p.conn.index();
        let to_server = p.dir == Dir::ClientToServer;
        let ack_every = sh.cfg.ack_every;
        let (send_ack, fresh_boundary, was_dup) = {
            let rs = self.half_mut(!to_server, ci).dir_mut(p.dir);
            if p.seq == rs.received {
                rs.received += 1;
                rs.unacked_by_us += 1;
                let boundary = last_of_msg;
                let fresh_boundary = boundary && rs.last_msg_completed.is_none_or(|m| p.msg > m);
                if fresh_boundary {
                    rs.last_msg_completed = Some(p.msg);
                }
                let ack_now = rs.unacked_by_us >= ack_every || boundary;
                if ack_now {
                    rs.unacked_by_us = 0;
                }
                (ack_now, fresh_boundary, false)
            } else {
                // Out-of-order duplicate (post-retransmission): re-ACK.
                (true, false, true)
            }
        };
        if send_ack {
            if was_dup {
                // A duplicate is also the receiver's only signal that its
                // own ACK path may be dead (the sender keeps
                // retransmitting because nothing comes back), so heal the
                // pinned route we answer on before spending the ACK.
                self.maybe_heal_route(sh, ci, !to_server);
            }
            let cum = self.half_mut(!to_server, ci).dir_mut(p.dir).received;
            self.emit(sh, p.conn, p.dir.flip(), PacketKind::Ack, cum, 0, 0);
        }
        if fresh_boundary && to_server {
            // A request fully arrived at the server.
            self.counters.completed_requests += 1;
            let meta = pkt.meta.expect("last client->server segment carries meta");
            if meta.response_bytes > 0 {
                self.schedule(
                    self.now + meta.service_time,
                    Ev::Service {
                        conn: p.conn,
                        msg: p.msg,
                        meta,
                    },
                );
            } else if sh.record_latencies {
                // One-way message: complete when the request lands.
                self.lat_buf
                    .push((self.cur_key, self.now.saturating_since(meta.issued_at)));
            }
        }
        if fresh_boundary && !to_server && sh.record_latencies {
            // The response fully arrived back at the client: RPC done.
            if let Some(issued) = pkt.issued {
                self.lat_buf
                    .push((self.cur_key, self.now.saturating_since(issued)));
            }
        }
    }

    fn on_ack(&mut self, sh: &SharedCtx, p: Packet) {
        let ci = p.conn.index();
        let data_dir = p.dir.flip();
        let sender_is_client = data_dir == Dir::ClientToServer;
        {
            let ds = self.half_mut(sender_is_client, ci).dir_mut(data_dir);
            if p.seq > ds.acked {
                let newly = p.seq - ds.acked;
                ds.acked = p.seq;
                ds.consecutive_rtos = 0;
                for _ in 0..newly {
                    ds.unacked.pop();
                }
            } else {
                return;
            }
        }
        self.pump(sh, p.conn, data_dir);
    }

    fn on_rto(&mut self, sh: &SharedCtx, conn: ConnId, dir: Dir) {
        let ci = conn.index();
        let is_client = dir == Dir::ClientToServer;
        let rto = sh.cfg.rto;
        #[derive(PartialEq)]
        enum Action {
            Idle,
            Rearm,
            Retransmit,
        }
        let action = {
            let ds = self.half_mut(is_client, ci).dir_mut(dir);
            ds.rto_armed = false;
            if ds.in_flight() == 0 {
                Action::Idle
            } else if ds.acked > ds.acked_at_arm {
                ds.rto_armed = true;
                ds.acked_at_arm = ds.acked;
                Action::Rearm
            } else {
                Action::Retransmit
            }
        };
        match action {
            Action::Idle => {}
            Action::Rearm => {
                let at = self.now + rto;
                self.schedule(at, Ev::Rto { conn, dir });
            }
            Action::Retransmit => {
                // No progress since arming. If the pinned route broke,
                // first try to re-hash onto surviving equal-cost paths
                // (control-plane convergence, surfaced at transport
                // timescale); if no alternative exists, count the barren
                // retransmissions and eventually abort instead of
                // retrying into a dead link forever. On a healthy route,
                // retransmit indefinitely as plain go-back-N.
                if self.route_is_broken(sh, ci, is_client) && !self.try_reroute(sh, ci, is_client) {
                    let already_closed = self.half_mut(is_client, ci).phase == ConnPhase::Closed;
                    let ds = self.half_mut(is_client, ci).dir_mut(dir);
                    ds.consecutive_rtos += 1;
                    if ds.consecutive_rtos > sh.cfg.max_consecutive_rtos {
                        if !already_closed {
                            self.counters.aborted_connections += 1;
                        }
                        self.abort_half(sh, conn, is_client);
                        return;
                    }
                } else {
                    self.half_mut(is_client, ci).dir_mut(dir).consecutive_rtos = 0;
                }
                // Go-back-N: everything unacked returns to the head of
                // the pending queue and is re-sent under the window.
                let ds = self.half_mut(is_client, ci).dir_mut(dir);
                ds.sent = ds.acked;
                let unacked = std::mem::take(&mut ds.unacked);
                ds.pending.prepend(unacked);
                self.pump(sh, conn, dir);
            }
        }
    }

    fn on_service(&mut self, sh: &SharedCtx, conn: ConnId, _msg: u32, meta: MsgMeta) {
        let ci = conn.index();
        let resp_id = {
            let c = self.servers[ci].as_mut().expect("live server");
            let id = c.next_server_msg;
            c.next_server_msg += 1;
            debug_assert_eq!(c.resp_req_issued.len(), id as usize);
            c.resp_req_issued.push(meta.issued_at);
            id
        };
        self.servers[ci]
            .as_mut()
            .expect("live server")
            .s2c
            .pending
            .push_message(meta.response_bytes, sh.cfg.mss, resp_id);
        self.pump(sh, conn, Dir::ServerToClient);
    }

    fn on_open(&mut self, sh: &SharedCtx, conn: ConnId) {
        let ci = conn.index();
        let c = self.clients[ci].as_mut().expect("live client");
        c.syn_attempts += 1;
        let attempts = c.syn_attempts;
        if attempts > sh.cfg.syn_max_attempts {
            // The server is unreachable: give up instead of wedging the
            // workload behind an eternal handshake.
            self.counters.failed_handshakes += 1;
            self.abort_half(sh, conn, true);
            return;
        }
        // A fault may have broken the route picked at open time; re-hash
        // before burning another SYN on a dead link. If no healthy path
        // exists the SYN is sent anyway (and counted as a fault drop).
        if self.route_is_broken(sh, ci, true) {
            self.try_reroute(sh, ci, true);
        }
        self.emit(sh, conn, Dir::ClientToServer, PacketKind::Syn, 0, 0, 0);
        // Handshake loss recovery: retry until the SYN-ACK flips the
        // phase, backing off exponentially (capped) like a real
        // connect().
        let backoff = sh.cfg.rto * (1u64 << (attempts - 1).min(10));
        self.schedule(self.now + backoff, Ev::SynRetry { conn });
    }

    /// Closes one endpoint abruptly (no FIN): queues are dropped, pending
    /// timers find nothing in flight. A peer in the *same region* learns
    /// of the abort at the abort instant — the serial engine's atomic
    /// whole-connection teardown (a same-region peer always shares this
    /// partition). A peer in another region is notified
    /// through the coordinator [`super::ABORT_NOTIFY_DELAY`] later (a
    /// RST surfacing after the fabric round-trip). The slot (client side
    /// only) retires after quarantine.
    fn abort_half(&mut self, sh: &SharedCtx, conn: ConnId, client: bool) {
        let ci = conn.index();
        let (was_closed, peer_host) = {
            let c = self.half_mut(client, ci);
            let was = c.phase == ConnPhase::Closed;
            c.phase = ConnPhase::Closed;
            c.pre_open.clear();
            c.c2s = DirState::default();
            c.s2c = DirState::default();
            let peer = if client { c.key.server } else { c.key.client };
            (was, peer)
        };
        if client && !was_closed {
            // A conn that closed normally already scheduled its Retire;
            // scheduling a second one would double-free the slot.
            let at = self.now + sh.cfg.conn_quarantine;
            self.schedule(at, Ev::Retire { conn });
        }
        if sh.pmap.region_of_host[peer_host.index()] == self.cur_region {
            self.schedule(
                self.now,
                Ev::PeerGone {
                    conn,
                    client: !client,
                },
            );
        } else {
            self.aborted_buf.push((self.cur_key, conn, client));
        }
    }

    /// The peer endpoint aborted: drop our half silently (not counted as
    /// an abort — the originator already counted it).
    fn on_peer_gone(&mut self, sh: &SharedCtx, conn: ConnId, client: bool) {
        if !self.half_live(client, conn) {
            return;
        }
        let ci = conn.index();
        let was_closed = {
            let c = self.half_mut(client, ci);
            let was = c.phase == ConnPhase::Closed;
            c.phase = ConnPhase::Closed;
            c.pre_open.clear();
            c.c2s = DirState::default();
            c.s2c = DirState::default();
            was
        };
        if client && !was_closed {
            let at = self.now + sh.cfg.conn_quarantine;
            self.schedule(at, Ev::Retire { conn });
        }
    }

    /// True when this endpoint cannot make progress on its pinned path:
    /// a link of its own sending route is unusable, or no healthy path
    /// back from the peer exists at all (so even perfect sending could
    /// never be acknowledged).
    fn route_is_broken(&self, sh: &SharedCtx, ci: usize, client: bool) -> bool {
        if self.health.all_up() {
            return false;
        }
        let table = if client { &self.clients } else { &self.servers };
        let c = table[ci].as_ref().expect("live half");
        let own = if client { &c.route_fwd } else { &c.route_rev };
        if own.iter().any(|&l| !self.health.link_usable(&sh.topo, l)) {
            return true;
        }
        let (back_src, back_dst) = if client {
            (c.key.server, c.key.client)
        } else {
            (c.key.client, c.key.server)
        };
        sh.topo
            .route_healthy(back_src, back_dst, c.key.ecmp_hash(), &self.health)
            .is_err()
    }

    /// Re-hashes this endpoint's sending route onto surviving equal-cost
    /// paths, as switches re-balance ECMP groups when members die.
    /// Mirrors the serial engine's contract: the reroute only counts as
    /// successful when a healthy path exists in *both* directions —
    /// otherwise the endpoint keeps its dead route and the failure is
    /// counted, so the RTO cap can eventually abort it.
    fn try_reroute(&mut self, sh: &SharedCtx, ci: usize, client: bool) -> bool {
        let table = if client { &self.clients } else { &self.servers };
        let c = table[ci].as_ref().expect("live half");
        let key = c.key;
        let hash = key.ecmp_hash();
        let (own_len, own_src, own_dst, back_src, back_dst) = if client {
            (
                c.route_fwd.len(),
                key.client,
                key.server,
                key.server,
                key.client,
            )
        } else {
            (
                c.route_rev.len(),
                key.server,
                key.client,
                key.client,
                key.server,
            )
        };
        let own = sh.topo.route_healthy(own_src, own_dst, hash, &self.health);
        let back_ok = sh
            .topo
            .route_healthy(back_src, back_dst, hash, &self.health)
            .is_ok();
        match own {
            Ok(route) if back_ok => {
                // Same locality ⇒ same hop count, so in-flight packets'
                // hop indices stay valid on the replacement route.
                debug_assert_eq!(route.len(), own_len);
                let _ = own_len;
                let table = if client {
                    &mut self.clients
                } else {
                    &mut self.servers
                };
                let c = table[ci].as_mut().expect("live half");
                if client {
                    c.route_fwd = route;
                } else {
                    c.route_rev = route;
                }
                self.counters.reroutes += 1;
                true
            }
            _ => {
                self.counters.reroute_failures += 1;
                false
            }
        }
    }

    /// Duplicate-data heal: if our own pinned sending route broke, try
    /// to re-hash it (the dup means our ACKs are probably dying on it).
    fn maybe_heal_route(&mut self, sh: &SharedCtx, ci: usize, client: bool) {
        if self.health.all_up() {
            return;
        }
        let table = if client { &self.clients } else { &self.servers };
        let c = table[ci].as_ref().expect("live half");
        let own = if client { &c.route_fwd } else { &c.route_rev };
        if own.iter().any(|&l| !self.health.link_usable(&sh.topo, l)) {
            self.try_reroute(sh, ci, client);
        }
    }

    fn on_fault(&mut self, kind: FaultKind) {
        // Every partition applies the fault to its replica; only
        // partition 0 counts it, so the reported total matches the
        // number of injected events.
        if self.idx == 0 {
            self.counters.faults_applied += 1;
        }
        match kind {
            FaultKind::LinkDown(l) => self.health.set_link_up(l, false),
            FaultKind::LinkUp(l) => self.health.set_link_up(l, true),
            FaultKind::SwitchDown(s) => self.health.set_switch_up(s, false),
            FaultKind::SwitchUp(s) => self.health.set_switch_up(s, true),
            FaultKind::DegradeLink { link, rate_factor } => {
                self.link_rate_factor[link.index()] = rate_factor;
            }
            FaultKind::GrayLink {
                link,
                drop_fraction,
            } => {
                self.link_gray[link.index()] = drop_fraction;
            }
            // Flaps are expanded into LinkDown/LinkUp at injection time
            // and telemetry faults never reach the engine (inject_fault
            // rejects them); keep the match exhaustive without panicking.
            FaultKind::FlapLink { .. }
            | FaultKind::MirrorLoss { .. }
            | FaultKind::FbflowLoss { .. } => {}
        }
    }

    fn on_send_msg(&mut self, sh: &SharedCtx, conn: ConnId, req: u64, meta: MsgMeta) {
        let ci = conn.index();
        match self.clients[ci].as_ref().expect("live client").phase {
            ConnPhase::Closed => {
                self.counters.messages_on_closed += 1;
            }
            ConnPhase::Opening => {
                self.clients[ci]
                    .as_mut()
                    .expect("live client")
                    .pre_open
                    .push((req, meta));
            }
            ConnPhase::Open => {
                self.queue_request(sh, conn, req, meta);
            }
        }
    }

    fn queue_request(&mut self, sh: &SharedCtx, conn: ConnId, req: u64, meta: MsgMeta) {
        let mss = sh.cfg.mss;
        {
            let c = self.clients[conn.index()].as_mut().expect("live client");
            let msg_id = c.msg_meta.len() as u32;
            c.msg_meta.push(meta);
            c.c2s.pending.push_message(req, mss, msg_id);
        }
        self.pump(sh, conn, Dir::ClientToServer);
    }

    fn on_close(&mut self, sh: &SharedCtx, conn: ConnId) {
        let ci = conn.index();
        if self.clients[ci].as_ref().expect("live client").phase != ConnPhase::Closed {
            self.clients[ci].as_mut().expect("live client").phase = ConnPhase::Closed;
            self.emit(sh, conn, Dir::ClientToServer, PacketKind::Fin, 0, 0, 0);
            // Recycle the slot once in-flight stragglers cannot be
            // confused with a future occupant (generation tags guard
            // regardless).
            let at = self.now + sh.cfg.conn_quarantine;
            self.schedule(at, Ev::Retire { conn });
        }
    }

    fn half_mut(&mut self, client: bool, ci: usize) -> &mut Conn {
        let table = if client {
            &mut self.clients
        } else {
            &mut self.servers
        };
        table[ci].as_mut().expect("live half")
    }

    /// Moves pending segments onto the wire while the window allows.
    fn pump(&mut self, sh: &SharedCtx, conn: ConnId, dir: Dir) {
        let is_client = dir == Dir::ClientToServer;
        let window = sh.cfg.window_segments as u64;
        let rto = sh.cfg.rto;
        loop {
            let (seg, seq) = {
                let ds = self.half_mut(is_client, conn.index()).dir_mut(dir);
                if ds.in_flight() >= window {
                    break;
                }
                let Some(seg) = ds.pending.pop() else { break };
                let seq = ds.sent;
                ds.sent += 1;
                ds.unacked.push_seg(seg);
                (seg, seq)
            };
            self.emit(
                sh,
                conn,
                dir,
                PacketKind::Data {
                    last_of_msg: seg.last_of_msg,
                },
                seq,
                seg.msg,
                seg.payload,
            );
        }
        // Arm the retransmission timer if data is outstanding.
        let now = self.now;
        let ds = self.half_mut(is_client, conn.index()).dir_mut(dir);
        if ds.in_flight() > 0 && !ds.rto_armed {
            ds.rto_armed = true;
            ds.acked_at_arm = ds.acked;
            self.schedule(now + rto, Ev::Rto { conn, dir });
        }
    }

    /// Builds a packet and schedules its first hop now. The emitting
    /// endpoint is implied by `dir`: clients send client→server frames,
    /// servers send server→client frames (including ACKs for the
    /// opposite data direction).
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        sh: &SharedCtx,
        conn: ConnId,
        dir: Dir,
        kind: PacketKind,
        seq: u64,
        msg: u32,
        payload: u32,
    ) {
        let from_client = dir == Dir::ClientToServer;
        let ci = conn.index();
        let (key, route, meta, issued) = {
            let table = if from_client {
                &self.clients
            } else {
                &self.servers
            };
            let c = table[ci].as_ref().expect("live half");
            let route = if from_client {
                Route::from_slice(&c.route_fwd)
            } else {
                Route::from_slice(&c.route_rev)
            };
            let boundary = matches!(kind, PacketKind::Data { last_of_msg: true });
            let meta = if boundary && from_client {
                Some(c.msg_meta[msg as usize])
            } else {
                None
            };
            let issued = if boundary && !from_client {
                c.resp_req_issued.get(msg as usize).copied()
            } else {
                None
            };
            (c.key, route, meta, issued)
        };
        let wire = if payload > 0 {
            sh.cfg.data_wire_bytes(payload)
        } else {
            sh.cfg.control_bytes
        };
        let pkt = WirePacket {
            p: Packet {
                conn,
                key,
                dir,
                kind,
                seq,
                msg,
                payload,
                wire_bytes: wire,
            },
            route,
            meta,
            issued,
        };
        self.counters.emitted_packets += 1;
        debug_assert_eq!(
            sh.pmap.part_of_link[route.as_slice()[0].index()],
            self.idx,
            "first hop of an emitted packet is always local"
        );
        self.schedule(self.now, Ev::Transmit { pkt, hop: 0 });
    }

    // ------------------------------------------------------------------
    // Buffer sampling
    // ------------------------------------------------------------------

    fn on_buf_sample(&mut self, region: u32) {
        let Some(si) = self.buf_samplers.iter().position(|s| s.region == region) else {
            return;
        };
        // Close the shard's window first if we've crossed its boundary.
        if self.now >= self.buf_samplers[si].window_start + self.buf_samplers[si].window {
            self.flush_shard(si, false);
        }
        let shard = &mut self.buf_samplers[si];
        for (i, sw) in shard.switches.iter().enumerate() {
            shard.samples[i].push(self.switch_occ[sw.index()]);
        }
        let next = self.now + shard.interval;
        self.schedule(next, Ev::BufSample { region });
    }

    /// Flushes every sampler shard's current window (end of run).
    pub(crate) fn flush_buffer_windows(&mut self) {
        for si in 0..self.buf_samplers.len() {
            self.flush_shard(si, true);
        }
    }

    fn flush_shard(&mut self, si: usize, final_flush: bool) {
        let mut sampler = std::mem::take(&mut self.buf_samplers[si]);
        let window_start = sampler.window_start;
        for (i, sw) in sampler.switches.iter().enumerate() {
            let samples = &mut sampler.samples[i];
            if samples.is_empty() {
                continue;
            }
            samples.sort_unstable();
            let n = samples.len();
            let median = samples[n / 2];
            let max = *samples.last().expect("non-empty");
            let mean = samples.iter().sum::<u64>() as f64 / n as f64;
            samples.clear();
            self.window_stats.push((
                window_start,
                sampler.orig[i],
                BufferWindowStat {
                    switch: *sw,
                    window_start,
                    median,
                    max,
                    mean,
                    samples: n as u32,
                    capacity: sampler.caps[i],
                },
            ));
        }
        if !final_flush {
            sampler.window_start += sampler.window;
            // If the clock jumped multiple windows, snap forward.
            while self.now >= sampler.window_start + sampler.window {
                sampler.window_start += sampler.window;
            }
        }
        self.buf_samplers[si] = sampler;
    }
}

/// The gray-failure drop decision for the `seq`-th packet offered to
/// `link` under drop fraction `fraction`. A splitmix64-style mix of
/// (link, seq) — pure data, no RNG stream, no shared state — so the
/// decision sequence is identical at every worker width and across
/// checkpoint/restore (the per-link counter is checkpointed).
pub(crate) fn gray_drop(link: u64, seq: u64, fraction: f64) -> bool {
    let mut z = link
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        .wrapping_add(0x243f_6a88_85a3_08d3);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53 uniform mantissa bits → [0, 1); strict `<` keeps fraction 0.0
    // lossless and 1.0 total.
    ((z >> 11) as f64 / (1u64 << 53) as f64) < fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_util::Rng;

    #[test]
    fn calendar_matches_a_sorted_oracle() {
        assert_eq!(
            std::mem::size_of::<<Scheduled as CalendarEvent>::Entry>(),
            24
        );
        let mut rng = Rng::new(18);
        let mut cal: Calendar<Scheduled> = Calendar::default();
        // (key, payload tag), kept sorted by key.
        let mut oracle: Vec<(EvKey, u32)> = Vec::new();
        let srcs = [0, 1, 7, EXT_SRC];
        let mut seqs = [0u64; 4];
        // Time of the last pop: the calendar's monotone floor.
        let mut last = 0u64;
        let mut peak = 0;
        let mut top_bucket = false;
        for tag in 0..20_000u32 {
            // Pushes lead pops early on, then trail, so the calendar grows,
            // shrinks and regrows through freed slots.
            let push_odds = if tag < 10_000 { 0.6 } else { 0.4 };
            if oracle.is_empty() || rng.chance(push_odds) {
                // Mostly a few instants at or just past the last pop, so
                // many keys tie on `at` across sources and only `src` or
                // `seq` orders them; now and then a jump that may flip any
                // bit of the clock, up to its top.
                let at = if rng.chance(0.02) {
                    let reach = u64::MAX >> rng.below(64);
                    rng.range_inclusive(last, last | reach)
                } else {
                    last.saturating_add(rng.below(4))
                };
                top_bucket |= (at ^ last) >> 62 != 0;
                let at = SimTime::from_nanos(at);
                let si = rng.below(srcs.len() as u64) as usize;
                let (src, seq) = (srcs[si], seqs[si]);
                seqs[si] += 1;
                let ev = Ev::Release {
                    link: tag,
                    bytes: 0,
                };
                cal.push(Scheduled { at, src, seq, ev });
                let key = (at, src, seq);
                let pos = oracle.partition_point(|(k, _)| *k < key);
                oracle.insert(pos, (key, tag));
            } else {
                let (key, want) = oracle.remove(0);
                let got = cal.pop().expect("oracle is non-empty");
                assert_eq!(got.key(), key);
                assert!(matches!(got.ev, Ev::Release { link, .. } if link == want));
                last = key.0.as_nanos();
            }
            assert_eq!(cal.len(), oracle.len());
            assert_eq!(cal.peek_at(), oracle.first().map(|(k, _)| k.0));
            peak = peak.max(oracle.len());
            assert_eq!(cal.slab.len(), peak, "a push reuses a freed slot first");
            if tag % 101 == 0 {
                let mut pending: Vec<(EvKey, u32)> = cal
                    .iter()
                    .map(|s| match s.ev {
                        Ev::Release { link, .. } => (s.key(), link),
                        _ => unreachable!("only releases are pushed"),
                    })
                    .collect();
                pending.sort_unstable();
                assert_eq!(pending, oracle);
            }
        }
        assert!(top_bucket, "some push filed in the top buckets");
        for (key, _) in oracle {
            assert_eq!(cal.pop().map(|s| s.key()), Some(key));
        }
        assert!(cal.pop().is_none());
        assert_eq!(cal.len(), 0);
    }

    #[test]
    #[should_panic(expected = "calendar push before the last popped time")]
    fn calendar_rejects_a_push_before_the_last_pop() {
        let release = |at, seq| Scheduled {
            at: SimTime::from_nanos(at),
            src: 0,
            seq,
            ev: Ev::Release { link: 0, bytes: 0 },
        };
        let mut cal: Calendar<Scheduled> = Calendar::default();
        cal.push(release(10, 0));
        cal.push(release(20, 1));
        assert_eq!(cal.pop().map(|s| s.key()), Some(release(10, 0).key()));
        cal.push(release(9, 2));
    }
}
