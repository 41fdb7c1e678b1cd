//! The flow-level fast path of the hybrid fidelity engine.
//!
//! DCT²Gen's observation (PAPERS.md) is that every analysis the paper
//! builds — locality mixes, flow-size/FCT distributions, heavy hitters —
//! is a *statistical shape*, preserved by flow-level generation from
//! packet-derived distributions. The hybrid engine exploits that: bulk
//! traffic is advanced analytically (per-link fair-share bandwidth plus a
//! queueing-delay term for FCT), while *fidelity islands* — flows that
//! touch a mirrored host's access link, a utilization-tracked link, a
//! buffer-sampled switch, a link or switch named by the fault plan, or a
//! heavy-hitter-sized transfer — continue through the partitioned packet
//! DES unchanged. DESIGN.md §13 gives the model, the demotion rules, and
//! the shape-equivalence contract.
//!
//! Everything here runs on the coordinator thread between lookahead
//! windows, so flow-mode outputs are byte-identical at every worker width
//! by construction — the same property the packet engine proves at its
//! barriers.

use super::part::{Calendar, CalendarEvent};
use crate::faults::{FaultEvent, FaultKind};
use crate::packet::ConnId;
use serde::{Deserialize, Serialize};
use sonet_topology::LinkId;
use sonet_util::{SimDuration, SimTime};

/// Which engine a run's flows go through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum FidelityMode {
    /// Everything through the packet-level DES (the tier-1 default;
    /// byte-identical to the engine before the hybrid path existed).
    #[default]
    Packet,
    /// Bulk flows through the analytic fast path; fidelity islands stay
    /// packet-level.
    Hybrid,
}

// Hand-written so configs serialized before the hybrid engine existed
// still load: the vendored derive maps an absent field to `Null`, which
// decodes as the packet-mode default here.
impl serde::Deserialize for FidelityMode {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Null => Ok(FidelityMode::Packet),
            // Accept both the CLI spelling ("hybrid") and the derived
            // Serialize's variant name ("Hybrid") — checkpoints carry
            // the latter.
            serde::Content::Str(s) => FidelityMode::parse(&s.to_ascii_lowercase())
                .ok_or_else(|| serde::DeError::msg(format!("unknown fidelity mode '{s}'"))),
            other => Err(serde::DeError::msg(format!(
                "expected a fidelity mode string, got {other:?}"
            ))),
        }
    }
}

impl FidelityMode {
    /// Parses a `--fidelity=` value.
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "packet" => Some(FidelityMode::Packet),
            "hybrid" => Some(FidelityMode::Hybrid),
            _ => None,
        }
    }

    /// CLI-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            FidelityMode::Packet => "packet",
            FidelityMode::Hybrid => "hybrid",
        }
    }
}

/// Configuration of the hybrid engine's flow planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityConfig {
    /// Engine mode.
    pub mode: FidelityMode,
    /// Messages at or above this many application bytes (request +
    /// response) are heavy-hitter material: the flow is demoted to the
    /// packet path at send time so rank analyses see real packet streams.
    pub heavy_flow_bytes: u64,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        FidelityConfig {
            mode: FidelityMode::Packet,
            // 8 MiB ≈ 6.7 ms of line rate at 10 Gbps: transfers this
            // large dominate any heavy-hitter aggregation window they
            // appear in.
            heavy_flow_bytes: 8 << 20,
        }
    }
}

impl FidelityConfig {
    /// A hybrid-mode configuration with default thresholds.
    pub fn hybrid() -> FidelityConfig {
        FidelityConfig {
            mode: FidelityMode::Hybrid,
            ..FidelityConfig::default()
        }
    }
}

/// What a scheduled fast-path event does when its time arrives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum FastKind {
    /// An accepted application send, deferred to its issue instant: the
    /// workload generates whole windows of future-stamped messages in
    /// arbitrary order, so the analytic transfer must not run until the
    /// calendar reaches the send time — otherwise the virtual link
    /// queues are charged out of time order and a message stamped early
    /// in a window queues behind one stamped late.
    Send {
        conn: ConnId,
        /// Request application bytes.
        req: u64,
        /// Response application bytes (0 for one-way messages).
        resp: u64,
        /// Server think time between request arrival and response.
        service: SimDuration,
    },
    /// The server's think time elapsed: evaluate the response transfer on
    /// the reverse route (deferred for the same causality reason as
    /// `Send`).
    RespStart {
        conn: ConnId,
        /// Response application bytes (conservation credit: the send
        /// evaluation already offered them).
        resp: u64,
        /// Original issue instant of the request (latency epoch).
        issued_at: SimTime,
    },
    /// The request's last byte reaches the server: the message counts as
    /// completed; one-way messages record their latency here.
    ReqDone {
        conn: ConnId,
        /// Request application bytes (conservation credit).
        req: u64,
        /// One-way latency sample (`None` when a response follows).
        latency: Option<SimDuration>,
    },
    /// The response's last byte reaches the client: latency sample.
    RespDone {
        conn: ConnId,
        /// Response application bytes (conservation credit).
        resp: u64,
        /// End-to-end request latency.
        latency: SimDuration,
    },
    /// A fault window opened on the flow's route: hand the flow to the
    /// packet engine (the island grew to include it).
    Demote { conn: ConnId },
    /// The message could not survive its route's fault state: the flow
    /// aborts after the packet transport's RTO budget.
    Abort {
        conn: ConnId,
        /// Application bytes charged as aborted.
        bytes: u64,
    },
    /// FIN instant of a fast flow: the connection stops accepting sends.
    Close { conn: ConnId },
    /// Quarantine expiry of a closed fast flow's slot.
    Retire { idx: u32 },
}

/// One scheduled fast-path event, totally ordered by `(at, seq)` — the
/// coordinator-serial analogue of the packet calendar's canonical key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FastEv {
    pub at: SimTime,
    pub seq: u64,
    pub kind: FastKind,
}

impl CalendarEvent for FastEv {
    type Entry = (SimTime, u64, u32);
    type Payload = FastKind;

    fn split(self, slot: u32) -> (Self::Entry, FastKind) {
        ((self.at, self.seq, slot), self.kind)
    }

    fn join((at, seq, _): Self::Entry, kind: FastKind) -> FastEv {
        FastEv { at, seq, kind }
    }

    fn slot(entry: &Self::Entry) -> u32 {
        entry.2
    }

    fn at(entry: &Self::Entry) -> SimTime {
        entry.0
    }
}

/// Running totals of the fast path, reported through `SimOutputs`, the
/// live counters and the RUNINFO gauges; the conservation audit closes
/// over the byte fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FastCounters {
    /// Flows the planner assigned to the fast path at open time.
    pub flows_fast: u64,
    /// Flows assigned to the packet path at open time.
    pub flows_packet: u64,
    /// Fast flows handed to the packet engine mid-life (fault window or
    /// heavy transfer reached their route).
    pub demotions: u64,
    /// Messages whose request fully arrived analytically.
    pub completed: u64,
    /// Messages aborted by fault state on the fast path.
    pub aborted_messages: u64,
    /// Fast flows aborted (connection-level; rides
    /// `aborted_connections`).
    pub aborted_flows: u64,
    /// Application bytes offered to the fast path.
    pub bytes_offered: u64,
    /// Application bytes whose transfer completed.
    pub bytes_completed: u64,
    /// Application bytes abandoned by fault aborts.
    pub bytes_aborted: u64,
    /// Sends whose flow closed or aborted before the send instant (rides
    /// `messages_on_closed`).
    pub on_closed: u64,
    /// Fast events processed (rides `processed_events`).
    pub events: u64,
}

/// Coordinator-owned state of the flow-level fast path.
pub(crate) struct FastPath {
    pub cfg: FidelityConfig,
    /// Event sequence counter (keys the calendar's total order).
    seq: u64,
    /// The fast calendar.
    queue: Calendar<FastEv>,
    /// Per-slot: the slot's current flow is on the fast path.
    pub fast: Vec<bool>,
    /// Per-slot: the analytic handshake has been charged.
    established: Vec<bool>,
    /// Per-slot pinned routes (client→server, server→client) of fast
    /// flows; empty for packet flows.
    routes: Vec<(Vec<LinkId>, Vec<LinkId>)>,
    /// Per-slot count of messages sent on the fast path (keys the
    /// deterministic gray-loss hash).
    msgs: Vec<u64>,
    /// Virtual serialization horizon per link — the fair-share queue. A
    /// transfer charges its wire bytes on every route link, so
    /// concurrent fast flows queue behind each other exactly as flows
    /// sharing a FIFO link do.
    link_free: Vec<SimTime>,
    /// Utilization estimate per link (EWMA over 1 ms epochs) feeding the
    /// M/M/1-style waiting term.
    link_rho: Vec<f64>,
    link_epoch_bytes: Vec<u64>,
    link_epoch_start: Vec<SimTime>,
    /// Links/switches named by any injected fault — island territory.
    pub fault_links: Vec<bool>,
    pub fault_switches: Vec<bool>,
    /// Buffer-sampled switches — island territory.
    pub sampled_switches: Vec<bool>,
    /// The network-fault schedule as injected, in `(at, kind-rank)`
    /// order; the fast path derives drop/abort behaviour from the same
    /// events the packet replicas apply.
    pub fault_sched: Vec<FaultEvent>,
    pub counters: FastCounters,
}

/// Epoch length of the utilization EWMA.
const RHO_EPOCH: SimDuration = SimDuration::from_millis(1);

/// Cap on the M/M/1 waiting-term multiplier (ρ/(1−ρ) explodes as the
/// estimate nears 1; persistent overload is already modelled by the
/// virtual queue).
const MM1_CAP: f64 = 4.0;

/// Route fault state at one instant, as seen by the fast path.
pub(crate) struct RouteFault {
    /// A dead link or switch sits on the route.
    pub down: bool,
    /// Worst gray-loss fraction among route links, with the owning link.
    pub gray: Option<(LinkId, f64)>,
}

impl FastPath {
    pub fn new(n_links: usize, n_switches: usize) -> FastPath {
        FastPath {
            cfg: FidelityConfig::default(),
            seq: 0,
            queue: Calendar::default(),
            fast: Vec::new(),
            established: Vec::new(),
            routes: Vec::new(),
            msgs: Vec::new(),
            link_free: vec![SimTime::ZERO; n_links],
            link_rho: vec![0.0; n_links],
            link_epoch_bytes: vec![0; n_links],
            link_epoch_start: vec![SimTime::ZERO; n_links],
            fault_links: vec![false; n_links],
            fault_switches: vec![false; n_switches],
            sampled_switches: vec![false; n_switches],
            fault_sched: Vec::new(),
            counters: FastCounters::default(),
        }
    }

    /// True when the hybrid fast path is active.
    pub fn hybrid(&self) -> bool {
        self.cfg.mode == FidelityMode::Hybrid
    }

    /// True when the slot's current flow rides the fast path.
    pub fn is_fast(&self, idx: usize) -> bool {
        self.fast.get(idx).copied().unwrap_or(false)
    }

    /// Grows the per-slot tables to cover `n` slots.
    pub fn ensure_slots(&mut self, n: usize) {
        if self.fast.len() < n {
            self.fast.resize(n, false);
            self.established.resize(n, false);
            self.routes.resize(n, (Vec::new(), Vec::new()));
            self.msgs.resize(n, 0);
        }
    }

    /// Resets a slot for a new incarnation (reuse after quarantine).
    pub fn reset_slot(&mut self, idx: usize) {
        self.ensure_slots(idx + 1);
        self.fast[idx] = false;
        self.established[idx] = false;
        self.routes[idx] = (Vec::new(), Vec::new());
        self.msgs[idx] = 0;
    }

    /// Marks a slot's flow as fast with its pinned routes.
    pub fn adopt(&mut self, idx: usize, fwd: Vec<LinkId>, rev: Vec<LinkId>) {
        self.ensure_slots(idx + 1);
        self.fast[idx] = true;
        self.established[idx] = false;
        self.routes[idx] = (fwd, rev);
        self.msgs[idx] = 0;
    }

    /// Takes a flow off the fast path (demotion hand-off).
    pub fn drop_fast(&mut self, idx: usize) {
        self.fast[idx] = false;
        self.routes[idx] = (Vec::new(), Vec::new());
    }

    /// The slot's pinned routes (fast flows only).
    pub fn routes(&self, idx: usize) -> &(Vec<LinkId>, Vec<LinkId>) {
        &self.routes[idx]
    }

    /// Schedules a fast event.
    pub fn push(&mut self, at: SimTime, kind: FastKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(FastEv { at, seq, kind });
    }

    /// Earliest scheduled fast-event time.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.queue.peek_at()
    }

    /// Pops the single earliest event due at or before `t`. Draining one
    /// event at a time keeps the calendar canonical even when handling an
    /// event (a `Send`) schedules new events that are also already due.
    pub fn pop_next_due(&mut self, t: SimTime) -> Option<FastEv> {
        if self.queue.peek_at()? <= t {
            self.queue.pop()
        } else {
            None
        }
    }

    /// Number of scheduled fast events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Application bytes still in flight on the fast calendar (the
    /// conservation audit's in-flight term). Queued `Send`s contribute
    /// nothing: their bytes are only offered when the send instant is
    /// reached and the transfer is actually evaluated.
    pub fn bytes_in_flight(&self) -> u64 {
        self.queue
            .iter()
            .map(|e| match e.kind {
                FastKind::ReqDone { req, .. } => req,
                FastKind::RespStart { resp, .. } | FastKind::RespDone { resp, .. } => resp,
                FastKind::Abort { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Records an injected fault into the island map and the schedule.
    pub fn note_fault(&mut self, at: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l)
            | FaultKind::LinkUp(l)
            | FaultKind::DegradeLink { link: l, .. }
            | FaultKind::GrayLink { link: l, .. } => {
                self.fault_links[l.index()] = true;
            }
            FaultKind::SwitchDown(s) | FaultKind::SwitchUp(s) => {
                self.fault_switches[s.index()] = true;
            }
            _ => {}
        }
        // Keep the schedule ordered by (time, kind-rank): injections may
        // arrive out of time order (flap trains, plan merges).
        let key = (at, fault_rank(&kind));
        let pos = self
            .fault_sched
            .partition_point(|e| (e.at, fault_rank(&e.kind)) <= key);
        self.fault_sched.insert(pos, FaultEvent { at, kind });
    }

    /// Fast slots whose pinned routes a degrading fault touches — these
    /// get a `Demote` scheduled at the fault instant.
    pub fn slots_hit_by(&self, kind: &FaultKind, link_from_switch: &[Option<u32>]) -> Vec<u32> {
        let hit = |route: &[LinkId]| -> bool {
            match *kind {
                FaultKind::LinkDown(l)
                | FaultKind::DegradeLink { link: l, .. }
                | FaultKind::GrayLink { link: l, .. } => route.contains(&l),
                FaultKind::SwitchDown(s) => route
                    .iter()
                    .any(|l| link_from_switch[l.index()] == Some(s.0)),
                _ => false,
            }
        };
        let mut out = Vec::new();
        for (idx, &f) in self.fast.iter().enumerate() {
            if f && (hit(&self.routes[idx].0) || hit(&self.routes[idx].1)) {
                out.push(idx as u32);
            }
        }
        out
    }

    /// True when the route crosses island territory: a watched or
    /// utilization-tracked link, a buffer-sampled switch, or any link or
    /// switch the fault plan has named so far.
    pub fn route_in_island(
        &self,
        route: &[LinkId],
        watched: &[bool],
        util_tracked: &[bool],
        link_from_switch: &[Option<u32>],
    ) -> bool {
        route.iter().any(|l| {
            let li = l.index();
            if watched[li] || util_tracked[li] || self.fault_links[li] {
                return true;
            }
            match link_from_switch[li] {
                Some(s) => self.sampled_switches[s as usize] || self.fault_switches[s as usize],
                None => false,
            }
        })
    }

    /// Fault state of `route` at instant `t`, replayed from the same
    /// schedule the packet replicas apply.
    pub fn route_fault_at(
        &self,
        route: &[LinkId],
        t: SimTime,
        link_from_switch: &[Option<u32>],
    ) -> RouteFault {
        let mut down = false;
        let mut gray: Option<(LinkId, f64)> = None;
        for &l in route {
            let li = l.index();
            let sw = link_from_switch[li];
            let mut link_down = false;
            let mut sw_down = false;
            let mut link_gray = 0.0f64;
            for ev in &self.fault_sched {
                if ev.at > t {
                    break;
                }
                match ev.kind {
                    FaultKind::LinkDown(x) if x == l => link_down = true,
                    FaultKind::LinkUp(x) if x == l => link_down = false,
                    FaultKind::GrayLink {
                        link,
                        drop_fraction,
                    } if link == l => link_gray = drop_fraction,
                    FaultKind::SwitchDown(s) if Some(s.0) == sw => sw_down = true,
                    FaultKind::SwitchUp(s) if Some(s.0) == sw => sw_down = false,
                    _ => {}
                }
            }
            down |= link_down | sw_down;
            if link_gray > 0.0 && gray.map(|(_, g)| link_gray > g).unwrap_or(true) {
                gray = Some((l, link_gray));
            }
        }
        RouteFault { down, gray }
    }

    /// Advances the per-link utilization EWMA with a transfer of `wire`
    /// bytes at `t`, and returns the link's current estimate.
    fn bump_rho(&mut self, li: usize, wire: u64, t: SimTime, bytes_per_ns: f64) -> f64 {
        let elapsed = t.saturating_since(self.link_epoch_start[li]);
        if elapsed >= RHO_EPOCH {
            let cap = bytes_per_ns * elapsed.as_nanos() as f64;
            let inst = if cap > 0.0 {
                (self.link_epoch_bytes[li] as f64 / cap).min(1.0)
            } else {
                0.0
            };
            self.link_rho[li] = 0.5 * self.link_rho[li] + 0.5 * inst;
            self.link_epoch_start[li] = t;
            self.link_epoch_bytes[li] = 0;
        }
        self.link_epoch_bytes[li] += wire;
        self.link_rho[li]
    }

    /// One-way transfer of `payload` application bytes over `route`
    /// starting at `t`, charging the virtual per-link queues. Returns the
    /// arrival instant of the last byte.
    ///
    /// The model mirrors the packet engine's timing decomposition:
    /// pipeline fill (one segment's serialization plus propagation per
    /// hop), drain of the remaining wire bytes at the bottleneck rate, a
    /// go-back-N window throttle once the transfer exceeds the in-flight
    /// cap, the virtual-queue backlog (fair sharing among concurrent
    /// fast flows), and an M/M/1-style waiting term driven by the
    /// utilization estimate. DESIGN.md §13 calibrates the error bound.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        route: &[LinkId],
        payload: u64,
        t: SimTime,
        mss: u32,
        header: u32,
        window_segments: u32,
        link_gbps: &[f64],
        link_prop: &[u64],
    ) -> SimTime {
        if payload == 0 || route.is_empty() {
            return t;
        }
        let n_seg = payload.div_ceil(mss as u64);
        let wire = payload + n_seg * header as u64;
        let seg_wire = (mss + header) as u64;
        let first_wire = wire.min(seg_wire);

        // Pipeline fill + propagation, bottleneck discovery, and the
        // virtual-queue backlog, in one pass over the route.
        let mut fill_ns = 0.0f64;
        let mut bottleneck_bpns = f64::MAX;
        let mut queue_ns = 0u64;
        for &l in route {
            let li = l.index();
            let bpns = link_gbps[li] * 0.125; // bytes per nanosecond
            fill_ns += first_wire as f64 / bpns + link_prop[li] as f64;
            bottleneck_bpns = bottleneck_bpns.min(bpns);
            queue_ns = queue_ns.max(self.link_free[li].saturating_since(t).as_nanos());
        }

        // Window throttle: go-back-N caps in-flight data; past the cap
        // the drain rate is one window of wire bytes per round trip.
        let rtt_ns = 2.0 * fill_ns;
        let max_infl = window_segments as u64 * seg_wire;
        let mut eff_bpns = bottleneck_bpns;
        if wire > max_infl && rtt_ns > 0.0 {
            eff_bpns = eff_bpns.min(max_infl as f64 / rtt_ns);
        }
        let drain_ns = (wire - first_wire) as f64 / eff_bpns;

        // M/M/1-style waiting at the bottleneck, from the utilization the
        // fast traffic itself generates; then charge the virtual queues so
        // later transfers see this one's backlog.
        let mut mm1_ns = 0.0f64;
        for &l in route {
            let li = l.index();
            let bpns = link_gbps[li] * 0.125;
            let rho = self.bump_rho(li, wire, t, bpns);
            if (bpns - bottleneck_bpns).abs() < 1e-12 {
                let wait = (rho / (1.0 - rho.min(0.95))).min(MM1_CAP);
                mm1_ns = mm1_ns.max(wait * seg_wire as f64 / bpns);
            }
            let start = self.link_free[li].max(t);
            self.link_free[li] = start + SimDuration::from_nanos((wire as f64 / bpns) as u64);
        }

        t + SimDuration::from_nanos(queue_ns)
            + SimDuration::from_nanos((fill_ns + drain_ns + mm1_ns) as u64)
    }

    /// Handshake round trip (SYN out, SYN-ACK back): one control packet's
    /// serialization plus propagation per hop, both ways.
    pub fn handshake(
        &self,
        fwd: &[LinkId],
        rev: &[LinkId],
        control_bytes: u32,
        link_gbps: &[f64],
        link_prop: &[u64],
    ) -> SimDuration {
        let leg = |route: &[LinkId]| -> f64 {
            route
                .iter()
                .map(|l| {
                    let li = l.index();
                    control_bytes as f64 / (link_gbps[li] * 0.125) + link_prop[li] as f64
                })
                .sum()
        };
        SimDuration::from_nanos((leg(fwd) + leg(rev)) as u64)
    }

    /// Marks a slot established, returning true the first time (the
    /// handshake is charged once per flow).
    pub fn establish(&mut self, idx: usize) -> bool {
        let fresh = !self.established[idx];
        self.established[idx] = true;
        fresh
    }

    /// Next message ordinal for the slot (keys the gray-loss hash).
    pub fn next_msg(&mut self, idx: usize) -> u64 {
        let m = self.msgs[idx];
        self.msgs[idx] = m + 1;
        m
    }

    /// Serializes the fast path into the checkpoint's fidelity section,
    /// padded to `n_slots` so the per-slot tables always match the
    /// endpoint tables.
    pub fn to_ckpt(&self, n_slots: usize) -> FastCkpt {
        let mut events: Vec<FastEv> = self.queue.iter().collect();
        events.sort_by_key(|e| (e.at, e.seq));
        let pad = |v: &[bool]| -> Vec<bool> {
            let mut v = v.to_vec();
            v.resize(n_slots, false);
            v
        };
        let mut routes = self.routes.clone();
        routes.resize(n_slots, (Vec::new(), Vec::new()));
        let mut msgs = self.msgs.clone();
        msgs.resize(n_slots, 0);
        FastCkpt {
            mode: self.cfg.mode,
            heavy_flow_bytes: self.cfg.heavy_flow_bytes,
            seq: self.seq,
            events,
            fast: pad(&self.fast),
            established: pad(&self.established),
            routes,
            msgs,
            link_free: self.link_free.clone(),
            link_rho: self.link_rho.clone(),
            link_epoch_bytes: self.link_epoch_bytes.clone(),
            link_epoch_start: self.link_epoch_start.clone(),
            sampled_switches: self.sampled_switches.clone(),
            fault_sched: self.fault_sched.clone(),
            counters: self.counters,
        }
    }

    /// Restores the fast path from a checkpoint section (dimensions are
    /// validated by the caller against the topology and slot count).
    pub fn restore(&mut self, c: FastCkpt) {
        self.cfg = FidelityConfig {
            mode: c.mode,
            heavy_flow_bytes: c.heavy_flow_bytes,
        };
        self.seq = c.seq;
        self.queue = Calendar::default();
        for ev in c.events {
            self.queue.push(ev);
        }
        self.fast = c.fast;
        self.established = c.established;
        self.routes = c.routes;
        self.msgs = c.msgs;
        self.link_free = c.link_free;
        self.link_rho = c.link_rho;
        self.link_epoch_bytes = c.link_epoch_bytes;
        self.link_epoch_start = c.link_epoch_start;
        self.sampled_switches = c.sampled_switches;
        self.fault_sched = Vec::new();
        for ev in c.fault_sched {
            self.note_fault(ev.at, ev.kind);
        }
        self.counters = c.counters;
    }
}

/// Tie-break rank for fault kinds injected at the same instant, keeping
/// the replayed schedule independent of injection bookkeeping order.
fn fault_rank(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::LinkDown(_) => 0,
        FaultKind::LinkUp(_) => 1,
        FaultKind::SwitchDown(_) => 2,
        FaultKind::SwitchUp(_) => 3,
        FaultKind::DegradeLink { .. } => 4,
        FaultKind::GrayLink { .. } => 5,
        FaultKind::FlapLink { .. } => 6,
        FaultKind::MirrorLoss { .. } => 7,
        FaultKind::FbflowLoss { .. } => 8,
    }
}

/// The checkpoint's versioned fidelity section: the fast calendar in
/// canonical `(at, seq)` order plus per-slot and per-link analytic state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FastCkpt {
    pub mode: FidelityMode,
    pub heavy_flow_bytes: u64,
    pub seq: u64,
    pub events: Vec<FastEv>,
    pub fast: Vec<bool>,
    pub established: Vec<bool>,
    pub routes: Vec<(Vec<LinkId>, Vec<LinkId>)>,
    pub msgs: Vec<u64>,
    pub link_free: Vec<SimTime>,
    pub link_rho: Vec<f64>,
    pub link_epoch_bytes: Vec<u64>,
    pub link_epoch_start: Vec<SimTime>,
    pub sampled_switches: Vec<bool>,
    pub fault_sched: Vec<FaultEvent>,
    pub counters: FastCounters,
}
