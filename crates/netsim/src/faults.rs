//! Fault injection: deterministic schedules of link/switch failures and
//! telemetry degradation.
//!
//! A [`FaultPlan`] is data, not behaviour: an ordered list of timestamped
//! [`FaultEvent`]s that the engine ([`crate::Simulator::inject_faults`])
//! and the capture layer replay at simulated time. Two runs with the same
//! seed and the same plan produce byte-identical outputs — faults are part
//! of the scenario, never a source of nondeterminism.
//!
//! Network faults (link/switch down/up, degraded line rate) are applied by
//! the packet engine; telemetry faults (mirror capture loss, Fbflow agent
//! sample drops) are applied by whichever collection layer owns the tap,
//! with every suppressed observation *counted* rather than silently gone —
//! mirroring how production monitoring loses data while its loss counters
//! keep working.

use serde::{Deserialize, Serialize};
use sonet_topology::{LinkId, SwitchId, SwitchKind, Topology};
use sonet_util::{Rng, SimDuration, SimTime};

/// Upper bound on [`FaultKind::FlapLink`] cycles — each cycle expands to
/// two calendar events, so the cap bounds plan-to-calendar blowup.
pub const MAX_FLAP_CYCLES: u32 = 1000;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A directed link stops carrying traffic.
    LinkDown(LinkId),
    /// A previously failed link recovers.
    LinkUp(LinkId),
    /// A switch fails: every link touching it becomes unusable.
    SwitchDown(SwitchId),
    /// A previously failed switch recovers.
    SwitchUp(SwitchId),
    /// A link's line rate is multiplied by `rate_factor` (0 < factor ≤ 1;
    /// 1.0 restores the nominal rate).
    DegradeLink {
        /// The degraded link.
        link: LinkId,
        /// Multiplier on the nominal line rate.
        rate_factor: f64,
    },
    /// A *gray* failure: the link stays up as far as routing is concerned
    /// (ECMP keeps hashing flows onto it, `route_healthy` never avoids
    /// it), but it silently eats this fraction of the packets offered to
    /// it. 0.0 heals the link. The defining property of a gray failure is
    /// that the control plane cannot see it — only transports bleed.
    GrayLink {
        /// The gray link.
        link: LinkId,
        /// Fraction of offered packets silently dropped, in `[0, 1]`.
        drop_fraction: f64,
    },
    /// A flapping link: starting at the event time the link goes down,
    /// comes back `half_period` later, and repeats for `cycles`
    /// down/up trains. The engine expands the flap into plain
    /// `LinkDown`/`LinkUp` events at injection time, so checkpoints and
    /// the calendar only ever see the primitive kinds.
    FlapLink {
        /// The flapping link.
        link: LinkId,
        /// Time spent in each down (and each up) state.
        half_period: SimDuration,
        /// Number of down/up cycles (≥ 1).
        cycles: u32,
    },
    /// The port-mirror capture path starts dropping this fraction of
    /// packets (counted as losses; 0.0 restores full fidelity).
    MirrorLoss {
        /// Fraction of mirrored packets lost, in `[0, 1]`.
        fraction: f64,
    },
    /// Fbflow agents start dropping this fraction of their samples
    /// (counted; 0.0 restores full collection).
    FbflowLoss {
        /// Fraction of agent samples lost, in `[0, 1]`.
        fraction: f64,
    },
}

impl FaultKind {
    /// True for faults the packet engine applies (topology/link state).
    pub fn is_network(&self) -> bool {
        !self.is_telemetry()
    }

    /// True for faults the telemetry/capture layer applies.
    pub fn is_telemetry(&self) -> bool {
        matches!(
            self,
            FaultKind::MirrorLoss { .. } | FaultKind::FbflowLoss { .. }
        )
    }
}

/// A fault applied at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the healthy baseline).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends a fault, keeping the schedule sorted by time. Events at
    /// equal timestamps keep their insertion order (stable), so a plan is
    /// replayed exactly as written.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
        self
    }

    /// All events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The network-fault subset (engine-applied).
    pub fn network_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.kind.is_network())
    }

    /// The telemetry-fault subset (capture-layer-applied).
    pub fn telemetry_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.kind.is_telemetry())
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Checks every event against `topo`: ids in range, fractions in
    /// `[0, 1]`, rate factors in `(0, 1]`.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        let n_links = topo.links().len();
        let n_switches = topo.switches().len();
        for ev in &self.events {
            match ev.kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                    if l.index() >= n_links {
                        return Err(format!("{l} is out of range ({n_links} links)"));
                    }
                }
                FaultKind::SwitchDown(s) | FaultKind::SwitchUp(s) => {
                    if s.index() >= n_switches {
                        return Err(format!("{s} is out of range ({n_switches} switches)"));
                    }
                }
                FaultKind::DegradeLink { link, rate_factor } => {
                    if link.index() >= n_links {
                        return Err(format!("{link} is out of range ({n_links} links)"));
                    }
                    if !(rate_factor > 0.0 && rate_factor <= 1.0) {
                        return Err(format!("rate factor {rate_factor} outside (0, 1]"));
                    }
                }
                FaultKind::GrayLink {
                    link,
                    drop_fraction,
                } => {
                    if link.index() >= n_links {
                        return Err(format!("{link} is out of range ({n_links} links)"));
                    }
                    if !(0.0..=1.0).contains(&drop_fraction) {
                        return Err(format!("gray drop fraction {drop_fraction} outside [0, 1]"));
                    }
                }
                FaultKind::FlapLink {
                    link,
                    half_period,
                    cycles,
                } => {
                    if link.index() >= n_links {
                        return Err(format!("{link} is out of range ({n_links} links)"));
                    }
                    if half_period.as_nanos() == 0 {
                        return Err("flap half-period must be positive".into());
                    }
                    if cycles == 0 || cycles > MAX_FLAP_CYCLES {
                        return Err(format!(
                            "flap cycles {cycles} outside 1..={MAX_FLAP_CYCLES}"
                        ));
                    }
                }
                FaultKind::MirrorLoss { fraction } | FaultKind::FbflowLoss { fraction } => {
                    if !(0.0..=1.0).contains(&fraction) {
                        return Err(format!("loss fraction {fraction} outside [0, 1]"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A seed-derived schedule over `horizon`: `failures` switch or link
    /// outages (each with a recovery at a random later time), one degraded
    /// link, and one window of partial mirror loss. Same topology + same
    /// seed → the same plan, byte for byte.
    ///
    /// Hosts' access links and the backbone are never failed (the paper's
    /// plant treats those as the unredundant edges of the world); outages
    /// target the redundant CSW/FC layers where ECMP can re-hash around
    /// them.
    pub fn random(topo: &Topology, seed: u64, horizon: SimDuration, failures: usize) -> FaultPlan {
        let mut rng = Rng::new(seed).fork("fault-plan");
        let redundant: Vec<SwitchId> = topo
            .switches()
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SwitchKind::Csw | SwitchKind::Fc))
            .map(|(i, _)| SwitchId(i as u32))
            .collect();
        let span = horizon.as_nanos().max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..failures {
            let down_at = SimTime::from_nanos(rng.below(span));
            let up_at = SimTime::from_nanos(down_at.as_nanos() + 1 + rng.below(span / 2 + 1));
            if !redundant.is_empty() && rng.chance(0.6) {
                let sw = *rng.pick(&redundant);
                plan = plan
                    .at(down_at, FaultKind::SwitchDown(sw))
                    .at(up_at, FaultKind::SwitchUp(sw));
            } else {
                let link = LinkId(rng.below(topo.links().len() as u64) as u32);
                plan = plan
                    .at(down_at, FaultKind::LinkDown(link))
                    .at(up_at, FaultKind::LinkUp(link));
            }
        }
        // One degraded link for the whole tail of the run.
        let link = LinkId(rng.below(topo.links().len() as u64) as u32);
        let factor = rng.range_f64(0.25, 0.75);
        plan = plan.at(
            SimTime::from_nanos(rng.below(span)),
            FaultKind::DegradeLink {
                link,
                rate_factor: factor,
            },
        );
        // One window of degraded mirror capture.
        let loss_at = SimTime::from_nanos(rng.below(span));
        let heal_at = SimTime::from_nanos(loss_at.as_nanos() + 1 + rng.below(span / 2 + 1));
        plan = plan
            .at(
                loss_at,
                FaultKind::MirrorLoss {
                    fraction: rng.range_f64(0.1, 0.9),
                },
            )
            .at(heal_at, FaultKind::MirrorLoss { fraction: 0.0 });
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_topology::{ClusterSpec, TopologySpec};

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_dc(vec![ClusterSpec::frontend(4, 2)])).expect("valid")
    }

    #[test]
    fn plan_keeps_time_order_with_stable_ties() {
        let t = SimTime::from_millis(5);
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(9), FaultKind::LinkUp(LinkId(0)))
            .at(t, FaultKind::LinkDown(LinkId(0)))
            .at(t, FaultKind::SwitchDown(SwitchId(1)))
            .at(SimTime::ZERO, FaultKind::MirrorLoss { fraction: 0.5 });
        let ats: Vec<u64> = plan.events().iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(ats, vec![0, 5, 5, 9]);
        // Equal timestamps preserve insertion order.
        assert_eq!(plan.events()[1].kind, FaultKind::LinkDown(LinkId(0)));
        assert_eq!(plan.events()[2].kind, FaultKind::SwitchDown(SwitchId(1)));
    }

    #[test]
    fn network_and_telemetry_split() {
        let plan = FaultPlan::new()
            .at(SimTime::ZERO, FaultKind::LinkDown(LinkId(3)))
            .at(SimTime::ZERO, FaultKind::MirrorLoss { fraction: 1.0 })
            .at(SimTime::ZERO, FaultKind::FbflowLoss { fraction: 0.25 });
        assert_eq!(plan.network_events().count(), 1);
        assert_eq!(plan.telemetry_events().count(), 2);
    }

    #[test]
    fn validation_catches_bad_ids_and_fractions() {
        let t = topo();
        let ok = FaultPlan::new()
            .at(SimTime::ZERO, FaultKind::SwitchDown(SwitchId(0)))
            .at(
                SimTime::ZERO,
                FaultKind::DegradeLink {
                    link: LinkId(0),
                    rate_factor: 0.5,
                },
            );
        assert!(ok.validate(&t).is_ok());
        let bad_link = FaultPlan::new().at(SimTime::ZERO, FaultKind::LinkDown(LinkId(9999)));
        assert!(bad_link.validate(&t).is_err());
        let bad_switch = FaultPlan::new().at(SimTime::ZERO, FaultKind::SwitchUp(SwitchId(9999)));
        assert!(bad_switch.validate(&t).is_err());
        let bad_factor = FaultPlan::new().at(
            SimTime::ZERO,
            FaultKind::DegradeLink {
                link: LinkId(0),
                rate_factor: 0.0,
            },
        );
        assert!(bad_factor.validate(&t).is_err());
        let bad_fraction =
            FaultPlan::new().at(SimTime::ZERO, FaultKind::MirrorLoss { fraction: 1.5 });
        assert!(bad_fraction.validate(&t).is_err());
    }

    #[test]
    fn validation_covers_gray_and_flap_kinds() {
        let t = topo();
        let ok = FaultPlan::new()
            .at(
                SimTime::ZERO,
                FaultKind::GrayLink {
                    link: LinkId(0),
                    drop_fraction: 0.3,
                },
            )
            .at(
                SimTime::from_millis(1),
                FaultKind::FlapLink {
                    link: LinkId(1),
                    half_period: SimDuration::from_millis(100),
                    cycles: 3,
                },
            );
        assert!(ok.validate(&t).is_ok());
        let bad_gray = FaultPlan::new().at(
            SimTime::ZERO,
            FaultKind::GrayLink {
                link: LinkId(0),
                drop_fraction: 1.5,
            },
        );
        assert!(bad_gray.validate(&t).is_err());
        let bad_flap_period = FaultPlan::new().at(
            SimTime::ZERO,
            FaultKind::FlapLink {
                link: LinkId(0),
                half_period: SimDuration::from_nanos(0),
                cycles: 1,
            },
        );
        assert!(bad_flap_period.validate(&t).is_err());
        let bad_flap_cycles = FaultPlan::new().at(
            SimTime::ZERO,
            FaultKind::FlapLink {
                link: LinkId(0),
                half_period: SimDuration::from_millis(1),
                cycles: 0,
            },
        );
        assert!(bad_flap_cycles.validate(&t).is_err());
    }

    #[test]
    fn random_plans_are_seed_deterministic_and_valid() {
        let t = topo();
        let horizon = SimDuration::from_secs(3);
        let a = FaultPlan::random(&t, 42, horizon, 3);
        let b = FaultPlan::random(&t, 42, horizon, 3);
        assert_eq!(a, b);
        assert!(a.validate(&t).is_ok());
        assert!(a.len() >= 3, "plan has {} events", a.len());
        let c = FaultPlan::random(&t, 43, horizon, 3);
        assert_ne!(a, c, "different seeds should differ");
    }
}
