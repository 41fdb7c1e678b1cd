//! Diurnal load modulation.
//!
//! §4.1: "Demand follows typical diurnal and day-of-the-week patterns,
//! although the magnitude of change is on the order of 2× as opposed to
//! the order-of-magnitude variation reported elsewhere."

use serde::{Deserialize, Serialize};
use sonet_util::{SimDuration, SimTime};

/// A sinusoidal day/night rate multiplier.
///
/// The multiplier oscillates between `1 - amplitude` and `1 + amplitude`
/// around 1.0 over one `period`. With the default amplitude of `1/3`, the
/// peak-to-trough ratio is `(1+1/3)/(1-1/3) = 2×`, matching §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalPattern {
    /// Swing around the mean; `|amplitude| < 1` keeps the multiplier
    /// positive. A negative amplitude shifts the peak by half a period.
    pub amplitude: f64,
    /// Length of one cycle (a simulated day).
    pub period: SimDuration,
    /// Fraction of a period by which the peak is shifted.
    pub phase: f64,
}

impl DiurnalPattern {
    /// Flat (no modulation) — appropriate for minutes-long traces where
    /// §4.2 observes "over short enough periods of time, the graph looks
    /// essentially flat".
    pub fn flat() -> DiurnalPattern {
        DiurnalPattern {
            amplitude: 0.0,
            period: SimDuration::from_secs(86_400),
            phase: 0.0,
        }
    }

    /// The paper's 2× day/night swing over a 24-hour period.
    pub fn paper_default() -> DiurnalPattern {
        DiurnalPattern {
            amplitude: 1.0 / 3.0,
            period: SimDuration::from_secs(86_400),
            phase: 0.0,
        }
    }

    /// A compressed day for experiments that cannot simulate 24 hours of
    /// packets (see DESIGN.md §3 "Compressed day").
    pub fn compressed(period: SimDuration) -> DiurnalPattern {
        DiurnalPattern {
            amplitude: 1.0 / 3.0,
            period,
            phase: 0.0,
        }
    }

    /// The closed range `[lo, hi]` every [`multiplier`](Self::multiplier)
    /// value lies in: `1 ± |amplitude|`. `sin` stays within ±1, and float
    /// multiply and add are monotone, so `1 + a·sin(x)` cannot leave
    /// `[1 − |a|, 1 + |a|]` as computed. A sine argument that overflows
    /// (a phase too large or not finite) makes `sin` NaN, which no range
    /// holds; the range is then the whole line.
    pub fn bounds(&self) -> (f64, f64) {
        if !(std::f64::consts::TAU * (self.phase.abs() + 1.0)).is_finite() {
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        let a = self.amplitude.abs();
        (1.0 - a, 1.0 + a)
    }

    /// The rate multiplier at time `t`.
    pub fn multiplier(&self, t: SimTime) -> f64 {
        debug_assert!(self.amplitude.abs() < 1.0);
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let frac = (t.as_nanos() % self.period.as_nanos()) as f64 / self.period.as_nanos() as f64;
        1.0 + self.amplitude * (std::f64::consts::TAU * (frac + self.phase)).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_constant_one() {
        let d = DiurnalPattern::flat();
        for s in [0u64, 100, 86_400, 1_000_000] {
            assert_eq!(d.multiplier(SimTime::from_secs(s)), 1.0);
        }
    }

    #[test]
    fn paper_default_swings_two_x() {
        let d = DiurnalPattern::paper_default();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in (0..86_400).step_by(600) {
            let m = d.multiplier(SimTime::from_secs(s));
            lo = lo.min(m);
            hi = hi.max(m);
        }
        assert!((hi / lo - 2.0).abs() < 0.05, "swing {}", hi / lo);
    }

    #[test]
    fn pattern_is_periodic() {
        let d = DiurnalPattern::paper_default();
        let a = d.multiplier(SimTime::from_secs(3_600));
        let b = d.multiplier(SimTime::from_secs(3_600 + 86_400));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn compressed_period_respected() {
        let d = DiurnalPattern::compressed(SimDuration::from_secs(60));
        let a = d.multiplier(SimTime::from_secs(15));
        let b = d.multiplier(SimTime::from_secs(45));
        // Quarter vs three-quarter period: peak vs trough.
        assert!(a > 1.2 && b < 0.8, "a={a} b={b}");
    }
}
