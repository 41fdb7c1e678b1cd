//! The `BENCH.json` ledger and the gates that judge it.
//!
//! This module is the only code that knows the ledger's format: the
//! throughput bench fills a [`Bench`], writes it with `serde_json`, reads
//! the committed `crates/bench/BENCH-baseline.json` back into the same
//! struct and runs [`gates`] on the pair. Field names are the JSON keys.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Ledger format version, written as `"schema"`.
pub const SCHEMA: u32 = 9;

/// The committed baseline ledger (`crates/bench/BENCH-baseline.json`)
/// that the two floors compare against.
pub const BASELINE: &str = include_str!("../BENCH-baseline.json");

/// One throughput-bench run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bench {
    /// Always [`SCHEMA`].
    pub schema: u32,
    /// Resolved `--threads` of the run (it sizes the fleet leg's shard
    /// fan-out; every engine leg is serial).
    pub threads: usize,
    /// True for a `SONET_BENCH_FAST=1` (tiny-plant) run.
    pub fast: bool,
    /// Calendar events of the packet-tier leg (workload generation and
    /// engine drain timed together).
    pub engine_events: u64,
    /// Wall seconds of that leg.
    pub engine_secs: f64,
    /// `engine_events / engine_secs`.
    pub events_per_sec: f64,
    /// Fleet-tier rows generated and tagged.
    pub fleet_records: u64,
    /// Wall seconds of fleet generation and tagging.
    pub fleet_generate_secs: f64,
    /// `fleet_records / fleet_generate_secs`.
    pub fleet_records_per_sec: f64,
    /// Wall seconds of Table 3 and Fig 5 on the fleet table.
    pub analysis_secs: f64,
    /// `fleet_generate_secs + analysis_secs`.
    pub scenario_wall_secs: f64,
    /// The engine on the four-datacenter plant (the leg keeps the name
    /// it had when each datacenter drained its own calendar).
    pub partitioned: Partitioned,
    /// Flight-recorder overhead.
    pub obs: Obs,
    /// Streaming-timeline cost inside the `--obs summary` leg.
    pub obs_timeline: ObsTimeline,
    /// Hybrid fast path against the packet engine.
    pub hybrid: Hybrid,
}

/// The engine's drain alone, on a pre-seeded workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partitioned {
    /// Calendar events processed.
    pub events: u64,
    /// Wall seconds of the `run_until` drain.
    pub secs: f64,
    /// `events / secs`.
    pub rate: f64,
    /// Window barriers crossed.
    pub barriers: u64,
}

/// Serial engine rate with the flight recorder off and at `--obs
/// summary`, over N interleaved rounds in one process, each leg sized
/// to a quarter second or more of engine work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Obs {
    /// Median events/sec with the recorder off.
    pub off_events_sec: f64,
    /// Median events/sec at `--obs summary` with the timeline streaming.
    pub summary_events_sec: f64,
    /// Median over rounds of that round's `(off - summary) / off × 100`;
    /// negative is noise.
    pub overhead_pct: f64,
}

/// The streaming timeline at the benched 250 ms sim interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsTimeline {
    /// Snapshots written (windows + final).
    pub snapshots: u64,
    /// Mean wall microseconds per snapshot (registry drain + diff +
    /// framed append).
    pub snapshot_us: f64,
    /// Artifact growth, bytes per wall-clock minute.
    pub bytes_per_min: f64,
}

/// Packet vs hybrid fidelity on the same bulk workload, both at width 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hybrid {
    /// Calendar events of the packet run.
    pub packet_events: u64,
    /// Best-of-N wall seconds of the packet run.
    pub packet_secs: f64,
    /// Calendar events of the hybrid run.
    pub hybrid_events: u64,
    /// Best-of-N wall seconds of the hybrid run.
    pub hybrid_secs: f64,
    /// Requests completed (equal in both runs).
    pub completed_requests: u64,
    /// Flows the hybrid run retired on the fast path.
    pub flows_fast: u64,
    /// Packet-equivalent throughput: `packet_events / hybrid_secs`.
    pub equiv_events_sec: f64,
    /// `packet_secs / hybrid_secs`: raw events/sec is meaningless across
    /// fidelity modes, so the gate compares wall time over identical
    /// traffic.
    pub wall_speedup_over_packet: f64,
}

/// A gate's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The bound holds.
    Ok,
    /// The bound does not apply to this run; the line says why.
    Skip,
    /// The bound is broken.
    Fail,
}

/// One checked bound, printed as one line.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What the gate checks.
    pub name: &'static str,
    /// Its outcome.
    pub verdict: Verdict,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match self.verdict {
            Verdict::Ok => "OK",
            Verdict::Skip => "SKIP",
            Verdict::Fail => "FAIL",
        };
        write!(f, "{verdict}: {}: {}", self.name, self.detail)
    }
}

fn check(name: &'static str, pass: bool, detail: String) -> Gate {
    let verdict = if pass { Verdict::Ok } else { Verdict::Fail };
    Gate {
        name,
        verdict,
        detail,
    }
}

/// Checks `current` against the five bounds, two of them relative to
/// `baseline`, in a fixed order.
///
/// The baseline floors only compare like with like: when the run's
/// `fast` or `threads` differ from the baseline's they SKIP. The
/// overhead and hybrid gates compare sibling runs inside one process, so
/// they hold on any machine.
pub fn gates(current: &Bench, baseline: &Bench) -> Vec<Gate> {
    let same_mode = current.fast == baseline.fast && current.threads == baseline.threads;
    let floor = |name: &'static str, c: f64, b: f64| {
        if !same_mode {
            return Gate {
                name,
                verdict: Verdict::Skip,
                detail: format!(
                    "run is fast={} threads={}, baseline is fast={} threads={}; \
                     measured {c:.0} (informational)",
                    current.fast, current.threads, baseline.fast, baseline.threads,
                ),
            };
        }
        let min = 0.7 * b;
        check(
            name,
            c >= min,
            format!("{c:.0} against floor {min:.0} (0.7 x baseline {b:.0})"),
        )
    };
    let (o, t, h) = (&current.obs, &current.obs_timeline, &current.hybrid);
    vec![
        floor(
            "events_per_sec",
            current.events_per_sec,
            baseline.events_per_sec,
        ),
        floor(
            "partitioned w1 rate",
            current.partitioned.rate,
            baseline.partitioned.rate,
        ),
        check(
            "obs summary overhead",
            o.overhead_pct <= 2.0,
            format!("{:.2}% (budget 2%)", o.overhead_pct),
        ),
        check(
            "timeline snapshots",
            t.snapshots >= 3 && t.snapshot_us > 0.0,
            format!(
                "{} snapshots (min 3) at {:.1}us (must be > 0)",
                t.snapshots, t.snapshot_us
            ),
        ),
        check(
            "hybrid fast path",
            h.flows_fast >= 1 && h.wall_speedup_over_packet >= 5.0,
            format!(
                "{} flows fast (min 1), {:.2}x over packet (min 5x)",
                h.flows_fast, h.wall_speedup_over_packet
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;
    use std::collections::BTreeSet;

    const ROOT_BENCH: &str = include_str!("../../../BENCH.json");

    fn baseline() -> Bench {
        serde_json::from_str(BASELINE).expect("baseline parses")
    }

    /// Every key path of a JSON tree, array elements folded into `[]`.
    fn key_paths(c: &Content, prefix: &str, out: &mut BTreeSet<String>) {
        match c {
            Content::Map(entries) => {
                for (k, v) in entries {
                    let path = format!("{prefix}.{}", k.as_str().expect("string key"));
                    out.insert(path.clone());
                    key_paths(v, &path, out);
                }
            }
            Content::Seq(items) => {
                for v in items {
                    key_paths(v, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    fn paths_of(json: &str) -> BTreeSet<String> {
        let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        let mut out = BTreeSet::new();
        key_paths(&v.0, "", &mut out);
        out
    }

    #[test]
    fn committed_ledgers_parse_with_exactly_the_struct_keys() {
        for (name, text) in [("baseline", BASELINE), ("BENCH.json", ROOT_BENCH)] {
            let b: Bench = serde_json::from_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(b.schema, SCHEMA, "{name}");
            let written = serde_json::to_string_pretty(&b).expect("serialize");
            assert_eq!(paths_of(text), paths_of(&written), "{name}: key drift");
        }
    }

    #[test]
    fn ledger_round_trips() {
        let mut b = baseline();
        b.events_per_sec = 1234567.891_234_5;
        b.partitioned.rate = 1.0 / 3.0;
        let text = serde_json::to_string_pretty(&b).expect("serialize");
        assert_eq!(serde_json::from_str::<Bench>(&text).expect("parse"), b);
    }

    fn verdict(current: &Bench, name: &str) -> Verdict {
        let gates = gates(current, &baseline());
        assert_eq!(gates.len(), 5);
        gates
            .into_iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no gate {name}"))
            .verdict
    }

    /// The baseline judged against itself passes every gate; each case
    /// below breaks exactly one field of it.
    #[test]
    fn baseline_passes_every_gate() {
        for g in gates(&baseline(), &baseline()) {
            assert_eq!(g.verdict, Verdict::Ok, "{g}");
        }
    }

    #[test]
    fn events_per_sec_floor_is_seventy_percent_of_baseline() {
        let min = 0.7 * baseline().events_per_sec;
        let mut b = baseline();
        b.events_per_sec = min;
        assert_eq!(verdict(&b, "events_per_sec"), Verdict::Ok);
        b.events_per_sec = min * (1.0 - 1e-9);
        assert_eq!(verdict(&b, "events_per_sec"), Verdict::Fail);
    }

    #[test]
    fn partitioned_w1_floor_is_seventy_percent_of_baseline() {
        let min = 0.7 * baseline().partitioned.rate;
        let mut b = baseline();
        b.partitioned.rate = min;
        assert_eq!(verdict(&b, "partitioned w1 rate"), Verdict::Ok);
        b.partitioned.rate = min * (1.0 - 1e-9);
        assert_eq!(verdict(&b, "partitioned w1 rate"), Verdict::Fail);
    }

    #[test]
    fn obs_overhead_budget_is_two_percent() {
        let mut b = baseline();
        b.obs.overhead_pct = 2.0;
        assert_eq!(verdict(&b, "obs summary overhead"), Verdict::Ok);
        b.obs.overhead_pct = 2.001;
        assert_eq!(verdict(&b, "obs summary overhead"), Verdict::Fail);
    }

    #[test]
    fn timeline_needs_three_snapshots_of_positive_cost() {
        let mut b = baseline();
        b.obs_timeline.snapshots = 3;
        b.obs_timeline.snapshot_us = 0.001;
        assert_eq!(verdict(&b, "timeline snapshots"), Verdict::Ok);
        b.obs_timeline.snapshots = 2;
        assert_eq!(verdict(&b, "timeline snapshots"), Verdict::Fail);
        b.obs_timeline.snapshots = 3;
        b.obs_timeline.snapshot_us = 0.0;
        assert_eq!(verdict(&b, "timeline snapshots"), Verdict::Fail);
    }

    #[test]
    fn hybrid_needs_a_fast_flow_and_five_times_packet() {
        let mut b = baseline();
        b.hybrid.flows_fast = 1;
        b.hybrid.wall_speedup_over_packet = 5.0;
        assert_eq!(verdict(&b, "hybrid fast path"), Verdict::Ok);
        b.hybrid.wall_speedup_over_packet = 4.999;
        assert_eq!(verdict(&b, "hybrid fast path"), Verdict::Fail);
        b.hybrid.wall_speedup_over_packet = 5.0;
        b.hybrid.flows_fast = 0;
        assert_eq!(verdict(&b, "hybrid fast path"), Verdict::Fail);
    }

    #[test]
    fn baseline_floors_skip_when_mode_or_width_differ() {
        for change in [
            |b: &mut Bench| b.fast = !b.fast,
            |b: &mut Bench| b.threads += 1,
        ] {
            let mut b = baseline();
            change(&mut b);
            // Far below either floor: only the mode check keeps it from failing.
            b.events_per_sec = 1.0;
            b.partitioned.rate = 1.0;
            assert_eq!(verdict(&b, "events_per_sec"), Verdict::Skip);
            assert_eq!(verdict(&b, "partitioned w1 rate"), Verdict::Skip);
            assert_eq!(verdict(&b, "obs summary overhead"), Verdict::Ok);
        }
    }
}
