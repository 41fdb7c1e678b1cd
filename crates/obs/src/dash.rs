//! Reader-side analytics over timeline artifacts: the `sonet top` live
//! dashboard frame and the `sonet diff` run comparator.
//!
//! Everything here consumes artifacts (`TIMELINE.jsonl`, `RUNINFO.json`)
//! from disk — never the live registry — so both tools work on a run
//! from another process, a finished run, or a run that crashed, without
//! perturbing the simulator. The rendering is plain text; the CLI owns
//! terminal control (clearing, refresh cadence, TTY detection).

use crate::metrics::HistogramSnapshot;
use crate::report::{human_rate, human_secs};
use crate::timeline::TimelineRow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Eight-level block sparkline of `vals`, scaled to the series maximum.
pub fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().copied().fold(0.0f64, f64::max);
    vals.iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// The `p`-th percentile (0..=100) of a bucketed histogram, reported as
/// the upper bound of the bucket containing that rank. Observations in
/// the overflow bucket report `u64::MAX`. `None` when the histogram is
/// empty.
pub fn percentile(h: &HistogramSnapshot, p: f64) -> Option<u64> {
    if h.count == 0 {
        return None;
    }
    let rank = (p / 100.0 * h.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(h.bounds.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
}

/// Cumulative state reconstructed by replaying a run's timeline rows (or
/// read directly from a `RUNINFO.json` final snapshot): the last-known
/// total of every metric, accumulated histogram finals, and enough
/// identity to label a comparison.
#[derive(Debug, Default, Clone)]
pub struct RunSeries {
    /// Where the series came from, for report headers.
    pub label: String,
    /// Final `(kind, value)` per metric name (cumulative totals for
    /// counters and histograms, last value for gauges).
    pub finals: BTreeMap<String, (String, u64)>,
    /// Accumulated histogram finals by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
    /// Wall seconds covered by the artifact.
    pub wall_secs: f64,
    /// The timeline rows, oldest first. Empty for `RUNINFO.json` input.
    pub rows: Vec<TimelineRow>,
}

impl RunSeries {
    /// Folds one more timeline row into the cumulative state.
    pub fn push(&mut self, row: TimelineRow) {
        for (name, kind, _delta, total) in &row.metrics {
            self.finals.insert(name.clone(), (kind.clone(), *total));
        }
        for (name, dh) in &row.histograms {
            let e = self.hists.entry(name.clone()).or_insert(HistogramSnapshot {
                bounds: dh.bounds.clone(),
                counts: vec![0; dh.counts.len()],
                sum: 0,
                count: 0,
            });
            for (acc, &d) in e.counts.iter_mut().zip(&dh.counts) {
                *acc += d;
            }
            e.sum += dh.sum;
            e.count += dh.count;
        }
        self.wall_secs = row.wall_us as f64 / 1e6;
        self.rows.push(row);
    }

    /// The final value of a metric, if the artifact ever reported it.
    pub fn total(&self, name: &str) -> Option<u64> {
        self.finals.get(name).map(|(_, v)| *v)
    }
}

/// Resolves a user-supplied path to a concrete artifact: a file is used
/// as-is; a directory prefers its `TIMELINE.jsonl`, then `RUNINFO.json`.
pub fn resolve_artifact(path: &Path) -> Result<PathBuf, String> {
    if path.is_file() {
        return Ok(path.to_path_buf());
    }
    if path.is_dir() {
        for name in [crate::timeline::TIMELINE, "RUNINFO.json"] {
            let p = path.join(name);
            if p.is_file() {
                return Ok(p);
            }
        }
        return Err(format!(
            "{}: no TIMELINE.jsonl or RUNINFO.json inside",
            path.display()
        ));
    }
    Err(format!("{}: no such file or directory", path.display()))
}

/// Loads a [`RunSeries`] from a `TIMELINE.jsonl` or `RUNINFO.json` path
/// (or a directory containing one — timeline preferred).
pub fn load_series(path: &Path) -> Result<RunSeries, String> {
    let file = resolve_artifact(path)?;
    let mut s = RunSeries {
        label: file.display().to_string(),
        ..RunSeries::default()
    };
    if file.file_name().and_then(|n| n.to_str()) == Some("RUNINFO.json") {
        load_runinfo(&file, &mut s)?;
        return Ok(s);
    }
    let (rows, _) =
        crate::timeline::read_rows(&file, 0).map_err(|e| format!("{}: {e}", file.display()))?;
    if rows.is_empty() {
        return Err(format!("{}: no complete timeline records", file.display()));
    }
    for row in rows {
        s.push(row);
    }
    Ok(s)
}

/// Fills a series from a `RUNINFO.json` manifest's final metric snapshot.
fn load_runinfo(path: &Path, s: &mut RunSeries) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    s.wall_secs = match v.get("wall_secs").map(|w| w.0) {
        Some(serde::Content::F64(x)) => x,
        Some(serde::Content::U64(n)) => n as f64,
        _ => 0.0,
    };
    let entries = v
        .get("metrics")
        .and_then(|m| m.get("entries"))
        .ok_or_else(|| format!("{}: no metrics.entries", path.display()))?;
    let serde::Content::Seq(items) = &entries.0 else {
        return Err(format!(
            "{}: metrics.entries is not an array",
            path.display()
        ));
    };
    for item in items {
        let e = serde_json::Value(item.clone());
        let (Some(name), Some(kind)) = (
            e.get("name").and_then(|n| n.0.as_str().map(str::to_owned)),
            e.get("kind").and_then(|k| k.0.as_str().map(str::to_owned)),
        ) else {
            continue;
        };
        let value = match e.get("value").map(|n| n.0) {
            Some(serde::Content::U64(n)) => n,
            _ => 0,
        };
        if let Some(h) = e
            .get("histogram")
            .and_then(crate::timeline::value_histogram)
        {
            s.hists.insert(name.clone(), h);
        }
        s.finals.insert(name, (kind, value));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `sonet top`: one dashboard frame from the rows read so far.
// ---------------------------------------------------------------------

/// Per-row events/sec, from deltas over wall time, for the dashboard
/// sparkline.
fn row_rates(rows: &[TimelineRow]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut prev_wall = None;
    for r in rows {
        let dwall_s = prev_wall
            .map(|p: u64| r.wall_us.saturating_sub(p) as f64 / 1e6)
            .unwrap_or(r.wall_us as f64 / 1e6);
        prev_wall = Some(r.wall_us);
        let d = |name: &str| -> u64 {
            r.metrics
                .iter()
                .find(|(n, _, _, _)| n == name)
                .map(|(_, _, d, _)| *d)
                .unwrap_or(0)
        };
        out.push(if dwall_s > 0.0 {
            d("engine.events") as f64 / dwall_s
        } else {
            0.0
        });
    }
    out
}

/// Renders one `sonet top` frame from the rows read so far. Pure
/// formatting — the CLI owns tailing, refresh, and screen clearing.
pub fn render_frame(series: &RunSeries) -> String {
    let rows = &series.rows;
    let Some(last) = rows.last() else {
        return "waiting for timeline records...\n".to_owned();
    };
    let mut out = String::new();
    let ids = [
        last.fault_plan_hash
            .as_deref()
            .map(|h| format!("faults={h}")),
        last.campaign_id.as_deref().map(|c| format!("campaign={c}")),
    ]
    .into_iter()
    .flatten()
    .collect::<Vec<_>>()
    .join(" ");
    out.push_str(&format!(
        "seq={} trigger={} phase={}{}{}\n",
        last.seq,
        last.trigger,
        if last.phase.is_empty() {
            "-"
        } else {
            &last.phase
        },
        if ids.is_empty() { "" } else { " " },
        ids,
    ));

    // Progress and ETA from the event horizon.
    if let Some(h) = last.horizon_ns.filter(|&h| h > 0) {
        let f = (last.sim_ns as f64 / h as f64).clamp(0.0, 1.0);
        let filled = (f * 30.0).round() as usize;
        let eta = eta_secs(rows, h);
        out.push_str(&format!(
            "progress [{}{}] {:5.1}%{}\n",
            "#".repeat(filled),
            "-".repeat(30 - filled),
            f * 100.0,
            eta.map(|e| format!(" eta={}", human_secs(e)))
                .unwrap_or_default(),
        ));
        if last.trigger == "final" {
            out.push_str("run finished\n");
        }
    }

    // Instantaneous and sparkline rates.
    let rates = row_rates(rows);
    let window = &rates[rates.len().saturating_sub(32)..];
    if let Some(&evs) = window.last() {
        out.push_str(&format!(
            "events/sec {:>9}  {}\n",
            human_rate(evs),
            sparkline(window),
        ));
    }

    // Per-role flow open rates over the latest window.
    let mut roles: Vec<String> = Vec::new();
    for (name, _, delta, _) in &last.metrics {
        if let Some(role) = name
            .strip_prefix("workload.role.")
            .and_then(|r| r.strip_suffix(".flows_opened"))
        {
            roles.push(format!("{role}:{delta}"));
        }
    }
    if !roles.is_empty() {
        out.push_str(&format!("flows/window {}\n", roles.join(" ")));
    }

    // Drops by cause and SLO/audit breach flags, from cumulative totals.
    let drops: Vec<String> = series
        .finals
        .iter()
        .filter(|(n, _)| n.starts_with("engine.drop."))
        .map(|(n, (_, v))| format!("{}:{v}", &n["engine.drop.".len()..]))
        .collect();
    if !drops.is_empty() {
        out.push_str(&format!("drops {}\n", drops.join(" ")));
    }
    let mut flags = Vec::new();
    if series.total("chaos.violations").unwrap_or(0) > 0 {
        flags.push(format!(
            "SLO-VIOLATIONS:{}",
            series.total("chaos.violations").unwrap_or(0)
        ));
    }
    if series.total("supervisor.audit_violations").unwrap_or(0) > 0 {
        flags.push("AUDIT-VIOLATION".to_owned());
    }
    if series.total("degradation.mirror_overflow").unwrap_or(0) > 0 {
        flags.push("MIRROR-OVERFLOW".to_owned());
    }
    if !flags.is_empty() {
        out.push_str(&format!("breach {}\n", flags.join(" ")));
    }
    out
}

/// ETA in wall seconds, extrapolated from sim-time progress per wall
/// second over the most recent rows.
fn eta_secs(rows: &[TimelineRow], horizon_ns: u64) -> Option<f64> {
    let last = rows.last()?;
    if last.sim_ns >= horizon_ns {
        return Some(0.0);
    }
    let base = rows.len().saturating_sub(8);
    let first = &rows[base];
    let dsim = last.sim_ns.saturating_sub(first.sim_ns) as f64;
    let dwall = last.wall_us.saturating_sub(first.wall_us) as f64 / 1e6;
    if dsim <= 0.0 || dwall <= 0.0 {
        return None;
    }
    Some((horizon_ns - last.sim_ns) as f64 / (dsim / dwall))
}

// ---------------------------------------------------------------------
// `sonet diff`: regression table between two runs.
// ---------------------------------------------------------------------

/// One comparison row of a diff report.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// What is being compared (e.g. `events_per_sec`).
    pub what: String,
    /// Value in run A, `NaN` when absent.
    pub a: f64,
    /// Value in run B, `NaN` when absent.
    pub b: f64,
    /// Signed change in percent, B relative to A (positive = B larger).
    pub change_pct: f64,
    /// True when the change direction is a regression (slower, more
    /// drops, higher latency).
    pub worse: bool,
}

/// The outcome of comparing two runs.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// All comparison rows, throughput first.
    pub rows: Vec<DiffRow>,
    /// Count of sim-time windows aligned between the two timelines (0
    /// when either side came from `RUNINFO.json`).
    pub aligned_windows: usize,
    /// Largest relative per-window `engine.events` deviation across the
    /// aligned windows.
    pub max_window_dev_pct: f64,
}

impl DiffReport {
    /// Rows whose regression exceeds `gate_pct` percent.
    pub fn regressions(&self, gate_pct: f64) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.worse && r.change_pct.abs() > gate_pct)
            .collect()
    }

    /// Renders the fixed-width regression table.
    pub fn render(&self, a_label: &str, b_label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("A: {a_label}\nB: {b_label}\n"));
        out.push_str(&format!(
            "{:<36} {:>14} {:>14} {:>9}\n",
            "metric", "A", "B", "change"
        ));
        for r in &self.rows {
            let fmt = |x: f64| {
                if x.is_nan() {
                    "-".to_owned()
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{x:.0}")
                } else {
                    format!("{x:.4}")
                }
            };
            out.push_str(&format!(
                "{:<36} {:>14} {:>14} {:>+8.2}%{}\n",
                r.what,
                fmt(r.a),
                fmt(r.b),
                r.change_pct,
                if r.worse { " !" } else { "" }
            ));
        }
        if self.aligned_windows > 0 {
            out.push_str(&format!(
                "aligned {} sim-time windows; max per-window events deviation {:.2}%\n",
                self.aligned_windows, self.max_window_dev_pct
            ));
        }
        out
    }
}

/// Signed percent change from `a` to `b` (0 when both are 0).
fn pct_change(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        0.0
    } else if a == 0.0 {
        100.0
    } else {
        (b - a) / a * 100.0
    }
}

/// Compares run B against baseline run A, producing the regression
/// table: throughput (events/sec), drops by cause, and p50/p99 for every
/// histogram both runs carry.
pub fn diff(a: &RunSeries, b: &RunSeries) -> DiffReport {
    let mut rows = Vec::new();
    let mut push = |what: String, av: f64, bv: f64, worse_if_b: Ordering| {
        let change = pct_change(av, bv);
        let worse = match worse_if_b {
            Ordering::Lower => bv < av,
            Ordering::Higher => bv > av,
        };
        rows.push(DiffRow {
            what,
            a: av,
            b: bv,
            change_pct: change,
            worse: worse && change != 0.0,
        });
    };

    // Throughput: final event count over wall time. Lower in B is worse.
    let eps = |s: &RunSeries| {
        let e = s.total("engine.events").unwrap_or(0) as f64;
        if s.wall_secs > 0.0 {
            e / s.wall_secs
        } else {
            f64::NAN
        }
    };
    push("events_per_sec".into(), eps(a), eps(b), Ordering::Lower);

    // Drops by cause: union of both runs' engine.drop.* counters. More
    // drops in B is worse.
    let mut causes: Vec<&String> = a
        .finals
        .keys()
        .chain(b.finals.keys())
        .filter(|n| n.starts_with("engine.drop."))
        .collect();
    causes.sort();
    causes.dedup();
    for c in causes {
        push(
            c.clone(),
            a.total(c).unwrap_or(0) as f64,
            b.total(c).unwrap_or(0) as f64,
            Ordering::Higher,
        );
    }

    // Histogram percentiles, for every histogram both runs carry.
    // Latency-style metrics regress upward; there is no reliable
    // direction for the rest, so only `*_ns`/`*_us` histograms gate.
    let mut names: Vec<&String> = a
        .hists
        .keys()
        .filter(|n| b.hists.contains_key(*n))
        .collect();
    names.sort();
    for name in names {
        let (ha, hb) = (&a.hists[name], &b.hists[name]);
        let latency = name.ends_with("_ns") || name.ends_with("_us");
        for (p, label) in [(50.0, "p50"), (99.0, "p99")] {
            let (Some(pa), Some(pb)) = (percentile(ha, p), percentile(hb, p)) else {
                continue;
            };
            let change = pct_change(pa as f64, pb as f64);
            rows.push(DiffRow {
                what: format!("{name}.{label}"),
                a: pa as f64,
                b: pb as f64,
                change_pct: change,
                worse: latency && pb > pa,
            });
        }
    }

    // Sim-time window alignment, when both sides carry timelines.
    let mut aligned = 0usize;
    let mut max_dev = 0.0f64;
    if !a.rows.is_empty() && !b.rows.is_empty() {
        let deltas = |s: &RunSeries| -> BTreeMap<u64, u64> {
            s.rows
                .iter()
                .filter(|r| r.trigger == "window")
                .map(|r| {
                    let d = r
                        .metrics
                        .iter()
                        .find(|(n, _, _, _)| n == "engine.events")
                        .map(|(_, _, d, _)| *d)
                        .unwrap_or(0);
                    (r.sim_ns, d)
                })
                .collect()
        };
        let da = deltas(a);
        let db = deltas(b);
        for (sim, ea) in &da {
            if let Some(eb) = db.get(sim) {
                aligned += 1;
                max_dev = max_dev.max(pct_change(*ea as f64, *eb as f64).abs());
            }
        }
    }

    DiffReport {
        rows,
        aligned_windows: aligned,
        max_window_dev_pct: max_dev,
    }
}

/// Which direction counts as a regression for a diff row.
enum Ordering {
    /// B below A is worse (throughput).
    Lower,
    /// B above A is worse (drops, latency).
    Higher,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seq: u64, sim_ns: u64, wall_us: u64, events_delta: u64, total: u64) -> TimelineRow {
        TimelineRow {
            seq,
            trigger: "window".into(),
            sim_ns,
            wall_us,
            phase: "ingest".into(),
            horizon_ns: Some(4_000),
            fault_plan_hash: None,
            campaign_id: None,
            metrics: vec![(
                "engine.events".into(),
                "counter".into(),
                events_delta,
                total,
            )],
            histograms: Vec::new(),
        }
    }

    fn series(rows: Vec<TimelineRow>) -> RunSeries {
        let mut s = RunSeries::default();
        for r in rows {
            s.push(r);
        }
        s
    }

    #[test]
    fn percentiles_walk_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![10, 100, 1000],
            counts: vec![50, 40, 9, 1],
            sum: 0,
            count: 100,
        };
        assert_eq!(percentile(&h, 50.0), Some(10));
        assert_eq!(percentile(&h, 90.0), Some(100));
        assert_eq!(percentile(&h, 99.0), Some(1000));
        assert_eq!(percentile(&h, 100.0), Some(u64::MAX));
        assert_eq!(
            percentile(
                &HistogramSnapshot {
                    bounds: vec![],
                    counts: vec![],
                    sum: 0,
                    count: 0
                },
                50.0
            ),
            None
        );
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[0.0, 0.5, 1.0]), "▁▅█");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn self_diff_is_zero_regressions() {
        let s = series(vec![
            row(0, 1_000, 1_000_000, 500, 500),
            row(1, 2_000, 2_000_000, 700, 1_200),
        ]);
        let report = diff(&s, &s);
        assert!(report.regressions(0.0).is_empty(), "{report:?}");
        assert_eq!(report.aligned_windows, 2);
        assert_eq!(report.max_window_dev_pct, 0.0);
    }

    #[test]
    fn slower_run_regresses_throughput() {
        let fast = series(vec![row(0, 2_000, 1_000_000, 1_000, 1_000)]);
        let slow = series(vec![row(0, 2_000, 4_000_000, 1_000, 1_000)]);
        let report = diff(&fast, &slow);
        let evs = report
            .rows
            .iter()
            .find(|r| r.what == "events_per_sec")
            .expect("throughput row");
        assert!(evs.worse, "slower run must flag a regression");
        assert!(!report.regressions(2.0).is_empty());
        // The same sim windows aligned; identical event deltas.
        assert_eq!(report.aligned_windows, 1);
        assert_eq!(report.max_window_dev_pct, 0.0);
    }

    #[test]
    fn frame_renders_progress_and_rates() {
        let s = series(vec![
            row(0, 1_000, 1_000_000, 500, 500),
            row(1, 2_000, 2_000_000, 700, 1_200),
        ]);
        let frame = render_frame(&s);
        assert!(frame.contains("seq=1"), "{frame}");
        assert!(frame.contains("50.0%"), "{frame}");
        assert!(frame.contains("events/sec"), "{frame}");
        assert!(frame.contains("eta="), "{frame}");
    }

    #[test]
    fn frame_speaks_the_heartbeat_formats() {
        // 1000 sim-ns in 126 wall seconds leaves 2000 sim-ns = 252 s;
        // 315M events over those 126 s is 2.5M/s.
        let s = series(vec![
            row(0, 1_000, 1_000_000, 500, 500),
            row(1, 2_000, 127_000_000, 315_000_000, 315_000_500),
        ]);
        let frame = render_frame(&s);
        assert!(frame.contains("eta=4m12s"), "{frame}");
        assert!(frame.contains("events/sec      2.5M"), "{frame}");
    }
}
