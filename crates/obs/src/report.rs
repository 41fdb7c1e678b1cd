//! The stderr reporter: serialized progress lines and the throttled
//! heartbeat.
//!
//! Everything human-facing the simulator prints while running goes
//! through here, so concurrent scenarios under `--threads` emit whole
//! lines instead of interleaved fragments. The reporter writes only to
//! stderr — stdout carries rendered reports and stays a deterministic
//! artifact.

use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

fn stderr_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Prints one progress line to stderr, atomically with respect to every
/// other reporter caller. Always active — this replaces ad-hoc
/// `eprintln!`, it is not gated on the obs mode.
pub fn line(msg: &str) {
    let _guard = stderr_lock().lock().expect("reporter lock poisoned");
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{msg}");
}

/// Prints one warning line to stderr (prefixed `warning:`), atomically.
pub fn warn(msg: &str) {
    line(&format!("warning: {msg}"));
}

/// Current resident set size in bytes, from `/proc/self/status` `VmRSS`.
/// Best-effort: `None` off Linux or if the field is missing.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for l in status.lines() {
        if let Some(rest) = l.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// A throttled single-line stderr heartbeat:
/// `[hb label] t=12.5s 41.7% eta=18s events=1034122 ev/s=82.7k mem=213MiB`.
///
/// Ticks are free until the interval elapses; at `ObsMode::Off` they are
/// a single atomic load, and when stderr is not a TTY (logs, CI, pipes)
/// the heartbeat is suppressed entirely — scrolling progress lines in a
/// captured log are noise, and `RUNINFO.json`/`TIMELINE.jsonl` carry the
/// same information durably. Wall-clock reads stay inside this struct —
/// the caller passes only its deterministic progress counters.
pub struct Heartbeat {
    label: &'static str,
    started: Instant,
    last: Instant,
    last_events: u64,
    interval: Duration,
    tty: bool,
}

impl Heartbeat {
    /// A heartbeat named `label`, printing at most every 2 seconds.
    pub fn new(label: &'static str) -> Heartbeat {
        use std::io::IsTerminal;
        let now = Instant::now();
        Heartbeat {
            label,
            started: now,
            last: now,
            last_events: 0,
            interval: Duration::from_secs(2),
            tty: std::io::stderr().is_terminal(),
        }
    }

    /// Records progress (`events` is cumulative) and prints a line if the
    /// throttle interval has elapsed. No-op when obs is off or stderr is
    /// not a TTY. An optional `(done, total)` pair in any unit (sim
    /// nanoseconds reached vs. horizon, hosts generated vs. fleet size)
    /// adds a completion percentage and an ETA extrapolated from the
    /// observed progress rate.
    pub fn tick_progress(&mut self, events: u64, progress: Option<(u64, u64)>) {
        if !crate::on() || !self.tty {
            return;
        }
        let now = Instant::now();
        let since = now.duration_since(self.last);
        if since < self.interval {
            return;
        }
        let rate = (events.saturating_sub(self.last_events)) as f64 / since.as_secs_f64();
        let mem = match rss_bytes() {
            Some(b) => format!("{}MiB", b / (1024 * 1024)),
            None => "?".to_owned(),
        };
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let prog = progress
            .map(|(done, total)| progress_eta(done, total, elapsed))
            .unwrap_or_default();
        line(&format!(
            "[hb {}] t={elapsed:.1}s{prog} events={events} ev/s={} mem={mem}",
            self.label,
            human_rate(rate),
        ));
        self.last = now;
        self.last_events = events;
    }
}

/// Renders `" 41.7% eta=18s"` from a `(done, total)` pair and the wall
/// seconds spent so far; the ETA assumes the observed average rate holds.
/// Empty when `total` is zero or nothing has completed yet (no rate to
/// extrapolate from).
fn progress_eta(done: u64, total: u64, elapsed_secs: f64) -> String {
    if total == 0 {
        return String::new();
    }
    let f = (done as f64 / total as f64).clamp(0.0, 1.0);
    if f <= 0.0 {
        return format!(" {:.1}%", 0.0);
    }
    let eta = elapsed_secs * (1.0 - f) / f;
    format!(" {:.1}% eta={}", f * 100.0, human_secs(eta))
}

/// `18s` / `4m12s` / `2h05m`: the one duration format for ETAs, shared
/// by the heartbeat and the `sonet top` frame.
pub(crate) fn human_secs(secs: f64) -> String {
    let s = secs.max(0.0).round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// `12` / `82.7k` / `2.5M`: the one rate format, shared by the heartbeat
/// and the `sonet top` frame.
pub(crate) fn human_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rates() {
        assert_eq!(human_rate(12.0), "12");
        assert_eq!(human_rate(82_700.0), "82.7k");
        assert_eq!(human_rate(2_500_000.0), "2.5M");
    }

    #[test]
    fn progress_and_eta_render() {
        // Half done after 30s: 30s remain at the observed rate.
        assert_eq!(progress_eta(5, 10, 30.0), " 50.0% eta=30s");
        // A quarter done after 60s: three quarters = 180s = 3 minutes.
        assert_eq!(progress_eta(1, 4, 60.0), " 25.0% eta=3m00s");
        // Degenerate cases must not divide by zero.
        assert_eq!(progress_eta(0, 0, 10.0), "");
        assert_eq!(progress_eta(0, 10, 10.0), " 0.0%");
        // `done > total` clamps rather than reporting >100%.
        assert_eq!(progress_eta(20, 10, 30.0), " 100.0% eta=0s");
    }

    #[test]
    fn human_secs_formats() {
        assert_eq!(human_secs(18.4), "18s");
        assert_eq!(human_secs(252.0), "4m12s");
        assert_eq!(human_secs(7500.0), "2h05m");
    }

    #[test]
    fn rss_is_plausible_on_linux() {
        if let Some(b) = rss_bytes() {
            assert!(b > 1024 * 1024, "a test process uses more than 1 MiB");
        }
    }
}
