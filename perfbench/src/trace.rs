//! In-memory span recorder for the traced run.
//!
//! Spans are opened around each call the benchmark makes into a layer.
//! They are kept in memory and written out when the benchmark ends, so
//! the only cost inside a run is two clock reads and a push per span.
//! With tracing off every method is a no-op and no clock is read.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.run_until`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The iteration the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when on; does nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for a span opened with [`Tracer::open`].
#[must_use = "close the span with Tracer::close"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags spans opened from now on with iteration `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; children opened before [`Tracer::close`] nest in it.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every closed span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self time per span name for iteration `run`, in seconds.
pub fn self_seconds_by_name(spans: &[Span], selfs: &[u64], run: u32, name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.run == run && s.name == name)
        .fold(0.0, |acc, (_, &ns)| acc + ns as f64 / 1e9)
}

/// Writes spans as JSON lines, one object per span with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren() {
        let spans = [
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(
            self_seconds_by_name(&spans, &self_times(&spans), 0, "a"),
            20e-9
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("x");
        assert_eq!(tr.leaf("y", || 7), 7);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tr = Tracer::new(true);
        tr.set_run(3);
        let root = tr.open("run");
        tr.leaf("child", || ());
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(to_jsonl(spans).lines().count() == 2);
    }
}
