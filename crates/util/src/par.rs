//! Deterministic fork/join parallelism on scoped OS threads.
//!
//! Everything in the workspace that fans out — fleet sampling, scenario
//! batches, analysis reduction — goes through this module so the
//! determinism story lives in one place: work is split into *indexed*
//! items, each item is computed independently (its randomness, if any,
//! comes from a per-item forked stream, never from a shared generator),
//! and results are stitched back together **in item order**. The thread
//! count therefore only decides who computes an item, never what the
//! item's value is or where it lands in the output.
//!
//! The pool is scoped (`std::thread::scope`), so borrowed state can be
//! shared by reference without `Arc` gymnastics, and a panicking worker
//! propagates its payload to the caller — which keeps
//! `supervisor::isolate` panic containment working unchanged when the
//! closure runs on a worker instead of the caller's thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default worker count; 0 means "ask the OS"
/// ([`std::thread::available_parallelism`]). Set once by the CLI from
/// `--threads` and read by every call site that does not pass an
/// explicit count.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count. `0` restores the
/// "available parallelism" default.
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Resolves an optional per-call override against the process default:
/// `Some(n > 0)` wins, then a non-zero [`set_threads`] value, then the
/// OS-reported parallelism (at least 1).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) if n > 0 => n,
        _ => match DEFAULT_THREADS.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        },
    }
}

/// Maps `f` over `0..n` on `threads` workers and returns the results in
/// index order.
///
/// Items are handed out through a shared atomic cursor, so scheduling is
/// dynamic (good when item costs are skewed, as with per-interval heavy
/// hitters), but each result is written to its own slot: the output is
/// `[f(0), f(1), …, f(n-1)]` regardless of which worker computed what.
/// With one worker (or `n <= 1`) no threads are spawned at all, so the
/// serial path really is serial — not "parallel with one lane".
///
/// Panics in `f` are re-raised on the caller's thread with the original
/// payload once all workers have stopped.
pub fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // One mutex per slot: each is locked exactly once (the cursor hands
    // every index to exactly one worker), so there is no contention —
    // the locks only exist to stay inside `forbid(unsafe_code)`.
    let mut slots: Vec<Mutex<Option<T>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let slots_ref = &slots;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *slots_ref[i].lock().expect("slot lock never poisons") = Some(value);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panicked past the join above")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

/// Timings of one completed phase of [`run_phased`], filled in by the
/// pool before each `plan` call. Purely observational: nothing in here
/// feeds back into what any state computes, so wall-clock
/// nondeterminism never touches outputs.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Total time workers spent inside `work` calls, summed over workers.
    pub busy_ns: u64,
    /// Total time workers spent in-phase but not inside `work` (cursor
    /// claims plus waiting out the stragglers), summed over workers.
    pub idle_ns: u64,
    /// Longest single worker's in-phase time — the phase's critical path.
    pub wall_ns: u64,
    /// Time spent inside `work(i, ..)` for each state `i`.
    pub slot_busy_ns: Vec<u64>,
    /// Per-worker condvar-wake latency: nanoseconds from the phase
    /// release waking the worker to its first `work` call starting.
    /// `u64::MAX` marks a worker that claimed no state this phase (the
    /// other workers had already claimed them all). Empty on serial
    /// (`threads <= 1`) runs, which have no hand-off to measure. Feeds
    /// the `engine.wake_latency_ns` histogram, so a weak width-8 speedup
    /// is diagnosable from artifacts alone.
    pub wake_first_ns: Vec<u64>,
}

/// Runs a phased (bulk-synchronous) computation over a fixed set of
/// states on a **persistent** pool.
///
/// `plan` runs on the caller's thread with exclusive access to every
/// state and the completed phase's [`PhaseStats`] — it merges
/// cross-state results from the previous phase and sets up the next
/// one — and returns `false` to stop. `work(i, &mut states[i])` then
/// runs for every state, in parallel. The next `plan` call does not
/// start until every `work` call of the phase has returned, so `plan`
/// always observes a quiescent barrier. `plan` is called once before
/// the first phase (use it for setup) and its `false` return is the
/// only exit. Workers are spawned only once that first call asks for a
/// phase, and are then reused for every phase; each barrier is a
/// condvar round-trip.
///
/// Within a phase, workers claim state indices from one shared atomic
/// cursor (the scheme [`map_indexed`] uses), so an idle worker simply
/// takes the next unclaimed state and a slow state never holds the
/// others back behind it. Every state is claimed by exactly one worker
/// per phase and mutated only through `work(i, &mut states[i])` and by
/// `plan` between phases, so *which* thread runs a state can never
/// change what the state computes. With `threads <= 1` the phases run
/// inline in index order and only `slot_busy_ns`, `busy_ns` and
/// `wall_ns` are meaningful. A panic in `work` or `plan` is re-raised
/// on the caller's thread.
pub fn run_phased<S, P, W>(threads: usize, mut states: Vec<S>, mut plan: P, work: W) -> Vec<S>
where
    S: Send,
    P: FnMut(&mut [S], &PhaseStats) -> bool,
    W: Fn(usize, &mut S) + Sync,
{
    let n = states.len();
    let threads = threads.max(1).min(n.max(1));
    let mut stats = PhaseStats {
        slot_busy_ns: vec![0; n],
        ..PhaseStats::default()
    };
    if !plan(&mut states, &stats) {
        return states;
    }
    if threads <= 1 {
        loop {
            let phase_start = std::time::Instant::now();
            let mut busy = 0u64;
            for (i, s) in states.iter_mut().enumerate() {
                let t0 = std::time::Instant::now();
                work(i, s);
                let ns = t0.elapsed().as_nanos() as u64;
                stats.slot_busy_ns[i] = ns;
                busy += ns;
            }
            stats.busy_ns = busy;
            stats.idle_ns = 0;
            stats.wall_ns = phase_start.elapsed().as_nanos() as u64;
            if !plan(&mut states, &stats) {
                return states;
            }
        }
    }

    /// What one worker reports back at the end of a phase.
    struct WorkerReport {
        busy_ns: u64,
        wall_ns: u64,
        slot_busy: Vec<(usize, u64)>,
        /// Condvar wake → first `work` start; `u64::MAX` = claimed nothing.
        wake_first_ns: u64,
    }
    impl Default for WorkerReport {
        fn default() -> WorkerReport {
            WorkerReport {
                busy_ns: 0,
                wall_ns: 0,
                slot_busy: Vec::new(),
                wake_first_ns: u64::MAX,
            }
        }
    }
    struct Ctrl {
        /// Bumped by the coordinator to release workers into a phase.
        phase: u64,
        /// Workers still inside the current phase.
        pending: usize,
        /// Set when the run is over (normally or by a worker panic).
        stop: bool,
    }
    let ctrl = Mutex::new(Ctrl {
        phase: 0,
        pending: 0,
        stop: false,
    });
    let to_workers = std::sync::Condvar::new();
    let to_coord = std::sync::Condvar::new();
    // Next unclaimed state of the current phase; reset to 0 by the
    // coordinator under the `ctrl` lock before each release. `Relaxed`
    // is enough: the cursor only hands out indices. The states move
    // through the slot mutexes, and the reset is ordered before every
    // worker's first claim by the `ctrl` lock that releases the phase.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<S>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));
    let mut reports: Vec<Mutex<WorkerReport>> = Vec::with_capacity(threads);
    reports.resize_with(threads, || Mutex::new(WorkerReport::default()));
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let (ctrl, to_workers, to_coord, cursor) = (&ctrl, &to_workers, &to_coord, &cursor);
    let (slots_ref, reports_ref) = (&slots, &reports);
    let panic_payload = &panic_payload;
    let work = &work;

    std::thread::scope(|scope| {
        for mine in reports_ref {
            scope.spawn(move || {
                let mut seen = 0u64;
                loop {
                    {
                        let mut c = ctrl.lock().expect("ctrl lock never poisons");
                        while c.phase == seen && !c.stop {
                            c = to_workers.wait(c).expect("ctrl lock never poisons");
                        }
                        if c.stop {
                            return;
                        }
                        seen = c.phase;
                    }
                    let phase_start = std::time::Instant::now();
                    let mut report = WorkerReport::default();
                    // The whole phase body is inside the catch: a panic
                    // anywhere (the work itself, a double claim, a
                    // poisoned lock) must reach the stop path below — a
                    // worker dying silently would strand the coordinator
                    // and its siblings on the barrier condvars forever.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut slot = slots_ref[i].lock().expect("slot lock never poisons");
                        let mut s = slot.take().expect("each slot is claimed once per phase");
                        let t0 = std::time::Instant::now();
                        if report.wake_first_ns == u64::MAX {
                            // First claim of the phase: how long the
                            // condvar hand-off took before real work
                            // started.
                            report.wake_first_ns = phase_start.elapsed().as_nanos() as u64;
                        }
                        work(i, &mut s);
                        let ns = t0.elapsed().as_nanos() as u64;
                        *slot = Some(s);
                        drop(slot);
                        report.busy_ns += ns;
                        report.slot_busy.push((i, ns));
                    }));
                    if let Err(payload) = r {
                        let mut c = ctrl.lock().expect("ctrl lock never poisons");
                        let mut p = panic_payload.lock().expect("panic slot");
                        if p.is_none() {
                            *p = Some(payload);
                        }
                        c.stop = true;
                        c.pending = 0;
                        to_workers.notify_all();
                        to_coord.notify_all();
                        return;
                    }
                    report.wall_ns = phase_start.elapsed().as_nanos() as u64;
                    *mine.lock().expect("report lock never poisons") = report;
                    let mut c = ctrl.lock().expect("ctrl lock never poisons");
                    // Saturating: a concurrent panic path forces pending
                    // to zero to wake the coordinator immediately.
                    c.pending = c.pending.saturating_sub(1);
                    if c.pending == 0 {
                        to_coord.notify_all();
                    }
                }
            });
        }

        // Coordinator: alternate released phases with plan (exclusive
        // access) until plan declines or a worker panics. A panic *in
        // plan* is caught and converted into the normal stop path first:
        // unwinding out of the scope with workers parked on the condvar
        // would deadlock the join.
        loop {
            for (slot, s) in slots_ref.iter().zip(states.drain(..)) {
                *slot.lock().expect("slot lock never poisons") = Some(s);
            }
            {
                let mut c = ctrl.lock().expect("ctrl lock never poisons");
                cursor.store(0, Ordering::Relaxed);
                c.pending = threads;
                c.phase += 1;
                to_workers.notify_all();
                while c.pending > 0 {
                    c = to_coord.wait(c).expect("ctrl lock never poisons");
                }
                if c.stop {
                    break;
                }
            }
            stats.busy_ns = 0;
            stats.idle_ns = 0;
            stats.wall_ns = 0;
            stats.slot_busy_ns.fill(0);
            stats.wake_first_ns.clear();
            for r in reports_ref.iter() {
                let mut r = r.lock().expect("report lock never poisons");
                stats.busy_ns += r.busy_ns;
                stats.idle_ns += r.wall_ns.saturating_sub(r.busy_ns);
                stats.wall_ns = stats.wall_ns.max(r.wall_ns);
                stats.wake_first_ns.push(r.wake_first_ns);
                for (i, ns) in r.slot_busy.drain(..) {
                    stats.slot_busy_ns[i] = ns;
                }
            }
            for slot in slots_ref.iter() {
                let s = slot
                    .lock()
                    .expect("slot lock never poisons")
                    .take()
                    .expect("phase barrier returned every state");
                states.push(s);
            }
            let cont = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan(&mut states, &stats)
            }))
            .unwrap_or_else(|payload| {
                let mut p = panic_payload.lock().expect("panic slot");
                if p.is_none() {
                    *p = Some(payload);
                }
                false
            });
            if !cont {
                let mut c = ctrl.lock().expect("ctrl lock never poisons");
                c.stop = true;
                to_workers.notify_all();
                break;
            }
        }
    });

    if let Some(payload) = panic_payload
        .lock()
        .expect("panic slot lock never poisons")
        .take()
    {
        std::panic::resume_unwind(payload);
    }
    states
}

/// Splits `0..n` into at most `threads` contiguous ranges of
/// near-equal length (the first `n % threads` ranges get one extra
/// item). Used by callers that want per-shard state — e.g. one record
/// buffer per fleet shard — instead of per-item slots.
pub fn split_ranges(threads: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0usize;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let got = map_indexed(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = map_indexed(4, 0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(2, 10, |i| {
                if i == 7 {
                    panic!("worker seven exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must cross the pool");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("worker seven"), "payload: {msg}");
    }

    #[test]
    fn split_ranges_cover_exactly_once() {
        for threads in [1, 2, 3, 7, 16] {
            for n in [0usize, 1, 5, 16, 97] {
                let ranges = split_ranges(threads, n);
                let mut covered = Vec::new();
                for r in &ranges {
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>());
                let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                if let (Some(max), Some(min)) = (lens.iter().max(), lens.iter().min()) {
                    assert!(max - min <= 1, "balanced shards: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn run_phased_zero_phases_returns_states_untouched() {
        for threads in [1, 4] {
            let out = run_phased(
                threads,
                vec![9u8, 8, 7],
                |_, _| false,
                |_, _| unreachable!(),
            );
            assert_eq!(out, vec![9, 8, 7], "threads={threads}");
        }
    }

    #[test]
    fn run_phased_plan_sees_quiescent_barrier() {
        // Every phase doubles each state; plan asserts all states moved
        // in lockstep, which fails if any work call leaks past a barrier.
        for threads in [1, 2, 4] {
            let mut rounds = 0u64;
            let out = run_phased(
                threads,
                vec![1u64; 8],
                |states, _| {
                    let first = states[0];
                    assert!(states.iter().all(|&s| s == first), "lockstep: {states:?}");
                    rounds += 1;
                    rounds <= 6
                },
                |_, s| *s *= 2,
            );
            assert_eq!(out, vec![64u64; 8], "threads={threads}");
        }
    }

    #[test]
    fn run_phased_matches_serial_at_any_width() {
        // Each phase adds 3*(i+1) to state i; plan folds the running
        // cross-state sum into state 0 (the exclusive access it gets
        // between phases): which worker claims a state may vary, what
        // the state computes may not.
        let run = |threads: usize| -> Vec<u64> {
            let mut phase = 0u64;
            run_phased(
                threads,
                vec![0u64; 5],
                |states, _| {
                    if phase > 0 {
                        let total: u64 = states.iter().sum();
                        states[0] += total % 7;
                    }
                    phase += 1;
                    phase <= 10
                },
                |i, s| {
                    *s += (i as u64 + 1) * 3;
                },
            )
        };
        let want = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
    }

    #[test]
    fn a_slow_state_does_not_hold_back_the_rest() {
        // State 0's work blocks until states 1..=3 of the same phase have
        // run, so each phase completes only if the other worker claims
        // them from the shared cursor while state 0 is still running. A
        // pool that made them wait behind state 0 would time out here.
        let others = (Mutex::new(0u64), std::sync::Condvar::new());
        let mut phase = 0u64;
        let out = run_phased(
            2,
            vec![0u64; 4],
            |_, stats| {
                if phase > 0 {
                    // State 0 blocked on the condvar for real time, so a
                    // pool that stopped timing its workers reads zero here.
                    assert!(
                        stats.slot_busy_ns[0] > 0 && stats.busy_ns > 0,
                        "workers must report busy time"
                    );
                    assert!(stats.busy_ns >= stats.slot_busy_ns[0]);
                    assert!(stats.wall_ns >= stats.slot_busy_ns[0]);
                    assert_eq!(stats.wake_first_ns.len(), 2, "one wake sample per worker");
                }
                phase += 1;
                phase <= 3
            },
            |i, s| {
                *s += 1;
                let (done, cv) = &others;
                if i == 0 {
                    let want = 3 * *s;
                    let (guard, timeout) = cv
                        .wait_timeout_while(
                            done.lock().expect("test lock"),
                            std::time::Duration::from_secs(10),
                            |n| *n < want,
                        )
                        .expect("test lock");
                    drop(guard);
                    assert!(!timeout.timed_out(), "states 1..=3 waited behind state 0");
                } else {
                    *done.lock().expect("test lock") += 1;
                    cv.notify_all();
                }
            },
        );
        assert_eq!(out, vec![3u64; 4]);
    }

    #[test]
    fn run_phased_worker_panics_propagate() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut phase = 0;
            run_phased(
                3,
                vec![0u32; 6],
                |_, _| {
                    phase += 1;
                    phase <= 3
                },
                |i, s| {
                    if *s == 2 && i == 4 {
                        panic!("pool worker exploded");
                    }
                    *s += 1;
                },
            )
        }));
        let payload = caught.expect_err("panic must cross the pool");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("pool worker"), "payload: {msg}");
    }

    /// A panic in `plan` must tear the barrier down and re-raise on the
    /// caller — not strand the workers on the phase condvar (the join at
    /// scope exit would then deadlock).
    #[test]
    fn run_phased_plan_panics_propagate() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut phase = 0;
            run_phased(
                4,
                vec![0u32; 8],
                |_, _| {
                    phase += 1;
                    if phase == 3 {
                        panic!("plan exploded");
                    }
                    true
                },
                |_, s| *s += 1,
            )
        }));
        let payload = caught.expect_err("plan panic must cross the pool");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("plan exploded"), "payload: {msg}");
    }

    #[test]
    fn resolve_prefers_explicit_then_global() {
        set_threads(3);
        assert_eq!(resolve_threads(Some(5)), 5);
        assert_eq!(resolve_threads(None), 3);
        assert_eq!(resolve_threads(Some(0)), 3);
        set_threads(0);
        assert!(resolve_threads(None) >= 1);
    }
}
