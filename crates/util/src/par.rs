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
//! The discrete-event engine is not a caller: a simulator drains its one
//! calendar on the caller's thread, so the parallelism lives across
//! independent runs, never inside one.
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
    fn resolve_prefers_explicit_then_global() {
        set_threads(3);
        assert_eq!(resolve_threads(Some(5)), 5);
        assert_eq!(resolve_threads(None), 3);
        assert_eq!(resolve_threads(Some(0)), 3);
        set_threads(0);
        assert!(resolve_threads(None) >= 1);
    }
}
