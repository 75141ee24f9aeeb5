//! Deterministic parallel execution for the secflow workspace.
//!
//! Every hot loop in the flow — trace campaigns, the 64 DPA key
//! guesses, per-net extraction, random LEC rounds, annealing restarts
//! — is embarrassingly parallel, but the workspace's §7 determinism
//! contract demands *byte-identical* results at any worker count.
//! This crate provides the one execution primitive that reconciles
//! the two:
//!
//! * [`par_map`] / [`par_map_range`] — an order-preserving parallel
//!   map on [`std::thread::scope`]. Workers claim chunks of the index
//!   space from a shared [`AtomicUsize`] (chunked work stealing), tag
//!   every result with its item index, and the results are
//!   reassembled in input order. Item `i`'s value therefore never
//!   depends on which worker computed it or when.
//! * [`par_map_range_with`] — the same decomposition with a reusable
//!   per-worker state (`init` once per worker, `f(&mut state, i)` per
//!   item), for campaigns whose per-item work wants an expensive
//!   scratch buffer rather than fresh allocations.
//! * [`tree_sum`] — a fixed-shape pairwise reduction for `f64`
//!   accumulations. Its bracketing depends only on the input length,
//!   never on the worker count, so parallel sums stay bit-exact.
//! * Panic capture: a panicking task aborts the pool and the panic of
//!   the *lowest* panicking item index is re-raised on the caller, so
//!   even failures are deterministic.
//!
//! Callers must pair this with *stream splitting* on the RNG side:
//! per-item randomness is derived as `f(seed, item_index)` (see
//! `secflow_rand::split_seed`), never drawn sequentially across items,
//! so item `i`'s stream is independent of items `0..i`.
//!
//! # Choosing the worker count
//!
//! Resolution order, first match wins:
//!
//! 1. a thread-local [`with_threads`] override (scoped, for tests);
//! 2. the process-global [`set_threads`] value (the `--threads` CLI
//!    flag);
//! 3. the `SECFLOW_THREADS` environment variable;
//! 4. [`std::thread::available_parallelism`].
//!
//! A count of `1` runs the exact same per-item decomposition serially
//! on the calling thread — there is no separate serial code path to
//! drift from the parallel one.
//!
//! Nested parallelism is rejected by falling back to serial: a
//! `par_map` issued from inside a worker task runs inline, so the
//! pool never recursively oversubscribes and task granularity stays
//! predictable.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-global worker count; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped per-thread override; 0 means "not set".
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// True on pool worker threads, to serialize nested `par_map`s.
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// Execution configuration: how many workers a parallel region uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker count; `1` executes serially on the calling thread.
    pub threads: usize,
}

impl ExecConfig {
    /// Resolves the effective configuration from the override chain
    /// (see the crate docs for the precedence).
    pub fn resolve() -> Self {
        let local = LOCAL_THREADS.with(Cell::get);
        if local != 0 {
            return ExecConfig { threads: local };
        }
        let global = GLOBAL_THREADS.load(Ordering::Relaxed);
        if global != 0 {
            return ExecConfig { threads: global };
        }
        if let Ok(v) = std::env::var("SECFLOW_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n != 0 {
                    return ExecConfig { threads: n };
                }
            }
        }
        ExecConfig {
            threads: std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// The serial configuration.
    pub fn serial() -> Self {
        ExecConfig { threads: 1 }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::resolve()
    }
}

/// Sets the process-global worker count (the `--threads` CLI flag).
/// `0` clears the setting, falling through to `SECFLOW_THREADS` /
/// `available_parallelism`.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count the next top-level parallel region will use.
pub fn effective_threads() -> usize {
    ExecConfig::resolve().threads
}

/// Runs `f` with the worker count pinned to `n` on this thread only.
/// Scoped and panic-safe: the previous override is restored when `f`
/// returns or unwinds. This is the race-free way for tests to compare
/// thread counts (unlike mutating `SECFLOW_THREADS`, which is
/// process-global).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(|c| c.replace(n)));
    f()
}

/// True while executing inside a pool worker task; `par_map` calls
/// made in this state run serially inline.
pub fn in_parallel_region() -> bool {
    IN_PAR.with(Cell::get)
}

/// Order-preserving parallel map over a slice.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Order-preserving parallel map over the index range `0..n`.
///
/// `out[i] == f(i)` for every `i`, regardless of the worker count.
/// If any task panics, the panic of the lowest panicking index is
/// re-raised after the pool drains.
pub fn par_map_range<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = ExecConfig::resolve().threads.min(n.max(1));
    if threads <= 1 || in_parallel_region() {
        return (0..n).map(f).collect();
    }
    run_pool(n, threads, &f)
}

/// [`par_map_range`] with reusable per-worker state.
///
/// Each pool worker calls `init()` once and threads the resulting
/// value through every item it processes as `f(&mut state, i)`; the
/// serial path (one thread, or a nested region) creates a single state
/// and reuses it for all items. This is the campaign primitive for
/// expensive scratch buffers — e.g. one `secflow_sim::EngineScratch`
/// per worker, reset per window instead of reallocated.
///
/// **Caller contract:** `f(state, i)` must return the same value for
/// item `i` no matter which items the state previously processed (the
/// state is a scratch or cache, not an accumulator). Work distribution
/// is scheduling-dependent, so a history-sensitive `f` would break the
/// crate's determinism guarantee. `state` needs no `Send`/`Sync`: it
/// is created and consumed entirely on one worker thread.
pub fn par_map_range_with<S, R: Send>(
    n: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let threads = ExecConfig::resolve().threads.min(n.max(1));
    if threads <= 1 || in_parallel_region() {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    run_pool_with(n, threads, &init, &f)
}

/// Fixed-shape pairwise tree reduction of a `f64` slice.
///
/// The bracketing (split at the midpoint, recurse) depends only on
/// the slice length, so for a given sequence of values the result is
/// one specific `f64` — unlike a left fold distributed over a
/// thread-count-dependent number of partial sums. It is also more
/// accurate than a running fold on long inputs (error grows like
/// `O(log n)` instead of `O(n)`).
pub fn tree_sum(xs: &[f64]) -> f64 {
    match xs {
        [] => 0.0,
        [x] => *x,
        _ => {
            let mid = xs.len() / 2;
            tree_sum(&xs[..mid]) + tree_sum(&xs[mid..])
        }
    }
}

/// The scoped worker pool behind [`par_map_range`]; `threads >= 2`
/// and `n >= 2` here.
fn run_pool<R: Send>(n: usize, threads: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    run_pool_with(n, threads, &|| (), &|(), i| f(i))
}

/// The scoped worker pool behind [`par_map_range_with`]: each worker
/// runs `init()` once, then claims chunks and folds its state through
/// `f`. An `init` panic is recorded past every real index, so item
/// panics still win the lowest-index race deterministically.
fn run_pool_with<S, R: Send>(
    n: usize,
    threads: usize,
    init: &(impl Fn() -> S + Sync),
    f: &(impl Fn(&mut S, usize) -> R + Sync),
) -> Vec<R> {
    // Chunked index claiming: large enough to amortize the atomic,
    // small enough to keep the tail balanced.
    let chunk = (n / (threads * 8)).clamp(1, 1024);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());

    // Observability: one enabled() check for the whole region; the
    // per-worker tallies below are plain locals when it is off.
    let obs_on = secflow_obs::enabled();
    let region = secflow_obs::begin_region(n as u64);
    let _region_span = secflow_obs::span("exec.region");

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.extend((0..n).map(|_| None));

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (next, abort, panics) = (&next, &abort, &panics);
                s.spawn(move || {
                    IN_PAR.with(|c| c.set(true));
                    let t0 = obs_on.then(std::time::Instant::now);
                    let mut chunks_claimed = 0u64;
                    let mut items_done = 0u64;
                    let local = 'work: {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let mut state = match catch_unwind(AssertUnwindSafe(init)) {
                            Ok(s) => s,
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                panics
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push((n, payload));
                                break 'work local;
                            }
                        };
                        while !abort.load(Ordering::Relaxed) {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            chunks_claimed += 1;
                            let end = (start + chunk).min(n);
                            for i in start..end {
                                match catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                                    Ok(r) => {
                                        local.push((i, r));
                                        items_done += 1;
                                    }
                                    Err(payload) => {
                                        abort.store(true, Ordering::Relaxed);
                                        panics
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner())
                                            .push((i, payload));
                                        break 'work local;
                                    }
                                }
                            }
                        }
                        local
                    };
                    if let Some(t0) = t0 {
                        secflow_obs::record_worker(
                            region,
                            w as u32,
                            t0.elapsed().as_nanos() as u64,
                            chunks_claimed,
                            items_done,
                        );
                        secflow_obs::flush_thread();
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // Worker closures capture their own panics; join only
            // fails on a panic in the bookkeeping above.
            for (i, r) in h.join().expect("worker bookkeeping panicked") {
                slots[i] = Some(r);
            }
        }
    });

    let mut captured = panics.into_inner().unwrap_or_else(|e| e.into_inner());
    if !captured.is_empty() {
        captured.sort_by_key(|&(i, _)| i);
        let (_, payload) = captured.swap_remove(0);
        resume_unwind(payload);
    }
    if abort.load(Ordering::Relaxed) {
        unreachable!("pool aborted without a captured panic");
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index in 0..n is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let out = with_threads(8, || par_map_range(1000, |i| i * i));
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..500).map(|i| i * 7 + 3).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for t in [1, 2, 3, 8, 64] {
            let got = with_threads(t, || par_map(&items, |&x| x.wrapping_mul(x)));
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn stateful_map_matches_serial_at_every_thread_count() {
        // The state is a scratch buffer: refilled per item, so results
        // are independent of which worker processed what.
        let expect: Vec<u64> = (0..500).map(|i| (0..=i as u64).sum()).collect();
        for t in [1, 2, 3, 8] {
            let got = with_threads(t, || {
                par_map_range_with(500, Vec::<u64>::new, |buf, i| {
                    buf.clear();
                    buf.extend(0..=i as u64);
                    buf.iter().sum::<u64>()
                })
            });
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn stateful_map_creates_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let serial = with_threads(1, || {
            par_map_range_with(64, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i)
        });
        assert_eq!(serial, (0..64).collect::<Vec<_>>());
        assert_eq!(
            inits.load(Ordering::Relaxed),
            1,
            "serial path shares one state"
        );

        inits.store(0, Ordering::Relaxed);
        let pooled = with_threads(4, || {
            par_map_range_with(64, || inits.fetch_add(1, Ordering::Relaxed), |_, i| i)
        });
        assert_eq!(pooled, (0..64).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 4, "one init per pool worker");
    }

    #[test]
    fn stateful_map_propagates_item_panics() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map_range_with(
                    256,
                    || (),
                    |(), i| {
                        std::panic::panic_any(i);
                        #[allow(unreachable_code)]
                        0usize
                    },
                )
            })
        }))
        .expect_err("panic must propagate");
        assert_eq!(
            *caught.downcast::<usize>().expect("payload is the index"),
            0
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = with_threads(8, || par_map_range(0, |_| unreachable!()));
        assert!(out.is_empty());
        let none: [u8; 0] = [];
        let out: Vec<u8> = with_threads(8, || par_map(&none, |&x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = with_threads(8, || par_map_range(1, |i| (i, in_parallel_region())));
        assert_eq!(out, vec![(0, false)]);
    }

    #[test]
    fn panic_of_lowest_index_propagates() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map_range(256, |i| {
                    std::panic::panic_any(i);
                    #[allow(unreachable_code)]
                    0usize
                })
            })
        }))
        .expect_err("panic must propagate");
        // Index 0 is in the first claimed chunk, so with every task
        // panicking the lowest captured index is always 0.
        assert_eq!(
            *caught.downcast::<usize>().expect("payload is the index"),
            0
        );
    }

    #[test]
    fn panic_message_survives_propagation() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                par_map_range(8, |i| {
                    assert!(i != 0, "task zero exploded");
                    i
                })
            })
        }))
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task zero exploded"), "payload: {msg}");
    }

    #[test]
    fn nested_par_map_falls_back_to_serial() {
        let out = with_threads(4, || {
            par_map_range(8, |i| {
                // Inside a worker the nested call must run inline, not
                // spawn a second pool.
                let nested_inline = if i == 0 {
                    !in_parallel_region()
                } else {
                    in_parallel_region()
                };
                let inner = par_map_range(8, |j| i * 8 + j);
                (nested_inline, inner)
            })
        });
        for (i, (inline_ok, inner)) in out.iter().enumerate() {
            // At least one worker position must see the in-par flag;
            // with 4 workers over 8 items every item except possibly
            // a degenerate inline run is in a worker.
            assert!(*inline_ok || i == 0);
            assert_eq!(*inner, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn with_threads_is_scoped_and_restored() {
        let before = effective_threads();
        let inner = with_threads(3, || {
            let mid = with_threads(5, effective_threads);
            (effective_threads(), mid)
        });
        assert_eq!(inner, (3, 5));
        assert_eq!(effective_threads(), before);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = effective_threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(7, || panic!("boom"));
        }));
        assert_eq!(effective_threads(), before);
    }

    #[test]
    fn set_threads_is_global_until_cleared() {
        // Local overrides shield the other tests in this binary from
        // this global mutation; run the whole check under one.
        let local_shield = 0;
        let _ = local_shield;
        set_threads(2);
        assert_eq!(effective_threads(), 2);
        // The thread-local override still wins.
        assert_eq!(with_threads(6, effective_threads), 6);
        set_threads(0);
        assert_ne!(GLOBAL_THREADS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tree_sum_has_fixed_bracketing() {
        let xs = [1e16, 1.0, -1e16, 1.0];
        // Midpoint split: (1e16 + 1.0) + (-1e16 + 1.0) = 1.0 in f64
        // (the 1.0 is absorbed on the left, survives on the right).
        let expect = (1e16f64 + 1.0) + (-1e16f64 + 1.0);
        assert_eq!(tree_sum(&xs).to_bits(), expect.to_bits());
        assert_eq!(tree_sum(&[]), 0.0);
        assert_eq!(tree_sum(&[42.5]), 42.5);
    }

    #[test]
    fn env_override_is_honoured_when_unset_elsewhere() {
        // Can't mutate the environment race-free in a test binary;
        // instead verify the documented precedence: local beats
        // global beats env/default.
        with_threads(9, || {
            set_threads(4);
            assert_eq!(effective_threads(), 9);
            set_threads(0);
            assert_eq!(effective_threads(), 9);
        });
        assert!(effective_threads() >= 1);
    }
}
