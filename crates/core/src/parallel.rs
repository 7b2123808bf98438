//! A std-only fork-join helper for parallel query execution.
//!
//! The search algorithms fan independent work items (suffix-tree
//! subtrees, post-processing candidate groups, batch requests) across a
//! small set of scoped worker threads. There is no persistent pool and
//! no `unsafe`: every parallel region is a [`std::thread::scope`], so
//! tasks may borrow the caller's index, store and query directly, and
//! panics propagate to the caller like they would sequentially.
//!
//! # Scheduling
//!
//! The items sit behind one lock as an enumerated iterator; a worker
//! claims the next `(index, item)` under it and runs it outside, so a
//! slow item holds up only its own worker while the others keep taking
//! the rest. That is one short lock per item, negligible next to the
//! per-item work (table rows, exact `D_tw` verifications) — the counters
//! stay per-worker and are merged once at the end, so there are no
//! contended atomics on the hot loop.
//!
//! # Determinism
//!
//! [`parallel_map`] pins results by *item index*, not completion order:
//! the returned vector is exactly what a sequential `map` would have
//! produced, regardless of how items were interleaved across workers.
//! This is what makes parallel search results byte-identical to the
//! single-threaded path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of worker subthreads currently alive across all parallel
/// regions of the process (the caller thread participating in a region
/// is not counted). Exposed so servers can surface it as a
/// `server.worker_subthreads` gauge.
static ACTIVE_SUBTHREADS: AtomicU64 = AtomicU64::new(0);

/// Current number of live spawned worker subthreads, process-wide.
pub fn active_subthreads() -> u64 {
    ACTIVE_SUBTHREADS.load(Ordering::Relaxed)
}

/// Decrements the subthread count on drop, so panicking workers are
/// still accounted for.
struct SubthreadGuard;

impl SubthreadGuard {
    fn enter() -> Self {
        ACTIVE_SUBTHREADS.fetch_add(1, Ordering::Relaxed);
        SubthreadGuard
    }
}

impl Drop for SubthreadGuard {
    fn drop(&mut self) {
        ACTIVE_SUBTHREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Maps `f` over `items` across up to `threads` OS threads (the caller
/// participates, so `threads == 1` spawns nothing), with a per-worker
/// state from `init` threaded through every call that worker makes.
///
/// Returns the results **in item order** plus the final per-worker
/// states (for merging per-worker scratch counters); the states vector
/// length equals the number of workers actually used.
///
/// Each item is claimed exactly once, in index order, by whichever
/// worker asks next, so the assignment of items to workers is
/// nondeterministic — only state that is merged commutatively
/// (counters) or keyed by item index (results) should live in `S`.
pub fn parallel_map_with<T, R, S, I, F>(
    threads: usize,
    items: Vec<T>,
    init: I,
    f: F,
) -> (Vec<R>, Vec<S>)
where
    T: Send,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        let mut state = init();
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        return (out, vec![state]);
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard drops with the statement: `f` runs outside the lock.
    let claim = || queue.lock().expect("queue poisoned").next();
    let run_worker = || {
        let mut state = init();
        let mut out: Vec<(usize, R)> = Vec::with_capacity(n / workers + 1);
        while let Some((i, item)) = claim() {
            out.push((i, f(&mut state, i, item)));
        }
        (out, state)
    };
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut states: Vec<S> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let _guard = SubthreadGuard::enter();
                    run_worker()
                })
            })
            .collect();
        let (out0, state0) = run_worker();
        indexed.extend(out0);
        states.push(state0);
        for h in handles {
            // A worker's unwind carries on here with its own payload.
            let (out, state) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            indexed.extend(out);
            states.push(state);
        }
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    let out = indexed.into_iter().map(|(_, r)| r).collect();
    (out, states)
}

/// [`parallel_map_with`] without per-worker state: maps `f` over `items`
/// on up to `threads` threads, returning results in item order.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_with(threads, items, || (), |(), i, t| f(i, t)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        for threads in [1, 2, 3, 8, 33] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_map(threads, items, |i, v| {
                assert_eq!(i as u64, v);
                v * v
            });
            assert_eq!(out, (0..100u64).map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let out: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, v| v);
        assert!(out.is_empty());
        let out = parallel_map(8, vec![7u32], |_, v| v + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn per_worker_states_sum_to_total() {
        let items: Vec<u64> = (1..=1000).collect();
        let (out, states) = parallel_map_with(
            4,
            items,
            || 0u64,
            |acc, _, v| {
                *acc += v;
                v
            },
        );
        assert_eq!(out.len(), 1000);
        assert_eq!(states.iter().sum::<u64>(), 500_500);
        assert!(states.len() <= 4 && !states.is_empty());
    }

    #[test]
    fn uneven_work_is_stolen() {
        // Front-loaded work: workers claim one item at a time, so the
        // slow leading items spread over the workers instead of queueing
        // on one. The test only asserts completion and order (the
        // speedup itself is covered by the benches).
        let items: Vec<u32> = (0..64).collect();
        let out = parallel_map(8, items, |_, v| {
            if v < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn subthread_count_returns_to_baseline() {
        // The count is process-wide and other tests fork concurrently,
        // so wait for their workers to finish too: a leaked worker keeps
        // the count above the baseline for good.
        let before = active_subthreads();
        let _ = parallel_map(4, (0..32).collect::<Vec<u32>>(), |_, v| v);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while active_subthreads() > before {
            assert!(std::time::Instant::now() < deadline, "workers leaked");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, (0..16).collect::<Vec<u32>>(), |_, v| {
                assert!(v != 9, "boom");
                v
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(16, vec![1u32, 2, 3], |_, v| v * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }
}
