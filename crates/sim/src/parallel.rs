//! Deterministic sharded execution.
//!
//! Every parallel path in the simulator is a *sharded map with an ordered
//! merge*: independent work items (figure-corpus experiments, campaign
//! scenarios, the channels of a [`MultiChannelSystem`]) fan out across
//! workers pulling from a shared [`smartrefresh_core::sync::WorkCursor`],
//! and the results are merged **by item index**, never by completion
//! order. The calling thread is worker 0: it spawns `threads - 1`
//! [`std::thread::scope`] workers and runs its own share before joining
//! them, so no thread sits idle in `join`. Each
//! item's computation is already deterministic on its own (seeded PRNGs,
//! integer simulated time, no wall-clock reads), so the merge order is
//! the only place thread interleaving could leak into results — and the
//! index merge closes it. A 1-thread and an N-thread run of the same
//! configuration therefore produce bit-identical energy breakdowns,
//! campaign reports, and fleet digests; the equality is pinned by tests,
//! not just promised. See `docs/PERFORMANCE.md` for the full determinism
//! contract.
//!
//! Thread counts resolve from one knob: an explicit `--threads` argument
//! beats the machine's available parallelism (capped at
//! [`MAX_DEFAULT_THREADS`]). Zero or garbage is a loud
//! [`SimError::Config`], not a silent fallback.
//!
//! [`MultiChannelSystem`]: crate::system::MultiChannelSystem

use smartrefresh_core::sync::WorkCursor;
use smartrefresh_ctrl::SimError;

/// Cap applied to the auto-detected thread count: the work items here are
/// coarse (whole experiments, whole channels), so parallelism beyond a
/// few cores is all merge overhead.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// The machine default: available parallelism capped at
/// [`MAX_DEFAULT_THREADS`], and 1 when the machine will not say.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_DEFAULT_THREADS)
}

/// Resolves the worker count for a run: `explicit` (a `--threads`
/// argument) beats [`default_threads`].
///
/// # Errors
///
/// [`SimError::Config`] when the explicit value is zero or not a positive
/// integer.
///
/// # Examples
///
/// ```
/// use smartrefresh_sim::parallel::resolve_threads;
///
/// assert_eq!(resolve_threads(Some("4")).unwrap(), 4);
/// assert!(resolve_threads(Some("0")).is_err());
/// assert!(resolve_threads(Some("lots")).is_err());
/// ```
pub fn resolve_threads(explicit: Option<&str>) -> Result<usize, SimError> {
    let Some(spec) = explicit else {
        return Ok(default_threads());
    };
    match spec.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(SimError::Config {
            what: "thread count (--threads) must be a positive integer",
        }),
    }
}

/// Maps `f` over `items` on up to `threads` workers and returns the
/// results **in item order**, regardless of which worker finished which
/// item when. The calling thread is worker 0: it spawns `threads - 1`
/// scoped workers, then drains the same shared [`WorkCursor`] itself
/// (work stealing), so a slow item occupies one worker while the rest
/// drain the queue. With `threads <= 1` (or fewer than two items) this
/// is a plain sequential map — the reference the parallel path must be
/// bit-identical to — and no thread is spawned.
///
/// A panicking item, the caller's own included, propagates its panic to
/// the caller after the other workers drain, exactly as the sequential
/// map would.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = WorkCursor::new(n);
    let drain = || {
        let mut out = Vec::new();
        while let Some(i) = cursor.claim() {
            out.push((i, f(i, &items[i])));
        }
        out
    };
    run_shards(n, vec![drain; threads.min(n)])
}

/// The in-place variant: maps `f` over disjoint `&mut` items, sharded as
/// contiguous chunks across up to `threads` workers, returning per-item
/// results in item order. The calling thread runs chunk 0 itself. Used
/// to advance the channels of a multi-channel system concurrently — each
/// channel is an independent simulation between coordination points, so
/// chunked exclusive access is enough and no locking is involved.
pub fn par_map_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let f = &f;
    let shards = items.chunks_mut(chunk).enumerate().map(|(ci, part)| {
        move || {
            (ci * chunk..)
                .zip(part)
                .map(|(i, t)| (i, f(i, t)))
                .collect()
        }
    });
    run_shards(n, shards.collect())
}

/// The one spawn/join/merge core under both maps. `shards[0]` runs on
/// the calling thread (worker 0) after every other shard has been
/// spawned on its own scoped worker; the `(index, result)` pairs are then
/// merged by index. A panic in any shard — the caller's included — is
/// re-raised only after every worker has been joined.
fn run_shards<R, S>(n: usize, shards: Vec<S>) -> Vec<R>
where
    R: Send,
    S: FnOnce() -> Vec<(usize, R)> + Send,
{
    let mut merged = std::thread::scope(|scope| {
        let mut shards = shards.into_iter();
        let own = shards.next();
        let handles: Vec<_> = shards.map(|shard| scope.spawn(shard)).collect();
        let mut merged = own.map_or_else(Vec::new, |shard| shard());
        for handle in handles {
            match handle.join() {
                Ok(shard) => merged.extend(shard),
                Err(cause) => std::panic::resume_unwind(cause),
            }
        }
        merged
    });
    merged.sort_by_key(|&(i, _)| i);
    assert!(merged.len() == n, "sharded map lost an item");
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_merge_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let sequential = par_map(1, &items, |i, &x| x * 2 + i as u64);
        let parallel = par_map(4, &items, |i, &x| x * 2 + i as u64);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[7], 7 * 2 + 7);
    }

    #[test]
    fn mutable_variant_matches_sequential() {
        let mut a: Vec<u64> = (0..37).collect();
        let mut b = a.clone();
        let ra = par_map_mut(1, &mut a, |i, x| {
            *x += i as u64;
            *x
        });
        let rb = par_map_mut(4, &mut b, |i, x| {
            *x += i as u64;
            *x
        });
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: [u32; 0] = [];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[9], |_, &x| x), vec![9]);
        let mut one = [9u32];
        assert_eq!(par_map_mut(4, &mut one, |_, x| *x), vec![9]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(64, &items, |_, &x| x + 1), vec![1, 2, 3]);
    }

    #[test]
    fn caller_is_worker_zero_and_nothing_extra_is_spawned() {
        // Each item blocks until the other is in flight, so two items at
        // two threads must run on two distinct threads at once.
        let caller = std::thread::current().id();
        let gate = std::sync::Barrier::new(2);
        let ids = par_map(2, &[0, 1], |_, _| {
            gate.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller), "the caller must drain a share");

        let mut slots = [0u8; 2];
        let ids = par_map_mut(2, &mut slots, |_, _| {
            gate.wait();
            std::thread::current().id()
        });
        assert_eq!(ids[0], caller, "the caller runs chunk 0");
        assert_ne!(ids[1], caller);
    }

    #[test]
    fn a_panic_in_the_callers_share_waits_for_the_other_worker() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let gate = std::sync::Barrier::new(2);
        let drained = AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, &[0, 1], |_, _| {
                gate.wait();
                if std::thread::current().id() == caller {
                    panic!("caller's item");
                }
                for _ in 0..1000 {
                    std::thread::yield_now();
                }
                drained.store(true, Ordering::SeqCst);
            })
        }));
        let cause = outcome.expect_err("the caller's panic must propagate");
        assert_eq!(cause.downcast_ref::<&str>(), Some(&"caller's item"));
        assert!(
            drained.load(Ordering::SeqCst),
            "the other worker must drain before the panic leaves par_map"
        );
    }

    #[test]
    fn explicit_thread_spec_beats_default() {
        assert_eq!(resolve_threads(Some("2")).unwrap(), 2);
        assert_eq!(resolve_threads(Some(" 3 ")).unwrap(), 3);
        assert!(matches!(
            resolve_threads(Some("0")),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            resolve_threads(Some("-1")),
            Err(SimError::Config { .. })
        ));
        assert!(matches!(
            resolve_threads(Some("four")),
            Err(SimError::Config { .. })
        ));
        assert!(resolve_threads(None).unwrap() >= 1);
    }
}
