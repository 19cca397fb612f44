//! Deterministic sharded execution.
//!
//! Every parallel path in the simulator is a *sharded map with an ordered
//! merge*: independent work items (figure-corpus experiments, campaign
//! scenarios, the channels of a [`MultiChannelSystem`]) fan out across
//! [`std::thread::scope`] workers pulling from a shared
//! [`smartrefresh_core::sync::WorkCursor`], and the
//! results are merged **by item index**, never by completion order. Each
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

/// Maps `f` over `items` on up to `threads` scoped workers and returns
/// the results **in item order**, regardless of which worker finished
/// which item when. Workers pull from a shared
/// [`WorkCursor`] (work stealing),
/// so a slow item occupies one worker while the rest drain the queue.
/// With `threads <= 1` (or fewer than two items) this is a plain
/// sequential map — the reference the parallel path must be
/// bit-identical to.
///
/// A panicking item propagates its panic to the caller after the other
/// workers drain, exactly as the sequential map would.
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
    let workers = threads.min(n);
    let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(i) = cursor.claim() {
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(shard) => shard,
                Err(cause) => std::panic::resume_unwind(cause),
            })
            .collect()
    });
    let mut merged: Vec<(usize, R)> = shards.into_iter().flatten().collect();
    merged.sort_by_key(|&(i, _)| i);
    assert!(merged.len() == n, "sharded map lost an item");
    merged.into_iter().map(|(_, r)| r).collect()
}

/// The in-place variant: maps `f` over disjoint `&mut` items, sharded as
/// contiguous chunks across up to `threads` scoped workers, returning
/// per-item results in item order. Used to advance the channels of a
/// multi-channel system concurrently — each channel is an independent
/// simulation between coordination points, so chunked exclusive access
/// is enough and no locking is involved.
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
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, chunk_items)| {
                let f = &f;
                scope.spawn(move || {
                    chunk_items
                        .iter_mut()
                        .enumerate()
                        .map(|(j, t)| {
                            let i = ci * chunk + j;
                            (i, f(i, t))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(shard) => shard,
                Err(cause) => std::panic::resume_unwind(cause),
            })
            .collect()
    });
    let mut merged: Vec<(usize, R)> = shards.into_iter().flatten().collect();
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
