//! The deadline index: which row's deadline comes first? The patrol
//! scrubber asks it of retention deadlines, the system-level scheduler of
//! coverage promises (optionally among rows on precharged banks only).
//!
//! # Example
//!
//! ```
//! use smartrefresh_dram::deadline::DeadlineIndex;
//! use smartrefresh_dram::time::{Duration, Instant};
//!
//! let at = |us| Instant::ZERO + Duration::from_us(us);
//! let mut index = DeadlineIndex::build([at(10), at(20), at(30), at(40)].into_iter());
//! assert_eq!(index.min(), Some((at(10), 0)));
//!
//! // A tightened row takes over the root.
//! index.set(3, at(5));
//! assert_eq!(index.min(), Some((at(5), 3)));
//! assert_eq!(index.get(3), at(5));
//!
//! // Row 3 sits behind an open page: the earliest row elsewhere wins.
//! assert_eq!(index.min_where(|row| row != 3), Some((at(10), 0)));
//! ```

use crate::time::Instant;

/// A tournament (winner) tree over `(deadline, row)` keys: leaves hold
/// the rows in flat order, padded to a power of two with keys that never
/// win, and every inner node holds the smaller of its two children. The
/// root is the earliest deadline with ties to the lowest row; re-keying a
/// leaf replays the matches on its path to the root, stopping at the first
/// match whose winner does not change.
///
/// Each key is packed into one `u128`, `(deadline_ps << 64) | row`, so a
/// single integer compare orders by deadline and then by row.
///
/// Rows are `0..n` for the `n` deadlines the tree was built with; every
/// row always holds a deadline, and `set`/`get` take only those rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineIndex {
    /// `nodes[1]` is the root; the leaves start at `nodes.len() / 2`.
    nodes: Vec<u128>,
}

impl DeadlineIndex {
    /// Key of a padding leaf: later than every real deadline.
    const PAD: u128 = u128::MAX;

    fn key(deadline: Instant, row: u64) -> u128 {
        (u128::from(deadline.as_ps()) << 64) | u128::from(row)
    }

    fn unpack(key: u128) -> Option<(Instant, u64)> {
        (key != Self::PAD).then(|| (Instant::from_ps((key >> 64) as u64), key as u64))
    }

    fn leaf(&self, row: u64) -> usize {
        self.nodes.len() / 2 + row as usize
    }

    /// A tree over rows `0..deadlines.len()`, row `i` holding the `i`-th
    /// deadline. O(rows).
    pub fn build(deadlines: impl ExactSizeIterator<Item = Instant>) -> Self {
        let leaves = deadlines.len().next_power_of_two();
        let mut nodes = vec![Self::PAD; 2 * leaves];
        for (row, (slot, deadline)) in nodes[leaves..].iter_mut().zip(deadlines).enumerate() {
            *slot = Self::key(deadline, row as u64);
        }
        for n in (1..leaves).rev() {
            nodes[n] = nodes[2 * n].min(nodes[2 * n + 1]);
        }
        DeadlineIndex { nodes }
    }

    /// Re-keys `row` to deadline `at`, in either direction. A match whose
    /// winner comes out unchanged leaves every match above it unchanged
    /// too, so the replay stops there. O(log rows).
    pub fn set(&mut self, row: u64, at: Instant) {
        let mut n = self.leaf(row);
        self.nodes[n] = Self::key(at, row);
        while n > 1 {
            n /= 2;
            let winner = self.nodes[2 * n].min(self.nodes[2 * n + 1]);
            if self.nodes[n] == winner {
                break;
            }
            self.nodes[n] = winner;
        }
    }

    /// The deadline `row` currently holds. O(1).
    pub fn get(&self, row: u64) -> Instant {
        Instant::from_ps((self.nodes[self.leaf(row)] >> 64) as u64)
    }

    /// The earliest `(deadline, row)`, ties to the lowest row; `None` for
    /// a tree of no rows. O(1).
    pub fn min(&self) -> Option<(Instant, u64)> {
        Self::unpack(self.nodes[1])
    }

    /// The earliest `(deadline, row)` among rows `pred` accepts, ties to
    /// the lowest row — the same answer as a linear filter-then-min, since
    /// every inner node holds its subtree's minimum. The descent tries the
    /// earlier child first and skips any subtree whose winner is no
    /// earlier than the best accepted row so far, so `pred` is asked only
    /// about rows that could still win.
    pub fn min_where(&self, mut pred: impl FnMut(u64) -> bool) -> Option<(Instant, u64)> {
        Self::unpack(self.best_where(1, Self::PAD, &mut pred))
    }

    /// The smaller of `best` and the earliest accepted key under node `n`.
    fn best_where(&self, n: usize, best: u128, pred: &mut impl FnMut(u64) -> bool) -> u128 {
        let key = self.nodes[n];
        if key >= best {
            return best;
        }
        if n >= self.nodes.len() / 2 {
            return if pred(key as u64) { key } else { best };
        }
        let (l, r) = (2 * n, 2 * n + 1);
        let (first, second) = if self.nodes[l] <= self.nodes[r] {
            (l, r)
        } else {
            (r, l)
        };
        let best = self.best_where(first, best, pred);
        self.best_where(second, best, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The linear filter-then-min scan the tree must agree with.
    fn scan_min(deadlines: &[u64], pred: impl Fn(u64) -> bool) -> Option<(Instant, u64)> {
        (0..deadlines.len() as u64)
            .filter(|&row| pred(row))
            .map(|row| (Instant::from_ps(deadlines[row as usize]), row))
            .min()
    }

    fn build(deadlines: &[u64]) -> DeadlineIndex {
        DeadlineIndex::build(deadlines.iter().map(|&ps| Instant::from_ps(ps)))
    }

    /// Seeded re-key motions over 96 rows (not a power of two): plain
    /// sets, raise-only and tighten-only re-keys, and bulk re-keys of a
    /// third of the rows at one shared deadline. `min`, `get` and the
    /// bank-masked `min_where` must match the linear scan, and an
    /// early-stopped replay must leave the same tree a rebuild would.
    #[test]
    fn agrees_with_linear_scan_oracle() {
        const ROWS: usize = 96;
        const BANKS: u64 = 8;
        for seed in 1..=8u64 {
            let mut rng = Rng::seed_from_u64(0x5eed_0000 + seed);
            // Small keys so that ties are common.
            let mut oracle: Vec<u64> = (0..ROWS).map(|_| rng.gen_range(0..4_000)).collect();
            let mut index = build(&oracle);
            for step in 0..600 {
                let row = rng.gen_range(0..ROWS);
                let key = rng.gen_range(0..4_000u64);
                let next = match rng.gen_range(0u32..8) {
                    0..=2 => key,
                    3 | 4 => oracle[row].max(key),
                    5 | 6 => oracle[row].min(key),
                    _ => {
                        let third = ROWS / 3;
                        let start = row / third * third;
                        for (r, slot) in oracle.iter_mut().enumerate().skip(start).take(third) {
                            *slot = key;
                            index.set(r as u64, Instant::from_ps(key));
                        }
                        key
                    }
                };
                oracle[row] = next;
                index.set(row as u64, Instant::from_ps(next));
                assert_eq!(index.get(row as u64), Instant::from_ps(next));
                if step % 5 == 0 {
                    let open = rng.next_u64() % (1 << BANKS);
                    let closed = |r: u64| (open >> (r % BANKS)) & 1 == 0;
                    assert_eq!(index.min(), scan_min(&oracle, |_| true), "step {step}");
                    assert_eq!(
                        index.min_where(closed),
                        scan_min(&oracle, closed),
                        "step {step}, open banks {open:#x}"
                    );
                    assert_eq!(index, build(&oracle), "step {step}");
                }
            }
        }
    }

    #[test]
    fn ties_go_to_the_lowest_row() {
        let mut index = build(&[9, 9, 9, 9, 9]);
        for row in [3, 1, 4] {
            index.set(row, Instant::from_ps(2));
        }
        assert_eq!(index.min(), Some((Instant::from_ps(2), 1)));
        assert_eq!(index.min_where(|r| r != 1), Some((Instant::from_ps(2), 3)));
        assert_eq!(
            index.min_where(|r| r % 2 == 0),
            Some((Instant::from_ps(2), 4))
        );
    }

    #[test]
    fn reject_all_and_tiny_trees() {
        let index = build(&[5, 1, 7]);
        assert_eq!(index.min_where(|_| false), None);
        let empty = build(&[]);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.min_where(|_| true), None);
        let mut one = build(&[42]);
        assert_eq!(one.min(), Some((Instant::from_ps(42), 0)));
        one.set(0, Instant::from_ps(7));
        assert_eq!(one.get(0), Instant::from_ps(7));
        assert_eq!(one.min_where(|_| true), Some((Instant::from_ps(7), 0)));
        assert_eq!(one.min_where(|_| false), None);
    }
}
