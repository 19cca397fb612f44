//! The deadline index: which row's deadline comes first? The patrol
//! scrubber asks it of retention deadlines, the system-level scheduler of
//! coverage promises (optionally within one bank's contiguous row range,
//! to find the earliest row on a precharged bank).
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
//! // Rows 2..4 form one bank: the earliest row in that range.
//! assert_eq!(index.min_in(2, 4), Some((at(5), 3)));
//! assert_eq!(index.min_in(1, 3), Some((at(20), 1)));
//! assert_eq!(index.min_in(2, 2), None);
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
/// row always holds a deadline, and `set`/`get`/`min_in` take only those
/// rows — the padding leaves are never addressable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineIndex {
    /// `nodes[1]` is the root; the leaves start at `nodes.len() / 2`.
    nodes: Vec<u128>,
    /// The row count `n`; leaves `n..` are padding.
    rows: u64,
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
        assert!(row < self.rows, "row {row} out of range 0..{}", self.rows);
        self.nodes.len() / 2 + row as usize
    }

    /// A tree over rows `0..deadlines.len()`, row `i` holding the `i`-th
    /// deadline. O(rows).
    pub fn build(deadlines: impl ExactSizeIterator<Item = Instant>) -> Self {
        let rows = deadlines.len() as u64;
        let leaves = deadlines.len().next_power_of_two();
        let mut nodes = vec![Self::PAD; 2 * leaves];
        for (row, (slot, deadline)) in nodes[leaves..].iter_mut().zip(deadlines).enumerate() {
            *slot = Self::key(deadline, row as u64);
        }
        for n in (1..leaves).rev() {
            nodes[n] = nodes[2 * n].min(nodes[2 * n + 1]);
        }
        DeadlineIndex { nodes, rows }
    }

    /// Re-keys `row` to deadline `at`, in either direction. A match whose
    /// winner comes out unchanged leaves every match above it unchanged
    /// too, so the replay stops there. The winner climbing the path is
    /// carried along, so each level reads only the sibling's key. O(log
    /// rows).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not one of the tree's rows.
    pub fn set(&mut self, row: u64, at: Instant) {
        let mut n = self.leaf(row);
        let mut winner = Self::key(at, row);
        self.nodes[n] = winner;
        while n > 1 {
            winner = winner.min(self.nodes[n ^ 1]);
            n /= 2;
            if self.nodes[n] == winner {
                break;
            }
            self.nodes[n] = winner;
        }
    }

    /// The deadline `row` currently holds. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not one of the tree's rows.
    pub fn get(&self, row: u64) -> Instant {
        Instant::from_ps((self.nodes[self.leaf(row)] >> 64) as u64)
    }

    /// The earliest `(deadline, row)`, ties to the lowest row; `None` for
    /// a tree of no rows. O(1).
    pub fn min(&self) -> Option<(Instant, u64)> {
        Self::unpack(self.nodes[1])
    }

    /// The earliest `(deadline, row)` among rows `lo..hi`, ties to the
    /// lowest row; `None` for an empty range. A bottom-up range minimum:
    /// the two boundaries climb toward each other, folding in each node
    /// that covers the range wholly from one side, so at most two nodes
    /// per level are read. O(log rows).
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds the row count.
    pub fn min_in(&self, lo: u64, hi: u64) -> Option<(Instant, u64)> {
        assert!(
            hi <= self.rows,
            "range end {hi} out of range 0..={}",
            self.rows
        );
        let leaves = self.nodes.len() / 2;
        let (mut l, mut r) = (leaves + lo as usize, leaves + hi as usize);
        let mut best = Self::PAD;
        while l < r {
            if l & 1 == 1 {
                best = best.min(self.nodes[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                best = best.min(self.nodes[r]);
            }
            l /= 2;
            r /= 2;
        }
        Self::unpack(best)
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

    /// The earliest row among the banks `open` leaves precharged, each
    /// bank `bank_rows` contiguous rows — the scheduler's victim query.
    fn closed_banks_min(
        index: &DeadlineIndex,
        open: u64,
        banks: u64,
        bank_rows: u64,
    ) -> Option<(Instant, u64)> {
        (0..banks)
            .filter(|b| (open >> b) & 1 == 0)
            .filter_map(|b| index.min_in(b * bank_rows, (b + 1) * bank_rows))
            .min()
    }

    /// Seeded re-key motions over 96 rows (not a power of two): plain
    /// sets, raise-only and tighten-only re-keys, and bulk re-keys of a
    /// third of the rows at one shared deadline. `min`, `get`, the
    /// bank-masked minimum over `min_in` ranges and random `min_in`
    /// ranges must match the linear scan, and an early-stopped replay must
    /// leave the same tree a rebuild would.
    #[test]
    fn agrees_with_linear_scan_oracle() {
        const ROWS: usize = 96;
        const BANKS: u64 = 8;
        const BANK_ROWS: u64 = ROWS as u64 / BANKS;
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
                    let closed = |r: u64| (open >> (r / BANK_ROWS)) & 1 == 0;
                    assert_eq!(index.min(), scan_min(&oracle, |_| true), "step {step}");
                    assert_eq!(
                        closed_banks_min(&index, open, BANKS, BANK_ROWS),
                        scan_min(&oracle, closed),
                        "step {step}, open banks {open:#x}"
                    );
                    let lo = rng.gen_range(0..ROWS as u64 + 1);
                    let hi = rng.gen_range(lo..ROWS as u64 + 1);
                    assert_eq!(
                        index.min_in(lo, hi),
                        scan_min(&oracle, |r| (lo..hi).contains(&r)),
                        "step {step}, rows {lo}..{hi}"
                    );
                    assert_eq!(index.min_in(lo, lo), None, "step {step}, empty at {lo}");
                    assert_eq!(index.min_in(0, ROWS as u64), index.min(), "step {step}");
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
        assert_eq!(index.min_in(2, 5), Some((Instant::from_ps(2), 3)));
        assert_eq!(index.min_in(4, 5), Some((Instant::from_ps(2), 4)));
        assert_eq!(index.min_in(0, 5), index.min());
        assert_eq!(index.min_in(0, 1), Some((Instant::from_ps(9), 0)));
    }

    #[test]
    fn reject_all_and_tiny_trees() {
        let index = build(&[5, 1, 7]);
        assert_eq!(index.min_in(0, 0), None);
        assert_eq!(index.min_in(3, 3), None);
        assert_eq!(index.min_in(0, 3), Some((Instant::from_ps(1), 1)));
        let empty = build(&[]);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.min_in(0, 0), None);
        let mut one = build(&[42]);
        assert_eq!(one.min(), Some((Instant::from_ps(42), 0)));
        one.set(0, Instant::from_ps(7));
        assert_eq!(one.get(0), Instant::from_ps(7));
        assert_eq!(one.min_in(0, 1), Some((Instant::from_ps(7), 0)));
        assert_eq!(one.min_in(1, 1), None);
    }

    /// Row 3 of a 3-row tree is a padding leaf (4 leaves): re-keying it
    /// would plant a phantom row that could win the root.
    #[test]
    #[should_panic(expected = "row 3 out of range 0..3")]
    fn set_rejects_a_padding_row() {
        let mut index = build(&[5, 6, 7]);
        index.set(3, Instant::from_ps(1));
    }

    #[test]
    #[should_panic(expected = "row 3 out of range 0..3")]
    fn get_rejects_a_padding_row() {
        build(&[5, 6, 7]).get(3);
    }

    #[test]
    #[should_panic(expected = "range end 4 out of range 0..=3")]
    fn min_in_rejects_a_range_into_the_padding() {
        build(&[5, 6, 7]).min_in(0, 4);
    }
}
