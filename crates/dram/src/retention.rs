//! Data-retention tracking.
//!
//! DRAM cells leak; every row must have its charge restored (by a refresh, an
//! activate/precharge cycle, or a read/write — all of which rewrite the cells)
//! at least once per retention interval. This module *checks* that guarantee
//! rather than assuming it: the device records a restore timestamp per
//! `(rank, bank, row)` and [`RetentionTracker::violations`] reports any row
//! whose data would have decayed.
//!
//! The tracker's [`summary`](RetentionTracker::summary) gives the mean
//! inter-restore interval, which is what the paper's *optimality* metric
//! (§4.4) is computed from: a scheme is 100% optimal if every row is
//! restored exactly at the retention deadline, never earlier.

use crate::deadline::DeadlineIndex;
use crate::geometry::Geometry;
use crate::time::{Duration, Instant};

/// Bytes per restore stamp until the first restore at or past 2^40 ps
/// (about 1.1 s): 40 bits hold every earlier instant exactly.
const NARROW: usize = 5;
/// Bytes per restore stamp after that: a full [`Instant`].
const WIDE: usize = 8;

/// Records the last charge-restore instant for every row of a module.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::retention::RetentionTracker;
/// use smartrefresh_dram::time::{Duration, Instant};
/// use smartrefresh_dram::Geometry;
///
/// let g = Geometry::new(1, 1, 4, 4, 64);
/// let mut t = RetentionTracker::new(&g, Duration::from_ms(64));
/// let late = Instant::ZERO + Duration::from_ms(65);
/// assert_eq!(t.violations(late).len(), 4); // nothing refreshed: all decayed
/// t.restore(0, late);
/// assert_eq!(t.violations(late).len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RetentionTracker {
    /// Row `i`'s last restore instant: the little-endian `u64` at
    /// `stamps[stride·i..stride·i + 8]`, masked by `mask`. `WIDE − stride`
    /// bytes of tail padding keep the last row's 8-byte read in bounds.
    /// Allocated zeroed (every row restored at time zero) at the
    /// [`NARROW`] stride; the first restore past `mask` re-packs it
    /// once at the [`WIDE`] stride.
    stamps: Vec<u8>,
    /// Bytes per stamp: [`NARROW`] or [`WIDE`].
    stride: usize,
    /// The low `8·stride` bits: the largest instant a stamp can hold.
    mask: u64,
    /// Rows tracked.
    rows: usize,
    retention: Duration,
    /// Optional per-row deadlines (variable retention); `retention` is the
    /// worst case and the default for every row.
    per_row: Option<Vec<Duration>>,
    restores: u64,
    /// Restores that arrived *after* the row's deadline — each one is a
    /// data-loss window that actually happened (the row sat decayed until
    /// this restore rewrote it). Detected inline, O(1) per restore.
    late_restores: Vec<LateRestore>,
    /// Tournament tree over `(last_restore + row_deadline, flat)`, built by
    /// the first [`earliest_deadline_row`] query and kept current by every
    /// mutation after it. `None` until then, so a tracker nobody asks for
    /// the earliest deadline pays one branch per restore.
    ///
    /// [`earliest_deadline_row`]: RetentionTracker::earliest_deadline_row
    deadline_index: Option<DeadlineIndex>,
}

/// One detected data-loss window: a restore that arrived after the row's
/// retention deadline had already passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LateRestore {
    /// Flat row index of the decayed row.
    pub flat_index: u64,
    /// The deadline the row was required to meet.
    pub deadline: Duration,
    /// The interval actually observed (`> deadline`).
    pub interval: Duration,
    /// When the late restore happened (end of the data-loss window).
    pub at: Instant,
}

/// Summary statistics over observed inter-restore intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionSummary {
    /// Number of restore events observed (excluding the initial state).
    pub restores: u64,
    /// Mean inter-restore interval in seconds.
    pub mean_interval_s: f64,
    /// Fraction of the retention deadline the mean interval achieves
    /// (the paper's optimality metric; 1.0 = every restore exactly at the
    /// deadline).
    pub optimality: f64,
}

impl RetentionTracker {
    /// Creates a tracker for `geometry` with the given retention deadline.
    /// All rows are considered freshly restored at time zero (as if a full
    /// refresh sweep completed at power-up).
    pub fn new(geometry: &Geometry, retention: Duration) -> Self {
        assert!(!retention.is_zero(), "retention must be nonzero");
        let rows = geometry.total_rows() as usize;
        RetentionTracker {
            stamps: vec![0; rows * NARROW + (WIDE - NARROW)],
            stride: NARROW,
            mask: (1 << (8 * NARROW)) - 1,
            rows,
            retention,
            per_row: None,
            restores: 0,
            late_restores: Vec::new(),
            deadline_index: None,
        }
    }

    /// The retention deadline rows must meet.
    pub fn retention(&self) -> Duration {
        self.retention
    }

    /// Installs per-row deadlines from a retention profile: row `i` must be
    /// restored every `retention << profile.multiplier_log2(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the profile length does not match the tracked row count.
    pub fn apply_profile(&mut self, profile: &crate::profile::RetentionProfile) {
        assert_eq!(
            profile.len() as usize,
            self.rows,
            "profile must cover every row"
        );
        let base = self.retention;
        self.per_row = Some(
            profile
                .iter()
                .map(|m| Duration::from_ps(base.as_ps() << m))
                .collect(),
        );
        self.rebuild_index();
    }

    /// The deadline for a specific row (the base retention unless a profile
    /// was applied).
    pub fn row_deadline(&self, flat_index: u64) -> Duration {
        match &self.per_row {
            Some(v) => v[flat_index as usize],
            None => self.retention,
        }
    }

    /// Overrides one row's deadline, e.g. to model a weak cell or a VRT
    /// episode discovered (or injected) mid-run. Unlike [`apply_profile`],
    /// which only lengthens deadlines, this accepts any nonzero value —
    /// including ones *tighter* than the base retention.
    ///
    /// [`apply_profile`]: RetentionTracker::apply_profile
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range or `deadline` is zero.
    pub fn set_row_deadline(&mut self, flat_index: u64, deadline: Duration) {
        assert!(!deadline.is_zero(), "row deadline must be nonzero");
        let last = self.last_restore(flat_index);
        let per_row = self
            .per_row
            .get_or_insert_with(|| vec![self.retention; self.rows]);
        per_row[flat_index as usize] = deadline;
        if let Some(index) = &mut self.deadline_index {
            index.set(flat_index, last + deadline);
        }
    }

    /// Uniformly scales every row's deadline by `factor` (e.g. thermal
    /// derating: retention halves per ~10 °C above the rated temperature).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scale_deadlines(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        let scale = |d: Duration| Duration::from_ps(((d.as_ps() as f64 * factor) as u64).max(1));
        self.retention = scale(self.retention);
        if let Some(per_row) = &mut self.per_row {
            for d in per_row.iter_mut() {
                *d = scale(*d);
            }
        }
        self.rebuild_index();
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when tracking zero rows (degenerate geometry).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// `flat_index` as a row of the table.
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range.
    #[inline(always)]
    fn row(&self, flat_index: u64) -> usize {
        assert!(
            flat_index < self.rows as u64,
            "row {flat_index} out of range"
        );
        flat_index as usize
    }

    /// The 8-byte word at byte `at`; its `mask` bits are one row's stamp.
    #[inline(always)]
    fn word(&self, at: usize) -> u64 {
        let mut word = [0; WIDE];
        word.copy_from_slice(&self.stamps[at..at + WIDE]);
        u64::from_le_bytes(word)
    }

    /// Row `row`'s last restore instant (`row < rows`).
    #[inline(always)]
    fn stamp(&self, row: usize) -> Instant {
        Instant::from_ps(self.word(row * self.stride) & self.mask)
    }

    /// Every row's last restore instant, in flat order.
    fn stamps(&self) -> impl ExactSizeIterator<Item = Instant> + '_ {
        (0..self.rows).map(|row| self.stamp(row))
    }

    /// Re-packs the table at the [`WIDE`] stride, so that it holds any
    /// [`Instant`]. Runs at most once per tracker.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        let mut wide = Vec::with_capacity(self.rows * WIDE);
        wide.extend(self.stamps().flat_map(|t| t.as_ps().to_le_bytes()));
        self.stamps = wide;
        self.stride = WIDE;
        self.mask = u64::MAX;
    }

    /// Records that row `flat_index` had its charge restored at `now`.
    ///
    /// Returns the interval since the previous restore, or `None` if `now`
    /// precedes it (restores arriving out of order are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range.
    pub fn restore(&mut self, flat_index: u64, now: Instant) -> Option<Duration> {
        if now.as_ps() > self.mask {
            self.widen();
        }
        let at = self.row(flat_index) * self.stride;
        let word = self.word(at);
        let last = Instant::from_ps(word & self.mask);
        if now < last {
            return None;
        }
        let interval = now.since(last);
        // Keep the next row's bytes that share this word.
        let word = (word & !self.mask) | now.as_ps();
        self.stamps[at..at + WIDE].copy_from_slice(&word.to_le_bytes());
        self.restores += 1;
        let deadline = self.row_deadline(flat_index);
        if interval > deadline {
            self.late_restores.push(LateRestore {
                flat_index,
                deadline,
                interval,
                at: now,
            });
        }
        if let Some(index) = &mut self.deadline_index {
            index.set(flat_index, now + deadline);
        }
        Some(interval)
    }

    /// The flat row whose retention deadline (`last_restore +
    /// row_deadline`) expires soonest, ties broken toward the lower index;
    /// `None` for an empty tracker. This is the patrol scrubber's
    /// deadline-order victim.
    ///
    /// The first call builds a deadline index in O(rows); every later
    /// restore or deadline change keeps it current in O(log rows), so each
    /// query after the first is O(1).
    pub fn earliest_deadline_row(&mut self) -> Option<u64> {
        if self.deadline_index.is_none() {
            self.deadline_index = Some(DeadlineIndex::build(self.deadlines()));
        }
        self.deadline_index.as_ref()?.min().map(|(_, flat)| flat)
    }

    /// Every row's current deadline instant, in flat order.
    fn deadlines(&self) -> impl ExactSizeIterator<Item = Instant> + '_ {
        (0..self.rows).map(|row| self.stamp(row) + self.row_deadline(row as u64))
    }

    /// Re-keys every row in the deadline index, if it has been built.
    fn rebuild_index(&mut self) {
        if self.deadline_index.is_some() {
            self.deadline_index = Some(DeadlineIndex::build(self.deadlines()));
        }
    }

    /// Every data-loss window detected so far: restores that arrived after
    /// their row's deadline. Combined with [`violations`] (rows *currently*
    /// overdue), no decayed row can ever go unreported.
    ///
    /// [`violations`]: RetentionTracker::violations
    pub fn late_restores(&self) -> &[LateRestore] {
        &self.late_restores
    }

    /// The last restore instant for a row.
    ///
    /// # Panics
    ///
    /// Panics if `flat_index` is out of range.
    pub fn last_restore(&self, flat_index: u64) -> Instant {
        self.stamp(self.row(flat_index))
    }

    /// Flat indices of all rows whose data has exceeded the retention
    /// deadline as of `now`. An empty result means data integrity held.
    pub fn violations(&self, now: Instant) -> Vec<u64> {
        let Some(per_row) = &self.per_row else {
            // One deadline for every row: a row is overdue exactly when it
            // was last restored before `now - retention`. The counting scan
            // has no data-dependent branch, and the common no-violation
            // case allocates nothing.
            let cutoff = now.as_ps().saturating_sub(self.retention.as_ps());
            let overdue = match self.stride {
                NARROW => count_below::<NARROW>(&self.stamps, self.rows, cutoff),
                _ => count_below::<WIDE>(&self.stamps, self.rows, cutoff),
            };
            if overdue == 0 {
                return Vec::new();
            }
            let mut rows = Vec::with_capacity(overdue);
            rows.extend(
                (0u64..)
                    .zip(self.stamps())
                    .filter(|&(_, t)| t.as_ps() < cutoff)
                    .map(|(i, _)| i),
            );
            return rows;
        };
        (0u64..)
            .zip(self.stamps().zip(per_row))
            .filter(|&(_, (t, &deadline))| now.saturating_since(t) > deadline)
            .map(|(i, _)| i)
            .collect()
    }

    /// The staleness of the most-overdue row at `now`.
    pub fn max_staleness(&self, now: Instant) -> Duration {
        self.stamps()
            .map(|t| now.saturating_since(t))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Summary statistics, including the paper's optimality metric: the mean
    /// inter-restore interval divided by the retention deadline.
    ///
    /// The mean is exact. A row's intervals telescope to its last restore
    /// instant (every row starts restored at time zero, and an out-of-order
    /// restore is ignored), so the intervals sum to the sum of
    /// `last_restore` over the rows.
    pub fn summary(&self) -> RetentionSummary {
        let mean_ps = if self.restores == 0 {
            0.0
        } else {
            let total: u128 = self.stamps().map(|t| u128::from(t.as_ps())).sum();
            total as f64 / self.restores as f64
        };
        RetentionSummary {
            restores: self.restores,
            mean_interval_s: mean_ps * 1e-12,
            optimality: if self.retention.as_ps() == 0 {
                0.0
            } else {
                mean_ps / self.retention.as_ps() as f64
            },
        }
    }
}

/// How many of the first `rows` stamps of a `STRIDE`-byte table are below
/// `cutoff`. Eight stamps are decoded per `8·STRIDE`-byte block, each from
/// an 8-byte word inside the block, so the scan has no data-dependent
/// branch and no bounds check per row.
fn count_below<const STRIDE: usize>(stamps: &[u8], rows: usize, cutoff: u64) -> usize {
    let mask = u64::MAX >> (64 - 8 * STRIDE);
    let below = |bytes: &[u8], shift: usize| {
        let mut word = [0; WIDE];
        word[..bytes.len()].copy_from_slice(bytes);
        usize::from((u64::from_le_bytes(word) >> shift) & mask < cutoff)
    };
    let block = 8 * STRIDE;
    let blocks = stamps[..rows * STRIDE].chunks_exact(block);
    let tail = blocks.remainder();
    let mut count = 0;
    for b in blocks {
        for j in 0..8 {
            // The last stamp's word ends at the block's end.
            let start = (j * STRIDE).min(block - WIDE);
            count += below(&b[start..start + WIDE], 8 * (j * STRIDE - start));
        }
    }
    count
        + tail
            .chunks_exact(STRIDE)
            .map(|stamp| below(stamp, 0))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn small() -> Geometry {
        Geometry::new(1, 2, 4, 4, 64)
    }

    #[test]
    fn fresh_tracker_has_no_violations_within_deadline() {
        let t = RetentionTracker::new(&small(), Duration::from_ms(64));
        assert!(t
            .violations(Instant::ZERO + Duration::from_ms(64))
            .is_empty());
        assert_eq!(t.len(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    fn staleness_grows_until_restore() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let now = Instant::ZERO + Duration::from_ms(65);
        assert_eq!(t.violations(now).len(), 8);
        for i in 0..8 {
            t.restore(i, now);
        }
        assert!(t.violations(now).is_empty());
        assert_eq!(t.max_staleness(now), Duration::ZERO);
    }

    #[test]
    fn restore_returns_interval_and_rejects_time_travel() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let t1 = Instant::ZERO + Duration::from_ms(10);
        assert_eq!(t.restore(0, t1), Some(Duration::from_ms(10)));
        assert_eq!(t.restore(0, Instant::ZERO + Duration::from_ms(5)), None);
        assert_eq!(t.last_restore(0), t1);
    }

    #[test]
    fn optimality_of_exact_deadline_refresh_is_one() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let mut now = Instant::ZERO;
        for _ in 0..10 {
            now += Duration::from_ms(64);
            for i in 0..8 {
                t.restore(i, now);
            }
        }
        let s = t.summary();
        assert_eq!(s.restores, 80);
        assert_eq!(s.optimality, 1.0);
    }

    #[test]
    fn early_refresh_lowers_optimality() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let mut now = Instant::ZERO;
        for _ in 0..10 {
            now += Duration::from_ms(32);
            for i in 0..8 {
                t.restore(i, now);
            }
        }
        assert_eq!(t.summary().optimality, 0.5);
    }

    #[test]
    fn tightened_deadline_flags_weak_row() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        t.set_row_deadline(3, Duration::from_ms(16));
        let now = Instant::ZERO + Duration::from_ms(32);
        // Only the weak row has decayed; the rest are within the base deadline.
        assert_eq!(t.violations(now), vec![3]);
        // Restoring it now records the data-loss window.
        t.restore(3, now);
        assert_eq!(t.late_restores().len(), 1);
        let late = t.late_restores()[0];
        assert_eq!(late.flat_index, 3);
        assert_eq!(late.deadline, Duration::from_ms(16));
        assert_eq!(late.interval, Duration::from_ms(32));
        assert_eq!(late.at, now);
    }

    #[test]
    fn on_time_restores_record_no_late_windows() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let mut now = Instant::ZERO;
        for _ in 0..4 {
            now += Duration::from_ms(60);
            for i in 0..8 {
                t.restore(i, now);
            }
        }
        assert!(t.late_restores().is_empty());
    }

    #[test]
    fn scale_deadlines_applies_thermal_derating() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        t.set_row_deadline(0, Duration::from_ms(32));
        t.scale_deadlines(0.5);
        assert_eq!(t.retention(), Duration::from_ms(32));
        assert_eq!(t.row_deadline(0), Duration::from_ms(16));
        assert_eq!(t.row_deadline(1), Duration::from_ms(32));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_row_deadline_checks_bounds() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        t.set_row_deadline(999, Duration::from_ms(1));
    }

    /// The linear scan the deadline index replaced: the oracle for
    /// [`RetentionTracker::earliest_deadline_row`].
    fn scan_earliest(t: &RetentionTracker) -> Option<u64> {
        (0..t.len() as u64).min_by_key(|&i| (t.last_restore(i) + t.row_deadline(i), i))
    }

    /// 5 ms before the narrow stamps run out: a clock started here widens
    /// the table a few milliseconds into a test sequence.
    const NEAR_WIDENING: Instant = Instant::from_ps((1 << 40) - 5_000_000_000);

    #[test]
    fn earliest_deadline_row_matches_the_scan() {
        for start in [Instant::ZERO, NEAR_WIDENING] {
            check_earliest_deadline_row(start);
        }
    }

    /// Random restores, deadline changes and profiles from `start` on,
    /// checking every answer and every index against the scan.
    fn check_earliest_deadline_row(start: Instant) {
        use crate::profile::RetentionProfile;
        use crate::rng::Rng;

        // 4 banks x 32 rows: 128 rows.
        let g = Geometry::new(1, 4, 32, 4, 64);
        let rows = g.total_rows();
        let mut rng = Rng::seed_from_u64(0x0dea_d11e);
        // `eager` is queried from the start; `lazy` builds its index only
        // halfway through the same sequence.
        let mut eager = RetentionTracker::new(&g, Duration::from_ms(64));
        let mut lazy = eager.clone();
        assert_eq!(
            eager.earliest_deadline_row(),
            Some(0),
            "all rows tie at t=0"
        );
        let mut now = start;
        for step in 0..3_000 {
            let row = rng.gen_range(0..rows);
            let base = eager.retention();
            match rng.gen_range(0u32..8) {
                0 | 1 => {
                    now += Duration::from_us(rng.gen_range(0..2_000));
                    for t in [&mut eager, &mut lazy] {
                        t.restore(row, now);
                    }
                }
                2 => {
                    // Out of order: may land before the row's last restore.
                    let back = Duration::from_us(rng.gen_range(0..5_000));
                    let at = Instant::ZERO + now.saturating_since(Instant::ZERO + back);
                    for t in [&mut eager, &mut lazy] {
                        t.restore(row, at);
                    }
                }
                3 | 4 => {
                    // Tighter or looser than the base retention.
                    let d = Duration::from_ps(rng.gen_range(1..2 * base.as_ps()));
                    for t in [&mut eager, &mut lazy] {
                        t.set_row_deadline(row, d);
                    }
                }
                5 => {
                    // Forced tie: a second row copies this row's restore
                    // instant and deadline.
                    let other = rng.gen_range(0..rows);
                    now += Duration::from_us(1);
                    for t in [&mut eager, &mut lazy] {
                        let d = t.row_deadline(row);
                        t.set_row_deadline(other, d);
                        t.restore(row, now);
                        t.restore(other, now);
                    }
                }
                6 => {
                    // Shrink long deadlines and stretch short ones, so the
                    // base stays near 64 ms however the draws fall.
                    let pick = rng.gen_range(0..2usize);
                    let factor = if base > Duration::from_ms(64) {
                        [0.5, 0.75][pick]
                    } else {
                        [1.25, 2.0][pick]
                    };
                    for t in [&mut eager, &mut lazy] {
                        t.scale_deadlines(factor);
                    }
                }
                _ => {
                    let profile = RetentionProfile::rapid_like(rows, rng.next_u64());
                    for t in [&mut eager, &mut lazy] {
                        t.apply_profile(&profile);
                    }
                }
            }
            assert_eq!(
                eager.earliest_deadline_row(),
                scan_earliest(&eager),
                "step {step}"
            );
            if step >= 1_500 {
                assert_eq!(
                    lazy.earliest_deadline_row(),
                    scan_earliest(&lazy),
                    "step {step}"
                );
            }
        }

        // Refresh order: restore the current winner at every step, which
        // moves the root's own leaf and so replays its whole path. Every
        // 7th step also tightens a random row's deadline, which moves a
        // leaf earlier and may take over the root mid-sweep.
        for step in 0..4 * rows {
            let winner = eager.earliest_deadline_row().expect("rows exist");
            now += Duration::from_us(rng.gen_range(1..200));
            for t in [&mut eager, &mut lazy] {
                t.restore(winner, now);
            }
            if step % 7 == 3 {
                let row = rng.gen_range(0..rows);
                let tighter =
                    Duration::from_ps(rng.gen_range(1..eager.row_deadline(row).as_ps() + 1));
                for t in [&mut eager, &mut lazy] {
                    t.set_row_deadline(row, tighter);
                }
            }
            for t in [&mut eager, &mut lazy] {
                assert_eq!(t.earliest_deadline_row(), scan_earliest(t), "sweep {step}");
                // Stopping a replay early must never leave a stale match
                // anywhere in the tree, not only at the root.
                let fresh = DeadlineIndex::build(t.deadlines());
                let index = t.deadline_index.as_ref().expect("index built");
                assert_eq!(index, &fresh, "sweep {step}");
            }
        }
        let stride = if start == Instant::ZERO { NARROW } else { WIDE };
        assert_eq!((eager.stride, lazy.stride), (stride, stride));
    }

    #[test]
    fn earliest_deadline_row_of_tiny_trackers() {
        let one = Geometry::new(1, 1, 1, 4, 64);
        let mut t = RetentionTracker::new(&one, Duration::from_ms(64));
        assert_eq!(t.earliest_deadline_row(), Some(0));
        t.restore(0, Instant::ZERO + Duration::from_ms(3));
        assert_eq!(t.earliest_deadline_row(), Some(0));
    }

    /// The row-by-row filter `violations` replaces.
    fn brute_force_violations(t: &RetentionTracker, now: Instant) -> Vec<u64> {
        (0..t.len() as u64)
            .filter(|&i| now.saturating_since(t.last_restore(i)) > t.row_deadline(i))
            .collect()
    }

    #[test]
    fn violations_match_the_brute_force_filter() {
        use crate::profile::RetentionProfile;
        use crate::rng::Rng;

        let g = Geometry::new(2, 4, 64, 4, 64);
        let retention = Duration::from_ms(64);
        let uniform = RetentionTracker::new(&g, retention);
        let mut profiled = uniform.clone();
        profiled.apply_profile(&RetentionProfile::rapid_like(g.total_rows(), 9));
        let mut weak = uniform.clone();
        weak.set_row_deadline(5, Duration::from_ms(20));
        let mut rng = Rng::seed_from_u64(11);
        for start in [Instant::ZERO, NEAR_WIDENING] {
            for mut t in [uniform.clone(), profiled.clone(), weak.clone()] {
                // The plain form of the stamps.
                let mut shadow = vec![Instant::ZERO; t.len()];
                let mut now = start;
                for step in 0..60 {
                    now += Duration::from_ms(rng.gen_range(1u64..12));
                    for _ in 0..rng.gen_range(0usize..300) {
                        // Some restores land after `now` (activate + tRAS).
                        let at = now + Duration::from_us(rng.gen_range(0u64..50));
                        let row = rng.gen_range(0..g.total_rows());
                        t.restore(row, at);
                        let slot = &mut shadow[row as usize];
                        *slot = (*slot).max(at);
                    }
                    for (i, &last) in (0u64..).zip(&shadow) {
                        assert_eq!(t.last_restore(i), last, "step {step} row {i}");
                    }
                    for probe in [now, now + retention, now + retention * 3] {
                        assert_eq!(
                            t.violations(probe),
                            brute_force_violations(&t, probe),
                            "step {step}"
                        );
                    }
                }
            }
        }
        // Exactly at the deadline is not late; one picosecond past it is.
        let fresh = RetentionTracker::new(&g, retention);
        let at = Instant::ZERO + retention;
        assert!(fresh.violations(at).is_empty());
        assert_eq!(
            fresh.violations(at + Duration::from_ps(1)).len() as u64,
            g.total_rows()
        );
        // One overdue row at each position of two eight-stamp blocks, on
        // both sides of the widening: the count alone decides whether the
        // rows are listed at all.
        let two_blocks = Geometry::new(1, 2, 8, 4, 64);
        for start in [Instant::ZERO, NEAR_WIDENING + Duration::from_ms(10)] {
            let fresh = start + retention + Duration::from_ms(2);
            for stale in 0..two_blocks.total_rows() {
                let mut t = RetentionTracker::new(&two_blocks, retention);
                t.restore(stale, start + Duration::from_ms(1));
                for row in (0..t.len() as u64).filter(|&row| row != stale) {
                    t.restore(row, fresh);
                }
                let probe = fresh + Duration::from_ps(1);
                assert_eq!(t.violations(probe), vec![stale], "row {stale}");
            }
        }
    }

    /// A plain `Vec<Instant>` tracker under one deadline: the oracle for the
    /// packed stamps on both sides of 2^40 ps.
    struct PlainTracker {
        last: Vec<Instant>,
        retention: Duration,
        restores: u64,
        interval_ps: u128,
        late: Vec<LateRestore>,
    }

    impl PlainTracker {
        fn restore(&mut self, row: u64, now: Instant) -> Option<Duration> {
            let slot = &mut self.last[row as usize];
            if now < *slot {
                return None;
            }
            let interval = now.since(*slot);
            *slot = now;
            self.restores += 1;
            self.interval_ps += u128::from(interval.as_ps());
            if interval > self.retention {
                self.late.push(LateRestore {
                    flat_index: row,
                    deadline: self.retention,
                    interval,
                    at: now,
                });
            }
            Some(interval)
        }

        fn violations(&self, now: Instant) -> Vec<u64> {
            (0u64..)
                .zip(&self.last)
                .filter(|&(_, &t)| now.saturating_since(t) > self.retention)
                .map(|(i, _)| i)
                .collect()
        }
    }

    #[test]
    fn stamps_match_plain_instants_across_the_widening() {
        let retention = Duration::from_ms(64);
        let mut t = RetentionTracker::new(&small(), retention);
        let mut plain = PlainTracker {
            last: vec![Instant::ZERO; t.len()],
            retention,
            restores: 0,
            interval_ps: 0,
            late: Vec::new(),
        };
        let edge = Instant::from_ps(1 << 40);
        let last_narrow = Instant::from_ps((1 << 40) - 1);
        let ms = Duration::from_ms(1);
        // Rows 0 and 1 share a word at the 5-byte stride.
        let schedule = [
            (0, last_narrow, NARROW),
            (1, last_narrow - ms, NARROW),
            (2, Instant::from_ps(1 << 39), NARROW),
            (1, edge, WIDE),
            // Out of order after the widening: ignored.
            (0, last_narrow - ms, WIDE),
            (3, edge + ms, WIDE),
            (0, edge + retention, WIDE),
        ];
        for (step, (row, at, stride)) in schedule.into_iter().enumerate() {
            assert_eq!(t.restore(row, at), plain.restore(row, at), "step {step}");
            assert_eq!(t.stride, stride, "step {step}");
            for (i, &last) in (0u64..).zip(&plain.last) {
                assert_eq!(t.last_restore(i), last, "step {step} row {i}");
            }
            assert_eq!(t.late_restores(), &plain.late[..], "step {step}");
            let mean_ps = plain.interval_ps as f64 / plain.restores as f64;
            let s = t.summary();
            assert_eq!(s.restores, plain.restores, "step {step}");
            assert_eq!(s.mean_interval_s, mean_ps * 1e-12, "step {step}");
            assert_eq!(s.optimality, mean_ps / retention.as_ps() as f64);
            for probe in [at, edge, edge + retention, edge + retention * 2] {
                assert_eq!(t.violations(probe), plain.violations(probe), "step {step}");
            }
        }
    }

    /// The mean over a hand-computed schedule. On 8 rows with a 64 ms
    /// deadline: row 0 restored at 10, 30 and 100 ms (intervals 10, 20,
    /// 70), row 1 at 64 ms, and row 2 at 40 ms, then at 20 ms (out of
    /// order, ignored), then again at 40 ms (a zero interval). Six
    /// restores whose intervals sum to 100 + 64 + 40 = 204 ms: a mean of
    /// 34 ms.
    #[test]
    fn summary_mean_is_exact_on_a_hand_computed_schedule() {
        let mut t = RetentionTracker::new(&small(), Duration::from_ms(64));
        let ms = |n: u64| Instant::ZERO + Duration::from_ms(n);
        for (row, at) in [
            (0, 10),
            (0, 30),
            (1, 64),
            (2, 40),
            (2, 20),
            (2, 40),
            (0, 100),
        ] {
            t.restore(row, ms(at));
        }
        let s = t.summary();
        assert_eq!(s.restores, 6);
        assert_eq!(s.mean_interval_s, 34_000_000_000.0 * 1e-12);
        assert_eq!(s.optimality, 34.0 / 64.0);
        let empty = RetentionTracker::new(&small(), Duration::from_ms(64)).summary();
        assert_eq!((empty.restores, empty.mean_interval_s), (0, 0.0));
    }
}
