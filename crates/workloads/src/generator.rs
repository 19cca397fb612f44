//! Stochastic access-trace generation.
//!
//! [`AccessGenerator`] turns a [`WorkloadSpec`] into a deterministic,
//! seedable stream of timed memory accesses against a concrete module
//! geometry. The calibration math:
//!
//! * footprint `F = coverage · N / skip_avg` rows, where `skip_avg` is the
//!   run-length skip fraction of [`crate::calibrate`] — sized so the
//!   long-run refresh reduction of the whole module matches the spec's
//!   `coverage` target;
//! * new-row access rate `λ_new = F · intensity / reference`, where the
//!   *reference interval* is the workload's natural timescale (64 ms for the
//!   paper's benchmarks) — deliberately independent of the module's refresh
//!   interval, so that halving the retention (the hot 3D case) does not
//!   magically speed the program up;
//! * total access rate `λ = λ_new / (1 - row_hit_frac)` (row-buffer hits
//!   revisit the open row and do not touch new rows);
//! * arrivals are Poisson (exponential gaps), the standard open-loop memory
//!   traffic model.
//!
//! Addresses are laid out so each footprint row occupies one distinct
//! `(rank, bank, row)` (the geometry maps consecutive row-sized blocks to
//! successive banks), starting at a configurable base row.

use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::Geometry;

use crate::spec::WorkloadSpec;

/// One timed access produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time at the memory controller (or L3, in the 3D pipeline).
    pub time: Instant,
    /// Physical byte address.
    pub addr: u64,
    /// Store (write-back) vs load (fill).
    pub is_write: bool,
}

/// Deterministic stochastic access generator for one workload.
///
/// Implements [`Iterator`]; the stream is infinite, so bound it with the
/// simulation horizon (`take_while` on `time` or the driver's own loop).
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::Geometry;
/// use smartrefresh_dram::time::Duration;
/// use smartrefresh_workloads::{AccessGenerator, Suite, WorkloadSpec};
///
/// let spec = WorkloadSpec {
///     name: "demo", suite: Suite::Synthetic,
///     coverage: 0.5, intensity: 2.0, row_hit_frac: 0.5,
///     hot_frac: 0.2, hot_weight: 0.5, write_frac: 0.3, apki: 5.0,
/// };
/// let g = Geometry::new(1, 4, 256, 32, 64);
/// let mut gen = AccessGenerator::new(&spec, g, Duration::from_ms(64), 0, 1);
/// let first = gen.next().unwrap();
/// assert!(first.addr < g.capacity_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct AccessGenerator {
    geometry: Geometry,
    rng: Rng,
    /// Footprint size in rows.
    footprint_rows: u64,
    /// First footprint row (flat row-block index into the address space).
    base_row: u64,
    hot_rows: u64,
    row_hit_frac: f64,
    hot_weight: f64,
    write_frac: f64,
    /// Mean gap between accesses, in ps.
    mean_gap_ps: f64,
    now: Instant,
    current_row: u64,
}

impl AccessGenerator {
    /// Builds a generator for `spec` against `geometry`. `reference` is the
    /// interval over which the spec's `intensity` is defined — the
    /// workload's natural timescale (64 ms for the paper's benchmarks),
    /// *not* the module's refresh interval. `base_row` offsets the footprint
    /// (used to give co-scheduled processes disjoint regions); `seed` makes
    /// runs reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation or the footprint exceeds the
    /// module.
    pub fn new(
        spec: &WorkloadSpec,
        geometry: Geometry,
        reference: Duration,
        base_row: u64,
        seed: u64,
    ) -> Self {
        spec.validate();
        let n = geometry.total_rows() as f64;
        // Size the footprint so the long-run refresh reduction of the whole
        // module equals the spec's coverage target: each footprint row skips
        // `run_length_skip(rate)` of its refreshes (see [`crate::calibrate`]).
        let skip_avg = crate::calibrate::expected_skip(
            spec.intensity,
            spec.hot_frac,
            spec.hot_weight,
            crate::calibrate::DEFAULT_PERIODS,
        );
        let footprint_rows =
            ((spec.coverage * n / skip_avg).round() as u64).clamp(1, geometry.total_rows());
        assert!(
            base_row + footprint_rows <= geometry.total_rows(),
            "footprint [{base_row}, {}) exceeds module rows {}",
            base_row + footprint_rows,
            geometry.total_rows()
        );
        let new_row_rate = footprint_rows as f64 * spec.intensity / reference.as_secs_f64();
        let total_rate = new_row_rate / (1.0 - spec.row_hit_frac);
        let hot_rows = ((footprint_rows as f64 * spec.hot_frac) as u64).max(1);
        // Derive a per-workload seed so different names diverge even with
        // the same user seed.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in spec.name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        AccessGenerator {
            geometry,
            rng: Rng::seed_from_u64(seed ^ hash),
            footprint_rows,
            base_row,
            hot_rows,
            row_hit_frac: spec.row_hit_frac,
            hot_weight: spec.hot_weight,
            write_frac: spec.write_frac,
            mean_gap_ps: 1e12 / total_rate,
            now: Instant::ZERO,
            current_row: base_row,
        }
    }

    /// Footprint size in rows (after calibration).
    pub fn footprint_rows(&self) -> u64 {
        self.footprint_rows
    }

    fn exponential_gap(&mut self) -> Duration {
        // Inverse-CDF sampling; clamp u away from 0 to avoid infinite gaps.
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        let gap = -u.ln() * self.mean_gap_ps;
        Duration::from_ps(gap.max(1.0) as u64)
    }

    fn pick_row(&mut self) -> u64 {
        if self.rng.gen_bool(self.row_hit_frac) {
            return self.current_row;
        }
        let within = if self.rng.gen_bool(self.hot_weight) {
            self.rng.gen_range(0..self.hot_rows)
        } else {
            self.rng.gen_range(0..self.footprint_rows)
        };
        self.base_row + within
    }
}

impl Iterator for AccessGenerator {
    type Item = TraceEvent;

    // Inlined into the callers' collection loops: returned through memory,
    // an `Option<TraceEvent>` is copied padding bytes and all, with
    // overlapping narrow moves that stall store forwarding.
    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let gap = self.exponential_gap();
        self.now += gap;
        let row = self.pick_row();
        self.current_row = row;
        let row_bytes = self.geometry.row_bytes();
        let column_offset =
            self.rng.gen_range(0..self.geometry.columns()) as u64 * self.geometry.column_bytes();
        let addr = row * row_bytes + column_offset;
        let is_write = self.rng.gen_bool(self.write_frac);
        Some(TraceEvent {
            time: self.now,
            addr,
            is_write,
        })
    }
}

/// Merges two timed streams (co-scheduled processes) in timestamp order.
#[derive(Debug, Clone)]
pub struct MergedGenerator {
    a: AccessGenerator,
    b: AccessGenerator,
    pending_a: Option<TraceEvent>,
    pending_b: Option<TraceEvent>,
}

impl MergedGenerator {
    /// Merges two generators; callers are responsible for giving them
    /// disjoint `base_row` regions if the processes must not share memory.
    pub fn new(mut a: AccessGenerator, mut b: AccessGenerator) -> Self {
        let pending_a = a.next();
        let pending_b = b.next();
        MergedGenerator {
            a,
            b,
            pending_a,
            pending_b,
        }
    }
}

impl Iterator for MergedGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        match (self.pending_a, self.pending_b) {
            (Some(ea), Some(eb)) if ea.time <= eb.time => {
                self.pending_a = self.a.next();
                Some(ea)
            }
            (Some(_), Some(eb)) => {
                self.pending_b = self.b.next();
                Some(eb)
            }
            (Some(ea), None) => {
                self.pending_a = self.a.next();
                Some(ea)
            }
            (None, Some(eb)) => {
                self.pending_b = self.b.next();
                Some(eb)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Suite;

    fn spec(coverage: f64, row_hit: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: "t",
            suite: Suite::Synthetic,
            coverage,
            intensity: 2.5,
            row_hit_frac: row_hit,
            hot_frac: 0.2,
            hot_weight: 0.5,
            write_frac: 0.25,
            apki: 5.0,
        }
    }

    fn geometry() -> Geometry {
        Geometry::new(1, 4, 1024, 32, 64) // 4096 rows
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec(0.5, 0.5);
        let a: Vec<_> = AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 7)
            .take(100)
            .collect();
        let b: Vec<_> = AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 7)
            .take(100)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 8)
            .take(100)
            .collect();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn timestamps_are_monotone() {
        let s = spec(0.5, 0.5);
        let mut last = Instant::ZERO;
        for e in AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 1).take(1000) {
            assert!(e.time > last);
            last = e.time;
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let s = spec(0.25, 0.5);
        let g = geometry();
        let gen = AccessGenerator::new(&s, g, Duration::from_ms(64), 100, 1);
        let f = gen.footprint_rows();
        for e in gen.take(2000) {
            let row_block = e.addr / g.row_bytes();
            assert!(
                (100..100 + f).contains(&row_block),
                "row block {row_block} outside footprint"
            );
        }
    }

    #[test]
    fn footprint_sized_by_run_length_skip() {
        let s = spec(0.5, 0.6);
        let g = geometry();
        let gen = AccessGenerator::new(&s, g, Duration::from_ms(64), 0, 42);
        let skip = crate::calibrate::expected_skip(
            s.intensity,
            s.hot_frac,
            s.hot_weight,
            crate::calibrate::DEFAULT_PERIODS,
        );
        let expected = (0.5 * g.total_rows() as f64 / skip).round() as u64;
        assert_eq!(gen.footprint_rows(), expected.min(g.total_rows()));
        // Sanity: the footprint must exceed the naive coverage count, since
        // each footprint row only skips part of its refreshes.
        assert!(gen.footprint_rows() > g.total_rows() / 2);
    }

    #[test]
    fn access_rate_matches_calibration() {
        let s = spec(0.5, 0.5);
        let gen = AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 3);
        let target = 1e12 / gen.mean_gap_ps;
        let n = 20_000;
        let mut g2 = gen;
        let mut last = Instant::ZERO;
        for _ in 0..n {
            last = g2.next().unwrap().time;
        }
        let measured = n as f64 / last.as_secs_f64();
        assert!(
            (measured / target - 1.0).abs() < 0.05,
            "measured {measured} vs target {target}"
        );
    }

    #[test]
    fn row_hit_fraction_manifests_in_stream() {
        let s = spec(0.5, 0.7);
        let g = geometry();
        let mut prev_row = None;
        let mut same = 0u32;
        let mut total = 0u32;
        for e in AccessGenerator::new(&s, g, Duration::from_ms(64), 0, 5).take(5000) {
            let row = e.addr / g.row_bytes();
            if let Some(p) = prev_row {
                total += 1;
                if p == row {
                    same += 1;
                }
            }
            prev_row = Some(row);
        }
        let frac = f64::from(same) / f64::from(total);
        // Same-row repeats occur on hits plus chance re-picks.
        assert!(frac > 0.6 && frac < 0.85, "same-row fraction {frac}");
    }

    #[test]
    fn write_fraction_manifests_in_stream() {
        let s = spec(0.5, 0.5);
        let writes = AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 0, 11)
            .take(8000)
            .filter(|e| e.is_write)
            .count();
        let frac = writes as f64 / 8000.0;
        assert!((frac - 0.25).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn merged_streams_are_time_ordered_and_disjoint() {
        let g = geometry();
        let sa = spec(0.2, 0.5);
        let sb = spec(0.2, 0.5);
        let ga = AccessGenerator::new(&sa, g, Duration::from_ms(64), 0, 1);
        let fa = ga.footprint_rows();
        let gb = AccessGenerator::new(&sb, g, Duration::from_ms(64), fa, 2);
        let mut last = Instant::ZERO;
        let mut saw_b = false;
        for e in MergedGenerator::new(ga, gb).take(4000) {
            assert!(e.time >= last);
            last = e.time;
            if e.addr / g.row_bytes() >= fa {
                saw_b = true;
            }
        }
        assert!(saw_b, "second process contributes accesses");
    }

    #[test]
    #[should_panic(expected = "exceeds module rows")]
    fn oversized_footprint_rejected() {
        let s = spec(0.9, 0.5);
        AccessGenerator::new(&s, geometry(), Duration::from_ms(64), 3000, 1);
    }
}
