//! Rowhammer attack access patterns.
//!
//! A [`HammerGenerator`] emits the tight activate loop of a rowhammer
//! attack against one bank: every access lands on an *aggressor* row
//! chosen round-robin so that consecutive accesses always hit different
//! rows and therefore force a precharge/activate pair — the disturbance
//! mechanism couples to ACTIVATE counts, not column traffic. The three
//! classic shapes are modelled:
//!
//! * **single-sided** — one aggressor beside the victim, alternated with a
//!   distant decoy row (same bank) purely to defeat the open-row buffer;
//! * **double-sided** — the two rows sandwiching the victim, the
//!   highest-pressure pattern (each round-robin lap pressures the victim
//!   from both sides);
//! * **many-sided** — `n` aggressors at alternating offsets around the
//!   victim (TRRespass-style), spreading pressure over a band of victims.
//!
//! The stream is deterministic given a seed, infinite, and paced by a
//! fixed activate gap — bound it with the simulation horizon.

use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::Geometry;

use crate::generator::TraceEvent;

/// Shape of the hammer pattern around the victim row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HammerPattern {
    /// One aggressor adjacent to the victim plus a distant decoy row.
    SingleSided,
    /// The two rows sandwiching the victim.
    DoubleSided,
    /// `aggressors` rows at alternating ±1, ±3, ±5… offsets around the
    /// victim (clamped to the bank).
    ManySided {
        /// Number of aggressor rows (at least 3 to differ from the
        /// double-sided shape).
        aggressors: u32,
    },
}

/// Everything that defines one hammer attack stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HammerSpec {
    /// Pattern shape.
    pub pattern: HammerPattern,
    /// Rank of the bank under attack.
    pub rank: u32,
    /// Bank under attack.
    pub bank: u32,
    /// Physical row the attack tries to disturb.
    pub victim_row: u32,
    /// Gap between consecutive accesses (the attack's activate period).
    pub act_gap: Duration,
}

impl HammerSpec {
    /// A double-sided attack on `victim_row` of bank (0, 0) with a 60 ns
    /// activate period — roughly the tRC-limited maximum rate.
    pub fn double_sided(victim_row: u32) -> Self {
        HammerSpec {
            pattern: HammerPattern::DoubleSided,
            rank: 0,
            bank: 0,
            victim_row,
            act_gap: Duration::from_ns(60),
        }
    }
}

/// Deterministic rowhammer access stream for one [`HammerSpec`].
#[derive(Debug, Clone)]
pub struct HammerGenerator {
    geometry: Geometry,
    spec: HammerSpec,
    aggressors: Vec<u32>,
    next_idx: usize,
    now: Instant,
    rng: Rng,
}

impl HammerGenerator {
    /// Builds the generator. `seed` only varies the column offsets (the
    /// row sequence is the attack and stays fixed), so two streams with
    /// different seeds exert identical row pressure.
    ///
    /// # Panics
    ///
    /// Panics if the bank or victim row is out of range for `geometry`,
    /// if the victim row has no in-range neighbor the pattern needs, or if
    /// a many-sided pattern asks for fewer than 3 aggressors.
    pub fn new(spec: HammerSpec, geometry: Geometry, seed: u64) -> Self {
        assert!(spec.rank < geometry.ranks(), "rank out of range");
        assert!(spec.bank < geometry.banks(), "bank out of range");
        assert!(spec.victim_row < geometry.rows(), "victim row out of range");
        assert!(!spec.act_gap.is_zero(), "activate gap must be positive");
        let rows = geometry.rows();
        let v = spec.victim_row;
        let mut aggressors = match spec.pattern {
            HammerPattern::SingleSided => {
                assert!(rows > 1, "victim row has no adjacent row");
                // In range by the assert: rows > 1 means every row has a
                // neighbor on at least one side.
                let a = neighbor(v, rows).unwrap_or(v);
                // Decoy half a bank away: closes the aggressor's page each
                // lap without pressuring anything near the victim.
                let decoy = (v + rows / 2) % rows;
                vec![a, decoy]
            }
            HammerPattern::DoubleSided => {
                assert!(
                    v > 0 && v + 1 < rows,
                    "double-sided needs neighbors on both sides of row {v}"
                );
                vec![v - 1, v + 1]
            }
            HammerPattern::ManySided { aggressors: n } => {
                assert!(n >= 3, "many-sided needs at least 3 aggressors, got {n}");
                let mut set = Vec::with_capacity(n as usize);
                // Offsets +1, -1, +3, -3, +5, … — aggressors on odd
                // offsets leave the even rows between them as victims.
                let mut offset = 1i64;
                while (set.len() as u32) < n {
                    for s in [offset, -offset] {
                        let row = i64::from(v) + s;
                        if (0..i64::from(rows)).contains(&row) && (set.len() as u32) < n {
                            set.push(row as u32);
                        }
                    }
                    assert!(
                        offset < i64::from(rows),
                        "bank too small for {n} aggressors around row {v}"
                    );
                    offset += 2;
                }
                set
            }
        };
        aggressors.dedup();
        HammerGenerator {
            geometry,
            spec,
            aggressors,
            next_idx: 0,
            now: Instant::ZERO,
            rng: Rng::seed_from_u64(seed ^ 0x4a3a_3a3a_0000_0007),
        }
    }

    /// The aggressor rows, in round-robin order.
    pub fn aggressors(&self) -> &[u32] {
        &self.aggressors
    }

    /// Every row adjacent to an aggressor that is not itself an aggressor
    /// — the rows the attack can corrupt. Sorted, deduplicated.
    pub fn victims(&self) -> Vec<u32> {
        let rows = self.geometry.rows();
        let mut v: Vec<u32> = self
            .aggressors
            .iter()
            .flat_map(|&a| {
                let below = a.checked_sub(1);
                let above = (a + 1 < rows).then_some(a + 1);
                below.into_iter().chain(above)
            })
            .filter(|r| !self.aggressors.contains(r))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn encode(&self, row: u32, column: u32) -> u64 {
        let g = &self.geometry;
        let blocks = ((u64::from(row) * u64::from(g.ranks()) + u64::from(self.spec.rank))
            * u64::from(g.banks())
            + u64::from(self.spec.bank))
            * u64::from(g.columns())
            + u64::from(column);
        blocks * g.column_bytes()
    }
}

impl Iterator for HammerGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.now += self.spec.act_gap;
        let row = self.aggressors[self.next_idx];
        self.next_idx = (self.next_idx + 1) % self.aggressors.len();
        let column = self.rng.gen_range(0..self.geometry.columns());
        Some(TraceEvent {
            time: self.now,
            addr: self.encode(row, column),
            // Hammering reads: the disturbance couples to the ACT, and
            // loads keep the victim data untouched for the ECC check.
            is_write: false,
        })
    }
}

fn neighbor(row: u32, rows: u32) -> Option<u32> {
    if row + 1 < rows {
        Some(row + 1)
    } else {
        row.checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::new(1, 4, 1024, 32, 64)
    }

    #[test]
    fn double_sided_sandwiches_the_victim() {
        let gen = HammerGenerator::new(HammerSpec::double_sided(100), geometry(), 1);
        assert_eq!(gen.aggressors(), &[99, 101]);
        assert!(gen.victims().contains(&100));
    }

    #[test]
    fn single_sided_alternates_aggressor_and_decoy() {
        let spec = HammerSpec {
            pattern: HammerPattern::SingleSided,
            ..HammerSpec::double_sided(100)
        };
        let gen = HammerGenerator::new(spec, geometry(), 1);
        assert_eq!(gen.aggressors().len(), 2);
        assert_eq!(gen.aggressors()[0], 101);
        let g = geometry();
        let rows: Vec<u32> = gen
            .clone()
            .take(4)
            .map(|e| g.decode(e.addr).row_addr.row)
            .collect();
        assert_eq!(rows[0], rows[2], "round-robin repeats the aggressor");
        assert_ne!(rows[0], rows[1], "consecutive accesses change rows");
    }

    #[test]
    fn many_sided_spreads_odd_offsets() {
        let spec = HammerSpec {
            pattern: HammerPattern::ManySided { aggressors: 4 },
            ..HammerSpec::double_sided(100)
        };
        let gen = HammerGenerator::new(spec, geometry(), 1);
        assert_eq!(gen.aggressors(), &[101, 99, 103, 97]);
        // The even rows between the aggressors are all victims.
        for v in [98, 100, 102] {
            assert!(gen.victims().contains(&v), "row {v} should be a victim");
        }
    }

    #[test]
    fn stream_targets_one_bank_and_only_aggressor_rows() {
        let g = geometry();
        let spec = HammerSpec {
            rank: 0,
            bank: 2,
            ..HammerSpec::double_sided(7)
        };
        let gen = HammerGenerator::new(spec, g, 9);
        let aggressors = gen.aggressors().to_vec();
        for e in gen.take(500) {
            let d = g.decode(e.addr).row_addr;
            assert_eq!((d.rank, d.bank), (0, 2));
            assert!(aggressors.contains(&d.row));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = geometry();
        let spec = HammerSpec::double_sided(50);
        let a: Vec<_> = HammerGenerator::new(spec, g, 3).take(200).collect();
        let b: Vec<_> = HammerGenerator::new(spec, g, 3).take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn pacing_matches_the_activate_gap() {
        let spec = HammerSpec::double_sided(50);
        let rate = 1.0 / spec.act_gap.as_secs_f64();
        let gen = HammerGenerator::new(spec, geometry(), 1);
        let events: Vec<_> = gen.take(100).collect();
        let span = events.last().unwrap().time.as_secs_f64();
        assert!((100.0 / span / rate - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "neighbors on both sides")]
    fn edge_victim_rejected_for_double_sided() {
        HammerGenerator::new(HammerSpec::double_sided(0), geometry(), 1);
    }
}
