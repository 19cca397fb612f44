//! Baseline refresh policies (§3).
//!
//! * [`CbrDistributed`] — the paper's baseline: CAS-before-RAS refreshes
//!   spread evenly across the retention interval, one `(rank, bank)` row per
//!   slot, relying on the device's internal address counter. Lowest-power
//!   conventional policy.
//! * [`RasOnlyDistributed`] — the same schedule but with explicit row
//!   addresses driven on the bus; isolates the RAS-only energy overhead that
//!   Smart Refresh pays.
//! * [`BurstRefresh`] — all rows refreshed back-to-back once per interval;
//!   correct but with terrible peak bandwidth/power (kept as the ablation
//!   contrast for the staggering discussion of §4.2).
//! * [`NoRefresh`] — never refreshes; exists so tests can demonstrate that
//!   the retention checker actually catches violations.

use std::collections::VecDeque;

use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, RowAddr};

use crate::policy::{RefreshAction, RefreshPolicy};

/// Evenly distributed CBR refresh: `total_rows` slots per retention
/// interval, walking `(rank, bank)` round-robin so each bank's internal
/// counter sweeps its rows exactly once per interval.
///
/// # Examples
///
/// ```
/// use smartrefresh_core::{CbrDistributed, RefreshPolicy};
/// use smartrefresh_dram::time::{Duration, Instant};
/// use smartrefresh_dram::Geometry;
///
/// let g = Geometry::new(1, 2, 8, 4, 64); // 16 rows
/// let mut p = CbrDistributed::new(g, Duration::from_ms(16));
/// assert_eq!(p.slot(), Duration::from_ms(1));
/// p.advance(Instant::ZERO + Duration::from_ms(16));
/// let mut n = 0;
/// while p.pop_pending().is_some() { n += 1; }
/// assert_eq!(n, 16); // every row once per interval
/// ```
#[derive(Debug, Clone)]
pub struct CbrDistributed {
    geometry: Geometry,
    slot: Duration,
    next_due: Instant,
    /// The round-robin cursor over `(rank, bank)`, banks innermost.
    next_rank: u32,
    next_bank: u32,
    pending: VecDeque<RefreshAction>,
    high_water: usize,
}

impl CbrDistributed {
    /// Creates the policy for a module with the given retention interval.
    pub fn new(geometry: Geometry, retention: Duration) -> Self {
        let slot = retention.div_by(geometry.total_rows());
        assert!(!slot.is_zero(), "retention too short for row count");
        CbrDistributed {
            geometry,
            slot,
            next_due: Instant::ZERO + slot,
            next_rank: 0,
            next_bank: 0,
            pending: VecDeque::new(),
            high_water: 0,
        }
    }

    /// The gap between successive refresh commands.
    pub fn slot(&self) -> Duration {
        self.slot
    }
}

impl RefreshPolicy for CbrDistributed {
    fn name(&self) -> &'static str {
        "cbr-distributed"
    }

    fn on_row_opened(&mut self, _row: RowAddr, _now: Instant) {}

    fn on_row_closed(&mut self, _row: RowAddr, _now: Instant) {}

    fn next_wakeup(&self) -> Option<Instant> {
        Some(self.next_due)
    }

    fn advance(&mut self, now: Instant) {
        while self.next_due <= now {
            let (rank, bank) = (self.next_rank, self.next_bank);
            self.next_bank += 1;
            if self.next_bank == self.geometry.banks() {
                self.next_bank = 0;
                self.next_rank += 1;
                if self.next_rank == self.geometry.ranks() {
                    self.next_rank = 0;
                }
            }
            self.pending.push_back(RefreshAction::Cbr { rank, bank });
            self.high_water = self.high_water.max(self.pending.len());
            self.next_due += self.slot;
        }
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        self.pending.pop_front()
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn queue_high_water(&self) -> usize {
        self.high_water
    }
}

/// Distributed refresh with explicit row addresses (RAS-only). Identical
/// schedule to [`CbrDistributed`]; every refresh drives the address bus.
#[derive(Debug, Clone)]
pub struct RasOnlyDistributed {
    geometry: Geometry,
    slot: Duration,
    next_due: Instant,
    next_flat: u64,
    pending: VecDeque<RefreshAction>,
    high_water: usize,
}

impl RasOnlyDistributed {
    /// Creates the policy for a module with the given retention interval.
    pub fn new(geometry: Geometry, retention: Duration) -> Self {
        let slot = retention.div_by(geometry.total_rows());
        assert!(!slot.is_zero(), "retention too short for row count");
        RasOnlyDistributed {
            geometry,
            slot,
            next_due: Instant::ZERO + slot,
            next_flat: 0,
            pending: VecDeque::new(),
            high_water: 0,
        }
    }
}

impl RefreshPolicy for RasOnlyDistributed {
    fn name(&self) -> &'static str {
        "ras-only-distributed"
    }

    fn on_row_opened(&mut self, _row: RowAddr, _now: Instant) {}

    fn on_row_closed(&mut self, _row: RowAddr, _now: Instant) {}

    fn next_wakeup(&self) -> Option<Instant> {
        Some(self.next_due)
    }

    fn advance(&mut self, now: Instant) {
        while self.next_due <= now {
            // Walk banks in the outer loop and rows in the inner one so every
            // bank is visited each `total_banks` slots (spreads bank
            // occupancy exactly like the CBR round-robin).
            let total = self.geometry.total_rows();
            let banks = u64::from(self.geometry.total_banks());
            let rows = total / banks;
            let bank_idx = (self.next_flat % banks) as u32;
            let row_idx = (self.next_flat / banks) % rows;
            self.next_flat = (self.next_flat + 1) % total;
            let rank = bank_idx / self.geometry.banks();
            let bank = bank_idx % self.geometry.banks();
            self.pending.push_back(RefreshAction::RasOnly {
                row: RowAddr {
                    rank,
                    bank,
                    row: row_idx as u32,
                },
                charge_bus: true,
            });
            self.high_water = self.high_water.max(self.pending.len());
            self.next_due += self.slot;
        }
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        self.pending.pop_front()
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn queue_high_water(&self) -> usize {
        self.high_water
    }
}

/// Burst refresh: the full row sweep issued back-to-back at every interval
/// boundary.
#[derive(Debug, Clone)]
pub struct BurstRefresh {
    geometry: Geometry,
    retention: Duration,
    next_due: Instant,
    pending: VecDeque<RefreshAction>,
    high_water: usize,
}

impl BurstRefresh {
    /// Creates the policy; the first burst fires one interval after start
    /// (all rows are fresh at power-up).
    pub fn new(geometry: Geometry, retention: Duration) -> Self {
        assert!(!retention.is_zero(), "retention must be nonzero");
        BurstRefresh {
            geometry,
            retention,
            next_due: Instant::ZERO + retention,
            pending: VecDeque::new(),
            high_water: 0,
        }
    }
}

impl RefreshPolicy for BurstRefresh {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn on_row_opened(&mut self, _row: RowAddr, _now: Instant) {}

    fn on_row_closed(&mut self, _row: RowAddr, _now: Instant) {}

    fn next_wakeup(&self) -> Option<Instant> {
        Some(self.next_due)
    }

    fn advance(&mut self, now: Instant) {
        while self.next_due <= now {
            for bank_idx in 0..self.geometry.total_banks() {
                let rank = bank_idx / self.geometry.banks();
                let bank = bank_idx % self.geometry.banks();
                for _ in 0..self.geometry.rows() {
                    self.pending.push_back(RefreshAction::Cbr { rank, bank });
                }
            }
            self.high_water = self.high_water.max(self.pending.len());
            self.next_due += self.retention;
        }
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        self.pending.pop_front()
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn queue_high_water(&self) -> usize {
        self.high_water
    }
}

/// A policy that never refreshes. Data *will* decay; used to validate that
/// the retention checker catches broken policies, and as an upper bound on
/// refresh-energy savings.
#[derive(Debug, Clone, Default)]
pub struct NoRefresh;

impl NoRefresh {
    /// Creates the policy.
    pub fn new() -> Self {
        NoRefresh
    }
}

impl RefreshPolicy for NoRefresh {
    fn name(&self) -> &'static str {
        "no-refresh"
    }

    fn on_row_opened(&mut self, _row: RowAddr, _now: Instant) {}

    fn on_row_closed(&mut self, _row: RowAddr, _now: Instant) {}

    fn next_wakeup(&self) -> Option<Instant> {
        None
    }

    fn advance(&mut self, _now: Instant) {}

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        None
    }

    fn pending_len(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Geometry {
        Geometry::new(1, 2, 8, 4, 64) // 16 rows total
    }

    fn drain(p: &mut dyn RefreshPolicy) -> Vec<RefreshAction> {
        let mut v = Vec::new();
        while let Some(a) = p.pop_pending() {
            v.push(a);
        }
        v
    }

    #[test]
    fn cbr_emits_total_rows_per_interval() {
        let mut p = CbrDistributed::new(small(), Duration::from_ms(16));
        p.advance(Instant::ZERO + Duration::from_ms(16));
        let actions = drain(&mut p);
        assert_eq!(actions.len(), 16);
        // Round-robin over the two banks.
        let bank0 = actions.iter().filter(|a| a.target_bank() == (0, 0)).count();
        assert_eq!(bank0, 8);
    }

    #[test]
    fn cbr_slots_are_even() {
        let p = CbrDistributed::new(small(), Duration::from_ms(16));
        assert_eq!(p.slot(), Duration::from_ms(1));
        assert_eq!(p.next_wakeup(), Some(Instant::ZERO + Duration::from_ms(1)));
    }

    #[test]
    fn cbr_advance_is_incremental() {
        let mut p = CbrDistributed::new(small(), Duration::from_ms(16));
        p.advance(Instant::ZERO + Duration::from_ms(3));
        assert_eq!(p.pending_len(), 3);
        p.advance(Instant::ZERO + Duration::from_ms(3));
        assert_eq!(p.pending_len(), 3, "re-advancing to same time adds nothing");
    }

    #[test]
    fn ras_only_covers_every_row_exactly_once_per_interval() {
        let g = small();
        let mut p = RasOnlyDistributed::new(g, Duration::from_ms(16));
        p.advance(Instant::ZERO + Duration::from_ms(16));
        let mut seen = vec![0u32; g.total_rows() as usize];
        for a in drain(&mut p) {
            match a {
                RefreshAction::RasOnly { row, charge_bus } => {
                    assert!(charge_bus);
                    seen[g.flatten(row) as usize] += 1;
                }
                RefreshAction::Cbr { .. } => panic!("unexpected CBR action"),
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage = {seen:?}");
    }

    #[test]
    fn ras_only_alternates_banks() {
        let mut p = RasOnlyDistributed::new(small(), Duration::from_ms(16));
        p.advance(Instant::ZERO + Duration::from_ms(2));
        let actions = drain(&mut p);
        assert_eq!(actions[0].target_bank(), (0, 0));
        assert_eq!(actions[1].target_bank(), (0, 1));
    }

    #[test]
    fn burst_queues_everything_at_once() {
        let mut p = BurstRefresh::new(small(), Duration::from_ms(16));
        assert_eq!(p.pending_len(), 0);
        p.advance(Instant::ZERO + Duration::from_ms(16));
        assert_eq!(p.pending_len(), 16);
        assert_eq!(p.queue_high_water(), 16, "burst peak equals all rows");
    }

    #[test]
    fn no_refresh_does_nothing() {
        let mut p = NoRefresh::new();
        assert_eq!(p.next_wakeup(), None);
        p.advance(Instant::ZERO + Duration::from_ms(100));
        assert!(p.pop_pending().is_none());
    }
}
