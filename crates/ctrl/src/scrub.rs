//! Patrol scrub scheduling.
//!
//! A patrol scrubber walks DRAM rows in the background: each *slot* it
//! reads one row in a RAS cycle (occupying the bank exactly like a
//! RAS-only refresh, per `dram::timing`), runs the data through the SECDED
//! decoder, writes back a corrected word on a CE, and — because the RAS
//! cycle restored the row's charge — lets the refresh policy reset the
//! row's time-out counter via
//! [`RefreshPolicy::on_row_scrubbed`](smartrefresh_core::RefreshPolicy::on_row_scrubbed),
//! so Smart Refresh skips the now-redundant refresh.
//!
//! Victims are picked in *deadline order*: the row whose retention
//! deadline expires soonest (`last_restore + row_deadline`) is scrubbed
//! first. This makes the scrubber chase exactly the rows the refresh
//! schedule is about to service, which maximises the counter-reset savings
//! and reaches weak (tight-deadline) rows before they decay further.
//!
//! The victim comes from the device's own
//! [`RetentionTracker::earliest_deadline_row`](smartrefresh_dram::RetentionTracker::earliest_deadline_row):
//! the first slot builds a tournament tree over `(deadline, row)` keys,
//! every restore and deadline change after that re-keys one leaf in
//! O(log rows), and each slot reads the root in O(1) instead of scanning
//! every row. Ties go to the lower flat index.

use smartrefresh_dram::time::{Duration, Instant};

/// Patrol scrub schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Time between scrub slots; one row is scrubbed per slot.
    pub interval: Duration,
}

impl ScrubConfig {
    /// A schedule covering every row of the module once per `window`
    /// (interval = `window / total_rows`). Covering once per retention
    /// interval makes the scrubber shadow the refresh schedule; longer
    /// windows trade coverage for bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `total_rows` is zero.
    pub fn covering(window: Duration, total_rows: u64) -> Self {
        assert!(total_rows > 0, "cannot scrub a module with no rows");
        ScrubConfig {
            interval: window.div_by(total_rows),
        }
    }
}

/// Slot clock for the patrol walk: tracks when the next scrub is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatrolScrubber {
    cfg: ScrubConfig,
    next_slot: Instant,
}

impl PatrolScrubber {
    /// Creates a scrubber whose first slot falls one interval after time
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` is zero, which would stall the slot clock.
    pub fn new(cfg: ScrubConfig) -> Self {
        Self::starting_at(cfg, Instant::ZERO + cfg.interval)
    }

    /// Creates a scrubber whose first slot falls at `first_slot`. A
    /// system-level scheduler uses this to stagger the per-channel patrol
    /// phases so the channels' scrub slots interleave instead of landing
    /// on every channel at the same instants.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` is zero, which would stall the slot clock.
    pub fn starting_at(cfg: ScrubConfig, first_slot: Instant) -> Self {
        assert!(!cfg.interval.is_zero(), "scrub interval must be non-zero");
        PatrolScrubber {
            cfg,
            next_slot: first_slot,
        }
    }

    /// The schedule parameters.
    pub fn config(&self) -> ScrubConfig {
        self.cfg
    }

    /// Replaces the slot interval from the next slot onward. The pending
    /// slot keeps its time (an already-promised slot is never revoked);
    /// only the spacing of the slots after it changes. This is the hook an
    /// adaptive scrub-rate controller drives from the observed CE rate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`](crate::SimError::Config) for a zero
    /// interval, which would stall the slot clock.
    pub fn set_interval(&mut self, interval: Duration) -> Result<(), crate::SimError> {
        if interval == Duration::ZERO {
            return Err(crate::SimError::Config {
                what: "scrub interval must be non-zero",
            });
        }
        self.cfg.interval = interval;
        Ok(())
    }

    /// When the next scrub slot is due.
    pub fn next_slot(&self) -> Instant {
        self.next_slot
    }

    /// Pulls the next scrub slot forward to `now` if it was promised later.
    ///
    /// Used on wake from a CKE-low window under
    /// `CounterPowerPolicy::ConservativeReset`: the deadline bookkeeping
    /// the promised slot was derived from did not survive the window, so
    /// the schedule tightens to the safe bound — scrub immediately and
    /// re-derive from there. Never loosens an earlier promise.
    pub fn tighten_deadline(&mut self, now: Instant) {
        self.next_slot = self.next_slot.min(now);
    }

    /// Consumes the slot at `slot`, scheduling the next one an interval
    /// later (skipping any backlog if the controller fell behind).
    pub fn advance_past(&mut self, slot: Instant) {
        while self.next_slot <= slot {
            self.next_slot += self.cfg.interval;
        }
    }

    /// Postpones the next slot to `t`, bounded to forward moves of at most
    /// one interval — a demand-aware scheduler can skew a slot away from
    /// an access burst within its own period, but can never skip a period
    /// or pull a slot earlier. Out-of-bounds requests are ignored.
    pub fn postpone_to(&mut self, t: Instant) {
        if t > self.next_slot && t <= self.next_slot + self.cfg.interval {
            self.next_slot = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_dram::{Geometry, RetentionTracker};

    #[test]
    fn covering_divides_the_window() {
        let cfg = ScrubConfig::covering(Duration::from_ms(64), 1024);
        assert_eq!(cfg.interval, Duration::from_ms(64).div_by(1024));
    }

    #[test]
    fn slots_tick_by_interval_and_skip_backlog() {
        let mut s = PatrolScrubber::new(ScrubConfig {
            interval: Duration::from_us(10),
        });
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(10));
        s.advance_past(s.next_slot());
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(20));
        // Falling behind by several slots does not queue a burst.
        s.advance_past(Instant::ZERO + Duration::from_us(55));
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(60));
    }

    #[test]
    fn staggered_start_and_interval_changes() {
        let cfg = ScrubConfig {
            interval: Duration::from_us(10),
        };
        // A staggered scrubber keeps its phase offset across slots.
        let mut s = PatrolScrubber::starting_at(cfg, Instant::ZERO + Duration::from_us(13));
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(13));
        s.advance_past(s.next_slot());
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(23));
        // Changing the interval keeps the promised slot, respacing later ones.
        s.set_interval(Duration::from_us(40)).unwrap();
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(23));
        s.advance_past(s.next_slot());
        assert_eq!(s.next_slot(), Instant::ZERO + Duration::from_us(63));
        // A zero interval is rejected rather than stalling the clock.
        assert!(matches!(
            s.set_interval(Duration::ZERO),
            Err(crate::SimError::Config { .. })
        ));
    }

    #[test]
    fn postpone_is_bounded_and_forward_only() {
        let mut s = PatrolScrubber::new(ScrubConfig {
            interval: Duration::from_us(10),
        });
        let base = s.next_slot();
        // Backward and same-time requests are ignored.
        s.postpone_to(base - Duration::from_us(1));
        s.postpone_to(base);
        assert_eq!(s.next_slot(), base);
        // Beyond one interval would skip a period: ignored.
        s.postpone_to(base + Duration::from_us(11));
        assert_eq!(s.next_slot(), base);
        // Within the period: honoured.
        s.postpone_to(base + Duration::from_us(7));
        assert_eq!(s.next_slot(), base + Duration::from_us(7));
    }

    #[test]
    fn victim_is_the_earliest_deadline() {
        let g = Geometry::new(1, 1, 8, 4, 64);
        let mut tracker = RetentionTracker::new(&g, Duration::from_ms(64));
        // All rows restored at t=0 with equal deadlines: row 0 wins the tie.
        assert_eq!(tracker.earliest_deadline_row(), Some(0));
        // Tighten row 5's deadline: it becomes the victim.
        tracker.set_row_deadline(5, Duration::from_ms(4));
        assert_eq!(tracker.earliest_deadline_row(), Some(5));
        // Restore row 5 recently enough and row 0 leads again.
        tracker.restore(5, Instant::ZERO + Duration::from_ms(61));
        assert_eq!(tracker.earliest_deadline_row(), Some(0));
    }
}
