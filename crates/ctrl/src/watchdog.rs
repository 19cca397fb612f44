//! The retention watchdog.
//!
//! Corrected errors (CEs) are the early-warning signal of retention
//! trouble: a row that keeps producing CEs is decaying faster than the
//! refresh schedule assumes (a weak cell the profile missed, a VRT
//! episode, thermal derating). The watchdog tracks per-row CE rates with a
//! leaky bucket — each CE fills the row's bucket by one, each epoch leaks
//! it — and audits the buckets once per epoch:
//!
//! * a bucket at or above the threshold marks a **violation**: the row is
//!   force-scrubbed immediately (out of deadline order) and its bucket is
//!   emptied;
//! * when violations persist (more than
//!   [`WatchdogConfig::escalate_after`] of them), the watchdog escalates
//!   to the policy's CBR degradation path — the conservative all-rows
//!   sweep refreshes every row at the rated worst case, which is the safe
//!   mode for rows whose true retention is unknown.
//!
//! Uncorrectable errors escalate immediately through the controller
//! (`DegradeCause::EccUncorrectable`); the watchdog handles the slow-burn
//! cases that never quite reach a UE.

use std::collections::BTreeMap;

use smartrefresh_dram::time::{Duration, Instant};

/// Leaky-bucket and epoch parameters for the retention watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Audit period; buckets leak once per epoch.
    pub epoch: Duration,
    /// How much each bucket leaks per epoch.
    pub leak: u32,
    /// Bucket fill at which a row is flagged and force-scrubbed.
    pub threshold: u32,
    /// Number of violations after which the watchdog escalates to the
    /// policy's degradation path.
    pub escalate_after: u32,
}

impl WatchdogConfig {
    /// Defaults scaled to the module's retention interval: audit once per
    /// interval, leak 1, flag a row at 3 CEs per epoch, escalate after 2
    /// violations.
    pub fn for_retention(retention: Duration) -> Self {
        WatchdogConfig {
            epoch: retention,
            leak: 1,
            threshold: 3,
            escalate_after: 2,
        }
    }
}

/// One recorded leaky-bucket violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogViolation {
    /// Flat index of the offending row.
    pub flat_index: u64,
    /// Bucket fill at audit time.
    pub fill: u32,
    /// When the audit flagged it.
    pub at: Instant,
}

/// Per-row CE-rate tracking with epoch audits.
#[derive(Debug, Clone)]
pub struct RetentionWatchdog {
    cfg: WatchdogConfig,
    /// Flat row index → bucket fill. Absent = empty.
    buckets: BTreeMap<u64, u32>,
    next_epoch: Instant,
    violations: Vec<WatchdogViolation>,
}

impl RetentionWatchdog {
    /// Creates a watchdog whose first audit falls one epoch after time
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.epoch` is zero, which would stall the epoch clock.
    pub fn new(cfg: WatchdogConfig) -> Self {
        assert!(!cfg.epoch.is_zero(), "watchdog epoch must be non-zero");
        RetentionWatchdog {
            cfg,
            buckets: BTreeMap::new(),
            next_epoch: Instant::ZERO + cfg.epoch,
            violations: Vec::new(),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> WatchdogConfig {
        self.cfg
    }

    /// When the next epoch audit is due.
    pub fn next_epoch(&self) -> Instant {
        self.next_epoch
    }

    /// Pulls the next epoch audit forward to `now` if it was scheduled
    /// later.
    ///
    /// Used on wake from a CKE-low window under
    /// `CounterPowerPolicy::ConservativeReset`: the epoch clock's phase
    /// was derived from counter-era bookkeeping that did not survive the
    /// window, so the watchdog audits immediately and re-phases from the
    /// wake. Never defers an already-due audit.
    pub fn note_wake(&mut self, now: Instant) {
        self.next_epoch = self.next_epoch.min(now);
    }

    /// Records one corrected error against the row's bucket.
    pub fn record_ce(&mut self, flat_index: u64) {
        *self.buckets.entry(flat_index).or_insert(0) += 1;
    }

    /// Runs the epoch audit at `now`: returns the rows whose buckets
    /// crossed the threshold (for the controller to force-scrub), records
    /// them as violations and empties their buckets, leaks every other
    /// bucket, and schedules the next epoch.
    pub fn audit(&mut self, now: Instant) -> Vec<u64> {
        let mut flagged = Vec::new();
        self.buckets.retain(|&flat, fill| {
            if *fill >= self.cfg.threshold {
                self.violations.push(WatchdogViolation {
                    flat_index: flat,
                    fill: *fill,
                    at: now,
                });
                flagged.push(flat);
                false
            } else {
                *fill = fill.saturating_sub(self.cfg.leak);
                *fill > 0
            }
        });
        while self.next_epoch <= now {
            self.next_epoch += self.cfg.epoch;
        }
        flagged
    }

    /// Every violation recorded so far, in audit order.
    pub fn violations(&self) -> &[WatchdogViolation] {
        &self.violations
    }

    /// True once violations have persisted past the escalation limit.
    pub fn should_escalate(&self) -> bool {
        self.violations.len() > self.cfg.escalate_after as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Current bucket fill for a row.
    fn bucket_fill(wd: &RetentionWatchdog, flat_index: u64) -> u32 {
        wd.buckets.get(&flat_index).copied().unwrap_or(0)
    }

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            epoch: Duration::from_ms(8),
            leak: 1,
            threshold: 3,
            escalate_after: 2,
        }
    }

    #[test]
    fn buckets_fill_and_leak() {
        let mut wd = RetentionWatchdog::new(cfg());
        wd.record_ce(7);
        wd.record_ce(7);
        assert_eq!(bucket_fill(&wd, 7), 2);
        // Below threshold: leaks by 1, no violation.
        assert!(wd.audit(wd.next_epoch()).is_empty());
        assert_eq!(bucket_fill(&wd, 7), 1);
        assert!(wd.violations().is_empty());
        // Another leak empties and drops the bucket.
        assert!(wd.audit(wd.next_epoch()).is_empty());
        assert_eq!(bucket_fill(&wd, 7), 0);
    }

    #[test]
    fn threshold_crossing_flags_and_resets() {
        let mut wd = RetentionWatchdog::new(cfg());
        for _ in 0..3 {
            wd.record_ce(5);
        }
        wd.record_ce(9);
        let flagged = wd.audit(wd.next_epoch());
        assert_eq!(flagged, vec![5]);
        assert_eq!(wd.violations().len(), 1);
        assert_eq!(wd.violations()[0].flat_index, 5);
        assert_eq!(wd.violations()[0].fill, 3);
        assert_eq!(bucket_fill(&wd, 5), 0, "flagged bucket empties");
        assert!(!wd.should_escalate());
    }

    #[test]
    fn persistent_violations_escalate() {
        let mut wd = RetentionWatchdog::new(cfg());
        for _ in 0..3 {
            for _ in 0..3 {
                wd.record_ce(1);
            }
            wd.audit(wd.next_epoch());
        }
        assert_eq!(wd.violations().len(), 3);
        assert!(wd.should_escalate());
    }

    #[test]
    fn epochs_advance_past_backlog() {
        let mut wd = RetentionWatchdog::new(cfg());
        let first = wd.next_epoch();
        wd.audit(first + Duration::from_ms(20));
        assert!(wd.next_epoch() > first + Duration::from_ms(20));
    }
}
