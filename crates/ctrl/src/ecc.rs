//! ECC configuration and the controller's ECC-path state.
//!
//! [`EccConfig`] is the user-facing knob bundle: installing it on a
//! [`MemoryController`](crate::MemoryController) via
//! [`with_ecc`](crate::MemoryController::with_ecc) turns on SECDED
//! decode/correct on every demand read, and optionally a patrol scrubber
//! ([`ScrubConfig`]) and a retention watchdog ([`WatchdogConfig`]).

use std::collections::BTreeSet;

use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::RetentionTracker;
use smartrefresh_ecc::EccMemory;

use crate::scrub::{PatrolScrubber, ScrubConfig};
use crate::watchdog::{RetentionWatchdog, WatchdogConfig};

/// Configuration for the controller's ECC path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccConfig {
    /// Seed for the deterministic flip-position stream.
    pub seed: u64,
    /// Patrol scrub schedule; `None` disables background scrubbing (ECC
    /// then only acts on demand reads).
    pub scrub: Option<ScrubConfig>,
    /// Retention watchdog parameters; `None` disables the CE-rate audit.
    pub watchdog: Option<WatchdogConfig>,
    /// Scheduling-jitter tolerance: a restore within `guard` past the
    /// deadline does not materialize a bit flip. Refresh sweeps routinely
    /// land a bank-occupancy delay (tens of ns) past the exact deadline;
    /// real cells do not decay on a cliff edge. Mirrors the fault
    /// campaign's guard interval.
    pub guard: Duration,
    /// When set, every corrected error is also appended to an exportable
    /// log the owner drains via
    /// [`drain_ce_rows`](crate::MemoryController::drain_ce_rows) — the
    /// feed a *shared* cross-channel retention watchdog audits instead of
    /// (or in addition to) this controller's own. Off by default: without
    /// a consumer the log would grow without bound.
    pub export_ces: bool,
}

impl EccConfig {
    /// ECC decode on demand reads only — no scrubber, no watchdog, and a
    /// 10 µs jitter guard.
    pub fn new(seed: u64) -> Self {
        EccConfig {
            seed,
            scrub: None,
            watchdog: None,
            guard: Duration::from_us(10),
            export_ces: false,
        }
    }

    /// Enables the patrol scrubber.
    pub fn with_scrub(mut self, cfg: ScrubConfig) -> Self {
        self.scrub = Some(cfg);
        self
    }

    /// Enables the retention watchdog.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Enables the corrected-error export log for a shared watchdog.
    pub fn with_ce_export(mut self) -> Self {
        self.export_ces = true;
        self
    }
}

/// The controller's live ECC state: error words, scrub clock, watchdog,
/// and the bookkeeping tying them to the fault subsystem.
#[derive(Debug, Clone)]
pub(crate) struct EccLayer {
    /// Per-row representative codewords and their flip masks.
    pub(crate) memory: EccMemory,
    /// Patrol slot clock, when scrubbing is enabled.
    pub(crate) scrubber: Option<PatrolScrubber>,
    /// CE-rate watchdog, when enabled.
    pub(crate) watchdog: Option<RetentionWatchdog>,
    /// How many retention-tracker late restores have already been
    /// materialized as bit flips.
    pub(crate) late_seen: usize,
    /// Rows already reported as uncorrectable (each UE row is counted and
    /// escalated once, however many times it is re-read).
    pub(crate) ue_rows: BTreeSet<u64>,
    /// Whether the fault injector's `BitFlip` specs have been applied.
    pub(crate) flips_seeded: bool,
    /// Jitter tolerance for late-restore flip materialization.
    pub(crate) guard: Duration,
    /// Flat rows with corrected errors since the last drain, kept only
    /// when the config enabled CE export ([`None`] = export disabled).
    pub(crate) ce_log: Option<Vec<u64>>,
}

impl EccLayer {
    pub(crate) fn new(cfg: &EccConfig) -> Self {
        EccLayer {
            memory: EccMemory::new(cfg.seed),
            scrubber: cfg.scrub.map(PatrolScrubber::new),
            watchdog: cfg.watchdog.map(RetentionWatchdog::new),
            late_seen: 0,
            ue_rows: BTreeSet::new(),
            flips_seeded: false,
            guard: cfg.guard,
            ce_log: cfg.export_ces.then(Vec::new),
        }
    }

    /// The patrol slot due by `t` and the deadline-order victim to scrub
    /// in it; `None` when scrubbing is off or no slot is due yet.
    pub(crate) fn due_scrub(
        &self,
        t: Instant,
        tracker: &RetentionTracker,
    ) -> Option<(Instant, Option<u64>)> {
        let s = self.scrubber.as_ref().filter(|s| s.next_slot() <= t)?;
        Some((s.next_slot(), s.pick_victim(tracker)))
    }

    /// Moves the patrol clock past a processed slot.
    pub(crate) fn finish_scrub_slot(&mut self, slot: Instant) {
        if let Some(s) = self.scrubber.as_mut() {
            s.advance_past(slot);
        }
    }

    /// Runs the watchdog audit due by `t`: its epoch and the rows it
    /// flagged for a forced scrub; `None` when the watchdog is off or no
    /// epoch is due yet.
    pub(crate) fn due_audit(&mut self, t: Instant) -> Option<(Instant, Vec<u64>)> {
        let w = self.watchdog.as_mut().filter(|w| w.next_epoch() <= t)?;
        let epoch = w.next_epoch();
        Some((epoch, w.audit(epoch)))
    }

    /// Whether the watchdog's violations persisted past its escalation
    /// limit.
    pub(crate) fn should_escalate(&self) -> bool {
        self.watchdog
            .as_ref()
            .is_some_and(RetentionWatchdog::should_escalate)
    }

    /// Wake from a CKE-low window the counters did not survive: the patrol
    /// slot and the watchdog audit, derived from pre-sleep bookkeeping,
    /// are pulled forward to `woke`.
    pub(crate) fn note_wake(&mut self, woke: Instant) {
        if let Some(s) = self.scrubber.as_mut() {
            s.tighten_deadline(woke);
        }
        if let Some(w) = self.watchdog.as_mut() {
            w.note_wake(woke);
        }
    }
}
