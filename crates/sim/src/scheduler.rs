//! System-level maintenance scheduling: scrub/refresh co-scheduling
//! across the channels of a [`MultiChannelSystem`].
//!
//! Each [`MemoryController`](smartrefresh_ctrl::MemoryController) can run
//! its own patrol scrubber and retention watchdog, but per-channel
//! schedulers are blind to each other: their scrub slots collide in time
//! (a simultaneous bandwidth hiccup on every channel), they interrupt open
//! pages the row-buffer policy was still serving, and each channel's
//! watchdog sees only its own corrected-error (CE) feed. The
//! [`MaintenanceScheduler`] lifts all three decisions to the system level:
//!
//! * **Staggering** — channel *i*'s patrol phase is offset by
//!   `interval × i / channels`, so at any instant at most one channel is
//!   occupied by a scrub;
//! * **Row-buffer awareness** — a scrub slot prefers a victim whose bank
//!   is precharged; an open page is only closed when the victim's scrub
//!   *coverage deadline* (`last_scrub + 2 × interval × rows` — one patrol
//!   lap of schedule plus one lap of headroom, without which a
//!   covering-rate walk would have no slack to defer into) is within the
//!   configured slack, so the page-close interference the device counts in
//!   [`OpStats::refreshes_closing_open_page`](smartrefresh_dram::OpStats)
//!   drops without giving up coverage;
//! * **One watchdog** — the channels export their CEs
//!   ([`EccConfig::with_ce_export`](smartrefresh_ctrl::EccConfig::with_ce_export))
//!   into a single shared [`RetentionWatchdog`] keyed by *global* row
//!   (`channel × rows_per_channel + flat`), so a cross-channel error storm
//!   is judged once, with system-wide context;
//! * **Adaptive rate** — the scrub interval walks between
//!   [`AdaptiveScrubConfig::min_interval`] and `max_interval` driven by the
//!   observed CE rate: halve on a storm epoch, double after enough
//!   consecutive clean epochs (a hysteresis dead band between the two
//!   thresholds prevents oscillation). An idle system scrubs at a fraction
//!   of the covering rate; a faulting one converges to it within a few
//!   epochs.
//!
//! The driver owns the clock: call
//! [`advance`](MaintenanceScheduler::advance) with the system and the
//! current time *before* issuing each batch of demand accesses, and the
//! scheduler replays every scrub slot and watchdog epoch due since the
//! last call, in chronological order.

use smartrefresh_core::{DegradeCause, RefreshPolicy};
use smartrefresh_ctrl::{PatrolScrubber, RetentionWatchdog, ScrubConfig, SimError, WatchdogConfig};
use smartrefresh_dram::deadline::DeadlineIndex;
use smartrefresh_dram::time::{Duration, Instant};

use crate::system::MultiChannelSystem;

/// CE-rate feedback law for the scrub interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveScrubConfig {
    /// Fastest allowed slot spacing (the storm floor). Usually the
    /// covering interval or a small fraction above it.
    pub min_interval: Duration,
    /// Slowest allowed slot spacing (the idle ceiling).
    pub max_interval: Duration,
    /// CEs per watchdog epoch at or above which the interval halves.
    pub storm_ces: u64,
    /// CEs per epoch at or below which an epoch counts as *clean*. Must be
    /// below [`storm_ces`](Self::storm_ces); the gap is the hysteresis
    /// dead band where the interval holds.
    pub clean_ces: u64,
    /// Consecutive clean epochs required before the interval doubles.
    pub clean_epochs_to_slow: u32,
}

/// Demand-aware slot skewing (the scheduling half of DARP): each channel's
/// next slot is shifted toward the quietest phase of its recent activation
/// histogram, so maintenance lands between demand bursts instead of on
/// top of them. Requires the channels to run a
/// [`BurstTracker`](smartrefresh_ctrl::BurstTracker); channels without one
/// keep their static stagger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewConfig {
    /// Histogram bins the slot interval is divided into.
    pub bins: u32,
    /// How far back in the activation history to look when judging the
    /// current burst phase.
    pub history: Duration,
}

/// Everything the [`MaintenanceScheduler`] needs to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Initial patrol schedule, applied per channel (staggered).
    pub scrub: ScrubConfig,
    /// Shared watchdog parameters (one instance audits every channel).
    pub watchdog: WatchdogConfig,
    /// CE-rate feedback; `None` pins the interval at `scrub.interval`.
    pub adaptive: Option<AdaptiveScrubConfig>,
    /// How close a victim's coverage deadline must be before a scrub is
    /// allowed to close an open page to reach it.
    pub slack: Duration,
    /// Demand-aware slot skewing; `None` keeps the static stagger offsets.
    pub skew: Option<SkewConfig>,
}

/// Counters the scheduler accumulates across
/// [`advance`](MaintenanceScheduler::advance) calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Patrol scrubs issued, per channel.
    pub scrubs: Vec<u64>,
    /// Out-of-order scrubs the shared watchdog forced.
    pub forced_scrubs: u64,
    /// Slots whose deadline-order victim sat behind an open page and was
    /// deferred in favour of a precharged-bank victim.
    pub deferred_scrubs: u64,
    /// Slots that closed an open page because the victim's coverage
    /// deadline was inside the slack — coverage beat the page. One of the
    /// two components of [`forced_closures`](SchedulerStats::forced_closures).
    pub forced_out_of_slack: u64,
    /// Slots that closed an open page because every bank held one, so
    /// there was no idle bank to defer to. The other component of
    /// [`forced_closures`](SchedulerStats::forced_closures).
    pub forced_no_idle_bank: u64,
    /// Slots that closed an open page anyway, for either reason. Always
    /// equals `forced_out_of_slack + forced_no_idle_bank`; kept as the sum
    /// so existing reports stay comparable.
    pub forced_closures: u64,
    /// Slots the demand-aware skew postponed toward a quieter phase of
    /// the channel's activation histogram.
    pub slot_skews: u64,
    /// Scrubs that landed after the victim's coverage deadline.
    pub missed_deadlines: u64,
    /// Adaptive interval doublings (system judged idle).
    pub interval_raises: u64,
    /// Adaptive interval halvings (CE storm).
    pub interval_drops: u64,
    /// Whether the shared watchdog escalated the channels to their
    /// degraded (conservative CBR) refresh mode.
    pub escalated: bool,
}

/// Cross-channel scrub/refresh co-scheduler: staggered per-channel patrol
/// clocks, one shared watchdog, and a CE-rate-adaptive scrub interval.
#[derive(Debug, Clone)]
pub struct MaintenanceScheduler {
    cfg: SchedulerConfig,
    scrubbers: Vec<PatrolScrubber>,
    watchdog: RetentionWatchdog,
    rows_per_channel: u64,
    /// Per channel, per flat row: when it was last scrubbed (`ZERO` =
    /// never; the initial deadline covers the first staggered lap).
    last_scrub: Vec<Vec<Instant>>,
    /// Per channel: a [`DeadlineIndex`] holding every row's coverage
    /// deadline. Victim selection reads the tree's root instead of
    /// scanning every row, and each scrub re-keys only its victim.
    deadlines: Vec<DeadlineIndex>,
    interval: Duration,
    /// `(when, new_interval)` for every adaptive change, starting with the
    /// initial interval at time zero.
    interval_history: Vec<(Instant, Duration)>,
    ces_this_epoch: u64,
    clean_streak: u32,
    stats: SchedulerStats,
    /// Nothing is due before this instant: [`next_due`] as the loop of
    /// [`advance`] last left it. Slots and epochs only move inside that
    /// loop, so the bound stays exact between calls.
    ///
    /// [`next_due`]: MaintenanceScheduler::next_due
    /// [`advance`]: MaintenanceScheduler::advance
    quiet_until: Instant,
}

impl MaintenanceScheduler {
    /// Builds a scheduler for `sys`, staggering channel `i`'s first slot
    /// by `interval × i / channels` and promising every row a first scrub
    /// within one coverage window of its channel's phase.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for a zero scrub interval or watchdog epoch,
    /// a zero slot interval implied by `adaptive.min_interval`, or an
    /// adaptive config whose `clean_ces` is not below `storm_ces` (no dead
    /// band).
    pub fn new<P: RefreshPolicy>(
        sys: &MultiChannelSystem<P>,
        cfg: SchedulerConfig,
    ) -> Result<Self, SimError> {
        if cfg.scrub.interval == Duration::ZERO {
            return Err(SimError::Config {
                what: "scrub interval must be non-zero",
            });
        }
        if cfg.watchdog.epoch == Duration::ZERO {
            return Err(SimError::Config {
                what: "watchdog epoch must be non-zero",
            });
        }
        if let Some(a) = cfg.adaptive {
            if a.min_interval == Duration::ZERO {
                return Err(SimError::Config {
                    what: "adaptive min_interval must be non-zero",
                });
            }
            if a.min_interval > a.max_interval {
                return Err(SimError::Config {
                    what: "adaptive min_interval must not exceed max_interval",
                });
            }
            if a.clean_ces >= a.storm_ces {
                return Err(SimError::Config {
                    what: "adaptive clean_ces must be below storm_ces (hysteresis dead band)",
                });
            }
        }
        if let Some(s) = cfg.skew {
            if s.bins == 0 {
                return Err(SimError::Config {
                    what: "skew bins must be non-zero",
                });
            }
            if s.history == Duration::ZERO {
                return Err(SimError::Config {
                    what: "skew history must be non-zero",
                });
            }
        }
        let channels = sys.channels();
        let rows = sys.rows_per_channel();
        let interval = cfg.scrub.interval;
        let window = interval * rows * 2;
        let mut scrubbers = Vec::with_capacity(channels);
        let mut deadlines = Vec::with_capacity(channels);
        for i in 0..channels {
            let phase = (interval * i as u64).div_by(channels as u64);
            let first = Instant::ZERO + interval + phase;
            scrubbers.push(PatrolScrubber::starting_at(cfg.scrub, first));
            // The first staggered lap finishes `window` after the phase
            // offset, so the initial promise includes it.
            deadlines.push(DeadlineIndex::build(std::iter::repeat_n(
                first + window,
                rows as usize,
            )));
        }
        let mut sched = MaintenanceScheduler {
            cfg,
            scrubbers,
            watchdog: RetentionWatchdog::new(cfg.watchdog),
            rows_per_channel: rows,
            last_scrub: vec![vec![Instant::ZERO; rows as usize]; channels],
            deadlines,
            interval,
            interval_history: vec![(Instant::ZERO, interval)],
            ces_this_epoch: 0,
            clean_streak: 0,
            stats: SchedulerStats {
                scrubs: vec![0; channels],
                forced_scrubs: 0,
                deferred_scrubs: 0,
                forced_out_of_slack: 0,
                forced_no_idle_bank: 0,
                forced_closures: 0,
                slot_skews: 0,
                missed_deadlines: 0,
                interval_raises: 0,
                interval_drops: 0,
                escalated: false,
            },
            quiet_until: Instant::ZERO,
        };
        sched.quiet_until = sched.next_due();
        Ok(sched)
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// The scrub interval currently in force.
    pub fn current_interval(&self) -> Duration {
        self.interval
    }

    /// Every adaptive interval change `(when, new_interval)`, starting
    /// with the initial interval at time zero.
    pub fn interval_history(&self) -> &[(Instant, Duration)] {
        &self.interval_history
    }

    /// The shared watchdog (violations are keyed by global row:
    /// `channel × rows_per_channel + flat`). The channels' exported CEs
    /// reach it at the next [`advance`](Self::advance) that has a slot or
    /// epoch due, before that slot or epoch runs, so between calls its
    /// buckets may not yet hold the latest CEs; its violations are always
    /// up to date.
    pub fn watchdog(&self) -> &RetentionWatchdog {
        &self.watchdog
    }

    /// Replays every scrub slot and watchdog epoch due up to `t`, in
    /// chronological order across channels. Call this before each batch of
    /// demand accesses so the epoch CE counts the adaptive law sees are
    /// exact.
    ///
    /// Before the earliest channel slot and the next epoch nothing is due:
    /// the call returns after one comparison with a cached bound and
    /// leaves the channels' exported CEs where they are. Otherwise they
    /// are drained into the shared watchdog first, and again after every
    /// slot, so each slot and each epoch sees every CE found before it.
    /// Recording a CE is an order-independent bucket increment, so
    /// draining late changes nothing an audit reads.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the channels' scrub issue paths.
    #[inline]
    pub fn advance<P: RefreshPolicy>(
        &mut self,
        sys: &mut MultiChannelSystem<P>,
        t: Instant,
    ) -> Result<(), SimError> {
        if t < self.quiet_until {
            debug_assert!(t < self.next_due(), "skipped advance({t:?}) had work due");
            return Ok(());
        }
        self.run_due(sys, t)
    }

    /// The body of [`advance`](Self::advance) once a slot or epoch is due
    /// by `t`; ends by caching the next nothing-due bound. Kept out of
    /// line so that `advance` stays small enough to inline into the
    /// per-access driver loops, most of whose calls return early.
    #[inline(never)]
    fn run_due<P: RefreshPolicy>(
        &mut self,
        sys: &mut MultiChannelSystem<P>,
        t: Instant,
    ) -> Result<(), SimError> {
        self.drain_ces(sys);
        loop {
            let next_scrub = self
                .scrubbers
                .iter()
                .enumerate()
                .map(|(i, s)| (s.next_slot(), i))
                .min()
                .ok_or(SimError::Internal {
                    what: "maintenance scheduler has no channels",
                })?;
            let epoch = self.watchdog.next_epoch();
            if next_scrub.0 > t && epoch > t {
                self.quiet_until = next_scrub.0.min(epoch);
                return Ok(());
            }
            if epoch <= next_scrub.0 {
                self.run_epoch(sys, epoch)?;
            } else {
                let (slot, channel) = next_scrub;
                self.run_slot(sys, channel, slot)?;
            }
        }
    }

    /// The earliest instant [`advance`](Self::advance) has work: the
    /// earlier of every channel's next patrol slot and the watchdog's next
    /// epoch.
    fn next_due(&self) -> Instant {
        self.scrubbers
            .iter()
            .map(PatrolScrubber::next_slot)
            .fold(self.watchdog.next_epoch(), Instant::min)
    }

    /// Moves every channel's exported CEs into the shared watchdog under
    /// their global row keys.
    pub(crate) fn drain_ces<P: RefreshPolicy>(&mut self, sys: &mut MultiChannelSystem<P>) {
        for i in 0..sys.channels() {
            for flat in sys.channel_mut(i).drain_ce_rows() {
                self.watchdog
                    .record_ce(i as u64 * self.rows_per_channel + flat);
                self.ces_this_epoch += 1;
            }
        }
    }

    /// One patrol slot on `channel`: pick the victim, scrub it, reschedule.
    fn run_slot<P: RefreshPolicy>(
        &mut self,
        sys: &mut MultiChannelSystem<P>,
        channel: usize,
        slot: Instant,
    ) -> Result<(), SimError> {
        let Some(victim) = self.pick_victim(sys, channel, slot) else {
            // A channel with no rows has nothing to patrol; burn the slot
            // so the schedule still advances.
            self.scrubbers[channel].advance_past(slot);
            return Ok(());
        };
        let ctrl = sys.channel_mut(channel);
        ctrl.issue_scrub(victim, slot)?;
        self.stats.scrubs[channel] += 1;
        if slot > self.deadlines[channel].get(victim) {
            self.stats.missed_deadlines += 1;
        }
        self.last_scrub[channel][victim as usize] = slot;
        let window = self.window();
        self.deadlines[channel].set(victim, slot + window);
        self.scrubbers[channel].advance_past(slot);
        if let Some(skew) = self.cfg.skew {
            self.apply_skew(sys, channel, skew);
        }
        self.drain_ces(sys);
        Ok(())
    }

    /// Demand-aware slot skewing: moves the channel's *next* slot toward
    /// the quietest phase of its recent activation histogram (judged
    /// modulo the slot interval), postponing by strictly less than one
    /// interval so the slot never skips a period and coverage promises
    /// hold. No-op when the channel runs no burst tracker or its histogram
    /// is flat (no bursts observed — the static stagger is already fine).
    fn apply_skew<P: RefreshPolicy>(
        &mut self,
        sys: &MultiChannelSystem<P>,
        channel: usize,
        skew: SkewConfig,
    ) {
        let Some(tracker) = sys.channel(channel).burst_tracker() else {
            return;
        };
        let interval = self.interval;
        let next = self.scrubbers[channel].next_slot();
        let since = Instant::from_ps(next.as_ps().saturating_sub(skew.history.as_ps()));
        let Some(quiet) = tracker.quietest_phase(interval, skew.bins, since) else {
            return;
        };
        let phase = Duration::from_ps(next.as_ps() % interval.as_ps());
        let delta = if quiet >= phase {
            quiet - phase
        } else {
            quiet + interval - phase
        };
        if delta > Duration::ZERO {
            self.scrubbers[channel].postpone_to(next + delta);
            self.stats.slot_skews += 1;
        }
    }

    /// Deadline-order victim selection with row-buffer awareness: the row
    /// with the earliest coverage deadline wins outright if its bank is
    /// precharged or its deadline is within the slack; otherwise the
    /// earliest-deadline row on a *precharged* bank is scrubbed instead
    /// and the blocked row waits for a later slot.
    ///
    /// Both selections come from the channel's [`DeadlineIndex`]: the
    /// outright winner is the tree's root, and the precharged-bank
    /// preference reads the device's open-bank bitset once and takes the
    /// smallest range minimum ([`DeadlineIndex::min_in`]) over the
    /// precharged banks — a bank's rows are one contiguous flat range —
    /// rather than re-scanning or probing rows one by one. The winners
    /// are bit-identical to linear `min_by_key(|r| (deadline, r))` scans —
    /// the tree's contract, enforced by its oracle test.
    fn pick_victim<P: RefreshPolicy>(
        &mut self,
        sys: &MultiChannelSystem<P>,
        channel: usize,
        slot: Instant,
    ) -> Option<u64> {
        let index = &self.deadlines[channel];
        let (best_deadline, best) = index.min()?;
        let ctrl = sys.channel(channel);
        if !ctrl.scrub_would_close_page(best) {
            return Some(best);
        }
        if best_deadline <= slot + self.cfg.slack {
            // Out of slack: coverage beats the open page.
            self.stats.forced_out_of_slack += 1;
            self.stats.forced_closures += 1;
            return Some(best);
        }
        let device = ctrl.device();
        let (open, rows) = (device.open_banks(), u64::from(device.geometry().rows()));
        let precharged = (0..u64::from(device.geometry().total_banks())).filter(|&b| {
            let closed = (open[(b / 64) as usize] >> (b % 64)) & 1 == 0;
            // The bitset is exactly the bank state the page test reads.
            debug_assert_eq!(closed, !ctrl.scrub_would_close_page(b * rows));
            closed
        });
        match precharged
            .filter_map(|b| index.min_in(b * rows, (b + 1) * rows))
            .min()
        {
            Some((_, r)) => {
                self.stats.deferred_scrubs += 1;
                Some(r)
            }
            None => {
                // Every bank holds an open page; interference is unavoidable.
                self.stats.forced_no_idle_bank += 1;
                self.stats.forced_closures += 1;
                Some(best)
            }
        }
    }

    /// One shared-watchdog epoch: audit the buckets, force-scrub flagged
    /// rows on their owning channels, escalate if violations persisted,
    /// and run the adaptive interval law on the epoch's CE count.
    fn run_epoch<P: RefreshPolicy>(
        &mut self,
        sys: &mut MultiChannelSystem<P>,
        epoch: Instant,
    ) -> Result<(), SimError> {
        self.drain_ces(sys);
        let flagged = self.watchdog.audit(epoch);
        for global in flagged {
            let channel = (global / self.rows_per_channel) as usize;
            let flat = global % self.rows_per_channel;
            sys.channel_mut(channel).issue_forced_scrub(flat, epoch)?;
            self.stats.forced_scrubs += 1;
            self.last_scrub[channel][flat as usize] = epoch;
            let window = self.window();
            self.deadlines[channel].set(flat, epoch + window);
        }
        if self.watchdog.should_escalate() && !self.stats.escalated {
            for i in 0..sys.channels() {
                sys.channel_mut(i)
                    .degrade_policy(DegradeCause::RetentionWatchdog, epoch);
            }
            self.stats.escalated = true;
        }
        let ces = std::mem::take(&mut self.ces_this_epoch);
        self.adapt(ces, epoch)
    }

    /// The CE-rate feedback law: halve the interval on a storm epoch,
    /// double it after enough consecutive clean epochs, hold in the dead
    /// band between the thresholds.
    fn adapt(&mut self, epoch_ces: u64, now: Instant) -> Result<(), SimError> {
        let Some(a) = self.cfg.adaptive else {
            return Ok(());
        };
        if epoch_ces >= a.storm_ces {
            self.clean_streak = 0;
            let next = self.interval.div_by(2).max(a.min_interval);
            if next != self.interval {
                self.set_interval(next, now)?;
                self.stats.interval_drops += 1;
                // A drop only tightens future promises; rows keep the
                // deadlines already made, so nothing is spuriously missed.
            }
        } else if epoch_ces <= a.clean_ces {
            self.clean_streak += 1;
            if self.clean_streak >= a.clean_epochs_to_slow {
                self.clean_streak = 0;
                let next = (self.interval * 2).min(a.max_interval);
                if next != self.interval {
                    self.set_interval(next, now)?;
                    self.stats.interval_raises += 1;
                    // A raise stretches the coverage window, so every
                    // outstanding promise is re-made under the new one —
                    // otherwise the slower walk would miss deadlines it
                    // was never going to be held to. Extend-only
                    // (`max(held, last_scrub + window)`): a row the walk
                    // has not reached yet keeps its original (later)
                    // promise rather than having one invented in its past
                    // from `last_scrub = 0`.
                    let window = self.window();
                    for (index, last) in self.deadlines.iter_mut().zip(&self.last_scrub) {
                        let renewed = last
                            .iter()
                            .enumerate()
                            .map(|(r, &scrubbed)| index.get(r as u64).max(scrubbed + window));
                        *index = DeadlineIndex::build(renewed);
                    }
                }
            }
        } else {
            // Dead band: neither clean nor storming. Hold.
            self.clean_streak = 0;
        }
        Ok(())
    }

    fn set_interval(&mut self, next: Duration, now: Instant) -> Result<(), SimError> {
        self.interval = next;
        self.interval_history.push((now, next));
        for s in &mut self.scrubbers {
            // The adaptive bounds exclude a zero interval, so this only
            // fails on a misconfigured law — surfaced, not panicked.
            s.set_interval(next)?;
        }
        Ok(())
    }

    /// The coverage window under the current interval: two full patrol
    /// laps of a channel. One lap is the schedule itself; the second is
    /// the headroom deferrals spend — at exactly one lap, a covering-rate
    /// walk would have zero slack and every deferral would turn into a
    /// missed deadline.
    fn window(&self) -> Duration {
        self.interval * self.rows_per_channel * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PolicyKind;
    use smartrefresh_ctrl::EccConfig;
    use smartrefresh_dram::{Geometry, ModuleConfig, TimingParams};

    fn mini() -> ModuleConfig {
        ModuleConfig {
            name: "mini",
            geometry: Geometry::new(1, 2, 32, 16, 64),
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        }
    }

    fn system(channels: u32) -> MultiChannelSystem {
        MultiChannelSystem::new(mini(), channels, 4096, || PolicyKind::CbrDistributed)
            .unwrap()
            .with_ecc(|i| EccConfig::new(0x5EED ^ i as u64).with_ce_export())
    }

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            // 64 rows/channel, 8 ms retention: covering interval 125 µs.
            scrub: ScrubConfig::covering(Duration::from_ms(8), 64),
            watchdog: WatchdogConfig::for_retention(Duration::from_ms(8)),
            adaptive: None,
            slack: Duration::from_us(500),
            skew: None,
        }
    }

    #[test]
    fn slots_are_staggered_across_channels() {
        let sys = system(4);
        let sched = MaintenanceScheduler::new(&sys, cfg()).unwrap();
        let interval = cfg().scrub.interval;
        let slots: Vec<Instant> = sched.scrubbers.iter().map(|s| s.next_slot()).collect();
        for (i, &s) in slots.iter().enumerate() {
            let phase = (interval * i as u64).div_by(4);
            assert_eq!(s, Instant::ZERO + interval + phase);
        }
        // All four phases are distinct: no two channels scrub together.
        let mut sorted = slots.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn a_lap_covers_every_row_with_no_misses() {
        let mut sys = system(2);
        let mut sched = MaintenanceScheduler::new(&sys, cfg()).unwrap();
        let lap = cfg().scrub.interval * 64 + Duration::from_ms(1);
        sched.advance(&mut sys, Instant::ZERO + lap).unwrap();
        for channel in 0..2 {
            assert!(
                sched.stats.scrubs[channel] >= 64,
                "channel {channel} scrubbed {} rows",
                sched.stats.scrubs[channel]
            );
            for r in 0..64 {
                assert!(
                    sched.last_scrub[channel][r] > Instant::ZERO,
                    "channel {channel} row {r} unscrubbed after a lap"
                );
            }
        }
        assert_eq!(sched.stats.missed_deadlines, 0);
    }

    #[test]
    fn open_pages_defer_scrubs_until_slack_forces_them() {
        let mut sys = system(1).with_page_close_timeout(None);
        let mut sched = MaintenanceScheduler::new(&sys, cfg()).unwrap();
        // Open a page on bank 0; flat rows 0..32 now sit behind it.
        sys.access(0, false, Instant::ZERO).unwrap();
        let slot = sched.scrubbers[0].next_slot();
        // Ample slack everywhere: the deadline-order victim (row 0, bank
        // 0) is blocked, so the slot defers to the earliest-deadline row
        // on precharged bank 1.
        let victim = sched.pick_victim(&sys, 0, slot);
        assert_eq!(victim, Some(32), "expected the first bank-1 row");
        assert_eq!(sched.stats.deferred_scrubs, 1);
        assert_eq!(sched.stats.forced_closures, 0);
        // Pull row 0's deadline inside the slack: coverage now beats the
        // open page and the scrub is forced through it.
        sched.deadlines[0].set(0, slot + Duration::from_us(100));
        let victim = sched.pick_victim(&sys, 0, slot);
        assert_eq!(
            victim,
            Some(0),
            "a deadline inside the slack forces the row"
        );
        assert_eq!(sched.stats.forced_out_of_slack, 1);
        assert_eq!(sched.stats.forced_no_idle_bank, 0);
        assert_eq!(sched.stats.forced_closures, 1);
    }

    #[test]
    fn every_bank_open_is_counted_as_no_idle_bank() {
        let mut sys = system(1).with_page_close_timeout(None);
        let mut sched = MaintenanceScheduler::new(&sys, cfg()).unwrap();
        // Open a page on both banks: nowhere left to defer to. The mini
        // module's address layout is column-then-bank, 16 x 8-byte columns,
        // so bank 1's row 0 sits at byte 128.
        sys.access(0, false, Instant::ZERO).unwrap();
        sys.access(128, false, Instant::ZERO + Duration::from_us(1))
            .unwrap();
        let slot = sched.scrubbers[0].next_slot();
        let victim = sched.pick_victim(&sys, 0, slot);
        assert_eq!(victim, Some(0), "deadline-order victim wins by default");
        assert_eq!(sched.stats.forced_no_idle_bank, 1);
        assert_eq!(sched.stats.forced_out_of_slack, 0);
        assert_eq!(
            sched.stats.forced_closures,
            sched.stats.forced_out_of_slack + sched.stats.forced_no_idle_bank,
            "the sum invariant must hold"
        );
    }

    #[test]
    fn skew_moves_the_next_slot_into_the_quiet_phase() {
        let mut sys = system(1).with_burst_tracking(64);
        let mut c = cfg();
        c.skew = Some(SkewConfig {
            bins: 5,
            history: Duration::from_ms(1),
        });
        let mut sched = MaintenanceScheduler::new(&sys, c).unwrap();
        // Cluster activations at phase ~5 µs of the 125 µs slot interval:
        // distinct bank-0 rows so every access issues an ACT. The mini
        // module's bank-0 row stride is row_bytes x banks = 256 bytes.
        for (k, row) in [(0u64, 0u64), (1, 1), (2, 2)] {
            let t = Instant::ZERO + Duration::from_us(125) * k + Duration::from_us(5);
            sys.access(row * 256, false, t).unwrap();
        }
        // The first slot (125 µs) runs, then the skew postpones the next
        // one from 250 µs to the quietest bin's center: bins of 25 µs, the
        // burst fills bin 0, ties break earliest, so bin 1 wins and the
        // slot moves to 250 + 37.5 µs.
        sched
            .advance(&mut sys, Instant::ZERO + Duration::from_us(260))
            .unwrap();
        assert_eq!(sched.stats.scrubs[0], 1);
        assert_eq!(sched.stats.slot_skews, 1);
        assert_eq!(
            sched.scrubbers[0].next_slot(),
            Instant::ZERO + Duration::from_ps(287_500_000),
        );
        // The postponed slot still runs (strictly less than one interval
        // late), so coverage promises hold.
        sched
            .advance(&mut sys, Instant::ZERO + Duration::from_us(300))
            .unwrap();
        assert_eq!(sched.stats.scrubs[0], 2);
        assert_eq!(sched.stats.missed_deadlines, 0);
    }

    /// The cached nothing-due bound follows the slots wherever they
    /// move: a skew postpones the next slot, an adaptive raise stretches
    /// the one after, and each time the bound is the recomputed one.
    #[test]
    fn a_skew_and_an_interval_change_move_the_cached_bound() {
        let mut sys = system(1).with_burst_tracking(64);
        let mut c = cfg();
        c.skew = Some(SkewConfig {
            bins: 5,
            history: Duration::from_ms(1),
        });
        let mut sched = MaintenanceScheduler::new(&sys, c).unwrap();
        assert_eq!(sched.quiet_until, Instant::ZERO + c.scrub.interval);
        for (k, row) in [(0u64, 0u64), (1, 1), (2, 2)] {
            let t = Instant::ZERO + Duration::from_us(125) * k + Duration::from_us(5);
            sys.access(row * 256, false, t).unwrap();
        }
        // As in the skew test: the slot after 125 µs moves from 250 µs to
        // 287.5 µs, and the bound with it.
        sched
            .advance(&mut sys, Instant::ZERO + Duration::from_us(260))
            .unwrap();
        assert_eq!(sched.stats.slot_skews, 1);
        assert_eq!(
            sched.quiet_until,
            Instant::ZERO + Duration::from_ps(287_500_000)
        );
        assert_eq!(sched.quiet_until, sched.next_due());

        let mut sys = system(1);
        let base = cfg().scrub.interval;
        let mut c = cfg();
        c.adaptive = Some(AdaptiveScrubConfig {
            min_interval: base,
            max_interval: base * 4,
            storm_ces: 4,
            clean_ces: 1,
            clean_epochs_to_slow: 1,
        });
        let mut sched = MaintenanceScheduler::new(&sys, c).unwrap();
        // A clean epoch doubles the interval; the slot already booked
        // keeps its place, so the bound is that slot ...
        let epoch = sched.watchdog.next_epoch();
        sched.advance(&mut sys, epoch).unwrap();
        assert_eq!(sched.stats.interval_raises, 1);
        let booked = sched.scrubbers[0].next_slot();
        assert_eq!(sched.quiet_until, booked);
        assert_eq!(sched.quiet_until, sched.next_due());
        // ... and once it runs, the next one is a doubled interval later.
        sched.advance(&mut sys, booked).unwrap();
        assert_eq!(sched.quiet_until, booked + base * 2);
        assert_eq!(sched.quiet_until, sched.next_due());
    }

    #[test]
    fn shared_watchdog_forces_scrubs_under_global_keys() {
        let mut sys = system(2);
        let mut sched = MaintenanceScheduler::new(&sys, cfg()).unwrap();
        // Fake a CE storm on channel 1's row 5 (global = 64 + 5).
        for _ in 0..3 {
            sched.watchdog.record_ce(64 + 5);
        }
        let epoch = sched.watchdog.next_epoch();
        sched.advance(&mut sys, epoch).unwrap();
        assert_eq!(sched.stats.forced_scrubs, 1);
        assert_eq!(sched.watchdog.violations()[0].flat_index, 64 + 5);
        assert!(sched.last_scrub[1][5] >= epoch);
        assert_eq!(sys.channel(1).stats().forced_scrubs, 1);
        assert_eq!(sys.channel(0).stats().forced_scrubs, 0);
    }

    #[test]
    fn adaptive_interval_walks_both_ways_with_hysteresis() {
        let mut sys = system(1);
        let base = cfg().scrub.interval;
        let mut c = cfg();
        c.adaptive = Some(AdaptiveScrubConfig {
            min_interval: base,
            max_interval: base * 16,
            storm_ces: 4,
            clean_ces: 1,
            clean_epochs_to_slow: 2,
        });
        let mut sched = MaintenanceScheduler::new(&sys, c).unwrap();
        // Two clean epochs raise; the next single clean epoch does not
        // (the streak restarts after each raise).
        for _ in 0..2 {
            let e = sched.watchdog.next_epoch();
            sched.advance(&mut sys, e).unwrap();
        }
        assert_eq!(sched.current_interval(), base * 2);
        assert_eq!(sched.stats.interval_raises, 1);
        // A storm epoch halves immediately and resets the streak.
        for _ in 0..4 {
            sched.watchdog.record_ce(0);
            sched.ces_this_epoch += 1;
        }
        let e = sched.watchdog.next_epoch();
        sched.advance(&mut sys, e).unwrap();
        assert_eq!(sched.current_interval(), base);
        assert_eq!(sched.stats.interval_drops, 1);
        // A dead-band epoch (between clean and storm) holds the interval.
        sched.ces_this_epoch = 2;
        sched.clean_streak = 1;
        let e = sched.watchdog.next_epoch();
        sched.advance(&mut sys, e).unwrap();
        assert_eq!(sched.current_interval(), base);
        assert_eq!(sched.clean_streak, 0, "dead band resets the streak");
        // No spurious deadline misses from any of the changes.
        assert_eq!(sched.stats.missed_deadlines, 0);
    }

    #[test]
    fn an_interval_raise_re_promises_extend_only() {
        let mut sys = system(1);
        let base = cfg().scrub.interval;
        let mut c = cfg();
        c.scrub.interval = base * 4;
        c.adaptive = Some(AdaptiveScrubConfig {
            min_interval: base,
            max_interval: base * 4,
            storm_ces: 4,
            clean_ces: 1,
            clean_epochs_to_slow: 1,
        });
        let mut sched = MaintenanceScheduler::new(&sys, c).unwrap();
        // A storm epoch halves the interval and shrinks the window without
        // touching the promises already made ...
        sched.ces_this_epoch = 4;
        let e = sched.watchdog.next_epoch();
        sched.advance(&mut sys, e).unwrap();
        assert_eq!(sched.current_interval(), base * 2);
        // ... then the next clean epoch raises it back.
        let e = sched.watchdog.next_epoch();
        sched.advance(&mut sys, e - Duration::from_ps(1)).unwrap();
        let held: Vec<Instant> = (0..64).map(|r| sched.deadlines[0].get(r)).collect();
        sched.run_epoch(&mut sys, e).unwrap();
        assert_eq!(sched.current_interval(), base * 4);
        let window = sched.window();
        let (mut kept, mut extended) = (0, 0);
        for (r, &before) in held.iter().enumerate() {
            let scrubbed = sched.last_scrub[0][r];
            let now = sched.deadlines[0].get(r as u64);
            assert_eq!(now, before.max(scrubbed + window), "row {r}");
            if scrubbed == Instant::ZERO {
                // Not reached yet: the initial promise is the later one.
                assert_eq!(now, before, "row {r}");
                kept += 1;
            } else if now > before {
                extended += 1;
            }
        }
        assert!(kept > 0 && extended > 0, "kept {kept}, extended {extended}");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let sys = system(1);
        let mut c = cfg();
        c.scrub.interval = Duration::ZERO;
        assert!(matches!(
            MaintenanceScheduler::new(&sys, c),
            Err(SimError::Config { .. })
        ));
        let mut c = cfg();
        c.watchdog.epoch = Duration::ZERO;
        assert!(matches!(
            MaintenanceScheduler::new(&sys, c),
            Err(SimError::Config { .. })
        ));
        let mut c = cfg();
        c.adaptive = Some(AdaptiveScrubConfig {
            min_interval: Duration::from_us(10),
            max_interval: Duration::from_us(100),
            storm_ces: 4,
            clean_ces: 4, // no dead band
            clean_epochs_to_slow: 1,
        });
        assert!(matches!(
            MaintenanceScheduler::new(&sys, c),
            Err(SimError::Config { .. })
        ));
    }
}
