//! The memory controller.
//!
//! [`MemoryController`] owns the DRAM device and a refresh policy and
//! arbitrates between demand accesses and refresh work:
//!
//! * **Open-page scheduling** (Table 1's row-buffer policy): rows stay open
//!   after an access; a conflicting access precharges and re-activates.
//! * **Refresh dispatch**: at every policy wakeup the pending refresh queue
//!   is drained, each refresh issued at the earliest instant its bank is
//!   free. This satisfies the §5 drain-before-next-tick contract that bounds
//!   the queue.
//! * **Interaction accounting**: demand accesses delayed behind refresh-busy
//!   banks show up in the latency statistics — the effect Fig 18 measures.
//!
//! Policy notifications follow §4.1: the row's counter is reset when the row
//! is *opened* and again when the page is *closed* (whether by a demand
//! conflict or by a refresh that had to close an open page first).

use smartrefresh_core::{
    CounterPowerConfig, CounterPowerPolicy, DegradeCause, RefreshAction, RefreshPolicy,
};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{DramDevice, OpOutcome, RowAddr};
use smartrefresh_ecc::Decode;
use smartrefresh_faults::{FaultInjector, Perturbation};

use crate::darp::{BurstTracker, DarpConfig, DarpEngine};
use crate::ecc::{EccConfig, EccLayer};
use crate::error::SimError;
use crate::rfm::{RfmConfig, RfmEngine};
use crate::stats::{ControllerStats, RowBufferOutcome};
use crate::transaction::MemTransaction;
use crate::watchdog::RetentionWatchdog;

/// Power-down bookkeeping: DDR2 modules drop CKE between commands and burn
/// a fraction of standby power. Idle gaps longer than `min_gap` are credited
/// as power-down residency, net of the entry/exit overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerDownConfig {
    /// Shortest idle gap worth entering power-down for.
    pub min_gap: Duration,
    /// Entry plus exit overhead subtracted from each credited gap
    /// (tCKE + tXP at DDR2-667 scales).
    pub overhead: Duration,
}

impl Default for PowerDownConfig {
    fn default() -> Self {
        PowerDownConfig {
            min_gap: Duration::from_ns(100),
            overhead: Duration::from_ns(16),
        }
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Keep rows open after an access (Table 1's policy); idle pages close
    /// after the controller's timeout.
    Open,
    /// Precharge immediately after every column access (auto-precharge).
    /// Every access pays the full activate latency, but banks return to the
    /// precharged state where refreshes are cheapest.
    Closed,
}

/// Result of one completed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// When the data movement finished (read data returned / write retired).
    pub completed_at: Instant,
    /// Row-buffer outcome.
    pub outcome: RowBufferOutcome,
}

/// Memory controller binding a [`DramDevice`] to a [`RefreshPolicy`].
///
/// # Examples
///
/// ```
/// use smartrefresh_core::CbrDistributed;
/// use smartrefresh_ctrl::{MemTransaction, MemoryController};
/// use smartrefresh_dram::{DramDevice, Geometry, TimingParams};
/// use smartrefresh_dram::time::{Duration, Instant};
///
/// let g = Geometry::new(1, 2, 64, 16, 64);
/// let t = TimingParams::ddr2_667();
/// let policy = CbrDistributed::new(g, t.retention);
/// let mut mc = MemoryController::new(DramDevice::new(g, t), policy);
///
/// let r = mc.access(MemTransaction::read(0, Instant::ZERO))?;
/// assert!(r.completed_at > Instant::ZERO);
/// # Ok::<(), smartrefresh_ctrl::SimError>(())
/// ```
#[derive(Debug)]
pub struct MemoryController<P: RefreshPolicy> {
    device: DramDevice,
    policy: P,
    stats: ControllerStats,
    /// Latest simulation time observed (monotonicity guard).
    now: Instant,
    /// Idle open pages are closed this long after their last use, bounding
    /// active-standby background energy (DRAMsim's open-page controllers do
    /// the same). `None` leaves pages open until a conflict or refresh.
    page_close_timeout: Option<Duration>,
    /// Open-page vs closed-page row-buffer management.
    page_policy: PagePolicy,
    /// Power-down residency accounting; `None` disables it.
    powerdown: Option<PowerDownConfig>,
    /// What happens to the policy's counter SRAM during CKE-low windows.
    counter_power: CounterPowerConfig,
    /// When the policy's counter state was last wholly rewritten: power-up,
    /// or the wake-time wipe of the latest power-down window under
    /// `ConservativeReset`. Reported to the sanitizer's counter-survival
    /// rule at every counter consumption.
    counters_valid_from: Instant,
    /// End of the most recent device command, for idle-gap accounting.
    last_cmd_end: Instant,
    /// Per-bank time of last demand use, for the idle-close policy.
    last_use: Vec<Instant>,
    /// Lower bound on the next instant any open page can become
    /// idle-closable. [`close_idle_pages`](Self::close_idle_pages) is called
    /// on every access and every policy wakeup; this bound turns the common
    /// nothing-is-due case into one comparison instead of an all-banks scan.
    /// Only demand accesses leave rows open (refreshes and scrubs end
    /// precharged), so the bound is refreshed on the access path and
    /// recomputed exactly whenever a scan actually runs.
    next_idle_close: Instant,
    /// Optional fault injector consulted on the refresh-dispatch path.
    faults: Option<FaultInjector>,
    /// Optional ECC path: SECDED decode on reads, patrol scrub, watchdog.
    ecc: Option<EccLayer>,
    /// Optional DDR5-style Refresh Management engine (RAA counters, RFM
    /// commands, RAAMMT back-pressure, disturbance-storm escalation).
    rfm: Option<RfmEngine>,
    /// Optional DARP dispatch: due refreshes to hot banks defer while idle
    /// banks take theirs out of order, bounded under the sanitizer's
    /// per-bank deferral rule.
    darp: Option<DarpEngine>,
    /// Optional demand-burst tracker: recent activation times, read by a
    /// system-level scheduler to skew maintenance slots away from bursts.
    burst: Option<BurstTracker>,
}

impl<P: RefreshPolicy> MemoryController<P> {
    /// Creates a controller over a device and a refresh policy, with the
    /// default 1 µs idle page-close timeout.
    pub fn new(device: DramDevice, policy: P) -> Self {
        let banks = device.geometry().total_banks() as usize;
        MemoryController {
            device,
            policy,
            stats: ControllerStats::new(),
            now: Instant::ZERO,
            page_close_timeout: Some(Duration::from_us(1)),
            page_policy: PagePolicy::Open,
            powerdown: Some(PowerDownConfig::default()),
            counter_power: CounterPowerConfig::default(),
            counters_valid_from: Instant::ZERO,
            last_cmd_end: Instant::ZERO,
            last_use: vec![Instant::ZERO; banks],
            next_idle_close: Instant::ZERO,
            faults: None,
            ecc: None,
            rfm: None,
            darp: None,
            burst: None,
        }
    }

    /// Overrides power-down accounting (`None` disables it).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the entry/exit overhead is not strictly
    /// smaller than the minimum gap: such a config would credit a window
    /// at zero (or, before the saturating fix, underflow the credit), so
    /// it is rejected up front rather than silently mis-billed.
    pub fn with_powerdown(mut self, cfg: Option<PowerDownConfig>) -> Result<Self, SimError> {
        if let Some(pd) = cfg {
            if pd.overhead >= pd.min_gap {
                return Err(SimError::Config {
                    what: "power-down overhead must be smaller than the minimum idle gap",
                });
            }
        }
        self.powerdown = cfg;
        Ok(self)
    }

    /// Sets the counter power-state policy for CKE-low windows (default:
    /// persistent counters at zero retention cost — the paper's
    /// free-counter assumption).
    ///
    /// Under [`CounterPowerPolicy::ConservativeReset`] the counter SRAM is
    /// declared volatile to the protocol sanitizer (if enabled in either
    /// builder order), arming its counter-survival rule.
    pub fn with_counter_power(mut self, cfg: CounterPowerConfig) -> Self {
        self.counter_power = cfg;
        if cfg.policy == CounterPowerPolicy::ConservativeReset {
            self.device.declare_volatile_counters();
        }
        self
    }

    /// Installs a fault injector. Static faults — weak-cell deadline
    /// tightening and thermal retention derating — are applied to the
    /// device's retention tracker immediately, so the always-on invariant
    /// checks see the perturbed deadlines while the refresh policy
    /// deliberately does not. Dispatch-path faults (drop / delay / stall)
    /// are consulted at every refresh dispatch; any perturbation asks the
    /// policy to degrade to its safe fallback mode.
    pub fn with_fault_injector(mut self, mut injector: FaultInjector) -> Self {
        let geometry = *self.device.geometry();
        let now = self.now;
        injector.apply_static_faults(self.device.retention_mut(), &geometry, now);
        self.faults = Some(injector);
        self.seed_injected_flips();
        self
    }

    /// Installs the ECC path: SECDED decode/correct on every demand read,
    /// plus (per the config) a deadline-order patrol scrubber and a CE-rate
    /// retention watchdog. Any [`FaultKind::BitFlip`] specs in an installed
    /// fault injector are materialized into the error state immediately
    /// (latent faults exist from power-up), regardless of builder order.
    ///
    /// [`FaultKind::BitFlip`]: smartrefresh_faults::FaultKind::BitFlip
    pub fn with_ecc(mut self, cfg: EccConfig) -> Self {
        self.ecc = Some(EccLayer::new(&cfg));
        self.seed_injected_flips();
        self
    }

    /// Installs DDR5-style Refresh Management: per-bank RAA counters with
    /// RAAIMT/RAAMMT thresholds, elective RFM commands that refresh the
    /// hottest rows' physical neighbors (their Smart Refresh time-out
    /// counters reset via the scrub hook), RAAMMT back-pressure on further
    /// ACTs, and escalation through elevated-rate refresh into a
    /// [`DegradeCause::DisturbanceStorm`] policy degradation when the
    /// per-window RFM budget is starved. When the protocol sanitizer is
    /// enabled (in either builder order) the thresholds arm its
    /// `rfm-budget` and `disturbance-window` rules.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the configuration fails
    /// [`RfmConfig::validate`].
    pub fn with_rfm(mut self, cfg: RfmConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let banks = self.device.geometry().total_banks();
        self.device.declare_rfm(cfg.raaimt, cfg.raammt);
        self.device.declare_disturbance_ceiling(cfg.act_ceiling);
        self.rfm = Some(RfmEngine::new(cfg, banks));
        Ok(self)
    }

    /// Enables DARP refresh dispatch (Chang et al., "Improving DRAM
    /// Performance by Parallelizing Refreshes with Accesses"): a due
    /// refresh whose bank holds an open page used within
    /// `cfg.hot_window` is deferred while refreshes to idle banks issue
    /// out of order ahead of it; at `cfg.max_deferral` the refresh is
    /// forced through the open page.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when `cfg.max_deferral` reaches the protocol
    /// sanitizer's `8 × tREFI` per-bank deferral bound (tREFI =
    /// `retention / rows`): such a config trades the latency win for
    /// sanitizer violations, so it is rejected up front.
    pub fn with_darp(mut self, cfg: DarpConfig) -> Result<Self, SimError> {
        let trefi = self
            .device
            .timing()
            .retention
            .div_by(u64::from(self.device.geometry().rows()));
        if cfg.max_deferral >= trefi * 8 {
            return Err(SimError::Config {
                what: "DARP max_deferral must stay under the 8 x tREFI sanitizer bound",
            });
        }
        self.darp = Some(DarpEngine::new(cfg));
        Ok(self)
    }

    /// Enables SARP subarray parallelism on the device: refreshes whose
    /// target row lies in a different subarray than the bank's open page
    /// overlap the access instead of closing it, and the controller's
    /// access path serialises demand activations behind any in-flight
    /// refresh of the *same* subarray.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the per-bank row count
    /// (see [`DramDevice::enable_subarrays`]).
    pub fn with_subarrays(mut self, subarrays: u32) -> Self {
        self.device.enable_subarrays(subarrays);
        self
    }

    /// Enables demand-burst tracking: the issue time of every row
    /// activation is recorded in a bounded ring of `samples` entries,
    /// readable via [`MemoryController::burst_tracker`] — the feed a
    /// system-level maintenance scheduler uses to skew scrub slots away
    /// from demand bursts.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero (see [`BurstTracker::new`]).
    pub fn with_burst_tracking(mut self, samples: usize) -> Self {
        self.burst = Some(BurstTracker::new(samples));
        self
    }

    /// The DARP engine, when enabled (its deferral queue and counters).
    pub fn darp(&self) -> Option<&DarpEngine> {
        self.darp.as_ref()
    }

    /// The demand-burst tracker, when enabled.
    pub fn burst_tracker(&self) -> Option<&BurstTracker> {
        self.burst.as_ref()
    }

    /// The installed fault injector, if any (its event log and stats).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// The RFM engine, when Refresh Management is installed (its escalation
    /// level, RAA counters, and window statistics).
    pub fn rfm(&self) -> Option<&RfmEngine> {
        self.rfm.as_ref()
    }

    /// The retention watchdog, when the ECC path has one (its violation
    /// log and bucket state).
    pub fn watchdog(&self) -> Option<&RetentionWatchdog> {
        self.ecc.as_ref().and_then(|l| l.watchdog.as_ref())
    }

    /// Materializes the fault injector's `BitFlip` specs into the ECC
    /// error state. Idempotent; a no-op until both are installed.
    fn seed_injected_flips(&mut self) {
        let geometry = *self.device.geometry();
        let now = self.now;
        let (Some(layer), Some(inj)) = (self.ecc.as_mut(), self.faults.as_mut()) else {
            return;
        };
        if layer.flips_seeded {
            return;
        }
        layer.flips_seeded = true;
        for (addr, bits) in inj.apply_bit_flips(&geometry, now) {
            layer
                .memory
                .inject_flips(geometry.flatten(addr), u32::from(bits));
        }
    }

    /// Credits the idle gap before a command issued at `start` and advances
    /// the last-command horizon to `end`. A credited gap is a CKE-low
    /// window ending at `start`, so the counter power policy's wake-time
    /// effects are applied here too.
    fn note_command(&mut self, start: Instant, end: Instant) {
        if let Some(pd) = self.powerdown {
            if start > self.last_cmd_end {
                let gap = start.since(self.last_cmd_end);
                if gap > pd.min_gap {
                    // `with_powerdown` guarantees overhead < min_gap < gap,
                    // but credit saturating anyway — a zero credit beats an
                    // underflow panic.
                    self.stats.powerdown_time += gap.saturating_sub(pd.overhead);
                    self.stats.powerdown_windows += 1;
                    self.device
                        .note_powerdown(self.last_cmd_end, start, pd.min_gap);
                    self.counter_power_wake(gap, start);
                }
            }
        }
        self.last_cmd_end = self.last_cmd_end.max(end);
    }

    /// Applies the counter power policy's wake-time effects after a
    /// CKE-low window of width `slept` ending at `woke`.
    fn counter_power_wake(&mut self, slept: Duration, woke: Instant) {
        match self.counter_power.policy {
            CounterPowerPolicy::Persistent => {
                // The SRAM stayed powered the whole window (gross width:
                // retention burns through the entry/exit overhead too).
                self.stats.counter_retention_time += slept;
            }
            CounterPowerPolicy::ConservativeReset => {
                // Nothing survived: wipe every counter to refresh-now,
                // mark the state rewritten, and tighten the maintenance
                // deadlines that were derived from pre-sleep bookkeeping.
                let wiped = self.policy.on_powerdown_wake(woke, true);
                self.stats.counters_reset_on_wake += wiped;
                self.counters_valid_from = woke;
                if let Some(layer) = self.ecc.as_mut() {
                    layer.note_wake(woke);
                }
            }
            CounterPowerPolicy::Snapshot => {
                // State was checkpointed on entry and restored now; the
                // energy model prices the round trip per entry.
                let entries = self.policy.on_powerdown_wake(woke, false);
                self.stats.counter_snapshots += 1;
                self.stats.counter_snapshot_entries += entries;
            }
        }
    }

    /// Mirrors a policy time-out-counter reset (open/close/scrub hook) to
    /// the protocol sanitizer; no-op when the sanitizer is disabled.
    fn note_policy_reset(&mut self, addr: RowAddr) {
        let flat = self.device.geometry().flatten(addr);
        self.device.note_policy_reset(flat);
    }

    /// §4.1: closing a page resets the closed row's time-out counter.
    fn note_page_closed(&mut self, closed: RowAddr, at: Instant) {
        self.policy.on_row_closed(closed, at);
        self.note_policy_reset(closed);
    }

    /// Precharges `(rank, bank)`'s open page at `pre_at` and tells the
    /// policy it closed; returns when the precharge completes. The single
    /// path for demand-side closes: conflict precharge, closed-page
    /// auto-precharge and idle-page close. CKE accounting is left to the
    /// caller.
    fn close_page(&mut self, rank: u32, bank: u32, pre_at: Instant) -> Result<Instant, SimError> {
        let Some(closed_row) = self.device.bank(rank, bank).open_row() else {
            return Err(SimError::StateInconsistency {
                what: "page close found no open row on the bank",
                rank,
                bank,
                at: pre_at,
            });
        };
        self.device.precharge(rank, bank, pre_at).map_err(|e| {
            SimError::protocol("precharge", rank, bank, Some(closed_row), pre_at, e)
        })?;
        let closed = RowAddr {
            rank,
            bank,
            row: closed_row,
        };
        self.note_page_closed(closed, pre_at);
        Ok(self.device.bank(rank, bank).busy_until())
    }

    /// Completes a row restore — refresh, scrub or RFM victim refresh —
    /// that the device ran at `issue_at` with `was_open` the bank's open
    /// row beforehand. The policy hears of a page close only if the device
    /// really closed it (a SARP overlap leaves it open); a scrub or victim
    /// refresh (`scrubbed`) also resets the restored row's counter (§4.3).
    /// The row's disturbance pressure clears, and the CKE horizon advances
    /// to the later of the bank's ready time and the restore's completion:
    /// a SARP overlap leaves the bank demand-ready, but CKE stays high
    /// until the restore ends. Returns that end.
    fn finish_restore(
        &mut self,
        row: RowAddr,
        was_open: Option<u32>,
        out: OpOutcome,
        issue_at: Instant,
        scrubbed: bool,
    ) -> Instant {
        if let (Some(open), true) = (was_open, out.closed_open_page) {
            self.note_page_closed(RowAddr { row: open, ..row }, issue_at);
        }
        if scrubbed {
            self.policy.on_row_scrubbed(row, issue_at);
            self.note_policy_reset(row);
        }
        if let Some(inj) = self.faults.as_mut() {
            inj.note_row_restored(self.device.geometry(), row);
        }
        let end = self
            .device
            .bank(row.rank, row.bank)
            .busy_until()
            .max(out.completed_at);
        self.note_command(issue_at, end);
        end
    }

    /// Overrides the idle page-close timeout (`None` disables idle closes).
    pub fn with_page_close_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.page_close_timeout = timeout;
        // A changed timeout invalidates the scan-skip bound; force the next
        // close_idle_pages call to rescan and recompute it.
        self.next_idle_close = Instant::ZERO;
        self
    }

    /// Switches the row-buffer management policy (default [`PagePolicy::Open`]).
    pub fn with_page_policy(mut self, policy: PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }

    /// Enables the shadow protocol sanitizer on the underlying device.
    ///
    /// Every subsequent command is validated against the DDR2 timing rules
    /// and the Smart-Refresh invariants; collect the verdict with
    /// [`MemoryController::check_sanitizer`].
    pub fn with_sanitizer(mut self) -> Self {
        self.device.enable_protocol_checker();
        if self.counter_power.policy == CounterPowerPolicy::ConservativeReset {
            self.device.declare_volatile_counters();
        }
        if let Some(rfm) = &self.rfm {
            let cfg = *rfm.config();
            self.device.declare_rfm(cfg.raaimt, cfg.raammt);
            self.device.declare_disturbance_ceiling(cfg.act_ceiling);
        }
        self
    }

    /// Runs the sanitizer's end-of-run checks as of `now`.
    ///
    /// Non-destructive; may be called at multiple checkpoints. `Ok(())`
    /// when the sanitizer is disabled or observed no violations.
    ///
    /// # Errors
    ///
    /// [`SimError::Sanitizer`] carrying the violation count and the first
    /// violation's rendered diagnostic.
    pub fn check_sanitizer(&self, now: Instant) -> Result<(), SimError> {
        let Some(report) = self.device.sanitizer_report(now) else {
            return Ok(());
        };
        match report.violations.first() {
            None => Ok(()),
            Some(first) => Err(SimError::Sanitizer {
                violations: report.violations.len(),
                first: first.to_string(),
            }),
        }
    }

    /// The underlying device (operation counts, retention state).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// The refresh policy (mode, SRAM traffic, queue high-water).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Controller statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Latest simulation time the controller has observed.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Processes all refresh work due up to `t`: advances the policy through
    /// each of its wakeups and drains the pending queue at every step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] on an illegal command, which indicates
    /// a scheduling bug rather than a recoverable condition.
    pub fn advance_to(&mut self, t: Instant) -> Result<(), SimError> {
        while let Some(wake) = self.policy.next_wakeup() {
            if wake > t {
                break;
            }
            self.apply_vrt_transitions(wake);
            self.close_idle_pages(wake)?;
            // The walk tick consumes counter state; tell the sanitizer
            // when that state was last wholly rewritten so its
            // counter-survival rule can spot values read across a CKE-low
            // window they could not have survived.
            let valid_from = self.counters_valid_from;
            self.device.note_counter_read(wake, valid_from);
            self.policy.advance(wake);
            self.dispatch_refreshes(wake)?;
            self.run_patrol(wake)?;
        }
        self.apply_vrt_transitions(t);
        self.close_idle_pages(t)?;
        if self.darp.is_some() {
            // Re-evaluate the deferral queue at the horizon too, so a
            // deferred refresh never outlives its bound just because the
            // policy had no wakeup left in the span.
            self.dispatch_refreshes(t)?;
        }
        self.run_patrol(t)?;
        self.now = self.now.max(t);
        Ok(())
    }

    /// Applies any variable-retention-time fault episodes that start or end
    /// by `now`: a VRT onset tightens the victim rows' retention deadlines
    /// mid-run; the episode's end restores them. Processed at every policy
    /// wakeup, so transitions take effect within one refresh slot.
    fn apply_vrt_transitions(&mut self, now: Instant) {
        let geometry = *self.device.geometry();
        if let Some(inj) = self.faults.as_mut() {
            inj.apply_vrt_transitions(self.device.retention_mut(), &geometry, now);
        }
    }

    /// Processes every patrol scrub slot and watchdog epoch due by `t`.
    fn run_patrol(&mut self, t: Instant) -> Result<(), SimError> {
        // Scrub slots: one deadline-order victim per slot.
        while let Some((slot, victim)) = self
            .ecc
            .as_ref()
            .and_then(|l| l.due_scrub(t, self.device.retention()))
        {
            if let Some(flat) = victim {
                self.scrub_one(flat, slot, false)?;
            }
            if let Some(layer) = self.ecc.as_mut() {
                layer.finish_scrub_slot(slot);
            }
        }
        // Watchdog epochs: audit CE buckets, force-scrub flagged rows,
        // escalate when violations persist.
        while let Some((epoch, flagged)) = self.ecc.as_mut().and_then(|l| l.due_audit(t)) {
            self.materialize_late_flips();
            for flat in flagged {
                self.scrub_one(flat, epoch, true)?;
            }
            if self.ecc.as_ref().is_some_and(EccLayer::should_escalate) {
                self.policy.degrade(DegradeCause::RetentionWatchdog, epoch);
            }
        }
        Ok(())
    }

    /// Scrubs one row: a RAS-cycle read that restores the row's charge
    /// (occupying the bank like a RAS-only refresh), resets its time-out
    /// counter via the policy so Smart Refresh skips the now-redundant
    /// refresh, and runs the SECDED check. A UE found by a scrub is counted
    /// and escalated but does not fail the run — no requester consumed the
    /// poisoned data. `forced` counts it as a watchdog-ordered scrub.
    fn scrub_one(&mut self, flat: u64, at: Instant, forced: bool) -> Result<(), SimError> {
        let addr = self.device.geometry().unflatten(flat);
        let bank_state = self.device.bank(addr.rank, addr.bank);
        let issue_at = at.max(bank_state.busy_until());
        let was_open = bank_state.open_row();
        let out = self.device.scrub_row(addr, issue_at).map_err(|e| {
            SimError::protocol("scrub", addr.rank, addr.bank, Some(addr.row), issue_at, e)
        })?;
        if forced {
            self.stats.forced_scrubs += 1;
        } else {
            self.stats.scrubs_issued += 1;
        }
        let end = self.finish_restore(addr, was_open, out, issue_at, true);
        self.ecc_check(flat, addr, end, false)
    }

    /// Issues one patrol scrub of the row with flat index `flat` at `at`,
    /// on behalf of an external (system-level) scrub scheduler. All
    /// refresh work due by `at` is processed first, then the scrub runs
    /// like an internally scheduled one: a RAS cycle restoring the row's
    /// charge, the policy's time-out counter reset via
    /// [`on_row_scrubbed`](smartrefresh_core::RefreshPolicy::on_row_scrubbed),
    /// and the SECDED check (a scrub-detected UE is contained, not thrown).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an out-of-range `flat`; otherwise
    /// propagates like [`MemoryController::advance_to`].
    pub fn issue_scrub(&mut self, flat: u64, at: Instant) -> Result<(), SimError> {
        self.external_scrub(flat, at, false)
    }

    /// Like [`issue_scrub`](MemoryController::issue_scrub) but counted as
    /// a *forced* scrub — one a watchdog ordered out of patrol order.
    ///
    /// # Errors
    ///
    /// As [`issue_scrub`](MemoryController::issue_scrub).
    pub fn issue_forced_scrub(&mut self, flat: u64, at: Instant) -> Result<(), SimError> {
        self.external_scrub(flat, at, true)
    }

    fn external_scrub(&mut self, flat: u64, at: Instant, forced: bool) -> Result<(), SimError> {
        if flat >= self.device.geometry().total_rows() {
            return Err(SimError::Config {
                what: "scrub target row index out of range",
            });
        }
        self.advance_to(at)?;
        self.scrub_one(flat, at, forced)
    }

    /// Whether scrubbing the row with flat index `flat` right now would
    /// have to close an open page on its bank first (the interference a
    /// scrub-aware scheduler avoids by preferring precharged banks).
    ///
    /// Deliberately ignores SARP: a page the scrub would overlap counts
    /// too, since counting overlap would change the scheduler's victims
    /// and with them the benchmark's pinned maintenance report digest
    /// (`0xa3560f9ac5bbcf8b`).
    pub fn scrub_would_close_page(&self, flat: u64) -> bool {
        let addr = self.device.geometry().unflatten(flat);
        self.device.bank(addr.rank, addr.bank).open_row().is_some()
    }

    /// Drains the corrected-error export log: the flat indices of rows
    /// whose CEs were corrected since the last drain, in detection order
    /// (duplicates preserved — the CE *rate* is the signal). Empty unless
    /// the ECC config enabled [`EccConfig::with_ce_export`]. This is the
    /// feed a shared cross-channel retention watchdog audits.
    ///
    /// [`EccConfig::with_ce_export`]: crate::EccConfig::with_ce_export
    pub fn drain_ce_rows(&mut self) -> Vec<u64> {
        self.ecc
            .as_mut()
            .and_then(|l| l.ce_log.as_mut())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Asks the refresh policy to degrade to its safe fallback mode, on
    /// behalf of an external escalation authority (a shared watchdog that
    /// audits several channels). Policies without a fallback ignore it.
    pub fn degrade_policy(&mut self, cause: DegradeCause, now: Instant) {
        self.policy.degrade(cause, now);
    }

    /// Folds any new retention-tracker late restores into the ECC error
    /// state: a row restored past its deadline decays its weakest word —
    /// one flip when restored within twice the deadline (the canonical
    /// weak-cell case, correctable), two beyond that (uncorrectable).
    /// Restores within the configured guard past the deadline are
    /// scheduling jitter, not decay, and materialize nothing.
    fn materialize_late_flips(&mut self) {
        let Some(layer) = self.ecc.as_mut() else {
            return;
        };
        let lates = self.device.retention().late_restores();
        for late in &lates[layer.late_seen..] {
            if late.interval <= late.deadline + layer.guard {
                continue;
            }
            let bits = if late.interval > late.deadline * 2 {
                2
            } else {
                1
            };
            layer.memory.inject_flips(late.flat_index, bits);
        }
        layer.late_seen = lates.len();
    }

    /// Runs the SECDED decode for a row after a read or scrub. A CE is
    /// corrected, written back (clearing the flip mask) and reported to
    /// the watchdog; a UE is counted once per row and degrades the policy.
    /// Only a *demand* read errors on a UE — the requester consumed lost
    /// data; a scrub-detected UE is contained.
    fn ecc_check(
        &mut self,
        flat: u64,
        addr: RowAddr,
        now: Instant,
        demand: bool,
    ) -> Result<(), SimError> {
        self.materialize_late_flips();
        let Some(layer) = self.ecc.as_mut() else {
            return Ok(());
        };
        match layer.memory.read(flat) {
            Decode::Clean { .. } => Ok(()),
            Decode::Corrected { .. } => {
                // Corrected data is written back with fresh check bits.
                layer.memory.clear(flat);
                self.stats.ce_corrected += 1;
                if let Some(wd) = layer.watchdog.as_mut() {
                    wd.record_ce(flat);
                }
                if let Some(log) = layer.ce_log.as_mut() {
                    log.push(flat);
                }
                Ok(())
            }
            Decode::Uncorrectable => {
                if layer.ue_rows.insert(flat) {
                    self.stats.ue_detected += 1;
                    self.policy.degrade(DegradeCause::EccUncorrectable, now);
                }
                if demand {
                    Err(SimError::Uncorrectable {
                        rank: addr.rank,
                        bank: addr.bank,
                        row: addr.row,
                        at: now,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Closes any open page whose bank has been idle past the timeout.
    ///
    /// Guarded by [`next_idle_close`](Self::next_idle_close): when `now` is
    /// before the earliest possible close deadline this is a single
    /// comparison, so the per-access and per-wakeup calls stay O(1) in the
    /// common case. A real scan recomputes the bound exactly from the banks
    /// it leaves open.
    fn close_idle_pages(&mut self, now: Instant) -> Result<(), SimError> {
        let Some(timeout) = self.page_close_timeout else {
            return Ok(());
        };
        if now < self.next_idle_close {
            return Ok(());
        }
        let geometry = *self.device.geometry();
        let mut next_due = Instant::MAX;
        // Walk only banks with an open row (via the device's open-row
        // bitset), in ascending bank order — the same visit order as a
        // full scan, so the precharge sequence (and thus every downstream
        // energy number) is unchanged. Each word is snapshotted before its
        // banks are processed; a bank this loop closes keeps its stale bit
        // in the local copy and is skipped by the `open_row` re-check.
        for w in 0..self.device.open_banks().len() {
            let mut word = self.device.open_banks()[w];
            while word != 0 {
                let bank_idx = w as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                let rank = bank_idx / geometry.banks();
                let bank = bank_idx % geometry.banks();
                let b = self.device.bank(rank, bank);
                if b.open_row().is_none() {
                    continue;
                }
                let deadline = self.last_use[bank_idx as usize] + timeout;
                if deadline > now {
                    next_due = next_due.min(deadline);
                    continue;
                }
                let pre_at = deadline.max(b.earliest_precharge()).max(b.busy_until());
                if pre_at > now {
                    // Still legally unclosable: retry on the next call.
                    next_due = next_due.min(deadline);
                    continue;
                }
                let pre_done = self.close_page(rank, bank, pre_at)?;
                self.note_command(pre_at, pre_done);
            }
        }
        self.next_idle_close = next_due;
        Ok(())
    }

    fn dispatch_refreshes(&mut self, now: Instant) -> Result<(), SimError> {
        if let Some(inj) = &mut self.faults {
            if inj.dispatch_stalled(now) {
                // Dispatch is suspended: pending refreshes stay queued, the
                // §5 queue fills, and the policy's overflow path degrades it
                // to the fallback sweep.
                return Ok(());
            }
        }
        if let Some(mut engine) = self.darp.take() {
            let result = self.dispatch_refreshes_darp(&mut engine, now);
            self.darp = Some(engine);
            return result;
        }
        while let Some(action) = self.policy.pop_pending() {
            self.issue_refresh_action(action, now, now)?;
        }
        Ok(())
    }

    /// DARP dispatch: newly due refreshes join the deferral queue, then the
    /// pass walks it in due order. A cold-bank entry issues (counted as
    /// out-of-order when an older hot-bank entry is being held past it); a
    /// hot-bank entry defers until the bound forces it through the open
    /// page.
    fn dispatch_refreshes_darp(
        &mut self,
        engine: &mut DarpEngine,
        now: Instant,
    ) -> Result<(), SimError> {
        while let Some(action) = self.policy.pop_pending() {
            engine.push(action, now);
        }
        let hot_window = engine.config().hot_window;
        let mut held_older = false;
        for entry in engine.take_queue() {
            let (rank, bank) = entry.action.target_bank();
            if self.bank_is_hot(rank, bank, now, hot_window) {
                if !engine.must_force(entry.due, now) {
                    held_older = true;
                    engine.retain(entry);
                    continue;
                }
                engine.note_forced();
            } else if held_older {
                engine.note_ooo();
            }
            self.issue_refresh_action(entry.action, entry.due, now)?;
        }
        Ok(())
    }

    /// Whether `(rank, bank)` holds an open page that demand traffic used
    /// within `window` of `now` — the page DARP defers refreshes around.
    fn bank_is_hot(&self, rank: u32, bank: u32, now: Instant, window: Duration) -> bool {
        if self.device.bank(rank, bank).open_row().is_none() {
            return false;
        }
        let idx = self.device.geometry().bank_index(rank, bank) as usize;
        now.saturating_since(self.last_use[idx]) <= window
    }

    /// Issues one refresh action at `now`. `due` is the wakeup at which the
    /// action fell due — equal to `now` on the in-order path, earlier when
    /// DARP deferred it; the sanitizer's per-bank deferral bound is
    /// measured from it.
    fn issue_refresh_action(
        &mut self,
        action: RefreshAction,
        due: Instant,
        now: Instant,
    ) -> Result<(), SimError> {
        let (rank, bank) = action.target_bank();
        let mut issue_at = now.max(self.device.bank(rank, bank).busy_until());
        if let RefreshAction::RasOnly { row, .. } = action {
            if let Some(inj) = &mut self.faults {
                match inj.perturb_refresh(row, now) {
                    Perturbation::Pass => {}
                    Perturbation::Drop => {
                        // Never issued; the retention tracker will flag
                        // the row as late on its next restore or in the
                        // end-of-run violation scan.
                        self.stats.refreshes_dropped += 1;
                        self.policy.degrade(DegradeCause::FaultInjection, now);
                        return Ok(());
                    }
                    Perturbation::Delay(by) => {
                        self.stats.refreshes_delayed += 1;
                        issue_at += by;
                        self.policy.degrade(DegradeCause::FaultInjection, now);
                    }
                }
            }
        }
        // If the bank holds an open page the refresh may close it; the
        // policy must see the close so the row's counter resets (§4.1).
        let was_open = self.device.bank(rank, bank).open_row();
        // Tell the sanitizer how far the action slipped past its due wakeup
        // (DARP deferral and fault delays included) for the per-bank
        // deferral bound.
        self.device.note_refresh_dispatch(rank, bank, due, issue_at);
        let (restored_row, out) = match action {
            RefreshAction::Cbr { .. } => {
                let (out, row) = self.device.refresh_cbr(rank, bank, issue_at).map_err(|e| {
                    SimError::protocol("refresh (CBR)", rank, bank, None, issue_at, e)
                })?;
                (row, out)
            }
            RefreshAction::RasOnly { row, charge_bus } => {
                let out = self.device.refresh_ras_only(row, issue_at).map_err(|e| {
                    SimError::protocol("refresh (RAS-only)", rank, bank, Some(row.row), issue_at, e)
                })?;
                if charge_bus {
                    self.stats.bus_charged_refreshes += 1;
                }
                (row.row, out)
            }
        };
        let restored = RowAddr {
            rank,
            bank,
            row: restored_row,
        };
        self.finish_restore(restored, was_open, out, issue_at, false);
        self.stats.refreshes_issued += 1;
        // The bank's RAA counter gets DDR5's REF relief.
        if let Some(rfm) = self.rfm.as_mut() {
            rfm.note_refresh(self.device.geometry().bank_index(rank, bank));
        }
        Ok(())
    }

    /// Applies disturbance (rowhammer) coupling for one ACTIVATE of
    /// `aggressor`: the fault injector accumulates flip pressure on the
    /// row's physical neighbors, and any flips it yields materialize in
    /// the ECC error state, where the SECDED path classifies them as CEs
    /// or UEs on the next read or scrub.
    fn apply_disturbance(&mut self, aggressor: RowAddr, now: Instant) {
        let geometry = *self.device.geometry();
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        if !inj.has_disturbance() {
            return;
        }
        let flips = inj.note_activation(&geometry, aggressor, now);
        if flips.is_empty() {
            return;
        }
        if let Some(layer) = self.ecc.as_mut() {
            for (victim, bits) in flips {
                layer
                    .memory
                    .inject_flips(geometry.flatten(victim), u32::from(bits));
            }
        }
    }

    /// Rolls the RFM engine's budget windows forward to `t` and, when the
    /// target bank sits at RAAMMT, back-pressures the ACT behind a
    /// mandatory RFM command. Returns the earliest instant the ACT may
    /// issue.
    fn rfm_before_act(&mut self, target: RowAddr, t: Instant) -> Result<Instant, SimError> {
        let bank_idx = self.device.geometry().bank_index(target.rank, target.bank);
        let Some(rfm) = self.rfm.as_mut() else {
            return Ok(t);
        };
        rfm.roll_windows(t);
        if !rfm.must_issue_before_act(bank_idx) {
            return Ok(t);
        }
        self.stats.rfm_backpressure_stalls += 1;
        let end = self.issue_rfm(target.rank, target.bank, t)?;
        Ok(end.max(t))
    }

    /// Issues one RFM command to `(rank, bank)` at (or after) `at`: the
    /// engine's RAA counter drops by RAAIMT and the hottest aggressors'
    /// neighbor rows are refreshed back-to-back. Each victim refresh
    /// resets the row's Smart Refresh time-out counter via the scrub hook
    /// (the counter array doubling as the RFM victim ledger) and clears
    /// its accumulated disturbance pressure. Returns when the bank is
    /// free again.
    fn issue_rfm(&mut self, rank: u32, bank: u32, at: Instant) -> Result<Instant, SimError> {
        let geometry = *self.device.geometry();
        let bank_idx = geometry.bank_index(rank, bank);
        let Some(rfm) = self.rfm.as_mut() else {
            return Ok(at);
        };
        let victims = rfm.select_victims(bank_idx, geometry.rows());
        rfm.note_rfm_issued(bank_idx);
        self.stats.rfm_commands += 1;
        let mut t = at.max(self.device.bank(rank, bank).busy_until());
        self.device.note_rfm(rank, bank);
        for vrow in victims {
            let victim = RowAddr {
                rank,
                bank,
                row: vrow,
            };
            let was_open = self.device.bank(rank, bank).open_row();
            let out = self
                .device
                .refresh_rfm(victim, t)
                .map_err(|e| SimError::protocol("refresh (RFM)", rank, bank, Some(vrow), t, e))?;
            self.stats.rfm_row_refreshes += 1;
            // The restore's end keeps `t` monotone through the chain even
            // when a SARP overlap leaves `busy_until` alone.
            t = self.finish_restore(victim, was_open, out, t, true);
        }
        Ok(t)
    }

    /// Executes one demand transaction under the open-page policy, first
    /// processing any refresh work due by its arrival time.
    ///
    /// Returns the completion time; latency (completion − arrival) includes
    /// any waiting behind refreshes occupying the bank.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] on an illegal command sequence and
    /// [`SimError::StateInconsistency`] when the controller's row-buffer
    /// bookkeeping contradicts the device (both controller bugs, not
    /// workload conditions).
    pub fn access(&mut self, tx: MemTransaction) -> Result<AccessResult, SimError> {
        self.advance_to(tx.arrival)?;
        let decoded = self.device.geometry().decode(tx.addr);
        let target = decoded.row_addr;
        let (rank, bank) = (target.rank, target.bank);

        let open = self.device.bank(rank, bank).open_row();
        let outcome = match open {
            Some(r) if r == target.row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        };

        let mut t = tx.arrival.max(self.device.bank(rank, bank).busy_until());
        let first_cmd_at = t;
        if outcome == RowBufferOutcome::Conflict {
            // No CKE credit of its own: the access credits its idle gap
            // up to `first_cmd_at` once the column command is done.
            let pre_at = t.max(self.device.bank(rank, bank).earliest_precharge());
            t = self.close_page(rank, bank, pre_at)?;
        }
        let mut elective_rfm = false;
        if outcome != RowBufferOutcome::Hit {
            // Respect the rank's tRRD/tFAW activation window.
            t = t.max(self.device.earliest_activate(rank));
            // A SARP refresh occupying the target subarray blocks the ACT
            // until it completes (no-op when subarrays are disabled).
            t = t.max(self.device.earliest_subarray_ready(target));
            if self.rfm.is_some() {
                // RAAMMT back-pressure: a bank at the maximum management
                // threshold must take a mandatory RFM before this ACT.
                t = self.rfm_before_act(target, t)?;
            }
            let act = self
                .device
                .activate(target, t)
                .map_err(|e| SimError::protocol("activate", rank, bank, Some(target.row), t, e))?;
            self.policy.on_row_opened(target, t);
            self.note_policy_reset(target);
            self.apply_disturbance(target, t);
            if let Some(b) = self.burst.as_mut() {
                b.record(t);
            }
            if let Some(rfm) = self.rfm.as_mut() {
                elective_rfm =
                    rfm.note_activate(self.device.geometry().bank_index(rank, bank), target.row);
            }
            t = act.bank_ready_at;
        }
        let out = if tx.is_write {
            self.device
                .write(target, decoded.column, t)
                .map_err(|e| SimError::protocol("write", rank, bank, Some(target.row), t, e))?
        } else {
            self.device
                .read(target, decoded.column, t)
                .map_err(|e| SimError::protocol("read", rank, bank, Some(target.row), t, e))?
        };
        if !tx.is_write {
            // Read data passes through the SECDED decoder on its way to
            // the requester; an uncorrectable word fails the transaction.
            let flat = self.device.geometry().flatten(target);
            self.ecc_check(flat, target, out.completed_at, true)?;
        }
        // A row-buffer hit also rewrites the cells through the sense amps;
        // the paper resets the counter on any access to an open row.
        if outcome == RowBufferOutcome::Hit {
            self.policy.on_row_opened(target, t);
            self.note_policy_reset(target);
        }
        self.last_use[self.device.geometry().bank_index(rank, bank) as usize] = out.bank_ready_at;
        if let Some(timeout) = self.page_close_timeout {
            // This access (re)armed the only path that leaves a row open, so
            // fold its idle-close deadline into the scan-skip lower bound.
            self.next_idle_close = self.next_idle_close.min(out.bank_ready_at + timeout);
        }
        self.note_command(first_cmd_at, out.bank_ready_at);
        if self.page_policy == PagePolicy::Closed {
            // Auto-precharge at the earliest legal instant; CKE stays high
            // until its tRP completes.
            let pre_at = out
                .bank_ready_at
                .max(self.device.bank(rank, bank).earliest_precharge());
            let pre_done = self.close_page(rank, bank, pre_at)?;
            self.note_command(pre_at, pre_done);
        }
        if elective_rfm {
            // The ACT crossed the RAA management threshold with budget to
            // spare: refresh the hottest aggressors' neighbors now.
            self.issue_rfm(rank, bank, out.bank_ready_at)?;
        }
        if self.rfm.as_mut().is_some_and(RfmEngine::take_storm) {
            // Starved budget windows piled up past the storm bound: the
            // smart machinery stands down to the CBR fallback sweep, which
            // bounds every victim's exposure window.
            self.policy
                .degrade(DegradeCause::DisturbanceStorm, out.completed_at);
        }
        let latency = out.completed_at.since(tx.arrival);
        self.stats.record(outcome, latency);
        self.now = self.now.max(out.completed_at);
        Ok(AccessResult {
            completed_at: out.completed_at,
            outcome,
        })
    }

    /// Finishes a run: processes refresh work up to `t` and returns the
    /// device for inspection alongside the policy and stats.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`MemoryController::advance_to`].
    pub fn finish(mut self, t: Instant) -> Result<(DramDevice, P, ControllerStats), SimError> {
        self.advance_to(t)?;
        Ok((self.device, self.policy, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_core::{CbrDistributed, NoRefresh, SmartRefresh, SmartRefreshConfig};
    use smartrefresh_dram::time::Duration;
    use smartrefresh_dram::{Geometry, TimingParams};

    fn small_geometry() -> Geometry {
        Geometry::new(1, 2, 32, 16, 64)
    }

    fn cbr_controller() -> MemoryController<CbrDistributed> {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
    }

    fn ms(n: u64) -> Instant {
        Instant::ZERO + Duration::from_ms(n)
    }

    #[test]
    fn miss_hit_conflict_sequence() {
        let mut mc = cbr_controller();
        let g = *mc.device().geometry();
        // First access to row 0 of bank 0: miss.
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        assert_eq!(a.outcome, RowBufferOutcome::Miss);
        // Same row, next column: hit.
        let b = mc.access(MemTransaction::read(8, a.completed_at)).unwrap();
        assert_eq!(b.outcome, RowBufferOutcome::Hit);
        // Different row, same bank: conflict. Row stride in bank 0 is
        // row_bytes * total_banks.
        let other_row = g.row_bytes() * u64::from(g.total_banks());
        let c = mc
            .access(MemTransaction::read(
                other_row,
                b.completed_at + Duration::from_ns(300),
            ))
            .unwrap();
        assert_eq!(c.outcome, RowBufferOutcome::Conflict);
        assert_eq!(mc.stats().transactions, 3);
        assert_eq!(mc.stats().row_hits, 1);
    }

    #[test]
    fn latency_ordering_matches_outcome() {
        // NoRefresh keeps the banks free so raw latencies are observable.
        let g = small_geometry();
        let timing = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, timing), NoRefresh::new());
        let t = *mc.device().timing();
        let a = mc.access(MemTransaction::read(0, ms(1))).unwrap();
        let miss_latency = a.completed_at.since(ms(1));
        assert_eq!(miss_latency, t.row_miss_latency());
        // Within the idle page-close timeout the row is still open.
        let t2 = a.completed_at + Duration::from_ns(100);
        let b = mc.access(MemTransaction::read(8, t2)).unwrap();
        assert_eq!(b.completed_at.since(t2), t.row_hit_latency());
    }

    #[test]
    fn cbr_policy_refreshes_all_rows_within_interval() {
        let mut mc = cbr_controller();
        mc.advance_to(ms(64)).unwrap();
        assert_eq!(mc.device().stats().cbr_refreshes, 64);
        assert!(mc.device().check_integrity(ms(64)).is_ok());
        assert_eq!(
            mc.stats().bus_charged_refreshes,
            0,
            "CBR drives no address bus"
        );
    }

    #[test]
    fn no_refresh_policy_fails_integrity() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new());
        mc.advance_to(ms(65)).unwrap();
        assert!(mc.device().check_integrity(ms(65)).is_err());
    }

    #[test]
    fn smart_policy_keeps_integrity_with_accesses() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        let mut mc = MemoryController::new(DramDevice::new(g, t), policy);
        // Hammer a handful of rows while time passes over 3 intervals.
        for step in 0..1920u64 {
            let now = Instant::ZERO + Duration::from_us(100) * step;
            let addr = (step % 5) * 64;
            mc.access(MemTransaction::read(addr, now)).unwrap();
        }
        let end = Instant::ZERO + Duration::from_us(100) * 1920;
        mc.advance_to(end).unwrap();
        assert!(mc.device().check_integrity(end).is_ok());
        // The hot rows were accessed constantly, so fewer refreshes than the
        // periodic sweep were needed.
        let periodic = 3 * 64;
        assert!(
            (mc.device().stats().ras_only_refreshes as i64) < periodic,
            "smart refresh should skip some refreshes"
        );
        assert!(mc.policy().queue_high_water() <= 4);
    }

    #[test]
    fn refresh_closing_open_page_notifies_policy() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 2,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        // Disable idle closes so the page genuinely stays open.
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), policy).with_page_close_timeout(None);
        // Open a row in bank 0 and leave it open across a full interval.
        mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.advance_to(ms(70)).unwrap();
        // The refresh sweep hit bank 0 with the page open; device noticed...
        assert!(mc.device().stats().refreshes_closing_open_page >= 1);
        // ...and integrity still holds.
        assert!(mc.device().check_integrity(ms(70)).is_ok());
    }

    #[test]
    fn darp_defers_hot_banks_and_issues_cold_refreshes_out_of_order() {
        // CbrDistributed on the small module: one CBR per 1 ms slot
        // (64 ms retention / 64 rows), banks alternating 0, 1, 0, 1…
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let darp = DarpConfig {
            hot_window: Duration::from_ms(2),
            max_deferral: Duration::from_ms(6), // < 8 × tREFI = 16 ms
        };
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
                .with_page_close_timeout(None)
                .with_darp(darp)
                .unwrap();
        // Open bank 0's row 0 just before the first slot and re-touch it
        // every 1 ms: the page stays inside the 2 ms hot window across the
        // wakeups at 1..=6 ms.
        let base = Instant::ZERO + Duration::from_us(900);
        mc.access(MemTransaction::read(0, base)).unwrap();
        for k in 1..=6u64 {
            mc.access(MemTransaction::read(8, base + Duration::from_ms(k)))
                .unwrap();
        }
        // Bank 0's slots (1, 3, 5 ms) all deferred; bank 1's slots (2, 4,
        // 6 ms) each overtook an older held entry.
        let stats = mc.darp().unwrap().stats();
        assert_eq!(stats.deferred, 3);
        assert_eq!(stats.ooo_issued, 3);
        assert_eq!(stats.forced, 0);
        assert_eq!(mc.darp().unwrap().pending(), 3);
        assert_eq!(mc.device().stats().refreshes_closing_open_page, 0);
        // At the 7 ms wakeup the oldest entry (due 1 ms) hits the 6 ms
        // bound and is forced through the still-open page; the close cools
        // the bank, so the younger entries drain in order behind it.
        mc.advance_to(ms(7)).unwrap();
        let stats = mc.darp().unwrap().stats();
        assert_eq!(stats.forced, 1);
        assert_eq!(stats.ooo_issued, 3, "drain after the close is in-order");
        assert_eq!(mc.darp().unwrap().pending(), 0);
        assert_eq!(mc.device().stats().refreshes_closing_open_page, 1);
        assert!(mc.device().check_integrity(ms(7)).is_ok());
    }

    #[test]
    fn sarp_overlap_keeps_the_page_open_through_refresh() {
        // 32 rows / 4 subarrays = 8 rows each: row 8 sits in subarray 1,
        // while the CBR row counter starts its walk in subarray 0.
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
                .with_page_close_timeout(None)
                .with_subarrays(4);
        let row8 = 8 * g.row_bytes() * u64::from(g.total_banks());
        mc.access(MemTransaction::read(row8, Instant::ZERO))
            .unwrap();
        // Bank 0's CBR slots at 1 and 3 ms refresh rows 0 and 1 — a
        // different subarray than the open page, so both overlap it.
        mc.advance_to(ms(4)).unwrap();
        assert_eq!(mc.device().stats().sarp_overlapped_refreshes, 2);
        assert_eq!(mc.device().stats().refreshes_closing_open_page, 0);
        assert_eq!(mc.device().bank(0, 0).open_row(), Some(8));
        assert!(mc.device().check_integrity(ms(4)).is_ok());
    }

    #[test]
    fn sarp_scrub_leaves_the_open_page_and_its_counter_alone() {
        // Row 8 (subarray 1) stays open while row 0 (subarray 0) is
        // scrubbed: the scrub overlaps the page, so only the scrubbed row's
        // counter resets — the open row saw no close.
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t))
            .with_page_close_timeout(None)
            .with_subarrays(4);
        let row8 = 8 * g.row_bytes() * u64::from(g.total_banks());
        let a = mc
            .access(MemTransaction::read(row8, Instant::ZERO))
            .unwrap();
        let before = mc.policy().stats().access_resets;
        mc.issue_scrub(0, a.completed_at + Duration::from_us(1))
            .unwrap();
        assert_eq!(mc.device().stats().sarp_overlapped_refreshes, 1);
        assert_eq!(mc.device().bank(0, 0).open_row(), Some(8));
        assert_eq!(mc.policy().stats().access_resets, before + 1);
    }

    #[test]
    fn closed_page_powerdown_credit_starts_after_the_auto_precharge() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new())
            .with_page_policy(PagePolicy::Closed);
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        // The auto-precharge keeps CKE high until its tRP completes.
        let pre_done = mc.device().bank(0, 0).busy_until();
        let t2 = a.completed_at + Duration::from_us(10);
        mc.access(MemTransaction::read(g.row_bytes(), t2)).unwrap();
        let overhead = PowerDownConfig::default().overhead;
        let pd = mc.stats().powerdown_time;
        assert_eq!(pd, t2.since(pre_done) - overhead);
        assert_eq!(pd, Duration::from_ns(9_960));
    }

    #[test]
    fn finish_returns_components() {
        let mc = cbr_controller();
        let (dev, _policy, stats) = mc.finish(ms(10)).unwrap();
        assert!(dev.stats().cbr_refreshes > 0);
        assert_eq!(stats.transactions, 0);
    }

    #[test]
    fn closed_page_policy_precharges_after_every_access() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new())
            .with_page_policy(PagePolicy::Closed);
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        // Bank closes as soon as tRAS allows.
        mc.advance_to(a.completed_at + Duration::from_us(1))
            .unwrap();
        assert!(mc.device().bank(0, 0).is_precharged());
        // A second access to the same row is a miss, not a hit.
        let b = mc
            .access(MemTransaction::read(
                8,
                a.completed_at + Duration::from_us(2),
            ))
            .unwrap();
        assert_eq!(b.outcome, RowBufferOutcome::Miss);
        assert_eq!(mc.stats().row_hits, 0);
        assert_eq!(mc.device().stats().precharges, 2);
    }

    #[test]
    fn closed_page_resets_smart_counters_via_precharge() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        let mut mc = MemoryController::new(DramDevice::new(g, t), policy)
            .with_page_policy(PagePolicy::Closed);
        mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        // Open (activate) + close (auto-precharge) both reset the counter.
        assert_eq!(mc.policy().stats().access_resets, 2);
    }

    #[test]
    fn powerdown_credits_idle_gaps() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new());
        // Two accesses 10 us apart: the gap minus overhead is credited.
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_us(10),
        ))
        .unwrap();
        let pd = mc.stats().powerdown_time;
        assert!(
            pd > Duration::from_us(8) && pd < Duration::from_us(10),
            "powerdown credit {pd}"
        );
    }

    #[test]
    fn powerdown_ignores_short_gaps() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new());
        let mut at = Instant::ZERO;
        for i in 0..10u64 {
            let r = mc.access(MemTransaction::read(i * 64, at)).unwrap();
            at = r.completed_at + Duration::from_ns(50); // below min_gap
        }
        assert_eq!(mc.stats().powerdown_time, Duration::ZERO);
    }

    #[test]
    fn refreshes_interrupt_powerdown() {
        // With CBR refreshing every slot, long gaps get chopped up.
        let mut with_refresh = cbr_controller();
        with_refresh.advance_to(ms(64)).unwrap();
        let pd_refresh = with_refresh.stats().powerdown_time;
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut without = MemoryController::new(DramDevice::new(g, t), NoRefresh::new());
        without.advance_to(ms(64)).unwrap();
        // NoRefresh issues no commands at all, so no gap is ever *closed* -
        // the credit happens lazily at the next command. Issue one.
        without.access(MemTransaction::read(0, ms(64))).unwrap();
        let pd_none = without.stats().powerdown_time;
        assert!(
            pd_none > pd_refresh,
            "refresh wakeups must shrink power-down residency ({pd_refresh} vs {pd_none})"
        );
    }

    #[test]
    fn powerdown_can_be_disabled() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new())
            .with_powerdown(None)
            .unwrap();
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_ms(1),
        ))
        .unwrap();
        assert_eq!(mc.stats().powerdown_time, Duration::ZERO);
    }

    #[test]
    fn powerdown_rejects_overhead_not_smaller_than_min_gap() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let bad = PowerDownConfig {
            min_gap: Duration::from_ns(100),
            overhead: Duration::from_ns(100),
        };
        let r = MemoryController::new(DramDevice::new(g, t), NoRefresh::new())
            .with_powerdown(Some(bad));
        assert!(matches!(r, Err(SimError::Config { .. })));
    }

    #[test]
    fn powerdown_credit_saturates_on_tight_gaps() {
        // overhead one tick below min_gap: a gap barely over the threshold
        // credits a sliver — the config that used to underflow the credit.
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let tight = PowerDownConfig {
            min_gap: Duration::from_us(1),
            overhead: Duration::from_ns(999),
        };
        let mut mc = MemoryController::new(DramDevice::new(g, t), NoRefresh::new())
            .with_page_close_timeout(None)
            .with_powerdown(Some(tight))
            .unwrap();
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_ns(1_500),
        ))
        .unwrap();
        // The gap clears min_gap by well under the overhead's magnitude:
        // only the sliver above the overhead is credited, never a wrapped
        // Duration.
        let pd = mc.stats().powerdown_time;
        assert!(
            pd > Duration::ZERO && pd < Duration::from_ns(600),
            "tight-gap credit {pd}"
        );
        assert_eq!(mc.stats().powerdown_windows, 1);
    }

    fn smart_policy(g: Geometry, t: TimingParams) -> SmartRefresh {
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 8,
            hysteresis: None,
        };
        SmartRefresh::new(g, t.retention, cfg)
    }

    #[test]
    fn persistent_counters_accrue_retention_time() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t))
            .with_page_close_timeout(None);
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_us(10),
        ))
        .unwrap();
        // The SRAM is retained for the gross window, including the
        // entry/exit overhead the DRAM credit nets out — the two stats
        // differ by exactly that overhead.
        let retained = mc.stats().counter_retention_time;
        let credited = mc.stats().powerdown_time;
        assert!(retained > Duration::from_us(9), "retention time {retained}");
        assert_eq!(retained - credited, PowerDownConfig::default().overhead);
        assert_eq!(mc.stats().counters_reset_on_wake, 0);
        assert_eq!(mc.stats().counter_snapshots, 0);
    }

    #[test]
    fn conservative_reset_wipes_counters_and_degrades() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t))
            .with_page_close_timeout(None)
            .with_counter_power(CounterPowerConfig::conservative_reset());
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_us(10),
        ))
        .unwrap();
        assert_eq!(mc.stats().counters_reset_on_wake, g.total_rows());
        assert!(mc
            .policy()
            .degradation_events()
            .iter()
            .any(|e| e.cause == DegradeCause::CounterPowerLoss));
        assert!(mc.policy().in_fallback());
        assert_eq!(mc.stats().counter_retention_time, Duration::ZERO);
    }

    #[test]
    fn snapshot_counters_survive_and_charge_the_round_trip() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t))
            .with_page_close_timeout(None)
            .with_counter_power(CounterPowerConfig::snapshot(
                CounterPowerConfig::SNAPSHOT_J_PER_ENTRY,
            ));
        let a = mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        mc.access(MemTransaction::read(
            64,
            a.completed_at + Duration::from_us(10),
        ))
        .unwrap();
        assert_eq!(mc.stats().counter_snapshots, 1);
        assert_eq!(mc.stats().counter_snapshot_entries, g.total_rows());
        // State survived: no wipe, no degradation.
        assert_eq!(mc.stats().counters_reset_on_wake, 0);
        assert!(mc.policy().degradation_events().is_empty());
    }

    #[test]
    fn conservative_reset_never_exceeds_retention_deadline() {
        // Idle-heavy run: every sparse access ends a CKE-low window and
        // wipes the counters, yet no row may ever cross its retention
        // deadline — the wake-time fallback sweep must stay safe.
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t))
            .with_counter_power(CounterPowerConfig::conservative_reset())
            .with_sanitizer();
        let mut at = Instant::ZERO;
        let horizon = Instant::ZERO + t.retention * 3;
        let mut i = 0u64;
        while at < horizon {
            mc.access(MemTransaction::read(i % 512 * 8, at)).unwrap();
            mc.advance_to(at).unwrap();
            assert!(
                mc.device().check_integrity(at).is_ok(),
                "row decayed at {at}"
            );
            at += Duration::from_us(700);
            i += 1;
        }
        assert!(mc.stats().counters_reset_on_wake > 0, "no wipe exercised");
        mc.check_sanitizer(mc.now()).unwrap();
    }

    #[test]
    fn powerdown_credit_never_exceeds_elapsed_span() {
        // Deterministic property test: across random idle/busy traces the
        // accumulated CKE-low credit never exceeds the elapsed span.
        use smartrefresh_dram::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x70d0_0001);
        for trial in 0..6u64 {
            let g = small_geometry();
            let t = TimingParams::ddr2_667();
            let mut mc = MemoryController::new(DramDevice::new(g, t), smart_policy(g, t));
            let mut at = Instant::ZERO;
            for _ in 0..200 {
                let gap = Duration::from_ns(rng.gen_range(10u64..500_000));
                let addr = rng.gen_range(0u64..1024) * 8;
                let r = mc.access(MemTransaction::read(addr, at)).unwrap();
                at = r.completed_at + gap;
            }
            mc.advance_to(at).unwrap();
            let span = mc.now().since(Instant::ZERO);
            let pd = mc.stats().powerdown_time;
            assert!(
                pd <= span,
                "trial {trial}: powerdown credit {pd} exceeds span {span}"
            );
        }
    }

    #[test]
    fn dropped_refresh_is_flagged_by_retention_tracker() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let policy = smart_policy(g, t);
        let injector = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 0, 5),
            FaultKind::DropRefresh,
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), policy).with_fault_injector(injector);
        mc.advance_to(ms(130)).unwrap();
        // The injection happened and was counted on both sides.
        assert!(mc.stats().refreshes_dropped >= 1);
        assert!(mc.fault_injector().unwrap().stats().refreshes_dropped >= 1);
        // The policy degraded to its fallback, attributing the fault.
        let events = mc.policy().degradation_events();
        assert!(!events.is_empty(), "perturbation must log a degradation");
        assert_eq!(
            events[0].cause,
            smartrefresh_core::DegradeCause::FaultInjection
        );
        // Detection: the starved row fails the retention check — the
        // injected fault is never silent.
        assert!(mc.device().check_integrity(ms(130)).is_err());
    }

    #[test]
    fn delayed_refreshes_are_counted_and_still_issued() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let policy = smart_policy(g, t);
        let injector = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::ANY,
            FaultKind::DelayRefresh {
                delay: Duration::from_ns(100),
            },
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), policy).with_fault_injector(injector);
        mc.advance_to(ms(70)).unwrap();
        assert!(mc.stats().refreshes_delayed >= 1);
        // Delayed, not dropped: the refreshes still reached the device.
        assert!(mc.device().stats().ras_only_refreshes >= 1);
        assert!(
            mc.policy().in_fallback(),
            "perturbation degrades the policy"
        );
    }

    #[test]
    fn stalled_dispatch_overflows_queue_and_degrades() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 2,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        // Dispatch is suspended across the whole first retention interval,
        // so the tiny queue must overflow when the idle rows expire.
        let injector = FaultInjector::new().with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            Instant::ZERO,
            ms(70),
            FaultKind::StallDispatch,
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), policy).with_fault_injector(injector);
        mc.advance_to(ms(140)).unwrap();
        assert!(mc.fault_injector().unwrap().stats().dispatches_stalled >= 1);
        let events = mc.policy().degradation_events();
        assert!(
            events
                .iter()
                .any(|e| e.cause == smartrefresh_core::DegradeCause::QueueOverflow),
            "stalled dispatch must force a queue-overflow degradation: {events:?}"
        );
    }

    #[test]
    fn weak_cell_fault_applies_at_injector_install() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let injector = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 1, 3),
            FaultKind::WeakCell {
                deadline: Duration::from_ms(1),
            },
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
                .with_fault_injector(injector);
        assert_eq!(mc.fault_injector().unwrap().stats().weak_rows_applied, 1);
        // The CBR sweep restores the weak row far past its tightened 1 ms
        // deadline; the tracker's inline check reports the late window.
        mc.advance_to(ms(64)).unwrap();
        assert!(
            !mc.device().retention().late_restores().is_empty(),
            "a weak row restored on the 64 ms schedule must be flagged late"
        );
    }

    #[test]
    fn external_scrub_resets_counter_and_counts() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        let mut mc = MemoryController::new(DramDevice::new(g, t), policy);
        mc.issue_scrub(5, ms(1)).unwrap();
        mc.issue_forced_scrub(6, ms(2)).unwrap();
        assert_eq!(mc.stats().scrubs_issued, 1);
        assert_eq!(mc.stats().forced_scrubs, 1);
        assert_eq!(mc.device().stats().scrubs, 2);
        // The scrub restored the rows' charge through the policy hook
        // (on_row_scrubbed forwards to the counter-reset path).
        assert!(mc.policy().stats().access_resets >= 2);
        // Out-of-range targets are a config error, not a panic.
        assert!(matches!(
            mc.issue_scrub(1 << 40, ms(3)),
            Err(SimError::Config { .. })
        ));
    }

    #[test]
    fn scrub_would_close_page_tracks_bank_state() {
        let mut mc = cbr_controller();
        let g = *mc.device().geometry();
        assert!(!mc.scrub_would_close_page(0), "banks start precharged");
        mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        // Row 0 of bank 0 is now open: any row of that bank is costly,
        // rows of the other bank are not.
        assert!(mc.scrub_would_close_page(0));
        let other_bank = g.unflatten(u64::from(g.rows())); // bank 1, row 0
        assert_eq!(other_bank.bank, 1);
        assert!(!mc.scrub_would_close_page(u64::from(g.rows())));
    }

    #[test]
    fn ce_export_drains_and_clears() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let injector = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 0, 0),
            FaultKind::BitFlip { bits: 1 },
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
                .with_fault_injector(injector)
                .with_ecc(crate::EccConfig::new(7).with_ce_export());
        mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        assert_eq!(mc.stats().ce_corrected, 1);
        assert_eq!(mc.drain_ce_rows(), vec![0]);
        assert!(mc.drain_ce_rows().is_empty(), "drain clears the log");
    }

    #[test]
    fn without_export_the_ce_log_stays_empty() {
        use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let injector = FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 0, 0),
            FaultKind::BitFlip { bits: 1 },
        ));
        let mut mc =
            MemoryController::new(DramDevice::new(g, t), CbrDistributed::new(g, t.retention))
                .with_fault_injector(injector)
                .with_ecc(crate::EccConfig::new(7));
        mc.access(MemTransaction::read(0, Instant::ZERO)).unwrap();
        assert_eq!(mc.stats().ce_corrected, 1);
        assert!(mc.drain_ce_rows().is_empty());
    }

    #[test]
    fn degrade_policy_forwards_to_the_policy() {
        let g = small_geometry();
        let t = TimingParams::ddr2_667();
        let cfg = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 4,
            hysteresis: None,
        };
        let policy = SmartRefresh::new(g, t.retention, cfg);
        let mut mc = MemoryController::new(DramDevice::new(g, t), policy);
        mc.degrade_policy(DegradeCause::RetentionWatchdog, ms(1));
        assert!(mc.policy().in_fallback());
    }

    #[test]
    fn accesses_delayed_by_refresh_busy_bank() {
        let mut mc = cbr_controller();
        // Advance so a refresh lands exactly at 1 ms in bank 0 (slot walk).
        mc.advance_to(ms(64)).unwrap();
        // Immediately access bank the refresh targeted; the access at the
        // same instant as a refresh sees a busy bank.
        let slot = mc.policy().slot();
        let next_refresh_due = Instant::ZERO + Duration::from_ms(64) + slot;
        let tx = MemTransaction::read(0, next_refresh_due);
        let r = mc.access(tx).unwrap();
        let lat = r.completed_at.since(tx.arrival);
        assert!(
            lat >= mc.device().timing().row_miss_latency(),
            "latency at least the miss latency"
        );
    }
}
