//! The DRAM device model.
//!
//! [`DramDevice`] combines the geometry, timing, per-bank state machines, the
//! CBR internal refresh-address counters, retention tracking and operation
//! statistics into the component a memory controller issues commands to.
//!
//! The model is event-granular rather than cycle-by-cycle: each command
//! executes instantaneously at an `Instant`, reserving its bank until the
//! datasheet-accurate completion time. That is exactly the level of detail
//! the paper's results depend on — refresh counts, refresh/bank-state
//! interactions, bank occupancy (for the Fig 18 latency results) and row
//! open-time (for background power).

use crate::bank::Bank;
use crate::error::DramError;
use crate::geometry::{Geometry, RowAddr};
use crate::protocol::{ProtocolChecker, RefreshClass, SanitizerReport};
use crate::rank::RankState;
use crate::retention::RetentionTracker;
use crate::stats::OpStats;
use crate::time::{Duration, Instant};
use crate::timing::TimingParams;

/// Outcome of a successfully issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// When the addressed bank becomes available for the next command.
    pub bank_ready_at: Instant,
    /// When the requested data is available (reads) or the operation's
    /// effect is complete. Equal to `bank_ready_at` for non-data commands.
    pub completed_at: Instant,
    /// For refresh commands: true when the bank had an open page that had to
    /// be written back and precharged first (extra energy and time).
    pub closed_open_page: bool,
}

/// Subarray-level refresh/access parallelism (SARP) state: each bank is
/// split into independently sensable subarrays, and a refresh whose target
/// row lies in a different subarray than the bank's open page proceeds
/// without closing it. Only the target subarray's sense amplifiers are
/// occupied, tracked here as a busy-until horizon per (bank, subarray).
#[derive(Debug, Clone)]
struct SarpState {
    subarrays: u32,
    /// Rows per subarray (ceiling division of the per-bank row count).
    rows_per_subarray: u32,
    /// Busy-until horizon, indexed `flat_bank * subarrays + subarray`.
    busy: Vec<Instant>,
}

/// A DDR2-style DRAM module.
///
/// # Examples
///
/// ```
/// use smartrefresh_dram::{DramDevice, Geometry, TimingParams};
/// use smartrefresh_dram::time::Instant;
///
/// let mut dev = DramDevice::new(Geometry::new(1, 4, 64, 32, 64), TimingParams::ddr2_667());
/// let bank = dev.geometry().bank_index(0, 0) as usize;
/// let act = dev.activate_at(bank, 3, Instant::ZERO)?;
/// let rd = dev.read_at(bank, 3, 0, act.bank_ready_at)?;
/// assert!(rd.completed_at > act.bank_ready_at);
/// # Ok::<(), smartrefresh_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramDevice {
    geometry: Geometry,
    timing: TimingParams,
    banks: Vec<Bank>,
    /// CBR internal refresh row counter, one per (rank, bank).
    cbr_row_counters: Vec<u32>,
    /// tRRD/tFAW activation windows, one per rank.
    ranks: Vec<RankState>,
    /// Bitset of banks with an open row (bit `i % 64` of word `i / 64` for
    /// flat bank index `i`), maintained by the three activate/precharge
    /// mutation paths. Lets the controller's idle-page sweep visit only
    /// open banks instead of scanning the whole device.
    open_mask: Vec<u64>,
    retention: RetentionTracker,
    stats: OpStats,
    /// Optional shadow conformance checker; one branch per command when
    /// disabled (`None`), full DDR2 + Smart-Refresh validation when enabled.
    checker: Option<Box<ProtocolChecker>>,
    /// Opt-in SARP capability; `None` keeps every refresh bank-granular.
    sarp: Option<SarpState>,
}

impl DramDevice {
    /// Creates a device with all banks precharged and all rows considered
    /// freshly restored at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `timing` fails [`TimingParams::validate`].
    pub fn new(geometry: Geometry, timing: TimingParams) -> Self {
        timing.validate();
        let nbanks = geometry.total_banks() as usize;
        DramDevice {
            banks: vec![Bank::new(); nbanks],
            cbr_row_counters: vec![0; nbanks],
            ranks: vec![RankState::new(); geometry.ranks() as usize],
            open_mask: vec![0; nbanks.div_ceil(64)],
            retention: RetentionTracker::new(&geometry, timing.retention),
            geometry,
            timing,
            stats: OpStats::new(),
            checker: None,
            sarp: None,
        }
    }

    /// Enables subarray-level refresh/access parallelism (SARP): each bank
    /// is treated as `subarrays` independently sensable subarrays, so a
    /// refresh whose target row lies in a different subarray than the
    /// bank's open page proceeds *without* closing the page. Off by
    /// default — every refresh then behaves exactly as before. Call right
    /// after construction; re-enabling resets the subarray busy horizons.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the per-bank row count.
    pub fn enable_subarrays(&mut self, subarrays: u32) {
        assert!(subarrays > 0, "need at least one subarray");
        assert!(
            subarrays <= self.geometry.rows(),
            "more subarrays than rows per bank"
        );
        let nbanks = self.geometry.total_banks() as usize;
        self.sarp = Some(SarpState {
            subarrays,
            rows_per_subarray: self.geometry.rows().div_ceil(subarrays),
            busy: vec![Instant::ZERO; nbanks * subarrays as usize],
        });
    }

    /// Subarrays per bank (1 when SARP is disabled).
    pub fn subarrays(&self) -> u32 {
        self.sarp.as_ref().map_or(1, |s| s.subarrays)
    }

    /// Earliest instant the subarray holding `addr.row` accepts a new sense
    /// operation. Always `Instant::ZERO` when SARP is disabled: bank-level
    /// busy tracking already covers the whole bank, so there is nothing
    /// finer-grained to wait for.
    pub fn earliest_subarray_ready(&self, addr: RowAddr) -> Instant {
        match &self.sarp {
            None => Instant::ZERO,
            Some(s) => {
                let bi = self.geometry.bank_index(addr.rank, addr.bank) as usize;
                s.busy[bi * s.subarrays as usize + (addr.row / s.rows_per_subarray) as usize]
            }
        }
    }

    /// Enables the shadow protocol checker (the conformance sanitizer).
    ///
    /// Call right after construction: the checker assumes it observes the
    /// command stream from time zero. Idempotent — re-enabling resets the
    /// shadow state.
    pub fn enable_protocol_checker(&mut self) {
        self.checker = Some(Box::new(ProtocolChecker::new(self.geometry, self.timing)));
    }

    /// The shadow protocol checker, when enabled.
    pub fn protocol_checker(&self) -> Option<&ProtocolChecker> {
        self.checker.as_deref()
    }

    /// Runs the checker's end-of-run cross-check against the retention
    /// tracker and returns the full violation report, or `None` when the
    /// checker is disabled. Non-destructive: may be called at multiple
    /// checkpoints.
    pub fn sanitizer_report(&self, now: Instant) -> Option<SanitizerReport> {
        self.checker.as_deref().map(|c| SanitizerReport {
            violations: c.finalize(&self.retention, now),
            commands_checked: c.commands_checked(),
        })
    }

    /// Tells the checker the controller reset the Smart-Refresh time-out
    /// counter for flat row `flat` (policy open/close/scrub hook fired).
    /// No-op when the checker is disabled.
    pub fn note_policy_reset(&mut self, flat: u64) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.note_policy_reset(flat);
        }
    }

    /// Tells the checker a pending refresh for `(rank, bank)` that fell due
    /// at `due` was dispatched at `issued` (per-bank deferral-bound check;
    /// a violation names the bank). No-op when disabled.
    pub fn note_refresh_dispatch(&mut self, rank: u32, bank: u32, due: Instant, issued: Instant) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.note_refresh_dispatch(rank, bank, due, issued);
        }
    }

    /// Tells the checker the controller credited a CKE-low power-down
    /// window `[from, to]` under minimum-gap `min_gap`. No-op when disabled.
    pub fn note_powerdown(&mut self, from: Instant, to: Instant, min_gap: Duration) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.note_powerdown(from, to, min_gap);
        }
    }

    /// Tells the checker the controller's counter SRAM is power-gated with
    /// the DRAM and does not survive CKE-low windows. No-op when disabled.
    pub fn declare_volatile_counters(&mut self) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.declare_volatile_counters();
        }
    }

    /// Tells the checker the refresh policy consumed its counter state at
    /// `at`, where `valid_from` is when that state was last wholly
    /// rewritten (counter-survival check). No-op when disabled.
    pub fn note_counter_read(&mut self, at: Instant, valid_from: Instant) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.note_counter_read(at, valid_from);
        }
    }

    /// Tells the checker the controller runs DDR5-style Refresh Management
    /// with thresholds `(raaimt, raammt)`, arming its `rfm-budget` shadow
    /// RAA accounting. No-op when the checker is disabled.
    pub fn declare_rfm(&mut self, raaimt: u32, raammt: u32) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.declare_rfm(raaimt, raammt);
        }
    }

    /// Tells the checker no row may accumulate more than `ceiling`
    /// adjacent-row ACTs between charge restores, arming its
    /// `disturbance-window` rule. No-op when the checker is disabled.
    pub fn declare_disturbance_ceiling(&mut self, ceiling: u32) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.declare_disturbance_ceiling(ceiling);
        }
    }

    /// Tells the checker the controller issued one RFM command to
    /// `(rank, bank)` (one RAAIMT decrement on the shadow RAA counter).
    /// No-op when the checker is disabled.
    pub fn note_rfm(&mut self, rank: u32, bank: u32) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.note_rfm(rank, bank);
        }
    }

    /// The module geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The retention tracker (for integrity checks and optimality metrics).
    pub fn retention(&self) -> &RetentionTracker {
        &self.retention
    }

    /// Mutable retention-tracker access, for fault injection: tightening a
    /// row's deadline (weak cell / VRT) or scaling all deadlines with
    /// temperature. The tracker still *checks* the perturbed deadlines; the
    /// refresh policy is deliberately not told.
    pub fn retention_mut(&mut self) -> &mut RetentionTracker {
        &mut self.retention
    }

    /// Installs a per-row retention profile so integrity checks validate
    /// against each row's true (variable) deadline instead of the worst
    /// case. Used by the retention-aware experiments.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover the module's rows.
    pub fn apply_retention_profile(&mut self, profile: &crate::profile::RetentionProfile) {
        self.retention.apply_profile(profile);
    }

    /// Bank state, for scheduling decisions by the controller.
    #[inline]
    pub fn bank(&self, rank: u32, bank: u32) -> &Bank {
        &self.banks[self.geometry.bank_index(rank, bank) as usize]
    }

    /// Bank state by flat bank index ([`Geometry::bank_index`]), for a
    /// caller that has already resolved its `(rank, bank)` pair once.
    ///
    /// # Panics
    ///
    /// Panics if `bank_index >= total_banks()`.
    #[inline]
    pub fn bank_at(&self, bank_index: usize) -> &Bank {
        &self.banks[bank_index]
    }

    /// Earliest instant an ACTIVATE to `rank` satisfies tRRD and tFAW.
    #[inline]
    pub fn earliest_activate(&self, rank: u32) -> Instant {
        self.ranks[rank as usize].earliest_activate(self.timing.trrd, self.timing.tfaw)
    }

    /// Total row-open time summed over all banks up to `now` (for
    /// active-standby background energy).
    pub fn total_open_time(&self, now: Instant) -> Duration {
        self.banks.iter().map(|b| b.open_time(now)).sum()
    }

    /// Validates `row` of the bank with flat index `bi` and resolves its
    /// flat row index (into the retention tracker). Every command carries
    /// the two flat indices through its body instead of looking the bank
    /// or row up again.
    #[inline]
    fn flat_at(&self, bi: usize, row: u32) -> Result<u64, DramError> {
        if bi >= self.banks.len() || row >= self.geometry.rows() {
            return Err(DramError::AddressOutOfRange {
                addr: self.geometry.row_at(bi, row),
            });
        }
        Ok(self.flat_row(bi, row))
    }

    /// Flat row index of `row` in the bank with flat index `bi`: the
    /// [`Geometry::flatten`] value without re-validating the bank.
    #[inline]
    fn flat_row(&self, bi: usize, row: u32) -> u64 {
        bi as u64 * u64::from(self.geometry.rows()) + u64::from(row)
    }

    /// Sets or clears a bank's bit in the open-row bitset. Called on every
    /// path that opens (activate) or closes (precharge, refresh-implicit
    /// precharge) a row, keeping the bitset exact.
    #[inline]
    fn mark_open(&mut self, i: usize, open: bool) {
        if open {
            self.open_mask[i / 64] |= 1 << (i % 64);
        } else {
            self.open_mask[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The open-row bitset: bit `i % 64` of word `i / 64` is set exactly
    /// when flat bank index `i` has an open row. Lets sweeps over open
    /// pages (e.g. the controller's idle-page closer) skip precharged
    /// banks without touching per-bank state.
    pub fn open_banks(&self) -> &[u64] {
        &self.open_mask
    }

    /// Rejects a command to the bank with flat index `bi` that arrives
    /// before the bank is free.
    #[inline]
    fn require_ready(&self, bi: usize, now: Instant) -> Result<(), DramError> {
        let b = &self.banks[bi];
        if !b.is_ready(now) {
            let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, 0);
            return Err(DramError::BankBusy {
                rank,
                bank,
                ready_at: b.busy_until(),
            });
        }
        Ok(())
    }

    /// Issues ACTIVATE: opens `row` in the bank with flat index
    /// `bank_index` ([`Geometry::bank_index`]).
    ///
    /// Opening a row senses (and thus destroys-then-restores) its cells, so
    /// this also counts as a charge restore for retention purposes — the
    /// physical fact Smart Refresh exploits.
    ///
    /// # Errors
    ///
    /// [`DramError::BankBusy`], [`DramError::BankAlreadyOpen`],
    /// [`DramError::ActivateTooSoon`], or [`DramError::AddressOutOfRange`]
    /// for an out-of-range `bank_index` or `row`.
    pub fn activate_at(
        &mut self,
        bank_index: usize,
        row: u32,
        now: Instant,
    ) -> Result<OpOutcome, DramError> {
        let bi = bank_index;
        let flat = self.flat_at(bi, row)?;
        self.require_ready(bi, now)?;
        if let Some(open) = self.banks[bi].open_row() {
            let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, row);
            return Err(DramError::BankAlreadyOpen {
                rank,
                bank,
                open_row: open,
            });
        }
        let rank = self.geometry.row_at(bi, row).rank as usize;
        let window = self.ranks[rank].earliest_activate(self.timing.trrd, self.timing.tfaw);
        if now < window {
            return Err(DramError::ActivateTooSoon {
                rank: rank as u32,
                earliest: window,
            });
        }
        self.ranks[rank].record_activate(now);
        let (trcd, tras) = (self.timing.trcd, self.timing.tras);
        self.banks[bi].do_activate(row, now, trcd, tras);
        self.mark_open(bi, true);
        // The restore completes with the sense/restore phase (tRAS window);
        // we credit it at activate+tRAS, conservatively within the deadline.
        self.retention.restore(flat, now + tras);
        self.stats.activates += 1;
        if let Some(c) = self.checker.as_deref_mut() {
            c.observe_activate(self.geometry.row_at(bi, row), now);
        }
        Ok(OpOutcome {
            bank_ready_at: now + trcd,
            completed_at: now + trcd,
            closed_open_page: false,
        })
    }

    fn column_access(
        &mut self,
        bi: usize,
        row: u32,
        column: u32,
        now: Instant,
        is_write: bool,
    ) -> Result<OpOutcome, DramError> {
        self.flat_at(bi, row)?;
        if column >= self.geometry.columns() {
            return Err(DramError::AddressOutOfRange {
                addr: self.geometry.row_at(bi, row),
            });
        }
        self.require_ready(bi, now)?;
        match self.banks[bi].open_row() {
            None => {
                let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, row);
                return Err(DramError::NoOpenRow { rank, bank });
            }
            Some(open) if open != row => {
                return Err(DramError::RowMismatch {
                    requested: row,
                    open_row: open,
                })
            }
            Some(_) => {}
        }
        let tburst = self.timing.tburst;
        let tcl = self.timing.tcl;
        let twr = self.timing.twr;
        let b = &mut self.banks[bi];
        b.do_column_access(now, tburst);
        if is_write {
            // Write recovery: the row may not close until tWR after the
            // last data beat.
            b.extend_precharge_floor(now + tcl + tburst + twr);
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if let Some(c) = self.checker.as_deref_mut() {
            c.observe_column(self.geometry.row_at(bi, row), now, is_write);
        }
        Ok(OpOutcome {
            bank_ready_at: now + tburst,
            completed_at: now + tcl + tburst,
            closed_open_page: false,
        })
    }

    /// Issues READ of `column` from the open `row` of the bank with flat
    /// index `bank_index`.
    ///
    /// # Errors
    ///
    /// [`DramError::NoOpenRow`], [`DramError::RowMismatch`],
    /// [`DramError::BankBusy`] or [`DramError::AddressOutOfRange`].
    pub fn read_at(
        &mut self,
        bank_index: usize,
        row: u32,
        column: u32,
        now: Instant,
    ) -> Result<OpOutcome, DramError> {
        self.column_access(bank_index, row, column, now, false)
    }

    /// Issues WRITE of `column` into the open `row` of the bank with flat
    /// index `bank_index`.
    ///
    /// # Errors
    ///
    /// As [`read_at`](Self::read_at).
    pub fn write_at(
        &mut self,
        bank_index: usize,
        row: u32,
        column: u32,
        now: Instant,
    ) -> Result<OpOutcome, DramError> {
        self.column_access(bank_index, row, column, now, true)
    }

    /// Issues PRECHARGE: writes the open row of the bank with flat index
    /// `bank_index` back and closes the bank.
    ///
    /// Closing a page rewrites the cells, so this is also a charge restore
    /// (the paper resets the row's time-out counter here too, §4.1).
    ///
    /// # Errors
    ///
    /// [`DramError::NoOpenRow`], [`DramError::BankBusy`] or
    /// [`DramError::PrechargeTooEarly`].
    ///
    /// # Panics
    ///
    /// Panics if `bank_index >= total_banks()`.
    pub fn precharge_at(
        &mut self,
        bank_index: usize,
        now: Instant,
    ) -> Result<OpOutcome, DramError> {
        let bi = bank_index;
        self.require_ready(bi, now)?;
        let b = &self.banks[bi];
        if b.open_row().is_none() {
            let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, 0);
            return Err(DramError::NoOpenRow { rank, bank });
        }
        if now < b.earliest_precharge() {
            return Err(DramError::PrechargeTooEarly {
                earliest: b.earliest_precharge(),
            });
        }
        let trp = self.timing.trp;
        let Some(row) = self.banks[bi].do_precharge(now, trp) else {
            let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, 0);
            return Err(DramError::NoOpenRow { rank, bank });
        };
        self.mark_open(bi, false);
        self.retention.restore(self.flat_row(bi, row), now);
        self.stats.precharges += 1;
        if let Some(c) = self.checker.as_deref_mut() {
            let RowAddr { rank, bank, .. } = self.geometry.row_at(bi, row);
            c.observe_precharge(rank, bank, Some(row), now);
        }
        Ok(OpOutcome {
            bank_ready_at: now + trp,
            completed_at: now + trp,
            closed_open_page: false,
        })
    }

    /// Validates every coordinate of `addr`, then runs
    /// [`refresh_common`](Self::refresh_common) on it.
    fn refresh_row(
        &mut self,
        addr: RowAddr,
        now: Instant,
        class: RefreshClass,
    ) -> Result<OpOutcome, DramError> {
        let g = &self.geometry;
        if addr.rank >= g.ranks() || addr.bank >= g.banks() || addr.row >= g.rows() {
            return Err(DramError::AddressOutOfRange { addr });
        }
        let bi = g.bank_index(addr.rank, addr.bank) as usize;
        self.refresh_common(bi, addr.row, now, class)
    }

    /// The shared body of every row-restoring refresh command, for the
    /// in-range `row` of the bank with flat index `bi`.
    fn refresh_common(
        &mut self,
        bi: usize,
        row: u32,
        now: Instant,
        class: RefreshClass,
    ) -> Result<OpOutcome, DramError> {
        self.require_ready(bi, now)?;
        let open_row = self.banks[bi].open_row();
        // SARP: with subarrays enabled, a refresh whose target row lives in
        // a different subarray than the open page overlaps the access — the
        // page stays open and only the target subarray goes busy.
        if let (Some(open), Some(s)) = (open_row, self.sarp.as_ref()) {
            if open / s.rows_per_subarray != row / s.rows_per_subarray {
                return self.refresh_sarp_overlap(bi, row, now, class);
            }
        }
        let mut start = now;
        let mut closed_open_page = false;
        let mut pre = None;
        // A refresh arriving at a bank with an open page implicitly writes the
        // page back and precharges first (extra time and energy, §7.1),
        // honouring the tRAS / write-recovery floor.
        if open_row.is_some() {
            let trp = self.timing.trp;
            let pre_at = now.max(self.banks[bi].earliest_precharge());
            if let Some(closed) = self.banks[bi].do_precharge(pre_at, trp) {
                self.mark_open(bi, false);
                self.retention.restore(self.flat_row(bi, closed), pre_at);
                pre = Some((closed, pre_at));
            }
            start = pre_at + trp;
            closed_open_page = true;
            self.stats.refreshes_closing_open_page += 1;
        }
        let trfc = self.timing.trfc;
        self.banks[bi].do_refresh(start, trfc);
        let done = start + trfc;
        self.retention.restore(self.flat_row(bi, row), done);
        if let Some(c) = self.checker.as_deref_mut() {
            c.observe_refresh(self.geometry.row_at(bi, row), now, pre, start, class);
        }
        Ok(OpOutcome {
            bank_ready_at: done,
            completed_at: done,
            closed_open_page,
        })
    }

    /// The SARP overlap arm of [`refresh_common`](Self::refresh_common):
    /// the bank state machine is deliberately untouched (the open page
    /// stays open, the bank stays available to demand accesses); the
    /// target subarray alone is occupied for tRFC, serialising
    /// back-to-back overlapped refreshes into the same subarray.
    fn refresh_sarp_overlap(
        &mut self,
        bi: usize,
        row: u32,
        now: Instant,
        class: RefreshClass,
    ) -> Result<OpOutcome, DramError> {
        let trfc = self.timing.trfc;
        // The caller only takes this arm with subarray state present; if it
        // ever were absent the overlap degrades to an unserialised refresh
        // rather than a panic.
        let mut start = now;
        if let Some(s) = self.sarp.as_mut() {
            let idx = bi * s.subarrays as usize + (row / s.rows_per_subarray) as usize;
            start = now.max(s.busy[idx]);
            s.busy[idx] = start + trfc;
        }
        let done = start + trfc;
        self.retention.restore(self.flat_row(bi, row), done);
        self.stats.sarp_overlapped_refreshes += 1;
        if let Some(c) = self.checker.as_deref_mut() {
            c.observe_sarp_refresh(self.geometry.row_at(bi, row), start, class);
        }
        Ok(OpOutcome {
            // The bank is never reserved: demand accesses to other
            // subarrays proceed immediately.
            bank_ready_at: now,
            completed_at: done,
            closed_open_page: false,
        })
    }

    /// Issues a CBR (CAS-before-RAS) refresh to `(rank, bank)`.
    ///
    /// The module's internal address counter selects the row and then
    /// increments, wrapping at the row count — the controller cannot choose
    /// or reset it (§3). Returns the row that was refreshed alongside the
    /// outcome.
    ///
    /// # Errors
    ///
    /// [`DramError::BankBusy`] if the bank has not finished its previous
    /// operation.
    pub fn refresh_cbr(
        &mut self,
        rank: u32,
        bank: u32,
        now: Instant,
    ) -> Result<(OpOutcome, u32), DramError> {
        let bi = self.geometry.bank_index(rank, bank) as usize;
        let row = self.cbr_row_counters[bi];
        let outcome = self.refresh_common(bi, row, now, RefreshClass::Cbr)?;
        // The internal counter wraps at the row count.
        let next = row + 1;
        self.cbr_row_counters[bi] = if next == self.geometry.rows() {
            0
        } else {
            next
        };
        self.stats.cbr_refreshes += 1;
        Ok((outcome, row))
    }

    /// Issues a RAS-only refresh of an explicit row (the controller puts the
    /// row address on the address bus, §3). This is the mechanism Smart
    /// Refresh uses, at the cost of bus energy accounted by the energy model.
    ///
    /// # Errors
    ///
    /// [`DramError::BankBusy`] or [`DramError::AddressOutOfRange`].
    pub fn refresh_ras_only(
        &mut self,
        addr: RowAddr,
        now: Instant,
    ) -> Result<OpOutcome, DramError> {
        let outcome = self.refresh_row(addr, now, RefreshClass::RasOnly)?;
        self.stats.ras_only_refreshes += 1;
        Ok(outcome)
    }

    /// Patrol-scrub of one row: the row is read in a RAS cycle (occupying
    /// the bank exactly like a RAS-only refresh, closing any open page
    /// first) and its charge is restored. The ECC check/correction itself
    /// happens in the controller; the device only models the bank timing
    /// and the retention restore. Counted in [`OpStats::scrubs`], *not* in
    /// [`OpStats::total_refreshes`], so refresh-rate figures stay
    /// comparable and scrub overhead is charged separately.
    ///
    /// [`OpStats::scrubs`]: crate::stats::OpStats
    /// [`OpStats::total_refreshes`]: crate::stats::OpStats::total_refreshes
    ///
    /// # Errors
    ///
    /// [`DramError::BankBusy`] or [`DramError::AddressOutOfRange`].
    pub fn scrub_row(&mut self, addr: RowAddr, now: Instant) -> Result<OpOutcome, DramError> {
        let outcome = self.refresh_row(addr, now, RefreshClass::Scrub)?;
        self.stats.scrubs += 1;
        Ok(outcome)
    }

    /// RFM victim refresh of one row: a RAS cycle issued by the Refresh
    /// Management engine against a hammer victim, restoring its charge and
    /// occupying the bank like a RAS-only refresh. Counted in
    /// [`OpStats::rfm_refreshes`], *not* in [`OpStats::total_refreshes`],
    /// so refresh-rate figures stay comparable and the mitigation overhead
    /// is priced separately by the energy model.
    ///
    /// [`OpStats::rfm_refreshes`]: crate::stats::OpStats
    /// [`OpStats::total_refreshes`]: crate::stats::OpStats::total_refreshes
    ///
    /// # Errors
    ///
    /// [`DramError::BankBusy`] or [`DramError::AddressOutOfRange`].
    pub fn refresh_rfm(&mut self, addr: RowAddr, now: Instant) -> Result<OpOutcome, DramError> {
        let outcome = self.refresh_row(addr, now, RefreshClass::Rfm)?;
        self.stats.rfm_refreshes += 1;
        Ok(outcome)
    }

    /// Verifies that no row has exceeded the retention deadline as of `now`.
    ///
    /// # Errors
    ///
    /// Returns the flat indices of decayed rows. An `Err` from this method
    /// means the refresh policy under test has a *correctness* bug.
    pub fn check_integrity(&self, now: Instant) -> Result<(), Vec<u64>> {
        let v = self.retention.violations(now);
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DramDevice {
        DramDevice::new(Geometry::new(1, 2, 16, 8, 64), TimingParams::ddr2_667())
    }

    fn row(bank: u32, row: u32) -> RowAddr {
        RowAddr { rank: 0, bank, row }
    }

    /// Flat bank index of `bank` in rank 0, through the geometry.
    fn bi(d: &DramDevice, bank: u32) -> usize {
        d.geometry().bank_index(0, bank) as usize
    }

    #[test]
    fn read_requires_activate_first() {
        let mut d = dev();
        let err = d.read_at(bi(&d, 0), 3, 0, Instant::ZERO).unwrap_err();
        assert!(matches!(err, DramError::NoOpenRow { .. }));
    }

    #[test]
    fn full_access_cycle_updates_stats_and_retention() {
        let mut d = dev();
        let a = row(0, 3);
        let t0 = Instant::ZERO;
        let act = d.activate_at(bi(&d, a.bank), a.row, t0).unwrap();
        let rd = d
            .read_at(bi(&d, a.bank), a.row, 2, act.bank_ready_at)
            .unwrap();
        let pre_time = d.bank(0, 0).earliest_precharge().max(rd.bank_ready_at);
        d.precharge_at(bi(&d, 0), pre_time).unwrap();
        assert_eq!(d.stats().activates, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().precharges, 1);
        // Retention restored at precharge time (later than activate+tRAS).
        assert_eq!(
            d.retention().last_restore(d.geometry().flatten(a)),
            pre_time
        );
    }

    #[test]
    fn activate_while_open_is_rejected() {
        let mut d = dev();
        d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let t = Instant::ZERO + Duration::from_us(1);
        let err = d.activate_at(bi(&d, 0), 2, t).unwrap_err();
        assert!(matches!(
            err,
            DramError::BankAlreadyOpen { open_row: 1, .. }
        ));
    }

    #[test]
    fn early_precharge_is_rejected() {
        let mut d = dev();
        let act = d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let err = d.precharge_at(bi(&d, 0), act.bank_ready_at).unwrap_err();
        assert!(matches!(err, DramError::PrechargeTooEarly { .. }));
    }

    #[test]
    fn busy_bank_rejects_commands() {
        let mut d = dev();
        d.refresh_ras_only(row(0, 5), Instant::ZERO).unwrap();
        let err = d
            .activate_at(bi(&d, 0), 1, Instant::ZERO + Duration::from_ns(10))
            .unwrap_err();
        assert!(matches!(err, DramError::BankBusy { .. }));
    }

    #[test]
    fn cbr_counter_walks_rows_and_wraps() {
        let mut d = dev();
        let mut now = Instant::ZERO;
        let mut seen = Vec::new();
        for _ in 0..18 {
            let (out, r) = d.refresh_cbr(0, 1, now).unwrap();
            seen.push(r);
            now = out.bank_ready_at;
        }
        assert_eq!(&seen[..4], &[0, 1, 2, 3]);
        assert_eq!(seen[16], 0, "counter wraps at 16 rows");
        assert_eq!(d.stats().cbr_refreshes, 18);
    }

    #[test]
    fn cbr_counters_are_per_bank() {
        let mut d = dev();
        d.refresh_cbr(0, 0, Instant::ZERO).unwrap();
        let (_, r) = d
            .refresh_cbr(0, 1, Instant::ZERO + Duration::from_us(1))
            .unwrap();
        assert_eq!(r, 0, "bank 1 counter unaffected by bank 0 refreshes");
    }

    #[test]
    fn refresh_into_open_bank_closes_page_and_flags_it() {
        let mut d = dev();
        d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let t = Instant::ZERO + Duration::from_us(1);
        let out = d.refresh_ras_only(row(0, 7), t).unwrap();
        assert!(out.closed_open_page);
        assert_eq!(d.stats().refreshes_closing_open_page, 1);
        assert!(d.bank(0, 0).is_precharged());
        // Occupies trp + trfc instead of just trfc.
        assert_eq!(out.bank_ready_at, t + d.timing().trp + d.timing().trfc);
    }

    #[test]
    fn scrub_restores_retention_and_counts_separately() {
        let mut d = dev();
        let t = Instant::ZERO + Duration::from_ms(60);
        let out = d.scrub_row(row(0, 3), t).unwrap();
        assert_eq!(out.bank_ready_at, t + d.timing().trfc);
        assert_eq!(d.stats().scrubs, 1);
        assert_eq!(d.stats().total_refreshes(), 0, "scrubs are not refreshes");
        let flat = d.geometry().flatten(row(0, 3));
        assert_eq!(d.retention().last_restore(flat), out.completed_at);
    }

    #[test]
    fn integrity_detects_decay_and_refresh_fixes_it() {
        let mut d = dev();
        let late = Instant::ZERO + Duration::from_ms(65);
        assert!(d.check_integrity(late).is_err());
        let mut now = late;
        for b in 0..2 {
            for r in 0..16 {
                let out = d.refresh_ras_only(row(b, r), now).unwrap();
                now = out.bank_ready_at;
            }
        }
        assert!(d.check_integrity(now).is_ok());
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        // dev(): 1 rank, 2 banks, 16 rows, 8 columns. Every row command
        // rejects each out-of-range coordinate.
        let bads = [
            RowAddr {
                rank: 1,
                bank: 0,
                row: 0,
            },
            RowAddr {
                rank: 0,
                bank: 9,
                row: 0,
            },
            RowAddr {
                rank: 0,
                bank: 0,
                row: 16,
            },
        ];
        let mut d = dev();
        let t = Instant::ZERO;
        for bad in bads {
            let results = [
                d.refresh_ras_only(bad, t),
                d.scrub_row(bad, t),
                d.refresh_rfm(bad, t),
            ];
            for r in results {
                assert_eq!(r, Err(DramError::AddressOutOfRange { addr: bad }));
            }
        }
        // The flat-index commands name the coordinates of the bank index
        // in the error: index 9 is rank 4, bank 1.
        let bank9 = RowAddr {
            rank: 4,
            bank: 1,
            row: 0,
        };
        for (bank_index, row, addr) in [(2, 0, bads[0]), (9, 0, bank9), (0, 16, bads[2])] {
            let want = Err(DramError::AddressOutOfRange { addr });
            assert_eq!(d.activate_at(bank_index, row, t), want);
            assert_eq!(d.read_at(bank_index, row, 0, t), want);
            assert_eq!(d.write_at(bank_index, row, 0, t), want);
        }
        // A column past the row is out of range too, even on an open row.
        let act = d.activate_at(bi(&d, 1), 4, t).unwrap();
        for r in [
            d.read_at(bi(&d, 1), 4, 8, act.bank_ready_at),
            d.write_at(bi(&d, 1), 4, 8, act.bank_ready_at),
        ] {
            assert_eq!(r, Err(DramError::AddressOutOfRange { addr: row(1, 4) }));
        }
        // Rejected commands left no trace: only the one activate counted.
        assert_eq!(d.stats().activates, 1);
        assert_eq!(d.stats().total_refreshes() + d.stats().scrubs, 0);
        assert_eq!(d.stats().reads + d.stats().writes, 0);
        assert_eq!(d.open_banks()[0], 0b10);
    }

    #[test]
    fn commands_report_the_bank_state_errors_they_hit() {
        let mut d = dev();
        let act = d.activate_at(bi(&d, 1), 3, Instant::ZERO).unwrap();
        let busy = Instant::ZERO + Duration::from_ns(1);
        let ready_at = act.bank_ready_at;
        let busy_err = || {
            Err(DramError::BankBusy {
                rank: 0,
                bank: 1,
                ready_at,
            })
        };
        assert_eq!(d.read_at(bi(&d, 1), 3, 0, busy), busy_err());
        assert_eq!(d.write_at(bi(&d, 1), 3, 0, busy), busy_err());
        assert_eq!(d.precharge_at(bi(&d, 1), busy), busy_err());
        assert_eq!(d.refresh_ras_only(row(1, 9), busy), busy_err());
        assert_eq!(d.refresh_cbr(0, 1, busy).map(|(o, _)| o), busy_err());
        assert_eq!(
            d.activate_at(bi(&d, 1), 5, ready_at),
            Err(DramError::BankAlreadyOpen {
                rank: 0,
                bank: 1,
                open_row: 3,
            })
        );
        assert_eq!(
            d.read_at(bi(&d, 1), 5, 0, ready_at),
            Err(DramError::RowMismatch {
                requested: 5,
                open_row: 3,
            })
        );
        assert_eq!(
            d.read_at(bi(&d, 0), 5, 0, ready_at),
            Err(DramError::NoOpenRow { rank: 0, bank: 0 })
        );
        assert_eq!(
            d.precharge_at(bi(&d, 0), ready_at),
            Err(DramError::NoOpenRow { rank: 0, bank: 0 })
        );
        assert_eq!(
            d.precharge_at(bi(&d, 1), ready_at),
            Err(DramError::PrechargeTooEarly {
                earliest: Instant::ZERO + d.timing().tras,
            })
        );
        // The bank is still open on row 3 and untouched by the rejections.
        assert_eq!(d.bank(0, 1).open_row(), Some(3));
        assert_eq!(d.stats().activates, 1);
        assert_eq!(d.stats().precharges, 0);
    }

    #[test]
    #[should_panic(expected = "bank out of range")]
    fn bank_commands_panic_on_a_bank_out_of_range() {
        let mut d = dev();
        let _ = d.precharge_at(bi(&d, 2), Instant::ZERO);
    }

    #[test]
    fn trrd_spaces_activates_within_a_rank() {
        let mut d = dev();
        d.activate_at(bi(&d, 0), 0, Instant::ZERO).unwrap();
        // Different bank, same rank, 1 ns later: violates tRRD (7.5 ns).
        let err = d
            .activate_at(bi(&d, 1), 0, Instant::ZERO + Duration::from_ns(1))
            .unwrap_err();
        assert!(matches!(err, DramError::ActivateTooSoon { .. }));
        // At the published earliest time it succeeds.
        let earliest = d.earliest_activate(0);
        d.activate_at(bi(&d, 1), 0, earliest).unwrap();
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        // Geometry with >4 banks so tRRD alone would allow a 5th activate.
        let g = Geometry::new(1, 8, 16, 8, 64);
        let mut d = DramDevice::new(g, TimingParams::ddr2_667());
        let mut now = Instant::ZERO;
        for bank in 0..4 {
            now = now.max(d.earliest_activate(0));
            d.activate_at(bi(&d, bank), 0, now).unwrap();
        }
        let fifth_earliest = d.earliest_activate(0);
        // tFAW (37.5 ns) from the first activate dominates 4 x tRRD (30 ns).
        assert_eq!(fifth_earliest, Instant::ZERO + Duration::from_ps(37_500));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut d = dev();
        let a = row(0, 3);
        let act = d.activate_at(bi(&d, a.bank), a.row, Instant::ZERO).unwrap();
        d.write_at(bi(&d, a.bank), a.row, 0, act.bank_ready_at)
            .unwrap();
        let t = *d.timing();
        // Write at 15 ns: recovery floor = 15 + tCL + tBURST + tWR = 51 ns,
        // which exceeds the tRAS floor of 45 ns.
        let floor = act.bank_ready_at + t.tcl + t.tburst + t.twr;
        assert_eq!(d.bank(0, 0).earliest_precharge(), floor);
        assert!(floor > Instant::ZERO + t.tras);
        // Precharging just before the recovery floor is rejected...
        let err = d
            .precharge_at(bi(&d, 0), floor - Duration::from_ns(1))
            .unwrap_err();
        assert!(matches!(err, DramError::PrechargeTooEarly { .. }));
        // ...and at the floor it succeeds.
        d.precharge_at(bi(&d, 0), floor).unwrap();
    }

    #[test]
    fn ranks_have_independent_activation_windows() {
        let mut d = DramDevice::new(Geometry::new(2, 2, 16, 8, 64), TimingParams::ddr2_667());
        d.activate_at(bi(&d, 0), 0, Instant::ZERO).unwrap();
        // Rank 1 is unconstrained by rank 0's activate.
        assert_eq!(d.earliest_activate(1), Instant::ZERO);
    }

    #[test]
    fn sarp_refresh_overlaps_a_different_subarrays_open_page() {
        let mut d = dev();
        // 16 rows, 4 subarrays -> rows 0..4 in subarray 0, 4..8 in 1, etc.
        d.enable_subarrays(4);
        assert_eq!(d.subarrays(), 4);
        d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let t = Instant::ZERO + Duration::from_us(1);
        // Row 7 lives in subarray 1; the page in subarray 0 stays open.
        let out = d.refresh_ras_only(row(0, 7), t).unwrap();
        assert!(!out.closed_open_page);
        assert_eq!(d.bank(0, 0).open_row(), Some(1), "page must stay open");
        assert_eq!(out.bank_ready_at, t, "bank is never reserved");
        assert_eq!(out.completed_at, t + d.timing().trfc);
        assert_eq!(d.stats().sarp_overlapped_refreshes, 1);
        assert_eq!(d.stats().refreshes_closing_open_page, 0);
        // The refresh still restored the row's charge.
        let flat = d.geometry().flatten(row(0, 7));
        assert_eq!(d.retention().last_restore(flat), out.completed_at);
        // The target subarray is busy until completion; others are free.
        assert_eq!(d.earliest_subarray_ready(row(0, 7)), out.completed_at);
        assert_eq!(d.earliest_subarray_ready(row(0, 12)), Instant::ZERO);
    }

    #[test]
    fn sarp_same_subarray_refresh_still_closes_the_page() {
        let mut d = dev();
        d.enable_subarrays(4);
        d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let t = Instant::ZERO + Duration::from_us(1);
        // Row 2 shares subarray 0 with the open row 1: the sense amps are
        // occupied by the page, so the classic close-then-refresh applies.
        let out = d.refresh_ras_only(row(0, 2), t).unwrap();
        assert!(out.closed_open_page);
        assert_eq!(d.stats().refreshes_closing_open_page, 1);
        assert_eq!(d.stats().sarp_overlapped_refreshes, 0);
        assert!(d.bank(0, 0).is_precharged());
    }

    #[test]
    fn sarp_back_to_back_overlaps_serialise_within_a_subarray() {
        let mut d = dev();
        d.enable_subarrays(4);
        d.activate_at(bi(&d, 0), 1, Instant::ZERO).unwrap();
        let t = Instant::ZERO + Duration::from_us(1);
        let first = d.refresh_ras_only(row(0, 7), t).unwrap();
        // Second overlapped refresh into the same subarray queues behind
        // the first one's tRFC even though the bank itself is free.
        let second = d.refresh_ras_only(row(0, 6), t).unwrap();
        assert_eq!(second.completed_at, first.completed_at + d.timing().trfc);
    }

    #[test]
    fn subarray_ready_is_zero_when_sarp_is_disabled() {
        let mut d = dev();
        d.refresh_ras_only(row(0, 7), Instant::ZERO).unwrap();
        assert_eq!(d.subarrays(), 1);
        assert_eq!(d.earliest_subarray_ready(row(0, 7)), Instant::ZERO);
        assert_eq!(d.stats().sarp_overlapped_refreshes, 0);
    }

    #[test]
    fn open_time_accumulates_for_background_energy() {
        let mut d = dev();
        d.activate_at(bi(&d, 0), 0, Instant::ZERO).unwrap();
        let now = Instant::ZERO + Duration::from_us(10);
        assert_eq!(d.total_open_time(now), Duration::from_us(10));
    }
}
