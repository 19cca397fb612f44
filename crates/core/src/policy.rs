//! The refresh-policy abstraction shared by the baselines and Smart Refresh.
//!
//! A policy lives inside the memory controller. It observes row activity
//! (opens and closes), wakes up on its own schedule to generate refresh
//! work, and exposes that work as a queue of [`RefreshAction`]s which the
//! controller dispatches to the DRAM device as soon as the target bank is
//! free. The policy also reports the bookkeeping traffic (counter-array SRAM
//! reads/writes) that the energy model charges against the technique.

use smartrefresh_dram::time::Instant;
use smartrefresh_dram::RowAddr;

/// One refresh command for the controller to dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshAction {
    /// CAS-before-RAS refresh: the device's internal counter picks the row;
    /// no address is driven on the bus (the low-power baseline, §3).
    Cbr {
        /// Target rank.
        rank: u32,
        /// Target bank within the rank.
        bank: u32,
    },
    /// RAS-only refresh of an explicit row. `charge_bus` is true when the
    /// row address is driven over the external address bus and must be
    /// charged bus energy (Smart Refresh's overhead); the §4.6 fallback mode
    /// regenerates addresses internally and is modelled as CBR-grade energy.
    RasOnly {
        /// The row to refresh.
        row: RowAddr,
        /// Whether to charge address-bus energy for this refresh.
        charge_bus: bool,
    },
}

impl RefreshAction {
    /// The `(rank, bank)` this action occupies.
    pub fn target_bank(&self) -> (u32, u32) {
        match *self {
            RefreshAction::Cbr { rank, bank } => (rank, bank),
            RefreshAction::RasOnly { row, .. } => (row.rank, row.bank),
        }
    }
}

/// Counter-array SRAM traffic accumulated by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SramTraffic {
    /// Counter-array reads (one per counter examined).
    pub reads: u64,
    /// Counter-array writes (one per decrement or reset).
    pub writes: u64,
}

/// Why a policy was asked to degrade to its safe fallback mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// The §5 pending refresh queue overflowed — the dispatch contract was
    /// violated, so the smart machinery can no longer be trusted to drain.
    QueueOverflow,
    /// A fault injector perturbed the refresh dispatch path (dropped,
    /// delayed, or stalled refreshes).
    FaultInjection,
    /// The surrounding system requested degradation for an external reason.
    External,
    /// ECC detected an uncorrectable (multi-bit) error: the row's data can
    /// no longer be trusted, so refresh falls back to the conservative
    /// all-rows CBR sweep while the system handles the loss.
    EccUncorrectable,
    /// The retention watchdog saw a row's corrected-error rate cross its
    /// leaky-bucket threshold repeatedly — the row is decaying faster than
    /// the refresh schedule assumes, so the smart machinery stands down.
    RetentionWatchdog,
    /// The counter SRAM lost power across a CKE-low window
    /// (`CounterPowerPolicy::ConservativeReset`): every time-out value is
    /// stale, so the policy zeroes the array and sweeps from the safe bound.
    CounterPowerLoss,
    /// A sustained disturbance (rowhammer) attack exhausted the RFM
    /// mitigation budget: activation pressure keeps crossing the RAA
    /// thresholds faster than RFM commands can relieve it, so the
    /// controller escalates through elevated-rate refresh into the CBR
    /// fallback sweep, which bounds every victim's exposure window.
    DisturbanceStorm,
}

impl std::fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeCause::QueueOverflow => write!(f, "queue-overflow"),
            DegradeCause::FaultInjection => write!(f, "fault-injection"),
            DegradeCause::External => write!(f, "external"),
            DegradeCause::EccUncorrectable => write!(f, "ecc-uncorrectable"),
            DegradeCause::RetentionWatchdog => write!(f, "retention-watchdog"),
            DegradeCause::CounterPowerLoss => write!(f, "counter-power-loss"),
            DegradeCause::DisturbanceStorm => write!(f, "disturbance-storm"),
        }
    }
}

/// One logged graceful-degradation episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationEvent {
    /// What triggered the degradation.
    pub cause: DegradeCause,
    /// When the policy entered its fallback mode.
    pub at: Instant,
    /// When the policy re-armed (via its hysteresis path), or `None` while
    /// the episode is still open.
    pub recovered_at: Option<Instant>,
}

impl DegradationEvent {
    /// The episode's duration, if it has ended.
    pub fn duration(&self) -> Option<smartrefresh_dram::time::Duration> {
        self.recovered_at.map(|r| r.since(self.at))
    }
}

/// A DRAM refresh policy.
///
/// The controller drives a policy with this contract:
///
/// 1. forward every row open/close via [`on_row_opened`]/[`on_row_closed`];
/// 2. whenever simulation time reaches [`next_wakeup`], call [`advance`];
/// 3. after any `advance` or at any idle moment, drain [`pop_pending`] and
///    issue the actions to the device (refreshes have priority over demand
///    accesses so the pending queue drains before the next tick, §5).
///
/// [`on_row_opened`]: RefreshPolicy::on_row_opened
/// [`on_row_closed`]: RefreshPolicy::on_row_closed
/// [`next_wakeup`]: RefreshPolicy::next_wakeup
/// [`advance`]: RefreshPolicy::advance
/// [`pop_pending`]: RefreshPolicy::pop_pending
///
/// `Send` is a supertrait: controllers (and the boxed policies inside
/// them) shard across scoped worker threads in the parallel simulation
/// engine, so a policy must be movable to another thread. Policies are
/// plain owned state machines, so this costs implementations nothing.
pub trait RefreshPolicy: Send {
    /// Short name used in reports (e.g. `"cbr"`, `"smart"`).
    fn name(&self) -> &'static str;

    /// A row was opened (ACTIVATE) by a normal access at `now`.
    fn on_row_opened(&mut self, row: RowAddr, now: Instant);

    /// A row was closed (PRECHARGE writes the page back) at `now`.
    fn on_row_closed(&mut self, row: RowAddr, now: Instant);

    /// A patrol scrub read the row back, corrected it if needed, and
    /// restored its charge at `now`. A scrub refreshes the row as a side
    /// effect, so the default forwards to [`on_row_closed`]: the row's
    /// time-out counter resets and Smart Refresh skips the now-redundant
    /// refresh. Policies that distinguish scrubs may override.
    ///
    /// [`on_row_closed`]: RefreshPolicy::on_row_closed
    fn on_row_scrubbed(&mut self, row: RowAddr, now: Instant) {
        self.on_row_closed(row, now);
    }

    /// The next instant at which the policy has internal work to do, or
    /// `None` for policies with no schedule (e.g. no-refresh).
    ///
    /// It may only move inside [`advance`](RefreshPolicy::advance): the
    /// controller keeps it between calls to skip its per-access
    /// bookkeeping while nothing is due.
    fn next_wakeup(&self) -> Option<Instant>;

    /// Advances internal state to `now`, moving any due refresh work into
    /// the pending queue.
    fn advance(&mut self, now: Instant);

    /// Pops the next pending refresh action, least-recent first.
    fn pop_pending(&mut self) -> Option<RefreshAction>;

    /// Number of pending, undispatched refresh actions.
    fn pending_len(&self) -> usize;

    /// Counter-array SRAM traffic so far (zero for counter-less baselines).
    fn sram_traffic(&self) -> SramTraffic {
        SramTraffic::default()
    }

    /// Highest pending-queue occupancy observed (for the §5 bound).
    fn queue_high_water(&self) -> usize {
        0
    }

    /// True when the policy's §4.6 circuitry has currently disabled the
    /// smart machinery (always false for policies without one).
    fn in_fallback(&self) -> bool {
        false
    }

    /// Asks the policy to degrade gracefully to its safe fallback mode
    /// (Smart Refresh: the phase-preserving CBR sweep). Policies without a
    /// fallback ignore the request — they are already their own safe mode.
    fn degrade(&mut self, _cause: DegradeCause, _now: Instant) {}

    /// Every degradation episode logged so far (empty for policies without
    /// a fallback mode).
    fn degradation_events(&self) -> &[DegradationEvent] {
        &[]
    }

    /// The controller exited a CKE-low power-down window at `now`.
    ///
    /// With `reset_counters` true the counter SRAM was unpowered during the
    /// window (`CounterPowerPolicy::ConservativeReset`): the policy must
    /// discard every stored time-out value and fall back to its safe bound.
    /// With it false the state was checkpointed on entry
    /// (`CounterPowerPolicy::Snapshot`) and is restored as-is.
    ///
    /// Returns the number of counter entries affected (restored or wiped),
    /// which the energy model uses to price the checkpoint traffic. The
    /// default — for counter-less baselines — does nothing and reports zero
    /// entries.
    fn on_powerdown_wake(&mut self, now: Instant, reset_counters: bool) -> u64 {
        let _ = (now, reset_counters);
        0
    }
}

impl<P: RefreshPolicy + ?Sized> RefreshPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_row_opened(&mut self, row: RowAddr, now: Instant) {
        (**self).on_row_opened(row, now);
    }

    fn on_row_closed(&mut self, row: RowAddr, now: Instant) {
        (**self).on_row_closed(row, now);
    }

    fn on_row_scrubbed(&mut self, row: RowAddr, now: Instant) {
        (**self).on_row_scrubbed(row, now);
    }

    fn next_wakeup(&self) -> Option<Instant> {
        (**self).next_wakeup()
    }

    fn advance(&mut self, now: Instant) {
        (**self).advance(now);
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        (**self).pop_pending()
    }

    fn pending_len(&self) -> usize {
        (**self).pending_len()
    }

    fn sram_traffic(&self) -> SramTraffic {
        (**self).sram_traffic()
    }

    fn queue_high_water(&self) -> usize {
        (**self).queue_high_water()
    }

    fn in_fallback(&self) -> bool {
        (**self).in_fallback()
    }

    fn degrade(&mut self, cause: DegradeCause, now: Instant) {
        (**self).degrade(cause, now);
    }

    fn degradation_events(&self) -> &[DegradationEvent] {
        (**self).degradation_events()
    }

    fn on_powerdown_wake(&mut self, now: Instant, reset_counters: bool) -> u64 {
        (**self).on_powerdown_wake(now, reset_counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_reports_target_bank() {
        let a = RefreshAction::Cbr { rank: 1, bank: 2 };
        assert_eq!(a.target_bank(), (1, 2));
        let b = RefreshAction::RasOnly {
            row: RowAddr {
                rank: 0,
                bank: 3,
                row: 9,
            },
            charge_bus: true,
        };
        assert_eq!(b.target_bank(), (0, 3));
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_p: &dyn RefreshPolicy) {}
    }
}
