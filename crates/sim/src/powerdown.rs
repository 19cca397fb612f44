//! Counter power-state campaigns: what CKE-low does to Smart Refresh.
//!
//! The DRAM credits precharge power-down for every long idle gap, but the
//! controller-side counter SRAM has to survive those gaps somehow. This
//! campaign runs the same idle-heavy workload under the three
//! [`CounterPowerPolicy`] options and checks each one's contract:
//!
//! * **persistent** — counters survive, refresh savings are intact, and
//!   the SRAM retention leakage is priced against the technique;
//! * **conservative-reset** — counters are wiped on every wake: the policy
//!   degrades via [`DegradeCause::CounterPowerLoss`], scrub deadlines and
//!   the watchdog epoch tighten to the safe bound, and the run issues
//!   measurably *more* refreshes than the persistent run (the forfeited
//!   savings) — while still decaying zero rows;
//! * **snapshot** — refresh behaviour is identical to persistent, but
//!   every credited window bills a checkpoint/restore round trip.
//!
//! [`idle_sweep`] varies the access gap to show how the forfeited savings
//! grow with idle fraction; the `abl_counter_power` study runs it on its
//! own gaps. `smart-refresh study powerdown` prints both tables and exits
//! nonzero when any expectation fails.

use smartrefresh_core::{
    CounterPowerConfig, CounterPowerPolicy, DegradeCause, RefreshPolicy, SmartRefresh,
    SmartRefreshConfig,
};
use smartrefresh_ctrl::{ControllerStats, EccConfig, ScrubConfig, SimError, WatchdogConfig};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_energy::SramArrayModel;

use crate::faults::CampaignConfig;
use crate::kernel;

/// An honestly-priced persistent configuration for `geometry`: retention
/// power is the Artisan-90nm leakage of the counter array
/// ([`CounterPowerConfig::RETENTION_W_PER_KB`] × the array's `area_kb()`)
/// at the campaign controllers' paper-default counter width.
pub fn priced_persistent(geometry: &smartrefresh_dram::Geometry) -> CounterPowerConfig {
    let bits = SmartRefreshConfig::paper_defaults().counter_bits;
    let sram = SramArrayModel::artisan_90nm(geometry, bits);
    CounterPowerConfig::persistent(CounterPowerConfig::RETENTION_W_PER_KB * sram.area_kb())
}

/// Counter power-state energy for one run, priced from the controller's
/// accumulated statistics: retention leakage under
/// [`CounterPowerPolicy::Persistent`], checkpoint traffic under
/// [`CounterPowerPolicy::Snapshot`], zero under
/// [`CounterPowerPolicy::ConservativeReset`] (whose cost is the refreshes
/// it can no longer skip, already visible in the DRAM refresh energy).
pub fn counter_power_energy(cfg: &CounterPowerConfig, stats: &ControllerStats) -> f64 {
    match cfg.policy {
        CounterPowerPolicy::Persistent => {
            cfg.retention_power_w * stats.counter_retention_time.as_secs_f64()
        }
        CounterPowerPolicy::ConservativeReset => 0.0,
        CounterPowerPolicy::Snapshot => cfg.snapshot_cost_j * stats.counter_snapshot_entries as f64,
    }
}

/// The observed behaviour of one policy on the idle-heavy workload.
#[derive(Debug, Clone, Copy)]
pub struct PowerdownOutcome {
    /// Which counter power-state policy ran.
    pub policy: CounterPowerPolicy,
    /// The controller's counters at the horizon: refreshes issued,
    /// CKE-low windows and residency, counters wiped on wake
    /// (conservative-reset) and checkpoint round trips (snapshot).
    pub ctrl: ControllerStats,
    /// Counter power-state energy, joules (see [`counter_power_energy`]).
    pub counter_power_j: f64,
    /// Rows whose retention deadline lapsed — must be zero in every mode.
    pub decayed_rows: usize,
    /// Whether the policy logged a [`DegradeCause::CounterPowerLoss`]
    /// degradation (expected under conservative-reset, forbidden
    /// otherwise).
    pub degraded_by_power_loss: bool,
}

/// A full counter-power campaign: one outcome per policy, same workload.
#[derive(Debug, Clone)]
pub struct PowerdownCampaignResult {
    /// Outcomes in policy order: persistent, conservative-reset, snapshot.
    pub outcomes: Vec<PowerdownOutcome>,
    /// The idle-fraction sweep (persistent vs conservative-reset).
    pub sweep: Vec<IdleSweepPoint>,
}

impl PowerdownCampaignResult {
    fn outcome(&self, policy: CounterPowerPolicy) -> Option<&PowerdownOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }

    /// True when every policy met its contract:
    ///
    /// * all three modes decay zero rows and credit power-down windows;
    /// * persistent pays retention energy and never degrades;
    /// * conservative-reset wipes counters, degrades via
    ///   `CounterPowerLoss`, and forfeits savings (strictly more refreshes
    ///   than persistent);
    /// * snapshot matches persistent's refresh count exactly while paying
    ///   a positive checkpoint energy;
    /// * every sweep point keeps the forfeited savings non-negative, and
    ///   at least one point shows a strict forfeit.
    pub fn all_hold(&self) -> bool {
        let (Some(persistent), Some(reset), Some(snapshot)) = (
            self.outcome(CounterPowerPolicy::Persistent),
            self.outcome(CounterPowerPolicy::ConservativeReset),
            self.outcome(CounterPowerPolicy::Snapshot),
        ) else {
            return false;
        };
        self.outcomes
            .iter()
            .all(|o| o.decayed_rows == 0 && o.ctrl.powerdown_windows > 0)
            && persistent.counter_power_j > 0.0
            && !persistent.degraded_by_power_loss
            && reset.ctrl.counters_reset_on_wake > 0
            && reset.degraded_by_power_loss
            && reset.ctrl.refreshes_issued > persistent.ctrl.refreshes_issued
            && snapshot.ctrl.refreshes_issued == persistent.ctrl.refreshes_issued
            && snapshot.ctrl.counter_snapshots > 0
            && snapshot.counter_power_j > 0.0
            && !snapshot.degraded_by_power_loss
            && self.sweep.iter().all(IdleSweepPoint::holds)
            && self.sweep.iter().any(|p| p.forfeited_refreshes() > 0)
    }
}

/// One point of the idle-fraction sweep: the same workload at one access
/// gap, run under persistent and conservative-reset counters.
#[derive(Debug, Clone, Copy)]
pub struct IdleSweepPoint {
    /// Gap between successive demand accesses.
    pub access_gap: Duration,
    /// Power-down residency as a fraction of the horizon (from the
    /// persistent run).
    pub idle_fraction: f64,
    /// Refreshes issued with persistent counters.
    pub refreshes_persistent: u64,
    /// Refreshes issued with conservative-reset counters.
    pub refreshes_reset: u64,
    /// CKE-low windows credited in the conservative-reset run.
    pub windows: u64,
}

impl IdleSweepPoint {
    /// Refresh savings forfeited by wiping the counters: the extra
    /// refreshes the conservative-reset run had to issue.
    pub fn forfeited_refreshes(&self) -> u64 {
        self.refreshes_reset
            .saturating_sub(self.refreshes_persistent)
    }

    /// Wiping counters can only forfeit savings, never create them.
    pub fn holds(&self) -> bool {
        self.refreshes_reset >= self.refreshes_persistent
    }
}

/// Runs the idle-heavy background workload under one counter power-state
/// policy.
///
/// # Errors
///
/// Propagates [`SimError`] from the controller, including sanitizer
/// verdicts when `SMARTREFRESH_SANITIZE` is set.
pub fn run_powerdown_scenario(
    cfg: &CampaignConfig,
    counter_power: CounterPowerConfig,
) -> Result<PowerdownOutcome, SimError> {
    run_with_gap(cfg, counter_power, cfg.access_gap)
}

fn run_with_gap(
    cfg: &CampaignConfig,
    counter_power: CounterPowerConfig,
    access_gap: Duration,
) -> Result<PowerdownOutcome, SimError> {
    let g = cfg.module.geometry;
    let timing = cfg.module.timing;
    let retention = timing.retention;
    let policy = SmartRefresh::new(g, retention, SmartRefreshConfig::paper_defaults());
    // ECC with a covering patrol scrub and a retention-scaled watchdog so
    // the conservative-reset wake path exercises both tighten hooks.
    let ecc = EccConfig::new(cfg.seed)
        .with_scrub(ScrubConfig::covering(retention, g.total_rows()))
        .with_watchdog(WatchdogConfig::for_retention(retention));
    let mut mc = kernel::build(g, timing, policy)
        .with_counter_power(counter_power)
        .with_ecc(ecc);
    let horizon = Instant::ZERO + cfg.horizon;
    let reads = kernel::stream(g, access_gap, horizon, cfg.seed ^ 0x90_da3e, &[]);
    kernel::drain(&mut mc, reads, horizon)?;

    let stats = *mc.stats();
    let decayed_rows = mc
        .device()
        .check_integrity(horizon)
        .err()
        .map_or(0, |rows| rows.len());
    Ok(PowerdownOutcome {
        policy: counter_power.policy,
        ctrl: stats,
        counter_power_j: counter_power_energy(&counter_power, &stats),
        decayed_rows,
        degraded_by_power_loss: mc
            .policy()
            .degradation_events()
            .iter()
            .any(|e| e.cause == DegradeCause::CounterPowerLoss),
    })
}

/// Runs the idle-fraction sweep: each access gap under persistent and
/// conservative-reset counters, same seed, reporting the forfeited
/// refresh savings per point.
///
/// # Errors
///
/// Propagates the first [`SimError`] any run hits.
pub fn idle_sweep(
    cfg: &CampaignConfig,
    gaps: &[Duration],
) -> Result<Vec<IdleSweepPoint>, SimError> {
    let persistent = priced_persistent(&cfg.module.geometry);
    gaps.iter()
        .map(|&gap| {
            let p = run_with_gap(cfg, persistent, gap)?;
            let r = run_with_gap(cfg, CounterPowerConfig::conservative_reset(), gap)?;
            Ok(IdleSweepPoint {
                access_gap: gap,
                idle_fraction: p.ctrl.powerdown_time.as_secs_f64() / cfg.horizon.as_secs_f64(),
                refreshes_persistent: p.ctrl.refreshes_issued,
                refreshes_reset: r.ctrl.refreshes_issued,
                windows: r.ctrl.powerdown_windows,
            })
        })
        .collect()
}

/// The default sweep gaps, spanning busy to idle-dominated, derived from
/// the campaign's base access gap (×1, ×4, ×16).
pub fn default_sweep_gaps(cfg: &CampaignConfig) -> Vec<Duration> {
    vec![cfg.access_gap, cfg.access_gap * 4, cfg.access_gap * 16]
}

/// Runs the three-policy comparison plus the idle-fraction sweep.
///
/// # Errors
///
/// Propagates the first [`SimError`] any run hits.
pub fn run_powerdown_campaign(cfg: &CampaignConfig) -> Result<PowerdownCampaignResult, SimError> {
    let configs = [
        priced_persistent(&cfg.module.geometry),
        CounterPowerConfig::conservative_reset(),
        CounterPowerConfig::snapshot(CounterPowerConfig::SNAPSHOT_J_PER_ENTRY),
    ];
    let outcomes = configs
        .iter()
        .map(|&c| run_powerdown_scenario(cfg, c))
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = idle_sweep(cfg, &default_sweep_gaps(cfg))?;
    Ok(PowerdownCampaignResult { outcomes, sweep })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_holds_at_quick_scale() {
        let cfg = CampaignConfig::quick(29);
        let result = run_powerdown_campaign(&cfg).expect("campaign runs clean");
        for o in &result.outcomes {
            assert_eq!(o.decayed_rows, 0, "{}: no row may decay", o.policy);
            assert!(
                o.ctrl.powerdown_windows > 0,
                "{}: idle gaps credited",
                o.policy
            );
        }
        assert!(result.all_hold(), "campaign contract: {result:?}");
        // Pin the rendered report text: a changed digit or line fails here.
        let mut d = crate::digest::Digest64::new();
        d.update_str(&crate::report::render_powerdown_campaign(&result));
        assert_eq!(d.finish(), 0xd2c7_8363_496f_ab34);
    }

    #[test]
    fn sweep_point_arithmetic() {
        let p = IdleSweepPoint {
            access_gap: Duration::from_us(200),
            idle_fraction: 0.9,
            refreshes_persistent: 100,
            refreshes_reset: 130,
            windows: 40,
        };
        assert!(p.holds());
        assert_eq!(p.forfeited_refreshes(), 30);
        let inverted = IdleSweepPoint {
            refreshes_reset: 90,
            ..p
        };
        assert!(!inverted.holds(), "wiping counters cannot create savings");
        assert_eq!(inverted.forfeited_refreshes(), 0, "saturates, no underflow");
    }

    #[test]
    fn priced_persistent_charges_the_array_leakage() {
        let g = smartrefresh_dram::Geometry::new(1, 4, 256, 32, 64);
        let cfg = priced_persistent(&g);
        assert_eq!(cfg.policy, CounterPowerPolicy::Persistent);
        assert!(cfg.retention_power_w > 0.0);
        // 1024 rows × 3 bits = 384 B = 0.375 KB at 2 µW/KB.
        let expected = CounterPowerConfig::RETENTION_W_PER_KB * 0.375;
        assert!((cfg.retention_power_w - expected).abs() < 1e-18);
    }
}
