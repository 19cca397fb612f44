//! Scrub-effectiveness campaigns: closing the fault-injection loop.
//!
//! The fault campaign ([`crate::faults`]) proves injected refresh losses
//! are *detected*. This campaign proves the ECC + patrol-scrub + watchdog
//! stack *recovers* from them, end to end:
//!
//! * latent single-bit flips on rows no demand access ever touches are
//!   found and corrected by the deadline-order patrol walk alone;
//! * a forced double-bit flip is flagged as uncorrectable and escalates
//!   through [`DegradeCause::EccUncorrectable`] without failing the run;
//! * a weak row hammered into a corrected-error storm trips the retention
//!   watchdog: forced scrubs fire and the policy degrades via
//!   [`DegradeCause::RetentionWatchdog`];
//! * and — the Smart Refresh payoff — a scrub resets the scrubbed row's
//!   time-out counter, so background scrubbing *displaces* refreshes
//!   instead of adding to them ([`scrub_savings`] measures the
//!   refresh-energy saved net of the scrub energy spent).
//!
//! `smart-refresh study scrub` prints the table and exits nonzero when
//! any scenario fails; `crates/sim/tests/scrub.rs` pins the expectations.

use smartrefresh_core::{
    DegradationEvent, DegradeCause, RefreshPolicy, SmartRefresh, SmartRefreshConfig,
};
use smartrefresh_ctrl::{
    ControllerStats, EccConfig, MemTransaction, MemoryController, ScrubConfig, SimError,
    WatchdogConfig,
};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::RowAddr;
use smartrefresh_energy::DramPowerParams;
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};

use crate::faults::{addr_of, CampaignConfig};
use crate::kernel;

/// What a scrub scenario must demonstrate to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubExpectation {
    /// Every latent flip is corrected by the patrol walk: at least
    /// `min_ce` corrected errors, zero uncorrectable ones.
    CorrectsLatentFlips {
        /// Minimum corrected-error count (one per injected flip site).
        min_ce: u64,
    },
    /// The double-bit flip is detected as a UE and escalates to the CBR
    /// degradation path — and the run still completes.
    EscalatesUncorrectable,
    /// The CE storm trips the watchdog: at least one forced scrub, at
    /// least one logged violation, a `RetentionWatchdog` degradation, and
    /// no UE (the storm stays in the correctable regime).
    WatchdogIntervenes,
}

/// How the demand stream drives a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// Seeded random reads confined to the lower half of the rows (fault
    /// sites live in the upper half, reachable only by the patrol walk).
    Background,
    /// Periodic reads of one victim row — each restore lands past the
    /// row's weakened deadline, manufacturing a corrected-error storm.
    Hammer {
        /// The row to hammer.
        victim: RowAddr,
        /// Gap between successive reads of the victim.
        period: Duration,
    },
}

/// One named scrub scenario.
#[derive(Debug, Clone)]
pub struct ScrubScenario {
    /// Scenario name used in reports.
    pub name: &'static str,
    /// The faults to inject.
    pub injector: FaultInjector,
    /// ECC / scrub / watchdog configuration for the run.
    pub ecc: EccConfig,
    /// What the run must demonstrate.
    pub expectation: ScrubExpectation,
    driver: Driver,
}

/// The observed behaviour of one scrub scenario run.
#[derive(Debug, Clone)]
pub struct ScrubOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// What the scenario had to demonstrate.
    pub expectation: ScrubExpectation,
    /// The controller's counters at the horizon (corrected and
    /// uncorrectable errors, patrol and forced scrubs among them).
    pub ctrl: ControllerStats,
    /// Watchdog violations recorded.
    pub watchdog_violations: usize,
    /// Every degradation episode the policy logged.
    pub degradations: Vec<DegradationEvent>,
}

impl ScrubOutcome {
    /// Whether the observed behaviour meets the scenario's expectation.
    pub fn holds(&self) -> bool {
        let degraded_by = |cause: DegradeCause| self.degradations.iter().any(|e| e.cause == cause);
        match self.expectation {
            ScrubExpectation::CorrectsLatentFlips { min_ce } => {
                self.ctrl.ce_corrected >= min_ce && self.ctrl.ue_detected == 0
            }
            ScrubExpectation::EscalatesUncorrectable => {
                self.ctrl.ue_detected >= 1 && degraded_by(DegradeCause::EccUncorrectable)
            }
            ScrubExpectation::WatchdogIntervenes => {
                self.ctrl.forced_scrubs >= 1
                    && self.watchdog_violations >= 1
                    && degraded_by(DegradeCause::RetentionWatchdog)
                    && self.ctrl.ue_detected == 0
            }
        }
    }
}

/// The counter-reset payoff, measured as a paired run: the same fault-free
/// workload under Smart Refresh with and without the patrol scrubber.
#[derive(Debug, Clone, Copy)]
pub struct ScrubSavings {
    /// Row refreshes issued without the scrubber.
    pub refreshes_no_scrub: u64,
    /// Row refreshes issued with the scrubber (counters reset on scrub).
    pub refreshes_with_scrub: u64,
    /// Patrol scrubs issued in the scrubbed run.
    pub scrubs: u64,
    /// DRAM refresh energy of the unscrubbed run, joules.
    pub refresh_j_no_scrub: f64,
    /// DRAM refresh energy of the scrubbed run, joules.
    pub refresh_j_with_scrub: f64,
    /// DRAM energy spent on the scrubs themselves, joules.
    pub scrub_j: f64,
}

impl ScrubSavings {
    /// Refresh energy saved by the counter resets, before paying for the
    /// scrubs: `refresh_j_no_scrub - refresh_j_with_scrub`.
    pub fn refresh_j_saved(&self) -> f64 {
        self.refresh_j_no_scrub - self.refresh_j_with_scrub
    }

    /// Net energy, joules: positive when the displaced refreshes outweigh
    /// the scrub overhead. A covering-rate scrub roughly breaks even (each
    /// scrub displaces about one refresh); the reliability is the point —
    /// this number proves scrubbing is close to free under Smart Refresh,
    /// where under a plain CBR controller it would be pure overhead.
    pub fn net_j(&self) -> f64 {
        self.refresh_j_saved() - self.scrub_j
    }

    /// Whether the counter-reset rule demonstrably displaced refreshes.
    pub fn holds(&self) -> bool {
        self.scrubs > 0 && self.refreshes_with_scrub < self.refreshes_no_scrub
    }
}

/// A full scrub campaign's outcomes.
#[derive(Debug, Clone)]
pub struct ScrubCampaignResult {
    /// One outcome per scenario, in run order.
    pub outcomes: Vec<ScrubOutcome>,
    /// The paired counter-reset measurement.
    pub savings: ScrubSavings,
}

impl ScrubCampaignResult {
    /// True when every scenario met its expectation and the savings pair
    /// demonstrated refresh displacement.
    pub fn all_hold(&self) -> bool {
        self.outcomes.iter().all(ScrubOutcome::holds) && self.savings.holds()
    }
}

/// The canonical recovery scenarios: latent-flip correction, UE
/// escalation, and the watchdog storm.
pub fn standard_scrub_campaign(cfg: &CampaignConfig) -> Vec<ScrubScenario> {
    let g = cfg.module.geometry;
    let retention = cfg.module.timing.retention;
    let covering = ScrubConfig::covering(retention, g.total_rows());
    // Fault sites in the upper half of the flat index space: the background
    // stream stays in the lower half, so only the patrol walk reaches them.
    let latent: Vec<RowAddr> = (0..3)
        .map(|k| g.unflatten(g.total_rows() * 3 / 4 + k * 17))
        .collect();
    let poisoned = g.unflatten(g.total_rows() * 7 / 8);
    let hammered = g.unflatten(g.total_rows() * 5 / 8);
    let mut latent_injector = FaultInjector::new();
    for site in &latent {
        latent_injector = latent_injector.with_spec(FaultSpec::always(
            FaultSite::exact(site.rank, site.bank, site.row),
            FaultKind::BitFlip { bits: 1 },
        ));
    }
    vec![
        ScrubScenario {
            name: "latent-flips",
            injector: latent_injector,
            ecc: EccConfig::new(cfg.seed).with_scrub(covering),
            expectation: ScrubExpectation::CorrectsLatentFlips {
                min_ce: latent.len() as u64,
            },
            driver: Driver::Background,
        },
        ScrubScenario {
            name: "double-flip-ue",
            injector: FaultInjector::new().with_spec(FaultSpec::always(
                FaultSite::exact(poisoned.rank, poisoned.bank, poisoned.row),
                FaultKind::BitFlip { bits: 2 },
            )),
            ecc: EccConfig::new(cfg.seed ^ 1).with_scrub(covering),
            expectation: ScrubExpectation::EscalatesUncorrectable,
            driver: Driver::Background,
        },
        ScrubScenario {
            name: "watchdog-storm",
            injector: FaultInjector::new().with_spec(FaultSpec::always(
                FaultSite::exact(hammered.rank, hammered.bank, hammered.row),
                FaultKind::WeakCell {
                    deadline: retention.div_by(4),
                },
            )),
            // No patrol scrubber: the deadline-order walk would keep the
            // weak row fresh and mask the storm. Every read restores the
            // row retention/2.67 late, one CE at a time; the watchdog's
            // leaky bucket fills within an epoch and forces the scrub.
            ecc: EccConfig::new(cfg.seed ^ 2).with_watchdog(WatchdogConfig {
                epoch: retention,
                leak: 1,
                threshold: 2,
                escalate_after: 1,
            }),
            expectation: ScrubExpectation::WatchdogIntervenes,
            driver: Driver::Hammer {
                victim: hammered,
                period: retention.div_by(4) + retention.div_by(8),
            },
        },
    ]
}

/// Builds the scenario's controller (Smart Refresh, paper defaults) and
/// drives it with `driver` to the horizon.
fn drive(
    cfg: &CampaignConfig,
    injector: FaultInjector,
    ecc: EccConfig,
    driver: Driver,
) -> Result<MemoryController<SmartRefresh>, SimError> {
    let g = cfg.module.geometry;
    let timing = cfg.module.timing;
    let policy = SmartRefresh::new(g, timing.retention, SmartRefreshConfig::paper_defaults());
    let mut mc = kernel::build(g, timing, policy)
        .with_fault_injector(injector)
        .with_ecc(ecc);
    let horizon = Instant::ZERO + cfg.horizon;
    match driver {
        Driver::Background => {
            let reads = kernel::stream(g, cfg.access_gap, horizon, cfg.seed ^ 0x5c2b_ca3e, &[]);
            kernel::drain(&mut mc, reads, horizon)?;
        }
        Driver::Hammer { victim, period } => {
            let addr = addr_of(&g, victim);
            let reads = std::iter::successors(Some(Instant::ZERO + period), |&t| Some(t + period))
                .take_while(|&t| t <= horizon)
                .map(|t| MemTransaction::read(addr, t));
            kernel::drain(&mut mc, reads, horizon)?;
        }
    }
    Ok(mc)
}

/// Runs one scrub scenario.
///
/// # Errors
///
/// Propagates [`SimError`] from the controller. Demand streams avoid the
/// poisoned rows, so even the UE scenario completes without an error —
/// uncorrectable data nobody reads is escalated, not thrown.
pub fn run_scrub_scenario(
    cfg: &CampaignConfig,
    scenario: &ScrubScenario,
) -> Result<ScrubOutcome, SimError> {
    let mc = drive(
        cfg,
        scenario.injector.clone(),
        scenario.ecc,
        scenario.driver,
    )?;
    Ok(ScrubOutcome {
        name: scenario.name,
        expectation: scenario.expectation,
        ctrl: *mc.stats(),
        watchdog_violations: mc.watchdog().map_or(0, |w| w.violations().len()),
        degradations: mc.policy().degradation_events().to_vec(),
    })
}

/// Measures the counter-reset payoff: the same fault-free background
/// workload under Smart Refresh, with and without a covering patrol
/// scrubber. Refresh counts drop in the scrubbed run because
/// [`RefreshPolicy::on_row_scrubbed`] resets each scrubbed row's time-out
/// counter; energies are priced at the module's per-row refresh energy.
///
/// # Errors
///
/// Propagates [`SimError`] from either run.
pub fn scrub_savings(
    cfg: &CampaignConfig,
    power: &DramPowerParams,
) -> Result<ScrubSavings, SimError> {
    let g = cfg.module.geometry;
    let retention = cfg.module.timing.retention;
    let run = |scrub: Option<ScrubConfig>| -> Result<(u64, u64), SimError> {
        let mut ecc = EccConfig::new(cfg.seed);
        if let Some(s) = scrub {
            ecc = ecc.with_scrub(s);
        }
        let mc = drive(cfg, FaultInjector::new(), ecc, Driver::Background)?;
        let ops = mc.device().stats();
        Ok((ops.total_refreshes(), ops.scrubs))
    };
    let (refreshes_no_scrub, _) = run(None)?;
    let (refreshes_with_scrub, scrubs) =
        run(Some(ScrubConfig::covering(retention, g.total_rows())))?;
    Ok(ScrubSavings {
        refreshes_no_scrub,
        refreshes_with_scrub,
        scrubs,
        refresh_j_no_scrub: refreshes_no_scrub as f64 * power.e_refresh_row,
        refresh_j_with_scrub: refreshes_with_scrub as f64 * power.e_refresh_row,
        scrub_j: scrubs as f64 * power.e_refresh_row,
    })
}

/// Runs the [`standard_scrub_campaign`] plus the savings pair under `cfg`.
///
/// # Errors
///
/// Propagates the first [`SimError`] any run hits.
pub fn run_scrub_campaign(cfg: &CampaignConfig) -> Result<ScrubCampaignResult, SimError> {
    let outcomes = standard_scrub_campaign(cfg)
        .iter()
        .map(|s| run_scrub_scenario(cfg, s))
        .collect::<Result<Vec<_>, _>>()?;
    let savings = scrub_savings(cfg, &DramPowerParams::ddr2_2gb())?;
    Ok(ScrubCampaignResult { outcomes, savings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_campaign_covers_the_three_recovery_paths() {
        let cfg = CampaignConfig::quick(11);
        let names: Vec<_> = standard_scrub_campaign(&cfg)
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["latent-flips", "double-flip-ue", "watchdog-storm"]);
    }

    #[test]
    fn outcome_judgement_matches_expectation_semantics() {
        let base = ScrubOutcome {
            name: "x",
            expectation: ScrubExpectation::CorrectsLatentFlips { min_ce: 2 },
            ctrl: ControllerStats {
                ce_corrected: 2,
                scrubs_issued: 10,
                ..Default::default()
            },
            watchdog_violations: 0,
            degradations: Vec::new(),
        };
        assert!(base.holds());
        let mut short = base.clone();
        short.ctrl.ce_corrected = 1;
        assert!(!short.holds(), "a missed flip fails the scenario");
        let mut ue = base.clone();
        ue.ctrl.ue_detected = 1;
        assert!(!ue.holds(), "a UE in the correctable scenario fails it");
    }

    #[test]
    fn savings_arithmetic() {
        let s = ScrubSavings {
            refreshes_no_scrub: 100,
            refreshes_with_scrub: 40,
            scrubs: 55,
            refresh_j_no_scrub: 100.0,
            refresh_j_with_scrub: 40.0,
            scrub_j: 55.0,
        };
        assert!(s.holds());
        assert_eq!(s.refresh_j_saved(), 60.0);
        assert_eq!(s.net_j(), 5.0);
    }
}
