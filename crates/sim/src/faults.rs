//! Fault-injection campaigns over the full controller stack.
//!
//! A campaign drives the memory controller with a deterministic access
//! stream while a seeded [`FaultInjector`] perturbs it, then checks —
//! mutation-test style — that the system never fails *silently*:
//!
//! * every injected refresh loss (dropped refresh, weak cell, thermal
//!   derating) must surface in the device's [`RetentionTracker`] log as a
//!   late restore or an end-of-run violation;
//! * every forced §5 queue overflow or dispatch perturbation must trigger a
//!   logged graceful-degradation episode (fallback to the phase-preserving
//!   CBR sweep) without any retention deadline actually being missed.
//!
//! [`standard_campaign`] builds the canonical seven scenarios and
//! [`run_campaign`] executes them; `smart-refresh study faults` prints
//! the table and `crates/sim/tests/faults.rs` pins the expectations in CI.
//!
//! [`RetentionTracker`]: smartrefresh_dram::RetentionTracker

use smartrefresh_core::{DegradationEvent, RefreshPolicy, SmartRefresh, SmartRefreshConfig};
use smartrefresh_ctrl::{ControllerStats, SimError};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, ModuleConfig, RowAddr};
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec, FaultStats};

use crate::kernel;

/// What a scenario must demonstrate to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// A refresh-loss fault (drop, weak cell, derating): the retention
    /// tracker must catch it — every exact fault site appears among the
    /// late restores or end-of-run violations, and at least one detection
    /// signal fires.
    Detection,
    /// An overflow or dispatch perturbation the design must absorb: a
    /// degradation episode is logged and no retention deadline is actually
    /// missed (no late restores, no violations).
    SafeDegradation,
    /// A perturbation that both degrades the engine *and* makes some
    /// restores late: the episode is logged, the lateness is detected, and
    /// the fallback sweep recovers before the end of the run (no standing
    /// violations).
    DegradedAndDetected,
}

/// One named fault scenario.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Scenario name used in reports.
    pub name: &'static str,
    /// The faults to inject.
    pub injector: FaultInjector,
    /// §5 pending-queue capacity for this run (capacities below the segment
    /// count force overflow on mass expiry).
    pub queue_capacity: usize,
    /// What the run must demonstrate.
    pub expectation: Expectation,
}

/// How a campaign drives the system.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The DRAM module under test.
    pub module: ModuleConfig,
    /// Simulated span of each scenario.
    pub horizon: Duration,
    /// Gap between successive accesses of the background stream.
    pub access_gap: Duration,
    /// Seed for the access stream and any seeded faults.
    pub seed: u64,
    /// Dispatch-latency guard band: a restore later than
    /// `deadline + guard` counts as fault-induced lateness. Fault-free runs
    /// overshoot the deadline by the DRAM command serialization latency
    /// (~100 ns) on the rows refreshed last in a sweep; injected faults miss
    /// by access periods (milliseconds), so any value between the two works.
    pub guard: Duration,
}

impl CampaignConfig {
    /// A small module and an eight-interval horizon — seconds of wall time.
    pub fn quick(seed: u64) -> Self {
        use smartrefresh_dram::TimingParams;
        let module = ModuleConfig {
            name: "fault-campaign",
            geometry: Geometry::new(1, 4, 256, 32, 64), // 1024 rows
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        CampaignConfig {
            horizon: module.timing.retention * 8,
            access_gap: Duration::from_us(200),
            module,
            seed,
            guard: Duration::from_us(10),
        }
    }
}

/// The observed behaviour of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// What the scenario had to demonstrate.
    pub expectation: Expectation,
    /// The injector's own counters (what was actually injected).
    pub faults: FaultStats,
    /// Deduplicated labels of the injected fault classes (see
    /// [`crate::report::fault_kind_label`]), in spec order.
    pub injected: Vec<&'static str>,
    /// The controller's counters at the horizon (dropped and delayed
    /// refreshes among them).
    pub ctrl: ControllerStats,
    /// Every graceful-degradation episode the policy logged.
    pub degradations: Vec<DegradationEvent>,
    /// Restores the retention tracker flagged as past their deadline by
    /// more than the campaign's guard band.
    pub late_restores: usize,
    /// Rows past their deadline at the end of the run.
    pub end_violations: usize,
    /// Exact fault sites that injected a loss but were never detected
    /// (must be empty — a non-empty list is a silent data-loss escape).
    pub undetected_sites: Vec<RowAddr>,
    /// Whether the policy was still in its CBR fallback at the end.
    pub in_fallback: bool,
    /// Whether at least one degradation episode closed via hysteresis.
    pub recovered: bool,
}

impl ScenarioOutcome {
    /// Whether the observed behaviour meets the scenario's expectation.
    pub fn holds(&self) -> bool {
        let detected_something = self.late_restores + self.end_violations > 0;
        let degraded = !self.degradations.is_empty();
        match self.expectation {
            Expectation::Detection => self.undetected_sites.is_empty() && detected_something,
            Expectation::SafeDegradation => {
                degraded && self.late_restores == 0 && self.end_violations == 0
            }
            Expectation::DegradedAndDetected => {
                degraded && self.late_restores > 0 && self.end_violations == 0
            }
        }
    }
}

/// A full campaign's outcomes.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One outcome per scenario, in run order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignResult {
    /// True when every scenario met its expectation.
    pub fn all_hold(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::holds)
    }
}

/// Physical byte address of column 0 of `row` under [`Geometry::decode`]'s
/// column → bank → rank → row interleave.
pub(crate) fn addr_of(g: &Geometry, row: RowAddr) -> u64 {
    let blocks = (u64::from(row.row) * u64::from(g.ranks()) + u64::from(row.rank))
        * u64::from(g.banks())
        + u64::from(row.bank);
    blocks * u64::from(g.columns()) * g.column_bytes()
}

/// The canonical seven scenarios: one per fault class the injector
/// models, plus the undersized-queue overflow that needs no injector at
/// all.
pub fn standard_campaign(module: &ModuleConfig, seed: u64) -> Vec<FaultScenario> {
    let g = module.geometry;
    let retention = module.timing.retention;
    // A victim row in the upper half of the flat index space, which the
    // background access stream never touches (it stays in the lower half).
    let victim = g.unflatten(g.total_rows() * 3 / 4);
    vec![
        FaultScenario {
            name: "dropped-refresh",
            injector: FaultInjector::new().with_spec(FaultSpec::always(
                FaultSite::exact(victim.rank, victim.bank, victim.row),
                FaultKind::DropRefresh,
            )),
            queue_capacity: 8,
            expectation: Expectation::Detection,
        },
        FaultScenario {
            name: "delayed-refresh",
            injector: FaultInjector::new().with_spec(FaultSpec::always(
                FaultSite::ANY,
                FaultKind::DelayRefresh {
                    delay: Duration::from_ns(100),
                },
            )),
            queue_capacity: 8,
            expectation: Expectation::SafeDegradation,
        },
        FaultScenario {
            name: "queue-undersized",
            injector: FaultInjector::new(),
            queue_capacity: 2, // below the segment count: overflows on mass expiry
            expectation: Expectation::SafeDegradation,
        },
        FaultScenario {
            name: "dispatch-stall",
            injector: FaultInjector::new().with_spec(FaultSpec::windowed(
                FaultSite::ANY,
                Instant::ZERO + retention,
                Instant::ZERO + retention + retention.div_by(2),
                FaultKind::StallDispatch,
            )),
            queue_capacity: 8,
            expectation: Expectation::DegradedAndDetected,
        },
        FaultScenario {
            name: "weak-cells",
            injector: FaultInjector::new().with_random_weak_cells(&g, seed, 4, retention.div_by(2)),
            queue_capacity: 8,
            expectation: Expectation::Detection,
        },
        FaultScenario {
            name: "thermal-derating",
            injector: FaultInjector::new().with_temperature(95.0),
            queue_capacity: 8,
            expectation: Expectation::Detection,
        },
        FaultScenario {
            name: "variable-retention",
            // A mid-run VRT episode: from one retention interval in, a
            // random row holds charge for only a quarter interval; the
            // episode ends two intervals later and the baseline returns.
            // The policy is not told, so the tracker must flag the decay.
            injector: FaultInjector::new().with_random_vrt_episode(
                &g,
                seed,
                retention.div_by(4),
                Instant::ZERO + retention,
                Instant::ZERO + retention + retention + retention,
            ),
            queue_capacity: 8,
            expectation: Expectation::Detection,
        },
    ]
}

/// Runs one scenario: Smart Refresh (3-bit counters, 8 segments, §4.6
/// hysteresis armed) under the scenario's injector, driven by a seeded
/// background access stream confined to the lower half of the rows.
///
/// # Errors
///
/// Propagates [`SimError`] from the controller; fault perturbations
/// themselves never error — that is the point of graceful degradation.
pub fn run_scenario(
    cfg: &CampaignConfig,
    scenario: &FaultScenario,
) -> Result<ScenarioOutcome, SimError> {
    let g = cfg.module.geometry;
    let timing = cfg.module.timing;
    let smart = SmartRefreshConfig {
        queue_capacity: scenario.queue_capacity,
        ..SmartRefreshConfig::paper_defaults()
    };
    let mut mc = kernel::build(g, timing, SmartRefresh::new(g, timing.retention, smart))
        .with_fault_injector(scenario.injector.clone());

    // Rows with an exact fault site are off-limits to the access stream:
    // an access restores the row's charge, which would mask the loss the
    // scenario is supposed to detect.
    let excluded: Vec<u64> = scenario
        .injector
        .specs()
        .iter()
        .filter_map(|s| match s.site {
            FaultSite {
                rank: Some(rank),
                bank: Some(bank),
                row: Some(row),
            } => Some(g.flatten(RowAddr { rank, bank, row })),
            _ => None,
        })
        .collect();
    let horizon = Instant::ZERO + cfg.horizon;
    let reads = kernel::stream(
        g,
        cfg.access_gap,
        horizon,
        cfg.seed ^ 0x5ce2_a210,
        &excluded,
    );
    kernel::drain(&mut mc, reads, horizon)?;

    let tracker = mc.device().retention();
    let late: Vec<u64> = tracker
        .late_restores()
        .iter()
        .filter(|l| l.interval > l.deadline + cfg.guard)
        .map(|l| l.flat_index)
        .collect();
    let violations = tracker.violations(horizon);
    let undetected_sites = excluded
        .iter()
        .filter(|flat| !late.contains(flat) && !violations.contains(flat))
        .map(|&flat| g.unflatten(flat))
        .collect();
    let injector = mc.fault_injector().ok_or(SimError::Internal {
        what: "fault injector missing after installation",
    })?;
    let events = mc.policy().degradation_events();
    Ok(ScenarioOutcome {
        name: scenario.name,
        expectation: scenario.expectation,
        faults: injector.stats(),
        injected: crate::report::distinct(
            scenario
                .injector
                .specs()
                .iter()
                .map(|spec| crate::report::fault_kind_label(&spec.kind)),
        ),
        ctrl: *mc.stats(),
        degradations: events.to_vec(),
        late_restores: late.len(),
        end_violations: violations.len(),
        undetected_sites,
        in_fallback: mc.policy().in_fallback(),
        recovered: events.iter().any(|e| e.recovered_at.is_some()),
    })
}

/// Runs the [`standard_campaign`] under `cfg`.
///
/// # Errors
///
/// Propagates the first [`SimError`] any scenario hits.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignResult, SimError> {
    let outcomes = standard_campaign(&cfg.module, cfg.seed)
        .iter()
        .map(|s| run_scenario(cfg, s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignResult { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_of_round_trips_through_decode() {
        let g = Geometry::new(2, 4, 64, 16, 64);
        for flat in [0u64, 1, 63, 64, 200, 511] {
            let row = g.unflatten(flat);
            assert_eq!(g.decode(addr_of(&g, row)).row_addr, row);
        }
    }

    #[test]
    fn standard_campaign_has_one_scenario_per_fault_class() {
        let cfg = CampaignConfig::quick(7);
        let names: Vec<_> = standard_campaign(&cfg.module, 7)
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "dropped-refresh",
                "delayed-refresh",
                "queue-undersized",
                "dispatch-stall",
                "weak-cells",
                "thermal-derating",
                "variable-retention"
            ]
        );
    }

    #[test]
    fn outcome_judgement_matches_expectation_semantics() {
        let base = ScenarioOutcome {
            name: "x",
            expectation: Expectation::SafeDegradation,
            faults: FaultStats::default(),
            injected: Vec::new(),
            ctrl: ControllerStats::default(),
            degradations: vec![DegradationEvent {
                cause: smartrefresh_core::DegradeCause::QueueOverflow,
                at: Instant::ZERO,
                recovered_at: None,
            }],
            late_restores: 0,
            end_violations: 0,
            undetected_sites: Vec::new(),
            in_fallback: true,
            recovered: false,
        };
        assert!(base.holds());
        let mut leaked = base.clone();
        leaked.end_violations = 1;
        assert!(!leaked.holds(), "a violation breaks safe degradation");
        let mut silent = base.clone();
        silent.expectation = Expectation::Detection;
        assert!(!silent.holds(), "detection needs a tracker signal");
        silent.late_restores = 2;
        assert!(silent.holds());
        silent.undetected_sites = vec![RowAddr {
            rank: 0,
            bank: 0,
            row: 1,
        }];
        assert!(!silent.holds(), "an undetected site is a silent escape");
    }
}
