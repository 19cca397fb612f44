//! Rowhammer attack-vs-defense campaign.
//!
//! Drives the full controller stack with the hammer streams of
//! [`smartrefresh_workloads::hammer`] while a seeded disturbance fault
//! channel flips bits in the aggressors' neighbors, and measures what the
//! Refresh Management engine buys:
//!
//! * **undefended** — the double-sided attack against a controller with
//!   SECDED + patrol scrub but no RFM: disturbance flips accumulate to
//!   uncorrectable errors;
//! * **defended** — the same attack with RFM enabled: RAAIMT crossings
//!   refresh the hottest rows' neighbors before their pressure reaches
//!   the flip threshold, and the campaign requires at least a 10× UE
//!   reduction while charging every victim refresh to
//!   [`EnergyBreakdown::rfm_j`](smartrefresh_energy::EnergyBreakdown);
//! * **budget-exhaustion** — a many-sided attack against a deliberately
//!   starved RFM budget: the engine must escalate through elevated-rate
//!   refresh into a [`DegradeCause::DisturbanceStorm`] CBR fallback
//!   without panicking — graceful degradation, not silent corruption.
//!
//! `smart-refresh study rfm` prints the table and
//! `crates/sim/tests/rfm.rs` pins the expectations (including seed
//! determinism) in CI.

use smartrefresh_core::{
    DegradationEvent, DegradeCause, RefreshPolicy, SmartRefresh, SmartRefreshConfig,
};
use smartrefresh_ctrl::{
    ControllerStats, EccConfig, MemTransaction, RfmConfig, RfmEngineStats, RfmLevel, ScrubConfig,
    SimError,
};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, ModuleConfig, OpStats, RowAddr};
use smartrefresh_energy::DramPowerParams;
use smartrefresh_faults::{FaultInjector, FaultSite};
use smartrefresh_workloads::{HammerGenerator, HammerPattern, HammerSpec, TraceEvent};

use crate::faults::addr_of;
use crate::kernel;

/// How the campaign drives the system.
#[derive(Debug, Clone)]
pub struct RfmCampaignConfig {
    /// The DRAM module under attack.
    pub module: ModuleConfig,
    /// Simulated span of each scenario.
    pub horizon: Duration,
    /// Seed for the hammer column jitter, the ECC flip positions, and the
    /// disturbance flip draws.
    pub seed: u64,
    /// Patrol-scrub covering period (every row visited once per period).
    pub scrub_period: Duration,
    /// Power model used to price victim refreshes.
    pub power: DramPowerParams,
}

impl RfmCampaignConfig {
    /// The fault-campaign module (1024 rows, 8 ms retention) attacked for
    /// one millisecond — seconds of wall time.
    pub fn quick(seed: u64) -> Self {
        use smartrefresh_dram::TimingParams;
        let module = ModuleConfig {
            name: "rfm-campaign",
            geometry: Geometry::new(1, 4, 256, 32, 64), // 1024 rows
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        RfmCampaignConfig {
            module,
            horizon: Duration::from_ms(1),
            seed,
            scrub_period: Duration::from_us(500),
            power: DramPowerParams::ddr2_2gb(),
        }
    }
}

/// One named attack scenario.
#[derive(Debug, Clone)]
pub struct RfmScenario {
    /// Scenario name used in reports.
    pub name: &'static str,
    /// The hammer streams, merged in timestamp order.
    pub attacks: Vec<HammerSpec>,
    /// Adjacent-row ACT count at which a victim draws a flip.
    pub act_threshold: u32,
    /// Bits flipped per crossing (2 makes every flip uncorrectable).
    pub flips_per_crossing: u8,
    /// RFM configuration; `None` runs the attack undefended.
    pub rfm: Option<RfmConfig>,
}

/// The observed behaviour of one scenario run.
#[derive(Debug, Clone)]
pub struct RfmOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// The controller's counters at the end of the victim sweep: RFM
    /// commands, victim rows they refreshed, ACTs stalled behind a
    /// mandatory RAAMMT refresh, corrected and uncorrectable errors.
    pub ctrl: ControllerStats,
    /// The device's operation counts (the ACTIVATEs the attack forced
    /// among them).
    pub ops: OpStats,
    /// Disturbance threshold crossings the injector recorded.
    pub hammer_crossings: u64,
    /// Bits the injector actually flipped.
    pub bits_flipped: u64,
    /// Energy spent on RFM victim refreshes, joules.
    pub rfm_j: f64,
    /// Energy spent on regular refreshes over the run, joules.
    pub refresh_j: f64,
    /// RFM engine counters (zeroed when undefended).
    pub rfm_stats: RfmEngineStats,
    /// Engine level at the end of the run (`None` when undefended).
    pub final_level: Option<RfmLevel>,
    /// Every graceful-degradation episode the policy logged.
    pub degradations: Vec<DegradationEvent>,
    /// Whether the policy was still in its CBR fallback at the end.
    pub in_fallback: bool,
}

impl RfmOutcome {
    /// Whether a [`DegradeCause::DisturbanceStorm`] episode was logged.
    pub fn stormed(&self) -> bool {
        self.degradations
            .iter()
            .any(|e| e.cause == DegradeCause::DisturbanceStorm)
    }
}

/// A full campaign's outcomes.
#[derive(Debug, Clone)]
pub struct RfmCampaignResult {
    /// The double-sided attack without RFM.
    pub undefended: RfmOutcome,
    /// The same attack with RFM enabled.
    pub defended: RfmOutcome,
    /// The many-sided attack against a starved RFM budget.
    pub exhaustion: RfmOutcome,
}

impl RfmCampaignResult {
    /// The headline claim: the defense cuts uncorrectable errors at least
    /// 10×, and the undefended attack actually corrupted something (else
    /// the comparison is vacuous).
    pub fn defense_holds(&self) -> bool {
        self.undefended.ctrl.ue_detected >= 1
            && self.defended.ctrl.ue_detected * 10 <= self.undefended.ctrl.ue_detected
            && self.defended.ctrl.rfm_commands > 0
    }

    /// The graceful-degradation claim: the starved engine passed through
    /// elevated-rate refresh (starved windows accumulated) into a logged
    /// disturbance-storm fallback — and the run completed, so nothing
    /// panicked.
    pub fn exhaustion_holds(&self) -> bool {
        self.exhaustion.stormed()
            && self.exhaustion.rfm_stats.storms_entered >= 1
            && self.exhaustion.rfm_stats.starved_windows >= 2
    }

    /// True when both claims hold.
    pub fn all_hold(&self) -> bool {
        self.defense_holds() && self.exhaustion_holds()
    }
}

fn double_sided(bank: u32, victim_row: u32) -> HammerSpec {
    HammerSpec {
        pattern: HammerPattern::DoubleSided,
        rank: 0,
        bank,
        victim_row,
        act_gap: Duration::from_ns(200),
    }
}

/// The RFM configuration the defended scenario runs: RAAIMT 32 against
/// the campaign's flip threshold of 64, with a budget generous enough
/// that every crossing gets its elective RFM.
pub fn standard_defense() -> RfmConfig {
    let mut cfg = RfmConfig::new(32);
    cfg.window = Duration::from_us(100);
    cfg.budget_per_window = 256;
    cfg
}

/// The canonical three scenarios: the double-sided attack undefended and
/// defended, then the many-sided attack against a starved budget.
pub fn standard_rfm_campaign(module: &ModuleConfig) -> Vec<RfmScenario> {
    let rows = module.geometry.rows();
    let attacks = vec![double_sided(0, rows / 2), double_sided(1, rows / 3)];
    let mut starved = standard_defense();
    starved.budget_per_window = 1;
    starved.storm_windows = 2;
    starved.calm_windows = 4;
    vec![
        RfmScenario {
            name: "undefended",
            attacks: attacks.clone(),
            act_threshold: 64,
            flips_per_crossing: 2,
            rfm: None,
        },
        RfmScenario {
            name: "defended",
            attacks,
            act_threshold: 64,
            flips_per_crossing: 2,
            rfm: Some(standard_defense()),
        },
        RfmScenario {
            name: "budget-exhaustion",
            attacks: vec![HammerSpec {
                pattern: HammerPattern::ManySided { aggressors: 6 },
                rank: 0,
                bank: 2,
                victim_row: rows / 2,
                act_gap: Duration::from_ns(200),
            }],
            act_threshold: 64,
            flips_per_crossing: 2,
            rfm: Some(starved),
        },
    ]
}

/// Runs one scenario: Smart Refresh (hysteresis armed) plus SECDED and a
/// covering patrol scrub, under the scenario's hammer streams and
/// disturbance channel, with RFM installed when the scenario defends.
/// After the horizon, every victim row is demand-read once so outstanding
/// uncorrectable errors are detected deterministically.
///
/// # Errors
///
/// Propagates [`SimError`] from the controller — including sanitizer
/// flags when `SMARTREFRESH_SANITIZE=1` arms the protocol checker.
pub fn run_rfm_scenario(
    cfg: &RfmCampaignConfig,
    scenario: &RfmScenario,
) -> Result<RfmOutcome, SimError> {
    let g = cfg.module.geometry;
    let timing = cfg.module.timing;
    let policy = SmartRefresh::new(g, timing.retention, SmartRefreshConfig::paper_defaults());
    let mut mc = kernel::build(g, timing, policy)
        .with_ecc(
            EccConfig::new(cfg.seed)
                .with_scrub(ScrubConfig::covering(cfg.scrub_period, g.total_rows())),
        )
        .with_fault_injector(FaultInjector::new().with_disturbance(
            FaultSite::ANY,
            scenario.act_threshold,
            scenario.flips_per_crossing,
            cfg.seed,
        ));
    if let Some(rfm) = scenario.rfm {
        mc = mc.with_rfm(rfm)?;
    }

    let mut gens: Vec<HammerGenerator> = scenario
        .attacks
        .iter()
        .enumerate()
        .map(|(i, spec)| HammerGenerator::new(*spec, g, cfg.seed ^ ((i as u64) << 32)))
        .collect();
    let victims: Vec<RowAddr> = scenario
        .attacks
        .iter()
        .zip(&gens)
        .flat_map(|(spec, gen)| {
            gen.victims().into_iter().map(|row| RowAddr {
                rank: spec.rank,
                bank: spec.bank,
                row,
            })
        })
        .collect();

    // K-way merge of the (infinite, monotone) hammer streams up to the
    // horizon; ties break on stream index, so the interleave is
    // deterministic.
    let horizon = Instant::ZERO + cfg.horizon;
    let mut pending: Vec<Option<TraceEvent>> = gens.iter_mut().map(Iterator::next).collect();
    let attack = std::iter::from_fn(|| {
        let (idx, event) = pending
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .min_by_key(|(_, e)| e.time)
            .filter(|(_, e)| e.time <= horizon)?;
        pending[idx] = gens[idx].next();
        Some(MemTransaction {
            addr: event.addr,
            is_write: event.is_write,
            arrival: event.time,
        })
    });
    kernel::drain(&mut mc, attack, horizon)?;

    // Victim sweep: one demand read per victim row, so every accumulated
    // flip meets the SECDED decoder before the books close. A demand read
    // of a corrupted row errors with `Uncorrectable` — that *is* the
    // detection (the UE is counted and the policy degraded before the
    // error surfaces), so the sweep absorbs it and keeps reading.
    let mut t = horizon;
    for &victim in &victims {
        t += Duration::from_us(1);
        match mc.access(MemTransaction::read(addr_of(&g, victim), t)) {
            Ok(_) | Err(SimError::Uncorrectable { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    mc.check_sanitizer(t)?;

    let ops = *mc.device().stats();
    let injector = mc.fault_injector().ok_or(SimError::Internal {
        what: "fault injector missing after installation",
    })?;
    let (final_level, rfm_stats) = match mc.rfm() {
        Some(engine) => (Some(engine.level()), engine.stats()),
        None => (None, RfmEngineStats::default()),
    };
    Ok(RfmOutcome {
        name: scenario.name,
        ctrl: *mc.stats(),
        ops,
        hammer_crossings: injector.stats().hammer_crossings,
        bits_flipped: injector.stats().disturbance_bits_flipped,
        rfm_j: ops.rfm_refreshes as f64 * cfg.power.e_refresh_row,
        refresh_j: ops.total_refreshes() as f64 * cfg.power.e_refresh_row,
        rfm_stats,
        final_level,
        degradations: mc.policy().degradation_events().to_vec(),
        in_fallback: mc.policy().in_fallback(),
    })
}

/// Runs the [`standard_rfm_campaign`] under `cfg`.
///
/// # Errors
///
/// Propagates the first [`SimError`] any scenario hits.
pub fn run_rfm_campaign(cfg: &RfmCampaignConfig) -> Result<RfmCampaignResult, SimError> {
    let scenarios = standard_rfm_campaign(&cfg.module);
    let mut outcomes = scenarios
        .iter()
        .map(|s| run_rfm_scenario(cfg, s))
        .collect::<Result<Vec<_>, _>>()?;
    let exhaustion = outcomes.pop().ok_or(SimError::Internal {
        what: "rfm campaign lost its exhaustion scenario",
    })?;
    let defended = outcomes.pop().ok_or(SimError::Internal {
        what: "rfm campaign lost its defended scenario",
    })?;
    let undefended = outcomes.pop().ok_or(SimError::Internal {
        what: "rfm campaign lost its undefended scenario",
    })?;
    Ok(RfmCampaignResult {
        undefended,
        defended,
        exhaustion,
    })
}

/// Sweeps the defended scenario across RAAIMT values, exposing the
/// protection-vs-energy tradeoff: tight thresholds spend refresh energy,
/// loose ones let flips through. Each point is the RAAIMT and the
/// scenario's outcome under it.
///
/// # Errors
///
/// Propagates the first [`SimError`] any point hits.
pub fn rfm_threshold_sweep(
    cfg: &RfmCampaignConfig,
    raaimts: &[u32],
) -> Result<Vec<(u32, RfmOutcome)>, SimError> {
    let defended = standard_rfm_campaign(&cfg.module)
        .into_iter()
        .find(|s| s.rfm.is_some() && s.name == "defended")
        .ok_or(SimError::Internal {
            what: "rfm campaign lost its defended scenario",
        })?;
    raaimts
        .iter()
        .map(|&raaimt| {
            let mut scenario = defended.clone();
            let mut rfm = standard_defense();
            rfm.raaimt = raaimt;
            rfm.raammt = raaimt.saturating_mul(3);
            rfm.act_ceiling = rfm.act_ceiling.max(rfm.raammt);
            scenario.rfm = Some(rfm);
            Ok((raaimt, run_rfm_scenario(cfg, &scenario)?))
        })
        .collect()
}
