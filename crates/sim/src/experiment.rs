//! Single-experiment runner.
//!
//! [`run_experiment`] drives one workload through one module configuration
//! under one refresh policy, interleaving demand accesses with the policy's
//! own wakeups exactly as the memory controller would, and measures
//! everything the figures need *after* a warm-up period (caches filled,
//! counters past their power-up transient).

use smartrefresh_cache::StackedDramCache;
use smartrefresh_core::{
    BurstRefresh, CbrDistributed, CounterPowerConfig, NoRefresh, RasOnlyDistributed, RefreshPolicy,
    RetentionAwareDistributed, SmartRefresh, SmartRefreshConfig,
};
use smartrefresh_ctrl::{
    ControllerStats, EccConfig, MemTransaction, MemoryController, PagePolicy, RfmConfig, SimError,
};
use smartrefresh_dram::profile::RetentionProfile;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{ModuleConfig, OpStats};
use smartrefresh_energy::{
    BusEnergyModel, DramPowerParams, EccLogicModel, EnergyBreakdown, SramArrayModel,
};
use smartrefresh_faults::{FaultInjector, FaultSite};
use smartrefresh_workloads::{AccessGenerator, TraceEvent, WorkloadSpec};

/// Which refresh policy to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Distributed CAS-before-RAS refresh — the paper's baseline.
    CbrDistributed,
    /// Distributed refresh with explicit row addresses (overhead ablation).
    RasOnlyDistributed,
    /// Burst refresh (staggering ablation).
    Burst,
    /// Smart Refresh with the given engine configuration.
    Smart(SmartRefreshConfig),
    /// No refresh at all (integrity-checker validation / upper bound).
    NoRefresh,
    /// RAPID-like retention-aware distributed refresh (§8 related work),
    /// with a measured per-row profile generated from `profile_seed`.
    RetentionAware {
        /// Seed for the synthetic retention profile.
        profile_seed: u64,
    },
    /// Smart Refresh stacked on a retention profile — the §8 orthogonality
    /// combination.
    SmartRetentionAware {
        /// Smart Refresh engine configuration.
        cfg: SmartRefreshConfig,
        /// Seed for the synthetic retention profile.
        profile_seed: u64,
    },
}

impl PolicyKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::CbrDistributed => "cbr",
            PolicyKind::RasOnlyDistributed => "ras-only",
            PolicyKind::Burst => "burst",
            PolicyKind::Smart(_) => "smart",
            PolicyKind::NoRefresh => "none",
            PolicyKind::RetentionAware { .. } => "retention-aware",
            PolicyKind::SmartRetentionAware { .. } => "smart+ra",
        }
    }

    /// The retention-profile seed, for policies that carry one. The runner
    /// applies the same profile to the device's integrity checker.
    pub fn profile_seed(&self) -> Option<u64> {
        match *self {
            PolicyKind::RetentionAware { profile_seed }
            | PolicyKind::SmartRetentionAware { profile_seed, .. } => Some(profile_seed),
            _ => None,
        }
    }

    /// Builds the boxed policy instance for a module.
    pub fn build(&self, module: &ModuleConfig) -> Box<dyn RefreshPolicy> {
        let g = module.geometry;
        let r = module.timing.retention;
        match *self {
            PolicyKind::CbrDistributed => Box::new(CbrDistributed::new(g, r)),
            PolicyKind::RasOnlyDistributed => Box::new(RasOnlyDistributed::new(g, r)),
            PolicyKind::Burst => Box::new(BurstRefresh::new(g, r)),
            PolicyKind::Smart(cfg) => Box::new(SmartRefresh::new(g, r, cfg)),
            PolicyKind::NoRefresh => Box::new(NoRefresh::new()),
            PolicyKind::RetentionAware { profile_seed } => {
                Box::new(RetentionAwareDistributed::new(
                    g,
                    r,
                    RetentionProfile::rapid_like(g.total_rows(), profile_seed),
                ))
            }
            PolicyKind::SmartRetentionAware { cfg, profile_seed } => {
                Box::new(SmartRefresh::with_profile(
                    g,
                    r,
                    cfg,
                    &RetentionProfile::rapid_like(g.total_rows(), profile_seed),
                ))
            }
        }
    }
}

/// Disturbance (rowhammer) fault channel for an experiment: every row
/// accumulates neighbor-activation pressure between refreshes, and each
/// `act_threshold` crossing may flip bits in the victim row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisturbanceConfig {
    /// Neighbor activations between refreshes before flips may occur.
    pub act_threshold: u32,
    /// Bits flipped per threshold crossing (2 ⇒ immediately uncorrectable
    /// under SECDED).
    pub flips_per_crossing: u8,
}

impl DisturbanceConfig {
    /// The hammer-campaign default: flips start past 64 neighbor ACTs and
    /// arrive two at a time, so an undefended crossing is uncorrectable.
    pub fn campaign_default() -> Self {
        DisturbanceConfig {
            act_threshold: 64,
            flips_per_crossing: 2,
        }
    }
}

/// How the workload stream reaches the module under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Conventional: the stream is the DRAM-level access stream (Figs 6–11).
    Conventional,
    /// 3D: the stream is an L2-miss stream filtered through the
    /// direct-mapped stacked-DRAM cache of Table 2 (Figs 12–18).
    Stacked,
}

/// Everything needed to run one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Module geometry and timing under test.
    pub module: ModuleConfig,
    /// DRAM power model for this module class.
    pub power: DramPowerParams,
    /// Address-bus energy model (Table 3 or the 3D via model).
    pub bus: BusEnergyModel,
    /// Refresh policy under test.
    pub policy: PolicyKind,
    /// Conventional or stacked-cache topology.
    pub topology: Topology,
    /// Measurement span, excluding warm-up.
    pub measure: Duration,
    /// Warm-up span before measurement starts.
    pub warmup: Duration,
    /// Workload RNG seed.
    pub seed: u64,
    /// The workload's reference interval (the timescale its intensity is
    /// defined over). Defaults to the module's retention; the 32 ms hot-3D
    /// corpus overrides it to 64 ms so the program does not "speed up" when
    /// the refresh rate doubles.
    pub reference: Duration,
    /// Row-buffer management policy (Table 1 default: open page).
    pub page_policy: PagePolicy,
    /// Geometry the workload's footprint is sized against, when it differs
    /// from the module under test (e.g. the same program stream driven into
    /// a half-size 32 MB stack). `None` uses the module's own geometry.
    pub workload_geometry: Option<smartrefresh_dram::Geometry>,
    /// ECC / patrol-scrub / watchdog configuration. `None` (the default)
    /// runs without the ECC layer; figures are unchanged. When set, scrub
    /// DRAM energy and ECC logic energy appear in the breakdown.
    pub ecc: Option<EccConfig>,
    /// Counter power-state policy across CKE-low windows. The default —
    /// persistent counters at zero retention cost — is the paper's
    /// free-counter assumption and leaves every figure bit-identical.
    pub counter_power: CounterPowerConfig,
    /// Refresh Management (rowhammer mitigation) configuration. `None`
    /// (the default) runs without RAA tracking; figures are unchanged.
    /// When set, RFM victim-refresh energy appears in the breakdown.
    pub rfm: Option<RfmConfig>,
    /// Disturbance (rowhammer) fault channel, seeded from the experiment
    /// seed. `None` (the default) runs without a fault injector; figures
    /// are unchanged.
    pub disturbance: Option<DisturbanceConfig>,
}

impl ExperimentConfig {
    /// A conventional-topology experiment with paper-default spans:
    /// two retention intervals of warm-up, six of measurement.
    pub fn conventional(module: ModuleConfig, power: DramPowerParams, policy: PolicyKind) -> Self {
        let retention = module.timing.retention;
        ExperimentConfig {
            bus: BusEnergyModel::table3(module.geometry.ranks()),
            module,
            power,
            policy,
            topology: Topology::Conventional,
            measure: retention * 6,
            warmup: retention * 2,
            seed: 0x5eed,
            reference: retention,
            page_policy: PagePolicy::Open,
            workload_geometry: None,
            ecc: None,
            counter_power: CounterPowerConfig::default(),
            rfm: None,
            disturbance: None,
        }
    }

    /// A stacked-topology experiment (3D DRAM cache) with paper-default
    /// spans and the die-to-die via bus model.
    pub fn stacked(module: ModuleConfig, power: DramPowerParams, policy: PolicyKind) -> Self {
        let retention = module.timing.retention;
        ExperimentConfig {
            bus: BusEnergyModel::stacked_3d(),
            module,
            power,
            policy,
            topology: Topology::Stacked,
            measure: retention * 6,
            warmup: retention * 2,
            seed: 0x5eed,
            reference: retention,
            page_policy: PagePolicy::Open,
            workload_geometry: None,
            ecc: None,
            counter_power: CounterPowerConfig::default(),
            rfm: None,
            disturbance: None,
        }
    }

    /// Scales both spans by `factor` (for quick runs / tests).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite"
        );
        self.measure = Duration::from_ps((self.measure.as_ps() as f64 * factor) as u64);
        self.warmup = Duration::from_ps((self.warmup.as_ps() as f64 * factor) as u64);
        self
    }
}

/// Measured outputs of one experiment (post-warm-up).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Policy name.
    pub policy: &'static str,
    /// Refresh operations per second over the measurement span.
    pub refreshes_per_sec: f64,
    /// Energy breakdown over the measurement span.
    pub energy: EnergyBreakdown,
    /// DRAM operation counts over the measurement span.
    pub ops: OpStats,
    /// Controller statistics over the measurement span.
    pub ctrl: ControllerStats,
    /// Counter-array SRAM traffic (reads, writes) over the span.
    pub sram_ops: (u64, u64),
    /// Peak pending-refresh-queue occupancy over the whole run.
    pub queue_high_water: usize,
    /// Whether the policy ended in fallback mode (Smart Refresh only).
    pub ended_in_fallback: bool,
    /// Retention integrity verdict at the end of the run.
    pub integrity_ok: bool,
    /// Main-memory accesses behind the stacked cache (stacked topology).
    pub memory_behind_cache: u64,
    /// Measurement span.
    pub span: Duration,
    /// Accesses-per-kilo-instruction of the workload (for the CPI model).
    pub apki: f64,
}

impl RunResult {
    /// Mean demand-access latency in seconds.
    pub fn avg_latency_s(&self) -> f64 {
        self.ctrl.avg_latency().as_secs_f64()
    }

    /// Seconds per instruction under a simple in-order CPI model: a 3 GHz
    /// core with base CPI 1.0 plus `apki/1000` DRAM accesses each stalling
    /// for the mean latency. Used for the Fig 18 performance comparison.
    pub fn seconds_per_instruction(&self) -> f64 {
        const BASE_SPI: f64 = 1.0 / 3.0e9;
        BASE_SPI + self.apki / 1000.0 * self.avg_latency_s()
    }
}

/// Runs one experiment to completion.
///
/// # Errors
///
/// Propagates [`SimError`] if the controller issues an illegal command —
/// a bug in the harness, not a workload property.
///
/// # Panics
///
/// Panics if the configuration's spans are not positive.
pub fn run_experiment(cfg: &ExperimentConfig, spec: &WorkloadSpec) -> Result<RunResult, SimError> {
    let workload_geometry = cfg.workload_geometry.unwrap_or(cfg.module.geometry);
    let gen = AccessGenerator::new(spec, workload_geometry, cfg.reference, 0, cfg.seed);
    run_experiment_with_events(cfg, gen, spec.name, spec.apki)
}

/// Runs one experiment driven by an arbitrary timed event stream — a
/// recorded trace ([`smartrefresh_workloads::trace::read_trace`]), a merged
/// multi-process stream, or any other iterator of accesses. Events after
/// the configured horizon are ignored.
///
/// # Errors
///
/// Propagates [`SimError`] like [`run_experiment`].
///
/// # Panics
///
/// Panics if the configuration's spans are not positive.
pub fn run_experiment_with_events<I>(
    cfg: &ExperimentConfig,
    events: I,
    workload_name: &'static str,
    apki: f64,
) -> Result<RunResult, SimError>
where
    I: IntoIterator<Item = TraceEvent>,
{
    // Dispatch on the policy once, up front, so the entire event loop —
    // controller, policy wakeups, counter resets — monomorphizes over the
    // concrete policy type. The boxed path pays a virtual call on every
    // `next_wakeup`/`on_row_opened`/`on_row_closed`, several per access,
    // which is measurable across a 13-figure corpus.
    let g = cfg.module.geometry;
    let r = cfg.module.timing.retention;
    match cfg.policy {
        PolicyKind::CbrDistributed => {
            replay(cfg, events, workload_name, apki, CbrDistributed::new(g, r))
        }
        PolicyKind::RasOnlyDistributed => replay(
            cfg,
            events,
            workload_name,
            apki,
            RasOnlyDistributed::new(g, r),
        ),
        PolicyKind::Burst => replay(cfg, events, workload_name, apki, BurstRefresh::new(g, r)),
        PolicyKind::Smart(scfg) => replay(
            cfg,
            events,
            workload_name,
            apki,
            SmartRefresh::new(g, r, scfg),
        ),
        PolicyKind::NoRefresh => replay(cfg, events, workload_name, apki, NoRefresh::new()),
        PolicyKind::RetentionAware { profile_seed } => replay(
            cfg,
            events,
            workload_name,
            apki,
            RetentionAwareDistributed::new(
                g,
                r,
                RetentionProfile::rapid_like(g.total_rows(), profile_seed),
            ),
        ),
        PolicyKind::SmartRetentionAware {
            cfg: scfg,
            profile_seed,
        } => replay(
            cfg,
            events,
            workload_name,
            apki,
            SmartRefresh::with_profile(
                g,
                r,
                scfg,
                &RetentionProfile::rapid_like(g.total_rows(), profile_seed),
            ),
        ),
    }
}

/// Drives one monomorphized [`Run`] over an event stream, cut at the
/// horizon, through the configuration's own [`Front`].
fn replay<P, I>(
    cfg: &ExperimentConfig,
    events: I,
    workload_name: &'static str,
    apki: f64,
    policy: P,
) -> Result<RunResult, SimError>
where
    P: RefreshPolicy,
    I: IntoIterator<Item = TraceEvent>,
{
    let mut run = Run::new(cfg, policy)?;
    let mut front = Front::new(cfg);
    for event in events {
        if event.time > run.horizon {
            break;
        }
        run.feed(front.translate(event))?;
    }
    run.finish(cfg, workload_name, apki, front.measured())
}

/// What a run turns its event stream into before the controller sees it:
/// the events themselves (conventional topology), or the stacked-DRAM
/// traffic of the Table 2 L3 they pass through (stacked topology), plus
/// the main-memory traffic behind that cache.
///
/// The cache's transitions depend only on the events, never on the
/// refresh policy, so one `Front` can feed several [`Run`]s of the same
/// stream — the baseline/Smart pairs of the figure corpus share one.
#[derive(Debug)]
pub(crate) struct Front {
    l3: Option<StackedDramCache>,
    warm_end: Instant,
    /// Main-memory fills plus write-backs behind the L3 so far.
    behind: u64,
    /// `behind` just before the first event past the warm-up — the same
    /// event at which every [`Run`] fed from here takes its snapshot.
    warm_behind: Option<u64>,
}

impl Front {
    pub(crate) fn new(cfg: &ExperimentConfig) -> Self {
        Front {
            l3: match cfg.topology {
                Topology::Conventional => None,
                Topology::Stacked => {
                    Some(StackedDramCache::new(cfg.module.geometry.capacity_bytes()))
                }
            },
            warm_end: Instant::ZERO + cfg.warmup,
            behind: 0,
            warm_behind: None,
        }
    }

    /// The controller transaction for `event`.
    #[inline]
    pub(crate) fn translate(&mut self, event: TraceEvent) -> MemTransaction {
        match &mut self.l3 {
            None => MemTransaction {
                addr: event.addr,
                is_write: event.is_write,
                arrival: event.time,
            },
            Some(cache) => {
                if self.warm_behind.is_none() && event.time > self.warm_end {
                    self.warm_behind = Some(self.behind);
                }
                let t = cache.access(event.addr, event.is_write);
                self.behind +=
                    u64::from(t.memory_fill.is_some()) + u64::from(t.memory_writeback.is_some());
                MemTransaction {
                    addr: t.stacked_addr,
                    is_write: t.stacked_is_write,
                    arrival: event.time,
                }
            }
        }
    }

    /// Main-memory accesses behind the L3 after the warm-up (zero for the
    /// conventional topology, or when no event came after the warm-up).
    pub(crate) fn measured(&self) -> u64 {
        self.behind - self.warm_behind.unwrap_or(self.behind)
    }
}

/// The counters a run snapshots at the end of its warm-up; the measured
/// results are deltas from here.
#[derive(Debug, Clone, Copy)]
struct Warm {
    ops: OpStats,
    ctrl: ControllerStats,
    sram: (u64, u64),
    open: Duration,
}

/// One experiment, steppable: [`Run::new`] builds the controller,
/// [`Run::feed`] hands it one transaction at a time, and [`Run::finish`]
/// drains it to the horizon and prices the measured window. Everything
/// that runs an experiment — [`run_experiment_with_events`] and the
/// figure corpus's streamed pairs — goes through this one core.
pub(crate) struct Run<P: RefreshPolicy> {
    mc: MemoryController<P>,
    warm_end: Instant,
    /// Transactions past this are the caller's to drop.
    pub(crate) horizon: Instant,
    warm: Option<Warm>,
}

impl<P: RefreshPolicy> Run<P> {
    /// Builds the controller, device and feature stack `cfg` describes,
    /// around `policy` (which must be the one `cfg.policy` names).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the controller's feature builders.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's measurement span is zero.
    pub(crate) fn new(cfg: &ExperimentConfig, policy: P) -> Result<Self, SimError> {
        assert!(!cfg.measure.is_zero(), "measurement span must be positive");
        let module = &cfg.module;
        let mut device = crate::sanitize::device(module.geometry, module.timing);
        if let Some(seed) = cfg.policy.profile_seed() {
            // Integrity is validated against the same variable-retention
            // profile the policy exploits.
            device.apply_retention_profile(&RetentionProfile::rapid_like(
                module.geometry.total_rows(),
                seed,
            ));
        }
        let mut mc = MemoryController::new(device, policy)
            .with_page_policy(cfg.page_policy)
            .with_counter_power(cfg.counter_power);
        if let Some(ecc) = cfg.ecc {
            mc = mc.with_ecc(ecc);
        }
        if let Some(d) = cfg.disturbance {
            mc = mc.with_fault_injector(FaultInjector::new().with_disturbance(
                FaultSite::ANY,
                d.act_threshold,
                d.flips_per_crossing,
                cfg.seed,
            ));
        }
        if let Some(rfm) = cfg.rfm {
            mc = mc.with_rfm(rfm)?;
        }
        let warm_end = Instant::ZERO + cfg.warmup;
        Ok(Run {
            mc,
            warm_end,
            horizon: warm_end + cfg.measure,
            warm: None,
        })
    }

    /// Serves one demand transaction, snapshotting the warm-up counters
    /// first if it is the first one past the warm-up.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the controller.
    // Forced: left to the inliner, `feed` stayed an out-of-line call per
    // event, and the figure corpus's streamed pairs ran measurably slower.
    #[inline(always)]
    pub(crate) fn feed(&mut self, tx: MemTransaction) -> Result<(), SimError> {
        if self.warm.is_none() && tx.arrival > self.warm_end {
            self.warm = Some(self.snapshot()?);
        }
        self.mc.access(tx)?;
        Ok(())
    }

    fn snapshot(&mut self) -> Result<Warm, SimError> {
        self.mc.advance_to(self.warm_end)?;
        let t = self.mc.policy().sram_traffic();
        Ok(Warm {
            ops: *self.mc.device().stats(),
            ctrl: *self.mc.stats(),
            sram: (t.reads, t.writes),
            open: self.mc.device().total_open_time(self.warm_end),
        })
    }

    /// Drains the controller to the horizon and prices the measured
    /// window. `memory_behind_cache` is the [`Front::measured`] count of
    /// the stream this run was fed.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the controller, the sanitizer, or an
    /// inconsistent power-down/refresh bookkeeping.
    pub(crate) fn finish(
        mut self,
        cfg: &ExperimentConfig,
        workload_name: &'static str,
        apki: f64,
        memory_behind_cache: u64,
    ) -> Result<RunResult, SimError> {
        let warm = match self.warm {
            Some(warm) => warm,
            // Degenerate: the workload produced no events after warm-up;
            // still snapshot at the boundary so deltas are well-defined.
            None => self.snapshot()?,
        };
        let horizon = self.horizon;
        let mc = &mut self.mc;
        mc.advance_to(horizon)?;
        mc.check_sanitizer(horizon)?;

        let module = &cfg.module;
        let ops = mc.device().stats().delta_since(&warm.ops);
        let ctrl = mc.stats().delta_since(&warm.ctrl);
        let traffic = mc.policy().sram_traffic();
        let sram_ops = (traffic.reads - warm.sram.0, traffic.writes - warm.sram.1);
        let open_time = mc.device().total_open_time(horizon) - warm.open;
        let integrity_ok = mc.device().check_integrity(horizon).is_ok();
        let ended_in_fallback = mc.policy().in_fallback();

        let dram_energy = cfg
            .power
            .energy_with_powerdown(
                &ops,
                cfg.measure,
                open_time,
                ctrl.bus_charged_refreshes,
                ctrl.powerdown_time.min(cfg.measure),
            )
            .map_err(|_| SimError::Internal {
                what: "controller power-down/refresh bookkeeping is inconsistent",
            })?;
        let counters = SramArrayModel::artisan_90nm(&module.geometry, counter_bits(&cfg.policy));
        let counter_sram_j = counters.energy(sram_ops.0, sram_ops.1);
        // Counter power-state cost across CKE-low windows: retention
        // leakage while persistent, checkpoint round trips while
        // snapshotting. The conservative-reset policy pays nothing here —
        // its cost shows up as refreshes it can no longer skip.
        let counter_power_j = crate::powerdown::counter_power_energy(&cfg.counter_power, &ctrl);
        let row_bits = 32 - (module.geometry.rows() - 1).leading_zeros();
        let refresh_bus_j = cfg.bus.energy(row_bits, ctrl.bus_charged_refreshes);
        // A patrol scrub occupies the bank like a RAS-cycle refresh; the
        // ECC decoder fires once per column read and once per scrub.
        let scrub_j = ops.scrubs as f64 * cfg.power.e_refresh_row;
        // An RFM victim refresh is one RAS cycle against a neighbor row.
        let rfm_j = ops.rfm_refreshes as f64 * cfg.power.e_refresh_row;
        let ecc_logic_j = if cfg.ecc.is_some() {
            EccLogicModel::hamming_72_64().energy(ops.reads + ops.scrubs, ctrl.ce_corrected)
        } else {
            0.0
        };

        Ok(RunResult {
            workload: workload_name,
            policy: cfg.policy.name(),
            refreshes_per_sec: ops.total_refreshes() as f64 / cfg.measure.as_secs_f64(),
            energy: EnergyBreakdown {
                dram: dram_energy,
                counter_sram_j,
                refresh_bus_j,
                scrub_j,
                ecc_logic_j,
                counter_power_j,
                rfm_j,
                sarp_j: 0.0,
            },
            ops,
            ctrl,
            sram_ops,
            queue_high_water: mc.policy().queue_high_water(),
            ended_in_fallback,
            integrity_ok,
            memory_behind_cache,
            span: cfg.measure,
            apki,
        })
    }
}

fn counter_bits(policy: &PolicyKind) -> u32 {
    match policy {
        PolicyKind::Smart(cfg) | PolicyKind::SmartRetentionAware { cfg, .. } => cfg.counter_bits,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_dram::Geometry;
    use smartrefresh_dram::TimingParams;
    use smartrefresh_workloads::Suite;

    /// A miniature module so debug-mode tests stay fast: 1024 rows, 8 ms
    /// retention.
    fn mini_module() -> ModuleConfig {
        ModuleConfig {
            name: "mini",
            geometry: Geometry::new(1, 4, 256, 32, 64),
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        }
    }

    fn mini_spec(coverage: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: "mini",
            suite: Suite::Synthetic,
            coverage,
            intensity: 2.5,
            row_hit_frac: 0.5,
            hot_frac: 0.2,
            hot_weight: 0.5,
            write_frac: 0.3,
            apki: 5.0,
        }
    }

    fn smart_kind() -> PolicyKind {
        PolicyKind::Smart(SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 8,
            hysteresis: None,
        })
    }

    #[test]
    fn baseline_refresh_rate_matches_geometry() {
        let cfg = ExperimentConfig::conventional(
            mini_module(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::CbrDistributed,
        );
        let r = run_experiment(&cfg, &mini_spec(0.4)).unwrap();
        let expected = cfg.module.baseline_refreshes_per_sec();
        assert!(
            (r.refreshes_per_sec / expected - 1.0).abs() < 0.01,
            "measured {} vs expected {expected}",
            r.refreshes_per_sec
        );
        assert!(r.integrity_ok);
    }

    #[test]
    fn smart_reduces_refreshes_by_roughly_the_coverage() {
        let module = mini_module();
        let base = ExperimentConfig::conventional(
            module.clone(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::CbrDistributed,
        );
        let smart =
            ExperimentConfig::conventional(module, DramPowerParams::ddr2_2gb(), smart_kind());
        let spec = mini_spec(0.5);
        let rb = run_experiment(&base, &spec).unwrap();
        let rs = run_experiment(&smart, &spec).unwrap();
        assert!(rs.integrity_ok, "smart refresh must preserve data");
        let reduction = 1.0 - rs.refreshes_per_sec / rb.refreshes_per_sec;
        assert!(
            (0.35..0.60).contains(&reduction),
            "reduction {reduction} should be near the 0.5 coverage"
        );
    }

    #[test]
    fn smart_saves_refresh_and_total_energy() {
        let module = mini_module();
        let spec = mini_spec(0.6);
        let rb = run_experiment(
            &ExperimentConfig::conventional(
                module.clone(),
                DramPowerParams::ddr2_2gb(),
                PolicyKind::CbrDistributed,
            ),
            &spec,
        )
        .unwrap();
        let rs = run_experiment(
            &ExperimentConfig::conventional(module, DramPowerParams::ddr2_2gb(), smart_kind()),
            &spec,
        )
        .unwrap();
        assert!(rs.energy.refresh_savings_vs(&rb.energy) > 0.2);
        assert!(rs.energy.total_savings_vs(&rb.energy) > 0.0);
        // Smart pays overheads the baseline does not.
        assert!(rs.energy.counter_sram_j > 0.0);
        assert!(rs.energy.refresh_bus_j > 0.0);
        assert_eq!(rb.energy.counter_sram_j, 0.0);
        assert_eq!(rb.energy.refresh_bus_j, 0.0);
    }

    #[test]
    fn no_refresh_fails_integrity() {
        let cfg = ExperimentConfig::conventional(
            mini_module(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::NoRefresh,
        );
        // Tiny coverage so demand accesses do not restore everything.
        let r = run_experiment(&cfg, &mini_spec(0.05)).unwrap();
        assert!(!r.integrity_ok, "retention checker must flag no-refresh");
    }

    #[test]
    fn stacked_topology_filters_through_cache() {
        let module = ModuleConfig {
            name: "mini-3d",
            geometry: Geometry::new(1, 4, 64, 16, 64), // 32 KB stack
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        let cfg =
            ExperimentConfig::stacked(module, DramPowerParams::stacked_3d_64mb(), smart_kind());
        let r = run_experiment(&cfg, &mini_spec(0.3)).unwrap();
        assert!(r.integrity_ok);
        assert!(r.ctrl.transactions > 0);
    }

    #[test]
    fn stacked_ecc_stack_is_essentially_free() {
        use smartrefresh_ctrl::{EccConfig, ScrubConfig};
        let module = ModuleConfig {
            name: "mini-3d",
            geometry: Geometry::new(1, 4, 64, 16, 64), // 32 KB stack
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        let mut cfg =
            ExperimentConfig::stacked(module, DramPowerParams::stacked_3d_64mb(), smart_kind());
        cfg.ecc = Some(EccConfig::new(cfg.seed).with_scrub(ScrubConfig::covering(
            cfg.module.timing.retention,
            cfg.module.geometry.total_rows(),
        )));
        let r = run_experiment(&cfg, &mini_spec(0.3)).unwrap();
        assert!(r.integrity_ok);
        assert!(
            r.energy.scrub_j > 0.0,
            "the covering patrol walk costs DRAM energy"
        );
        assert!(
            r.energy.ecc_logic_j > 0.0,
            "every transfer pays the SECDED logic"
        );
        let total = r.energy.total_j();
        let ecc_stack = r.energy.scrub_j + r.energy.ecc_logic_j;
        assert!(
            ecc_stack < total * 0.10,
            "ECC stack ({ecc_stack} J) must stay a small slice of total energy ({total} J); \
             scrub {} J, logic {} J",
            r.energy.scrub_j,
            r.energy.ecc_logic_j
        );
    }

    #[test]
    fn ras_only_baseline_charges_bus_for_every_refresh() {
        let cfg = ExperimentConfig::conventional(
            mini_module(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::RasOnlyDistributed,
        );
        let r = run_experiment(&cfg, &mini_spec(0.3)).unwrap();
        assert_eq!(r.ctrl.bus_charged_refreshes, r.ops.ras_only_refreshes);
        assert!(r.energy.refresh_bus_j > 0.0);
    }

    #[test]
    fn queue_bound_holds_in_full_runs() {
        let cfg = ExperimentConfig::conventional(
            mini_module(),
            DramPowerParams::ddr2_2gb(),
            smart_kind(),
        );
        let r = run_experiment(&cfg, &mini_spec(0.5)).unwrap();
        assert!(r.queue_high_water <= 4, "high water {}", r.queue_high_water);
    }

    #[test]
    fn scaled_config_shrinks_spans() {
        let cfg = ExperimentConfig::conventional(
            mini_module(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::CbrDistributed,
        )
        .scaled(0.5);
        assert_eq!(cfg.measure, Duration::from_ms(24));
        assert_eq!(cfg.warmup, Duration::from_ms(8));
    }
}
