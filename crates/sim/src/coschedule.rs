//! The co-scheduling campaign: maintenance under one system-level
//! scheduler versus per-channel autonomy.
//!
//! Two setups run the same multi-channel module over the same demand
//! streams:
//!
//! * **uncoordinated** — each channel's controller owns a covering-rate
//!   patrol scrubber and its own retention watchdog (the pre-existing
//!   per-channel wiring). Scrub slots land on every channel at the same
//!   instants, victims are picked with no regard for open pages, and each
//!   watchdog sees only its channel's corrected errors;
//! * **co-scheduled** — the channels export their corrected errors and a
//!   [`MaintenanceScheduler`] owns everything: staggered per-channel
//!   patrol phases, precharged-bank victim preference (an open page is
//!   closed only under coverage-deadline pressure), one shared watchdog,
//!   and a CE-rate-adaptive scrub interval.
//!
//! Each setup runs twice:
//!
//! * **clean** — fault-free background reads confined to half the banks,
//!   so the other half is always precharged and the row-buffer preference
//!   has somewhere to go. Verdicts: the co-scheduled run closes strictly
//!   fewer open pages, misses no coverage deadline, and its adaptive
//!   interval slow-walks to at least 4× the covering interval;
//! * **storm** — weak cells on channel 0 are hammered into a sustained
//!   corrected-error storm. Verdict: the adaptive interval converges back
//!   down to at most 2× the covering interval, still missing no coverage
//!   deadline. (The uncoordinated baseline's deadline-order patrol
//!   *fixates* on the weak rows — scrubbing them every slot keeps them
//!   alive but starves every other row of coverage; the co-scheduled
//!   walk's scrub-coverage ordering has no such failure mode.)
//!
//! `smart-refresh study coschedule` prints the table and exits nonzero
//! when any verdict fails; `crates/sim/tests/coschedule.rs` pins them.

use smartrefresh_core::CbrDistributed;
use smartrefresh_ctrl::{EccConfig, ScrubConfig, SimError, WatchdogConfig};
use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, ModuleConfig, TimingParams};
use smartrefresh_energy::{ChannelScrubEnergy, DramPowerParams};
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};

use crate::faults::addr_of;
use crate::scheduler::{AdaptiveScrubConfig, MaintenanceScheduler, SchedulerConfig};
use crate::system::{CbrSystem, MultiChannelSystem};

/// How the campaign builds and drives its systems.
#[derive(Debug, Clone)]
pub struct CoscheduleConfig {
    /// The per-channel DRAM module.
    pub module: ModuleConfig,
    /// Number of channels.
    pub channels: u32,
    /// Address-interleave block size, bytes (power of two).
    pub interleave_bytes: u64,
    /// Run length in watchdog epochs (one epoch = one retention interval).
    pub epochs: u32,
    /// Gap between background accesses in the clean runs.
    pub access_gap: Duration,
    /// Gap between successive hammer reads in the storm runs (each of the
    /// three weak rows is read every `3 × hammer_gap`).
    pub hammer_gap: Duration,
    /// Idle page-close timeout installed on every channel.
    pub page_close_timeout: Duration,
    /// Scheduler slack: how close a coverage deadline must be before a
    /// scrub may close an open page.
    pub slack: Duration,
    /// Seed for the demand streams and per-channel ECC codeword streams.
    pub seed: u64,
}

impl CoscheduleConfig {
    /// A two-channel module small enough to run all four setups in
    /// seconds: 512 rows per channel, 8 ms retention, eight epochs.
    pub fn quick(seed: u64) -> Self {
        let module = ModuleConfig {
            name: "coschedule-campaign",
            geometry: Geometry::new(1, 4, 128, 32, 64), // 512 rows/channel
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        CoscheduleConfig {
            channels: 2,
            interleave_bytes: 4096,
            epochs: 8,
            access_gap: Duration::from_us(2),
            hammer_gap: Duration::from_ms(1),
            page_close_timeout: Duration::from_us(50),
            // One retention interval of slack = one covering-rate lap: a
            // row is forced through an open page when it is within a lap
            // of its promise, deferred while the walk is ahead.
            slack: module.timing.retention,
            module,
            seed,
        }
    }

    /// The covering scrub schedule for one channel: every row once per
    /// retention interval.
    pub fn covering(&self) -> ScrubConfig {
        ScrubConfig::covering(
            self.module.timing.retention,
            self.module.geometry.total_rows(),
        )
    }

    /// Simulated length of each run.
    pub fn horizon(&self) -> Duration {
        self.module.timing.retention * u64::from(self.epochs)
    }

    /// The three weak-cell rows of the storm runs: channel-0 flat indices
    /// in the upper (background-free) half of the flat space.
    pub fn weak_rows(&self) -> Vec<u64> {
        let total = self.module.geometry.total_rows();
        (0..3).map(|k| total * 5 / 8 + k * 17).collect()
    }

    fn adaptive(&self) -> AdaptiveScrubConfig {
        let covering = self.covering().interval;
        AdaptiveScrubConfig {
            min_interval: covering,
            max_interval: covering * 16,
            storm_ces: 4,
            clean_ces: 1,
            clean_epochs_to_slow: 2,
        }
    }
}

/// Which maintenance wiring a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Per-channel scrubbers and watchdogs, no cross-channel coordination.
    Uncoordinated,
    /// One [`MaintenanceScheduler`] owning scrubs and the watchdog.
    Coscheduled,
}

/// Which demand stream a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Fault-free background reads over half the banks.
    Clean,
    /// Weak cells on channel 0 hammered into a CE storm.
    Storm,
}

/// The observed behaviour of one run.
#[derive(Debug, Clone)]
pub struct CoscheduleOutcome {
    /// Which wiring ran.
    pub setup: Setup,
    /// Which demand stream ran.
    pub load: Load,
    /// Patrol scrubs issued, per channel.
    pub scrubs: Vec<u64>,
    /// Watchdog-forced scrubs (all channels).
    pub forced_scrubs: u64,
    /// Scheduler deferrals in favour of precharged banks (co-scheduled
    /// runs only).
    pub deferred_scrubs: u64,
    /// Scheduler scrubs forced through an open page because the victim's
    /// coverage deadline was inside the slack (co-scheduled only).
    pub forced_out_of_slack: u64,
    /// Scheduler scrubs forced through an open page because every bank
    /// held one (co-scheduled only).
    pub forced_no_idle_bank: u64,
    /// Scheduler scrubs forced through an open page (co-scheduled only);
    /// the sum of the two components above.
    pub forced_closures: u64,
    /// Scrub-coverage deadlines missed (co-scheduled only; the
    /// uncoordinated wiring makes no coverage promises at all).
    pub missed_deadlines: u64,
    /// Refreshes or scrubs that closed an open page, summed over channels
    /// — the row-buffer interference the co-scheduler minimises.
    pub closures: u64,
    /// Corrected errors, summed over channels.
    pub ce_corrected: u64,
    /// Uncorrectable errors, summed over channels.
    pub ue_detected: u64,
    /// Scrub interval in force at the end of the run.
    pub final_interval: Duration,
    /// Adaptive interval raises (co-scheduled only).
    pub interval_raises: u64,
    /// Adaptive interval drops (co-scheduled only).
    pub interval_drops: u64,
    /// Scrub energy, attributed per channel.
    pub scrub_energy: ChannelScrubEnergy,
    /// Rows decayed past their retention deadline at the horizon, as
    /// `(channel, flat)` pairs.
    pub end_violations: Vec<(usize, u64)>,
}

/// All four runs plus the schedule they were judged against.
#[derive(Debug, Clone)]
pub struct CoscheduleCampaignResult {
    /// The covering interval both setups are measured relative to.
    pub covering_interval: Duration,
    /// The weak rows the storm verdict tolerates decay on.
    pub weak_rows: Vec<u64>,
    /// Per-channel autonomy under the clean load.
    pub uncoordinated_clean: CoscheduleOutcome,
    /// The scheduler under the clean load.
    pub coscheduled_clean: CoscheduleOutcome,
    /// Per-channel autonomy under the storm load.
    pub uncoordinated_storm: CoscheduleOutcome,
    /// The scheduler under the storm load.
    pub coscheduled_storm: CoscheduleOutcome,
}

impl CoscheduleCampaignResult {
    /// The campaign verdict:
    ///
    /// * the co-scheduled runs miss no coverage deadline;
    /// * the co-scheduled clean run closes strictly fewer open pages than
    ///   the uncoordinated clean run;
    /// * the clean adaptive interval slow-walks to ≥ 4× covering;
    /// * the storm adaptive interval converges to ≤ 2× covering;
    /// * clean runs end with zero retention violations, and storm-run
    ///   violations are confined to the injected weak rows on channel 0.
    pub fn all_hold(&self) -> bool {
        let weak_only = |o: &CoscheduleOutcome| {
            o.end_violations
                .iter()
                .all(|&(c, flat)| c == 0 && self.weak_rows.contains(&flat))
        };
        self.coscheduled_clean.missed_deadlines == 0
            && self.coscheduled_storm.missed_deadlines == 0
            && self.coscheduled_clean.closures < self.uncoordinated_clean.closures
            && self.coscheduled_clean.final_interval >= self.covering_interval * 4
            && self.coscheduled_storm.final_interval <= self.covering_interval * 2
            && self.uncoordinated_clean.end_violations.is_empty()
            && self.coscheduled_clean.end_violations.is_empty()
            && weak_only(&self.uncoordinated_storm)
            && weak_only(&self.coscheduled_storm)
    }
}

fn build_system(cfg: &CoscheduleConfig, setup: Setup, load: Load) -> Result<CbrSystem, SimError> {
    let retention = cfg.module.timing.retention;
    let covering = cfg.covering();
    let g = cfg.module.geometry;
    let weak: Vec<u64> = cfg.weak_rows();
    let sys = MultiChannelSystem::with_policy(
        cfg.module.clone(),
        cfg.channels,
        cfg.interleave_bytes,
        || CbrDistributed::new(g, retention),
    )?
    .with_ecc(|i| {
        let ecc = EccConfig::new(cfg.seed ^ i as u64);
        match setup {
            Setup::Uncoordinated => ecc
                .with_scrub(covering)
                .with_watchdog(WatchdogConfig::for_retention(retention)),
            Setup::Coscheduled => ecc.with_ce_export(),
        }
    })
    .with_fault_injectors(|i| {
        if load == Load::Storm && i == 0 {
            let mut inj = FaultInjector::new();
            for &flat in &weak {
                let site = g.unflatten(flat);
                inj = inj.with_spec(FaultSpec::always(
                    FaultSite::exact(site.rank, site.bank, site.row),
                    FaultKind::WeakCell {
                        deadline: retention.div_by(4),
                    },
                ));
            }
            Some(inj)
        } else {
            None
        }
    })
    .with_page_close_timeout(Some(cfg.page_close_timeout));
    Ok(sys)
}

fn scheduler_for(
    cfg: &CoscheduleConfig,
    sys: &CbrSystem,
    load: Load,
) -> Result<MaintenanceScheduler, SimError> {
    let adaptive = cfg.adaptive();
    // The clean run starts at the covering rate and earns its slowdown;
    // the storm run starts already slowed to the ceiling and must be
    // driven back down by the CE rate.
    let initial = match load {
        Load::Clean => adaptive.min_interval,
        Load::Storm => adaptive.max_interval,
    };
    MaintenanceScheduler::new(
        sys,
        SchedulerConfig {
            scrub: ScrubConfig { interval: initial },
            watchdog: WatchdogConfig::for_retention(cfg.module.timing.retention),
            adaptive: Some(adaptive),
            slack: cfg.slack,
            skew: None,
        },
    )
}

/// Runs one setup × load combination.
///
/// # Errors
///
/// Propagates [`SimError`] from the system or the scheduler.
pub fn run_coschedule_setup(
    cfg: &CoscheduleConfig,
    setup: Setup,
    load: Load,
) -> Result<CoscheduleOutcome, SimError> {
    let (sys, sched) = drive(cfg, setup, load, MaintenanceScheduler::advance)?;
    Ok(outcome(cfg, setup, load, &sys, sched.as_ref()))
}

/// Builds one setup × load system and drives its demand stream to the
/// horizon, calling `advance` to replay the scheduler's maintenance
/// before each access and at the horizon. Returns the system and, for a
/// co-scheduled run, its scheduler.
fn drive(
    cfg: &CoscheduleConfig,
    setup: Setup,
    load: Load,
    mut advance: impl FnMut(&mut MaintenanceScheduler, &mut CbrSystem, Instant) -> Result<(), SimError>,
) -> Result<(CbrSystem, Option<MaintenanceScheduler>), SimError> {
    let g = cfg.module.geometry;
    let mut sys = build_system(cfg, setup, load)?;
    let mut sched = match setup {
        Setup::Coscheduled => Some(scheduler_for(cfg, &sys, load)?),
        Setup::Uncoordinated => None,
    };
    let horizon = Instant::ZERO + cfg.horizon();
    let weak = cfg.weak_rows();
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xC05C_4ED5);
    let mut now = Instant::ZERO;
    let mut hammer_idx = 0usize;
    loop {
        now += match load {
            Load::Clean => cfg.access_gap,
            Load::Storm => cfg.hammer_gap,
        };
        if now > horizon {
            break;
        }
        if let Some(s) = sched.as_mut() {
            advance(s, &mut sys, now)?;
        }
        let addr = match load {
            Load::Clean => {
                // Lower half of the flat space = the lower half of the
                // banks: the other banks stay precharged, giving the
                // row-buffer preference somewhere to defer to.
                let channel = rng.gen_range(0..u64::from(cfg.channels)) as usize;
                let flat = rng.gen_range(0..g.total_rows() / 2);
                sys.global_addr(channel, addr_of(&g, g.unflatten(flat)))
            }
            Load::Storm => {
                let flat = weak[hammer_idx % weak.len()];
                hammer_idx += 1;
                sys.global_addr(0, addr_of(&g, g.unflatten(flat)))
            }
        };
        sys.access(addr, false, now)?;
    }
    if let Some(s) = sched.as_mut() {
        advance(s, &mut sys, horizon)?;
    }
    sys.advance_to(horizon)?;
    sys.check_sanitizer(horizon)?;
    Ok((sys, sched))
}

/// The observed behaviour of a driven run.
fn outcome(
    cfg: &CoscheduleConfig,
    setup: Setup,
    load: Load,
    sys: &CbrSystem,
    sched: Option<&MaintenanceScheduler>,
) -> CoscheduleOutcome {
    let horizon = Instant::ZERO + cfg.horizon();
    let channels = sys.channels();
    let scrubs: Vec<u64> = match sched {
        Some(s) => s.stats().scrubs.clone(),
        None => (0..channels)
            .map(|i| sys.channel(i).stats().scrubs_issued)
            .collect(),
    };
    let mut end_violations = Vec::new();
    for i in 0..channels {
        if let Err(rows) = sys.channel(i).device().check_integrity(horizon) {
            end_violations.extend(rows.into_iter().map(|flat| (i, flat)));
        }
    }
    let power = DramPowerParams::ddr2_2gb();
    CoscheduleOutcome {
        setup,
        load,
        scrub_energy: ChannelScrubEnergy::from_counts(&scrubs, power.e_refresh_row),
        scrubs,
        forced_scrubs: match sched {
            Some(s) => s.stats().forced_scrubs,
            None => (0..channels)
                .map(|i| sys.channel(i).stats().forced_scrubs)
                .sum(),
        },
        deferred_scrubs: sched.map_or(0, |s| s.stats().deferred_scrubs),
        forced_out_of_slack: sched.map_or(0, |s| s.stats().forced_out_of_slack),
        forced_no_idle_bank: sched.map_or(0, |s| s.stats().forced_no_idle_bank),
        forced_closures: sched.map_or(0, |s| s.stats().forced_closures),
        missed_deadlines: sched.map_or(0, |s| s.stats().missed_deadlines),
        closures: (0..channels)
            .map(|i| sys.channel(i).device().stats().refreshes_closing_open_page)
            .sum(),
        ce_corrected: (0..channels)
            .map(|i| sys.channel(i).stats().ce_corrected)
            .sum(),
        ue_detected: (0..channels)
            .map(|i| sys.channel(i).stats().ue_detected)
            .sum(),
        final_interval: match sched {
            Some(s) => s.current_interval(),
            None => cfg.covering().interval,
        },
        interval_raises: sched.map_or(0, |s| s.stats().interval_raises),
        interval_drops: sched.map_or(0, |s| s.stats().interval_drops),
        end_violations,
    }
}

/// Runs all four setup × load combinations on `threads` workers. The
/// scenarios are independent simulations, so they shard across workers
/// and merge in a fixed order — the report is bit-identical at any
/// thread count.
///
/// # Errors
///
/// Propagates the first [`SimError`] (in scenario order) any run hits.
pub fn run_coschedule_campaign_threaded(
    cfg: &CoscheduleConfig,
    threads: usize,
) -> Result<CoscheduleCampaignResult, SimError> {
    let scenarios = [
        (Setup::Uncoordinated, Load::Clean),
        (Setup::Coscheduled, Load::Clean),
        (Setup::Uncoordinated, Load::Storm),
        (Setup::Coscheduled, Load::Storm),
    ];
    let mut outcomes = crate::parallel::par_map(threads, &scenarios, |_, &(setup, load)| {
        run_coschedule_setup(cfg, setup, load)
    })
    .into_iter();
    let mut next = || {
        outcomes.next().ok_or(SimError::Internal {
            what: "coschedule campaign scenario result missing",
        })?
    };
    Ok(CoscheduleCampaignResult {
        covering_interval: cfg.covering().interval,
        weak_rows: cfg.weak_rows(),
        uncoordinated_clean: next()?,
        coscheduled_clean: next()?,
        uncoordinated_storm: next()?,
        coscheduled_storm: next()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_internally_consistent() {
        let cfg = CoscheduleConfig::quick(3);
        // Covering interval × rows = retention, by construction.
        assert_eq!(
            cfg.covering().interval * cfg.module.geometry.total_rows(),
            cfg.module.timing.retention
        );
        // Weak rows sit in the upper half of the flat space, clear of the
        // clean load's lower-half background stream.
        for flat in cfg.weak_rows() {
            assert!(flat >= cfg.module.geometry.total_rows() / 2);
            assert!(flat < cfg.module.geometry.total_rows());
        }
        // The adaptive dead band is non-empty.
        let a = cfg.adaptive();
        assert!(a.clean_ces < a.storm_ces);
    }

    /// The scheduler's early return leaves CEs in the channels' export
    /// logs while no slot or epoch is due. Draining them on every call
    /// instead, as `advance` once did, must not change the pinned
    /// maintenance run (seed 1, twice the quick preset's epochs): the same
    /// watchdog violations, adaptive interval history and counters.
    #[test]
    fn skipped_drains_leave_the_pinned_audits_unchanged() {
        let mut cfg = CoscheduleConfig::quick(1);
        cfg.epochs *= 2;
        for load in [Load::Clean, Load::Storm] {
            let (_, lazy) = drive(
                &cfg,
                Setup::Coscheduled,
                load,
                MaintenanceScheduler::advance,
            )
            .expect("run");
            let (_, eager) = drive(&cfg, Setup::Coscheduled, load, |s, sys, t| {
                s.drain_ces(sys);
                s.advance(sys, t)
            })
            .expect("run");
            let (lazy, eager) = (lazy.expect("scheduler"), eager.expect("scheduler"));
            assert_eq!(
                lazy.watchdog().violations(),
                eager.watchdog().violations(),
                "{load:?}"
            );
            assert_eq!(
                lazy.interval_history(),
                eager.interval_history(),
                "{load:?}"
            );
            assert_eq!(lazy.stats(), eager.stats(), "{load:?}");
            if load == Load::Storm {
                // The storm exercises both: CEs flag rows and move the rate.
                assert!(!lazy.watchdog().violations().is_empty());
                assert!(lazy.interval_history().len() > 1);
            }
        }
    }

    #[test]
    fn verdict_requires_every_clause() {
        let cfg = CoscheduleConfig::quick(3);
        let covering = cfg.covering().interval;
        let outcome = |setup, load, closures, final_interval| CoscheduleOutcome {
            setup,
            load,
            scrubs: vec![0, 0],
            forced_scrubs: 0,
            deferred_scrubs: 0,
            forced_out_of_slack: 0,
            forced_no_idle_bank: 0,
            forced_closures: 0,
            missed_deadlines: 0,
            closures,
            ce_corrected: 0,
            ue_detected: 0,
            final_interval,
            interval_raises: 0,
            interval_drops: 0,
            scrub_energy: ChannelScrubEnergy::default(),
            end_violations: Vec::new(),
        };
        let good = CoscheduleCampaignResult {
            covering_interval: covering,
            weak_rows: cfg.weak_rows(),
            uncoordinated_clean: outcome(Setup::Uncoordinated, Load::Clean, 100, covering),
            coscheduled_clean: outcome(Setup::Coscheduled, Load::Clean, 10, covering * 8),
            uncoordinated_storm: outcome(Setup::Uncoordinated, Load::Storm, 100, covering),
            coscheduled_storm: outcome(Setup::Coscheduled, Load::Storm, 50, covering),
        };
        assert!(good.all_hold());

        let mut missed = good.clone();
        missed.coscheduled_storm.missed_deadlines = 1;
        assert!(!missed.all_hold(), "a missed deadline fails the campaign");

        let mut noisy = good.clone();
        noisy.coscheduled_clean.closures = 100;
        assert!(!noisy.all_hold(), "equal closures are not strictly fewer");

        let mut lazy = good.clone();
        lazy.coscheduled_clean.final_interval = covering * 2;
        assert!(!lazy.all_hold(), "a clean run must slow to at least 4x");

        let mut slow = good.clone();
        slow.coscheduled_storm.final_interval = covering * 4;
        assert!(!slow.all_hold(), "a storm run must converge to at most 2x");

        let mut decayed = good.clone();
        decayed.coscheduled_storm.end_violations = vec![(1, 0)];
        assert!(
            !decayed.all_hold(),
            "storm decay outside the weak set fails the campaign"
        );
        decayed.coscheduled_storm.end_violations = vec![(0, good.weak_rows[0])];
        assert!(
            decayed.all_hold(),
            "storm decay on an injected weak row is tolerated"
        );
    }
}
