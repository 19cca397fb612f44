//! The hot-channel campaign: refresh–access parallelism (DARP/SARP)
//! versus the static baseline on a channel whose demand pins a page open
//! on every bank.
//!
//! Two setups run the same bursty demand stream over the same two-channel
//! module. All traffic lands on channel 0 and round-robins the four
//! banks' row 0, so every bank holds a hot open page for the whole burst
//! — the workload the paper's refresh path is worst at, because every
//! refresh that reaches a bank must first write the page back and
//! precharge ([`OpStats::refreshes_closing_open_page`]):
//!
//! * **static** — plain controllers: refreshes issue the moment the
//!   policy makes them due, mid-burst or not, and the maintenance
//!   scheduler keeps its static stagger;
//! * **darp** — the Chang et al. pair, all three capabilities on:
//!   [`DarpEngine`](smartrefresh_ctrl::DarpEngine) defers due refreshes
//!   away from hot banks (issuing idle banks' refreshes out of order,
//!   bounded under the sanitizer's per-bank `8 × tREFI` rule),
//!   [`SkewConfig`] shifts scrub slots
//!   toward the quietest phase of the channel's activation histogram,
//!   and SARP ([`DramDevice::enable_subarrays`]) lets a refresh overlap
//!   an open page in a different subarray without closing it, priced as
//!   [`HotChannelOutcome::sarp_j`].
//!
//! The demand stream bursts for the first ~50 µs of every 125 µs cycle
//! and is silent for the rest, so a deferred refresh always finds a cold
//! window within its bound. The verdict ([`darp_wins`]) is the PR's
//! acceptance bar: the darp run closes strictly fewer open pages AND
//! serves a strictly lower demand-read p99 than the static run, while
//! both keep every scrub-coverage promise (the all-banks-pinned load is
//! exactly the livelock candidate: a scheduler that kept deferring
//! blocked victims would quietly miss deadlines; the
//! `forced_no_idle_bank` arm is what prevents it).
//!
//! `smart-refresh study darp` prints the table and exits nonzero when
//! the verdict fails; `crates/sim/tests/hotchannel.rs` pins it plus the
//! thread-count determinism of the whole report.
//!
//! [`darp_wins`]: HotChannelCampaignResult::darp_wins
//! [`OpStats::refreshes_closing_open_page`]: smartrefresh_dram::OpStats::refreshes_closing_open_page
//! [`DramDevice::enable_subarrays`]: smartrefresh_dram::DramDevice::enable_subarrays

use smartrefresh_ctrl::{DarpConfig, DarpStats, EccConfig, ScrubConfig, SimError, WatchdogConfig};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, ModuleConfig, TimingParams};
use smartrefresh_energy::DramPowerParams;

use crate::experiment::PolicyKind;
use crate::faults::addr_of;
use crate::scheduler::{MaintenanceScheduler, SchedulerConfig, SkewConfig};
use crate::system::MultiChannelSystem;

/// Fraction of a full row-refresh energy a SARP overlap pays *on top of*
/// the refresh itself: the subarray-local wordline drivers and the extra
/// address decode run concurrently with the open page's sense amps, a
/// small peripheral surcharge (the refresh's own RAS-cycle energy is
/// already counted under its mechanism). Charged into
/// [`EnergyBreakdown::sarp_j`](smartrefresh_energy::EnergyBreakdown::sarp_j)-style
/// accounting as `overlaps × fraction × e_refresh_row`.
pub const SARP_OVERHEAD_FRACTION: f64 = 0.1;

/// How the campaign builds and drives its systems.
#[derive(Debug, Clone)]
pub struct HotChannelConfig {
    /// The per-channel DRAM module.
    pub module: ModuleConfig,
    /// Number of channels (demand only ever touches channel 0).
    pub channels: u32,
    /// Address-interleave block size, bytes (power of two).
    pub interleave_bytes: u64,
    /// Run length in retention intervals.
    pub epochs: u32,
    /// Demand burst period: a burst at the start of every cycle, silence
    /// for the rest.
    pub burst_cycle: Duration,
    /// Reads per burst, round-robin over channel 0's banks.
    pub burst_reads: u32,
    /// Gap between successive reads inside a burst.
    pub access_gap: Duration,
    /// Subarrays per bank for the darp setup's SARP capability.
    pub subarrays: u32,
    /// Scrub slot interval as a multiple of the covering interval. Two
    /// laps of this schedule is the coverage window, so any value that
    /// keeps `interval × rows × 2` inside the horizon makes the
    /// coverage promises bind before the run ends.
    pub scrub_laps: u64,
    /// Scheduler slack for forcing a scrub through an open page.
    pub slack: Duration,
    /// Seed for the per-channel ECC codeword streams.
    pub seed: u64,
}

impl HotChannelConfig {
    /// A two-channel module small enough to run both setups in seconds:
    /// 256 rows per channel, 8 ms retention, six epochs, ~33 µs bursts
    /// every 125 µs. The burst pins row 0 of every bank open; all but
    /// the last bank are re-touched every `(banks - 1) × access_gap`,
    /// well inside the DARP hot window, while the last bank's page sits
    /// open-but-cold (the out-of-order target). The scrub schedule's
    /// coverage window (`2 × scrub_laps` covering laps = 32 ms) closes
    /// before the 48 ms horizon, so the deadline promises actually bind.
    pub fn quick(seed: u64) -> Self {
        let module = ModuleConfig {
            name: "hot-channel-campaign",
            geometry: Geometry::new(1, 4, 64, 32, 64), // 256 rows/channel
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        };
        HotChannelConfig {
            channels: 2,
            interleave_bytes: 4096,
            epochs: 6,
            burst_cycle: Duration::from_us(125),
            burst_reads: 288,
            access_gap: Duration::from_ns(115),
            subarrays: 4,
            scrub_laps: 2,
            slack: Duration::from_ms(1),
            module,
            seed,
        }
    }

    /// Simulated length of the run.
    pub fn horizon(&self) -> Duration {
        self.module.timing.retention * u64::from(self.epochs)
    }

    /// The scrub slot interval: `scrub_laps ×` the covering interval.
    pub fn scrub_interval(&self) -> Duration {
        ScrubConfig::covering(
            self.module.timing.retention,
            self.module.geometry.total_rows(),
        )
        .interval
            * self.scrub_laps
    }

    /// The per-bank refresh interval the DARP deferral bound is measured
    /// against — the same `retention / rows` the protocol sanitizer uses.
    pub fn trefi(&self) -> Duration {
        self.module
            .timing
            .retention
            .div_by(u64::from(self.module.geometry.rows()))
    }
}

/// Which controller/scheduler capabilities a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotSetup {
    /// Plain controllers, static scrub stagger.
    Static,
    /// DARP deferral + slot skewing + SARP subarray overlap.
    Darp,
}

/// The observed behaviour of one run.
#[derive(Debug, Clone)]
pub struct HotChannelOutcome {
    /// Which capability set ran.
    pub setup: HotSetup,
    /// Demand reads issued (all on channel 0).
    pub reads: u64,
    /// Mean demand-read latency.
    pub avg_latency: Duration,
    /// 99th-percentile demand-read latency.
    pub p99_latency: Duration,
    /// Refreshes or scrubs that closed an open page, summed over
    /// channels — the forced closures the DARP/SARP pair exists to avoid.
    pub closures: u64,
    /// Refreshes that overlapped an open page in another subarray
    /// without closing it (darp runs only).
    pub sarp_overlaps: u64,
    /// DARP engine counters summed over channels (darp runs only).
    pub darp: DarpStats,
    /// Patrol scrubs issued, per channel.
    pub scrubs: Vec<u64>,
    /// Scheduler scrubs deferred in favour of a precharged bank.
    pub deferred_scrubs: u64,
    /// Scheduler scrubs forced through an open page: victim out of slack.
    pub forced_out_of_slack: u64,
    /// Scheduler scrubs forced through an open page: no idle bank left —
    /// the arm that keeps the all-banks-pinned load livelock-free.
    pub forced_no_idle_bank: u64,
    /// Sum of the two forced components (the legacy counter).
    pub forced_closures: u64,
    /// Slots the demand-aware skew postponed (darp runs only).
    pub slot_skews: u64,
    /// Scrub-coverage deadlines missed. Must be zero: the promises bind
    /// inside the horizon by construction.
    pub missed_deadlines: u64,
    /// Refresh RAS-cycle energy over the run (both mechanisms).
    pub refresh_j: f64,
    /// SARP overlap surcharge: `overlaps × SARP_OVERHEAD_FRACTION ×
    /// e_refresh_row`, the campaign's contribution to the breakdown's
    /// `sarp_j` line.
    pub sarp_j: f64,
    /// Rows decayed past their retention deadline at the horizon, as
    /// `(channel, flat)` pairs.
    pub end_violations: Vec<(usize, u64)>,
}

/// Both runs plus the schedule they were judged against.
#[derive(Debug, Clone)]
pub struct HotChannelCampaignResult {
    /// The scrub slot interval both setups ran.
    pub scrub_interval: Duration,
    /// The coverage window (two laps) — binds inside the horizon.
    pub coverage_window: Duration,
    /// The run horizon.
    pub horizon: Duration,
    /// The plain-controller run.
    pub baseline: HotChannelOutcome,
    /// The DARP + skew + SARP run.
    pub darp: HotChannelOutcome,
}

impl HotChannelCampaignResult {
    /// The campaign verdict — the PR's acceptance bar:
    ///
    /// * the darp run closes strictly fewer open pages;
    /// * the darp run serves a strictly lower demand-read p99;
    /// * neither run misses a scrub-coverage deadline (the pinned-pages
    ///   load is the livelock candidate; `forced_no_idle_bank` engaging
    ///   on both runs is what breaks it);
    /// * each capability demonstrably engaged: refreshes deferred, SARP
    ///   overlaps happened, at least one slot was skewed;
    /// * no retention violations at the horizon, and the forced-closure
    ///   split sums correctly on both runs.
    pub fn darp_wins(&self) -> bool {
        let honest = |o: &HotChannelOutcome| {
            o.forced_closures == o.forced_out_of_slack + o.forced_no_idle_bank
        };
        self.darp.closures < self.baseline.closures
            && self.darp.p99_latency < self.baseline.p99_latency
            && self.baseline.missed_deadlines == 0
            && self.darp.missed_deadlines == 0
            && self.baseline.forced_no_idle_bank > 0
            && self.darp.forced_no_idle_bank > 0
            && self.darp.darp.deferred > 0
            && self.darp.sarp_overlaps > 0
            && self.darp.slot_skews > 0
            && self.baseline.end_violations.is_empty()
            && self.darp.end_violations.is_empty()
            && honest(&self.baseline)
            && honest(&self.darp)
    }
}

fn build_system(cfg: &HotChannelConfig, setup: HotSetup) -> Result<MultiChannelSystem, SimError> {
    let sys = MultiChannelSystem::new(
        cfg.module.clone(),
        cfg.channels,
        cfg.interleave_bytes,
        || PolicyKind::CbrDistributed,
    )?
    .with_ecc(|i| EccConfig::new(cfg.seed ^ i as u64).with_ce_export())
    // Pages stay pinned until a refresh, scrub, or conflict closes them.
    .with_page_close_timeout(None);
    match setup {
        HotSetup::Static => Ok(sys),
        HotSetup::Darp => Ok(sys
            .with_darp(DarpConfig::bounded_by_trefi(cfg.trefi()))?
            .with_subarrays(cfg.subarrays)
            .with_burst_tracking(512)),
    }
}

fn scheduler_for(
    cfg: &HotChannelConfig,
    sys: &MultiChannelSystem,
    setup: HotSetup,
) -> Result<MaintenanceScheduler, SimError> {
    MaintenanceScheduler::new(
        sys,
        SchedulerConfig {
            scrub: ScrubConfig {
                interval: cfg.scrub_interval(),
            },
            watchdog: WatchdogConfig::for_retention(cfg.module.timing.retention),
            adaptive: None,
            slack: cfg.slack,
            skew: match setup {
                HotSetup::Static => None,
                // History spans several slot intervals so the histogram
                // sees more than one burst cycle of activations.
                HotSetup::Darp => Some(SkewConfig {
                    bins: 5,
                    history: cfg.burst_cycle * 3,
                }),
            },
        },
    )
}

/// Runs one setup.
///
/// # Errors
///
/// Propagates [`SimError`] from the system or the scheduler.
pub fn run_hot_channel_setup(
    cfg: &HotChannelConfig,
    setup: HotSetup,
) -> Result<HotChannelOutcome, SimError> {
    let g = cfg.module.geometry;
    let mut sys = build_system(cfg, setup)?;
    let mut sched = scheduler_for(cfg, &sys, setup)?;
    let horizon = Instant::ZERO + cfg.horizon();
    let cycles = cfg.horizon().as_ps() / cfg.burst_cycle.as_ps();
    let banks = g.banks();
    let rows = g.rows();
    let mut latencies: Vec<Duration> = Vec::new();
    for c in 0..cycles {
        let start = Instant::ZERO + cfg.burst_cycle * c;
        // The burst: the first lap touches every bank's row 0 (pinning a
        // page open on all of them), then the rotation drops the last
        // bank — its page stays *open* for the rest of the run (so the
        // scheduler's no-idle-bank arm still engages) but goes *cold*
        // after the DARP hot window, giving deferred refreshes an idle
        // bank to overtake the held hot-bank entries through (the
        // out-of-order half of DARP).
        for j in 0..cfg.burst_reads {
            let now = start + cfg.access_gap * u64::from(j + 1);
            sched.advance(&mut sys, now)?;
            let bank = if j < banks { j } else { j % (banks - 1).max(1) };
            let flat = u64::from(bank) * u64::from(rows);
            let addr = sys.global_addr(0, addr_of(&g, g.unflatten(flat)));
            let r = sys.access(addr, false, now)?;
            latencies.push(r.completed_at.since(now));
        }
        // The quiet window: the banks cool past the DARP hot window, so
        // these ticks are where the deferral queue drains (and where the
        // skewed scrub slots land).
        for frac in [3u64, 4, 6] {
            let t = start + cfg.burst_cycle.div_by(7) * frac;
            sched.advance(&mut sys, t)?;
            sys.advance_to(t)?;
        }
    }
    sched.advance(&mut sys, horizon)?;
    sys.advance_to(horizon)?;
    sys.check_sanitizer(horizon)?;

    latencies.sort_unstable();
    let reads = latencies.len() as u64;
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let sum_ps: u64 = latencies.iter().map(|d| d.as_ps()).sum();
    let avg = Duration::from_ps(sum_ps / reads.max(1));

    let channels = sys.channels();
    let mut end_violations = Vec::new();
    for i in 0..channels {
        if let Err(rows) = sys.channel(i).device().check_integrity(horizon) {
            end_violations.extend(rows.into_iter().map(|flat| (i, flat)));
        }
    }
    let ops = sys.total_ops();
    let power = DramPowerParams::ddr2_2gb();
    let refreshes = ops.cbr_refreshes + ops.ras_only_refreshes;
    let mut darp = DarpStats::default();
    for i in 0..channels {
        if let Some(e) = sys.channel(i).darp() {
            let s = e.stats();
            darp.deferred += s.deferred;
            darp.ooo_issued += s.ooo_issued;
            darp.forced += s.forced;
        }
    }
    let s = sched.stats();
    Ok(HotChannelOutcome {
        setup,
        reads,
        avg_latency: avg,
        p99_latency: p99,
        closures: ops.refreshes_closing_open_page,
        sarp_overlaps: ops.sarp_overlapped_refreshes,
        darp,
        scrubs: s.scrubs.clone(),
        deferred_scrubs: s.deferred_scrubs,
        forced_out_of_slack: s.forced_out_of_slack,
        forced_no_idle_bank: s.forced_no_idle_bank,
        forced_closures: s.forced_closures,
        slot_skews: s.slot_skews,
        missed_deadlines: s.missed_deadlines,
        refresh_j: refreshes as f64 * power.e_refresh_row,
        sarp_j: ops.sarp_overlapped_refreshes as f64 * SARP_OVERHEAD_FRACTION * power.e_refresh_row,
        end_violations,
    })
}

/// Runs both setups on `threads` workers. The two setups are
/// independent simulations, so they shard across workers and merge in a
/// fixed order — the report is bit-identical at any thread count.
///
/// # Errors
///
/// Propagates the first [`SimError`] (in setup order) either run hits.
pub fn run_hot_channel_campaign_threaded(
    cfg: &HotChannelConfig,
    threads: usize,
) -> Result<HotChannelCampaignResult, SimError> {
    let setups = [HotSetup::Static, HotSetup::Darp];
    let mut outcomes = crate::parallel::par_map(threads, &setups, |_, &setup| {
        run_hot_channel_setup(cfg, setup)
    })
    .into_iter();
    let mut next = || {
        outcomes.next().ok_or(SimError::Internal {
            what: "hot-channel campaign setup result missing",
        })?
    };
    Ok(HotChannelCampaignResult {
        scrub_interval: cfg.scrub_interval(),
        coverage_window: cfg.scrub_interval() * cfg.module.geometry.total_rows() * 2,
        horizon: cfg.horizon(),
        baseline: next()?,
        darp: next()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_internally_consistent() {
        let cfg = HotChannelConfig::quick(3);
        // The burst fits inside its cycle with a quiet tail longer than
        // the DARP hot window.
        let burst_len = cfg.access_gap * u64::from(cfg.burst_reads + 1);
        assert!(burst_len + Duration::from_us(2) < cfg.burst_cycle);
        // The coverage window closes before the horizon, so the
        // no-missed-deadlines verdict is not vacuous.
        let window = cfg.scrub_interval() * cfg.module.geometry.total_rows() * 2;
        assert!(window < cfg.horizon());
        // Each bank is re-touched inside the DARP hot window during a
        // burst, keeping its page hot.
        let retouch = cfg.access_gap * u64::from(cfg.module.geometry.banks());
        assert!(retouch < DarpConfig::bounded_by_trefi(cfg.trefi()).hot_window);
        // The DARP deferral bound stays under the sanitizer's rule.
        assert!(DarpConfig::bounded_by_trefi(cfg.trefi()).max_deferral < cfg.trefi() * 8);
        // The horizon is a whole number of burst cycles.
        assert_eq!(cfg.horizon().as_ps() % cfg.burst_cycle.as_ps(), 0);
    }

    #[test]
    fn verdict_requires_every_clause() {
        let outcome = |setup, closures, p99_ns| HotChannelOutcome {
            setup,
            reads: 1000,
            avg_latency: Duration::from_ns(25),
            p99_latency: Duration::from_ns(p99_ns),
            closures,
            sarp_overlaps: if setup == HotSetup::Darp { 10 } else { 0 },
            darp: DarpStats {
                deferred: if setup == HotSetup::Darp { 5 } else { 0 },
                ooo_issued: 0,
                forced: 0,
            },
            scrubs: vec![8, 8],
            deferred_scrubs: 0,
            forced_out_of_slack: 1,
            forced_no_idle_bank: 2,
            forced_closures: 3,
            slot_skews: if setup == HotSetup::Darp { 1 } else { 0 },
            missed_deadlines: 0,
            refresh_j: 0.0,
            sarp_j: 0.0,
            end_violations: Vec::new(),
        };
        let good = HotChannelCampaignResult {
            scrub_interval: Duration::from_us(62),
            coverage_window: Duration::from_ms(32),
            horizon: Duration::from_ms(48),
            baseline: outcome(HotSetup::Static, 100, 36),
            darp: outcome(HotSetup::Darp, 40, 21),
        };
        assert!(good.darp_wins());

        let mut tied = good.clone();
        tied.darp.closures = 100;
        assert!(!tied.darp_wins(), "equal closures are not strictly fewer");

        let mut slow = good.clone();
        slow.darp.p99_latency = Duration::from_ns(36);
        assert!(!slow.darp_wins(), "equal p99 is not strictly lower");

        let mut missed = good.clone();
        missed.darp.missed_deadlines = 1;
        assert!(!missed.darp_wins(), "a missed deadline fails the verdict");

        let mut idle = good.clone();
        idle.baseline.forced_no_idle_bank = 0;
        assert!(
            !idle.darp_wins(),
            "the pinned load must engage the no-idle-bank arm"
        );

        let mut inert = good.clone();
        inert.darp.darp.deferred = 0;
        assert!(!inert.darp_wins(), "DARP must actually defer something");

        let mut no_sarp = good.clone();
        no_sarp.darp.sarp_overlaps = 0;
        assert!(!no_sarp.darp_wins(), "SARP must actually overlap");

        let mut no_skew = good.clone();
        no_skew.darp.slot_skews = 0;
        assert!(!no_skew.darp_wins(), "the skew must actually engage");

        let mut decayed = good.clone();
        decayed.darp.end_violations = vec![(0, 3)];
        assert!(
            !decayed.darp_wins(),
            "retention violations fail the verdict"
        );

        let mut dishonest = good.clone();
        dishonest.baseline.forced_closures = 4;
        assert!(
            !dishonest.darp_wins(),
            "the forced-closure split must sum to the legacy counter"
        );
    }
}
