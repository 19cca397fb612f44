//! The traced drivers: the library's experiment loop and maintenance
//! setups rebuilt from public API, with a span around every call into a
//! layer's public functions.
//!
//! A layer's self time is the duration of its spans minus the nested
//! spans of the layers it calls. The only nesting measured here is the
//! refresh policy inside the controller: [`Timed`] wraps the policy, and
//! the controller spans subtract the policy time that accrued inside them.
//! Device time stays inside the controller's self time.
//!
//! Calls that happen millions of times per pass and cost little each (row
//! notifications, queue pops, per-access system and scheduler calls) are
//! sampled: one call in [`SAMPLE`] is timed and counts `SAMPLE`-fold, so
//! the clock reads do not swamp what they measure. The controller's event
//! loop is one span per warm-up and measured segment.
//!
//! Every traced run is checked against the library call it rebuilds (see
//! `workloads`), so the per-layer numbers describe the same program.

use std::time::Instant as Clock;

use smartrefresh_cache::StackedDramCache;
use smartrefresh_core::{
    BurstRefresh, CbrDistributed, DegradationEvent, DegradeCause, NoRefresh, RasOnlyDistributed,
    RefreshAction, RefreshPolicy, RetentionAwareDistributed, SmartRefresh, SramTraffic,
};
use smartrefresh_ctrl::{
    ControllerStats, DarpConfig, DarpStats, EccConfig, MemTransaction, MemoryController, SimError,
    WatchdogConfig,
};
use smartrefresh_dram::profile::RetentionProfile;
use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{DramDevice, Geometry, OpStats, RowAddr};
use smartrefresh_energy::{
    ChannelScrubEnergy, DramPowerParams, EccLogicModel, EnergyBreakdown, SramArrayModel,
};
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
use smartrefresh_sim::hotchannel::SARP_OVERHEAD_FRACTION;
use smartrefresh_sim::scheduler::{AdaptiveScrubConfig, SkewConfig};
use smartrefresh_sim::{
    CoscheduleConfig, CoscheduleOutcome, ExperimentConfig, HotChannelConfig, HotChannelOutcome,
    HotSetup, Load, MaintenanceScheduler, MultiChannelSystem, PolicyKind, RunResult,
    SchedulerConfig, Setup, Topology,
};
use smartrefresh_workloads::TraceEvent;

/// Nanoseconds since `t`.
pub fn ns_since(t: Clock) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One call in `SAMPLE` to a [`Sampled`] span is timed.
pub const SAMPLE: u64 = 7;

/// A span over a very frequent call, timed on one call in [`SAMPLE`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sampled {
    /// Calls made.
    pub calls: u64,
    /// Estimated host ns inside them (sampled time × [`SAMPLE`]).
    pub ns: u64,
}

impl Sampled {
    /// Runs `f`, timing it when this call is sampled.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let sampled = self.calls.is_multiple_of(SAMPLE);
        self.calls += 1;
        if !sampled {
            return f();
        }
        let t = Clock::now();
        let r = f();
        self.ns += ns_since(t) * SAMPLE;
        r
    }

    fn add(&mut self, o: Sampled) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// Counts and time one [`Timed`] policy accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTimes {
    /// `advance` calls.
    pub ticks: u64,
    /// Host ns inside `advance` (every call timed).
    pub tick_ns: u64,
    /// `advance` calls after which no more refreshes were pending than
    /// before.
    pub idle_ticks: u64,
    /// Row open / close / scrub notifications.
    pub rows: Sampled,
    /// Pending-queue pops.
    pub pops: Sampled,
    /// Host ns in degradation and power-down wake calls.
    pub other_ns: u64,
}

impl PolicyTimes {
    /// Host ns of every timed policy call.
    pub fn ns(&self) -> u64 {
        self.tick_ns + self.rows.ns + self.pops.ns + self.other_ns
    }

    fn add(&mut self, o: &PolicyTimes) {
        self.ticks += o.ticks;
        self.tick_ns += o.tick_ns;
        self.idle_ticks += o.idle_ticks;
        self.rows.add(o.rows);
        self.pops.add(o.pops);
        self.other_ns += o.other_ns;
    }
}

/// A [`RefreshPolicy`] that forwards every call to `P` and times the calls
/// that do the policy's work: `advance`, the row notifications and the
/// dispatch queue pops (both sampled), degradation and power-down wake. The cheap
/// queries (`next_wakeup`, `pending_len`, the statistics getters) are
/// forwarded untimed, so their cost stays in the caller's self time.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    /// What the timed calls accumulated.
    pub times: PolicyTimes,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            times: PolicyTimes::default(),
        }
    }
}

impl<P: RefreshPolicy> RefreshPolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_row_opened(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.times.rows.time(|| inner.on_row_opened(row, now));
    }

    fn on_row_closed(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.times.rows.time(|| inner.on_row_closed(row, now));
    }

    fn on_row_scrubbed(&mut self, row: RowAddr, now: Instant) {
        let inner = &mut self.inner;
        self.times.rows.time(|| inner.on_row_scrubbed(row, now));
    }

    fn next_wakeup(&self) -> Option<Instant> {
        self.inner.next_wakeup()
    }

    fn advance(&mut self, now: Instant) {
        let before = self.inner.pending_len();
        let t = Clock::now();
        self.inner.advance(now);
        self.times.tick_ns += ns_since(t);
        self.times.ticks += 1;
        if self.inner.pending_len() <= before {
            self.times.idle_ticks += 1;
        }
    }

    fn pop_pending(&mut self) -> Option<RefreshAction> {
        let inner = &mut self.inner;
        self.times.pops.time(|| inner.pop_pending())
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }

    fn sram_traffic(&self) -> SramTraffic {
        self.inner.sram_traffic()
    }

    fn queue_high_water(&self) -> usize {
        self.inner.queue_high_water()
    }

    fn in_fallback(&self) -> bool {
        self.inner.in_fallback()
    }

    fn degrade(&mut self, cause: DegradeCause, now: Instant) {
        let t = Clock::now();
        self.inner.degrade(cause, now);
        self.times.other_ns += ns_since(t);
    }

    fn degradation_events(&self) -> &[DegradationEvent] {
        self.inner.degradation_events()
    }

    fn on_powerdown_wake(&mut self, now: Instant, reset_counters: bool) -> u64 {
        let t = Clock::now();
        let n = self.inner.on_powerdown_wake(now, reset_counters);
        self.times.other_ns += ns_since(t);
        n
    }
}

/// Per-layer counts and self times summed over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Generator events produced.
    pub gen_events: u64,
    /// Host ns generating events.
    pub gen_ns: u64,
    /// Stacked-cache lookups.
    pub cache_lookups: u64,
    /// Lookups that needed no fill from main memory.
    pub cache_hits: u64,
    /// Host ns in the stacked cache.
    pub cache_ns: u64,
    /// Refresh-policy counts and time.
    pub policy: PolicyTimes,
    /// Counter-array SRAM reads + writes.
    pub sram_ops: u64,
    /// `MemoryController::access` calls.
    pub ctrl_access_calls: u64,
    /// Their self time (policy time subtracted), ns.
    pub ctrl_access_ns: u64,
    /// `MemoryController::advance_to` calls.
    pub ctrl_advance_calls: u64,
    /// Their self time (policy time subtracted), ns.
    pub ctrl_advance_ns: u64,
    /// Controller statistics summed over whole runs (warm-up included).
    pub ctrl: CtrlCounts,
    /// Device command counts summed over whole runs.
    pub dram: OpStats,
    /// Host ns in the end-of-run device queries (integrity, open time,
    /// sanitizer verdict).
    pub dram_check_ns: u64,
    /// Energy-pricing calls.
    pub energy_calls: u64,
    /// Host ns pricing energy.
    pub energy_ns: u64,
    /// Host ns building devices, policies, controllers and caches.
    pub build_ns: u64,
    /// `MultiChannelSystem::access` calls and host ns (sampled).
    pub sys_access: Sampled,
    /// `MultiChannelSystem::advance_to` calls.
    pub sys_advance_calls: u64,
    /// Host ns in `MultiChannelSystem::advance_to`.
    pub sys_advance_ns: u64,
    /// `MaintenanceScheduler::advance` calls and host ns (sampled; the
    /// time includes the scrubs it issues into the controllers).
    pub sched: Sampled,
    /// Scheduler scrubs issued.
    pub sched_scrubs: u64,
    /// Scheduler scrubs deferred to a precharged bank.
    pub sched_deferred: u64,
    /// Scheduler scrubs forced through an open page.
    pub sched_forced: u64,
    /// Coverage deadlines missed.
    pub sched_missed: u64,
    /// DARP counters summed over channels.
    pub darp: DarpStats,
    /// Simulated picoseconds covered.
    pub sim_ps: u64,
}

/// The controller counters the per-layer table reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlCounts {
    /// Demand transactions.
    pub transactions: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Refreshes dispatched.
    pub refreshes_issued: u64,
    /// Refreshes that waited for a busy bank.
    pub refreshes_delayed: u64,
    /// Patrol scrubs issued.
    pub scrubs_issued: u64,
    /// Corrected ECC errors.
    pub ce_corrected: u64,
    /// RFM commands issued.
    pub rfm_commands: u64,
}

impl CtrlCounts {
    fn add(&mut self, s: &ControllerStats) {
        self.transactions += s.transactions;
        self.row_hits += s.row_hits;
        self.refreshes_issued += s.refreshes_issued;
        self.refreshes_delayed += s.refreshes_delayed;
        self.scrubs_issued += s.scrubs_issued;
        self.ce_corrected += s.ce_corrected;
        self.rfm_commands += s.rfm_commands;
    }
}

fn add_ops(sum: &mut OpStats, o: &OpStats) {
    sum.activates += o.activates;
    sum.reads += o.reads;
    sum.writes += o.writes;
    sum.precharges += o.precharges;
    sum.cbr_refreshes += o.cbr_refreshes;
    sum.ras_only_refreshes += o.ras_only_refreshes;
    sum.refreshes_closing_open_page += o.refreshes_closing_open_page;
    sum.scrubs += o.scrubs;
    sum.rfm_refreshes += o.rfm_refreshes;
    sum.sarp_overlapped_refreshes += o.sarp_overlapped_refreshes;
}

impl Layers {
    /// Host ns of every layer's self time.
    pub fn self_ns(&self) -> u64 {
        self.gen_ns
            + self.cache_ns
            + self.policy.ns()
            + self.ctrl_access_ns
            + self.ctrl_advance_ns
            + self.dram_check_ns
            + self.energy_ns
            + self.build_ns
            + self.sys_access.ns
            + self.sys_advance_ns
            + self.sched.ns
    }

    /// Device commands issued (the denominator of `ctrl.host_ns_per_cmd`).
    pub fn device_commands(&self) -> u64 {
        let d = &self.dram;
        d.activates
            + d.reads
            + d.writes
            + d.precharges
            + d.total_refreshes()
            + d.scrubs
            + d.rfm_refreshes
    }
}

/// Generates the event stream `run_experiment` would consume for `cfg`,
/// timed as the `workloads` layer.
pub fn traced_events(
    cfg: &ExperimentConfig,
    spec: &smartrefresh_workloads::WorkloadSpec,
    l: &mut Layers,
) -> Vec<TraceEvent> {
    let t = Clock::now();
    let events = crate::workloads::events_for(cfg, spec);
    l.gen_ns += ns_since(t);
    l.gen_events += events.len() as u64;
    events
}

/// `run_experiment_with_events` rebuilt from public API with layer spans.
/// `events` must already stop at the horizon.
///
/// # Errors
///
/// Whatever the controller surfaces, like the library call.
pub fn traced_experiment(
    cfg: &ExperimentConfig,
    events: &[TraceEvent],
    name: &'static str,
    apki: f64,
    l: &mut Layers,
) -> Result<RunResult, SimError> {
    let g = cfg.module.geometry;
    let r = cfg.module.timing.retention;
    match cfg.policy {
        PolicyKind::CbrDistributed => {
            run_typed(cfg, events, name, apki, l, || CbrDistributed::new(g, r))
        }
        PolicyKind::RasOnlyDistributed => {
            run_typed(cfg, events, name, apki, l, || RasOnlyDistributed::new(g, r))
        }
        PolicyKind::Burst => run_typed(cfg, events, name, apki, l, || BurstRefresh::new(g, r)),
        PolicyKind::Smart(s) => {
            run_typed(cfg, events, name, apki, l, || SmartRefresh::new(g, r, s))
        }
        PolicyKind::NoRefresh => run_typed(cfg, events, name, apki, l, NoRefresh::new),
        PolicyKind::RetentionAware { profile_seed } => {
            run_typed(cfg, events, name, apki, l, || {
                RetentionAwareDistributed::new(
                    g,
                    r,
                    RetentionProfile::rapid_like(g.total_rows(), profile_seed),
                )
            })
        }
        PolicyKind::SmartRetentionAware {
            cfg: s,
            profile_seed,
        } => run_typed(cfg, events, name, apki, l, || {
            SmartRefresh::with_profile(
                g,
                r,
                s,
                &RetentionProfile::rapid_like(g.total_rows(), profile_seed),
            )
        }),
    }
}

/// Advances `mc` to `t` inside a controller span.
fn timed_advance<P: RefreshPolicy>(
    mc: &mut MemoryController<Timed<P>>,
    t: Instant,
    l: &mut Layers,
) -> Result<(), SimError> {
    let p0 = mc.policy().times.ns();
    let t0 = Clock::now();
    let res = mc.advance_to(t);
    let dt = ns_since(t0);
    l.ctrl_advance_ns += dt.saturating_sub(mc.policy().times.ns().saturating_sub(p0));
    l.ctrl_advance_calls += 1;
    res
}

fn run_typed<P, F>(
    cfg: &ExperimentConfig,
    events: &[TraceEvent],
    name: &'static str,
    apki: f64,
    l: &mut Layers,
    make: F,
) -> Result<RunResult, SimError>
where
    P: RefreshPolicy,
    F: FnOnce() -> P,
{
    assert!(!cfg.measure.is_zero(), "measurement span must be positive");
    let module = &cfg.module;

    let t = Clock::now();
    let mut device = DramDevice::new(module.geometry, module.timing);
    if smartrefresh_sim::sanitize::sanitize_from_env() {
        device.enable_protocol_checker();
    }
    if let Some(seed) = cfg.policy.profile_seed() {
        device.apply_retention_profile(&RetentionProfile::rapid_like(
            module.geometry.total_rows(),
            seed,
        ));
    }
    let mut mc = MemoryController::new(device, Timed::new(make()))
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
    let mut l3 = match cfg.topology {
        Topology::Conventional => None,
        Topology::Stacked => Some(StackedDramCache::new(module.geometry.capacity_bytes())),
    };
    l.build_ns += ns_since(t);

    let warm_end = Instant::ZERO + cfg.warmup;
    let horizon = warm_end + cfg.measure;
    let n = events.iter().take_while(|e| e.time <= horizon).count();
    let events = &events[..n];

    // The stacked cache sees the same lookups in the same order whatever
    // the controller does, so the whole stream goes through it in one
    // span before the controller loop. `fills[k]` counts main-memory
    // traffic up to and including event k.
    let mut txs: Vec<(u64, bool)> = Vec::new();
    let mut fills: Vec<u64> = Vec::new();
    if let Some(cache) = &mut l3 {
        txs.reserve(n);
        fills.reserve(n);
        let t = Clock::now();
        let mut mem = 0u64;
        let mut hits = 0u64;
        for e in events {
            let tr = cache.access(e.addr, e.is_write);
            hits += u64::from(tr.memory_fill.is_none());
            mem += u64::from(tr.memory_fill.is_some()) + u64::from(tr.memory_writeback.is_some());
            txs.push((tr.stacked_addr, tr.stacked_is_write));
            fills.push(mem);
        }
        l.cache_ns += ns_since(t);
        l.cache_lookups += n as u64;
        l.cache_hits += hits;
    }
    let mem_before = |k: usize| {
        if k == 0 {
            0
        } else {
            fills.get(k - 1).copied().unwrap_or(0)
        }
    };

    let mut warm_ops = OpStats::new();
    let mut warm_ctrl = ControllerStats::new();
    let mut warm_sram = (0u64, 0u64);
    let mut warm_open = Duration::ZERO;
    let mut warm_mem = 0u64;
    let mut snapped = false;

    // The access loop is one controller span per segment (warm-up,
    // measurement); the policy time inside it is subtracted at the end.
    let mut seg_t = Clock::now();
    let mut seg_p = mc.policy().times.ns();
    for (k, e) in events.iter().enumerate() {
        if !snapped && e.time > warm_end {
            l.ctrl_access_ns +=
                ns_since(seg_t).saturating_sub(mc.policy().times.ns().saturating_sub(seg_p));
            timed_advance(&mut mc, warm_end, l)?;
            warm_ops = *mc.device().stats();
            warm_ctrl = *mc.stats();
            let tr = mc.policy().sram_traffic();
            warm_sram = (tr.reads, tr.writes);
            let t = Clock::now();
            warm_open = mc.device().total_open_time(warm_end);
            l.dram_check_ns += ns_since(t);
            warm_mem = mem_before(k);
            snapped = true;
            seg_p = mc.policy().times.ns();
            seg_t = Clock::now();
        }
        let (addr, is_write) = txs.get(k).copied().unwrap_or((e.addr, e.is_write));
        mc.access(MemTransaction {
            addr,
            is_write,
            arrival: e.time,
        })?;
    }
    l.ctrl_access_ns +=
        ns_since(seg_t).saturating_sub(mc.policy().times.ns().saturating_sub(seg_p));
    l.ctrl_access_calls += n as u64;
    if !snapped {
        timed_advance(&mut mc, warm_end, l)?;
        warm_ops = *mc.device().stats();
        warm_ctrl = *mc.stats();
        let tr = mc.policy().sram_traffic();
        warm_sram = (tr.reads, tr.writes);
        warm_open = mc.device().total_open_time(warm_end);
        warm_mem = mem_before(n);
    }
    timed_advance(&mut mc, horizon, l)?;

    let t = Clock::now();
    mc.check_sanitizer(horizon)?;
    let open_time = mc.device().total_open_time(horizon) - warm_open;
    let integrity_ok = mc.device().check_integrity(horizon).is_ok();
    l.dram_check_ns += ns_since(t);

    let ops = mc.device().stats().delta_since(&warm_ops);
    let ctrl = mc.stats().delta_since(&warm_ctrl);
    let traffic = mc.policy().sram_traffic();
    let sram_ops = (traffic.reads - warm_sram.0, traffic.writes - warm_sram.1);
    let ended_in_fallback = mc.policy().in_fallback();
    let memory_behind_cache = mem_before(n) - warm_mem;

    let t = Clock::now();
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
    let counter_power_j =
        smartrefresh_sim::powerdown::counter_power_energy(&cfg.counter_power, &ctrl);
    let row_bits = 32 - (module.geometry.rows() - 1).leading_zeros();
    let refresh_bus_j = cfg.bus.energy(row_bits, ctrl.bus_charged_refreshes);
    let scrub_j = ops.scrubs as f64 * cfg.power.e_refresh_row;
    let rfm_j = ops.rfm_refreshes as f64 * cfg.power.e_refresh_row;
    let ecc_logic_j = if cfg.ecc.is_some() {
        l.energy_calls += 1;
        EccLogicModel::hamming_72_64().energy(ops.reads + ops.scrubs, ctrl.ce_corrected)
    } else {
        0.0
    };
    l.energy_calls += 4;
    l.energy_ns += ns_since(t);

    l.policy.add(&mc.policy().times);
    l.sram_ops += traffic.reads + traffic.writes;
    l.ctrl.add(mc.stats());
    add_ops(&mut l.dram, mc.device().stats());
    l.sim_ps += (cfg.warmup + cfg.measure).as_ps();

    Ok(RunResult {
        workload: name,
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

fn counter_bits(policy: &PolicyKind) -> u32 {
    match policy {
        PolicyKind::Smart(cfg) | PolicyKind::SmartRetentionAware { cfg, .. } => cfg.counter_bits,
        _ => 3,
    }
}

/// The byte address of `row`'s first column (the campaigns' row-to-address
/// mapping).
pub fn addr_of(g: &Geometry, row: RowAddr) -> u64 {
    let blocks = (u64::from(row.row) * u64::from(g.ranks()) + u64::from(row.rank))
        * u64::from(g.banks())
        + u64::from(row.bank);
    blocks * u64::from(g.columns()) * g.column_bytes()
}

fn sys_access(
    sys: &mut MultiChannelSystem,
    addr: u64,
    now: Instant,
    l: &mut Layers,
) -> Result<Instant, SimError> {
    l.sys_access
        .time(|| sys.access(addr, false, now))
        .map(|r| r.completed_at)
}

fn sys_advance(sys: &mut MultiChannelSystem, at: Instant, l: &mut Layers) -> Result<(), SimError> {
    let t = Clock::now();
    let r = sys.advance_to(at);
    l.sys_advance_ns += ns_since(t);
    l.sys_advance_calls += 1;
    r
}

fn sched_advance(
    sched: &mut MaintenanceScheduler,
    sys: &mut MultiChannelSystem,
    at: Instant,
    l: &mut Layers,
) -> Result<(), SimError> {
    l.sched.time(|| sched.advance(sys, at))
}

fn add_system_counts(sys: &MultiChannelSystem, l: &mut Layers) {
    add_ops(&mut l.dram, &sys.total_ops());
    l.ctrl.add(&sys.total_ctrl());
    for i in 0..sys.channels() {
        if let Some(e) = sys.channel(i).darp() {
            let s = e.stats();
            l.darp.deferred += s.deferred;
            l.darp.ooo_issued += s.ooo_issued;
            l.darp.forced += s.forced;
        }
    }
}

fn add_sched_counts(sched: &MaintenanceScheduler, l: &mut Layers) {
    let s = sched.stats();
    l.sched_scrubs += s.scrubs.iter().sum::<u64>();
    l.sched_deferred += s.deferred_scrubs;
    l.sched_forced += s.forced_closures;
    l.sched_missed += s.missed_deadlines;
}

/// `run_hot_channel_setup` rebuilt from public API with layer spans.
/// `threads` shards the system's `advance_to` like
/// `MultiChannelSystem::with_threads`.
///
/// # Errors
///
/// Whatever the system or scheduler surfaces, like the library call.
pub fn traced_hot_setup(
    cfg: &HotChannelConfig,
    setup: HotSetup,
    threads: usize,
    l: &mut Layers,
) -> Result<HotChannelOutcome, SimError> {
    let g = cfg.module.geometry;
    let t = Clock::now();
    let sys = MultiChannelSystem::new(
        cfg.module.clone(),
        cfg.channels,
        cfg.interleave_bytes,
        || PolicyKind::CbrDistributed,
    )?
    .with_ecc(|i| EccConfig::new(cfg.seed ^ i as u64).with_ce_export())
    .with_page_close_timeout(None)
    .with_threads(threads);
    let mut sys = match setup {
        HotSetup::Static => sys,
        HotSetup::Darp => sys
            .with_darp(DarpConfig::bounded_by_trefi(cfg.trefi()))?
            .with_subarrays(cfg.subarrays)
            .with_burst_tracking(512),
    };
    let mut sched = MaintenanceScheduler::new(
        &sys,
        SchedulerConfig {
            scrub: smartrefresh_ctrl::ScrubConfig {
                interval: cfg.scrub_interval(),
            },
            watchdog: WatchdogConfig::for_retention(cfg.module.timing.retention),
            adaptive: None,
            slack: cfg.slack,
            skew: match setup {
                HotSetup::Static => None,
                HotSetup::Darp => Some(SkewConfig {
                    bins: 5,
                    history: cfg.burst_cycle * 3,
                }),
            },
        },
    )?;
    l.build_ns += ns_since(t);

    let horizon = Instant::ZERO + cfg.horizon();
    let cycles = cfg.horizon().as_ps() / cfg.burst_cycle.as_ps();
    let banks = g.banks();
    let rows = g.rows();
    let mut latencies: Vec<Duration> = Vec::new();
    for c in 0..cycles {
        let start = Instant::ZERO + cfg.burst_cycle * c;
        for j in 0..cfg.burst_reads {
            let now = start + cfg.access_gap * u64::from(j + 1);
            sched_advance(&mut sched, &mut sys, now, l)?;
            let bank = if j < banks { j } else { j % (banks - 1).max(1) };
            let flat = u64::from(bank) * u64::from(rows);
            let addr = sys.global_addr(0, addr_of(&g, g.unflatten(flat)));
            let done = sys_access(&mut sys, addr, now, l)?;
            latencies.push(done.since(now));
        }
        for frac in [3u64, 4, 6] {
            let at = start + cfg.burst_cycle.div_by(7) * frac;
            sched_advance(&mut sched, &mut sys, at, l)?;
            sys_advance(&mut sys, at, l)?;
        }
    }
    sched_advance(&mut sched, &mut sys, horizon, l)?;
    sys_advance(&mut sys, horizon, l)?;

    let t = Clock::now();
    sys.check_sanitizer(horizon)?;
    let channels = sys.channels();
    let mut end_violations = Vec::new();
    for i in 0..channels {
        if let Err(rows) = sys.channel(i).device().check_integrity(horizon) {
            end_violations.extend(rows.into_iter().map(|flat| (i, flat)));
        }
    }
    l.dram_check_ns += ns_since(t);

    latencies.sort_unstable();
    let reads = latencies.len() as u64;
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let sum_ps: u64 = latencies.iter().map(|d| d.as_ps()).sum();
    let avg = Duration::from_ps(sum_ps / reads.max(1));

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
    add_system_counts(&sys, l);
    add_sched_counts(&sched, l);
    l.sim_ps += cfg.horizon().as_ps();
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

/// `run_coschedule_setup` rebuilt from public API with layer spans.
///
/// # Errors
///
/// Whatever the system or scheduler surfaces, like the library call.
pub fn traced_coschedule_setup(
    cfg: &CoscheduleConfig,
    setup: Setup,
    load: Load,
    l: &mut Layers,
) -> Result<CoscheduleOutcome, SimError> {
    let g = cfg.module.geometry;
    let retention = cfg.module.timing.retention;
    let covering = cfg.covering();
    let weak = cfg.weak_rows();

    let t = Clock::now();
    let mut sys = MultiChannelSystem::new(
        cfg.module.clone(),
        cfg.channels,
        cfg.interleave_bytes,
        || PolicyKind::CbrDistributed,
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
    let adaptive = AdaptiveScrubConfig {
        min_interval: covering.interval,
        max_interval: covering.interval * 16,
        storm_ces: 4,
        clean_ces: 1,
        clean_epochs_to_slow: 2,
    };
    let mut sched = match setup {
        Setup::Coscheduled => Some(MaintenanceScheduler::new(
            &sys,
            SchedulerConfig {
                scrub: smartrefresh_ctrl::ScrubConfig {
                    interval: match load {
                        Load::Clean => adaptive.min_interval,
                        Load::Storm => adaptive.max_interval,
                    },
                },
                watchdog: WatchdogConfig::for_retention(retention),
                adaptive: Some(adaptive),
                slack: cfg.slack,
                skew: None,
            },
        )?),
        Setup::Uncoordinated => None,
    };
    l.build_ns += ns_since(t);

    let horizon = Instant::ZERO + cfg.horizon();
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
            sched_advance(s, &mut sys, now, l)?;
        }
        let addr = match load {
            Load::Clean => {
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
        sys_access(&mut sys, addr, now, l)?;
    }
    if let Some(s) = sched.as_mut() {
        sched_advance(s, &mut sys, horizon, l)?;
    }
    sys_advance(&mut sys, horizon, l)?;

    let t = Clock::now();
    sys.check_sanitizer(horizon)?;
    let channels = sys.channels();
    let mut end_violations = Vec::new();
    for i in 0..channels {
        if let Err(rows) = sys.channel(i).device().check_integrity(horizon) {
            end_violations.extend(rows.into_iter().map(|flat| (i, flat)));
        }
    }
    l.dram_check_ns += ns_since(t);

    add_system_counts(&sys, l);
    if let Some(s) = &sched {
        add_sched_counts(s, l);
    }
    l.sim_ps += cfg.horizon().as_ps();
    let scrubs: Vec<u64> = match &sched {
        Some(s) => s.stats().scrubs.clone(),
        None => (0..channels)
            .map(|i| sys.channel(i).stats().scrubs_issued)
            .collect(),
    };
    let power = DramPowerParams::ddr2_2gb();
    Ok(CoscheduleOutcome {
        setup,
        load,
        scrub_energy: ChannelScrubEnergy::from_counts(&scrubs, power.e_refresh_row),
        scrubs,
        forced_scrubs: match &sched {
            Some(s) => s.stats().forced_scrubs,
            None => (0..channels)
                .map(|i| sys.channel(i).stats().forced_scrubs)
                .sum(),
        },
        deferred_scrubs: sched.as_ref().map_or(0, |s| s.stats().deferred_scrubs),
        forced_out_of_slack: sched.as_ref().map_or(0, |s| s.stats().forced_out_of_slack),
        forced_no_idle_bank: sched.as_ref().map_or(0, |s| s.stats().forced_no_idle_bank),
        forced_closures: sched.as_ref().map_or(0, |s| s.stats().forced_closures),
        missed_deadlines: sched.as_ref().map_or(0, |s| s.stats().missed_deadlines),
        closures: (0..channels)
            .map(|i| sys.channel(i).device().stats().refreshes_closing_open_page)
            .sum(),
        ce_corrected: (0..channels)
            .map(|i| sys.channel(i).stats().ce_corrected)
            .sum(),
        ue_detected: (0..channels)
            .map(|i| sys.channel(i).stats().ue_detected)
            .sum(),
        final_interval: match &sched {
            Some(s) => s.current_interval(),
            None => cfg.covering().interval,
        },
        interval_raises: sched.as_ref().map_or(0, |s| s.stats().interval_raises),
        interval_drops: sched.as_ref().map_or(0, |s| s.stats().interval_drops),
        end_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_core::SmartRefreshConfig;
    use smartrefresh_dram::{ModuleConfig, TimingParams};
    use smartrefresh_sim::digest_run;
    use smartrefresh_sim::experiment::run_experiment_with_events;
    use smartrefresh_workloads::{Suite, WorkloadSpec};

    fn mini(geometry: Geometry) -> ModuleConfig {
        ModuleConfig {
            name: "mini",
            geometry,
            timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "mini",
            suite: Suite::Synthetic,
            coverage: 0.4,
            intensity: 2.5,
            row_hit_frac: 0.5,
            hot_frac: 0.2,
            hot_weight: 0.5,
            write_frac: 0.3,
            apki: 5.0,
        }
    }

    fn every_policy_kind() -> Vec<PolicyKind> {
        let smart = SmartRefreshConfig {
            counter_bits: 3,
            segments: 4,
            queue_capacity: 8,
            hysteresis: None,
        };
        vec![
            PolicyKind::CbrDistributed,
            PolicyKind::RasOnlyDistributed,
            PolicyKind::Burst,
            PolicyKind::Smart(smart),
            PolicyKind::NoRefresh,
            PolicyKind::RetentionAware { profile_seed: 9 },
            PolicyKind::SmartRetentionAware {
                cfg: smart,
                profile_seed: 9,
            },
        ]
    }

    #[test]
    fn timing_wrapper_leaves_every_policy_kind_bit_identical() {
        let conv = mini(Geometry::new(1, 4, 256, 32, 64));
        let stacked = mini(Geometry::new(1, 4, 64, 16, 64));
        for kind in every_policy_kind() {
            for cfg in [
                ExperimentConfig::conventional(conv.clone(), DramPowerParams::ddr2_2gb(), kind),
                ExperimentConfig::stacked(
                    stacked.clone(),
                    DramPowerParams::stacked_3d_64mb(),
                    kind,
                ),
            ] {
                let cfg = cfg.scaled(0.25);
                let events = crate::workloads::events_for(&cfg, &spec());
                let lib = run_experiment_with_events(&cfg, events.iter().copied(), "mini", 5.0)
                    .expect("library run");
                let mut l = Layers::default();
                let traced =
                    traced_experiment(&cfg, &events, "mini", 5.0, &mut l).expect("traced run");
                assert_eq!(
                    digest_run(&lib),
                    digest_run(&traced),
                    "{} diverged under the timing wrapper",
                    kind.name()
                );
                assert!(l.ctrl_access_calls > 0);
                if kind != PolicyKind::NoRefresh {
                    assert!(l.policy.ticks > 0, "{} never ticked", kind.name());
                }
            }
        }
    }

    #[test]
    fn traced_maintenance_setups_match_the_library() {
        let hot = HotChannelConfig::quick(3);
        for setup in [HotSetup::Static, HotSetup::Darp] {
            let lib = smartrefresh_sim::run_hot_channel_setup(&hot, setup).expect("library");
            let mut l = Layers::default();
            let traced = traced_hot_setup(&hot, setup, 1, &mut l).expect("traced");
            assert_eq!(format!("{lib:?}"), format!("{traced:?}"));
            assert!(l.sched.calls > 0 && l.sys_access.calls > 0);
        }
        let co = CoscheduleConfig::quick(3);
        for (setup, load) in [
            (Setup::Coscheduled, Load::Clean),
            (Setup::Uncoordinated, Load::Storm),
        ] {
            let lib = smartrefresh_sim::run_coschedule_setup(&co, setup, load).expect("library");
            let mut l = Layers::default();
            let traced = traced_coschedule_setup(&co, setup, load, &mut l).expect("traced");
            assert_eq!(format!("{lib:?}"), format!("{traced:?}"));
        }
    }
}
