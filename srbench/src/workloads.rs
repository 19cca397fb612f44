//! The three workloads: their inputs, the gated (untraced) runs that give
//! the end-to-end metrics, and the traced runs that give the per-layer
//! table. Every op is checked; a failed check counts as a failed op.

use std::path::Path;
use std::time::Instant as Clock;

use smartrefresh_core::SmartRefreshConfig;
use smartrefresh_ctrl::{EccConfig, ScrubConfig, SimError};
use smartrefresh_dram::configs::{conventional_2gb, conventional_4gb, stacked_3d_64mb};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_energy::DramPowerParams;
use smartrefresh_orchestrator::{
    run_fleet, CellState, FaultTag, FleetCheckpoint, GridSpec, ModuleKind, OrchestratorConfig,
    PolicyTag,
};
use smartrefresh_sim::experiment::run_experiment_with_events;
use smartrefresh_sim::figures::{CorpusId, Evaluation, FigureId};
use smartrefresh_sim::report::{render_coschedule, render_hotchannel};
use smartrefresh_sim::{
    digest_run, run_coschedule_campaign_threaded, run_coschedule_setup,
    run_hot_channel_campaign_threaded, run_hot_channel_setup, CoscheduleCampaignResult,
    CoscheduleConfig, CoscheduleOutcome, Digest64, DisturbanceConfig, ExperimentConfig,
    HotChannelConfig, HotSetup, Load, PolicyKind, RunResult, Setup, Topology,
};
use smartrefresh_workloads::catalog::{catalog, find};
use smartrefresh_workloads::{AccessGenerator, TraceEvent, WorkloadSpec};

use crate::speed::{at_ref, Probe, REF_PROBE_S};
use crate::stats::{median, percentile, tail_percentile, Metric, MIN_TAIL_OPS, TAIL_PERCENTILE};
use crate::trace::{
    ns_since, traced_coschedule_setup, traced_events, traced_experiment, traced_hot_setup, Layers,
};

/// The seed at which the pinned digests apply.
pub const DEFAULT_SEED: u64 = 1;

/// Span scale of the figure corpus: half the scale `perf_trajectory`
/// records, so a 30-second run repeats every pair about 18 times.
pub const FIGURE_SCALE: f64 = 0.01;

/// The library's fixed figure seed (`Evaluation` has no seed setter).
pub const FIGURE_SEED: u64 = 0x5eed;

/// FNV-1a over the bit patterns of all 13 figures' values, GMEANs and
/// baselines at [`FIGURE_SCALE`] and [`FIGURE_SEED`].
pub const FIGURES_PIN: u64 = 0x6a7c_70e3_ee0d_2e31;

/// The fleet digest of the 32-cell grid at [`DEFAULT_SEED`] (grid seeds
/// 1 and 2, span scale 4).
pub const FLEET_PIN: u64 = 0xfaec_bd50_4713_03f9;

/// FNV-1a over the rendered hot-channel and co-scheduling reports at the
/// benchmark's preset and [`DEFAULT_SEED`].
pub const MAINTENANCE_PIN: u64 = 0xa356_0f9a_c5bb_cf8b;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Host seconds of warm-up passes before the measured passes: the first
/// passes of a process run measurably slower.
const WARMUP_S: f64 = 2.0;

/// The four figure corpora, in figure order.
pub const CORPORA: [CorpusId; 4] = [
    CorpusId::Conv2Gb,
    CorpusId::Conv4Gb,
    CorpusId::Stacked64Ms,
    CorpusId::Stacked32Ms,
];

/// Counts of attempted and failed ops plus the reasons for failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted (checks included).
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one checked op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Records an op that returned an error.
    pub fn error(&mut self, what: &str, err: &SimError) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(format!("{what}: {err}"));
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked ops.
    pub tally: Tally,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

/// One baseline/Smart pair of the figure corpus.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The workload both runs replay.
    pub spec: WorkloadSpec,
    /// The CBR baseline configuration.
    pub base: ExperimentConfig,
    /// The Smart Refresh configuration.
    pub smart: ExperimentConfig,
}

/// The figure corpus as `Evaluation` builds it: 4 corpora × the catalog,
/// in figure order, at `scale` and `seed`.
pub fn figure_pairs(scale: f64, seed: u64) -> Vec<Pair> {
    let entries = catalog();
    let mut pairs = Vec::with_capacity(CORPORA.len() * entries.len());
    for corpus in CORPORA {
        let (module, power, topology) = match corpus {
            CorpusId::Conv2Gb => (
                conventional_2gb(),
                DramPowerParams::ddr2_2gb(),
                Topology::Conventional,
            ),
            CorpusId::Conv4Gb => (
                conventional_4gb(),
                DramPowerParams::ddr2_4gb(),
                Topology::Conventional,
            ),
            CorpusId::Stacked64Ms => (
                stacked_3d_64mb(Duration::from_ms(64)),
                DramPowerParams::stacked_3d_64mb(),
                Topology::Stacked,
            ),
            CorpusId::Stacked32Ms => (
                stacked_3d_64mb(Duration::from_ms(32)),
                DramPowerParams::stacked_3d_64mb(),
                Topology::Stacked,
            ),
        };
        for entry in &entries {
            let spec = match corpus {
                CorpusId::Conv2Gb => entry.conventional.clone(),
                CorpusId::Conv4Gb => entry.conventional_4gb(),
                CorpusId::Stacked64Ms | CorpusId::Stacked32Ms => entry.stacked.clone(),
            };
            let mut base = match topology {
                Topology::Conventional => ExperimentConfig::conventional(
                    module.clone(),
                    power,
                    PolicyKind::CbrDistributed,
                ),
                Topology::Stacked => {
                    ExperimentConfig::stacked(module.clone(), power, PolicyKind::CbrDistributed)
                }
            }
            .scaled(scale);
            base.seed = seed;
            base.reference = Duration::from_ms(64);
            let mut smart = base.clone();
            smart.policy = PolicyKind::Smart(SmartRefreshConfig::paper_defaults());
            pairs.push(Pair { spec, base, smart });
        }
    }
    pairs
}

/// The event stream `run_experiment` consumes for `cfg`, cut at the
/// horizon.
pub fn events_for(cfg: &ExperimentConfig, spec: &WorkloadSpec) -> Vec<TraceEvent> {
    let geometry = cfg.workload_geometry.unwrap_or(cfg.module.geometry);
    let horizon = Instant::ZERO + cfg.warmup + cfg.measure;
    AccessGenerator::new(spec, geometry, cfg.reference, 0, cfg.seed)
        .take_while(|e| e.time <= horizon)
        .collect()
}

/// Runs one pair through the library, as `Evaluation` does.
fn run_pair(p: &Pair) -> Result<(RunResult, RunResult), SimError> {
    let events = events_for(&p.base, &p.spec);
    let b = run_experiment_with_events(&p.base, events.iter().copied(), p.spec.name, p.spec.apki)?;
    let s = run_experiment_with_events(&p.smart, events.iter().copied(), p.spec.name, p.spec.apki)?;
    Ok((b, s))
}

fn sim_us(cfg: &ExperimentConfig) -> f64 {
    (cfg.warmup + cfg.measure).as_secs_f64() * 1e6
}

/// Digest of the bit patterns of every figure's values.
fn figures_digest(eval: &mut Evaluation) -> Result<(u64, f64), SimError> {
    let mut d = Digest64::new();
    let mut err_sum = 0.0;
    let mut err_n = 0.0;
    for id in FigureId::ALL {
        let fig = eval.figure(id)?;
        for row in &fig.rows {
            d.update_f64(row.value);
        }
        d.update_f64(fig.gmean);
        d.update_f64(fig.baseline.unwrap_or(f64::NAN));
        if id != FigureId::Fig18 {
            let paper = id.paper_gmean();
            err_sum += (fig.gmean - paper).abs() / paper.abs() * 100.0;
            err_n += 1.0;
        }
    }
    Ok((d.finish(), err_sum / err_n))
}

/// Host memory high-water mark of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Probes in the running median that stands for the host's speed at a
/// segment.
const PROBE_WINDOW: usize = 31;

/// The median of each `window` consecutive values of `v` centred on each
/// index (narrower at the ends).
fn running_median(v: &[f64], window: usize) -> Vec<f64> {
    let half = window / 2;
    (0..v.len())
        .map(|i| median(&v[i.saturating_sub(half)..(i + half + 1).min(v.len())]))
        .collect()
}

/// For samples taken slot by slot, pass after pass (`per_pass` slots a
/// pass), each slot's smallest sample.
fn slot_min(samples: &[f64], per_pass: usize) -> Vec<f64> {
    let k = per_pass.max(1);
    (0..k)
        .map(|i| {
            samples
                .iter()
                .skip(i)
                .step_by(k)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Per-run timings common to the three gated workloads. Every measured
/// segment of a pass (an op, or for `fleet` an orchestrator epoch) and
/// every set-up is timed right after a [`Probe`], so it can be rescaled to
/// the reference host speed.
#[derive(Default)]
struct Timings {
    probe: Probe,
    /// Host seconds of each set-up.
    setup_s: Vec<f64>,
    /// Host seconds of the probe right before each set-up.
    setup_probe_s: Vec<f64>,
    /// Simulated µs one pass covers.
    sim_us_per_pass: f64,
    /// Host seconds of every segment, pass after pass, in the same order.
    seg_s: Vec<f64>,
    /// Host seconds of the probe right before each entry of `seg_s`.
    seg_probe_s: Vec<f64>,
    /// Segments in one pass.
    segs_per_pass: usize,
    /// Every op's host ms, pass after pass, in the same op order.
    op_ms: Vec<f64>,
    /// Ops in one pass.
    ops_per_pass: usize,
    /// Whether the warm-up passes are over.
    warmed: bool,
}

impl Timings {
    /// Timings for passes of `ops_per_pass` ops in `segs_per_pass` segments.
    fn new(ops_per_pass: usize, segs_per_pass: usize) -> Self {
        Timings {
            ops_per_pass,
            segs_per_pass,
            ..Timings::default()
        }
    }

    /// Runs one set-up `f`, timed after a probe.
    fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.setup_probe_s.push(self.probe.time());
        let (s, out) = timed(f);
        self.setup_s.push(s);
        out
    }

    /// Records one segment of `raw_s` host seconds timed after a probe of
    /// `probe_s`.
    fn segment(&mut self, raw_s: f64, probe_s: f64) {
        self.seg_s.push(raw_s);
        self.seg_probe_s.push(probe_s);
    }

    /// Runs one op `f` that is also a segment, timed after a probe.
    fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let probe_s = self.probe.time();
        let (s, out) = timed(f);
        self.segment(s, probe_s);
        self.op_ms.push(s * 1e3);
        out
    }

    /// Whether the measured loop may stop: the time is spent and the op
    /// sample supports the tail percentile. The passes of the first
    /// [`WARMUP_S`] (at least one) are checked but not measured; `started`
    /// restarts when they end.
    fn done(&mut self, started: &mut Clock, seconds: f64) -> bool {
        if !self.warmed {
            if !self.seg_s.is_empty() && started.elapsed().as_secs_f64() >= WARMUP_S {
                self.warmed = true;
                self.seg_s.clear();
                self.seg_probe_s.clear();
                self.op_ms.clear();
                *started = Clock::now();
            }
            return false;
        }
        started.elapsed().as_secs_f64() >= seconds && self.op_ms.len() >= MIN_TAIL_OPS
    }

    /// Each op's fastest repetition over the run's passes. The median over
    /// these is `op_ms_p50`. Taking the median of the raw samples instead
    /// would put it on the edge between two cost groups (clean and
    /// disturbance cells, the six maintenance setups), where host noise
    /// moves it most.
    fn op_best(&self) -> Vec<f64> {
        slot_min(&self.op_ms, self.ops_per_pass)
    }

    /// One pass at the reference host speed: each segment's time rescaled
    /// by the running median of the probes around it, its smallest value
    /// over the run, summed over the pass. The rescaling takes out the
    /// host's slow drift; the smallest value takes out other tenants'
    /// short bursts.
    fn ref_wall_s(&self) -> f64 {
        let speed = running_median(&self.seg_probe_s, PROBE_WINDOW);
        let scaled: Vec<f64> = self
            .seg_s
            .iter()
            .zip(&speed)
            .map(|(&s, &p)| at_ref(s, p))
            .collect();
        slot_min(&scaled, self.segs_per_pass).iter().sum()
    }

    /// Host seconds of each measured pass as timed (probes excluded).
    fn pass_s(&self) -> Vec<f64> {
        self.seg_s
            .chunks(self.segs_per_pass.max(1))
            .map(|c| c.iter().sum())
            .collect()
    }

    fn metrics(&self) -> Vec<Metric> {
        let wall = self.ref_wall_s();
        vec![
            Metric::new("ref_wall_s", wall, "s"),
            Metric::new("sim_us_per_ref_s", self.sim_us_per_pass / wall, "us/s"),
            Metric::new(
                "setup_s",
                at_ref(median(&self.setup_s), median(&self.setup_probe_s)),
                "s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// The host times as measured, for people. The op latencies are not
    /// gated: on the shared host their run-to-run spread (0.10 to 0.33 over
    /// ten seeds) reaches the largest bound a gated metric may have.
    fn lines(&self, what: &str) -> Vec<String> {
        let n = self.op_ms.len();
        let pass_s = self.pass_s();
        let probe_ms = median(&self.seg_probe_s) * 1e3;
        vec![
            format!(
                "{what}: {} passes of {} ops; op_ms_p50 {:.4} ms (median of the per-op best \
                 times); op_ms_tail {:.4} ms (p{TAIL_PERCENTILE} of all {n} op samples; the \
                 highest percentile with 10 beyond is p{})",
                pass_s.len(),
                self.ops_per_pass,
                median(&self.op_best()),
                percentile(&self.op_ms, TAIL_PERCENTILE).unwrap_or(0.0),
                tail_percentile(n).unwrap_or(0)
            ),
            format!(
                "{what}: pass seconds as timed {pass_s:?}; fastest {:.4} s; median set-up \
                 {:.6} s as timed",
                pass_s.iter().copied().fold(f64::INFINITY, f64::min),
                median(&self.setup_s)
            ),
            format!(
                "{what}: speed probe median {probe_ms:.4} ms (reference {:.4} ms)",
                REF_PROBE_S * 1e3
            ),
        ]
    }
}

/// Times `f` in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Clock::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The gated `figures` run: every pass runs the 128 pairs one at a time
/// through `run_experiment_with_events`; the run ends with one
/// `Evaluation` at `threads` whose figures must hash to [`FIGURES_PIN`]
/// and whose pairs must equal the measured ones.
pub fn figures(seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let ops = CORPORA.len() * catalog().len();
    let mut tm = Timings::new(ops, ops);
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let res = tm.setup(|| {
            pairs = figure_pairs(FIGURE_SCALE, FIGURE_SEED);
            run_pair(&pairs[0])
        });
        if let Err(e) = res {
            out.tally.error("figures warm-up pair", &e);
        }
    }
    tm.sim_us_per_pass = pairs
        .iter()
        .map(|p| sim_us(&p.base) + sim_us(&p.smart))
        .sum();
    let mut started = Clock::now();
    let mut digests: Vec<(u64, u64)> = Vec::new();
    while !tm.done(&mut started, seconds) {
        digests.clear();
        for p in &pairs {
            match tm.op(|| run_pair(p)) {
                Ok((b, sm)) => {
                    out.tally.check(b.integrity_ok && sm.integrity_ok, || {
                        format!("{}: retention integrity violated", p.spec.name)
                    });
                    digests.push((digest_run(&b), digest_run(&sm)));
                }
                Err(e) => out.tally.error(p.spec.name, &e),
            }
        }
    }

    let mut eval = Evaluation::with_scale(FIGURE_SCALE).with_threads(threads);
    match figures_digest(&mut eval) {
        Ok((d, err)) => {
            out.tally.check(d == FIGURES_PIN, || {
                format!("figure hash {d:#018x} != pinned {FIGURES_PIN:#018x}")
            });
            out.lines
                .push(format!("figures: hash {d:#018x}, paper_err_pct {err:.4} %"));
            let mut lib = Vec::new();
            for c in CORPORA {
                match eval.corpus(c) {
                    Ok(ps) => lib.extend(
                        ps.iter()
                            .map(|p| (digest_run(&p.baseline), digest_run(&p.smart))),
                    ),
                    Err(e) => out.tally.error("Evaluation corpus", &e),
                }
            }
            out.tally.check(lib == digests, || {
                "pair results differ from Evaluation's corpus".into()
            });
        }
        Err(e) => out.tally.error("Evaluation figures", &e),
    }
    out.lines.extend(tm.lines("figures"));
    out.metrics = tm.metrics();
    out
}

/// The 32-cell fleet grid; `seed` picks the grid seeds `seed`, `seed + 1`.
pub fn fleet_grid(seed: u64) -> GridSpec {
    GridSpec {
        workloads: vec!["gcc".into(), "radix".into()],
        modules: vec![ModuleKind::Mini, ModuleKind::Mini3d],
        policies: vec![PolicyTag::Cbr, PolicyTag::Smart],
        faults: vec![FaultTag::Clean, FaultTag::Disturbance],
        seeds: vec![seed, seed.wrapping_add(1)],
        scale_bits: 4.0f64.to_bits(),
    }
}

/// The configuration and workload `GridSpec::run_cell` runs for `index`.
pub fn cell_config(grid: &GridSpec, index: u64) -> Option<(ExperimentConfig, WorkloadSpec)> {
    let cell = grid.cell(index);
    let entry = find(&cell.workload)?;
    let (module, power, topology) = cell.module.instantiate();
    let mut cfg = match topology {
        Topology::Conventional => {
            ExperimentConfig::conventional(module, power, cell.policy.kind(cell.seed))
        }
        Topology::Stacked => ExperimentConfig::stacked(module, power, cell.policy.kind(cell.seed)),
    }
    .scaled(grid.scale());
    cfg.seed = cell.seed;
    cfg.reference = Duration::from_ms(64);
    if cell.fault == FaultTag::Disturbance {
        cfg.ecc = Some(EccConfig::new(cell.seed).with_scrub(ScrubConfig::covering(
            cfg.module.timing.retention,
            cfg.module.geometry.total_rows(),
        )));
        cfg.disturbance = Some(DisturbanceConfig::campaign_default());
        cfg.rfm = Some(smartrefresh_sim::rfm::standard_defense());
    }
    let spec = match topology {
        Topology::Conventional => entry.conventional,
        Topology::Stacked => entry.stacked,
    };
    Some((cfg, spec))
}

/// Runs the grid under `run_fleet` with `workers`; returns the finished
/// checkpoint.
fn fleet_run(grid: &GridSpec, workers: usize) -> Result<FleetCheckpoint, SimError> {
    fleet_run_epochs(grid, workers, |_| {})
}

/// [`fleet_run`], calling `on_epoch` after every orchestrator epoch.
fn fleet_run_epochs(
    grid: &GridSpec,
    workers: usize,
    on_epoch: impl FnMut(&FleetCheckpoint),
) -> Result<FleetCheckpoint, SimError> {
    let cfg = OrchestratorConfig {
        workers,
        ..OrchestratorConfig::default()
    };
    let mut ckpt = FleetCheckpoint::fresh(grid.clone(), None);
    run_fleet(&mut ckpt, &cfg, None, on_epoch)?;
    Ok(ckpt)
}

fn cell_digest(ckpt: &FleetCheckpoint, index: usize) -> Option<u64> {
    match ckpt.cells.get(index) {
        Some(CellState::Done(o)) => Some(o.digest),
        _ => None,
    }
}

/// The gated `fleet` run: every pass runs the grid under `run_fleet` with
/// one worker (timed as the pass), then each cell once through
/// `GridSpec::run_cell` (timed as the ops, and checked against the digest
/// the fleet recorded). The run ends with one fleet at `workers` whose
/// digest must match.
pub fn fleet(seed: u64, seconds: f64, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut grid = fleet_grid(seed);
    let cells = grid.cell_count();
    // One segment per orchestrator epoch, plus the tail after the last.
    let epochs = cells.div_ceil(OrchestratorConfig::default().cells_per_epoch as u64);
    let mut tm = Timings::new(cells as usize, epochs as usize + 1);
    for _ in 0..SETUP_REPS {
        let res = tm.setup(|| {
            grid = fleet_grid(seed);
            grid.validate().and_then(|()| grid.run_cell(0))
        });
        if let Err(e) = res {
            out.tally.error("fleet warm-up cell", &e);
        }
    }
    tm.sim_us_per_pass = (0..cells)
        .filter_map(|i| cell_config(&grid, i))
        .map(|(cfg, _)| sim_us(&cfg))
        .sum();
    let mut started = Clock::now();
    let mut digest = None;
    while !tm.done(&mut started, seconds) {
        let probe = &tm.probe;
        let mut segs: Vec<(f64, f64)> = Vec::new();
        let mut probe_s = probe.time();
        let mut mark = Clock::now();
        let res = fleet_run_epochs(&grid, 1, |_| {
            segs.push((mark.elapsed().as_secs_f64(), probe_s));
            probe_s = probe.time();
            mark = Clock::now();
        });
        segs.push((mark.elapsed().as_secs_f64(), probe_s));
        let n = segs.len();
        out.tally.check(n == tm.segs_per_pass, || {
            format!("run_fleet ran {} epochs, not {epochs}", n - 1)
        });
        if n == tm.segs_per_pass {
            for (s, p) in segs {
                tm.segment(s, p);
            }
        }
        let ckpt = match res {
            Ok(c) => c,
            Err(e) => {
                out.tally.error("run_fleet", &e);
                continue;
            }
        };
        let d = ckpt.fleet_digest();
        out.tally.check(digest.is_none_or(|p| p == d), || {
            format!("fleet digest changed between passes: {d:#018x}")
        });
        digest = Some(d);
        for i in 0..cells {
            let (s, res) = timed(|| grid.run_cell(i));
            tm.op_ms.push(s * 1e3);
            match res {
                Ok(r) => out.tally.check(
                    r.integrity_ok && cell_digest(&ckpt, i as usize) == Some(digest_run(&r)),
                    || format!("cell {i}: integrity or digest differs from the fleet's"),
                ),
                Err(e) => out.tally.error("run_cell", &e),
            }
        }
    }
    match fleet_run(&grid, workers) {
        Ok(pool) => {
            let d = pool.fleet_digest();
            out.tally.check(Some(d) == digest, || {
                format!("fleet digest at {workers} workers {d:#018x} differs from 1 worker")
            });
            if seed == DEFAULT_SEED {
                out.tally.check(d == FLEET_PIN, || {
                    format!("fleet digest {d:#018x} != pinned {FLEET_PIN:#018x}")
                });
            }
            out.lines.push(format!(
                "fleet: {cells} cells, {workers} workers, digest {d:#018x}"
            ));
        }
        Err(e) => out.tally.error("run_fleet at nproc workers", &e),
    }
    out.lines.extend(tm.lines("fleet"));
    out.metrics = tm.metrics();
    out
}

/// The hot-channel preset: twice the quick preset's epochs.
pub fn hot_config(seed: u64) -> HotChannelConfig {
    let mut cfg = HotChannelConfig::quick(seed);
    cfg.epochs *= 2;
    cfg
}

/// The co-scheduling preset: twice the quick preset's epochs.
pub fn coschedule_config(seed: u64) -> CoscheduleConfig {
    let mut cfg = CoscheduleConfig::quick(seed);
    cfg.epochs *= 2;
    cfg
}

/// The four co-scheduling scenarios in campaign order.
pub const COSCHEDULE_SCENARIOS: [(Setup, Load); 4] = [
    (Setup::Uncoordinated, Load::Clean),
    (Setup::Coscheduled, Load::Clean),
    (Setup::Uncoordinated, Load::Storm),
    (Setup::Coscheduled, Load::Storm),
];

fn campaign_outcomes(c: &CoscheduleCampaignResult) -> [String; 4] {
    [
        format!("{:?}", c.uncoordinated_clean),
        format!("{:?}", c.coscheduled_clean),
        format!("{:?}", c.uncoordinated_storm),
        format!("{:?}", c.coscheduled_storm),
    ]
}

/// Checks one co-scheduling outcome: a co-scheduled run misses no
/// coverage deadline, and only the storm runs' injected weak rows may
/// decay.
fn check_coschedule(t: &mut Tally, cfg: &CoscheduleConfig, o: &CoscheduleOutcome) {
    if o.setup == Setup::Coscheduled {
        t.check(o.missed_deadlines == 0, || {
            format!("co-scheduled {:?} run missed a coverage deadline", o.load)
        });
    }
    let weak = cfg.weak_rows();
    t.check(
        match o.load {
            Load::Clean => o.end_violations.is_empty(),
            Load::Storm => o
                .end_violations
                .iter()
                .all(|&(c, flat)| c == 0 && weak.contains(&flat)),
        },
        || {
            format!(
                "{:?}/{:?} run decayed a row it should keep",
                o.setup, o.load
            )
        },
    );
}

/// The gated `maintenance` run: every pass runs the six setups of the
/// hot-channel and co-scheduling campaigns one at a time through
/// `run_hot_channel_setup` and `run_coschedule_setup` (each timed as an
/// op). The run ends with both campaigns at `threads`, whose outcomes and
/// rendered reports must equal the passes'.
pub fn maintenance(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let ops = 2 + COSCHEDULE_SCENARIOS.len();
    let mut tm = Timings::new(ops, ops);
    let mut hot = hot_config(seed);
    let mut co = coschedule_config(seed);
    for _ in 0..SETUP_REPS {
        let res = tm.setup(|| {
            hot = hot_config(seed);
            co = coschedule_config(seed);
            run_hot_channel_setup(&hot, HotSetup::Static)
        });
        if let Err(e) = res {
            out.tally.error("maintenance warm-up setup", &e);
        }
    }
    tm.sim_us_per_pass =
        (hot.horizon().as_secs_f64() * 2.0 + co.horizon().as_secs_f64() * 4.0) * 1e6;
    let mut started = Clock::now();
    let mut outcomes: Vec<String> = Vec::new();
    while !tm.done(&mut started, seconds) {
        let mut these = Vec::new();
        for setup in [HotSetup::Static, HotSetup::Darp] {
            match tm.op(|| run_hot_channel_setup(&hot, setup)) {
                Ok(o) => {
                    out.tally.check(
                        o.missed_deadlines == 0 && o.end_violations.is_empty(),
                        || format!("hot channel {setup:?}: missed deadlines or decayed rows"),
                    );
                    these.push(format!("{o:?}"));
                }
                Err(e) => out.tally.error("hot-channel setup", &e),
            }
        }
        for (setup, load) in COSCHEDULE_SCENARIOS {
            match tm.op(|| run_coschedule_setup(&co, setup, load)) {
                Ok(o) => {
                    check_coschedule(&mut out.tally, &co, &o);
                    these.push(format!("{o:?}"));
                }
                Err(e) => out.tally.error("co-scheduling setup", &e),
            }
        }
        out.tally
            .check(outcomes.is_empty() || outcomes == these, || {
                "a setup's outcome changed between passes".into()
            });
        outcomes = these;
    }
    let campaigns = run_hot_channel_campaign_threaded(&hot, threads)
        .and_then(|h| run_coschedule_campaign_threaded(&co, threads).map(|c| (h, c)));
    match campaigns {
        Ok((hr, cr)) => {
            let lib: Vec<String> = [format!("{:?}", hr.baseline), format!("{:?}", hr.darp)]
                .into_iter()
                .chain(campaign_outcomes(&cr))
                .collect();
            out.tally.check(lib == outcomes, || {
                format!("campaigns at {threads} threads differ from the setups run alone")
            });
            let mut d = Digest64::new();
            d.update_str(&render_hotchannel(&hr));
            d.update_str(&render_coschedule(&cr));
            let d = d.finish();
            if seed == DEFAULT_SEED {
                out.tally.check(d == MAINTENANCE_PIN, || {
                    format!("campaign report digest {d:#018x} != pinned {MAINTENANCE_PIN:#018x}")
                });
            }
            out.lines.push(format!(
                "maintenance: campaigns at {threads} threads, report digest {d:#018x}, \
                 demand_p99_ns {}",
                hr.darp.p99_latency.as_ns_f64()
            ));
        }
        Err(e) => out.tally.error("maintenance campaigns", &e),
    }
    out.lines.extend(tm.lines("maintenance"));
    out.metrics = tm.metrics();
    out
}

/// One traced pass: the per-layer accumulators plus the two walls the
/// trace metrics need.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Per-layer counts and self times.
    pub layers: Layers,
    /// Host ns of the traced ops.
    pub traced_ns: u64,
    /// Host ns of the same ops through the library, untraced.
    pub untraced_ns: u64,
    /// Extra per-workload metrics.
    pub extra: Vec<Metric>,
}

/// The seed the traced `figures` driver uses: the library's figure seed at
/// the default seed, otherwise `seed` itself.
pub fn figure_seed(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        FIGURE_SEED
    } else {
        seed
    }
}

/// The traced `figures` pass: each pair through the library and through
/// the traced driver, which must agree digest for digest; then the
/// corpus through `Evaluation` at 1 and `threads` threads.
pub fn traced_figures(seed: u64, threads: usize, t: &mut Tally) -> TracedPass {
    let mut tp = TracedPass::default();
    let pairs = figure_pairs(FIGURE_SCALE, figure_seed(seed));
    for p in &pairs {
        let start = Clock::now();
        let lib = run_pair(p);
        tp.untraced_ns += ns_since(start);
        let start = Clock::now();
        let traced = (|| {
            let events = traced_events(&p.base, &p.spec, &mut tp.layers);
            let b = traced_experiment(&p.base, &events, p.spec.name, p.spec.apki, &mut tp.layers)?;
            let s = traced_experiment(&p.smart, &events, p.spec.name, p.spec.apki, &mut tp.layers)?;
            Ok::<_, SimError>((b, s))
        })();
        tp.traced_ns += ns_since(start);
        match (lib, traced) {
            (Ok((lb, ls)), Ok((tb, ts))) => t.check(
                digest_run(&lb) == digest_run(&tb) && digest_run(&ls) == digest_run(&ts),
                || format!("{}: traced pair differs from the library", p.spec.name),
            ),
            (Err(e), _) | (_, Err(e)) => t.error(p.spec.name, &e),
        }
    }
    let corpus_s = |n: usize| {
        let mut eval = Evaluation::with_scale(FIGURE_SCALE).with_threads(n);
        let start = Clock::now();
        let res = figures_digest(&mut eval);
        (start.elapsed().as_secs_f64(), res)
    };
    let (one, r1) = corpus_s(1);
    let (many, rn) = corpus_s(threads);
    match (r1, rn) {
        (Ok((d1, err)), Ok((dn, _))) => {
            t.check(d1 == dn, || "figures differ across thread counts".into());
            tp.extra.push(Metric::new("sim.paper_err_pct", err, "%"));
        }
        (Err(e), _) | (_, Err(e)) => t.error("Evaluation", &e),
    }
    tp.extra
        .push(Metric::new("sim.parallel.speedup", one / many, "x"));
    tp
}

/// The traced `fleet` pass: each cell through `GridSpec::run_cell` and
/// through the traced driver (digest for digest), then the orchestrator's
/// own timings.
pub fn traced_fleet(seed: u64, workers: usize, t: &mut Tally) -> TracedPass {
    let mut tp = TracedPass::default();
    let grid = fleet_grid(seed);
    let mut cell_s = Vec::new();
    let mut lib_digests = Vec::new();
    for i in 0..grid.cell_count() {
        let start = Clock::now();
        let lib = grid.run_cell(i);
        let ns = ns_since(start);
        tp.untraced_ns += ns;
        cell_s.push(ns as f64 * 1e-9);
        let Some((cfg, spec)) = cell_config(&grid, i) else {
            t.check(false, || {
                format!("cell {i}: workload missing from the catalog")
            });
            continue;
        };
        let start = Clock::now();
        let events = traced_events(&cfg, &spec, &mut tp.layers);
        let traced = traced_experiment(&cfg, &events, spec.name, spec.apki, &mut tp.layers);
        tp.traced_ns += ns_since(start);
        match (lib, traced) {
            (Ok(l), Ok(r)) => {
                lib_digests.push(digest_run(&l));
                t.check(digest_run(&l) == digest_run(&r), || {
                    format!("cell {i}: traced run differs from run_cell")
                });
            }
            (Err(e), _) | (_, Err(e)) => t.error("fleet cell", &e),
        }
    }
    let cell_sum: f64 = cell_s.iter().sum();
    let (wall, res) = timed(|| fleet_run(&grid, workers));
    match res {
        Ok(ckpt) => {
            let recorded: Vec<u64> = (0..ckpt.cells.len())
                .filter_map(|i| cell_digest(&ckpt, i))
                .collect();
            t.check(recorded == lib_digests, || {
                "fleet cell digests differ from run_cell".into()
            });
            let dir = Path::new(".bench_tmp").join(format!("ckpt-{}", std::process::id()));
            let start = Clock::now();
            let saved = std::fs::create_dir_all(&dir)
                .map_err(|_| SimError::Config {
                    what: "cannot create the checkpoint scratch directory",
                })
                .and_then(|()| {
                    std::hint::black_box(ckpt.to_bytes());
                    ckpt.save(&dir)
                });
            let ckpt_s = start.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir(".bench_tmp");
            if let Err(e) = saved {
                t.error("checkpoint save", &e);
            }
            tp.extra
                .push(Metric::new("orchestrator.checkpoint.self_s", ckpt_s, "s"));
        }
        Err(e) => t.error("run_fleet", &e),
    }
    let w = workers as f64;
    let longest = cell_s.iter().copied().fold(0.0, f64::max);
    tp.extra.extend([
        Metric::new("orchestrator.cells", grid.cell_count() as f64, "count"),
        Metric::new("orchestrator.cell_s_sum", cell_sum, "s"),
        Metric::new("orchestrator.parallel_eff", cell_sum / (w * wall), "ratio"),
        Metric::new("orchestrator.overhead_s", wall - cell_sum / w, "s"),
        Metric::new("orchestrator.straggler_frac", longest / wall, "ratio"),
    ]);
    tp
}

/// The traced `maintenance` pass: each of the six setups through the
/// library and through the traced driver (outcome for outcome), then the
/// DARP hot-channel setup again at `threads` for the sharding speed-up.
pub fn traced_maintenance(seed: u64, threads: usize, t: &mut Tally) -> TracedPass {
    let mut tp = TracedPass::default();
    let hot = hot_config(seed);
    let co = coschedule_config(seed);
    let mut darp_advance_ns = 0;
    for setup in [HotSetup::Static, HotSetup::Darp] {
        let start = Clock::now();
        let lib = run_hot_channel_setup(&hot, setup);
        tp.untraced_ns += ns_since(start);
        let start = Clock::now();
        let before = tp.layers.sys_advance_ns;
        let traced = traced_hot_setup(&hot, setup, 1, &mut tp.layers);
        tp.traced_ns += ns_since(start);
        if setup == HotSetup::Darp {
            darp_advance_ns = tp.layers.sys_advance_ns - before;
        }
        match (lib, traced) {
            (Ok(l), Ok(r)) => {
                if setup == HotSetup::Darp {
                    tp.extra.push(Metric::new(
                        "sim.demand_p99_ns",
                        r.p99_latency.as_ns_f64(),
                        "ns",
                    ));
                }
                t.check(format!("{l:?}") == format!("{r:?}"), || {
                    format!("hot-channel {setup:?}: traced run differs from the library")
                });
            }
            (Err(e), _) | (_, Err(e)) => t.error("hot-channel setup", &e),
        }
    }
    for (setup, load) in COSCHEDULE_SCENARIOS {
        let start = Clock::now();
        let lib = run_coschedule_setup(&co, setup, load);
        tp.untraced_ns += ns_since(start);
        let start = Clock::now();
        let traced = traced_coschedule_setup(&co, setup, load, &mut tp.layers);
        tp.traced_ns += ns_since(start);
        match (lib, traced) {
            (Ok(l), Ok(r)) => t.check(format!("{l:?}") == format!("{r:?}"), || {
                format!("co-scheduling {setup:?}/{load:?}: traced run differs from the library")
            }),
            (Err(e), _) | (_, Err(e)) => t.error("co-scheduling setup", &e),
        }
    }
    let mut sharded = Layers::default();
    match traced_hot_setup(&hot, HotSetup::Darp, threads, &mut sharded) {
        Ok(_) => tp.extra.push(Metric::new(
            "sim.system.advance.speedup",
            darp_advance_ns as f64 / sharded.sys_advance_ns.max(1) as f64,
            "x",
        )),
        Err(e) => t.error("sharded hot-channel setup", &e),
    }
    tp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_median_follows_a_slow_level_and_ignores_a_spike() {
        let mut v: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 / 100.0).collect();
        v[50] = 9.0;
        let m = running_median(&v, 5);
        assert_eq!(m.len(), v.len());
        assert!((m[50] - 1.5).abs() < 0.02, "spike leaked: {}", m[50]);
        assert!((m[20] - 1.2).abs() < 1e-12);
        assert_eq!(running_median(&[3.0], PROBE_WINDOW), vec![3.0]);
    }

    #[test]
    fn ref_wall_is_unmoved_by_slow_host_drift_and_short_bursts() {
        // Two segments costing 2 and 3 probe-units each, on a host whose
        // speed drifts from 1x to 2x slower over the run; one segment is
        // hit by a 3x burst. The rescaled pass is 5 probe-units.
        let mut tm = Timings::new(2, 2);
        for pass in 0..1000 {
            let h = 1.0 + pass as f64 / 1000.0;
            let probe = 1e-3 * h;
            let burst = if pass == 500 { 3.0 } else { 1.0 };
            tm.segment(2e-3 * h * burst, probe);
            tm.segment(3e-3 * h, probe);
        }
        let want = 5.0 * REF_PROBE_S;
        assert!(
            (tm.ref_wall_s() - want).abs() < 0.01 * want,
            "{}",
            tm.ref_wall_s()
        );
        let raw_fastest = tm.pass_s().into_iter().fold(f64::INFINITY, f64::min);
        assert!((raw_fastest - 5e-3).abs() < 1e-4);
    }
}
