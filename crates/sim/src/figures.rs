//! Figure regeneration harness.
//!
//! One function per evaluation figure of the paper. Each figure is derived
//! from a *corpus*: the full benchmark catalog run under both the CBR
//! baseline and Smart Refresh on one module configuration. Corpora are
//! computed lazily and cached inside [`Evaluation`], so Figs 6–8 (which
//! share the 2 GB runs) cost one sweep, not three.
//!
//! Paper reference values (baselines and GMEANs) are embedded as constants
//! so reports can always print paper-vs-measured side by side.

use smartrefresh_core::{CbrDistributed, SmartRefresh, SmartRefreshConfig};
use smartrefresh_ctrl::{EccConfig, ScrubConfig, SimError};
use smartrefresh_dram::configs::{conventional_2gb, conventional_4gb, stacked_3d_64mb};
use smartrefresh_dram::time::Duration;
use smartrefresh_dram::ModuleConfig;
use smartrefresh_energy::{geometric_mean, mean, DramPowerParams};
use smartrefresh_workloads::{catalog, AccessGenerator, BenchmarkEntry, Suite, WorkloadSpec};

use crate::experiment::{ExperimentConfig, Front, PolicyKind, Run, RunResult, Topology};

/// Events a streamed corpus pair generates at a time: each chunk passes
/// the shared L3 once and is then served to both runs. A constant, not a
/// knob — results are the same at any chunk size, only memory (24 B per
/// event) and cache locality move.
const PAIR_CHUNK: usize = 4096;

/// The evaluation figures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Refreshes per second, 2 GB DRAM.
    Fig06,
    /// Relative refresh energy savings, 2 GB DRAM.
    Fig07,
    /// Relative total energy savings, 2 GB DRAM.
    Fig08,
    /// Refreshes per second, 4 GB DRAM.
    Fig09,
    /// Relative refresh energy savings, 4 GB DRAM.
    Fig10,
    /// Relative total energy savings, 4 GB DRAM.
    Fig11,
    /// Refreshes per second, 64 MB 3D DRAM cache @ 64 ms.
    Fig12,
    /// Relative refresh energy savings, 3D @ 64 ms.
    Fig13,
    /// Relative total energy savings, 3D @ 64 ms.
    Fig14,
    /// Refreshes per second, 3D @ 32 ms.
    Fig15,
    /// Relative refresh energy savings, 3D @ 32 ms.
    Fig16,
    /// Relative total energy savings, 3D @ 32 ms.
    Fig17,
    /// Performance improvement, 3D @ 32 ms.
    Fig18,
}

impl FigureId {
    /// All figures in paper order.
    pub const ALL: [FigureId; 13] = [
        FigureId::Fig06,
        FigureId::Fig07,
        FigureId::Fig08,
        FigureId::Fig09,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Fig17,
        FigureId::Fig18,
    ];

    /// The figure's caption in the paper.
    pub fn title(&self) -> &'static str {
        match self {
            FigureId::Fig06 => "Number of Refreshes per second for a 2GB DRAM",
            FigureId::Fig07 => "Relative Refresh Energy Savings for a 2GB DRAM",
            FigureId::Fig08 => "Relative Total Energy Savings for a 2GB DRAM",
            FigureId::Fig09 => "Number of Refreshes for a 4GB DRAM",
            FigureId::Fig10 => "Relative Refresh Energy Savings for a 4GB DRAM",
            FigureId::Fig11 => "Relative Total Energy Savings for a 4GB DRAM",
            FigureId::Fig12 => "Number of Refreshes for a 64MB 3D DRAM Cache (64ms)",
            FigureId::Fig13 => "Relative Refresh Energy Savings, 64MB 3D DRAM Cache (64ms)",
            FigureId::Fig14 => "Relative Total Energy Savings, 64MB 3D DRAM Cache (64ms)",
            FigureId::Fig15 => "Number of Refreshes for a 64MB 3D DRAM Cache (32ms)",
            FigureId::Fig16 => "Relative Refresh Energy Savings, 64MB 3D DRAM Cache (32ms)",
            FigureId::Fig17 => "Relative Total Energy Savings, 64MB 3D DRAM Cache (32ms)",
            FigureId::Fig18 => "Performance improvement, 64MB 3D DRAM Cache (32ms)",
        }
    }

    /// The GMEAN the paper reports for this figure (fractions for savings
    /// figures, refreshes/s for rate figures).
    pub fn paper_gmean(&self) -> f64 {
        match self {
            FigureId::Fig06 => 691_435.0,
            FigureId::Fig07 => 0.5257,
            FigureId::Fig08 => 0.1213,
            FigureId::Fig09 => 2_343_691.0,
            FigureId::Fig10 => 0.2376,
            FigureId::Fig11 => 0.0910,
            FigureId::Fig12 => 795_411.0,
            FigureId::Fig13 => 0.2191,
            FigureId::Fig14 => 0.0937,
            FigureId::Fig15 => 1_724_640.0,
            FigureId::Fig16 => 0.1579,
            FigureId::Fig17 => 0.0687,
            FigureId::Fig18 => 0.0011,
        }
    }

    /// The constant baseline the paper marks on rate figures.
    pub fn paper_baseline(&self) -> Option<f64> {
        match self {
            FigureId::Fig06 => Some(2_048_000.0),
            FigureId::Fig09 => Some(4_096_000.0),
            FigureId::Fig12 => Some(1_024_000.0),
            FigureId::Fig15 => Some(2_048_000.0),
            _ => None,
        }
    }

    /// Unit of the per-benchmark value.
    pub fn unit(&self) -> &'static str {
        match self {
            FigureId::Fig06 | FigureId::Fig09 | FigureId::Fig12 | FigureId::Fig15 => {
                "refreshes/sec"
            }
            FigureId::Fig18 => "perf improvement",
            _ => "savings",
        }
    }

    fn corpus(&self) -> CorpusId {
        match self {
            FigureId::Fig06 | FigureId::Fig07 | FigureId::Fig08 => CorpusId::Conv2Gb,
            FigureId::Fig09 | FigureId::Fig10 | FigureId::Fig11 => CorpusId::Conv4Gb,
            FigureId::Fig12 | FigureId::Fig13 | FigureId::Fig14 => CorpusId::Stacked64Ms,
            FigureId::Fig15 | FigureId::Fig16 | FigureId::Fig17 | FigureId::Fig18 => {
                CorpusId::Stacked32Ms
            }
        }
    }
}

/// One benchmark's bar in a figure.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Suite grouping (the figures' x-axis groups).
    pub suite: Suite,
    /// The per-benchmark value (unit depends on the figure).
    pub value: f64,
}

/// A regenerated figure: rows plus summary statistics.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Which figure this is.
    pub id: FigureId,
    /// Per-benchmark values in catalog order.
    pub rows: Vec<FigureRow>,
    /// Geometric mean over benchmarks (the figures' GMEAN line).
    pub gmean: f64,
    /// Constant baseline (rate figures only).
    pub baseline: Option<f64>,
}

/// The four run corpora behind the thirteen figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusId {
    /// 2 GB conventional module (Figs 6–8).
    Conv2Gb,
    /// 4 GB conventional module (Figs 9–11).
    Conv4Gb,
    /// 64 MB 3D DRAM cache, 64 ms retention (Figs 12–14).
    Stacked64Ms,
    /// 64 MB 3D DRAM cache, 32 ms retention (Figs 15–18).
    Stacked32Ms,
}

/// Baseline + Smart Refresh results for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchPair {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite grouping.
    pub suite: Suite,
    /// CBR baseline result.
    pub baseline: RunResult,
    /// Smart Refresh result.
    pub smart: RunResult,
}

/// Lazily-evaluated, cached figure corpus runner.
#[derive(Debug)]
pub struct Evaluation {
    /// Time-scale factor applied to warm-up and measurement spans
    /// (1.0 = the default 2+6 retention intervals).
    scale: f64,
    seed: u64,
    /// When set, the 3D-stacked corpora run with the SECDED + covering
    /// patrol-scrub stack so Figs 12–17 price scrub DRAM energy and ECC
    /// logic energy into the breakdown. Off by default: the reference
    /// figures assume no ECC and must stay bit-identical.
    ecc: bool,
    /// Worker threads the corpus runs shard benchmark entries across
    /// (1 = sequential). Results merge in catalog order, so this is a
    /// wall-clock knob only — see [`crate::parallel`].
    threads: usize,
    conv2: Option<Vec<BenchPair>>,
    conv4: Option<Vec<BenchPair>>,
    s64: Option<Vec<BenchPair>>,
    s32: Option<Vec<BenchPair>>,
}

impl Evaluation {
    /// Creates an evaluation at full scale with the default seed.
    pub fn new() -> Self {
        Self::with_scale(1.0)
    }

    /// Creates an evaluation with warm-up/measurement spans scaled by
    /// `scale` (useful for quick looks; figures stabilise from ~0.5).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        Evaluation {
            scale,
            seed: 0x5eed,
            ecc: false,
            threads: crate::parallel::default_threads(),
            conv2: None,
            conv4: None,
            s64: None,
            s32: None,
        }
    }

    /// Sets how many worker threads corpus runs may shard benchmark
    /// entries across. Zero is clamped to 1. Every figure is
    /// bit-identical at every setting; tests pin the equality.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables the ECC + patrol-scrub stack on the 3D-stacked corpora
    /// (Figs 12–17), pricing scrub and ECC logic energy into the
    /// breakdowns. Conventional corpora are unaffected.
    pub fn with_ecc(mut self) -> Self {
        self.ecc = true;
        self
    }

    /// The workload and CBR-baseline configuration of `entry`'s pair in
    /// corpus `id`; the Smart run differs only in its policy.
    fn pair_config(
        &self,
        id: CorpusId,
        entry: &BenchmarkEntry,
    ) -> (WorkloadSpec, ExperimentConfig) {
        let (module, power, topology): (ModuleConfig, DramPowerParams, Topology) = match id {
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
        let spec: WorkloadSpec = match id {
            CorpusId::Conv2Gb => entry.conventional.clone(),
            CorpusId::Conv4Gb => entry.conventional_4gb(),
            CorpusId::Stacked64Ms | CorpusId::Stacked32Ms => entry.stacked.clone(),
        };
        let mut base_cfg = match topology {
            Topology::Conventional => {
                ExperimentConfig::conventional(module, power, PolicyKind::CbrDistributed)
            }
            Topology::Stacked => {
                ExperimentConfig::stacked(module, power, PolicyKind::CbrDistributed)
            }
        }
        .scaled(self.scale);
        base_cfg.seed = self.seed;
        // Workload timescale is fixed at 64 ms regardless of how hot
        // (fast-refreshing) the module is.
        base_cfg.reference = Duration::from_ms(64);
        if self.ecc && topology == Topology::Stacked {
            let m = &base_cfg.module;
            base_cfg.ecc = Some(EccConfig::new(self.seed).with_scrub(ScrubConfig::covering(
                m.timing.retention,
                m.geometry.total_rows(),
            )));
        }
        (spec, base_cfg)
    }

    fn run_corpus(&self, id: CorpusId) -> Result<Vec<BenchPair>, SimError> {
        // Each benchmark entry is an independent pair of experiments with
        // its own seeded generator, so the corpus shards across worker
        // threads and merges in catalog order — bit-identical to the
        // sequential loop at any thread count.
        let entries = catalog();
        crate::parallel::par_map(self.threads, &entries, |_, entry| {
            let (spec, base_cfg) = self.pair_config(id, entry);
            let (baseline, smart) =
                replay_pair(&base_cfg, SmartRefreshConfig::paper_defaults(), &spec)?;
            assert!(
                baseline.integrity_ok && smart.integrity_ok,
                "{}: retention violated",
                spec.name
            );
            Ok(BenchPair {
                name: entry.name(),
                suite: entry.suite(),
                baseline,
                smart,
            })
        })
        .into_iter()
        .collect()
    }

    /// The cached corpus for `id`, running it on first use.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (controller bugs — never expected).
    pub fn corpus(&mut self, id: CorpusId) -> Result<&[BenchPair], SimError> {
        let pairs = match self.slot(id).take() {
            Some(pairs) => pairs,
            None => self.run_corpus(id)?,
        };
        Ok(self.slot(id).insert(pairs))
    }

    /// The cache slot of corpus `id`.
    fn slot(&mut self, id: CorpusId) -> &mut Option<Vec<BenchPair>> {
        match id {
            CorpusId::Conv2Gb => &mut self.conv2,
            CorpusId::Conv4Gb => &mut self.conv4,
            CorpusId::Stacked64Ms => &mut self.s64,
            CorpusId::Stacked32Ms => &mut self.s32,
        }
    }

    /// Regenerates one figure.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the underlying corpus run.
    pub fn figure(&mut self, id: FigureId) -> Result<Figure, SimError> {
        let pairs = self.corpus(id.corpus())?;
        let rows: Vec<FigureRow> = pairs
            .iter()
            .map(|p| FigureRow {
                benchmark: p.name,
                suite: p.suite,
                value: figure_value(id, p),
            })
            .collect();
        // Fig 18's values hover around zero (±0.5%), where a geometric mean
        // is meaningless; report the arithmetic mean for it instead.
        let summary = if id == FigureId::Fig18 {
            mean(&rows.iter().map(|r| r.value).collect::<Vec<_>>())
        } else {
            let positives: Vec<f64> = rows.iter().map(|r| r.value.max(1e-9)).collect();
            geometric_mean(&positives)
        };
        Ok(Figure {
            id,
            gmean: summary,
            baseline: pairs
                .first()
                .filter(|_| id.paper_baseline().is_some())
                .map(|p| p.baseline.refreshes_per_sec),
            rows,
        })
    }
}

impl Default for Evaluation {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one corpus pair — `base_cfg` under CBR and the same
/// configuration under Smart Refresh `smart` — over `spec`'s stream, with
/// memory independent of the span.
///
/// Both runs consume the *same* event stream (same spec, geometry,
/// reference, seed, and horizon), and the stacked L3 in front of them
/// turns it into the same traffic whatever the policy. So both are live
/// at once behind one generator and one [`Front`]: each [`PAIR_CHUNK`] of
/// events is generated and filtered once, then served to the baseline and
/// then to Smart Refresh. The results are bit-identical to two
/// [`run_experiment_with_events`](crate::experiment::run_experiment_with_events)
/// calls over the collected stream.
fn replay_pair(
    base_cfg: &ExperimentConfig,
    smart: SmartRefreshConfig,
    spec: &WorkloadSpec,
) -> Result<(RunResult, RunResult), SimError> {
    let smart_cfg = ExperimentConfig {
        policy: PolicyKind::Smart(smart),
        ..base_cfg.clone()
    };
    let (g, r) = (base_cfg.module.geometry, base_cfg.module.timing.retention);
    let mut baseline = Run::new(base_cfg, CbrDistributed::new(g, r))?;
    let mut smart = Run::new(&smart_cfg, SmartRefresh::new(g, r, smart))?;
    let mut front = Front::new(base_cfg);
    let horizon = baseline.horizon;
    let mut events = AccessGenerator::new(
        spec,
        base_cfg.workload_geometry.unwrap_or(g),
        base_cfg.reference,
        0,
        base_cfg.seed,
    )
    .take_while(|e| e.time <= horizon);
    let mut chunk = Vec::with_capacity(PAIR_CHUNK);
    loop {
        chunk.clear();
        chunk.extend(events.by_ref().take(PAIR_CHUNK).map(|e| front.translate(e)));
        if chunk.is_empty() {
            break;
        }
        for &tx in &chunk {
            baseline.feed(tx)?;
        }
        for &tx in &chunk {
            smart.feed(tx)?;
        }
    }
    let behind = front.measured();
    Ok((
        baseline.finish(base_cfg, spec.name, spec.apki, behind)?,
        smart.finish(&smart_cfg, spec.name, spec.apki, behind)?,
    ))
}

fn figure_value(id: FigureId, p: &BenchPair) -> f64 {
    match id {
        FigureId::Fig06 | FigureId::Fig09 | FigureId::Fig12 | FigureId::Fig15 => {
            p.smart.refreshes_per_sec
        }
        FigureId::Fig07 | FigureId::Fig10 | FigureId::Fig13 | FigureId::Fig16 => {
            p.smart.energy.refresh_savings_vs(&p.baseline.energy)
        }
        FigureId::Fig08 | FigureId::Fig11 | FigureId::Fig14 | FigureId::Fig17 => {
            p.smart.energy.total_savings_vs(&p.baseline.energy)
        }
        FigureId::Fig18 => {
            p.baseline.seconds_per_instruction() / p.smart.seconds_per_instruction() - 1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartrefresh_dram::time::Instant;

    #[test]
    fn figure_metadata_is_complete() {
        for id in FigureId::ALL {
            assert!(!id.title().is_empty());
            assert!(id.paper_gmean() > 0.0);
            assert!(!id.unit().is_empty());
        }
        assert_eq!(FigureId::Fig06.paper_baseline(), Some(2_048_000.0));
        assert_eq!(FigureId::Fig07.paper_baseline(), None);
    }

    #[test]
    fn corpus_mapping_groups_by_module() {
        assert_eq!(FigureId::Fig06.corpus(), CorpusId::Conv2Gb);
        assert_eq!(FigureId::Fig08.corpus(), CorpusId::Conv2Gb);
        assert_eq!(FigureId::Fig11.corpus(), CorpusId::Conv4Gb);
        assert_eq!(FigureId::Fig14.corpus(), CorpusId::Stacked64Ms);
        assert_eq!(FigureId::Fig18.corpus(), CorpusId::Stacked32Ms);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        Evaluation::with_scale(0.0);
    }

    /// The streamed pair against the two-pass replay it replaces: collect
    /// the stream, then run the baseline and Smart Refresh over it with
    /// [`run_experiment_with_events`]. Each case's stream is longer than
    /// one chunk and not a whole number of chunks, so the last chunk is a
    /// partial one.
    #[test]
    fn streamed_pairs_equal_two_collected_replays() {
        use crate::digest::digest_run;
        use crate::experiment::run_experiment_with_events;
        let entry = catalog()
            .into_iter()
            .find(|e| e.name() == "water-spatial")
            .expect("catalog entry");
        let conventional = Evaluation::with_scale(0.002);
        let stacked = Evaluation::with_scale(0.05);
        let stacked_ecc = Evaluation::with_scale(0.05).with_ecc();
        for (eval, id) in [
            (&conventional, CorpusId::Conv2Gb),
            (&stacked, CorpusId::Stacked32Ms),
            (&stacked_ecc, CorpusId::Stacked32Ms),
        ] {
            let (spec, base_cfg) = eval.pair_config(id, &entry);
            assert_eq!(base_cfg.ecc.is_some(), eval.ecc, "{id:?}");
            let smart = SmartRefreshConfig::paper_defaults();
            let smart_cfg = ExperimentConfig {
                policy: PolicyKind::Smart(smart),
                ..base_cfg.clone()
            };
            let horizon = Instant::ZERO + base_cfg.warmup + base_cfg.measure;
            let events: Vec<_> = AccessGenerator::new(
                &spec,
                base_cfg.module.geometry,
                base_cfg.reference,
                0,
                base_cfg.seed,
            )
            .take_while(|e| e.time <= horizon)
            .collect();
            assert!(
                events.len() > PAIR_CHUNK && events.len() % PAIR_CHUNK != 0,
                "{id:?}: {} events must span a partial last chunk",
                events.len()
            );
            let collected = |cfg: &ExperimentConfig| {
                run_experiment_with_events(cfg, events.iter().copied(), spec.name, spec.apki)
                    .expect("collected replay")
            };
            let (b, s) = replay_pair(&base_cfg, smart, &spec).expect("streamed pair");
            assert_eq!(
                digest_run(&b),
                digest_run(&collected(&base_cfg)),
                "{id:?} baseline"
            );
            assert_eq!(
                digest_run(&s),
                digest_run(&collected(&smart_cfg)),
                "{id:?} smart"
            );
            if id != CorpusId::Conv2Gb {
                assert!(
                    b.memory_behind_cache > 0,
                    "{id:?}: the L3 sent traffic behind it"
                );
            }
            if eval.ecc {
                assert!(
                    b.ops.scrubs > 0 && s.ops.scrubs > 0,
                    "the ECC stack scrubbed"
                );
            }
        }
    }

    #[test]
    fn ecc_is_opt_in() {
        assert!(
            !Evaluation::new().ecc,
            "default keeps figures bit-identical"
        );
        assert!(Evaluation::with_scale(0.5).with_ecc().ecc);
    }
}
