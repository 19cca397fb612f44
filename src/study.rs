//! Every named study of the reproduction beyond Figs 6–18, in one table.
//!
//! A study is a deterministic experiment with a fixed configuration: the
//! paper's tables and its Figs 1–4 arguments, the §4 ablations, the
//! extensions past the paper, and the six resilience campaigns. Each row
//! of [`STUDIES`] names one, runs it to a report and a verdict on its
//! claim, and pins the report's bytes with [`report_digest`], so a moved
//! digit anywhere in the evidence fails loudly. `smart-refresh study
//! <name|all>` prints the reports and checks both; `tests/study_pin.rs`
//! checks the pins through this module.
//!
//! ```
//! use smart_refresh::study::{find, report_digest};
//!
//! let study = find("fig_tables").expect("a paper study");
//! let (report, held) = (study.run)(1)?;
//! assert!(held);
//! assert_eq!(report_digest(&report), study.pin);
//! # Ok::<(), smart_refresh::ctrl::SimError>(())
//! ```

use crate::core::SmartRefreshConfig;
use crate::ctrl::SimError;
use crate::dram::time::Duration;
use crate::dram::{Geometry, ModuleConfig, TimingParams};
use crate::energy::DramPowerParams;
use crate::sim::{Digest64, ExperimentConfig, PolicyKind};
use crate::workloads::{Suite, WorkloadSpec};

mod ablation;
mod campaign;
mod extension;
mod paper;

/// What a study run yields: its report text and whether its claim held.
pub type Report = (String, bool);

/// A report under construction. `writeln!(out, ...)` appends a line as
/// `println!` would print it; unlike `fmt::Write` for `String`, there is
/// no `Result` to discard.
#[derive(Default)]
struct Out(String);

impl Out {
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.0.push_str(&std::fmt::format(args));
    }
}

/// One named study.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The `smart-refresh study <name>` argument.
    pub name: &'static str,
    /// The clause the run checks, stated as it must hold.
    pub claim: &'static str,
    /// Runs the study on the given worker count (only the co-scheduling
    /// and hot-channel campaigns shard; the report is bit-identical at any
    /// count) and returns its report and verdict.
    pub run: fn(usize) -> Result<Report, SimError>,
    /// [`report_digest`] of the report, recorded from the run it pins.
    pub pin: u64,
}

/// Every study, in the order `study all` runs them: the paper, the §4
/// ablations, the extensions, then the six campaigns.
pub const STUDIES: [Study; 28] = [
    // The paper's tables and Figs 1–4.
    Study {
        name: "fig_tables",
        claim: "the configuration tables print",
        run: paper::fig_tables,
        pin: 0x5e6d_4ecb_1e8b_4cc0,
    },
    Study {
        name: "fig01_motivation",
        claim: "the best case keeps data and eliminates at least 3/4 of refreshes",
        run: paper::fig01_motivation,
        pin: 0x381a_f9f2_419e_a51c,
    },
    Study {
        name: "fig03_stagger",
        claim: "every schedule keeps data",
        run: paper::fig03_stagger,
        pin: 0xd711_bb53_65e9_563b,
    },
    Study {
        name: "fig03_walk",
        claim: "the walk prints",
        run: paper::fig03_walk,
        pin: 0xc4fe_069b_6e98_d037,
    },
    Study {
        name: "fig04_correctness",
        claim: "no row outlives its retention deadline on any pattern",
        run: paper::fig04_correctness,
        pin: 0x67ba_c602_3945_de63,
    },
    // The §4 ablations.
    Study {
        name: "abl_counter_width",
        claim: "every counter width keeps data",
        run: ablation::counter_width,
        pin: 0xc739_b818_ecb4_a392,
    },
    Study {
        name: "abl_segments",
        claim: "every segment count keeps data and bounds the queue by itself",
        run: ablation::segments,
        pin: 0xf1ec_d1c7_033c_805f,
    },
    Study {
        name: "abl_stagger_burstiness",
        claim: "both countdowns keep data",
        run: ablation::stagger_burstiness,
        pin: 0xd304_435c_cfcc_d51c,
    },
    Study {
        name: "abl_baseline_energy",
        claim: "every policy keeps data and Smart undercuts CBR's mechanism energy",
        run: ablation::baseline_energy,
        pin: 0x3a85_0e72_ef39_a4eb,
    },
    Study {
        name: "abl_idle_os",
        claim: "quiet runs keep data and fallback loses under 1% energy",
        run: ablation::quiet_systems,
        pin: 0x4c38_9cd4_dada_8994,
    },
    Study {
        name: "abl_page_policy",
        claim: "both page policies keep data and reduce refreshes within 5 points",
        run: ablation::page_policy,
        pin: 0x35ec_abca_a644_1e8d,
    },
    // Extensions past the paper.
    Study {
        name: "abl_retention_aware",
        claim: "every policy keeps data and Smart+RA beats both constituents",
        run: extension::retention_aware,
        pin: 0x120c_620e_ac45_af4e,
    },
    Study {
        name: "abl_edram",
        claim: "both eDRAM runs keep data",
        run: extension::edram,
        pin: 0xc2a3_5af5_fd26_5a5b,
    },
    Study {
        name: "abl_32mb_stack",
        claim: "every stacked Smart run keeps data",
        run: extension::stack_32mb,
        pin: 0xd4e4_e9a5_eb82_f648,
    },
    Study {
        name: "abl_thermal_feedback",
        claim: "Smart settles at no more power and no higher temperature than CBR",
        run: extension::thermal_feedback,
        pin: 0x306b_6edb_734e_74bf,
    },
    Study {
        name: "abl_closed_loop",
        claim: "closed-loop runs keep data and Smart never costs over 0.5% IPC",
        run: extension::closed_loop,
        pin: 0x65b6_32e5_c35b_49c0,
    },
    Study {
        name: "abl_powerdown",
        claim: "both runs keep data and Smart does not shorten power-down residency",
        run: extension::powerdown,
        pin: 0xf7de_aa9c_082f_23e6,
    },
    Study {
        name: "abl_counter_power",
        claim: "every counter policy keeps data, reset never saves and snapshot equals persistent",
        run: extension::counter_power,
        pin: 0xb6df_ca0b_392f_845e,
    },
    Study {
        name: "abl_phase_hysteresis",
        claim: "both phased runs keep data and Smart refreshes less than CBR",
        run: extension::phase_hysteresis,
        pin: 0x4a29_f4b0_875d_b4a3,
    },
    Study {
        name: "abl_multichannel",
        claim: "every channel keeps data",
        run: extension::multichannel,
        pin: 0x90f3_c257_8794_912a,
    },
    Study {
        name: "abl_coschedule",
        claim: "coverage and retention hold at every channel count",
        run: extension::coschedule,
        pin: 0xf06c_45ac_6054_11d9,
    },
    Study {
        name: "abl_rfm",
        claim: "the tightest RAAIMT stops every UE, the loosest leaks, and protection costs energy",
        run: extension::rfm,
        pin: 0xc9ef_ca67_808f_56c1,
    },
    // The resilience campaigns.
    Study {
        name: "faults",
        claim: "every injected fault is detected",
        run: campaign::faults,
        pin: 0x7013_dcb9_5161_49db,
    },
    Study {
        name: "scrub",
        claim: "every error is corrected or escalated",
        run: campaign::scrub,
        pin: 0xef6b_0af3_7683_31f8,
    },
    Study {
        name: "coschedule",
        claim: "every coverage, interference and adaptation clause holds",
        run: campaign::coschedule,
        pin: 0x8c24_1f6d_103a_852d,
    },
    Study {
        name: "powerdown",
        claim: "every counter power-state policy keeps its contract",
        run: campaign::powerdown,
        pin: 0x63ad_8d63_aa28_8924,
    },
    Study {
        name: "rfm",
        claim: "every rowhammer clause holds",
        run: campaign::rfm,
        pin: 0xaff1_61bd_178a_eaa6,
    },
    Study {
        name: "darp",
        claim: "DARP/SARP beat the static schedule",
        run: campaign::darp,
        pin: 0x42c2_8834_09c2_9342,
    },
];

/// The study named `name`.
pub fn find(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|s| s.name == name)
}

/// FNV-1a digest of a report's length-prefixed bytes, as the campaign
/// report pins in `crates/sim/tests` compute it.
pub fn report_digest(report: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(report);
    d.finish()
}

/// The 4096-row, 16 ms module most ablations run on: large enough to
/// show the effects, small enough to run in seconds.
fn mini_module() -> ModuleConfig {
    ModuleConfig {
        name: "bench-mini",
        geometry: Geometry::new(1, 4, 1024, 32, 64),
        timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(16)),
    }
}

/// A conventional run of `policy` on [`mini_module`] with the 2 GB
/// DIMM's power parameters.
fn mini_run(policy: PolicyKind) -> ExperimentConfig {
    ExperimentConfig::conventional(mini_module(), DramPowerParams::ddr2_2gb(), policy)
}

/// The synthetic workload the ablations share; callers override the
/// fields their study varies.
fn synthetic(name: &'static str, coverage: f64) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite: Suite::Synthetic,
        coverage,
        intensity: 3.0,
        row_hit_frac: 0.5,
        hot_frac: 0.2,
        hot_weight: 0.5,
        write_frac: 0.3,
        apki: 5.0,
    }
}

/// Smart Refresh at the paper's width and segments with the §4.6 monitor
/// off, so a run measures the counters alone.
fn smart_no_hysteresis() -> SmartRefreshConfig {
    SmartRefreshConfig {
        hysteresis: None,
        ..SmartRefreshConfig::paper_defaults()
    }
}

/// `1 - part/whole` as a percentage: the reduction the tables print.
fn reduction_pct(part: f64, whole: f64) -> f64 {
    (1.0 - part / whole) * 100.0
}

/// `"ok"` or `"VIOLATED"` for an integrity column.
fn integrity(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_none_is_all() {
        let mut names: Vec<_> = STUDIES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STUDIES.len());
        assert!(find("all").is_none());
    }
}
