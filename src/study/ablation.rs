//! The §4 ablations: counter width, segment count, staggering, the
//! refresh-mechanism baselines, the §4.6 quiet-system circuitry and the
//! row-buffer policy.

use super::{
    integrity, mini_module, mini_run, reduction_pct, smart_no_hysteresis, synthetic, Out, Report,
};
use crate::core::optimality::counter_optimality;
use crate::core::{HysteresisConfig, SmartRefreshConfig};
use crate::ctrl::{PagePolicy, SimError};
use crate::dram::configs::conventional_2gb;
use crate::energy::sram::area_overhead_kb;
use crate::energy::DramPowerParams;
use crate::sim::{run_experiment, ExperimentConfig, PolicyKind};
use crate::workloads::{cache_resident, idle_os, WorkloadSpec};

/// §4.4: wider counters postpone refreshes longer after each access
/// (optimality `1 - 1/2^bits`) at the cost of a bigger SRAM array.
pub(super) fn counter_width(_threads: usize) -> Result<Report, SimError> {
    let spec = synthetic("width-bench", 0.5);
    let base = run_experiment(&mini_run(PolicyKind::CbrDistributed), &spec)?;
    let mut out = Out::default();
    writeln!(out, "=== Ablation: counter width ===");
    writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "bits", "optimality", "reduction", "refE save", "area KB"
    );
    let mut held = true;
    for bits in [2u32, 3, 4, 5] {
        let r = run_experiment(
            &mini_run(PolicyKind::Smart(SmartRefreshConfig {
                counter_bits: bits,
                ..smart_no_hysteresis()
            })),
            &spec,
        )?;
        held &= r.integrity_ok;
        writeln!(
            out,
            "{bits:>5} {:>11.1}% {:>11.1}% {:>11.1}% {:>12.1}",
            counter_optimality(bits) * 100.0,
            reduction_pct(r.refreshes_per_sec, base.refreshes_per_sec),
            r.energy.refresh_savings_vs(&base.energy) * 100.0,
            area_overhead_kb(mini_module().geometry.total_rows(), bits)
        );
    }
    writeln!(
        out,
        "\nPaper: optimality = (1 - 1/2^bits); 3-bit chosen for all simulations."
    );
    Ok((out.0, held))
}

/// §4.2/§5: the segment count bounds the refresh requests one tick can
/// generate, so the pending queue sized to it never overflows.
pub(super) fn segments(_threads: usize) -> Result<Report, SimError> {
    let spec = synthetic("segments-bench", 0.5);
    let mut out = Out::default();
    writeln!(out, "=== Ablation: stagger segments / queue capacity ===");
    writeln!(
        out,
        "{:>9} {:>10} {:>12} {:>12} {:>12}",
        "segments", "capacity", "high water", "reduction", "integrity"
    );
    let base = run_experiment(&mini_run(PolicyKind::CbrDistributed), &spec)?;
    let mut held = true;
    for segments in [2u32, 4, 8, 16] {
        let r = run_experiment(
            &mini_run(PolicyKind::Smart(SmartRefreshConfig {
                segments,
                queue_capacity: segments as usize,
                ..smart_no_hysteresis()
            })),
            &spec,
        )?;
        held &= r.integrity_ok && r.queue_high_water <= segments as usize;
        writeln!(
            out,
            "{segments:>9} {:>10} {:>12} {:>11.1}% {:>12}",
            segments,
            r.queue_high_water,
            reduction_pct(r.refreshes_per_sec, base.refreshes_per_sec),
            integrity(r.integrity_ok)
        );
    }
    writeln!(
        out,
        "\nThe high-water mark never exceeds the segment count (§5's\n\
         never-overflows argument), and the segment count does not change\n\
         *what* is refreshed — only how the work is spread in time."
    );
    Ok((out.0, held))
}

/// Fig 2 vs Fig 3: a simultaneous countdown (every counter examined in
/// one tick, emulated with one segment per row) against the paper's
/// 8-segment walk.
pub(super) fn stagger_burstiness(_threads: usize) -> Result<Report, SimError> {
    let total_rows = mini_module().geometry.total_rows() as u32;
    let spec = synthetic("burstiness-bench", 0.3);
    let mut out = Out::default();
    writeln!(out, "=== Ablation: simultaneous vs staggered countdown ===");
    writeln!(
        out,
        "{:<28} {:>14} {:>12}",
        "schedule", "peak backlog", "integrity"
    );
    let mut held = true;
    for (label, segments) in [
        ("staggered, 8 segments", 8u32),
        ("simultaneous (all rows/tick)", total_rows),
    ] {
        let r = run_experiment(
            &mini_run(PolicyKind::Smart(SmartRefreshConfig {
                segments,
                queue_capacity: total_rows as usize,
                ..smart_no_hysteresis()
            })),
            &spec,
        )?;
        held &= r.integrity_ok;
        writeln!(
            out,
            "{label:<28} {:>14} {:>12}",
            r.queue_high_water,
            integrity(r.integrity_ok)
        );
    }
    writeln!(
        out,
        "\nExamining all counters at once recreates the burst refresh the\n\
         paper warns about in Fig 2: hundreds of refreshes queue behind one\n\
         tick, while the staggered walk keeps the backlog at the segment count."
    );
    Ok((out.0, held))
}

/// §3: CBR is the cheapest periodic mechanism, RAS-only pays bus energy
/// for the same schedule, and Smart Refresh pays that premium plus
/// counters on far fewer operations — and still wins.
pub(super) fn baseline_energy(_threads: usize) -> Result<Report, SimError> {
    let spec = WorkloadSpec {
        intensity: 3.5,
        ..synthetic("baseline-bench", 0.55)
    };
    let mut out = Out::default();
    writeln!(out, "=== Ablation: refresh-mechanism energy by policy ===");
    writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "policy", "refreshes/s", "mechanism mJ", "bus mJ", "counter mJ"
    );
    let mut cbr_mech = 0.0;
    let mut held = true;
    for policy in [
        PolicyKind::CbrDistributed,
        PolicyKind::RasOnlyDistributed,
        PolicyKind::Burst,
        PolicyKind::Smart(SmartRefreshConfig::paper_defaults()),
    ] {
        let r = run_experiment(&mini_run(policy), &spec)?;
        held &= r.integrity_ok;
        if r.policy == "cbr" {
            cbr_mech = r.energy.refresh_mechanism_j();
        }
        writeln!(
            out,
            "{:<12} {:>14.0} {:>14.3} {:>12.4} {:>12.4}",
            r.policy,
            r.refreshes_per_sec,
            r.energy.refresh_mechanism_j() * 1e3,
            r.energy.refresh_bus_j * 1e3,
            r.energy.counter_sram_j * 1e3
        );
        if r.policy == "smart" {
            writeln!(
                out,
                "\nsmart vs CBR refresh-mechanism savings: {:.1}%",
                reduction_pct(r.energy.refresh_mechanism_j(), cbr_mech)
            );
            held &= r.energy.refresh_mechanism_j() < cbr_mech;
        }
    }
    writeln!(
        out,
        "\nRAS-only costs more than CBR at the same operation count; Smart\n\
         Refresh accepts that premium and still undercuts CBR by eliminating\n\
         the operations themselves — the comparison the paper sets up in §3."
    );
    Ok((out.0, held))
}

/// §4.6 on quiet systems: the idle OS keeps Smart Refresh engaged, and a
/// cache-resident workload drops it to CBR-grade fallback with no
/// detectable energy loss. Half-length spans on the 2 GB module.
pub(super) fn quiet_systems(_threads: usize) -> Result<Report, SimError> {
    let mut out = Out::default();
    writeln!(
        out,
        "=== Ablation: hysteresis on quiet systems (2 GB module) ==="
    );
    writeln!(
        out,
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "workload", "mode", "refE save", "totE save", "integrity"
    );
    let mut held = true;
    for entry in [idle_os(), cache_resident()] {
        let spec = entry.conventional;
        let base_cfg = ExperimentConfig::conventional(
            conventional_2gb(),
            DramPowerParams::ddr2_2gb(),
            PolicyKind::CbrDistributed,
        )
        .scaled(0.5);
        let smart_cfg = ExperimentConfig {
            policy: PolicyKind::Smart(SmartRefreshConfig {
                hysteresis: Some(HysteresisConfig::paper_defaults()),
                ..SmartRefreshConfig::paper_defaults()
            }),
            ..base_cfg.clone()
        };
        let baseline = run_experiment(&base_cfg, &spec)?;
        let smart = run_experiment(&smart_cfg, &spec)?;
        let total_save = smart.energy.total_savings_vs(&baseline.energy);
        writeln!(
            out,
            "{:<16} {:>10} {:>11.2}% {:>11.2}% {:>10}",
            spec.name,
            if smart.ended_in_fallback {
                "fallback"
            } else {
                "smart"
            },
            smart.energy.refresh_savings_vs(&baseline.energy) * 100.0,
            total_save * 100.0,
            integrity(smart.integrity_ok)
        );
        // "No energy loss" tolerance for the fallback mode.
        held &= smart.integrity_ok && (!smart.ended_in_fallback || total_save > -0.01);
    }
    writeln!(
        out,
        "\nPaper: ~10% refresh-energy savings for the idle OS; autonomous\n\
         fallback to CBR below 1% activity with no detectable energy loss."
    );
    Ok((out.0, held))
}

/// Open vs closed page (§4.1 assumes open): any access restores its row
/// either way, so the reduction is insensitive to the row-buffer policy
/// while latency and the activate/precharge energy shift.
pub(super) fn page_policy(_threads: usize) -> Result<Report, SimError> {
    let spec = WorkloadSpec {
        row_hit_frac: 0.6, // plenty of spatial locality for open page to win
        ..synthetic("page-bench", 0.5)
    };
    let mut out = Out::default();
    writeln!(out, "=== Ablation: row-buffer policy x refresh policy ===");
    writeln!(
        out,
        "{:<8} {:<8} {:>12} {:>10} {:>12} {:>12}",
        "page", "refresh", "refreshes/s", "lat ns", "act+pre mJ", "total mJ"
    );
    let mut held = true;
    let mut reductions = [0.0; 2];
    for (page, reduction) in [PagePolicy::Open, PagePolicy::Closed]
        .into_iter()
        .zip(&mut reductions)
    {
        let mut base_rate = 0.0;
        for policy in [
            PolicyKind::CbrDistributed,
            PolicyKind::Smart(smart_no_hysteresis()),
        ] {
            let cfg = ExperimentConfig {
                page_policy: page,
                ..mini_run(policy)
            };
            let r = run_experiment(&cfg, &spec)?;
            held &= r.integrity_ok;
            if r.policy == "cbr" {
                base_rate = r.refreshes_per_sec;
            } else {
                *reduction = 1.0 - r.refreshes_per_sec / base_rate;
            }
            writeln!(
                out,
                "{:<8} {:<8} {:>12.0} {:>10.1} {:>12.3} {:>12.3}",
                format!("{page:?}").to_lowercase(),
                r.policy,
                r.refreshes_per_sec,
                r.ctrl.avg_latency().as_ns_f64(),
                r.energy.dram.activate_precharge_j * 1e3,
                r.energy.total_j() * 1e3
            );
        }
    }
    let [open_red, closed_red] = reductions;
    writeln!(
        out,
        "\nSmart Refresh reduction: {:.1}% (open page) vs {:.1}% (closed page) —\n\
         the technique is insensitive to the row-buffer policy because any\n\
         access restores its row either way; the policies differ in latency\n\
         and activate/precharge energy, not in refresh behaviour.",
        open_red * 100.0,
        closed_red * 100.0
    );
    held &= (open_red - closed_red).abs() < 0.05;
    Ok((out.0, held))
}
