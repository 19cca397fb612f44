//! Text rendering for figures and run results.
//!
//! `smart-refresh figures` prints each regenerated figure as a table with
//! the paper's reference values alongside, and `smart-refresh study`
//! prints the campaign tables; that output is the EXPERIMENTS.md evidence.

use std::fmt::Write as _;

use crate::coschedule::{CoscheduleCampaignResult, CoscheduleOutcome, Load, Setup};
use crate::experiment::RunResult;
use crate::faults::{CampaignResult, Expectation};
use crate::figures::{Figure, FigureId};
use crate::hotchannel::{HotChannelCampaignResult, HotChannelOutcome, HotSetup};
use crate::powerdown::PowerdownCampaignResult;
use crate::rfm::{RfmCampaignResult, RfmOutcome};
use crate::scrub::{ScrubCampaignResult, ScrubExpectation};
use smartrefresh_core::DegradeCause;
use smartrefresh_faults::FaultKind;

/// Stable kebab-case label for a fault class, used in campaign reports.
///
/// The match is deliberately non-wildcard: adding a [`FaultKind`] variant
/// must fail compilation here until the reporting layer names it, which
/// is what the `exhaustive-variants` conformance lint pins down.
pub fn fault_kind_label(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::WeakCell { .. } => "weak-cell",
        FaultKind::DropRefresh => "drop-refresh",
        FaultKind::DelayRefresh { .. } => "delay-refresh",
        FaultKind::StallDispatch => "stall-dispatch",
        FaultKind::BitFlip { .. } => "bit-flip",
        FaultKind::VariableRetention { .. } => "variable-retention",
        FaultKind::Disturbance { .. } => "disturbance",
    }
}

/// Stable kebab-case label for a degradation cause, used in campaign
/// reports. Non-wildcard for the same reason as [`fault_kind_label`].
pub fn degrade_cause_label(cause: &DegradeCause) -> &'static str {
    match cause {
        DegradeCause::QueueOverflow => "queue-overflow",
        DegradeCause::FaultInjection => "fault-injection",
        DegradeCause::External => "external",
        DegradeCause::EccUncorrectable => "ecc-uncorrectable",
        DegradeCause::RetentionWatchdog => "retention-watchdog",
        DegradeCause::CounterPowerLoss => "counter-power-loss",
        DegradeCause::DisturbanceStorm => "disturbance-storm",
    }
}

/// The distinct `labels`, in first-seen order.
pub(crate) fn distinct(labels: impl IntoIterator<Item = &'static str>) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for label in labels {
        if !seen.contains(&label) {
            seen.push(label);
        }
    }
    seen
}

/// Renders a figure as an aligned text table with paper-vs-measured summary
/// lines.
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    let id = fig.id;
    let _ = writeln!(out, "=== {:?}: {} ===", id, id.title());
    if let (Some(measured), Some(paper)) = (fig.baseline, id.paper_baseline()) {
        let _ = writeln!(
            out,
            "Baseline: measured {:.0} /s (paper: {:.0} /s)",
            measured, paper
        );
    }
    let _ = writeln!(out, "{:<18} {:>28} {:>14}", "benchmark", "suite", id.unit());
    for r in &fig.rows {
        let _ = writeln!(
            out,
            "{:<18} {:>28} {:>14}",
            r.benchmark,
            r.suite.to_string(),
            format_value(id, r.value)
        );
    }
    let _ = writeln!(
        out,
        "GMEAN: measured {} (paper: {})",
        format_value(id, fig.gmean),
        format_value(id, id.paper_gmean())
    );
    out
}

fn format_value(id: FigureId, v: f64) -> String {
    match id.unit() {
        "refreshes/sec" => format!("{v:.0}"),
        _ => format!("{:.2}%", v * 100.0),
    }
}

/// Renders a figure as CSV (`benchmark,suite,value,paper_gmean`), suitable
/// for replotting with external tools.
pub fn figure_csv(fig: &Figure) -> String {
    let mut out = String::from("benchmark,suite,value,measured_gmean,paper_gmean\n");
    for r in &fig.rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.benchmark,
            r.suite,
            r.value,
            fig.gmean,
            fig.id.paper_gmean()
        );
    }
    out
}

/// Renders a fault campaign as an aligned text table: what each scenario
/// injected, how the system reacted, and whether the expectation held.
pub fn render_campaign(c: &CampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Fault-injection campaign ===");
    let _ = writeln!(
        out,
        "{:<18} {:<22} {:>7} {:>7} {:>6} {:>6} {:>6} {:>9} {:>7}",
        "scenario",
        "expectation",
        "dropped",
        "delayed",
        "degr",
        "late",
        "viol",
        "fallback",
        "holds"
    );
    for o in &c.outcomes {
        let expectation = match o.expectation {
            Expectation::Detection => "detection",
            Expectation::SafeDegradation => "safe-degradation",
            Expectation::DegradedAndDetected => "degraded+detected",
        };
        let _ = writeln!(
            out,
            "{:<18} {:<22} {:>7} {:>7} {:>6} {:>6} {:>6} {:>9} {:>7}",
            o.name,
            expectation,
            o.ctrl.refreshes_dropped,
            o.ctrl.refreshes_delayed,
            o.degradations.len(),
            o.late_restores,
            o.end_violations,
            if o.in_fallback {
                "yes"
            } else if o.recovered {
                "re-armed"
            } else {
                "no"
            },
            if o.holds() { "ok" } else { "FAILED" },
        );
    }
    for o in &c.outcomes {
        let causes = distinct(o.degradations.iter().map(|e| degrade_cause_label(&e.cause)));
        if !o.injected.is_empty() || !causes.is_empty() {
            let _ = writeln!(
                out,
                "  {}: injected [{}]; degradation causes [{}]",
                o.name,
                o.injected.join(", "),
                causes.join(", "),
            );
        }
    }
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.all_hold() {
            "every injected fault was detected or safely degraded"
        } else {
            "SILENT FAILURE — an injection escaped detection"
        }
    );
    out
}

/// Renders the scrub-effectiveness campaign as an aligned table plus the
/// counter-reset savings lines and a verdict.
pub fn render_scrub_campaign(c: &ScrubCampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Scrub-effectiveness campaign ===");
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>5} {:>5} {:>7} {:>7} {:>6} {:>6} {:>7}",
        "scenario", "expectation", "CE", "UE", "scrubs", "forced", "wd", "degr", "holds"
    );
    for o in &c.outcomes {
        let expectation = match o.expectation {
            ScrubExpectation::CorrectsLatentFlips { .. } => "corrects-latent",
            ScrubExpectation::EscalatesUncorrectable => "escalates-ue",
            ScrubExpectation::WatchdogIntervenes => "watchdog-intervenes",
        };
        let _ = writeln!(
            out,
            "{:<16} {:<22} {:>5} {:>5} {:>7} {:>7} {:>6} {:>6} {:>7}",
            o.name,
            expectation,
            o.ctrl.ce_corrected,
            o.ctrl.ue_detected,
            o.ctrl.scrubs_issued,
            o.ctrl.forced_scrubs,
            o.watchdog_violations,
            o.degradations.len(),
            if o.holds() { "ok" } else { "FAILED" },
        );
    }
    let s = &c.savings;
    let _ = writeln!(
        out,
        "Counter reset: {} refreshes without scrub -> {} with ({} scrubs); \
         refresh energy saved {:.3} mJ, scrub energy spent {:.3} mJ, net {:+.3} mJ [{}]",
        s.refreshes_no_scrub,
        s.refreshes_with_scrub,
        s.scrubs,
        s.refresh_j_saved() * 1e3,
        s.scrub_j * 1e3,
        s.net_j() * 1e3,
        if s.holds() { "ok" } else { "FAILED" },
    );
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.all_hold() {
            "every injected error was corrected or safely escalated"
        } else {
            "RECOVERY FAILURE — an error was not corrected or escalated"
        }
    );
    out
}

/// Renders the counter power-state campaign: the three policies side by
/// side, the idle-fraction sweep, and the verdict.
pub fn render_powerdown_campaign(c: &PowerdownCampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Counter power-state campaign ===");
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>8} {:>7} {:>6} {:>12} {:>7} {:>6}",
        "policy", "refreshes", "windows", "wipes", "snaps", "ctr-pwr (uJ)", "decayed", "degr"
    );
    for o in &c.outcomes {
        let _ = writeln!(
            out,
            "{:<20} {:>9} {:>8} {:>7} {:>6} {:>12.3} {:>7} {:>6}",
            o.policy.as_str(),
            o.ctrl.refreshes_issued,
            o.ctrl.powerdown_windows,
            o.ctrl.counters_reset_on_wake,
            o.ctrl.counter_snapshots,
            o.counter_power_j * 1e6,
            o.decayed_rows,
            if o.degraded_by_power_loss {
                "yes"
            } else {
                "no"
            },
        );
    }
    let _ = writeln!(
        out,
        "Idle-fraction sweep (persistent vs conservative-reset):"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>11} {:>9} {:>9} {:>10}",
        "access gap", "idle%", "persistent", "reset", "forfeited", "windows"
    );
    for p in &c.sweep {
        let _ = writeln!(
            out,
            "{:<14} {:>6.1} {:>11} {:>9} {:>9} {:>10}",
            format!("{:.0} us", p.access_gap.as_secs_f64() * 1e6),
            p.idle_fraction * 100.0,
            p.refreshes_persistent,
            p.refreshes_reset,
            p.forfeited_refreshes(),
            p.windows,
        );
    }
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.all_hold() {
            "every counter power-state policy met its contract"
        } else {
            "CONTRACT FAILURE — a policy broke its power-down semantics"
        }
    );
    out
}

/// Renders the co-scheduling campaign: the four setup × load runs side by
/// side, the adaptive-interval endpoints, and the verdict.
pub fn render_coschedule(c: &CoscheduleCampaignResult) -> String {
    let mut out = String::new();
    let covering_us = c.covering_interval.as_secs_f64() * 1e6;
    let _ = writeln!(out, "=== Scrub/refresh co-scheduling campaign ===");
    let _ = writeln!(
        out,
        "covering interval {covering_us:.2} us; weak rows (storm, ch0): {:?}",
        c.weak_rows
    );
    let _ = writeln!(
        out,
        "{:<20} {:>7} {:>7} {:>8} {:>8} {:>7} {:>9} {:>6} {:>6} {:>10} {:>10}",
        "run",
        "scrubs",
        "forced",
        "deferred",
        "closures",
        "missed",
        "CE",
        "UE",
        "decay",
        "interval",
        "scrub mJ"
    );
    let row = |out: &mut String, o: &CoscheduleOutcome| {
        let name = format!(
            "{}-{}",
            match o.setup {
                Setup::Uncoordinated => "uncoordinated",
                Setup::Coscheduled => "coscheduled",
            },
            match o.load {
                Load::Clean => "clean",
                Load::Storm => "storm",
            }
        );
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>7} {:>8} {:>8} {:>7} {:>9} {:>6} {:>6} {:>9.1}x {:>10.4}",
            name,
            o.scrubs.iter().sum::<u64>(),
            o.forced_scrubs,
            o.deferred_scrubs,
            o.closures,
            o.missed_deadlines,
            o.ce_corrected,
            o.ue_detected,
            o.end_violations.len(),
            o.final_interval.as_secs_f64() / c.covering_interval.as_secs_f64(),
            o.scrub_energy.total_j() * 1e3,
        );
    };
    row(&mut out, &c.uncoordinated_clean);
    row(&mut out, &c.coscheduled_clean);
    row(&mut out, &c.uncoordinated_storm);
    row(&mut out, &c.coscheduled_storm);
    for o in [&c.coscheduled_clean, &c.coscheduled_storm] {
        let _ = writeln!(
            out,
            "Forced closures (coscheduled-{}): {} = out-of-slack {} + no-idle-bank {}",
            match o.load {
                Load::Clean => "clean",
                Load::Storm => "storm",
            },
            o.forced_closures,
            o.forced_out_of_slack,
            o.forced_no_idle_bank,
        );
    }
    let _ = writeln!(
        out,
        "Per-channel scrub energy (coscheduled-storm): {}",
        c.coscheduled_storm
            .scrub_energy
            .per_channel_j
            .iter()
            .enumerate()
            .map(|(i, j)| format!("ch{i} {:.4} mJ", j * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.all_hold() {
            "co-scheduling kept every coverage promise, cut page closures, \
             and the interval adapted both ways"
        } else {
            "CO-SCHEDULING FAILURE — a coverage, interference, or adaptation clause failed"
        }
    );
    out
}

/// Renders the hot-channel refresh–access parallelism campaign: the
/// static and DARP runs side by side, the per-capability engagement
/// counters, the forced-closure split, and the verdict.
pub fn render_hotchannel(c: &HotChannelCampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Hot-channel refresh-access parallelism campaign ==="
    );
    let _ = writeln!(
        out,
        "scrub interval {:.2} us; coverage window {:.1} ms of a {:.1} ms horizon",
        c.scrub_interval.as_secs_f64() * 1e6,
        c.coverage_window.as_secs_f64() * 1e3,
        c.horizon.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7} {:>10}",
        "run",
        "reads",
        "avg (ns)",
        "p99 (ns)",
        "closures",
        "deferred",
        "overlaps",
        "skews",
        "missed",
        "refresh mJ"
    );
    let row = |out: &mut String, o: &HotChannelOutcome| {
        let name = match o.setup {
            HotSetup::Static => "static",
            HotSetup::Darp => "darp",
        };
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>9.1} {:>9.1} {:>9} {:>8} {:>8} {:>7} {:>7} {:>10.4}",
            name,
            o.reads,
            o.avg_latency.as_ns_f64(),
            o.p99_latency.as_ns_f64(),
            o.closures,
            o.darp.deferred,
            o.sarp_overlaps,
            o.slot_skews,
            o.missed_deadlines,
            o.refresh_j * 1e3,
        );
    };
    row(&mut out, &c.baseline);
    row(&mut out, &c.darp);
    for o in [&c.baseline, &c.darp] {
        let _ = writeln!(
            out,
            "Forced scrub closures ({}): {} = out-of-slack {} + no-idle-bank {} (deferred {})",
            match o.setup {
                HotSetup::Static => "static",
                HotSetup::Darp => "darp",
            },
            o.forced_closures,
            o.forced_out_of_slack,
            o.forced_no_idle_bank,
            o.deferred_scrubs,
        );
    }
    let _ = writeln!(
        out,
        "DARP engine (darp): deferred {} ooo {} forced {}; SARP surcharge {:.4} mJ",
        c.darp.darp.deferred,
        c.darp.darp.ooo_issued,
        c.darp.darp.forced,
        c.darp.sarp_j * 1e3,
    );
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.darp_wins() {
            "DARP/SARP cut forced page closures and the demand p99 \
             without missing a coverage promise"
        } else {
            "PARALLELISM FAILURE — a closure, latency, coverage, or engagement clause failed"
        }
    );
    out
}

/// Renders the rowhammer attack-vs-defense campaign: the three scenarios
/// side by side, the degradation causes, and the two verdict clauses.
pub fn render_rfm(c: &RfmCampaignResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Rowhammer attack-vs-defense campaign ===");
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>6} {:>7} {:>7} {:>7} {:>6} {:>5} {:>5} {:>9} {:>9}",
        "scenario",
        "acts",
        "rfm",
        "victims",
        "stalls",
        "crossed",
        "flips",
        "CE",
        "UE",
        "rfm (uJ)",
        "level"
    );
    let row = |out: &mut String, o: &RfmOutcome| {
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>6} {:>7} {:>7} {:>7} {:>6} {:>5} {:>5} {:>9.3} {:>9}",
            o.name,
            o.ops.activates,
            o.ctrl.rfm_commands,
            o.ctrl.rfm_row_refreshes,
            o.ctrl.rfm_backpressure_stalls,
            o.hammer_crossings,
            o.bits_flipped,
            o.ctrl.ce_corrected,
            o.ctrl.ue_detected,
            o.rfm_j * 1e6,
            o.final_level.map_or("-", |l| match l {
                smartrefresh_ctrl::RfmLevel::Normal => "normal",
                smartrefresh_ctrl::RfmLevel::Elevated => "elevated",
                smartrefresh_ctrl::RfmLevel::Storm => "storm",
            }),
        );
    };
    row(&mut out, &c.undefended);
    row(&mut out, &c.defended);
    row(&mut out, &c.exhaustion);
    for o in [&c.undefended, &c.defended, &c.exhaustion] {
        let causes = distinct(o.degradations.iter().map(|e| degrade_cause_label(&e.cause)));
        if !causes.is_empty() {
            let _ = writeln!(
                out,
                "  {}: degradation causes [{}]{}",
                o.name,
                causes.join(", "),
                if o.in_fallback { "; in fallback" } else { "" },
            );
        }
    }
    let _ = writeln!(
        out,
        "Defense: {} UE rows undefended vs {} defended ({} RFM commands, {:.3} uJ) [{}]",
        c.undefended.ctrl.ue_detected,
        c.defended.ctrl.ue_detected,
        c.defended.ctrl.rfm_commands,
        c.defended.rfm_j * 1e6,
        if c.defense_holds() { "ok" } else { "FAILED" },
    );
    let _ = writeln!(
        out,
        "Exhaustion: {} starved windows, {} storms, disturbance-storm fallback {} [{}]",
        c.exhaustion.rfm_stats.starved_windows,
        c.exhaustion.rfm_stats.storms_entered,
        if c.exhaustion.stormed() {
            "logged"
        } else {
            "MISSING"
        },
        if c.exhaustion_holds() { "ok" } else { "FAILED" },
    );
    let _ = writeln!(
        out,
        "Campaign verdict: {}",
        if c.all_hold() {
            "the defense held and budget exhaustion degraded gracefully"
        } else {
            "DEFENSE FAILURE — a rowhammer clause did not hold"
        }
    );
    out
}

/// Renders a one-line summary of a run (`smart-refresh run` and `replay`).
pub fn render_run(r: &RunResult) -> String {
    format!(
        "{:<16} {:<9} refreshes/s {:>12.0} | energy {:>9.3} mJ (refresh {:>8.3} mJ) | \
         avg lat {:>7.1} ns | qhw {} | integrity {}",
        r.workload,
        r.policy,
        r.refreshes_per_sec,
        r.energy.total_j() * 1e3,
        r.energy.refresh_mechanism_j() * 1e3,
        r.ctrl.avg_latency().as_ns_f64(),
        r.queue_high_water,
        if r.integrity_ok { "ok" } else { "VIOLATED" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigureRow;
    use smartrefresh_workloads::Suite;

    #[test]
    fn rendering_includes_paper_reference() {
        let fig = Figure {
            id: FigureId::Fig07,
            rows: vec![FigureRow {
                benchmark: "gcc",
                suite: Suite::SpecInt2000,
                value: 0.25,
            }],
            gmean: 0.25,
            baseline: None,
        };
        let s = render_figure(&fig);
        assert!(s.contains("gcc"));
        assert!(s.contains("25.00%"));
        assert!(s.contains("paper: 52.57%"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let fig = Figure {
            id: FigureId::Fig07,
            rows: vec![FigureRow {
                benchmark: "gcc",
                suite: Suite::SpecInt2000,
                value: 0.25,
            }],
            gmean: 0.25,
            baseline: None,
        };
        let csv = figure_csv(&fig);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "benchmark,suite,value,measured_gmean,paper_gmean"
        );
        assert!(lines.next().unwrap().starts_with("gcc,SPECint2000,0.25"));
    }

    #[test]
    fn powerdown_rendering_names_every_policy() {
        use crate::powerdown::{IdleSweepPoint, PowerdownOutcome};
        use smartrefresh_core::CounterPowerPolicy;
        use smartrefresh_dram::time::Duration;
        let outcome = |policy, refreshes, wipes, degraded| PowerdownOutcome {
            policy,
            ctrl: smartrefresh_ctrl::ControllerStats {
                refreshes_issued: refreshes,
                powerdown_windows: 10,
                powerdown_time: Duration::from_us(900),
                counters_reset_on_wake: wipes,
                ..Default::default()
            },
            counter_power_j: 1.0e-9,
            decayed_rows: 0,
            degraded_by_power_loss: degraded,
        };
        let c = PowerdownCampaignResult {
            outcomes: vec![
                outcome(CounterPowerPolicy::Persistent, 100, 0, false),
                outcome(CounterPowerPolicy::ConservativeReset, 130, 40, true),
                outcome(CounterPowerPolicy::Snapshot, 100, 0, false),
            ],
            sweep: vec![IdleSweepPoint {
                access_gap: Duration::from_us(200),
                idle_fraction: 0.9,
                refreshes_persistent: 100,
                refreshes_reset: 130,
                windows: 10,
            }],
        };
        let s = render_powerdown_campaign(&c);
        assert!(s.contains("persistent"));
        assert!(s.contains("conservative-reset"));
        assert!(s.contains("snapshot"));
        assert!(s.contains("200 us"));
    }

    #[test]
    fn rate_figures_format_as_counts() {
        let fig = Figure {
            id: FigureId::Fig06,
            rows: vec![FigureRow {
                benchmark: "radix",
                suite: Suite::Splash2,
                value: 400_000.0,
            }],
            gmean: 400_000.0,
            baseline: Some(2_048_000.0),
        };
        let s = render_figure(&fig);
        assert!(s.contains("400000"));
        assert!(s.contains("2048000"));
    }
}
