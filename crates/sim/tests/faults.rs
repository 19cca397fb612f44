//! Regression tests for the fault-injection campaign: the §5 overflow →
//! CBR degradation path, retention-tracker detection of injected refresh
//! losses, and determinism of the whole harness.

use smartrefresh_core::DegradeCause;
use smartrefresh_dram::time::Duration;
use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::faults::{
    run_campaign, run_scenario, standard_campaign, CampaignConfig, Expectation,
};
use smartrefresh_sim::report::render_campaign;

fn cfg() -> CampaignConfig {
    CampaignConfig::quick(0xfa17_0001)
}

fn scenario_named(name: &str) -> smartrefresh_sim::faults::FaultScenario {
    let cfg = cfg();
    standard_campaign(&cfg.module, cfg.seed)
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario exists")
}

/// A forced §5 queue overflow degrades to the phase-preserving CBR sweep
/// with zero retention violations: the spilled refreshes are preserved, so
/// degradation is graceful, not lossy.
#[test]
fn queue_overflow_degrades_to_cbr_without_violations() {
    let o = run_scenario(&cfg(), &scenario_named("queue-undersized")).unwrap();
    assert!(
        o.degradations
            .iter()
            .any(|e| e.cause == DegradeCause::QueueOverflow),
        "overflow must log a QueueOverflow degradation"
    );
    assert_eq!(o.end_violations, 0, "no row may decay");
    assert_eq!(o.late_restores, 0, "no refresh may be meaningfully late");
    assert!(o.holds());
}

/// An injected dropped refresh is flagged by the RetentionTracker — the
/// starved row shows up as a late restore or an end-of-run violation, and
/// the perturbation is attributed via a FaultInjection degradation event.
#[test]
fn dropped_refresh_is_detected_by_the_tracker() {
    let o = run_scenario(&cfg(), &scenario_named("dropped-refresh")).unwrap();
    assert!(
        o.ctrl.refreshes_dropped >= 1,
        "the fault must actually fire"
    );
    assert_eq!(o.ctrl.refreshes_dropped, o.faults.refreshes_dropped);
    assert!(
        o.undetected_sites.is_empty(),
        "silent escape: {:?}",
        o.undetected_sites
    );
    assert!(o.late_restores + o.end_violations > 0);
    assert!(o
        .degradations
        .iter()
        .any(|e| e.cause == DegradeCause::FaultInjection));
    assert!(o.holds());
}

/// A dispatch stall both degrades the engine (queue pressure) and produces
/// detectable lateness, and the fallback sweep recovers before the end of
/// the run (no standing violations).
#[test]
fn dispatch_stall_degrades_and_is_detected() {
    let o = run_scenario(&cfg(), &scenario_named("dispatch-stall")).unwrap();
    assert!(o.faults.dispatches_stalled >= 1);
    assert!(!o.degradations.is_empty());
    assert!(o.late_restores > 0, "a multi-ms stall must be visible");
    assert_eq!(o.end_violations, 0, "the sweep must catch back up");
    assert_eq!(o.expectation, Expectation::DegradedAndDetected);
    assert!(o.holds());
}

/// The full standard campaign holds: every injected fault is detected or
/// safely degraded — the headline robustness claim.
#[test]
fn standard_campaign_all_scenarios_hold() {
    let result = run_campaign(&cfg()).unwrap();
    assert_eq!(result.outcomes.len(), 7);
    for o in &result.outcomes {
        assert!(o.holds(), "scenario {} failed: {o:?}", o.name);
    }
    assert!(result.all_hold());
}

/// The campaign is deterministic: same seed, same outcome, field for field.
#[test]
fn campaign_is_deterministic_for_a_fixed_seed() {
    let a = run_campaign(&cfg()).unwrap();
    let b = run_campaign(&cfg()).unwrap();
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.faults, y.faults);
        assert_eq!(x.ctrl, y.ctrl);
        assert_eq!(x.degradations, y.degradations);
        assert_eq!(x.late_restores, y.late_restores);
        assert_eq!(x.end_violations, y.end_violations);
    }
    assert_eq!(render_campaign(&a), render_campaign(&b));
    assert_eq!(report_digest(&render_campaign(&a)), 0x194e_6106_f28c_b2b0);
}

/// FNV-1a digest of a rendered campaign report, pinned so any change to
/// the report text (a digit, a label, a line) fails the test.
fn report_digest(text: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(text);
    d.finish()
}

/// A fault-free run under the same harness shows neither degradation nor
/// significant lateness — the campaign's signals come from the faults, not
/// from the harness itself.
#[test]
fn fault_free_baseline_is_clean() {
    use smartrefresh_faults::FaultInjector;
    let clean = smartrefresh_sim::faults::FaultScenario {
        name: "clean",
        injector: FaultInjector::new(),
        queue_capacity: 8,
        expectation: Expectation::SafeDegradation,
    };
    let o = run_scenario(&cfg(), &clean).unwrap();
    assert!(o.degradations.is_empty());
    assert_eq!(o.late_restores, 0);
    assert_eq!(o.end_violations, 0);
}

/// The guard band matters and is honest: with a zero guard the benign
/// command-serialization overshoot (~100 ns at the sweep tail) shows up,
/// which is exactly what the guard is documented to exclude.
#[test]
fn guard_band_excludes_only_serialization_jitter() {
    use smartrefresh_faults::FaultInjector;
    let mut zero_guard = cfg();
    zero_guard.guard = Duration::ZERO;
    let clean = smartrefresh_sim::faults::FaultScenario {
        name: "clean",
        injector: FaultInjector::new(),
        queue_capacity: 8,
        expectation: Expectation::SafeDegradation,
    };
    let strict = run_scenario(&zero_guard, &clean).unwrap();
    let guarded = run_scenario(&cfg(), &clean).unwrap();
    assert!(strict.late_restores > 0, "jitter exists");
    assert_eq!(guarded.late_restores, 0, "and the guard hides only it");
    assert_eq!(strict.end_violations, 0);
}
