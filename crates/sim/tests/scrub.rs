//! Regression tests for the scrub-effectiveness campaign: latent-flip
//! correction by the patrol walk, UE escalation, the watchdog storm, the
//! counter-reset refresh displacement, and determinism.

use smartrefresh_core::DegradeCause;
use smartrefresh_energy::DramPowerParams;
use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::report::render_scrub_campaign;
use smartrefresh_sim::scrub::{
    run_scrub_campaign, run_scrub_scenario, scrub_savings, standard_scrub_campaign, ScrubScenario,
};
use smartrefresh_sim::CampaignConfig;

fn cfg() -> CampaignConfig {
    CampaignConfig::quick(0x5c2b_0001)
}

fn scenario_named(name: &str) -> ScrubScenario {
    standard_scrub_campaign(&cfg())
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario exists")
}

/// Latent single-bit flips on rows no demand access touches are corrected
/// by the patrol walk alone — one CE per flipped row, zero UEs.
#[test]
fn patrol_walk_corrects_latent_flips() {
    let o = run_scrub_scenario(&cfg(), &scenario_named("latent-flips")).unwrap();
    assert!(o.ctrl.scrubs_issued > 0, "the walk must actually run");
    assert!(o.ctrl.ce_corrected >= 3, "one CE per injected flip: {o:?}");
    assert_eq!(o.ctrl.ue_detected, 0);
    assert!(o.holds());
}

/// A forced double-bit flip is detected as uncorrectable by the patrol
/// scrub, escalates through the CBR degradation path, and the run still
/// completes (no demand read consumed the poisoned data).
#[test]
fn double_flip_escalates_to_degradation() {
    let o = run_scrub_scenario(&cfg(), &scenario_named("double-flip-ue")).unwrap();
    assert_eq!(o.ctrl.ue_detected, 1, "one poisoned row, one UE: {o:?}");
    assert!(o
        .degradations
        .iter()
        .any(|e| e.cause == DegradeCause::EccUncorrectable));
    assert!(o.holds());
}

/// A weak row hammered into a CE storm trips the retention watchdog:
/// forced scrubs fire and the policy degrades via `RetentionWatchdog`,
/// while the storm stays in the correctable regime (no UE).
#[test]
fn ce_storm_trips_the_watchdog() {
    let o = run_scrub_scenario(&cfg(), &scenario_named("watchdog-storm")).unwrap();
    assert!(
        o.ctrl.ce_corrected >= 2,
        "the storm must produce CEs: {o:?}"
    );
    assert!(o.ctrl.forced_scrubs >= 1, "the watchdog must force a scrub");
    assert!(o.watchdog_violations >= 1);
    assert!(o
        .degradations
        .iter()
        .any(|e| e.cause == DegradeCause::RetentionWatchdog));
    assert_eq!(o.ctrl.ue_detected, 0);
    assert!(o.holds());
}

/// The counter-reset rule pays off: with the scrubber on, Smart Refresh
/// issues markedly fewer refreshes because each scrub resets the scrubbed
/// row's time-out counter, and the displaced refresh energy is the same
/// order as the scrub energy spent — scrubbing rides nearly free.
#[test]
fn scrubbing_displaces_refreshes() {
    let s = scrub_savings(&cfg(), &DramPowerParams::ddr2_2gb()).unwrap();
    assert!(s.scrubs > 0);
    assert!(
        s.refreshes_with_scrub < s.refreshes_no_scrub / 2,
        "a covering scrub should displace most refreshes: {s:?}"
    );
    assert!(s.refresh_j_saved() > 0.0);
    // Net cost stays within the same order as what was saved: the scrub is
    // not free (it also walks rows demand traffic kept fresh) but close.
    assert!(s.net_j().abs() < s.refresh_j_no_scrub);
    assert!(s.holds());
}

/// The whole campaign holds and is deterministic for a fixed seed.
#[test]
fn scrub_campaign_holds_and_is_deterministic() {
    let a = run_scrub_campaign(&cfg()).unwrap();
    assert_eq!(a.outcomes.len(), 3);
    assert!(a.all_hold(), "campaign failed: {:?}", a.outcomes);
    let b = run_scrub_campaign(&cfg()).unwrap();
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.ctrl, y.ctrl);
        assert_eq!(x.degradations, y.degradations);
    }
    assert_eq!(
        a.savings.refreshes_with_scrub,
        b.savings.refreshes_with_scrub
    );
    assert_eq!(a.savings.refreshes_no_scrub, b.savings.refreshes_no_scrub);
    assert_eq!(render_scrub_campaign(&a), render_scrub_campaign(&b));
    assert_eq!(
        report_digest(&render_scrub_campaign(&a)),
        0x4dd7_429e_59d6_96b8
    );
}

/// FNV-1a digest of a rendered campaign report, pinned so any change to
/// the report text (a digit, a label, a line) fails the test.
fn report_digest(text: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(text);
    d.finish()
}
