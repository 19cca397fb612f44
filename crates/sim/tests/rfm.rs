//! Regression tests for the rowhammer attack-vs-defense campaign: the
//! ≥10× UE reduction the RFM engine must deliver against the double-sided
//! attack, the graceful disturbance-storm degradation under budget
//! exhaustion, and seed determinism of the whole harness.

use smartrefresh_core::DegradeCause;
use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::report::render_rfm;
use smartrefresh_sim::rfm::{
    rfm_threshold_sweep, run_rfm_campaign, RfmCampaignConfig, RfmCampaignResult,
};

fn campaign(seed: u64) -> RfmCampaignResult {
    run_rfm_campaign(&RfmCampaignConfig::quick(seed)).expect("campaign must not error")
}

/// The headline defense claim: against the same double-sided hammer, RFM
/// cuts uncorrectable rows at least 10× — and the undefended run really
/// was corrupted, so the comparison is not vacuous.
#[test]
fn rfm_cuts_double_sided_ues_ten_fold() {
    let c = campaign(0xfa17_0002);
    assert!(
        c.undefended.ctrl.ue_detected >= 1,
        "the undefended attack must corrupt at least one row, got {}",
        c.undefended.ctrl.ue_detected
    );
    assert!(
        c.defended.ctrl.ue_detected * 10 <= c.undefended.ctrl.ue_detected,
        "defense too weak: {} UEs defended vs {} undefended",
        c.defended.ctrl.ue_detected,
        c.undefended.ctrl.ue_detected
    );
    assert!(c.defense_holds());
}

/// The defense is charged honestly: victim refreshes cost RFM commands
/// and energy the undefended run never pays.
#[test]
fn defense_pays_for_itself_in_rfm_energy() {
    let c = campaign(0xfa17_0003);
    assert!(c.defended.ctrl.rfm_commands > 0);
    assert!(c.defended.ctrl.rfm_row_refreshes >= c.defended.ctrl.rfm_commands);
    assert!(c.defended.rfm_j > 0.0);
    assert_eq!(c.undefended.ctrl.rfm_commands, 0);
    assert_eq!(c.undefended.rfm_j, 0.0);
}

/// Budget exhaustion degrades gracefully: the starved engine accumulates
/// starved windows (the elevated-rate rung), enters a storm, and the
/// policy logs a `DisturbanceStorm` fallback — the run completes without
/// panicking or erroring.
#[test]
fn budget_exhaustion_storms_into_cbr_fallback() {
    let c = campaign(0xfa17_0004);
    let e = &c.exhaustion;
    assert!(
        e.rfm_stats.starved_windows >= 2,
        "starved windows: {:?}",
        e.rfm_stats
    );
    assert!(e.rfm_stats.storms_entered >= 1);
    assert!(
        e.degradations
            .iter()
            .any(|d| d.cause == DegradeCause::DisturbanceStorm),
        "degradations: {:?}",
        e.degradations
    );
    assert!(
        e.ctrl.rfm_backpressure_stalls > 0,
        "RAAMMT must back-pressure the starved attack"
    );
    assert!(c.exhaustion_holds());
    assert!(c.all_hold());
}

/// The whole campaign is a pure function of its seed.
#[test]
fn campaign_is_seed_deterministic() {
    let a = campaign(0xfa17_0005);
    let b = campaign(0xfa17_0005);
    for (x, y) in [
        (&a.undefended, &b.undefended),
        (&a.defended, &b.defended),
        (&a.exhaustion, &b.exhaustion),
    ] {
        assert_eq!(x.ctrl, y.ctrl);
        assert_eq!(x.ops, y.ops);
        assert_eq!(x.hammer_crossings, y.hammer_crossings);
        assert_eq!(x.bits_flipped, y.bits_flipped);
        assert_eq!(x.degradations.len(), y.degradations.len());
        assert_eq!(x.rfm_stats, y.rfm_stats);
    }
    assert_eq!(render_rfm(&a), render_rfm(&b));
    assert_eq!(report_digest(&render_rfm(&a)), 0xac6e_d126_a7df_60a3);
}

/// FNV-1a digest of a rendered campaign report, pinned so any change to
/// the report text (a digit, a label, a line) fails the test.
fn report_digest(text: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(text);
    d.finish()
}

/// The RAAIMT sweep exposes the protection-vs-energy tradeoff: the
/// tightest threshold spends the most RFM commands, and a threshold
/// looser than the flip point stops protecting.
#[test]
fn threshold_sweep_trades_energy_for_protection() {
    let cfg = RfmCampaignConfig::quick(0xfa17_0006);
    let points = rfm_threshold_sweep(&cfg, &[16, 32, 128]).unwrap();
    let raaimts: Vec<u32> = points.iter().map(|(r, _)| *r).collect();
    assert_eq!(raaimts, [16, 32, 128]);
    let [tight, mid, loose] = [0, 1, 2].map(|i| points[i].1.ctrl);
    assert!(
        tight.rfm_commands > loose.rfm_commands,
        "tighter RAAIMT must spend more RFMs: {tight:?} vs {loose:?}"
    );
    assert!(
        tight.ue_detected <= loose.ue_detected,
        "tighter RAAIMT must not protect less: {tight:?} vs {loose:?}"
    );
    // At RAAIMT 32 against the threshold-64 flip point the defense holds
    // outright.
    assert_eq!(mid.ue_detected, 0, "{mid:?}");
}
