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
        c.undefended.ue_detected >= 1,
        "the undefended attack must corrupt at least one row, got {}",
        c.undefended.ue_detected
    );
    assert!(
        c.defended.ue_detected * 10 <= c.undefended.ue_detected,
        "defense too weak: {} UEs defended vs {} undefended",
        c.defended.ue_detected,
        c.undefended.ue_detected
    );
    assert!(c.defense_holds());
}

/// The defense is charged honestly: victim refreshes cost RFM commands
/// and energy the undefended run never pays.
#[test]
fn defense_pays_for_itself_in_rfm_energy() {
    let c = campaign(0xfa17_0003);
    assert!(c.defended.rfm_commands > 0);
    assert!(c.defended.rfm_row_refreshes >= c.defended.rfm_commands);
    assert!(c.defended.rfm_j > 0.0);
    assert_eq!(c.undefended.rfm_commands, 0);
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
        e.backpressure_stalls > 0,
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
        assert_eq!(x.acts, y.acts);
        assert_eq!(x.rfm_commands, y.rfm_commands);
        assert_eq!(x.rfm_row_refreshes, y.rfm_row_refreshes);
        assert_eq!(x.backpressure_stalls, y.backpressure_stalls);
        assert_eq!(x.hammer_crossings, y.hammer_crossings);
        assert_eq!(x.bits_flipped, y.bits_flipped);
        assert_eq!(x.ce_corrected, y.ce_corrected);
        assert_eq!(x.ue_detected, y.ue_detected);
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
    assert_eq!(points.len(), 3);
    assert!(
        points[0].rfm_commands > points[2].rfm_commands,
        "tighter RAAIMT must spend more RFMs: {:?}",
        points
    );
    assert!(
        points[0].ue_detected <= points[2].ue_detected,
        "tighter RAAIMT must not protect less: {:?}",
        points
    );
    // At RAAIMT 32 against the threshold-64 flip point the defense holds
    // outright.
    assert_eq!(points[1].ue_detected, 0, "{:?}", points[1]);
}
