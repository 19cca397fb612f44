//! Regression tests for the co-scheduling campaign: the channel
//! interleave's bijection property, the fallible system constructor, the
//! adaptive interval's storm convergence, and the campaign verdict.

use smartrefresh_ctrl::SimError;
use smartrefresh_dram::configs::conventional_2gb;
use smartrefresh_dram::rng::Rng;
use smartrefresh_sim::coschedule::{
    run_coschedule_campaign_threaded, run_coschedule_setup, CoscheduleConfig, Load, Setup,
};
use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::report::render_coschedule;
use smartrefresh_sim::system::MultiChannelSystem;
use smartrefresh_sim::PolicyKind;

fn cfg() -> CoscheduleConfig {
    CoscheduleConfig::quick(0xC05C)
}

/// Channel address interleaving is a bijection: `route` and `global_addr`
/// are exact inverses for every channel count and power-of-two interleave
/// tried, over both dense low addresses and random high ones.
#[test]
fn channel_interleave_is_a_bijection() {
    let mut rng = Rng::seed_from_u64(0xB17E_C710);
    for channels in [1u32, 2, 3, 4, 8] {
        for interleave in [64u64, 4096, 1 << 20] {
            let sys = MultiChannelSystem::new(conventional_2gb(), channels, interleave, || {
                PolicyKind::CbrDistributed
            })
            .unwrap();
            // Dense low range: every address round-trips, and no two
            // addresses share a (channel, local) home.
            let mut seen = std::collections::BTreeSet::new();
            for addr in 0..4096u64 {
                let (c, local) = sys.route(addr);
                assert!(c < channels as usize);
                assert!(seen.insert((c, local)), "collision at {addr}");
                assert_eq!(sys.global_addr(c, local), addr);
            }
            // Random high addresses round-trip too.
            for _ in 0..512 {
                let addr = rng.gen_range(0..u64::MAX / 2);
                let (c, local) = sys.route(addr);
                assert_eq!(sys.global_addr(c, local), addr);
            }
            // And the inverse direction: per-channel dense local spaces
            // map to distinct globals that route home again.
            for c in 0..channels as usize {
                for block in 0..64u64 {
                    let local = block * interleave + block % interleave;
                    let global = sys.global_addr(c, local);
                    assert_eq!(sys.route(global), (c, local));
                }
            }
        }
    }
}

/// Invalid constructions are reported as [`SimError::Config`], not panics.
#[test]
fn bad_system_configs_are_errors() {
    for (channels, interleave) in [(0u32, 4096u64), (2, 0), (2, 3000), (4, 4097)] {
        match MultiChannelSystem::new(conventional_2gb(), channels, interleave, || {
            PolicyKind::CbrDistributed
        }) {
            Err(SimError::Config { .. }) => {}
            other => panic!("({channels}, {interleave}) gave {other:?}"),
        }
    }
}

/// Under an injected fault storm the adaptive law converges the scrub
/// interval from its idle ceiling down to the covering rate's
/// neighbourhood, without missing a coverage deadline on the way down.
#[test]
fn adaptive_interval_converges_under_fault_storm() {
    let cfg = cfg();
    let covering = cfg.covering().interval;
    let o = run_coschedule_setup(&cfg, Setup::Coscheduled, Load::Storm).unwrap();
    assert!(
        o.final_interval <= covering * 2,
        "storm left the interval at {:?} (covering {:?})",
        o.final_interval,
        covering
    );
    assert!(
        o.interval_drops >= 3,
        "16x to <=2x needs at least 3 halvings"
    );
    assert_eq!(o.missed_deadlines, 0);
    assert!(o.ce_corrected > 0, "the storm must actually produce CEs");
    assert_eq!(
        o.ue_detected, 0,
        "the storm stays in the correctable regime"
    );
    // Decay at the horizon, if any, is confined to the injected weak rows.
    for (channel, flat) in &o.end_violations {
        assert_eq!(*channel, 0);
        assert!(
            cfg.weak_rows().contains(flat),
            "unexpected decay on row {flat}"
        );
    }
}

/// The clean run slow-walks the interval to at least 4x covering and the
/// scheduler's row-buffer preference closes strictly fewer open pages
/// than uncoordinated per-channel scrubbing.
#[test]
fn clean_run_slows_down_and_cuts_page_closures() {
    let cfg = cfg();
    let covering = cfg.covering().interval;
    let uncoord = run_coschedule_setup(&cfg, Setup::Uncoordinated, Load::Clean).unwrap();
    let cosched = run_coschedule_setup(&cfg, Setup::Coscheduled, Load::Clean).unwrap();
    assert!(cosched.final_interval >= covering * 4);
    assert!(cosched.closures < uncoord.closures);
    assert_eq!(cosched.missed_deadlines, 0);
    assert!(
        cosched.deferred_scrubs > 0,
        "the preference must actually engage"
    );
    // The forced-closure accounting is honest: the two causes are counted
    // apart and the legacy counter is exactly their sum.
    assert_eq!(
        cosched.forced_closures,
        cosched.forced_out_of_slack + cosched.forced_no_idle_bank,
        "forced_closures must stay the sum of its split components"
    );
    assert!(cosched.end_violations.is_empty());
    assert!(uncoord.end_violations.is_empty());
    // The slowdown shows up in the energy attribution too.
    assert!(cosched.scrub_energy.total_j() < uncoord.scrub_energy.total_j());
}

/// The full four-run campaign verdict, plus determinism: the same seed
/// reproduces the same counters.
#[test]
fn campaign_holds_and_is_deterministic() {
    let a = run_coschedule_campaign_threaded(&cfg(), 2).unwrap();
    assert!(a.all_hold(), "campaign failed: {a:#?}");
    let b = run_coschedule_campaign_threaded(&cfg(), 2).unwrap();
    assert_eq!(a.coscheduled_clean.scrubs, b.coscheduled_clean.scrubs);
    assert_eq!(
        a.coscheduled_storm.ce_corrected,
        b.coscheduled_storm.ce_corrected
    );
    assert_eq!(
        a.coscheduled_storm.final_interval,
        b.coscheduled_storm.final_interval
    );
    assert_eq!(
        a.uncoordinated_clean.closures,
        b.uncoordinated_clean.closures
    );
    // Pin the split forced-closure counters across the whole campaign.
    for (x, y) in [
        (&a.coscheduled_clean, &b.coscheduled_clean),
        (&a.coscheduled_storm, &b.coscheduled_storm),
    ] {
        assert_eq!(x.forced_out_of_slack, y.forced_out_of_slack);
        assert_eq!(x.forced_no_idle_bank, y.forced_no_idle_bank);
        assert_eq!(
            x.forced_closures,
            x.forced_out_of_slack + x.forced_no_idle_bank
        );
    }
    assert_eq!(render_coschedule(&a), render_coschedule(&b));
    assert_eq!(report_digest(&render_coschedule(&a)), 0x0269_b76c_189a_9e3c);
}

/// FNV-1a digest of a rendered campaign report, pinned so any change to
/// the report text (a digit, a label, a line) fails the test.
fn report_digest(text: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(text);
    d.finish()
}
