//! Regression tests for the hot-channel refresh–access parallelism
//! campaign: the DARP/SARP verdict with its forced-closure split pinned,
//! the livelock regression (pinned pages on every bank must never cost a
//! coverage promise), and thread-count determinism of the whole report.

use smartrefresh_sim::digest::Digest64;
use smartrefresh_sim::hotchannel::{
    run_hot_channel_campaign_threaded, run_hot_channel_setup, HotChannelConfig, HotSetup,
};
use smartrefresh_sim::report::render_hotchannel;

fn cfg() -> HotChannelConfig {
    HotChannelConfig::quick(0xDA59)
}

/// The PR's acceptance bar, plus the detailed counter shape behind it:
/// DARP strictly cuts both forced page closures and the demand p99, every
/// capability demonstrably engaged, and the forced-closure split sums to
/// the legacy counter on both runs.
#[test]
fn darp_beats_the_static_schedule_on_the_hot_channel() {
    let r = run_hot_channel_campaign_threaded(&cfg(), 2).unwrap();
    assert!(r.darp_wins(), "campaign verdict failed");

    // Same demand stream on both sides.
    assert_eq!(r.baseline.reads, r.darp.reads);
    assert!(r.baseline.reads > 0);

    // The headline clauses, individually.
    assert!(r.darp.closures < r.baseline.closures);
    assert!(r.darp.p99_latency < r.baseline.p99_latency);
    assert!(r.darp.avg_latency <= r.baseline.avg_latency);

    // The static run has none of the capabilities engaged...
    assert_eq!(r.baseline.darp.deferred, 0);
    assert_eq!(r.baseline.sarp_overlaps, 0);
    assert_eq!(r.baseline.slot_skews, 0);
    assert_eq!(r.baseline.sarp_j, 0.0);
    // ...while the darp run exercises all three.
    assert!(r.darp.darp.deferred > 0);
    assert!(r.darp.sarp_overlaps > 0);
    assert!(r.darp.slot_skews > 0);
    assert!(r.darp.sarp_j > 0.0);

    // Honest forced-closure accounting: the split sums to the legacy
    // counter on both runs, and the pinned-pages load engages the
    // no-idle-bank arm (not the out-of-slack one — slack never runs out
    // because the schedule keeps up).
    for o in [&r.baseline, &r.darp] {
        assert_eq!(
            o.forced_closures,
            o.forced_out_of_slack + o.forced_no_idle_bank
        );
        assert!(o.forced_no_idle_bank > 0);
        assert_eq!(o.forced_out_of_slack, 0);
    }
}

/// The livelock regression: demand pins a hot page open on every bank of
/// channel 0, so a scheduler that kept deferring blocked scrub victims
/// would quietly let coverage promises lapse. The coverage window binds
/// inside the horizon by construction (promises are real, not vacuous),
/// and the `forced_no_idle_bank` arm is what keeps every one of them.
#[test]
fn pinned_pages_on_every_bank_never_cost_a_coverage_promise() {
    let c = cfg();
    let window = c.scrub_interval() * c.module.geometry.total_rows() * 2;
    assert!(
        window < c.horizon(),
        "coverage window must close before the horizon for the promises to bind"
    );
    for setup in [HotSetup::Static, HotSetup::Darp] {
        let o = run_hot_channel_setup(&c, setup).unwrap();
        assert_eq!(o.missed_deadlines, 0, "{setup:?} missed a coverage promise");
        assert!(
            o.forced_no_idle_bank > 0,
            "{setup:?} never hit the no-idle-bank arm — the load is not the livelock candidate"
        );
        assert!(o.end_violations.is_empty(), "{setup:?} decayed rows");
        // Scrubs keep walking on both channels, pinned pages or not.
        assert!(o.scrubs.iter().all(|&s| s > 0));
    }
}

/// The rendered campaign report is bit-identical at 1, 2, and 4 worker
/// threads: the two setups shard across workers and merge in a fixed
/// order, so parallelism never changes a digit.
#[test]
fn campaign_report_is_identical_across_thread_counts() {
    let c = cfg();
    let reference = render_hotchannel(&run_hot_channel_campaign_threaded(&c, 1).unwrap());
    for threads in [2usize, 4] {
        let got = render_hotchannel(&run_hot_channel_campaign_threaded(&c, threads).unwrap());
        assert_eq!(got, reference, "report differs at {threads} threads");
    }
    assert_eq!(report_digest(&reference), 0x6828_0fc4_eec3_872f);
}

/// FNV-1a digest of a rendered campaign report, pinned so any change to
/// the report text (a digit, a label, a line) fails the test.
fn report_digest(text: &str) -> u64 {
    let mut d = Digest64::new();
    d.update_str(text);
    d.finish()
}
