//! Bit-identity pin for the maintenance campaigns, the only runs of
//! `MaintenanceScheduler`: the digest of the hot-channel and
//! co-scheduling reports moves if the scheduler's victim choice, coverage
//! promises or adaptive interval law change in any way. The shape is the
//! repository benchmark's `maintenance` workload at seed 1 (each `quick`
//! preset with twice the epochs). The value was recorded before the
//! scheduler moved onto the shared deadline tree.

use smart_refresh::sim::report::{render_coschedule, render_hotchannel};
use smart_refresh::sim::{
    run_coschedule_campaign_threaded, run_hot_channel_campaign_threaded, CoscheduleConfig,
    Digest64, HotChannelConfig,
};

const PINNED: u64 = 0xa356_0f9a_c5bb_cf8b;

#[test]
fn maintenance_reports_are_pinned() {
    let mut hot = HotChannelConfig::quick(1);
    hot.epochs *= 2;
    let mut co = CoscheduleConfig::quick(1);
    co.epochs *= 2;
    let hr = run_hot_channel_campaign_threaded(&hot, 2).expect("hot-channel campaign runs");
    let cr = run_coschedule_campaign_threaded(&co, 2).expect("co-scheduling campaign runs");
    let mut d = Digest64::new();
    d.update_str(&render_hotchannel(&hr));
    d.update_str(&render_coschedule(&cr));
    let d = d.finish();
    assert_eq!(d, PINNED, "maintenance report digest {d:#018x}");
}
