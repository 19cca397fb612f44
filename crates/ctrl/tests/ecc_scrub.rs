//! End-to-end properties of the ECC + patrol-scrub + watchdog path
//! (seeded, in-repo PRNG — the build stays hermetic).

use smartrefresh_core::{DegradeCause, RefreshPolicy, SmartRefresh, SmartRefreshConfig};
use smartrefresh_ctrl::{
    EccConfig, MemTransaction, MemoryController, ScrubConfig, SimError, WatchdogConfig,
};
use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{DramDevice, Geometry, TimingParams};
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};

fn geometry() -> Geometry {
    Geometry::new(1, 2, 32, 16, 64)
}

fn smart_config() -> SmartRefreshConfig {
    SmartRefreshConfig {
        counter_bits: 3,
        segments: 4,
        queue_capacity: 8,
        hysteresis: None,
    }
}

fn controller() -> MemoryController<SmartRefresh> {
    let g = geometry();
    let t = TimingParams::ddr2_667();
    MemoryController::new(
        DramDevice::new(g, t),
        SmartRefresh::new(g, t.retention, smart_config()),
    )
}

fn ms(n: u64) -> Instant {
    Instant::ZERO + Duration::from_ms(n)
}

/// Property: with no injected flips, scrub-then-read never reports a CE —
/// the scrubber must not invent errors.
#[test]
fn scrub_then_read_reports_no_ce_without_faults() {
    let g = geometry();
    let retention = TimingParams::ddr2_667().retention;
    let mut mc = controller().with_ecc(
        EccConfig::new(0xabc).with_scrub(ScrubConfig::covering(retention, g.total_rows())),
    );
    let mut rng = Rng::seed_from_u64(0x5c4b_0001);
    let mut at = Instant::ZERO;
    for _ in 0..500 {
        at += Duration::from_us(300);
        let row = rng.gen_range(0..g.rows() as u64);
        let bank = rng.gen_range(0..u64::from(g.total_banks()));
        let addr = (row * u64::from(g.total_banks()) + bank) * g.row_bytes();
        mc.access(MemTransaction::read(addr, at)).unwrap();
    }
    mc.advance_to(at + retention * 2).unwrap();
    assert!(mc.stats().scrubs_issued > 0, "the patrol walk must run");
    assert_eq!(mc.stats().ce_corrected, 0, "no faults, no CEs");
    assert_eq!(mc.stats().ue_detected, 0, "no faults, no UEs");
}

/// Property: a scrubbed row's time-out counter equals the
/// freshly-refreshed value (the §4.1 reset), while unscrubbed rows have
/// counted down.
#[test]
fn scrubbed_row_counter_equals_fresh_value() {
    // One scrub slot at 30 ms: by then every counter has decremented, and
    // the deadline-order victim (all rows restored at t=0, tie → row 0)
    // gets reset by the scrub.
    let mut mc = controller().with_ecc(EccConfig::new(1).with_scrub(ScrubConfig {
        interval: Duration::from_ms(30),
    }));
    mc.advance_to(ms(30)).unwrap();
    assert_eq!(mc.stats().scrubs_issued, 1);
    let counters = mc.policy().counters();
    assert_eq!(
        counters.get(0),
        counters.max_value(),
        "scrub must reset the victim's counter"
    );
    let decremented = (0..counters.len()).filter(|&i| counters.get(i) < counters.max_value());
    assert!(
        decremented.count() > 0,
        "unscrubbed counters keep counting down"
    );
    // The device restored the row: the scrub doubles as a refresh.
    assert_eq!(mc.device().stats().scrubs, 1);
    assert!(mc.device().retention().last_restore(0) > Instant::ZERO);
}

/// A weak cell whose late restores stay within 2× its deadline produces
/// CEs on the demand-read path; every one is corrected and none escalate.
#[test]
fn weak_cell_flips_are_corrected_as_ces() {
    let g = geometry();
    // Row 7 of bank 1: weak, true deadline 40 ms against the 64 ms rated
    // schedule. Reading it every 45 ms restores it with a 45 ms interval —
    // late (flips materialize) but within the 80 ms two-flip limit, so
    // every flip is a CE the read-path decoder repairs.
    let injector = FaultInjector::new().with_spec(FaultSpec::always(
        FaultSite::exact(0, 1, 7),
        FaultKind::WeakCell {
            deadline: Duration::from_ms(40),
        },
    ));
    let mut mc = controller()
        .with_fault_injector(injector)
        .with_ecc(EccConfig::new(2));
    let addr = (7 * u64::from(g.total_banks()) + 1) * g.row_bytes();
    for k in 1..=4u64 {
        mc.access(MemTransaction::read(addr, ms(45 * k))).unwrap();
    }
    assert!(
        mc.stats().ce_corrected >= 1,
        "late restores must surface as corrected errors"
    );
    assert_eq!(mc.stats().ue_detected, 0, "single flips never escalate");
    assert!(mc.watchdog().is_none());
}

/// A latent single-bit flip on a never-accessed row is found and repaired
/// by the patrol walk alone.
#[test]
fn patrol_scrub_corrects_latent_flip_without_demand_traffic() {
    let g = geometry();
    let t = TimingParams::ddr2_667();
    let injector = FaultInjector::new().with_spec(FaultSpec::always(
        FaultSite::exact(0, 0, 9),
        FaultKind::BitFlip { bits: 1 },
    ));
    let mut mc = controller()
        .with_fault_injector(injector)
        .with_ecc(EccConfig::new(6).with_scrub(ScrubConfig::covering(t.retention, g.total_rows())));
    mc.advance_to(ms(130)).unwrap();
    assert_eq!(mc.stats().ce_corrected, 1, "the scrubber repairs the flip");
    assert_eq!(mc.stats().ue_detected, 0);
}

/// A forced 2-bit flip is detected as a UE by the patrol scrub, escalates
/// to the CBR degradation path, and does not panic or fail the run.
#[test]
fn forced_double_flip_escalates_without_error() {
    let g = geometry();
    let t = TimingParams::ddr2_667();
    let injector = FaultInjector::new().with_spec(FaultSpec::always(
        FaultSite::exact(0, 0, 5),
        FaultKind::BitFlip { bits: 2 },
    ));
    let mut mc = controller()
        .with_fault_injector(injector)
        .with_ecc(EccConfig::new(3).with_scrub(ScrubConfig::covering(t.retention, g.total_rows())));
    // Two retention intervals: the deadline-order walk reaches every row.
    mc.advance_to(ms(130)).unwrap();
    assert_eq!(mc.stats().ue_detected, 1);
    assert!(
        mc.policy()
            .degradation_events()
            .iter()
            .any(|e| e.cause == DegradeCause::EccUncorrectable),
        "a UE must degrade the policy to its fallback"
    );
    // Re-scrubbing the same poisoned row never double-counts.
    mc.advance_to(ms(260)).unwrap();
    assert_eq!(mc.stats().ue_detected, 1);
}

/// A demand read of a poisoned row fails with `SimError::Uncorrectable`.
#[test]
fn demand_read_of_poisoned_row_errors() {
    let injector = FaultInjector::new().with_spec(FaultSpec::always(
        FaultSite::exact(0, 0, 0),
        FaultKind::BitFlip { bits: 2 },
    ));
    let mut mc = controller()
        .with_fault_injector(injector)
        .with_ecc(EccConfig::new(4));
    let err = mc
        .access(MemTransaction::read(0, ms(1)))
        .expect_err("reading a double-flipped row must fail");
    assert!(
        matches!(
            err,
            SimError::Uncorrectable {
                rank: 0,
                bank: 0,
                row: 0,
                ..
            }
        ),
        "unexpected error: {err}"
    );
    assert_eq!(mc.stats().ue_detected, 1);
}

/// Builder order must not matter: ECC installed before the injector still
/// sees its bit-flip specs.
#[test]
fn builder_order_is_irrelevant_for_bit_flips() {
    let injector = FaultInjector::new().with_spec(FaultSpec::always(
        FaultSite::exact(0, 0, 3),
        FaultKind::BitFlip { bits: 1 },
    ));
    let mut mc = controller()
        .with_ecc(EccConfig::new(5))
        .with_fault_injector(injector);
    let g = geometry();
    // Row 3 of bank 0: column 0 physical address.
    let addr = 3 * g.row_bytes() * u64::from(g.total_banks());
    mc.access(MemTransaction::read(addr, ms(1))).unwrap();
    assert_eq!(mc.stats().ce_corrected, 1, "the single flip is corrected");
    assert_eq!(mc.fault_injector().unwrap().stats().rows_bit_flipped, 1);
}

/// A zero patrol interval would stall the slot clock, so the next
/// `advance_to` could never return; installing it must fail loudly.
#[test]
#[should_panic(expected = "scrub interval must be non-zero")]
fn zero_scrub_interval_is_refused() {
    let mut mc = controller().with_ecc(EccConfig::new(1).with_scrub(ScrubConfig {
        interval: Duration::ZERO,
    }));
    let _ = mc.advance_to(ms(1));
}

/// The same for a zero watchdog epoch and the epoch clock.
#[test]
#[should_panic(expected = "watchdog epoch must be non-zero")]
fn zero_watchdog_epoch_is_refused() {
    let mut wd = WatchdogConfig::for_retention(TimingParams::ddr2_667().retention);
    wd.epoch = Duration::ZERO;
    let mut mc = controller().with_ecc(EccConfig::new(1).with_watchdog(wd));
    let _ = mc.advance_to(ms(1));
}
