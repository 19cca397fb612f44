//! Bit-identity pin for feature-engine combinations no other pin covers.
//!
//! Each run drives one sanitizer-attached controller over the orchestrator's
//! `mini` module with a seeded demand stream (row-hit bursts, conflicts and
//! idle gaps long enough for power-down windows), then folds the `Debug`
//! rendering of everything the run leaves behind into one FNV-1a digest:
//! controller and device counters, fault statistics and events, DARP
//! counters, counter-SRAM traffic, degradation events, late restores,
//! watchdog violations and the sanitizer verdict. The combinations are the
//! ones where the controller's nothing-due bound has to account for a
//! time-driven feature engine:
//!
//! * ECC patrol scrub and watchdog under `ConservativeReset` power-down,
//!   whose wake path pulls the patrol slot and the audit forward mid-access;
//! * DARP with SARP subarrays under the closed-page policy, whose
//!   auto-precharge closes every page outside the advance path (so DARP
//!   never finds a hot bank and issues every refresh in order);
//! * DARP with a VRT episode, a dispatch-stall window and drop/delay faults;
//! * ECC patrol scrub and watchdog with a VRT episode.
//!
//! The values were recorded before the controller skipped `advance_to`
//! passes for these configurations and must never move without an
//! intended behaviour change.

use smart_refresh::core::{CounterPowerConfig, RefreshPolicy, SmartRefresh, SmartRefreshConfig};
use smart_refresh::ctrl::{
    DarpConfig, EccConfig, MemTransaction, MemoryController, PagePolicy, ScrubConfig, SimError,
    WatchdogConfig,
};
use smart_refresh::dram::time::{Duration, Instant};
use smart_refresh::dram::{DramDevice, Geometry, ModuleConfig, Rng, RowAddr};
use smart_refresh::faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
use smart_refresh::orchestrator::ModuleKind;
use smart_refresh::sim::Digest64;

/// Two and a half retention intervals of the `mini` module (8 ms).
const HORIZON_MS: u64 = 20;

fn mini() -> ModuleConfig {
    ModuleKind::Mini.instantiate().0
}

/// A sanitizer-attached Smart Refresh controller over the `mini` module.
fn controller(module: &ModuleConfig) -> MemoryController<SmartRefresh> {
    let g = module.geometry;
    let policy = SmartRefresh::new(
        g,
        module.timing.retention,
        SmartRefreshConfig::paper_defaults(),
    );
    MemoryController::new(DramDevice::new(g, module.timing), policy).with_sanitizer()
}

/// The byte address of `column` in `row` under the module's
/// column-bank-rank-row interleave.
fn addr_of(g: &Geometry, row: RowAddr, column: u32) -> u64 {
    let blocks = (u64::from(row.row) * u64::from(g.ranks()) + u64::from(row.rank))
        * u64::from(g.banks())
        + u64::from(row.bank);
    let addr = (blocks * u64::from(g.columns()) + u64::from(column)) * g.column_bytes();
    debug_assert_eq!(g.decode(addr).row_addr, row);
    addr
}

/// Drives `mc` with a seeded demand stream up to the horizon and digests
/// the run's end state. Most accesses revisit the previous row (hits that
/// keep a page hot); the rest pick a random row in the lower half of the
/// array. Gaps mix back-to-back traffic with idle stretches past the
/// power-down threshold. A demand read of an uncorrectable word fails only
/// its own transaction; its error is folded in and the stream continues.
fn run(mut mc: MemoryController<SmartRefresh>, seed: u64) -> u64 {
    let g = *mc.device().geometry();
    let mut rng = Rng::seed_from_u64(seed);
    let horizon = Instant::ZERO + Duration::from_ms(HORIZON_MS);
    let mut d = Digest64::new();
    let mut row = g.unflatten(0);
    let mut now = Instant::ZERO;
    loop {
        now += if rng.gen_bool(0.8) {
            Duration::from_ns(rng.gen_range(20..400))
        } else {
            Duration::from_ns(rng.gen_range(400..6_000))
        };
        if now > horizon {
            break;
        }
        if !rng.gen_bool(0.7) {
            row = g.unflatten(rng.gen_range(0..g.total_rows() / 2));
        }
        let addr = addr_of(&g, row, rng.gen_range(0..g.columns()));
        let tx = if rng.gen_bool(0.25) {
            MemTransaction::write(addr, now)
        } else {
            MemTransaction::read(addr, now)
        };
        match mc.access(tx) {
            Ok(_) => {}
            Err(e @ SimError::Uncorrectable { .. }) => d.update_str(&format!("{e:?}")),
            Err(e) => panic!("access at {now:?}: {e}"),
        }
    }
    mc.advance_to(horizon).expect("final advance");
    d.update_str(&format!("{:?}", mc.stats()));
    d.update_str(&format!("{:?}", mc.device().stats()));
    if let Some(inj) = mc.fault_injector() {
        d.update_str(&format!("{:?}", inj.stats()));
        d.update_str(&format!("{:?}", inj.events()));
    }
    if let Some(darp) = mc.darp() {
        d.update_str(&format!("{:?}", darp.stats()));
    }
    d.update_str(&format!("{:?}", mc.policy().sram_traffic()));
    d.update_str(&format!("{:?}", mc.policy().degradation_events()));
    d.update_str(&format!("{:?}", mc.device().retention().late_restores()));
    if let Some(wd) = mc.watchdog() {
        d.update_str(&format!("{:?}", wd.violations()));
    }
    d.update_str(&format!("{:?}", mc.check_sanitizer(horizon)));
    d.finish()
}

/// Patrol scrub covering the array once per retention interval, plus the
/// retention-scaled watchdog.
fn patrol(module: &ModuleConfig, seed: u64) -> EccConfig {
    let retention = module.timing.retention;
    EccConfig::new(seed)
        .with_scrub(ScrubConfig::covering(
            retention,
            module.geometry.total_rows(),
        ))
        .with_watchdog(WatchdogConfig::for_retention(retention))
}

/// A VRT episode on a seed-chosen row, from one retention interval in to
/// two, at a quarter of the rated retention.
fn vrt(module: &ModuleConfig, seed: u64) -> FaultInjector {
    let retention = module.timing.retention;
    FaultInjector::new().with_random_vrt_episode(
        &module.geometry,
        seed,
        retention.div_by(4),
        Instant::ZERO + retention,
        Instant::ZERO + retention * 2,
    )
}

fn darp(module: &ModuleConfig) -> DarpConfig {
    let trefi = module
        .timing
        .retention
        .div_by(u64::from(module.geometry.rows()));
    DarpConfig::bounded_by_trefi(trefi)
}

#[test]
fn ecc_patrol_and_watchdog_under_conservative_reset() {
    let m = mini();
    let mc = controller(&m)
        .with_counter_power(CounterPowerConfig::conservative_reset())
        .with_ecc(patrol(&m, 11));
    let got = run(mc, 0xfea7_0001);
    assert_eq!(
        got, 0xdd58_474b_f77f_c04e,
        "ecc + conservative-reset digest {got:#018x}"
    );
}

#[test]
fn darp_and_sarp_under_closed_pages() {
    let m = mini();
    let mc = controller(&m)
        .with_page_policy(PagePolicy::Closed)
        .with_darp(darp(&m))
        .expect("DARP config")
        .with_subarrays(4);
    let got = run(mc, 0xfea7_0002);
    assert_eq!(
        got, 0xd421_1ba6_6e22_3000,
        "darp + sarp closed-page digest {got:#018x}"
    );
}

#[test]
fn darp_with_vrt_stall_and_dispatch_faults() {
    let m = mini();
    let retention = m.timing.retention;
    let g = m.geometry;
    let dropped = g.unflatten(g.total_rows() * 3 / 4);
    let injector = vrt(&m, 13)
        .with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            Instant::ZERO + retention + retention.div_by(2),
            Instant::ZERO + retention + retention.div_by(2) + Duration::from_us(300),
            FaultKind::StallDispatch,
        ))
        .with_spec(FaultSpec::always(
            FaultSite::exact(dropped.rank, dropped.bank, dropped.row),
            FaultKind::DropRefresh,
        ))
        .with_spec(FaultSpec::windowed(
            FaultSite::ANY,
            Instant::ZERO + retention.div_by(2),
            Instant::ZERO + retention,
            FaultKind::DelayRefresh {
                delay: Duration::from_ns(100),
            },
        ));
    let mc = controller(&m)
        .with_darp(darp(&m))
        .expect("DARP config")
        .with_fault_injector(injector);
    let got = run(mc, 0xfea7_0003);
    assert_eq!(
        got, 0x03c8_beaa_501e_32b1,
        "darp + vrt + stall + drop/delay digest {got:#018x}"
    );
}

#[test]
fn ecc_patrol_with_a_vrt_episode() {
    let m = mini();
    let mc = controller(&m)
        .with_fault_injector(vrt(&m, 17))
        .with_ecc(patrol(&m, 17));
    let got = run(mc, 0xfea7_0004);
    assert_eq!(got, 0x0f15_2717_f6f0_9173, "ecc + vrt digest {got:#018x}");
}
