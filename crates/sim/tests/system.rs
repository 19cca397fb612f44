//! Differential test of the multi-channel system's two front doors: one
//! seeded access stream through boxed channels (`MultiChannelSystem::new`
//! with a `PolicyKind`) and through statically dispatched ones
//! (`MultiChannelSystem::with_policy` with the concrete policy) must leave
//! identical operation counts, controller statistics (every field) and
//! per-channel retention records.

use smartrefresh_core::{CbrDistributed, RefreshPolicy, SmartRefresh, SmartRefreshConfig};
use smartrefresh_ctrl::{EccConfig, ScrubConfig, SimError};
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{Geometry, ModuleConfig, Rng, TimingParams};
use smartrefresh_faults::{FaultInjector, FaultKind, FaultSite, FaultSpec};
use smartrefresh_sim::system::MultiChannelSystem;
use smartrefresh_sim::PolicyKind;

const CHANNELS: u32 = 4;
const INTERLEAVE: u64 = 4096;

fn module() -> ModuleConfig {
    ModuleConfig {
        name: "differential",
        geometry: Geometry::new(1, 4, 64, 32, 64), // 256 rows per channel
        timing: TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
    }
}

fn smart_cfg() -> SmartRefreshConfig {
    SmartRefreshConfig {
        counter_bits: 3,
        segments: 4,
        queue_capacity: 4,
        hysteresis: None,
    }
}

/// Channel `i`'s ECC path: SECDED decode plus a patrol scrub covering the
/// channel once per retention interval.
fn ecc_of(i: usize) -> EccConfig {
    let m = module();
    EccConfig::new(0xD1FF ^ i as u64).with_scrub(ScrubConfig::covering(
        m.timing.retention,
        m.geometry.total_rows(),
    ))
}

/// A latent single-bit flip in bank 1's row 7 of channel 0, corrected
/// by the patrol scrub or a demand read.
fn flip_on_channel_0(i: usize) -> Option<FaultInjector> {
    (i == 0).then(|| {
        FaultInjector::new().with_spec(FaultSpec::always(
            FaultSite::exact(0, 1, 7),
            FaultKind::BitFlip { bits: 1 },
        ))
    })
}

/// Three retention intervals of seeded demand: a read or write to a
/// random line every 0.5–4 µs, half of them to the upper half of channel 0.
fn drive<P: RefreshPolicy>(sys: &mut MultiChannelSystem<P>) -> Result<(), SimError> {
    let capacity = module().geometry.capacity_bytes() * u64::from(CHANNELS);
    let horizon = Instant::ZERO + module().timing.retention * 3;
    let mut rng = Rng::seed_from_u64(0x5157_D1FF);
    let mut now = Instant::ZERO;
    loop {
        now += Duration::from_ns(rng.gen_range(500..4_000));
        if now > horizon {
            break;
        }
        let addr = if rng.gen_bool(0.5) {
            sys.global_addr(0, rng.gen_range(capacity / 8..capacity / 4))
        } else {
            rng.gen_range(0..capacity)
        };
        sys.access(addr, rng.gen_bool(0.3), now)?;
    }
    sys.advance_to(horizon)?;
    sys.check_sanitizer(horizon)
}

/// Asserts that the two systems ended in the same observable state.
fn assert_same<A: RefreshPolicy, B: RefreshPolicy>(
    boxed: &MultiChannelSystem<A>,
    fixed: &MultiChannelSystem<B>,
) {
    assert_eq!(boxed.total_ops(), fixed.total_ops());
    assert_eq!(boxed.total_ctrl(), fixed.total_ctrl());
    for i in 0..boxed.channels() {
        let (b, s) = (boxed.channel(i).device(), fixed.channel(i).device());
        assert_eq!(
            b.retention().summary(),
            s.retention().summary(),
            "channel {i}"
        );
        assert_eq!(
            b.retention().late_restores(),
            s.retention().late_restores(),
            "channel {i}"
        );
    }
}

#[test]
fn boxed_and_static_cbr_channels_agree() -> Result<(), SimError> {
    let m = module();
    let (g, r) = (m.geometry, m.timing.retention);
    let mut boxed = MultiChannelSystem::new(m.clone(), CHANNELS, INTERLEAVE, || {
        PolicyKind::CbrDistributed
    })?;
    let mut fixed =
        MultiChannelSystem::with_policy(m, CHANNELS, INTERLEAVE, || CbrDistributed::new(g, r))?;
    drive(&mut boxed)?;
    drive(&mut fixed)?;
    assert_same(&boxed, &fixed);
    let ctrl = fixed.total_ctrl();
    assert!(ctrl.transactions > 10_000, "{ctrl:?}");
    assert!(ctrl.refreshes_issued > 0, "{ctrl:?}");
    Ok(())
}

#[test]
fn boxed_and_static_smart_channels_with_ecc_and_scrub_agree() -> Result<(), SimError> {
    let m = module();
    let (g, r) = (m.geometry, m.timing.retention);
    let mut boxed = MultiChannelSystem::new(m.clone(), CHANNELS, INTERLEAVE, || {
        PolicyKind::Smart(smart_cfg())
    })?
    .with_ecc(ecc_of)
    .with_fault_injectors(flip_on_channel_0);
    let mut fixed = MultiChannelSystem::with_policy(m, CHANNELS, INTERLEAVE, || {
        SmartRefresh::new(g, r, smart_cfg())
    })?
    .with_ecc(ecc_of)
    .with_fault_injectors(flip_on_channel_0);
    drive(&mut boxed)?;
    drive(&mut fixed)?;
    assert_same(&boxed, &fixed);
    // The fields the system total used to drop are live here.
    let ctrl = fixed.total_ctrl();
    assert!(ctrl.scrubs_issued > 0, "{ctrl:?}");
    assert!(ctrl.ce_corrected > 0, "{ctrl:?}");
    assert_eq!(
        ctrl.scrubs_issued + ctrl.forced_scrubs,
        fixed.total_ops().scrubs,
        "every scrub the controllers issued reached a device"
    );
    Ok(())
}
