//! Property tests of the DRAM substrate invariants, driven by the in-repo
//! seeded [`Rng`] so every run is deterministic and hermetic.

use smartrefresh_dram::rng::Rng;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{DramDevice, Geometry, RetentionProfile, RowAddr, TimingParams};

/// A power-of-two shape: up to 2 ranks, 8 banks, 64 rows and 32 columns.
fn sample_geometry(rng: &mut Rng) -> Geometry {
    let mut pow2 = |max_log2: u32| 1u32 << rng.gen_range(0..max_log2 + 1);
    let (ranks, banks, rows, cols) = (pow2(1), pow2(3), pow2(6), pow2(5));
    Geometry::new(ranks, banks, rows, cols, 64)
}

/// decode() always produces in-range components.
#[test]
fn decode_stays_in_range() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0001);
    for _ in 0..64 {
        let g = sample_geometry(&mut rng);
        for _ in 0..16 {
            let addr = rng.next_u64();
            let d = g.decode(addr);
            assert!(d.row_addr.rank < g.ranks());
            assert!(d.row_addr.bank < g.banks());
            assert!(d.row_addr.row < g.rows());
            assert!(d.column < g.columns());
        }
    }
}

/// flatten/unflatten is a bijection over the whole module.
#[test]
fn flatten_roundtrips() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0002);
    for _ in 0..32 {
        let g = sample_geometry(&mut rng);
        for i in 0..g.total_rows() {
            let ra = g.unflatten(i);
            assert_eq!(g.flatten(ra), i);
        }
    }
}

/// Every address below capacity decodes to the row block that contains
/// it: re-encoding the row block and column reproduces the aligned
/// address.
#[test]
fn decode_is_consistent_with_row_blocks() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0003);
    for _ in 0..64 {
        let g = sample_geometry(&mut rng);
        let blocks = rng.gen_range(0u64..4096);
        let addr = (blocks % (g.capacity_bytes() / g.column_bytes())) * g.column_bytes();
        let d = g.decode(addr);
        // Rebuild: the flat sequence of (column, bank, rank, row) units.
        let col_unit = g.column_bytes();
        let rebuilt = (((u64::from(d.row_addr.row) * u64::from(g.ranks())
            + u64::from(d.row_addr.rank))
            * u64::from(g.banks())
            + u64::from(d.row_addr.bank))
            * u64::from(g.columns())
            + u64::from(d.column))
            * col_unit;
        assert_eq!(rebuilt, addr);
    }
}

/// The retention tracker flags exactly the rows whose deadline passed.
#[test]
fn retention_violations_are_exact() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0004);
    for _ in 0..32 {
        let rows = 1u32 << rng.gen_range(0u32..6);
        let restore_ms: Vec<u64> = (0..rows).map(|_| rng.gen_range(0u64..100)).collect();
        let check_ms = rng.gen_range(0u64..200);
        let g = Geometry::new(1, 1, rows, 4, 64);
        let mut dev = DramDevice::new(
            g,
            TimingParams::ddr2_667().with_retention(Duration::from_ms(64)),
        );
        // Refresh each row at its chosen time (sequentially legal ordering
        // is irrelevant to the tracker; drive it directly).
        let mut times: Vec<(u32, u64)> = restore_ms
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as u32, t))
            .collect();
        times.sort_by_key(|&(_, t)| t);
        for (row, t) in times {
            // Issue a refresh at time t (banks are serial, 70 ns each; the
            // ms-scale gaps dominate so ordering is legal).
            let at = Instant::ZERO + Duration::from_ms(t) + Duration::from_ns(u64::from(row) * 100);
            let _ = dev.refresh_ras_only(
                RowAddr {
                    rank: 0,
                    bank: 0,
                    row,
                },
                at,
            );
        }
        let now = Instant::ZERO + Duration::from_ms(check_ms);
        let violations = dev.retention().violations(now);
        for (i, &t) in restore_ms.iter().enumerate() {
            let restored = dev.retention().last_restore(i as u64);
            let stale = now.saturating_since(restored) > Duration::from_ms(64);
            assert_eq!(
                violations.contains(&(i as u64)),
                stale,
                "row {i} restored at {restored} checked at {check_ms}ms (orig {t}ms)"
            );
        }
    }
}

/// With a retention profile applied, strong rows tolerate proportionally
/// longer staleness before being flagged.
#[test]
fn profile_scales_deadlines() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0005);
    for _ in 0..24 {
        let seed = rng.next_u64();
        let g = Geometry::new(1, 2, 16, 4, 64);
        let mut dev = DramDevice::new(
            g,
            TimingParams::ddr2_667().with_retention(Duration::from_ms(8)),
        );
        let profile = RetentionProfile::rapid_like(g.total_rows(), seed);
        dev.apply_retention_profile(&profile);
        // At 9 ms (just past base retention), exactly the multiplier-0 rows
        // violate.
        let now = Instant::ZERO + Duration::from_ms(9);
        let violations = dev.retention().violations(now);
        for i in 0..g.total_rows() {
            let weak = profile.multiplier_log2(i) == 0;
            assert_eq!(violations.contains(&i), weak, "seed {seed} row {i}");
        }
    }
}

/// Bank busy horizons are monotone: a command never makes a bank ready
/// earlier than it already was.
#[test]
fn busy_horizons_monotone() {
    let mut rng = Rng::seed_from_u64(0xd4a0_0006);
    for _ in 0..24 {
        let g = Geometry::new(1, 4, 16, 8, 64);
        let mut dev = DramDevice::new(g, TimingParams::ddr2_667());
        let mut horizon = Instant::ZERO;
        let mut now = Instant::ZERO;
        let ops = rng.gen_range(1usize..64);
        for _ in 0..ops {
            let bank = rng.gen_range(0u32..4);
            let row = rng.gen_range(0u32..16);
            let gap_ns = rng.gen_range(0u64..1000);
            now += Duration::from_ns(gap_ns + 1);
            let addr = RowAddr { rank: 0, bank, row };
            // Try a refresh; ignore rejections (busy bank).
            if dev.refresh_ras_only(addr, now).is_ok() {
                let b = dev.bank(0, bank).busy_until();
                assert!(b >= horizon.min(b));
                horizon = horizon.max(b);
            }
        }
    }
}
