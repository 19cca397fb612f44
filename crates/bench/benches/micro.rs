//! Micro-benchmarks of the hot components: the counter array and stagger
//! walk (executed millions of times per simulated second), the pending
//! queue, the DRAM command layer, the workload generator, the stacked-DRAM
//! L3 cache, the SECDED read path, the hammer-pressure ACT hook, the
//! scrubber's deadline-order victim query, the 4 Gb module's retention
//! tracker (random restores and the closing violations scan), the
//! end-to-end controller access path, and the multi-channel system's
//! access path with boxed and with statically dispatched channel policies.
//!
//! A self-contained `harness = false` timing loop (no external benchmark
//! framework, so the workspace builds offline): each benchmark is warmed
//! up, then timed over enough iterations to produce a stable ns/op figure.

use std::time::Instant as WallClock;

use smartrefresh_cache::StackedDramCache;
use smartrefresh_core::{
    CbrDistributed, CounterArray, PendingRefreshQueue, RefreshPolicy, SmartRefresh,
    SmartRefreshConfig, StaggerSchedule,
};
use smartrefresh_ctrl::{MemTransaction, MemoryController};
use smartrefresh_dram::configs::conventional_4gb;
use smartrefresh_dram::time::{Duration, Instant};
use smartrefresh_dram::{
    DramDevice, Geometry, ModuleConfig, RetentionTracker, Rng, RowAddr, TimingParams,
};
use smartrefresh_ecc::EccMemory;
use smartrefresh_faults::{FaultInjector, FaultSite};
use smartrefresh_sim::{MultiChannelSystem, PolicyKind};
use smartrefresh_workloads::{find, AccessGenerator};

/// Unwraps a bench-step result without panicking machinery: a failure
/// aborts the harness with a nonzero exit (the ops run inside `FnMut()`
/// timing closures, so `?` cannot propagate out).
fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(err) => {
            eprintln!("micro bench step `{what}` failed: {err}");
            std::process::exit(2);
        }
    }
}

/// Option counterpart of [`must`].
fn must_some<T>(o: Option<T>, what: &str) -> T {
    match o {
        Some(v) => v,
        None => {
            eprintln!("micro bench step `{what}` produced nothing");
            std::process::exit(2);
        }
    }
}

/// Times `op` over `iters` iterations (after `iters / 10` warm-up calls)
/// and prints mean ns/op and op/s for `name`.
fn bench<F: FnMut()>(name: &str, iters: u64, mut op: F) {
    for _ in 0..iters / 10 {
        op();
    }
    let start = WallClock::now();
    for _ in 0..iters {
        op();
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
    println!(
        "{name:<41} {ns_per_op:>10.1} ns/op  {:>12.0} op/s",
        1e9 / ns_per_op
    );
}

fn bench_counter_array() {
    let mut array = CounterArray::new(131_072, 3);
    let mut i = 0u64;
    bench("counter_array/decrement", 2_000_000, || {
        i = (i + 1) % 131_072;
        std::hint::black_box(array.decrement(std::hint::black_box(i)));
    });
    let mut i = 0u64;
    bench("counter_array/reset", 2_000_000, || {
        i = (i + 1) % 131_072;
        array.reset(std::hint::black_box(i));
    });
}

fn bench_stagger() {
    let schedule = StaggerSchedule::new(131_072, 8, 3, Duration::from_ms(64));
    let mut tick = 0u64;
    bench("stagger/indices_at_tick", 1_000_000, || {
        tick += 1;
        std::hint::black_box(
            schedule
                .indices_at_tick(std::hint::black_box(tick))
                .sum::<u64>(),
        );
    });
}

fn bench_queue() {
    bench("pending_queue/push_pop_8", 500_000, || {
        let mut q = PendingRefreshQueue::new(8);
        for i in 0..8u32 {
            must(
                q.push(
                    RowAddr {
                        rank: 0,
                        bank: 0,
                        row: i,
                    },
                    true,
                    Instant::ZERO,
                ),
                "pending_queue push",
            );
        }
        while q.pop().is_some() {}
        std::hint::black_box(&q);
    });
}

fn bench_device() {
    let geometry = Geometry::new(2, 4, 16384, 2048, 64);
    let timing = TimingParams::ddr2_667();
    {
        let mut dev = DramDevice::new(geometry, timing);
        let mut now = Instant::ZERO;
        let mut row = 0u32;
        bench("device/refresh_ras_only", 500_000, || {
            row = (row + 1) % 16384;
            let out = must(
                dev.refresh_ras_only(
                    RowAddr {
                        rank: 0,
                        bank: (row % 4),
                        row,
                    },
                    now,
                ),
                "refresh_ras_only",
            );
            now = out.bank_ready_at;
        });
    }
    {
        let mut dev = DramDevice::new(geometry, timing);
        let mut now = Instant::ZERO;
        let mut row = 0u32;
        let bank = geometry.bank_index(0, 0) as usize;
        bench("device/activate_read_precharge", 500_000, || {
            row = (row + 1) % 16384;
            let act = must(dev.activate_at(bank, row, now), "activate");
            must(dev.read_at(bank, row, 0, act.bank_ready_at), "read");
            let pre_at = dev.bank_at(bank).earliest_precharge();
            let out = must(dev.precharge_at(bank, pre_at), "precharge");
            now = out.bank_ready_at + Duration::from_ns(1);
        });
    }
}

fn bench_generator() {
    let entry = must_some(find("gcc"), "gcc catalog entry");
    let geometry = Geometry::new(2, 4, 16384, 2048, 64);
    let mut gen = AccessGenerator::new(&entry.conventional, geometry, Duration::from_ms(64), 0, 1);
    bench("workload/generate_access", 1_000_000, || {
        std::hint::black_box(must_some(gen.next(), "generated access"));
    });
}

fn bench_smart_policy_tick() {
    let geometry = Geometry::new(2, 4, 16384, 2048, 64);
    let mut policy = SmartRefresh::new(
        geometry,
        Duration::from_ms(64),
        SmartRefreshConfig {
            hysteresis: None,
            ..SmartRefreshConfig::paper_defaults()
        },
    );
    let tick = policy.schedule().tick_interval();
    let mut now = Instant::ZERO;
    bench("smart_policy/process_tick", 500_000, || {
        now += tick;
        policy.advance(now);
        while policy.pop_pending().is_some() {}
    });
}

fn bench_stacked_cache() {
    // Every stacked experiment builds (and drops) one Table 2 L3.
    bench("cache/stacked_new_64mib", 200, || {
        std::hint::black_box(StackedDramCache::table2_64mb());
    });
    // First-touch misses into a fresh cache: each access fills a new slot.
    let mut l3 = StackedDramCache::table2_64mb();
    let mut line = 0u64;
    bench("cache/stacked_cold_miss", 500_000, || {
        line += 1;
        std::hint::black_box(l3.access(std::hint::black_box(line * 64), false));
    });
}

fn bench_ecc() {
    let clean = EccMemory::new(1);
    let mut flat = 0u64;
    bench("ecc/read_clean", 2_000_000, || {
        flat = (flat + 1) % 1024;
        std::hint::black_box(clean.read(std::hint::black_box(flat)));
    });
    // One flip per row: every read is a corrected error.
    let mut flipped = EccMemory::new(2);
    for row in 0..1024 {
        flipped.inject_flips(row, 1);
    }
    let mut flat = 0u64;
    bench("ecc/read_flipped", 2_000_000, || {
        flat = (flat + 1) % 1024;
        std::hint::black_box(flipped.read(std::hint::black_box(flat)));
    });
}

fn bench_hammer() {
    // Double-sided hammering of row 11 in each of 8 banks (ACTs alternate
    // between rows 10 and 12), with each bank's row 11 refreshed once per
    // 1024 ACTs: the per-ACT pressure path of the fleet's `dist` cells,
    // threshold crossings and flip draws included.
    let geometry = Geometry::new(1, 8, 128, 4, 64);
    let mut inj = FaultInjector::new().with_disturbance(FaultSite::ANY, 64, 2, 1);
    let mut now = Instant::ZERO;
    let mut i = 0u64;
    bench("faults/note_activation_hammer", 2_000_000, || {
        i += 1;
        now += Duration::from_ns(50);
        let bank = (i % 8) as u32;
        let aggressor = RowAddr {
            rank: 0,
            bank,
            row: [10, 12][(i / 8 % 2) as usize],
        };
        std::hint::black_box(inj.note_activation(&geometry, aggressor, now));
        if i % 1024 < 8 {
            let victim = RowAddr {
                row: 11,
                ..aggressor
            };
            inj.note_row_restored(&geometry, victim);
        }
    });
}

fn bench_retention_victim() {
    // 1024 rows; restores land on scattered rows (stride 389 is coprime
    // to 1024), each followed by the patrol scrubber's victim query.
    let geometry = Geometry::new(1, 8, 128, 4, 64);
    let mut tracker = RetentionTracker::new(&geometry, Duration::from_ms(64));
    let mut now = Instant::ZERO;
    let mut flat = 0u64;
    bench("retention/restore_then_earliest_1k", 500_000, || {
        now += Duration::from_ns(100);
        flat = (flat + 389) % 1024;
        tracker.restore(flat, now);
        std::hint::black_box(tracker.earliest_deadline_row());
    });
    // Refresh order: restore the current winner, then ask for the next
    // one. The restored leaf is the root's, so each restore replays the
    // longest path of the tree.
    let mut tracker = RetentionTracker::new(&geometry, Duration::from_ms(64));
    let mut now = Instant::ZERO;
    bench("retention/winner_restore_then_earliest_1k", 500_000, || {
        now += Duration::from_ns(100);
        let winner = must_some(tracker.earliest_deadline_row(), "deadline winner");
        tracker.restore(winner, now);
    });
}

/// The 4 Gb module's 262 144-row tracker: one restore per ACTIVATE to a
/// uniformly random row, then the once-per-run `violations` scan on the
/// same table, which finds every row within its deadline.
fn bench_retention_4gb() {
    let module = conventional_4gb();
    let rows = module.geometry.total_rows();
    let mut tracker = RetentionTracker::new(&module.geometry, module.timing.retention);
    let mut rng = Rng::seed_from_u64(0x4e7e_0001);
    let mut now = Instant::ZERO;
    bench("retention/restore_random_4gb", 2_000_000, || {
        now += Duration::from_ns(10);
        std::hint::black_box(tracker.restore(rng.gen_range(0..rows), now));
    });
    bench("retention/violations_4gb", 500, || {
        std::hint::black_box(tracker.violations(std::hint::black_box(now)));
    });
}

fn bench_controller_access() {
    let geometry = Geometry::new(2, 4, 16384, 2048, 64);
    let timing = TimingParams::ddr2_667();
    let policy = SmartRefresh::new(
        geometry,
        timing.retention,
        SmartRefreshConfig {
            hysteresis: None,
            ..SmartRefreshConfig::paper_defaults()
        },
    );
    let mut mc = MemoryController::new(DramDevice::new(geometry, timing), policy);
    let entry = must_some(find("gcc"), "gcc catalog entry");
    let mut gen = AccessGenerator::new(&entry.conventional, geometry, Duration::from_ms(64), 0, 1);
    bench("controller/end_to_end_access", 200_000, || {
        let e = must_some(gen.next(), "generated access");
        std::hint::black_box(must(
            mc.access(MemTransaction {
                addr: e.addr,
                is_write: e.is_write,
                arrival: e.time,
            }),
            "controller access",
        ));
    });
}

/// One seeded CBR access stream over four channels: a read to a random
/// line every 20 ns. Run once through the boxed front door
/// (`MultiChannelSystem::new`) and once through concrete channels
/// (`MultiChannelSystem::with_policy`), so any gap between the two lines
/// is the cost of the policy vtable on the system's access path.
fn bench_system_access() {
    fn stream<P: RefreshPolicy>(name: &str, mut sys: MultiChannelSystem<P>, capacity: u64) {
        let mut rng = Rng::seed_from_u64(0x5157_0001);
        let mut now = Instant::ZERO;
        bench(name, 500_000, || {
            now += Duration::from_ns(20);
            let addr = rng.gen_range(0..capacity) & !63;
            std::hint::black_box(must(sys.access(addr, false, now), "system access"));
        });
    }
    let module = ModuleConfig {
        name: "micro-4ch",
        geometry: Geometry::new(1, 8, 4096, 64, 64),
        timing: TimingParams::ddr2_667(),
    };
    let (g, r) = (module.geometry, module.timing.retention);
    let capacity = g.capacity_bytes() * 4;
    stream(
        "system/access_boxed",
        must(
            MultiChannelSystem::new(module.clone(), 4, 4096, || PolicyKind::CbrDistributed),
            "boxed system",
        ),
        capacity,
    );
    stream(
        "system/access_static",
        must(
            MultiChannelSystem::with_policy(module, 4, 4096, || CbrDistributed::new(g, r)),
            "static system",
        ),
        capacity,
    );
}

fn main() {
    println!("{:<41} {:>13}  {:>14}", "benchmark", "mean", "throughput");
    bench_counter_array();
    bench_stagger();
    bench_queue();
    bench_device();
    bench_generator();
    bench_smart_policy_tick();
    bench_stacked_cache();
    bench_ecc();
    bench_hammer();
    bench_retention_victim();
    bench_retention_4gb();
    bench_controller_access();
    bench_system_access();
}
