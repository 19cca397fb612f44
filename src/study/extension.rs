//! Extensions past the paper: retention-aware stacking (§8), eDRAM, the
//! 32 MB stack, thermal feedback, closed-loop CPU execution, power-down
//! residency and counter power states, phase changes, multiple channels,
//! maintenance co-scheduling and the RFM threshold.

use super::{
    integrity, mini_module, mini_run, reduction_pct, smart_no_hysteresis, synthetic, Out, Report,
};
use crate::core::{
    CbrDistributed, CounterPowerConfig, HysteresisConfig, RefreshPolicy, SmartRefresh,
    SmartRefreshConfig,
};
use crate::cpu::{Cpu, CpuConfig, ProgramSpec, SyntheticProgram};
use crate::ctrl::SimError;
use crate::dram::configs::{conventional_2gb, edram_16mb, stacked_3d_32mb, stacked_3d_64mb};
use crate::dram::profile::RetentionProfile;
use crate::dram::time::{Duration, Instant};
use crate::dram::{Geometry, Rng, TimingParams};
use crate::energy::{geometric_mean, BusEnergyModel, DramPowerParams};
use crate::sim::coschedule::{run_coschedule_setup, CoscheduleConfig, Load, Setup};
use crate::sim::experiment::run_experiment_with_events;
use crate::sim::powerdown::{idle_sweep, priced_persistent};
use crate::sim::rfm::{rfm_threshold_sweep, RfmCampaignConfig};
use crate::sim::system::MultiChannelSystem;
use crate::sim::thermal::{ThermalModel, THRESHOLD_C};
use crate::sim::{kernel, run_experiment, CampaignConfig, ExperimentConfig, PolicyKind, RunResult};
use crate::workloads::{find, idle_os, PhasedGenerator, WorkloadSpec};

/// §8's orthogonality claim: Smart Refresh stacked on retention-aware
/// refresh (RAPID-like bins: 0.5% of rows at 1x, 4.5% at 2x, 25% at 4x,
/// 70% at 8x the worst-case interval) beats both constituents, with
/// integrity checked against each row's true variable deadline.
pub(super) fn retention_aware(_threads: usize) -> Result<Report, SimError> {
    let module = mini_module();
    let seed = 0xA11CE;
    let spec = synthetic("ra-bench", 0.4);
    let smart_cfg = smart_no_hysteresis();
    let run = |policy| {
        // The slowest retention bin is due once per 8 base intervals, so
        // the window must cover whole multiples of that period to measure
        // the steady state: warm up for one slow period, measure two.
        let cfg = ExperimentConfig {
            warmup: module.timing.retention * 16,
            measure: module.timing.retention * 16,
            ..mini_run(policy)
        };
        run_experiment(&cfg, &spec)
    };
    let cbr = run(PolicyKind::CbrDistributed)?;
    let smart = run(PolicyKind::Smart(smart_cfg))?;
    let ra = run(PolicyKind::RetentionAware { profile_seed: seed })?;
    let combo = run(PolicyKind::SmartRetentionAware {
        cfg: smart_cfg,
        profile_seed: seed,
    })?;

    let profile = RetentionProfile::rapid_like(module.geometry.total_rows(), seed);
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: Smart Refresh x retention-aware refresh (profile ideal fraction {:.3}) ===",
        profile.ideal_refresh_fraction()
    );
    writeln!(
        out,
        "{:<16} {:>14} {:>12} {:>12} {:>10}",
        "policy", "refreshes/s", "vs CBR", "refE save", "integrity"
    );
    let mut held = true;
    for r in [&cbr, &smart, &ra, &combo] {
        held &= r.integrity_ok;
        writeln!(
            out,
            "{:<16} {:>14.0} {:>11.1}% {:>11.1}% {:>10}",
            r.policy,
            r.refreshes_per_sec,
            reduction_pct(r.refreshes_per_sec, cbr.refreshes_per_sec),
            r.energy.refresh_savings_vs(&cbr.energy) * 100.0,
            integrity(r.integrity_ok)
        );
    }
    held &= combo.refreshes_per_sec < smart.refreshes_per_sec
        && combo.refreshes_per_sec < ra.refreshes_per_sec;
    writeln!(
        out,
        "\nThe combination eliminates {:.1}% of baseline refreshes — more than\n\
         Smart Refresh ({:.1}%) or retention-awareness ({:.1}%) alone,\n\
         confirming the paper's §8 orthogonality claim.",
        reduction_pct(combo.refreshes_per_sec, cbr.refreshes_per_sec),
        reduction_pct(smart.refreshes_per_sec, cbr.refreshes_per_sec),
        reduction_pct(ra.refreshes_per_sec, cbr.refreshes_per_sec)
    );
    Ok((out.0, held))
}

/// The 16 MB eDRAM macro at 4 ms retention: the share of its energy
/// refresh takes under CBR, and how much of it Smart Refresh saves.
pub(super) fn edram(_threads: usize) -> Result<Report, SimError> {
    let module = edram_16mb();
    let spec = WorkloadSpec {
        row_hit_frac: 0.4,
        apki: 8.0,
        ..synthetic("edram-bench", 0.4)
    };
    let run = |policy| {
        let retention = module.timing.retention;
        let cfg = ExperimentConfig {
            // On-die macro: via-style interconnect, 3D-like power magnitudes.
            bus: BusEnergyModel::stacked_3d(),
            measure: retention * 24,
            warmup: retention * 8,
            // An on-die eDRAM serves cache-class traffic: its working set
            // is re-touched at millisecond scale, matching the 4 ms interval.
            reference: Duration::from_ms(4),
            ..ExperimentConfig::conventional(
                module.clone(),
                DramPowerParams::stacked_3d_64mb(),
                policy,
            )
        };
        run_experiment(&cfg, &spec)
    };
    let base = run(PolicyKind::CbrDistributed)?;
    let smart = run(PolicyKind::Smart(smart_no_hysteresis()))?;

    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: 16 MB eDRAM macro, {} retention ({:.1}M refreshes/s baseline) ===",
        module.timing.retention,
        module.baseline_refreshes_per_sec() / 1e6
    );
    for r in [&base, &smart] {
        writeln!(
            out,
            "{:<8} refreshes/s {:>12.0} | refresh share {:>5.1}% | total {:>8.3} mJ",
            r.policy,
            r.refreshes_per_sec,
            r.energy.dram.refresh_share() * 100.0,
            r.energy.total_j() * 1e3
        );
    }
    writeln!(
        out,
        "\nsmart vs CBR on eDRAM: {:.1}% fewer refreshes, {:.1}% refresh-energy \
         savings, {:.1}% total savings",
        reduction_pct(smart.refreshes_per_sec, base.refreshes_per_sec),
        smart.energy.refresh_savings_vs(&base.energy) * 100.0,
        smart.energy.total_savings_vs(&base.energy) * 100.0
    );
    writeln!(
        out,
        "\nAt {} retention refresh takes {:.1}% of CBR's DRAM energy, so removing\n\
         {:.1}% of the refreshes saves {:.1}% of the total.",
        module.timing.retention,
        base.energy.dram.refresh_share() * 100.0,
        reduction_pct(smart.refreshes_per_sec, base.refreshes_per_sec),
        smart.energy.total_savings_vs(&base.energy) * 100.0
    );
    Ok((out.0, base.integrity_ok && smart.integrity_ok))
}

/// §6's 32 MB stack next to the 64 MB one: half the rows to refresh and
/// the same access stream concentrated on them. Half-length spans over a
/// seven-benchmark slice of the catalog.
pub(super) fn stack_32mb(_threads: usize) -> Result<Report, SimError> {
    let picks = [
        "fasta",
        "hmmer",
        "mummer",
        "gcc",
        "twolf",
        "radix",
        "perl_twolf",
    ];
    let mut out = Out::default();
    let mut held = true;
    for module in [
        stacked_3d_64mb(Duration::from_ms(64)),
        stacked_3d_32mb(Duration::from_ms(64)),
    ] {
        writeln!(
            out,
            "=== {} @ {} ({:.0} baseline refreshes/s) ===",
            module.name,
            module.timing.retention,
            module.baseline_refreshes_per_sec()
        );
        let mut reductions = Vec::new();
        for name in picks {
            let entry = find(name).ok_or(SimError::Config {
                what: "a 32 MB stack pick is missing from the catalog",
            })?;
            let base_cfg = ExperimentConfig {
                reference: Duration::from_ms(64),
                // The program's footprint is the same stream either way;
                // only the cache underneath shrinks.
                workload_geometry: Some(stacked_3d_64mb(Duration::from_ms(64)).geometry),
                ..ExperimentConfig::stacked(
                    module.clone(),
                    DramPowerParams::stacked_3d_64mb(),
                    PolicyKind::CbrDistributed,
                )
                .scaled(0.5)
            };
            let smart_cfg = ExperimentConfig {
                policy: PolicyKind::Smart(SmartRefreshConfig::paper_defaults()),
                ..base_cfg.clone()
            };
            let baseline = run_experiment(&base_cfg, &entry.stacked)?;
            let smart = run_experiment(&smart_cfg, &entry.stacked)?;
            held &= smart.integrity_ok;
            let reduction = 1.0 - smart.refreshes_per_sec / baseline.refreshes_per_sec;
            reductions.push(reduction.max(1e-9));
            writeln!(
                out,
                "  {name:<14} reduction {:>6.1}% | memory-behind-cache accesses {:>9}",
                reduction * 100.0,
                smart.memory_behind_cache
            );
        }
        writeln!(
            out,
            "  GMEAN reduction: {:.1}%\n",
            geometric_mean(&reductions) * 100.0
        );
    }
    writeln!(
        out,
        "The 32 MB stack halves the refresh bill outright and concentrates the\n\
         same access stream on half as many rows, so Smart Refresh eliminates a\n\
         larger fraction of it — at the cost of more main-memory traffic behind\n\
         the cache."
    );
    Ok((out.0, held))
}

/// Average DRAM power in watts of the twolf L2-miss stream on the 64 MB
/// stack at `retention`, and whether the run kept every row.
fn twolf_power_w(policy: PolicyKind, retention: Duration) -> Result<(f64, bool), SimError> {
    let cfg = ExperimentConfig {
        reference: Duration::from_ms(64),
        ..ExperimentConfig::stacked(
            stacked_3d_64mb(retention),
            DramPowerParams::stacked_3d_64mb(),
            policy,
        )
    };
    let spec = find("twolf")
        .ok_or(SimError::Config {
            what: "no catalog entry for twolf",
        })?
        .stacked;
    let r = run_experiment(&cfg, &spec)?;
    Ok((r.energy.total_j() / r.span.as_secs_f64(), r.integrity_ok))
}

/// §4.5's loop closed: iterates `retention -> power -> temperature ->
/// retention` to a fixed point for CBR and for Smart Refresh on the
/// 64 MB stack, and compares the settled operating points.
pub(super) fn thermal_feedback(_threads: usize) -> Result<Report, SimError> {
    let model = ThermalModel::stacked_default();
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: thermal feedback on the 64 MB stack (threshold {THRESHOLD_C} C) ===\n\
         model: T = {} C + {} C/W x P_dram | workload: twolf L2-miss stream\n",
        model.base_c, model.r_c_per_w
    );
    let cbr_policy = PolicyKind::CbrDistributed;
    let smart_policy = PolicyKind::Smart(SmartRefreshConfig::paper_defaults());
    let mut intact = true;
    let mut settled = Vec::new();
    for (label, policy) in [("cbr", cbr_policy), ("smart", smart_policy)] {
        // `settle` takes an infallible closure: park the first error and
        // feed it NaN, then surface the error once the loop returns.
        let mut failure = None;
        let point = model.settle(
            |retention| match twolf_power_w(policy, retention) {
                Ok((w, ok)) => {
                    intact &= ok;
                    w
                }
                Err(e) => {
                    failure.get_or_insert(e);
                    f64::NAN
                }
            },
            4,
        );
        if let Some(e) = failure {
            return Err(e);
        }
        writeln!(
            out,
            "{label:<6} settles at {} refresh | {:.1} mW | {:.2} C | {} iterations",
            point.retention,
            point.power_w * 1e3,
            point.temperature_c,
            point.iterations
        );
        settled.push(point);
    }
    let (cbr, smart) = (settled[0], settled[1]);
    let (fixed_cbr, cbr_ok) = twolf_power_w(cbr_policy, Duration::from_ms(32))?;
    let (fixed_smart, smart_ok) = twolf_power_w(smart_policy, Duration::from_ms(32))?;
    writeln!(
        out,
        "\nCBR settles at {} and Smart Refresh at {}: at the settled operating\n\
         points Smart Refresh draws {:.1}% less DRAM power and runs {:.2} C\n\
         cooler (vs {:.1}% less power comparing both at a fixed 32ms interval).",
        cbr.retention,
        smart.retention,
        reduction_pct(smart.power_w, cbr.power_w),
        cbr.temperature_c - smart.temperature_c,
        reduction_pct(fixed_smart, fixed_cbr)
    );
    let held = intact
        && cbr_ok
        && smart_ok
        && smart.power_w <= cbr.power_w
        && smart.temperature_c <= cbr.temperature_c;
    Ok((out.0, held))
}

/// Refresh rate, IPC and APKI of one closed-loop run, and whether every
/// row kept its data.
struct ClosedLoop {
    refreshes_per_sec: f64,
    ipc: f64,
    apki: f64,
    intact: bool,
}

/// Runs `instructions` of `spec` on an in-order core with L1/L2 over an
/// 8 MB, 2 ms-retention module refreshed by `policy`: several full
/// refresh intervals fit in even the shortest run, so the rates are
/// steady-state rather than power-up transient.
fn closed_loop_run<P: RefreshPolicy>(
    spec: &ProgramSpec,
    policy: impl FnOnce(Geometry, Duration) -> P,
    instructions: u64,
) -> Result<ClosedLoop, SimError> {
    let g = Geometry::new(1, 4, 2048, 128, 64);
    let t = TimingParams::ddr2_667().with_retention(Duration::from_ms(2));
    let mut cpu = Cpu::new(
        CpuConfig::table1_default(),
        kernel::build(g, t, policy(g, t.retention)),
    );
    let mut prog = SyntheticProgram::new(spec.clone(), 0xBEEF);
    cpu.run(&mut prog, instructions)?;
    cpu.controller().check_sanitizer(cpu.controller().now())?;
    let device = cpu.controller().device();
    let elapsed = cpu.now().as_secs_f64();
    Ok(ClosedLoop {
        refreshes_per_sec: device.stats().total_refreshes() as f64 / elapsed,
        ipc: cpu.stats().ipc(),
        apki: cpu.stats().apki(),
        intact: device.check_integrity(cpu.controller().now()).is_ok(),
    })
}

/// The open-loop methodology cross-checked one level up: L2 misses of an
/// in-order core stall it, so IPC reacts to the memory system. Smart
/// Refresh must still eliminate refreshes on the emergent DRAM stream,
/// keep data, and never hurt IPC — Fig 18 without the CPI model.
pub(super) fn closed_loop(_threads: usize) -> Result<Report, SimError> {
    let instructions = 6_000_000u64;
    let mut out = Out::default();
    writeln!(
        out,
        "=== Cross-check: closed-loop CPU -> L1 -> L2 -> DRAM ({instructions} instructions) ==="
    );
    writeln!(
        out,
        "{:<16} {:<7} {:>12} {:>8} {:>8}",
        "program", "policy", "refreshes/s", "ipc", "apki"
    );
    let mut held = true;
    for spec in [
        ProgramSpec::pointer_chase(4 << 20), // half the module
        ProgramSpec::streaming(4 << 20),
        ProgramSpec::cache_resident(),
    ] {
        let base = closed_loop_run(&spec, CbrDistributed::new, instructions)?;
        let smart = closed_loop_run(
            &spec,
            |g, retention| SmartRefresh::new(g, retention, smart_no_hysteresis()),
            instructions,
        )?;
        for (label, o) in [("cbr", &base), ("smart", &smart)] {
            writeln!(
                out,
                "{:<16} {:<7} {:>12.0} {:>8.3} {:>8.1}",
                spec.name, label, o.refreshes_per_sec, o.ipc, o.apki
            );
        }
        writeln!(
            out,
            "{:<16} reduction {:.1}% | IPC delta {:+.2}%\n",
            "",
            reduction_pct(smart.refreshes_per_sec, base.refreshes_per_sec),
            (smart.ipc / base.ipc - 1.0) * 100.0
        );
        held &= base.intact && smart.intact && smart.ipc >= base.ipc * 0.995;
    }
    writeln!(
        out,
        "DRAM-touching programs see real refresh elimination on the stream that\n\
         emerges from the cache hierarchy, and IPC never degrades — the Fig 18\n\
         conclusion reproduced without the analytic CPI model."
    );
    Ok((out.0, held))
}

/// A half-length idle-OS run on the 2 GB module under `policy`.
fn idle_os_run(policy: PolicyKind) -> ExperimentConfig {
    ExperimentConfig::conventional(conventional_2gb(), DramPowerParams::ddr2_2gb(), policy)
        .scaled(0.5)
}

/// Fraction of a run's span the module spent in precharge power-down.
fn powerdown_residency(r: &RunResult) -> f64 {
    r.ctrl.powerdown_time.as_secs_f64() / r.span.as_secs_f64()
}

/// The ITSY motivation (§1): on a nearly idle module every refresh also
/// wakes the module from power-down, so eliminating refreshes stretches
/// power-down residency as well as cutting refresh energy.
pub(super) fn powerdown(_threads: usize) -> Result<Report, SimError> {
    let spec = idle_os().conventional;
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: power-down residency on the idle-OS workload ==="
    );
    writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>12} {:>12}",
        "policy", "refreshes/s", "pd residency", "bg mJ", "total mJ"
    );
    let base = run_experiment(&idle_os_run(PolicyKind::CbrDistributed), &spec)?;
    let smart = run_experiment(
        &idle_os_run(PolicyKind::Smart(SmartRefreshConfig::paper_defaults())),
        &spec,
    )?;
    for r in [&base, &smart] {
        writeln!(
            out,
            "{:<8} {:>12.0} {:>13.1}% {:>12.2} {:>12.2}",
            r.policy,
            r.refreshes_per_sec,
            powerdown_residency(r) * 100.0,
            r.energy.dram.background_j * 1e3,
            r.energy.total_j() * 1e3
        );
    }
    let (base_res, smart_res) = (powerdown_residency(&base), powerdown_residency(&smart));
    writeln!(
        out,
        "\nSmart Refresh removes {:.1}% of refreshes and stretches power-down\n\
         residency from {:.1}% to {:.1}% of the run — background and refresh\n\
         energy fall together, for {:.1}% total savings on a nearly-idle module.",
        reduction_pct(smart.refreshes_per_sec, base.refreshes_per_sec),
        base_res * 100.0,
        smart_res * 100.0,
        smart.energy.total_savings_vs(&base.energy) * 100.0
    );
    let held = base.integrity_ok && smart.integrity_ok && smart_res >= base_res;
    Ok((out.0, held))
}

/// Counter power states across CKE-low windows: keep the SRAM on (and pay
/// leakage), wipe it on wake (and refresh everything again), or
/// checkpoint it (and pay the round trip), priced on the idle OS; then the
/// persistent-vs-reset refresh counts across a sweep of idle fractions.
pub(super) fn counter_power(_threads: usize) -> Result<Report, SimError> {
    let module = conventional_2gb();
    let spec = idle_os().conventional;
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: counter power-state policy on the idle-OS workload ==="
    );
    writeln!(
        out,
        "{:<20} {:>12} {:>14} {:>12} {:>12}",
        "counter policy", "refreshes/s", "pd residency", "ctr-pwr uJ", "total mJ"
    );
    let mut held = true;
    let mut results = Vec::new();
    for counter_power in [
        priced_persistent(&module.geometry),
        CounterPowerConfig::conservative_reset(),
        CounterPowerConfig::snapshot(CounterPowerConfig::SNAPSHOT_J_PER_ENTRY),
    ] {
        let cfg = ExperimentConfig {
            counter_power,
            ..idle_os_run(PolicyKind::Smart(SmartRefreshConfig::paper_defaults()))
        };
        let r = run_experiment(&cfg, &spec)?;
        held &= r.integrity_ok;
        writeln!(
            out,
            "{:<20} {:>12.0} {:>13.1}% {:>12.3} {:>12.2}",
            counter_power.policy.as_str(),
            r.refreshes_per_sec,
            powerdown_residency(&r) * 100.0,
            r.energy.counter_power_j * 1e6,
            r.energy.total_j() * 1e3
        );
        results.push(r);
    }
    let (persistent, reset, snapshot) = (&results[0], &results[1], &results[2]);
    held &= reset.refreshes_per_sec >= persistent.refreshes_per_sec
        && (snapshot.refreshes_per_sec - persistent.refreshes_per_sec).abs() < 1e-9;
    let cbr_rate = module.baseline_refreshes_per_sec();
    writeln!(
        out,
        "\nConservative reset issues {:.2}x the refreshes of persistent counters\n\
         and {:.2}x the module's {:.0}/s CBR rate; snapshot matches persistent's\n\
         rate for {:.3} uJ of checkpoint traffic vs {:.3} uJ of retention\n\
         leakage under persistent counters.\n",
        reset.refreshes_per_sec / persistent.refreshes_per_sec,
        reset.refreshes_per_sec / cbr_rate,
        cbr_rate,
        snapshot.energy.counter_power_j * 1e6,
        persistent.energy.counter_power_j * 1e6,
    );

    writeln!(
        out,
        "=== Idle-fraction sweep (campaign module, persistent vs reset) ==="
    );
    writeln!(
        out,
        "{:<14} {:>6} {:>11} {:>9} {:>9}",
        "access gap", "idle%", "persistent", "reset", "forfeited"
    );
    let campaign = CampaignConfig::quick(0x90da);
    let gaps: Vec<_> = (0..5).map(|k| campaign.access_gap * (1 << k)).collect();
    for p in idle_sweep(&campaign, &gaps)? {
        held &= p.holds();
        writeln!(
            out,
            "{:<14} {:>6.1} {:>11} {:>9} {:>9}",
            format!("{:.0} us", p.access_gap.as_secs_f64() * 1e6),
            p.idle_fraction * 100.0,
            p.refreshes_persistent,
            p.refreshes_reset,
            p.forfeited_refreshes(),
        );
    }
    Ok((out.0, held))
}

/// §4.6's closing claim under phase changes: a program alternating a
/// DRAM-active phase with one far below the 1% access watermark, with the
/// activity monitor on.
pub(super) fn phase_hysteresis(_threads: usize) -> Result<Report, SimError> {
    let module = mini_module();
    let busy = WorkloadSpec {
        apki: 3.0,
        ..synthetic("busy-phase", 0.30)
    };
    // Far below the 1% access watermark.
    let quiet = WorkloadSpec {
        intensity: 1.0,
        apki: 3.0,
        ..synthetic("quiet-phase", 0.0004)
    };
    let phase_len = module.timing.retention * 6; // 96 ms per phase

    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: hysteresis across working-set phases \
         (busy {} / quiet {}, {} per phase) ===",
        busy.coverage, quiet.coverage, phase_len
    );
    writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>10}",
        "policy", "refreshes/s", "totE mJ", "integrity"
    );
    let mut results = Vec::new();
    for policy in [
        PolicyKind::CbrDistributed,
        PolicyKind::Smart(SmartRefreshConfig {
            hysteresis: Some(HysteresisConfig::paper_defaults()),
            ..SmartRefreshConfig::paper_defaults()
        }),
    ] {
        // Six full busy/quiet cycles; the workload's natural timescale is
        // the module's own 16 ms interval.
        let cfg = ExperimentConfig {
            warmup: phase_len * 2,
            measure: phase_len * 10,
            reference: module.timing.retention,
            ..mini_run(policy)
        };
        let horizon = cfg.warmup + cfg.measure;
        let events = PhasedGenerator::new(
            &busy,
            &quiet,
            module.geometry,
            module.timing.retention,
            phase_len,
            0xF00D,
        )
        .take_while(move |e| e.time.as_ps() <= horizon.as_ps());
        let r = run_experiment_with_events(&cfg, events, "phased", 3.0)?;
        writeln!(
            out,
            "{:<8} {:>12.0} {:>12.2} {:>10}",
            r.policy,
            r.refreshes_per_sec,
            r.energy.total_j() * 1e3,
            integrity(r.integrity_ok)
        );
        results.push(r);
    }
    let (base, smart) = (&results[0], &results[1]);
    writeln!(
        out,
        "\nAcross alternating busy/quiet phases Smart Refresh with the §4.6\n\
         monitor removes {:.1}% of refreshes and {:.1}% of total energy.",
        reduction_pct(smart.refreshes_per_sec, base.refreshes_per_sec),
        smart.energy.total_savings_vs(&base.energy) * 100.0
    );
    let held =
        base.integrity_ok && smart.integrity_ok && smart.refreshes_per_sec < base.refreshes_per_sec;
    Ok((out.0, held))
}

/// Four independent channels under a 70/20/10/0 traffic split: hot
/// channels skip refreshes while the idle one sweeps periodically.
pub(super) fn multichannel(_threads: usize) -> Result<Report, SimError> {
    let module = mini_module(); // 4096 rows per channel, 16 ms retention
    let channels = 4u32;
    let interleave = 4096u64;
    let mut sys = MultiChannelSystem::new(module.clone(), channels, interleave, || {
        PolicyKind::Smart(smart_no_hysteresis())
    })?;

    let horizon = Instant::ZERO + module.timing.retention * 8;
    let mut rng = Rng::seed_from_u64(0xCAFE);
    let mut now = Instant::ZERO;
    while now < horizon {
        now += Duration::from_ns(rng.gen_range(200..2_000));
        let r: f64 = rng.gen_f64();
        let channel = if r < 0.7 {
            0u64
        } else if r < 0.9 {
            1
        } else {
            2
        };
        // Random interleave block plus a random row-sized offset inside
        // it, so accesses spread over every row of the channel.
        let block = rng.gen_range(0..2048u64);
        let offset = rng.gen_range(0..16u64) * 256; // 16 rows per 4 KB block
        let addr = (block * u64::from(channels) + channel) * interleave + offset;
        sys.access(addr, rng.gen_bool(0.3), now)?;
    }
    sys.advance_to(horizon)?;
    sys.check_sanitizer(horizon)?;

    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: 4-channel system with skewed traffic (70/20/10/0) ==="
    );
    writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>12}",
        "channel", "demand accs", "refreshes", "reduction"
    );
    let span = horizon.as_secs_f64();
    let baseline = module.baseline_refreshes_per_sec();
    for i in 0..channels as usize {
        let rate = sys.channel(i).device().stats().total_refreshes() as f64 / span;
        writeln!(
            out,
            "{i:>8} {:>14} {:>14.0} {:>11.1}%",
            sys.channel(i).stats().transactions,
            rate,
            reduction_pct(rate, baseline)
        );
    }
    writeln!(
        out,
        "\nHotter channels skip more refreshes; the untouched channel sweeps at\n\
         the full periodic rate — counters, staggering and the queue bound all\n\
         hold per channel with no cross-channel coupling."
    );
    Ok((out.0, sys.check_integrity(horizon).is_ok()))
}

/// Co-scheduled vs uncoordinated maintenance at 1, 2 and 4 channels under
/// the co-scheduling campaign's clean load.
pub(super) fn coschedule(_threads: usize) -> Result<Report, SimError> {
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: co-scheduled vs uncoordinated maintenance (clean load) ==="
    );
    writeln!(
        out,
        "{:>8} {:>14} {:>16} {:>16} {:>14} {:>12} {:>10}",
        "channels", "setup", "scrubs", "closures", "deferred", "scrub mJ", "interval"
    );
    let mut held = true;
    for channels in [1u32, 2, 4] {
        let cfg = CoscheduleConfig {
            channels,
            ..CoscheduleConfig::quick(0xC05C)
        };
        let covering = cfg.covering().interval.as_secs_f64();
        for setup in [Setup::Uncoordinated, Setup::Coscheduled] {
            let o = run_coschedule_setup(&cfg, setup, Load::Clean)?;
            held &= o.missed_deadlines == 0 && o.end_violations.is_empty();
            writeln!(
                out,
                "{channels:>8} {:>14} {:>16} {:>16} {:>14} {:>12.4} {:>9.1}x",
                match setup {
                    Setup::Uncoordinated => "uncoordinated",
                    Setup::Coscheduled => "coscheduled",
                },
                o.scrubs.iter().sum::<u64>(),
                o.closures,
                o.deferred_scrubs,
                o.scrub_energy.total_j() * 1e3,
                o.final_interval.as_secs_f64() / covering,
            );
        }
    }
    writeln!(
        out,
        "\nCoordination sheds scrub bandwidth (and energy) the clean system\n\
         does not need at every size, and once there is more than one\n\
         channel to stagger it also closes fewer open pages; with a single\n\
         demand-hot channel the deferrals only shift closures from scrubs\n\
         to the refresh sweep, so the interference win needs real\n\
         multi-channel slack to show up."
    );
    Ok((out.0, held))
}

/// The RAAIMT threshold DDR5 leaves to the platform, swept across the
/// double-sided hammer campaign: below the flip point it stops every
/// uncorrectable error and pays victim-refresh energy; above it, the
/// reverse.
pub(super) fn rfm(_threads: usize) -> Result<Report, SimError> {
    let cfg = RfmCampaignConfig::quick(0xab1f);
    let mut out = Out::default();
    writeln!(
        out,
        "=== Extension: RAAIMT sweep, double-sided hammer (flip threshold 64) ==="
    );
    writeln!(
        out,
        "{:<8} {:>6} {:>10} {:>10} {:>12}",
        "raaimt", "UE", "rfm cmds", "stalls", "rfm (uJ)"
    );
    let points = rfm_threshold_sweep(&cfg, &[8u32, 16, 32, 64, 128, 256])?;
    for (raaimt, o) in &points {
        writeln!(
            out,
            "{:<8} {:>6} {:>10} {:>10} {:>12.3}",
            raaimt,
            o.ctrl.ue_detected,
            o.ctrl.rfm_commands,
            o.ctrl.rfm_backpressure_stalls,
            o.rfm_j * 1e6
        );
    }
    let (Some((tight, tightest)), Some((loose, loosest))) = (points.first(), points.last()) else {
        return Err(SimError::Internal {
            what: "the RAAIMT sweep returned no points",
        });
    };
    writeln!(
        out,
        "\nTradeoff: RAAIMT {} stops every UE at {:.3} uJ; RAAIMT {} leaks {} UEs at {:.3} uJ",
        tight,
        tightest.rfm_j * 1e6,
        loose,
        loosest.ctrl.ue_detected,
        loosest.rfm_j * 1e6
    );
    let held = tightest.ctrl.ue_detected == 0
        && loosest.ctrl.ue_detected > 0
        && tightest.rfm_j > loosest.rfm_j;
    Ok((out.0, held))
}
