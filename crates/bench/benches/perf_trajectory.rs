//! Perf trajectory bench: wall-clock timings for the figure corpus (at
//! 1, 2, and 4 simulation threads), the system campaigns, an
//! orchestrated fleet (single worker vs. a supervised pool), and the
//! conformance tooling (the nine-rule source lint plus the bounded
//! interleaving model check), emitted as `BENCH_12.json` at the
//! workspace root so the numbers are tracked PR-over-PR.
//!
//! Self-contained `harness = false` timing loop — no external benchmark
//! framework, so the workspace builds offline. Wall-clock is inherently
//! host-dependent (thread counts only separate on multicore hosts); the
//! JSON also records the deterministic fleet digest, which must be
//! identical across worker counts, and the figure results themselves are
//! bit-identical across thread counts (see `tests/parallel_determinism.rs`).

use std::path::Path;
use std::time::Instant as WallClock;

use smartrefresh_check::explore::run_model_check;
use smartrefresh_check::run_lint;
use smartrefresh_core::write_atomic;
use smartrefresh_sim::figures::{Evaluation, FigureId};
use smartrefresh_sim::{
    run_campaign, run_coschedule_campaign, run_hot_channel_campaign, run_powerdown_campaign,
    run_rfm_campaign, run_scrub_campaign, CampaignConfig, CoscheduleConfig, HotChannelConfig,
    RfmCampaignConfig,
};

use smartrefresh_orchestrator::{
    run_fleet, FaultTag, FleetCheckpoint, GridSpec, ModuleKind, OrchestratorConfig, PolicyTag,
};

/// Simulated-span scale applied to the figure corpus: small enough that
/// the whole corpus regenerates in tens of seconds on a laptop core.
const FIGURE_SCALE: f64 = 0.02;

/// One timed section of the trajectory.
struct Entry {
    name: &'static str,
    wall_ms: f64,
    detail: String,
}

/// Aborts the bench with a nonzero exit on a failed step (the ops run
/// outside a test harness, so there is no panic machinery to lean on).
fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(err) => {
            eprintln!("perf_trajectory step `{what}` failed: {err}");
            std::process::exit(2);
        }
    }
}

/// Times `op` once and returns (wall ms, result).
fn timed<T>(op: impl FnOnce() -> T) -> (f64, T) {
    let start = WallClock::now();
    let out = op();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// The fleet grid used for the orchestration entries: 32 cells over the
/// miniature modules, both baseline and Smart Refresh, clean and
/// disturbance fault regimes, at full simulated span so the worker pool
/// has real work to spread.
fn fleet_grid() -> GridSpec {
    GridSpec {
        workloads: vec!["gcc".into(), "radix".into()],
        modules: vec![ModuleKind::Mini, ModuleKind::Mini3d],
        policies: vec![PolicyTag::Cbr, PolicyTag::Smart],
        faults: vec![FaultTag::Clean, FaultTag::Disturbance],
        seeds: vec![1, 2],
        scale_bits: 4.0f64.to_bits(),
    }
}

/// Runs the fleet grid to completion with `workers` workers and returns
/// (wall ms, fleet digest).
fn run_fleet_with(workers: usize) -> (f64, u64) {
    let cfg = OrchestratorConfig {
        workers,
        // Fan the whole grid out each epoch: the bench measures worker
        // throughput, not checkpoint cadence.
        cells_per_epoch: 32,
        ..OrchestratorConfig::default()
    };
    let mut ckpt = FleetCheckpoint::fresh(fleet_grid(), None);
    let (ms, res) = timed(|| run_fleet(&mut ckpt, &cfg, None, |_| {}));
    must(res, "fleet campaign");
    (ms, ckpt.fleet_digest())
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let mut entries: Vec<Entry> = Vec::new();

    // The full figure corpus (Figs 6-18 plus motivation/stagger/correctness)
    // at a reduced simulated span, swept over simulation thread counts.
    // The sharded engine merges by catalog index, so every thread count
    // regenerates bit-identical figures; only the wall-clock may move.
    for (name, threads) in [
        ("figures/all/1-thread", 1usize),
        ("figures/all/2-threads", 2),
        ("figures/all/4-threads", 4),
    ] {
        let mut eval = Evaluation::with_scale(FIGURE_SCALE).with_threads(threads);
        let (ms, n) = timed(|| {
            let mut rows = 0usize;
            for id in FigureId::ALL {
                rows += must(eval.figure(id), "figure").rows.len();
            }
            rows
        });
        println!("{name:<35}{ms:>10.1} ms");
        entries.push(Entry {
            name,
            wall_ms: ms,
            detail: format!(
                "{} figures, {n} rows, scale {FIGURE_SCALE}, {threads} thread(s)",
                FigureId::ALL.len()
            ),
        });
    }

    // The four system campaigns at their quick presets.
    let (ms, r) = timed(|| must(run_campaign(&CampaignConfig::quick(6)), "fault campaign"));
    println!("campaign/faults                    {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/faults",
        wall_ms: ms,
        detail: format!("{} scenarios", r.outcomes.len()),
    });
    let (ms, r) = timed(|| {
        must(
            run_scrub_campaign(&CampaignConfig::quick(6)),
            "scrub campaign",
        )
    });
    println!("campaign/scrub                     {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/scrub",
        wall_ms: ms,
        detail: format!("{} scenarios", r.outcomes.len()),
    });
    let (ms, r) = timed(|| {
        must(
            run_powerdown_campaign(&CampaignConfig::quick(6)),
            "powerdown campaign",
        )
    });
    println!("campaign/powerdown                 {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/powerdown",
        wall_ms: ms,
        detail: format!("{} scenarios", r.outcomes.len()),
    });
    let (ms, _) = timed(|| {
        must(
            run_coschedule_campaign(&CoscheduleConfig::quick(6)),
            "coschedule campaign",
        )
    });
    println!("campaign/coschedule                {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/coschedule",
        wall_ms: ms,
        detail: "4 setups x 2 loads".into(),
    });
    let (ms, r) = timed(|| {
        must(
            run_rfm_campaign(&RfmCampaignConfig::quick(6)),
            "rfm campaign",
        )
    });
    println!("campaign/rfm                       {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/rfm",
        wall_ms: ms,
        detail: format!(
            "3 scenarios, {} vs {} UE rows",
            r.undefended.ue_detected, r.defended.ue_detected
        ),
    });
    let (ms, r) = timed(|| {
        must(
            run_hot_channel_campaign(&HotChannelConfig::quick(6)),
            "hot-channel campaign",
        )
    });
    println!("campaign/hotchannel                {ms:>10.1} ms");
    entries.push(Entry {
        name: "campaign/hotchannel",
        wall_ms: ms,
        detail: format!(
            "2 setups, closures {} vs {}, deferred {}",
            r.baseline.closures, r.darp.closures, r.darp.darp.deferred
        ),
    });

    // The orchestrated fleet, single-thread vs. a supervised worker pool.
    // The digest must not depend on the worker count.
    let (solo_ms, solo_digest) = run_fleet_with(1);
    println!("fleet/1-worker                     {solo_ms:>10.1} ms");
    let (pool_ms, pool_digest) = run_fleet_with(4);
    println!("fleet/4-workers                    {pool_ms:>10.1} ms");
    if solo_digest != pool_digest {
        eprintln!(
            "fleet digest diverged across worker counts: {solo_digest:#018x} vs {pool_digest:#018x}"
        );
        std::process::exit(2);
    }
    entries.push(Entry {
        name: "fleet/1-worker",
        wall_ms: solo_ms,
        detail: format!("32 cells, digest {solo_digest:#018x}"),
    });
    entries.push(Entry {
        name: "fleet/4-workers",
        wall_ms: pool_ms,
        detail: format!("32 cells, digest {pool_digest:#018x}"),
    });

    // The conformance tooling itself: the nine-rule source lint over the
    // whole workspace (which must come back clean), and the exhaustive
    // bounded-interleaving model check of the two concurrency protocols.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let (ms, diags) = timed(|| must(run_lint(root), "workspace lint"));
    if !diags.is_empty() {
        eprintln!("workspace lint regressed inside the bench:");
        for d in &diags {
            eprintln!("  {d}");
        }
        std::process::exit(2);
    }
    println!("conformance/lint                   {ms:>10.1} ms");
    entries.push(Entry {
        name: "conformance/lint",
        wall_ms: ms,
        detail: "9-rule workspace lint, 0 findings".into(),
    });
    let (ms, report) = timed(|| must(run_model_check(), "model check"));
    println!("conformance/model-check            {ms:>10.1} ms");
    entries.push(Entry {
        name: "conformance/model-check",
        wall_ms: ms,
        detail: format!(
            "work-cursor {} schedules ({} steps)",
            report.schedules, report.steps
        ),
    });

    // Emit the trajectory file at the workspace root.
    let mut json =
        String::from("{\n  \"bench\": \"perf_trajectory\",\n  \"schema\": 1,\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.1}, \"detail\": \"{}\"}}{comma}\n",
            json_escape(e.name),
            e.wall_ms,
            json_escape(&e.detail)
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_12.json");
    must(
        write_atomic(path.as_ref(), json.as_bytes()),
        "write BENCH_12.json",
    );
    println!("wrote {path}");
}
