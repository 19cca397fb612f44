//! Perf trajectory bench: wall-clock timings for what the repository
//! benchmark (`srbench/`) does not measure — the six resilience campaigns
//! at their quick presets, and the conformance tooling (the nine-rule
//! source lint plus the bounded interleaving model check) — emitted as
//! `BENCH_12.json` at the workspace root. The figure corpus, the fleet
//! and their thread scaling are srbench's `figures` and `fleet`
//! workloads (`sim.parallel.speedup`, `orchestrator.parallel_eff`).
//!
//! Self-contained `harness = false` timing loop — no external benchmark
//! framework, so the workspace builds offline. Each entry is one
//! wall-clock pass, so the numbers are host-dependent and noisy.

use std::path::Path;
use std::time::Instant as WallClock;

use smartrefresh_check::explore::run_model_check;
use smartrefresh_check::run_lint;
use smartrefresh_core::write_atomic;
use smartrefresh_sim::{
    default_threads, run_campaign, run_coschedule_campaign_threaded,
    run_hot_channel_campaign_threaded, run_powerdown_campaign, run_rfm_campaign,
    run_scrub_campaign, CampaignConfig, CoscheduleConfig, HotChannelConfig, RfmCampaignConfig,
};

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

/// Times `op` once, prints the entry, and appends it to `entries`; `op`
/// returns the entry's detail line.
fn record(entries: &mut Vec<Entry>, name: &'static str, op: impl FnOnce() -> String) {
    let start = WallClock::now();
    let detail = op();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("{name:<35}{wall_ms:>10.1} ms");
    entries.push(Entry {
        name,
        wall_ms,
        detail,
    });
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

    // The six resilience campaigns at their quick presets.
    let cfg = CampaignConfig::quick(6);
    record(&mut entries, "campaign/faults", || {
        let r = must(run_campaign(&cfg), "fault campaign");
        format!("{} scenarios", r.outcomes.len())
    });
    record(&mut entries, "campaign/scrub", || {
        let r = must(run_scrub_campaign(&cfg), "scrub campaign");
        format!("{} scenarios", r.outcomes.len())
    });
    record(&mut entries, "campaign/powerdown", || {
        let r = must(run_powerdown_campaign(&cfg), "powerdown campaign");
        format!("{} scenarios", r.outcomes.len())
    });
    record(&mut entries, "campaign/coschedule", || {
        let co = CoscheduleConfig::quick(6);
        must(
            run_coschedule_campaign_threaded(&co, default_threads()),
            "coschedule campaign",
        );
        "4 setups x 2 loads".into()
    });
    record(&mut entries, "campaign/rfm", || {
        let r = must(
            run_rfm_campaign(&RfmCampaignConfig::quick(6)),
            "rfm campaign",
        );
        format!(
            "3 scenarios, {} vs {} UE rows",
            r.undefended.ctrl.ue_detected, r.defended.ctrl.ue_detected
        )
    });
    record(&mut entries, "campaign/hotchannel", || {
        let hot = HotChannelConfig::quick(6);
        let r = must(
            run_hot_channel_campaign_threaded(&hot, default_threads()),
            "hot-channel campaign",
        );
        format!(
            "2 setups, closures {} vs {}, deferred {}",
            r.baseline.closures, r.darp.closures, r.darp.darp.deferred
        )
    });

    // The conformance tooling itself: the nine-rule source lint over the
    // whole workspace (which must come back clean), and the exhaustive
    // bounded-interleaving model check of the two concurrency protocols.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    record(&mut entries, "conformance/lint", || {
        let diags = must(run_lint(root), "workspace lint");
        if !diags.is_empty() {
            eprintln!("workspace lint regressed inside the bench:");
            for d in &diags {
                eprintln!("  {d}");
            }
            std::process::exit(2);
        }
        "9-rule workspace lint, 0 findings".into()
    });
    record(&mut entries, "conformance/model-check", || {
        let report = must(run_model_check(), "model check");
        format!(
            "work-cursor {} schedules ({} steps)",
            report.schedules, report.steps
        )
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
