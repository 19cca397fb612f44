//! The repository benchmark: three workloads run through the library's
//! public entry points, end-to-end metrics from untraced runs and a
//! per-layer table from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path srbench/Cargo.toml -- \
//!     --workload <figures|fleet|maintenance> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check makes the exit
//! code nonzero. See `README.md` beside this package for the workloads,
//! the metrics and the layer map.

mod speed;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant as Clock;

use stats::{result_json, Metric};
use workloads::{Outcome, Tally, TracedPass};

/// The end-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ref_wall_s", "s"),
    ("sim_us_per_ref_s", "us/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, in order. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("workloads.events", "count"),
    ("workloads.self_s", "s"),
    ("workloads.ns_per_event", "ns"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.self_s", "s"),
    ("core.policy.ticks", "count"),
    ("core.policy.idle_tick_frac", "ratio"),
    ("core.policy.self_s", "s"),
    ("core.policy.ns_per_tick", "ns"),
    ("core.policy.row_events", "count"),
    ("core.policy.sram_ops", "count"),
    ("ctrl.access.calls", "count"),
    ("ctrl.access.self_s", "s"),
    ("ctrl.access.ns_per_call", "ns"),
    ("ctrl.advance.calls", "count"),
    ("ctrl.advance.self_s", "s"),
    ("ctrl.host_ns_per_cmd", "ns"),
    ("ctrl.row_hit_rate", "ratio"),
    ("ctrl.refreshes_issued", "count"),
    ("ctrl.refreshes_delayed", "count"),
    ("ctrl.scrubs_issued", "count"),
    ("ctrl.ce_corrected", "count"),
    ("ctrl.rfm_commands", "count"),
    ("dram.activates", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.precharges", "count"),
    ("dram.refreshes", "count"),
    ("dram.refreshes_closing_page", "count"),
    ("dram.scrubs", "count"),
    ("dram.rfm_refreshes", "count"),
    ("dram.sarp_overlaps", "count"),
    ("dram.check.self_s", "s"),
    ("energy.calls", "count"),
    ("energy.self_s", "s"),
    ("sim.build.self_s", "s"),
    ("sim.parallel.speedup", "x"),
    ("sim.paper_err_pct", "%"),
    ("sim.demand_p99_ns", "ns"),
    ("sim.system.access.calls", "count"),
    ("sim.system.access.self_s", "s"),
    ("sim.system.advance.calls", "count"),
    ("sim.system.advance.self_s", "s"),
    ("sim.system.advance.speedup", "x"),
    ("sim.scheduler.advance.calls", "count"),
    ("sim.scheduler.advance.self_s", "s"),
    ("sim.scheduler.scrubs", "count"),
    ("sim.scheduler.deferred_scrubs", "count"),
    ("sim.scheduler.forced_closures", "count"),
    ("sim.scheduler.missed_deadlines", "count"),
    ("ctrl.darp.deferred", "count"),
    ("ctrl.darp.ooo_issued", "count"),
    ("ctrl.darp.forced", "count"),
    ("orchestrator.cells", "count"),
    ("orchestrator.cell_s_sum", "s"),
    ("orchestrator.parallel_eff", "ratio"),
    ("orchestrator.overhead_s", "s"),
    ("orchestrator.straggler_frac", "ratio"),
    ("orchestrator.checkpoint.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["figures", "fleet", "maintenance"];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the per-layer table from a traced pass; every [`PER_LAYER`]
/// name appears, in order.
fn layer_metrics(tp: &TracedPass) -> Vec<Metric> {
    let l = &tp.layers;
    let s = |ns: u64| ns as f64 * 1e-9;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let ctrl_ns = l.ctrl_access_ns + l.ctrl_advance_ns;
    let traced = tp.traced_ns.max(1) as f64;
    let mut v: BTreeMap<&str, f64> = BTreeMap::from([
        ("workloads.events", l.gen_events as f64),
        ("workloads.self_s", s(l.gen_ns)),
        ("workloads.ns_per_event", per(l.gen_ns as f64, l.gen_events)),
        ("cache.lookups", l.cache_lookups as f64),
        ("cache.hit_rate", per(l.cache_hits as f64, l.cache_lookups)),
        ("cache.self_s", s(l.cache_ns)),
        ("core.policy.ticks", l.policy.ticks as f64),
        (
            "core.policy.idle_tick_frac",
            per(l.policy.idle_ticks as f64, l.policy.ticks),
        ),
        ("core.policy.self_s", s(l.policy.ns())),
        (
            "core.policy.ns_per_tick",
            per(l.policy.tick_ns as f64, l.policy.ticks),
        ),
        ("core.policy.row_events", l.policy.rows.calls as f64),
        ("core.policy.sram_ops", l.sram_ops as f64),
        ("ctrl.access.calls", l.ctrl_access_calls as f64),
        ("ctrl.access.self_s", s(l.ctrl_access_ns)),
        (
            "ctrl.access.ns_per_call",
            per(l.ctrl_access_ns as f64, l.ctrl_access_calls),
        ),
        ("ctrl.advance.calls", l.ctrl_advance_calls as f64),
        ("ctrl.advance.self_s", s(l.ctrl_advance_ns)),
        (
            "ctrl.host_ns_per_cmd",
            if ctrl_ns == 0 {
                0.0
            } else {
                per(ctrl_ns as f64, l.device_commands())
            },
        ),
        (
            "ctrl.row_hit_rate",
            per(l.ctrl.row_hits as f64, l.ctrl.transactions),
        ),
        ("ctrl.refreshes_issued", l.ctrl.refreshes_issued as f64),
        ("ctrl.refreshes_delayed", l.ctrl.refreshes_delayed as f64),
        ("ctrl.scrubs_issued", l.ctrl.scrubs_issued as f64),
        ("ctrl.ce_corrected", l.ctrl.ce_corrected as f64),
        ("ctrl.rfm_commands", l.ctrl.rfm_commands as f64),
        ("dram.activates", l.dram.activates as f64),
        ("dram.reads", l.dram.reads as f64),
        ("dram.writes", l.dram.writes as f64),
        ("dram.precharges", l.dram.precharges as f64),
        ("dram.refreshes", l.dram.total_refreshes() as f64),
        (
            "dram.refreshes_closing_page",
            l.dram.refreshes_closing_open_page as f64,
        ),
        ("dram.scrubs", l.dram.scrubs as f64),
        ("dram.rfm_refreshes", l.dram.rfm_refreshes as f64),
        (
            "dram.sarp_overlaps",
            l.dram.sarp_overlapped_refreshes as f64,
        ),
        ("dram.check.self_s", s(l.dram_check_ns)),
        ("energy.calls", l.energy_calls as f64),
        ("energy.self_s", s(l.energy_ns)),
        ("sim.build.self_s", s(l.build_ns)),
        ("sim.system.access.calls", l.sys_access.calls as f64),
        ("sim.system.access.self_s", s(l.sys_access.ns)),
        ("sim.system.advance.calls", l.sys_advance_calls as f64),
        ("sim.system.advance.self_s", s(l.sys_advance_ns)),
        ("sim.scheduler.advance.calls", l.sched.calls as f64),
        ("sim.scheduler.advance.self_s", s(l.sched.ns)),
        ("sim.scheduler.scrubs", l.sched_scrubs as f64),
        ("sim.scheduler.deferred_scrubs", l.sched_deferred as f64),
        ("sim.scheduler.forced_closures", l.sched_forced as f64),
        ("sim.scheduler.missed_deadlines", l.sched_missed as f64),
        ("ctrl.darp.deferred", l.darp.deferred as f64),
        ("ctrl.darp.ooo_issued", l.darp.ooo_issued as f64),
        ("ctrl.darp.forced", l.darp.forced as f64),
        ("trace.wall_s", s(tp.traced_ns)),
        ("trace.untraced_wall_s", s(tp.untraced_ns)),
        (
            "trace.overhead_frac",
            traced / tp.untraced_ns.max(1) as f64 - 1.0,
        ),
        (
            "trace.unattributed_frac",
            (traced - l.self_ns() as f64) / traced,
        ),
    ]);
    for m in &tp.extra {
        v.insert(m.name, m.value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs traced passes until `seconds` have passed (at least one) and
/// reports the pass with the median traced wall.
fn traced(args: &Args, threads: usize) -> Outcome {
    let mut tally = Tally::default();
    let started = Clock::now();
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        passes.push(match args.workload.as_str() {
            "figures" => workloads::traced_figures(args.seed, threads, &mut tally),
            "fleet" => workloads::traced_fleet(args.seed, threads, &mut tally),
            _ => workloads::traced_maintenance(args.seed, threads, &mut tally),
        });
    }
    passes.sort_by_key(|p| p.traced_ns);
    let mid = &passes[passes.len() / 2];
    Outcome {
        tally,
        metrics: layer_metrics(mid),
        lines: vec![format!(
            "{} traced: {} passes, reporting the median",
            args.workload,
            passes.len()
        )],
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    let out = if args.trace {
        traced(&args, threads)
    } else {
        match args.workload.as_str() {
            "figures" => workloads::figures(args.seconds, threads),
            "fleet" => workloads::fleet(args.seed, args.seconds, threads),
            _ => workloads::maintenance(args.seed, args.seconds, threads),
        }
    };
    println!(
        "workload {} seed {} trace {} nproc {threads}",
        args.workload, args.seed, args.trace as u8
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("  {:<36}{:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &out.tally.notes {
        eprintln!("FAILED: {note}");
    }
    let t = &out.tally;
    println!(
        "{}",
        result_json(t.failed == 0, t.attempted.max(1), t.failed, &out.metrics)
    );
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::{valid_name, Json};

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
    }

    #[test]
    fn layer_table_names_every_per_layer_metric() {
        let got: Vec<&str> = layer_metrics(&TracedPass::default())
            .iter()
            .map(|m| m.name)
            .collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                        (Some(Json::Str(n)), None) => (n.clone(), String::new()),
                        _ => panic!("{key} entry without a name"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key}"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let ok = args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fleet", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "fleet", "--bogus", "1"]).is_err());
    }
}
