//! `smart-refresh` — command-line interface to the reproduction, and the
//! one entry point for the paper's figures and every pinned study.
//!
//! ```text
//! smart-refresh figures [figNN|all] [--threads N] [--scale S] [--ecc on|off] [--csv DIR]
//! smart-refresh study <name|all> [--threads N]
//! smart-refresh run --workload <name> --module <2gb|4gb|3d64|3d32> --policy <cbr|ras|burst|smart|none> [--scale S]
//! smart-refresh record --workload <name> --module <...> --seconds <S> --out <file>
//! smart-refresh replay --trace <file> --module <...> --policy <...>
//! smart-refresh orchestrate [--out DIR] [--chaos SEED] | --resume DIR | --verify DIR
//! smart-refresh list
//! smart-refresh info
//! ```
//!
//! Unknown flags are rejected, not ignored: a typo like `--seeed` fails
//! loudly instead of silently running the default configuration.

use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use smart_refresh::core::{write_atomic, SmartRefreshConfig};
use smart_refresh::dram::configs::{
    conventional_2gb, conventional_4gb, stacked_3d_64mb, ModuleConfig,
};
use smart_refresh::dram::time::{Duration, Instant};
use smart_refresh::energy::sram::area_overhead_kb;
use smart_refresh::energy::DramPowerParams;
use smart_refresh::orchestrator::{
    render_fleet, run_fleet, verify_fleet, ChaosConfig, FaultTag, FleetCheckpoint, GridSpec,
    ModuleKind, OrchestratorConfig, PolicyTag,
};
use smart_refresh::sim::figures::{Evaluation, FigureId};
use smart_refresh::sim::parallel::resolve_threads;
use smart_refresh::sim::report::{figure_csv, render_figure, render_run};
use smart_refresh::sim::{run_experiment, ExperimentConfig, PolicyKind, Topology};
use smart_refresh::study::{self, Study, STUDIES};
use smart_refresh::workloads::trace::{read_trace, write_trace};
use smart_refresh::workloads::{catalog, find, AccessGenerator, WorkloadSpec};

/// Writes to stdout. Every stdout byte of the CLI goes through here, so a
/// reader that goes away early (`smart-refresh figures all | head -1`)
/// ends the process quietly with status 0, as it would a Unix filter,
/// instead of a `println!` panic. Any other write error is reported on
/// stderr and exits 1.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let result = match cmd {
        "figures" => cmd_figures(&args[1..]),
        "study" => match cmd_study(&args[1..]) {
            // A failed study has already reported on stderr.
            Ok(false) => return ExitCode::FAILURE,
            other => other.map(|_| ()),
        },
        "run" => cmd_run(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "orchestrate" => cmd_orchestrate(&args[1..]),
        "list" => cmd_list(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?}; try `smart-refresh help`"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    outln!(
        "smart-refresh — reproduction of Smart Refresh (MICRO 2007)\n\
         \n\
         USAGE:\n\
         \u{20}  smart-refresh figures [figNN|all] [--threads N] [--scale S] [--ecc on|off]\n\
         \u{20}      [--csv DIR]                         regenerate evaluation figures\n\
         \u{20}  smart-refresh study <name|all> [--threads N]\n\
         \u{20}      pinned studies: paper tables and Figs 1-4, ablations, extensions,\n\
         \u{20}      resilience campaigns (nonzero exit if a claim fails or a digest moves)\n\
         \u{20}  smart-refresh run --workload W --module M --policy P [--scale S] [--seed N]\n\
         \u{20}  smart-refresh sweep --workload W --module M [--scale S]   counter/segment sweep\n\
         \u{20}  smart-refresh record --workload W --module M --seconds S --out FILE\n\
         \u{20}  smart-refresh replay --trace FILE --module M --policy P [--scale S]\n\
         \u{20}  smart-refresh orchestrate [--out DIR] [--workloads W,..] [--modules M,..]\n\
         \u{20}      [--policies P,..] [--faults F,..] [--seeds N] [--seed S] [--scale S] [--workers N]\n\
         \u{20}      [--epoch-cells N] [--max-attempts N] [--deadline-epochs N]\n\
         \u{20}      [--chaos SEED] [--halt-after-epochs N]     crash-safe fleet campaign\n\
         \u{20}  smart-refresh orchestrate --resume DIR   continue from a checkpoint\n\
         \u{20}  smart-refresh orchestrate --verify DIR [--samples K]   replay-verify shards\n\
         \u{20}  smart-refresh list                       list catalog workloads\n\
         \u{20}  smart-refresh info                       module configs & counter areas\n\
         \n\
         MODULES:  2gb | 4gb | 3d64 | 3d32  (orchestrate adds mini | mini3d)\n\
         POLICIES: cbr | ras | burst | smart | none  (orchestrate: cbr|ras|burst|smart|ra)\n\
         FAULTS:   clean | dist  (orchestrate fault-regime axis; dist arms ECC+RFM)\n\
         FIGURES:  --scale scales the simulated spans (default 1.0); --ecc on prices\n\
         \u{20}         SECDED + patrol scrub into the 3D-stacked Figs 12-17\n\
         THREADS:  --threads N sets the simulation worker count (positive\n\
         \u{20}         integer; results are bit-identical at any thread count)\n\
         ENV:      SMARTREFRESH_SANITIZE=1 runs the DDR2 protocol sanitizer"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Rejects flags a subcommand does not understand and surplus positional
/// arguments, in the same voice as the unknown-command path, and returns
/// the first positional argument. Every flag in this CLI takes a value,
/// so each recognised flag consumes two tokens.
fn check_flags<'a>(
    cmd: &str,
    args: &'a [String],
    allowed: &[&str],
    max_positionals: usize,
) -> Result<Option<&'a str>, String> {
    let mut first = None;
    let mut positionals = 0usize;
    let mut i = 0usize;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if !allowed.contains(&a.as_str()) {
                return Err(format!(
                    "unknown flag {a:?} for `smart-refresh {cmd}`; try `smart-refresh help`"
                ));
            }
            if i + 1 >= args.len() {
                return Err(format!("flag {a:?} needs a value"));
            }
            i += 2;
        } else {
            first = first.or(Some(a.as_str()));
            positionals += 1;
            i += 1;
        }
    }
    if positionals > max_positionals {
        return Err(format!(
            "unexpected argument for `smart-refresh {cmd}`; try `smart-refresh help`"
        ));
    }
    Ok(first)
}

type Module = (&'static str, ModuleConfig, DramPowerParams, Topology);

fn parse_module(name: &str) -> Result<Module, String> {
    match name {
        "2gb" => Ok((
            "2gb",
            conventional_2gb(),
            DramPowerParams::ddr2_2gb(),
            Topology::Conventional,
        )),
        "4gb" => Ok((
            "4gb",
            conventional_4gb(),
            DramPowerParams::ddr2_4gb(),
            Topology::Conventional,
        )),
        "3d64" => Ok((
            "3d64",
            stacked_3d_64mb(Duration::from_ms(64)),
            DramPowerParams::stacked_3d_64mb(),
            Topology::Stacked,
        )),
        "3d32" => Ok((
            "3d32",
            stacked_3d_64mb(Duration::from_ms(32)),
            DramPowerParams::stacked_3d_64mb(),
            Topology::Stacked,
        )),
        other => Err(format!("unknown module {other:?} (2gb|4gb|3d64|3d32)")),
    }
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    match name {
        "cbr" => Ok(PolicyKind::CbrDistributed),
        "ras" => Ok(PolicyKind::RasOnlyDistributed),
        "burst" => Ok(PolicyKind::Burst),
        "smart" => Ok(PolicyKind::Smart(SmartRefreshConfig::paper_defaults())),
        "none" => Ok(PolicyKind::NoRefresh),
        other => Err(format!(
            "unknown policy {other:?} (cbr|ras|burst|smart|none)"
        )),
    }
}

fn build_config(args: &[String]) -> Result<(ExperimentConfig, &'static str), String> {
    let module_name = flag(args, "--module").unwrap_or_else(|| "2gb".into());
    let policy_name = flag(args, "--policy").unwrap_or_else(|| "smart".into());
    let scale = parse_scale(args, 1.0)?;
    let (module_name, module, power, topology) = parse_module(&module_name)?;
    let policy = parse_policy(&policy_name)?;
    let mut cfg = match topology {
        Topology::Conventional => ExperimentConfig::conventional(module, power, policy),
        Topology::Stacked => ExperimentConfig::stacked(module, power, policy),
    }
    .scaled(scale);
    cfg.seed = parse_num(args, "--seed", 0x5eed)?;
    cfg.reference = Duration::from_ms(64);
    Ok((cfg, module_name))
}

/// The `--workload` spec as the figures size it for `module`: the 4 GB
/// module runs the conventional spec at Figs 9–11's rescaled coverage.
fn lookup_spec(args: &[String], module: &str) -> Result<WorkloadSpec, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let entry = find(&name).ok_or_else(|| format!("unknown workload {name:?}; see `list`"))?;
    Ok(match module {
        "2gb" => entry.conventional,
        "4gb" => entry.conventional_4gb(),
        _ => entry.stacked,
    })
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let which = check_flags(
        "figures",
        args,
        &["--threads", "--scale", "--ecc", "--csv"],
        1,
    )?
    .unwrap_or("all");
    let threads = resolve_threads(flag(args, "--threads").as_deref()).map_err(|e| e.to_string())?;
    let scale = parse_scale(args, 1.0)?;
    let mut eval = Evaluation::with_scale(scale).with_threads(threads);
    match flag(args, "--ecc").as_deref() {
        None | Some("off") => {}
        Some("on") => eval = eval.with_ecc(),
        Some(other) => return Err(format!("bad --ecc {other:?} (on|off)")),
    }
    let csv_dir = flag(args, "--csv");
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create csv dir {dir}: {e}"))?;
    }
    let mut matched = false;
    for id in FigureId::ALL {
        let name = format!("{id:?}").to_lowercase();
        if which != "all" && name != which.to_lowercase() {
            continue;
        }
        matched = true;
        let fig = eval.figure(id).map_err(|e| e.to_string())?;
        outln!("{}", render_figure(&fig));
        if let Some(dir) = &csv_dir {
            // Lowercase only the file name: the directory is user input
            // and must keep its case.
            let path = format!("{dir}/{name}.csv");
            write_atomic(path.as_ref(), figure_csv(&fig).as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    if !matched {
        return Err(format!("unknown figure {which:?} (fig06..fig18 or all)"));
    }
    Ok(())
}

/// Runs the named study (or all of them), prints each report, and checks
/// it against its claim and its pinned digest. Returns whether every one
/// held and matched; failures are reported on stderr, and `Err` is
/// reserved for usage errors.
fn cmd_study(args: &[String]) -> Result<bool, String> {
    let names = || {
        let mut names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
        names.push("all");
        names.join(", ")
    };
    let which = check_flags("study", args, &["--threads"], 1)?
        .ok_or_else(|| format!("missing study name; one of: {}", names()))?;
    let selected: Vec<&Study> = match which {
        "all" => STUDIES.iter().collect(),
        name => vec![study::find(name)
            .ok_or_else(|| format!("unknown study {name:?}; one of: {}", names()))?],
    };
    let threads = resolve_threads(flag(args, "--threads").as_deref()).map_err(|e| e.to_string())?;
    let mut passed = 0usize;
    for s in &selected {
        match (s.run)(threads) {
            Ok((report, held)) => {
                out!("{report}");
                let digest = study::report_digest(&report);
                if !held {
                    eprintln!("study {} failed: {} did not hold", s.name, s.claim);
                } else if digest != s.pin {
                    eprintln!(
                        "study {} failed: report digest {digest:#018x} is not its pin {:#018x}",
                        s.name, s.pin
                    );
                } else {
                    passed += 1;
                }
            }
            Err(e) => eprintln!("study {} aborted: {e}", s.name),
        }
    }
    eprintln!(
        "{passed}/{} studies held their claims and matched their pins",
        selected.len()
    );
    Ok(passed == selected.len())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    check_flags(
        "run",
        args,
        &["--workload", "--module", "--policy", "--scale", "--seed"],
        0,
    )?;
    let (cfg, module_name) = build_config(args)?;
    let spec = lookup_spec(args, module_name)?;
    let r = run_experiment(&cfg, &spec).map_err(|e| e.to_string())?;
    outln!("module {module_name} | {}", render_run(&r));
    outln!("{}", r.energy);
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    check_flags(
        "sweep",
        args,
        &["--workload", "--module", "--scale", "--seed"],
        0,
    )?;
    let (base_cfg, module_name) = build_config(args)?;
    let spec = lookup_spec(args, module_name)?;
    let baseline = {
        let mut c = base_cfg.clone();
        c.policy = PolicyKind::CbrDistributed;
        run_experiment(&c, &spec).map_err(|e| e.to_string())?
    };
    outln!(
        "sweep of Smart Refresh configurations | module {module_name} | workload {}",
        spec.name
    );
    outln!(
        "{:>5} {:>9} {:>12} {:>11} {:>11} {:>8}",
        "bits",
        "segments",
        "refreshes/s",
        "reduction",
        "totE save",
        "queue"
    );
    for bits in [2u32, 3, 4] {
        for segments in [4u32, 8, 16] {
            let mut c = base_cfg.clone();
            c.policy = PolicyKind::Smart(SmartRefreshConfig {
                counter_bits: bits,
                segments,
                queue_capacity: segments as usize,
                hysteresis: None,
            });
            let r = run_experiment(&c, &spec).map_err(|e| e.to_string())?;
            if !r.integrity_ok {
                return Err(format!(
                    "bits={bits} segments={segments}: retention violated"
                ));
            }
            outln!(
                "{bits:>5} {segments:>9} {:>12.0} {:>10.1}% {:>10.1}% {:>8}",
                r.refreshes_per_sec,
                (1.0 - r.refreshes_per_sec / baseline.refreshes_per_sec) * 100.0,
                r.energy.total_savings_vs(&baseline.energy) * 100.0,
                r.queue_high_water
            );
        }
    }
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    check_flags(
        "record",
        args,
        &[
            "--workload",
            "--module",
            "--policy",
            "--scale",
            "--seed",
            "--seconds",
            "--out",
        ],
        0,
    )?;
    let (cfg, module_name) = build_config(args)?;
    let spec = lookup_spec(args, module_name)?;
    let seconds: f64 = flag(args, "--seconds")
        .map(|s| s.parse().map_err(|_| format!("bad --seconds {s:?}")))
        .transpose()?
        .unwrap_or(0.064);
    let path = flag(args, "--out").ok_or("missing --out")?;
    let horizon = Instant::ZERO + Duration::from_ps((seconds * 1e12) as u64);
    let gen = AccessGenerator::new(&spec, cfg.module.geometry, cfg.reference, 0, cfg.seed);
    let events: Vec<_> = gen.take_while(|e| e.time <= horizon).collect();
    let file = File::create(&path).map_err(|e| e.to_string())?;
    write_trace(BufWriter::new(file), &events).map_err(|e| e.to_string())?;
    outln!(
        "wrote {} events ({seconds}s of {}) to {path}",
        events.len(),
        spec.name
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    check_flags(
        "replay",
        args,
        &["--trace", "--module", "--policy", "--scale", "--seed"],
        0,
    )?;
    let (cfg, module_name) = build_config(args)?;
    let path = flag(args, "--trace").ok_or("missing --trace")?;
    let file = File::open(&path).map_err(|e| e.to_string())?;
    let events = read_trace(BufReader::new(file)).map_err(|e| e.to_string())?;
    outln!("replaying {} events from {path}", events.len());
    let r = smart_refresh::sim::experiment::run_experiment_with_events(&cfg, events, "trace", 5.0)
        .map_err(|e| e.to_string())?;
    outln!("module {module_name} | {}", render_run(&r));
    Ok(())
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name)
        .map(|s| s.parse().map_err(|_| format!("bad {name} {s:?}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// The `--scale` span factor (`default` when absent), which every
/// subcommand that takes it requires to be positive and finite.
fn parse_scale(args: &[String], default: f64) -> Result<f64, String> {
    let scale: f64 = parse_num(args, "--scale", default)?;
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(format!(
            "bad --scale {scale:?} (must be positive and finite)"
        ))
    }
}

fn orchestrate_grid(args: &[String]) -> Result<GridSpec, String> {
    let workloads: Vec<String> = flag(args, "--workloads")
        .unwrap_or_else(|| "gcc,radix".into())
        .split(',')
        .map(str::to_string)
        .collect();
    let modules = flag(args, "--modules")
        .unwrap_or_else(|| "mini".into())
        .split(',')
        .map(|m| {
            ModuleKind::parse(m).ok_or_else(|| {
                format!("unknown module {m:?} for orchestrate (mini|mini3d|2gb|4gb|3d64|3d32)")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let policies = flag(args, "--policies")
        .unwrap_or_else(|| "cbr,smart".into())
        .split(',')
        .map(|p| {
            PolicyTag::parse(p).ok_or_else(|| {
                format!("unknown policy {p:?} for orchestrate (cbr|ras|burst|smart|ra)")
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let faults = flag(args, "--faults")
        .unwrap_or_else(|| "clean".into())
        .split(',')
        .map(|f| {
            FaultTag::parse(f)
                .ok_or_else(|| format!("unknown fault regime {f:?} for orchestrate (clean|dist)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seed_base: u64 = parse_num(args, "--seed", 0x5eed)?;
    let seed_count: u64 = parse_num(args, "--seeds", 2)?;
    let scale = parse_scale(args, 0.25)?;
    let grid = GridSpec {
        workloads,
        modules,
        policies,
        faults,
        seeds: (0..seed_count).map(|i| seed_base.wrapping_add(i)).collect(),
        scale_bits: scale.to_bits(),
    };
    grid.validate().map_err(|e| e.to_string())?;
    Ok(grid)
}

fn cmd_orchestrate(args: &[String]) -> Result<(), String> {
    check_flags(
        "orchestrate",
        args,
        &[
            "--out",
            "--workloads",
            "--modules",
            "--policies",
            "--faults",
            "--seeds",
            "--seed",
            "--scale",
            "--workers",
            "--epoch-cells",
            "--max-attempts",
            "--deadline-epochs",
            "--backoff-cap",
            "--chaos",
            "--halt-after-epochs",
            "--resume",
            "--verify",
            "--samples",
        ],
        0,
    )?;

    if let Some(dir) = flag(args, "--verify") {
        let dir = std::path::PathBuf::from(dir);
        let ckpt = FleetCheckpoint::load(&dir, None).map_err(|e| e.to_string())?;
        let samples: usize = parse_num(args, "--samples", 3)?;
        let sample_seed: u64 = parse_num(args, "--seed", 0x5eed)?;
        let report = verify_fleet(&ckpt, samples, sample_seed).map_err(|e| e.to_string())?;
        let mut mismatches = 0usize;
        for v in &report {
            let verdict = if v.matches() { "ok" } else { "MISMATCH" };
            outln!(
                "cell #{:<5} recorded {:#018x} replayed {:#018x} {verdict}",
                v.index,
                v.recorded,
                v.fresh
            );
            mismatches += usize::from(!v.matches());
        }
        if mismatches > 0 {
            return Err(format!(
                "{mismatches}/{} replayed shards diverged from the checkpoint",
                report.len()
            ));
        }
        outln!(
            "replay verification: {}/{} sampled shards reproduced bit-exactly",
            report.len(),
            report.len()
        );
        return Ok(());
    }

    let cfg = OrchestratorConfig {
        workers: parse_num(args, "--workers", 4usize)?,
        cells_per_epoch: parse_num(args, "--epoch-cells", 8usize)?,
        max_attempts: parse_num(args, "--max-attempts", 3u32)?,
        backoff_cap_epochs: parse_num(args, "--backoff-cap", 8u64)?,
        deadline_epochs: parse_num(args, "--deadline-epochs", 4u32)?,
        halt_after_epochs: flag(args, "--halt-after-epochs")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("bad --halt-after-epochs {s:?}"))
            })
            .transpose()?,
    };

    let (mut ckpt, out_dir) = if let Some(dir) = flag(args, "--resume") {
        let dir = std::path::PathBuf::from(dir);
        let ckpt = FleetCheckpoint::load(&dir, None).map_err(|e| e.to_string())?;
        outln!(
            "resuming campaign at epoch {} ({} cells)",
            ckpt.epoch,
            ckpt.grid.cell_count()
        );
        (ckpt, Some(dir))
    } else {
        let grid = orchestrate_grid(args)?;
        let chaos = flag(args, "--chaos")
            .map(|s| s.parse().map_err(|_| format!("bad --chaos {s:?}")))
            .transpose()?
            .map(ChaosConfig::with_seed);
        let out_dir = flag(args, "--out").map(std::path::PathBuf::from);
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        (FleetCheckpoint::fresh(grid, chaos), out_dir)
    };

    let finished = run_fleet(&mut ckpt, &cfg, out_dir.as_deref(), |c| {
        let done = c
            .cells
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    smart_refresh::orchestrator::CellState::Done(_)
                        | smart_refresh::orchestrator::CellState::Skipped { .. }
                )
            })
            .count();
        outln!(
            "epoch {:>4} | {done}/{} cells terminal",
            c.epoch,
            c.cells.len()
        );
    })
    .map_err(|e| e.to_string())?;

    if !finished {
        let dir = out_dir
            .as_deref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "<no --out dir>".into());
        outln!(
            "halted by --halt-after-epochs; resume with `smart-refresh orchestrate --resume {dir}`"
        );
        return Ok(());
    }
    out!("{}", render_fleet(&ckpt));
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    check_flags("list", args, &[], 0)?;
    outln!(
        "{:<18} {:>28} {:>8} {:>8}",
        "workload",
        "suite",
        "cov-2gb",
        "cov-3d"
    );
    for e in catalog() {
        outln!(
            "{:<18} {:>28} {:>8.2} {:>8.2}",
            e.name(),
            e.suite().to_string(),
            e.conventional.coverage,
            e.stacked.coverage
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    check_flags("info", args, &[], 0)?;
    for cfg in [
        conventional_2gb(),
        conventional_4gb(),
        stacked_3d_64mb(Duration::from_ms(64)),
        stacked_3d_64mb(Duration::from_ms(32)),
    ] {
        outln!(
            "{:<10} {} | refresh {} | baseline {:.0}/s | counters (3-bit) {:.0} KB",
            cfg.name,
            cfg.geometry,
            cfg.timing.retention,
            cfg.baseline_refreshes_per_sec(),
            area_overhead_kb(cfg.geometry.total_rows(), 3)
        );
    }
    Ok(())
}
