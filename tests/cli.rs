//! End-to-end tests of the `smart-refresh` command-line interface, driving
//! the real binary via `CARGO_BIN_EXE_smart-refresh`.

use std::process::Command;

use smart_refresh::core::SmartRefreshConfig;
use smart_refresh::dram::configs::conventional_4gb;
use smart_refresh::dram::time::Duration;
use smart_refresh::energy::DramPowerParams;
use smart_refresh::sim::report::{render_campaign, render_run};
use smart_refresh::sim::{
    run_campaign, run_experiment, CampaignConfig, ExperimentConfig, PolicyKind,
};
use smart_refresh::study;
use smart_refresh::workloads::{catalog, find};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-refresh"))
}

#[test]
fn help_lists_subcommands() {
    let out = bin().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "figures", "study", "run", "sweep", "record", "replay", "list", "info",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn info_prints_paper_configurations() {
    let out = bin().arg("info").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2048000/s"), "2 GB baseline rate");
    assert!(text.contains("48 KB"), "§4.7 counter area");
}

#[test]
fn list_prints_the_whole_catalog() {
    let out = bin().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["clustalw", "water-spatial", "vpr_twolf"] {
        assert!(text.contains(name), "catalog missing {name}");
    }
}

#[test]
fn run_rejects_unknown_workload() {
    let out = bin()
        .args(["run", "--workload", "nope", "--module", "2gb"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn run_rejects_unknown_module() {
    let out = bin()
        .args(["run", "--workload", "gcc", "--module", "9gb"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown module"));
}

#[test]
fn run_rejects_a_scale_that_is_not_positive_and_finite() {
    // Each must fail with a clean one-line error, not a panic (exit 101)
    // or, for `inf`, a run that never ends.
    for scale in ["0", "-1", "nan", "inf"] {
        let out = bin()
            .args([
                "run",
                "--workload",
                "gcc",
                "--module",
                "2gb",
                "--scale",
                scale,
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "--scale {scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --scale"), "--scale {scale}: {err}");
        assert!(!err.contains("panicked"), "--scale {scale}: {err}");
    }
}

#[test]
fn run_on_the_4gb_module_uses_the_figures_4gb_workload() {
    // Figs 9-11 run the conventional spec at the 4 GB coverage factor;
    // `run --module 4gb` must simulate that same footprint.
    let out = bin()
        .args([
            "run",
            "--workload",
            "gcc",
            "--module",
            "4gb",
            "--policy",
            "smart",
            "--scale",
            "0.01",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut cfg = ExperimentConfig::conventional(
        conventional_4gb(),
        DramPowerParams::ddr2_4gb(),
        PolicyKind::Smart(SmartRefreshConfig::paper_defaults()),
    )
    .scaled(0.01);
    cfg.seed = 0x5eed;
    cfg.reference = Duration::from_ms(64);
    let spec = find("gcc").expect("catalog has gcc").conventional_4gb();
    let r = run_experiment(&cfg, &spec).expect("library run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.lines().next(),
        Some(format!("module 4gb | {}", render_run(&r)).as_str())
    );
}

#[test]
fn study_faults_prints_the_library_report() {
    let out = bin().args(["study", "faults"]).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cfg = CampaignConfig::quick(0xfa17);
    let header = format!(
        "module {} ({} rows, retention {}), horizon {}, one access per {}",
        cfg.module.name,
        cfg.module.geometry.total_rows(),
        cfg.module.timing.retention,
        cfg.horizon,
        cfg.access_gap,
    );
    let report = render_campaign(&run_campaign(&cfg).expect("campaign runs"));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{header}\n\n{report}\n")
    );
}

#[test]
fn study_fig_tables_stdout_hashes_to_its_pin() {
    let out = bin().args(["study", "fig_tables"]).output().expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    let pin = study::find("fig_tables").expect("a study row").pin;
    assert_eq!(study::report_digest(&stdout), pin);
}

#[test]
fn study_rejects_a_missing_or_unknown_name_and_lists_the_names() {
    for args in [vec!["study"], vec!["study", "nope"]] {
        let out = bin().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        for name in ["fig_tables", "abl_rfm", "darp", "all"] {
            assert!(err.contains(name), "{args:?} stderr lacks {name}: {err}");
        }
    }
    let out = bin().args(["study", "nope"]).output().expect("spawn");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown study"));
}

#[test]
fn study_and_figures_reject_bad_values() {
    let out = bin()
        .args(["study", "faults", "--threads", "0"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive integer"));

    let out = bin()
        .args(["figures", "fig14", "--ecc", "maybe"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --ecc"));
}

#[test]
fn record_and_replay_roundtrip() {
    let path = std::env::temp_dir().join("smart-refresh-cli-test.trace");
    let path_s = path.to_str().expect("utf8 path");
    let rec = bin()
        .args([
            "record",
            "--workload",
            "fasta",
            "--module",
            "2gb",
            "--seconds",
            "0.002",
            "--out",
            path_s,
        ])
        .output()
        .expect("spawn");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    assert!(String::from_utf8_lossy(&rec.stdout).contains("wrote"));

    let rep = bin()
        .args([
            "replay", "--trace", path_s, "--module", "2gb", "--policy", "cbr", "--scale", "0.005",
        ])
        .output()
        .expect("spawn");
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let text = String::from_utf8_lossy(&rep.stdout);
    assert!(text.contains("replaying"));
    assert!(text.contains("integrity ok"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    // A typo'd flag must be a hard usage error on every subcommand, not a
    // silently ignored token.
    for args in [
        vec!["run", "--workload", "gcc", "--bogus", "1"],
        vec!["sweep", "--workload", "gcc", "--polcy", "smart"],
        vec!["orchestrate", "--chaoss", "7"],
        vec!["figures", "fig06", "--cvs", "/tmp"],
    ] {
        let out = bin().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?} stderr: {err}");
    }
    let out = bin().args(["list", "extra"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

/// Extract the `fleet digest: 0x…` line from an orchestrate report.
fn fleet_digest(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .find(|l| l.contains("fleet digest:"))
        .map(|l| l.trim().to_string())
}

const GRID_ARGS: [&str; 10] = [
    "--workloads",
    "gcc",
    "--modules",
    "mini",
    "--policies",
    "cbr,smart",
    "--seeds",
    "2",
    "--scale",
    "0.125",
];

#[test]
fn orchestrate_halt_resume_and_verify_roundtrip() {
    let base = std::env::temp_dir().join(format!("smart-refresh-cli-fleet-{}", std::process::id()));
    let solid = base.join("solid");
    let chopped = base.join("chopped");
    std::fs::create_dir_all(&base).expect("temp dir");

    // Uninterrupted reference campaign.
    let full = bin()
        .args(["orchestrate", "--out", solid.to_str().expect("utf8")])
        .args(GRID_ARGS)
        .output()
        .expect("spawn");
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let full_out = String::from_utf8_lossy(&full.stdout).to_string();
    let reference = fleet_digest(&full_out).expect("reference run prints a fleet digest");

    // Same campaign, halted after every single epoch and resumed from the
    // checkpoint each time. The final digest must be bit-identical.
    let chopped_s = chopped.to_str().expect("utf8");
    let first = bin()
        .args([
            "orchestrate",
            "--out",
            chopped_s,
            "--epoch-cells",
            "1",
            "--halt-after-epochs",
            "1",
        ])
        .args(GRID_ARGS)
        .output()
        .expect("spawn");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let mut last_out = String::from_utf8_lossy(&first.stdout).to_string();
    for _ in 0..32 {
        if fleet_digest(&last_out).is_some() {
            break;
        }
        assert!(
            last_out.contains("halted"),
            "expected halt notice: {last_out}"
        );
        let step = bin()
            .args([
                "orchestrate",
                "--resume",
                chopped_s,
                "--epoch-cells",
                "1",
                "--halt-after-epochs",
                "1",
            ])
            .output()
            .expect("spawn");
        assert!(
            step.status.success(),
            "{}",
            String::from_utf8_lossy(&step.stderr)
        );
        last_out = String::from_utf8_lossy(&step.stdout).to_string();
    }
    let resumed = fleet_digest(&last_out).expect("resumed campaign finishes within 32 halts");
    assert_eq!(resumed, reference, "halt/resume changed the fleet digest");

    // Replay verification over the checkpoint left on disk.
    let verify = bin()
        .args(["orchestrate", "--verify", chopped_s, "--samples", "2"])
        .output()
        .expect("spawn");
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(String::from_utf8_lossy(&verify.stdout).contains("reproduced bit-exactly"));

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn orchestrate_resume_refuses_a_missing_checkpoint() {
    let dir = std::env::temp_dir().join(format!("smart-refresh-cli-nockpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = bin()
        .args(["orchestrate", "--resume", dir.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_reports_missing_trace() {
    let out = bin()
        .args(["replay", "--trace", "/nonexistent.trace", "--module", "2gb"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn figures_threads_flag_rejects_zero_and_garbage() {
    for bad in ["0", "-3", "many"] {
        let out = bin()
            .args(["figures", "fig06", "--threads", bad])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "--threads {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("positive integer"),
            "unexpected error for --threads {bad}: {err}"
        );
    }
}

#[test]
fn figures_threads_and_csv_flags_run() {
    // The (tiny, scaled-down) figure regenerates on two workers, with its
    // CSV written alongside.
    let dir = std::env::temp_dir().join(format!("smart-refresh-cli-csv-{}", std::process::id()));
    let out = bin()
        .args(["figures", "fig06", "--threads", "2", "--scale", "0.01"])
        .args(["--csv", dir.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Fig06"), "figure output missing: {text}");
    let csv = std::fs::read_to_string(dir.join("fig06.csv")).expect("fig06.csv written");
    assert_eq!(
        csv.lines().count(),
        1 + catalog().len(),
        "header + one row per benchmark"
    );
    std::fs::remove_dir_all(&dir).ok();
}
