//! Command-line entry point for the conformance suite.
//!
//! Usage:
//!
//! * `cargo run -p smartrefresh-check -- lint [--root PATH]` — the
//!   multi-pass static analyzer over the workspace sources.
//! * `cargo run -p smartrefresh-check -- model-check` — the bounded
//!   interleaving explorer over the `WorkCursor` claim protocol.
//!
//! Exit codes: `0` clean, `1` findings / violated invariant, `2` usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: smartrefresh-check lint [--root PATH] | model-check");
    ExitCode::from(2)
}

fn run_lint_cmd(mut args: std::env::Args) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    // Default to the workspace root: this crate lives at
    // <workspace>/crates/check, so two parents up from the manifest dir.
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or(manifest)
    });
    match smartrefresh_check::run_lint(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("smartrefresh-check: lint clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("smartrefresh-check: {} finding(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("smartrefresh-check: i/o error: {err}");
            ExitCode::from(2)
        }
    }
}

fn run_model_check_cmd() -> ExitCode {
    match smartrefresh_check::explore::run_model_check() {
        Ok(report) => {
            println!(
                "smartrefresh-check: model-check clean — work-cursor: {} schedules ({} steps)",
                report.schedules, report.steps,
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("smartrefresh-check: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    args.next(); // program name
    match args.next().as_deref() {
        Some("lint") => run_lint_cmd(args),
        Some("model-check") => match args.next() {
            None => run_model_check_cmd(),
            Some(_) => usage(),
        },
        _ => usage(),
    }
}
