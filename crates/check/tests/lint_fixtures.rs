//! Pins the conformance lint's diagnostics over the in-repo fixture tree:
//! every rule fires at a known file and line, the output order is stable,
//! and the deliberate near-misses (strings, comments, `#[cfg(test)]`
//! regions, `unwrap_or`/`expect_err`) stay silent.

use std::path::Path;

use smartrefresh_check::lexer::{blank_tokens, lex};
use smartrefresh_check::{parse_enum_variants, run_lint, strip_cfg_test};

/// The comment/string-blanked view every lint rule matches against.
fn blank(src: &str) -> String {
    blank_tokens(src, &lex(src))
}

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/bad"))
}

#[test]
fn bad_fixture_tree_produces_exactly_the_pinned_diagnostics() {
    let diags = run_lint(fixture_root()).expect("fixture tree is readable");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    let expected = [
        "Cargo.toml:1: [workspace-lints] workspace manifest is missing a \
         [workspace.lints.rust] table",
        "crates/badcrate/Cargo.toml:1: [workspace-lints] crate manifest must inherit lints \
         via `[lints] workspace = true`",
        "crates/badcrate/src/lib.rs:3: [workspace-lints] `#![warn(missing_docs)]` duplicates \
         the [workspace.lints] policy — remove the per-crate copy",
        "crates/badcrate/src/lib.rs:5: [deterministic] ambient nondeterminism `std::time` — \
         library code must use the simulated clock and the in-repo seeded PRNG",
        "crates/badcrate/src/lib.rs:8: [panic-free] banned token `.unwrap()` — route fallible \
         paths through SimError (tests and #[cfg(test)] regions are exempt)",
        "crates/badcrate/src/lib.rs:9: [panic-free] banned token `.expect(` — route fallible \
         paths through SimError (tests and #[cfg(test)] regions are exempt)",
        "crates/badcrate/src/lib.rs:11: [panic-free] banned token `panic!` — route fallible \
         paths through SimError (tests and #[cfg(test)] regions are exempt)",
        "crates/badcrate/src/lib.rs:13: [panic-free] banned token `todo!` — route fallible \
         paths through SimError (tests and #[cfg(test)] regions are exempt)",
        "crates/badcrate/src/lib.rs:23: [deterministic] ambient nondeterminism `std::time` — \
         library code must use the simulated clock and the in-repo seeded PRNG",
        "crates/badcrate/src/lib.rs:33: [atomic-io] non-atomic file creation `fs::write` — \
         a crash mid-write leaves a torn file; use smartrefresh_core::write_atomic",
        "crates/badcrate/src/lib.rs:34: [atomic-io] non-atomic file creation `File::create` — \
         a crash mid-write leaves a torn file; use smartrefresh_core::write_atomic",
        "crates/baddet/src/lib.rs:7: [deterministic] environment read `env::var` — resolve \
         configuration at the CLI boundary and pass it down (check:allow the sanctioned sites)",
        "crates/baddet/src/lib.rs:15: [unused-suppression] suppression \
         `check:allow(panic-free)` silenced nothing — remove it",
        "crates/baddet/src/lib.rs:17: [deterministic] ambient nondeterminism `Instant::now` — \
         library code must use the simulated clock and the in-repo seeded PRNG",
        "crates/baddet/src/lib.rs:17: [deterministic] ambient nondeterminism `std::time` — \
         library code must use the simulated clock and the in-repo seeded PRNG",
        "crates/baddet/src/lib.rs:18: [deterministic] `Instant::` with no simulated-clock \
         import resolves to the wall clock — use smartrefresh_dram::time::Instant",
        "crates/baddet/src/report.rs:5: [deterministic] `HashMap` in report/digest code — \
         iteration order is unspecified; use BTreeMap/BTreeSet for stable output",
        "crates/baddet/src/report.rs:8: [deterministic] `HashSet` in report/digest code — \
         iteration order is unspecified; use BTreeMap/BTreeSet for stable output",
        "crates/badsync/src/lib.rs:4: [atomics-confined] raw atomic `AtomicUsize` outside \
         smartrefresh_core::sync — build on WorkCursor (or extend core::sync) so \
         interleaving-sensitive state stays in the one model-checked module",
        "crates/badsync/src/lib.rs:4: [atomics-confined] raw atomic `sync::atomic` outside \
         smartrefresh_core::sync — build on WorkCursor (or extend core::sync) so \
         interleaving-sensitive state stays in the one model-checked module",
        "crates/badsync/src/lib.rs:5: [no-interior-mut] interior mutability `Mutex` in \
         library code — the determinism contract is share-nothing workers with an \
         index-ordered merge",
        "crates/badsync/src/lib.rs:6: [no-interior-mut] interior mutability `RefCell` in \
         library code — the determinism contract is share-nothing workers with an \
         index-ordered merge",
        "crates/badsync/src/lib.rs:8: [atomics-confined] raw atomic `AtomicUsize` outside \
         smartrefresh_core::sync — build on WorkCursor (or extend core::sync) so \
         interleaving-sensitive state stays in the one model-checked module",
        "crates/badsync/src/lib.rs:11: [atomics-confined] raw atomic `Ordering::SeqCst` \
         outside smartrefresh_core::sync — build on WorkCursor (or extend core::sync) so \
         interleaving-sensitive state stays in the one model-checked module",
        "crates/badsync/src/lib.rs:14: [no-interior-mut] interior mutability `static mut` in \
         library code — the determinism contract is share-nothing workers with an \
         index-ordered merge",
        "crates/badsync/src/lib.rs:17: [no-interior-mut] interior mutability `Cell<` in \
         library code — the determinism contract is share-nothing workers with an \
         index-ordered merge",
        "crates/badsync/src/lib.rs:18: [no-interior-mut] interior mutability `Mutex` in \
         library code — the determinism contract is share-nothing workers with an \
         index-ordered merge",
        "crates/badsync/src/lib.rs:22: [scoped-spawn-only] unscoped `thread::spawn` — use \
         std::thread::scope so workers are joined before their borrowed items go away",
        "crates/badsync/src/lib.rs:28: [merge-ordered] par_map closure mutates captured \
         `sink` via `.push(` — workers race on it; return a value and merge by item index",
        "crates/badsync/src/lib.rs:29: [merge-ordered] par_map closure takes `&mut total` \
         captured from outside — workers race on it; return a value and merge by item index",
    ];
    assert_eq!(
        rendered, expected,
        "diagnostics drifted from the pinned set"
    );
}

#[test]
fn suppression_silences_exactly_one_of_two_identical_violations() {
    // baddet commits the same `env::var` sin twice (lines 7 and 12); the
    // `check:allow(deterministic)` above line 12 silences that one only,
    // and the decoy `check:allow(panic-free)` is flagged as unused.
    let diags = run_lint(fixture_root()).expect("fixture tree is readable");
    let in_baddet_lib: Vec<_> = diags
        .iter()
        .filter(|d| d.file == "crates/baddet/src/lib.rs")
        .collect();
    let env_reads: Vec<usize> = in_baddet_lib
        .iter()
        .filter(|d| d.message.contains("env::var"))
        .map(|d| d.line)
        .collect();
    assert_eq!(env_reads, [7], "only the unsuppressed read is reported");
    let unused: Vec<usize> = in_baddet_lib
        .iter()
        .filter(|d| d.rule == "unused-suppression")
        .map(|d| d.line)
        .collect();
    assert_eq!(unused, [15], "the decoy allow is flagged as unused");
}

#[test]
fn lint_is_deterministic_across_runs() {
    let a = run_lint(fixture_root()).expect("first run");
    let b = run_lint(fixture_root()).expect("second run");
    assert_eq!(a, b);
}

#[test]
fn the_workspace_itself_is_clean() {
    // The repo must always pass its own lint — the same gate CI enforces.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let diags = run_lint(root).expect("workspace is readable");
    assert!(
        diags.is_empty(),
        "workspace lint regressions:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn blanking_erases_strings_and_comments_but_keeps_lines() {
    let src = "let a = \"panic!\"; // .unwrap()\nlet b = 'x';\n/* todo!\n*/ let c = 1;\n";
    let blanked = blank(src);
    assert_eq!(blanked.lines().count(), src.lines().count());
    assert!(!blanked.contains("panic!"));
    assert!(!blanked.contains(".unwrap()"));
    assert!(!blanked.contains("todo!"));
    assert!(blanked.contains("let a ="));
    assert!(blanked.contains("let c = 1;"));
}

#[test]
fn raw_strings_and_lifetimes_survive_blanking() {
    let src = "fn f<'a>(s: &'a str) -> &'a str { s }\nlet r = r#\"panic!\"#;\n";
    let blanked = blank(src);
    assert!(blanked.contains("fn f<'a>(s: &'a str)"));
    assert!(!blanked.contains("panic!"));
}

#[test]
fn cfg_test_regions_are_erased_with_line_structure_intact() {
    let src = "fn keep() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_keep() {}\n";
    let stripped = strip_cfg_test(&blank(src));
    assert_eq!(stripped.lines().count(), src.lines().count());
    assert!(stripped.contains("fn keep()"));
    assert!(stripped.contains("fn also_keep()"));
    assert!(!stripped.contains(".unwrap()"));
}

#[test]
fn enum_variant_parsing_handles_payloads_and_attributes() {
    let src = "/// doc\npub enum Kind {\n    /// a\n    Plain,\n    #[allow(dead_code)]\n    Tuple(u32, u64),\n    Fields { a: u32, b: Vec<(u8, u8)> },\n}\n";
    let (line, variants) = parse_enum_variants(&blank(src), "Kind").expect("enum is found");
    assert_eq!(line, 2);
    assert_eq!(variants, ["Plain", "Tuple", "Fields"]);
}
