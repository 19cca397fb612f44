//! The lint rule registry: every conformance rule as a [`Pass`].
//!
//! Five hermeticity rules carried over from the original flat scanner
//! (`panic-free`, `deterministic`, `workspace-lints`,
//! `exhaustive-variants`, `atomic-io`) plus the concurrency-safety
//! suite (`atomics-confined`, `no-interior-mut`, `scoped-spawn-only`,
//! `merge-ordered`). All token rules match against the blanked,
//! `#[cfg(test)]`-scrubbed view of each source, so prose, string data,
//! and test code never trip a rule; exemptions are inline
//! `// check:allow(<rule>)` comments, audited by the framework's
//! `unused-suppression` lint rather than hard-coded paths.

use std::io;

use crate::lexer::line_of;
use crate::pass::{Pass, SourceFile, Workspace};
use crate::{
    check_exhaustive_variants, check_manifests, has_token, in_det_scope, in_library_scope,
    in_panic_scope, Diagnostic, RULE_ATOMICS_CONFINED, RULE_ATOMIC_IO, RULE_DETERMINISTIC,
    RULE_MERGE_ORDERED, RULE_NO_INTERIOR_MUT, RULE_PANIC_FREE, RULE_SCOPED_SPAWN_ONLY,
};

/// Tokens banned by `panic-free`. The `bool` asks for an identifier
/// boundary on the left of the match.
const PANIC_TOKENS: &[(&str, bool)] = &[
    (".unwrap()", false),
    (".expect(", false),
    ("panic!", true),
    ("todo!", true),
    ("unimplemented!", true),
];

/// Tokens banned unconditionally by `deterministic` in library code.
const DET_TOKENS: &[(&str, bool)] = &[
    ("std::time", true),
    ("SystemTime", true),
    ("Instant::now", true),
    ("thread_rng", true),
    ("rand::", true),
    ("getrandom", true),
    ("env::var", true),
];

/// Collection types whose iteration order is unspecified, banned by
/// `deterministic` in report/digest code.
const ORDER_HAZARD_TOKENS: &[(&str, bool)] = &[("HashMap", true), ("HashSet", true)];

/// Tokens banned by `atomic-io` in library-crate code.
const ATOMIC_IO_TOKENS: &[(&str, bool)] = &[("fs::write", true), ("File::create", true)];

/// Tokens banned by `atomics-confined` outside `smartrefresh_core::sync`.
/// Only the five memory-ordering variants are listed (never bare
/// `Ordering::`) so `std::cmp::Ordering` matches never trip the rule.
const ATOMIC_TOKENS: &[(&str, bool)] = &[
    ("sync::atomic", true),
    ("AtomicUsize", true),
    ("AtomicIsize", true),
    ("AtomicU64", true),
    ("AtomicU32", true),
    ("AtomicU8", true),
    ("AtomicI64", true),
    ("AtomicI32", true),
    ("AtomicBool", true),
    ("AtomicPtr", true),
    ("Ordering::Relaxed", true),
    ("Ordering::Acquire", true),
    ("Ordering::Release", true),
    ("Ordering::AcqRel", true),
    ("Ordering::SeqCst", true),
];

/// Tokens banned by `no-interior-mut` in library-crate code. `Cell<` /
/// `Cell::` (never bare `Cell`) so domain types like `CellState` and
/// identifiers like `cells_per_epoch` never match.
const INTERIOR_MUT_TOKENS: &[(&str, bool)] = &[
    ("Mutex", true),
    ("RwLock", true),
    ("RefCell", true),
    ("Cell<", true),
    ("Cell::", true),
    ("static mut", true),
];

/// Methods treated as mutating by `merge-ordered` when called on a
/// captured (non-slot) binding inside a `par_map` closure.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "extend",
    "append",
    "clear",
    "pop",
    "truncate",
    "drain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
];

/// The default pass registry, in reporting order. Order does not affect
/// output — findings are sorted by `(file, line, rule)` afterwards.
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(PanicFree),
        Box::new(Deterministic),
        Box::new(WorkspaceLints),
        Box::new(ExhaustiveVariants),
        Box::new(AtomicIo),
        Box::new(AtomicsConfined),
        Box::new(NoInteriorMut),
        Box::new(ScopedSpawnOnly),
        Box::new(MergeOrdered),
    ]
}

/// Scans every in-scope source's scrubbed view for banned tokens.
fn scan_tokens(
    ws: &Workspace,
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    in_scope: impl Fn(&str) -> bool,
    tokens: &[(&str, bool)],
    message: impl Fn(&str) -> String,
) {
    for src in &ws.sources {
        if !in_scope(&src.rel) {
            continue;
        }
        for (idx, line) in src.scrubbed.lines().enumerate() {
            for &(tok, left) in tokens {
                if has_token(line, tok, left) {
                    diags.push(Diagnostic {
                        file: src.rel.clone(),
                        line: idx + 1,
                        rule,
                        message: message(tok),
                    });
                }
            }
        }
    }
}

/// `panic-free`: no `.unwrap()` / `.expect(` / `panic!` / `todo!` /
/// `unimplemented!` in library, example, or bench code.
pub struct PanicFree;

impl Pass for PanicFree {
    fn rule(&self) -> &'static str {
        RULE_PANIC_FREE
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_PANIC_FREE,
            in_panic_scope,
            PANIC_TOKENS,
            |tok| {
                format!(
                    "banned token `{tok}` — route fallible paths through SimError \
                 (tests and #[cfg(test)] regions are exempt)"
                )
            },
        );
        Ok(())
    }
}

/// `deterministic`: no ambient nondeterminism in library code — wall
/// clocks, OS randomness, environment reads outside sanctioned config
/// sites, or unordered-iteration collections in report/digest code.
pub struct Deterministic;

impl Pass for Deterministic {
    fn rule(&self) -> &'static str {
        RULE_DETERMINISTIC
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_DETERMINISTIC,
            in_det_scope,
            DET_TOKENS,
            |tok| {
                if tok == "env::var" {
                    "environment read `env::var` — resolve configuration at the CLI boundary \
                 and pass it down (check:allow the sanctioned sites)"
                        .to_string()
                } else {
                    format!(
                        "ambient nondeterminism `{tok}` — library code must use the \
                     simulated clock and the in-repo seeded PRNG"
                    )
                }
            },
        );
        for src in &ws.sources {
            if !in_det_scope(&src.rel) {
                continue;
            }
            check_instant_methods(src, diags);
            if src.rel.contains("report") || src.rel.contains("digest") {
                for (idx, line) in src.scrubbed.lines().enumerate() {
                    for &(tok, left) in ORDER_HAZARD_TOKENS {
                        if has_token(line, tok, left) {
                            diags.push(Diagnostic {
                                file: src.rel.clone(),
                                line: idx + 1,
                                rule: RULE_DETERMINISTIC,
                                message: format!(
                                    "`{tok}` in report/digest code — iteration order is \
                                     unspecified; use BTreeMap/BTreeSet for stable output"
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Does this file import (or define) the simulated clock? When it does,
/// bare `Instant::` calls resolve to `smartrefresh_dram::time::Instant`
/// and are deterministic by construction.
fn has_simulated_clock(src: &SourceFile) -> bool {
    for line in src.blanked.lines() {
        let t = line.trim_start();
        if t.starts_with("use ")
            && t.contains("time::")
            && t.contains("Instant")
            && !t.contains("std::time")
        {
            return true;
        }
    }
    src.blanked.contains("pub struct Instant") || src.blanked.contains("impl Instant")
}

/// Flags `Instant::<method>` in files with no simulated-clock import —
/// there, `Instant` can only be `std::time::Instant`. `Instant::now` is
/// excluded (the unconditional token already covers it), as are matches
/// qualified by a `time::` path segment.
fn check_instant_methods(src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if has_simulated_clock(src) {
        return;
    }
    let s = &src.scrubbed;
    let mut from = 0;
    while let Some(off) = s[from..].find("Instant::") {
        let at = from + off;
        from = at + "Instant::".len();
        let before = &s[..at];
        let boundary = before
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if !boundary || before.ends_with("time::") {
            continue;
        }
        if s[at..].starts_with("Instant::now") {
            continue;
        }
        diags.push(Diagnostic {
            file: src.rel.clone(),
            line: line_of(s, at),
            rule: RULE_DETERMINISTIC,
            message: "`Instant::` with no simulated-clock import resolves to the wall \
                      clock — use smartrefresh_dram::time::Instant"
                .to_string(),
        });
    }
}

/// `workspace-lints`: the consolidated `[workspace.lints.rust]` policy,
/// inherited (never copied) by every crate.
pub struct WorkspaceLints;

impl Pass for WorkspaceLints {
    fn rule(&self) -> &'static str {
        crate::RULE_WORKSPACE_LINTS
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        check_manifests(ws, diags)
    }
}

/// `exhaustive-variants`: every `FaultKind` / `DegradeCause` variant is
/// named in the sim layer's non-test code.
pub struct ExhaustiveVariants;

impl Pass for ExhaustiveVariants {
    fn rule(&self) -> &'static str {
        crate::RULE_EXHAUSTIVE_VARIANTS
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        check_exhaustive_variants(ws, diags);
        Ok(())
    }
}

/// `atomic-io`: durable output goes through `write_atomic`, never bare
/// `fs::write` / `File::create`. The `write_atomic` implementation site
/// carries the one `check:allow(atomic-io)`.
pub struct AtomicIo;

impl Pass for AtomicIo {
    fn rule(&self) -> &'static str {
        RULE_ATOMIC_IO
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_ATOMIC_IO,
            in_library_scope,
            ATOMIC_IO_TOKENS,
            |tok| {
                format!(
                    "non-atomic file creation `{tok}` — a crash mid-write leaves a \
                     torn file; use smartrefresh_core::write_atomic"
                )
            },
        );
        Ok(())
    }
}

/// `atomics-confined`: raw atomics live in `smartrefresh_core::sync` and
/// nowhere else, so every concurrent claim path is one auditable cursor.
pub struct AtomicsConfined;

impl Pass for AtomicsConfined {
    fn rule(&self) -> &'static str {
        RULE_ATOMICS_CONFINED
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_ATOMICS_CONFINED,
            in_det_scope,
            ATOMIC_TOKENS,
            |tok| {
                format!(
                    "raw atomic `{tok}` outside smartrefresh_core::sync — build on \
                     WorkCursor (or extend core::sync) so interleaving-sensitive state \
                     stays in the one model-checked module"
                )
            },
        );
        Ok(())
    }
}

/// `no-interior-mut`: no shared-mutable cells in library crates; the
/// parallel paths share nothing and merge by item index.
pub struct NoInteriorMut;

impl Pass for NoInteriorMut {
    fn rule(&self) -> &'static str {
        RULE_NO_INTERIOR_MUT
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_NO_INTERIOR_MUT,
            in_library_scope,
            INTERIOR_MUT_TOKENS,
            |tok| {
                format!(
                    "interior mutability `{tok}` in library code — the determinism \
                     contract is share-nothing workers with an index-ordered merge"
                )
            },
        );
        Ok(())
    }
}

/// `scoped-spawn-only`: worker threads are born inside
/// `std::thread::scope` so they can never outlive the items they borrow.
pub struct ScopedSpawnOnly;

impl Pass for ScopedSpawnOnly {
    fn rule(&self) -> &'static str {
        RULE_SCOPED_SPAWN_ONLY
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        scan_tokens(
            ws,
            diags,
            RULE_SCOPED_SPAWN_ONLY,
            in_det_scope,
            &[("thread::spawn", true)],
            |_| {
                "unscoped `thread::spawn` — use std::thread::scope so workers are \
                 joined before their borrowed items go away"
                    .to_string()
            },
        );
        Ok(())
    }
}

/// `merge-ordered`: a closure handed to `par_map` / `par_map_mut` must
/// only write through its per-item slot — any captured `&mut` binding or
/// mutating method call on a captured binding races the merge order.
pub struct MergeOrdered;

impl Pass for MergeOrdered {
    fn rule(&self) -> &'static str {
        RULE_MERGE_ORDERED
    }
    fn run(&self, ws: &Workspace, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
        for src in &ws.sources {
            if !in_det_scope(&src.rel) {
                continue;
            }
            check_merge_ordered(src, diags);
        }
        Ok(())
    }
}

/// Offset of the `)` matching the `(` at `open`, or `None` when the text
/// ends first. Expects blanked input (no parens hide in strings).
fn match_paren(b: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Collects the identifiers an ident-ish chunk binds (pattern text:
/// closure params, a `let` pattern, a `for` pattern).
fn collect_bound(pattern: &str, bound: &mut Vec<String>) {
    // Drop a type annotation: bindings live left of the first `:`.
    let pattern = pattern.split(':').next().unwrap_or("");
    let mut ident = String::new();
    for c in pattern.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            ident.push(c);
        } else if !ident.is_empty() {
            if ident != "mut" && ident != "ref" {
                bound.push(std::mem::take(&mut ident));
            } else {
                ident.clear();
            }
        }
    }
}

/// The dotted-path root identifier ending at byte offset `end`
/// (exclusive): for `a.b.push(` with `end` at the `.` before `push`,
/// returns `a`.
fn path_root(s: &str, end: usize) -> Option<String> {
    let b = s.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = b[start - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    let root = s.get(start..end)?.split('.').next()?.trim();
    (!root.is_empty()
        && root
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_'))
    .then(|| root.to_string())
}

/// Scans one source for `par_map(` / `par_map_mut(` call sites and lints
/// the closure argument of each.
fn check_merge_ordered(src: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let s = &src.scrubbed;
    for call in ["par_map(", "par_map_mut("] {
        let mut from = 0;
        while let Some(off) = s[from..].find(call) {
            let at = from + off;
            from = at + call.len();
            let before = &s[..at];
            let boundary = before
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != '.');
            // `.par_map(` method-style still counts; `fn par_map(` (a
            // definition) and `my_par_map(` do not.
            let is_def = before.trim_end().ends_with("fn");
            if is_def || (!boundary && !before.ends_with('.')) {
                continue;
            }
            let open = at + call.len() - 1;
            let Some(close) = match_paren(s.as_bytes(), open) else {
                continue;
            };
            lint_closure_arg(src, s, open + 1, close, diags);
        }
    }
}

/// Lints the closure inside the argument span `args_start..args_end` of
/// one `par_map` call: flags `&mut x` captures and mutating method calls
/// on bindings the closure neither received as a parameter nor bound
/// itself.
fn lint_closure_arg(
    src: &SourceFile,
    s: &str,
    args_start: usize,
    args_end: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let args = &s[args_start..args_end];
    let Some(p1) = args.find('|') else {
        return;
    };
    let Some(p2_rel) = args[p1 + 1..].find('|') else {
        return;
    };
    let p2 = p1 + 1 + p2_rel;
    let params = &args[p1 + 1..p2];
    let body = &args[p2 + 1..];
    let body_start = args_start + p2 + 1;

    let mut bound: Vec<String> = Vec::new();
    for chunk in params.split(',') {
        collect_bound(chunk, &mut bound);
    }
    // `let` / `for` bindings inside the body are per-call locals.
    for (at, _) in body.match_indices("let ") {
        if at > 0 && body.as_bytes()[at - 1].is_ascii_alphanumeric() {
            continue;
        }
        let rest = &body[at + 4..];
        let stop = rest.find(['=', ';', '\n']).unwrap_or(rest.len());
        collect_bound(&rest[..stop], &mut bound);
    }
    for (at, _) in body.match_indices("for ") {
        if at > 0 && body.as_bytes()[at - 1].is_ascii_alphanumeric() {
            continue;
        }
        let rest = &body[at + 4..];
        if let Some(stop) = rest.find(" in ") {
            collect_bound(&rest[..stop], &mut bound);
        }
    }

    // Violation 1: `&mut x` where `x` is not closure-bound.
    for (at, _) in body.match_indices("&mut ") {
        let ident: String = body[at + 5..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || bound.contains(&ident) {
            continue;
        }
        diags.push(Diagnostic {
            file: src.rel.clone(),
            line: line_of(s, body_start + at),
            rule: RULE_MERGE_ORDERED,
            message: format!(
                "par_map closure takes `&mut {ident}` captured from outside — workers \
                 race on it; return a value and merge by item index"
            ),
        });
    }
    // Violation 2: `x.push(...)`-style mutation of a captured binding.
    for method in MUTATING_METHODS {
        let needle = format!(".{method}(");
        for (at, _) in body.match_indices(&needle) {
            let Some(root) = path_root(body, at) else {
                continue;
            };
            if bound.contains(&root) {
                continue;
            }
            diags.push(Diagnostic {
                file: src.rel.clone(),
                line: line_of(s, body_start + at),
                rule: RULE_MERGE_ORDERED,
                message: format!(
                    "par_map closure mutates captured `{root}` via `.{method}(` — \
                     workers race on it; return a value and merge by item index"
                ),
            });
        }
    }
}
