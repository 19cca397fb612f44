//! Hermetic conformance suite for the Smart Refresh workspace: a
//! multi-pass static analyzer plus a bounded interleaving model checker.
//!
//! This crate is the static half of the in-repo conformance suite (the
//! dynamic half is the DDR2/Smart-Refresh protocol sanitizer in
//! `smartrefresh-dram::protocol`). It is built on `std` alone — no
//! external parser, no network, no toolchain plugins — in three layers:
//!
//! 1. **[`lexer`]** — a small Rust lexer producing a *covering* token
//!    stream (every byte belongs to exactly one token, with byte spans),
//!    from which the comment/string-blanked view every rule matches
//!    against is derived. Prose, string data, and `#[cfg(test)]` regions
//!    can therefore never trip a rule.
//! 2. **[`pass`]** — the framework: each workspace source is lexed once
//!    into a [`pass::SourceFile`]; every rule is a [`pass::Pass`] over
//!    the shared [`pass::Workspace`]. Exemptions are inline
//!    `// check:allow(<rule>)` comments parsed from the token stream —
//!    never hard-coded paths — and any suppression that silences nothing
//!    is itself a finding (`unused-suppression`).
//! 3. **[`rules`]** — the registry. Five hermeticity rules
//!    (`panic-free`, `deterministic`, `workspace-lints`,
//!    `exhaustive-variants`, `atomic-io`) and four concurrency-safety
//!    rules guarding the determinism contract of the parallel engine:
//!
//!    * **`atomics-confined`** — raw atomics and memory orderings live
//!      in `smartrefresh_core::sync` (the model-checked `WorkCursor`
//!      site) and nowhere else;
//!    * **`no-interior-mut`** — no `Mutex` / `RwLock` / `RefCell` /
//!      `Cell<...>` / `static mut` in library crates: the parallel paths
//!      are share-nothing with an index-ordered merge;
//!    * **`scoped-spawn-only`** — workers are born inside
//!      `std::thread::scope`, never detached `thread::spawn`;
//!    * **`merge-ordered`** — closures handed to `par_map` /
//!      `par_map_mut` must write only through their per-item slot, not
//!      captured `&mut` state.
//!
//! The dynamic companion is **[`explore`]**: a dependency-free bounded
//! interleaving model checker that exhaustively enumerates every
//! schedule of small worker pools against the real
//! `smartrefresh_core::sync::WorkCursor`, proving the claim protocol
//! converges to identical results under *all* interleavings
//! (`cargo run -p smartrefresh-check -- model-check`).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod explore;
pub mod lexer;
pub mod pass;
pub mod rules;

/// One lint finding, pointing at a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (always `/`-separated) of the offending file.
    pub file: String,
    /// 1-based line number of the finding.
    pub line: usize,
    /// Stable kebab-case rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation of the finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule identifier for the banned-panic-token rule.
pub const RULE_PANIC_FREE: &str = "panic-free";
/// Rule identifier for the ambient-nondeterminism rule.
pub const RULE_DETERMINISTIC: &str = "deterministic";
/// Rule identifier for the workspace-lint-consolidation rule.
pub const RULE_WORKSPACE_LINTS: &str = "workspace-lints";
/// Rule identifier for the fault/degrade variant exhaustiveness rule.
pub const RULE_EXHAUSTIVE_VARIANTS: &str = "exhaustive-variants";
/// Rule identifier for the torn-write (non-atomic file creation) rule.
pub const RULE_ATOMIC_IO: &str = "atomic-io";
/// Rule identifier for the atomics-confinement rule.
pub const RULE_ATOMICS_CONFINED: &str = "atomics-confined";
/// Rule identifier for the interior-mutability ban in library crates.
pub const RULE_NO_INTERIOR_MUT: &str = "no-interior-mut";
/// Rule identifier for the scoped-thread-spawn rule.
pub const RULE_SCOPED_SPAWN_ONLY: &str = "scoped-spawn-only";
/// Rule identifier for the par_map closure capture rule.
pub const RULE_MERGE_ORDERED: &str = "merge-ordered";
/// Rule identifier for suppressions that silenced nothing (or name an
/// unknown rule). This meta-rule cannot itself be suppressed.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every rule a `check:allow(...)` comment may name, in registry order.
pub const KNOWN_RULES: &[&str] = &[
    RULE_PANIC_FREE,
    RULE_DETERMINISTIC,
    RULE_WORKSPACE_LINTS,
    RULE_EXHAUSTIVE_VARIANTS,
    RULE_ATOMIC_IO,
    RULE_ATOMICS_CONFINED,
    RULE_NO_INTERIOR_MUT,
    RULE_SCOPED_SPAWN_ONLY,
    RULE_MERGE_ORDERED,
];

/// Directory names that are never scanned (test trees, lint fixtures,
/// build output, VCS metadata).
const SKIPPED_DIRS: &[&str] = &["tests", "fixtures", "target", ".git"];

/// Run every lint rule over the workspace rooted at `root`: load and lex
/// every source once, run the default pass registry, apply inline
/// `check:allow` suppressions, and flag the unused ones.
///
/// Returns the findings sorted by `(file, line, rule)` so output is
/// stable across filesystems and runs. I/O failures (unreadable files,
/// vanishing directories) surface as `Err`, not as diagnostics.
pub fn run_lint(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let ws = pass::Workspace::load(root)?;
    pass::run_passes(&ws, &rules::default_passes())
}

/// Walk `root` collecting every `.rs` file, skipping [`SKIPPED_DIRS`].
pub(crate) fn collect_rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
            Err(err) => return Err(err),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIPPED_DIRS.iter().any(|d| *d == name) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The workspace-relative, `/`-separated display path for `path`.
pub(crate) fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Is `rel` (workspace-relative, `/`-separated) in the panic-token scope?
///
/// Covered: `src/`, `examples/`, `crates/<name>/src/`,
/// `crates/<name>/benches/`, `crates/<name>/examples/`.
pub(crate) fn in_panic_scope(rel: &str) -> bool {
    if rel.starts_with("src/") || rel.starts_with("examples/") {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() >= 3 && parts[0] == "crates" && matches!(parts[2], "src" | "benches" | "examples")
}

/// Is `rel` in the nondeterminism scope? Only crate library code: `src/`
/// and `crates/<name>/src/`. Benches may legitimately consult a wall
/// clock to report host-side throughput; library code may not.
pub(crate) fn in_det_scope(rel: &str) -> bool {
    if rel.starts_with("src/") {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Is `rel` in a library crate (`crates/<name>/src/`)? The scope of the
/// `atomic-io` and `no-interior-mut` rules; sanctioned implementation
/// sites carry inline `check:allow` comments instead of path exemptions.
pub(crate) fn in_library_scope(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Does `line` contain `tok`, honouring an identifier boundary on the
/// left when `left_boundary` is set?
pub(crate) fn has_token(line: &str, tok: &str, left_boundary: bool) -> bool {
    let mut from = 0;
    while let Some(off) = line[from..].find(tok) {
        let at = from + off;
        if !left_boundary {
            return true;
        }
        let boundary = at == 0
            || line[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        from = at + tok.len();
    }
    false
}

/// Replace comments, string literals, and character literals with spaces,
/// preserving newlines so line numbers survive.
pub fn blank_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    // Last byte emitted verbatim; used to decide whether `r"`/`b"` starts
    // a (raw/byte) string literal or terminates an ordinary identifier.
    let mut prev = b' ';
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            out.extend_from_slice(b"  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            prev = b' ';
            continue;
        }
        // Raw (and raw-byte) strings: r"..."  r#"..."#  br#"..."#
        if (c == b'r' || c == b'b') && !is_ident_byte(prev) {
            let mut j = i;
            if b[j] == b'b' && b.get(j + 1) == Some(&b'r') {
                j += 1;
            }
            if b[j] == b'r' {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while b.get(k) == Some(&b'#') {
                    hashes += 1;
                    k += 1;
                }
                if b.get(k) == Some(&b'"') {
                    // Blank from i through the closing quote+hashes.
                    let close: Vec<u8> = {
                        let mut v = vec![b'"'];
                        v.extend(std::iter::repeat_n(b'#', hashes));
                        v
                    };
                    let mut m = k + 1;
                    while m < b.len() && !b[m..].starts_with(&close) {
                        m += 1;
                    }
                    let end = (m + close.len()).min(b.len());
                    for &byte in &b[i..end] {
                        out.push(if byte == b'\n' { b'\n' } else { b' ' });
                    }
                    i = end;
                    prev = b' ';
                    continue;
                }
            }
        }
        // Ordinary (and byte) strings.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"') && !is_ident_byte(prev)) {
            if c == b'b' {
                out.push(b' ');
                i += 1;
            }
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    // A `\<newline>` continuation must keep its newline,
                    // or every later line number shifts.
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            prev = b' ';
            continue;
        }
        // Character literal vs lifetime: '\n' or 'x' is a literal; 'a in
        // a generic position is a lifetime and passes through untouched.
        if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'\'' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                prev = b' ';
                continue;
            }
            if b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'') {
                out.extend_from_slice(b"   ");
                i += 3;
                prev = b' ';
                continue;
            }
        }
        out.push(c);
        prev = c;
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank every `#[cfg(test)]`-gated item (attribute through the matching
/// close brace, or through `;` for brace-less items), preserving
/// newlines. Expects comment/string-blanked input.
pub fn strip_cfg_test(src: &str) -> String {
    const MARKER: &str = "#[cfg(test)]";
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (start, _) in src.match_indices(MARKER) {
        let b = src.as_bytes();
        let mut i = start + MARKER.len();
        // Find the first `{` or `;` after the attribute (skipping any
        // further attributes and the item header).
        let mut end = None;
        while i < b.len() {
            match b[i] {
                b'{' => {
                    let mut depth = 1usize;
                    let mut j = i + 1;
                    while j < b.len() && depth > 0 {
                        match b[j] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    end = Some(j);
                    break;
                }
                b';' => {
                    end = Some(i + 1);
                    break;
                }
                _ => i += 1,
            }
        }
        if let Some(end) = end {
            ranges.push((start, end));
        }
    }
    let mut out: Vec<u8> = src.as_bytes().to_vec();
    for (start, end) in ranges {
        for byte in out.iter_mut().take(end).skip(start) {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Lines of the TOML table `[header]`, as `(1-based line, text)` pairs,
/// plus the header's own line. `None` when the table is absent.
pub(crate) fn toml_section<'a>(
    toml: &'a str,
    header: &str,
) -> Option<(usize, Vec<(usize, &'a str)>)> {
    let needle = format!("[{header}]");
    let mut lines = toml.lines().enumerate();
    let header_line = loop {
        let (idx, line) = lines.next()?;
        if line.trim() == needle {
            break idx + 1;
        }
    };
    let mut body = Vec::new();
    for (idx, line) in lines {
        if line.trim_start().starts_with('[') {
            break;
        }
        body.push((idx + 1, line));
    }
    Some((header_line, body))
}

/// Does the section body set `key` to `value` (whitespace-insensitive)?
fn section_sets(body: &[(usize, &str)], key: &str, value: &str) -> bool {
    body.iter().any(|(_, line)| {
        let mut parts = line.splitn(2, '=');
        match (parts.next(), parts.next()) {
            (Some(k), Some(v)) => k.trim() == key && v.trim() == value,
            _ => false,
        }
    })
}

/// Enforce [`RULE_WORKSPACE_LINTS`]: consolidated lint policy in the root
/// manifest, inherited (not copied) by every crate.
pub(crate) fn check_manifests(root: &Path, diags: &mut Vec<Diagnostic>) -> io::Result<()> {
    let root_manifest = root.join("Cargo.toml");
    match fs::read_to_string(&root_manifest) {
        Ok(toml) => match toml_section(&toml, "workspace.lints.rust") {
            Some((line, body)) => {
                if !body
                    .iter()
                    .any(|(_, l)| l.split('=').next().map(str::trim) == Some("missing_docs"))
                {
                    diags.push(Diagnostic {
                        file: "Cargo.toml".to_owned(),
                        line,
                        rule: RULE_WORKSPACE_LINTS,
                        message: "[workspace.lints.rust] must set `missing_docs`".to_owned(),
                    });
                }
                if !section_sets(&body, "unsafe_code", "\"forbid\"") {
                    diags.push(Diagnostic {
                        file: "Cargo.toml".to_owned(),
                        line,
                        rule: RULE_WORKSPACE_LINTS,
                        message: "[workspace.lints.rust] must set `unsafe_code = \"forbid\"`"
                            .to_owned(),
                    });
                }
            }
            None => diags.push(Diagnostic {
                file: "Cargo.toml".to_owned(),
                line: 1,
                rule: RULE_WORKSPACE_LINTS,
                message: "workspace manifest is missing a [workspace.lints.rust] table".to_owned(),
            }),
        },
        Err(err) if err.kind() == io::ErrorKind::NotFound => diags.push(Diagnostic {
            file: "Cargo.toml".to_owned(),
            line: 1,
            rule: RULE_WORKSPACE_LINTS,
            message: "workspace root has no Cargo.toml".to_owned(),
        }),
        Err(err) => return Err(err),
    }

    // Every crate manifest must inherit the workspace lint table.
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    manifests.sort();
    for manifest in manifests {
        let toml = match fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
            Err(err) => return Err(err),
        };
        // Root manifests without a [package] table (pure virtual
        // workspaces) have nothing to inherit into.
        if toml_section(&toml, "package").is_none() {
            continue;
        }
        let rel = rel_display(root, &manifest);
        match toml_section(&toml, "lints") {
            Some((line, body)) => {
                if !section_sets(&body, "workspace", "true") {
                    diags.push(Diagnostic {
                        file: rel,
                        line,
                        rule: RULE_WORKSPACE_LINTS,
                        message: "[lints] must set `workspace = true`".to_owned(),
                    });
                }
            }
            None => diags.push(Diagnostic {
                file: rel,
                line: 1,
                rule: RULE_WORKSPACE_LINTS,
                message: "crate manifest must inherit lints via `[lints] workspace = true`"
                    .to_owned(),
            }),
        }
    }

    // Crate roots must not carry per-file copies of the consolidated
    // policy — drift hides there.
    let mut roots = vec![root.join("src/lib.rs"), root.join("src/main.rs")];
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            roots.push(entry.path().join("src/lib.rs"));
            roots.push(entry.path().join("src/main.rs"));
        }
    }
    roots.sort();
    for path in roots {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
            Err(err) => return Err(err),
        };
        let blanked = blank_source(&text);
        for attr in ["#![warn(missing_docs)]", "#![forbid(unsafe_code)]"] {
            for (idx, line) in blanked.lines().enumerate() {
                if line.contains(attr) {
                    diags.push(Diagnostic {
                        file: rel_display(root, &path),
                        line: idx + 1,
                        rule: RULE_WORKSPACE_LINTS,
                        message: format!(
                            "`{attr}` duplicates the [workspace.lints] policy — remove the \
                             per-crate copy"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Parse the variant names of `pub enum <name>` from blanked source.
/// Returns the 1-based line of the `enum` keyword and the names.
pub fn parse_enum_variants(blanked: &str, name: &str) -> Option<(usize, Vec<String>)> {
    let needle = format!("pub enum {name}");
    let mut pos = None;
    let mut from = 0;
    while let Some(off) = blanked[from..].find(&needle) {
        let at = from + off;
        let after = blanked[at + needle.len()..].chars().next();
        if after.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
            pos = Some(at);
            break;
        }
        from = at + needle.len();
    }
    let at = pos?;
    let line = blanked[..at].matches('\n').count() + 1;
    let open = at + blanked[at..].find('{')?;
    let body = &blanked[open + 1..];
    let mut depth = 0usize;
    let mut chunk = String::new();
    let mut chunks = Vec::new();
    for c in body.chars() {
        match c {
            '{' | '(' | '[' => {
                depth += 1;
                chunk.push(c);
            }
            '}' | ')' | ']' => {
                if c == '}' && depth == 0 {
                    break;
                }
                depth = depth.saturating_sub(1);
                chunk.push(c);
            }
            ',' if depth == 0 => {
                chunks.push(std::mem::take(&mut chunk));
            }
            _ => chunk.push(c),
        }
    }
    if !chunk.trim().is_empty() {
        chunks.push(chunk);
    }
    let mut variants = Vec::new();
    for chunk in chunks {
        let mut rest = chunk.trim_start();
        // Skip attributes (doc comments are already blanked away).
        while rest.starts_with('#') {
            match rest.find(']') {
                Some(end) => rest = rest[end + 1..].trim_start(),
                None => break,
            }
        }
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(ident);
        }
    }
    Some((line, variants))
}

/// Enforce [`RULE_EXHAUSTIVE_VARIANTS`]: every `FaultKind` and
/// `DegradeCause` variant is named in the sim layer's non-test code.
pub(crate) fn check_exhaustive_variants(
    root: &Path,
    diags: &mut Vec<Diagnostic>,
) -> io::Result<()> {
    let sim_src = root.join("crates/sim/src");
    if !sim_src.is_dir() {
        return Ok(());
    }
    let mut haystack = String::new();
    for path in collect_rust_sources(&sim_src)? {
        let text = fs::read_to_string(&path)?;
        haystack.push_str(&strip_cfg_test(&blank_source(&text)));
        haystack.push('\n');
    }
    let targets = [
        ("crates/faults/src/injector.rs", "FaultKind"),
        ("crates/core/src/policy.rs", "DegradeCause"),
    ];
    for (rel, enum_name) in targets {
        let path = root.join(rel);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(err) if err.kind() == io::ErrorKind::NotFound => continue,
            Err(err) => return Err(err),
        };
        let blanked = blank_source(&text);
        let Some((line, variants)) = parse_enum_variants(&blanked, enum_name) else {
            diags.push(Diagnostic {
                file: rel.to_owned(),
                line: 1,
                rule: RULE_EXHAUSTIVE_VARIANTS,
                message: format!("could not locate `pub enum {enum_name}`"),
            });
            continue;
        };
        for variant in variants {
            let pattern = format!("{enum_name}::{variant}");
            let named = haystack.match_indices(&pattern).any(|(at, _)| {
                haystack[at + pattern.len()..]
                    .chars()
                    .next()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_')
            });
            if !named {
                diags.push(Diagnostic {
                    file: rel.to_owned(),
                    line,
                    rule: RULE_EXHAUSTIVE_VARIANTS,
                    message: format!(
                        "variant `{pattern}` is never named in crates/sim/src non-test code — \
                         extend the sim-layer reporting match"
                    ),
                });
            }
        }
    }
    Ok(())
}
