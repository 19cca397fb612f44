//! Property test: the lexer-based blanking pipeline is a drop-in
//! replacement for the legacy single-pass scrubber on every *real*
//! source file in the workspace.
//!
//! Three properties, checked file by file over the whole repository:
//!
//! 1. the token stream is covering — token spans tile `0..len` exactly;
//! 2. blanking preserves geometry — same byte length, same newline
//!    offsets (line numbers in diagnostics can never drift);
//! 3. zero diagnostic drift — scanning the old pipeline's scrubbed text
//!    and the new pipeline's scrubbed text with the original five-rule
//!    token lists yields the identical `(file, line, token)` hit set.
//!
//! The token lists are duplicated here as the specification on purpose:
//! if the production lists change, this oracle still pins the *lexer*
//! behaviour, not the rule behaviour.

use std::path::Path;

use smartrefresh_check::lexer::blank_tokens;
use smartrefresh_check::pass::Workspace;
use smartrefresh_check::strip_cfg_test;

/// The original flat scanner's token lists — the drift oracle's probes.
const PROBE_TOKENS: &[(&str, bool)] = &[
    (".unwrap()", false),
    (".expect(", false),
    ("panic!", true),
    ("todo!", true),
    ("unimplemented!", true),
    ("std::time", true),
    ("SystemTime", true),
    ("Instant::now", true),
    ("thread_rng", true),
    ("rand::", true),
    ("getrandom", true),
    ("fs::write", true),
    ("File::create", true),
];

/// The legacy single-pass scrubber the lexer replaced: replaces comments,
/// string literals, and character literals with spaces, preserving
/// newlines so line numbers survive. Kept here as the reference the
/// lexer's blanking must not drift from.
fn blank_source(src: &str) -> String {
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

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `(line, token)` hits of the probe list over scrubbed text, mirroring
/// the scanner's per-line matching with left-identifier boundaries.
fn probe_hits(scrubbed: &str) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    for (idx, line) in scrubbed.lines().enumerate() {
        for &(tok, left) in PROBE_TOKENS {
            let mut from = 0;
            while let Some(off) = line[from..].find(tok) {
                let at = from + off;
                let boundary = !left
                    || line[..at]
                        .chars()
                        .next_back()
                        .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                if boundary {
                    hits.push((idx + 1, tok));
                    break;
                }
                from = at + tok.len();
            }
        }
    }
    hits
}

#[test]
fn token_stream_covers_every_real_source_exactly() {
    let ws = Workspace::load(workspace_root()).expect("workspace is readable");
    assert!(ws.sources.len() > 50, "workspace walk looks truncated");
    for src in &ws.sources {
        let mut at = 0;
        for t in &src.tokens {
            assert_eq!(t.start, at, "{}: token gap/overlap at byte {at}", src.rel);
            assert!(t.end > t.start, "{}: empty {:?} token", src.rel, t.kind);
            at = t.end;
        }
        assert_eq!(at, src.text.len(), "{}: stream does not reach EOF", src.rel);
    }
}

#[test]
fn blanking_preserves_length_and_newline_offsets_everywhere() {
    let ws = Workspace::load(workspace_root()).expect("workspace is readable");
    for src in &ws.sources {
        let blanked = blank_tokens(&src.text, &src.tokens);
        assert_eq!(
            blanked.len(),
            src.text.len(),
            "{}: blanking changed the byte length",
            src.rel
        );
        let offsets = |s: &str| -> Vec<usize> {
            s.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(
            offsets(&blanked),
            offsets(&src.text),
            "{}: newline offsets moved",
            src.rel
        );
    }
}

#[test]
fn zero_diagnostic_drift_against_the_legacy_scrubber() {
    let ws = Workspace::load(workspace_root()).expect("workspace is readable");
    for src in &ws.sources {
        let legacy = strip_cfg_test(&blank_source(&src.text));
        let modern = &src.scrubbed;
        assert_eq!(
            probe_hits(&legacy),
            probe_hits(modern),
            "{}: probe-token hits drifted between scrubbers",
            src.rel
        );
    }
}
