//! A small Rust lexer: a covering token stream with byte spans.
//!
//! The pass framework ([`crate::pass`]) lexes every workspace source once
//! and hands each pass the same token stream, the comment/string-blanked
//! text derived from it, and the suppression comments parsed out of it.
//! The lexer is deliberately modest — it classifies the token classes the
//! lint rules care about (comments, string/char literals, lifetimes,
//! identifiers) rather than implementing the full Rust grammar — but it
//! is *covering*: every byte of the input belongs to exactly one token,
//! so blanking and span math can never lose line or offset information.
//! A property test (`tests/lexer_oracle.rs`) pins that guarantee against
//! every real source file in the workspace, with the legacy single-pass
//! scrubber (kept in that test) as the drift oracle.

/// What a token is. Every byte of the source falls into exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`foo`, `let`, `r#async`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a character literal.
    Lifetime,
    /// A numeric literal (`42`, `0x5eed`, `1.5e3`).
    Number,
    /// A string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A character or byte-character literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A `//` comment through end of line (doc comments included).
    LineComment,
    /// A `/* … */` comment, nesting honoured (doc comments included).
    BlockComment,
    /// A run of whitespace.
    Whitespace,
    /// Any other single byte: punctuation, operators, delimiters.
    Punct,
}

/// One token: its kind and half-open byte span `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a covering token stream: concatenating the spans of
/// the returned tokens reproduces `0..src.len()` exactly, in order.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    // Kind of the previous non-whitespace, non-comment token: decides
    // whether `r"`/`b"` opens a literal or terminates an identifier, and
    // whether `'` after an identifier/number could be a lifetime.
    let mut prev_code: Option<TokenKind> = None;
    while i < b.len() {
        let start = i;
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::LineComment,
                start,
                end: i,
            });
            continue;
        }
        // Block comment, nesting honoured.
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokenKind::BlockComment,
                start,
                end: i,
            });
            continue;
        }
        // Whitespace run.
        if c.is_ascii_whitespace() {
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Whitespace,
                start,
                end: i,
            });
            continue;
        }
        // Raw and raw-byte strings: r"…", r#"…"#, br#"…"#. Only when the
        // previous code token was not an identifier/number (`har"` is not
        // a raw string starting inside `har`; the lexer never sees that
        // case because `har` lexes as one Ident, but `r` alone after an
        // operator does start one).
        if (c == b'r' || c == b'b') && prev_code != Some(TokenKind::Ident) {
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
                    let mut m = k + 1;
                    let closes = |at: usize| -> bool {
                        if b.get(at) != Some(&b'"') {
                            return false;
                        }
                        (0..hashes).all(|h| b.get(at + 1 + h) == Some(&b'#'))
                    };
                    while m < b.len() && !closes(m) {
                        m += 1;
                    }
                    let end = (m + 1 + hashes).min(b.len());
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        start,
                        end,
                    });
                    i = end;
                    prev_code = Some(TokenKind::Str);
                    continue;
                }
            }
        }
        // Ordinary and byte strings.
        if c == b'"'
            || (c == b'b' && b.get(i + 1) == Some(&b'"') && prev_code != Some(TokenKind::Ident))
        {
            i += if c == b'b' { 2 } else { 1 };
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Str,
                start,
                end: i,
            });
            prev_code = Some(TokenKind::Str);
            continue;
        }
        // Byte-char literal: b'x' / b'\n'.
        if c == b'b' && b.get(i + 1) == Some(&b'\'') && prev_code != Some(TokenKind::Ident) {
            if let Some(end) = char_literal_end(b, i + 1) {
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end,
                });
                i = end;
                prev_code = Some(TokenKind::Char);
                continue;
            }
        }
        // Character literal vs lifetime.
        if c == b'\'' {
            if let Some(end) = char_literal_end(b, i) {
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end,
                });
                i = end;
                prev_code = Some(TokenKind::Char);
                continue;
            }
            // Lifetime: ' followed by an identifier, no closing quote.
            if b.get(i + 1).copied().is_some_and(is_ident_start) {
                i += 2;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    start,
                    end: i,
                });
                prev_code = Some(TokenKind::Lifetime);
                continue;
            }
            // A stray quote (malformed source): single punct byte.
            i += 1;
            tokens.push(Token {
                kind: TokenKind::Punct,
                start,
                end: i,
            });
            prev_code = Some(TokenKind::Punct);
            continue;
        }
        // Identifier / keyword (raw identifiers lex as Punct '#' + Ident,
        // which is fine for token matching purposes).
        if is_ident_start(c) {
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                start,
                end: i,
            });
            prev_code = Some(TokenKind::Ident);
            continue;
        }
        // Number (decimal, hex/oct/bin, underscores, float suffixes; the
        // trailing alpha run also swallows type suffixes like `u64`).
        if c.is_ascii_digit() {
            while i < b.len() && (is_ident_continue(b[i]) || b[i] == b'.') {
                // A second dot ends the number (`0..n` range syntax).
                if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                    break;
                }
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                start,
                end: i,
            });
            prev_code = Some(TokenKind::Number);
            continue;
        }
        // Anything else: one punctuation byte.
        i += 1;
        tokens.push(Token {
            kind: TokenKind::Punct,
            start,
            end: i,
        });
        prev_code = Some(TokenKind::Punct);
    }
    tokens
}

/// If a character literal starts at the `'` at offset `at`, returns the
/// offset one past its closing quote; `None` when `'` opens a lifetime or
/// is stray. Handles `'x'`, escapes (`'\n'`, `'\u{1f600}'`), and
/// multi-byte characters (`'é'`).
fn char_literal_end(b: &[u8], at: usize) -> Option<usize> {
    let mut i = at + 1;
    if b.get(i) == Some(&b'\\') {
        i += 2; // skip the escape head: \n \' \\ \x.. \u{..}
        if b.get(i.wrapping_sub(1)) == Some(&b'u') && b.get(i) == Some(&b'{') {
            while i < b.len() && b[i] != b'}' {
                i += 1;
            }
            i += 1;
        } else if b.get(i.wrapping_sub(1)) == Some(&b'x') {
            i += 2;
        }
        return (b.get(i) == Some(&b'\'')).then_some(i + 1);
    }
    // Unescaped: one character (possibly multi-byte) then a quote. A
    // lifetime never has a quote right after its first character unless
    // that "lifetime" was really a char literal.
    let first = *b.get(i)?;
    if first == b'\'' {
        return None; // '' is not a char literal
    }
    let len = utf8_len(first);
    i += len;
    (b.get(i) == Some(&b'\'')).then_some(i + 1)
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        f if f < 0x80 => 1,
        f if f >= 0xF0 => 4,
        f if f >= 0xE0 => 3,
        f if f >= 0xC0 => 2,
        _ => 1,
    }
}

/// Replaces every comment, string literal, and character literal token
/// with spaces (newlines preserved), leaving all other bytes verbatim.
/// The result has exactly the same length and newline offsets as `src`.
pub fn blank_tokens(src: &str, tokens: &[Token]) -> String {
    let mut out = Vec::with_capacity(src.len());
    let b = src.as_bytes();
    for t in tokens {
        match t.kind {
            TokenKind::Str | TokenKind::Char | TokenKind::LineComment | TokenKind::BlockComment => {
                for &byte in &b[t.start..t.end] {
                    out.push(if byte == b'\n' { b'\n' } else { b' ' });
                }
            }
            _ => out.extend_from_slice(&b[t.start..t.end]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// 1-based line number of byte offset `at`, given `src`.
pub fn line_of(src: &str, at: usize) -> usize {
    src.as_bytes()
        .iter()
        .take(at)
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn covering_token_stream() {
        let src = "fn f<'a>(s: &'a str) -> u32 { s.len() as u32 // tail\n}\n";
        let tokens = lex(src);
        let mut at = 0;
        for t in &tokens {
            assert_eq!(t.start, at, "gap or overlap at {at}");
            at = t.end;
        }
        assert_eq!(at, src.len());
    }

    #[test]
    fn classifies_literals_and_lifetimes() {
        let src = "let c = 'x'; let l: &'a str = r#\"raw\"#; let b = b'\\n';";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Char, "'x'")));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::Str, "r#\"raw\"#")));
        assert!(toks.contains(&(TokenKind::Char, "b'\\n'")));
    }

    #[test]
    fn blanking_preserves_offsets() {
        let src = "let a = \"panic!\"; /* todo!\nmore */ let b = 'y';\n";
        let tokens = lex(src);
        let blanked = blank_tokens(src, &tokens);
        assert_eq!(blanked.len(), src.len());
        let nl = |s: &str| {
            s.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(nl(&blanked), nl(src));
        assert!(!blanked.contains("panic!"));
        assert!(!blanked.contains("todo!"));
        assert!(blanked.contains("let b ="));
    }

    #[test]
    fn unicode_char_literal_is_one_token() {
        let src = "let e = 'é'; let ok = true;";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Char, "'é'")));
        assert!(toks.contains(&(TokenKind::Ident, "ok")));
    }

    #[test]
    fn line_numbers() {
        let src = "a\nbb\nccc\n";
        assert_eq!(line_of(src, 0), 1);
        assert_eq!(line_of(src, 2), 2);
        assert_eq!(line_of(src, 5), 3);
    }
}
