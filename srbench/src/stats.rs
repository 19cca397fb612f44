//! Order statistics, the metric record, and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Ops that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The fixed percentile `op_ms_tail` reports. Every workload runs at least
/// [`MIN_TAIL_OPS`] ops per run so this percentile keeps
/// [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_PERCENTILE: u32 = 90;

/// Smallest op count at which [`TAIL_PERCENTILE`] is reportable.
pub const MIN_TAIL_OPS: usize = 100;

/// Median of `v` (mean of the middle pair for even lengths). Zero for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`.
fn rank_index(n: usize, p: u32) -> usize {
    // ceil(p * n / 100) - 1, clamped to the sample.
    let rank = (p as usize * n).div_ceil(100);
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// The highest whole percentile of `n` samples that still has at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when `n` is too small for
/// any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100).rev().find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// The nearest-rank `p`-th percentile of `v`, or `None` when fewer than
/// [`TAIL_BEYOND`] samples lie beyond it.
pub fn percentile(v: &[f64], p: u32) -> Option<f64> {
    if beyond(v.len(), p) < TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank_index(s.len(), p)])
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `s`, `ms`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// True when `name` is a legal metric name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Formats a finite number as JSON (non-finite values, which no metric
/// should produce, become 0 so the document stays valid).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
pub use json::Json;

/// A reader for what the benchmark prints (self-tests only).
#[cfg(test)]
mod json {
    /// A parsed JSON value (enough of JSON for the self-tests to read back
    /// what the benchmark prints and the repository's `BENCHMARK.json`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string (escapes other than `\"`, `\\`, `\/` and `\n` are kept
        /// verbatim).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, keys in document order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// The member `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Parses a complete document.
        pub fn parse(text: &str) -> Result<Json, String> {
            let b = text.as_bytes();
            let mut i = 0;
            let v = parse_value(b, &mut i)?;
            skip_ws(b, &mut i);
            if i == b.len() {
                Ok(v)
            } else {
                Err(format!("trailing bytes at {i}"))
            }
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
        if b[*i..].starts_with(lit) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at {}",
                String::from_utf8_lossy(lit),
                *i
            ))
        }
    }

    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
        expect(b, i, b"\"")?;
        let mut out = Vec::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                b'\\' if *i + 1 < b.len() => {
                    match b[*i + 1] {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        other => out.extend_from_slice(&[b'\\', other]),
                    }
                    *i += 2;
                }
                c => {
                    out.push(c);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
        skip_ws(b, i);
        match b.get(*i) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                *i += 1;
                let mut members = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    skip_ws(b, i);
                    let k = parse_string(b, i)?;
                    skip_ws(b, i);
                    expect(b, i, b":")?;
                    members.push((k, parse_value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("bad object at {}", *i)),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", *i)),
                    }
                }
            }
            Some(b'"') => parse_string(b, i).map(Json::Str),
            Some(b't') => expect(b, i, b"true").map(|()| Json::Bool(true)),
            Some(b'f') => expect(b, i, b"false").map(|()| Json::Bool(false)),
            Some(b'n') => expect(b, i, b"null").map(|()| Json::Null),
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_beyond_at_32_and_128_samples() {
        // 32 samples: p68 leaves 10 beyond, p69 only 9.
        assert_eq!(tail_percentile(32), Some(68));
        assert_eq!(beyond(32, 68), 10);
        assert_eq!(beyond(32, 69), 9);
        // 128 samples: p92 leaves 10 beyond, p93 only 8.
        assert_eq!(tail_percentile(128), Some(92));
        assert_eq!(beyond(128, 92), 10);
        assert!(beyond(128, 93) < TAIL_BEYOND);
        // Too few samples for any tail.
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
    }

    #[test]
    fn fixed_tail_percentile_is_legal_at_the_minimum_op_count() {
        assert!(tail_percentile(MIN_TAIL_OPS).is_some_and(|p| p >= TAIL_PERCENTILE));
        assert!(tail_percentile(MIN_TAIL_OPS - 1).is_none_or(|p| p < TAIL_PERCENTILE));
        let v: Vec<f64> = (1..=MIN_TAIL_OPS).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, TAIL_PERCENTILE), Some(90.0));
        assert_eq!(percentile(&v[..50], TAIL_PERCENTILE), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("core.policy.ns_per_tick"));
        assert!(valid_name("op_ms_p50"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("µs"));
    }

    #[test]
    fn result_line_parses_back() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("dram.reads", 3.0, "count"),
                Metric::new("x", 1e-9, "s"),
            ],
        );
        let v = Json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Json::Num(12.0)));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("wall_s").and_then(|w| w.get("value")),
            Some(&Json::Num(1.25))
        );
        assert_eq!(
            m.get("x").and_then(|w| w.get("value")),
            Some(&Json::Num(1e-9))
        );
        assert_eq!(
            m.get("dram.reads").and_then(|w| w.get("unit")),
            Some(&Json::Str("count".into()))
        );
    }
}
