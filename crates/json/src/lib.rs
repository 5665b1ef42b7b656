#![warn(missing_docs)]

//! Strict, dependency-free JSON for the offline workspace.
//!
//! One implementation serves two consumers that used to carry separate
//! copies: `sdp-serve` parses request bodies and emits responses with it,
//! and `crates/lint/tests/sarif_validity.rs` validates the SARIF emitter
//! against it. The parser is deliberately strict — trailing commas, raw
//! control characters in strings, bad `\u` escapes, and trailing content
//! are all rejected, because anything this parser admits must also be
//! admitted by every real-world consumer (Prometheus scrapers, GitHub
//! code scanning, `curl | jq`).
//!
//! Every accessor is non-panicking (`Option`/`Result`); the crate sits on
//! the serving path and `panic-reachability` holds it to the kernel
//! standard.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Objects use [`BTreeMap`] so re-serialization is
/// deterministic (sorted keys) — part of the serving layer's
/// byte-identical-responses invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Element `i` of an array.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, when it is a non-negative integer
    /// that fits (rejects fractions, negatives, and values above 2^53
    /// where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&n) {
            return None;
        }
        Some(n as u64)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs (later duplicates win).
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a request body of a
/// few hundred KB of `[` overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a strict JSON document (the whole input must be one value).
/// Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            at: self.i,
        }
    }

    fn ws(&mut self) {
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.err(format!("unexpected {other:?}"))),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                other => return Err(self.err(format!("bad object separator {other:?}"))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                other => return Err(self.err(format!("bad array separator {other:?}"))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("dangling escape"));
                    };
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err(format!("raw control character 0x{b:02x} in string")));
                }
                Some(_) => {
                    // Bulk-copy the run of ordinary bytes up to the next
                    // quote, backslash, or control character. The input
                    // came from a `&str`, and the run delimiters are all
                    // ASCII (never UTF-8 continuation bytes), so the run
                    // is itself valid UTF-8 — one O(len) validation per
                    // run instead of one O(remaining) scan per character.
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|e| self.err(e.to_string()))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Four hex digits of a `\u` escape (cursor past the `\u`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(hex) = self.s.get(self.i..self.i + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let code = std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(code)
    }

    /// One `\u` escape, combining a high/low surrogate pair (the form
    /// standard serializers use for supplementary-plane characters such
    /// as emoji) into its scalar. Unpaired surrogates are rejected.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.s.get(self.i + 1) != Some(&b'u') {
                    return Err(self.err("unpaired surrogate in \\u escape"));
                }
                self.i += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("unpaired surrogate in \\u escape"));
                }
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(scalar).ok_or_else(|| self.err("bad \\u escape"))
            }
            0xDC00..=0xDFFF => Err(self.err("unpaired surrogate in \\u escape")),
            _ => char::from_u32(code).ok_or_else(|| self.err("bad \\u escape")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// 64-bit FNV-1a over a byte string — the vendored content-address
/// hasher behind `sdp-serve`'s result cache. FNV is deliberate: tiny,
/// dependency-free, endian-independent, and fully specified, so a hash
/// written into a persistent job store replays identically on any
/// machine. It is *not* collision-resistant against adversaries; the
/// serving layer treats a collision as a cache key aliasing two specs,
/// which determinism bounds to "wrong result body for a hand-crafted
/// spec", and the canonical form hashed is several hundred bytes of
/// structured text where accidental collisions are ~2⁻⁶⁴.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl fmt::Display for Json {
    /// Serializes compactly (no insignificant whitespace, sorted object
    /// keys). `parse(v.to_string())` round-trips every value whose numbers
    /// survive `f64` formatting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => {
                if *n == n.trunc() && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            // JSON has no NaN/Inf; emit null rather than an invalid doc.
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.idx(0)).unwrap(), &Json::Num(1.0));
        assert_eq!(
            v.get("a")
                .and_then(|a| a.idx(1))
                .and_then(|o| o.get("b"))
                .and_then(Json::as_str),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"ctrl \u{1} char\"",
            "\"trunc \\u12\"",
            "\"lone high surrogate \\ud83d\"",
            "\"lone low surrogate \\ude00\"",
            "\"bad pair \\ud83d\\u0041\"",
            "\"signed hex \\u+123\"",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let e = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "stops at the first level too deep");
        assert!(e.message.contains("nesting"), "{e}");
        // Exactly MAX_DEPTH levels still parse, arrays and objects alike.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let objs = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objs).is_ok());
        assert!(parse(&format!("[{objs}]")).is_err());
    }

    #[test]
    fn error_carries_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u2192 \\u00e9\"").unwrap(),
            Json::Str("\u{2192} \u{e9}".into())
        );
    }

    #[test]
    fn surrogate_pairs_combine() {
        // The escape form standard serializers emit for emoji.
        assert_eq!(
            parse("\"\\ud83d\\ude00!\"").unwrap(),
            Json::Str("\u{1f600}!".into())
        );
        assert_eq!(
            parse("\"\\uD834\\uDD1E\"").unwrap(),
            Json::Str("\u{1d11e}".into())
        );
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a test timer; the bound is seconds, not bits"
    )]
    fn long_strings_parse_in_linear_time() {
        // Regression guard for the O(n²) per-character re-validation:
        // a multi-megabyte string (mixed ASCII and multi-byte scalars)
        // must parse in well under a second, not minutes.
        let payload = "datapath-α-β\u{1f600} ".repeat(150_000);
        let doc = quote(&payload);
        let start = std::time::Instant::now();
        assert_eq!(parse(&doc).unwrap(), Json::Str(payload));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "large string parse took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn serialization_round_trips() {
        let v = Json::obj([
            ("b", Json::num(2.5)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::str("quote \" backslash \\ tab \t")),
        ]);
        let text = v.to_string();
        // Keys are sorted → deterministic bytes.
        assert!(text.starts_with("{\"a\":"));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::num(3.0).to_string(), "3");
        assert_eq!(Json::num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn as_u64_rejects_lossy_values() {
        assert_eq!(Json::num(7.0).as_u64(), Some(7));
        assert_eq!(Json::num(-1.0).as_u64(), None);
        assert_eq!(Json::num(0.5).as_u64(), None);
        assert_eq!(Json::num(1.0e17).as_u64(), None);
    }

    #[test]
    fn quote_escapes_control_characters() {
        assert_eq!(quote("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(quote("plain"), "\"plain\"");
    }

    #[test]
    fn fnv1a_64_matches_published_vectors() {
        // Reference values from the FNV specification (Noll's test suite).
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        // Sensitivity: one flipped bit moves the whole hash.
        assert_ne!(fnv1a_64(b"spec-a"), fnv1a_64(b"spec-b"));
    }
}
