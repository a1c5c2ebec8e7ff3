//! A minimal, dependency-free JSON value with a parser, a compact
//! printer, and a **canonical** printer — the wire format of the solve
//! service (`bi-service`).
//!
//! The grammar is standard JSON extended with the bare tokens `Infinity`
//! and `-Infinity` (NCS games charge `∞` for infeasible actions, so the
//! codec must round-trip infinite costs). NaN is rejected everywhere.
//!
//! Canonical form — produced by [`Json::canonical_string`] — is the
//! deterministic byte representation the content-addressed cache hashes:
//! no whitespace, object keys sorted lexicographically, numbers printed
//! by Rust's shortest-round-trip `f64` formatter. Two values compare
//! equal iff their canonical bytes are equal.
//!
//! The [`Encode`]/[`Decode`] traits connect domain types to [`Json`];
//! implementations live next to the types they serialize (`bi-core`,
//! `bi-graph`, `bi-ncs`).
//!
//! # Examples
//!
//! ```
//! use bi_util::json::Json;
//!
//! let v = Json::parse(r#"{"b": 1, "a": [true, null, Infinity]}"#).unwrap();
//! assert_eq!(v.canonical_string(), r#"{"a":[true,null,Infinity],"b":1}"#);
//! assert_eq!(v.get("b").unwrap().as_f64().unwrap(), 1.0);
//! ```

use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Maximum nesting depth the parser accepts (arrays + objects).
const MAX_DEPTH: usize = 128;

/// Largest integer exactly representable in an `f64`: `2^53`.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
///
/// Objects preserve insertion order for readable compact printing; the
/// canonical printer sorts keys, so key order never affects canonical
/// bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (finite or `±Infinity`, never NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN (the wire format has no NaN).
    #[must_use]
    pub fn num(v: f64) -> Json {
        assert!(!v.is_nan(), "JSON numbers must not be NaN");
        Json::Num(v)
    }

    /// A `u64` encoded as a decimal **string** (u64 exceeds exact `f64`
    /// range, so numbers would silently lose precision).
    #[must_use]
    pub fn from_u64(v: u64) -> Json {
        Json::Str(v.to_string())
    }

    /// A `u128` encoded as a decimal **string**.
    #[must_use]
    pub fn from_u128(v: u128) -> Json {
        Json::Str(v.to_string())
    }

    /// The value of `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative exact integer, if this is an integral
    /// number in `[0, 2^53]`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v <= MAX_SAFE_INT && v.fract() == 0.0 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The `u64` encoded as a decimal string (see [`Json::from_u64`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The `u128` encoded as a decimal string (see [`Json::from_u128`]).
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// The canonical byte form: compact, object keys sorted, shortest
    /// round-trip number formatting. This is what content addressing
    /// hashes.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    /// Canonical bytes — [`Json::canonical_string`] as a byte vector.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.canonical_string().into_bytes()
    }

    fn write(&self, out: &mut String, canonical: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, canonical);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                if canonical {
                    order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0));
                }
                for (n, &i) in order.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    write_escaped(&pairs[i].0, out);
                    out.push(':');
                    pairs[i].1.write(out, canonical);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Compact printing in insertion order (canonical printing sorts keys
    /// — use [`Json::canonical_string`] for hashing).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, false);
        f.write_str(&out)
    }
}

fn write_num(v: f64, out: &mut String) {
    debug_assert!(!v.is_nan());
    if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else {
        // Rust's Display for f64 is the shortest decimal that round-trips,
        // which makes it a deterministic canonical form.
        use fmt::Write;
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub pos: usize,
    /// Human-readable description of the failure.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{token}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the supported maximum"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'I') => self.eat("Infinity", Json::Num(f64::INFINITY)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `{`
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume opening `"`
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8; copy the whole sequence).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0xC0 == 0x80 /* continuation byte */)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a low surrogate pair if
    /// needed); `self.pos` is on the first hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits in unicode escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.peek() == Some(b'I') {
                self.pos = start;
                return self.eat("-Infinity", Json::Num(f64::NEG_INFINITY));
            }
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
        match text.parse::<f64>() {
            Ok(v) if v.is_nan() => Err(self.err("NaN is not a valid number")),
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

/// Single-pass check that `bytes` are already in canonical form — the
/// exact byte representation [`Json::canonical_string`] produces: one
/// JSON value, no whitespace, object keys strictly sorted, minimal
/// string escapes, and plainly formatted numbers.
///
/// This is the gate of the serving tier's **zero-copy hot path**: a
/// `POST /solve` body that passes can be content-addressed by its raw
/// bytes (no value-tree construction, no re-encode) because canonical
/// bytes are a bijection onto values. The check is *conservative where
/// cheapness demands it*:
///
/// * **False negatives are harmless** — a canonical body misjudged
///   non-canonical (e.g. an object key containing escape sequences,
///   where escaped-byte order can differ from decoded-character order)
///   just falls back to the parse → canonicalize path.
/// * **False positives are harmless too** — the scanner validates the
///   full JSON grammar but only the *shape* of canonical numbers (no
///   leading zeros, no exponent, no trailing fractional zeros), not
///   shortest-round-trip digits, so `0.3000000000000000444` passes
///   although the canonical printer would emit `0.30000000000000004`.
///   Callers key caches by the **exact bytes**, so two near-canonical
///   spellings simply occupy two cache entries; they can never alias.
///
/// The scan allocates nothing and touches each byte once.
#[must_use]
pub fn canon_check(bytes: &[u8]) -> bool {
    let mut s = CanonScanner { bytes, pos: 0 };
    s.value(0) && s.pos == bytes.len()
}

/// [`canon_check`] for a document that must be an object, returning the
/// raw bytes of the members named in `keys` (`None` for an absent one)
/// from the same single pass. A member's bytes are its value exactly as
/// spelled, and so canonical themselves.
///
/// Returns `None` when `bytes` fail the check or are not an object.
///
/// ```
/// use bi_util::json::canon_members;
///
/// let body = br#"{"config":null,"game":{"kind":"ncs"}}"#;
/// let [game, extra] = canon_members(body, [b"game", b"extra"]).unwrap();
/// assert_eq!(game, Some(&br#"{"kind":"ncs"}"#[..]));
/// assert_eq!(extra, None);
/// assert!(canon_members(br#"{"b":1,"a":2}"#, [b"a"]).is_none());
/// ```
#[must_use]
pub fn canon_members<'a, const N: usize>(
    bytes: &'a [u8],
    keys: [&[u8]; N],
) -> Option<[Option<&'a [u8]>; N]> {
    let mut found = [None; N];
    let mut s = CanonScanner { bytes, pos: 0 };
    let ok = s.peek() == Some(b'{')
        && s.object(0, |key, value| {
            let key = &bytes[key];
            if let Some(i) = keys.iter().position(|k| *k == key) {
                found[i] = Some(&bytes[value]);
            }
        });
    (ok && s.pos == bytes.len()).then_some(found)
}

/// [`canon_check`] for a document that must be an array, returning the
/// raw bytes of each element, in order, from the same single pass.
///
/// Returns `None` when `bytes` fail the check or are not an array.
#[must_use]
pub fn canon_elements(bytes: &[u8]) -> Option<Vec<&[u8]>> {
    let mut elements = Vec::new();
    let mut s = CanonScanner { bytes, pos: 0 };
    let ok = s.peek() == Some(b'[') && s.array(0, |element| elements.push(&bytes[element]));
    (ok && s.pos == bytes.len()).then_some(elements)
}

/// The `canon_check` cursor: a no-alloc recursive-descent validator over
/// raw bytes.
struct CanonScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl CanonScanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> bool {
        if depth > MAX_DEPTH {
            return false;
        }
        match self.peek() {
            Some(b'n') => self.eat(b"null"),
            Some(b't') => self.eat(b"true"),
            Some(b'f') => self.eat(b"false"),
            Some(b'I') => self.eat(b"Infinity"),
            Some(b'"') => self.string().is_some(),
            Some(b'[') => self.array(depth, |_| {}),
            Some(b'{') => self.object(depth, |_, _| {}),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// An array, reporting each element's byte range to `on_element`.
    fn array(&mut self, depth: usize, mut on_element: impl FnMut(Range<usize>)) -> bool {
        self.pos += 1; // `[`
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        loop {
            let start = self.pos;
            if !self.value(depth + 1) {
                return false;
            }
            on_element(start..self.pos);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// An object, reporting each member's key and value byte ranges
    /// (the key without its quotes) to `on_member`.
    fn object(
        &mut self,
        depth: usize,
        mut on_member: impl FnMut(Range<usize>, Range<usize>),
    ) -> bool {
        self.pos += 1; // `{`
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return true;
        }
        // Raw key bytes of the previous entry, for the sortedness check.
        // Comparing raw (escaped) bytes equals comparing decoded keys
        // only when no escapes are involved, so `string()` reports
        // whether the key contained a backslash and we bail to the parse
        // path in that (never produced by our own codecs) case.
        let mut prev: Option<(usize, usize)> = None;
        loop {
            if self.peek() != Some(b'"') {
                return false;
            }
            let start = self.pos + 1;
            let Some(escaped) = self.string() else {
                return false;
            };
            let end = self.pos - 1;
            if escaped {
                return false; // conservative: defer escape-order cases
            }
            if let Some((ps, pe)) = prev {
                // Strictly increasing also rejects duplicate keys.
                if self.bytes[ps..pe] >= self.bytes[start..end] {
                    return false;
                }
            }
            prev = Some((start, end));
            if self.peek() != Some(b':') {
                return false;
            }
            self.pos += 1;
            let value = self.pos;
            if !self.value(depth + 1) {
                return false;
            }
            on_member(start..end, value..self.pos);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Validates one canonical string; returns `Some(contained_escape)`
    /// or `None` on a violation. Canonical escapes are exactly what the
    /// printer emits: `\" \\ \n \r \t` and `\u00xx` (lowercase hex) for
    /// the remaining control characters.
    fn string(&mut self) -> Option<bool> {
        self.pos += 1; // opening `"`
        let mut escaped = false;
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(escaped);
                }
                b'\\' => {
                    escaped = true;
                    self.pos += 1;
                    match self.peek()? {
                        b'"' | b'\\' | b'n' | b'r' | b't' => self.pos += 1,
                        b'u' => {
                            // Only `\u00xx` for control chars that lack a
                            // short escape; anything else would not have
                            // been produced by the canonical printer.
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            if hex[0] != b'0' || hex[1] != b'0' {
                                return None;
                            }
                            let lo = |b: u8| match b {
                                b'0'..=b'9' => Some(u32::from(b - b'0')),
                                b'a'..=b'f' => Some(u32::from(b - b'a') + 10),
                                _ => None, // uppercase hex is non-canonical
                            };
                            let v = lo(hex[2])? * 16 + lo(hex[3])?;
                            if v >= 0x20 || matches!(v, 0x09 | 0x0a | 0x0d) {
                                return None; // short escape or raw char exists
                            }
                            self.pos += 5;
                        }
                        _ => return None,
                    }
                }
                c if c < 0x20 => return None, // raw control char
                _ => self.pos += 1,
            }
        }
    }

    /// Canonical number shape: `-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?` or
    /// `-Infinity`. Rust's shortest-round-trip `f64` formatter (the
    /// canonical printer) never emits exponents, leading zeros, a bare
    /// leading `.`, or trailing fractional zeros.
    fn number(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.peek() == Some(b'I') {
                return self.eat(b"Infinity");
            }
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 || (int_len > 1 && self.bytes[int_start] == b'0') {
            return false;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start || self.bytes[self.pos - 1] == b'0' {
                return false; // empty fraction or trailing zero
            }
        }
        // An exponent (`e`/`E`) is simply not consumed: the caller then
        // sees an unexpected byte and the check fails.
        true
    }
}

/// A domain type with a [`Json`] wire form.
pub trait Encode {
    /// The JSON representation of `self`.
    fn encode(&self) -> Json;

    /// The canonical wire bytes of `self` — deterministic, suitable for
    /// content addressing (these bytes are the cache key of the solve
    /// service, hashed with [`crate::xxh64`]).
    fn canonical_bytes(&self) -> Vec<u8> {
        self.encode().canonical_bytes()
    }
}

/// A domain type constructible from its [`Json`] wire form.
pub trait Decode: Sized {
    /// Rebuilds a value from its JSON representation, validating as the
    /// type's constructor would.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first mismatch.
    fn decode(v: &Json) -> Result<Self, CodecError>;

    /// Parses a JSON document and decodes it in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for both parse and decode failures.
    fn decode_str(input: &str) -> Result<Self, CodecError> {
        let v = Json::parse(input).map_err(|e| CodecError::new(e.to_string()))?;
        Self::decode(&v)
    }
}

/// A decode failure: a message naming the offending field or shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    msg: String,
}

impl CodecError {
    /// Creates a decode error.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        CodecError { msg: msg.into() }
    }

    /// Prefixes the message with a path segment (`ctx: msg`), for
    /// decoders recursing into fields.
    #[must_use]
    pub fn context(self, ctx: &str) -> Self {
        CodecError {
            msg: format!("{ctx}: {}", self.msg),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.msg)
    }
}

impl Error for CodecError {}

/// The `key` field of an object, or an error naming the missing key.
///
/// # Errors
///
/// Returns a [`CodecError`] when `v` is not an object or lacks `key`.
pub fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    match v {
        Json::Obj(_) => v
            .get(key)
            .ok_or_else(|| CodecError::new(format!("missing field `{key}`"))),
        _ => Err(CodecError::new(format!(
            "expected an object with field `{key}`"
        ))),
    }
}

/// The `key` field as a number.
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not a number.
pub fn field_f64(v: &Json, key: &str) -> Result<f64, CodecError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a number")))
}

/// The `key` field as an exact non-negative integer.
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not an integer in `[0, 2^53]`.
pub fn field_usize(v: &Json, key: &str) -> Result<usize, CodecError> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a non-negative integer")))
}

/// The `key` field as a boolean.
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not a boolean.
pub fn field_bool(v: &Json, key: &str) -> Result<bool, CodecError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a boolean")))
}

/// The `key` field as a string.
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not a string.
pub fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a string")))
}

/// The `key` field as an array.
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not an array.
pub fn field_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CodecError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be an array")))
}

/// The `key` field as a decimal-string `u64` (see [`Json::from_u64`]).
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not a decimal string.
pub fn field_u64(v: &Json, key: &str) -> Result<u64, CodecError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a decimal string (u64)")))
}

/// The `key` field as a decimal-string `u128` (see [`Json::from_u128`]).
///
/// # Errors
///
/// Returns a [`CodecError`] when missing or not a decimal string.
pub fn field_u128(v: &Json, key: &str) -> Result<u128, CodecError> {
    field(v, key)?
        .as_u128()
        .ok_or_else(|| CodecError::new(format!("field `{key}` must be a decimal string (u128)")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_compact_printing() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-1.5",
            "1000000000000000000000000000000",
            "Infinity",
            "-Infinity",
            r#""hello""#,
            r#"["a",1,null,{"k":true}]"#,
            r#"{"a":1,"b":[2,3]}"#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            assert_eq!(v.to_string(), case, "case {case}");
        }
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let v = Json::parse(r#"{"z": {"b": 1, "a": 2}, "a": 3}"#).unwrap();
        assert_eq!(v.canonical_string(), r#"{"a":3,"z":{"a":2,"b":1}}"#);
    }

    #[test]
    fn canonical_is_invariant_under_reparse() {
        let v = Json::parse(r#"{ "x": [1.0, 2.50, 1e2], "s": "a\nb" }"#).unwrap();
        let canon = v.canonical_string();
        let reparsed = Json::parse(&canon).unwrap();
        // Key order differs after the canonical sort, so compare canonical
        // bytes (the equality content addressing relies on), not `==`.
        assert_eq!(reparsed.canonical_string(), canon);
    }

    #[test]
    fn numbers_print_shortest_form() {
        assert_eq!(Json::num(3.0).to_string(), "3");
        assert_eq!(Json::num(0.5).to_string(), "0.5");
        assert_eq!(Json::num(f64::INFINITY).to_string(), "Infinity");
        assert_eq!(Json::num(f64::NEG_INFINITY).to_string(), "-Infinity");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected_at_construction() {
        let _ = Json::num(f64::NAN);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é∞";
        let v = Json::Str(s.to_string());
        let printed = v.to_string();
        assert_eq!(Json::parse(&printed).unwrap(), v);
        // Explicit escape sequences parse too.
        let parsed = Json::parse(r#""éA 😀""#).unwrap();
        assert_eq!(parsed.as_str().unwrap(), "éA 😀");
    }

    #[test]
    fn u64_and_u128_go_through_strings() {
        let v = Json::from_u64(u64::MAX);
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::from_u128(u128::MAX);
        assert_eq!(v.as_u128(), Some(u128::MAX));
        assert_eq!(Json::num(3.0).as_u64(), None, "numbers are not u64 fields");
    }

    #[test]
    fn as_usize_requires_exact_integers() {
        assert_eq!(Json::num(7.0).as_usize(), Some(7));
        assert_eq!(Json::num(7.5).as_usize(), None);
        assert_eq!(Json::num(-1.0).as_usize(), None);
        assert_eq!(Json::num(1e300).as_usize(), None);
    }

    #[test]
    fn parse_errors_carry_positions() {
        let cases = [
            ("", "end of input"),
            ("{", "string object key"),
            ("[1,]", "expected a JSON value"),
            ("[1 2]", "expected `,` or `]`"),
            (r#"{"a":1,"a":2}"#, "duplicate"),
            (r#"{"a" 1}"#, "expected `:`"),
            ("tru", "expected `true`"),
            ("NaN", "expected a JSON value"),
            ("1.5.5", "invalid number"),
            (r#""unterminated"#, "unterminated"),
            (r#""bad \q escape""#, "invalid escape"),
            (r#""\ud800 alone""#, "surrogate"),
            ("[1] []", "trailing"),
            ("\x01", "expected a JSON value"),
        ];
        for (input, want) in cases {
            let err = Json::parse(input).unwrap_err();
            assert!(
                err.to_string().contains(want),
                "input {input:?}: got {err}, wanted {want:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut input = String::new();
        for _ in 0..200 {
            input.push('[');
        }
        assert!(Json::parse(&input)
            .unwrap_err()
            .to_string()
            .contains("nesting"));
    }

    #[test]
    fn canon_check_accepts_every_canonical_printing() {
        let cases = [
            "null",
            "true",
            "0",
            "-1.5",
            "Infinity",
            "-Infinity",
            r#""hello""#,
            r#"{ "z": {"b": 1, "a": 2}, "a": [3, 0.25, 1e2] }"#,
            r#""quote\" slash\\ nl\n tab\t ctrl\u0001 é∞""#,
            "[[[[[]]]]]",
            r#"{"game":{"kind":"matrix"},"config":null}"#,
        ];
        for case in cases {
            let canon = Json::parse(case).unwrap().canonical_string();
            assert!(
                canon_check(canon.as_bytes()),
                "canonical bytes must pass: {canon}"
            );
        }
    }

    #[test]
    fn canon_check_rejects_non_canonical_spellings() {
        let cases: &[&[u8]] = &[
            b"",
            b" null",
            b"null ",
            b"[1, 2]",
            br#"{"b":1,"a":2}"#, // unsorted keys
            br#"{"a":1,"a":2}"#, // duplicate keys
            br#"{"a" :1}"#,      // whitespace
            b"01",               // leading zero
            b"1.50",             // trailing fractional zero
            b"1.",               // empty fraction
            b"-0.5e3",           // exponent form
            b"+1",               // sign
            b"NaN",
            b"\"\\u0041\"", // printable char as \u escape
            b"\"\\u000A\"", // uppercase hex
            b"\"\\u0009\"", // short escape `\t` exists
            b"\"\n\"",      // raw control character
            br#""\/""#,     // non-canonical escape
            b"\"raw\x01ctrl\"",
            b"[1][2]", // trailing value
            br#"{"a":}"#,
            b"[1,]",
            b"tru",
        ];
        for case in cases {
            assert!(
                !canon_check(case),
                "must reject: {:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn canon_check_defers_escaped_object_keys() {
        // Escaped-byte order can differ from decoded-character order, so
        // keys containing escapes conservatively fail the check (the
        // caller falls back to parse + canonicalize).
        let v = Json::Obj(vec![("a\nb".into(), Json::Null)]);
        let canon = v.canonical_string();
        assert!(!canon_check(canon.as_bytes()));
        // But escapes in *values* are fine.
        let v = Json::Obj(vec![("k".into(), Json::str("a\nb"))]);
        assert!(canon_check(v.canonical_string().as_bytes()));
    }

    #[test]
    fn canon_check_depth_limit_matches_the_parser() {
        let mut deep = String::new();
        for _ in 0..200 {
            deep.push('[');
        }
        for _ in 0..200 {
            deep.push(']');
        }
        assert!(!canon_check(deep.as_bytes()));
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(canon_check(ok.as_bytes()));
    }

    #[test]
    fn canon_members_and_elements_return_the_spans_of_one_pass() {
        let doc = br#"{"a":[1,{"x":null}],"b":"s\n","c":-0.5}"#;
        let [c, a, z] = canon_members(doc, [b"c", b"a", b"z"]).unwrap();
        assert_eq!(c, Some(&b"-0.5"[..]));
        assert_eq!(a, Some(&br#"[1,{"x":null}]"#[..]));
        assert_eq!(z, None);
        // Only top-level members are reported.
        assert_eq!(canon_members(doc, [b"x"]).unwrap(), [None]);
        let elements = canon_elements(a.unwrap()).unwrap();
        assert_eq!(elements, [&b"1"[..], &br#"{"x":null}"#[..]]);
        assert_eq!(canon_elements(b"[]").unwrap(), Vec::<&[u8]>::new());
        // Each accepts exactly what `canon_check` accepts, of its shape.
        for bad in [
            &b" {}"[..],
            b"{} ",
            br#"{"b":1,"a":2}"#,
            br#"{"a":1.0}"#,
            b"[]",
        ] {
            assert!(canon_members(bad, [b"a"]).is_none(), "{bad:?}");
        }
        for bad in [&b"[1, 2]"[..], b"[1][2]", b"{}", b"[01]"] {
            assert!(canon_elements(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn field_helpers_report_names() {
        let v = Json::parse(r#"{"n": 2, "s": "x", "b": true, "a": [], "big": "123"}"#).unwrap();
        assert_eq!(field_usize(&v, "n").unwrap(), 2);
        assert_eq!(field_f64(&v, "n").unwrap(), 2.0);
        assert_eq!(field_str(&v, "s").unwrap(), "x");
        assert!(field_bool(&v, "b").unwrap());
        assert!(field_arr(&v, "a").unwrap().is_empty());
        assert_eq!(field_u64(&v, "big").unwrap(), 123);
        assert_eq!(field_u128(&v, "big").unwrap(), 123);
        let err = field(&v, "missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = field_usize(&v, "s").unwrap_err().context("outer");
        assert!(err.to_string().contains("outer: field `s`"));
        assert!(field(&Json::Null, "k").is_err());
    }
}
