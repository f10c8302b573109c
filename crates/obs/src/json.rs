//! A minimal JSON value type, writer, and parser.
//!
//! The workspace deliberately avoids external dependencies (experiment
//! results must be bit-stable across crate versions, and the build must
//! work offline), so this module hand-rolls the small JSON surface the
//! repo needs: experiment reports, and the writers and parser of the
//! JSONL span traces ([`crate::Span::end`] writes their lines with
//! `write_number` and `write_string`).
//!
//! Numbers are stored as `f64`. Simulated timestamps are microseconds
//! well below 2^53, so every value the workspace serializes round-trips
//! exactly.

use std::fmt;
use std::ops::Index;

/// An ordered JSON object (preserves insertion order, like the
/// experiment reports expect).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonMap {
    entries: Vec<(String, Json)>,
}

impl JsonMap {
    /// Creates an empty object.
    pub fn new() -> Self {
        JsonMap::default()
    }

    /// Inserts or replaces a key.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Json {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers ≤ 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (insertion-ordered).
    Object(JsonMap),
}

const NULL: &Json = &Json::Null;

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(JsonMap::new())
    }

    /// Inserts a key into an object value. Panics if `self` is not an
    /// object (mirrors `serde_json`'s index-assignment behaviour on the
    /// paths the reports use).
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Object(map) => map.insert(key, value),
            other => panic!("Json::insert on non-object {other:?}"),
        }
    }

    /// The value under `key`, if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Borrows as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrows as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Borrows as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Borrows as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows as an object.
    pub fn as_object(&self) -> Option<&JsonMap> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes with two-space indentation. (Compact serialization is
    /// the `Display`/`to_string()` impl.)
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Appends `n`: an integer below 2^53 without a decimal point, a
/// non-finite value as `null`.
pub(crate) fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional fallback.
        out.push_str("null");
    } else if n.abs() < 9.007_199_254_740_992e15 && (n as i64) as f64 == n {
        // An integer: its digits, without the formatting machinery
        // (span lines are mostly integers).
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = (n as i64).unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `s` as a quoted JSON string, copying the runs between the
/// characters it escapes whole.
pub(crate) fn write_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    let mut rest = s;
    // Every escaped character is ASCII, so the byte after one starts
    // a char.
    while let Some(i) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        match self {
            Json::Array(items) => items.get(idx).unwrap_or(NULL),
            _ => NULL,
        }
    }
}

// ---------------------------------------------------------------------
// Conversions (the `json!` macro leans on these).
// ---------------------------------------------------------------------

macro_rules! from_int {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(v: $t) -> Json { Json::Num(v as f64) }
        })*
    };
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Array(v.iter().cloned().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}
impl From<JsonMap> for Json {
    fn from(v: JsonMap) -> Json {
        Json::Object(v)
    }
}

impl PartialEq<i64> for Json {
    fn eq(&self, other: &i64) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}
impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}
impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}
impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// Builds a [`Json`] value with a literal-ish syntax:
///
/// ```
/// use medes_obs::json;
/// let v = json!({ "name": "fig8", "points": json!([1, 2.5, 3]), "ok": true });
/// assert_eq!(v["name"], "fig8");
/// assert_eq!(v["points"][0], 1);
/// ```
///
/// Object values are arbitrary expressions convertible into `Json`;
/// nested arrays/objects use nested `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Json::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Json::Array(vec![ $( $crate::json::Json::from($elem) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::JsonMap::new();
        $( map.insert($key, $crate::json::Json::from($value)); )*
        $crate::json::Json::Object(map)
    }};
    ($other:expr) => { $crate::json::Json::from($other) };
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (exactly one value, trailing whitespace ok).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static [u8], msg: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal(b"null", "expected null").map(|_| Json::Null),
            Some(b't') => self
                .literal(b"true", "expected true")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal(b"false", "expected false")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = JsonMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.literal(b"\\u", "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_values() {
        let v = json!({
            "id": "fig8",
            "n": 3,
            "mean": 1.5,
            "ok": true,
            "missing": json!(null),
            "series": json!([1, 2, 3]),
        });
        assert_eq!(v["id"], "fig8");
        assert_eq!(v["n"], 3);
        assert_eq!(v["mean"], 1.5);
        assert_eq!(v["ok"], Json::Bool(true));
        assert_eq!(v["missing"], Json::Null);
        assert_eq!(v["series"][2], 3);
        assert_eq!(v["nope"], Json::Null);
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({
            "s": "a \"quoted\"\nline\t\\",
            "nums": json!([0, -1, 2.5, 1e20]),
            "nested": json!({ "k": json!([true, false, json!(null)]) }),
        });
        for text in [v.to_string(), v.to_string_pretty()] {
            let back = parse(&text).expect("roundtrip parse");
            assert_eq!(back, v, "text: {text}");
        }
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(json!(42).to_string(), "42");
        assert_eq!(json!(-7i64).to_string(), "-7");
        assert_eq!(json!(2.5).to_string(), "2.5");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""Aé😀\n""#).unwrap();
        assert_eq!(v, Json::Str("Aé😀\n".to_string()));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "truth",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_the_usual_suspects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" [ ] ").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::object());
        assert_eq!(parse("-1.5e-3").unwrap().as_f64(), Some(-0.0015));
        let v = parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v["a"][1]["b"], Json::Null);
        assert_eq!(v["c"], "d");
    }

    #[test]
    fn map_insert_replaces() {
        let mut m = JsonMap::new();
        m.insert("k", 1);
        m.insert("k", 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("k"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }
}
