//! A small, dependency-free JSON value type with parser and writers.
//!
//! The reproduction runs in offline / vendored environments where pulling
//! `serde` + `serde_json` from a registry is not always possible, and the
//! only serialisation the project needs is a handful of report and
//! checkpoint formats. This module provides exactly that: an ordered
//! [`Json`] value, a strict parser, compact and pretty writers, and the
//! [`crate::json!`] object-literal macro. Types that persist themselves
//! implement [`ToJson`] / [`FromJson`] by hand — the formats are part of
//! the public contract and reviewed like code.
//!
//! Numbers are stored as `f64` (JSON's native model); integers up to 2⁵³
//! round-trip exactly, which covers every count and seed the project
//! serialises, and finite `f32` scalars round-trip bit-exactly through the
//! `f64` widening. JSON has no ±∞ or NaN (they are written as `null`), so
//! tensors are not stored as numbers at all: each one is a single string
//! of fixed-width hex bit patterns ([`crate::hex`]), which round-trips
//! every value exactly and keeps the tree at one node per tensor. Strings
//! are written and parsed a run of plain characters at a time, so a
//! multi-megabyte tensor string costs a few copies, not a per-character
//! loop.

use std::fmt::{self, Write};

use crate::error::{Error, Result};

/// A JSON value. Object keys keep insertion order so written files are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (the whole input must be one value).
    ///
    /// Nesting is capped at [`MAX_DEPTH`] containers: the parser recurses
    /// per `[`/`{`, so without the cap a hostile `[[[[…` document would
    /// overflow the stack instead of returning `Err`.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::Serde(format!(
                "trailing characters at byte {pos} of JSON input"
            )));
        }
        Ok(value)
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0).expect("writing to a String cannot fail");
        out
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| Error::Serde(format!("missing JSON field `{key}`")))
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(Error::Serde(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as an `f32` (checkpoint tensors).
    pub fn as_f32(&self) -> Result<f32> {
        Ok(self.as_f64()? as f32)
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
            return Err(Error::Serde(format!("expected unsigned integer, got {n}")));
        }
        Ok(n as usize)
    }

    /// The value as a `u64` (seeds). Accepts integers up to 2⁵³.
    pub fn as_u64(&self) -> Result<u64> {
        Ok(self.as_usize()? as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(Error::Serde(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::Serde(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(Error::Serde(format!("expected array, got {other:?}"))),
        }
    }
}

/// Compact single-line rendering (and `.to_string()` via [`ToString`]),
/// written straight into the formatter's buffer.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_value(self, f, None, 0)
    }
}

/// Serialises a value to [`Json`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from [`Json`].
pub trait FromJson: Sized {
    /// Parses `self` out of `json`, with descriptive [`Error::Serde`]
    /// failures on shape mismatches.
    fn from_json(json: &Json) -> Result<Self>;
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
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
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
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
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Json`] object literal: `json!({ "key": value, ... })`.
/// Values are any `Into<Json>` expression, including nested `json!` calls.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::Json::from($value))),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![$($crate::json::Json::from($value)),*])
    };
    ($value:expr) => {
        $crate::json::Json::from($value)
    };
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(Error::Serde(format!(
            "expected `{token}` at byte {pos} of JSON input"
        )))
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Far beyond anything
/// the writers emit, and small enough that the recursive parser stays well
/// inside even a conservative thread stack.
pub const MAX_DEPTH: usize = 512;

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json> {
    let bytes = text.as_bytes();
    if depth > MAX_DEPTH {
        return Err(Error::Serde(format!(
            "JSON nesting deeper than {MAX_DEPTH} at byte {pos}"
        )));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::Serde("unexpected end of JSON input".into())),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(Error::Serde(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(Error::Serde(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::Serde(format!("expected `\"` at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step. Both
        // are ASCII, so the run ends on a character boundary of the
        // (already valid UTF-8) input.
        let run = find_byte(&bytes[*pos..], |b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::Serde("unterminated JSON string".into()))?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or_else(|| Error::Serde("truncated \\u escape".into()))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| Error::Serde("non-ASCII \\u escape".into()))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| Error::Serde(format!("bad \\u escape `{hex}`")))?;
                // Surrogate pairs are not produced by our writer; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                *pos += 4;
            }
            other => return Err(Error::Serde(format!("bad escape {other:?}"))),
        }
        *pos += 1;
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::Serde("invalid number bytes".into()))?;
    text.parse::<f64>()
        .map_err(|_| Error::Serde(format!("invalid JSON number `{text}`")))
}

fn write_value<W: Write>(
    value: &Json,
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    match value {
        Json::Null => out.write_str("null"),
        Json::Bool(true) => out.write_str("true"),
        Json::Bool(false) => out.write_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(out, indent, depth, ('[', ']'), items.len(), |out, i| {
            write_value(&items[i], out, indent, depth + 1)
        }),
        Json::Obj(fields) => write_seq(out, indent, depth, ('{', '}'), fields.len(), |out, i| {
            write_string(&fields[i].0, out)?;
            out.write_char(':')?;
            if indent.is_some() {
                out.write_char(' ')?;
            }
            write_value(&fields[i].1, out, indent, depth + 1)
        }),
    }
}

fn write_seq<W: Write>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    len: usize,
    mut write_item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(brackets.0)?;
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(width) = indent {
            write!(out, "\n{:1$}", "", width * (depth + 1))?;
        }
        write_item(out, i)?;
    }
    if len > 0 {
        if let Some(width) = indent {
            write!(out, "\n{:1$}", "", width * depth)?;
        }
    }
    out.write_char(brackets.1)
}

fn write_number(n: f64, out: &mut impl Write) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in. Tensors
        // never come here: they are hex strings (see the module docs).
        out.write_str("null")
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer fast path below would erase the sign of -0.0, and
        // f32 scalars (a shard's loss sum) must survive bit-exactly.
        out.write_str("-0.0")
    } else if n == n.trunc() && n.abs() < (1u64 << 53) as f64 {
        write!(out, "{}", n as i64)
    } else {
        // Shortest round-trip representation (Rust's float Display).
        write!(out, "{n}")
    }
}

/// Bytes a JSON string must escape.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Index of the first byte of `bytes` that satisfies `hit`. Each 32-byte
/// block is tested without an early exit, which the compiler vectorizes,
/// so a long run of plain bytes is scanned many bytes per cycle.
fn find_byte(bytes: &[u8], hit: impl Fn(u8) -> bool + Copy) -> Option<usize> {
    let mut offset = 0;
    for block in bytes.chunks(32) {
        if block.iter().fold(false, |any, &b| any | hit(b)) {
            return block.iter().position(|&b| hit(b)).map(|i| offset + i);
        }
        offset += block.len();
    }
    None
}

fn write_string(s: &str, out: &mut impl Write) -> fmt::Result {
    out.write_char('"')?;
    // Copy each run of characters that need no escape in one step. Every
    // escaped character is ASCII, so the cut points are character
    // boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(run) = find_byte(&bytes[start..], needs_escape) {
        let i = start + run;
        out.write_str(&s[start..i])?;
        match bytes[i] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let text = r#"{"name":"fewner","n":3,"scores":[0.5,-1.25,2e3],"ok":true,"none":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.field("name").unwrap().as_str().unwrap(), "fewner");
        assert_eq!(v.field("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(v.field("scores").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.field("ok").unwrap().as_bool().unwrap());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_is_reparseable_and_indented() {
        let v = json!({
            "a": 1usize,
            "b": json!([1.5f64, 2.5f64]),
            "c": json!({ "d": "x" }),
        });
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn f32_values_round_trip_bit_exactly() {
        let values = [
            0.1f32,
            -3.4028235e38,
            1.1754944e-38,
            f32::MIN_POSITIVE,
            1.0 / 3.0,
        ];
        for &x in &values {
            let text = Json::from(x).to_string();
            let back = Json::parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t unicode é 中";
        let text = Json::from(s).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn long_plain_runs_mixed_with_escapes_and_utf8_round_trip() {
        let run = "0123456789abcdef".repeat(300);
        let pieces = [
            run.as_str(),
            "\"",
            run.as_str(),
            "é中🦀",
            run.as_str(),
            "\\\n\r\t\u{1}\u{1f}",
            "",
            "中",
            run.as_str(),
        ];
        let s: String = pieces.concat();
        let text = Json::from(s.as_str()).to_string();
        assert_eq!(
            text.len(),
            s.len() + 2 + 1 + 1 + 1 + 1 + 1 + 5 + 5,
            "one backslash per short escape, six bytes per \\u escape"
        );
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
        // As an object key and next to other values too.
        let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::from(s.as_str())]))]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
        // An escape at the very end of the input is an error, not a panic.
        assert!(Json::parse("\"abc\\").is_err());
        assert!(Json::parse(&format!("\"{run}")).is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        let v = json!({ "a": 1usize });
        assert!(v.field("b").unwrap_err().to_string().contains("`b`"));
        assert!(v.field("a").unwrap().as_str().is_err());
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::from(5000usize).to_string(), "5000");
        assert_eq!(Json::from(0xF3A7u64).to_string(), "62375");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
    }

    #[test]
    fn json_macro_builds_ordered_objects() {
        let v = json!({ "z": 1usize, "a": 2usize });
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }
}
