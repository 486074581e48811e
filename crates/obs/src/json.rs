//! A minimal JSON reader — dependency-free, like the rest of the
//! workspace.
//!
//! Born in `realm-serve` for the job API, it lives here at the bottom
//! of the workspace so every artifact-reading layer (`realm-qos`
//! tables, serve ledgers, tests poking at `metrics_summary.json`) can
//! share one parser. Numbers keep their source text so 64-bit job ids
//! and seeds round-trip exactly (an `f64` intermediate would corrupt
//! values above 2^53). Writing is the obs escaper ([`json_string`]),
//! [`object`] and [`exact_f64`] plus hand-formatted documents, which is
//! what keeps artifact bytes deterministic.

use std::fmt;

use crate::event::json_string;

/// A parse diagnostic with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input.
    pub at: usize,
    /// What was expected or found.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.detail)
    }
}

impl std::error::Error for JsonError {}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: first wins on
    /// [`get`](Json::get)).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing non-whitespace is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member lookup on objects (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum nesting depth accepted (a flat job spec needs 2; 32 bounds
/// hostile input without recursing the stack away).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            detail: detail.into(),
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are replaced, not honored: job
                            // specs are ASCII in practice and the service
                            // must never panic on hostile input.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
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
            .map_err(|_| self.err("non-UTF-8 number"))?;
        Ok(Json::Num(text.to_string()))
    }
}

/// Renders a `key: value` member list as a compact JSON object — the
/// write-side helper for status documents whose values are already
/// JSON-formatted fragments.
pub fn object(members: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(key));
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

/// A float as the compact object `{"value":…,"bits":"…"}`: the shortest
/// decimal that round-trips, plus the IEEE-754 bit pattern as 16 hex
/// digits. `bits` is authoritative on load, so a reader restores the
/// value bit-exactly.
pub fn exact_f64(x: f64) -> String {
    format!("{{\"value\":{x:?},\"bits\":\"{:016x}\"}}", x.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_spec_shaped_document() {
        let doc = r#"{
            "tenant": "alice",
            "priority": -3,
            "samples": 18446744073709551615,
            "design": "realm:m=16,t=0",
            "chunk": null,
            "smoke": true,
            "inject_panic": [2, 5]
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("tenant").and_then(Json::as_str), Some("alice"));
        assert_eq!(v.get("priority").and_then(Json::as_i64), Some(-3));
        // Full 64-bit range survives (f64 would truncate this).
        assert_eq!(v.get("samples").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("chunk"), Some(&Json::Null));
        assert_eq!(v.get("smoke").and_then(Json::as_bool), Some(true));
        let arr = v.get("inject_panic").and_then(Json::as_array).unwrap();
        assert_eq!(
            arr.iter().filter_map(Json::as_u64).collect::<Vec<_>>(),
            [2, 5]
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_unescape() {
        let v = Json::parse(r#""a\"b\\c\n\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn hostile_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "01x",
            "nul",
            "1 2",
            "{\"a\":1}garbage",
            "\"\\q\"",
            "\"\u{0001}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Depth bomb: error, not stack overflow.
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_writer_round_trips_through_the_parser() {
        let doc = object(&[
            ("id", "7".to_string()),
            ("state", json_string("queued")),
            ("tenant", json_string("a\"b")),
        ]);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("tenant").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn exact_f64_writes_value_and_bits() {
        assert_eq!(exact_f64(0.1), r#"{"value":0.1,"bits":"3fb999999999999a"}"#);
        assert_eq!(
            exact_f64(-0.0),
            r#"{"value":-0.0,"bits":"8000000000000000"}"#
        );
    }
}
