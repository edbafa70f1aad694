//! A tiny JSON writer *and reader* — just enough to emit the bench
//! harness's JSON-lines records and read them back in `legodb-bench gate`,
//! without an external serialization crate. The reader is a full
//! recursive-descent JSON parser (RFC 8259), but the workspace only ever
//! round-trips the flat objects [`JsonObject`] produces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builder for one flat JSON object, rendered in field-insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, name: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(name));
        &mut self.buf
    }

    /// Add a string field (escaped).
    pub fn str(mut self, name: &str, value: &str) -> JsonObject {
        let escaped = escape(value);
        let _ = write!(self.key(name), "\"{escaped}\"");
        self
    }

    /// Add an integer field.
    pub fn u64(mut self, name: &str, value: u64) -> JsonObject {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// Add a float field. Non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn f64(mut self, name: &str, value: f64) -> JsonObject {
        if value.is_finite() {
            let _ = write!(self.key(name), "{value}");
        } else {
            let _ = write!(self.key(name), "null");
        }
        self
    }

    /// Render the object as one line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Escape a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Objects keep keys in a [`BTreeMap`] — the
/// deterministic-collections rule applies to anything downstream code
/// may iterate and fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as f64 — bench records never exceed
    /// 2^53 so the mantissa is exact for our integers).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The numeric value, if this is a number or a bool (`true` = 1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Render for diagnostics (not guaranteed round-trip formatting).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => format!("{n}"),
            Value::String(s) => format!("\"{}\"", escape(s)),
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Object(m) => {
                let inner: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// A JSON parse error: what was expected, and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Parse a JSON-lines file body: one object per non-empty line.
/// Malformed lines are returned as errors tagged with their 1-based line
/// number.
pub fn parse_lines(input: &str) -> Result<Vec<Value>, JsonParseError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| JsonParseError {
            message: format!("line {}: {}", i + 1, e.message),
            offset: e.offset,
        })?;
        out.push(value);
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.into(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b < 0xE0 => 2,
                        b if b < 0xF0 => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonParseError> {
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
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_order() {
        let line = JsonObject::new()
            .str("name", "xml_parse")
            .u64("samples", 30)
            .f64("median_ns", 1234.5)
            .finish();
        assert_eq!(
            line,
            r#"{"name":"xml_parse","samples":30,"median_ns":1234.5}"#
        );
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let line = JsonObject::new().str("k", "va\"lue").finish();
        assert_eq!(line, r#"{"k":"va\"lue"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = JsonObject::new().f64("x", f64::NAN).f64("y", 2.0).finish();
        assert_eq!(line, r#"{"x":null,"y":2}"#);
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let line = JsonObject::new()
            .str("experiment", "search_scale")
            .u64("scale", 10)
            .f64("speedup", 1.62)
            .f64("nan_becomes", f64::NAN)
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("search_scale"));
        assert_eq!(v.get("scale").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("speedup").unwrap().as_f64(), Some(1.62));
        assert_eq!(v.get("nan_becomes"), Some(&Value::Null));
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a":[1,-2.5,1e3,true,false,null],"b":{"c":"x\ny A 😀"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2.5),
                Value::Number(1000.0),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ])
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny A 😀")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"abc", "{} x", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_lines_reads_jsonl_and_tags_errors() {
        let body = "{\"a\":1}\n\n{\"a\":2}\n";
        let values = parse_lines(body).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values[1].get("a").unwrap().as_f64(), Some(2.0));
        let err = parse_lines("{\"a\":1}\nnope\n").unwrap_err();
        assert!(err.message.contains("line 2"), "{err}");
    }
}
