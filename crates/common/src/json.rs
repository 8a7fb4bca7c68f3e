//! The workspace's one JSON codec: a value type, a strict parser, and the
//! two writer primitives every encoder takes its strings and floats from.
//!
//! **Reading.** Numbers keep their raw source text (trace ids use all of
//! `u64`, far past `f64`'s 2^53 integer ceiling) and convert on access:
//! [`JsonValue::as_u64`] exact, [`JsonValue::as_f64`] bit-identical for
//! shortest-roundtrip text. The grammar is full JSON, strict on purpose:
//! `+1`, `1.`, `.5`, leading zeros and duplicate object keys are refused, and
//! every error carries its byte offset.
//!
//! **Writing.** Schema encoders own their field layout and nothing else:
//! every string goes through [`write_str`], every float through one rule —
//! finite → shortest-roundtrip digits, non-finite → `null` — spelled `{}` by
//! [`write_f64`] (`2`, never an exponent) for line encoders and `{:?}` by
//! [`JsonValue::from_f64`] (`2.0`, `1e-6`) for documents built as values.
//! `Display` is the compact writer: `parse(&v.to_string()) == v`, and equal
//! values serialize byte-identically.

use std::fmt::{self, Write as _};

/// A JSON value. Numbers keep their raw text (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the exact source text.
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An unsigned integer, as plain decimal text (exact over all of `u64`).
    pub fn from_u64(n: u64) -> JsonValue {
        JsonValue::Num(n.to_string())
    }

    /// A float under the float rule: `null` when non-finite, otherwise the
    /// shortest text that round-trips, in Rust's `{:?}` spelling.
    pub fn from_f64(x: f64) -> JsonValue {
        if x.is_finite() {
            JsonValue::Num(format!("{x:?}"))
        } else {
            JsonValue::Null
        }
    }

    /// Object field lookup (None on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        let fields = self.as_obj()?;
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn num(&self) -> Option<&str> {
        match self {
            JsonValue::Num(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64` (None for non-numbers, negatives,
    /// fractions, or exponent forms).
    pub fn as_u64(&self) -> Option<u64> {
        self.num()?.parse().ok()
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.num()?.parse().ok()
    }

    /// The string content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Append the compact serialization of this value to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(text) => out.push_str(text),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Append `s` as a JSON string literal: quoted, with `"`, `\` and every
/// control character below U+0020 escaped (`\n`, `\r`, `\t` by their short
/// forms, the rest as `\u00XX`).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// `s` as a JSON string literal, quotes included.
pub fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// Append `x` under the float rule: `null` when non-finite, otherwise the
/// shortest text that round-trips, in Rust's `{}` spelling.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume exactly `word` (every stop of `pos` is a char boundary).
    fn eat(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An array (`close` is `]`) or an object (`}`), `pos` on its opening
    /// bracket: an object is an array whose items each carry a `"key":`.
    fn container(&mut self, close: u8) -> Result<JsonValue, JsonError> {
        self.pos += 1;
        let mut keys: Vec<String> = Vec::new();
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if items.is_empty() && self.peek() == Some(close) {
                break;
            }
            if close == b'}' {
                let key = self.string()?;
                if keys.contains(&key) {
                    return Err(self.err(&format!("duplicate key \"{key}\"")));
                }
                keys.push(key);
                self.skip_ws();
                self.eat(":")?;
                self.skip_ws();
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => break,
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
        self.pos += 1;
        Ok(match close {
            b'}' => JsonValue::Obj(keys.into_iter().zip(items).collect()),
            _ => JsonValue::Arr(items),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one whole scalar.
                    let c = self.text[self.pos..].chars().next().expect("in bounds");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected four hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the \uXXXX low half.
            if self.eat("\\u").is_ok() {
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Consume a run of ASCII digits; at least one, or `what` is the error.
    fn digits(&mut self, what: &str) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(what));
        }
        Ok(self.pos - start)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        // Leading zeros: JSON allows "0" and "0.x" but not "01".
        if self.digits("expected digits in number")? > 1 && self.text.as_bytes()[int_start] == b'0'
        {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digits after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digits in exponent")?;
        }
        Ok(JsonValue::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
    }

    #[test]
    fn numbers_keep_raw_text() {
        // 2^63 | 5: unrepresentable in f64; raw text must survive.
        let big = (1u64 << 63) | 5;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v, JsonValue::from_u64(big));
        // Floats parse back bit-exactly from shortest-roundtrip text.
        let f = 0.1f64 + 0.2;
        let v = parse(&format!("{f}")).unwrap();
        assert_eq!(v.as_f64().unwrap().to_bits(), f.to_bits());
        assert_eq!(v.as_u64(), None);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":true},"x"],"c":{"d":null}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("c").unwrap().get("d").unwrap(), &JsonValue::Null);
        assert!(v.get("missing").is_none());
        assert!(a[0].get("a").is_none(), "get on a non-object");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            JsonValue::Str("Aé".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(parse("\"\\ud83d\"").is_err());
        // Multibyte scalars pass through unescaped, in both directions.
        let v = parse("\"é😀\"").unwrap();
        assert_eq!(v, JsonValue::Str("é😀".into()));
        assert_eq!(v.to_string(), "\"é😀\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "[1] trailing",
            "\"unterminated",
            "{\"a\":}",
            "01",
            "-01",
            "1.",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "nul",
            "\"\\x\"",
            "\"a\tb\"",
            "1 2",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        for good in ["0", "-0", "0.5", "-1.25e-3", "1E+2", "10", "[ ]", "{ }"] {
            assert!(parse(good).is_ok(), "should accept {good:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
        // A lax number scanner or first-key-wins lookup would accept these.
        let e = parse("{\"arrivals\":+4}").unwrap_err();
        assert_eq!(e.offset, 12, "{e}");
        let e = parse("{\"seed\":\"1\",\"seed\":\"2\"}").unwrap_err();
        assert!(e.message.contains("duplicate key \"seed\""), "{e}");
    }

    #[test]
    fn writer_is_compact_deterministic_and_round_trips() {
        let doc = r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": {"d": 0.25}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let printed = v.to_string();
        assert_eq!(
            printed,
            r#"{"a":1,"b":[true,null,"x\n\"y"],"c":{"d":0.25}}"#
        );
        assert_eq!(parse(&printed).unwrap(), v);
        assert_eq!(printed, v.to_string());
    }

    #[test]
    fn every_ascii_char_round_trips_through_write_str() {
        let all: String = ('\u{0}'..='\u{7f}').collect();
        let mut out = String::new();
        write_str(&mut out, &all);
        assert!(out.bytes().all(|b| (0x20..0x80).contains(&b)), "{out:?}");
        assert_eq!(parse(&out).unwrap(), JsonValue::Str(all));
        out.clear();
        write_str(&mut out, "a\"b\\c\nd\re\tf\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\u0001""#);
    }

    #[test]
    fn float_rule_finite_shortest_roundtrip_else_null() {
        for x in [
            0.1,
            1e-12,
            123456789.125,
            2f64.powi(-40),
            0.3333333333333333,
            -0.0,
            1e300,
            f64::MIN_POSITIVE,
        ] {
            let mut stream = String::new();
            write_f64(&mut stream, x);
            let doc = JsonValue::from_f64(x).to_string();
            for text in [stream, doc] {
                let back = parse(&text).unwrap().as_f64().unwrap();
                assert_eq!(back.to_bits(), x.to_bits(), "{x} written as {text}");
            }
        }
        // The two spellings of the same rule.
        let mut stream = String::new();
        write_f64(&mut stream, 2.0);
        assert_eq!(stream, "2");
        assert_eq!(JsonValue::from_f64(2.0).to_string(), "2.0");
        assert_eq!(JsonValue::from_f64(1e-6).to_string(), "1e-6");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut stream = String::new();
            write_f64(&mut stream, x);
            assert_eq!(stream, "null");
            assert_eq!(JsonValue::from_f64(x), JsonValue::Null);
        }
    }
}
