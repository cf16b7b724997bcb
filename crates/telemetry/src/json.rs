//! A minimal JSON parser — just enough to round-trip this crate's own
//! exporter output in tests and to validate Chrome traces in CI. No
//! external dependencies (the build is offline), no serde.
//!
//! Accepts standard JSON (RFC 8259). Numbers are parsed as `f64`, which
//! is exact for every integer this crate emits (u64 counters stay well
//! below 2^53 in practice; the exporters are the only producers).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object, else `None`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Serialises back to compact (single-line) JSON — used to embed a
    /// parsed document inside another JSON message, e.g. the `metrics`
    /// wire response. `parse(v.to_compact()) == v` for every value this
    /// crate's exporters emit (numbers re-format via `f64`; integers are
    /// printed without a fractional part).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&crate::export::escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&crate::export::escape(k));
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        let end = self.pos + word.len();
        if self.text.as_bytes().get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are not emitted by our exporters;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` as one
                    // slice. Both are ASCII, so the run ends on a char
                    // boundary and decoding stays linear in the input.
                    let rest = self.text.get(self.pos..).ok_or("invalid utf-8")?;
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(rest.get(..run).ok_or("invalid utf-8")?);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = self.text.get(start..self.pos).ok_or("invalid utf-8")?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::String("a\n\"bA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\": [1, 2, {\"b\": null}], \"c\": \"d\"}").unwrap();
        let JsonValue::Object(o) = &v else { panic!() };
        let Some(JsonValue::Array(arr)) = o.get("a") else {
            panic!()
        };
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("d"));
    }

    #[test]
    fn decodes_a_mebibyte_string_with_every_escape() {
        let piece = r#"ascii, héllo ✓ 𝄞 \" \\ \/ \n \t \r \b \f \u0041\u00e9\u2713 "#;
        let decoded = "ascii, héllo ✓ 𝄞 \" \\ / \n \t \r \u{8} \u{c} Aé✓ ";
        let reps = (1 << 20) / decoded.len() + 1;
        let want = decoded.repeat(reps);
        assert!(want.len() >= 1 << 20);
        let input = format!("\"{}\"", piece.repeat(reps));
        assert_eq!(parse(&input).unwrap(), JsonValue::String(want));
    }

    #[test]
    fn handles_whitespace_and_unicode() {
        let v = parse(" {\n\t\"k\" : \"héllo✓\" } ").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some("héllo✓"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(Vec::new()));
    }

    #[test]
    fn to_compact_round_trips() {
        let cases = [
            "null",
            "true",
            "{}",
            "[]",
            "{\"a\":[1,2.5,{\"b\":null}],\"c\":\"d\\ne\",\"n\":-150}",
        ];
        for text in cases {
            let v = parse(text).unwrap();
            let compact = v.to_compact();
            assert!(!compact.contains('\n'), "not single-line: {compact:?}");
            assert_eq!(parse(&compact).unwrap(), v, "round-trip of {text}");
        }
        // Integers print without a fractional part so u64-shaped counters
        // survive the f64 round-trip textually.
        assert_eq!(parse("{\"k\": 42}").unwrap().to_compact(), "{\"k\":42}");
    }
}
