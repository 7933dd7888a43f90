//! A minimal JSON reader for replaying committed fixtures.
//!
//! The workspace *writes* JSON by hand everywhere (telemetry dumps, bench
//! results) so that output is byte-stable across platforms; this module is
//! the matching *reader*, used by the chaos engine to parse minimized
//! failing schedules back into plans. It is deliberately small: objects,
//! arrays, strings (with the escapes our writers emit), numbers, booleans
//! and null — no streaming, no arbitrary-precision arithmetic.
//!
//! Numbers keep their source text ([`JsonValue::Number`] stores the raw
//! token) so `u64` values above 2^53 survive a parse → reserialize cycle
//! bit-exactly, and `f64` fields written with Rust's shortest-round-trip
//! `Display` read back as the identical bit pattern.
//!
//! # Example
//!
//! ```
//! use elmem_util::json::JsonValue;
//!
//! let v = JsonValue::parse("{\"seed\": 42, \"on\": true}").unwrap();
//! assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(42));
//! assert_eq!(v.get("on").and_then(JsonValue::as_bool), Some(true));
//! ```

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source token for lossless round-trips.
    Number(String),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number narrowed to `T` (`u32`, `u16`, ...) through `try_from`,
    /// if it is a non-negative integer that fits: an out-of-range value is
    /// refused, never truncated.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        self.as_u64().and_then(|v| T::try_from(v).ok())
    }

    /// The number parsed as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected '{}' at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
    // Validate up front so a bad token fails at parse time, not at access.
    token
        .parse::<f64>()
        .map_err(|_| format!("invalid number '{token}' at byte {start}"))?;
    Ok(JsonValue::Number(token.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = utf8_len(c);
                let chunk = bytes
                    .get(*pos..*pos + ch_len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push_str(chunk);
                *pos += ch_len;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("\"hi\\n\"").unwrap(),
            JsonValue::String("hi\n".to_string())
        );
    }

    #[test]
    fn numbers_keep_full_u64_precision() {
        let big = u64::MAX;
        let v = JsonValue::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn narrowing_refuses_what_would_truncate() {
        let n = |s: &str| JsonValue::parse(s).unwrap();
        assert_eq!(n("4294967295").as_uint::<u32>(), Some(u32::MAX));
        assert_eq!(n("4294967297").as_uint::<u32>(), None);
        assert_eq!(n("65535").as_uint::<u16>(), Some(u16::MAX));
        assert_eq!(n("65536").as_uint::<u16>(), None);
        assert_eq!(n("-1").as_uint::<u16>(), None);
        assert_eq!(n("\"7\"").as_uint::<u32>(), None);
    }

    #[test]
    fn floats_round_trip_through_display() {
        for x in [0.1f64, 1.0 / 3.0, 2.5e-8, f64::MAX] {
            let v = JsonValue::parse(&format!("{x}")).unwrap();
            assert_eq!(v.as_f64(), Some(x));
            // The token text itself is preserved.
            assert_eq!(v, JsonValue::Number(format!("{x}")));
        }
    }

    #[test]
    fn objects_and_arrays_nest() {
        let v = JsonValue::parse("{\"a\": [1, 2, {\"b\": \"c\"}], \"d\": -3.5}").unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("c"));
        assert_eq!(v.get("d").and_then(JsonValue::as_f64), Some(-3.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        assert_eq!(JsonValue::parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        assert_eq!(JsonValue::parse("\"é\"").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("--5").is_err());
    }

    #[test]
    fn whitespace_everywhere_is_fine() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_array).unwrap().len(), 2);
    }
}
