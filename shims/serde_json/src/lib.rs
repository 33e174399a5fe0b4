//! Offline stand-in for the `serde_json` crate.
//!
//! Converts the local `serde` shim's [`Value`] tree to and from JSON text:
//! [`to_string`], [`to_string_pretty`], [`to_vec`], and [`from_str`] /
//! [`from_slice`]. The emitted JSON matches real `serde_json` for the data
//! shapes this workspace serializes (externally-tagged enums, transparent
//! newtypes, `{secs, nanos}` durations).

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e)
    }
}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float (JSON has no
/// representation for NaN or infinities).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0)?;
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// How deeply arrays and objects may nest in parsed text — the default
/// recursion limit of the real `serde_json`. The parser recurses once per
/// level, so without a limit one line of `[`s could overflow the stack of
/// whichever thread parses it; past the limit it returns [`Error`].
pub const MAX_DEPTH: usize = 128;

/// Deserializes a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, on arrays and objects nested deeper
/// than [`MAX_DEPTH`], or on a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", parser.pos)));
    }
    Ok(T::from_value(&value)?)
}

/// Deserializes a value from JSON bytes.
///
/// # Errors
///
/// Returns [`Error`] on invalid UTF-8, malformed JSON, or shape mismatch.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(Error::new)?;
    from_str(s)
}

// --- writer ----------------------------------------------------------------

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<&str>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(Error::new("non-finite float is not representable in JSON"));
            }
            // Keep a decimal point so the value reads back as a float,
            // matching serde_json's `1.0` formatting.
            if f.fract() == 0.0 && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&format!("{f}"));
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            write_sequence(out, items.len(), indent, depth, '[', ']', |out, i, indent, depth| {
                write_value(out, &items[i], indent, depth)
            })?;
        }
        Value::Map(entries) => {
            write_sequence(
                out,
                entries.len(),
                indent,
                depth,
                '{',
                '}',
                |out, i, indent, depth| {
                    let (k, val) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, depth)
                },
            )?;
        }
    }
    Ok(())
}

fn write_sequence(
    out: &mut String,
    len: usize,
    indent: Option<&str>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, usize, Option<&str>, usize) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push(open);
    if len == 0 {
        out.push(close);
        return Ok(());
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(pad) = indent {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str(pad);
            }
        }
        write_item(out, i, indent, depth + 1)?;
    }
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
    out.push(close);
    Ok(())
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}` at byte {}", char::from(byte), self.pos)))
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.consume_keyword("null") => Ok(Value::Null),
            Some(b't') if self.consume_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex).map_err(Error::new)?;
                            let code = u32::from_str_radix(hex, 16).map_err(Error::new)?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape {:?}",
                                other.map(char::from)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences included).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(Error::new)?;
                    let c = rest.chars().next().ok_or_else(|| Error::new("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if is_float {
            text.parse::<f64>().map(Value::F64).map_err(Error::new)
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::I64).map_err(Error::new)
        } else {
            text.parse::<u64>().map(Value::U64).map_err(Error::new)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::U64(1)),
            ("b".to_string(), Value::Seq(vec![Value::F64(1.5), Value::Null])),
            ("c".to_string(), Value::Str("x\"y\n".to_string())),
        ]);
        let text = to_string(&ValueWrap(v.clone())).unwrap();
        assert_eq!(text, r#"{"a":1,"b":[1.5,null],"c":"x\"y\n"}"#);
        let back: ValueWrap = from_str(&text).unwrap();
        assert_eq!(back.0, v);
    }

    #[test]
    fn floats_keep_decimal_point() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn pretty_is_indented() {
        let v = ValueWrap(Value::Map(vec![("k".to_string(), Value::U64(1))]));
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"k\": 1\n}");
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let back: Vec<f64> = from_str("[-1.5, 2e3]").unwrap();
        assert_eq!(back, vec![-1.5, 2000.0]);
        let ints: Vec<i64> = from_str("[-3, 4]").unwrap();
        assert_eq!(ints, vec![-3, 4]);
    }

    /// A `0` nested `depth` levels deep, alternating arrays and objects.
    fn nested(depth: usize) -> String {
        let (mut open, mut close) = (String::new(), String::new());
        for level in 0..depth {
            if level % 2 == 0 {
                open.push('[');
                close.push(']');
            } else {
                open.push_str(r#"{"k":"#);
                close.push('}');
            }
        }
        open + "0" + &close.chars().rev().collect::<String>()
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        assert!(from_str::<ValueWrap>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<ValueWrap>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Sibling containers do not add up: depth is per path.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<ValueWrap>(&wide).is_ok());
    }

    /// Hostile nesting is an error, never a stack overflow, even on a
    /// 2 MiB thread — the stack a server's client-handler thread gets.
    #[test]
    fn malformed_deep_nesting_is_an_error_on_a_small_stack() {
        let corpus: Vec<String> = vec![
            "[".repeat(20_000),
            "[".repeat(1_000_000),
            r#"{"a":"#.repeat(100_000),
            nested(100_000),
            format!("{}1{}", "[".repeat(50_000), "]".repeat(50_000)),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (i, text) in corpus.iter().enumerate() {
                    let err = from_str::<ValueWrap>(text).unwrap_err();
                    assert!(err.to_string().contains("nesting deeper"), "entry {i}: {err}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// Identity wrapper so tests can round-trip raw [`Value`] trees.
    #[derive(Debug)]
    struct ValueWrap(Value);

    impl Serialize for ValueWrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }

    impl Deserialize for ValueWrap {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(ValueWrap(v.clone()))
        }
    }
}
