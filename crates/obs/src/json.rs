//! The workspace's one JSON module: the [`Value`] tree, its depth-bounded
//! parser, the string escaper, the number encoding and both writers.
//!
//! The workspace builds offline against a no-op vendored `serde`, so every
//! document it reads or writes goes through this module: outcome, request,
//! placement, campaign and bench documents, campaign-run and log JSONL
//! lines, the metrics snapshot and every `rlplanner.rpc/v1` frame. A schema
//! is defined once, as a function building a [`Value`] (usually with
//! [`json_object!`](crate::json_object)); the call site picks one of the
//! two writers:
//!
//! * [`Value::render`] — compact, one line, no whitespace. Every machine
//!   channel uses it: rpc frames, the metrics snapshot, campaign-run and
//!   log JSONL, bench shards.
//! * [`Value::render_pretty`] — for documents people read: outcome,
//!   request, placement, campaign and bench reports. A container stays on
//!   one line as `{ "k": v, ... }` / `[a, b]` when every member is a
//!   scalar or a non-empty array of scalars; otherwise it puts one member
//!   per line at a two-space indent.
//!
//! # Numbers
//!
//! A non-negative integral number below 2^64 is a [`Value::Int`] and is
//! exact over the whole `u64` range (seeds, counters, grid indices); every
//! other finite number is a [`Value::Num`]. Finite floats render in their
//! shortest round-trip form and non-finite ones as `null`, since JSON
//! cannot represent them. Build numbers with `Value::from` so a tree is
//! always in this canonical form: two trees are equal exactly when they
//! render identically, and `parse(render(v)) == v`.
//!
//! # Untrusted input
//!
//! The `rlp-serve` daemon feeds the parser bytes straight off a socket. The
//! parser is linear in the input, and because descent recurses once per
//! container, nesting is bounded at [`MAX_DEPTH`]: a document like
//! `[[[[...` fails with a [`ParseError`] instead of overflowing the stack.
//! Escaped UTF-16 surrogate pairs decode to their scalar value; a lone,
//! reversed or truncated surrogate is a [`ParseError`].

use std::fmt::{self, Write as _};

/// Maximum container (object/array) nesting depth [`Value::parse`] accepts.
///
/// Deeper documents fail with a parse error naming this limit rather than
/// recursing towards a stack overflow. 128 is orders of magnitude beyond
/// any document the workspace emits (outcome documents nest 5 levels).
pub const MAX_DEPTH: usize = 128;

/// Builds a [`Value::Obj`](crate::json::Value) from `"key": value` pairs,
/// in order; each value is anything `Value::from` accepts.
///
/// ```
/// use rlp_obs::json_object;
/// let doc = json_object! { "name": "cpu", "x_mm": 4.5, "seed": 7u64, "tags": None::<u64> };
/// assert_eq!(doc.render(), r#"{"name":"cpu","x_mm":4.5,"seed":7,"tags":null}"#);
/// ```
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(::std::vec![
            $((::std::string::String::from($key), $crate::json::Value::from($value))),*
        ])
    };
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact up to `u64::MAX`.
    Int(u64),
    /// Any other finite number: negative, fractional or ≥ 2^64.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys keep both entries).
    Obj(Vec<(String, Value)>),
}

/// How [`Value::write`] lays out containers.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// No whitespace at all.
    Compact,
    /// One line, a space after each separator: `{ "k": v }`, `[a, b]`.
    Spaced,
    /// One member per line, the container itself indented this deep.
    Lines(usize),
}

impl Value {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible into values.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends a member to an object; does nothing to other values.
    pub fn push(&mut self, key: &str, value: impl Into<Value>) {
        if let Value::Obj(members) = self {
            members.push((key.to_string(), value.into()));
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required member `key`, read with a typed accessor such as
    /// [`Value::as_u64`]; the error names the field.
    ///
    /// # Errors
    ///
    /// `missing or invalid `key` field` when the member is absent or
    /// `read` rejects it.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or invalid `{key}` field"))
    }

    /// The number, if this is a number (integers convert to the nearest
    /// `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact integer, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact integer, if this is a non-negative integer that fits a
    /// `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON, preserving member order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    /// Renders the human-readable layout described in the
    /// [module docs](self), without a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Lines(0));
        out
    }

    /// Whether the pretty writer keeps this container on one line.
    fn fits_one_line(&self) -> bool {
        let scalar = |v: &Value| !matches!(v, Value::Arr(_) | Value::Obj(_));
        let flat = |v: &Value| match v {
            Value::Arr(items) => !items.is_empty() && items.iter().all(scalar),
            other => scalar(other),
        };
        match self {
            Value::Arr(items) => items.iter().all(flat),
            Value::Obj(members) => members.iter().all(|(_, v)| flat(v)),
            _ => true,
        }
    }

    fn write(&self, out: &mut String, layout: Layout) {
        let (open, close, len) = match self {
            Value::Arr(items) => ('[', ']', items.len()),
            Value::Obj(members) => ('{', '}', members.len()),
            scalar => return scalar.write_scalar(out),
        };
        let layout = match layout {
            Layout::Lines(_) if self.fits_one_line() => Layout::Spaced,
            other => other,
        };
        let inner = match layout {
            Layout::Lines(indent) => Layout::Lines(indent + 2),
            other => other,
        };
        // Spaced objects pad their braces: `{ "k": v }`, but `[a, b]`.
        let padded = layout == Layout::Spaced && open == '{' && len > 0;
        let newline = |out: &mut String, indent: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        };
        out.push(open);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            match layout {
                Layout::Compact => {}
                Layout::Spaced if i > 0 || padded => out.push(' '),
                Layout::Spaced => {}
                Layout::Lines(indent) => newline(out, indent + 2),
            }
            let item = match self {
                Value::Obj(members) => {
                    write_string(&members[i].0, out);
                    out.push_str(if layout == Layout::Compact { ":" } else { ": " });
                    &members[i].1
                }
                Value::Arr(items) => &items[i],
                _ => unreachable!("scalars returned above"),
            };
            item.write(out, inner);
        }
        match layout {
            Layout::Spaced if padded => out.push(' '),
            Layout::Lines(indent) => newline(out, indent),
            _ => {}
        }
        out.push(close);
    }

    fn write_scalar(&self, out: &mut String) {
        match self {
            Value::Bool(b) => _ = write!(out, "{b}"),
            Value::Int(n) => _ = write!(out, "{n}"),
            // `Display` for f64 is the shortest form that parses back to
            // the same value, and never uses an exponent.
            Value::Num(n) if n.is_finite() => _ = write!(out, "{n}"),
            Value::Str(s) => write_string(s, out),
            _ => out.push_str("null"),
        }
    }
}

/// Escapes and quotes a string per RFC 8259 §7 — the only JSON string
/// escaper in the workspace. Every control character (C0, DEL and C1) is
/// escaped, so documents stay printable.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => _ = write!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_from {
    ($($t:ty => |$v:ident| $body:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $body
            }
        }
    )*};
}

impl_from! {
    bool => |b| Value::Bool(b),
    u64 => |n| Value::Int(n),
    u32 => |n| Value::Int(u64::from(n)),
    usize => |n| Value::Int(n as u64),
    i64 => |n| u64::try_from(n).map_or(Value::Num(n as f64), Value::Int),
    f32 => |x| Value::from(f64::from(x)),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
}

impl From<f64> for Value {
    /// The canonical number for `x`: `Int` for a non-negative integral
    /// value below 2^64, `null` for NaN and infinities, `Num` otherwise.
    fn from(x: f64) -> Value {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        if !x.is_finite() {
            Value::Null
        } else if x.fract() == 0.0 && x.is_sign_positive() && x < TWO_POW_64 {
            Value::Int(x as u64)
        } else {
            Value::Num(x)
        }
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the violated rule.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always on a char boundary.
    pos: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// An object (`close` is `}`) or array (`]`), with `pos` on its
    /// opening bracket.
    fn container(&mut self, close: u8) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!(
                "document nests deeper than {MAX_DEPTH} containers"
            )));
        }
        self.depth += 1;
        self.pos += 1;
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.skip_whitespace();
        if self.peek() != Some(close) {
            loop {
                self.skip_whitespace();
                if close == b'}' {
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    members.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        let what = if close == b'}' {
                            "`}` in object"
                        } else {
                            "`]` in array"
                        };
                        return Err(self.error(&format!("expected `,` or {what}")));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(if close == b'}' {
            Value::Obj(members)
        } else {
            Value::Arr(items)
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one go. Those stop bytes are
            // ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("unescaped control character")),
            }
        }
    }

    /// Decodes `\uXXXX` (with `pos` on the `u`), pairing a high surrogate
    /// with the `\uXXXX` low surrogate that must follow it. Leaves `pos` on
    /// the last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                    return Err(self.error("unpaired high surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("high surrogate not followed by a low surrogate"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("unpaired low surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))
    }

    /// Reads the four hex digits after the `u` at `pos`; leaves `pos` on
    /// the last digit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let code = digits.iter().fold(0, |acc, &d| {
            acc * 16 + (d as char).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // A plain digit run is read exactly; anything else (sign, fraction,
        // exponent, or more digits than a u64 holds) goes through f64 and
        // back to the canonical form.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::from)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{ "schema": "rlplanner.bench/v1", "ok": true, "none": null,
                      "benchmarks": [ { "id": "a/b", "median_ns": 12.5 },
                                      { "id": "c", "median_ns": 3e2 } ] }"#;
        let value = Value::parse(doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("rlplanner.bench/v1")
        );
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("none"), Some(&Value::Null));
        let benches = value.get("benchmarks").and_then(Value::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("id").and_then(Value::as_str), Some("a/b"));
        // `3e2` is integral, so it comes back in canonical integer form.
        assert_eq!(benches[1].get("median_ns"), Some(&Value::Int(300)));
        assert_eq!(
            benches[1].get("median_ns").and_then(Value::as_f64),
            Some(300.0)
        );
    }

    #[test]
    fn parses_escapes_and_negative_numbers() {
        let value = Value::parse(r#"{ "s": "a\"b\\c\ndAé", "n": -1.25 }"#).unwrap();
        assert_eq!(value.get("s").and_then(Value::as_str), Some("a\"b\\c\ndAé"));
        assert_eq!(value.get("n").and_then(Value::as_f64), Some(-1.25));
        assert_eq!(value.get("n").and_then(Value::as_u64), None);
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn malformed_documents_report_an_offset() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{} extra",
            "\"raw\ncontrol\"",
            "1.2.3",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
            assert!(err.to_string().contains("at byte"), "{bad}");
        }
    }

    #[test]
    fn integers_are_exact_over_the_whole_u64_range() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let value = Value::parse(&n.to_string()).unwrap();
            assert_eq!(value, Value::Int(n));
            assert_eq!(value.as_u64(), Some(n));
            assert_eq!(value.render(), n.to_string());
        }
        // One past u64::MAX is still a number, just not an exact integer.
        let past = Value::parse("18446744073709551616").unwrap();
        assert_eq!(past.as_u64(), None);
        assert_eq!(past.as_f64(), Some(18_446_744_073_709_551_616.0));
        // Negative and fractional numbers are never integers.
        assert_eq!(Value::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Value::parse("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_render_canonically() {
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(f64::NEG_INFINITY).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        assert_eq!(Value::from(7.0), Value::Int(7));
        assert_eq!(Value::from(-1.25).render(), "-1.25");
        assert_eq!(Value::from(0.000001).render(), "0.000001");
        assert_eq!(Value::from(-0.0).render(), "-0");
        assert_eq!(Value::from(-2i64).render(), "-2");
        assert_eq!(Value::from(None::<u64>), Value::Null);
        // A non-integral literal that happens to be integral is normalised.
        assert_eq!(Value::parse("7.0").unwrap(), Value::Int(7));
    }

    #[test]
    fn surrogate_pairs_decode_and_broken_ones_are_errors() {
        let value = Value::parse(r#""😀""#).unwrap();
        assert_eq!(value.as_str(), Some("\u{1F600}"));
        assert_eq!(
            Value::parse(r#""x𝄞y""#).unwrap().as_str(),
            Some("x\u{1D11E}y")
        );
        for (bad, needle) in [
            (r#""\ud83d""#, "unpaired high surrogate"),
            (r#""\ud83dx""#, "unpaired high surrogate"),
            (r#""\ude00\ud83d""#, "unpaired low surrogate"),
            (r#""\ud83d\u0041""#, "not followed by a low surrogate"),
            (r#""\ud83d\ude0""#, "invalid \\u escape"),
            (r#""\ud83d\u"#, "truncated \\u escape"),
            (r#""\ud8"#, "truncated \\u escape"),
            (r#""\uzzzz""#, "invalid \\u escape"),
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.message.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn strings_escape_every_control_character() {
        let value = Value::from("q\"b\\n\n\t\u{1}\u{7f}\u{85}é😀");
        assert_eq!(
            value.render(),
            "\"q\\\"b\\\\n\\n\\t\\u0001\\u007f\\u0085é😀\""
        );
        assert_eq!(Value::parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of multi-byte text: quadratic decoding would take minutes.
        let text = "ab\u{e9}\u{1F600}".repeat(1 << 19);
        let doc = Value::from(text.as_str()).render();
        let started = std::time::Instant::now();
        assert_eq!(Value::parse(&doc).unwrap().as_str(), Some(text.as_str()));
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn render_round_trips_and_is_canonical() {
        let pretty = "{\n  \"a\": [1, 2.5, null],\n  \"s\": \"x\\ny\",\n  \"ok\": true\n}";
        let compact = "{\"a\":[1,2.5,null],\"s\":\"x\\ny\",\"ok\":true}";
        let value = Value::parse(pretty).unwrap();
        assert_eq!(value.render(), compact);
        let reparsed = Value::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.render(), compact);
    }

    #[test]
    fn pretty_render_keeps_flat_containers_on_one_line() {
        let value = Value::object([
            ("schema", Value::from("demo/v1")),
            (
                "system",
                Value::object([
                    ("name", Value::from("a")),
                    ("size", Value::array([26u64, 26])),
                ]),
            ),
            (
                "rows",
                Value::array([
                    Value::object([("i", Value::from(0u64))]),
                    Value::object([("i", Value::from(1u64))]),
                ]),
            ),
            ("empty", Value::Arr(vec![])),
            ("wrapper", Value::object([("items", Value::Arr(vec![]))])),
        ]);
        assert_eq!(
            value.render_pretty(),
            "{\n  \"schema\": \"demo/v1\",\n  \"system\": { \"name\": \"a\", \"size\": [26, 26] },\n  \
             \"rows\": [\n    { \"i\": 0 },\n    { \"i\": 1 }\n  ],\n  \"empty\": [],\n  \
             \"wrapper\": {\n    \"items\": []\n  }\n}"
        );
        assert_eq!(Value::Obj(vec![]).render_pretty(), "{}");
        assert_eq!(Value::from(3u64).render_pretty(), "3");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A 10k-deep array must come back as a parse error, not recurse the
        // parser into a stack overflow — this is socket-facing code.
        let hostile = "[".repeat(10_000);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );
        let hostile_objects = "{\"k\":".repeat(10_000);
        let err = Value::parse(&hostile_objects).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );

        // The limit counts *nesting*, not total containers: a long but flat
        // document parses fine...
        let flat = format!("[{}]", vec!["[]"; 1000].join(","));
        assert!(Value::parse(&flat).is_ok());
        // ...as does a document exactly at the bound.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let over_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over_limit).is_err());
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Value::parse("[1]").unwrap();
        assert!(value.get("x").is_none());
        assert!(value.as_f64().is_none());
        assert!(value.as_u64().is_none());
        assert!(value.as_bool().is_none());
        assert!(value.as_str().is_none());
        assert_eq!(value.as_array().map(<[Value]>::len), Some(1));
    }

    /// Draws random value trees from a stream of random words.
    struct Trees<'a>(std::slice::Iter<'a, u64>);

    impl Trees<'_> {
        fn word(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0)
        }

        fn string(&mut self) -> String {
            const SPECIAL: &[char] = &['"', '\\', '/', 'a', 'Z', ' ', 'é', '\u{2028}', '\u{ffff}'];
            let len = self.word() % 6;
            (0..len)
                .map(|_| {
                    let w = self.word();
                    let pick = w >> 8;
                    match w % 5 {
                        0 => char::from_u32((pick % 0x20) as u32).unwrap(),
                        1 => char::from_u32(0x7f + (pick % 0x21) as u32).unwrap(),
                        2 => char::from_u32(0x10000 + (pick % 0x100000) as u32).unwrap(),
                        _ => SPECIAL[(pick % SPECIAL.len() as u64) as usize],
                    }
                })
                .collect()
        }

        fn tree(&mut self, depth: usize) -> Value {
            let w = self.word();
            let container = depth < 4 && w.is_multiple_of(3);
            if container {
                let len = (self.word() % 4) as usize;
                return if w.is_multiple_of(2) {
                    Value::Arr((0..len).map(|_| self.tree(depth + 1)).collect())
                } else {
                    Value::Obj(
                        (0..len)
                            .map(|_| (self.string(), self.tree(depth + 1)))
                            .collect(),
                    )
                };
            }
            match (w >> 2) % 6 {
                0 => Value::Null,
                1 => Value::Bool(w.is_multiple_of(2)),
                2 => Value::Int(self.word()),
                3 => Value::from(-f64::from_bits(self.word() & (u64::MAX >> 1))),
                4 => Value::from((self.word() % 1_000_000) as f64 / 64.0 - 7_000.0),
                _ => Value::Str(self.string()),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both writers produce documents the parser reads back to the
        /// same tree, for any strings, integers, floats and nesting up to
        /// the depth bound.
        #[test]
        fn random_trees_round_trip_through_both_writers(
            words in prop::collection::vec(any::<u64>(), 64..256),
            spine in 0usize..=MAX_DEPTH - 4,
            spine_selector in any::<u64>(),
        ) {
            let mut value = Trees(words.iter()).tree(0);
            // Wrap in a chain of containers so the deepest leaves sit at
            // (or near) `MAX_DEPTH`.
            for level in 0..spine {
                value = if (spine_selector >> (level % 64)) & 1 == 0 {
                    Value::Arr(vec![value, Value::Int(level as u64)])
                } else {
                    Value::object([("k", value)])
                };
            }
            prop_assert_eq!(Value::parse(&value.render()).unwrap(), value.clone());
            prop_assert_eq!(Value::parse(&value.render_pretty()).unwrap(), value);
        }
    }
}
