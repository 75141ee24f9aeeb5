//! The workspace's one JSON codec. The workspace is hermetic (no
//! serde): every document it writes — flow errors, run-info lines,
//! metrics exports, chrome traces, job envelopes — is built with
//! [`Obj`] and [`Arr`], and every document it reads — job requests,
//! envelopes, `BENCHMARK.json` — is parsed into a [`Value`]. Both
//! halves share one string escaper and one float writer.
//!
//! Output is compact. Strings are escaped per RFC 8259 (`"`, `\`, and
//! control characters below U+0020); a finite float is written by
//! `Display`, the shortest decimal that reads back to the same bits,
//! and a non-finite one as `null`. [`Value::parse`] reads a document in
//! time linear in its length and refuses what the canonical form
//! cannot hold: nesting deeper than [`MAX_DEPTH`], numbers outside the
//! finite `f64` range, and `\u` escapes that are not four hex digits
//! or leave a surrogate unpaired. [`Value::as_u64`] reads only integers
//! below 2^53, where an `f64` is exact. [`Value::render`] writes the
//! canonical form: sorted keys, no whitespace, floats as above with
//! `-0` as `0`. Equal values render to equal bytes.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// The one float writer: `Display` for finite values, `null` otherwise
/// (JSON has no NaN/Inf).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Builder for a compact JSON object. Keys are emitted in call order.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_quoted(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field (value escaped).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        push_quoted(&mut self.buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Obj {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field. Non-finite values are emitted as `null`
    /// (JSON has no NaN/Inf).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Obj {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    /// Adds a pre-rendered JSON value (object, array, literal) verbatim.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Finishes the object and returns the JSON text.
    pub fn build(&mut self) -> String {
        if self.buf.is_empty() {
            return "{}".to_string();
        }
        let mut s = std::mem::take(&mut self.buf);
        s.push('}');
        s
    }
}

/// Builder for a compact JSON array of pre-rendered values.
#[derive(Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    pub fn new() -> Arr {
        Arr { buf: String::new() }
    }

    /// Appends a pre-rendered JSON value verbatim.
    pub fn raw(&mut self, v: &str) -> &mut Arr {
        self.buf.push(if self.buf.is_empty() { '[' } else { ',' });
        self.buf.push_str(v);
        self
    }

    /// Finishes the array and returns the JSON text.
    pub fn build(&mut self) -> String {
        if self.buf.is_empty() {
            return "[]".to_string();
        }
        let mut s = std::mem::take(&mut self.buf);
        s.push(']');
        s
    }
}

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// Requests, envelopes and `BENCHMARK.json` nest at most three deep;
/// the cap keeps the recursive reader far inside a default thread
/// stack, which a frame of 100 000 `[` overflowed without it.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, always finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys sorted; a repeated key keeps its last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses `text` as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] with a byte offset on malformed input,
    /// trailing non-whitespace, or input the canonical form cannot
    /// represent (see the module docs).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Renders the canonical form (see the module docs).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => {
                let mut out = String::new();
                push_f64(&mut out, if *n == 0.0 { 0.0 } else { *n });
                out
            }
            Value::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                push_quoted(&mut out, s);
                out
            }
            Value::Arr(items) => items
                .iter()
                .fold(&mut Arr::new(), |a, v| a.raw(&v.render()))
                .build(),
            Value::Obj(map) => map
                .iter()
                .fold(&mut Obj::new(), |o, (k, v)| o.raw(k, &v.render()))
                .build(),
        }
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number
    /// below 2^53. From 2^53 on an `f64` no longer tells neighbouring
    /// integers apart: `9007199254740993` reads as `…992`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A JSON syntax error at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.at..]
    }

    fn skip_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&f) {
            self.at += 1;
        }
    }

    fn skip_ws(&mut self) {
        self.skip_while(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn want(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', "object", |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.want(b':')?;
                    p.skip_ws();
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', "array", |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads a bracketed, comma-separated list whose opening bracket is
    /// next, one level deeper, calling `item` for each element.
    fn items(
        &mut self,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.at += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let close = close as char;
                        return Err(self.err(&format!("expected `,` or `{close}` in {what}")));
                    }
                }
            }
        }
        self.at += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.want(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"`, `\` or control byte as
            // one slice: all three are ASCII, so the run ends on a
            // character boundary.
            let start = self.at;
            self.skip_while(|c| c != b'"' && c != b'\\' && c >= 0x20);
            out.push_str(&self.text[start..self.at]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.at += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape character")),
                    });
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed. A high
    /// surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let cp = if (0xd800..0xdc00).contains(&hi) {
            if !self.rest().starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate in unicode escape"));
            }
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("unpaired surrogate in unicode escape"));
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"))
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .rest()
            .get(..4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("a unicode escape needs four hex digits"))?;
        let v = digits
            .iter()
            .fold(0, |v, &d| v * 16 + char::from(d).to_digit(16).unwrap_or(0));
        self.at += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        // Take every sign, digit, dot and exponent mark; `f64`'s parser
        // judges the span. No JSON value may follow a number directly,
        // so a longer span than the number grammar's is malformed
        // either way.
        let start = self.at;
        self.skip_while(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'));
        match self.text[start..self.at].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            Ok(_) => Err(self.err("number outside the finite f64 range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\r"), "x\\ny\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn object_builder() {
        let mut o = Obj::new();
        o.str("a", "v\"x").u64("n", 7).f64("f", 1.5);
        o.raw("inner", "{\"k\":1}");
        assert_eq!(o.build(), r#"{"a":"v\"x","n":7,"f":1.5,"inner":{"k":1}}"#);
    }

    #[test]
    fn empty_and_nonfinite() {
        assert_eq!(Obj::new().build(), "{}");
        assert_eq!(Arr::new().build(), "[]");
        let mut o = Obj::new();
        o.f64("bad", f64::NAN);
        assert_eq!(o.build(), r#"{"bad":null}"#);
    }

    #[test]
    fn array_builder() {
        let mut a = Arr::new();
        a.raw("1").raw("\"x\"");
        assert_eq!(a.build(), r#"[1,"x"]"#);
    }

    #[test]
    fn parses_nested_request_shape() {
        let v = Value::parse(
            r#"{"job":"campaign","n":150,"noise":0.5,"opts":{"verify":true,"cells":["AND2","OR2"]},"x":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("job").and_then(Value::as_str), Some("campaign"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(150));
        assert_eq!(v.get("noise").and_then(Value::as_f64), Some(0.5));
        assert_eq!(
            v.get("opts")
                .and_then(|o| o.get("verify"))
                .and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(v.get("x"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::parse(r#""a\"b\\c\nd A 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd A \u{1f600}"));
        let pair = Value::parse(r#""\ud83d\ude00\u00e9\/""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1f600}é/"));
    }

    #[test]
    fn rejects_trailing_garbage_and_syntax_errors() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse(r#"{"a":}"#).is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("01a").is_err());
    }

    #[test]
    fn object_keys_are_sorted() {
        let v = Value::parse(r#"{"b":1,"a":2}"#).unwrap();
        if let Value::Obj(m) = &v {
            let keys: Vec<&String> = m.keys().collect();
            assert_eq!(keys, ["a", "b"]);
        } else {
            panic!("not an object");
        }
    }

    #[test]
    fn render_is_canonical_and_shares_the_float_writer() {
        let v = Value::parse(r#" { "s" : "q\"\u0001", "b" : [true, null, -0, 2.5e-7, 1e21] } "#)
            .unwrap();
        assert_eq!(
            v.render(),
            r#"{"b":[true,null,0,0.00000025,1000000000000000000000],"s":"q\"\u0001"}"#
        );
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
        for x in [0.1, -3.75, 1e300, 5e-324, 9_007_199_254_740_992.0] {
            let mut o = Obj::new();
            o.f64("x", x);
            assert_eq!(o.build(), format!(r#"{{"x":{}}}"#, Value::Num(x).render()));
        }
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_a_parse_error() {
        let deep = "[".repeat(100_000);
        let e = Value::parse(&deep).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        let closed = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(Value::parse(&closed).is_err());
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects)
            .unwrap_err()
            .message
            .contains("nesting"));
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let v = Value::parse(&at_cap).unwrap();
        assert_eq!(v.render(), at_cap);
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Value::parse(&objects).is_ok());
        let past = format!("[{at_cap}]");
        assert!(Value::parse(&past).is_err());
    }

    #[test]
    fn numbers_outside_the_finite_range_are_refused() {
        for text in ["1e999", "2e308", "-1e999", r#"{"noise_sigma":1e999}"#] {
            let e = Value::parse(text).unwrap_err();
            assert!(e.message.contains("finite"), "{text}: {e}");
        }
        assert_eq!(Value::parse("1e-999").unwrap(), Value::Num(0.0));
        assert_eq!(
            Value::parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn integers_from_2_pow_53_are_not_u64() {
        let n = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(n("9007199254740991"), Some(9_007_199_254_740_991));
        assert_eq!(n("9007199254740992"), None);
        assert_eq!(n("9007199254740993"), None);
        assert_eq!(n("18446744073709551615"), None);
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("-1"), None);
        assert_eq!(n("1.5"), None);
    }

    #[test]
    fn unpaired_surrogates_are_refused() {
        for text in [
            r#""\ud800A""#,
            r#""\ud800""#,
            r#""\ud800\u0041""#,
            r#""\udc00""#,
        ] {
            assert!(Value::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn unicode_escapes_need_four_hex_digits() {
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
        ] {
            let e = Value::parse(text).unwrap_err();
            assert!(e.message.contains("four hex digits"), "{text}: {e}");
        }
        assert_eq!(
            Value::parse(r#""\u0041\u00E9""#).unwrap().as_str(),
            Some("Aé")
        );
    }
}
