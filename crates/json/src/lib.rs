//! A small, dependency-free JSON layer.
//!
//! The workspace needs JSON in exactly three places — profile files
//! (`madpipe-dnn`), Chrome traces (`madpipe-sim`) and result tables —
//! none of which justify an external serialization framework. This crate
//! provides a [`Value`] tree, a strict parser, compact/pretty writers and
//! the [`ToJson`]/[`FromJson`] traits the model types implement by hand.
//!
//! The parser is a pull [`Reader`] that borrows the document, and
//! [`Value::parse`] is built on it. A decoder on a hot path (a served
//! request line, a profile's chain) reads the document with the reader
//! straight into its own types, and builds `Value`s only for the small
//! fields it wants as trees. Such a decoder holds a field's fault until
//! the document has parsed whole ([`Decoded`]), so a syntax error
//! anywhere wins, with the same message and byte position as
//! [`Value::parse`] gives.
//!
//! Numbers are kept in three shapes (`u64`, `i64`, `f64`) so integer
//! byte counts round-trip exactly; floats are printed with Rust's
//! shortest-round-trip formatting, so `f64` values survive a round trip
//! bit-for-bit (NaN and infinities are not representable in JSON and are
//! rejected on write).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integer (the common case for byte counts).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Any number written with a fraction or exponent.
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Object with insertion order preserved.
    Object(Vec<(String, Value)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description, with a byte offset for parse errors.
    pub message: String,
}

impl JsonError {
    /// Build an error from anything printable.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The error [`Value::field`] gives for an absent key.
    pub fn missing_field(key: &str) -> Self {
        Self::new(format!("missing field `{key}`"))
    }
}

/// `slot`'s value, or [`JsonError::missing_field`] for `key`: how a typed
/// decoder reports a field it did not find.
pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::missing_field(key))
}

/// What a typed decoder reading from a [`Reader`] makes of one value.
/// `Err` is a syntax error, which ends the document. `Ok(Err(_))` is a
/// value that parsed but does not fit the type; the caller reports it
/// only once the whole document has parsed, so that a syntax error
/// anywhere in the document wins over it.
pub type Decoded<T> = Result<Result<T, JsonError>, JsonError>;

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serialize a Rust value into a [`Value`] tree.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Rebuild a Rust value from a [`Value`] tree.
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

impl Value {
    /// Parse a JSON document (strict: no trailing garbage).
    pub fn parse(s: &str) -> Result<Value, JsonError> {
        let mut r = Reader::new(s);
        let v = r.value()?;
        r.finish()?;
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the compact rendering to `out`, a buffer the caller owns.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(x) => write_f64(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => write_seq(
                out,
                indent,
                depth,
                '[',
                ']',
                items.iter(),
                |out, v, ind, d| v.write(out, ind, d),
            ),
            Value::Object(fields) => write_seq(
                out,
                indent,
                depth,
                '{',
                '}',
                fields.iter(),
                |out, (k, v), ind, d| {
                    write_str(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind, d);
                },
            ),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key).ok_or_else(|| JsonError::missing_field(key))
    }

    /// The value as a `u64` (accepting exact floats).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::UInt(u) => Ok(*u),
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            // `u64::MAX as f64` rounds up to 2^64 itself, which is out of
            // range: the bound is the literal 2^64, exclusive.
            Value::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x < 18446744073709551616.0 => {
                Ok(*x as u64)
            }
            other => Err(JsonError::new(format!(
                "expected unsigned integer, got {other:?}"
            ))),
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an owned string, with [`Value::as_str`]'s error.
    pub fn into_string(self) -> Result<String, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => other.as_str().map(str::to_string),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(v) => Ok(v),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// The object's fields as a map (for tests and ad-hoc inspection).
    pub fn as_map(&self) -> Result<BTreeMap<&str, &Value>, JsonError> {
        match self {
            Value::Object(fields) => Ok(fields.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(close);
}

/// Append `x` as a JSON number, exactly as [`Value::Float`] renders:
/// Rust's shortest round-trip decimal, with `.0` added to an integral
/// value so it parses back as a float.
///
/// # Panics
/// If `x` is NaN or infinite, which JSON cannot represent.
pub fn write_f64(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a quoted JSON string literal, exactly as [`Value::Str`]
/// renders.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        out.push_str(s);
    } else {
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
    out.push('"');
}

/// A pull reader over one JSON document: the tokenizer behind
/// [`Value::parse`], for decoders that read a document straight into
/// their own types instead of walking a [`Value`] tree.
///
/// The reader borrows the document. A string comes out as a
/// [`Cow::Borrowed`] slice of it unless it holds an escape; a scalar
/// comes out as the [`Value`] that [`Value::parse`] makes. Every method
/// that reads a value expects the reader to stand at one, which it does
/// after [`Reader::new`], a key from [`Reader::object`] or an item's turn
/// in [`Reader::array`]. A decoder must read every value whole (in the
/// worst case with [`Reader::value`], dropping it) and end with
/// [`Reader::finish`]: it then reports the first syntax error of the
/// document with the message and byte position [`Value::parse`] gives.
///
/// Containers nest at most [`MAX_DEPTH`] deep: the reader recurses once
/// per level, and a line of `[` must not overflow the reading thread's
/// stack.
pub struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers entered and not yet left.
    depth: usize,
}

/// The deepest nesting of arrays and objects a [`Reader`] accepts, as
/// serde_json's default; a deeper document is a syntax error at the
/// first container past it.
pub const MAX_DEPTH: usize = 128;

impl<'a> Reader<'a> {
    /// A reader standing at the document's first value.
    pub fn new(src: &'a str) -> Self {
        let mut r = Reader {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    /// Require that nothing but whitespace follows the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{} at byte {}", msg, self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Read the next value whole, as [`Value::parse`] would.
    pub fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(|s| Value::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            _ => self.scalar(),
        }
    }

    /// Read the next value: a string, borrowed from the document when it
    /// holds no escape, or any other value whole as `Err`.
    pub fn str_or_value(&mut self) -> Result<Result<Cow<'a, str>, Value>, JsonError> {
        if self.peek() == Some(b'"') {
            self.string().map(Ok)
        } else {
            self.value().map(Err)
        }
    }

    /// Read the next value member by member if it is an object: `member`
    /// gets each key in document order and must read that member's value.
    /// Any other value is read whole and returned.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<Option<Value>, JsonError> {
        if self.peek() != Some(b'{') {
            return self.value().map(Some);
        }
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.leave();
            return Ok(None);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.leave();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// The first value of each of `keys` in the next value, as
    /// [`Value::get`] finds it: the other members are read and dropped,
    /// and every slot is `None` when the value is not an object.
    pub fn fields<const N: usize>(
        &mut self,
        keys: [&str; N],
    ) -> Result<[Option<Value>; N], JsonError> {
        let mut slots = [const { None }; N];
        self.object(|r, key| {
            let value = r.value()?;
            if let Some(i) = keys.iter().position(|k| *k == key) {
                slots[i].get_or_insert(value);
            }
            Ok(())
        })?;
        Ok(slots)
    }

    /// Read the next value item by item if it is an array: `item` must
    /// read one item per call. Any other value is read whole and
    /// returned.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<Option<Value>, JsonError> {
        if self.peek() != Some(b'[') {
            return self.value().map(Some);
        }
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.leave();
            return Ok(None);
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.leave();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Step into the container opening at `pos`, unless that nests it
    /// past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Step past the closing bracket at `pos`.
    fn leave(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// A literal or a number.
    fn scalar(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected character `{}`", b as char))),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Take the run of plain bytes up to the next quote or
            // backslash in one step: the input is a `&str` and the run
            // ends at an ASCII byte, so it is whole UTF-8.
            let rest = &self.bytes[self.pos..];
            let Some(run) = plain_run(rest) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let text = &self.src[self.pos..self.pos + run];
            self.pos += run + 1;
            if rest[run] == b'"' {
                if out.is_empty() {
                    return Ok(Cow::Borrowed(text));
                }
                out.push_str(text);
                return Ok(Cow::Owned(out));
            }
            out.push_str(text);
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let code = self.hex4()?;
                    out.push(self.scalar_from(code));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The four hex digits of a `\u` escape, starting at `pos`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The character a decoded `\u` escape stands for. A high surrogate
    /// directly followed by an escaped low surrogate is one astral
    /// character, and both escapes are consumed; any other surrogate is a
    /// lone one and becomes U+FFFD.
    fn scalar_from(&mut self, code: u32) -> char {
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low @ 0xdc00..=0xdfff) => {
                    let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    return char::from_u32(scalar).expect("a surrogate pair is a scalar value");
                }
                // Not a low surrogate: leave that escape for the caller.
                _ => self.pos = resume,
            }
        }
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// The length of the run of bytes before the first `"` or `\\` in
/// `bytes`, if there is one. Eight bytes are tested per step: a byte
/// equal to `c` is a zero byte of `w ^ c·LO`, and `(x − LO) & !x & HI`
/// flags the lowest zero byte of `x` exactly (a borrow only flags bytes
/// above it).
fn plain_run(bytes: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero = |x: u64| x.wrapping_sub(LO) & !x & HI;
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let hits = zero(w ^ (LO * b'"' as u64)) | zero(w ^ (LO * b'\\' as u64));
        if hits != 0 {
            return Some(8 * i + hits.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|p| at + p)
}

// Blanket conveniences for common shapes.
impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::UInt(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl FromJson for u64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_u64()
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" 42 ").unwrap(), Value::UInt(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2.0, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.field("b").unwrap().get("c"), Some(&Value::Null));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\"}", "nulla", "1 2", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 1e-300, 123456.789e10, -0.25] {
            let v = Value::Float(x);
            let back = Value::parse(&v.to_string_compact()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn compact_and_pretty_parse_back_equal() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("resnet".into())),
            (
                "layers".into(),
                Value::Array(vec![Value::UInt(1), Value::Float(0.5)]),
            ),
            ("gpu".into(), Value::Null),
        ]);
        assert_eq!(Value::parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn float_integer_values_keep_their_type() {
        let v = Value::Float(3.0);
        let s = v.to_string_compact();
        assert_eq!(s, "3.0");
        assert_eq!(Value::parse(&s).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn escapes_control_characters() {
        let v = Value::Str("tab\t\"quote\"\u{1}".into());
        let s = v.to_string_compact();
        assert_eq!(Value::parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_passes_through() {
        let v = Value::parse("\"héllo → 🚀\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo → 🚀");
    }

    /// A tree holding every number shape and every escape the writer
    /// knows, plus empty containers and non-ASCII text.
    fn golden_tree() -> Value {
        Value::Object(vec![
            (
                "floats".into(),
                Value::Array(vec![
                    Value::Float(3.0),
                    Value::Float(-0.0),
                    Value::Float(1e-300),
                    Value::Float(1.7976931348623157e308),
                    Value::Float(0.1),
                    Value::Float(-2.5e-7),
                ]),
            ),
            (
                "ints".into(),
                Value::Array(vec![
                    Value::UInt(u64::MAX),
                    Value::Int(i64::MIN),
                    Value::UInt(0),
                    Value::Int(-1),
                ]),
            ),
            (
                "esc \"k\"".into(),
                Value::Str("q\" b\\ n\n r\r t\t u\u{1f} é → 🚀".into()),
            ),
            (
                "nested".into(),
                Value::Object(vec![
                    ("empty_obj".into(), Value::Object(vec![])),
                    ("empty_arr".into(), Value::Array(vec![])),
                    ("null".into(), Value::Null),
                    (
                        "flags".into(),
                        Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
                    ),
                ]),
            ),
        ])
    }

    /// `1e-300` and `f64::MAX` as Rust's `Display` writes them: plain
    /// decimals, never exponent form.
    fn tiny_and_max() -> (String, String) {
        (
            format!("0.{}1", "0".repeat(299)),
            format!("17976931348623157{}.0", "0".repeat(292)),
        )
    }

    #[test]
    fn compact_rendering_matches_the_golden_bytes() {
        let (tiny, max) = tiny_and_max();
        let expected = format!(
            concat!(
                r#"{{"floats":[3.0,-0.0,{tiny},{max},0.1,-0.00000025],"#,
                r#""ints":[18446744073709551615,-9223372036854775808,0,-1],"#,
                r#""esc \"k\"":"q\" b\\ n\n r\r t\t u\u001f é → 🚀","#,
                r#""nested":{{"empty_obj":{{}},"empty_arr":[],"null":null,"flags":[true,false]}}}}"#,
            ),
            tiny = tiny,
            max = max
        );
        let tree = golden_tree();
        assert_eq!(tree.to_string_compact(), expected);
        // `write_compact` appends to what the buffer already holds.
        let mut out = String::from("prefix:");
        tree.write_compact(&mut out);
        assert_eq!(out, format!("prefix:{expected}"));
        assert_eq!(Value::parse(&expected).unwrap(), tree);
    }

    #[test]
    fn pretty_rendering_matches_the_golden_bytes() {
        let (tiny, max) = tiny_and_max();
        let expected = format!(
            concat!(
                "{{\n",
                "  \"floats\": [\n",
                "    3.0,\n",
                "    -0.0,\n",
                "    {tiny},\n",
                "    {max},\n",
                "    0.1,\n",
                "    -0.00000025\n",
                "  ],\n",
                "  \"ints\": [\n",
                "    18446744073709551615,\n",
                "    -9223372036854775808,\n",
                "    0,\n",
                "    -1\n",
                "  ],\n",
                "  \"esc \\\"k\\\"\": \"q\\\" b\\\\ n\\n r\\r t\\t u\\u001f é → 🚀\",\n",
                "  \"nested\": {{\n",
                "    \"empty_obj\": {{}},\n",
                "    \"empty_arr\": [],\n",
                "    \"null\": null,\n",
                "    \"flags\": [\n",
                "      true,\n",
                "      false\n",
                "    ]\n",
                "  }}\n",
                "}}",
            ),
            tiny = tiny,
            max = max
        );
        assert_eq!(golden_tree().to_string_pretty(), expected);
        assert_eq!(Value::parse(&expected).unwrap(), golden_tree());
    }

    #[test]
    fn parse_errors_keep_their_message_and_byte_position() {
        for (doc, message) in [
            ("{\"a\":\"abc", "unterminated string at byte 9"),
            ("[\"x\\q\"]", "unknown escape at byte 5"),
            ("\"ab\\", "unterminated escape at byte 4"),
            ("\"\\u12\"", "truncated \\u escape at byte 3"),
            ("\"\\uZZZZ\"", "invalid \\u escape at byte 3"),
            ("\"\\ud83d\\uZZZZ\"", "invalid \\u escape at byte 9"),
        ] {
            assert_eq!(
                Value::parse(doc).unwrap_err().message,
                message,
                "parsing {doc:?}"
            );
        }
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deepest = nest(open, close, MAX_DEPTH);
            assert!(Value::parse(&deepest).is_ok(), "{open}: depth 128");
            // The 129th container is refused where it opens.
            let too_deep = nest(open, close, MAX_DEPTH + 1);
            assert_eq!(
                Value::parse(&too_deep).unwrap_err().message,
                format!(
                    "nesting deeper than 128 levels at byte {}",
                    128 * open.len()
                ),
                "{open}: depth 129"
            );
        }
        // Empty containers count too, and depth is given back on leaving
        // one: 128 siblings at depth 128 parse.
        let wide = format!(
            "{}{}{}",
            "[".repeat(127),
            "[],".repeat(127) + "[]",
            "]".repeat(127)
        );
        assert!(Value::parse(&wide).is_ok());
        let deep_empty = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(Value::parse(&deep_empty).is_err());
        // A line of `[` far past the limit fails fast, with no recursion
        // past it.
        let flood = "[".repeat(100_000);
        assert_eq!(
            Value::parse(&flood).unwrap_err().message,
            "nesting deeper than 128 levels at byte 128"
        );
    }

    #[test]
    fn as_u64_refuses_two_to_the_64() {
        // The largest double below 2^64 is still a byte count; 2^64 is
        // not, whether written as an integer or a float.
        let below = Value::parse("18446744073709549568.0").unwrap();
        assert_eq!(below.as_u64().unwrap(), 18446744073709549568);
        for doc in [
            "18446744073709551616",
            "18446744073709551616.0",
            "1.8446744073709552e19",
        ] {
            let v = Value::parse(doc).unwrap();
            assert_eq!(v, Value::Float(18446744073709551616.0), "{doc}");
            assert!(v.as_u64().is_err(), "{doc} taken as a u64");
        }
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_their_character() {
        let grin = Value::parse(r#""\ud83d\ude00""#).unwrap();
        let wink = Value::parse(r#""\ud83d\ude01""#).unwrap();
        assert_eq!(grin, Value::Str("\u{1f600}".into()));
        assert_eq!(wink, Value::Str("\u{1f601}".into()));
        for v in [&grin, &wink] {
            assert_eq!(&Value::parse(&v.to_string_compact()).unwrap(), v);
        }
        // Lone surrogates, in either order or before a non-surrogate
        // escape, still become U+FFFD, and nothing after them is lost.
        for (doc, text) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00x""#, "\u{fffd}x"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
        ] {
            assert_eq!(Value::parse(doc).unwrap(), Value::Str(text.into()), "{doc}");
        }
    }

    #[test]
    fn plain_run_finds_the_first_quote_or_backslash() {
        let mut mix = Mix(7);
        for _ in 0..20_000 {
            let bytes: Vec<u8> = (0..mix.below(40))
                .map(|_| b"ab\"\\\xc3\xa9\x7f\x00"[mix.below(8) as usize])
                .collect();
            let naive = bytes.iter().position(|&b| b == b'"' || b == b'\\');
            assert_eq!(plain_run(&bytes), naive, "{bytes:?}");
        }
    }

    /// splitmix64: the random trees below are a pure function of a seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A string mixing plain ASCII, every escape and non-ASCII text.
        fn text(&mut self) -> String {
            const PIECES: [&str; 12] = [
                "a", "layer", " ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "🚀",
            ];
            (0..self.below(8))
                .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
                .collect()
        }

        fn float(&mut self) -> f64 {
            match self.below(4) {
                0 => self.below(1 << 20) as f64,
                1 => f64::from_bits(self.next() >> 2),
                2 => -(self.next() as f64) / (self.next() | 1) as f64,
                _ => (self.below(1000) as f64) * 10f64.powi(self.below(600) as i32 - 300),
            }
        }

        fn tree(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 6 } else { 8 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => Value::UInt(self.next() >> self.below(64)),
                3 => Value::Int(-((self.next() >> 1) as i64) - 1),
                4 => Value::Float(self.float()),
                5 => Value::Str(self.text()),
                6 => Value::Array((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
                _ => Value::Object(
                    (0..self.below(5))
                        .map(|_| (self.text(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn random_trees_round_trip_through_both_renderings(seed in proptest::prelude::any::<u64>()) {
            let v = Mix(seed).tree(4);
            proptest::prop_assert_eq!(Value::parse(&v.to_string_compact()).unwrap(), v.clone());
            proptest::prop_assert_eq!(Value::parse(&v.to_string_pretty()).unwrap(), v);
        }
    }
}
