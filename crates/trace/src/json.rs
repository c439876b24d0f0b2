//! The workspace's shared hand-written JSON vocabulary.
//!
//! The build is fully offline, so every JSON document the workbench
//! emits (`synth --json` reports, `BENCH_fsim.json`, the trace
//! exporters) is hand-written. This module is the single home of the
//! three things those emitters kept reimplementing:
//!
//! * [`escape`] — string-literal escaping;
//! * [`number_f64`] — `f64` formatting that is always a valid JSON
//!   token (non-finite values degrade to `null`);
//! * [`Obj`] / [`Arr`] — compact single-line object/array writers
//!   emitting the workbench's `"key": value` house style;
//!
//! plus a minimal recursive-descent [`parse`]r, used by tests and the
//! `hlstb trace-check` CLI to verify emitted documents are structurally
//! valid without pulling a JSON dependency.

/// Escapes `s` as a complete JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a valid JSON number token: integral values get a
/// trailing `.0`, and non-finite values (never produced by healthy
/// reports, but possible in degenerate sweeps) degrade to `null`
/// rather than emit unparseable text.
pub fn number_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// A compact single-line JSON object writer (`{"a": 1, "b": "x"}`).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
    }

    /// Adds `key` with a pre-rendered JSON value (object, array, or any
    /// token the caller already formatted).
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Obj {
        self.sep();
        self.buf.push_str(&escape(key));
        self.buf.push_str(": ");
        self.buf.push_str(value);
        self
    }

    /// Adds a string field (value escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Obj {
        let v = escape(value);
        self.raw(key, &v)
    }

    /// Adds an unsigned integer field.
    pub fn number_u64(&mut self, key: &str, value: u64) -> &mut Obj {
        self.raw(key, &value.to_string())
    }

    /// Adds a float field via [`number_f64`].
    pub fn number_f64(&mut self, key: &str, value: f64) -> &mut Obj {
        let v = number_f64(value);
        self.raw(key, &v)
    }

    /// Adds a boolean field.
    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// A compact single-line JSON array writer (`[1, "x", {}]`).
#[derive(Debug, Clone, Default)]
pub struct Arr {
    buf: String,
}

impl Arr {
    /// Starts an empty array.
    pub fn new() -> Arr {
        Arr { buf: String::new() }
    }

    /// Appends a pre-rendered JSON value.
    pub fn raw(&mut self, value: &str) -> &mut Arr {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push_str(value);
        self
    }

    /// Appends a string element (escaped).
    pub fn string(&mut self, value: &str) -> &mut Arr {
        let v = escape(value);
        self.raw(&v)
    }

    /// Closes the array and returns the rendered text.
    pub fn finish(&mut self) -> String {
        format!("[{}]", self.buf)
    }
}

/// A parsed JSON value — the minimal model the validating parser needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order (duplicate keys kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value's fields in source order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// anything else after the first value is an error).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogates (which the emitters never
                            // produce) degrade to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the unescaped run up to the next quote or
                    // backslash. Both are ASCII, so they never fall
                    // inside a multi-byte scalar and the run is a valid
                    // `str` slice.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\t\r\u{1}"), "\"\\t\\r\\u0001\"");
        assert_eq!(escape("plain"), "\"plain\"");
    }

    #[test]
    fn number_f64_is_always_a_token() {
        assert_eq!(number_f64(2.0), "2.0");
        assert_eq!(number_f64(2.5), "2.5");
        assert_eq!(number_f64(f64::NAN), "null");
        assert_eq!(number_f64(f64::INFINITY), "null");
    }

    #[test]
    fn writers_compose_and_roundtrip() {
        let mut inner = Arr::new();
        inner.raw("1").string("two").raw("null");
        let mut o = Obj::new();
        o.string("name", "x\"y")
            .number_u64("n", 7)
            .number_f64("f", 1.5)
            .boolean("ok", true)
            .raw("list", &inner.finish());
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("list").and_then(Value::as_array).unwrap().len(), 3);
    }

    #[test]
    fn escaped_strings_roundtrip_through_the_parser() {
        for s in [
            "",
            "quote\" backslash\\ nl\n tab\t",
            "µ unicode 木",
            "\u{7}",
        ] {
            let v = parse(&escape(s)).unwrap();
            assert_eq!(v.as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn parser_accepts_nested_documents() {
        let v = parse(r#" {"a": [1, {"b": null}, -2.5e1], "c": false} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[2].as_f64(), Some(-25.0));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }
}
