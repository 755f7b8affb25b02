//! A minimal JSON document model: compact and pretty rendering, and a
//! strict reader.
//!
//! `cpdg-obs` is zero-dependency by design, so the `run.json` manifest and
//! JSONL sinks render through this hand-rolled writer, and the workspace's
//! JSON inputs (chaos plans, saved result tables, the golden loss file)
//! are read back through [`Json::parse`]. Rendering a finite float always
//! writes a fraction or exponent, so `parse(render(x)) == x`. Log and
//! metric fields are `Json` values too: conversions exist from the
//! primitive types the workspace logs, so call sites can write
//! `key = some_usize` without manual wrapping.

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float; non-finite values render as `null`. Integral values render
    /// with a `.0`, so they read back as floats.
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Appends `(key, value)` to an object; panics on non-objects.
    pub fn push(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(entries) => entries.push((key.to_string(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Appends the value as a bare token for the human text sink. Floats
    /// use `Display` (`2.0` reads `2`, NaN reads `NaN`); a string is bare
    /// unless it is empty or holds whitespace, then quoted as is. Every
    /// other value renders as compact JSON.
    pub(crate) fn render_text(&self, out: &mut String) {
        match self {
            Json::F64(v) => out.push_str(&v.to_string()),
            Json::Str(s) if s.is_empty() || s.contains(char::is_whitespace) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Json::Str(s) => out.push_str(s),
            other => other.render_into(out),
        }
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    let text = v.to_string();
                    out.push_str(&text);
                    if !text.contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.pretty_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Plan files are
/// outside input; the bound keeps a hostile one from overflowing the
/// reader's stack.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document. Refuses anything but whitespace after
    /// the value, nesting deeper than [`MAX_DEPTH`], and numbers outside
    /// the `f64` range. Integers without a fraction or exponent read as
    /// [`Json::U64`] (or [`Json::I64`] when negative), falling back to
    /// [`Json::F64`] beyond 64 bits.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.pos != reader.bytes.len() {
            return Err(reader.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The value under `key` of an object (the first, if repeated);
    /// `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The entries of an object, in document order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Recursive-descent reader over the document's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            entries.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// A string starting at the opening quote. The input is a `&str`, so
    /// the raw runs between escapes are whole UTF-8 sequences.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 input"));
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
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    self.pos += 1;
                    out.push(escaped);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape whose `u` was consumed,
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.error("unpaired surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("unpaired surrogate"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate")),
            _ => high,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        let code = u32::from_str_radix(digits, 16).expect("hex digits");
        self.pos += 4;
        Ok(code)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return Err(self.error("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.error("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(self.error("expected fraction digits"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            integral = false;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(self.error("number out of range")),
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<&String> for Json {
    fn from(v: &String) -> Self {
        Json::Str(v.clone())
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(u64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Self {
        Json::I64(i64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Self {
        Json::F64(f64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn escape_into(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_renders() {
        let j = Json::obj(vec![
            ("a", Json::U64(1)),
            ("b", Json::Str("x\"y".into())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(j.render(), r#"{"a":1,"b":"x\"y","c":[true,null]}"#);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(1.25).render(), "1.25");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(-0.0).render(), "-0.0");
    }

    #[test]
    fn control_chars_escape() {
        let mut s = String::new();
        escape_into("a\nb\u{01}", &mut s);
        assert_eq!(s, "\"a\\nb\\u0001\"");
    }

    #[test]
    fn pretty_is_indented_and_ends_with_newline() {
        let j = Json::obj(vec![("k", Json::obj(vec![("n", Json::U64(2))]))]);
        let p = j.pretty();
        assert!(p.ends_with('\n'));
        assert!(p.contains("  \"k\": {"));
        assert!(p.contains("    \"n\": 2"));
    }

    #[test]
    fn push_extends_objects() {
        let mut j = Json::obj(vec![]);
        j.push("x", Json::from(3u64));
        assert_eq!(j.render(), r#"{"x":3}"#);
    }

    /// A value shaped like a `run.json` manifest: nested objects, arrays,
    /// every scalar kind, integral and fractional floats, and strings
    /// that need escaping.
    fn manifest_like() -> Json {
        Json::obj(vec![
            ("tool", Json::from("cpdg")),
            ("command", Json::from("pretrain")),
            ("status", Json::from("complete")),
            ("seed", Json::U64(u64::MAX)),
            ("offset", Json::I64(i64::MIN)),
            ("elapsed_s", Json::F64(2.0)),
            ("final_loss", Json::F64(0.6914876319212112)),
            ("tiny", Json::F64(5e-324)),
            ("huge", Json::F64(1.7976931348623157e308)),
            (
                "argv",
                Json::Arr(vec![Json::from("--out"), Json::from("m \"q\"\n\t\u{1}é𝄞")]),
            ),
            (
                "dataset",
                Json::obj(vec![
                    ("path", Json::Null),
                    ("quarantined", Json::Bool(false)),
                ]),
            ),
            (
                "counters",
                Json::obj(vec![("matmul.dispatches", Json::U64(12))]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::obj(vec![])),
        ])
    }

    #[test]
    fn parse_inverts_render_and_pretty() {
        let value = manifest_like();
        assert_eq!(Json::parse(&value.render()).unwrap(), value);
        assert_eq!(Json::parse(&value.pretty()).unwrap(), value);
    }

    #[test]
    fn parse_reads_escapes_and_surrogate_pairs() {
        let v = Json::parse(r#""a\"b\\c\/d\b\f\n\r\t\u00e9\ud834\udd1e\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{08}\u{0c}\n\r\té𝄞A"));
        for bad in [
            r#""\ud834""#,
            r#""\udd1e""#,
            r#""\ud834\u0041""#,
            r#""\u12g4""#,
            r#""\x""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert!(Json::parse("\"raw\ncontrol\"").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_reads_numbers_by_kind() {
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::I64(i64::MIN)
        );
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::F64(-1500.0));
        assert_eq!(Json::parse("2E-2").unwrap(), Json::F64(0.02));
        assert_eq!(Json::parse("1e+2").unwrap(), Json::F64(100.0));
        assert_eq!(Json::parse("0.5").unwrap().as_f64(), Some(0.5));
        assert_eq!(Json::parse("7").unwrap().as_f64(), Some(7.0));
        for bad in [
            "01", "-", "1.", ".5", "1e", "1e+", "+1", "1e400", "-1e400", "NaN", "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_refuses_trailing_garbage_and_bad_structure() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,2]]").is_err());
        assert!(Json::parse("true false").is_err());
        assert_eq!(Json::parse(" \n{}\t ").unwrap(), Json::obj(vec![]));
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "tru",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Far past the bound is refused, not a stack overflow.
        assert!(Json::parse(&"[{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors_read_typed_fields() {
        let v = Json::parse(r#"{"n":3,"neg":-2,"x":1.5,"s":"t","b":true,"a":[1],"o":{}}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(v.get("x").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("o").and_then(Json::as_object).map(<[_]>::len),
            Some(0)
        );
        assert!(v.get("missing").is_none());
        assert!(Json::U64(1).get("n").is_none());
    }
}
