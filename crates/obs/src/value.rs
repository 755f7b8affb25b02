//! Dynamically typed structured-log field values.

/// A structured-log field value. Conversions exist from the primitive
/// types the workspace logs (integers, floats, bools, strings), so call
/// sites can write `key = some_usize` without manual wrapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (counters, sizes, steps).
    U64(u64),
    /// Floating point (losses, rates, seconds).
    F64(f64),
    /// Free-form text (paths, labels, error messages).
    Str(String),
}

impl Value {
    /// Appends the value as a bare token for the human text sink.
    pub fn render_text(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => out.push_str(&format!("{v}")),
            Value::Str(s) => {
                if s.contains(char::is_whitespace) || s.is_empty() {
                    out.push('"');
                    out.push_str(s);
                    out.push('"');
                } else {
                    out.push_str(s);
                }
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render_text(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::Str(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_cover_primitives() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
        assert_eq!(Value::from(1.5f32), Value::F64(1.5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn nonfinite_floats_render_as_json_null() {
        for v in [f64::NAN, f64::INFINITY] {
            assert_eq!(crate::Json::from(Value::F64(v)).render(), "null");
        }
    }

    #[test]
    fn text_quotes_strings_with_spaces() {
        assert_eq!(Value::from("a b").to_string(), "\"a b\"");
        assert_eq!(Value::from("plain").to_string(), "plain");
    }
}
