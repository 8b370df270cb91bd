//! Minimal JSON writer for the benchmark's report lines (numbers,
//! strings, booleans and ordered objects are all the report needs).

use std::fmt::Write as _;

/// A JSON value with ordered object keys.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialize on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the metric that produced it, reported as 0.
            Json::Num(v) if !v.is_finite() => out.push('0'),
            Json::Num(v) => {
                let _ = write!(out, "{v:?}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Int(3)),
            ("c", Json::str("x\"y")),
            ("d", Json::obj([("e", Json::Bool(true))])),
            ("f", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 1.5, "b": 3, "c": "x\"y", "d": {"e": true}, "f": 0}"#
        );
    }

    #[test]
    fn floats_keep_every_digit() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).render(), "2.0");
    }
}
