//! The benchmark's JSON writer. Reading is done with
//! `feisu_format::json::parse`, which the tests round-trip against.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` needs to round-trip; non-finite
    /// values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
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

/// What `feisu_format::json::parse` read, ready to be written again.
impl From<&feisu_format::json::Json> for Json {
    fn from(parsed: &feisu_format::json::Json) -> Json {
        use feisu_format::json::Json as Parsed;
        match parsed {
            Parsed::Null => Json::Null,
            Parsed::Bool(b) => Json::Bool(*b),
            Parsed::Number(n) => Json::Num(*n),
            Parsed::String(s) => Json::Str(s.clone()),
            Parsed::Array(items) => Json::Arr(items.iter().map(Json::from).collect()),
            Parsed::Object(pairs) => {
                Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), v.into())).collect())
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    use feisu_format::json::{parse, Json as Parsed};

    #[test]
    fn round_trips_through_the_repo_parser() {
        let doc = Json::obj([
            ("name", Json::str("a \"quoted\"\\ line\nbreak\ttab")),
            ("count", Json::Int(2_000)),
            ("value", Json::Num(1.2034e-7)),
            ("third", Json::Num(1.0 / 3.0)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Int(1), Json::obj([("k", Json::Num(-2.5))])]),
            ),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'), "one line: {text}");
        let back = parse(&text).expect("writer output parses");
        assert_eq!(
            back.get("name"),
            Some(&Parsed::String("a \"quoted\"\\ line\nbreak\ttab".into()))
        );
        assert_eq!(back.get("count"), Some(&Parsed::Number(2000.0)));
        assert_eq!(back.get("value"), Some(&Parsed::Number(1.2034e-7)));
        assert_eq!(back.get("third"), Some(&Parsed::Number(1.0 / 3.0)));
        assert_eq!(back.get("nan"), Some(&Parsed::Null));
        assert_eq!(back.get("ok"), Some(&Parsed::Bool(true)));
        assert_eq!(back.get("none"), Some(&Parsed::Null));
        let Some(Parsed::Array(list)) = back.get("list") else {
            panic!("list is an array");
        };
        assert_eq!(list[1].get("k"), Some(&Parsed::Number(-2.5)));
        // And what was read writes back to the same text.
        assert_eq!(Json::from(&back).render(), text);
    }
}
