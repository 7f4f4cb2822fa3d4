//! Minimal JSON for machine-readable experiment results and the HTTP wire.
//!
//! The workspace builds fully offline (no serde). Two halves live here:
//!
//! - the **writer** ([`Json::to_pretty`]): strings are escaped per RFC 8259,
//!   floats are emitted with enough precision to round-trip milliseconds,
//!   and layout is stable (two-space indent) so committed `BENCH_*.json`
//!   records diff cleanly — this is the PR 3 writer, extracted from
//!   `locality-bench` so the serve layer can use it too;
//! - the **parser**: a bounds-checked, non-recursing-past-a-depth-cap
//!   [`Cursor`] pull parser over raw bytes (zero allocations for scalar
//!   payloads — the HTTP front-end's warm path decodes request bodies with
//!   it), plus the [`Json::parse`] tree parser built on top of it for
//!   generic use. Every malformed input is a typed [`JsonError`] carrying
//!   the byte offset; nothing on the parse path panics.
//!
//! `crates/core/tests/serve_no_panics.rs` greps this crate's release paths
//! panic-token-free alongside the serve modules, and
//! `tests/proptest_json.rs` pins `parse(write(x)) == x` differentially.

use std::fmt::Write as _;

mod parse;

pub use parse::{Cursor, JsonError, MAX_DEPTH};

/// A JSON value assembled by the experiment harness (or parsed from text).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (emitted without a fraction).
    Int(i64),
    /// Float (emitted via `{:.3}` — millisecond-level precision).
    Float(f64),
    /// String (escaped on write).
    Str(String),
    /// Ordered key/value object.
    Object(Vec<(String, Json)>),
    /// Array.
    Array(Vec<Json>),
}

impl Json {
    /// Convenience: an object from owned pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A self-describing marker for a measurement a row intentionally did
    /// not take: `{"skipped": "<reason>"}`. Bare `null` told readers of the
    /// committed BENCH artifacts nothing; this says *why* the field is
    /// absent (e.g. `"reference run too slow at this n"`).
    pub fn skipped(reason: &str) -> Json {
        Json::object(vec![("skipped", Json::Str(reason.to_string()))])
    }

    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an integer (ints only — floats are not coerced).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// This value as a float (ints coerce losslessly where they fit).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value's array items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                let _ = write!(out, "{pad}}}");
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                let _ = write!(out, "{pad}]");
            }
        }
    }
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
    fn objects_arrays_and_escapes() {
        let j = Json::object(vec![
            ("name", Json::Str("a \"b\"\n".into())),
            ("n", Json::Int(42)),
            ("ms", Json::Float(1.23456)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Array(vec![])),
        ]);
        let s = j.to_pretty();
        assert!(s.contains("\"a \\\"b\\\"\\n\""));
        assert!(s.contains("\"ms\": 1.235"));
        assert!(s.contains("\"none\": null"));
        assert!(s.ends_with("}\n"));
        // Balanced braces/brackets.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn skipped_markers_are_self_describing() {
        let j = Json::object(vec![
            ("speedup", Json::skipped("no reference run")),
            ("grid_side", Json::Int(32)),
        ]);
        let s = j.to_pretty();
        assert!(s.contains("\"skipped\": \"no reference run\""));
        assert!(s.contains("\"grid_side\": 32"));
        assert!(!s.contains("null"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let j = Json::Array(vec![Json::Float(f64::NAN), Json::Float(f64::INFINITY)]);
        let s = j.to_pretty();
        assert_eq!(s.matches("null").count(), 2);
    }

    #[test]
    fn accessors_navigate_parsed_trees() {
        let j = Json::parse(r#"{"a": 1, "b": [true, "x"], "c": 2.5}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_int), Some(1));
        assert_eq!(j.get("c").and_then(Json::as_f64), Some(2.5));
        let arr = j.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
    }
}
