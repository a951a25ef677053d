//! The one serializer: metrics and JSON documents are built as values
//! and written by `Json::write`, never spliced together as strings.

use std::fmt::Write as _;

use crate::stats::Windowed;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact, single-line JSON (the contract's last line of stdout).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("string write"),
            // A non-finite number has no JSON form; it would also mean a
            // measurement went wrong, which `null` makes visible.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // Rust prints the shortest digits that round-trip: the value
            // as measured, neither rounded nor padded.
            Json::Num(x) => write!(out, "{x:?}").expect("string write"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("string write")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Multi-line form for files people read: containers of containers
    /// break one item per line, leaves stay on one line.
    pub fn to_pretty(&self) -> String {
        fn go(j: &Json, depth: usize, out: &mut String) {
            let container = |j: &Json| matches!(j, Json::Arr(_) | Json::Obj(_));
            let pad = "  ".repeat(depth + 1);
            match j {
                Json::Arr(items) if items.iter().any(container) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        go(item, depth + 1, out);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&"  ".repeat(depth));
                    out.push(']');
                }
                Json::Obj(fields) if fields.iter().any(|(_, v)| container(v)) => {
                    out.push_str("{\n");
                    for (i, (k, v)) in fields.iter().enumerate() {
                        out.push_str(&pad);
                        Json::Str(k.clone()).write(out);
                        out.push_str(": ");
                        go(v, depth + 1, out);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&"  ".repeat(depth));
                    out.push('}');
                }
                leaf => leaf.write(out),
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s.push('\n');
        s
    }
}

/// One named measurement. `detail` is present for window estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub detail: Option<Windowed>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            detail: None,
        }
    }

    pub fn windowed(name: impl Into<String>, w: Windowed, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value: w.median,
            unit: unit.to_string(),
            detail: Some(w),
        }
    }

    /// The contract's form: `{"value": .., "unit": ..}`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit.as_str())),
        ])
    }

    /// The full-run document's form, with the window spread and counts.
    pub fn full_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(self.unit.as_str())),
        ];
        if let Some(w) = self.detail {
            fields.push(("min_window".into(), Json::Num(w.min)));
            fields.push(("max_window".into(), Json::Num(w.max)));
            fields.push(("windows".into(), Json::Int(w.windows as u64)));
            fields.push(("samples".into(), Json::Int(w.samples)));
        }
        Json::Obj(fields)
    }
}

pub fn metrics_json(metrics: &[Metric], full: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    if full {
                        m.full_json()
                    } else {
                        m.contract_json()
                    },
                )
            })
            .collect(),
    )
}

/// Fixed-width table of metrics for people.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = format!("== {title}\n");
    for m in metrics {
        let _ = write!(out, "  {:width$}  {:>16.6} {:<8}", m.name, m.value, m.unit);
        if let Some(w) = m.detail {
            let _ = write!(
                out,
                " [{:.6} .. {:.6}] {} windows, {} samples",
                w.min, w.max, w.windows, w.samples
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_escapes_strings() {
        let doc = Json::obj([
            ("a", Json::Num(1.2034567891234)),
            ("b", Json::Num(3.0)),
            ("c", Json::Int(7)),
            ("d", Json::str("q\"\\\n")),
            (
                "e",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(f64::NAN)]),
            ),
        ]);
        assert_eq!(
            doc.to_line(),
            r#"{"a": 1.2034567891234, "b": 3.0, "c": 7, "d": "q\"\\\n", "e": [null, true, null]}"#
        );
    }
}
