//! Sample summaries and a minimal JSON writer (the benchmark has no
//! dependencies beyond the repository's own crates).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v` (sorted in place).
/// Returns 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, with its value: `None` below 20 samples, where
/// not even the median has ten samples above it.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (100.0 - p) >= 1000.0 - 1e-6)
        .map(|p| (p, quantile(&mut v.to_vec(), p / 100.0)))
}

/// Named sample series, in name order.
#[derive(Default)]
pub struct Series(pub BTreeMap<String, Vec<f64>>);

impl Series {
    /// Append one sample to series `name`.
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    /// All samples of series `name` (empty if it was never pushed).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A JSON value built by hand.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact rendering on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{:?}` keeps every digit and round-trips; non-finite values
            // have no JSON form, so they never reach a report as numbers.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if u32::from(c) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", u32::from(c));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Int(2)),
            ("d", Json::Bool(true)),
            ("c", Json::str("x\"y")),
        ]);
        assert_eq!(j.render(), r#"{"a": 1.5, "b": 2, "d": true, "c": "x\"y"}"#);
    }
}
