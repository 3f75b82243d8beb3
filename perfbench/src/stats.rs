//! Sample collections, percentiles and the hand-written JSON the benchmark
//! prints (the repository's crates carry no serializer).

use std::collections::BTreeMap;
use std::fmt::Write;

/// The `p`-quantile by linear interpolation between closest ranks
/// (`svc_stats`' definition), or `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        svc_stats::quantile::quantile(values, p)
    }
}

/// Median of a sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Named series of samples (milliseconds, ratios, counts), in a stable
/// order so printed output repeats.
#[derive(Debug, Default)]
pub struct Series(BTreeMap<String, Vec<f64>>);

impl Series {
    /// Append one sample to the series `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// The samples of `name` (empty when none were recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// The samples of `name` taken over `passes` passes that each replay
    /// the same operations in the same order, folded to one latency per
    /// operation: the least of its repetitions. Host interference only
    /// ever adds time, so the least repetition is the operation's own
    /// cost; an error when the samples do not split evenly into passes.
    pub fn best_of_passes(&self, name: &str, passes: u64) -> Result<Vec<f64>, String> {
        let v = self.get(name);
        let passes = passes as usize;
        if passes == 0 || !v.len().is_multiple_of(passes) {
            return Err(format!("{} {name} samples do not split into {passes} passes", v.len()));
        }
        let per_pass = v.len() / passes;
        Ok((0..per_pass)
            .map(|i| v.iter().skip(i).step_by(per_pass).copied().fold(f64::INFINITY, f64::min))
            .collect())
    }

    /// Median of `name`, or 0 when the series is empty (a layer the
    /// workload never enters).
    pub fn median_or_zero(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    }
}

/// A JSON value, just rich enough for the benchmark's records.
#[derive(Debug)]
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

    /// Render compactly on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{:?}` prints the shortest representation that reads back
            // to the same f64: every digit the measurement has.
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_numbers_exactly() {
        let j =
            Json::obj([("a", Json::Num(0.1)), ("b", Json::Int(3)), ("c", Json::Str("q\"".into()))]);
        assert_eq!(j.render(), r#"{"a": 0.1, "b": 3, "c": "q\""}"#);
    }

    #[test]
    fn best_of_passes_takes_each_operations_least_repetition() {
        let mut s = Series::default();
        for v in [5.0, 1.0, 9.0, 3.0, 2.0, 7.0] {
            s.push("op", v);
        }
        assert_eq!(s.best_of_passes("op", 2).unwrap(), vec![3.0, 1.0, 7.0]);
        assert!(s.best_of_passes("op", 4).is_err());
        assert!(s.best_of_passes("op", 0).is_err());
    }
}
