//! The benchmark's declared metrics (`BENCHMARK.json`), the record a full
//! run writes, and the comparison of two records.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ppm_obs::json::{self, Json};

use crate::stats::Summary;

/// `BENCHMARK.json`, compiled in so the binary and its tests agree on the
/// declared workloads, metrics, units and bounds.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening of the value that counts as a regression
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The declared workloads and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported from untraced reps.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported from traced reps.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        higher_is_better: str_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(SPEC_JSON).expect("the compiled-in BENCHMARK.json parses")
    }

    /// The declared metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Threads one rep ran on.
    pub threads: usize,
    /// Self-checks run.
    pub attempted: u64,
    /// Self-checks failed, with what failed.
    pub failures: Vec<String>,
    /// Digest of the modelled outputs (the first rep's; every other rep's
    /// is checked against it). `None` when no rep finished.
    pub digest: Option<u64>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics by name.
    pub per_layer: BTreeMap<String, Summary>,
}

/// A JSON number, or `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Quote a string for JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The record of a full run.
pub struct Record<'a> {
    /// Commit the benchmark ran on.
    pub git_rev: &'a str,
    /// Cores available to the run.
    pub host_cores: usize,
    /// Workload seed.
    pub seed: u64,
    /// Untraced reps per workload.
    pub reps: usize,
    /// Results, in workload order.
    pub workloads: &'a [(String, WorkloadResult)],
}

impl Record<'_> {
    /// Render as pretty-printed JSON.
    pub fn render(&self, spec: &Spec) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"benchmark\": \"ppm-e2e\",");
        let _ = writeln!(out, "  \"git_rev\": {},", quote(self.git_rev));
        let _ = writeln!(out, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"workloads\": {{");
        for (i, (name, r)) in self.workloads.iter().enumerate() {
            let failed = r.failures.len() as u64;
            let _ = writeln!(out, "    {}: {{", quote(name));
            let _ = writeln!(out, "      \"threads\": {},", r.threads);
            let _ = writeln!(out, "      \"attempted\": {},", r.attempted);
            let _ = writeln!(out, "      \"failed\": {failed},");
            let _ = writeln!(
                out,
                "      \"failed_frac\": {},",
                num(failed as f64 / r.attempted.max(1) as f64)
            );
            let failures: Vec<String> = r.failures.iter().map(|f| quote(f)).collect();
            let _ = writeln!(out, "      \"failures\": [{}],", failures.join(", "));
            let digest = r
                .digest
                .map_or("null".to_string(), |d| format!("\"{d:016x}\""));
            let _ = writeln!(out, "      \"digest\": {digest},");
            for (j, (key, table)) in [("end_to_end", &r.end_to_end), ("per_layer", &r.per_layer)]
                .into_iter()
                .enumerate()
            {
                let _ = writeln!(out, "      \"{key}\": {{");
                let rows: Vec<String> = table
                    .iter()
                    .map(|(m, s)| {
                        let (unit, better) = spec.metric(m).map_or(("", "lower"), |d| {
                            (d.unit.as_str(), if d.higher_is_better { "higher" } else { "lower" })
                        });
                        format!(
                            "        {}: {{\"unit\": {}, \"better\": \"{better}\", \"value\": {}, \"lo\": {}, \"hi\": {}, \"n\": {}}}",
                            quote(m),
                            quote(unit),
                            num(s.value),
                            num(s.lo),
                            num(s.hi),
                            s.n
                        )
                    })
                    .collect();
                let _ = writeln!(out, "{}", rows.join(",\n"));
                let _ = writeln!(out, "      }}{}", if j == 0 { "," } else { "" });
            }
            let comma = if i + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first record.
    pub a: f64,
    /// Value in the second record.
    pub b: f64,
    /// `(b − a) / a`, positive when the metric grew.
    pub change: f64,
    /// The metric's declared bound.
    pub bound: f64,
    /// Whether the second record is worse than the first by more than the
    /// bound.
    pub exceeded: bool,
}

/// Compare every end-to-end value of record `b` against record `a`
/// (both parsed JSON records). Returns the per-metric rows and the
/// workloads that are broken: checks failed in either record, metrics are
/// missing from one of them, or — when both ran the same seed — the
/// modelled outputs differ, since those are deterministic and held to
/// exact equality (the output digest and every `model.*` value).
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> (Vec<Delta>, Vec<String>) {
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    let seed = |r: &Json| r.get("seed").and_then(Json::as_num);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    for w in &spec.workloads {
        let wa = a.get("workloads").and_then(|x| x.get(w));
        let wb = b.get("workloads").and_then(|x| x.get(w));
        let (Some(wa), Some(wb)) = (wa, wb) else {
            broken.push(format!("{w}: missing from a record"));
            continue;
        };
        for (label, r) in [("first", wa), ("second", wb)] {
            if r.get("failed").and_then(Json::as_num) != Some(0.0) {
                broken.push(format!("{w}: failed checks in the {label} record"));
            }
        }
        if same_seed {
            let digest = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_string);
            if digest(wa) != digest(wb) {
                broken.push(format!(
                    "{w}: output digest {:?} differs from {:?}",
                    digest(wb),
                    digest(wa)
                ));
            }
            for m in spec
                .per_layer
                .iter()
                .filter(|m| m.name.starts_with("model."))
            {
                let value = |r: &Json| {
                    r.get("per_layer")
                        .and_then(|t| t.get(&m.name))
                        .and_then(|t| t.get("value"))
                        .and_then(Json::as_num)
                };
                if value(wa) != value(wb) {
                    broken.push(format!(
                        "{w}: {} {:?} differs from {:?}",
                        m.name,
                        value(wb),
                        value(wa)
                    ));
                }
            }
        }
        for m in &spec.end_to_end {
            let value = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|t| t.get(&m.name))
                    .and_then(|t| t.get("value"))
                    .and_then(Json::as_num)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                broken.push(format!("{w}: {} missing", m.name));
                continue;
            };
            let change = (vb - va) / va;
            let worse = if m.higher_is_better { -change } else { change };
            let bound = m.bound.unwrap_or(0.0);
            rows.push(Delta {
                workload: w.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                change,
                bound,
                exceeded: worse.is_nan() || worse > bound,
            });
        }
    }
    (rows, broken)
}
