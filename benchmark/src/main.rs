//! End-to-end benchmark of the PPM reproduction (see `README.md`).
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1 [--trace-out DIR]
//!     Measure one workload for T seconds. Reps run one at a time, each in a
//!     fresh child process. With --trace 0 every rep is untraced and the
//!     end-to-end metrics are reported; with --trace 1 untraced and traced
//!     reps alternate and the per-layer metrics are reported. The last line
//!     of standard output is one JSON object.
//! benchmark [--seed S] [--out FILE] [--trace-out DIR]
//!     All four workloads: ten untraced reps each, interleaved round-robin,
//!     then one traced rep each. Prints every metric with its unit, value
//!     and lo/hi, and writes the record to FILE.
//! benchmark --compare A.json B.json
//!     Compare two records' end-to-end values against the declared bounds;
//!     exits 1 when any is exceeded, any check failed, or (at the same
//!     seed) any modelled output differs.
//! ```

mod record;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ppm_obs::json;

use crate::record::{compare, num, quote, Record, Spec, WorkloadResult};
use crate::stats::{quantile, Summary};
use crate::workload::{host_cores, Rep, RunOpts, Workload};

/// The default workload seed: the open-loop families' pinned seed, so the
/// default `serve_ol2_obs` traffic is the golden `ol2` tape.
const DEFAULT_SEED: u64 = ppm_workload::OpenLoopFamily::PINNED_SEED;

/// Untraced reps per workload in a full run: as many as a 25 s measurement
/// of `chip_v64` holds, so a full record's values are as steady as the
/// measurements the bounds were sized on.
const REPS: usize = 10;

/// Fewest rounds a timed measurement runs, however short its budget.
const MIN_ROUNDS: usize = 3;

/// Quantile of a measurement's kernel-scaled slice rates its throughput is
/// read at: the upper decile. Interference from the host's other tenants
/// only ever slows a slice, and scaling by the kernels takes out most but
/// not all of it, so the fastest scaled slices estimate a calm host best.
/// Set-up time is read the same way at the fastest rep: with one set-up per
/// rep there are too few samples for a decile.
const RATE_QUANTILE: f64 = 0.9;

/// Where a full run writes its record unless told otherwise.
const DEFAULT_OUT: &str = ".bench_out/record.json";

const USAGE: &str = "usage:
  benchmark --workload W --seed S --seconds T --trace 0|1 [--trace-out DIR]
  benchmark [--seed S] [--out FILE] [--trace-out DIR]
  benchmark --compare A.json B.json";

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// One rep in this process (the parent spawns these).
    Child { workload: Workload, opts: RunOpts },
    /// One workload for a fixed wall-clock budget.
    Measure {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        trace_out: Option<PathBuf>,
    },
    /// Every workload, reps interleaved.
    Full {
        seed: u64,
        out: PathBuf,
        trace_out: Option<PathBuf>,
    },
    /// Two records against the bounds.
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut flags: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let arity = match flag.as_str() {
            "--compare" => 2,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out" | "--out"
            | "--child" | "--traced" => 1,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let values: Vec<&str> = it.by_ref().take(arity).map(String::as_str).collect();
        if values.len() != arity {
            return Err(format!("`{flag}` needs {arity} value(s)"));
        }
        if flags.insert(flag.as_str(), values).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let one = |k: &str| flags.get(k).map(|v| v[0]);
    let workload = |k: &str| -> Result<Option<Workload>, String> {
        one(k)
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .transpose()
    };
    let number = |k: &str| -> Result<Option<f64>, String> {
        one(k)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| format!("`{k}` takes a non-negative number, not `{v}`"))
            })
            .transpose()
    };
    let flag01 = |k: &str| -> Result<bool, String> {
        match one(k) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("`{k}` takes 0 or 1, not `{v}`")),
        }
    };
    let seed = match one("--seed") {
        None => DEFAULT_SEED,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("`--seed` takes an unsigned integer, not `{v}`"))?,
    };
    let trace_out = one("--trace-out").map(PathBuf::from);
    let allowed = |keys: &[&str]| -> Result<(), String> {
        match flags.keys().find(|k| !keys.contains(k)) {
            Some(k) => Err(format!("`{k}` does not apply here")),
            None => Ok(()),
        }
    };

    if let Some(paths) = flags.get("--compare") {
        allowed(&["--compare"])?;
        return Ok(Mode::Compare(paths[0].into(), paths[1].into()));
    }
    if let Some(w) = workload("--child")? {
        allowed(&["--child", "--seed", "--traced", "--trace-out"])?;
        let opts = RunOpts {
            seed,
            scale: 1.0,
            traced: flag01("--traced")?,
            trace_out,
        };
        return Ok(Mode::Child { workload: w, opts });
    }
    if let Some(w) = workload("--workload")? {
        allowed(&[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
        ])?;
        let seconds = number("--seconds")?.ok_or("`--workload` needs `--seconds`")?;
        return Ok(Mode::Measure {
            workload: w,
            seed,
            seconds,
            trace: flag01("--trace")?,
            trace_out,
        });
    }
    allowed(&["--seed", "--out", "--trace-out"])?;
    Ok(Mode::Full {
        seed,
        out: PathBuf::from(one("--out").unwrap_or(DEFAULT_OUT)),
        trace_out,
    })
}

/// Run one rep in a fresh child process of this executable.
fn spawn_rep(
    w: Workload,
    seed: u64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }]);
    if let Some(dir) = trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} rep: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} rep exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let doc = json::parse(line).map_err(|e| format!("{} rep printed bad JSON: {e}", w.name()))?;
    Rep::from_json(&doc).ok_or_else(|| format!("{} rep printed an incomplete result", w.name()))
}

/// The reps of one workload, and the checks run on them.
#[derive(Debug, Default)]
struct Samples {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    attempted: u64,
    failures: Vec<String>,
}

impl Samples {
    /// Take one rep's outcome: a rep that did not finish is one failed
    /// check; a finished rep brings its own checks, and its digest must
    /// equal the first rep's, traced or not.
    fn add(&mut self, outcome: Result<Rep, String>) {
        self.attempted += 1;
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                self.failures.push(e);
                return;
            }
        };
        self.attempted += rep.checks;
        self.failures.extend(rep.failures.iter().cloned());
        if let Some(first) = self.untraced.first().or(self.traced.first()) {
            self.attempted += 1;
            if first.digest != rep.digest {
                self.failures.push(format!(
                    "output digest {:016x} differs from the first rep's {:016x}",
                    rep.digest, first.digest
                ));
            }
        }
        if rep.traced {
            self.traced.push(rep);
        } else {
            self.untraced.push(rep);
        }
    }

    /// A field of every untraced rep.
    fn untraced(&self, field: fn(&Rep) -> f64) -> Vec<f64> {
        self.untraced.iter().map(field).collect()
    }

    /// Throughput, from the untraced reps: simulated chip-seconds per
    /// reference second at [`RATE_QUANTILE`] of every slice, with each
    /// rep's own value as lo/hi.
    fn throughput(&self) -> Summary {
        let rates: Vec<Vec<f64>> = self.untraced.iter().map(Rep::slice_rates).collect();
        let per_rep: Vec<f64> = rates.iter().map(|r| quantile(r, RATE_QUANTILE)).collect();
        Summary {
            value: quantile(&rates.concat(), RATE_QUANTILE),
            ..Summary::of(&per_rep)
        }
    }

    /// End-to-end metrics, from the untraced reps: throughput, the fastest
    /// rep's set-up time (both in reference seconds), and peak RSS.
    fn end_to_end(&self) -> BTreeMap<String, Summary> {
        let setups = self.untraced(Rep::setup_ref_s);
        BTreeMap::from([
            ("sim_s_per_ref_s".to_string(), self.throughput()),
            (
                "setup_s".to_string(),
                Summary {
                    value: quantile(&setups, 0.0),
                    ..Summary::of(&setups)
                },
            ),
            (
                "peak_rss_mb".to_string(),
                Summary::of(&self.untraced(|r| r.peak_rss_mb)),
            ),
        ])
    }

    /// Per-layer metrics, from the traced reps; `trace.overhead` compares
    /// each traced rep's throughput with the untraced reps'. The untraced
    /// reps' raw wall-clock rate and set-up time, and the calibration
    /// kernels' times, ride along to read the scaled numbers against.
    fn per_layer(&self) -> BTreeMap<String, Summary> {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::from([
            (
                "sim_s_per_wall_s".to_string(),
                self.untraced(Rep::wall_rate),
            ),
            ("setup_wall_s".to_string(), self.untraced(Rep::setup_wall_s)),
            (
                "host.cal_us".to_string(),
                self.untraced(|r| r.cal_us(|c| c.l2)),
            ),
            (
                "host.cal_l3_us".to_string(),
                self.untraced(|r| r.cal_us(|c| c.l3)),
            ),
        ]);
        let untraced = self.throughput().value;
        for rep in &self.traced {
            for (k, &v) in &rep.metrics {
                values.entry(k.clone()).or_default().push(v);
            }
            values
                .entry("trace.overhead".to_string())
                .or_default()
                .push(untraced / quantile(&rep.slice_rates(), RATE_QUANTILE) - 1.0);
        }
        values
            .iter()
            .map(|(k, v)| (k.clone(), Summary::of(v)))
            .collect()
    }

    fn result(&self, w: Workload) -> WorkloadResult {
        WorkloadResult {
            threads: w.threads(host_cores()),
            attempted: self.attempted,
            failures: self.failures.clone(),
            digest: self
                .untraced
                .first()
                .or(self.traced.first())
                .map(|r| r.digest),
            end_to_end: self.end_to_end(),
            per_layer: if self.traced.is_empty() {
                BTreeMap::new()
            } else {
                self.per_layer()
            },
        }
    }
}

/// Measure `w` for `seconds`: rounds of one untraced rep (plus one traced
/// rep when `trace`) until the budget is spent and at least
/// [`MIN_ROUNDS`] rounds ran.
fn measure(w: Workload, seed: u64, seconds: f64, trace: bool, trace_out: Option<&Path>) -> Samples {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Samples::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        samples.add(spawn_rep(w, seed, false, None));
        if trace {
            samples.add(spawn_rep(w, seed, true, trace_out));
        }
        rounds += 1;
    }
    samples
}

/// The last line a timed measurement prints: every declared metric of the
/// requested kind, and the check counts. That every declared metric was
/// measured, with a finite value, is one more check.
fn result_line(spec: &Spec, result: &WorkloadResult, trace: bool) -> String {
    let (declared, table) = if trace {
        (&spec.per_layer, &result.per_layer)
    } else {
        (&spec.end_to_end, &result.end_to_end)
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for m in declared {
        match table.get(&m.name) {
            Some(s) if s.value.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(s.value),
                quote(&m.unit)
            )),
            _ => missing.push(m.name.as_str()),
        }
    }
    if !missing.is_empty() {
        eprintln!("not measured: {}", missing.join(", "));
    }
    let failed = result.failures.len() as u64 + u64::from(!missing.is_empty());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        result.attempted + 1,
        metrics.join(", ")
    )
}

/// Print a workload's metrics: name, unit, value, lo, hi, reps.
fn print_table(spec: &Spec, name: &str, r: &WorkloadResult, to_stderr: bool) {
    let mut text = format!(
        "\n## {name}  (threads {}, checks {} run / {} failed)\n{:<32} {:>9} {:>14} {:>14} {:>14} {:>4}\n",
        r.threads,
        r.attempted,
        r.failures.len(),
        "metric",
        "unit",
        "value",
        "lo",
        "hi",
        "n"
    );
    for (m, s) in r.end_to_end.iter().chain(&r.per_layer) {
        let unit = spec.metric(m).map_or("", |d| d.unit.as_str());
        text.push_str(&format!(
            "{m:<32} {unit:>9} {:>14.6} {:>14.6} {:>14.6} {:>4}\n",
            s.value, s.lo, s.hi, s.n
        ));
    }
    for f in &r.failures {
        text.push_str(&format!("FAILED: {f}\n"));
    }
    if to_stderr {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

/// The commit checked out at `root`, read from its `.git` directly
/// (`unknown` outside a git checkout).
fn git_rev(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn warn_if_oversubscribed() {
    let cores = host_cores();
    if cores < 2 {
        eprintln!(
            "warning: {cores} core available; serve_ol2_obs runs its stream writer beside the \
             simulation on the same core, so its numbers are not comparable with a 2-core host"
        );
    }
}

fn run(mode: Mode, started: Instant) -> ExitCode {
    let spec = Spec::load();
    match mode {
        Mode::Child { workload, opts } => {
            println!("{}", workload::run(workload, &opts, started).to_json());
            ExitCode::SUCCESS
        }
        Mode::Measure {
            workload,
            seed,
            seconds,
            trace,
            trace_out,
        } => {
            warn_if_oversubscribed();
            let samples = measure(workload, seed, seconds, trace, trace_out.as_deref());
            let result = samples.result(workload);
            print_table(&spec, workload.name(), &result, true);
            println!("{}", result_line(&spec, &result, trace));
            ExitCode::SUCCESS
        }
        Mode::Full {
            seed,
            out,
            trace_out,
        } => {
            warn_if_oversubscribed();
            let mut samples: Vec<Samples> =
                Workload::ALL.iter().map(|_| Samples::default()).collect();
            for rep in 0..REPS {
                for (w, s) in Workload::ALL.iter().zip(&mut samples) {
                    eprintln!("rep {}/{REPS}: {}", rep + 1, w.name());
                    s.add(spawn_rep(*w, seed, false, None));
                }
            }
            for (w, s) in Workload::ALL.iter().zip(&mut samples) {
                eprintln!("traced: {}", w.name());
                s.add(spawn_rep(*w, seed, true, trace_out.as_deref()));
            }
            let results: Vec<(String, WorkloadResult)> = Workload::ALL
                .iter()
                .zip(&samples)
                .map(|(w, s)| (w.name().to_string(), s.result(*w)))
                .collect();
            let rev = git_rev(Path::new("."));
            println!(
                "# ppm end-to-end benchmark  (rev {rev}, {} cores, seed {seed}, {REPS} reps)",
                host_cores()
            );
            for (name, r) in &results {
                print_table(&spec, name, r, false);
            }
            let record = Record {
                git_rev: &rev,
                host_cores: host_cores(),
                seed,
                reps: REPS,
                workloads: &results,
            };
            let written = out
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&out, record.render(&spec)));
            if let Err(e) = written {
                eprintln!("error: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            println!("\nwrote {}", out.display());
            if results.iter().any(|(_, r)| !r.failures.is_empty()) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Mode::Compare(a, b) => {
            let load = |p: &Path| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| json::parse(&t).map_err(|e| e.to_string()))
                    .map_err(|e| format!("{}: {e}", p.display()))
            };
            let (da, db) = match (load(&a), load(&b)) {
                (Ok(da), Ok(db)) => (da, db),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (rows, broken) = compare(&spec, &da, &db);
            println!(
                "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
                "workload", "metric", "A value", "B value", "change", "bound"
            );
            for d in &rows {
                println!(
                    "{:<14} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                    d.workload,
                    d.metric,
                    d.a,
                    d.b,
                    d.change * 100.0,
                    d.bound * 100.0,
                    if d.exceeded { "EXCEEDED" } else { "ok" }
                );
            }
            for b in &broken {
                println!("BROKEN: {b}");
            }
            if broken.is_empty() && rows.iter().all(|d| !d.exceeded) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(mode) => run(mode, started),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Horizons of the smoke reps, as a share of the measured ones.
    const SMOKE_SCALE: f64 = 0.01;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn tiny_rep(w: Workload, traced: bool) -> Rep {
        let opts = RunOpts {
            seed: DEFAULT_SEED,
            scale: SMOKE_SCALE,
            traced,
            trace_out: None,
        };
        workload::run(w, &opts, Instant::now())
    }

    /// Each workload at tiny scale, one untraced and one traced rep taken
    /// through the same aggregation a timed measurement uses: every
    /// declared metric is emitted with a finite value, nothing undeclared
    /// is emitted, every self-check passes (including traced digest ==
    /// untraced digest), and the result lines parse.
    fn smoke(w: Workload) {
        let spec = Spec::load();
        let mut samples = Samples::default();
        samples.add(Ok(tiny_rep(w, false)));
        samples.add(Ok(tiny_rep(w, true)));
        let result = samples.result(w);
        assert!(
            result.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            result.failures
        );
        for (declared, table) in [
            (&spec.end_to_end, &result.end_to_end),
            (&spec.per_layer, &result.per_layer),
        ] {
            let declared: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            let emitted: BTreeSet<&str> = table.keys().map(String::as_str).collect();
            assert_eq!(emitted, declared, "{}: emitted vs declared", w.name());
            for (name, s) in table {
                assert!(s.value.is_finite(), "{}: {name} = {}", w.name(), s.value);
            }
        }
        for trace in [false, true] {
            let line = result_line(&spec, &result, trace);
            let doc = json::parse(&line).expect("the result line is JSON");
            assert!(
                matches!(doc.get("correct"), Some(json::Json::Bool(true))),
                "{line}"
            );
            assert_eq!(doc.get("failed").and_then(json::Json::as_num), Some(0.0));
            let metrics = match doc.get("metrics") {
                Some(json::Json::Obj(m)) => m,
                _ => panic!("no metrics in {line}"),
            };
            let declared = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            assert_eq!(metrics.len(), declared.len());
            for m in declared {
                let entry = &metrics[&m.name];
                assert_eq!(
                    entry.get("unit").and_then(json::Json::as_str),
                    Some(m.unit.as_str())
                );
            }
        }
    }

    #[test]
    fn smoke_paper_tc2() {
        smoke(Workload::PaperTc2);
    }

    #[test]
    fn smoke_chip_v64() {
        smoke(Workload::ChipV64);
    }

    #[test]
    fn smoke_serve_ol2_obs() {
        smoke(Workload::ServeOl2Obs);
    }

    #[test]
    fn smoke_fleet_64() {
        smoke(Workload::Fleet64);
    }

    #[test]
    fn spec_declares_every_workload_and_bounds_every_end_to_end_metric() {
        let spec = Spec::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_rep_survives_its_json_round_trip() {
        let mut rep = tiny_rep(Workload::PaperTc2, false);
        rep.failures.push("a \"quoted\" failure".to_string());
        let back = Rep::from_json(&json::parse(&rep.to_json()).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn throughput_is_the_upper_decile_of_scaled_slices_and_setup_the_fastest_rep() {
        use crate::stats::{Interval, CAL_REF};
        // At the reference kernel times, reference seconds are wall seconds.
        let at_ref = |wall_s| Interval {
            wall_s,
            before: CAL_REF,
            after: CAL_REF,
        };
        let mut s = Samples::default();
        for (setup, walls) in [(0.3, [1.0, 0.5]), (0.2, [0.25, 0.125])] {
            let mut rep = tiny_rep(Workload::PaperTc2, false);
            rep.slice_sim_s = 1.0;
            rep.setup = vec![at_ref(setup / 2.0), at_ref(setup / 2.0)];
            rep.slices = walls.iter().map(|&w| at_ref(w)).collect();
            s.add(Ok(rep));
        }
        let e2e = s.end_to_end();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Slice rates 1, 2 and 4, 8: the pooled upper decile is 4 + 0.7 × 4,
        // and each rep's own is its lo/hi.
        let rate = e2e["sim_s_per_ref_s"];
        assert!(close(rate.value, 6.8), "{rate:?}");
        assert!(close(rate.lo, 1.9) && close(rate.hi, 7.6), "{rate:?}");
        let setup = e2e["setup_s"];
        assert!(close(setup.value, 0.2) && close(setup.hi, 0.3), "{setup:?}");
    }

    #[test]
    fn a_rep_that_disagrees_with_the_first_fails_one_check() {
        let rep = tiny_rep(Workload::PaperTc2, false);
        let mut other = rep.clone();
        other.digest ^= 1;
        let mut s = Samples::default();
        s.add(Ok(rep.clone()));
        s.add(Ok(rep.clone()));
        assert!(s.failures.is_empty());
        s.add(Ok(other));
        s.add(Err("child exited with 101".to_string()));
        assert_eq!(s.failures.len(), 2);
        assert_eq!(s.attempted, 4 + 3 * rep.checks + 2);
    }

    #[test]
    fn command_lines_parse_into_modes() {
        assert_eq!(
            parse_args(&args("--workload fleet_64 --seed 9 --seconds 10 --trace 1")),
            Ok(Mode::Measure {
                workload: Workload::Fleet64,
                seed: 9,
                seconds: 10.0,
                trace: true,
                trace_out: None,
            })
        );
        assert_eq!(
            parse_args(&[]),
            Ok(Mode::Full {
                seed: DEFAULT_SEED,
                out: PathBuf::from(DEFAULT_OUT),
                trace_out: None,
            })
        );
        assert_eq!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Mode::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            "--workload nope --seconds 1",
            "--workload chip_v64",
            "--workload chip_v64 --seconds 1 --trace 2",
            "--seed -1",
            "--compare a.json",
            "--seconds 1",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    fn summary(v: f64) -> Summary {
        Summary {
            value: v,
            lo: v,
            hi: v,
            n: 5,
        }
    }

    /// A record at `seed` in which every workload has the same result:
    /// throughput 100, set-up 1 s, 10 MiB, digest 0xfeed and a 0.25 miss
    /// fraction, then changed by `edit`.
    fn record(seed: u64, edit: impl Fn(&mut WorkloadResult)) -> json::Json {
        let spec = Spec::load();
        let results: Vec<(String, WorkloadResult)> = spec
            .workloads
            .iter()
            .map(|w| {
                let mut r = WorkloadResult {
                    threads: 1,
                    attempted: 10,
                    failures: Vec::new(),
                    digest: Some(0xfeed),
                    end_to_end: BTreeMap::from([
                        ("sim_s_per_ref_s".to_string(), summary(100.0)),
                        ("setup_s".to_string(), summary(1.0)),
                        ("peak_rss_mb".to_string(), summary(10.0)),
                    ]),
                    per_layer: BTreeMap::from([("model.miss_frac".to_string(), summary(0.25))]),
                };
                edit(&mut r);
                (w.clone(), r)
            })
            .collect();
        let text = Record {
            git_rev: "0123abcd",
            host_cores: 2,
            seed,
            reps: 5,
            workloads: &results,
        }
        .render(&spec);
        json::parse(&text).expect("records are JSON")
    }

    /// Set end-to-end `metric` to `v` in a record result.
    fn set(metric: &'static str, v: f64) -> impl Fn(&mut WorkloadResult) {
        move |r| {
            r.end_to_end.insert(metric.to_string(), summary(v));
        }
    }

    #[test]
    fn compare_flags_exactly_the_metrics_that_worsened_past_their_bound() {
        let spec = Spec::load();
        let bound = |m: &str| spec.metric(m).and_then(|d| d.bound).unwrap();
        let (rate, setup) = (bound("sim_s_per_ref_s"), bound("setup_s"));
        let base = record(1, |_| {});
        // Both a little inside their bounds.
        let within = record(1, |r| {
            set("sim_s_per_ref_s", 100.0 * (1.0 - rate + 0.01))(r);
            set("setup_s", 1.0 + setup - 0.01)(r);
        });
        let (rows, broken) = compare(&spec, &base, &within);
        assert!(broken.is_empty(), "{broken:?}");
        assert!(rows.iter().all(|d| !d.exceeded), "{rows:?}");
        // Throughput a little past its bound, on every workload.
        let slower = record(1, set("sim_s_per_ref_s", 100.0 * (1.0 - rate - 0.01)));
        let (rows, _) = compare(&spec, &base, &slower);
        let exceeded: Vec<&str> = rows
            .iter()
            .filter(|d| d.exceeded)
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(exceeded, vec!["sim_s_per_ref_s"; spec.workloads.len()]);
        // Faster is never a regression, however large.
        let faster = record(1, |r| {
            set("sim_s_per_ref_s", 300.0)(r);
            set("setup_s", 0.1)(r);
        });
        let (rows, _) = compare(&spec, &base, &faster);
        assert!(rows.iter().all(|d| !d.exceeded));
        // Failed checks break the comparison.
        let failed = record(1, |r| r.failures.push("a check".to_string()));
        let (_, broken) = compare(&spec, &base, &failed);
        assert_eq!(broken.len(), spec.workloads.len());
    }

    #[test]
    fn compare_holds_modelled_outputs_to_exact_equality_at_the_same_seed() {
        let spec = Spec::load();
        let base = record(1, |_| {});
        let other_digest = record(1, |r| r.digest = Some(0xbeef));
        let (_, broken) = compare(&spec, &base, &other_digest);
        assert_eq!(broken.len(), spec.workloads.len(), "{broken:?}");
        assert!(broken.iter().all(|b| b.contains("digest")));
        let other_miss = record(1, |r| {
            r.per_layer
                .insert("model.miss_frac".to_string(), summary(0.25 + 1e-15));
        });
        let (_, broken) = compare(&spec, &base, &other_miss);
        assert_eq!(broken.len(), spec.workloads.len(), "{broken:?}");
        assert!(broken.iter().all(|b| b.contains("model.miss_frac")));
        // Another seed models other traffic: outputs may differ.
        let (_, broken) = compare(&spec, &base, &record(2, |r| r.digest = Some(0xbeef)));
        assert!(broken.is_empty(), "{broken:?}");
    }

    #[test]
    fn git_rev_reads_loose_and_packed_refs() {
        let root = std::env::temp_dir().join(format!("ppm-e2e-bench-rev-{}", std::process::id()));
        let git = root.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_rev(&root.join("elsewhere")), "unknown");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&root), "0123abcd", "detached HEAD");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nfeed0001 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&root), "feed0001", "packed ref");
        std::fs::write(git.join("refs/heads/main"), "beef0002\n").unwrap();
        assert_eq!(git_rev(&root), "beef0002", "a loose ref wins");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
