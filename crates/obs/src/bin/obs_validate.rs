//! `obs_validate` — well-formedness check for exported telemetry.
//!
//! ```text
//! obs_validate [--scrape ADDR] [TRACE.json|METRICS.csv|METRICS.jsonl|
//!               SNAPSHOT.json|METRICS.prom]...
//! ```
//!
//! Each argument is validated by extension. A `.json` document must be
//! either a trace (a `traceEvents` object or the bare array form of the
//! trace_event spec) or a scrape snapshot; any other document fails. Trace
//! events are checked: complete `"X"` events need a non-negative `dur`,
//! any `"B"`/`"E"` pairs must balance per `(pid, tid)`, and counter
//! arguments must be finite numbers. Documents with an `aggregate`/`alert`
//! section (the scrape endpoint's JSON snapshot) get a domain check
//! instead: window invariants, gauge-stat coherence, percentile ordering,
//! and alert-rule sanity. `.prom` (or `.txt`) files validate as Prometheus
//! 0.0.4 text exposition. `.jsonl` parses line-by-line; `.csv` must be
//! rectangular with a header.
//!
//! `--scrape ADDR` (e.g. `--scrape 127.0.0.1:9898` or a full
//! `http://.../` URL) pulls `/metrics` and `/metrics.json` from a live
//! `ppm-sim --serve` endpoint and runs both validators on the responses.
//!
//! CI runs this on the smoke artifacts and against a live fleet serve;
//! exit status 0 means every input passed.

use std::collections::HashMap;
use std::process::exit;

use ppm_obs::json::{self, Json};

fn fail(msg: &str) -> ! {
    eprintln!("obs_validate: {msg}");
    exit(1);
}

fn validate_trace(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: read failed: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")));
    // A scrape snapshot (aggregate/alert sections) gets the domain check.
    if doc.get("aggregate").is_some() || doc.get("alert").is_some() {
        validate_snapshot(path, &doc);
        return;
    }
    // Accept both the object form ({"traceEvents": [...]}) and the bare
    // array form of the trace_event spec; nothing else is an artefact.
    let Some(events) = doc.get("traceEvents").unwrap_or(&doc).as_arr() else {
        fail(&format!(
            "{path}: neither a trace (traceEvents or a bare array) nor a scrape snapshot"
        ));
    };
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut depth: HashMap<(i64, i64), i64> = HashMap::new();
    for (k, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{path}: event {k}: missing \"ph\"")));
        let pid_tid = || {
            let pid = e.get("pid").and_then(Json::as_num).unwrap_or(0.0) as i64;
            let tid = e.get("tid").and_then(Json::as_num).unwrap_or(0.0) as i64;
            (pid, tid)
        };
        match ph {
            "X" => {
                spans += 1;
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .unwrap_or_else(|| fail(&format!("{path}: event {k}: X without dur")));
                if dur.is_nan() || dur < 0.0 {
                    fail(&format!("{path}: event {k}: negative/NaN dur"));
                }
                if e.get("ts").and_then(Json::as_num).is_none() {
                    fail(&format!("{path}: event {k}: X without numeric ts"));
                }
            }
            "B" => {
                spans += 1;
                *depth.entry(pid_tid()).or_insert(0) += 1;
            }
            "E" => {
                let d = depth.entry(pid_tid()).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    fail(&format!("{path}: event {k}: E without matching B"));
                }
            }
            "C" => {
                counters += 1;
                match e.get("args") {
                    Some(Json::Obj(args)) if !args.is_empty() => {
                        for (name, v) in args {
                            match v.as_num() {
                                Some(n) if n.is_finite() => {}
                                _ => fail(&format!(
                                    "{path}: event {k}: counter series {name} is not a finite number"
                                )),
                            }
                        }
                    }
                    _ => fail(&format!("{path}: event {k}: counter without args")),
                }
            }
            "M" | "I" => {}
            other => fail(&format!("{path}: event {k}: unsupported phase {other:?}")),
        }
    }
    if let Some((&(pid, tid), _)) = depth.iter().find(|(_, &d)| d != 0) {
        fail(&format!("{path}: unbalanced B/E on pid {pid} tid {tid}"));
    }
    println!(
        "ok: {path}: {} events ({spans} spans, {counters} counters)",
        events.len()
    );
}

/// A non-negative finite number at `ctx`, or die.
fn req_num(path: &str, ctx: &str, v: Option<&Json>) -> f64 {
    match v.and_then(Json::as_num) {
        Some(n) if n.is_finite() && n >= 0.0 => n,
        _ => fail(&format!("{path}: {ctx}: missing or negative number")),
    }
}

/// One gauge-stat object (`{"n","mean","min","max"}`): empty stats carry
/// null extrema; populated ones need finite `min <= max`.
fn check_gauge(path: &str, ctx: &str, g: &Json) {
    let n = req_num(path, &format!("{ctx}.n"), g.get("n"));
    if n == 0.0 {
        return;
    }
    let min = g.get("min").and_then(Json::as_num);
    let max = g.get("max").and_then(Json::as_num);
    match (min, max) {
        (Some(lo), Some(hi)) if lo.is_finite() && hi.is_finite() && lo <= hi => {}
        _ => fail(&format!("{path}: {ctx}: min/max incoherent for n > 0")),
    }
}

/// One latency-sketch object: non-negative counts with ordered
/// percentiles (p50 <= p95 <= p99 — the sketch reports bucket upper
/// bounds, so p99 may legitimately exceed `max_ns`).
fn check_hist(path: &str, ctx: &str, h: &Json) {
    req_num(path, &format!("{ctx}.count"), h.get("count"));
    req_num(path, &format!("{ctx}.sum_ns"), h.get("sum_ns"));
    let p50 = req_num(path, &format!("{ctx}.p50_ns"), h.get("p50_ns"));
    let p95 = req_num(path, &format!("{ctx}.p95_ns"), h.get("p95_ns"));
    let p99 = req_num(path, &format!("{ctx}.p99_ns"), h.get("p99_ns"));
    if !(p50 <= p95 && p95 <= p99) {
        fail(&format!(
            "{path}: {ctx}: percentiles out of order ({p50} / {p95} / {p99})"
        ));
    }
}

/// One window-stats object: quanta plus counters non-negative, every
/// gauge stat coherent, both latency sketches ordered.
fn check_window(path: &str, ctx: &str, w: &Json) {
    let quanta = req_num(path, &format!("{ctx}.quanta"), w.get("quanta"));
    for key in [
        "slo_bad_quanta",
        "over_tdp_quanta",
        "shed",
        "degradation",
        "obs_dropped_rows",
        "obs_stream_lost",
    ] {
        let v = req_num(path, &format!("{ctx}.{key}"), w.get(key));
        if key.ends_with("_quanta") && v > quanta {
            fail(&format!(
                "{path}: {ctx}.{key}: {v} exceeds the window's {quanta} quanta"
            ));
        }
    }
    for key in ["power_w", "tdp_headroom_w", "hottest_c", "p99_over_slo"] {
        let g = w
            .get(key)
            .unwrap_or_else(|| fail(&format!("{path}: {ctx}.{key}: missing gauge stat")));
        check_gauge(path, &format!("{ctx}.{key}"), g);
    }
    for key in ["plan_ns", "task_p99_ns"] {
        let h = w
            .get(key)
            .unwrap_or_else(|| fail(&format!("{path}: {ctx}.{key}: missing sketch")));
        check_hist(path, &format!("{ctx}.{key}"), h);
    }
}

/// One aggregation section (fleet rollup or a chip): label, positive
/// window, `last_window` extent inside the window grid, coherent totals.
fn check_agg(path: &str, ctx: &str, a: &Json) {
    if a.get("label").and_then(Json::as_str).is_none() {
        fail(&format!("{path}: {ctx}: missing label"));
    }
    let window_us = req_num(path, &format!("{ctx}.window_us"), a.get("window_us"));
    if window_us == 0.0 {
        fail(&format!("{path}: {ctx}: zero aggregation window"));
    }
    req_num(
        path,
        &format!("{ctx}.windows_closed"),
        a.get("windows_closed"),
    );
    req_num(path, &format!("{ctx}.now_us"), a.get("now_us"));
    match a.get("last_window") {
        None => fail(&format!("{path}: {ctx}: missing last_window")),
        Some(Json::Null) => {}
        Some(w) => {
            let start = req_num(
                path,
                &format!("{ctx}.last_window.start_us"),
                w.get("start_us"),
            );
            let end = req_num(path, &format!("{ctx}.last_window.end_us"), w.get("end_us"));
            if end <= start {
                fail(&format!("{path}: {ctx}.last_window: empty extent"));
            }
            let stats = w
                .get("stats")
                .unwrap_or_else(|| fail(&format!("{path}: {ctx}.last_window: missing stats")));
            check_window(path, &format!("{ctx}.last_window.stats"), stats);
        }
    }
    let totals = a
        .get("totals")
        .unwrap_or_else(|| fail(&format!("{path}: {ctx}: missing totals")));
    check_window(path, &format!("{ctx}.totals"), totals);
}

/// Domain check for a scrape snapshot document (`/metrics.json` or a
/// saved copy): the `aggregate` section's fleet/chip rollups and the
/// `alert` section's rule states.
fn validate_snapshot(path: &str, doc: &Json) {
    req_num(path, "at_us", doc.get("at_us"));
    let mut chips = 0usize;
    let mut rules = 0usize;
    if let Some(agg) = doc.get("aggregate") {
        match agg.get("fleet") {
            None | Some(Json::Null) => {}
            Some(fleet) => check_agg(path, "aggregate.fleet", fleet),
        }
        if let Some(arr) = agg.get("chips").and_then(Json::as_arr) {
            for (i, chip) in arr.iter().enumerate() {
                check_agg(path, &format!("aggregate.chips[{i}]"), chip);
            }
            chips = arr.len();
        }
    }
    match doc.get("alert") {
        None | Some(Json::Null) => {}
        Some(al) => {
            let arr = al
                .get("rules")
                .and_then(Json::as_arr)
                .unwrap_or_else(|| fail(&format!("{path}: alert: missing rules array")));
            for (i, r) in arr.iter().enumerate() {
                let ctx = format!("alert.rules[{i}]");
                if r.get("alert")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    fail(&format!("{path}: {ctx}: missing alert name"));
                }
                if !matches!(r.get("firing"), Some(Json::Bool(_))) {
                    fail(&format!("{path}: {ctx}: firing is not a bool"));
                }
                let threshold = req_num(path, &format!("{ctx}.threshold"), r.get("threshold"));
                if threshold == 0.0 {
                    fail(&format!("{path}: {ctx}: zero threshold"));
                }
                // Burns are null until enough windows closed.
                for key in ["fast_burn", "slow_burn"] {
                    match r.get(key) {
                        None => fail(&format!("{path}: {ctx}: missing {key}")),
                        Some(Json::Null) => {}
                        Some(v) => {
                            req_num(path, &format!("{ctx}.{key}"), Some(v));
                        }
                    }
                }
            }
            rules = arr.len();
            req_num(path, "alert.events_total", al.get("events_total"));
            req_num(path, "alert.fired_total", al.get("fired_total"));
        }
    }
    println!("ok: {path}: scrape snapshot ({chips} chip section(s), {rules} alert rule(s))");
}

/// A legal Prometheus metric/label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One parsed sample line: metric name, label pairs, value text.
type PromSample<'a> = (&'a str, Vec<(String, String)>, &'a str);

/// Split one sample line into (name, labels, value-text). Label values
/// may contain escaped quotes; ours never do, but the parser tolerates
/// them rather than mis-splitting.
fn prom_sample(line: &str) -> Option<PromSample<'_>> {
    let Some(brace) = line.find('{') else {
        let mut it = line.splitn(2, ' ');
        return Some((it.next()?, Vec::new(), it.next()?.trim()));
    };
    let close = line.rfind('}')?;
    let name = &line[..brace];
    let value = line[close + 1..].trim();
    let mut labels = Vec::new();
    let mut rest = &line[brace + 1..close];
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim_start_matches(',').to_string();
        let mut val = String::new();
        let mut escaped = false;
        let mut consumed = None;
        for (i, c) in rest[eq + 2..].char_indices() {
            if escaped {
                val.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                consumed = Some(eq + 2 + i + 1);
                break;
            } else {
                val.push(c);
            }
        }
        labels.push((key, val));
        rest = &rest[consumed?..];
    }
    Some((name, labels, value))
}

/// Validate Prometheus 0.0.4 text exposition: legal names, parseable
/// finite sample values, non-negative counters, `ppm_up 1`, and ordered
/// `quantile` series per metric/label-set.
fn check_prom_text(label: &str, text: &str) {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    let mut up = None;
    let mut quantiles: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        let row = n + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            match (it.next(), it.next()) {
                (Some("HELP"), Some(name)) | (Some("TYPE"), Some(name)) => {
                    if !prom_name_ok(name) {
                        fail(&format!("{label}: line {row}: bad metric name {name:?}"));
                    }
                    if rest.starts_with("TYPE") {
                        let kind = it.next().unwrap_or("");
                        if !matches!(kind, "counter" | "gauge" | "summary" | "histogram") {
                            fail(&format!("{label}: line {row}: bad TYPE {kind:?}"));
                        }
                        types.insert(name.to_string(), kind.to_string());
                    }
                }
                _ => fail(&format!("{label}: line {row}: malformed comment")),
            }
            continue;
        }
        let Some((name, labels, value)) = prom_sample(line) else {
            fail(&format!("{label}: line {row}: malformed sample"));
        };
        if !prom_name_ok(name) {
            fail(&format!("{label}: line {row}: bad metric name {name:?}"));
        }
        for (k, _) in &labels {
            if !prom_name_ok(k) {
                fail(&format!("{label}: line {row}: bad label name {k:?}"));
            }
        }
        let v: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => fail(&format!("{label}: line {row}: unparseable value {value:?}")),
        };
        if !v.is_finite() {
            fail(&format!("{label}: line {row}: non-finite sample {value}"));
        }
        if types.get(name).is_some_and(|t| t == "counter") && v < 0.0 {
            fail(&format!("{label}: line {row}: negative counter {name}"));
        }
        if name == "ppm_up" {
            up = Some(v);
        }
        if let Some((_, q)) = labels.iter().find(|(k, _)| k == "quantile") {
            let q: f64 = q
                .parse()
                .unwrap_or_else(|_| fail(&format!("{label}: line {row}: bad quantile")));
            let mut key = String::from(name);
            for (k, v) in &labels {
                if k != "quantile" {
                    key.push_str(&format!("|{k}={v}"));
                }
            }
            quantiles.entry(key).or_default().push((q, v));
        }
        samples += 1;
    }
    if samples == 0 {
        fail(&format!("{label}: no samples"));
    }
    if up != Some(1.0) {
        fail(&format!("{label}: ppm_up is not 1"));
    }
    for (key, mut series) in quantiles {
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
        if series.windows(2).any(|w| w[0].1 > w[1].1) {
            fail(&format!("{label}: quantile series {key} is not monotone"));
        }
    }
    println!(
        "ok: {label}: {samples} Prometheus samples, {} typed metrics",
        types.len()
    );
}

fn validate_prom(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: read failed: {e}")));
    check_prom_text(path, &text);
}

/// Pull `/metrics` and `/metrics.json` from a live scrape endpoint and
/// validate both responses.
fn validate_scrape(addr: &str) {
    let addr = addr
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();
    let text = ppm_obs::http::fetch(&addr, "/metrics")
        .unwrap_or_else(|e| fail(&format!("scrape {addr}/metrics: {e}")));
    check_prom_text(&format!("{addr}/metrics"), &text);
    let body = ppm_obs::http::fetch(&addr, "/metrics.json")
        .unwrap_or_else(|e| fail(&format!("scrape {addr}/metrics.json: {e}")));
    let doc = json::parse(&body)
        .unwrap_or_else(|e| fail(&format!("scrape {addr}/metrics.json: invalid JSON: {e}")));
    validate_snapshot(&format!("{addr}/metrics.json"), &doc);
}

fn validate_jsonl(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: read failed: {e}")));
    let mut rows = 0usize;
    for (n, line) in text.lines().enumerate() {
        json::parse(line)
            .unwrap_or_else(|e| fail(&format!("{path}: line {}: invalid JSON: {e}", n + 1)));
        rows += 1;
    }
    println!("ok: {path}: {rows} JSONL rows");
}

fn validate_csv(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: read failed: {e}")));
    let mut lines = text.lines();
    let header = lines
        .next()
        .unwrap_or_else(|| fail(&format!("{path}: empty CSV")));
    let cols = header.split(',').count();
    let mut rows = 0usize;
    for (n, line) in lines.enumerate() {
        if line.split(',').count() != cols {
            fail(&format!(
                "{path}: row {}: ragged ({cols} header columns)",
                n + 2
            ));
        }
        rows += 1;
    }
    println!("ok: {path}: {rows} CSV rows × {cols} columns");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail(
            "usage: obs_validate [--scrape ADDR] \
             [TRACE.json|METRICS.csv|METRICS.jsonl|METRICS.prom]...",
        );
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--scrape" {
            let addr = it
                .next()
                .unwrap_or_else(|| fail("--scrape needs an ADDR (host:port)"));
            validate_scrape(addr);
        } else if arg.ends_with(".jsonl") {
            validate_jsonl(arg);
        } else if arg.ends_with(".json") {
            validate_trace(arg);
        } else if arg.ends_with(".prom") || arg.ends_with(".txt") {
            validate_prom(arg);
        } else {
            validate_csv(arg);
        }
    }
}
