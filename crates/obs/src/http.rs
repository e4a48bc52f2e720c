//! Dependency-free scrape endpoint (DESIGN.md §16).
//!
//! A `std::net::TcpListener` HTTP/1.0 server exposing the live windowed
//! rollups of [`crate::aggregate`] and the alert state of
//! [`crate::alert`] in two formats:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4);
//! * `GET /metrics.json` — a JSON snapshot (`aggregate` + `alert`
//!   sections, parseable by [`crate::json`] and validated by
//!   `obs_validate`);
//! * `GET /` — a plain index.
//!
//! The simulation never talks to the server. Its driver publishes into a
//! [`SnapshotHub`] — a double-buffered snapshot slot: between trading
//! epochs the driver builds a fresh [`ScrapeSnapshot`] off to the side
//! (the back buffer; `ppm_fleet::trace::fleet_scrape_snapshot`, for a
//! lone chip and a fleet alike), then swaps it in with one pointer store
//! under a mutex held for nanoseconds. The per-quantum hot path never
//! touches the hub at all, so attaching an endpoint cannot perturb the
//! schedule: the golden-tape byte-identity tests run with a live server
//! attached.

use crate::aggregate::{AggSnapshot, GaugeStat, WindowStats};
use crate::alert::AlertSnapshot;
use crate::export::{jnum, jstr};
use crate::profiler::Hist;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything one scrape returns: the fleet rollup, the per-chip rollups
/// it was absorbed from (a single-chip run publishes one chip that
/// equals the fleet), and the alert state.
#[derive(Debug, Clone, Default)]
pub struct ScrapeSnapshot {
    /// Sim time of the publish (µs).
    pub at_us: u64,
    /// The merged rollup ([`AggSnapshot::absorb`] over chips).
    pub fleet: Option<AggSnapshot>,
    /// Per-chip rollups, in chip order.
    pub chips: Vec<AggSnapshot>,
    /// Alert state (fleet: absorbed across chips).
    pub alerts: Option<AlertSnapshot>,
}

/// The double-buffered publish slot between the simulation (producer)
/// and the HTTP thread (consumer). `publish` swaps a freshly built back
/// buffer in; `get` clones the front pointer. Neither side ever blocks
/// the other for more than a pointer store.
#[derive(Debug)]
pub struct SnapshotHub {
    front: Mutex<Arc<ScrapeSnapshot>>,
    version: AtomicU64,
}

impl SnapshotHub {
    /// A hub holding an empty snapshot.
    pub fn new() -> Arc<SnapshotHub> {
        Arc::new(SnapshotHub {
            front: Mutex::new(Arc::new(ScrapeSnapshot::default())),
            version: AtomicU64::new(0),
        })
    }

    /// Swap `snap` in as the new front buffer.
    pub fn publish(&self, snap: ScrapeSnapshot) {
        let fresh = Arc::new(snap);
        *self.front.lock().expect("hub poisoned") = fresh;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The current front buffer.
    pub fn get(&self) -> Arc<ScrapeSnapshot> {
        Arc::clone(&self.front.lock().expect("hub poisoned"))
    }

    /// Publishes so far (0 = nothing published yet).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

fn prom_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Append one sample line, skipping non-finite values (our validator —
/// and many real scrapers — reject NaN/Inf samples).
fn sample(out: &mut String, name: &str, labels: &str, v: f64) {
    if !v.is_finite() {
        return;
    }
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {v}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {v}");
    }
}

fn gauge_stats(out: &mut String, name: &str, chip: &str, g: &GaugeStat) {
    let chip = prom_label(chip);
    sample(
        out,
        name,
        &format!("chip=\"{chip}\",stat=\"mean\""),
        g.mean(),
    );
    sample(out, name, &format!("chip=\"{chip}\",stat=\"min\""), g.min);
    sample(out, name, &format!("chip=\"{chip}\",stat=\"max\""), g.max);
}

fn hist_summary(out: &mut String, name: &str, chip: &str, h: &Hist) {
    let chip = prom_label(chip);
    for (q, label) in [(50.0, "0.5"), (95.0, "0.95"), (99.0, "0.99")] {
        sample(
            out,
            name,
            &format!("chip=\"{chip}\",quantile=\"{label}\""),
            h.percentile_ns(q) as f64,
        );
    }
    sample(
        out,
        &format!("{name}_sum"),
        &format!("chip=\"{chip}\""),
        h.sum_ns() as f64,
    );
    sample(
        out,
        &format!("{name}_count"),
        &format!("chip=\"{chip}\""),
        h.count() as f64,
    );
}

fn window_section(out: &mut String, chip: &str, w: &WindowStats, prefix: &str) {
    let l = format!("chip=\"{}\"", prom_label(chip));
    sample(out, &format!("ppm_{prefix}quanta"), &l, w.quanta as f64);
    gauge_stats(out, &format!("ppm_{prefix}power_watts"), chip, &w.power_w);
    gauge_stats(
        out,
        &format!("ppm_{prefix}tdp_headroom_watts"),
        chip,
        &w.headroom_w,
    );
    gauge_stats(
        out,
        &format!("ppm_{prefix}hottest_celsius"),
        chip,
        &w.hottest_c,
    );
    gauge_stats(
        out,
        &format!("ppm_{prefix}p99_over_slo"),
        chip,
        &w.p99_over_slo,
    );
    sample(
        out,
        &format!("ppm_{prefix}slo_bad_quanta"),
        &l,
        w.slo_bad_quanta as f64,
    );
    sample(
        out,
        &format!("ppm_{prefix}over_tdp_quanta"),
        &l,
        w.over_tdp_quanta as f64,
    );
    sample(out, &format!("ppm_{prefix}shed"), &l, w.shed as f64);
    sample(
        out,
        &format!("ppm_{prefix}degradation"),
        &l,
        w.degradation as f64,
    );
    sample(
        out,
        &format!("ppm_{prefix}obs_dropped_rows"),
        &l,
        w.obs_dropped_rows as f64,
    );
    sample(
        out,
        &format!("ppm_{prefix}obs_stream_lost"),
        &l,
        w.obs_stream_lost as f64,
    );
    hist_summary(out, &format!("ppm_{prefix}plan_ns"), chip, &w.plan_ns);
    hist_summary(
        out,
        &format!("ppm_{prefix}task_p99_ns"),
        chip,
        &w.task_p99_ns,
    );
}

fn agg_section(out: &mut String, a: &AggSnapshot) {
    let l = format!("chip=\"{}\"", prom_label(&a.label));
    sample(out, "ppm_windows_closed_total", &l, a.windows_closed as f64);
    sample(out, "ppm_window_seconds", &l, a.window_us as f64 / 1e6);
    sample(out, "ppm_sim_seconds", &l, a.now_us as f64 / 1e6);
    window_section(out, &a.label, &a.totals, "total_");
    if let Some(w) = &a.last {
        window_section(out, &a.label, &w.stats, "window_");
    }
}

/// Render a snapshot as Prometheus text exposition (format 0.0.4). The
/// output is deterministic for a deterministic snapshot: fixed metric
/// order, fixed label order, `{:?}`-free float formatting via `Display`.
pub fn render_prometheus(s: &ScrapeSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP ppm_up Scrape endpoint liveness.\n# TYPE ppm_up gauge\n");
    sample(&mut out, "ppm_up", "", 1.0);
    sample(
        &mut out,
        "ppm_snapshot_sim_seconds",
        "",
        s.at_us as f64 / 1e6,
    );
    out.push_str(
        "# HELP ppm_total_quanta Quanta aggregated since the run began.\n\
         # TYPE ppm_total_quanta counter\n\
         # HELP ppm_window_quanta Quanta in the last closed window.\n\
         # TYPE ppm_window_quanta gauge\n",
    );
    if let Some(f) = &s.fleet {
        agg_section(&mut out, f);
    }
    for c in &s.chips {
        agg_section(&mut out, c);
    }
    if let Some(al) = &s.alerts {
        out.push_str("# TYPE ppm_alert_firing gauge\n");
        for r in &al.rules {
            let l = format!("alert=\"{}\"", r.name);
            sample(
                &mut out,
                "ppm_alert_firing",
                &l,
                f64::from(u8::from(r.firing)),
            );
            sample(&mut out, "ppm_alert_fast_burn", &l, r.fast_burn);
            sample(&mut out, "ppm_alert_slow_burn", &l, r.slow_burn);
            sample(&mut out, "ppm_alert_threshold", &l, r.threshold);
        }
        sample(
            &mut out,
            "ppm_alert_events_total",
            "",
            al.events_total as f64,
        );
        sample(&mut out, "ppm_alert_fired_total", "", al.fired_total as f64);
    }
    out
}

fn gauge_json(out: &mut String, g: &GaugeStat) {
    let _ = write!(out, "{{\"n\":{},\"mean\":", g.n);
    jnum(out, g.mean());
    out.push_str(",\"min\":");
    jnum(out, g.min);
    out.push_str(",\"max\":");
    jnum(out, g.max);
    out.push('}');
}

fn hist_json(out: &mut String, h: &Hist) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        h.count(),
        h.sum_ns(),
        h.max_ns(),
        h.percentile_ns(50.0),
        h.percentile_ns(95.0),
        h.percentile_ns(99.0)
    );
}

fn window_json(out: &mut String, w: &WindowStats) {
    let _ = write!(out, "{{\"quanta\":{},\"power_w\":", w.quanta);
    gauge_json(out, &w.power_w);
    out.push_str(",\"tdp_headroom_w\":");
    gauge_json(out, &w.headroom_w);
    out.push_str(",\"hottest_c\":");
    gauge_json(out, &w.hottest_c);
    out.push_str(",\"p99_over_slo\":");
    gauge_json(out, &w.p99_over_slo);
    let _ = write!(
        out,
        ",\"slo_bad_quanta\":{},\"over_tdp_quanta\":{},\"shed\":{},\"degradation\":{},\
         \"obs_dropped_rows\":{},\"obs_stream_lost\":{},\"plan_ns\":",
        w.slo_bad_quanta,
        w.over_tdp_quanta,
        w.shed,
        w.degradation,
        w.obs_dropped_rows,
        w.obs_stream_lost,
    );
    hist_json(out, &w.plan_ns);
    out.push_str(",\"task_p99_ns\":");
    hist_json(out, &w.task_p99_ns);
    out.push('}');
}

fn agg_json(out: &mut String, a: &AggSnapshot) {
    out.push_str("{\"label\":");
    jstr(out, &a.label);
    let _ = write!(
        out,
        ",\"window_us\":{},\"windows_closed\":{},\"now_us\":{},\"last_window\":",
        a.window_us, a.windows_closed, a.now_us
    );
    match &a.last {
        Some(w) => {
            let _ = write!(
                out,
                "{{\"start_us\":{},\"end_us\":{},\"stats\":",
                w.start_us, w.end_us
            );
            window_json(out, &w.stats);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"totals\":");
    window_json(out, &a.totals);
    out.push('}');
}

/// Render a snapshot as the JSON document `obs_validate` checks: an
/// object with `at_us`, an `aggregate` section (`fleet` + `chips`), and
/// an `alert` section.
pub fn render_json(s: &ScrapeSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"at_us\":{},\"aggregate\":{{\"fleet\":", s.at_us);
    match &s.fleet {
        Some(f) => agg_json(&mut out, f),
        None => out.push_str("null"),
    }
    out.push_str(",\"chips\":[");
    for (k, c) in s.chips.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        agg_json(&mut out, c);
    }
    out.push_str("]},\"alert\":");
    match &s.alerts {
        Some(al) => {
            out.push_str("{\"rules\":[");
            for (k, r) in al.rules.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str("{\"alert\":");
                jstr(&mut out, r.name);
                let _ = write!(out, ",\"firing\":{},\"fast_burn\":", r.firing);
                jnum(&mut out, r.fast_burn);
                out.push_str(",\"slow_burn\":");
                jnum(&mut out, r.slow_burn);
                out.push_str(",\"threshold\":");
                jnum(&mut out, r.threshold);
                out.push('}');
            }
            let _ = write!(
                out,
                "],\"events_total\":{},\"fired_total\":{}}}",
                al.events_total, al.fired_total
            );
        }
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

/// The scrape server: owns a listener thread serving the hub's current
/// snapshot until shut down (or dropped).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `hub` from a background thread.
    pub fn serve(addr: &str, hub: Arc<SnapshotHub>) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let t_stop = Arc::clone(&stop);
        let t_served = Arc::clone(&served);
        let handle = std::thread::Builder::new()
            .name("ppm-scrape".into())
            .spawn(move || {
                while !t_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Serve inline: scrape bodies are small and
                            // scrapers are few; a connection pool would be
                            // dead weight here.
                            if handle_conn(stream, &hub).is_ok() {
                                t_served.fetch_add(1, Ordering::Release);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr: local,
            stop,
            served,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served successfully so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Stop accepting and join the listener thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_conn(mut stream: TcpStream, hub: &SnapshotHub) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    // Read until the end of the request head (or the buffer fills — any
    // real scrape GET fits comfortably). One deadline bounds the whole
    // head, not each read, so a client dribbling bytes cannot hold the
    // single-threaded accept loop.
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut buf = [0u8; 2048];
    let mut n = 0;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let got = stream.read(&mut buf[n..])?;
        if got == 0 {
            break;
        }
        n += got;
        if n >= buf.len() || buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..n]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&hub.get()),
            ),
            "/metrics.json" | "/json" => (
                "200 OK",
                "application/json; charset=utf-8",
                render_json(&hub.get()),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "ppm scrape endpoint\n  /metrics       Prometheus text exposition\n  /metrics.json  JSON snapshot\n".to_string(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

/// A minimal scrape client (for `obs_validate --scrape` and the CLI
/// tests): `GET path` from `addr`, returning the body on a 200.
pub fn fetch(addr: &str, path: &str) -> io::Result<String> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::other(format!(
            "scrape of {path} failed: {status}"
        )));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggRegistry, QuantumSample};
    use crate::alert::{AlertEngine, BurnRule};

    fn populated_snapshot() -> ScrapeSnapshot {
        let mut reg = AggRegistry::new(1_000_000);
        let mut engine = AlertEngine::new(BurnRule::defaults());
        for q in 0..2200u64 {
            let closed = reg.observe(&QuantumSample {
                t_us: (q + 1) * 1000,
                power_w: 2.0 + (q % 7) as f64 * 0.1,
                headroom_w: 1.5,
                hottest_c: 55.0,
                p99_over_slo: 0.8,
                slo_bad: false,
                shed_total: q / 100,
                degradation_total: 0,
                dropped_rows: 0,
                stream_lost: 0,
                plan_ns: 900 + q % 50,
                task_p99_ns: 3_000_000,
            });
            if let Some(w) = closed {
                engine.observe_window(&w);
            }
        }
        let chip = reg.snapshot("chip 0");
        let mut fleet = AggSnapshot::empty("fleet", reg.window_us());
        fleet.absorb(&chip);
        ScrapeSnapshot {
            at_us: reg.now_us(),
            fleet: Some(fleet),
            chips: vec![chip],
            alerts: Some(engine.snapshot()),
        }
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let text = render_prometheus(&populated_snapshot());
        assert!(text.contains("ppm_up 1"), "{text}");
        assert!(text.contains("ppm_windows_closed_total{chip=\"fleet\"} 2"));
        assert!(text.contains("ppm_window_power_watts{chip=\"chip 0\",stat=\"mean\"}"));
        assert!(text.contains("ppm_alert_firing{alert=\"slo_burn\"} 0"));
        // No NaN/Inf samples ever.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v.is_finite(), "non-finite sample: {line}");
        }
    }

    #[test]
    fn json_rendering_parses_and_has_sections() {
        let doc = render_json(&populated_snapshot());
        let v = crate::json::parse(&doc).expect("valid JSON");
        let agg = v.get("aggregate").expect("aggregate section");
        assert_eq!(
            agg.get("chips")
                .and_then(crate::json::Json::as_arr)
                .unwrap()
                .len(),
            1
        );
        let fleet = agg.get("fleet").unwrap();
        assert_eq!(
            fleet
                .get("windows_closed")
                .and_then(crate::json::Json::as_num),
            Some(2.0)
        );
        let alert = v.get("alert").expect("alert section");
        assert_eq!(
            alert
                .get("rules")
                .and_then(crate::json::Json::as_arr)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn server_round_trip_on_ephemeral_port() {
        let hub = SnapshotHub::new();
        hub.publish(populated_snapshot());
        let server = ScrapeServer::serve("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
        let addr = server.local_addr().to_string();
        let prom = fetch(&addr, "/metrics").expect("scrape /metrics");
        assert!(prom.contains("ppm_up 1"));
        let json = fetch(&addr, "/metrics.json").expect("scrape /metrics.json");
        assert!(crate::json::parse(&json).is_ok());
        assert!(fetch(&addr, "/nope").is_err(), "404 surfaces as error");
        assert!(server.served() >= 2);
        server.shutdown();
    }

    #[test]
    fn a_dribbling_client_cannot_stall_other_scrapes() {
        let hub = SnapshotHub::new();
        hub.publish(populated_snapshot());
        let server = ScrapeServer::serve("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
        let addr = server.local_addr().to_string();
        // Queued first, this client sends one byte every 100 ms for 3 s and
        // never finishes its request head.
        let mut slow = TcpStream::connect(&addr).expect("connect");
        let dribbler = std::thread::spawn(move || {
            for _ in 0..30 {
                if slow.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let start = Instant::now();
        let prom = fetch(&addr, "/metrics").expect("scrape behind a slow client");
        let waited = start.elapsed();
        assert!(prom.contains("ppm_up 1"));
        assert!(waited < Duration::from_secs(2), "scrape waited {waited:?}");
        dribbler.join().expect("dribbler");
        server.shutdown();
    }

    #[test]
    fn hub_swap_is_versioned() {
        let hub = SnapshotHub::new();
        assert_eq!(hub.version(), 0);
        assert!(hub.get().fleet.is_none());
        hub.publish(populated_snapshot());
        assert_eq!(hub.version(), 1);
        assert!(hub.get().fleet.is_some());
    }
}
