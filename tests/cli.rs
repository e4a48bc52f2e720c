//! CLI-level coverage of `ppm-sim`'s observability surface: the fleet
//! flag matrix (`--stream`/`--trace`/`--metrics`/`--serve` compose, each
//! with chip tagging), the live scrape endpoint of a running fleet, the
//! alert exit codes, and the fail-fast errors for incoherent flag
//! combinations.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use ppm::obs::json::{self, Json};

fn ppm_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ppm-sim"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ppm-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

/// The full fleet flag matrix in one run: streaming, the wide CSV, the
/// Chrome trace, the scrape endpoint, and alerting all compose — and the
/// streamed files are chip-tagged.
#[test]
fn fleet_flag_matrix_composes_with_chip_tagging() {
    let stream = tmp("matrix.csv");
    let metrics = tmp("matrix_wide.csv");
    let trace = tmp("matrix_trace.json");
    let out = ppm_sim()
        .args([
            "fleet",
            "--chips",
            "2",
            "--cap",
            "6",
            "--duration",
            "1",
            "--stream",
            &stream,
            "--metrics",
            &metrics,
            "--trace",
            &trace,
            "--serve",
            "127.0.0.1:0",
            "--alerts",
        ])
        .output()
        .expect("run ppm-sim fleet");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fleet matrix run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("serving           : http://127.0.0.1:"));
    assert!(stdout.contains("# fleet alerts"), "{stdout}");
    assert!(stdout.contains("# fleet audit"), "{stdout}");
    for path in [
        stream.replace(".csv", ".c0.csv"),
        stream.replace(".csv", ".c1.csv"),
        metrics.clone(),
        trace.clone(),
    ] {
        let meta =
            std::fs::metadata(&path).unwrap_or_else(|e| panic!("missing artifact {path}: {e}"));
        assert!(meta.len() > 0, "{path} is empty");
    }
    // The wide CSV is chip-tagged per column; the streamed files carry the
    // single-chip header (their chip lives in the file name).
    let wide = std::fs::read_to_string(&metrics).expect("wide csv");
    assert!(wide.starts_with("t_s,c0_chip_power_w,"));
    let streamed = std::fs::read_to_string(stream.replace(".csv", ".c1.csv")).expect("c1");
    assert!(streamed.starts_with("t_s,chip_power_w,"));
}

/// Scrape a running `--serve` fleet: spawn with `--linger`, pick the
/// bound port off stdout, pull `/metrics` and `/metrics.json` live, and
/// watch the process exit cleanly once the scrapes are served.
#[test]
fn fleet_serve_endpoint_scrapes_live_and_lingers_until_scraped() {
    let mut child = ppm_sim()
        .args([
            "fleet",
            "--chips",
            "4",
            "--cap",
            "12",
            "--duration",
            "2",
            "--serve",
            "127.0.0.1:0",
            "--alerts",
            "--linger",
            "60",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ppm-sim fleet --serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let serving = lines
        .by_ref()
        .map(|l| l.expect("stdout line"))
        .find(|l| l.starts_with("serving"))
        .expect("serving line before the run");
    let addr = serving
        .split("http://")
        .nth(1)
        .and_then(|s| s.strip_suffix("/metrics"))
        .expect("address in serving line")
        .to_string();

    // Poll until the published snapshot carries all four chips (scrapes
    // that land mid-run may see an earlier epoch — that's fine, they must
    // still be well-formed).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let text = loop {
        let text = ppm::obs::http::fetch(&addr, "/metrics").expect("live scrape");
        assert!(text.contains("ppm_up 1"), "{text}");
        if text.contains("chip=\"chip 3\"") {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "snapshot never reached 4 chips"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    assert!(text.contains("ppm_windows_closed_total{chip=\"fleet\"}"));
    assert!(text.contains("ppm_alert_firing{alert=\"slo_burn\"}"));

    let body = ppm::obs::http::fetch(&addr, "/metrics.json").expect("json scrape");
    let doc = json::parse(&body).expect("snapshot JSON parses");
    let chips = doc
        .get("aggregate")
        .and_then(|a| a.get("chips"))
        .and_then(Json::as_arr)
        .expect("chips array");
    assert_eq!(chips.len(), 4);
    assert_eq!(
        doc.get("alert")
            .and_then(|a| a.get("rules"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(4)
    );

    // Only a scrape served after the run ends the linger, so wait for the
    // audit report (printed just before the linger starts), then keep
    // scraping — more than 250 ms apart, the linger's quiet window — until
    // the process exits. It must exit 0 long before the 60 s ceiling.
    lines
        .by_ref()
        .map(|l| l.expect("stdout line"))
        .find(|l| l.starts_with("# fleet audit"))
        .expect("audit report after the run");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if std::time::Instant::now() >= deadline {
            child.kill().expect("kill lingering child");
            panic!("fleet serve run still lingering 15 s after its audit report");
        }
        // The endpoint may close between the poll and the fetch.
        let _ = ppm::obs::http::fetch(&addr, "/metrics");
        std::thread::sleep(std::time::Duration::from_millis(400));
    };
    assert!(status.success(), "fleet serve run exited {status}");
    let _rest: Vec<String> = lines.map(|l| l.expect("stdout line")).collect();
}

/// `--alerts` exit semantics at the CLI: a starved single-chip run fires
/// and exits 1; the same flags on a healthy run exit 0.
#[test]
fn alert_exit_codes_reflect_the_tape() {
    let fired = ppm_sim()
        .args([
            "--workload",
            "ol3",
            "--duration",
            "8",
            "--tdp",
            "1",
            "--alerts",
        ])
        .output()
        .expect("run starved cell");
    let stdout = String::from_utf8_lossy(&fired.stdout);
    assert_eq!(fired.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FIRING"), "{stdout}");
    assert!(stdout.contains("tdp_headroom"), "{stdout}");

    let quiet = ppm_sim()
        .args([
            "--workload",
            "ol2",
            "--duration",
            "8",
            "--tdp",
            "4",
            "--alerts",
        ])
        .output()
        .expect("run healthy cell");
    let stdout = String::from_utf8_lossy(&quiet.stdout);
    assert_eq!(quiet.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 fired over the run"), "{stdout}");
}

/// Incoherent flag combinations fail fast with a clear message and exit
/// 2, in both single-chip and fleet modes.
#[test]
fn incoherent_flags_fail_fast() {
    let cases: [&[&str]; 4] = [
        &["--linger", "5"],
        &["fleet", "--linger", "5"],
        &["fleet", "--chips", "0"],
        &["--serve", "256.256.256.256:1", "--duration", "1"],
    ];
    for args in cases {
        let out = ppm_sim().args(args).output().expect("run ppm-sim");
        assert_eq!(
            out.status.code(),
            Some(2),
            "`{}` should exit 2, stderr: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
    for mode in [&["--linger", "5"][..], &["fleet", "--linger", "5"][..]] {
        let out = ppm_sim().args(mode).output().expect("run ppm-sim");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--linger needs --serve"),
            "missing clear error for {mode:?}"
        );
    }
}
