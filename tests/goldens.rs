//! Golden actuation tapes: committed fixtures for small-config figure runs.
//!
//! Each fixture holds the `RunSummary` (first line) and the rendered
//! actuation tape (remaining lines) of one `(workload set, scheme)` cell:
//! the fig4/fig5 configuration (no TDP) and the fig6 configuration (4 W
//! TDP), shrunk to three sets and 8 s so the suite stays fast. A tape line
//! records every action a manager queued in a quantum together with the
//! FNV-1a digest of the snapshot the decision was computed from, so *any*
//! behavioural drift — manager logic, market dynamics, executor physics,
//! snapshot contents — changes bytes here and fails CI instead of only
//! showing up in regenerated plots.
//!
//! To regenerate after a deliberate behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

use std::fs;
use std::path::PathBuf;

use ppm::platform::units::{SimDuration, Watts};
use ppm::workload::sets::set_by_name;
use ppm_bench::{run_workload_taped, Scheme};

/// Workload sets in the fixtures: one light, one medium, one heavy.
const SETS: [&str; 3] = ["l1", "m2", "h3"];

/// Simulated duration per cell (metrics cover the last 3 s after the 5 s
/// warm-up; the tape covers all 8 s).
const DURATION: SimDuration = SimDuration(8_000_000);

fn goldens_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/ppm; the fixtures live in the repo-level
    // test tree next to this file.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn cell(set_name: &str, scheme: Scheme, tdp: Option<Watts>) -> String {
    let set = set_by_name(set_name).expect("known workload set");
    let (summary, tape) = run_workload_taped(&set, scheme, tdp, DURATION);
    format!("{summary:?}\n{tape}")
}

fn check(fig: &str, set_name: &str, scheme: Scheme, tdp: Option<Watts>) {
    let name = format!("{fig}_{set_name}_{}.tape", scheme.name().to_lowercase());
    check_bytes(&name, &cell(set_name, scheme, tdp));
}

fn check_bytes(name: &str, fresh: &str) {
    let path = goldens_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(goldens_dir()).expect("create tests/goldens");
        fs::write(&path, fresh).expect("write golden");
        return;
    }
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run UPDATE_GOLDENS=1"));
    if committed != fresh {
        // Point at the first diverging line rather than dumping both tapes.
        let line = committed
            .lines()
            .zip(fresh.lines())
            .position(|(a, b)| a != b)
            .map_or(committed.lines().count().min(fresh.lines().count()), |i| i);
        let want = committed.lines().nth(line).unwrap_or("<eof>");
        let got = fresh.lines().nth(line).unwrap_or("<eof>");
        panic!(
            "behavioural drift against {name} at line {}:\n  golden: {want}\n  fresh:  {got}\n\
             ({} golden lines, {} fresh lines; regenerate deliberately with UPDATE_GOLDENS=1)",
            line + 1,
            committed.lines().count(),
            fresh.lines().count()
        );
    }
}

#[test]
fn fig4_fig5_tapes_match_the_goldens() {
    for set in SETS {
        for scheme in Scheme::ALL {
            check("fig4_fig5", set, scheme, None);
        }
    }
}

#[test]
fn fig6_tapes_match_the_goldens() {
    for set in SETS {
        for scheme in Scheme::ALL {
            check("fig6", set, scheme, Some(Watts(4.0)));
        }
    }
}

/// The four open-loop `ol2` cells — PPM, HPM, HL, and the unmanaged Null
/// control — under the fig6 4 W cap: seeded request arrivals, Weibull
/// service draws, queue dynamics, and the SLO-pressure feedback all
/// reduced to committed bytes, so any drift in the request machinery
/// fails CI the same way manager drift does.
#[test]
fn openloop_tapes_match_the_goldens() {
    for scheme in [Scheme::Ppm, Scheme::Hpm, Scheme::Hl, Scheme::Null] {
        let name = format!("openloop_ol2_{}.tape", scheme.name().to_lowercase());
        let set = ppm_bench::resolve_set("ol2").expect("ol2");
        let (summary, tape) =
            ppm_bench::run_workload_taped(&set, scheme, Some(Watts(4.0)), DURATION);
        check_bytes(&name, &format!("{summary:?}\n{tape}"));
    }
}
