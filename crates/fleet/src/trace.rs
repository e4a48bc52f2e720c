//! Fleet-wide observability bridges: turn the exchange ledger and every
//! chip's telemetry into the `ppm-obs` fleet exporters' inputs — one
//! Chrome trace with a labelled track pair per chip plus an exchange
//! counter track, one wide chip-tagged CSV joined on the simulated
//! timeline, and the one scrape snapshot builder, which a lone chip
//! (run as a one-chip fleet) and a fleet publish through alike.
//!
//! These are glue, not new formats: the per-chip content goes through the
//! exact same emitters the single-chip exporters use, so a fleet trace of
//! one chip shows the same counters and spans a standalone trace would.

use std::io::{self, Write};

use ppm_obs::export::{write_fleet_chrome_trace, write_fleet_csv, CounterSample};
use ppm_obs::recorder::SeriesRecorder;
use ppm_obs::{AggSnapshot, AlertSnapshot, ScrapeSnapshot, SnapshotHub};
use ppm_platform::units::SimDuration;
use ppm_sched::executor::PowerManager;

use crate::exchange::FleetExchange;
use crate::Fleet;

/// The exchange ledger as a counter track: one sample per trading epoch
/// carrying the cap, measured fleet power, desired fleet power, the
/// allowance after the Δ update, and the discovered watt price. Feed it to
/// [`write_fleet_chrome_trace`] alongside the chip recorders.
pub fn exchange_counter_track(ex: &FleetExchange) -> Vec<CounterSample> {
    ex.ledger()
        .iter()
        .map(|rec| CounterSample {
            t_us: rec.at.as_micros(),
            series: vec![
                ("cap_w".to_string(), ex.cap().value()),
                ("total_power_w".to_string(), rec.total_power.value()),
                ("desired_w".to_string(), rec.total_desired.value()),
                ("allowance".to_string(), rec.allowance_after.value()),
                ("price_per_watt".to_string(), rec.price_per_watt),
            ],
        })
        .collect()
}

/// Every chip's recorder, in chip order. Chips without telemetry enabled
/// are absent — and if *any* chip lacks telemetry the indices would no
/// longer be chip indices, so this returns `None` unless every chip
/// recorded.
pub fn fleet_recorders<M: PowerManager>(fleet: &Fleet<M>) -> Option<Vec<&SeriesRecorder>> {
    fleet
        .chips()
        .iter()
        .map(|c| c.sim().telemetry().map(|t| &t.recorder))
        .collect()
}

/// Write the whole fleet as one Chrome trace: chip-tagged counter/span
/// track pairs (via the shared single-chip emitter) plus the exchange
/// counter track when the fleet trades. Fails with `InvalidInput` if any
/// chip ran without telemetry.
pub fn write_trace<M: PowerManager, W: Write>(
    fleet: &Fleet<M>,
    w: &mut W,
    stride: usize,
) -> io::Result<()> {
    let recs = fleet_recorders(fleet).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "every chip needs telemetry enabled to export a fleet trace",
        )
    })?;
    let exchange = fleet
        .exchange()
        .map(exchange_counter_track)
        .unwrap_or_default();
    write_fleet_chrome_trace(&recs, &exchange, w, stride)
}

/// Merge every chip's live aggregation windows and alert state into one
/// fleet-wide scrape snapshot: per-chip sections labelled `chip {i}` plus
/// a `fleet` rollup composed with [`AggSnapshot::absorb`] — the same
/// shape [`Fleet::audit_rollup`] gives the auditors. Chips without
/// aggregation attached simply contribute nothing; an unobserved fleet
/// yields the default (empty) snapshot.
pub fn fleet_scrape_snapshot<M: PowerManager>(fleet: &Fleet<M>) -> ScrapeSnapshot {
    let mut chips: Vec<AggSnapshot> = Vec::new();
    let mut alerts: Option<AlertSnapshot> = None;
    let mut at_us = 0;
    for (i, chip) in fleet.chips().iter().enumerate() {
        let Some(tel) = chip.sim().telemetry() else {
            continue;
        };
        if let Some(agg) = &tel.aggregate {
            chips.push(agg.snapshot(&format!("chip {i}")));
            at_us = at_us.max(agg.now_us());
        }
        if let Some(engine) = &tel.alerts {
            let snap = engine.snapshot();
            match &mut alerts {
                Some(merged) => merged.absorb(&snap),
                None => alerts = Some(snap),
            }
        }
    }
    if chips.is_empty() && alerts.is_none() {
        return ScrapeSnapshot::default();
    }
    let window_us = chips
        .first()
        .map_or(ppm_obs::DEFAULT_AGG_WINDOW_US, |c| c.window_us);
    let mut rollup = AggSnapshot::empty("fleet", window_us);
    for chip in &chips {
        rollup.absorb(chip);
    }
    ScrapeSnapshot {
        at_us,
        fleet: Some(rollup),
        chips,
        alerts,
    }
}

/// Advance `fleet` by `duration` one trading epoch at a time, publishing
/// [`fleet_scrape_snapshot`] into `hub` after every epoch (the final
/// partial one included), so scrapers watch the run move and a post-run
/// scrape sees its end. The slicing is exactly [`Fleet::run_for`]'s, so
/// the trajectory is byte-identical to an unserved run.
pub fn run_publishing<M: PowerManager + Send>(
    fleet: &mut Fleet<M>,
    duration: SimDuration,
    hub: &SnapshotHub,
) {
    let epoch = fleet.epoch().as_micros();
    let mut remaining = duration.as_micros();
    while remaining > 0 {
        let dt = remaining.min(epoch);
        fleet.run_for(SimDuration(dt));
        remaining -= dt;
        hub.publish(fleet_scrape_snapshot(fleet));
    }
}

/// Merge every chip's alert engine into one fleet tape: the rendered
/// per-chip tapes concatenated under `chip {i}` headings, so a fleet run
/// prints the same transition lines each standalone chip would.
pub fn fleet_alert_tape<M: PowerManager>(fleet: &Fleet<M>) -> Option<String> {
    let mut out = String::new();
    for (i, chip) in fleet.chips().iter().enumerate() {
        let Some(engine) = chip.sim().telemetry().and_then(|t| t.alerts.as_ref()) else {
            continue;
        };
        out.push_str(&format!("chip {i}:\n"));
        for line in engine.render().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// True when any chip's alert engine has fired at least once over the run
/// (used by `ppm-sim fleet --alerts` to pick its exit status).
pub fn fleet_alerts_fired<M: PowerManager>(fleet: &Fleet<M>) -> bool {
    fleet
        .chips()
        .iter()
        .filter_map(|c| c.sim().telemetry().and_then(|t| t.alerts.as_ref()))
        .any(|engine| engine.fired_total() > 0)
}

/// Write the whole fleet as one wide chip-tagged CSV joined on the
/// simulated timeline (`t_s,c0_…,c1_…`). Fails with `InvalidInput` if any
/// chip ran without telemetry or the recorders hold different row counts.
pub fn write_csv<M: PowerManager, W: Write>(fleet: &Fleet<M>, w: &mut W) -> io::Result<()> {
    let recs = fleet_recorders(fleet).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "every chip needs telemetry enabled to export a fleet CSV",
        )
    })?;
    write_fleet_csv(&recs, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::synthetic_fleet;
    use ppm_platform::units::{SimDuration, Watts};

    fn traced_fleet() -> Fleet<ppm_core::manager::PpmManager> {
        let mut fleet = synthetic_fleet(2, 4, 2, 4, Some(Watts(8.0)), None);
        for chip in fleet.chips_mut() {
            chip.sim_mut().set_telemetry(ppm_obs::Telemetry::new(4096));
        }
        fleet.run_for(SimDuration::from_millis(300));
        fleet
    }

    #[test]
    fn fleet_trace_carries_every_chip_and_the_exchange() {
        let fleet = traced_fleet();
        let track = exchange_counter_track(fleet.exchange().expect("exchange"));
        assert_eq!(track.len(), 3, "one sample per trading epoch");
        assert!(track[0].series.iter().any(|(k, _)| k == "price_per_watt"));

        let mut buf = Vec::new();
        write_trace(&fleet, &mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"chip 0 time-series (simulated time)\""));
        assert!(text.contains("\"chip 1 time-series (simulated time)\""));
        assert!(text.contains("\"fleet exchange (per-epoch clearing)\""));
        assert!(text.contains("\"name\":\"exchange\""));
    }

    #[test]
    fn fleet_csv_is_one_row_per_quantum_across_chips() {
        let fleet = traced_fleet();
        let mut buf = Vec::new();
        write_csv(&fleet, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 300 ms at the 1 ms quantum → 300 rows plus the header.
        assert_eq!(lines.len(), 1 + 300);
        assert!(lines[0].starts_with("t_s,c0_chip_power_w,"));
        assert!(lines[0].contains(",c1_chip_power_w,"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols);
        }
    }

    #[test]
    fn fleet_scrape_snapshot_merges_chip_windows_and_alerts() {
        let mut fleet = synthetic_fleet(2, 4, 2, 4, Some(Watts(8.0)), None);
        for chip in fleet.chips_mut() {
            chip.sim_mut().set_telemetry(
                ppm_obs::Telemetry::new(4096)
                    .with_aggregation(100_000)
                    .with_alerts(),
            );
        }
        fleet.run_for(SimDuration::from_millis(300));

        let snap = fleet_scrape_snapshot(&fleet);
        assert_eq!(snap.chips.len(), 2);
        assert_eq!(snap.chips[0].label, "chip 0");
        let rollup = snap.fleet.as_ref().expect("fleet rollup");
        // 300 ms over 100 ms windows: the first two close, the third is live.
        assert_eq!(snap.chips[0].windows_closed, 2);
        assert_eq!(rollup.windows_closed, 2);
        assert_eq!(
            rollup.totals.quanta,
            snap.chips.iter().map(|c| c.totals.quanta).sum::<u64>()
        );
        let alerts = snap.alerts.as_ref().expect("alert rollup");
        assert_eq!(alerts.rules.len(), ppm_obs::BurnRule::defaults().len());

        let tape = fleet_alert_tape(&fleet).expect("alert tape");
        assert!(tape.contains("chip 0:"));
        assert!(tape.contains("chip 1:"));
        assert!(!fleet_alerts_fired(&fleet), "healthy fleet stays silent");
    }

    #[test]
    fn lone_chip_publishes_the_single_chip_shape_every_epoch() {
        let fleet = synthetic_fleet(1, 4, 2, 4, None, None);
        let sim = fleet.into_chips().pop().expect("one chip").into_sim();
        let mut fleet = Fleet::lone(
            sim.with_telemetry(
                ppm_obs::Telemetry::new(256)
                    .with_aggregation(100_000)
                    .with_alerts(),
            ),
        );
        let hub = SnapshotHub::new();
        run_publishing(&mut fleet, SimDuration::from_millis(250), &hub);
        assert_eq!(hub.version(), 3, "two whole epochs and the tail");

        let snap = hub.get();
        // Stamped with the last recorded quantum, which starts at 249 ms.
        assert_eq!(snap.at_us, 249_000);
        assert_eq!(snap.chips.len(), 1);
        assert_eq!(snap.chips[0].label, "chip 0");
        let rollup = snap.fleet.as_ref().expect("fleet rollup");
        assert_eq!(rollup.label, "fleet");
        assert_eq!(rollup.windows_closed, snap.chips[0].windows_closed);
        assert_eq!(rollup.totals.quanta, snap.chips[0].totals.quanta);
        assert_eq!(rollup.totals.quanta, 250);
        let alerts = snap.alerts.as_ref().expect("alert state");
        assert_eq!(alerts.rules.len(), ppm_obs::BurnRule::defaults().len());
    }

    #[test]
    fn unobserved_fleet_scrapes_empty() {
        let fleet = synthetic_fleet(2, 4, 2, 4, Some(Watts(8.0)), None);
        let snap = fleet_scrape_snapshot(&fleet);
        assert!(snap.fleet.is_none() && snap.chips.is_empty() && snap.alerts.is_none());
        assert!(fleet_alert_tape(&fleet).is_none());
        assert!(!fleet_alerts_fired(&fleet));
    }

    #[test]
    fn missing_telemetry_is_an_error_not_a_partial_export() {
        let fleet = synthetic_fleet(2, 4, 2, 4, Some(Watts(8.0)), None);
        let err = write_trace(&fleet, &mut Vec::new(), 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
