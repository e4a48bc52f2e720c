//! Incremental telemetry streaming: flush the [`SeriesRecorder`] ring to a
//! CSV or JSONL file *during* the run, so hour-long simulations keep their
//! full history even when the in-memory ring is far smaller than the run.
//!
//! The simulation thread only copies; a dedicated writer thread formats.
//! The per-quantum [`TelemetryStream::pump`] is two integer compares until
//! a flush boundary is crossed. Only then does it copy the window's raw
//! rows — their cells and the recorder's shape, at most two `memcpy`s out
//! of the row-major ring — into a reused buffer and send that over a
//! **bounded** channel. The writer renders the rows through the shared
//! row serializers and their render cache into a reused text buffer,
//! writes the bytes, and hands the raw buffer back over a second bounded
//! channel. So after warm-up neither thread allocates, a slow disk
//! back-pressures the simulation instead of growing an unbounded queue,
//! and the simulation never formats a number or blocks on `write(2)`.
//!
//! Failure stays on the simulation side. Loss accounting: rows the ring
//! overwrote before they could be flushed are counted in
//! [`StreamStats::lost`], never silently skipped. With `flush_every ≤ ring
//! capacity` (checked at the first flush, in every build profile) and a
//! pump every quantum, no row is ever lost — the acceptance test drives an
//! undersized ring for exactly this property. A writer that dies on an
//! I/O error closes its channel: later flushes stop copying at once
//! instead of blocking, and [`TelemetryStream::finish`] returns the error.
//! Streamed bytes come from the same per-row serializers as the post-run
//! exporters, so `obs_validate` accepts streamed artifacts unchanged.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::export::{self, RowCache};
use crate::recorder::{RowView, SeriesRecorder, Shape};

/// On-disk format of a stream, chosen from the target path's extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFormat {
    /// One CSV row per quantum under the [`crate::csv_header`] columns.
    Csv,
    /// One self-describing JSON object per quantum.
    Jsonl,
}

/// Totals reported by [`TelemetryStream::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows handed to the writer.
    pub rows: u64,
    /// Rows the ring overwrote before they could be flushed (0 whenever
    /// `flush_every ≤ ring capacity` and the stream is pumped every row).
    pub lost: u64,
    /// Flush windows sent to the writer thread.
    pub flushes: u64,
}

/// How many windows may sit in the channel before `pump` blocks on the
/// writer (bounded back-pressure, not an unbounded queue).
const CHANNEL_DEPTH: usize = 4;

/// How many written windows the return channel holds for reuse: every
/// window that can be in flight (the queued ones, the one being written,
/// the one being filled), so the writer never has to drop one.
const SPARE_DEPTH: usize = CHANNEL_DEPTH + 2;

/// One flush window on its way to the writer: raw rows laid out under
/// `shape`, oldest first.
#[derive(Debug, Default)]
struct Window {
    shape: Shape,
    cells: Vec<u64>,
}

/// An incremental exporter bound to one output file. Create before the
/// run, [`TelemetryStream::pump`] after every recorded row, and
/// [`TelemetryStream::finish`] after the run to flush the tail and join
/// the writer thread.
#[derive(Debug)]
pub struct TelemetryStream {
    tx: Option<SyncSender<Window>>,
    /// Written windows coming back from the writer, ready for reuse.
    spare: Receiver<Window>,
    writer: Option<JoinHandle<io::Result<()>>>,
    format: StreamFormat,
    flush_every: usize,
    /// Absolute row count already sent (or counted lost).
    cursor: u64,
    stats: StreamStats,
    /// The writer has died (its channel is closed); its error surfaces in
    /// `finish`.
    broken: bool,
}

impl TelemetryStream {
    /// Open `path` for streaming, picking [`StreamFormat::Jsonl`] when the
    /// extension is `.jsonl` and CSV otherwise, flushing every
    /// `flush_every` rows.
    ///
    /// # Panics
    ///
    /// Panics on a zero `flush_every`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create<P: AsRef<Path>>(path: P, flush_every: usize) -> io::Result<TelemetryStream> {
        let format = if path.as_ref().extension().is_some_and(|e| e == "jsonl") {
            StreamFormat::Jsonl
        } else {
            StreamFormat::Csv
        };
        let file = File::create(path)?;
        Ok(Self::with_writer(file, format, flush_every))
    }

    /// Stream into any writer (tests use an in-memory pipe).
    ///
    /// # Panics
    ///
    /// Panics on a zero `flush_every`.
    pub fn with_writer<W: Write + Send + 'static>(
        sink: W,
        format: StreamFormat,
        flush_every: usize,
    ) -> TelemetryStream {
        assert!(flush_every > 0, "flush_every must be positive");
        let (tx, rx) = sync_channel::<Window>(CHANNEL_DEPTH);
        let (spare_tx, spare) = sync_channel::<Window>(SPARE_DEPTH);
        let writer = std::thread::spawn(move || write_windows(sink, format, &rx, &spare_tx));
        TelemetryStream {
            tx: Some(tx),
            spare,
            writer: Some(writer),
            format,
            flush_every,
            cursor: 0,
            stats: StreamStats::default(),
            broken: false,
        }
    }

    /// The stream's on-disk format.
    pub fn format(&self) -> StreamFormat {
        self.format
    }

    /// Totals so far (final values come from [`TelemetryStream::finish`]).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Note `rec`'s growth and flush once per completed `flush_every`-row
    /// window. Cheap when no boundary was crossed: two integer compares.
    ///
    /// # Panics
    ///
    /// Panics at the first flush when `flush_every` exceeds `rec`'s ring
    /// capacity: rows would wrap away before they could be flushed.
    pub fn pump(&mut self, rec: &SeriesRecorder) {
        while rec.total_rows() - self.cursor >= self.flush_every as u64 {
            self.flush(rec);
        }
    }

    /// Copy every not-yet-flushed row still in the ring into a reused
    /// window and send it to the writer.
    fn flush(&mut self, rec: &SeriesRecorder) {
        let total = rec.total_rows();
        if self.cursor >= total {
            return;
        }
        assert!(
            self.flush_every <= rec.capacity(),
            "flush_every {} must not exceed the ring capacity {} or rows wrap away unflushed",
            self.flush_every,
            rec.capacity()
        );
        // Rows older than the ring's oldest surviving row are gone.
        let oldest = rec.dropped();
        if self.cursor < oldest {
            self.stats.lost += oldest - self.cursor;
            self.cursor = oldest;
        }
        if let (Some(tx), false) = (&self.tx, self.broken) {
            let mut window = self.spare.try_recv().unwrap_or_default();
            let (older, newer) = rec.rows_since(self.cursor);
            window.shape = rec.row_shape();
            window.cells.clear();
            window.cells.extend_from_slice(older);
            window.cells.extend_from_slice(newer);
            // A send error means the writer thread died on an I/O error;
            // remember it and surface the underlying error in `finish`.
            self.broken = tx.send(window).is_err();
        }
        self.stats.rows += total - self.cursor;
        self.stats.flushes += 1;
        self.cursor = total;
    }

    /// Flush the tail (rows below the boundary), close the channel, and
    /// join the writer thread.
    ///
    /// # Errors
    ///
    /// Propagates the writer thread's first I/O error.
    pub fn finish(mut self, rec: &SeriesRecorder) -> io::Result<StreamStats> {
        self.flush(rec);
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            match writer.join() {
                Ok(result) => result?,
                Err(_) => {
                    return Err(io::Error::other("telemetry writer thread panicked"));
                }
            }
        }
        Ok(self.stats)
    }
}

/// The writer thread: render each window's rows into one reused text
/// buffer (the CSV header before the first), write it, and hand the
/// window back. Returns at the first I/O error, which closes the channel.
fn write_windows<W: Write>(
    mut sink: W,
    format: StreamFormat,
    windows: &Receiver<Window>,
    spare: &SyncSender<Window>,
) -> io::Result<()> {
    let mut cache = RowCache::default();
    let mut text = String::new();
    let mut header_sent = false;
    while let Ok(window) = windows.recv() {
        text.clear();
        if format == StreamFormat::Csv && !header_sent {
            text.push_str(&export::header(window.shape));
            text.push('\n');
        }
        header_sent = true;
        for cells in window.cells.chunks_exact(window.shape.width()) {
            let row = RowView {
                shape: window.shape,
                cells,
            };
            export::row_line(format, row, &mut cache, &mut text);
            text.push('\n');
        }
        sink.write_all(text.as_bytes())?;
        // Hand the window back; it is simply dropped once the stream is
        // gone.
        let _ = spare.try_send(window);
    }
    sink.flush()
}

impl Drop for TelemetryStream {
    fn drop(&mut self) {
        // Close the channel so an un-finished stream still terminates its
        // writer thread (losing only the unflushed tail).
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A Write sink tests can read back after the writer thread exits.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn filled(rows: u64, cap: usize) -> SeriesRecorder {
        let mut rec = SeriesRecorder::new(cap);
        rec.ensure_shape(1, 1, 1);
        for q in 0..rows {
            rec.push_row(q * 1000)
                .chip(1.0 + q as f64, f64::NAN, 40.0)
                .task(0, 0.1, 0.1, 30.0, 1.0);
        }
        rec
    }

    #[test]
    fn undersized_ring_streams_every_row() {
        // Ring of 8, 50 rows: a post-run export would hold only the last 8.
        let buf = SharedBuf::default();
        let mut stream = TelemetryStream::with_writer(buf.clone(), StreamFormat::Csv, 4);
        let mut rec = SeriesRecorder::new(8);
        rec.ensure_shape(1, 1, 1);
        for q in 0..50u64 {
            rec.push_row(q * 1000).chip(1.0 + q as f64, f64::NAN, 40.0);
            stream.pump(&rec);
        }
        let stats = stream.finish(&rec).expect("writer ok");
        assert_eq!(stats.rows, 50);
        assert_eq!(stats.lost, 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 50, "header + every quantum");
        assert!(lines[0].starts_with("t_s,chip_power_w"));
        assert!(lines[1].starts_with("0,1,"));
        assert!(lines[50].starts_with("0.049,50"));
    }

    #[test]
    fn streamed_csv_matches_post_run_export_when_nothing_wraps() {
        let rec = filled(5, 16);
        let buf = SharedBuf::default();
        let stream = TelemetryStream::with_writer(buf.clone(), StreamFormat::Csv, 2);
        // finish() flushes whatever is pending, boundary or not.
        let stats = stream.finish(&rec).expect("writer ok");
        assert_eq!(stats.rows, 5);
        let mut post = Vec::new();
        crate::write_csv(&rec, &mut post).unwrap();
        assert_eq!(*buf.0.lock().unwrap(), post, "streamed bytes differ");
    }

    #[test]
    fn streamed_jsonl_matches_post_run_export() {
        let rec = filled(6, 16);
        let buf = SharedBuf::default();
        let mut stream = TelemetryStream::with_writer(buf.clone(), StreamFormat::Jsonl, 3);
        stream.pump(&rec);
        let stats = stream.finish(&rec).expect("writer ok");
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.flushes, 1, "one boundary crossing drains all 6");
        let mut post = Vec::new();
        crate::write_jsonl(&rec, &mut post).unwrap();
        assert_eq!(*buf.0.lock().unwrap(), post);
    }

    #[test]
    fn wrapped_away_rows_are_counted_lost_not_skipped_silently() {
        // Never pumped until 20 rows ran through a 4-row ring.
        let rec = filled(20, 4);
        let buf = SharedBuf::default();
        let mut stream = TelemetryStream::with_writer(buf.clone(), StreamFormat::Csv, 4);
        stream.pump(&rec);
        let stats = stream.finish(&rec).expect("writer ok");
        assert_eq!(stats.lost, 16);
        assert_eq!(stats.rows, 4);
    }

    #[test]
    fn pump_below_the_boundary_sends_nothing() {
        let rec = filled(3, 16);
        let buf = SharedBuf::default();
        let mut stream = TelemetryStream::with_writer(buf.clone(), StreamFormat::Csv, 8);
        stream.pump(&rec);
        assert_eq!(stream.stats().flushes, 0);
        drop(stream);
    }

    #[test]
    #[should_panic(expected = "must not exceed the ring capacity")]
    fn flush_interval_above_ring_capacity_panics_in_every_profile() {
        // A 4-row ring cannot hold an 8-row flush window: the first
        // boundary crossing must refuse rather than count rows lost.
        let rec = filled(8, 4);
        let mut stream = TelemetryStream::with_writer(Vec::new(), StreamFormat::Csv, 8);
        stream.pump(&rec);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_flush_interval_panics() {
        let _ = TelemetryStream::with_writer(Vec::new(), StreamFormat::Csv, 0);
    }

    /// A sink that accepts `ok` writes, then fails every later one.
    struct FailingSink {
        ok: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sink_failing_mid_run_surfaces_its_error_and_never_blocks_pump() {
        // The simulation side runs on its own thread so that a pump
        // blocked on a dead writer shows as a timeout, not a hung test.
        let (done_tx, done) = std::sync::mpsc::channel();
        let sim = std::thread::spawn(move || {
            let stream =
                TelemetryStream::with_writer(FailingSink { ok: 2 }, StreamFormat::Jsonl, 4);
            let mut tel = crate::Telemetry::new(8).with_stream(stream);
            tel.recorder.ensure_shape(1, 1, 1);
            for q in 0..4000u64 {
                tel.recorder.push_row(q * 1000).chip(1.0, f64::NAN, 40.0);
                tel.roll_forward();
            }
            let stats = tel.stream_stats().expect("stream attached");
            done_tx.send(()).unwrap();
            (tel.finish_stream().expect("stream attached"), stats)
        });
        done.recv_timeout(std::time::Duration::from_secs(60))
            .expect("pump blocked after the writer died");
        let (result, stats) = sim.join().unwrap();
        let err = result.expect_err("the sink's error surfaces from finish_stream");
        assert_eq!(err.to_string(), "disk full");
        // Loss accounting still ran on the simulation side.
        assert_eq!((stats.rows, stats.lost, stats.flushes), (4000, 0, 1000));
    }
}
