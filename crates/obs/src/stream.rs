//! Incremental telemetry streaming: flush the [`SeriesRecorder`] ring to a
//! CSV or JSONL file *during* the run, so hour-long simulations keep their
//! full history even when the in-memory ring is far smaller than the run.
//!
//! The hot-path contract mirrors the rest of this crate: the per-quantum
//! [`TelemetryStream::pump`] is two integer compares until a flush boundary
//! is crossed; only then does it serialize the pending rows into a chunk
//! buffer and send it to a dedicated writer thread over a **bounded**
//! channel. A slow disk therefore back-pressures the simulation instead of
//! growing an unbounded queue, and the simulation never blocks on
//! `write(2)` itself in the common case. The writer hands each written
//! chunk back over a second bounded channel, and the stream keeps a
//! per-cell render cache, so after warm-up a flush allocates nothing: it
//! copies unchanged cells and formats only the ones that moved.
//!
//! Loss accounting: rows the ring overwrote before they could be flushed
//! are counted in [`StreamStats::lost`], never silently skipped. With
//! `flush_every ≤ ring capacity` (checked at the first flush, in every
//! build profile) and a pump every quantum, no row is ever lost — the
//! acceptance test drives an undersized ring for exactly this property.
//! Streamed bytes reuse the same per-row serializers as the post-run
//! exporters, so `obs_validate` accepts streamed artifacts unchanged.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::export::{self, RowCache};
use crate::recorder::SeriesRecorder;

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
    /// Rows serialized and handed to the writer.
    pub rows: u64,
    /// Rows the ring overwrote before they could be flushed (0 whenever
    /// `flush_every ≤ ring capacity` and the stream is pumped every row).
    pub lost: u64,
    /// Flush chunks sent to the writer thread.
    pub flushes: u64,
}

/// How many chunks may sit in the channel before `pump` blocks on the
/// writer (bounded back-pressure, not an unbounded queue).
const CHANNEL_DEPTH: usize = 4;

/// How many written chunks the return channel holds for reuse: every
/// chunk that can be in flight (the queued ones, the one being written,
/// the one being filled), so the writer never has to drop one.
const SPARE_DEPTH: usize = CHANNEL_DEPTH + 2;

/// An incremental exporter bound to one output file. Create before the
/// run, [`TelemetryStream::pump`] after every recorded row, and
/// [`TelemetryStream::finish`] after the run to flush the tail and join
/// the writer thread.
#[derive(Debug)]
pub struct TelemetryStream {
    tx: Option<SyncSender<String>>,
    /// Written chunks coming back from the writer, ready for reuse.
    spare: Receiver<String>,
    writer: Option<JoinHandle<io::Result<()>>>,
    format: StreamFormat,
    cache: RowCache,
    flush_every: usize,
    /// Absolute row count already serialized (or counted lost).
    cursor: u64,
    header_sent: bool,
    stats: StreamStats,
    /// First write error observed on the channel (writer died).
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
        let (tx, rx) = sync_channel::<String>(CHANNEL_DEPTH);
        let (spare_tx, spare) = sync_channel::<String>(SPARE_DEPTH);
        let writer = std::thread::spawn(move || -> io::Result<()> {
            let mut out = BufWriter::new(sink);
            while let Ok(chunk) = rx.recv() {
                out.write_all(chunk.as_bytes())?;
                // Hand the buffer back; it is simply dropped once the
                // stream is gone.
                let _ = spare_tx.try_send(chunk);
            }
            out.flush()
        });
        TelemetryStream {
            tx: Some(tx),
            spare,
            writer: Some(writer),
            format,
            cache: RowCache::default(),
            flush_every,
            cursor: 0,
            header_sent: false,
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

    /// Serialize every not-yet-flushed row still in the ring into a reused
    /// chunk and send it.
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
        let oldest = total.saturating_sub(rec.capacity() as u64);
        if self.cursor < oldest {
            self.stats.lost += oldest - self.cursor;
            self.cursor = oldest;
        }
        let cap = rec.capacity() as u64;
        let mut chunk = self.spare.try_recv().unwrap_or_default();
        chunk.clear();
        if self.format == StreamFormat::Csv && !self.header_sent {
            chunk.push_str(&crate::csv_header(rec));
            chunk.push('\n');
        }
        self.header_sent = true;
        for abs in self.cursor..total {
            let i = (abs % cap) as usize;
            match self.format {
                StreamFormat::Csv => export::csv_row(rec, i, &mut self.cache, &mut chunk),
                StreamFormat::Jsonl => export::jsonl_row(rec, i, &mut self.cache, &mut chunk),
            }
            chunk.push('\n');
        }
        self.stats.rows += total - self.cursor;
        self.stats.flushes += 1;
        self.cursor = total;
        if let Some(tx) = &self.tx {
            // A send error means the writer thread died on an I/O error;
            // remember it and surface the underlying error in `finish`.
            if tx.send(chunk).is_err() {
                self.broken = true;
            }
        }
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
}
