//! Pluggable telemetry: observer hooks through which a [`Manager`] streams
//! per-interval statistics without the driver loop knowing who listens.
//!
//! The [`Manager`](crate::Manager) owns any number of boxed
//! [`TelemetrySink`]s. At the first step of a run it fires
//! [`TelemetrySink::on_run_start`]; after every monitoring interval it
//! fires [`TelemetrySink::on_interval`]; and when the run is finished
//! ([`Manager::finish`](crate::Manager::finish) /
//! [`Manager::into_engine`](crate::Manager::into_engine)) it fires
//! [`TelemetrySink::on_run_end`]. Four sinks ship with the crate:
//!
//! * [`TraceSink`] — accumulates a [`Trace`] behind a shareable handle;
//! * [`SummarySink`] — reduces the run to a [`PolicySummary`];
//! * [`CsvSink`] — streams [`csv_header`]-schema rows to a writer/file;
//! * [`JsonLinesSink`] — streams one JSON object per interval
//!   ([`hipster_sim::interval_to_jsonl`]'s round-trippable format, a
//!   field map over [`hipster_sim::JsonObj`], the codec the sweep store's
//!   journal shares).
//!
//! File sinks default to paths under `results/`, the workspace's artifact
//! directory.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hipster_sim::{csv_header, csv_row, interval_to_jsonl, IntervalStats, QosTarget, Trace};

use crate::metrics::PolicySummary;

/// Identity of a run, handed to every sink callback.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Scenario name (defaults to the policy name outside a scenario).
    pub scenario: String,
    /// Policy name.
    pub policy: String,
    /// Latency-critical workload name.
    pub workload: String,
    /// The workload's QoS target.
    pub qos: QosTarget,
    /// Root seed of the run's stochastic streams.
    pub seed: u64,
    /// Monitoring interval length, seconds.
    pub interval_s: f64,
}

/// An observer of one run's per-interval statistics.
///
/// Implementations must be `Send`: a [`Fleet`](crate::Fleet) moves each
/// scenario — sinks included — onto a worker thread.
pub trait TelemetrySink: Send {
    /// Called once, before the first interval of the run.
    fn on_run_start(&mut self, _meta: &RunMeta) {}

    /// Called after every monitoring interval.
    fn on_interval(&mut self, meta: &RunMeta, stats: &IntervalStats);

    /// Called once, after the last interval of the run.
    fn on_run_end(&mut self, _meta: &RunMeta) {}
}

/// Shared handle to data a sink collects (the sink itself moves into the
/// manager — and possibly onto a fleet worker thread — so results come
/// back through an `Arc`).
#[derive(Debug)]
pub struct SinkHandle<T>(Arc<Mutex<T>>);

impl<T> Clone for SinkHandle<T> {
    fn clone(&self) -> Self {
        SinkHandle(Arc::clone(&self.0))
    }
}

impl<T: Default> SinkHandle<T> {
    fn new() -> Self {
        SinkHandle(Arc::new(Mutex::new(T::default())))
    }

    /// Takes the collected value, leaving a default in its place.
    pub fn take(&self) -> T {
        std::mem::take(&mut *self.0.lock().expect("sink handle poisoned"))
    }
}

impl<T: Clone + Default> SinkHandle<T> {
    /// Clones the collected value without consuming it.
    pub fn snapshot(&self) -> T {
        self.0.lock().expect("sink handle poisoned").clone()
    }
}

/// Accumulates every interval into a [`Trace`].
#[derive(Debug)]
pub struct TraceSink {
    trace: SinkHandle<Trace>,
}

impl TraceSink {
    /// Creates the sink and the handle through which the trace is read
    /// after the run.
    pub fn new() -> (Self, SinkHandle<Trace>) {
        let trace = SinkHandle::new();
        (
            TraceSink {
                trace: trace.clone(),
            },
            trace,
        )
    }
}

impl TelemetrySink for TraceSink {
    fn on_interval(&mut self, _meta: &RunMeta, stats: &IntervalStats) {
        self.trace
            .0
            .lock()
            .expect("sink handle poisoned")
            .push(stats.clone());
    }
}

/// Reduces the run to a [`PolicySummary`] when it ends.
#[derive(Debug)]
pub struct SummarySink {
    trace: Trace,
    out: SinkHandle<Option<PolicySummary>>,
}

impl SummarySink {
    /// Creates the sink and the handle holding the summary after the run.
    pub fn new() -> (Self, SinkHandle<Option<PolicySummary>>) {
        let out = SinkHandle::new();
        (
            SummarySink {
                trace: Trace::new(),
                out: out.clone(),
            },
            out,
        )
    }
}

impl TelemetrySink for SummarySink {
    fn on_interval(&mut self, _meta: &RunMeta, stats: &IntervalStats) {
        self.trace.push(stats.clone());
    }

    fn on_run_end(&mut self, meta: &RunMeta) {
        let summary = PolicySummary::from_trace(meta.policy.clone(), &self.trace, meta.qos);
        *self.out.0.lock().expect("sink handle poisoned") = Some(summary);
    }
}

/// Streams intervals as CSV rows (the [`csv_header`] schema shared with
/// [`Trace::to_csv`]).
pub struct CsvSink {
    out: LineWriter,
}

impl std::fmt::Debug for CsvSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvSink")
            .field("path", &self.out.path)
            .finish()
    }
}

impl CsvSink {
    /// Creates `path` (and its parent directories) and streams rows to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(CsvSink {
            out: LineWriter::create(path.as_ref())?,
        })
    }

    /// Streams rows to an arbitrary writer (for tests and pipes).
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        CsvSink {
            out: LineWriter::from_writer(w),
        }
    }
}

impl TelemetrySink for CsvSink {
    fn on_run_start(&mut self, _meta: &RunMeta) {
        self.out.line(csv_header());
    }

    fn on_interval(&mut self, _meta: &RunMeta, stats: &IntervalStats) {
        self.out.line(&csv_row(stats));
    }

    fn on_run_end(&mut self, _meta: &RunMeta) {
        self.out.finish();
    }
}

/// Streams intervals as JSON lines (see [`hipster_sim::interval_to_jsonl`]
/// for the schema; [`hipster_sim::interval_from_jsonl`] parses them back).
pub struct JsonLinesSink {
    out: LineWriter,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink")
            .field("path", &self.out.path)
            .finish()
    }
}

impl JsonLinesSink {
    /// Creates `path` (and its parent directories) and streams lines to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonLinesSink {
            out: LineWriter::create(path.as_ref())?,
        })
    }

    /// Streams lines to an arbitrary writer (for tests and pipes).
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        JsonLinesSink {
            out: LineWriter::from_writer(w),
        }
    }
}

impl TelemetrySink for JsonLinesSink {
    fn on_interval(&mut self, _meta: &RunMeta, stats: &IntervalStats) {
        self.out.line(&interval_to_jsonl(stats));
    }

    fn on_run_end(&mut self, _meta: &RunMeta) {
        self.out.finish();
    }
}

/// Buffered line output shared by the file sinks. Telemetry must not abort
/// a simulation, so write errors don't propagate — but they are not silent
/// either: the first failure is reported on stderr (once), so a truncated
/// artifact never masquerades as a complete one.
struct LineWriter {
    out: BufWriter<Box<dyn Write + Send>>,
    path: Option<PathBuf>,
    failed: bool,
}

impl LineWriter {
    fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(LineWriter {
            out: BufWriter::new(Box::new(File::create(path)?)),
            path: Some(path.to_owned()),
            failed: false,
        })
    }

    fn from_writer(w: impl Write + Send + 'static) -> Self {
        LineWriter {
            out: BufWriter::new(Box::new(w)),
            path: None,
            failed: false,
        }
    }

    fn line(&mut self, s: &str) {
        let result = writeln!(self.out, "{s}");
        self.report(result);
    }

    fn finish(&mut self) {
        let result = self.out.flush();
        self.report(result);
    }

    fn report(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            if !self.failed {
                self.failed = true;
                eprintln!(
                    "[telemetry] write to {} failed, artifact will be truncated: {e}",
                    self.path
                        .as_deref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<writer>".into())
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_platform::{CoreConfig, Frequency, PowerBreakdown};
    use hipster_sim::MachineConfig;

    fn meta() -> RunMeta {
        RunMeta {
            scenario: "test".into(),
            policy: "Static".into(),
            workload: "toy".into(),
            qos: QosTarget::new(0.95, 0.010),
            seed: 1,
            interval_s: 1.0,
        }
    }

    fn stats(tail_ms: f64) -> IntervalStats {
        let f = Frequency::from_mhz(1150);
        let fs = Frequency::from_mhz(650);
        IntervalStats {
            index: 0,
            start_s: 0.0,
            duration_s: 1.0,
            config: MachineConfig {
                lc: CoreConfig::new(2, 0, f, fs),
                big_freq: f,
                small_freq: fs,
                batch_enabled: false,
            },
            offered_load_frac: 0.5,
            offered_rps: 100.0,
            arrivals: 100,
            completions: 100,
            timeouts: 0,
            throughput_rps: 100.0,
            tail_latency_s: tail_ms / 1e3,
            mean_latency_s: tail_ms / 2e3,
            queue_len: 0,
            lc_busy: vec![0.5, 0.5],
            power: PowerBreakdown {
                big: 1.0,
                small: 0.2,
                rest: 0.3,
            },
            energy_j: 1.5,
            batch_ips_big: 0.0,
            batch_ips_small: 0.0,
            counters_valid: true,
            migrated_cores: 0,
        }
    }

    #[test]
    fn trace_sink_accumulates() {
        let (mut sink, handle) = TraceSink::new();
        let m = meta();
        sink.on_run_start(&m);
        sink.on_interval(&m, &stats(5.0));
        sink.on_interval(&m, &stats(15.0));
        sink.on_run_end(&m);
        let trace = handle.take();
        assert_eq!(trace.len(), 2);
        // Taking leaves an empty trace behind.
        assert!(handle.take().is_empty());
    }

    #[test]
    fn summary_sink_reduces_at_end() {
        let (mut sink, handle) = SummarySink::new();
        let m = meta();
        sink.on_interval(&m, &stats(5.0));
        sink.on_interval(&m, &stats(15.0));
        assert!(handle.snapshot().is_none(), "summary only lands at end");
        sink.on_run_end(&m);
        let s = handle.take().expect("summary present");
        assert_eq!(s.name, "Static");
        assert_eq!(s.qos_guarantee_pct, 50.0);
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CsvSink::from_writer(Shared(Arc::clone(&buf)));
        let m = meta();
        sink.on_run_start(&m);
        sink.on_interval(&m, &stats(5.0));
        sink.on_run_end(&m);
        drop(sink);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with(csv_header()));
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("2B-1.15"));
    }

    #[test]
    fn jsonl_sink_lines_parse_back() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLinesSink::from_writer(Shared(Arc::clone(&buf)));
        let m = meta();
        sink.on_run_start(&m);
        sink.on_interval(&m, &stats(7.5));
        sink.on_run_end(&m);
        drop(sink);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let parsed = hipster_sim::interval_from_jsonl(text.trim()).expect("parses");
        assert_eq!(parsed, stats(7.5));
    }
}
