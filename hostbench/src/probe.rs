//! Layer probes: benchmark-owned adapters behind the simulator's public
//! traits that stamp host time at layer boundaries.
//!
//! * [`TimedPolicy`] wraps a [`Policy`] and records each `decide` span;
//! * [`StampSink`] is a [`TelemetrySink`] that stamps run start, every
//!   `on_interval` and run end;
//! * [`TimedStore`] wraps a [`FileStore`] and times each `record`.
//!
//! Every stamp lands in memory; spans are written out when the run ends.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use hipster_bench::runner::PolicyFn;
use hipster_core::{
    FileStore, Observation, Policy, QuarantineRecord, RunMeta, StoreError, SweepRecord, SweepStore,
    TelemetrySink,
};
use hipster_platform::CoreConfig;
use hipster_sim::IntervalStats;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds between two [`now_ns`] stamps.
pub fn secs(start: u64, end: u64) -> f64 {
    end.saturating_sub(start) as f64 * 1e-9
}

/// Host-time stamps of one simulated unit (a node cell or a cluster),
/// shared by the probes attached to it.
#[derive(Debug, Default)]
pub struct Log {
    /// When the policy factory first ran (scenario build).
    pub built: Option<u64>,
    /// `on_run_start` stamp.
    pub run_start: u64,
    /// `(start, end)` of every `decide`, in call order. In a cluster the
    /// nodes decide in node order, so step `s`, node `i` is entry
    /// `s · nodes + i`.
    pub decides: Vec<(u64, u64)>,
    /// `on_interval` stamps, one per simulated interval.
    pub intervals: Vec<u64>,
    /// `on_run_end` stamp.
    pub run_end: u64,
}

/// A [`Log`] shared between probes (and read back by the benchmark).
#[derive(Debug, Clone, Default)]
pub struct SharedLog(Arc<Mutex<Log>>);

impl SharedLog {
    /// Locks the log.
    pub fn lock(&self) -> MutexGuard<'_, Log> {
        self.0
            .lock()
            .expect("probe log poisoned by a panicking run")
    }

    /// Moves the recorded stamps out, leaving an empty log.
    pub fn take(&self) -> Log {
        std::mem::take(&mut *self.lock())
    }
}

/// A [`Policy`] that times its inner policy's `decide`.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    log: SharedLog,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &Observation) -> CoreConfig {
        let start = now_ns();
        let config = self.inner.decide(obs);
        let end = now_ns();
        self.log.lock().decides.push((start, end));
        config
    }
}

/// Wraps a policy factory so every policy it builds is a [`TimedPolicy`]
/// recording into `log`, and stamps the first build.
pub fn timed(factory: PolicyFn, log: SharedLog) -> PolicyFn {
    Box::new(move |platform, seed| {
        let now = now_ns();
        log.lock().built.get_or_insert(now);
        Box::new(TimedPolicy {
            inner: factory(platform, seed),
            log: log.clone(),
        })
    })
}

/// A [`TelemetrySink`] that only stamps host time.
#[derive(Debug)]
pub struct StampSink(pub SharedLog);

impl TelemetrySink for StampSink {
    fn on_run_start(&mut self, _meta: &RunMeta) {
        let now = now_ns();
        self.0.lock().run_start = now;
    }

    fn on_interval(&mut self, _meta: &RunMeta, _stats: &IntervalStats) {
        let now = now_ns();
        self.0.lock().intervals.push(now);
    }

    fn on_run_end(&mut self, _meta: &RunMeta) {
        let now = now_ns();
        self.0.lock().run_end = now;
    }
}

/// A [`SweepStore`] that times every `record` into its [`FileStore`].
#[derive(Debug)]
pub struct TimedStore {
    inner: FileStore,
    /// `(start, end)` of every `record` call.
    pub records: Vec<(u64, u64)>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: FileStore) -> Self {
        TimedStore {
            inner,
            records: Vec::new(),
        }
    }
}

impl SweepStore for TimedStore {
    fn completed_indices(&self) -> Vec<u64> {
        self.inner.completed_indices()
    }

    fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.inner.quarantined()
    }

    fn fetch(&self, index: u64) -> Option<SweepRecord> {
        self.inner.fetch(index)
    }

    fn record(&mut self, record: &SweepRecord) -> Result<(), StoreError> {
        let start = now_ns();
        let result = self.inner.record(record);
        self.records.push((start, now_ns()));
        result
    }

    fn record_quarantine(&mut self, q: &QuarantineRecord) -> Result<(), StoreError> {
        self.inner.record_quarantine(q)
    }
}

/// One recorded span: a layer's call, with the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Index of the causing span in the run's span list (itself for a
    /// root span).
    pub parent: usize,
    /// Start stamp, ns.
    pub start: u64,
    /// End stamp, ns.
    pub end: u64,
}

/// A run's spans, in memory until the run ends.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Records a span and returns its index. `parent: None` makes it a
    /// root span.
    pub fn push(
        &mut self,
        layer: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        let id = self.0.len();
        self.0.push(Span {
            layer,
            parent: parent.unwrap_or(id),
            start,
            end,
        });
        id
    }

    /// Appends another run's spans, re-basing their indices.
    pub fn extend(&mut self, other: Spans) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|s| Span {
            parent: s.parent + base,
            ..s
        }));
    }

    /// Renders `id,layer,parent,start_ns,end_ns` CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,layer,parent,start_ns,end_ns\n");
        for (id, s) in self.0.iter().enumerate() {
            out.push_str(&format!(
                "{id},{},{},{},{}\n",
                s.layer, s.parent, s.start, s.end
            ));
        }
        out
    }
}
