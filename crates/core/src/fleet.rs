//! Multi-machine experiment execution: a [`Fleet`] runs many
//! [`ScenarioSpec`]s across OS threads — one simulated machine per
//! scenario — and yields their outcomes in declaration order.
//!
//! Scheduling is **work-stealing**: every worker claims the next
//! unstarted scenario from a shared atomic cursor the moment it goes
//! idle (PR 4 replaced the previous mutex-guarded `VecDeque` job queue —
//! one lock round-trip per claim — with the lock-free cursor), so
//! heterogeneous fleets (a fig. 2/3-style heatmap mixes cheap low-load
//! cells with expensive near-saturation ones) keep all cores busy to the
//! end instead of leaving them idle behind the slowest statically
//! assigned shard. Results stream back to the caller *as scenarios
//! complete*: [`Fleet::run_each`] folds outcomes in declaration order
//! through a callback (holding only out-of-order stragglers in a reorder
//! buffer), and [`Fleet::run`] is the collect-everything convenience on
//! top — the pre-PR4 `run` buffered every `Trace` unconditionally. A
//! static-partition baseline scheduler lives in
//! [`reference::run_static_chunked`](crate::reference::run_static_chunked)
//! for differential tests and scheduling-quality benchmarks.
//!
//! Determinism is the contract: every scenario owns its own engine and
//! seed, so a fleet run is byte-identical to running the same specs one by
//! one (the determinism regression test in `tests/` pins this). Scenarios
//! without a pinned seed get a *split seed* derived from the fleet's base
//! seed and their index ([`split_seed`]), so one `base` reproduces a whole
//! sweep.
//!
//! Sweeps can be made **durable**: [`Fleet::resume`] (and
//! [`Fleet::run_each_stored`]) run against a
//! [`SweepStore`](crate::store::SweepStore) — every finished scenario is
//! journaled as it completes under work-stealing, completed cells found in
//! the store are restored instead of re-run, and because seeds are split
//! per declaration index the merged output is byte-identical to an
//! uninterrupted run. Panicking scenarios can be *quarantined* into the
//! store ([`PanicPolicy::Quarantine`]) instead of failing the sweep; the
//! surviving cells are unaffected.
//!
//! # Example
//!
//! ```
//! use hipster_core::{Fleet, ScenarioSpec, StaticPolicy};
//! use hipster_platform::Platform;
//! use hipster_workloads::{memcached, Constant};
//!
//! let fleet: Fleet = [0.3, 0.6]
//!     .into_iter()
//!     .map(|load| {
//!         ScenarioSpec::new(format!("load-{load}"), Platform::juno_r1())
//!             .workload_with(|| Box::new(memcached()))
//!             .load(Constant::new(load, 30.0))
//!             .policy(|p: &Platform, _| {
//!                 Box::new(StaticPolicy::all_big(p)) as Box<dyn hipster_core::Policy>
//!             })
//!             .intervals(30)
//!     })
//!     .collect();
//! let outcomes = fleet.run().expect("valid fleet");
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].name, "load-0.3"); // declaration order
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use crate::scenario::{ScenarioError, ScenarioOutcome, ScenarioSpec};
use crate::store::{QuarantineRecord, StoreError, SweepRecord, SweepStore};

/// Derives a scenario's seed from a fleet-level base seed and the
/// scenario's **declaration index** in the fleet (scenarios with pinned
/// seeds keep them, but still occupy their index — so reordering or
/// inserting scenarios changes the seeds of later unseeded ones).
///
/// SplitMix64 over `base` and `index` — the standard way to expand one
/// seed into decorrelated streams (it is also how
/// [`SimRng`](hipster_sim::SimRng) expands its own state). Deterministic
/// across platforms and runs.
pub fn split_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a [`Fleet`] refused to run or failed mid-run.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet contains no scenarios.
    Empty,
    /// A scenario failed validation before anything ran.
    InvalidScenario {
        /// Position of the offending scenario.
        index: usize,
        /// Its name.
        name: String,
        /// What was wrong with it.
        error: ScenarioError,
    },
    /// A scenario panicked on its worker thread (e.g. a policy returned a
    /// configuration the platform rejects).
    ScenarioPanicked {
        /// Position of the offending scenario.
        index: usize,
        /// Its name.
        name: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The [`SweepStore`] failed while recording a finished scenario —
    /// the sweep stops rather than silently losing durability.
    Store(StoreError),
    /// A resumed store does not belong to this fleet: a recorded cell's
    /// index, name or seed disagrees with the declared scenarios.
    StoreMismatch {
        /// Declaration index of the disputed cell.
        index: u64,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Empty => f.write_str("fleet has no scenarios"),
            FleetError::InvalidScenario { index, name, error } => {
                write!(f, "scenario #{index} ({name:?}) is invalid: {error}")
            }
            FleetError::ScenarioPanicked {
                index,
                name,
                message,
            } => {
                write!(f, "scenario #{index} ({name:?}) panicked: {message}")
            }
            FleetError::Store(e) => write!(f, "sweep store failed: {e}"),
            FleetError::StoreMismatch { index, detail } => {
                write!(f, "store cell #{index} does not match this fleet: {detail}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::InvalidScenario { error, .. } => Some(error),
            FleetError::Store(error) => Some(error),
            _ => None,
        }
    }
}

/// What a [`Fleet`] does when a scenario panics mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Stop the sweep and report the first (lowest-index) panic as
    /// [`FleetError::ScenarioPanicked`] — the historical behaviour, and
    /// still the default.
    #[default]
    FailFast,
    /// Capture the panic as a [`QuarantineRecord`] (scenario index, seed,
    /// panic message), skip that cell, and keep the sweep running. With a
    /// store attached the record is durable; resumed runs skip
    /// quarantined cells unless [`Fleet::retry_quarantined`] is set.
    Quarantine,
}

/// Execution statistics of one fleet run — how well the scheduler kept
/// its workers fed.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Worker threads the run used.
    pub workers: usize,
    /// Scenarios actually executed this run (or claimed before a failure
    /// stopped it) — cells restored from a store are *not* counted here.
    pub scenarios: usize,
    /// Cells restored from an attached [`SweepStore`](crate::SweepStore)
    /// instead of re-run. Always 0 without a store.
    pub resumed: usize,
    /// Cells skipped because a previous run quarantined them and
    /// [`Fleet::retry_quarantined`] was off. Always 0 without a store.
    pub skipped: usize,
    /// Cells that panicked *this run* and were quarantined under
    /// [`PanicPolicy::Quarantine`].
    pub quarantined: usize,
    /// Wall-clock seconds the whole run took, from first claim to last
    /// worker exit.
    pub wall_s: f64,
    /// Wall-clock seconds each worker spent *running scenarios* (the
    /// rest of its lifetime is scheduler idle tail).
    pub worker_busy_s: Vec<f64>,
    /// When each worker ran out of work, in seconds since the run
    /// started. A well-fed schedule finishes its workers together; a
    /// static partition strands early finishers while the straggler
    /// shard drains.
    pub worker_finish_s: Vec<f64>,
}

impl FleetStats {
    /// Total busy seconds across all workers.
    pub fn busy_total_s(&self) -> f64 {
        self.worker_busy_s.iter().sum()
    }

    /// Sweep throughput: scenarios completed per wall-clock second.
    /// 0 when the run was too fast to time (or ran nothing).
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.scenarios as f64 / self.wall_s
    }

    /// The fraction of `workers × wall_s` spent idle. 0 means every
    /// worker was busy until the run ended. Note this compares *thread*
    /// busy spans to wall time, so it is only meaningful when each
    /// worker has a core to itself.
    pub fn idle_frac(&self, wall_s: f64) -> f64 {
        let capacity = self.workers as f64 * wall_s;
        if capacity <= 0.0 {
            return 0.0;
        }
        (1.0 - self.busy_total_s() / capacity).max(0.0)
    }

    /// The straggler tail as finish-time spread: `1 − mean(finish) /
    /// max(finish)` over [`FleetStats::worker_finish_s`]. 0 means every
    /// worker ran out of work at the same moment; large values mean most
    /// workers sat idle while the last shard drained. Unlike
    /// [`FleetStats::idle_frac`] this stays meaningful when workers
    /// time-share cores (CI boxes, laptops), because it only compares
    /// the workers' finish *instants*.
    pub fn idle_tail_frac(&self) -> f64 {
        let last = self.worker_finish_s.iter().copied().fold(0.0_f64, f64::max);
        if last <= 0.0 || self.worker_finish_s.is_empty() {
            return 0.0;
        }
        let mean = self.worker_finish_s.iter().sum::<f64>() / self.worker_finish_s.len() as f64;
        (1.0 - mean / last).max(0.0)
    }
}

/// A set of scenarios executed in parallel across OS threads.
pub struct Fleet {
    scenarios: Vec<ScenarioSpec>,
    threads: usize,
    base_seed: u64,
    panic_policy: PanicPolicy,
    retry_quarantined: bool,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("scenarios", &self.scenarios.len())
            .field("threads", &self.threads)
            .field("base_seed", &self.base_seed)
            .field("panic_policy", &self.panic_policy)
            .field("retry_quarantined", &self.retry_quarantined)
            .finish()
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

impl FromIterator<ScenarioSpec> for Fleet {
    fn from_iter<T: IntoIterator<Item = ScenarioSpec>>(iter: T) -> Self {
        let mut fleet = Fleet::new();
        for spec in iter {
            fleet.push(spec);
        }
        fleet
    }
}

impl Fleet {
    /// An empty fleet (threads default to the machine's parallelism).
    pub fn new() -> Self {
        Fleet {
            scenarios: Vec::new(),
            threads: 0,
            base_seed: 0,
            panic_policy: PanicPolicy::FailFast,
            retry_quarantined: false,
        }
    }

    /// Adds a scenario (builder style).
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.push(spec);
        self
    }

    /// Adds a scenario.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.scenarios.push(spec);
    }

    /// Caps the worker-thread count (0 = one per available core).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the base seed from which unseeded scenarios get their
    /// [`split_seed`]. Scenarios with a pinned seed are unaffected.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets what happens when a scenario panics mid-sweep (default:
    /// [`PanicPolicy::FailFast`]).
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.panic_policy = policy;
        self
    }

    /// When resuming from a store, re-run cells a previous run
    /// quarantined instead of skipping them (default: off — a cell that
    /// panicked once will deterministically panic again unless the code
    /// under test changed).
    pub fn retry_quarantined(mut self, retry: bool) -> Self {
        self.retry_quarantined = retry;
        self
    }

    /// Number of scenarios queued.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the fleet is empty (an empty fleet refuses to run).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Validates every scenario and assigns split seeds, returning the
    /// ready-to-run specs and the resolved worker count. All validation
    /// happens before any simulation starts: an invalid scenario anywhere
    /// in the fleet means nothing runs.
    pub(crate) fn prepare(mut self) -> Result<(Vec<ScenarioSpec>, usize), FleetError> {
        if self.scenarios.is_empty() {
            return Err(FleetError::Empty);
        }
        for (index, spec) in self.scenarios.iter().enumerate() {
            spec.validate()
                .map_err(|error| FleetError::InvalidScenario {
                    index,
                    name: spec.name().to_owned(),
                    error,
                })?;
        }
        for (index, spec) in self.scenarios.iter_mut().enumerate() {
            spec.assign_seed_if_unset(split_seed(self.base_seed, index as u64));
        }
        let workers = resolve_workers(self.threads, self.scenarios.len());
        Ok((self.scenarios, workers))
    }

    /// Executes the fleet across worker threads and collects every outcome
    /// **in declaration order** regardless of which thread finished first.
    ///
    /// Equivalent to [`Fleet::run_each`] pushing into a `Vec` — use
    /// `run_each` when the fleet is large and outcomes can be reduced on
    /// the fly instead of buffered whole.
    pub fn run(self) -> Result<Vec<ScenarioOutcome>, FleetError> {
        self.run_with_stats().map(|(outcomes, _)| outcomes)
    }

    /// [`Fleet::run`], also returning the scheduler's [`FleetStats`].
    pub fn run_with_stats(self) -> Result<(Vec<ScenarioOutcome>, FleetStats), FleetError> {
        let mut outcomes = Vec::with_capacity(self.len());
        let stats = self.run_each(|outcome| outcomes.push(outcome))?;
        Ok((outcomes, stats))
    }

    /// Runs the fleet against a durable [`SweepStore`] and collects the
    /// outcomes **in declaration order**: cells already completed in the
    /// store are restored without re-running, the remainder execute under
    /// work-stealing and are journaled as they finish, and the merged
    /// result is byte-identical to an uninterrupted [`Fleet::run`].
    ///
    /// On a fresh (empty) store this is simply a fully-journaled sweep,
    /// so the same call works for the first attempt and every resume —
    /// kill the process at any cell, call `resume` again, and only the
    /// missing cells re-run. Cells a previous run quarantined are skipped
    /// (see [`Fleet::retry_quarantined`]); skipped and currently
    /// quarantined cells simply do not appear in the returned vector.
    ///
    /// Fails with [`FleetError::StoreMismatch`] if the store's recorded
    /// cells disagree with this fleet's names or seeds — resuming a sweep
    /// against the wrong store would silently splice unrelated results.
    pub fn resume(
        self,
        store: &mut dyn SweepStore,
    ) -> Result<(Vec<ScenarioOutcome>, FleetStats), FleetError> {
        let mut outcomes = Vec::with_capacity(self.len());
        let stats = self.run_each_stored(store, |outcome| outcomes.push(outcome))?;
        Ok((outcomes, stats))
    }

    /// The streaming flavour of [`Fleet::resume`]: like
    /// [`Fleet::run_each`], but restored and fresh outcomes alike fold in
    /// declaration order while fresh completions are journaled to `store`
    /// the moment they arrive (completion order), each one durable before
    /// the sweep moves on.
    pub fn run_each_stored<F>(
        self,
        store: &mut dyn SweepStore,
        fold: F,
    ) -> Result<FleetStats, FleetError>
    where
        F: FnMut(ScenarioOutcome),
    {
        self.run_each_inner(Some(store), fold)
    }

    /// Executes the fleet, streaming each [`ScenarioOutcome`] to `fold`
    /// **in declaration order** as soon as it (and everything before it)
    /// has completed. Only out-of-order stragglers are buffered, so a
    /// thousand-scenario sweep that reduces each outcome to a summary row
    /// never holds a thousand traces in memory.
    ///
    /// Failure semantics match [`Fleet::run`]: the first (lowest-index)
    /// panic or error is reported, workers stop claiming new scenarios
    /// once any failure is flagged, and no outcome at or after the failing
    /// index is delivered. Outcomes *before* the failing index may already
    /// have been folded when the error returns — a streaming API cannot
    /// take them back.
    pub fn run_each<F>(self, fold: F) -> Result<FleetStats, FleetError>
    where
        F: FnMut(ScenarioOutcome),
    {
        self.run_each_inner(None, fold)
    }

    /// The one sweep executor behind [`Fleet::run_each`] and
    /// [`Fleet::run_each_stored`]: reconciles the optional store with the
    /// declared scenarios, then runs the remainder serially or under
    /// work-stealing.
    fn run_each_inner<F>(
        self,
        mut store: Option<&mut dyn SweepStore>,
        mut fold: F,
    ) -> Result<FleetStats, FleetError>
    where
        F: FnMut(ScenarioOutcome),
    {
        let panic_policy = self.panic_policy;
        let retry_quarantined = self.retry_quarantined;
        let threads = self.threads;
        let (specs, _) = self.prepare()?;
        let n = specs.len();

        // Reconcile the store with this fleet: every recorded cell must
        // name-and-seed-match the scenario at its index, or the caller is
        // resuming against the wrong store.
        let mut restored: BTreeMap<usize, ScenarioOutcome> = BTreeMap::new();
        let mut skip: BTreeSet<usize> = BTreeSet::new();
        if let Some(store) = store.as_deref_mut() {
            for index in store.completed_indices() {
                let i = checked_cell_index(index, n)?;
                let rec = store.fetch(index).expect("listed index is retrievable");
                check_cell_identity(index, &rec.name, rec.seed, &specs[i])?;
                restored.insert(i, rec.into_outcome());
            }
            for q in store.quarantined() {
                let i = checked_cell_index(q.index, n)?;
                check_cell_identity(q.index, &q.name, q.seed, &specs[i])?;
                if !retry_quarantined {
                    skip.insert(i);
                }
            }
        }
        let resumed = restored.len();
        let skipped = skip.len();

        // Split the fleet into fixed cells (restored outcomes and
        // quarantine holes, already decided) and the jobs to execute;
        // each job remembers its declaration index, name and seed so a
        // fresh completion can be journaled and a panic quarantined.
        let mut fixed: BTreeMap<usize, Option<ScenarioOutcome>> = BTreeMap::new();
        let mut to_run: Vec<(usize, String, u64, ScenarioSpec)> = Vec::new();
        for (index, spec) in specs.into_iter().enumerate() {
            if let Some(outcome) = restored.remove(&index) {
                fixed.insert(index, Some(outcome));
            } else if skip.contains(&index) {
                fixed.insert(index, None);
            } else {
                let name = spec.name().to_owned();
                let seed = spec.seed_value().expect("prepare assigned every seed");
                to_run.push((index, name, seed, spec));
            }
        }
        let jobs_n = to_run.len();
        let workers = resolve_workers(threads, jobs_n);
        let mut quarantined = 0usize;

        let run_started = Instant::now();
        if workers == 1 || jobs_n == 0 {
            // Serial fast path (also the everything-already-restored
            // path): declaration order is execution order, so outcomes
            // stream with no reorder buffer.
            let mut busy = 0.0f64;
            let mut jobs = to_run.into_iter().peekable();
            for index in 0..n {
                if let Some(entry) = fixed.remove(&index) {
                    if let Some(outcome) = entry {
                        fold(outcome);
                    }
                    continue;
                }
                let (i, name, seed, spec) = jobs.next().expect("every cell fixed or runnable");
                debug_assert_eq!(i, index);
                let started = Instant::now();
                let outcome = run_caught(spec);
                busy += started.elapsed().as_secs_f64();
                match outcome {
                    Ok(outcome) => {
                        if let Some(store) = store.as_deref_mut() {
                            let rec = SweepRecord::from_outcome(index as u64, &outcome);
                            store.record(&rec).map_err(FleetError::Store)?;
                        }
                        fold(outcome);
                    }
                    Err(message) => match panic_policy {
                        PanicPolicy::FailFast => {
                            return Err(FleetError::ScenarioPanicked {
                                index,
                                name,
                                message,
                            })
                        }
                        PanicPolicy::Quarantine => {
                            quarantined += 1;
                            if let Some(store) = store.as_deref_mut() {
                                let q = QuarantineRecord {
                                    index: index as u64,
                                    name,
                                    seed,
                                    message,
                                };
                                store.record_quarantine(&q).map_err(FleetError::Store)?;
                            }
                        }
                    },
                }
            }
            let wall_s = run_started.elapsed().as_secs_f64();
            return Ok(FleetStats {
                workers: 1,
                scenarios: jobs_n,
                resumed,
                skipped,
                quarantined,
                wall_s,
                worker_busy_s: vec![busy],
                worker_finish_s: vec![wall_s],
            });
        }

        // Shared work-stealing state: an atomic cursor hands out job
        // indices; each job slot is locked exactly once, by the single
        // worker that claimed it.
        let jobs: Vec<Mutex<Option<(usize, String, u64, ScenarioSpec)>>> =
            to_run.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        // Fail fast: once any scenario fails (or the store refuses a
        // write), the whole run is lost, so workers stop picking up new
        // jobs rather than burning CPU on outcomes that would be
        // discarded. Under quarantine a panic is a result, not a failure.
        let failed = AtomicBool::new(false);
        let busy = Mutex::new(vec![0.0f64; workers]);
        let finishes = Mutex::new(vec![0.0f64; workers]);
        let (tx, rx) = mpsc::channel::<(usize, String, u64, Result<ScenarioOutcome, String>)>();

        let mut first_failure: Option<(usize, String, String)> = None;
        let mut store_failure: Option<StoreError> = None;
        std::thread::scope(|scope| {
            let jobs = &jobs;
            let cursor = &cursor;
            let failed = &failed;
            let busy = &busy;
            let finishes = &finishes;
            for worker in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut my_busy = 0.0f64;
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        if slot >= jobs_n {
                            break;
                        }
                        let (index, name, seed, spec) = jobs[slot]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("slot claimed exactly once");
                        let started = Instant::now();
                        let outcome = run_caught(spec);
                        my_busy += started.elapsed().as_secs_f64();
                        if outcome.is_err() && panic_policy == PanicPolicy::FailFast {
                            failed.store(true, Ordering::Relaxed);
                        }
                        if tx.send((index, name, seed, outcome)).is_err() {
                            break;
                        }
                    }
                    busy.lock().expect("busy slots poisoned")[worker] = my_busy;
                    finishes.lock().expect("finish slots poisoned")[worker] =
                        run_started.elapsed().as_secs_f64();
                });
            }
            drop(tx);

            // The calling thread is the consumer: fresh completions are
            // journaled the moment they arrive (completion order — a kill
            // right after loses nothing), then a reorder buffer preseeded
            // with the restored/skipped cells turns completion order into
            // declaration order, firing the callback the moment the next
            // expected index is ready.
            let mut pending = fixed;
            let mut next = 0usize;
            let drain = |pending: &mut BTreeMap<usize, Option<ScenarioOutcome>>,
                         next: &mut usize,
                         fold: &mut F| {
                while let Some(entry) = pending.remove(next) {
                    if let Some(outcome) = entry {
                        fold(outcome);
                    }
                    *next += 1;
                }
            };
            drain(&mut pending, &mut next, &mut fold);
            for (index, name, seed, outcome) in rx {
                if store_failure.is_some() {
                    continue; // drain the channel; the run is already lost
                }
                match outcome {
                    Ok(outcome) => {
                        if let Some(store) = store.as_deref_mut() {
                            let rec = SweepRecord::from_outcome(index as u64, &outcome);
                            if let Err(e) = store.record(&rec) {
                                store_failure = Some(e);
                                failed.store(true, Ordering::Relaxed);
                                continue;
                            }
                        }
                        pending.insert(index, Some(outcome));
                        drain(&mut pending, &mut next, &mut fold);
                    }
                    Err(message) => match panic_policy {
                        PanicPolicy::Quarantine => {
                            let q = QuarantineRecord {
                                index: index as u64,
                                name,
                                seed,
                                message,
                            };
                            if let Some(store) = store.as_deref_mut() {
                                if let Err(e) = store.record_quarantine(&q) {
                                    store_failure = Some(e);
                                    failed.store(true, Ordering::Relaxed);
                                    continue;
                                }
                            }
                            quarantined += 1;
                            pending.insert(index, None);
                            drain(&mut pending, &mut next, &mut fold);
                        }
                        PanicPolicy::FailFast => {
                            let is_first = first_failure
                                .as_ref()
                                .map_or(true, |(lowest, ..)| index < *lowest);
                            if is_first {
                                first_failure = Some((index, name, message));
                            }
                        }
                    },
                }
            }
        });

        if let Some(e) = store_failure {
            return Err(FleetError::Store(e));
        }
        match first_failure {
            Some((index, name, message)) => Err(FleetError::ScenarioPanicked {
                index,
                name,
                message,
            }),
            None => Ok(FleetStats {
                workers,
                scenarios: jobs_n,
                resumed,
                skipped,
                quarantined,
                wall_s: run_started.elapsed().as_secs_f64(),
                worker_busy_s: busy.into_inner().expect("busy slots poisoned"),
                worker_finish_s: finishes.into_inner().expect("finish slots poisoned"),
            }),
        }
    }
}

/// Resolves a thread-count request against the number of runnable jobs
/// (0 = one worker per available core; always at least one worker). A
/// single job skips the core-count query, which reads cgroup files.
pub(crate) fn resolve_workers(threads: usize, jobs: usize) -> usize {
    if jobs <= 1 {
        return 1;
    }
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
    .min(jobs)
    .max(1)
}

/// Bounds-checks a store cell index against this fleet's size.
fn checked_cell_index(index: u64, n: usize) -> Result<usize, FleetError> {
    match usize::try_from(index) {
        Ok(i) if i < n => Ok(i),
        _ => Err(FleetError::StoreMismatch {
            index,
            detail: format!("the fleet declares only {n} scenarios"),
        }),
    }
}

/// Checks a store record's identity against the declared scenario at its
/// index.
fn check_cell_identity(
    index: u64,
    name: &str,
    seed: u64,
    spec: &ScenarioSpec,
) -> Result<(), FleetError> {
    if name != spec.name() {
        return Err(FleetError::StoreMismatch {
            index,
            detail: format!(
                "store recorded scenario {:?}, the fleet declares {:?}",
                name,
                spec.name()
            ),
        });
    }
    let expected = spec.seed_value().expect("prepare assigned every seed");
    if seed != expected {
        return Err(FleetError::StoreMismatch {
            index,
            detail: format!("store recorded seed {seed}, the fleet derives {expected}"),
        });
    }
    Ok(())
}

/// Runs one spec with panic capture, flattening panics and validation
/// errors into a message.
pub(crate) fn run_caught(spec: ScenarioSpec) -> Result<ScenarioOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run()))
        .map_err(|payload| panic_message(payload.as_ref()))
        .and_then(|r| r.map_err(|e| e.to_string()))
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The Fleet's work-stealing scheduler generalized over *any* named
/// task — the entry point cluster sweeps use, since a cluster run is not
/// a [`ScenarioSpec`]. Tasks are claimed from an atomic cursor exactly
/// like [`Fleet::run_each`], results come back **in declaration order**,
/// and the first (lowest-index) panic wins with the same fail-fast
/// semantics. `threads == 0` means one worker per available core;
/// `threads == 1` runs serially on the calling thread.
///
/// Determinism is the caller's contract: a task must not depend on which
/// worker runs it or when — then `run_tasks(tasks, 1)` and
/// `run_tasks(tasks, 32)` return identical results.
///
/// # Example
///
/// ```
/// use hipster_core::run_tasks;
///
/// let tasks: Vec<(String, _)> = (0..8)
///     .map(|i| (format!("square-{i}"), move || i * i))
///     .collect();
/// let (results, stats) = run_tasks(tasks, 0).unwrap();
/// assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(stats.scenarios, 8);
/// ```
pub fn run_tasks<T, F>(
    tasks: Vec<(String, F)>,
    threads: usize,
) -> Result<(Vec<T>, FleetStats), FleetError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if tasks.is_empty() {
        return Err(FleetError::Empty);
    }
    let n = tasks.len();
    let workers = resolve_workers(threads, n);

    let catch = |name: String, index: usize, task: F| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).map_err(|payload| {
            FleetError::ScenarioPanicked {
                index,
                name,
                message: panic_message(payload.as_ref()),
            }
        })
    };

    let run_started = Instant::now();
    if workers == 1 {
        let mut busy = 0.0f64;
        let mut results = Vec::with_capacity(n);
        for (index, (name, task)) in tasks.into_iter().enumerate() {
            let started = Instant::now();
            let result = catch(name, index, task);
            busy += started.elapsed().as_secs_f64();
            results.push(result?);
        }
        let wall_s = run_started.elapsed().as_secs_f64();
        return Ok((
            results,
            FleetStats {
                workers: 1,
                scenarios: n,
                resumed: 0,
                skipped: 0,
                quarantined: 0,
                wall_s,
                worker_busy_s: vec![busy],
                worker_finish_s: vec![wall_s],
            },
        ));
    }

    // Same shared state as Fleet::run_each: an atomic claim cursor, one
    // job slot per task (locked exactly once by its claimant) and a
    // result slot written by the same claimant.
    let jobs: Vec<Mutex<Option<(String, F)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<Result<T, FleetError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let busy = Mutex::new(vec![0.0f64; workers]);
    let finishes = Mutex::new(vec![0.0f64; workers]);

    std::thread::scope(|scope| {
        let jobs = &jobs;
        let slots = &slots;
        let cursor = &cursor;
        let failed = &failed;
        let busy = &busy;
        let finishes = &finishes;
        let catch = &catch;
        for worker in 0..workers {
            scope.spawn(move || {
                let mut my_busy = 0.0f64;
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let (name, task) = jobs[index]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("index claimed exactly once");
                    let started = Instant::now();
                    let result = catch(name, index, task);
                    my_busy += started.elapsed().as_secs_f64();
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                }
                busy.lock().expect("busy slots poisoned")[worker] = my_busy;
                finishes.lock().expect("finish slots poisoned")[worker] =
                    run_started.elapsed().as_secs_f64();
            });
        }
    });

    // Report the lowest-index failure, like Fleet::run_each.
    let mut results = Vec::with_capacity(n);
    for slot in slots {
        match slot.into_inner().expect("result slot poisoned") {
            Some(Ok(value)) => results.push(value),
            Some(Err(e)) => return Err(e),
            // Unclaimed: the fail-fast flag stopped the run, so some
            // earlier-or-later slot holds the error — keep scanning.
            None => {}
        }
    }
    Ok((
        results,
        FleetStats {
            workers,
            scenarios: n,
            resumed: 0,
            skipped: 0,
            quarantined: 0,
            wall_s: run_started.elapsed().as_secs_f64(),
            worker_busy_s: busy.into_inner().expect("busy slots poisoned"),
            worker_finish_s: finishes.into_inner().expect("finish slots poisoned"),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use hipster_platform::{CoreKind, Frequency, Platform};
    use hipster_sim::{Demand, LcModel, LoadPattern, QosTarget, SimRng};

    #[derive(Debug)]
    struct Toy;
    impl LcModel for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn max_load_rps(&self) -> f64 {
            100.0
        }
        fn qos(&self) -> QosTarget {
            QosTarget::new(0.95, 0.010)
        }
        fn sample_demand(&self, _rng: &mut SimRng) -> Demand {
            Demand::new(1.0, 0.0)
        }
        fn service_speed(&self, kind: CoreKind, _f: Frequency) -> f64 {
            match kind {
                CoreKind::Big => 1000.0,
                CoreKind::Small => 400.0,
            }
        }
    }

    #[derive(Debug, Clone)]
    struct Half;
    impl LoadPattern for Half {
        fn load_at(&self, _t: f64) -> f64 {
            0.5
        }
        fn duration(&self) -> f64 {
            10.0
        }
    }

    fn spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half)
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(4)
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        assert!(matches!(Fleet::new().run(), Err(FleetError::Empty)));
    }

    #[test]
    fn invalid_scenario_stops_the_whole_fleet() {
        let err = Fleet::new()
            .scenario(spec("ok"))
            .scenario(spec("broken").intervals(0))
            .run()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario { index, name, error } => {
                assert_eq!(index, 1);
                assert_eq!(name, "broken");
                assert_eq!(error, ScenarioError::ZeroIntervals);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn outcomes_come_back_in_declaration_order() {
        let names: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
        let fleet: Fleet = names.iter().map(|n| spec(n)).collect();
        let outcomes = fleet.threads(4).run().expect("valid");
        let got: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn run_each_streams_in_declaration_order() {
        let names: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
        let fleet: Fleet = names.iter().map(|n| spec(n)).collect();
        let mut seen = Vec::new();
        let stats = fleet
            .threads(3)
            .run_each(|o| seen.push(o.name))
            .expect("valid");
        assert_eq!(seen, names);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.scenarios, 10);
        assert_eq!(stats.worker_busy_s.len(), 3);
        assert!(stats.busy_total_s() > 0.0);
    }

    #[test]
    fn stats_idle_fraction_is_sane() {
        let stats = FleetStats {
            workers: 2,
            scenarios: 4,
            resumed: 0,
            skipped: 0,
            quarantined: 0,
            wall_s: 1.0,
            worker_busy_s: vec![1.0, 0.5],
            worker_finish_s: vec![1.0, 0.5],
        };
        assert!((stats.busy_total_s() - 1.5).abs() < 1e-12);
        assert!((stats.idle_frac(1.0) - 0.25).abs() < 1e-12);
        // Measurement jitter cannot drive it negative.
        assert_eq!(stats.idle_frac(0.5), 0.0);
        // Finish-time spread: mean 0.75 over max 1.0 → 25% tail.
        assert!((stats.idle_tail_frac() - 0.25).abs() < 1e-12);
        let even = FleetStats {
            workers: 2,
            scenarios: 4,
            resumed: 0,
            skipped: 0,
            quarantined: 0,
            wall_s: 1.0,
            worker_busy_s: vec![1.0, 1.0],
            worker_finish_s: vec![1.0, 1.0],
        };
        assert_eq!(even.idle_tail_frac(), 0.0);
        assert_eq!(even.scenarios_per_sec(), 4.0);
    }

    #[test]
    fn run_tasks_is_order_stable_and_captures_panics() {
        let make =
            || -> Vec<(String, _)> { (0..40).map(|i| (format!("t{i}"), move || i * 3)).collect() };
        let (serial, s1) = run_tasks(make(), 1).expect("serial");
        let (stolen, s4) = run_tasks(make(), 4).expect("threaded");
        assert_eq!(serial, stolen);
        assert_eq!(serial[7], 21);
        assert_eq!((s1.workers, s4.workers), (1, 4));
        assert_eq!(s4.scenarios, 40);
        assert!(s4.wall_s >= 0.0 && s4.scenarios_per_sec() >= 0.0);

        let tasks: Vec<(String, Box<dyn FnOnce() -> usize + Send>)> = vec![
            ("fine".into(), Box::new(|| 1)),
            ("boom".into(), Box::new(|| panic!("task exploded"))),
        ];
        match run_tasks(tasks, 2) {
            Err(FleetError::ScenarioPanicked {
                index,
                name,
                message,
            }) => {
                assert_eq!((index, name.as_str()), (1, "boom"));
                assert!(message.contains("task exploded"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        assert!(matches!(
            run_tasks(Vec::<(String, fn() -> u8)>::new(), 2),
            Err(FleetError::Empty)
        ));
    }

    #[test]
    fn split_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| split_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| split_seed(7, i)).collect();
        assert_eq!(a, b);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), a.len());
        assert_ne!(split_seed(7, 0), split_seed(8, 0));
    }

    #[test]
    fn unseeded_scenarios_get_split_seeds_pinned_ones_keep_theirs() {
        let outcomes = Fleet::new()
            .scenario(spec("auto"))
            .scenario(spec("pinned").seed(99))
            .base_seed(7)
            .run()
            .expect("valid");
        assert_eq!(outcomes[0].seed, split_seed(7, 0));
        assert_eq!(outcomes[1].seed, 99);
    }

    #[test]
    fn panicking_scenario_reported_not_propagated() {
        #[derive(Debug)]
        struct Bomb;
        impl Policy for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
                panic!("boom");
            }
        }
        let err = Fleet::new()
            .scenario(spec("fine"))
            .scenario(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>))
            .run()
            .unwrap_err();
        match err {
            FleetError::ScenarioPanicked { index, message, .. } => {
                assert_eq!(index, 1);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    /// A comparable projection of a sweep's full output.
    fn sweep_digest(outcomes: &[ScenarioOutcome]) -> Vec<(String, u64, String, String)> {
        outcomes
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.seed,
                    o.trace.to_csv(),
                    format!("{:?}", o.summary),
                )
            })
            .collect()
    }

    fn fleet_of(n: usize) -> Fleet {
        (0..n).map(|i| spec(&format!("s{i}"))).collect::<Fleet>()
    }

    #[test]
    fn resume_restores_completed_cells_byte_identically() {
        use crate::store::MemStore;
        let baseline = fleet_of(6).base_seed(11).run().expect("baseline");

        // "Crash" after three cells: run a prefix fleet into the store —
        // split seeds depend only on (base, index), so the prefix's
        // records are exactly what a killed full sweep would have left.
        let mut store = MemStore::new();
        let prefix: Fleet = (0..3).map(|i| spec(&format!("s{i}"))).collect();
        prefix.base_seed(11).resume(&mut store).expect("prefix run");
        assert_eq!(store.len(), 3);

        let (resumed, stats) = fleet_of(6)
            .base_seed(11)
            .threads(2)
            .resume(&mut store)
            .expect("resume");
        assert_eq!(sweep_digest(&resumed), sweep_digest(&baseline));
        assert_eq!((stats.resumed, stats.scenarios, stats.skipped), (3, 3, 0));

        // A second resume restores everything and runs nothing.
        let (again, stats) = fleet_of(6)
            .base_seed(11)
            .resume(&mut store)
            .expect("all restored");
        assert_eq!(sweep_digest(&again), sweep_digest(&baseline));
        assert_eq!((stats.resumed, stats.scenarios), (6, 0));
    }

    #[test]
    fn fresh_store_run_equals_plain_run() {
        use crate::store::MemStore;
        let plain = fleet_of(5).base_seed(3).run().expect("plain");
        let mut store = MemStore::new();
        let (stored, stats) = fleet_of(5)
            .base_seed(3)
            .threads(3)
            .resume(&mut store)
            .expect("stored");
        assert_eq!(sweep_digest(&stored), sweep_digest(&plain));
        assert_eq!((stats.resumed, stats.scenarios), (0, 5));
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn wrong_store_is_a_typed_mismatch_not_a_splice() {
        use crate::store::MemStore;
        let mut store = MemStore::new();
        fleet_of(4)
            .base_seed(1)
            .resume(&mut store)
            .expect("populate");
        // Different base seed → different split seeds → mismatch.
        let err = fleet_of(4)
            .base_seed(2)
            .resume(&mut store)
            .expect_err("seed mismatch");
        assert!(matches!(err, FleetError::StoreMismatch { .. }), "{err}");

        let mut store = MemStore::new();
        fleet_of(4)
            .base_seed(1)
            .resume(&mut store)
            .expect("repopulate");
        // A smaller fleet cannot own cells beyond its length.
        let err = fleet_of(2)
            .base_seed(1)
            .resume(&mut store)
            .expect_err("index out of range");
        match err {
            FleetError::StoreMismatch { index, detail } => {
                assert_eq!(index, 2);
                assert!(detail.contains("2 scenarios"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[derive(Debug)]
    struct Bomb;
    impl Policy for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
            panic!("quarantine me");
        }
    }

    #[test]
    fn quarantine_policy_keeps_survivors_identical() {
        use crate::store::{MemStore, SweepStore};
        // Pin every seed so the bomb-free control fleet sees the same
        // seeds at shifted indices.
        let survivors = |with_bomb: bool| -> Fleet {
            let mut fleet = Fleet::new();
            for i in 0..5 {
                if with_bomb && i == 2 {
                    fleet.push(
                        spec("bomb")
                            .policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>)
                            .seed(1000),
                    );
                }
                fleet.push(spec(&format!("s{i}")).seed(2000 + i));
            }
            fleet
        };
        let control = survivors(false).run().expect("no bomb");
        for threads in [1, 3] {
            let mut store = MemStore::new();
            let (outcomes, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .resume(&mut store)
                .expect("quarantine continues");
            assert_eq!(sweep_digest(&outcomes), sweep_digest(&control));
            assert_eq!(stats.quarantined, 1);
            let q = store.quarantined();
            assert_eq!(q.len(), 1);
            assert_eq!((q[0].index, q[0].seed), (2, 1000));
            assert!(q[0].message.contains("quarantine me"), "{}", q[0].message);

            // Resume skips the quarantined cell by default…
            let (again, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .resume(&mut store)
                .expect("resume skips quarantined");
            assert_eq!(sweep_digest(&again), sweep_digest(&control));
            assert_eq!(
                (
                    stats.resumed,
                    stats.skipped,
                    stats.scenarios,
                    stats.quarantined
                ),
                (5, 1, 0, 0)
            );

            // …and re-runs (and re-quarantines) it when asked to retry.
            let (retried, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .retry_quarantined(true)
                .resume(&mut store)
                .expect("retry re-quarantines");
            assert_eq!(sweep_digest(&retried), sweep_digest(&control));
            assert_eq!((stats.resumed, stats.skipped, stats.quarantined), (5, 0, 1));
        }
    }

    #[test]
    fn failfast_sweep_still_persists_completed_cells() {
        use crate::store::MemStore;
        // Under the default fail-fast policy a panic aborts the sweep,
        // but cells journaled before the failure survive for resume.
        let mut fleet = Fleet::new();
        for i in 0..3 {
            fleet.push(spec(&format!("s{i}")).seed(100 + i));
        }
        fleet.push(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>));
        let mut store = MemStore::new();
        let err = fleet.threads(1).resume(&mut store).expect_err("fail fast");
        assert!(matches!(err, FleetError::ScenarioPanicked { index: 3, .. }));
        assert_eq!(store.len(), 3, "completed prefix is durable");
    }

    #[test]
    fn panicking_scenario_reported_across_worker_threads() {
        #[derive(Debug)]
        struct Bomb;
        impl Policy for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
                panic!("threaded boom");
            }
        }
        let mut fleet = Fleet::new();
        for i in 0..6 {
            fleet.push(spec(&format!("fine{i}")));
        }
        fleet.push(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>));
        let err = fleet.threads(3).run().unwrap_err();
        match err {
            FleetError::ScenarioPanicked { index, message, .. } => {
                assert_eq!(index, 6);
                assert!(message.contains("threaded boom"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
