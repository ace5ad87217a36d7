//! Reference control-plane implementations, kept for differential
//! testing and benchmarking.
//!
//! * [`ReferenceQTable`] — the pre-PR4 hash-map-backed lookup table that
//!   [`QTable`](crate::QTable) replaced with a dense
//!   `(bucket, action_index)` array, frozen verbatim. A differential
//!   property test pins the two to identical
//!   `get`/`update`/`max_over`/`best_action` behaviour (tie-breaks and
//!   unexplored-state defaults included), and `repro bench` measures
//!   both on the same operation stream.
//! * [`run_static_chunked`] — a **static-partition baseline** scheduler:
//!   scenarios are split into contiguous per-worker chunks up front, so
//!   a slow shard leaves the other workers idle — the straggler tail
//!   dynamic work distribution (the shared-queue scheduler the
//!   [`Fleet`] has always used, now an atomic cursor) avoids. It is the
//!   yardstick the `fleet` cells of `repro bench` measure scheduling
//!   quality against, and the determinism regression test asserts both
//!   schedulers produce byte-identical outcomes.
//!
//! Nothing here is reachable from the hot path; the module exists so the
//! fast implementations are falsifiable against a fixed reference.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::fleet::{run_caught, Fleet, FleetError, FleetStats};
use crate::fxhash::FxHashMap;
use crate::scenario::ScenarioOutcome;

use hipster_platform::CoreConfig;

/// The pre-PR4 lookup table: a hash map keyed on `(load bucket,
/// configuration)`, hashed on every access. Semantically identical to
/// [`QTable`](crate::QTable); kept verbatim as the differential oracle.
#[derive(Debug, Clone, Default)]
pub struct ReferenceQTable {
    table: FxHashMap<(u32, CoreConfig), f64>,
}

impl ReferenceQTable {
    /// Creates an empty table (all entries 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of explored (written) entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has never been written.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Reads `R(w, c)`; unexplored entries are 0.
    pub fn get(&self, w: u32, c: &CoreConfig) -> f64 {
        self.table.get(&(w, *c)).copied().unwrap_or(0.0)
    }

    /// The highest `R(w, d)` over an action set (0 if none explored).
    pub fn max_over(&self, w: u32, actions: &[CoreConfig]) -> f64 {
        actions
            .iter()
            .map(|c| self.get(w, c))
            .fold(0.0_f64, f64::max)
    }

    /// The action with the highest `R(w, d)`; ties break toward the
    /// earliest action in `actions`. `None` when `actions` is empty.
    pub fn best_action(&self, w: u32, actions: &[CoreConfig]) -> Option<CoreConfig> {
        let mut best: Option<(CoreConfig, f64)> = None;
        for c in actions {
            let v = self.get(w, c);
            match best {
                None => best = Some((*c, v)),
                Some((_, bv)) if v > bv => best = Some((*c, v)),
                _ => {}
            }
        }
        best.map(|(c, _)| c)
    }

    /// The Q-learning update of Algorithm 1 line 16.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` and `gamma` lie in `[0, 1]`.
    pub fn update(
        &mut self,
        w: u32,
        c: CoreConfig,
        reward: f64,
        next_w: u32,
        actions: &[CoreConfig],
        alpha: f64,
        gamma: f64,
    ) {
        assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} not in [0,1]");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} not in [0,1]");
        let future = self.max_over(next_w, actions);
        let entry = self.table.entry((w, c)).or_insert(0.0);
        *entry += alpha * (reward + gamma * future - *entry);
    }

    /// Whether state `w` has at least one strictly positive entry.
    pub fn has_positive_entry(&self, w: u32, actions: &[CoreConfig]) -> bool {
        actions.iter().any(|c| self.get(w, c) > 0.0)
    }

    /// Serializes as tab-separated text, sorted for stable output (the
    /// same wire format as [`QTable::to_tsv`](crate::QTable::to_tsv)).
    pub fn to_tsv(&self) -> String {
        let mut rows: Vec<(u32, CoreConfig, f64)> =
            self.table.iter().map(|(&(w, c), &v)| (w, c, v)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        for (w, c, v) in rows {
            out.push_str(&format!("{w}\t{c}\t{v:.17e}\n"));
        }
        out
    }
}

/// Executes a fleet with a **static chunking** schedule: scenario `i` is
/// assigned up front to worker `i / ceil(n / workers)`, and each worker
/// runs its contiguous chunk serially. Validation, split seeds, panic
/// capture, fail-fast and declaration-order results all match
/// [`Fleet::run`]; only the schedule differs, which is exactly what the
/// `fleet` cells of `repro bench` measure.
///
/// # Errors
///
/// As [`Fleet::run`]: an empty or invalid fleet refuses to run; the
/// first (lowest-index) panicking scenario is reported.
pub fn run_static_chunked(fleet: Fleet) -> Result<(Vec<ScenarioOutcome>, FleetStats), FleetError> {
    let (specs, workers) = fleet.prepare()?;
    let n = specs.len();
    let chunk_len = n.div_ceil(workers);

    type Slot = Option<Result<ScenarioOutcome, String>>;
    let results: Vec<Mutex<Slot>> = (0..n).map(|_| Mutex::new(None)).collect();
    let names: Vec<String> = specs.iter().map(|s| s.name().to_owned()).collect();
    let failed = AtomicBool::new(false);
    let busy = Mutex::new(vec![0.0f64; workers]);
    let finishes = Mutex::new(vec![0.0f64; workers]);

    // Partition into contiguous chunks; each worker owns one.
    let mut chunks: Vec<Vec<(usize, crate::scenario::ScenarioSpec)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (index, spec) in specs.into_iter().enumerate() {
        chunks[index / chunk_len].push((index, spec));
    }

    let run_started = Instant::now();
    std::thread::scope(|scope| {
        let results = &results;
        let failed = &failed;
        let busy = &busy;
        let finishes = &finishes;
        for (worker, chunk) in chunks.into_iter().enumerate() {
            scope.spawn(move || {
                let mut my_busy = 0.0f64;
                for (index, spec) in chunk {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let started = Instant::now();
                    let outcome = run_caught(spec);
                    my_busy += started.elapsed().as_secs_f64();
                    if outcome.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *results[index].lock().expect("slot poisoned") = Some(outcome);
                }
                busy.lock().expect("busy slots poisoned")[worker] = my_busy;
                finishes.lock().expect("finish slots poisoned")[worker] =
                    run_started.elapsed().as_secs_f64();
            });
        }
    });

    // Report the first (lowest-index) failure; later slots may be empty
    // because workers stopped early once a failure was flagged.
    let slots: Vec<Slot> = results
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned"))
        .collect();
    for (index, slot) in slots.iter().enumerate() {
        if let Some(Err(message)) = slot {
            return Err(FleetError::ScenarioPanicked {
                index,
                name: names[index].clone(),
                message: message.clone(),
            });
        }
    }
    let mut outcomes = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("no failure was flagged, so every slot ran") {
            Ok(outcome) => outcomes.push(outcome),
            Err(_) => unreachable!("failures returned above"),
        }
    }
    let stats = FleetStats {
        workers,
        scenarios: n,
        resumed: 0,
        skipped: 0,
        quarantined: 0,
        wall_s: run_started.elapsed().as_secs_f64(),
        worker_busy_s: busy.into_inner().expect("busy slots poisoned"),
        worker_finish_s: finishes.into_inner().expect("finish slots poisoned"),
    };
    Ok((outcomes, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use crate::scenario::ScenarioSpec;
    use hipster_platform::{CoreKind, Frequency, Platform};
    use hipster_sim::{Demand, LcModel, LoadPattern, QosTarget, SimRng};

    fn cfg(n_big: usize, n_small: usize) -> CoreConfig {
        CoreConfig::new(
            n_big,
            n_small,
            Frequency::from_mhz(1150),
            Frequency::from_mhz(650),
        )
    }

    #[test]
    fn reference_table_semantics_frozen() {
        let mut t = ReferenceQTable::new();
        let actions = [cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        assert!(t.is_empty());
        assert_eq!(t.get(3, &cfg(1, 0)), 0.0);
        assert_eq!(t.best_action(0, &actions), Some(cfg(0, 1)));
        t.update(0, cfg(1, 0), 10.0, 1, &actions, 0.5, 0.0);
        assert_eq!(t.get(0, &cfg(1, 0)), 5.0);
        assert_eq!(t.best_action(0, &actions), Some(cfg(1, 0)));
        assert!(t.has_positive_entry(0, &actions));
        assert_eq!(t.len(), 1);
        assert_eq!(t.best_action(0, &[]), None);
    }

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

    fn spec(name: &str, intervals: usize) -> ScenarioSpec {
        ScenarioSpec::new(name, Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half)
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(intervals)
    }

    fn build_fleet() -> Fleet {
        (0..7).map(|i| spec(&format!("s{i}"), 2 + i % 3)).collect()
    }

    #[test]
    fn static_chunking_matches_work_stealing() {
        let (chunked, stats) =
            run_static_chunked(build_fleet().threads(3).base_seed(5)).expect("valid");
        let stealing = build_fleet().threads(3).base_seed(5).run().expect("valid");
        assert_eq!(stats.workers, 3);
        assert_eq!(chunked.len(), stealing.len());
        for (a, b) in chunked.iter().zip(stealing.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        }
    }

    #[test]
    fn static_chunking_propagates_failures() {
        let fleet = Fleet::new()
            .scenario(spec("ok", 2))
            .scenario(spec("broken", 0));
        match run_static_chunked(fleet) {
            Err(FleetError::InvalidScenario { index, .. }) => assert_eq!(index, 1),
            other => panic!("wrong result: {other:?}"),
        }
    }
}
