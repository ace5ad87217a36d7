//! Durable, resumable sweeps: the [`SweepStore`] abstraction.
//!
//! A [`Fleet`](crate::Fleet) at 10⁵–10⁶ cells is cheap to *run* but, until
//! this module, was an all-or-nothing in-memory job: a crash or preemption
//! at the last cell lost everything. A `SweepStore` makes the sweep
//! journal-backed — every finished scenario is recorded as it completes
//! under work-stealing, and [`Fleet::resume`](crate::Fleet::resume) skips
//! recorded cells and re-runs only the remainder. Because fleet seeds are
//! split per declaration index ([`split_seed`](crate::split_seed)),
//! per-scenario determinism is order-independent and the merged output is
//! **byte-identical** to an uninterrupted run.
//!
//! Two backends ship (the trait follows the backend-agnostic store pattern
//! of lib-task-store; no external dependencies):
//!
//! * [`MemStore`] — in-process, for tests and warm restarts within one
//!   process.
//! * [`FileStore`] — one append-only JSON-lines journal in a directory,
//!   written with the [`hipster_sim::JsonObj`] codec and fsync'd once
//!   per cell; tolerates torn writes by discarding a truncated tail on
//!   open (those cells simply re-run).
//!
//! Scenario *panics* are captured the same way: under
//! [`PanicPolicy::Quarantine`](crate::PanicPolicy) a panicking cell
//! becomes a durable [`QuarantineRecord`] (index, seed, panic message)
//! instead of poisoning the sweep.

mod filestore;

pub use filestore::{CellJournal, FileStore};

use std::collections::BTreeMap;
use std::path::PathBuf;

use hipster_sim::{IntervalStats, QosTarget, Trace};

use crate::metrics::PolicySummary;
use crate::scenario::ScenarioOutcome;

/// Why a store operation failed. Torn journal tails are *not* errors —
/// recovery discards them silently — so this surfaces only real I/O
/// failures and unrecoverable structural corruption.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing (`"append journal"`, …).
        context: String,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// The journal is structurally unusable beyond torn-tail recovery.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "store i/o ({context}): {source}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "store corrupt ({}): {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
        }
    }
}

/// One completed sweep cell, as the journal stores it: identity fields
/// plus the full per-interval trace. The Table 3-style summary is *not*
/// stored — [`PolicySummary::from_trace`] is deterministic, so
/// [`SweepRecord::into_outcome`] recomputes it exactly (only
/// `deadline_miss_pct`, which needs the scenario's deadline declaration,
/// rides along).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Declaration index of the cell within its fleet.
    pub index: u64,
    /// Scenario name.
    pub name: String,
    /// Policy name (as reported by the run).
    pub policy: String,
    /// Latency-critical workload name.
    pub workload: String,
    /// The exact seed the run used (pinned or fleet-split).
    pub seed: u64,
    /// The workload's QoS target.
    pub qos: QosTarget,
    /// Deadline miss percentage, if the scenario declared a batch
    /// deadline (the one summary field not derivable from the trace).
    pub deadline_miss_pct: Option<f64>,
    /// Every monitoring interval of the run.
    pub intervals: Vec<IntervalStats>,
}

impl SweepRecord {
    /// Captures a finished scenario as a journal record.
    pub fn from_outcome(index: u64, outcome: &ScenarioOutcome) -> Self {
        SweepRecord {
            index,
            name: outcome.name.clone(),
            policy: outcome.policy.clone(),
            workload: outcome.workload.clone(),
            seed: outcome.seed,
            qos: outcome.qos,
            deadline_miss_pct: outcome.summary.deadline_miss_pct,
            intervals: outcome.trace.intervals().to_vec(),
        }
    }

    /// Rebuilds the full [`ScenarioOutcome`], recomputing the summary
    /// from the stored trace. Byte-identical to the original outcome:
    /// the trace round-trips exactly through the journal and the summary
    /// is a pure function of (policy, trace, qos).
    pub fn into_outcome(self) -> ScenarioOutcome {
        let trace: Trace = self.intervals.into_iter().collect();
        let mut summary = PolicySummary::from_trace(self.policy.clone(), &trace, self.qos);
        summary.deadline_miss_pct = self.deadline_miss_pct;
        ScenarioOutcome {
            name: self.name,
            policy: self.policy,
            workload: self.workload,
            seed: self.seed,
            qos: self.qos,
            trace,
            summary,
        }
    }
}

/// A scenario that panicked under
/// [`PanicPolicy::Quarantine`](crate::PanicPolicy): enough identity to
/// reproduce (`index`, `seed`) plus the captured panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Declaration index of the cell within its fleet.
    pub index: u64,
    /// Scenario name.
    pub name: String,
    /// The seed the panicking run used.
    pub seed: u64,
    /// The captured panic payload (or a placeholder for non-string
    /// payloads).
    pub message: String,
}

/// A durability backend for [`Fleet`](crate::Fleet) sweeps.
///
/// The contract [`Fleet::resume`](crate::Fleet::resume) relies on:
/// completed cells listed by [`completed_indices`](Self::completed_indices)
/// must be retrievable via [`fetch`](Self::fetch) — repeatedly, since one
/// store can serve many resumes — with the *exact* trace the original run
/// produced, and [`record`](Self::record) must make a cell durable before
/// it returns (a crash immediately after must not lose it).
/// Implementations need not survive `record` errors: the fleet aborts the
/// sweep on the first store failure.
pub trait SweepStore: Send {
    /// Indices of every durably completed cell, ascending.
    fn completed_indices(&self) -> Vec<u64>;

    /// Every quarantined (panicked) cell on record. A cell that later
    /// completed (e.g. a retried quarantine) is *not* reported here.
    fn quarantined(&self) -> Vec<QuarantineRecord>;

    /// The record for `index`, if completed. Non-destructive: the cell
    /// stays on record, so the same store resumes any number of sweeps.
    fn fetch(&self, index: u64) -> Option<SweepRecord>;

    /// Durably records one completed cell.
    fn record(&mut self, record: &SweepRecord) -> Result<(), StoreError>;

    /// Durably records one quarantined (panicked) cell.
    fn record_quarantine(&mut self, q: &QuarantineRecord) -> Result<(), StoreError>;
}

/// An in-memory [`SweepStore`]: no durability across processes, but the
/// same resume semantics — useful for tests and for retry loops within
/// one process.
#[derive(Debug, Default)]
pub struct MemStore {
    records: BTreeMap<u64, SweepRecord>,
    quarantine: BTreeMap<u64, QuarantineRecord>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of completed cells on record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.quarantine.is_empty()
    }
}

impl SweepStore for MemStore {
    fn completed_indices(&self) -> Vec<u64> {
        self.records.keys().copied().collect()
    }

    fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantine
            .values()
            .filter(|q| !self.records.contains_key(&q.index))
            .cloned()
            .collect()
    }

    fn fetch(&self, index: u64) -> Option<SweepRecord> {
        self.records.get(&index).cloned()
    }

    fn record(&mut self, record: &SweepRecord) -> Result<(), StoreError> {
        self.records.insert(record.index, record.clone());
        Ok(())
    }

    fn record_quarantine(&mut self, q: &QuarantineRecord) -> Result<(), StoreError> {
        self.quarantine.insert(q.index, q.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use hipster_platform::Platform;
    use hipster_sim::{Demand, LcModel, LoadPattern, SimRng};

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
        fn service_speed(
            &self,
            kind: hipster_platform::CoreKind,
            _f: hipster_platform::Frequency,
        ) -> f64 {
            match kind {
                hipster_platform::CoreKind::Big => 1000.0,
                hipster_platform::CoreKind::Small => 400.0,
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

    fn outcome(seed: u64) -> ScenarioOutcome {
        crate::ScenarioSpec::new("cell", Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half)
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(6)
            .seed(seed)
            .run()
            .expect("valid scenario")
    }

    #[test]
    fn record_round_trips_outcome_exactly() {
        let original = outcome(7);
        let rec = SweepRecord::from_outcome(3, &original);
        let back = rec.into_outcome();
        assert_eq!(back.name, original.name);
        assert_eq!(back.seed, original.seed);
        assert_eq!(back.trace.to_csv(), original.trace.to_csv());
        assert_eq!(
            format!("{:?}", back.summary),
            format!("{:?}", original.summary)
        );
    }

    #[test]
    fn memstore_resume_contract() {
        let mut store = MemStore::new();
        assert!(store.is_empty());
        let rec = SweepRecord::from_outcome(2, &outcome(9));
        store.record(&rec).unwrap();
        store
            .record_quarantine(&QuarantineRecord {
                index: 5,
                name: "bomb".into(),
                seed: 11,
                message: "boom".into(),
            })
            .unwrap();
        assert_eq!(store.completed_indices(), vec![2]);
        assert_eq!(store.quarantined().len(), 1);
        assert_eq!(store.len(), 1);
        let got = store.fetch(2).expect("present");
        assert_eq!(got, rec);
        assert_eq!(store.fetch(2), Some(rec), "fetch is non-destructive");
        assert!(store.fetch(3).is_none());
    }

    #[test]
    fn completed_cell_shadows_stale_quarantine() {
        // A cell quarantined in one run and completed in a retry is
        // reported as completed only.
        let mut store = MemStore::new();
        store
            .record_quarantine(&QuarantineRecord {
                index: 1,
                name: "cell".into(),
                seed: 9,
                message: "boom".into(),
            })
            .unwrap();
        store
            .record(&SweepRecord::from_outcome(1, &outcome(9)))
            .unwrap();
        assert_eq!(store.completed_indices(), vec![1]);
        assert!(store.quarantined().is_empty());
    }

    #[test]
    fn store_error_display_and_source() {
        let io = StoreError::Io {
            context: "append journal".into(),
            source: std::io::Error::new(std::io::ErrorKind::Other, "disk gone"),
        };
        assert!(io.to_string().contains("append journal"));
        assert!(std::error::Error::source(&io).is_some());
        let corrupt = StoreError::Corrupt {
            path: PathBuf::from("/tmp/j.jsonl"),
            detail: "duplicate cell".into(),
        };
        assert!(corrupt.to_string().contains("duplicate cell"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
