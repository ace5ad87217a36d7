//! Cluster tier, 16–1024 nodes: Hipster per node behind an O(1)
//! power-of-two-choices balancer, with burst overflow to priced cloud
//! nodes — the beyond-paper experiment the ROADMAP's "millions of
//! users" north star asks for.
//!
//! Every node runs its own engine, policy and split-seeded RNG; the
//! cluster-level MMPP envelope drives bursty offered load; 1/4 of each
//! cluster is an overflow tier admitted past an 85% occupancy
//! watermark at a public-cloud-style price. Per (node count × policy)
//! we report cluster QoS (p95 across nodes vs the 10 ms target),
//! cluster p99, private-tier energy, cloud dollars and spill fraction —
//! Hipster vs the paper's static/heuristic baselines, generalizing the
//! single-machine Table 2 energy/QoS trade-off to fleet scale. The grid
//! itself runs through the work-stealing task scheduler
//! ([`run_tasks`]), whose wall-clock/throughput stats are printed per
//! sweep.

use std::path::Path;
use std::sync::Mutex;

use hipster_core::cluster::{ClusterOutcome, ClusterSpec, DispatchPolicy, OverflowSpec};
use hipster_core::{run_tasks, CellJournal, ClusterSummary};
use hipster_platform::Platform;
use hipster_sim::JsonObj;
use hipster_workloads::{memcached_bursty, MmppLoad};

use crate::runner::Workload;
use crate::runner::{heuristic_mapper, hipster_in, static_all_big, static_all_small, PolicyFn};
use crate::tablefmt::{f, Table};

/// Node counts swept (private + cloud combined).
pub const NODE_COUNTS: [usize; 4] = [16, 64, 256, 1024];

/// Cloud price: a public-cloud vCPU-hour (~$0.12) per request-second of
/// busy capacity.
pub const USD_PER_REQ_S: f64 = 0.12 / 3600.0;

/// Occupancy watermark past which arrivals spill to the cloud tier.
pub const WATERMARK: f64 = 0.85;

/// The per-node policies compared, in presentation order.
fn policies(quick: bool) -> Vec<(&'static str, fn(bool) -> PolicyFn)> {
    let _ = quick;
    vec![
        ("HipsterIn", |q| {
            hipster_in(
                Workload::Memcached.tuned_zones(),
                if q { 2 } else { 4 },
                0.05,
            )
        }),
        ("Heuristic", |_| {
            heuristic_mapper(Workload::Memcached.tuned_zones())
        }),
        ("Static-Big", |_| static_all_big()),
        ("Static-Small", |_| static_all_small()),
    ]
}

/// Declares one cluster run: `nodes` total (3/4 private, 1/4 cloud,
/// minimum one cloud node), bursty MMPP load, power-of-two dispatch.
pub fn cluster_spec(
    name: impl Into<String>,
    nodes: usize,
    policy: PolicyFn,
    intervals: usize,
    seed: u64,
) -> ClusterSpec {
    let interval_s = 0.05;
    let cloud = (nodes / 4).max(1);
    let private = nodes - cloud;
    ClusterSpec::new(name, Platform::juno_r1())
        .workload_with(|| Box::new(memcached_bursty()))
        .load(MmppLoad::new(
            0.55,
            10.0 * interval_s,
            intervals as f64 * interval_s,
            17,
        ))
        .policy(policy)
        .dispatch(DispatchPolicy::PowerOfTwo)
        .private_nodes(private)
        .cloud_nodes(cloud)
        .overflow(OverflowSpec::new(WATERMARK, USD_PER_REQ_S))
        .intervals(intervals)
        .interval_s(interval_s)
        .seed(seed)
}

/// One sweep cell as it lands in the [`CellJournal`] and the digests
/// file: the cluster summary plus the decision digest the determinism
/// tests compare.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Condensed run results (drives the printed table).
    pub summary: ClusterSummary,
    /// FNV digest over every per-quantum dispatch decision.
    pub decision_digest: u64,
    /// Decisions folded into the digest.
    pub decisions: u64,
}

impl SweepCell {
    pub(crate) fn of(out: &ClusterOutcome) -> SweepCell {
        SweepCell {
            summary: out.summary.clone(),
            decision_digest: out.decision_digest,
            decisions: out.decisions,
        }
    }

    /// The journal payload: the summary's exact flat JSON plus the
    /// digest counters as decimal strings.
    pub fn to_json_obj(&self) -> JsonObj {
        self.summary
            .to_json_obj()
            .u64("decision_digest", self.decision_digest)
            .u64("decisions", self.decisions)
    }

    /// Rebuilds a cell journaled with [`to_json_obj`](Self::to_json_obj);
    /// `None` on foreign or truncated payloads.
    pub fn from_json_obj(obj: &JsonObj) -> Option<SweepCell> {
        Some(SweepCell {
            summary: ClusterSummary::from_json_obj(obj)?,
            decision_digest: obj.get_u64("decision_digest")?,
            decisions: obj.get_u64("decisions")?,
        })
    }
}

/// Opens (or starts) the sweep's cell journal under `dir`.
pub(crate) fn open_journal(dir: &Path, file: &str, resume: bool) -> Mutex<CellJournal> {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create store dir {}: {e}", dir.display()));
    let path = dir.join(file);
    let journal = if resume {
        CellJournal::open(&path)
    } else {
        CellJournal::create(&path)
    };
    Mutex::new(journal.unwrap_or_else(|e| panic!("open cell journal: {e}")))
}

/// Looks up a previously journaled cell (resume mode only).
pub(crate) fn restore(
    journal: Option<&Mutex<CellJournal>>,
    resume: bool,
    name: &str,
) -> Option<SweepCell> {
    if !resume {
        return None;
    }
    let journal = journal?.lock().expect("journal lock");
    journal.get(name).and_then(SweepCell::from_json_obj)
}

/// Journals a finished cell (no-op without a store).
pub(crate) fn journal_cell(journal: Option<&Mutex<CellJournal>>, name: &str, cell: &SweepCell) {
    if let Some(journal) = journal {
        journal
            .lock()
            .expect("journal lock")
            .put(name, cell.to_json_obj())
            .unwrap_or_else(|e| panic!("journal cell {name}: {e}"));
    }
}

/// Writes the deterministic digest manifest the CI kill-and-resume step
/// diffs: one `name digest decisions` row per cell, declaration order.
fn write_digests(dir: &Path, file: &str, rows: &[(String, SweepCell)]) {
    let mut out = String::new();
    for (name, cell) in rows {
        out.push_str(&format!(
            "{name} {:016x} {}\n",
            cell.decision_digest, cell.decisions
        ));
    }
    let path = dir.join(file);
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  [store] wrote {}", path.display());
}

/// Runs the sweep and prints the comparison tables.
///
/// With `store_dir` set, every finished cell is journaled (fsync'd) the
/// moment it completes; with `resume` as well, cells already in the
/// journal are restored instead of re-run — summaries and digests come
/// back exactly as recorded, so `cluster_digests.txt` is byte-identical
/// to an uninterrupted run no matter where a previous attempt died.
pub fn run(quick: bool, store_dir: Option<&Path>, resume: bool) {
    println!("== Cluster: 16-1024 nodes, two-tier overflow, Hipster vs baselines ==\n");
    let intervals = if quick { 4 } else { 10 };
    println!(
        "{} intervals x 50 ms per cluster; load: MMPP envelope around 55% of \
         private capacity; dispatch: power-of-two-choices; overflow: \
         watermark {WATERMARK}, ${USD_PER_REQ_S:.2e}/req-s\n",
        intervals
    );

    let journal = store_dir.map(|dir| open_journal(dir, "cluster_cells.jsonl", resume));
    let journal = journal.as_ref();

    let mut table = Table::new(vec![
        "nodes", "policy", "QoS %", "p99 ms", "energy J", "W/node", "cloud $", "spill %",
    ]);
    let mut digest_rows: Vec<(String, SweepCell)> = Vec::new();
    for &nodes in &NODE_COUNTS {
        // Declaration order is fixed; resume restores journaled cells and
        // only the remainder go through the work-stealing scheduler.
        let mut rows: Vec<(String, Option<SweepCell>)> = Vec::new();
        let mut pending: Vec<(String, PolicyFn, u64)> = Vec::new();
        for (i, (label, make)) in policies(quick).into_iter().enumerate() {
            let name = format!("cluster/n{nodes}/{label}");
            match restore(journal, resume, &name) {
                Some(cell) => rows.push((name, Some(cell))),
                None => {
                    pending.push((name.clone(), make(quick), 90 + i as u64));
                    rows.push((name, None));
                }
            }
        }
        let restored_count = rows.iter().filter(|(_, c)| c.is_some()).count();
        let mut stats = None;
        let mut executed = Vec::new();
        if !pending.is_empty() {
            let tasks: Vec<(String, _)> = pending
                .into_iter()
                .map(|(name, policy, seed)| {
                    (name.clone(), move || {
                        let out = cluster_spec(name, nodes, policy, intervals, seed)
                            .build()
                            .expect("valid cluster spec")
                            .run();
                        let cell = SweepCell::of(&out);
                        journal_cell(journal, &out.name, &cell);
                        cell
                    })
                })
                .collect();
            let (cells, s) = run_tasks(tasks, 0).expect("cluster sweep");
            executed = cells;
            stats = Some(s);
        }
        let mut fresh = executed.into_iter();
        let sim_s = intervals as f64 * 0.05;
        for (name, restored) in rows {
            let cell =
                restored.unwrap_or_else(|| fresh.next().expect("one executed cell per pending"));
            let s = &cell.summary;
            let label = s.name.rsplit('/').next().unwrap_or(&s.name);
            let watts_per_node = s.total_energy_j / sim_s / (nodes - (nodes / 4).max(1)) as f64;
            table.row(vec![
                nodes.to_string(),
                label.to_string(),
                f(s.qos_guarantee_pct, 1),
                f(s.mean_p99_s * 1e3, 2),
                f(s.total_energy_j, 1),
                f(watts_per_node, 2),
                format!("{:.4}", s.total_cloud_usd),
                f(s.spill_frac * 100.0, 1),
            ]);
            digest_rows.push((name, cell));
        }
        match stats {
            Some(stats) => {
                let note = if restored_count > 0 {
                    format!(", {restored_count} restored from store")
                } else {
                    String::new()
                };
                println!(
                    "   [n={nodes}] sweep: {} clusters in {:.2}s ({:.2} scenarios/s, \
                     {} workers, idle tail {:.1}%{note})",
                    stats.scenarios,
                    stats.wall_s,
                    stats.scenarios_per_sec(),
                    stats.workers,
                    stats.idle_tail_frac() * 100.0,
                );
            }
            None => {
                println!("   [n={nodes}] sweep: all {restored_count} cells restored from store")
            }
        }
    }
    println!();
    table.print();

    println!(
        "\nReading: per-node watts for Static-Big sit near the paper's Table 2 \
         big-cluster characterization; Hipster trades some of that power for \
         QoS-aware small-core intervals, and the overflow tier converts bursts \
         the private tier cannot absorb into dollars instead of violations. \
         Dispatch cost is O(1) in node count (see the cluster rows of BENCH.jsonl)."
    );

    if let Some(dir) = store_dir {
        write_digests(dir, "cluster_digests.txt", &digest_rows);
    }
}

/// The determinism hook the cluster tests use: one small fig2-shaped
/// sweep (node counts × policies), reduced to
/// `(name, decision digest, decisions, Debug-rendered summary)` rows —
/// everything an execution strategy could perturb, in byte-comparable
/// form.
pub fn sweep_digests(threads: usize) -> Vec<(String, u64, u64, String)> {
    let tasks: Vec<(String, _)> = [4usize, 8]
        .into_iter()
        .flat_map(|nodes| {
            policies(true)
                .into_iter()
                .enumerate()
                .map(move |(i, (label, make))| {
                    let name = format!("digest/n{nodes}/{label}");
                    let policy = make(true);
                    (name.clone(), move || {
                        let out: ClusterOutcome = cluster_spec(name, nodes, policy, 3, i as u64)
                            .build()
                            .expect("valid cluster spec")
                            .run();
                        let summary = format!("{:?}", out.summary);
                        (out.name, out.decision_digest, out.decisions, summary)
                    })
                })
        })
        .collect();
    run_tasks(tasks, threads).expect("digest sweep").0
}
