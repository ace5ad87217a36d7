//! `cluster-zonewave`: the wave ablation of `repro faults`.
//!
//! Cells declared by the repro's own `zonewave_cluster_spec` — 16 nodes,
//! 80 intervals, Static-Big on every node as the repro runs it — for
//! both mitigation arms and for seeds derived from the benchmark seed.
//! The cells run on the work-stealing `run_tasks` scheduler; each cell
//! is built, then driven by `ClusterSim::step`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hipster_bench::experiments::faults::{zonewave_cluster_spec, FAULT_CLUSTER_NODES};
use hipster_bench::runner::static_all_big;
use hipster_core::{run_tasks, split_seed, ClusterInterval, ClusterOutcome, ClusterSummary};

use crate::layers::LayerAcc;
use crate::probe::{now_ns, secs, timed, SharedLog};
use crate::{cluster_digest, Measured};

/// Cluster intervals per cell, as `repro faults` (full mode).
pub const INTERVALS: usize = 80;
/// Mitigation on/off cell pairs per repetition, per second of
/// `--seconds`.
pub const PAIRS_PER_SECOND: u64 = 2;

/// The seed `repro faults` runs its wave cells at.
pub const REPRO_SEED: u64 = 412;
/// `repro faults`' wave rows at seed 412, as it prints and records them:
/// (mitigation, QoS %, mean p99 ms to 3 decimals, hedged requests, spill
/// fraction to 4 decimals).
const REPRO_WAVE: [(bool, f64, &str, u64, &str); 2] = [
    (true, 86.25, "4.646", 20897, "0.1683"),
    (false, 65.0, "13.703", 0, "0.1601"),
];

/// One cell's result, computed on a worker.
struct CellOut {
    build_s: f64,
    wall_s: f64,
    step_ms: Vec<f64>,
    completions: u64,
    digest: u64,
    summary: ClusterSummary,
    acc: LayerAcc,
}

/// The repro's cell name for the first pair; later pairs are suffixed
/// with their index.
fn cell_name(pair: u64, mitigation: bool) -> String {
    let tag = if mitigation { "on" } else { "off" };
    if pair == 0 {
        format!("faults/wave/memcached-zonewave/{tag}")
    } else {
        format!("faults/wave/memcached-zonewave/{tag}#{pair}")
    }
}

/// Pair 0 runs at the benchmark seed itself (412 reproduces the repro's
/// wave rows); later pairs at split seeds.
fn cell_seed(seed: u64, pair: u64) -> u64 {
    if pair == 0 {
        seed
    } else {
        split_seed(seed, pair)
    }
}

fn run_cell(name: String, seed: u64, mitigation: bool, traced: bool) -> Result<CellOut, String> {
    let log = SharedLog::default();
    let policy = if traced {
        timed(static_all_big(), log.clone())
    } else {
        static_all_big()
    };
    let start = now_ns();
    let mut sim = zonewave_cluster_spec(
        name,
        FAULT_CLUSTER_NODES,
        policy,
        INTERVALS,
        seed,
        mitigation,
    )
    .build()
    .map_err(|e| e.to_string())?;
    let built = now_ns();
    let mut bounds: Vec<(u64, u64)> = Vec::with_capacity(INTERVALS);
    let mut intervals: Vec<ClusterInterval> = Vec::with_capacity(INTERVALS);
    for _ in 0..INTERVALS {
        let enter = now_ns();
        let interval = sim.step();
        bounds.push((enter, now_ns()));
        intervals.push(interval);
    }
    let outcome: ClusterOutcome = sim.run();
    let end = now_ns();
    let mut acc = LayerAcc::default();
    if traced {
        let decides = log.take().decides;
        if decides.len() != INTERVALS * FAULT_CLUSTER_NODES {
            return Err("probes saw a decide count other than one per node per step".into());
        }
        for ((&(enter, exit), iv), per_node) in bounds
            .iter()
            .zip(&intervals)
            .zip(decides.chunks(FAULT_CLUSTER_NODES))
        {
            acc.cluster_step(enter, exit, per_node, iv);
        }
    }
    Ok(CellOut {
        build_s: secs(start, built),
        wall_s: secs(start, end),
        step_ms: bounds.iter().map(|&(s, e)| secs(s, e) * 1e3).collect(),
        completions: intervals.iter().map(|iv| iv.completions as u64).sum(),
        digest: cluster_digest(&outcome),
        summary: outcome.summary,
        acc,
    })
}

fn guarded(name: String, seed: u64, mitigation: bool, traced: bool) -> Result<CellOut, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_cell(name, seed, mitigation, traced)
    }))
    .unwrap_or_else(|_| Err("cell panicked".into()))
}

/// Repetitions of the timed phase; each runs the same cells.
pub const REPS: usize = 3;

/// Runs the workload once: [`REPS`] repetitions of `pairs` mitigation
/// on/off cell pairs. Every repetition must reproduce the first one's
/// digest exactly.
pub fn run(seed: u64, pairs: u64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let mut first: Vec<(u64, ClusterSummary)> = Vec::new();
    let mut cell_s = Vec::new();
    let mut fleets = Vec::new();
    for rep in 0..REPS {
        let tasks: Vec<(String, _)> = (0..pairs)
            .flat_map(|pair| [true, false].map(|mitigation| (pair, mitigation)))
            .map(|(pair, mitigation)| {
                let name = cell_name(pair, mitigation);
                let seed = cell_seed(seed, pair);
                (name.clone(), move || {
                    guarded(name, seed, mitigation, traced)
                })
            })
            .collect();
        m.attempted += 2 * pairs;
        let start = now_ns();
        let ran = run_tasks(tasks, 0);
        let phase_s = secs(start, now_ns());
        m.phase_s.push(phase_s);
        let (cells, fleet) = match ran {
            Ok(r) => r,
            Err(e) => {
                m.check_ops(&format!("cells ran ({e})"), false, 2 * pairs);
                return m;
            }
        };
        m.workers = fleet.workers;
        let mut digest = crate::FNV_BASIS;
        let mut build_s = 0.0;
        for (i, cell) in cells.into_iter().enumerate() {
            match cell {
                Ok(c) => {
                    build_s += c.build_s;
                    cell_s.push(c.wall_s);
                    m.step_ms.extend(&c.step_ms);
                    m.completions += c.completions;
                    digest = crate::fnv(digest, &c.digest.to_le_bytes());
                    if rep == 0 && i < 2 {
                        first.push((c.digest, c.summary.clone()));
                    }
                    m.layers.merge(c.acc);
                }
                Err(e) => m.check(&format!("cell ran ({e})"), false),
            }
        }
        m.setup_s.push(build_s);
        if rep == 0 {
            m.digest = digest;
        } else if digest != m.digest {
            m.check(&format!("repetition {rep} reproduces the first"), false);
        }
        fleets.push(fleet);
    }

    // Output checks: the first cell re-run serially must reproduce the
    // work-stealing result exactly, and at the repro's seed the first
    // pair must reproduce the rows `repro faults` prints.
    if let Some((digest, summary)) = first.first() {
        m.attempted += 1;
        let again = guarded(cell_name(0, true), cell_seed(seed, 0), true, false);
        let same = matches!(&again, Ok(c) if c.digest == *digest && c.summary == *summary);
        m.check("serial re-run of the first cell reproduces it", same);
    }
    for (digest, s) in &first {
        m.report.push(format!(
            "cell {}: digest {digest:016x}; QoS {}%, mean p99 {:.3} ms, hedged {}, deferred {}, shed {} intervals, deadline miss {:?}%, spill {:.4} (not gated)",
            s.name,
            s.qos_guarantee_pct,
            s.mean_p99_s * 1e3,
            s.hedged_requests,
            s.deferred_quanta,
            s.shed_intervals,
            s.deadline_miss_pct,
            s.spill_frac
        ));
    }
    if seed == REPRO_SEED {
        let matches = first.len() == 2
            && first.iter().zip(REPRO_WAVE).all(|((_, s), row)| {
                let (_, qos, p99_ms, hedged, spill) = row;
                s.qos_guarantee_pct == qos
                    && format!("{:.3}", s.mean_p99_s * 1e3) == p99_ms
                    && s.hedged_requests == hedged
                    && format!("{:.4}", s.spill_frac) == spill
            });
        m.check(
            "first pair equals repro faults' wave rows at seed 412",
            matches,
        );
    }

    if traced {
        m.layers.fleet(&fleets, &cell_s, &cell_s);
    }
    m
}
