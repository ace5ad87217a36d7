//! `cluster-bursty`: the largest cell of `repro cluster`.
//!
//! 1024 nodes (768 private, 256 cloud) declared by the repro's own
//! `cluster_spec`: power-of-two dispatch, MMPP-bursty Memcached,
//! watermark overflow and HipsterIn on every node, stepped on one thread
//! through `ClusterSim::step`. No faults, hedging, journal or fleet.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hipster_bench::experiments::cluster::cluster_spec;
use hipster_bench::runner::{hipster_in, PolicyFn, Workload};
use hipster_core::ClusterSim;

use crate::probe::{now_ns, secs, timed, SharedLog};
use crate::{cluster_digest, Measured};

/// Cluster size (private + cloud).
pub const NODES: usize = 1024;
/// HipsterIn learning length and bucket width, as `repro cluster`.
const LEARN: u64 = 4;
const BUCKET: f64 = 0.05;
/// Cluster builds in the set-up phase; the last one is stepped.
const SETUP_ROUNDS: usize = 15;
/// Cluster intervals stepped per second of `--seconds`.
pub const STEPS_PER_SECOND: u64 = 8;

fn policy(traced: bool, log: &SharedLog) -> PolicyFn {
    let policy = hipster_in(Workload::Memcached.tuned_zones(), LEARN, BUCKET);
    if traced {
        timed(policy, log.clone())
    } else {
        policy
    }
}

fn build(seed: u64, steps: usize, traced: bool, log: &SharedLog) -> Result<ClusterSim, String> {
    cluster_spec(
        format!("cluster/n{NODES}/HipsterIn"),
        NODES,
        policy(traced, log),
        steps,
        seed,
    )
    .build()
    .map_err(|e| e.to_string())
}

/// Runs the workload once: `steps` cluster intervals.
pub fn run(seed: u64, steps: usize, traced: bool) -> Measured {
    let mut m = Measured {
        workers: 1,
        ..Measured::default()
    };
    let log = SharedLog::default();

    let mut sim = None;
    for _ in 0..SETUP_ROUNDS {
        drop(sim.take());
        let start = now_ns();
        let built = build(seed, steps, traced, &log);
        m.setup_s.push(secs(start, now_ns()));
        match built {
            Ok(s) => sim = Some(s),
            Err(e) => {
                m.check(&format!("cluster spec builds ({e})"), false);
                return m;
            }
        }
    }
    let mut sim = sim.expect("at least one set-up round");

    m.attempted = steps as u64;
    let mut bounds: Vec<(u64, u64)> = Vec::with_capacity(steps);
    let mut intervals = Vec::with_capacity(steps);
    let start = now_ns();
    let stepped = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..steps {
            let enter = now_ns();
            let interval = sim.step();
            bounds.push((enter, now_ns()));
            intervals.push(interval);
        }
    }));
    m.phase_s.push(secs(start, now_ns()));
    if stepped.is_err() {
        let lost = (steps - intervals.len()) as u64;
        m.check_ops("every cluster step completed", false, lost);
        return m;
    }
    m.step_ms = bounds.iter().map(|&(s, e)| secs(s, e) * 1e3).collect();
    let in_order = intervals
        .iter()
        .enumerate()
        .all(|(i, iv)| iv.index == i as u64 && iv.completions > 0);
    m.check("intervals in order, each completing requests", in_order);
    m.completions = intervals.iter().map(|iv| iv.completions as u64).sum();

    let outcome = sim.run();
    m.check(
        "summary completions equal the stepped intervals'",
        outcome.summary.completions == m.completions,
    );
    m.digest = cluster_digest(&outcome);
    m.report.push(format!(
        "cluster {}: decision digest {:016x} over {} decisions; QoS {:.1}%, mean p99 {:.3} ms, spill {:.2}% (not gated)",
        outcome.name,
        outcome.decision_digest,
        outcome.decisions,
        outcome.summary.qos_guarantee_pct,
        outcome.summary.mean_p99_s * 1e3,
        outcome.summary.spill_frac * 100.0
    ));

    if traced {
        let decides = log.take().decides;
        let ok = decides.len() == steps * NODES;
        m.check("every node decided once per step", ok);
        if ok {
            for ((&(enter, exit), iv), per_node) in
                bounds.iter().zip(&intervals).zip(decides.chunks(NODES))
            {
                m.layers.cluster_step(enter, exit, per_node, iv);
            }
        }
    }
    m
}
