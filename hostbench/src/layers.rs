//! Per-layer accounting of a traced run.
//!
//! Layers are named after the simulator's modules: `sim` (one node's
//! engine interval), `policy` (`Policy::decide`), `cluster`
//! (`ClusterSim::step`), `fleet` (the work-stealing scheduler) and
//! `store` (the sweep journal). A workload feeds the spans its probes
//! recorded into a [`LayerAcc`]; [`LayerAcc::metrics`] turns them into
//! the named per-layer metrics. A layer the workload never runs reports
//! 0 for every metric.

use std::collections::BTreeMap;

use hipster_core::{ClusterInterval, FleetStats};

use crate::probe::Spans;
use crate::{stats, Metric};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sim.step_us_p50", "us"),
    ("sim.step_us_p90", "us"),
    ("sim.ns_per_completion", "ns"),
    ("sim.share", "share"),
    ("sim.completions", "count"),
    ("sim.arrivals", "count"),
    ("sim.timeouts", "count"),
    ("policy.decide_ns_p50", "ns"),
    ("policy.decide_ns_p99", "ns"),
    ("policy.calls", "count"),
    ("policy.share", "share"),
    ("cluster.step_us_per_node", "us"),
    ("cluster.pre_node_share", "share"),
    ("cluster.node_loop_share", "share"),
    ("cluster.quanta", "count"),
    ("cluster.spill_frac", "frac"),
    ("cluster.retried_quanta", "count"),
    ("cluster.deferred_quanta", "count"),
    ("cluster.hedged_per_completion", "ratio"),
    ("fleet.busy_frac", "frac"),
    ("fleet.idle_tail_frac", "frac"),
    ("fleet.cell_s_p50", "s"),
    ("fleet.cell_s_max", "s"),
    ("fleet.cells", "count"),
    ("store.create_s", "s"),
    ("store.record_ms_p50", "ms"),
    ("store.record_ms_max", "ms"),
    ("store.records", "count"),
    ("store.journal_bytes", "bytes"),
    ("store.write_mb_per_s", "MB/s"),
    ("store.open_s", "s"),
    ("store.decode_mb_per_s", "MB/s"),
    ("store.restore_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Span and count accumulator for the `sim`, `policy` and `cluster`
/// layers; other layers set their metrics directly.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Node-step durations (ns) that feed the `sim.step_us_*` percentiles.
    pub step_samples: Vec<f64>,
    sim_ns: u64,
    /// Requests completed, arrived and timed out (exact counts).
    pub completions: u64,
    /// See [`LayerAcc::completions`].
    pub arrivals: u64,
    /// See [`LayerAcc::completions`].
    pub timeouts: u64,
    decide_samples: Vec<f64>,
    decide_ns: u64,
    cluster_node_steps: u64,
    cluster_ns: u64,
    pre_node_ns: u64,
    node_loop_ns: u64,
    quanta: u64,
    spilled: u64,
    retried: u64,
    deferred: u64,
    hedged: u64,
    /// Metrics set directly (fleet, store, trace), with the number of
    /// samples behind each.
    pub direct: BTreeMap<&'static str, (f64, usize)>,
    /// Every span recorded, written out when the run ends.
    pub spans: Spans,
}

impl LayerAcc {
    /// Records one `policy` span and the `sim` span that follows it
    /// (decide return to `sim_end`), both caused by `parent`. Only
    /// sampled node steps feed the step percentiles.
    pub fn node_step(&mut self, decide: (u64, u64), sim_end: u64, parent: usize, sampled: bool) {
        let (start, end) = decide;
        self.decide_samples.push((end - start) as f64);
        self.decide_ns += end - start;
        self.spans.push("policy", Some(parent), start, end);
        let sim = sim_end.saturating_sub(end);
        self.sim_ns += sim;
        if sampled {
            self.step_samples.push(sim as f64);
        }
        self.spans.push("sim", Some(parent), end, sim_end);
    }

    /// Records one `ClusterSim::step` from `enter` to `exit` whose nodes
    /// decided at `decides` (node order). Node `i`'s `sim` span runs from
    /// its decide return to node `i + 1`'s decide start; the last node's
    /// runs to the step's return. `decides` must not be empty.
    pub fn cluster_step(
        &mut self,
        enter: u64,
        exit: u64,
        decides: &[(u64, u64)],
        interval: &ClusterInterval,
    ) {
        let first = decides[0];
        let step = self.spans.push("cluster", None, enter, exit);
        self.cluster_node_steps += decides.len() as u64;
        self.cluster_ns += exit - enter;
        self.pre_node_ns += first.0.saturating_sub(enter);
        self.node_loop_ns += exit.saturating_sub(first.0);
        for (i, &decide) in decides.iter().enumerate() {
            let sim_end = decides.get(i + 1).map_or(exit, |next| next.0);
            self.node_step(decide, sim_end, step, true);
        }
        self.completions += interval.completions as u64;
        self.arrivals += interval.arrivals as u64;
        self.timeouts += interval.timeouts as u64;
        self.quanta += interval.quanta as u64;
        self.spilled += interval.spilled_quanta as u64;
        self.retried += interval.retried_quanta as u64;
        self.deferred += interval.deferred_quanta as u64;
        self.hedged += interval.hedged_requests;
    }

    /// Records the `fleet` layer from the scheduler runs of the timed
    /// phase: busy fraction over all of them, mean idle tail, the cell
    /// count, the median of `median_cell_s` and the longest of `cell_s`.
    pub fn fleet(&mut self, runs: &[FleetStats], cell_s: &[f64], median_cell_s: &[f64]) {
        let capacity: f64 = runs.iter().map(|r| r.workers as f64 * r.wall_s).sum();
        let busy: f64 = runs.iter().map(FleetStats::busy_total_s).sum();
        let busy = if capacity > 0.0 { busy / capacity } else { 0.0 };
        let tails: Vec<f64> = runs.iter().map(FleetStats::idle_tail_frac).collect();
        let tail = tails.iter().sum::<f64>() / tails.len().max(1) as f64;
        let cells: usize = runs.iter().map(|r| r.scenarios).sum();
        self.set("fleet.busy_frac", busy, runs.len());
        self.set("fleet.idle_tail_frac", tail, runs.len());
        let p50 = stats::median(median_cell_s).unwrap_or(0.0);
        self.set("fleet.cell_s_p50", p50, median_cell_s.len());
        let max = cell_s.iter().copied().fold(0.0, f64::max);
        self.set("fleet.cell_s_max", max, cell_s.len());
        self.set("fleet.cells", cells as f64, 1);
    }

    /// Sets a metric measured outside the span accumulator, from `n`
    /// samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.direct.insert(name, (value, n));
    }

    /// Folds another accumulator (e.g. one worker's cell) into this one.
    pub fn merge(&mut self, other: LayerAcc) {
        self.step_samples.extend(other.step_samples);
        self.sim_ns += other.sim_ns;
        self.completions += other.completions;
        self.arrivals += other.arrivals;
        self.timeouts += other.timeouts;
        self.decide_samples.extend(other.decide_samples);
        self.decide_ns += other.decide_ns;
        self.cluster_node_steps += other.cluster_node_steps;
        self.cluster_ns += other.cluster_ns;
        self.pre_node_ns += other.pre_node_ns;
        self.node_loop_ns += other.node_loop_ns;
        self.quanta += other.quanta;
        self.spilled += other.spilled;
        self.retried += other.retried;
        self.deferred += other.deferred;
        self.hedged += other.hedged;
        self.direct.extend(other.direct);
        self.spans.extend(other.spans);
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. Shares are of
    /// `worker_s`, the timed phase's wall time times the worker threads
    /// that ran it. A tail percentile without ten samples beyond it is
    /// `None`. Each metric carries the number of samples behind it.
    pub fn metrics(&self, worker_s: f64) -> Vec<Metric> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let share = |ns: u64| ratio(ns as f64 * 1e-9, worker_s);
        let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        let tail = |v: &[f64], p: f64| {
            if v.is_empty() {
                Some(0.0)
            } else {
                stats::tail(v, p)
            }
        };
        let mut m: BTreeMap<&str, Option<f64>> = BTreeMap::new();
        let mut n: BTreeMap<&str, usize> = BTreeMap::new();
        for name in ["sim.step_us_p50", "sim.step_us_p90"] {
            n.insert(name, self.step_samples.len());
        }
        for name in ["policy.decide_ns_p50", "policy.decide_ns_p99"] {
            n.insert(name, self.decide_samples.len());
        }
        m.insert("sim.step_us_p50", Some(p50(&self.step_samples) * 1e-3));
        m.insert(
            "sim.step_us_p90",
            tail(&self.step_samples, 0.90).map(|v| v * 1e-3),
        );
        m.insert(
            "sim.ns_per_completion",
            Some(ratio(self.sim_ns as f64, self.completions as f64)),
        );
        m.insert("sim.share", Some(share(self.sim_ns)));
        m.insert("sim.completions", Some(self.completions as f64));
        m.insert("sim.arrivals", Some(self.arrivals as f64));
        m.insert("sim.timeouts", Some(self.timeouts as f64));
        m.insert("policy.decide_ns_p50", Some(p50(&self.decide_samples)));
        m.insert("policy.decide_ns_p99", tail(&self.decide_samples, 0.99));
        m.insert("policy.calls", Some(self.decide_samples.len() as f64));
        m.insert("policy.share", Some(share(self.decide_ns)));
        m.insert(
            "cluster.step_us_per_node",
            Some(ratio(
                self.cluster_ns as f64 * 1e-3,
                self.cluster_node_steps as f64,
            )),
        );
        m.insert("cluster.pre_node_share", Some(share(self.pre_node_ns)));
        m.insert("cluster.node_loop_share", Some(share(self.node_loop_ns)));
        m.insert("cluster.quanta", Some(self.quanta as f64));
        m.insert(
            "cluster.spill_frac",
            Some(ratio(self.spilled as f64, self.quanta as f64)),
        );
        m.insert("cluster.retried_quanta", Some(self.retried as f64));
        m.insert("cluster.deferred_quanta", Some(self.deferred as f64));
        m.insert(
            "cluster.hedged_per_completion",
            Some(ratio(self.hedged as f64, self.completions as f64)),
        );
        for (name, &(value, samples)) in &self.direct {
            m.insert(name, Some(value));
            n.insert(name, samples);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: m.get(name).copied().unwrap_or(Some(0.0)),
                n: n.get(name).copied().unwrap_or(1),
            })
            .collect()
    }
}
