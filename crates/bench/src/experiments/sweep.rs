//! Constant-load configuration sweeps — the raw material of Fig. 2 and
//! Fig. 3.
//!
//! For each (configuration, load level) cell, run the workload at constant
//! load and measure the median interval tail latency and mean system power;
//! a configuration "meets QoS at load L" when the median tail is within the
//! target. The per-load choice of the cheapest QoS-meeting configuration is
//! the state machine of Fig. 2c.
//!
//! Cells are declared as pinned-policy [`ScenarioSpec`]s; a whole
//! candidate set is measured as one fleet, so sweeps parallelize across
//! cores without giving up per-cell determinism.

use hipster_core::{ScenarioOutcome, ScenarioSpec};
use hipster_platform::CoreConfig;
use hipster_sim::{LcModel, Trace};
use hipster_workloads::Constant;

use crate::runner::{pinned, run_fleet, scenario, Workload};

/// Measurement of one (config, load) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The configuration measured.
    pub config: CoreConfig,
    /// Load fraction.
    pub load: f64,
    /// Median interval tail latency, seconds.
    pub tail_s: f64,
    /// Mean system power, watts.
    pub power_w: f64,
    /// Whether the tail met the workload's QoS target.
    pub meets_qos: bool,
}

/// Intervals discarded from the start of each cell before measuring.
const WARMUP: usize = 5;

/// Declares one cell as a scenario: `secs` intervals at constant `load`
/// pinned to `config`.
fn cell_spec(
    workload: Workload,
    config: CoreConfig,
    load: f64,
    secs: usize,
    seed: u64,
) -> ScenarioSpec {
    scenario(
        format!("sweep/{}/{config}@{load}", workload.name()),
        workload,
        Constant::new(load, secs as f64),
        pinned(config),
        secs,
        seed,
    )
}

/// Reduces a finished cell run to its [`Cell`] measurement.
fn cell_of(workload: Workload, config: CoreConfig, load: f64, trace: &Trace) -> Cell {
    let qos = workload.model().qos();
    let mut tails = Vec::new();
    let mut power = 0.0;
    let mut n = 0;
    for s in trace.intervals().iter().skip(WARMUP) {
        tails.push(s.tail_latency_s);
        power += s.power.total();
        n += 1;
    }
    tails.sort_by(f64::total_cmp);
    let tail_s = tails[tails.len() / 2];
    let power_w = power / n as f64;
    Cell {
        config,
        load,
        tail_s,
        power_w,
        meets_qos: tail_s <= qos.target_s,
    }
}

/// Runs one cell: `secs` intervals at constant `load` under `config`
/// (the first `WARMUP` intervals are discarded).
pub fn measure_cell(
    workload: Workload,
    config: CoreConfig,
    load: f64,
    secs: usize,
    seed: u64,
) -> Cell {
    let name = format!("{config}@{load}");
    let outcome = cell_spec(workload, config, load, secs, seed)
        .run()
        .unwrap_or_else(|e| panic!("sweep cell {name} invalid: {e}"));
    cell_of(workload, config, load, &outcome.trace)
}

/// Measures every candidate configuration at `load` as one fleet.
pub fn measure_cells(
    workload: Workload,
    candidates: &[CoreConfig],
    load: f64,
    secs: usize,
    seed: u64,
) -> Vec<Cell> {
    let specs: Vec<ScenarioSpec> = candidates
        .iter()
        .map(|&c| cell_spec(workload, c, load, secs, seed))
        .collect();
    let outcomes: Vec<ScenarioOutcome> = run_fleet(specs);
    candidates
        .iter()
        .zip(outcomes.iter())
        .map(|(&c, o)| cell_of(workload, c, load, &o.trace))
        .collect()
}

/// The per-load choice of the cheapest QoS-meeting configuration from a
/// candidate set (the "state machine" builder). Returns `None` for loads no
/// candidate can serve.
pub fn best_config(
    workload: Workload,
    candidates: &[CoreConfig],
    load: f64,
    secs: usize,
    seed: u64,
) -> Option<Cell> {
    measure_cells(workload, candidates, load, secs, seed)
        .into_iter()
        .filter(|cell| cell.meets_qos)
        .min_by(|a, b| a.power_w.total_cmp(&b.power_w))
}

/// The paper's Fig. 2 load levels for each workload.
pub fn paper_loads(workload: Workload) -> Vec<f64> {
    match workload {
        Workload::Memcached => vec![
            0.29, 0.40, 0.51, 0.63, 0.69, 0.71, 0.77, 0.83, 0.89, 0.91, 0.94, 0.97, 1.0,
        ],
        Workload::WebSearch => vec![
            0.18, 0.25, 0.33, 0.40, 0.47, 0.55, 0.62, 0.69, 0.76, 0.84, 0.91, 0.96, 1.0,
        ],
    }
}

/// Throughput-per-watt efficiency of a cell (RPS/W or QPS/W).
pub fn efficiency(workload: Workload, cell: &Cell) -> f64 {
    let max = workload.model().max_load_rps();
    cell.load * max / cell.power_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_platform::Platform;

    #[test]
    fn fleet_sweep_equals_cell_by_cell() {
        let platform = Platform::juno_r1();
        let candidates: Vec<CoreConfig> = platform.baseline_configs();
        let batch = measure_cells(Workload::Memcached, &candidates, 0.4, 10, 21);
        for (cell, &config) in batch.iter().zip(candidates.iter()) {
            let single = measure_cell(Workload::Memcached, config, 0.4, 10, 21);
            assert_eq!(*cell, single);
        }
    }

    #[test]
    fn best_config_prefers_cheapest_qos_met() {
        let platform = Platform::juno_r1();
        let candidates = platform.baseline_configs();
        let best =
            best_config(Workload::Memcached, &candidates, 0.3, 12, 21).expect("some config serves");
        assert!(best.meets_qos);
        let all = measure_cells(Workload::Memcached, &candidates, 0.3, 12, 21);
        for cell in all.iter().filter(|c| c.meets_qos) {
            assert!(best.power_w <= cell.power_w);
        }
    }
}
