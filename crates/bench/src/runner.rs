//! Shared experiment plumbing: workload presets, policy factories and
//! [`ScenarioSpec`] constructors.
//!
//! Every experiment module declares its runs as scenarios — (platform ×
//! workload × load × policy × seed) values — and executes them directly or
//! through a [`Fleet`]. No experiment wires an `Engine`/`Manager` by hand.

use hipster_core::{
    Fleet, HeuristicMapper, Hipster, OctopusMan, Policy, ScenarioOutcome, ScenarioSpec,
    StaticPolicy, Zones,
};
use hipster_platform::{CoreConfig, Platform};
use hipster_sim::{LoadPattern, Trace};
use hipster_workloads::{spec::SpecProgram, LcWorkload};

/// Which latency-critical workload an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memcached (Table 1 row 1).
    Memcached,
    /// Web-Search (Table 1 row 2).
    WebSearch,
}

impl Workload {
    /// The preset name understood by [`hipster_workloads::preset`].
    pub fn preset_name(self) -> &'static str {
        match self {
            Workload::Memcached => "memcached",
            Workload::WebSearch => "web-search",
        }
    }

    /// Instantiates the workload model (via the named preset registry).
    pub fn model(self) -> LcWorkload {
        hipster_workloads::preset(self.preset_name()).expect("bench workloads are registered")
    }

    /// The paper's name for the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Memcached => "Memcached",
            Workload::WebSearch => "Web-Search",
        }
    }

    /// Both workloads, Memcached first (the paper's presentation order).
    pub const BOTH: [Workload; 2] = [Workload::Memcached, Workload::WebSearch];

    /// Per-workload danger/safe zone thresholds for the ladder policies
    /// (Octopus-Man, the heuristic mapper, and Hipster's learning phase).
    ///
    /// Like the paper (§4.1), these come from an offline sweep
    /// (`cargo run -p hipster-bench --bin tune`), selected so the baseline
    /// reproduces its published operating point: Memcached's
    /// microsecond-scale tails need a much lower safe threshold than
    /// Web-Search's.
    pub fn tuned_zones(self) -> Zones {
        match self {
            Workload::Memcached => Zones::new(0.50, 0.15),
            Workload::WebSearch => Zones::new(0.85, 0.35),
        }
    }
}

/// A boxed policy factory: builds the policy from the platform and the
/// scenario's seed. All experiment policies are declared this way so a
/// scenario can be replayed (and fleet-parallelized) deterministically.
pub type PolicyFn = Box<dyn Fn(&Platform, u64) -> Box<dyn Policy> + Send + Sync>;

/// Static all-big-cores policy (the paper's energy baseline).
pub fn static_all_big() -> PolicyFn {
    Box::new(|p, _| Box::new(StaticPolicy::all_big(p)))
}

/// Static all-small-cores policy.
pub fn static_all_small() -> PolicyFn {
    Box::new(|p, _| Box::new(StaticPolicy::all_small(p)))
}

/// Policy pinned to one exact configuration (sweep cells).
pub fn pinned(config: CoreConfig) -> PolicyFn {
    Box::new(move |_, _| Box::new(StaticPolicy::new(config)))
}

/// The Octopus-Man baseline with the given zones.
pub fn octopus_man(zones: Zones) -> PolicyFn {
    Box::new(move |p, _| Box::new(OctopusMan::new(p, zones)))
}

/// Hipster's heuristic mapper run standalone.
pub fn heuristic_mapper(zones: Zones) -> PolicyFn {
    Box::new(move |p, _| Box::new(HeuristicMapper::new(p, zones)))
}

/// HipsterIn with the experiment's learning length and bucket width; the
/// scenario's seed feeds its exploration stream.
pub fn hipster_in(zones: Zones, learn: u64, bucket: f64) -> PolicyFn {
    Box::new(move |p, seed| {
        Box::new(
            Hipster::interactive(p, seed)
                .learning_intervals(learn)
                .zones(zones)
                .bucket_width(bucket)
                .build(),
        )
    })
}

/// HipsterCo (batch-throughput objective) with the given `maxIPS(B) +
/// maxIPS(S)` normalizer.
pub fn hipster_co(zones: Zones, learn: u64, bucket: f64, max_ips_sum: f64) -> PolicyFn {
    Box::new(move |p, seed| {
        Box::new(
            Hipster::collocated(p, max_ips_sum, seed)
                .learning_intervals(learn)
                .zones(zones)
                .bucket_width(bucket)
                .build(),
        )
    })
}

/// Declares an interactive scenario on the Juno platform: `policy` over
/// `workload` under `pattern` for `secs` monitoring intervals.
pub fn scenario(
    name: impl Into<String>,
    workload: Workload,
    pattern: impl LoadPattern + Clone + Send + Sync + 'static,
    policy: PolicyFn,
    secs: usize,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(name, Platform::juno_r1())
        .workload_with(move || Box::new(workload.model()))
        .load(pattern)
        .policy(policy)
        .intervals(secs)
        .seed(seed)
}

/// Like [`scenario`], but the load pattern comes from a factory (for
/// non-`Clone` patterns such as `Sequence`).
pub fn scenario_with(
    name: impl Into<String>,
    workload: Workload,
    pattern: impl Fn() -> Box<dyn LoadPattern> + Send + Sync + 'static,
    policy: PolicyFn,
    secs: usize,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::new(name, Platform::juno_r1())
        .workload_with(move || Box::new(workload.model()))
        .load_with(pattern)
        .policy(policy)
        .intervals(secs)
        .seed(seed)
}

/// Declares a collocated scenario: batch `programs` run on the cores the
/// policy leaves free.
pub fn collocated_scenario(
    name: impl Into<String>,
    workload: Workload,
    pattern: impl LoadPattern + Clone + Send + Sync + 'static,
    policy: PolicyFn,
    programs: Vec<SpecProgram>,
    secs: usize,
    seed: u64,
) -> ScenarioSpec {
    let mut spec = scenario(name, workload, pattern, policy, secs, seed).collocated();
    for program in programs {
        spec = spec.batch_with(move || Box::new(program.clone()));
    }
    spec
}

/// Runs one interactive scenario to completion and returns its trace.
pub fn run_interactive(
    workload: Workload,
    pattern: impl LoadPattern + Clone + Send + Sync + 'static,
    policy: PolicyFn,
    secs: usize,
    seed: u64,
) -> Trace {
    run_one(scenario(
        "interactive",
        workload,
        pattern,
        policy,
        secs,
        seed,
    ))
}

/// Runs one collocated scenario to completion and returns its trace.
pub fn run_collocated(
    workload: Workload,
    pattern: impl LoadPattern + Clone + Send + Sync + 'static,
    policy: PolicyFn,
    programs: Vec<SpecProgram>,
    secs: usize,
    seed: u64,
) -> Trace {
    run_one(collocated_scenario(
        "collocated",
        workload,
        pattern,
        policy,
        programs,
        secs,
        seed,
    ))
}

/// Runs one scenario, panicking with a readable message on invalid specs
/// (experiment declarations are static, so invalidity is a bench bug).
pub fn run_one(spec: ScenarioSpec) -> Trace {
    let name = spec.name().to_owned();
    spec.run()
        .unwrap_or_else(|e| panic!("scenario {name:?} invalid: {e}"))
        .trace
}

/// Runs a batch of scenarios through a [`Fleet`] (one OS thread per
/// available core), returning outcomes in declaration order.
pub fn run_fleet(specs: Vec<ScenarioSpec>) -> Vec<ScenarioOutcome> {
    let fleet: Fleet = specs.into_iter().collect();
    fleet.run().unwrap_or_else(|e| panic!("fleet failed: {e}"))
}

/// Scales an experiment length for `--quick` mode.
pub fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / 4).max(60)
    } else {
        full
    }
}

/// The QoS target of a workload (convenience).
pub fn qos_of(workload: Workload) -> hipster_sim::QosTarget {
    use hipster_sim::LcModel as _;
    workload.model().qos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_workloads::Constant;

    #[test]
    fn interactive_runner_produces_trace() {
        let trace = run_interactive(
            Workload::WebSearch,
            Constant::new(0.3, 10.0),
            static_all_big(),
            10,
            1,
        );
        assert_eq!(trace.len(), 10);
    }

    #[test]
    fn fleet_runner_preserves_declaration_order() {
        let specs = vec![
            scenario(
                "a",
                Workload::Memcached,
                Constant::new(0.3, 5.0),
                static_all_big(),
                5,
                1,
            ),
            scenario(
                "b",
                Workload::Memcached,
                Constant::new(0.6, 5.0),
                static_all_big(),
                5,
                2,
            ),
        ];
        let outcomes = run_fleet(specs);
        assert_eq!(outcomes[0].name, "a");
        assert_eq!(outcomes[1].name, "b");
        assert_eq!(outcomes[1].seed, 2);
    }

    #[test]
    fn scaled_quick_mode() {
        assert_eq!(scaled(2100, false), 2100);
        assert_eq!(scaled(2100, true), 525);
        assert_eq!(scaled(100, true), 60);
    }

    #[test]
    fn workload_models_match_names() {
        use hipster_sim::LcModel as _;
        for w in Workload::BOTH {
            assert_eq!(w.model().name(), w.name());
        }
    }
}
