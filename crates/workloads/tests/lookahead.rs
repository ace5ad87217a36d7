//! Differential test of the engine's lookahead draw buffers.
//!
//! The engine reads its demand stream ahead in chunks through
//! `LcModel::fill_arrivals` / `fill_demands`. `LcWorkload` overrides both
//! with staged loops (every uniform first, then Box–Muller, then `exp`);
//! [`PerDraw`] wraps the same workload but forwards only the per-draw
//! methods, so the engine fills through the trait's default bodies — one
//! `sample_burst` / `sample_demand` call per draw. Over random interval
//! sequences (load steps, zero-rate intervals, core reconfigurations and
//! their stalls, per-request stragglers on or off), open and closed loop,
//! both engines must produce identical `IntervalStats`.

use hipster_platform::{CoreKind, Frequency, Platform};
use hipster_sim::{
    ClosedLoop, Demand, Engine, FaultSpec, HedgeSpec, LcModel, LoadPattern, MachineConfig,
    QosTarget, SimRng,
};
use hipster_workloads::{memcached, memcached_bursty, web_search, LcWorkload};
use proptest::prelude::*;

/// An `LcModel` that forwards only the per-draw methods of `LcWorkload`,
/// leaving `fill_arrivals` / `fill_demands` to the trait defaults.
#[derive(Debug)]
struct PerDraw(LcWorkload);

impl LcModel for PerDraw {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn max_load_rps(&self) -> f64 {
        self.0.max_load_rps()
    }
    fn qos(&self) -> QosTarget {
        self.0.qos()
    }
    fn sample_demand(&self, rng: &mut SimRng) -> Demand {
        self.0.sample_demand(rng)
    }
    fn service_speed(&self, kind: CoreKind, freq: Frequency) -> f64 {
        self.0.service_speed(kind, freq)
    }
    fn sample_burst(&self, rng: &mut SimRng) -> usize {
        self.0.sample_burst(rng)
    }
    fn mean_burst(&self) -> f64 {
        self.0.mean_burst()
    }
    fn timeout_s(&self) -> Option<f64> {
        self.0.timeout_s()
    }
    fn closed_loop(&self) -> Option<ClosedLoop> {
        self.0.closed_loop()
    }
}

/// One offered-load fraction per interval.
#[derive(Debug)]
struct Schedule {
    loads: Vec<f64>,
    interval_s: f64,
}

impl LoadPattern for Schedule {
    fn load_at(&self, t: f64) -> f64 {
        let i = (t / self.interval_s) as usize;
        self.loads[i.min(self.loads.len() - 1)]
    }
    fn duration(&self) -> f64 {
        self.loads.len() as f64 * self.interval_s
    }
}

/// Open-loop workloads: plain Poisson (burst mean 1), Memcached (bursts
/// of 10, client timeout) and its MMPP-regime variant (bursts of 20).
fn open_workload(which: usize) -> LcWorkload {
    match which {
        0 => LcWorkload::builder("poisson")
            .max_load_rps(20_000.0)
            .work(60.0, 1.1)
            .mem_seconds(5e-6)
            .big_speed(1.0e6, Frequency::from_mhz(1150))
            .build(),
        1 => memcached(),
        _ => memcached_bursty(),
    }
}

/// Runs `model` over `steps` — `(config index, load)` per interval — and
/// returns every interval's stats, Debug-formatted (bit-exact for floats),
/// plus the engine's straggle and hedge counters.
fn run(
    model: Box<dyn LcModel>,
    steps: &[(usize, f64)],
    interval_s: f64,
    stragglers: bool,
    seed: u64,
) -> (Vec<String>, u64, u64) {
    let platform = Platform::juno_r1();
    let configs = platform.all_configs();
    let load = Schedule {
        loads: steps.iter().map(|s| s.1).collect(),
        interval_s,
    };
    let mut engine = Engine::new(platform.clone(), model, Box::new(load), seed)
        .with_interval(interval_s)
        .with_hedging(HedgeSpec::after(2.0));
    if stragglers {
        engine =
            engine.with_faults(FaultSpec::none().with_request_stragglers(0.05, 1.3, 1.5, 30.0));
    }
    let stats = steps
        .iter()
        .map(|&(c, _)| {
            let cfg = MachineConfig::interactive(&platform, configs[c % configs.len()]);
            format!("{:?}", engine.step(cfg))
        })
        .collect();
    (stats, engine.request_straggles(), engine.hedged_requests())
}

/// Interval sequences: a core configuration (changes migrate or re-clock,
/// so stall) and a load per interval, a quarter of them at zero rate.
fn steps() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec(
        (
            0usize..64,
            prop_oneof![Just(0.0), 0.05f64..1.2, 0.05f64..1.2, 0.05f64..1.2],
        ),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn open_loop_lookahead_matches_per_draw_sampling(
        which in 0usize..3,
        steps in steps(),
        stragglers in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let interval_s = 1.0 / 64.0;
        let staged = run(Box::new(open_workload(which)), &steps, interval_s, stragglers, seed);
        let per_draw = run(Box::new(PerDraw(open_workload(which))), &steps, interval_s, stragglers, seed);
        prop_assert_eq!(staged, per_draw);
    }

    #[test]
    fn closed_loop_lookahead_matches_per_draw_sampling(
        steps in steps(),
        stragglers in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let interval_s = 0.25;
        let staged = run(Box::new(web_search()), &steps, interval_s, stragglers, seed);
        let per_draw = run(Box::new(PerDraw(web_search())), &steps, interval_s, stragglers, seed);
        prop_assert_eq!(staged, per_draw);
    }
}
