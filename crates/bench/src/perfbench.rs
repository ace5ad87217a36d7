//! `repro bench` — recorded performance baselines.
//!
//! Five benchmark families run back to back:
//!
//! * **Event core** (`BENCH_PR3.json`) — steps canonical open- and
//!   closed-loop scenarios at several server / client scales through the
//!   *same* generic driver, once with the indexed [`ServiceNode`]
//!   (+ [`ThinkPool`]) and once with the frozen pre-PR3 linear-scan
//!   implementation ([`ReferenceNode`] + [`ReferenceThinkPool`]), and
//!   reports events/sec and intervals/sec for both.
//! * **Control plane + fleet scheduling** (`BENCH_PR4.json`) —
//!   `control/qpath/*` cells drive the interval-granularity control
//!   kernel (bucketize → Q-update → argmax → rank) through the dense
//!   [`QTable`] and the frozen map-backed [`ReferenceQTable`] at the
//!   paper's 3%/5%/10% bucket widths; `fleet/heatmap/*` cells run a
//!   fig. 2/3-style (configuration × load) sweep at 64/256/1024 scenarios
//!   through the work-stealing [`Fleet`] and a static-partition
//!   baseline scheduler, recording wall time and per-worker idle tails.
//! * **Node scale** (`BENCH.jsonl`) — the production [`ServiceNode`]
//!   (+ [`ThinkPool`]) against the scan oracle on identical pre-generated
//!   streams, reps interleaved across every cell: open-loop Memcached at
//!   64 and 1024 servers, closed-loop Web-Search at 1024 and 4096
//!   clients, and the 2-big + 4-small Juno node re-keyed every interval.
//!   One flat JSON line per floor — `{layer, workload, size, metric,
//!   value, oracle_value, floor, better, smoke}` — each enforced on full
//!   runs: s64→s1024 and c1024→c4096 events/sec ratios ≤1.3, and
//!   production-over-scan speedups on the Juno cell and at c4096 (the
//!   earlier floors against the frozen heap nodes, translated onto the
//!   scan oracle).
//! * **Cluster dispatch at scale** (`BENCH_PR7.json`) —
//!   `cluster/dispatch/*` cells time the cluster
//!   [`Dispatcher`](hipster_core::cluster::Dispatcher) (one flat
//!   occupancy array: O(1) power-of-two-choices picks, an O(N)
//!   least-loaded scan) for both policies at 64/256/1024 nodes under
//!   the same occupancy churn and RNG stream; `cluster/sweep/*` cells run
//!   small multi-node [`ClusterSim`](hipster_core::ClusterSim) sweeps
//!   through the work-stealing task scheduler and record the new
//!   [`FleetStats`](hipster_core::FleetStats) wall-clock /
//!   scenarios-per-second accounting; the `cluster/interval/*` cell
//!   times one `ClusterSim::step` of the repro's 1024-node cluster with
//!   its node stage serial vs on every core (n256 in smoke runs). Full
//!   runs enforce a flat (≤1.3×) n64→n1024 p2c ns/decision ratio,
//!   require p2c to be at least as fast as least-loaded at 1024 nodes,
//!   and, on two or more cores, a ≥1.3× parallel node-stage speed-up.
//!
//! Every event-core, control-plane and node-scale cell feeds its fast
//! and reference implementations identical inputs, so their outputs must
//! agree exactly — the bench doubles as an at-scale equivalence check and
//! panics on any divergence.
//!
//! Results are written to the current directory (the repo root, when run
//! via `cargo run`), giving future PRs a recorded perf trajectory.
//! `--smoke` runs the same cells with fewer simulated intervals so CI can
//! validate the harness in seconds, and `--only <prefix>` restricts the
//! run to cells whose name starts with the prefix (a results file is only
//! rewritten when at least one of its cells ran).

use std::time::Instant;

use hipster_core::reference::{run_static_chunked, ReferenceQTable};
use hipster_core::store::json::JsonObj;
use hipster_core::{
    run_tasks, ConfigSpace, Fleet, LoadBuckets, Policy, QTable, ScenarioSpec, StaticPolicy,
};

use crate::experiments::cluster;
use crate::runner::{heuristic_mapper, hipster_in, static_all_big, static_all_small, Workload};
use hipster_platform::{power_ladder, CoreConfig, CoreKind, Frequency, Platform};
use hipster_sim::dist::Exponential;
use hipster_sim::reference::{ReferenceNode, ReferenceThinkPool};
use hipster_sim::{
    math, Demand, LcModel, NodeInterval, Sampler, ServerSpec, ServiceNode, SimRng, ThinkPool,
    DEFAULT_JITTER_SIGMA,
};
use hipster_workloads::{memcached, web_search, Constant, LcWorkload};

/// Tail percentile used by every bench interval (Memcached's QoS point).
const TAIL_P: f64 = 0.95;

/// Target per-server utilization of each cell: high enough that queues and
/// completions dominate, low enough that the open-loop system is stable.
const UTILIZATION: f64 = 0.8;

/// The queueing-node API surface the bench driver needs, implemented by
/// both the production node and the frozen reference.
trait EventNode {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64);
    fn begin_interval(&mut self, t: f64);
    fn arrive(&mut self, now: f64, demand: Demand);
    fn next_completion(&self) -> Option<f64>;
    fn advance(&mut self, to: f64);
    fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>);
    fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval;
}

impl EventNode for ServiceNode {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        ServiceNode::reconfigure(self, now, specs, preempt, stall_s);
    }
    fn begin_interval(&mut self, t: f64) {
        ServiceNode::begin_interval(self, t);
    }
    fn arrive(&mut self, now: f64, demand: Demand) {
        ServiceNode::arrive(self, now, demand);
    }
    fn next_completion(&self) -> Option<f64> {
        ServiceNode::next_completion(self)
    }
    fn advance(&mut self, to: f64) {
        ServiceNode::advance(self, to);
    }
    fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        ServiceNode::advance_collect(self, to, out);
    }
    fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        ServiceNode::end_interval(self, t_end, p)
    }
}

impl EventNode for ReferenceNode {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        ReferenceNode::reconfigure(self, now, specs, preempt, stall_s);
    }
    fn begin_interval(&mut self, t: f64) {
        ReferenceNode::begin_interval(self, t);
    }
    fn arrive(&mut self, now: f64, demand: Demand) {
        ReferenceNode::arrive(self, now, demand);
    }
    fn next_completion(&self) -> Option<f64> {
        ReferenceNode::next_completion(self)
    }
    fn advance(&mut self, to: f64) {
        ReferenceNode::advance(self, to);
    }
    fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        ReferenceNode::advance_collect(self, to, out);
    }
    fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        ReferenceNode::end_interval(self, t_end, p)
    }
}

/// The thinking-pool API surface of the closed-loop driver.
trait Pool {
    fn push(&mut self, expiry: f64);
    fn peek_min(&self) -> Option<f64>;
    fn pop_min(&mut self) -> Option<f64>;
    fn len(&self) -> usize;
}

impl Pool for ThinkPool {
    fn push(&mut self, expiry: f64) {
        ThinkPool::push(self, expiry);
    }
    fn peek_min(&self) -> Option<f64> {
        ThinkPool::peek_min(self)
    }
    fn pop_min(&mut self) -> Option<f64> {
        ThinkPool::pop_min(self)
    }
    fn len(&self) -> usize {
        ThinkPool::len(self)
    }
}

impl Pool for ReferenceThinkPool {
    fn push(&mut self, expiry: f64) {
        ReferenceThinkPool::push(self, expiry);
    }
    fn peek_min(&self) -> Option<f64> {
        ReferenceThinkPool::peek_min(self)
    }
    fn pop_min(&mut self) -> Option<f64> {
        ReferenceThinkPool::pop_min(self)
    }
    fn len(&self) -> usize {
        ReferenceThinkPool::len(self)
    }
}

/// One measured run of one implementation over one cell.
struct Measured {
    /// Processed simulation events (arrivals + completions + timeouts).
    events: u64,
    intervals: usize,
    wall_s: f64,
    /// Per-interval `(arrivals, completions, timeouts, tail bit pattern)` —
    /// compared across implementations to guarantee both ran the *same*
    /// simulation.
    checksum: Vec<(usize, usize, usize, u64)>,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
    fn intervals_per_sec(&self) -> f64 {
        self.intervals as f64 / self.wall_s.max(1e-9)
    }
}

fn big_specs(model: &LcWorkload, servers: usize) -> Vec<ServerSpec> {
    let freq = Frequency::from_mhz(1150);
    let speed = model.service_speed(CoreKind::Big, freq);
    vec![
        ServerSpec {
            kind: CoreKind::Big,
            freq,
            speed,
            slowdown: 1.0,
        };
        servers
    ]
}

/// Mean service time of one request on one big server (sampled — the
/// demand distribution is lognormal, so closed-form means are per-model).
fn mean_service_s(model: &LcWorkload) -> f64 {
    let freq = Frequency::from_mhz(1150);
    let speed = model.service_speed(CoreKind::Big, freq);
    let mut rng = SimRng::seed(7);
    let n = 20_000;
    let total: f64 = (0..n)
        .map(|_| {
            let d = model.sample_demand(&mut rng);
            d.work / speed + d.mem_s
        })
        .sum();
    total / n as f64
}

/// Open-loop driver: Poisson arrival events carrying workload bursts, one
/// static configuration, `intervals` monitoring intervals of `interval_s`.
/// Mirrors `Engine::run_events` without the platform measurement apparatus.
fn drive_open<N: EventNode>(
    node: &mut N,
    model: &LcWorkload,
    servers: usize,
    rate_rps: f64,
    interval_s: f64,
    intervals: usize,
    seed: u64,
) -> Measured {
    let specs = big_specs(model, servers);
    let mut arrival_rng = SimRng::seed(seed);
    let mut demand_rng = SimRng::seed(seed ^ 0x9e3779b97f4a7c15);
    let event_rate = rate_rps / model.mean_burst().max(1.0);
    let iat = Exponential::new(event_rate);
    let start = Instant::now();
    node.reconfigure(0.0, &specs, true, 0.0);
    let mut now = 0.0f64;
    let mut next_arrival = now + iat.sample(&mut arrival_rng);
    let mut checksum = Vec::with_capacity(intervals);
    let mut events = 0u64;
    for _ in 0..intervals {
        node.begin_interval(now);
        let t_end = now + interval_s;
        loop {
            let t = match node.next_completion() {
                Some(tc) if tc < next_arrival => tc.min(t_end),
                _ => next_arrival.min(t_end),
            };
            node.advance(t);
            if t >= t_end {
                break;
            }
            if t == next_arrival {
                let burst = model.sample_burst(&mut demand_rng).max(1);
                for _ in 0..burst {
                    let demand = model.sample_demand(&mut demand_rng);
                    node.arrive(t, demand);
                }
                next_arrival = t + iat.sample(&mut arrival_rng);
            }
        }
        now = t_end;
        let iv = node.end_interval(t_end, TAIL_P);
        events += (iv.arrivals + iv.completions + iv.timeouts) as u64;
        checksum.push((
            iv.arrivals,
            iv.completions,
            iv.timeouts,
            iv.tail_latency_s.to_bits(),
        ));
    }
    Measured {
        events,
        intervals,
        wall_s: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Closed-loop driver: a fixed population of `clients` in a submit → wait →
/// think cycle. Mirrors `Engine::run_events_closed` without the platform
/// measurement apparatus.
fn drive_closed<N: EventNode, P: Pool>(
    node: &mut N,
    pool: &mut P,
    model: &LcWorkload,
    servers: usize,
    clients: usize,
    think_mean_s: f64,
    interval_s: f64,
    intervals: usize,
    seed: u64,
) -> Measured {
    let specs = big_specs(model, servers);
    let mut arrival_rng = SimRng::seed(seed);
    let mut demand_rng = SimRng::seed(seed ^ 0x9e3779b97f4a7c15);
    let think = Exponential::new(1.0 / think_mean_s.max(1e-9));
    let start = Instant::now();
    node.reconfigure(0.0, &specs, true, 0.0);
    let mut now = 0.0f64;
    while pool.len() < clients {
        pool.push(now + think.sample(&mut arrival_rng));
    }
    let mut checksum = Vec::with_capacity(intervals);
    let mut events = 0u64;
    let mut completions = Vec::new();
    for _ in 0..intervals {
        node.begin_interval(now);
        let t_end = now + interval_s;
        loop {
            let mut t = t_end;
            let mut submit = false;
            if let Some(tc) = node.next_completion() {
                if tc < t {
                    t = tc;
                }
            }
            if let Some(tk) = pool.peek_min() {
                if tk < t {
                    t = tk;
                    submit = true;
                }
            }
            completions.clear();
            node.advance_collect(t, &mut completions);
            for &ct in &completions {
                pool.push(ct + think.sample(&mut arrival_rng));
            }
            if t >= t_end && !submit {
                break;
            }
            if submit {
                pool.pop_min().expect("think expiry exists");
                let demand = model.sample_demand(&mut demand_rng);
                node.arrive(t, demand);
            }
        }
        now = t_end;
        let iv = node.end_interval(t_end, TAIL_P);
        events += (iv.arrivals + iv.completions + iv.timeouts) as u64;
        checksum.push((
            iv.arrivals,
            iv.completions,
            iv.timeouts,
            iv.tail_latency_s.to_bits(),
        ));
    }
    Measured {
        events,
        intervals,
        wall_s: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// One scenario cell of the bench matrix.
struct Cell {
    name: String,
    mode: &'static str,
    servers: usize,
    clients: Option<usize>,
    offered_rps: f64,
    interval_s: f64,
    intervals: usize,
    new: Measured,
    reference: Measured,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.new.events_per_sec() / self.reference.events_per_sec().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"mode\":\"{}\",\"servers\":{},\"clients\":{},",
                "\"offered_rps\":{:.1},\"interval_s\":{},\"intervals\":{},",
                "\"events\":{},\"wall_s\":{:.6},\"events_per_sec\":{:.1},",
                "\"intervals_per_sec\":{:.3},",
                "\"reference\":{{\"events\":{},\"wall_s\":{:.6},",
                "\"events_per_sec\":{:.1},\"intervals_per_sec\":{:.3}}},",
                "\"speedup\":{:.2}}}"
            ),
            self.name,
            self.mode,
            self.servers,
            self.clients.map_or("null".into(), |c| c.to_string()),
            self.offered_rps,
            self.interval_s,
            self.intervals,
            self.new.events,
            self.new.wall_s,
            self.new.events_per_sec(),
            self.new.intervals_per_sec(),
            self.reference.events,
            self.reference.wall_s,
            self.reference.events_per_sec(),
            self.reference.intervals_per_sec(),
            self.speedup(),
        )
    }
}

fn check_equivalence(name: &str, new: &Measured, reference: &Measured) {
    assert_eq!(
        new.checksum, reference.checksum,
        "{name}: heap-indexed and reference implementations diverged — \
         the bench drove two different simulations"
    );
}

/// Whether a cell named `name` is selected by the `--only` prefix filter.
fn selected(only: Option<&str>, name: &str) -> bool {
    only.is_none_or(|prefix| name.starts_with(prefix))
}

/// Runs the bench matrices, writing `BENCH_PR3.json` (event core),
/// `BENCH_PR4.json` (control plane + fleet scheduling), `BENCH.jsonl`
/// (node scale: production node vs scan oracle) and `BENCH_PR7.json`
/// (cluster dispatch at scale). With `smoke`, runs the same cells over
/// fewer simulated intervals (seconds, for CI). With `only`, runs just
/// the cells whose name starts with the prefix; a results file is only
/// rewritten when at least one of its cells ran.
pub fn run(smoke: bool, only: Option<&str>) {
    run_event_core(smoke, only);
    run_control_plane(smoke, only);
    run_node_scale(smoke, only);
    run_cluster_scale(smoke, only);
}

/// The PR3 event-core matrix → `BENCH_PR3.json`.
fn run_event_core(smoke: bool, only: Option<&str>) {
    let open_model = memcached();
    let closed_model = web_search();
    let open_intervals = if smoke { 2 } else { 10 };
    let closed_intervals = if smoke { 2 } else { 10 };
    // Open-loop cells: interval length chosen so the largest cell stays
    // around a million requests per run (Memcached requests are ~50 µs).
    let open_interval_s = 0.1;
    let closed_interval_s = 1.0;
    let t_mean_open = mean_service_s(&open_model);
    let t_mean_closed = mean_service_s(&closed_model);

    let mut cells: Vec<Cell> = Vec::new();

    for &servers in &[4usize, 16, 64] {
        let rate = UTILIZATION * servers as f64 / t_mean_open;
        let name = format!("open/memcached/s{servers}");
        if !selected(only, &name) {
            continue;
        }
        print!("  {name} ...");
        let mut node = ServiceNode::new();
        let new = drive_open(
            &mut node,
            &open_model,
            servers,
            rate,
            open_interval_s,
            open_intervals,
            42,
        );
        let mut refnode = ReferenceNode::new();
        let reference = drive_open(
            &mut refnode,
            &open_model,
            servers,
            rate,
            open_interval_s,
            open_intervals,
            42,
        );
        check_equivalence(&name, &new, &reference);
        println!(
            " {:.2} M events/s (reference {:.2} M) — {:.1}×",
            new.events_per_sec() / 1e6,
            reference.events_per_sec() / 1e6,
            new.events_per_sec() / reference.events_per_sec().max(1e-9),
        );
        cells.push(Cell {
            name,
            mode: "open",
            servers,
            clients: None,
            offered_rps: rate,
            interval_s: open_interval_s,
            intervals: open_intervals,
            new,
            reference,
        });
    }

    for &(servers, clients) in &[(4usize, 256usize), (16, 1024), (64, 4096)] {
        // Think time calibrated so offered load ≈ UTILIZATION × capacity:
        // clients / (think + t̄) = U × servers / t̄.
        let think = (t_mean_closed * clients as f64 / (UTILIZATION * servers as f64)
            - t_mean_closed)
            .max(1e-3);
        let offered = clients as f64 / (think + t_mean_closed);
        let name = format!("closed/web-search/c{clients}");
        if !selected(only, &name) {
            continue;
        }
        print!("  {name} ...");
        let mut node = ServiceNode::new();
        let mut pool = ThinkPool::new();
        let new = drive_closed(
            &mut node,
            &mut pool,
            &closed_model,
            servers,
            clients,
            think,
            closed_interval_s,
            closed_intervals,
            43,
        );
        let mut refnode = ReferenceNode::new();
        let mut refpool = ReferenceThinkPool::new();
        let reference = drive_closed(
            &mut refnode,
            &mut refpool,
            &closed_model,
            servers,
            clients,
            think,
            closed_interval_s,
            closed_intervals,
            43,
        );
        check_equivalence(&name, &new, &reference);
        println!(
            " {:.2} M events/s (reference {:.2} M) — {:.1}×",
            new.events_per_sec() / 1e6,
            reference.events_per_sec() / 1e6,
            new.events_per_sec() / reference.events_per_sec().max(1e-9),
        );
        cells.push(Cell {
            name,
            mode: "closed",
            servers,
            clients: Some(clients),
            offered_rps: offered,
            interval_s: closed_interval_s,
            intervals: closed_intervals,
            new,
            reference,
        });
    }

    if cells.is_empty() {
        return; // --only matched nothing here; leave the file alone
    }
    let body: Vec<String> = cells.iter().map(Cell::json).collect();
    let json = format!(
        "{{\"bench\":\"hipster event-core throughput\",\"pr\":\"PR3\",\
         \"smoke\":{smoke},\"tail_percentile\":{TAIL_P},\
         \"utilization\":{UTILIZATION},\"cells\":[\n  {}\n]}}\n",
        body.join(",\n  ")
    );
    let path = "BENCH_PR3.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
    }

    let largest = cells.last().expect("cells are non-empty");
    println!(
        "\nlargest cell ({}): {:.2}× events/sec over the pre-PR3 engine",
        largest.name,
        largest.speedup()
    );
}

// ---------------------------------------------------------------------
// PR4: control-plane + fleet-scheduling cells → BENCH_PR4.json
// ---------------------------------------------------------------------

/// Q-learning constants of the control kernel (the paper's α, a mid γ).
const CONTROL_ALPHA: f64 = 0.6;
const CONTROL_GAMMA: f64 = 0.9;

/// One measured run of the interval-granularity control kernel.
struct ControlMeasured {
    intervals: usize,
    wall_s: f64,
    /// Chosen action index per interval — must match across
    /// implementations (the argmax tie-breaks are part of the contract).
    choices: Vec<u32>,
    /// Final table serialized — must match bit-for-bit.
    table_tsv: String,
}

impl ControlMeasured {
    fn intervals_per_sec(&self) -> f64 {
        self.intervals as f64 / self.wall_s.max(1e-9)
    }
}

/// Precomputed per-interval inputs, identical for both implementations
/// (generated outside the timed region so the kernel is all that is
/// measured).
fn control_inputs(intervals: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::seed(seed);
    let mut loads = Vec::with_capacity(intervals);
    let mut rewards = Vec::with_capacity(intervals);
    for i in 0..intervals {
        // A diurnal-ish load walk with noise, spilling into overload so
        // the top bucket and the clamp path are exercised.
        let t = i as f64 / 997.0 * std::f64::consts::TAU;
        let load = 0.55 + 0.4 * t.sin() + 0.15 * (rng.uniform() - 0.5);
        loads.push(load.clamp(0.0, 1.2));
        // Rewards cross zero so `has_positive_entry` flips both ways.
        rewards.push(rng.uniform_in(-2.0, 8.0));
    }
    (loads, rewards)
}

/// The per-interval control path of the manager+policy stack, dense
/// edition: bucketize (reciprocal multiply) → indexed Q-update
/// (bootstrapping over the whole ladder) → `any_positive`/argmax row
/// scans. Rank arithmetic is the index itself.
fn drive_control_dense(
    space: ConfigSpace,
    width: f64,
    loads: &[f64],
    rewards: &[f64],
) -> ControlMeasured {
    let n = space.len();
    let buckets = LoadBuckets::new(width);
    let mut table = QTable::for_space(space);
    let mut choices = Vec::with_capacity(loads.len());
    let mut prev: Option<(u32, usize)> = None;
    let start = Instant::now();
    for (i, &load) in loads.iter().enumerate() {
        let w = buckets.bucket(load);
        if let Some((pw, pc)) = prev {
            table.update_indexed(pw, pc, rewards[i], w, CONTROL_ALPHA, CONTROL_GAMMA);
        }
        let choice = if table.any_positive(w) {
            table.best_index(w).expect("non-empty ladder")
        } else {
            n - 1 // unexplored: hold the conservative ladder top
        };
        choices.push(choice as u32);
        prev = Some((w, choice));
    }
    let wall_s = start.elapsed().as_secs_f64();
    ControlMeasured {
        intervals: loads.len(),
        wall_s,
        choices,
        table_tsv: table.to_tsv(),
    }
}

/// The same control path as the pre-PR4 stack ran it: hash-map Q-table
/// keyed on `(bucket, CoreConfig)`, argmax/positivity scans over the
/// action slice (a hash per action), and the `position()` rank scan the
/// old stabilizer paid to turn the chosen configuration back into a
/// ladder rank.
fn drive_control_reference(
    actions: &[CoreConfig],
    width: f64,
    loads: &[f64],
    rewards: &[f64],
) -> ControlMeasured {
    let buckets = LoadBuckets::new(width);
    let mut table = ReferenceQTable::new();
    let mut choices = Vec::with_capacity(loads.len());
    let mut prev: Option<(u32, CoreConfig)> = None;
    let start = Instant::now();
    for (i, &load) in loads.iter().enumerate() {
        let w = buckets.bucket(load);
        if let Some((pw, pc)) = prev {
            table.update(pw, pc, rewards[i], w, actions, CONTROL_ALPHA, CONTROL_GAMMA);
        }
        let choice_cfg = if table.has_positive_entry(w, actions) {
            table.best_action(w, actions).expect("non-empty ladder")
        } else {
            *actions.last().expect("non-empty ladder")
        };
        let rank = actions
            .iter()
            .position(|c| *c == choice_cfg)
            .expect("choice comes from the ladder");
        choices.push(rank as u32);
        prev = Some((w, choice_cfg));
    }
    let wall_s = start.elapsed().as_secs_f64();
    ControlMeasured {
        intervals: loads.len(),
        wall_s,
        choices,
        table_tsv: table.to_tsv(),
    }
}

/// One control-plane cell (one bucket width).
struct ControlCell {
    name: String,
    bucket_width: f64,
    buckets: usize,
    actions: usize,
    new: ControlMeasured,
    reference: ControlMeasured,
}

impl ControlCell {
    fn speedup(&self) -> f64 {
        self.new.intervals_per_sec() / self.reference.intervals_per_sec().max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"bucket_width\":{},\"buckets\":{},",
                "\"actions\":{},\"intervals\":{},\"wall_s\":{:.6},",
                "\"intervals_per_sec\":{:.1},",
                "\"reference\":{{\"wall_s\":{:.6},\"intervals_per_sec\":{:.1}}},",
                "\"speedup\":{:.2}}}"
            ),
            self.name,
            self.bucket_width,
            self.buckets,
            self.actions,
            self.new.intervals,
            self.new.wall_s,
            self.new.intervals_per_sec(),
            self.reference.wall_s,
            self.reference.intervals_per_sec(),
            self.speedup(),
        )
    }
}

/// Worker threads the fleet cells request. The scheduler caps at the
/// scenario count; on boxes with fewer cores the OS time-shares, which
/// still exercises (and measures) both schedulers' idle tails.
const FLEET_WORKERS: usize = 4;

/// Declares one (config, load) heatmap cell: Memcached at constant
/// `load`, pinned to `config` — the fig. 2/3 measurement shape. Cost
/// scales with `load`, so a sweep is exactly the heterogeneous,
/// straggler-prone batch a static partition handles worst.
fn heatmap_spec(config: CoreConfig, load: f64, intervals: usize, interval_s: f64) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("bench/heatmap/{config}@{load:.3}"),
        Platform::juno_r1(),
    )
    .workload_with(|| Box::new(memcached()))
    .load(Constant::new(load, intervals as f64 * interval_s))
    .policy(move |_: &Platform, _| Box::new(StaticPolicy::new(config)) as Box<dyn Policy>)
    .intervals(intervals)
    .interval_s(interval_s)
}

/// Builds the `scenarios`-cell heatmap fleet (side × side grid over
/// load levels × ladder configurations). Declared load-major, like the
/// repo's fig. 2/3 sweeps measure one load level at a time — which means
/// a static partition hands one worker the near-saturation rows while
/// another gets the cheap ones.
fn heatmap_fleet(scenarios: usize, intervals: usize, interval_s: f64) -> Fleet {
    let ladder = power_ladder(&Platform::juno_r1());
    let side = (scenarios as f64).sqrt().round() as usize;
    assert_eq!(side * side, scenarios, "heatmap cells must be square");
    let mut fleet = Fleet::new();
    for li in 0..side {
        let load = 0.1 + 0.9 * li as f64 / (side - 1).max(1) as f64;
        for ci in 0..side {
            // Spread across the whole ladder, cheapest to priciest.
            let config = ladder[ci * (ladder.len() - 1) / (side - 1).max(1)];
            fleet.push(heatmap_spec(config, load, intervals, interval_s));
        }
    }
    fleet.threads(FLEET_WORKERS).base_seed(4)
}

/// One measured scheduler run over one fleet size.
struct FleetMeasured {
    wall_s: f64,
    workers: usize,
    /// Finish-time spread of the workers (`FleetStats::idle_tail_frac`).
    idle_tail_frac: f64,
    /// Digest of every outcome (name, seed, trace CSV) in declaration
    /// order — compared across schedulers to guarantee both ran the same
    /// sweep.
    digest: u64,
}

/// FNV-1a over the outcome stream.
fn fleet_digest(outcomes: &[hipster_core::ScenarioOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        eat(o.name.as_bytes());
        eat(&o.seed.to_le_bytes());
        eat(o.trace.to_csv().as_bytes());
    }
    h
}

/// One fleet-scheduling cell (one sweep size).
struct FleetCell {
    name: String,
    scenarios: usize,
    intervals: usize,
    interval_s: f64,
    new: FleetMeasured,
    reference: FleetMeasured,
}

impl FleetCell {
    fn speedup(&self) -> f64 {
        self.reference.wall_s / self.new.wall_s.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"scenarios\":{},\"workers\":{},",
                "\"intervals_per_scenario\":{},\"interval_s\":{},",
                "\"wall_s\":{:.6},\"idle_tail_frac\":{:.4},",
                "\"reference\":{{\"wall_s\":{:.6},\"idle_tail_frac\":{:.4}}},",
                "\"speedup\":{:.2}}}"
            ),
            self.name,
            self.scenarios,
            self.new.workers,
            self.intervals,
            self.interval_s,
            self.new.wall_s,
            self.new.idle_tail_frac,
            self.reference.wall_s,
            self.reference.idle_tail_frac,
            self.speedup(),
        )
    }
}

/// The PR4 matrix → `BENCH_PR4.json`.
fn run_control_plane(smoke: bool, only: Option<&str>) {
    // Control-plane cells: the paper deploys 2–4% buckets for Memcached
    // and 3–9% for Web-Search; 3%/5%/10% spans that range (3% = most
    // buckets = the largest cell).
    let control_intervals = if smoke { 20_000 } else { 400_000 };
    let ladder = power_ladder(&Platform::juno_r1());
    let mut control_cells: Vec<ControlCell> = Vec::new();
    for &(tag, width) in &[("b3", 0.03), ("b5", 0.05), ("b10", 0.10)] {
        let name = format!("control/qpath/{tag}");
        if !selected(only, &name) {
            continue;
        }
        print!("  {name} ...");
        let (loads, rewards) = control_inputs(control_intervals, 0x51);
        let new = drive_control_dense(ConfigSpace::new(ladder.clone()), width, &loads, &rewards);
        let reference = drive_control_reference(&ladder, width, &loads, &rewards);
        assert_eq!(
            new.choices, reference.choices,
            "{name}: dense and map-backed control paths chose different actions"
        );
        assert_eq!(
            new.table_tsv, reference.table_tsv,
            "{name}: dense and map-backed tables diverged"
        );
        println!(
            " {:.2} M intervals/s (reference {:.2} M) — {:.1}×",
            new.intervals_per_sec() / 1e6,
            reference.intervals_per_sec() / 1e6,
            new.intervals_per_sec() / reference.intervals_per_sec().max(1e-9),
        );
        control_cells.push(ControlCell {
            name,
            bucket_width: width,
            buckets: LoadBuckets::new(width).num_buckets(),
            actions: ladder.len(),
            new,
            reference,
        });
    }

    // Fleet cells: 64/256/1024-scenario heatmap sweeps, work-stealing vs
    // the static-partition baseline scheduler.
    let (fleet_intervals, fleet_interval_s) = if smoke { (1, 0.02) } else { (6, 0.1) };
    let mut fleet_cells: Vec<FleetCell> = Vec::new();
    for &scenarios in &[64usize, 256, 1024] {
        let name = format!("fleet/heatmap/s{scenarios}");
        if !selected(only, &name) {
            continue;
        }
        print!("  {name} ...");
        let start = Instant::now();
        let (outcomes, stats) = heatmap_fleet(scenarios, fleet_intervals, fleet_interval_s)
            .run_with_stats()
            .expect("valid heatmap fleet");
        let wall = start.elapsed().as_secs_f64();
        let new = FleetMeasured {
            wall_s: wall,
            workers: stats.workers,
            idle_tail_frac: stats.idle_tail_frac(),
            digest: fleet_digest(&outcomes),
        };
        drop(outcomes);
        let start = Instant::now();
        let (ref_outcomes, ref_stats) =
            run_static_chunked(heatmap_fleet(scenarios, fleet_intervals, fleet_interval_s))
                .expect("valid heatmap fleet");
        let wall = start.elapsed().as_secs_f64();
        let reference = FleetMeasured {
            wall_s: wall,
            workers: ref_stats.workers,
            idle_tail_frac: ref_stats.idle_tail_frac(),
            digest: fleet_digest(&ref_outcomes),
        };
        assert_eq!(
            new.digest, reference.digest,
            "{name}: work-stealing and static-chunk schedulers produced different sweeps"
        );
        println!(
            " {:.2}s, idle tail {:.1}% (static chunks {:.2}s, idle tail {:.1}%) — {:.2}×",
            new.wall_s,
            new.idle_tail_frac * 100.0,
            reference.wall_s,
            reference.idle_tail_frac * 100.0,
            reference.wall_s / new.wall_s.max(1e-9),
        );
        fleet_cells.push(FleetCell {
            name,
            scenarios,
            intervals: fleet_intervals,
            interval_s: fleet_interval_s,
            new,
            reference,
        });
    }

    if control_cells.is_empty() && fleet_cells.is_empty() {
        return; // --only matched nothing here; leave the file alone
    }
    let control_body: Vec<String> = control_cells.iter().map(ControlCell::json).collect();
    let fleet_body: Vec<String> = fleet_cells.iter().map(FleetCell::json).collect();
    let json = format!(
        "{{\"bench\":\"hipster control plane + fleet scheduling\",\"pr\":\"PR4\",\
         \"smoke\":{smoke},\"alpha\":{CONTROL_ALPHA},\"gamma\":{CONTROL_GAMMA},\
         \"control_cells\":[\n  {}\n],\"fleet_cells\":[\n  {}\n]}}\n",
        control_body.join(",\n  "),
        fleet_body.join(",\n  ")
    );
    let path = "BENCH_PR4.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
    }

    if let Some(largest) = control_cells.first() {
        println!(
            "\nlargest control-plane cell ({}): {:.2}× intervals/sec over the map-backed table",
            largest.name,
            largest.speedup()
        );
    }
    if let Some(largest_fleet) = fleet_cells.last() {
        println!(
            "largest fleet cell ({}): idle tail {:.1}% vs {:.1}% static chunking ({:.2}× wall)",
            largest_fleet.name,
            largest_fleet.new.idle_tail_frac * 100.0,
            largest_fleet.reference.idle_tail_frac * 100.0,
            largest_fleet.speedup()
        );
    }
}

// ---------------------------------------------------------------------
// Node scale: the production node vs the scan oracle → BENCH.jsonl
// ---------------------------------------------------------------------

/// Rounds of the node-scale family. Every round runs one production
/// pass of every cell (and the timed oracle passes due that round), so
/// slow machine-state drift (thermal throttling, noisy neighbours on a
/// shared runner) lands on every cell's sample set instead of skewing
/// the cells that happen to run last; each side records its median pass.
const NODE_REPS: usize = 15;

/// The `closed/web-search/c4096` scan oracle takes seconds per pass, so
/// it is timed only every this many rounds (3 passes in a full run).
const C4096_ORACLE_EVERY: usize = 5;

/// Flatness floor: a cell's events/sec at the small end of a scale pair
/// may exceed the large end's by at most this factor.
const FLATNESS_FLOOR: f64 = 1.3;

/// Events/sec of the frozen PR 5 packed-heap node over the scan oracle on
/// the Juno cell — the median passes of one interleaved run (15 rounds,
/// the c4096 scan oracle timed every fifth) at the last commit that
/// still had the heap node (2-vCPU x86-64 VM). The Juno floor was 0.85× the heap node, so on the
/// scan oracle it is [`JUNO_FLOOR`] = 0.85 × this factor.
const JUNO_HEAP_OVER_SCAN: f64 = 1.6259;

/// Juno cell floor: production ÷ scan events/sec, 0.85 ×
/// [`JUNO_HEAP_OVER_SCAN`] written out (so it renders as written).
const JUNO_FLOOR: f64 = 1.382015;
const _: () = assert!(
    JUNO_FLOOR >= 0.85 * JUNO_HEAP_OVER_SCAN && JUNO_FLOOR - 0.85 * JUNO_HEAP_OVER_SCAN < 1e-12
);

/// The same factor on `closed/web-search/c4096` (heap node + heap think
/// pool over the scan node + scan pool), from the same run. The PR 6
/// end-to-end floor there was 1.0× the heap pair.
const C4096_HEAP_OVER_SCAN: f64 = 142.3778;

/// Name of the Juno-node cell.
const JUNO_CELL: &str = "open/memcached-juno/s6";

/// Offered load of the Juno cell, as a fraction of its mean capacity.
const JUNO_LOAD: f64 = 0.6;

/// Pre-generates the open-loop arrival stream one interval at a time —
/// the same RNG draw sequence as [`drive_open`], but outside the timed
/// region, so the node-scale cells measure the event core rather than
/// the workload sampler (the same hoist the PR4 control cells make with
/// [`control_inputs`]).
struct OpenStreamGen<'m> {
    model: &'m LcWorkload,
    arrival_rng: SimRng,
    demand_rng: SimRng,
    iat: Exponential,
    next_arrival: f64,
}

impl<'m> OpenStreamGen<'m> {
    fn new(model: &'m LcWorkload, rate_rps: f64, seed: u64) -> Self {
        let mut arrival_rng = SimRng::seed(seed);
        let iat = Exponential::new(rate_rps / model.mean_burst().max(1.0));
        let next_arrival = iat.sample(&mut arrival_rng);
        OpenStreamGen {
            model,
            arrival_rng,
            demand_rng: SimRng::seed(seed ^ 0x9e3779b97f4a7c15),
            iat,
            next_arrival,
        }
    }

    /// Fills `out` with every `(arrival time, demand)` of the interval
    /// ending at `t_end` (bursts flattened; all requests of a burst share
    /// the burst's arrival time, exactly as the inline driver delivers
    /// them). An arrival landing on `t_end` is deferred to the next
    /// interval, as the inline driver's `t >= t_end` break does.
    fn gen_interval(&mut self, t_end: f64, out: &mut Vec<(f64, Demand)>) {
        out.clear();
        while self.next_arrival < t_end {
            let t = self.next_arrival;
            let burst = self.model.sample_burst(&mut self.demand_rng).max(1);
            for _ in 0..burst {
                out.push((t, self.model.sample_demand(&mut self.demand_rng)));
            }
            self.next_arrival = t + self.iat.sample(&mut self.arrival_rng);
        }
    }
}

/// One timed pass of the open-loop replay: identical event delivery to
/// [`drive_open`] (same completion-vs-arrival precedence, same boundary
/// semantics), but consuming a pre-generated arrival stream. When
/// `dvfs_specs` is non-empty, every interval boundary after the first
/// applies the next ladder step as a DVFS-style rescale (no preemption,
/// no stall) *inside* the timed region — per-interval reconfiguration
/// cost is part of what the Juno cell measures.
#[allow(clippy::too_many_arguments)]
fn replay_open<N: EventNode>(
    node: &mut N,
    specs: &[ServerSpec],
    dvfs_specs: &[Vec<ServerSpec>],
    gen: &mut OpenStreamGen<'_>,
    buf: &mut Vec<(f64, Demand)>,
    interval_s: f64,
    intervals: usize,
) -> Measured {
    node.reconfigure(0.0, specs, true, 0.0);
    let mut now = 0.0f64;
    let mut wall_s = 0.0f64;
    let mut checksum = Vec::with_capacity(intervals);
    let mut events = 0u64;
    for iv_idx in 0..intervals {
        let t_end = now + interval_s;
        gen.gen_interval(t_end, buf);
        let start = Instant::now();
        node.begin_interval(now);
        if iv_idx > 0 && !dvfs_specs.is_empty() {
            node.reconfigure(now, &dvfs_specs[iv_idx % dvfs_specs.len()], false, 0.0);
        }
        let mut i = 0;
        loop {
            let a = if i < buf.len() {
                buf[i].0
            } else {
                f64::INFINITY
            };
            let t = match node.next_completion() {
                Some(tc) if tc < a => tc.min(t_end),
                _ => a.min(t_end),
            };
            node.advance(t);
            if t >= t_end {
                break;
            }
            if t == a {
                while i < buf.len() && buf[i].0 == t {
                    node.arrive(t, buf[i].1);
                    i += 1;
                }
            }
        }
        let iv = node.end_interval(t_end, TAIL_P);
        wall_s += start.elapsed().as_secs_f64();
        now = t_end;
        events += (iv.arrivals + iv.completions + iv.timeouts) as u64;
        checksum.push((
            iv.arrivals,
            iv.completions,
            iv.timeouts,
            iv.tail_latency_s.to_bits(),
        ));
    }
    Measured {
        events,
        intervals,
        wall_s,
        checksum,
    }
}

/// Mean offered capacity (requests/sec) of a spec ladder: the average
/// over its steps of the sum of per-server service rates. The Juno cell
/// offers [`JUNO_LOAD`] × this, so the load regime holds while speeds
/// move underneath it.
fn ladder_capacity_rps(model: &LcWorkload, ladder: &[Vec<ServerSpec>]) -> f64 {
    let mut rng = SimRng::seed(7);
    let n = 20_000;
    let (mut work, mut mem) = (0.0f64, 0.0f64);
    for _ in 0..n {
        let d = model.sample_demand(&mut rng);
        work += d.work;
        mem += d.mem_s;
    }
    let (work, mem) = (work / n as f64, mem / n as f64);
    let total: f64 = ladder
        .iter()
        .map(|specs| {
            specs
                .iter()
                .map(|s| 1.0 / ((work / s.speed + mem) * s.slowdown))
                .sum::<f64>()
        })
        .sum();
    total / ladder.len() as f64
}

/// One timed pass of the closed-loop replay: identical event delivery to
/// [`drive_closed`] (same completion-vs-think precedence, same boundary
/// semantics), but consuming pre-generated sampling streams — `thinks`
/// and `demands` are the iid draw sequences [`drive_closed`] would pull
/// from its RNGs, consumed in the same order by cursor — so the cell
/// times the event core (queue + node) rather than the lognormal /
/// exponential samplers. The same hoist [`replay_open`] makes for the
/// open-loop cells.
#[allow(clippy::too_many_arguments)]
fn replay_closed<N: EventNode, P: Pool>(
    node: &mut N,
    pool: &mut P,
    specs: &[ServerSpec],
    thinks: &[f64],
    demands: &[Demand],
    clients: usize,
    interval_s: f64,
    intervals: usize,
) -> Measured {
    let (mut ti, mut di) = (0usize, 0usize);
    let start = Instant::now();
    node.reconfigure(0.0, specs, true, 0.0);
    let mut now = 0.0f64;
    while pool.len() < clients {
        pool.push(now + thinks[ti]);
        ti += 1;
    }
    let mut checksum = Vec::with_capacity(intervals);
    let mut events = 0u64;
    let mut completions = Vec::new();
    for _ in 0..intervals {
        node.begin_interval(now);
        let t_end = now + interval_s;
        loop {
            let mut t = t_end;
            let mut submit = false;
            if let Some(tc) = node.next_completion() {
                if tc < t {
                    t = tc;
                }
            }
            if let Some(tk) = pool.peek_min() {
                if tk < t {
                    t = tk;
                    submit = true;
                }
            }
            completions.clear();
            node.advance_collect(t, &mut completions);
            for &ct in &completions {
                pool.push(ct + thinks[ti]);
                ti += 1;
            }
            if t >= t_end && !submit {
                break;
            }
            if submit {
                pool.pop_min().expect("think expiry exists");
                node.arrive(t, demands[di]);
                di += 1;
            }
        }
        now = t_end;
        let iv = node.end_interval(t_end, TAIL_P);
        events += (iv.arrivals + iv.completions + iv.timeouts) as u64;
        checksum.push((
            iv.arrivals,
            iv.completions,
            iv.timeouts,
            iv.tail_latency_s.to_bits(),
        ));
    }
    Measured {
        events,
        intervals,
        wall_s: start.elapsed().as_secs_f64(),
        checksum,
    }
}

/// Pre-generates the closed-loop sampling streams one untimed probe run
/// established the lengths of: think deltas are exactly
/// `clients + Σ completions` iid exponentials (one per prefill, one per
/// collected completion), demands exactly `Σ arrivals` iid draws — both
/// from the same seeds [`drive_closed`] uses, so the replay reproduces
/// the probe bit-for-bit (asserted by the caller).
fn closed_streams(
    model: &LcWorkload,
    clients: usize,
    think_mean_s: f64,
    probe: &Measured,
    seed: u64,
) -> (Vec<f64>, Vec<Demand>) {
    let arrivals: usize = probe.checksum.iter().map(|c| c.0).sum();
    let completions: usize = probe.checksum.iter().map(|c| c.1).sum();
    let think = Exponential::new(1.0 / think_mean_s.max(1e-9));
    let mut arrival_rng = SimRng::seed(seed);
    let mut demand_rng = SimRng::seed(seed ^ 0x9e3779b97f4a7c15);
    let thinks: Vec<f64> = (0..clients + completions)
        .map(|_| think.sample(&mut arrival_rng))
        .collect();
    let demands: Vec<Demand> = (0..arrivals)
        .map(|_| model.sample_demand(&mut demand_rng))
        .collect();
    (thinks, demands)
}

/// The median-wall pass of a side's timed passes (all of which must have
/// run the same simulation). On a shared machine a lone fast phase can
/// hand one side a best pass 30% below its typical one, which at the
/// Juno cell's ~70 ms passes would decide a best-of race.
fn median_pass(mut passes: Vec<Measured>) -> Measured {
    for p in &passes[1..] {
        assert_eq!(p.checksum, passes[0].checksum, "nondeterministic replay");
    }
    passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    passes.swap_remove(passes.len() / 2)
}

/// The Juno node's per-interval spec ladder: 2 big servers at 1150 MHz
/// and 4 small at 650 MHz — so never more than 6 pending completions —
/// with a uniform slowdown per interval carrying the engine's lognormal
/// interference jitter ([`DEFAULT_JITTER_SIGMA`]), the same per-interval
/// DVFS-path re-key `Engine::step` issues.
fn juno_ladder(model: &LcWorkload, intervals: usize) -> Vec<Vec<ServerSpec>> {
    let mut jitter = SimRng::seed(61);
    (0..intervals)
        .map(|_| {
            // Box–Muller, as the engine draws its interference factor.
            let u1 = 1.0 - jitter.uniform();
            let u2 = jitter.uniform();
            let z = (-2.0 * math::ln(u1)).sqrt() * math::cos_2pi(u2);
            let slowdown = math::exp(DEFAULT_JITTER_SIGMA * z).max(1.0);
            let spec = |kind, mhz| {
                let freq = Frequency::from_mhz(mhz);
                ServerSpec {
                    kind,
                    freq,
                    speed: model.service_speed(kind, freq),
                    slowdown,
                }
            };
            let mut specs = vec![spec(CoreKind::Big, 1150); 2];
            specs.extend([spec(CoreKind::Small, 650); 4]);
            specs
        })
        .collect()
}

/// The pre-generated input of one node-scale cell.
enum NodeStream {
    /// Open-loop Memcached arrivals at `rate` from `seed`; a non-empty
    /// `dvfs` ladder re-keys the node at every interval boundary.
    Open {
        specs: Vec<ServerSpec>,
        dvfs: Vec<Vec<ServerSpec>>,
        rate: f64,
        seed: u64,
    },
    /// Closed-loop Web-Search clients replaying recorded draw streams.
    Closed {
        specs: Vec<ServerSpec>,
        clients: usize,
        thinks: Vec<f64>,
        demands: Vec<Demand>,
    },
}

/// How a node-scale cell uses the scan oracle.
#[derive(Clone, Copy)]
enum OracleUse {
    /// Timed every `every` rounds: the cell's floor is the production
    /// node's events/sec over the oracle's, at least `floor`.
    Timed { every: usize, floor: f64 },
    /// Run once untimed over the first `intervals` intervals of the same
    /// stream, its digests compared with the production passes' — for
    /// cells whose floor compares the production node with itself, and
    /// whose full stream would keep the O(n)-per-event oracle busy for
    /// minutes.
    Digest { intervals: usize },
}

/// One node-scale cell: a stream, its shape, and its oracle use.
struct NodePlan {
    name: String,
    stream: NodeStream,
    interval_s: f64,
    intervals: usize,
    oracle: OracleUse,
}

impl NodePlan {
    /// One pass of `node` (+ `pool`, closed loop only) over the cell's
    /// first `intervals` intervals.
    fn pass<N: EventNode, P: Pool>(
        &self,
        model: &LcWorkload,
        node: &mut N,
        pool: &mut P,
        buf: &mut Vec<(f64, Demand)>,
        intervals: usize,
    ) -> Measured {
        match &self.stream {
            NodeStream::Open {
                specs,
                dvfs,
                rate,
                seed,
            } => {
                let mut gen = OpenStreamGen::new(model, *rate, *seed);
                replay_open(node, specs, dvfs, &mut gen, buf, self.interval_s, intervals)
            }
            NodeStream::Closed {
                specs,
                clients,
                thinks,
                demands,
            } => replay_closed(
                node,
                pool,
                specs,
                thinks,
                demands,
                *clients,
                self.interval_s,
                intervals,
            ),
        }
    }

    fn production(&self, model: &LcWorkload, buf: &mut Vec<(f64, Demand)>) -> Measured {
        let (mut node, mut pool) = (ServiceNode::new(), ThinkPool::new());
        self.pass(model, &mut node, &mut pool, buf, self.intervals)
    }

    fn oracle(
        &self,
        model: &LcWorkload,
        buf: &mut Vec<(f64, Demand)>,
        intervals: usize,
    ) -> Measured {
        let (mut node, mut pool) = (ReferenceNode::new(), ReferenceThinkPool::new());
        self.pass(model, &mut node, &mut pool, buf, intervals)
    }
}

/// One line of `BENCH.jsonl`: a floor and the value it binds.
struct FloorRow {
    workload: String,
    size: String,
    metric: &'static str,
    value: f64,
    /// The oracle's events/sec where the floor is a speedup over it;
    /// NaN (`null`) where the floor compares the production node with
    /// itself.
    oracle_value: f64,
    floor: f64,
    /// `"higher"` or `"lower"`: which side of the floor passes.
    better: &'static str,
}

impl FloorRow {
    fn holds(&self) -> bool {
        match self.better {
            "higher" => self.value >= self.floor,
            _ => self.value <= self.floor,
        }
    }

    fn json(&self, smoke: bool) -> String {
        JsonObj::new()
            .str("layer", "node")
            .str("workload", &self.workload)
            .str("size", &self.size)
            .str("metric", self.metric)
            .num("value", (self.value * 1e4).round() / 1e4)
            .num("oracle_value", self.oracle_value.round())
            .num("floor", self.floor)
            .str("better", self.better)
            .bool("smoke", smoke)
            .render()
    }
}

/// The node-scale family → `BENCH.jsonl`: the production [`ServiceNode`]
/// (+ [`ThinkPool`]) against the scan oracle [`ReferenceNode`] (+
/// [`ReferenceThinkPool`]) on identical pre-generated streams,
/// digest-compared (panics on divergence). Cells:
///
/// * `open/memcached/s64`, `open/memcached/s1024` — open-loop Poisson
///   arrivals at [`UTILIZATION`]; the interval length scales inversely
///   with the server count (same total simulated time per cell), holding
///   the per-interval completion batch — and with it the recorder's
///   percentile pass — constant, so the pair compares the *event path* at
///   two machine sizes;
/// * `closed/web-search/c1024`, `closed/web-search/c4096` — closed-loop
///   populations where both the completion queue and the think pool are
///   hot;
/// * [`JUNO_CELL`] — the machine every repro node actually is (see
///   [`juno_ladder`]) serving Memcached at [`JUNO_LOAD`] of its capacity,
///   re-keyed every 50 ms interval.
///
/// One line per floor, each enforced on every non-smoke run that ran its
/// cells (`--only` included; the file is still written first, so a
/// failing value is on record):
///
/// * s64→s1024 production events/sec ratio ≤ [`FLATNESS_FLOOR`];
/// * c1024→c4096 production events/sec ratio ≤ [`FLATNESS_FLOOR`];
/// * Juno production ÷ scan events/sec ≥ [`JUNO_FLOOR`] (0.85 ×
///   [`JUNO_HEAP_OVER_SCAN`]);
/// * c4096 production ÷ scan events/sec ≥ 1.0 × [`C4096_HEAP_OVER_SCAN`].
fn run_node_scale(smoke: bool, only: Option<&str>) {
    let open_model = memcached();
    let closed_model = web_search();
    let reps = if smoke { 3 } else { NODE_REPS };
    let mut plans: Vec<NodePlan> = Vec::new();

    let t_mean_open = mean_service_s(&open_model);
    for &servers in &[64usize, 1024] {
        let name = format!("open/memcached/s{servers}");
        if !selected(only, &name) {
            continue;
        }
        let scale = servers / 64;
        let intervals = if smoke { 2 } else { 10 } * scale;
        plans.push(NodePlan {
            name,
            stream: NodeStream::Open {
                specs: big_specs(&open_model, servers),
                dvfs: Vec::new(),
                rate: UTILIZATION * servers as f64 / t_mean_open,
                seed: 42,
            },
            interval_s: 0.1 / scale as f64,
            intervals,
            // The whole s64 stream, and as many events of s1024's (its
            // first 10 of 160 intervals).
            oracle: OracleUse::Digest {
                intervals: intervals.min(10),
            },
        });
    }

    let t_mean_closed = mean_service_s(&closed_model);
    let closed_intervals = if smoke { 2 } else { 10 };
    for &(servers, clients) in &[(256usize, 1024usize), (1024, 4096)] {
        let name = format!("closed/web-search/c{clients}");
        if !selected(only, &name) {
            continue;
        }
        // Think time calibrated so offered load ≈ UTILIZATION × capacity:
        // clients / (think + t̄) = U × servers / t̄.
        let think = (t_mean_closed * clients as f64 / (UTILIZATION * servers as f64)
            - t_mean_closed)
            .max(1e-3);
        // An untimed probe run fixes the stream lengths.
        let probe = drive_closed(
            &mut ServiceNode::new(),
            &mut ThinkPool::new(),
            &closed_model,
            servers,
            clients,
            think,
            1.0,
            closed_intervals,
            43,
        );
        let (thinks, demands) = closed_streams(&closed_model, clients, think, &probe, 43);
        plans.push(NodePlan {
            name,
            stream: NodeStream::Closed {
                specs: big_specs(&closed_model, servers),
                clients,
                thinks,
                demands,
            },
            interval_s: 1.0,
            intervals: closed_intervals,
            oracle: if clients == 4096 {
                OracleUse::Timed {
                    every: C4096_ORACLE_EVERY,
                    floor: C4096_HEAP_OVER_SCAN,
                }
            } else {
                OracleUse::Digest {
                    intervals: closed_intervals,
                }
            },
        });
    }

    if selected(only, JUNO_CELL) {
        let intervals = if smoke { 20 } else { 400 };
        let ladder = juno_ladder(&open_model, intervals);
        plans.push(NodePlan {
            name: JUNO_CELL.to_string(),
            stream: NodeStream::Open {
                specs: ladder[0].clone(),
                rate: JUNO_LOAD * ladder_capacity_rps(&open_model, &ladder),
                dvfs: ladder,
                seed: 61,
            },
            interval_s: 0.05,
            intervals,
            oracle: OracleUse::Timed {
                every: 1,
                floor: JUNO_FLOOR,
            },
        });
    }

    if plans.is_empty() {
        return; // --only matched nothing here; leave the file alone
    }

    let model_of = |plan: &NodePlan| match plan.stream {
        NodeStream::Open { .. } => &open_model,
        NodeStream::Closed { .. } => &closed_model,
    };
    let mut buf: Vec<(f64, Demand)> = Vec::new();
    let mut prod: Vec<Vec<Measured>> = plans.iter().map(|_| Vec::new()).collect();
    let mut oracle: Vec<Vec<Measured>> = plans.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (i, plan) in plans.iter().enumerate() {
            let model = model_of(plan);
            let timed = matches!(plan.oracle, OracleUse::Timed { every, .. } if rep % every == 0);
            // Alternate which side goes first, so neither always runs on
            // the other's warmed-up (or throttled) tail.
            if timed && rep % 2 == 1 {
                oracle[i].push(plan.oracle(model, &mut buf, plan.intervals));
            }
            prod[i].push(plan.production(model, &mut buf));
            if timed && rep % 2 == 0 {
                oracle[i].push(plan.oracle(model, &mut buf, plan.intervals));
            }
        }
    }

    let mut eps: Vec<(String, f64)> = Vec::new();
    let mut rows: Vec<FloorRow> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let new = median_pass(std::mem::take(&mut prod[i]));
        match plan.oracle {
            OracleUse::Timed { floor, .. } => {
                let reference = median_pass(std::mem::take(&mut oracle[i]));
                check_equivalence(&plan.name, &new, &reference);
                let speedup = new.events_per_sec() / reference.events_per_sec().max(1e-9);
                println!(
                    "  {} ... {:.2} M events/s (scan oracle {:.3} M) — {speedup:.2}×",
                    plan.name,
                    new.events_per_sec() / 1e6,
                    reference.events_per_sec() / 1e6,
                );
                let (workload, size) = plan
                    .name
                    .rsplit_once('/')
                    .expect("cell names end in /<size>");
                rows.push(FloorRow {
                    workload: workload.to_string(),
                    size: size.to_string(),
                    metric: "speedup_over_scan_events_per_sec",
                    value: speedup,
                    oracle_value: reference.events_per_sec(),
                    floor,
                    better: "higher",
                });
            }
            OracleUse::Digest { intervals } => {
                let reference = plan.oracle(model_of(plan), &mut buf, intervals);
                assert_eq!(
                    new.checksum[..intervals],
                    reference.checksum[..],
                    "{}: production node and scan oracle diverged",
                    plan.name
                );
                println!(
                    "  {} ... {:.2} M events/s (scan oracle digest-checked over {intervals} \
                     intervals)",
                    plan.name,
                    new.events_per_sec() / 1e6,
                );
            }
        }
        eps.push((plan.name.clone(), new.events_per_sec()));
    }

    let find = |n: &str| eps.iter().find(|(name, _)| name == n).map(|&(_, e)| e);
    for (workload, small, large) in [
        ("open/memcached", "s64", "s1024"),
        ("closed/web-search", "c1024", "c4096"),
    ] {
        let eps_at = |size| find(&format!("{workload}/{size}"));
        if let (Some(small_eps), Some(large_eps)) = (eps_at(small), eps_at(large)) {
            let ratio = small_eps / large_eps.max(1e-9);
            let size = format!("{small}/{large}");
            println!("  flatness {workload} {size}: ratio {ratio:.3} (floor {FLATNESS_FLOOR})");
            rows.push(FloorRow {
                workload: workload.to_string(),
                size,
                metric: "events_per_sec_ratio",
                value: ratio,
                oracle_value: f64::NAN,
                floor: FLATNESS_FLOOR,
                better: "lower",
            });
        }
    }

    let body: String = rows.iter().map(|r| r.json(smoke) + "\n").collect();
    let path = "BENCH.jsonl";
    match std::fs::write(path, body) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
    }
    // Floors bind on full runs only: smoke runs are seconds-long and land
    // on noisy CI machines.
    if !smoke {
        for row in &rows {
            assert!(
                row.holds(),
                "node floor: {} {} {} = {:.4} must be {} than {:.4}",
                row.workload,
                row.size,
                row.metric,
                row.value,
                row.better,
                row.floor
            );
        }
    }
}

// ---------------------------------------------------------------------------
// PR7: cluster dispatch at scale → BENCH_PR7.json
// ---------------------------------------------------------------------------

/// One cluster-dispatch cell: the dispatcher's best-of-reps wall time
/// over a fixed occupancy churn and RNG stream.
#[derive(Debug)]
struct DispatchCell {
    name: String,
    policy: &'static str,
    nodes: usize,
    decisions: u64,
    wall_s: f64,
}

impl DispatchCell {
    fn ns_per_decision(&self) -> f64 {
        self.wall_s * 1e9 / (self.decisions.max(1) as f64)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"policy\":\"{}\",\"nodes\":{},",
                "\"decisions\":{},\"ns_per_decision\":{:.2}}}"
            ),
            self.name,
            self.policy,
            self.nodes,
            self.decisions,
            self.ns_per_decision(),
        )
    }
}

/// One cluster-sweep cell: a small multi-node simulation grid executed
/// through the work-stealing task scheduler, recording the
/// wall-clock/throughput side of [`FleetStats`](hipster_core::FleetStats).
#[derive(Debug)]
struct SweepCell {
    name: String,
    nodes: usize,
    scenarios: usize,
    workers: usize,
    wall_s: f64,
    scenarios_per_sec: f64,
    idle_tail_frac: f64,
    completions: u64,
}

impl SweepCell {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"nodes\":{},\"scenarios\":{},",
                "\"workers\":{},\"wall_s\":{:.4},\"scenarios_per_sec\":{:.2},",
                "\"idle_tail_frac\":{:.4},\"completions\":{}}}"
            ),
            self.name,
            self.nodes,
            self.scenarios,
            self.workers,
            self.wall_s,
            self.scenarios_per_sec,
            self.idle_tail_frac,
            self.completions,
        )
    }
}

/// One cluster-interval cell: ms per `ClusterSim::step` of the repro's
/// `cluster_spec`, node stage serial (`threads(1)`) vs on every core
/// (`threads(0)`), best of interleaved reps.
#[derive(Debug)]
struct IntervalCell {
    name: String,
    nodes: usize,
    steps: usize,
    cores: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

impl IntervalCell {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"nodes\":{},\"steps\":{},\"cores\":{},",
                "\"serial_ms_per_step\":{:.3},\"parallel_ms_per_step\":{:.3},",
                "\"speedup\":{:.3}}}"
            ),
            self.name,
            self.nodes,
            self.steps,
            self.cores,
            self.serial_ms,
            self.parallel_ms,
            self.speedup(),
        )
    }
}

/// Builds the repro's `cluster_spec` (HipsterIn per node) with its node
/// stage on `threads` workers and steps it `steps` intervals, returning
/// mean ms per step (build excluded) and the decision digest.
fn time_cluster_steps(nodes: usize, steps: usize, threads: usize) -> (f64, u64) {
    let policy = hipster_in(Workload::Memcached.tuned_zones(), 2, 0.05);
    let mut sim = cluster::cluster_spec("bench/interval", nodes, policy, steps, 7)
        .threads(threads)
        .build()
        .expect("valid cluster spec");
    let start = Instant::now();
    for _ in 0..steps {
        sim.step();
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / steps as f64;
    (ms, sim.decision_digest())
}

/// Drives one dispatcher through `intervals` rounds of occupancy churn
/// followed by a full placement pass (`nodes × quanta` decisions each),
/// returning wall seconds. The churn is a pure hash of (interval, node);
/// each decision folds into an FNV digest, as in the recorded baseline.
fn drive_dispatch(
    d: &mut hipster_core::cluster::Dispatcher,
    nodes: usize,
    cap: u32,
    quanta: usize,
    intervals: usize,
    seed: u64,
) -> f64 {
    let mut rng = SimRng::seed(seed);
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let start = Instant::now();
    for interval in 0..intervals {
        for node in 0..nodes {
            let h = (interval as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(node as u64)
                .wrapping_mul(0xff51_afd7_ed55_8ccd);
            d.set_occupancy(node, (h % (u64::from(cap) / 2)) as u32);
        }
        for _ in 0..nodes * quanta {
            let pick = d.pick(&mut rng) as u64;
            digest = (digest ^ pick).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    std::hint::black_box(digest);
    start.elapsed().as_secs_f64()
}

/// The cluster matrix → `BENCH_PR7.json`: p2c and least-loaded dispatch
/// at 64–1024 nodes, plus work-stealing cluster sweeps with
/// wall-clock/throughput accounting.
fn run_cluster_scale(smoke: bool, only: Option<&str>) {
    use hipster_core::cluster::{DispatchPolicy, Dispatcher};

    let quanta = 4usize;
    let cap = 16u32; // matches ClusterSim's (4 × quanta).max(8) occupancy cap
    let reps = if smoke { 1 } else { 3 };
    let target_decisions = if smoke { 200_000 } else { 4_000_000 };

    // Reps are the outer loop across every dispatch cell, so a slow phase
    // of a shared machine lands on n64 and n1024 alike instead of on
    // whichever cell happened to be running — the flatness floor compares
    // cells, so drift between them must cancel.
    let mut plans: Vec<(String, DispatchPolicy, usize, usize)> = Vec::new();
    for &nodes in &[64usize, 256, 1024] {
        for (policy, tag) in [
            (DispatchPolicy::PowerOfTwo, "p2c"),
            (DispatchPolicy::LeastLoaded, "least-loaded"),
        ] {
            let name = format!("cluster/dispatch/{tag}/n{nodes}");
            if selected(only, &name) {
                let intervals = (target_decisions / (nodes * quanta)).max(8);
                plans.push((name, policy, nodes, intervals));
            }
        }
    }
    let mut best = vec![f64::INFINITY; plans.len()];
    for rep in 0..reps {
        for (i, &(_, policy, nodes, intervals)) in plans.iter().enumerate() {
            let mut d = Dispatcher::new(policy, nodes, cap);
            let seed = 0xC105 + rep as u64;
            best[i] = best[i].min(drive_dispatch(&mut d, nodes, cap, quanta, intervals, seed));
        }
    }
    let mut dispatch_cells: Vec<DispatchCell> = Vec::new();
    for ((name, policy, nodes, intervals), wall_s) in plans.into_iter().zip(best) {
        let cell = DispatchCell {
            name,
            policy: policy.name(),
            nodes,
            decisions: (nodes * quanta * intervals) as u64,
            wall_s,
        };
        println!(
            "  {} ... {:.1} ns/decision",
            cell.name,
            cell.ns_per_decision()
        );
        dispatch_cells.push(cell);
    }

    let mut sweep_cells: Vec<SweepCell> = Vec::new();
    let sweep_nodes: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    for &nodes in sweep_nodes {
        let name = format!("cluster/sweep/n{nodes}");
        if !selected(only, &name) {
            continue;
        }
        let intervals = if smoke { 2 } else { 4 };
        let tasks: Vec<(String, _)> = [
            (
                "HipsterIn",
                hipster_in(Workload::Memcached.tuned_zones(), 2, 0.05),
            ),
            (
                "Heuristic",
                heuristic_mapper(Workload::Memcached.tuned_zones()),
            ),
            ("Static-Big", static_all_big()),
            ("Static-Small", static_all_small()),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (label, policy))| {
            let scenario = format!("{name}/{label}");
            (scenario.clone(), move || {
                cluster::cluster_spec(scenario, nodes, policy, intervals, 7 + i as u64)
                    .build()
                    .expect("valid cluster spec")
                    .run()
            })
        })
        .collect();
        let (outcomes, stats) = run_tasks(tasks, 0).expect("cluster sweep");
        let completions: u64 = outcomes.iter().map(|o| o.summary.completions).sum();
        let cell = SweepCell {
            name: name.clone(),
            nodes,
            scenarios: stats.scenarios,
            workers: stats.workers,
            wall_s: stats.wall_s,
            scenarios_per_sec: stats.scenarios_per_sec(),
            idle_tail_frac: stats.idle_tail_frac(),
            completions,
        };
        println!(
            "  {name} ... {} clusters in {:.2}s ({:.2} scenarios/s, {} workers)",
            cell.scenarios, cell.wall_s, cell.scenarios_per_sec, cell.workers,
        );
        sweep_cells.push(cell);
    }

    let (nodes, steps) = if smoke { (256, 4) } else { (1024, 16) };
    let name = format!("cluster/interval/n{nodes}");
    let interval_cell = selected(only, &name).then(|| {
        // Serial and parallel reps alternate so a slow phase of a shared
        // machine lands on both sides.
        let (mut serial_ms, mut parallel_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let (serial, serial_digest) = time_cluster_steps(nodes, steps, 1);
            let (parallel, parallel_digest) = time_cluster_steps(nodes, steps, 0);
            assert_eq!(
                serial_digest, parallel_digest,
                "{name}: the parallel node stage changed the decision stream"
            );
            serial_ms = serial_ms.min(serial);
            parallel_ms = parallel_ms.min(parallel);
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cell = IntervalCell {
            name: name.clone(),
            nodes,
            steps,
            cores,
            serial_ms,
            parallel_ms,
        };
        println!(
            "  {name} ... {serial_ms:.2} ms/step serial vs {parallel_ms:.2} on {cores} cores \
             ({:.2}×)",
            cell.speedup()
        );
        cell
    });

    if dispatch_cells.is_empty() && sweep_cells.is_empty() && interval_cell.is_none() {
        return;
    }

    let find = |n: &str| dispatch_cells.iter().find(|c| c.name == n);
    let p2c_64 = find("cluster/dispatch/p2c/n64");
    let p2c_1024 = find("cluster/dispatch/p2c/n1024");
    let ll_1024 = find("cluster/dispatch/least-loaded/n1024");

    let flat = match (p2c_64, p2c_1024) {
        (Some(small), Some(large)) => {
            let ratio = large.ns_per_decision() / small.ns_per_decision().max(1e-12);
            println!(
                "\nflatness: p2c {:.1} ns/decision at n64 vs {:.1} at n1024 — \
                 ratio {ratio:.2} (floor 1.3)",
                small.ns_per_decision(),
                large.ns_per_decision(),
            );
            format!(
                ",\"flatness\":{{\"p2c_n64_ns\":{:.2},\"p2c_n1024_ns\":{:.2},\
                 \"ratio\":{:.3}}}",
                small.ns_per_decision(),
                large.ns_per_decision(),
                ratio
            )
        }
        _ => String::new(),
    };
    let race = match (p2c_1024, ll_1024) {
        (Some(p2c), Some(ll)) => {
            let advantage = ll.ns_per_decision() / p2c.ns_per_decision().max(1e-12);
            println!(
                "race: n1024 p2c {:.1} ns/decision vs least-loaded {:.1} — {advantage:.2}×",
                p2c.ns_per_decision(),
                ll.ns_per_decision(),
            );
            format!(
                ",\"race\":{{\"p2c_n1024_ns\":{:.2},\"least_loaded_n1024_ns\":{:.2},\
                 \"advantage\":{:.3}}}",
                p2c.ns_per_decision(),
                ll.ns_per_decision(),
                advantage
            )
        }
        _ => String::new(),
    };

    // Enforce the recorded-baseline floors on full runs that produced the
    // gated cells (so `--only cluster/` regenerations stay honest too).
    if !smoke {
        if let (Some(small), Some(large)) = (p2c_64, p2c_1024) {
            let ratio = large.ns_per_decision() / small.ns_per_decision().max(1e-12);
            assert!(
                ratio <= 1.3,
                "PR7 floor: p2c ns/decision at n1024 must be within 1.3× of n64, \
                 got {ratio:.2}×"
            );
        }
        if let (Some(p2c), Some(ll)) = (p2c_1024, ll_1024) {
            assert!(
                p2c.ns_per_decision() <= ll.ns_per_decision(),
                "PR7 floor: p2c must be at least as fast as least-loaded at n1024, \
                 got {:.1} vs {:.1} ns/decision",
                p2c.ns_per_decision(),
                ll.ns_per_decision(),
            );
        }
        if let Some(cell) = &interval_cell {
            if cell.cores >= 2 {
                assert!(
                    cell.speedup() >= 1.3,
                    "cluster-interval floor: {} must step at least 1.3× faster on {} \
                     cores than serially, got {:.2}×",
                    cell.name,
                    cell.cores,
                    cell.speedup()
                );
            } else {
                println!(
                    "{}: parallel speed-up floor skipped on a single core",
                    cell.name
                );
            }
        }
    }

    let dispatch_body: Vec<String> = dispatch_cells.iter().map(DispatchCell::json).collect();
    let sweep_body: Vec<String> = sweep_cells.iter().map(SweepCell::json).collect();
    let interval_body: Vec<String> = interval_cell.iter().map(IntervalCell::json).collect();
    let json = format!(
        "{{\"bench\":\"hipster cluster tier: dispatch + two-tier sweeps + parallel node stage\",\
         \"pr\":\"PR7\",\"smoke\":{smoke},\
         \"quanta_per_node\":{quanta},\"occupancy_cap\":{cap},\
         \"dispatch_cells\":[\n  {}\n],\
         \"sweep_cells\":[\n  {}\n],\
         \"interval_cells\":[\n  {}\n]{flat}{race}}}\n",
        dispatch_body.join(",\n  "),
        sweep_body.join(",\n  "),
        interval_body.join(",\n  ")
    );
    let path = "BENCH_PR7.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_driver_equivalent_across_impls() {
        let model = memcached();
        let t = mean_service_s(&model);
        let rate = 0.7 * 3.0 / t;
        let mut a = ServiceNode::new();
        let new = drive_open(&mut a, &model, 3, rate, 0.02, 3, 5);
        let mut b = ReferenceNode::new();
        let reference = drive_open(&mut b, &model, 3, rate, 0.02, 3, 5);
        assert_eq!(new.checksum, reference.checksum);
        assert!(new.events > 0);
    }

    #[test]
    fn closed_driver_equivalent_across_impls() {
        let model = web_search();
        let mut a = ServiceNode::new();
        let mut pa = ThinkPool::new();
        let new = drive_closed(&mut a, &mut pa, &model, 3, 48, 0.05, 0.25, 3, 5);
        let mut b = ReferenceNode::new();
        let mut pb = ReferenceThinkPool::new();
        let reference = drive_closed(&mut b, &mut pb, &model, 3, 48, 0.05, 0.25, 3, 5);
        assert_eq!(new.checksum, reference.checksum);
        assert!(new.events > 0);
    }

    #[test]
    fn closed_replay_matches_inline_sampling() {
        // The record/replay hoist must reproduce the inline-sampling
        // driver bit-for-bit, for both the production node and the scan
        // oracle.
        let model = web_search();
        let (servers, clients, think, interval_s, intervals, seed) = (3, 48, 0.05, 0.25, 3, 5);
        let mut a = ServiceNode::new();
        let mut pa = ThinkPool::new();
        let probe = drive_closed(
            &mut a, &mut pa, &model, servers, clients, think, interval_s, intervals, seed,
        );
        let (thinks, demands) = closed_streams(&model, clients, think, &probe, seed);
        let specs = big_specs(&model, servers);
        let mut b = ServiceNode::new();
        let mut pb = ThinkPool::new();
        let cal = replay_closed(
            &mut b, &mut pb, &specs, &thinks, &demands, clients, interval_s, intervals,
        );
        assert_eq!(cal.checksum, probe.checksum, "replay diverged from probe");
        let mut c = ReferenceNode::new();
        let mut pc = ReferenceThinkPool::new();
        let scan = replay_closed(
            &mut c, &mut pc, &specs, &thinks, &demands, clients, interval_s, intervals,
        );
        assert_eq!(scan.checksum, probe.checksum, "scan replay diverged");
    }

    #[test]
    fn open_replay_matches_inline_sampling() {
        // The pre-generated open-loop stream must drive the same
        // simulation as the inline-sampling driver, on both nodes.
        let model = memcached();
        let rate = 0.7 * 3.0 / mean_service_s(&model);
        let probe = drive_open(&mut ServiceNode::new(), &model, 3, rate, 0.02, 3, 5);
        let specs = big_specs(&model, 3);
        let mut buf = Vec::new();
        let mut gen = OpenStreamGen::new(&model, rate, 5);
        let new = replay_open(
            &mut ServiceNode::new(),
            &specs,
            &[],
            &mut gen,
            &mut buf,
            0.02,
            3,
        );
        assert_eq!(new.checksum, probe.checksum, "replay diverged from probe");
        let mut gen = OpenStreamGen::new(&model, rate, 5);
        let scan = replay_open(
            &mut ReferenceNode::new(),
            &specs,
            &[],
            &mut gen,
            &mut buf,
            0.02,
            3,
        );
        assert_eq!(scan.checksum, probe.checksum, "scan replay diverged");
    }

    #[test]
    fn juno_ladder_replays_identically_on_both_nodes() {
        // The per-interval DVFS re-key path, on the real node size.
        let model = memcached();
        let ladder = juno_ladder(&model, 12);
        let rate = JUNO_LOAD * ladder_capacity_rps(&model, &ladder);
        let mut buf = Vec::new();
        let mut gen = OpenStreamGen::new(&model, rate, 61);
        let new = replay_open(
            &mut ServiceNode::new(),
            &ladder[0],
            &ladder,
            &mut gen,
            &mut buf,
            0.05,
            12,
        );
        let mut gen = OpenStreamGen::new(&model, rate, 61);
        let scan = replay_open(
            &mut ReferenceNode::new(),
            &ladder[0],
            &ladder,
            &mut gen,
            &mut buf,
            0.05,
            12,
        );
        assert_eq!(new.checksum, scan.checksum);
        assert!(new.events > 0);
    }

    #[test]
    fn cell_json_is_well_formed() {
        let m = Measured {
            events: 10,
            intervals: 2,
            wall_s: 0.5,
            checksum: Vec::new(),
        };
        let r = Measured {
            events: 10,
            intervals: 2,
            wall_s: 1.0,
            checksum: Vec::new(),
        };
        let cell = Cell {
            name: "open/x/s4".into(),
            mode: "open",
            servers: 4,
            clients: None,
            offered_rps: 100.0,
            interval_s: 0.1,
            intervals: 2,
            new: m,
            reference: r,
        };
        let j = cell.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"clients\":null"));
        assert!(j.ends_with("\"speedup\":2.00}"));
    }

    #[test]
    fn floor_rows_render_the_bench_schema() {
        let speedup = FloorRow {
            workload: "open/memcached-juno".into(),
            size: "s6".into(),
            metric: "speedup_over_scan_events_per_sec",
            value: 1.654321,
            oracle_value: 19_876_543.4,
            floor: 1.25,
            better: "higher",
        };
        assert!(speedup.holds());
        let obj = JsonObj::parse(&speedup.json(false)).expect("one flat JSON line");
        assert_eq!(obj.get_str("layer"), Some("node"));
        assert_eq!(obj.get_str("workload"), Some("open/memcached-juno"));
        assert_eq!(obj.get_num("value"), Some(1.6543));
        assert_eq!(obj.get_num("oracle_value"), Some(19_876_543.0));
        assert_eq!(obj.get_num("floor"), Some(1.25));
        assert_eq!(obj.get_str("better"), Some("higher"));
        assert_eq!(obj.get_bool("smoke"), Some(false));
        let flat = FloorRow {
            value: 1.31,
            oracle_value: f64::NAN,
            floor: 1.3,
            better: "lower",
            ..speedup
        };
        assert!(!flat.holds());
        let line = flat.json(true);
        assert!(line.contains("\"oracle_value\":null"), "{line}");
        let obj = JsonObj::parse(&line).expect("one flat JSON line");
        assert!(obj.get_num("oracle_value").is_some_and(f64::is_nan));
        assert_eq!(obj.get_bool("smoke"), Some(true));
    }

    #[test]
    fn cluster_cell_json_is_well_formed() {
        let d = DispatchCell {
            name: "cluster/dispatch/p2c/n64".into(),
            policy: "power-of-two",
            nodes: 64,
            decisions: 1000,
            wall_s: 10e-6,
        };
        let j = d.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.ends_with("\"ns_per_decision\":10.00}"));
        let s = SweepCell {
            name: "cluster/sweep/n16".into(),
            nodes: 16,
            scenarios: 4,
            workers: 2,
            wall_s: 0.25,
            scenarios_per_sec: 16.0,
            idle_tail_frac: 0.125,
            completions: 999,
        };
        let j = s.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"wall_s\":0.2500"));
        assert!(j.contains("\"scenarios_per_sec\":16.00"));
        assert!(j.contains("\"completions\":999"));
        let i = IntervalCell {
            name: "cluster/interval/n1024".into(),
            nodes: 1024,
            steps: 16,
            cores: 2,
            serial_ms: 30.0,
            parallel_ms: 20.0,
        };
        let j = i.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"parallel_ms_per_step\":20.000"));
        assert!(j.ends_with("\"speedup\":1.500}"));
    }

    #[test]
    fn control_drivers_equivalent_across_impls() {
        let ladder = power_ladder(&Platform::juno_r1());
        let (loads, rewards) = control_inputs(3_000, 7);
        for width in [0.03, 0.05, 0.10] {
            let new =
                drive_control_dense(ConfigSpace::new(ladder.clone()), width, &loads, &rewards);
            let reference = drive_control_reference(&ladder, width, &loads, &rewards);
            assert_eq!(new.choices, reference.choices, "width {width}");
            assert_eq!(new.table_tsv, reference.table_tsv, "width {width}");
            assert!(new.intervals_per_sec() > 0.0);
        }
    }

    #[test]
    fn heatmap_fleets_are_square_and_valid() {
        for scenarios in [64usize, 256] {
            let fleet = heatmap_fleet(scenarios, 1, 0.02);
            assert_eq!(fleet.len(), scenarios);
        }
    }

    #[test]
    fn heatmap_schedulers_agree() {
        let (outcomes, _) = heatmap_fleet(64, 1, 0.02)
            .run_with_stats()
            .expect("valid fleet");
        let (ref_outcomes, _) =
            run_static_chunked(heatmap_fleet(64, 1, 0.02)).expect("valid fleet");
        assert_eq!(fleet_digest(&outcomes), fleet_digest(&ref_outcomes));
    }

    #[test]
    fn control_cell_json_is_well_formed() {
        let m = |wall_s| ControlMeasured {
            intervals: 100,
            wall_s,
            choices: Vec::new(),
            table_tsv: String::new(),
        };
        let cell = ControlCell {
            name: "control/qpath/b5".into(),
            bucket_width: 0.05,
            buckets: 21,
            actions: 34,
            new: m(0.5),
            reference: m(1.0),
        };
        let j = cell.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"speedup\":2.00"));
        let f = FleetCell {
            name: "fleet/heatmap/s64".into(),
            scenarios: 64,
            intervals: 4,
            interval_s: 0.05,
            new: FleetMeasured {
                wall_s: 1.0,
                workers: 4,
                idle_tail_frac: 0.01,
                digest: 1,
            },
            reference: FleetMeasured {
                wall_s: 2.0,
                workers: 4,
                idle_tail_frac: 0.25,
                digest: 1,
            },
        };
        let j = f.json();
        assert!(j.contains("\"speedup\":2.00"));
        assert!(j.contains("\"idle_tail_frac\":0.0100"));
    }
}
