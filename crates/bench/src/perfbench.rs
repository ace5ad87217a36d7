//! `repro bench` — the performance floors of `BENCH.jsonl`.
//!
//! Every cell races production code against its oracle on the same
//! input, and every floor is one [`Row`] of the
//! bench schema (see [`floors`]). Three families run:
//!
//! * **Control plane** (`control/qpath/b3|b5|b10`) — the interval
//!   control kernel (bucketize → Q-update → argmax → rank) through the
//!   dense [`QTable`] and the frozen map-backed [`ReferenceQTable`] at
//!   the paper's 3%/5%/10% bucket widths: production ÷ reference
//!   intervals/sec > 1.5.
//! * **Node scale** — the production [`ServiceNode`] (+ [`ThinkPool`])
//!   against the scan oracle on identical pre-generated streams, reps
//!   interleaved across every cell: open-loop Memcached at 64 and 1024
//!   servers, closed-loop Web-Search at 1024 and 4096 clients, and the
//!   2-big + 4-small Juno node re-keyed every interval. Floors:
//!   s64→s1024 and c1024→c4096 events/sec ratios < 1.3, and
//!   production-over-scan speedups on the Juno cell and at c4096 (the
//!   earlier floors against the frozen heap nodes, translated onto the
//!   scan oracle).
//! * **Cluster** — the cluster
//!   [`Dispatcher`](hipster_core::cluster::Dispatcher) (O(1)
//!   power-of-two-choices picks, an O(N) least-loaded scan) under one
//!   occupancy churn and RNG stream: p2c ns/decision n64→n1024 ratio
//!   < 1.3 and least-loaded ÷ p2c at n1024 > 1.0; and
//!   `cluster/interval/n1024`, one `ClusterSim::step` of the repro's
//!   1024-node cluster with its node stage serial vs on every core
//!   (n256 in smoke runs): serial ÷ parallel ms/step > 1.3, recorded on
//!   hosts with two or more cores only.
//!
//! Every cell feeds its production and oracle sides identical inputs, so
//! their outputs must agree exactly — the bench doubles as an at-scale
//! equivalence check and panics on any divergence.
//!
//! Rows are merged into `BENCH.jsonl` in the current directory (the repo
//! root, when run via `cargo run`); full runs then hold every row they
//! wrote to its floor. `--smoke` runs the same cells over fewer simulated
//! intervals so CI can exercise the harness in seconds (smoke rows are
//! never held to their floors), and `--only <prefix>` restricts the run
//! to cells whose name starts with the prefix, replacing only the rows
//! those cells feed.

use std::path::Path;
use std::time::Instant;

use hipster_core::reference::ReferenceQTable;
use hipster_core::{ConfigSpace, LoadBuckets, QTable};

use crate::experiments::cluster;
use crate::floors::{self, round, Row, Run};
use crate::runner::{hipster_in, Workload};
use hipster_platform::{power_ladder, CoreConfig, CoreKind, Frequency, Platform};
use hipster_sim::dist::Exponential;
use hipster_sim::reference::{ReferenceNode, ReferenceThinkPool};
use hipster_sim::{
    math, Demand, LcModel, NodeInterval, Sampler, ServerSpec, ServiceNode, SimRng, ThinkPool,
    DEFAULT_JITTER_SIGMA,
};
use hipster_workloads::{memcached, web_search, LcWorkload};

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
        wall_s: start.elapsed().as_secs_f64(),
        checksum,
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

/// Runs the three families and merges their rows into `BENCH.jsonl`.
/// With `smoke`, runs the same cells over fewer simulated intervals
/// (seconds, for CI). With `only`, runs just the cells whose name starts
/// with the prefix.
pub fn run(smoke: bool, only: Option<&str>) {
    let mut rows = Run::default();
    run_control_plane(smoke, only, &mut rows);
    run_node_scale(smoke, only, &mut rows);
    run_cluster_scale(smoke, only, &mut rows);
    rows.record(Path::new(floors::PATH), smoke);
}

// ---------------------------------------------------------------------
// Control plane: the dense Q-table vs the map-backed reference
// ---------------------------------------------------------------------

/// Control floor: production ÷ reference intervals/sec on every width.
const CONTROL_FLOOR: f64 = 1.5;

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

/// The same control path as the original map-backed stack ran it: hash-map Q-table
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

/// The control-plane family: one row per bucket width. The paper deploys
/// 2–4% buckets for Memcached and 3–9% for Web-Search; 3%/5%/10% spans
/// that range (3% = most buckets = the largest table).
fn run_control_plane(smoke: bool, only: Option<&str>, rows: &mut Run) {
    let intervals = if smoke { 20_000 } else { 400_000 };
    let ladder = power_ladder(&Platform::juno_r1());
    for &(tag, width) in &[("b3", 0.03), ("b5", 0.05), ("b10", 0.10)] {
        let name = format!("control/qpath/{tag}");
        if !selected(only, &name) {
            continue;
        }
        let (loads, rewards) = control_inputs(intervals, 0x51);
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
        let speedup = new.intervals_per_sec() / reference.intervals_per_sec().max(1e-9);
        println!(
            "  {name} ... {:.2} M intervals/s (reference {:.2} M) — {speedup:.2}×",
            new.intervals_per_sec() / 1e6,
            reference.intervals_per_sec() / 1e6,
        );
        let size = format!("{}x{}", LoadBuckets::new(width).num_buckets(), ladder.len());
        rows.push(
            Row::new(
                "control",
                &format!("qpath/{tag}"),
                &size,
                "speedup_over_reference_intervals_per_sec",
            )
            .higher(round(speedup, 4), CONTROL_FLOOR)
            .oracle(reference.intervals_per_sec().round()),
        );
    }
}

// ---------------------------------------------------------------------
// Node scale: the production node vs the scan oracle
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

/// Pre-generates the open-loop arrival stream one interval at a time:
/// Poisson burst events (arrival RNG) carrying workload bursts (demand
/// RNG), sampled outside the timed region so the node-scale cells
/// measure the event core rather than the workload sampler (the same
/// hoist the control cells make with [`control_inputs`]).
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
    /// the burst's arrival time). An arrival landing on `t_end` is
    /// deferred to the next interval.
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

/// One timed pass of the open-loop replay, delivering events as
/// `Engine::run_events` does (a completion precedes an arrival at the
/// same instant; the interval boundary closes the interval), from a
/// pre-generated arrival stream. When
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

/// The node-scale family: the production [`ServiceNode`]
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
/// One row per floor:
///
/// * s64→s1024 production events/sec ratio < [`FLATNESS_FLOOR`];
/// * c1024→c4096 production events/sec ratio < [`FLATNESS_FLOOR`];
/// * Juno production ÷ scan events/sec > [`JUNO_FLOOR`] (0.85 ×
///   [`JUNO_HEAP_OVER_SCAN`]);
/// * c4096 production ÷ scan events/sec > 1.0 × [`C4096_HEAP_OVER_SCAN`].
fn run_node_scale(smoke: bool, only: Option<&str>, rows: &mut Run) {
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
        return;
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
                rows.push(
                    Row::new("node", workload, size, "speedup_over_scan_events_per_sec")
                        .higher(round(speedup, 4), floor)
                        .oracle(reference.events_per_sec().round()),
                );
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
        let size = format!("{small}/{large}");
        push_pair(
            rows,
            Row::new("node", workload, &size, "events_per_sec_ratio"),
            eps_at(small),
            eps_at(large),
            |row, small_eps, large_eps| {
                let ratio = small_eps / large_eps.max(1e-9);
                println!("  flatness {workload} {size}: ratio {ratio:.3} (floor {FLATNESS_FLOOR})");
                row.lower(round(ratio, 4), FLATNESS_FLOOR)
            },
        );
    }
}

// ---------------------------------------------------------------------
// Cluster: dispatch cost at scale and the parallel node stage
// ---------------------------------------------------------------------

/// Dispatch flatness floor: p2c ns/decision at n1024 over n64.
const DISPATCH_FLATNESS_FLOOR: f64 = 1.3;

/// Dispatch race floor: least-loaded over p2c ns/decision at n1024.
const DISPATCH_RACE_FLOOR: f64 = 1.0;

/// Parallel node-stage floor: serial over parallel ms per cluster step.
const INTERVAL_FLOOR: f64 = 1.3;

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

/// The cluster family: p2c and least-loaded dispatch cost under one
/// occupancy churn, and the parallel node stage of the repro's cluster.
fn run_cluster_scale(smoke: bool, only: Option<&str>, rows: &mut Run) {
    use hipster_core::cluster::{DispatchPolicy, Dispatcher};

    let quanta = 4usize;
    let cap = 16u32; // matches ClusterSim's (4 × quanta).max(8) occupancy cap
    let reps = if smoke { 1 } else { 3 };
    let target_decisions = if smoke { 200_000 } else { 4_000_000 };
    let intervals_at = |nodes: usize| (target_decisions / (nodes * quanta)).max(8);

    // Reps are the outer loop across every dispatch cell, so a slow phase
    // of a shared machine lands on n64 and n1024 alike instead of on
    // whichever cell happened to be running — the floors compare cells,
    // so drift between them must cancel.
    let plans: Vec<(&str, DispatchPolicy, usize)> = [
        ("p2c/n64", DispatchPolicy::PowerOfTwo, 64),
        ("p2c/n1024", DispatchPolicy::PowerOfTwo, 1024),
        ("least-loaded/n1024", DispatchPolicy::LeastLoaded, 1024),
    ]
    .into_iter()
    .filter(|(tag, ..)| selected(only, &format!("cluster/dispatch/{tag}")))
    .collect();
    let mut best = vec![f64::INFINITY; plans.len()];
    for rep in 0..reps {
        for (i, &(_, policy, nodes)) in plans.iter().enumerate() {
            let mut d = Dispatcher::new(policy, nodes, cap);
            let seed = 0xC105 + rep as u64;
            let wall = drive_dispatch(&mut d, nodes, cap, quanta, intervals_at(nodes), seed);
            best[i] = best[i].min(wall);
        }
    }
    let ns: Vec<(&str, f64)> = plans
        .iter()
        .zip(best)
        .map(|(&(tag, _, nodes), wall_s)| {
            let ns = wall_s * 1e9 / (nodes * quanta * intervals_at(nodes)) as f64;
            println!("  cluster/dispatch/{tag} ... {ns:.1} ns/decision");
            (tag, ns)
        })
        .collect();
    let ns_of = |tag: &str| ns.iter().find(|(t, _)| *t == tag).map(|&(_, v)| v);
    push_pair(
        rows,
        Row::new(
            "cluster",
            "dispatch/p2c",
            "n64/n1024",
            "ns_per_decision_ratio",
        ),
        ns_of("p2c/n64"),
        ns_of("p2c/n1024"),
        |row, small, large| row.lower(round(large / small, 4), DISPATCH_FLATNESS_FLOOR),
    );
    push_pair(
        rows,
        Row::new(
            "cluster",
            "dispatch/least-loaded",
            "n1024",
            "ns_per_decision_over_p2c",
        ),
        ns_of("p2c/n1024"),
        ns_of("least-loaded/n1024"),
        |row, p2c, ll| {
            row.higher(round(ll / p2c, 4), DISPATCH_RACE_FLOOR)
                .oracle(round(ll, 2))
        },
    );

    let (nodes, steps) = if smoke { (256, 4) } else { (1024, 16) };
    let name = format!("cluster/interval/n{nodes}");
    if !selected(only, &name) {
        return;
    }
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
    let speedup = serial_ms / parallel_ms.max(1e-12);
    println!(
        "  {name} ... {serial_ms:.2} ms/step serial vs {parallel_ms:.2} on {cores} cores \
         ({speedup:.2}×)"
    );
    let row = Row::new(
        "cluster",
        "interval",
        &format!("n{nodes}"),
        "speedup_over_serial_ms_per_step",
    );
    if cores >= 2 {
        rows.push(
            row.higher(round(speedup, 4), INTERVAL_FLOOR)
                .oracle(round(serial_ms, 3)),
        );
    } else {
        println!("  {name}: no row on a single core (the floor needs two)");
        rows.claim(&row);
    }
}

/// Pushes the floor `finish` builds from two cells' measures when both
/// ran; when only one ran, claims `row`'s key so its stale line goes.
fn push_pair(
    rows: &mut Run,
    row: Row,
    a: Option<f64>,
    b: Option<f64>,
    finish: impl FnOnce(Row, f64, f64) -> Row,
) {
    match (a, b) {
        (Some(a), Some(b)) => rows.push(finish(row, a, b)),
        (None, None) => {}
        _ => rows.claim(&row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
