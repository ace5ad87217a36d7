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
//! * **Dispatch at scale** (`BENCH_PR5.json`) — `open/memcached/*` cells
//!   at 64/256/1024 servers plus a DVFS-churn cell drive the production
//!   bitmap dispatch over the frozen PR 5 packed heap ([`PackedHeapNode`])
//!   against the frozen PR 3/4-era free-server max-heap node
//!   ([`HeapNode`]) — the completion index frozen on both sides, so the
//!   PR 5 floors pin the O(1) dispatch path rather than whatever event
//!   core the production node carries today — proving
//!   per-event cost stays flat in machine size (s1024 within 1.3× of
//!   s64) and enforcing the ≥1.5× speedup floor at 256 servers when
//!   recording a full (non-smoke) run.
//! * **Calendar-queue event core** (`BENCH_PR6.json`) — the calendar-backed
//!   [`ServiceNode`] + [`ThinkPool`] vs the frozen PR 5 packed-`u128`
//!   binary heaps ([`PackedHeapNode`] + [`HeapThinkPool`]) on identical
//!   pre-generated streams: the largest open-loop machine (s1024, Poisson
//!   and two-state MMPP bursty arrivals) plus closed-loop populations at
//!   c1024/c4096. Each cell records two races — the end-to-end node
//!   replay, and an event-core *op-trace* replay (`CoreOp`) that times
//!   just the queue layer on the exact op sequence the cell's simulation
//!   issued. Full runs enforce a ≥1.3× core-race floor at c4096, a ≥1.0×
//!   end-to-end no-regression floor, and a flat (≤1.3×) c1024→c4096
//!   events/sec ratio.
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
//! Every event-core, control-plane, node-dispatch and calendar cell
//! feeds its fast and reference implementations identical inputs, so
//! their outputs must agree exactly — the bench doubles as an at-scale
//! equivalence check and panics on any divergence.
//!
//! Results are written to the current directory (the repo root, when run
//! via `cargo run`), giving future PRs a recorded perf trajectory.
//! `--smoke` runs the same cells with fewer simulated intervals so CI can
//! validate the harness in seconds, and `--only <prefix>` restricts the
//! run to cells whose name starts with the prefix (a JSON file is only
//! rewritten when at least one of its cells ran).

use std::cell::RefCell;
use std::time::Instant;

use hipster_core::reference::{run_static_chunked, ReferenceQTable};
use hipster_core::{
    run_tasks, ConfigSpace, Fleet, LoadBuckets, Policy, QTable, ScenarioSpec, StaticPolicy,
};

use crate::experiments::cluster;
use crate::runner::{heuristic_mapper, hipster_in, static_all_big, static_all_small, Workload};
use hipster_platform::{power_ladder, CoreConfig, CoreKind, Frequency, Platform};
use hipster_sim::dist::Exponential;
use hipster_sim::reference::{
    HeapNode, HeapThinkPool, PackedHeap, PackedHeapNode, ReferenceNode, ReferenceThinkPool,
};
use hipster_sim::{
    math, CalendarQueue, CompletionQueue, Demand, LcModel, NodeInterval, QueuedNode, Sampler,
    ServerSpec, ServiceNode, SimRng, ThinkPool, DEFAULT_JITTER_SIGMA,
};
use hipster_workloads::{
    memcached, web_search, Constant, LcWorkload, MmppStream, MMPP_BURST_FACTOR, MMPP_CALM_FACTOR,
    MMPP_DUTY,
};

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

// One blanket impl covers the production node (`ServiceNode`, calendar
// queue) and the frozen-heap node (`PackedHeapNode`) — the PR 6 cells race
// the same node body over the two completion indices.
impl<Q: CompletionQueue> EventNode for QueuedNode<Q> {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        QueuedNode::reconfigure(self, now, specs, preempt, stall_s);
    }
    fn begin_interval(&mut self, t: f64) {
        QueuedNode::begin_interval(self, t);
    }
    fn arrive(&mut self, now: f64, demand: Demand) {
        QueuedNode::arrive(self, now, demand);
    }
    fn next_completion(&self) -> Option<f64> {
        QueuedNode::next_completion(self)
    }
    fn advance(&mut self, to: f64) {
        QueuedNode::advance(self, to);
    }
    fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        QueuedNode::advance_collect(self, to, out);
    }
    fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        QueuedNode::end_interval(self, t_end, p)
    }
}

impl EventNode for HeapNode {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        HeapNode::reconfigure(self, now, specs, preempt, stall_s);
    }
    fn begin_interval(&mut self, t: f64) {
        HeapNode::begin_interval(self, t);
    }
    fn arrive(&mut self, now: f64, demand: Demand) {
        HeapNode::arrive(self, now, demand);
    }
    fn next_completion(&self) -> Option<f64> {
        HeapNode::next_completion(self)
    }
    fn advance(&mut self, to: f64) {
        HeapNode::advance(self, to);
    }
    fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        HeapNode::advance_collect(self, to, out);
    }
    fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        HeapNode::end_interval(self, t_end, p)
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

impl Pool for HeapThinkPool {
    fn push(&mut self, expiry: f64) {
        HeapThinkPool::push(self, expiry);
    }
    fn peek_min(&self) -> Option<f64> {
        HeapThinkPool::peek_min(self)
    }
    fn pop_min(&mut self) -> Option<f64> {
        HeapThinkPool::pop_min(self)
    }
    fn len(&self) -> usize {
        HeapThinkPool::len(self)
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
    /// Event-core op-trace race (PR 6 cells only): the same cell timed at
    /// the queue layer, replaying the exact op sequence the simulation
    /// issued against each queue implementation.
    core: Option<CoreRace>,
}

/// Both implementations' timings over one cell's recorded event-core op
/// trace (see [`CoreOp`]): the queue layer isolated from the node work
/// (dispatch, latency recording, interval accounting) that both
/// implementations share.
struct CoreRace {
    ops: usize,
    new_wall_s: f64,
    ref_wall_s: f64,
}

impl CoreRace {
    fn ns_per_op(&self, wall_s: f64) -> f64 {
        wall_s * 1e9 / (self.ops as f64).max(1.0)
    }

    fn speedup(&self) -> f64 {
        self.ref_wall_s / self.new_wall_s.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "\"core\":{{\"ops\":{},\"wall_s\":{:.6},\"ns_per_op\":{:.2},",
                "\"reference\":{{\"wall_s\":{:.6},\"ns_per_op\":{:.2}}},",
                "\"speedup\":{:.2}}}"
            ),
            self.ops,
            self.new_wall_s,
            self.ns_per_op(self.new_wall_s),
            self.ref_wall_s,
            self.ns_per_op(self.ref_wall_s),
            self.speedup(),
        )
    }
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.new.events_per_sec() / self.reference.events_per_sec().max(1e-9)
    }

    fn json(&self) -> String {
        let mut s = format!(
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
        );
        if let Some(core) = &self.core {
            s.pop(); // re-open the object to append the core race
            s.push(',');
            s.push_str(&core.json());
            s.push('}');
        }
        s
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
/// `BENCH_PR4.json` (control plane + fleet scheduling), `BENCH_PR5.json`
/// (dispatch at scale), `BENCH_PR6.json` (calendar-queue event core) and
/// `BENCH_PR7.json` (cluster dispatch at scale). With `smoke`, runs the
/// same cells over fewer simulated intervals (seconds, for CI). With
/// `only`, runs just the cells whose name starts with the prefix; a JSON
/// file is only rewritten when at least one of its cells ran.
pub fn run(smoke: bool, only: Option<&str>) {
    run_event_core(smoke, only);
    run_control_plane(smoke, only);
    run_dispatch_scale(smoke, only);
    run_calendar_scale(smoke, only);
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
            core: None,
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
            core: None,
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
// PR5: dispatch-at-scale cells → BENCH_PR5.json
// ---------------------------------------------------------------------

/// Multiplicative DVFS ladder the churn cell cycles through, one step per
/// monitoring interval (every step changes every server's effective speed,
/// forcing a free-list re-sort / free-heap rebuild per interval).
const DVFS_CHURN_STEPS: &[f64] = &[1.0, 0.85, 0.7, 0.85];

/// DVFS transition stall of the churn cell, seconds (a slice of the
/// interval, so arrivals land inside the stall window and exercise the
/// demote/promote path).
const DVFS_CHURN_STALL_S: f64 = 2e-4;

/// Timed passes per PR5 cell; the best pass is recorded (the cells time
/// the event core only, and a single pass on a shared runner is noisy).
const PR5_REPS: usize = 5;

/// Pre-generates the open-loop arrival stream one interval at a time —
/// the same RNG draw sequence as [`drive_open`], but outside the timed
/// region, so the PR5 cells measure the event core rather than the
/// workload sampler (the same hoist the PR4 control cells make with
/// [`control_inputs`]).
struct OpenStreamGen<'m> {
    model: &'m LcWorkload,
    arrival_rng: SimRng,
    demand_rng: SimRng,
    iat: Exponential,
    next_arrival: f64,
}

/// An open-loop arrival-stream generator the replay driver consumes one
/// interval at a time (outside the timed region).
trait ArrivalStream {
    /// Fills `out` with every `(arrival time, demand)` of the interval
    /// ending at `t_end` (bursts flattened; all requests of a burst share
    /// the burst's arrival time, exactly as the inline driver delivers
    /// them). An arrival landing on `t_end` is deferred to the next
    /// interval, as the inline driver's `t >= t_end` break does.
    fn gen_interval(&mut self, t_end: f64, out: &mut Vec<(f64, Demand)>);
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
}

impl ArrivalStream for OpenStreamGen<'_> {
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

/// The MMPP bursty stream (CloudCoaster's regime) now lives in
/// `hipster_workloads` ([`MmppStream`]), promoted so cluster and
/// single-node scenarios share one source; the bench keeps only this
/// delegating adapter. Events clump hard inside bursts (many per
/// calendar bucket) and thin out between them (empty-bucket skips),
/// which is exactly the regime the `open/memcached-mmpp/*` cell pins.
impl ArrivalStream for MmppStream<'_> {
    fn gen_interval(&mut self, t_end: f64, out: &mut Vec<(f64, Demand)>) {
        self.fill_interval(t_end, out);
    }
}

/// One timed pass of the PR5 open-loop replay: identical event delivery to
/// [`drive_open`] (same completion-vs-arrival precedence, same boundary
/// semantics), but consuming a pre-generated arrival stream. When
/// `dvfs_specs` is non-empty, every interval boundary after the first
/// applies the next ladder step as a DVFS-style rescale (no preemption,
/// `dvfs_stall_s` stall) *inside* the timed region — per-interval
/// reconfiguration cost is exactly what the churn and Juno cells
/// measure.
#[allow(clippy::too_many_arguments)]
fn replay_open<N: EventNode, G: ArrivalStream>(
    node: &mut N,
    specs: &[ServerSpec],
    dvfs_specs: &[Vec<ServerSpec>],
    dvfs_stall_s: f64,
    gen: &mut G,
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
            node.reconfigure(
                now,
                &dvfs_specs[iv_idx % dvfs_specs.len()],
                false,
                dvfs_stall_s,
            );
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

/// Folds one more timed pass into the best-so-far slot (streams and event
/// sequences are deterministic, so every pass of a cell must produce the
/// same checksum).
fn keep_best(best: &mut Option<Measured>, m: Measured) {
    *best = Some(match best.take() {
        Some(b) => {
            assert_eq!(b.checksum, m.checksum, "nondeterministic replay");
            if b.wall_s <= m.wall_s {
                b
            } else {
                m
            }
        }
        None => m,
    });
}

/// Mean offered capacity (requests/sec) of a churn spec ladder: the
/// average over its steps of the sum of per-server service rates. The
/// churn cell offers [`UTILIZATION`] × this, so the system stays in the
/// same load regime as the plain cells while speeds move underneath it.
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

/// The churn cell's per-interval spec ladder: every step rescales all
/// servers (half of them 25% slower, so each interval has two speed
/// classes and dispatch exercises the class order).
fn dvfs_spec_ladder(base: &[ServerSpec]) -> Vec<Vec<ServerSpec>> {
    DVFS_CHURN_STEPS
        .iter()
        .map(|&step| {
            base.iter()
                .enumerate()
                .map(|(i, s)| {
                    let hetero = if i % 2 == 0 { 1.0 } else { 0.75 };
                    ServerSpec {
                        speed: s.speed * step * hetero,
                        ..*s
                    }
                })
                .collect()
        })
        .collect()
}

/// The PR5 dispatch-at-scale matrix → `BENCH_PR5.json`: [`PackedHeapNode`]
/// — the production node body, so the production bitmap dispatch (since
/// the PR 5 speed-class table folded into one preference-rank free list),
/// over the frozen packed-`u128` heap — vs the frozen PR 3/4 free-server
/// max-heap [`HeapNode`] on identical streams (digest-compared; panics on
/// divergence).
///
/// Both completion indexes are frozen on purpose: the matrix pins the
/// *O(1) dispatch artifact*, so its floors must not drift when a later
/// PR swaps the event core out from under the production node — PR 6 did
/// exactly that, and the current node's own scaling is tracked by the
/// PR 6 matrix (`BENCH_PR6.json`) instead.
///
/// When recording a full (non-smoke, unfiltered) run, enforces the PR 5
/// floors: ≥1.5× events/sec at 256 servers, and s1024 per-event throughput
/// within 1.3× of s64 (flat dispatch cost in machine size).
fn run_dispatch_scale(smoke: bool, only: Option<&str>) {
    let model = memcached();
    let t_mean = mean_service_s(&model);
    // Interval length scales inversely with the server count (same total
    // simulated time per cell), holding the per-interval completion batch
    // — and with it the recorder's percentile pass and sample-buffer
    // footprint — constant across scales, so the cells compare the
    // *event path* at different machine sizes rather than increasingly
    // cache-hostile end-of-interval batches.
    let cell_shape = |servers: usize| {
        assert!(
            servers >= 64 && servers % 64 == 0,
            "PR5 cells scale from the 64-server shape: got {servers}"
        );
        let scale = servers / 64;
        let intervals = if smoke { 2 } else { 10 } * scale;
        (0.1 / scale as f64, intervals)
    };

    // Cell plans, all built up front so the timed passes can interleave.
    struct Plan {
        name: String,
        mode: &'static str,
        servers: usize,
        rate: f64,
        interval_s: f64,
        intervals: usize,
        specs: Vec<ServerSpec>,
        dvfs: Vec<Vec<ServerSpec>>,
        seed: u64,
    }
    let mut plans: Vec<Plan> = Vec::new();
    for &servers in &[64usize, 256, 1024] {
        let name = format!("open/memcached/s{servers}");
        if !selected(only, &name) {
            continue;
        }
        let (interval_s, intervals) = cell_shape(servers);
        plans.push(Plan {
            name,
            mode: "open",
            servers,
            rate: UTILIZATION * servers as f64 / t_mean,
            interval_s,
            intervals,
            specs: big_specs(&model, servers),
            dvfs: Vec::new(),
            seed: 42,
        });
    }
    {
        let servers = 256usize;
        let name = format!("open/memcached-dvfs/s{servers}");
        if selected(only, &name) {
            let (interval_s, intervals) = cell_shape(servers);
            let ladder = dvfs_spec_ladder(&big_specs(&model, servers));
            plans.push(Plan {
                name,
                mode: "open-dvfs",
                servers,
                rate: UTILIZATION * ladder_capacity_rps(&model, &ladder),
                interval_s,
                intervals,
                specs: ladder[0].clone(),
                dvfs: ladder,
                seed: 47,
            });
        }
    }

    // Timed passes interleave round-robin over (cell × implementation), so
    // slow machine-state drift (thermal throttling, noisy neighbours on a
    // shared runner) lands on every cell's sample set instead of skewing
    // the cells that happen to run last — the flatness ratio compares
    // cells against each other, so drift *between* cells is what matters.
    let mut buf: Vec<(f64, Demand)> = Vec::new();
    let mut best_new: Vec<Option<Measured>> = plans.iter().map(|_| None).collect();
    let mut best_ref: Vec<Option<Measured>> = plans.iter().map(|_| None).collect();
    for _rep in 0..PR5_REPS {
        for (i, plan) in plans.iter().enumerate() {
            let mut node = PackedHeapNode::new();
            let mut gen = OpenStreamGen::new(&model, plan.rate, plan.seed);
            let m = replay_open(
                &mut node,
                &plan.specs,
                &plan.dvfs,
                DVFS_CHURN_STALL_S,
                &mut gen,
                &mut buf,
                plan.interval_s,
                plan.intervals,
            );
            keep_best(&mut best_new[i], m);
            let mut node = HeapNode::new();
            let mut gen = OpenStreamGen::new(&model, plan.rate, plan.seed);
            let m = replay_open(
                &mut node,
                &plan.specs,
                &plan.dvfs,
                DVFS_CHURN_STALL_S,
                &mut gen,
                &mut buf,
                plan.interval_s,
                plan.intervals,
            );
            keep_best(&mut best_ref[i], m);
        }
    }

    let mut cells: Vec<Cell> = Vec::new();
    for (i, plan) in plans.into_iter().enumerate() {
        let new = best_new[i].take().expect("every plan ran");
        let reference = best_ref[i].take().expect("every plan ran");
        check_equivalence(&plan.name, &new, &reference);
        println!(
            "  {} ... packed-heap node {:.2} M events/s (heap node {:.2} M) — {:.1}×",
            plan.name,
            new.events_per_sec() / 1e6,
            reference.events_per_sec() / 1e6,
            new.events_per_sec() / reference.events_per_sec().max(1e-9),
        );
        cells.push(Cell {
            name: plan.name,
            mode: plan.mode,
            servers: plan.servers,
            clients: None,
            offered_rps: plan.rate,
            interval_s: plan.interval_s,
            intervals: plan.intervals,
            new,
            reference,
            core: None,
        });
    }

    if cells.is_empty() {
        return; // --only matched nothing here; leave the file alone
    }

    let find = |n: &str| cells.iter().find(|c| c.name == n);
    let flat = match (find("open/memcached/s64"), find("open/memcached/s1024")) {
        (Some(s64), Some(s1024)) => {
            let ratio = s64.new.events_per_sec() / s1024.new.events_per_sec().max(1e-9);
            println!(
                "\nflatness: s64 {:.2} M events/s vs s1024 {:.2} M — ratio {ratio:.2} (floor 1.3)",
                s64.new.events_per_sec() / 1e6,
                s1024.new.events_per_sec() / 1e6,
            );
            format!(
                ",\"flatness\":{{\"s64_events_per_sec\":{:.1},\
                 \"s1024_events_per_sec\":{:.1},\"ratio\":{:.3}}}",
                s64.new.events_per_sec(),
                s1024.new.events_per_sec(),
                ratio
            )
        }
        _ => String::new(),
    };

    // Enforce the recorded-baseline floors on full runs only: smoke runs
    // are seconds-long and land on noisy CI machines.
    if !smoke && only.is_none() {
        let s256 = find("open/memcached/s256").expect("full run has the s256 cell");
        assert!(
            s256.speedup() >= 1.5,
            "PR5 floor: open/memcached/s256 must be ≥1.5× over the heap node, got {:.2}×",
            s256.speedup()
        );
        let s64 = find("open/memcached/s64").expect("full run has the s64 cell");
        let s1024 = find("open/memcached/s1024").expect("full run has the s1024 cell");
        let ratio = s64.new.events_per_sec() / s1024.new.events_per_sec().max(1e-9);
        assert!(
            ratio <= 1.3,
            "PR5 floor: s1024 events/sec must be within 1.3× of s64, got {ratio:.2}×"
        );
    }

    let body: Vec<String> = cells.iter().map(Cell::json).collect();
    let json = format!(
        "{{\"bench\":\"hipster dispatch at scale\",\"pr\":\"PR5\",\
         \"smoke\":{smoke},\"tail_percentile\":{TAIL_P},\
         \"utilization\":{UTILIZATION},\
         \"impl\":\"PackedHeapNode (bitmap dispatch + frozen PR5 packed-u128 heap)\",\
         \"reference_impl\":\"HeapNode (PR3/4 free-server max-heap)\",\
         \"cells\":[\n  {}\n]{flat}}}\n",
        body.join(",\n  ")
    );
    let path = "BENCH_PR5.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
    }
}

// ---------------------------------------------------------------------
// PR6: calendar-queue event core → BENCH_PR6.json
// ---------------------------------------------------------------------

/// One recorded operation of the event core — the completion queue plus
/// (for closed-loop cells) the think pool. [`TraceQueue`] / [`TracePool`]
/// append these while the cell's *real* simulation replays once untimed;
/// [`replay_core`] then replays the recorded sequence verbatim against
/// each queue implementation, timing the queue layer in isolation.
///
/// Why a trace replay and not just the end-to-end node race: both node
/// implementations share the whole `QueuedNode` body (dispatch, latency
/// recording, hot-record updates, interval accounting) — ~45 ns of work
/// per event that Amdahl-caps the end-to-end ratio near 1.1× no matter
/// how fast the queue gets. The op-trace replay prices exactly the
/// artifact the PR swaps (the queue), on exactly the op mix, sizes and
/// key distributions the cell's simulation produces — unlike a synthetic
/// hold-model microbench. Both metrics are recorded per cell; the PR 6
/// speedup floor binds on the core race, the flatness and no-regression
/// floors on the end-to-end race.
#[derive(Clone, Copy, Debug)]
enum CoreOp {
    /// `CompletionQueue::push(finish, server)`.
    CqPush(f64, u32),
    /// `CompletionQueue::pop_if_le(to)`.
    CqPop(f64),
    /// `CompletionQueue::peek_finish()`.
    CqPeek,
    /// `ThinkPool::push(expiry)`.
    TpPush(f64),
    /// `ThinkPool::pop_min()`.
    TpPop,
    /// `ThinkPool::peek_min()`.
    TpPeek,
}

/// Per-cell cap on recorded core ops (~96 MB of trace): cells whose full
/// stream is longer keep their steady-state prefix — the queues fill
/// within the first simulated interval, so the prefix prices the same
/// steady state the full cell would. The end-to-end race always runs the
/// full cell.
const CORE_TRACE_CAP: usize = 6_000_000;

thread_local! {
    /// Sink for [`TraceQueue`] / [`TracePool`] recordings. A thread-local
    /// keeps the tracing wrappers `Default`-constructible (the node's
    /// generic constructor builds its own queue) while still letting the
    /// driver harvest the trace afterwards.
    static CORE_TRACE: RefCell<Vec<CoreOp>> = const { RefCell::new(Vec::new()) };
}

fn core_trace_record(op: CoreOp) {
    CORE_TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() < CORE_TRACE_CAP {
            t.push(op);
        }
    });
}

/// Takes (and clears) the recorded trace.
fn core_trace_take() -> Vec<CoreOp> {
    CORE_TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// A [`CalendarQueue`] that records its per-event ops (push / pop / peek)
/// to the thread-local trace. The bulk surfaces (`rebuild_from`,
/// `drain_unordered`, `servers`) stay untraced: no PR 6 cell reconfigures
/// mid-run, and the per-interval `servers()` walk is not a queue-order
/// operation.
#[derive(Clone, Debug, Default)]
struct TraceQueue(CalendarQueue);

impl CompletionQueue for TraceQueue {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn peek_finish(&self) -> Option<f64> {
        core_trace_record(CoreOp::CqPeek);
        self.0.peek_min_time()
    }
    fn push(&mut self, finish: f64, server: usize) {
        core_trace_record(CoreOp::CqPush(finish, server as u32));
        CalendarQueue::push(&mut self.0, finish, server);
    }
    fn pop_if_le(&mut self, to: f64) -> Option<(f64, usize)> {
        core_trace_record(CoreOp::CqPop(to));
        CalendarQueue::pop_if_le(&mut self.0, to)
    }
    fn rebuild_from(&mut self, scratch: &mut Vec<(f64, usize)>) {
        self.0.rebuild_from_unpacked(scratch);
    }
    fn servers(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.payloads()
    }
    fn drain_unordered(&mut self, out: &mut Vec<(f64, usize)>) {
        CalendarQueue::drain_unordered(&mut self.0, out);
    }
}

/// A [`ThinkPool`] that records its ops to the same thread-local trace as
/// [`TraceQueue`], preserving the real interleaving of completion-queue
/// and think-pool traffic.
#[derive(Debug, Default)]
struct TracePool(ThinkPool);

impl Pool for TracePool {
    fn push(&mut self, expiry: f64) {
        core_trace_record(CoreOp::TpPush(expiry));
        self.0.push(expiry);
    }
    fn peek_min(&self) -> Option<f64> {
        core_trace_record(CoreOp::TpPeek);
        self.0.peek_min()
    }
    fn pop_min(&mut self) -> Option<f64> {
        core_trace_record(CoreOp::TpPop);
        self.0.pop_min()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// One implementation's timed pass over a recorded op trace: wall seconds
/// plus a fold of every value the queues returned. The fold doubles as a
/// differential check — the calendar and the frozen heaps must return
/// bit-identical pop/peek sequences on the same trace — and keeps the
/// optimizer from discarding the replay.
struct CoreMeasured {
    wall_s: f64,
    sink: u64,
}

fn keep_best_core(best: &mut Option<CoreMeasured>, m: CoreMeasured) {
    match best {
        Some(b) => {
            assert_eq!(b.sink, m.sink, "op-trace replay diverged between passes");
            if m.wall_s < b.wall_s {
                *b = m;
            }
        }
        None => *best = Some(m),
    }
}

/// Replays a recorded op trace against one (completion queue, think pool)
/// pair. Open-loop traces contain no think ops; the pool sits empty.
fn replay_core<Q: CompletionQueue, P: Pool>(ops: &[CoreOp], q: &mut Q, p: &mut P) -> CoreMeasured {
    let start = Instant::now();
    let mut sink = 0u64;
    for &op in ops {
        match op {
            CoreOp::CqPush(finish, server) => q.push(finish, server as usize),
            CoreOp::CqPop(to) => {
                if let Some((finish, server)) = q.pop_if_le(to) {
                    sink = sink.wrapping_add(finish.to_bits() ^ (server as u64).rotate_left(17));
                }
            }
            CoreOp::CqPeek => {
                if let Some(finish) = q.peek_finish() {
                    sink = sink.wrapping_add(finish.to_bits());
                }
            }
            CoreOp::TpPush(expiry) => p.push(expiry),
            CoreOp::TpPop => {
                if let Some(expiry) = p.pop_min() {
                    sink = sink.wrapping_add(expiry.to_bits());
                }
            }
            CoreOp::TpPeek => {
                if let Some(expiry) = p.peek_min() {
                    sink = sink.wrapping_add(expiry.to_bits());
                }
            }
        }
    }
    CoreMeasured {
        wall_s: start.elapsed().as_secs_f64(),
        sink,
    }
}

/// Timed passes per PR6 cell (best pass recorded, interleaved round-robin
/// like the PR5 cells).
const PR6_REPS: usize = 5;

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

/// Name of the PR6 matrix's Juno-node cell.
const JUNO_CELL: &str = "open/memcached-juno/s6";

/// Offered load of the Juno cell, as a fraction of its mean capacity.
const JUNO_LOAD: f64 = 0.6;

/// Timed passes per side of the Juno cell: short passes, many of them,
/// interleaved, and the *median* pass recorded — on a shared machine a
/// lone fast phase can hand one side a best pass 30% below its typical
/// one, which at this cell's ~70 ms passes decides a best-of race.
const JUNO_REPS: usize = 15;

/// Floor of the Juno cell: the production node must reach at least this
/// fraction of the frozen packed-heap node's events/sec.
const JUNO_FLOOR: f64 = 0.85;

/// The median-wall pass of a cell's timed passes (all of which must have
/// run the same simulation).
fn median_pass(mut passes: Vec<Measured>) -> Measured {
    for p in &passes[1..] {
        assert_eq!(p.checksum, passes[0].checksum, "nondeterministic replay");
    }
    passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    passes.swap_remove(passes.len() / 2)
}

/// The Juno-node cell ([`JUNO_CELL`]): the machine every repro node
/// actually is — 2 big servers at 1150 MHz and 4 small at 650 MHz, so
/// never more than 6 pending completions — serving Memcached at
/// [`JUNO_LOAD`] of its capacity, with a DVFS-path reconfigure at every
/// 50 ms interval boundary whose uniform slowdown carries the engine's
/// lognormal interference jitter ([`DEFAULT_JITTER_SIGMA`]), the same
/// per-interval re-key `Engine::step` issues. The production node races
/// the frozen [`PackedHeapNode`] on one pre-generated stream, interleaved
/// and digest-compared; the bench-wide 1024–4096-event cells never see
/// this population, and the completion index must not lose to a heap
/// at it.
fn juno_cell(smoke: bool) -> Cell {
    let model = memcached();
    let intervals = if smoke { 20 } else { 400 };
    let interval_s = 0.05;
    let mut jitter = SimRng::seed(61);
    let ladder: Vec<Vec<ServerSpec>> = (0..intervals)
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
        .collect();
    let rate = JUNO_LOAD * ladder_capacity_rps(&model, &ladder);
    let mut buf = Vec::new();
    let (mut new, mut reference) = (Vec::new(), Vec::new());
    for rep in 0..JUNO_REPS {
        // Alternate which side goes first, so neither always runs on the
        // other's warmed-up (or throttled) tail.
        for side in [rep % 2, 1 - rep % 2] {
            let mut gen = OpenStreamGen::new(&model, rate, 61);
            if side == 0 {
                let mut node = ServiceNode::new();
                let m = replay_open(
                    &mut node, &ladder[0], &ladder, 0.0, &mut gen, &mut buf, interval_s, intervals,
                );
                new.push(m);
            } else {
                let mut node = PackedHeapNode::new();
                let m = replay_open(
                    &mut node, &ladder[0], &ladder, 0.0, &mut gen, &mut buf, interval_s, intervals,
                );
                reference.push(m);
            }
        }
    }
    let (new, reference) = (median_pass(new), median_pass(reference));
    check_equivalence(JUNO_CELL, &new, &reference);
    Cell {
        name: JUNO_CELL.to_string(),
        mode: "open-juno",
        servers: 6,
        clients: None,
        offered_rps: rate,
        interval_s,
        intervals,
        new,
        reference,
        core: None,
    }
}

/// The PR6 calendar-queue matrix → `BENCH_PR6.json`: the calendar-backed
/// [`ServiceNode`] + [`ThinkPool`] vs the frozen PR 5 packed-`u128` heap
/// ([`PackedHeapNode`] + [`HeapThinkPool`]) on identical streams
/// (digest-compared; panics on divergence). Cells:
///
/// * `open/memcached/s1024` — the largest open-loop machine, Poisson
///   arrivals (1024 in-flight events steady-state);
/// * `open/memcached-mmpp/s1024` — the same machine under two-state MMPP
///   bursty arrivals ([`MmppStream`]), clumping events into few
///   calendar buckets and then starving the ring;
/// * `closed/web-search/c1024`, `closed/web-search/c4096` — closed-loop
///   populations where *both* queues are hot: every event pops/pushes
///   the think pool and the completion queue;
/// * `open/memcached-juno/s6` — the real node size (see [`juno_cell`]),
///   an end-to-end race only: its per-interval rebuilds are outside the
///   op-trace language.
///
/// Each cell races *two* metrics (see [`CoreOp`] for the rationale):
///
/// * **node** — the full end-to-end replay, calendar node vs frozen heap
///   node: both implementations share the whole `QueuedNode` body, so
///   this measures what the queue swap buys the simulation as a user
///   sees it (~1.1×: the queues are ~1/3 of per-event cost);
/// * **core** — an op-trace replay: the cell's exact queue-op sequence
///   (captured by a tracing pass) timed against each (completion queue,
///   think pool) pair in isolation, which prices the swapped artifact
///   itself without the shared node work diluting the ratio.
///
/// When recording a full (non-smoke, unfiltered) run, enforces the PR 6
/// floors: core-race ≥1.3× at c4096 over the frozen heaps, end-to-end
/// c4096 ≥1.0× (no regression), and c4096 per-event throughput within
/// 1.3× of c1024 (flat event loop in the in-flight population). Any
/// non-smoke run of the Juno cell (`--only` included) enforces its floor:
/// the production node at least [`JUNO_FLOOR`]× the frozen heap node.
fn run_calendar_scale(smoke: bool, only: Option<&str>) {
    let open_model = memcached();
    let closed_model = web_search();
    let t_mean_open = mean_service_s(&open_model);
    let t_mean_closed = mean_service_s(&closed_model);
    // Open-loop cells reuse the PR5 shape: interval length scales
    // inversely with the server count, holding the per-interval
    // completion batch constant across scales.
    let open_shape = |servers: usize| {
        let scale = servers / 64;
        let intervals = if smoke { 2 } else { 10 } * scale;
        (0.1 / scale as f64, intervals)
    };
    let closed_intervals = if smoke { 2 } else { 10 };
    let closed_interval_s = 1.0;

    struct OpenPlan {
        name: String,
        mode: &'static str,
        servers: usize,
        rate: f64,
        interval_s: f64,
        intervals: usize,
        specs: Vec<ServerSpec>,
        /// MMPP mean cycle seconds; `None` = plain Poisson.
        mmpp_cycle: Option<f64>,
        seed: u64,
    }
    let mut open_plans: Vec<OpenPlan> = Vec::new();
    {
        let servers = 1024usize;
        let (interval_s, intervals) = open_shape(servers);
        let rate = UTILIZATION * servers as f64 / t_mean_open;
        let name = format!("open/memcached/s{servers}");
        if selected(only, &name) {
            open_plans.push(OpenPlan {
                name,
                mode: "open",
                servers,
                rate,
                interval_s,
                intervals,
                specs: big_specs(&open_model, servers),
                mmpp_cycle: None,
                seed: 42,
            });
        }
        let name = format!("open/memcached-mmpp/s{servers}");
        if selected(only, &name) {
            open_plans.push(OpenPlan {
                name,
                mode: "open-mmpp",
                servers,
                rate,
                interval_s,
                intervals,
                specs: big_specs(&open_model, servers),
                mmpp_cycle: Some(interval_s),
                seed: 53,
            });
        }
    }

    struct ClosedPlan {
        name: String,
        servers: usize,
        clients: usize,
        offered: f64,
        specs: Vec<ServerSpec>,
        thinks: Vec<f64>,
        demands: Vec<Demand>,
        probe_checksum: Vec<(usize, usize, usize, u64)>,
    }
    let mut closed_plans: Vec<ClosedPlan> = Vec::new();
    for &(servers, clients) in &[(256usize, 1024usize), (1024, 4096)] {
        let name = format!("closed/web-search/c{clients}");
        if !selected(only, &name) {
            continue;
        }
        // Think time calibrated so offered load ≈ UTILIZATION × capacity
        // (the PR3 closed-cell calibration).
        let think = (t_mean_closed * clients as f64 / (UTILIZATION * servers as f64)
            - t_mean_closed)
            .max(1e-3);
        let offered = clients as f64 / (think + t_mean_closed);
        // Untimed probe run fixes the stream lengths (and the expected
        // checksum the replays must reproduce).
        let mut node = ServiceNode::new();
        let mut pool = ThinkPool::new();
        let probe = drive_closed(
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
        let (thinks, demands) = closed_streams(&closed_model, clients, think, &probe, 43);
        closed_plans.push(ClosedPlan {
            name,
            servers,
            clients,
            offered,
            specs: big_specs(&closed_model, servers),
            thinks,
            demands,
            probe_checksum: probe.checksum,
        });
    }

    let juno = selected(only, JUNO_CELL);
    if open_plans.is_empty() && closed_plans.is_empty() && !juno {
        return; // --only matched nothing here; leave the file alone
    }

    // Timed passes interleave round-robin over (cell × implementation),
    // for the same drift-spreading reason as the PR5 cells.
    let mut buf: Vec<(f64, Demand)> = Vec::new();

    // One untimed tracing pass per cell captures the exact event-core op
    // sequence the simulation issues (the node result is discarded); the
    // timed core races replay it below.
    let open_traces: Vec<Vec<CoreOp>> = open_plans
        .iter()
        .map(|plan| {
            core_trace_take();
            let mut node = QueuedNode::<TraceQueue>::new();
            if let Some(cycle) = plan.mmpp_cycle {
                let mut gen = MmppStream::new(&open_model, plan.rate, cycle, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                );
            } else {
                let mut gen = OpenStreamGen::new(&open_model, plan.rate, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                );
            }
            core_trace_take()
        })
        .collect();
    let closed_traces: Vec<Vec<CoreOp>> = closed_plans
        .iter()
        .map(|plan| {
            core_trace_take();
            let mut node = QueuedNode::<TraceQueue>::new();
            let mut pool = TracePool::default();
            replay_closed(
                &mut node,
                &mut pool,
                &plan.specs,
                &plan.thinks,
                &plan.demands,
                plan.clients,
                closed_interval_s,
                closed_intervals,
            );
            core_trace_take()
        })
        .collect();

    let mut open_new: Vec<Option<Measured>> = open_plans.iter().map(|_| None).collect();
    let mut open_ref: Vec<Option<Measured>> = open_plans.iter().map(|_| None).collect();
    let mut closed_new: Vec<Option<Measured>> = closed_plans.iter().map(|_| None).collect();
    let mut closed_ref: Vec<Option<Measured>> = closed_plans.iter().map(|_| None).collect();
    let mut open_core_new: Vec<Option<CoreMeasured>> = open_plans.iter().map(|_| None).collect();
    let mut open_core_ref: Vec<Option<CoreMeasured>> = open_plans.iter().map(|_| None).collect();
    let mut closed_core_new: Vec<Option<CoreMeasured>> =
        closed_plans.iter().map(|_| None).collect();
    let mut closed_core_ref: Vec<Option<CoreMeasured>> =
        closed_plans.iter().map(|_| None).collect();
    for _rep in 0..PR6_REPS {
        for (i, plan) in open_plans.iter().enumerate() {
            let mut node = ServiceNode::new();
            let m = if let Some(cycle) = plan.mmpp_cycle {
                let mut gen = MmppStream::new(&open_model, plan.rate, cycle, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                )
            } else {
                let mut gen = OpenStreamGen::new(&open_model, plan.rate, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                )
            };
            keep_best(&mut open_new[i], m);
            let mut node = PackedHeapNode::new();
            let m = if let Some(cycle) = plan.mmpp_cycle {
                let mut gen = MmppStream::new(&open_model, plan.rate, cycle, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                )
            } else {
                let mut gen = OpenStreamGen::new(&open_model, plan.rate, plan.seed);
                replay_open(
                    &mut node,
                    &plan.specs,
                    &[],
                    0.0,
                    &mut gen,
                    &mut buf,
                    plan.interval_s,
                    plan.intervals,
                )
            };
            keep_best(&mut open_ref[i], m);
            let mut q = CalendarQueue::new();
            let mut p = ThinkPool::new();
            keep_best_core(
                &mut open_core_new[i],
                replay_core(&open_traces[i], &mut q, &mut p),
            );
            let mut q = PackedHeap::default();
            let mut p = HeapThinkPool::new();
            keep_best_core(
                &mut open_core_ref[i],
                replay_core(&open_traces[i], &mut q, &mut p),
            );
        }
        for (i, plan) in closed_plans.iter().enumerate() {
            let mut node = ServiceNode::new();
            let mut pool = ThinkPool::new();
            let m = replay_closed(
                &mut node,
                &mut pool,
                &plan.specs,
                &plan.thinks,
                &plan.demands,
                plan.clients,
                closed_interval_s,
                closed_intervals,
            );
            keep_best(&mut closed_new[i], m);
            let mut node = PackedHeapNode::new();
            let mut pool = HeapThinkPool::new();
            let m = replay_closed(
                &mut node,
                &mut pool,
                &plan.specs,
                &plan.thinks,
                &plan.demands,
                plan.clients,
                closed_interval_s,
                closed_intervals,
            );
            keep_best(&mut closed_ref[i], m);
            let mut q = CalendarQueue::new();
            let mut p = ThinkPool::new();
            keep_best_core(
                &mut closed_core_new[i],
                replay_core(&closed_traces[i], &mut q, &mut p),
            );
            let mut q = PackedHeap::default();
            let mut p = HeapThinkPool::new();
            keep_best_core(
                &mut closed_core_ref[i],
                replay_core(&closed_traces[i], &mut q, &mut p),
            );
        }
    }

    // Folds one cell's core passes into a `CoreRace`, asserting the
    // calendar and the frozen heaps returned bit-identical pop/peek
    // sequences over the recorded trace.
    let fold_core = |name: &str, ops: usize, new: CoreMeasured, reference: CoreMeasured| {
        assert_eq!(
            new.sink, reference.sink,
            "{name}: calendar and frozen-heap op-trace replays diverged"
        );
        CoreRace {
            ops,
            new_wall_s: new.wall_s,
            ref_wall_s: reference.wall_s,
        }
    };

    let mut cells: Vec<Cell> = Vec::new();
    for (i, plan) in open_plans.into_iter().enumerate() {
        let new = open_new[i].take().expect("every plan ran");
        let reference = open_ref[i].take().expect("every plan ran");
        check_equivalence(&plan.name, &new, &reference);
        let core = fold_core(
            &plan.name,
            open_traces[i].len(),
            open_core_new[i].take().expect("every plan ran"),
            open_core_ref[i].take().expect("every plan ran"),
        );
        println!(
            "  {} ... node {:.2} M events/s (packed heap {:.2} M) — {:.2}×; \
             core {:.1} ns/op (packed heap {:.1}) — {:.2}×",
            plan.name,
            new.events_per_sec() / 1e6,
            reference.events_per_sec() / 1e6,
            new.events_per_sec() / reference.events_per_sec().max(1e-9),
            core.ns_per_op(core.new_wall_s),
            core.ns_per_op(core.ref_wall_s),
            core.speedup(),
        );
        cells.push(Cell {
            name: plan.name,
            mode: plan.mode,
            servers: plan.servers,
            clients: None,
            offered_rps: plan.rate,
            interval_s: plan.interval_s,
            intervals: plan.intervals,
            new,
            reference,
            core: Some(core),
        });
    }
    for (i, plan) in closed_plans.into_iter().enumerate() {
        let new = closed_new[i].take().expect("every plan ran");
        let reference = closed_ref[i].take().expect("every plan ran");
        check_equivalence(&plan.name, &new, &reference);
        assert_eq!(
            new.checksum, plan.probe_checksum,
            "{}: replayed streams diverged from the inline-sampling probe",
            plan.name
        );
        let core = fold_core(
            &plan.name,
            closed_traces[i].len(),
            closed_core_new[i].take().expect("every plan ran"),
            closed_core_ref[i].take().expect("every plan ran"),
        );
        println!(
            "  {} ... node {:.2} M events/s (packed heap {:.2} M) — {:.2}×; \
             core {:.1} ns/op (packed heap {:.1}) — {:.2}×",
            plan.name,
            new.events_per_sec() / 1e6,
            reference.events_per_sec() / 1e6,
            new.events_per_sec() / reference.events_per_sec().max(1e-9),
            core.ns_per_op(core.new_wall_s),
            core.ns_per_op(core.ref_wall_s),
            core.speedup(),
        );
        cells.push(Cell {
            name: plan.name,
            mode: "closed",
            servers: plan.servers,
            clients: Some(plan.clients),
            offered_rps: plan.offered,
            interval_s: closed_interval_s,
            intervals: closed_intervals,
            new,
            reference,
            core: Some(core),
        });
    }

    if juno {
        let cell = juno_cell(smoke);
        println!(
            "  {} ... node {:.2} M events/s (packed heap {:.2} M) — {:.2}× (floor {JUNO_FLOOR})",
            cell.name,
            cell.new.events_per_sec() / 1e6,
            cell.reference.events_per_sec() / 1e6,
            cell.speedup(),
        );
        if !smoke {
            assert!(
                cell.speedup() >= JUNO_FLOOR,
                "Juno floor: {JUNO_CELL} end-to-end events/sec must be at least \
                 {JUNO_FLOOR}× the frozen packed-heap node, got {:.2}×",
                cell.speedup()
            );
        }
        cells.push(cell);
    }

    let find = |n: &str| cells.iter().find(|c| c.name == n);
    let flat = match (
        find("closed/web-search/c1024"),
        find("closed/web-search/c4096"),
    ) {
        (Some(c1024), Some(c4096)) => {
            let ratio = c1024.new.events_per_sec() / c4096.new.events_per_sec().max(1e-9);
            println!(
                "\nflatness: c1024 {:.2} M events/s vs c4096 {:.2} M — ratio {ratio:.2} (floor 1.3)",
                c1024.new.events_per_sec() / 1e6,
                c4096.new.events_per_sec() / 1e6,
            );
            format!(
                ",\"flatness\":{{\"c1024_events_per_sec\":{:.1},\
                 \"c4096_events_per_sec\":{:.1},\"ratio\":{:.3}}}",
                c1024.new.events_per_sec(),
                c4096.new.events_per_sec(),
                ratio
            )
        }
        _ => String::new(),
    };

    // Enforce the recorded-baseline floors on full runs only.
    if !smoke && only.is_none() {
        let c4096 = find("closed/web-search/c4096").expect("full run has the c4096 cell");
        let core = c4096.core.as_ref().expect("PR6 cells record a core race");
        assert!(
            core.speedup() >= 1.3,
            "PR6 floor: the closed/web-search/c4096 event-core op-trace replay must be \
             ≥1.3× over the frozen packed heaps, got {:.2}×",
            core.speedup()
        );
        assert!(
            c4096.speedup() >= 1.0,
            "PR6 floor: closed/web-search/c4096 end-to-end events/sec must not regress \
             vs the frozen heap node, got {:.2}×",
            c4096.speedup()
        );
        let c1024 = find("closed/web-search/c1024").expect("full run has the c1024 cell");
        let ratio = c1024.new.events_per_sec() / c4096.new.events_per_sec().max(1e-9);
        assert!(
            ratio <= 1.3,
            "PR6 floor: c4096 events/sec must be within 1.3× of c1024, got {ratio:.2}×"
        );
    }

    let body: Vec<String> = cells.iter().map(Cell::json).collect();
    let json = format!(
        "{{\"bench\":\"hipster calendar-queue event core\",\"pr\":\"PR6\",\
         \"smoke\":{smoke},\"tail_percentile\":{TAIL_P},\
         \"utilization\":{UTILIZATION},\
         \"reference_impl\":\"PackedHeapNode + HeapThinkPool (PR5 packed-u128 binary heaps)\",\
         \"mmpp\":{{\"duty\":{MMPP_DUTY},\"burst_factor\":{MMPP_BURST_FACTOR},\
         \"calm_factor\":{MMPP_CALM_FACTOR}}},\
         \"cells\":[\n  {}\n]{flat}}}\n",
        body.join(",\n  ")
    );
    let path = "BENCH_PR6.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("  [json] wrote {path}"),
        Err(e) => eprintln!("  [json] FAILED to write {path}: {e}"),
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
    fn core_trace_replays_identically_on_both_impls() {
        // Capture a small closed-loop cell's op trace, then replay it
        // against the calendar pair and the frozen heap pair: both must
        // return bit-identical pop/peek sequences (folded into `sink`).
        let model = web_search();
        core_trace_take();
        let mut node = QueuedNode::<TraceQueue>::new();
        let mut pool = TracePool::default();
        drive_closed(&mut node, &mut pool, &model, 3, 48, 0.05, 0.25, 3, 5);
        let ops = core_trace_take();
        assert!(
            ops.iter()
                .any(|op| matches!(op, CoreOp::CqPush(..) | CoreOp::TpPush(..))),
            "trace captured no pushes"
        );
        let mut q = CalendarQueue::new();
        let mut p = ThinkPool::new();
        let new = replay_core(&ops, &mut q, &mut p);
        let mut q = PackedHeap::default();
        let mut p = HeapThinkPool::new();
        let reference = replay_core(&ops, &mut q, &mut p);
        assert_eq!(new.sink, reference.sink);
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
        // driver bit-for-bit, for both the calendar and frozen-heap impls.
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
        let mut c = PackedHeapNode::new();
        let mut pc = HeapThinkPool::new();
        let heap = replay_closed(
            &mut c, &mut pc, &specs, &thinks, &demands, clients, interval_s, intervals,
        );
        assert_eq!(heap.checksum, probe.checksum, "heap replay diverged");
    }

    #[test]
    fn mmpp_stream_is_deterministic_and_rate_sane() {
        let model = memcached();
        let rate = 2000.0;
        let mut counts = Vec::new();
        for _ in 0..2 {
            let mut gen = MmppStream::new(&model, rate, 0.1, 9);
            let mut buf = Vec::new();
            let mut all: Vec<(u64, u64)> = Vec::new();
            let mut total = 0usize;
            for i in 1..=20 {
                gen.gen_interval(i as f64 * 0.1, &mut buf);
                total += buf.len();
                all.extend(buf.iter().map(|(t, d)| (t.to_bits(), d.work.to_bits())));
            }
            // Arrivals are strictly ordered across interval boundaries.
            assert!(all
                .windows(2)
                .all(|w| { f64::from_bits(w[0].0) <= f64::from_bits(w[1].0) }));
            counts.push((total, all));
        }
        assert_eq!(counts[0], counts[1], "same seed must replay identically");
        // Long-run mean rate ≈ nominal (duty-weighted factors sum to 1);
        // the tolerance is loose — 2 s of a bursty stream is noisy.
        let requests = counts[0].0 as f64;
        let expected = rate * 2.0;
        assert!(
            requests > expected * 0.4 && requests < expected * 2.5,
            "MMPP mean rate off: got {requests} arrivals, expected ≈{expected}"
        );
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
            core: Some(CoreRace {
                ops: 20,
                new_wall_s: 0.1,
                ref_wall_s: 0.3,
            }),
        };
        let j = cell.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"clients\":null"));
        assert!(j.contains("\"speedup\":2.00"));
        assert!(j.contains("\"core\":{\"ops\":20"));
        assert!(j.contains("\"speedup\":3.00"));
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
