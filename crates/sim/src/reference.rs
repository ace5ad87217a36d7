//! Frozen pre-optimization event machinery, kept as differential oracles.
//!
//! PR 3 replaced the service node's linear scans (per-event `min`/`max`
//! sweeps over every server, float-equality completion lookup, full-sort
//! percentiles, a `Vec` thinking pool with O(n) scans) with indexed heaps
//! and order statistics; PR 5 then replaced the free-server max-heap with
//! bitmap free lists (today one preference-rank bitset); PR 6 replaced
//! the packed-`u128`
//! completion heap and the binary-heap think pool with the calendar queue.
//! This module preserves the *old* implementations, verbatim in behaviour,
//! for two purposes:
//!
//! 1. **Differential testing** — property tests drive [`ReferenceNode`]
//!    (pre-PR3, linear scans) and [`HeapNode`] (PR 3/4-era, free-server
//!    max-heap) against [`ServiceNode`](crate::ServiceNode) with identical
//!    event sequences and assert bit-identical completions, timeouts and
//!    interval statistics (`tests/node_equivalence.rs`,
//!    `tests/dispatch_equivalence.rs`); `tests/calendar_equivalence.rs`
//!    drives the [`CalendarQueue`](crate::CalendarQueue) against the frozen
//!    [`PackedHeap`] (and the calendar `ThinkPool` against
//!    [`HeapThinkPool`]) op-for-op.
//! 2. **Benchmark baseline** — `repro bench` measures the frozen
//!    implementations with the same harness so `BENCH_PR3.json` /
//!    `BENCH_PR5.json` / `BENCH_PR6.json` record true speedups, and future
//!    PRs inherit a perf trajectory anchored at the earlier engines.
//!    [`PackedHeapNode`] instantiates the production node body over the
//!    frozen heap, so the PR 6 matrix varies *only* the event core.
//!
//! Nothing here should be used by production code paths; each frozen copy
//! intentionally keeps the costs its era paid.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::completion::CompletionQueue;
use crate::latency::LatencyRecorder;
use crate::ordf64::TotalF64;
use crate::request::{Demand, Request, RequestId};
use crate::service::{NodeInterval, QueuedNode, ServerSpec};

/// Exact percentile via a full sort — the pre-PR3 implementation of
/// [`percentile`](crate::percentile) (same linear-interpolation convention,
/// O(n log n) instead of O(n)).
pub fn percentile_sort(samples: &mut [f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile {p} not in [0,1]");
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 1 {
        return Some(samples[0]);
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    started: f64,
    finish: f64,
}

#[derive(Debug, Clone)]
struct Server {
    spec: ServerSpec,
    available_at: f64,
    in_flight: Option<InFlight>,
    busy_in_interval: f64,
}

impl Server {
    fn service_time(&self, req: &Request) -> f64 {
        (req.work_left / self.spec.speed + req.mem_left) * self.spec.slowdown
    }
}

/// The pre-PR3 FIFO multi-server queueing node: per-event linear scans over
/// all servers, float-equality completion re-scan, per-interval allocations.
///
/// API mirrors [`ServiceNode`](crate::ServiceNode) exactly; see that type
/// for semantics. Kept only for differential tests and `repro bench`.
#[derive(Debug, Clone)]
pub struct ReferenceNode {
    queue: VecDeque<Request>,
    servers: Vec<Server>,
    samples: Vec<f64>,
    next_id: u64,
    interval_start: f64,
    interval_arrivals: usize,
    interval_completions: usize,
    interval_timeouts: usize,
    total_completed: u64,
    timeout_s: Option<f64>,
}

impl ReferenceNode {
    /// Creates a node with no servers (configure before use).
    pub fn new() -> Self {
        ReferenceNode {
            queue: VecDeque::new(),
            servers: Vec::new(),
            samples: Vec::new(),
            next_id: 0,
            interval_start: 0.0,
            interval_arrivals: 0,
            interval_completions: 0,
            interval_timeouts: 0,
            total_completed: 0,
            timeout_s: None,
        }
    }

    /// Sets the client-side request timeout (`None` = patient clients).
    pub fn set_timeout(&mut self, timeout_s: Option<f64>) {
        if let Some(t) = timeout_s {
            assert!(t > 0.0, "timeout must be positive: {t}");
        }
        self.timeout_s = timeout_s;
    }

    /// Number of servers currently configured.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Requests waiting in the queue (excluding in-flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently being serviced (O(n) scan, as the original).
    pub fn in_flight(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.in_flight.is_some())
            .count()
    }

    /// Total requests completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Reconfigures the server set at time `now` (see
    /// [`ServiceNode::reconfigure`](crate::ServiceNode::reconfigure)).
    pub fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        assert!(!specs.is_empty(), "service node needs at least one server");
        for s in specs {
            assert!(s.speed > 0.0, "server speed must be positive: {s:?}");
            assert!(s.slowdown >= 1.0, "slowdown must be ≥ 1: {s:?}");
        }
        if preempt {
            self.preempt_all(now);
            self.servers = specs
                .iter()
                .map(|&spec| Server {
                    spec,
                    available_at: now + stall_s,
                    in_flight: None,
                    busy_in_interval: 0.0,
                })
                .collect();
        } else {
            assert_eq!(
                specs.len(),
                self.servers.len(),
                "DVFS-only reconfiguration cannot change the server count"
            );
            let interval_start = self.interval_start;
            for (server, &spec) in self.servers.iter_mut().zip(specs) {
                if let Some(fl) = server.in_flight.as_mut() {
                    let left = remaining_fraction(fl.started, fl.finish, now);
                    fl.req.work_left *= left;
                    fl.req.mem_left *= left;
                    server.busy_in_interval += (now - fl.started.max(interval_start)).max(0.0);
                    fl.started = now;
                    let t = (fl.req.work_left / spec.speed + fl.req.mem_left) * spec.slowdown;
                    fl.finish = (now + stall_s) + t;
                }
                server.spec = spec;
                server.available_at = server.available_at.max(now + stall_s);
            }
        }
        self.dispatch(now + stall_s);
    }

    fn preempt_all(&mut self, now: f64) {
        let interval_start = self.interval_start;
        let mut preempted: Vec<Request> = Vec::new();
        for server in &mut self.servers {
            if let Some(mut fl) = server.in_flight.take() {
                server.busy_in_interval += (now - fl.started.max(interval_start)).max(0.0);
                let left = remaining_fraction(fl.started, fl.finish, now);
                fl.req.work_left *= left;
                fl.req.mem_left *= left;
                preempted.push(fl.req);
            }
        }
        preempted.sort_by_key(|r| r.id);
        for req in preempted.into_iter().rev() {
            self.queue.push_front(req);
        }
    }

    /// Marks the start of a monitoring interval at time `t`.
    pub fn begin_interval(&mut self, t: f64) {
        self.interval_start = t;
        self.interval_arrivals = 0;
        self.interval_completions = 0;
        self.interval_timeouts = 0;
        for s in &mut self.servers {
            s.busy_in_interval = 0.0;
        }
    }

    /// Enqueues a request arriving at `now`, then dispatches.
    pub fn arrive(&mut self, now: f64, demand: Demand) {
        let req = Request::new(RequestId(self.next_id), now, demand);
        self.next_id += 1;
        self.interval_arrivals += 1;
        self.queue.push_back(req);
        self.dispatch(now);
    }

    /// Earliest pending completion time — a linear scan over all servers.
    pub fn next_completion(&self) -> Option<f64> {
        self.servers
            .iter()
            .filter_map(|s| s.in_flight.as_ref().map(|f| f.finish))
            .min_by(f64::total_cmp)
    }

    /// Processes all completions up to and including time `to`.
    pub fn advance(&mut self, to: f64) {
        while let Some(t) = self.next_completion() {
            if t > to {
                break;
            }
            self.complete_one(t);
        }
    }

    /// Like [`ReferenceNode::advance`], appending completion times to `out`.
    pub fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        while let Some(t) = self.next_completion() {
            if t > to {
                break;
            }
            self.complete_one(t);
            out.push(t);
        }
    }

    fn complete_one(&mut self, t: f64) {
        // The float-equality re-scan PR 3 removed: find the server whose
        // in-flight finish equals the minimum found by `next_completion`.
        let idx = self
            .servers
            .iter()
            .position(|s| s.in_flight.as_ref().is_some_and(|f| f.finish == t))
            .expect("completion time came from a server");
        let fl = self.servers[idx].in_flight.take().expect("server busy");
        self.servers[idx].busy_in_interval += t - fl.started.max(self.interval_start);
        self.servers[idx].available_at = t;
        let latency = fl.req.age(t);
        assert!(
            latency.is_finite() && latency >= 0.0,
            "invalid latency: {latency}"
        );
        self.samples.push(latency);
        self.interval_completions += 1;
        self.total_completed += 1;
        self.dispatch(t);
    }

    fn dispatch(&mut self, now: f64) {
        loop {
            if let Some(t) = self.timeout_s {
                while self.queue.front().is_some_and(|r| r.age(now) > t) {
                    self.queue.pop_front();
                    self.samples.push(t);
                    self.interval_timeouts += 1;
                }
            }
            if self.queue.is_empty() {
                return;
            }
            // Full scan for the fastest free server whose stall has elapsed.
            let best = self
                .servers
                .iter_mut()
                .filter(|s| s.in_flight.is_none() && s.available_at <= now)
                .max_by(|a, b| {
                    (a.spec.speed / a.spec.slowdown).total_cmp(&(b.spec.speed / b.spec.slowdown))
                });
            let Some(server) = best else { return };
            let req = self.queue.pop_front().expect("queue non-empty");
            let service = server.service_time(&req);
            server.in_flight = Some(InFlight {
                req,
                started: now,
                finish: now + service,
            });
        }
    }

    /// Starts work that queued during a reconfiguration stall.
    pub fn kick(&mut self, t: f64) {
        self.dispatch(t);
    }

    /// Closes the interval at `t_end`, returning its statistics
    /// (allocates the per-server busy vector, as the original did).
    pub fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        for s in &mut self.servers {
            if let Some(fl) = &s.in_flight {
                s.busy_in_interval += t_end - fl.started.max(self.interval_start);
            }
        }
        let dur = (t_end - self.interval_start).max(f64::EPSILON);
        let busy: Vec<f64> = self
            .servers
            .iter()
            .map(|s| (s.busy_in_interval / dur).clamp(0.0, 1.0))
            .collect();
        let n = self.samples.len();
        let (tail, mean) = if n == 0 {
            (None, None)
        } else {
            let mean = self.samples.iter().sum::<f64>() / n as f64;
            let tail = percentile_sort(&mut self.samples, p);
            self.samples.clear();
            (tail, Some(mean))
        };
        let tail = tail.unwrap_or_else(|| self.oldest_age(t_end));
        NodeInterval {
            arrivals: self.interval_arrivals,
            completions: self.interval_completions,
            timeouts: self.interval_timeouts,
            tail_latency_s: tail,
            mean_latency_s: mean.unwrap_or(0.0),
            busy,
            queue_len: self.queue.len(),
        }
    }

    fn oldest_age(&self, now: f64) -> f64 {
        let queued = self.queue.front().map(|r| r.age(now));
        let in_flight = self
            .servers
            .iter()
            .filter_map(|s| s.in_flight.as_ref().map(|f| f.req.age(now)))
            .max_by(f64::total_cmp);
        match (queued, in_flight) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 0.0,
        }
    }
}

impl Default for ReferenceNode {
    fn default() -> Self {
        Self::new()
    }
}

fn remaining_fraction(started: f64, finish: f64, now: f64) -> f64 {
    let total = finish - started;
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - ((now - started) / total).clamp(0.0, 1.0)
}

/// The pre-PR3 closed-loop thinking pool: a plain `Vec` of absolute expiry
/// times with an O(n) scan per pop and per retirement — exactly what
/// `Engine::run_events_closed` used before the binary-heap
/// [`ThinkPool`](crate::ThinkPool).
#[derive(Debug, Clone, Default)]
pub struct ReferenceThinkPool {
    thinking: Vec<f64>,
}

impl ReferenceThinkPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients currently thinking.
    pub fn len(&self) -> usize {
        self.thinking.len()
    }

    /// Whether no client is thinking.
    pub fn is_empty(&self) -> bool {
        self.thinking.is_empty()
    }

    /// Adds a client whose think timer expires at `expiry`.
    pub fn push(&mut self, expiry: f64) {
        self.thinking.push(expiry);
    }

    /// Earliest think expiry (linear scan).
    pub fn peek_min(&self) -> Option<f64> {
        self.thinking.iter().copied().min_by(f64::total_cmp)
    }

    /// Removes and returns the earliest expiry (linear scan + swap-remove).
    pub fn pop_min(&mut self) -> Option<f64> {
        let idx = self
            .thinking
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)?;
        Some(self.thinking.swap_remove(idx))
    }

    /// Retires the `k` clients that would submit last, one O(n) max-scan at
    /// a time (the original shrink loop).
    pub fn retire_latest(&mut self, k: usize) {
        for _ in 0..k {
            let Some((idx, _)) = self
                .thinking
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
            else {
                return;
            };
            self.thinking.swap_remove(idx);
        }
    }
}

#[derive(Debug, Clone)]
struct HeapInFlight {
    req: Request,
    /// When the current execution (re)started.
    started: f64,
    /// Completion time under the current spec.
    finish: f64,
}

#[derive(Debug, Clone)]
struct HeapServer {
    spec: ServerSpec,
    /// Effective dispatch speed, `spec.speed / spec.slowdown`.
    eff: f64,
    /// Earliest time this server may start (end of a reconfiguration stall).
    available_at: f64,
    in_flight: Option<HeapInFlight>,
    busy_in_interval: f64,
}

impl HeapServer {
    fn service_time(&self, req: &Request) -> f64 {
        (req.work_left / self.spec.speed + req.mem_left) * self.spec.slowdown
    }
}

/// Pending-completion heap entry; min-heap order on `(finish, server)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapCompletion {
    finish: TotalF64,
    server: usize,
}

/// Free-server heap entry; max-heap order on `(eff, server)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapFreeServer {
    eff: TotalF64,
    server: usize,
}

/// The PR 3/4-era FIFO multi-server queueing node, frozen verbatim: pending
/// completions in a `(finish, server)` min-heap **and free servers in an
/// effective-speed max-heap** with a stalled side-`Vec` — the O(log n)
/// dispatch path PR 5 replaced with speed-class bitmap free lists.
///
/// API mirrors [`ServiceNode`](crate::ServiceNode) exactly; see that type
/// for semantics. Kept only for differential tests
/// (`tests/dispatch_equivalence.rs`) and the `repro bench` PR 5 cells.
#[derive(Debug, Clone)]
pub struct HeapNode {
    queue: VecDeque<Request>,
    servers: Vec<HeapServer>,
    /// Min-heap of pending completions, one entry per busy server.
    completions: BinaryHeap<Reverse<HeapCompletion>>,
    /// Max-heap of free servers whose reconfiguration stall has elapsed.
    free: BinaryHeap<HeapFreeServer>,
    /// Free servers not (yet) proven eligible (see
    /// [`ServiceNode`](crate::ServiceNode) for the protocol).
    stalled: Vec<usize>,
    /// Number of busy servers (kept incrementally).
    in_flight_count: usize,
    recorder: LatencyRecorder,
    /// Reused buffer for preempted in-flight requests.
    preempt_scratch: Vec<Request>,
    next_id: u64,
    interval_start: f64,
    interval_arrivals: usize,
    interval_completions: usize,
    interval_timeouts: usize,
    total_completed: u64,
    /// Client-side request timeout.
    timeout_s: Option<f64>,
}

impl HeapNode {
    /// Creates a node with no servers (configure before use).
    pub fn new() -> Self {
        HeapNode {
            queue: VecDeque::new(),
            servers: Vec::new(),
            completions: BinaryHeap::new(),
            free: BinaryHeap::new(),
            stalled: Vec::new(),
            in_flight_count: 0,
            recorder: LatencyRecorder::new(),
            preempt_scratch: Vec::new(),
            next_id: 0,
            interval_start: 0.0,
            interval_arrivals: 0,
            interval_completions: 0,
            interval_timeouts: 0,
            total_completed: 0,
            timeout_s: None,
        }
    }

    /// Sets the client-side request timeout (`None` = patient clients).
    ///
    /// # Panics
    ///
    /// Panics if the timeout is not strictly positive.
    pub fn set_timeout(&mut self, timeout_s: Option<f64>) {
        if let Some(t) = timeout_s {
            assert!(t > 0.0, "timeout must be positive: {t}");
        }
        self.timeout_s = timeout_s;
    }

    /// Number of servers currently configured.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Requests waiting in the queue (excluding in-flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently being serviced (O(1)).
    pub fn in_flight(&self) -> usize {
        self.in_flight_count
    }

    /// Total requests completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Reconfigures the server set at time `now` (see
    /// [`ServiceNode::reconfigure`](crate::ServiceNode::reconfigure)).
    ///
    /// # Panics
    ///
    /// Panics as [`ServiceNode::reconfigure`](crate::ServiceNode::reconfigure)
    /// does.
    pub fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        assert!(!specs.is_empty(), "service node needs at least one server");
        for s in specs {
            assert!(s.speed > 0.0, "server speed must be positive: {s:?}");
            assert!(s.slowdown >= 1.0, "slowdown must be ≥ 1: {s:?}");
        }
        if preempt {
            self.preempt_all(now);
            self.servers.clear();
            self.servers.extend(specs.iter().map(|&spec| HeapServer {
                spec,
                eff: spec.speed / spec.slowdown,
                available_at: now + stall_s,
                in_flight: None,
                busy_in_interval: 0.0,
            }));
        } else {
            assert_eq!(
                specs.len(),
                self.servers.len(),
                "DVFS-only reconfiguration cannot change the server count"
            );
            let interval_start = self.interval_start;
            for (server, &spec) in self.servers.iter_mut().zip(specs) {
                if let Some(fl) = server.in_flight.as_mut() {
                    let left = remaining_fraction(fl.started, fl.finish, now);
                    fl.req.work_left *= left;
                    fl.req.mem_left *= left;
                    server.busy_in_interval += (now - fl.started.max(interval_start)).max(0.0);
                    fl.started = now;
                    let t = (fl.req.work_left / spec.speed + fl.req.mem_left) * spec.slowdown;
                    fl.finish = (now + stall_s) + t;
                }
                server.spec = spec;
                server.eff = spec.speed / spec.slowdown;
                server.available_at = server.available_at.max(now + stall_s);
            }
        }
        self.rebuild_index();
        self.dispatch(now + stall_s);
    }

    /// Rebuilds the completion heap, free heap and stall list from the
    /// server array (O(n log n) — the cost PR 5 removed).
    fn rebuild_index(&mut self) {
        self.completions.clear();
        self.free.clear();
        self.stalled.clear();
        self.in_flight_count = 0;
        for (i, s) in self.servers.iter().enumerate() {
            match &s.in_flight {
                Some(fl) => {
                    self.completions.push(Reverse(HeapCompletion {
                        finish: TotalF64(fl.finish),
                        server: i,
                    }));
                    self.in_flight_count += 1;
                }
                None => self.stalled.push(i),
            }
        }
    }

    fn preempt_all(&mut self, now: f64) {
        let interval_start = self.interval_start;
        let mut preempted = std::mem::take(&mut self.preempt_scratch);
        preempted.clear();
        for server in &mut self.servers {
            if let Some(mut fl) = server.in_flight.take() {
                server.busy_in_interval += (now - fl.started.max(interval_start)).max(0.0);
                let left = remaining_fraction(fl.started, fl.finish, now);
                fl.req.work_left *= left;
                fl.req.mem_left *= left;
                preempted.push(fl.req);
            }
        }
        preempted.sort_by_key(|r| r.id);
        for req in preempted.drain(..).rev() {
            self.queue.push_front(req);
        }
        self.preempt_scratch = preempted;
    }

    /// Marks the start of a monitoring interval at time `t`.
    pub fn begin_interval(&mut self, t: f64) {
        self.interval_start = t;
        self.interval_arrivals = 0;
        self.interval_completions = 0;
        self.interval_timeouts = 0;
        for s in &mut self.servers {
            s.busy_in_interval = 0.0;
        }
    }

    /// Enqueues a request arriving at `now`, then dispatches.
    pub fn arrive(&mut self, now: f64, demand: Demand) {
        let req = Request::new(RequestId(self.next_id), now, demand);
        self.next_id += 1;
        self.interval_arrivals += 1;
        self.queue.push_back(req);
        self.dispatch(now);
    }

    /// Earliest pending completion time, if any request is in flight.
    pub fn next_completion(&self) -> Option<f64> {
        self.completions.peek().map(|Reverse(c)| c.finish.0)
    }

    /// Processes all completions up to and including time `to`.
    pub fn advance(&mut self, to: f64) {
        while let Some(&Reverse(c)) = self.completions.peek() {
            if c.finish.0 > to {
                break;
            }
            self.completions.pop();
            self.complete_server(c.server, c.finish.0);
        }
    }

    /// Like [`HeapNode::advance`], appending completion times to `out`.
    pub fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        while let Some(&Reverse(c)) = self.completions.peek() {
            if c.finish.0 > to {
                break;
            }
            self.completions.pop();
            self.complete_server(c.server, c.finish.0);
            out.push(c.finish.0);
        }
    }

    fn complete_server(&mut self, idx: usize, t: f64) {
        let fl = self.servers[idx].in_flight.take().expect("server busy");
        self.servers[idx].busy_in_interval += t - fl.started.max(self.interval_start);
        self.servers[idx].available_at = t;
        self.in_flight_count -= 1;
        self.free.push(HeapFreeServer {
            eff: TotalF64(self.servers[idx].eff),
            server: idx,
        });
        self.recorder.record(fl.req.age(t));
        self.interval_completions += 1;
        self.total_completed += 1;
        self.dispatch(t);
    }

    /// Promotes stalled servers whose `available_at` has passed into the
    /// free heap — the per-server `Vec` scan PR 5 turned into a word-wise
    /// bitmap merge.
    fn promote_stalled(&mut self, now: f64) {
        let mut i = 0;
        while i < self.stalled.len() {
            let idx = self.stalled[i];
            if self.servers[idx].available_at <= now {
                self.free.push(HeapFreeServer {
                    eff: TotalF64(self.servers[idx].eff),
                    server: idx,
                });
                self.stalled.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn dispatch(&mut self, now: f64) {
        if let Some(t) = self.timeout_s {
            while self.queue.front().is_some_and(|r| r.age(now) > t) {
                self.queue.pop_front();
                self.recorder.record(t);
                self.interval_timeouts += 1;
            }
        }
        if self.queue.is_empty() {
            return;
        }
        if !self.stalled.is_empty() {
            self.promote_stalled(now);
        }
        while !self.queue.is_empty() {
            let Some(HeapFreeServer { server: idx, .. }) = self.free.pop() else {
                return;
            };
            if self.servers[idx].available_at > now {
                self.stalled.push(idx);
                continue;
            }
            let req = self.queue.pop_front().expect("queue non-empty");
            let server = &mut self.servers[idx];
            let service = server.service_time(&req);
            let finish = now + service;
            server.in_flight = Some(HeapInFlight {
                req,
                started: now,
                finish,
            });
            self.in_flight_count += 1;
            self.completions.push(Reverse(HeapCompletion {
                finish: TotalF64(finish),
                server: idx,
            }));
        }
    }

    /// Starts work that queued during a reconfiguration stall.
    pub fn kick(&mut self, t: f64) {
        self.dispatch(t);
    }

    /// Closes the interval at `t_end`, returning its statistics.
    pub fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        for s in &mut self.servers {
            if let Some(fl) = &s.in_flight {
                s.busy_in_interval += t_end - fl.started.max(self.interval_start);
            }
        }
        let dur = (t_end - self.interval_start).max(f64::EPSILON);
        let busy: Vec<f64> = self
            .servers
            .iter()
            .map(|s| (s.busy_in_interval / dur).clamp(0.0, 1.0))
            .collect();
        let (tail, mean, _n) = self.recorder.take_interval(p);
        let tail = tail.unwrap_or_else(|| self.oldest_age(t_end));
        NodeInterval {
            arrivals: self.interval_arrivals,
            completions: self.interval_completions,
            timeouts: self.interval_timeouts,
            tail_latency_s: tail,
            mean_latency_s: mean.unwrap_or(0.0),
            busy,
            queue_len: self.queue.len(),
        }
    }

    fn oldest_age(&self, now: f64) -> f64 {
        let queued = self.queue.front().map(|r| r.age(now));
        let in_flight = self
            .servers
            .iter()
            .filter_map(|s| s.in_flight.as_ref().map(|f| f.req.age(now)))
            .max_by(f64::total_cmp);
        match (queued, in_flight) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 0.0,
        }
    }
}

impl Default for HeapNode {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// PR 5-era event cores, frozen by PR 6's calendar queue.
// ---------------------------------------------------------------------------

/// Maps a finish time onto a `u64` whose unsigned order is exactly
/// [`f64::total_cmp`] order (frozen copy of the PR 5 key mapping; the
/// calendar queue uses the same bits, which is why their pop orders can
/// agree bit-for-bit).
#[inline]
fn key_of(finish: f64) -> u64 {
    let b = finish.to_bits();
    b ^ ((((b as i64) >> 63) as u64) >> 1) ^ (1u64 << 63)
}

/// Inverse of [`key_of`].
#[inline]
fn finish_of(key: u64) -> f64 {
    let b = if key >> 63 == 1 {
        key ^ (1u64 << 63)
    } else {
        !key
    };
    f64::from_bits(b)
}

/// Packs `(finish, server)` into one `u128`: key in the high 64 bits,
/// server index in the low 64, so entry order = (finish, server) order.
#[inline]
fn pack(finish: f64, server: usize) -> u128 {
    ((key_of(finish) as u128) << 64) | server as u128
}

/// The PR 5 pending-completion index, frozen verbatim: a binary min-heap
/// of packed-`u128` `(finish, server)` entries — one `u128` comparison per
/// sift step, O(log n) per push/pop.
///
/// Production code now uses the [`CalendarQueue`](crate::CalendarQueue)
/// (O(1) amortized); this copy anchors the `BENCH_PR6.json` baseline and
/// the `tests/calendar_equivalence.rs` differential battery.
#[derive(Debug, Clone, Default)]
pub struct PackedHeap {
    entries: BinaryHeap<Reverse<u128>>,
}

impl PackedHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Earliest pending finish time, if any.
    pub fn peek_finish(&self) -> Option<f64> {
        self.entries
            .peek()
            .map(|&Reverse(e)| finish_of((e >> 64) as u64))
    }

    /// Inserts the completion `(finish, server)` (O(log n)).
    pub fn push(&mut self, finish: f64, server: usize) {
        self.entries.push(Reverse(pack(finish, server)));
    }

    /// Pops the earliest completion if its finish time is ≤ `to` (under
    /// `f64` `>` semantics: a NaN root never compares later).
    pub fn pop_if_le(&mut self, to: f64) -> Option<(f64, usize)> {
        let &Reverse(root) = self.entries.peek()?;
        let finish = finish_of((root >> 64) as u64);
        if finish > to {
            return None;
        }
        self.entries.pop();
        Some((finish, root as u64 as usize))
    }

    /// Rebuilds the heap from scratch entries, heapified in O(n); reuses
    /// the heap's allocation and leaves `scratch` cleared.
    pub fn rebuild_from(&mut self, scratch: &mut Vec<(f64, usize)>) {
        let mut buf = std::mem::take(&mut self.entries).into_vec();
        buf.clear();
        buf.extend(scratch.iter().map(|&(f, s)| Reverse(pack(f, s))));
        scratch.clear();
        self.entries = BinaryHeap::from(buf);
    }

    /// The busy servers, in unspecified (heap) order.
    pub fn servers(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&Reverse(e)| e as u64 as usize)
    }

    /// Moves every `(finish, server)` entry into `out` (unspecified order)
    /// and empties the heap.
    pub fn drain_unordered(&mut self, out: &mut Vec<(f64, usize)>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .map(|&Reverse(e)| (finish_of((e >> 64) as u64), e as u64 as usize)),
        );
        self.entries.clear();
    }
}

impl CompletionQueue for PackedHeap {
    #[inline]
    fn len(&self) -> usize {
        PackedHeap::len(self)
    }
    #[inline]
    fn peek_finish(&self) -> Option<f64> {
        PackedHeap::peek_finish(self)
    }
    #[inline]
    fn push(&mut self, finish: f64, server: usize) {
        PackedHeap::push(self, finish, server);
    }
    #[inline]
    fn pop_if_le(&mut self, to: f64) -> Option<(f64, usize)> {
        PackedHeap::pop_if_le(self, to)
    }
    fn rebuild_from(&mut self, scratch: &mut Vec<(f64, usize)>) {
        PackedHeap::rebuild_from(self, scratch);
    }
    fn servers(&self) -> impl Iterator<Item = usize> + '_ {
        PackedHeap::servers(self)
    }
    fn drain_unordered(&mut self, out: &mut Vec<(f64, usize)>) {
        PackedHeap::drain_unordered(self, out);
    }
}

/// The production node body instantiated over the frozen [`PackedHeap`]:
/// a bit-identical PR 5-era service node where *only* the completion index
/// differs from [`ServiceNode`](crate::ServiceNode) — the free list is the
/// production one. This is the baseline the `BENCH_PR6.json` matrix
/// races.
pub type PackedHeapNode = QueuedNode<PackedHeap>;

/// The PR 3–5 closed-loop thinking pool, frozen verbatim: a binary
/// min-heap of expiry times, O(log n) push/pop and one O(n) selection for
/// `retire_latest`. Production code now uses the calendar-backed
/// [`ThinkPool`](crate::ThinkPool).
#[derive(Debug, Clone, Default)]
pub struct HeapThinkPool {
    heap: BinaryHeap<Reverse<TotalF64>>,
}

impl HeapThinkPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients currently thinking.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no client is thinking.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Adds a client whose think timer expires at `expiry` (O(log n)).
    pub fn push(&mut self, expiry: f64) {
        self.heap.push(Reverse(TotalF64(expiry)));
    }

    /// Earliest think expiry (O(1)).
    pub fn peek_min(&self) -> Option<f64> {
        self.heap.peek().map(|&Reverse(TotalF64(x))| x)
    }

    /// Removes and returns the earliest expiry (O(log n)).
    pub fn pop_min(&mut self) -> Option<f64> {
        self.heap.pop().map(|Reverse(TotalF64(x))| x)
    }

    /// Retires the `k` clients that would submit last (the largest
    /// expiries) with one O(n) selection pass.
    pub fn retire_latest(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        if k >= self.heap.len() {
            self.heap.clear();
            return;
        }
        let mut v = std::mem::take(&mut self.heap).into_vec();
        v.select_nth_unstable(k - 1);
        v.drain(..k);
        self.heap = BinaryHeap::from(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_platform::{CoreKind, Frequency};

    fn spec(speed: f64) -> ServerSpec {
        ServerSpec {
            kind: CoreKind::Big,
            freq: Frequency::from_mhz(1000),
            speed,
            slowdown: 1.0,
        }
    }

    #[test]
    fn reference_node_basic_interval() {
        let mut n = ReferenceNode::new();
        n.reconfigure(0.0, &[spec(2.0)], true, 0.0);
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.5));
        n.advance(10.0);
        let iv = n.end_interval(10.0, 0.95);
        assert_eq!(iv.completions, 1);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
        assert_eq!(n.total_completed(), 1);
        assert_eq!(n.num_servers(), 1);
    }

    #[test]
    fn percentile_sort_matches_convention() {
        assert_eq!(percentile_sort(&mut [], 0.5), None);
        assert_eq!(percentile_sort(&mut [7.0], 0.95), Some(7.0));
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_sort(&mut xs, 0.5), Some(2.5));
    }

    #[test]
    fn reference_pool_scan_semantics() {
        let mut p = ReferenceThinkPool::new();
        for x in [3.0, 1.0, 2.0, 5.0, 4.0] {
            p.push(x);
        }
        assert_eq!(p.peek_min(), Some(1.0));
        assert_eq!(p.pop_min(), Some(1.0));
        p.retire_latest(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.peek_min(), Some(2.0));
        p.retire_latest(10);
        assert!(p.is_empty());
        assert_eq!(p.pop_min(), None);
    }
}
