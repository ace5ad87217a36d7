//! The scan oracles: the service node's original event machinery, kept
//! verbatim in behaviour as the one reference each optimized layer is
//! checked and raced against.
//!
//! * [`ReferenceNode`] — the FIFO multi-server node as first written:
//!   per-event linear scans over every server for the next completion
//!   and the fastest free server, a float-equality completion lookup, a
//!   full-sort percentile and per-interval allocations.
//! * [`ReferenceThinkPool`] — the closed-loop thinking pool as a plain
//!   `Vec` of expiries with O(n) scans.
//! * [`percentile_sort`] — the exact percentile by full sort.
//!
//! They serve two purposes:
//!
//! 1. **Differential testing** — `tests/node_equivalence.rs` drives
//!    [`ReferenceNode`] and [`ServiceNode`](crate::ServiceNode) with
//!    identical event sequences and asserts bit-identical completions,
//!    timeouts and interval statistics; `tests/calendar_equivalence.rs`
//!    races the calendar [`ThinkPool`](crate::ThinkPool) against
//!    [`ReferenceThinkPool`].
//! 2. **Benchmark baseline** — `repro bench` races the production node
//!    against these oracles on identical streams, digest-compared, and
//!    records the speedup floors of `BENCH.jsonl` on them.
//!
//! Nothing here should be used by production code paths; the oracles
//! intentionally keep the costs of the original scans.

use std::collections::VecDeque;

use crate::request::{Demand, Request, RequestId};
use crate::service::{NodeInterval, ServerSpec};

/// Exact percentile via a full sort — the original implementation of
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

/// The original FIFO multi-server queueing node: per-event linear scans
/// over all servers, float-equality completion re-scan, per-interval
/// allocations.
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

/// The original closed-loop thinking pool: a plain `Vec` of absolute
/// expiry times with an O(n) scan per pop and per retirement — the oracle
/// for the calendar-backed [`ThinkPool`](crate::ThinkPool).
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
