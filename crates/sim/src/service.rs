//! The latency-critical service node: a FIFO queue feeding a set of
//! heterogeneous core-servers.
//!
//! Requests arrive into a central FIFO queue and are dispatched to the
//! fastest idle server (requests cannot span cores). Service has two
//! sequential phases — a compute phase retired at the server's
//! frequency-dependent speed and a memory phase that is
//! frequency-insensitive — and both stretch under a contention slowdown
//! while batch jobs share the machine.
//!
//! Reconfigurations preempt in-flight requests (for core-mapping changes)
//! or rescale them (for pure DVFS changes), charging the corresponding
//! stall; this is how the paper's observation that "core-transitions are
//! far more costly relative to DVFS changes" enters the model.
//!
//! # Event-count scalability
//!
//! The node is indexed so per-event dispatch cost is flat in the server
//! count:
//!
//! * pending completions live in a [`CalendarQueue`] of `(finish, server)`
//!   events — finding and retiring the earliest completion is an O(1)
//!   amortized bucket pop. A Juno node's ≤6 pending completions never
//!   leave the queue's flat mode: one sorted stack, an insert per
//!   dispatch and a `Vec::pop` per completion, which a per-interval DVFS
//!   rebuild cannot mis-size;
//! * free servers live in a **preference-rank bitmap free list**
//!   (`freelist.rs`): the servers sorted once by (effective speed
//!   `speed / slowdown` descending, index descending) — re-sorted only
//!   when a reconfiguration changes the speed sequence — under one
//!   two-level u64 bitset indexed by rank, so `dispatch` is "lowest set
//!   rank" in O(1), and servers still inside a reconfiguration stall wait
//!   in a parallel stalled bitset that is promoted by a word-wise merge
//!   when the stall elapses;
//! * the in-flight count is tracked incrementally, and interval-boundary
//!   busy accounting walks the pending-completion entries (the busy
//!   servers) rather than every server.
//!
//! Tie-breaking reproduces the order the original linear scans produced —
//! completions: lowest server index first; dispatch: fastest effective
//! speed, ties toward the highest server index via leading-bit selection —
//! so traces are bit-identical to the scan node kept as the oracle
//! ([`ReferenceNode`](crate::reference::ReferenceNode)), property-tested
//! in `tests/node_equivalence.rs` and raced in `repro bench`.

use std::collections::VecDeque;

use hipster_platform::{CoreKind, Frequency};

use crate::calendar::CalendarQueue;
use crate::freelist::RankFreeList;
use crate::latency::LatencyRecorder;
use crate::request::{Demand, Request, RequestId};

/// Specification of one server (one core allocated to the LC workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Core class backing this server.
    pub kind: CoreKind,
    /// Cluster frequency of that core.
    pub freq: Frequency,
    /// Compute speed in work units per second at that frequency.
    pub speed: f64,
    /// Service-time multiplier ≥ 1 from contention / cold caches.
    pub slowdown: f64,
}

/// Per-server state the steady-state event path touches, 32 bytes — two
/// servers per cache line. Retiring a completion reads and writes only
/// this record (plus the free-list bit); the in-flight request's arrival
/// and start are flattened in (`repr(C)` pins the layout).
///
/// There is deliberately no "busy" flag and no stored finish time: **the
/// pending-completion queue is the busy set** — a server is in flight iff
/// it has a queue entry, and that entry carries the finish time. Cold
/// paths (preemption, DVFS rescale, the oldest-age fallback) iterate the
/// queue's entries instead of sweeping every server.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct HotServer {
    /// Earliest time this server may start (end of a reconfiguration
    /// stall; its completion time while idle).
    available_at: f64,
    /// Arrival time of the in-flight request (valid while busy).
    arrival: f64,
    /// When the current execution (re)started (valid while busy).
    started: f64,
    busy_in_interval: f64,
}

/// Per-server service rate, read by dispatch only (four per cache line).
#[derive(Debug, Clone, Copy, Default)]
struct Rate {
    /// Compute speed of the backing core (work units per second).
    speed: f64,
    /// Contention slowdown ≥ 1.
    slowdown: f64,
}

impl Rate {
    fn service_time(&self, req: &Request) -> f64 {
        (req.work_left / self.speed + req.mem_left) * self.slowdown
    }
}

/// Per-server state only reconfigurations touch (dispatch writes the
/// in-flight demand here without ever reading it back on the hot path).
#[derive(Debug, Clone, Copy, Default)]
struct ColdServer {
    /// Remaining compute demand of the in-flight request.
    work_left: f64,
    /// Remaining memory demand of the in-flight request.
    mem_left: f64,
    /// Id of the in-flight request (preemption requeues in id order).
    id: u64,
}

/// Statistics of one completed monitoring interval of the service node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInterval {
    /// Requests that arrived during the interval.
    pub arrivals: usize,
    /// Requests that completed during the interval.
    pub completions: usize,
    /// Requests whose clients timed out during the interval.
    pub timeouts: usize,
    /// Tail latency at the requested percentile, seconds.
    ///
    /// When no request completed, this falls back to the age of the oldest
    /// request still in the system (a lower bound on its eventual latency),
    /// or 0 when the system is empty.
    pub tail_latency_s: f64,
    /// Mean latency of completed requests (0 when none completed).
    pub mean_latency_s: f64,
    /// Per-server busy fraction during the interval.
    pub busy: Vec<f64>,
    /// Queue length at the end of the interval (excluding in-flight).
    pub queue_len: usize,
}

/// FIFO multi-server queueing node for the latency-critical workload.
///
/// Indexed for event-count scalability: pending completions in a
/// `(finish, server)` [`CalendarQueue`] (O(1) amortized), free servers in
/// a preference-rank bitmap free list (O(1) dispatch — `freelist.rs`) and
/// an incremental in-flight count, with tie-breaking that reproduces the
/// original linear scans bit-for-bit (see [`crate::reference`]).
#[derive(Debug, Clone)]
pub struct ServiceNode {
    queue: VecDeque<Request>,
    /// Hot per-server records (see [`HotServer`]).
    hot: Vec<HotServer>,
    /// Per-server service rates (dispatch read path).
    rate: Vec<Rate>,
    /// Cold per-server records (reconfiguration paths).
    cold: Vec<ColdServer>,
    /// Per-server effective speed, `speed / slowdown` (the dispatch
    /// preference key; read only by the free-list rebuild).
    eff: Vec<f64>,
    /// Min-queue of pending completions, one entry per busy server.
    /// Entries are never stale: reconfigurations rebuild the queue and
    /// completions pop their own entry.
    completions: CalendarQueue,
    /// Free servers in dispatch-preference order: one two-level bitset of
    /// dispatchable servers by rank, plus a parallel stalled bitset for
    /// servers parked inside a reconfiguration stall. Reconfigurations park
    /// every idle server stalled, and dispatch demotes popped servers whose
    /// stall has not elapsed at its (non-monotonic) timestamp; the first
    /// dispatch with a non-empty queue promotes the eligible ones (usually
    /// one word-wise merge), so on the steady-state hot path the emptiness
    /// check is all that runs.
    free: RankFreeList,
    recorder: LatencyRecorder,
    /// Reused buffer for preempted in-flight requests (no allocation per
    /// reconfiguration once warm).
    preempt_scratch: Vec<Request>,
    /// Reused buffer for the completion-queue drain/rebuild at
    /// reconfiguration (placed in O(n) rather than pushed one by one).
    completion_scratch: Vec<(f64, usize)>,
    /// Reused busy-membership scratch for the free-list rebuild.
    busy_scratch: Vec<bool>,
    /// Reused pending-set drain buffer for preemption.
    preempt_drain_scratch: Vec<(f64, usize)>,
    /// Set when every server shares one bit-identical `(speed, slowdown)`
    /// pair — the common at-scale case (a homogeneous allocation at one
    /// DVFS point) — letting dispatch skip the per-server rate load.
    uniform_rate: Option<Rate>,
    next_id: u64,
    interval_start: f64,
    interval_arrivals: usize,
    interval_completions: usize,
    interval_timeouts: usize,
    total_completed: u64,
    /// Client-side request timeout; timed-out requests are dropped at
    /// dispatch and recorded as right-censored latencies.
    timeout_s: Option<f64>,
}

impl ServiceNode {
    /// Creates a node with no servers (configure before use).
    pub fn new() -> Self {
        ServiceNode {
            queue: VecDeque::new(),
            hot: Vec::new(),
            rate: Vec::new(),
            cold: Vec::new(),
            eff: Vec::new(),
            completions: CalendarQueue::new(),
            free: RankFreeList::new(),
            recorder: LatencyRecorder::new(),
            preempt_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            busy_scratch: Vec::new(),
            preempt_drain_scratch: Vec::new(),
            uniform_rate: None,
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
        self.hot.len()
    }

    /// Requests waiting in the queue (excluding in-flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently being serviced (O(1): the pending-completion
    /// count *is* the busy-server count).
    pub fn in_flight(&self) -> usize {
        self.completions.len()
    }

    /// Total requests completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Reconfigures the server set at time `now`.
    ///
    /// * `preempt` — `true` for core-mapping changes: all in-flight requests
    ///   are preempted (remaining demand preserved) and requeued in arrival
    ///   order. `false` for pure DVFS changes: in-flight requests continue
    ///   with their remaining demand rescaled to the new speed.
    /// * `stall_s` — servers may not start work before `now + stall_s`
    ///   (migration or DVFS transition latency).
    ///
    /// Rebuilds the completion queue (in O(n)) and the free-list
    /// bitsets; the preference order itself is re-sorted only when the
    /// per-server effective-speed sequence actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, if any spec has a non-positive speed or a
    /// slowdown below 1, or if `preempt` is `false` while the server count
    /// changes.
    pub fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        assert!(!specs.is_empty(), "service node needs at least one server");
        for s in specs {
            assert!(s.speed > 0.0, "server speed must be positive: {s:?}");
            assert!(s.slowdown >= 1.0, "slowdown must be ≥ 1: {s:?}");
        }
        let mut busy = std::mem::take(&mut self.completion_scratch);
        if preempt {
            self.preempt_all(now);
            busy.clear(); // preemption drained the pending set
            self.hot.clear();
            self.rate.clear();
            self.cold.clear();
            self.eff.clear();
            for &spec in specs {
                self.hot.push(HotServer {
                    available_at: now + stall_s,
                    ..HotServer::default()
                });
                self.rate.push(Rate {
                    speed: spec.speed,
                    slowdown: spec.slowdown,
                });
                self.cold.push(ColdServer::default());
                self.eff.push(spec.speed / spec.slowdown);
            }
        } else {
            assert_eq!(
                specs.len(),
                self.hot.len(),
                "DVFS-only reconfiguration cannot change the server count"
            );
            for (i, &spec) in specs.iter().enumerate() {
                self.rate[i] = Rate {
                    speed: spec.speed,
                    slowdown: spec.slowdown,
                };
                self.eff[i] = spec.speed / spec.slowdown;
                self.hot[i].available_at = self.hot[i].available_at.max(now + stall_s);
            }
            // Rescale the in-flight requests — exactly the servers with a
            // pending completion: consume demand proportionally to elapsed
            // service time, then recompute the finish under the new spec.
            let interval_start = self.interval_start;
            self.completions.drain_unordered(&mut busy);
            for entry in &mut busy {
                let (finish, i) = *entry;
                let h = &mut self.hot[i];
                let left = remaining_fraction(h.started, finish, now);
                let c = &mut self.cold[i];
                c.work_left *= left;
                c.mem_left *= left;
                h.busy_in_interval += (now - h.started.max(interval_start)).max(0.0);
                h.started = now;
                let r = self.rate[i];
                let t = (c.work_left / r.speed + c.mem_left) * r.slowdown;
                *entry = ((now + stall_s) + t, i);
            }
        }
        let first = specs[0];
        self.uniform_rate = specs
            .iter()
            .all(|sp| {
                sp.speed.to_bits() == first.speed.to_bits()
                    && sp.slowdown.to_bits() == first.slowdown.to_bits()
            })
            .then_some(Rate {
                speed: first.speed,
                slowdown: first.slowdown,
            });
        self.rebuild_index(&mut busy);
        self.completion_scratch = busy;
        self.dispatch(now + stall_s);
    }

    /// Revokes every server at time `now` — the fault-injection layer's
    /// full-revocation path ([`ServiceNode::reconfigure`] itself rejects
    /// an empty server list). In-flight requests are preempted with their
    /// remaining demand preserved and requeued in arrival order; the
    /// server set, free list, and pending-completion queue
    /// all empty out. Arrivals keep queueing (and timed-out ones keep
    /// shedding at dispatch) until a preempting `reconfigure` brings
    /// servers back.
    pub fn revoke_all(&mut self, now: f64) {
        self.preempt_all(now);
        self.hot.clear();
        self.rate.clear();
        self.cold.clear();
        self.eff.clear();
        self.uniform_rate = None;
        let mut busy = std::mem::take(&mut self.completion_scratch);
        busy.clear();
        self.rebuild_index(&mut busy);
        self.completion_scratch = busy;
        self.dispatch(now);
    }

    /// Rebuilds the free-list bitmaps and the pending-completion queue
    /// (`busy`, drained and transformed by the caller; consumed here).
    /// Free servers all enter the stalled bitmaps; the next dispatch
    /// promotes the ones whose `available_at` has passed (one word-wise
    /// merge in the common case).
    fn rebuild_index(&mut self, busy: &mut Vec<(f64, usize)>) {
        self.free.rebuild(self.eff.iter().copied());
        let n = self.hot.len();
        self.busy_scratch.clear();
        self.busy_scratch.resize(n, false);
        for &(_, i) in busy.iter() {
            self.busy_scratch[i] = true;
        }
        for i in 0..n {
            if !self.busy_scratch[i] {
                self.free.mark_stalled(i, self.hot[i].available_at);
            }
        }
        // O(n) rebuild; pop order over distinct `(finish, server)` keys
        // is the same as for a queue built by pushes.
        self.completions.rebuild_from_unpacked(busy);
    }

    fn preempt_all(&mut self, now: f64) {
        let interval_start = self.interval_start;
        let mut busy = std::mem::take(&mut self.preempt_drain_scratch);
        self.completions.drain_unordered(&mut busy);
        let mut preempted = std::mem::take(&mut self.preempt_scratch);
        preempted.clear();
        for &(finish, i) in &busy {
            let h = &mut self.hot[i];
            h.busy_in_interval += (now - h.started.max(interval_start)).max(0.0);
            let left = remaining_fraction(h.started, finish, now);
            let c = &self.cold[i];
            preempted.push(Request {
                id: RequestId(c.id),
                arrival: h.arrival,
                work_left: c.work_left * left,
                mem_left: c.mem_left * left,
            });
        }
        self.preempt_drain_scratch = busy;
        // Requeue ahead of waiting requests, preserving arrival order (ids
        // are unique, so the sort is a total order regardless of the
        // unordered drain above).
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
        for h in &mut self.hot {
            h.busy_in_interval = 0.0;
        }
    }

    /// Enqueues a request arriving at `now` with the given demand, then
    /// dispatches if a server is free.
    pub fn arrive(&mut self, now: f64, demand: Demand) {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.interval_arrivals += 1;
        // Fast path: nothing queued and no stall bookkeeping pending —
        // place the request directly, skipping the queue round-trip and
        // the timeout/promotion checks `dispatch` would no-op through (a
        // just-arrived request has age 0, so it can never be shed).
        if self.queue.is_empty() && !self.free.has_stalled() {
            loop {
                match self.free.pop_best() {
                    Some(idx) if self.hot[idx].available_at > now => {
                        self.free.mark_stalled(idx, self.hot[idx].available_at);
                    }
                    Some(idx) => {
                        self.start_request(idx, Request::new(id, now, demand), now);
                        return;
                    }
                    None => break,
                }
            }
        }
        // Built at its destination: a request assembled on the stack and
        // then pushed is reloaded with wider loads than it was stored
        // with, a store-forwarding stall on every queued arrival.
        self.queue.push_back(Request::new(id, now, demand));
        self.dispatch(now);
    }

    /// Earliest pending completion time, if any request is in flight (O(1):
    /// a peek at the completion queue's cached minimum).
    pub fn next_completion(&self) -> Option<f64> {
        self.completions.peek_min_time()
    }

    /// Processes all completions up to and including time `to`.
    pub fn advance(&mut self, to: f64) {
        while let Some((finish, server)) = self.completions.pop_if_le(to) {
            self.complete_server(server, finish);
        }
    }

    /// Like [`ServiceNode::advance`], but appends each completion time to
    /// `out` (closed-loop generators schedule think timers from these).
    pub fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        while let Some((finish, server)) = self.completions.pop_if_le(to) {
            self.complete_server(server, finish);
            out.push(finish);
        }
    }

    /// Retires the request on server `idx` at its finish time `t` (the
    /// popped completion entry), then dispatches onto the freed server.
    fn complete_server(&mut self, idx: usize, t: f64) {
        let h = &mut self.hot[idx];
        h.busy_in_interval += t - h.started.max(self.interval_start);
        h.available_at = t;
        let latency = (t - h.arrival).max(0.0);
        self.free.mark_free(idx);
        self.recorder.record(latency);
        self.interval_completions += 1;
        self.total_completed += 1;
        self.dispatch(t);
    }

    /// Dispatches queued requests to free servers (fastest server first),
    /// dropping requests whose client already timed out.
    fn dispatch(&mut self, now: f64) {
        // Shed timed-out requests from the queue head; their latency is
        // right-censored at the timeout so QoS accounting sees them. One
        // pass suffices: queued requests are in arrival order, so ages only
        // decrease toward the tail.
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
        // Stalled bitmaps are only populated between a reconfiguration and
        // its kick, so this is an O(1) emptiness check on the hot path.
        if self.free.has_stalled() {
            let hot = &self.hot;
            self.free.promote(now, |i| hot[i].available_at);
        }
        while !self.queue.is_empty() {
            // Fastest free server whose stall has elapsed: the best set
            // bit. Dispatch timestamps are not monotonic — a
            // reconfiguration dispatches at `now + stall` and the event loop
            // then delivers arrivals *inside* the stall window — so a popped
            // server may still be stalled at this `now`; demote it back to
            // the stalled bitmaps (popping in (speed, index) order keeps the
            // first eligible pop the fastest eligible server).
            let Some(idx) = self.free.pop_best() else {
                return;
            };
            if self.hot[idx].available_at > now {
                self.free.mark_stalled(idx, self.hot[idx].available_at);
                continue;
            }
            let req = self.queue.pop_front().expect("queue non-empty");
            self.start_request(idx, req, now);
        }
    }

    /// Starts `req` on free, eligible server `idx` at time `now`.
    #[inline]
    fn start_request(&mut self, idx: usize, req: Request, now: f64) {
        // Same bits in either branch; the uniform fast path just avoids
        // touching the rate array.
        let service = match self.uniform_rate {
            Some(r) => r.service_time(&req),
            None => self.rate[idx].service_time(&req),
        };
        let finish = now + service;
        let h = &mut self.hot[idx];
        h.arrival = req.arrival;
        h.started = now;
        let c = &mut self.cold[idx];
        c.work_left = req.work_left;
        c.mem_left = req.mem_left;
        c.id = req.id.0;
        self.completions.push(finish, idx);
    }

    /// Called by the engine when servers stalled until `t` become free, to
    /// start work that queued during the stall.
    pub fn kick(&mut self, t: f64) {
        self.dispatch(t);
    }

    /// Closes the interval at time `t_end`, returning its statistics.
    ///
    /// The tail latency is the `p`-th percentile of completions in the
    /// interval, computed by selection rather than a full sort; see
    /// [`NodeInterval::tail_latency_s`] for the no-completion fallback. The
    /// returned [`NodeInterval::busy`] vector is the node's only
    /// per-interval allocation — it is owned by the caller's interval
    /// record, so it cannot be recycled here.
    pub fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        // Account in-flight busy time up to the interval boundary. The
        // pending-completion entries are exactly the busy servers (one
        // entry each), so this walks O(in-flight) servers, not all of them.
        let interval_start = self.interval_start;
        for i in self.completions.payloads() {
            let h = &mut self.hot[i];
            h.busy_in_interval += t_end - h.started.max(interval_start);
        }
        let dur = (t_end - self.interval_start).max(f64::EPSILON);
        let busy: Vec<f64> = self
            .hot
            .iter()
            .map(|h| (h.busy_in_interval / dur).clamp(0.0, 1.0))
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

    /// Age of the oldest request still in the system. Only consulted when
    /// an interval ends with zero completions (a cold, near-idle or fully
    /// wedged interval), so the O(n) scan is off the hot path.
    fn oldest_age(&self, now: f64) -> f64 {
        let queued = self.queue.front().map(|r| r.age(now));
        let in_flight = self
            .completions
            .payloads()
            .map(|i| (now - self.hot[i].arrival).max(0.0))
            .max_by(f64::total_cmp);
        match (queued, in_flight) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 0.0,
        }
    }
}

impl Default for ServiceNode {
    fn default() -> Self {
        Self::new()
    }
}

/// Fraction of a request's demand still outstanding when service ran
/// linearly from `started` toward `finish` and was interrupted at `now`.
fn remaining_fraction(started: f64, finish: f64, now: f64) -> f64 {
    let total = finish - started;
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - ((now - started) / total).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: CoreKind, speed: f64) -> ServerSpec {
        ServerSpec {
            kind,
            freq: Frequency::from_mhz(1000),
            speed,
            slowdown: 1.0,
        }
    }

    fn one_server(speed: f64) -> ServiceNode {
        let mut n = ServiceNode::new();
        n.reconfigure(0.0, &[spec(CoreKind::Big, speed)], true, 0.0);
        n.begin_interval(0.0);
        n
    }

    #[test]
    fn single_request_latency() {
        let mut n = one_server(2.0); // 2 work units/s
        n.arrive(0.0, Demand::new(1.0, 0.5)); // 0.5 s compute + 0.5 s memory
        n.advance(10.0);
        let iv = n.end_interval(10.0, 0.95);
        assert_eq!(iv.completions, 1);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
        assert!((iv.busy[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fifo_queueing_adds_wait() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(1.0, 0.0)); // served 0..1
        n.arrive(0.0, Demand::new(1.0, 0.0)); // served 1..2 → latency 2
        n.advance(5.0);
        let iv = n.end_interval(5.0, 1.0);
        assert_eq!(iv.completions, 2);
        assert!((iv.tail_latency_s - 2.0).abs() < 1e-12);
        assert!((iv.mean_latency_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fastest_server_preferred() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Small, 1.0), spec(CoreKind::Big, 4.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(4.0, 0.0)); // on big: 1 s; on small it'd be 4 s
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
        // Big (index 1) did the work.
        assert!(iv.busy[1] > 0.0 && iv.busy[0] == 0.0);
    }

    #[test]
    fn equal_speed_tie_breaks_to_highest_index() {
        // The old `max_by` scan returned the *last* maximal server; the
        // free list must reproduce that.
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[
                spec(CoreKind::Big, 2.0),
                spec(CoreKind::Big, 2.0),
                spec(CoreKind::Big, 2.0),
            ],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(2.0, 0.0));
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(iv.busy[2] > 0.0, "highest-index server should win the tie");
        assert!(iv.busy[0] == 0.0 && iv.busy[1] == 0.0);
    }

    #[test]
    fn equal_finish_completes_lowest_index_first() {
        // Two identical servers, two identical requests submitted together:
        // both finish at the same instant; the completion queue must retire
        // server 0's request first (the old `position` scan order). The
        // third request then dispatches onto server 0.
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0)); // server 1 (tie → highest idx)
        n.arrive(0.0, Demand::new(1.0, 0.0)); // server 0
        n.arrive(0.0, Demand::new(1.0, 0.0)); // queued
        n.advance(1.0);
        assert_eq!(n.in_flight(), 1);
        let iv = n.end_interval(2.0, 1.0);
        assert_eq!(iv.completions, 2);
        // Server 0 freed first at t=1 and picked up the queued request.
        assert!((iv.busy[0] - 1.0).abs() < 1e-12, "{:?}", iv.busy);
        assert!((iv.busy[1] - 0.5).abs() < 1e-12, "{:?}", iv.busy);
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.advance(1.0);
        let iv = n.end_interval(1.0, 1.0);
        assert_eq!(iv.completions, 2);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_stretches_service() {
        let mut n = ServiceNode::new();
        let mut s = spec(CoreKind::Big, 1.0);
        s.slowdown = 2.0;
        n.reconfigure(0.0, &[s], true, 0.0);
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!((iv.tail_latency_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn preemption_preserves_remaining_work() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(2.0, 0.0)); // would finish at t=2
        n.advance(1.0);
        // Remap at t=1 onto a 2× faster server with no stall: half the work
        // (1 unit) remains → 0.5 s more.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 2.0)], true, 0.0);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn migration_stall_delays_service() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        // Immediately remap with a 0.5 s stall: finish at 1.5 s.
        n.reconfigure(0.0, &[spec(CoreKind::Big, 1.0)], true, 0.5);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn arrivals_during_stall_wait_for_kick() {
        let mut n = one_server(1.0);
        // Remap with a 1 s stall, then let a request arrive mid-stall: it
        // must not start before the stall elapses.
        n.reconfigure(0.0, &[spec(CoreKind::Big, 1.0)], true, 1.0);
        n.arrive(0.5, Demand::new(1.0, 0.0));
        n.advance(0.9);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.queue_len(), 1);
        n.kick(1.0);
        assert_eq!(n.in_flight(), 1);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        // Arrived at 0.5, started at 1.0, finished at 2.0 → latency 1.5.
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn dvfs_change_rescales_in_flight() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(2.0, 0.0)); // finish at 2 under speed 1
        n.advance(1.0);
        // At t=1, double the speed without preemption: 1 unit left → 0.5 s.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 2.0)], false, 0.0);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn no_completion_falls_back_to_oldest_age() {
        let mut n = one_server(0.001); // pathologically slow
        n.arrive(0.0, Demand::new(100.0, 0.0));
        n.arrive(0.5, Demand::new(100.0, 0.0));
        n.advance(1.0);
        let iv = n.end_interval(1.0, 0.95);
        assert_eq!(iv.completions, 0);
        assert!(
            (iv.tail_latency_s - 1.0).abs() < 1e-12,
            "oldest request age"
        );
    }

    #[test]
    fn empty_system_reports_zero_tail() {
        let mut n = one_server(1.0);
        n.advance(1.0);
        let iv = n.end_interval(1.0, 0.95);
        assert_eq!(iv.tail_latency_s, 0.0);
        assert_eq!(iv.queue_len, 0);
    }

    #[test]
    fn busy_fraction_spans_interval_boundaries() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(3.0, 0.0)); // runs 0..3
        n.advance(1.0);
        let iv1 = n.end_interval(1.0, 0.95);
        assert!((iv1.busy[0] - 1.0).abs() < 1e-12);
        n.begin_interval(1.0);
        n.advance(2.0);
        let iv2 = n.end_interval(2.0, 0.95);
        assert!((iv2.busy[0] - 1.0).abs() < 1e-12);
        n.begin_interval(2.0);
        n.advance(4.0);
        let iv3 = n.end_interval(4.0, 0.95);
        assert_eq!(iv3.completions, 1);
        assert!((iv3.busy[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arrival_order_preserved_after_preemption() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(10.0, 0.0));
        n.arrive(0.1, Demand::new(10.0, 0.0));
        n.arrive(0.2, Demand::new(10.0, 0.0)); // queued behind both
        n.advance(1.0);
        // Shrink to one server: both in-flight requests requeue in id order,
        // ahead of the queued third request.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 100.0)], true, 0.0);
        assert_eq!(n.queue_len(), 2); // one dispatched immediately
        n.advance(20.0);
        let iv = n.end_interval(20.0, 1.0);
        assert_eq!(iv.completions, 3);
    }

    #[test]
    fn in_flight_count_tracks_through_reconfigure() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(5.0, 0.0));
        n.arrive(0.0, Demand::new(5.0, 0.0));
        assert_eq!(n.in_flight(), 2);
        // DVFS rescale keeps both in flight.
        n.reconfigure(
            1.0,
            &[spec(CoreKind::Big, 2.0), spec(CoreKind::Big, 2.0)],
            false,
            0.0,
        );
        assert_eq!(n.in_flight(), 2);
        // Preempting remap requeues them, then redispatches one per server.
        n.reconfigure(2.0, &[spec(CoreKind::Big, 1.0)], true, 0.0);
        assert_eq!(n.in_flight(), 1);
        assert_eq!(n.queue_len(), 1);
        n.advance(100.0);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.total_completed(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn reconfigure_rejects_empty() {
        ServiceNode::new().reconfigure(0.0, &[], true, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot change the server count")]
    fn dvfs_reconfigure_rejects_count_change() {
        let mut n = one_server(1.0);
        n.reconfigure(
            1.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            false,
            0.0,
        );
    }
}
