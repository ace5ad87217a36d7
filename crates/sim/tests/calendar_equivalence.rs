//! Differential property battery: the PR 6 [`CalendarQueue`] must
//! reproduce the frozen PR 5 packed-`u128` binary heap
//! ([`PackedHeap`]) **event for event** — identical `(finish, server)`
//! pop sequences under every regime the node can throw at it:
//!
//! * raw-queue interleavings of pushes and bounded pops, including
//!   far-future events that alias around the bucket ring for thousands of
//!   rotations, same-bucket tie storms (many events at one bit-identical
//!   time), bursty MMPP-shaped arrival clusters (tight clumps separated by
//!   calm gaps — CloudCoaster's regime), population swings that cross the
//!   queue's grow/shrink thresholds in both directions, DVFS-style
//!   drain/rescale/rebuild re-keying, and `total_cmp` extremes
//!   (infinities, negative zero, NaN);
//! * whole-node interleavings — arrival / advance / preempt / stall /
//!   DVFS-reconfigure / timeout shedding — by racing the production
//!   [`ServiceNode`] against [`PackedHeapNode`], the same node body
//!   instantiated over the frozen heap, asserting bit-identical completion
//!   streams and interval statistics;
//! * a small-population arm whose size hovers in `0..=2·FLAT_MAX`, the
//!   regime of a Juno node's completions, crossing the calendar's
//!   flat-mode hand-offs;
//! * a parallel [`ThinkPool`] differential against the frozen
//!   [`HeapThinkPool`], covering `retire_latest` population shrinks.
//!
//! This is the PR 6 counterpart of `dispatch_equivalence.rs` (PR 5 bitmap
//! free lists vs heap node) and `node_equivalence.rs` (production node vs
//! pre-PR3 scans).

use hipster_platform::{CoreKind, Frequency};
use hipster_sim::reference::{HeapThinkPool, PackedHeap, PackedHeapNode};
use hipster_sim::{CalendarQueue, CompletionQueue, Demand, ServerSpec, ServiceNode, ThinkPool};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Raw-queue differential: CalendarQueue vs frozen PackedHeap.
// ---------------------------------------------------------------------------

/// One step of the raw-queue driving sequence. Times are generated
/// relative to a sliding `now` so pops keep the queues non-degenerate.
#[derive(Debug, Clone)]
enum QOp {
    /// A plain event at `now + dt`.
    Push { dt: f64 },
    /// A same-bucket tie storm: `count` events at one bit-identical time.
    PushTies { dt: f64, count: usize },
    /// A far-future event `mult × 1e6` seconds out — it aliases around
    /// the bucket ring through thousands of virtual rotations.
    PushFar { mult: f64 },
    /// An MMPP-shaped burst: `count` events clumped within `spread`
    /// seconds after a calm gap of `gap` seconds (the two-state
    /// bursty/calm arrival shape).
    Burst { gap: f64, spread: f64, count: usize },
    /// A `total_cmp` extreme drawn from a fixed table (infinities,
    /// negative zero, huge/tiny magnitudes).
    PushWeird { pick: usize },
    /// Pop up to `k` events unconditionally (drives shrink resizes).
    PopSome { k: usize },
    /// Pop everything due within the next `dt` seconds (the node's
    /// `advance` shape: a bounded `pop_if_le` drain).
    PopDue { dt: f64 },
    /// DVFS-style re-key: drain both queues, rescale every time by
    /// `factor` (about an anchor so times stay near `now`), rebuild.
    Rescale { factor: f64 },
}

fn qop_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        (0.0f64..4.0).prop_map(|dt| QOp::Push { dt }),
        (0.0f64..2.0, 2usize..40).prop_map(|(dt, count)| QOp::PushTies { dt, count }),
        (0.001f64..5000.0).prop_map(|mult| QOp::PushFar { mult }),
        (0.5f64..20.0, 0.0001f64..0.05, 4usize..48).prop_map(|(gap, spread, count)| QOp::Burst {
            gap,
            spread,
            count
        }),
        (0usize..8).prop_map(|pick| QOp::PushWeird { pick }),
        (1usize..64).prop_map(|k| QOp::PopSome { k }),
        (0.0f64..8.0).prop_map(|dt| QOp::PopDue { dt }),
        (0.25f64..4.0).prop_map(|factor| QOp::Rescale { factor }),
    ]
}

/// `total_cmp` extremes the key mapping must order identically in both
/// structures. (NaN is exercised by the dedicated unit tests in
/// `calendar.rs`; here every popped time must also move the clock, which
/// NaN cannot.)
const WEIRD: [f64; 8] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
    4e9,
];

/// Applies `ops` to both queues in lock-step, asserting identical pops,
/// peeks and lengths after every step, then drains both to the end.
fn run_queue_differential(ops: &[QOp]) {
    let mut cal = CalendarQueue::new();
    let mut heap = PackedHeap::new();
    let mut now = 0.0f64;
    let mut payload = 0usize;
    let mut scratch_a: Vec<(f64, usize)> = Vec::new();
    let mut scratch_b: Vec<(f64, usize)> = Vec::new();

    let push_both = |cal: &mut CalendarQueue, heap: &mut PackedHeap, t: f64, p: &mut usize| {
        cal.push(t, *p);
        heap.push(t, *p);
        *p += 1;
    };

    for op in ops {
        match *op {
            QOp::Push { dt } => push_both(&mut cal, &mut heap, now + dt, &mut payload),
            QOp::PushTies { dt, count } => {
                let t = now + dt;
                for _ in 0..count {
                    push_both(&mut cal, &mut heap, t, &mut payload);
                }
            }
            QOp::PushFar { mult } => {
                push_both(&mut cal, &mut heap, now + mult * 1e6, &mut payload);
            }
            QOp::Burst { gap, spread, count } => {
                let start = now + gap;
                for i in 0..count {
                    let t = start + spread * (i as f64 / count as f64);
                    push_both(&mut cal, &mut heap, t, &mut payload);
                }
            }
            QOp::PushWeird { pick } => {
                push_both(&mut cal, &mut heap, WEIRD[pick % WEIRD.len()], &mut payload);
            }
            QOp::PopSome { k } => {
                for _ in 0..k {
                    let a = cal.pop_if_le(f64::INFINITY);
                    let b = heap.pop_if_le(f64::INFINITY);
                    assert_eq!(
                        a.map(|(t, s)| (t.to_bits(), s)),
                        b.map(|(t, s)| (t.to_bits(), s)),
                        "unbounded pop diverged"
                    );
                    match a {
                        Some((t, _)) => now = now.max(t.min(1e250)),
                        None => break,
                    }
                }
            }
            QOp::PopDue { dt } => {
                let to = now + dt;
                loop {
                    let a = cal.pop_if_le(to);
                    let b = heap.pop_if_le(to);
                    assert_eq!(
                        a.map(|(t, s)| (t.to_bits(), s)),
                        b.map(|(t, s)| (t.to_bits(), s)),
                        "bounded pop diverged at to={to}"
                    );
                    if a.is_none() {
                        break;
                    }
                }
                now = to;
            }
            QOp::Rescale { factor } => {
                // Drain both (unspecified order), canonicalise to one
                // scratch, re-key, rebuild both from identical input —
                // exactly the node's DVFS rescale shape.
                cal.drain_unordered(&mut scratch_a);
                CompletionQueue::drain_unordered(&mut heap, &mut scratch_b);
                scratch_a.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                scratch_b.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                assert_eq!(
                    scratch_a
                        .iter()
                        .map(|&(t, s)| (t.to_bits(), s))
                        .collect::<Vec<_>>(),
                    scratch_b
                        .iter()
                        .map(|&(t, s)| (t.to_bits(), s))
                        .collect::<Vec<_>>(),
                    "drained multisets diverged"
                );
                for e in &mut scratch_a {
                    e.0 = now + (e.0 - now) * factor;
                }
                scratch_b.clear();
                scratch_b.extend_from_slice(&scratch_a);
                cal.rebuild_from_unpacked(&mut scratch_a);
                CompletionQueue::rebuild_from(&mut heap, &mut scratch_b);
            }
        }
        assert_eq!(cal.len(), heap.len(), "len diverged");
        assert_eq!(
            cal.peek_min_time().map(f64::to_bits),
            heap.peek_finish().map(f64::to_bits),
            "peek diverged"
        );
    }
    // Full drain: every remaining event must pop in the same order.
    loop {
        let a = cal.pop_if_le(f64::INFINITY);
        let b = heap.pop_if_le(f64::INFINITY);
        assert_eq!(
            a.map(|(t, s)| (t.to_bits(), s)),
            b.map(|(t, s)| (t.to_bits(), s)),
            "final drain diverged"
        );
        if a.is_none() {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Small-population differential: the calendar's flat mode and its hand-offs
// to and from the ring, against the same frozen heap.
// ---------------------------------------------------------------------------

/// The calendar's flat-mode population limit (one bucket's slab slots).
const FLAT_MAX: usize = 8;

/// One step of the hovering-population driving sequence.
#[derive(Debug, Clone)]
enum HOp {
    /// An event at `now + dt`, unless the population is at `2·FLAT_MAX`.
    Push { dt: f64 },
    /// Pop one event, unless empty.
    Pop,
    /// DVFS-style drain, rescale about `now`, rebuild.
    Rescale { factor: f64 },
}

fn hop_strategy() -> impl Strategy<Value = HOp> {
    prop_oneof![
        (0.0f64..0.01).prop_map(|dt| HOp::Push { dt }),
        (0.0f64..4.0).prop_map(|dt| HOp::Push { dt }),
        Just(HOp::Pop),
        Just(HOp::Pop),
        (0.25f64..4.0).prop_map(|factor| HOp::Rescale { factor }),
    ]
}

/// Keeps the population inside `0..=2·FLAT_MAX` — the Juno node's ≤6
/// pending completions and a Web-Search think pool of ~8–10 clients both
/// live here — so every op runs in flat mode, in a small ring, or across
/// the hand-off between them, asserting identical pops and peeks.
fn run_hover_differential(ops: &[HOp]) {
    let mut cal = CalendarQueue::new();
    let mut heap = PackedHeap::new();
    let mut now = 0.0f64;
    let mut payload = 0usize;
    let mut scratch_a: Vec<(f64, usize)> = Vec::new();
    let mut scratch_b: Vec<(f64, usize)> = Vec::new();
    for op in ops {
        match *op {
            HOp::Push { dt } => {
                if cal.len() < 2 * FLAT_MAX {
                    cal.push(now + dt, payload);
                    heap.push(now + dt, payload);
                    payload += 1;
                }
            }
            HOp::Pop => {
                let a = cal.pop_if_le(f64::INFINITY);
                let b = heap.pop_if_le(f64::INFINITY);
                assert_eq!(
                    a.map(|(t, s)| (t.to_bits(), s)),
                    b.map(|(t, s)| (t.to_bits(), s)),
                    "hovering pop diverged"
                );
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
            HOp::Rescale { factor } => {
                cal.drain_unordered(&mut scratch_a);
                scratch_a.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                for e in &mut scratch_a {
                    e.0 = now + (e.0 - now) * factor;
                }
                CompletionQueue::drain_unordered(&mut heap, &mut scratch_b);
                scratch_b.clear();
                scratch_b.extend_from_slice(&scratch_a);
                cal.rebuild_from_unpacked(&mut scratch_a);
                CompletionQueue::rebuild_from(&mut heap, &mut scratch_b);
            }
        }
        assert_eq!(cal.len(), heap.len(), "len diverged");
        assert_eq!(
            cal.peek_min_time().map(f64::to_bits),
            heap.peek_finish().map(f64::to_bits),
            "peek diverged"
        );
    }
    loop {
        let a = cal.pop_if_le(f64::INFINITY);
        let b = heap.pop_if_le(f64::INFINITY);
        assert_eq!(
            a.map(|(t, s)| (t.to_bits(), s)),
            b.map(|(t, s)| (t.to_bits(), s)),
            "final drain diverged"
        );
        if a.is_none() {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// ThinkPool differential: calendar pool vs frozen binary-heap pool.
// ---------------------------------------------------------------------------

/// One step of the thinking-pool driving sequence.
#[derive(Debug, Clone)]
enum POp {
    /// A think expiry at `now + dt` (exponential-ish spread).
    Push { dt: f64 },
    /// `count` bit-identical expiries (closed-loop clients released by
    /// one batch of completions at the same instant).
    PushTies { dt: f64, count: usize },
    /// Pop up to `k` earliest expiries.
    PopSome { k: usize },
    /// Retire the `k` latest thinkers (interval-boundary population
    /// shrink).
    RetireLatest { k: usize },
}

fn pop_strategy() -> impl Strategy<Value = POp> {
    prop_oneof![
        (0.0f64..10.0).prop_map(|dt| POp::Push { dt }),
        (0.0f64..2.0, 2usize..32).prop_map(|(dt, count)| POp::PushTies { dt, count }),
        (1usize..48).prop_map(|k| POp::PopSome { k }),
        (0usize..24).prop_map(|k| POp::RetireLatest { k }),
    ]
}

fn run_pool_differential(ops: &[POp]) {
    let mut cal = ThinkPool::new();
    let mut heap = HeapThinkPool::new();
    let mut now = 0.0f64;
    for op in ops {
        match *op {
            POp::Push { dt } => {
                cal.push(now + dt);
                heap.push(now + dt);
            }
            POp::PushTies { dt, count } => {
                for _ in 0..count {
                    cal.push(now + dt);
                    heap.push(now + dt);
                }
            }
            POp::PopSome { k } => {
                for _ in 0..k {
                    let a = cal.pop_min();
                    let b = heap.pop_min();
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "pool pop diverged"
                    );
                    match a {
                        Some(t) => now = now.max(t),
                        None => break,
                    }
                }
            }
            POp::RetireLatest { k } => {
                cal.retire_latest(k);
                heap.retire_latest(k);
            }
        }
        assert_eq!(cal.len(), heap.len(), "pool len diverged");
        assert_eq!(
            cal.peek_min().map(f64::to_bits),
            heap.peek_min().map(f64::to_bits),
            "pool peek diverged"
        );
    }
    loop {
        let a = cal.pop_min();
        let b = heap.pop_min();
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "pool final drain diverged"
        );
        if a.is_none() {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-node differential: ServiceNode (calendar) vs PackedHeapNode
// (frozen PR 5 heap) under arrival / preempt / stall / DVFS / timeout
// interleavings — the same op language as dispatch_equivalence.rs, with
// the oracle swapped to the node whose *only* difference is the queue.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Arrive { dt: f64, work: f64, mem: f64 },
    Advance { dt: f64 },
    Remap { n: usize, mix_seed: u64, stall: f64 },
    Rescale { factor: f64, stall: f64 },
    Interval,
}

fn specs_for(n: usize, mix_seed: u64) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| {
            let speed = match (mix_seed as usize + i) % 5 {
                0 | 1 => 2.0,
                2 => 0.8,
                3 => 4.0,
                _ => 2.0,
            };
            ServerSpec {
                kind: if speed >= 2.0 {
                    CoreKind::Big
                } else {
                    CoreKind::Small
                },
                freq: Frequency::from_mhz(1000),
                speed,
                slowdown: 1.0 + ((mix_seed as usize + i) % 3) as f64 * 0.5,
            }
        })
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..0.4, 0.1f64..4.0, 0.0f64..0.5).prop_map(|(dt, work, mem)| Op::Arrive {
            dt,
            work,
            mem
        }),
        (0.0f64..1.0).prop_map(|dt| Op::Advance { dt }),
        (1usize..9, 0u64..10, 0.0f64..0.3).prop_map(|(n, mix_seed, stall)| Op::Remap {
            n,
            mix_seed,
            stall
        }),
        (0.5f64..2.0, 0.0f64..0.1).prop_map(|(factor, stall)| Op::Rescale { factor, stall }),
        Just(Op::Interval),
    ]
}

fn run_node_differential(ops: &[Op], timeout: Option<f64>) {
    let mut cal = ServiceNode::new();
    let mut heap = PackedHeapNode::new();
    cal.set_timeout(timeout);
    heap.set_timeout(timeout);
    let initial = specs_for(3, 1);
    let mut current_specs = initial.clone();
    cal.reconfigure(0.0, &initial, true, 0.0);
    heap.reconfigure(0.0, &initial, true, 0.0);
    cal.begin_interval(0.0);
    heap.begin_interval(0.0);

    let mut now = 0.0f64;
    let mut interval_start = 0.0f64;
    let mut kick_at: Option<f64> = None;
    let mut cal_done = Vec::new();
    let mut heap_done = Vec::new();
    let deliver_kick =
        |cal: &mut ServiceNode, heap: &mut PackedHeapNode, kick_at: &mut Option<f64>, t: f64| {
            if let Some(k) = *kick_at {
                if k <= t {
                    cal.kick(k);
                    heap.kick(k);
                    *kick_at = None;
                }
            }
        };
    for op in ops {
        match *op {
            Op::Arrive { dt, work, mem } => {
                now += dt;
                deliver_kick(&mut cal, &mut heap, &mut kick_at, now);
                cal_done.clear();
                heap_done.clear();
                cal.advance_collect(now, &mut cal_done);
                heap.advance_collect(now, &mut heap_done);
                assert_eq!(cal_done, heap_done, "completion streams diverged");
                let d = Demand::new(work, mem);
                cal.arrive(now, d);
                heap.arrive(now, d);
            }
            Op::Advance { dt } => {
                now += dt;
                deliver_kick(&mut cal, &mut heap, &mut kick_at, now);
                cal_done.clear();
                heap_done.clear();
                cal.advance_collect(now, &mut cal_done);
                heap.advance_collect(now, &mut heap_done);
                assert_eq!(cal_done, heap_done, "completion streams diverged");
            }
            Op::Remap { n, mix_seed, stall } => {
                current_specs = specs_for(n, mix_seed);
                cal.reconfigure(now, &current_specs, true, stall);
                heap.reconfigure(now, &current_specs, true, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Rescale { factor, stall } => {
                for s in &mut current_specs {
                    s.speed *= factor;
                }
                cal.reconfigure(now, &current_specs, false, stall);
                heap.reconfigure(now, &current_specs, false, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Interval => {
                now = now.max(interval_start + 1e-6);
                deliver_kick(&mut cal, &mut heap, &mut kick_at, now);
                let a = cal.end_interval(now, 0.95);
                let b = heap.end_interval(now, 0.95);
                assert_eq!(a, b, "interval stats diverged");
                interval_start = now;
                cal.begin_interval(now);
                heap.begin_interval(now);
            }
        }
        assert_eq!(cal.queue_len(), heap.queue_len(), "queue len diverged");
        assert_eq!(cal.in_flight(), heap.in_flight(), "in-flight diverged");
        assert_eq!(
            cal.next_completion(),
            heap.next_completion(),
            "next completion diverged"
        );
        assert_eq!(cal.total_completed(), heap.total_completed());
    }
    now += 1000.0;
    deliver_kick(&mut cal, &mut heap, &mut kick_at, now);
    cal_done.clear();
    heap_done.clear();
    cal.advance_collect(now, &mut cal_done);
    heap.advance_collect(now, &mut heap_done);
    assert_eq!(cal_done, heap_done, "drain streams diverged");
    let a = cal.end_interval(now, 0.95);
    let b = heap.end_interval(now, 0.95);
    assert_eq!(a, b, "final interval stats diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_queue_matches_packed_heap(
        ops in prop::collection::vec(qop_strategy(), 1..300),
    ) {
        run_queue_differential(&ops);
    }

    #[test]
    fn calendar_small_population_matches_packed_heap(
        ops in prop::collection::vec(hop_strategy(), 1..400),
    ) {
        run_hover_differential(&ops);
    }

    #[test]
    fn calendar_pool_matches_heap_pool(
        ops in prop::collection::vec(pop_strategy(), 1..300),
    ) {
        run_pool_differential(&ops);
    }

    #[test]
    fn calendar_node_matches_packed_heap_node(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        run_node_differential(&ops, None);
    }

    #[test]
    fn calendar_node_matches_packed_heap_node_with_timeouts(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        run_node_differential(&ops, Some(0.75));
    }
}
