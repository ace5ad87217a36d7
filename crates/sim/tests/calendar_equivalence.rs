//! Differential property battery: the [`CalendarQueue`] must pop exactly
//! what a sorted-`Vec` oracle of `(time, payload)` entries pops —
//! earliest time under [`f64::total_cmp`] first, ties to the lowest
//! payload — **event for event**, under every regime the service node can
//! throw at it:
//!
//! * raw-queue interleavings of pushes and bounded pops, including
//!   far-future events that alias around the bucket ring for thousands of
//!   rotations, same-bucket tie storms (many events at one bit-identical
//!   time), bursty MMPP-shaped arrival clusters (tight clumps separated by
//!   calm gaps — CloudCoaster's regime), population swings that cross the
//!   queue's grow/shrink thresholds in both directions, DVFS-style
//!   drain/rescale/rebuild re-keying, and `total_cmp` extremes
//!   (infinities, negative zero, huge/tiny magnitudes);
//! * a small-population arm whose size hovers in `0..=2·FLAT_MAX`, the
//!   regime of a Juno node's completions, crossing the calendar's
//!   flat-mode hand-offs;
//! * a parallel [`ThinkPool`] differential against the scan oracle
//!   [`ReferenceThinkPool`], covering `retire_latest` population shrinks.
//!
//! The whole-node differential (the queue inside [`ServiceNode`], raced
//! against the scan node) is `node_equivalence.rs`.
//!
//! [`ServiceNode`]: hipster_sim::ServiceNode

use hipster_sim::reference::ReferenceThinkPool;
use hipster_sim::{CalendarQueue, ThinkPool};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The oracle: a sorted `Vec` of `(time, payload)` entries.
// ---------------------------------------------------------------------------

/// The completion-queue oracle: entries kept sorted *descending* by
/// (`total_cmp` time, payload), so the minimum is the last element and
/// every pop is a `Vec::pop` — O(n) per push, obviously correct.
#[derive(Debug, Default)]
struct SortedVec {
    desc: Vec<(f64, usize)>,
}

impl SortedVec {
    fn cmp(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    fn len(&self) -> usize {
        self.desc.len()
    }

    fn push(&mut self, t: f64, payload: usize) {
        let e = (t, payload);
        let at = self
            .desc
            .partition_point(|x| Self::cmp(x, &e) == std::cmp::Ordering::Greater);
        self.desc.insert(at, e);
    }

    fn peek_min_time(&self) -> Option<f64> {
        self.desc.last().map(|e| e.0)
    }

    /// Pops the minimum if its time is ≤ `to` under `f64` `>` semantics
    /// (a NaN minimum never compares later).
    fn pop_if_le(&mut self, to: f64) -> Option<(f64, usize)> {
        let &(t, _) = self.desc.last()?;
        if t > to {
            return None;
        }
        self.desc.pop()
    }

    fn drain_unordered(&mut self, out: &mut Vec<(f64, usize)>) {
        out.clear();
        out.append(&mut self.desc);
    }

    fn rebuild_from(&mut self, scratch: &mut Vec<(f64, usize)>) {
        self.desc.clear();
        self.desc.append(scratch);
        self.desc.sort_by(|a, b| Self::cmp(b, a));
    }
}

/// Pops both queues with bound `to`, asserting bit-identical results.
fn pop_both(
    cal: &mut CalendarQueue,
    oracle: &mut SortedVec,
    to: f64,
    what: &str,
) -> Option<(f64, usize)> {
    let a = cal.pop_if_le(to);
    let b = oracle.pop_if_le(to);
    assert_eq!(
        a.map(|(t, s)| (t.to_bits(), s)),
        b.map(|(t, s)| (t.to_bits(), s)),
        "{what} diverged at to={to}"
    );
    a
}

/// Asserts identical lengths and minimum times.
fn assert_same_state(cal: &CalendarQueue, oracle: &SortedVec) {
    assert_eq!(cal.len(), oracle.len(), "len diverged");
    assert_eq!(
        cal.peek_min_time().map(f64::to_bits),
        oracle.peek_min_time().map(f64::to_bits),
        "peek diverged"
    );
}

/// Drains both queues to the end, asserting identical pop sequences.
fn drain_both(cal: &mut CalendarQueue, oracle: &mut SortedVec) {
    while pop_both(cal, oracle, f64::INFINITY, "final drain").is_some() {}
}

/// DVFS-style re-key of both queues: drain each (unspecified order),
/// check the drained multisets agree, rescale every time about `now` by
/// `factor`, rebuild both from the identical rescaled input — exactly
/// the node's DVFS rescale shape.
fn rescale_both(
    cal: &mut CalendarQueue,
    oracle: &mut SortedVec,
    now: f64,
    factor: f64,
    scratch: &mut (Vec<(f64, usize)>, Vec<(f64, usize)>),
) {
    let (a, b) = scratch;
    cal.drain_unordered(a);
    oracle.drain_unordered(b);
    a.sort_by(SortedVec::cmp);
    b.sort_by(SortedVec::cmp);
    let bits = |v: &Vec<(f64, usize)>| v.iter().map(|&(t, s)| (t.to_bits(), s)).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "drained multisets diverged");
    for e in a.iter_mut() {
        e.0 = now + (e.0 - now) * factor;
    }
    b.clear();
    b.extend_from_slice(a);
    cal.rebuild_from_unpacked(a);
    oracle.rebuild_from(b);
}

// ---------------------------------------------------------------------------
// Raw-queue differential: CalendarQueue vs the sorted-Vec oracle.
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

/// Applies `ops` to the queue and the oracle in lock-step, asserting
/// identical pops, peeks and lengths after every step, then drains both
/// to the end.
fn run_queue_differential(ops: &[QOp]) {
    let mut cal = CalendarQueue::new();
    let mut oracle = SortedVec::default();
    let mut now = 0.0f64;
    let mut payload = 0usize;
    let mut scratch = (Vec::new(), Vec::new());

    let mut push_both = |cal: &mut CalendarQueue, oracle: &mut SortedVec, t: f64| {
        cal.push(t, payload);
        oracle.push(t, payload);
        payload += 1;
    };

    for op in ops {
        match *op {
            QOp::Push { dt } => push_both(&mut cal, &mut oracle, now + dt),
            QOp::PushTies { dt, count } => {
                for _ in 0..count {
                    push_both(&mut cal, &mut oracle, now + dt);
                }
            }
            QOp::PushFar { mult } => push_both(&mut cal, &mut oracle, now + mult * 1e6),
            QOp::Burst { gap, spread, count } => {
                let start = now + gap;
                for i in 0..count {
                    let t = start + spread * (i as f64 / count as f64);
                    push_both(&mut cal, &mut oracle, t);
                }
            }
            QOp::PushWeird { pick } => {
                push_both(&mut cal, &mut oracle, WEIRD[pick % WEIRD.len()]);
            }
            QOp::PopSome { k } => {
                for _ in 0..k {
                    match pop_both(&mut cal, &mut oracle, f64::INFINITY, "unbounded pop") {
                        Some((t, _)) => now = now.max(t.min(1e250)),
                        None => break,
                    }
                }
            }
            QOp::PopDue { dt } => {
                let to = now + dt;
                while pop_both(&mut cal, &mut oracle, to, "bounded pop").is_some() {}
                now = to;
            }
            QOp::Rescale { factor } => {
                rescale_both(&mut cal, &mut oracle, now, factor, &mut scratch);
            }
        }
        assert_same_state(&cal, &oracle);
    }
    drain_both(&mut cal, &mut oracle);
}

// ---------------------------------------------------------------------------
// Small-population differential: the calendar's flat mode and its hand-offs
// to and from the ring, against the same oracle.
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
    let mut oracle = SortedVec::default();
    let mut now = 0.0f64;
    let mut payload = 0usize;
    let mut scratch = (Vec::new(), Vec::new());
    for op in ops {
        match *op {
            HOp::Push { dt } => {
                if cal.len() < 2 * FLAT_MAX {
                    cal.push(now + dt, payload);
                    oracle.push(now + dt, payload);
                    payload += 1;
                }
            }
            HOp::Pop => {
                if let Some((t, _)) = pop_both(&mut cal, &mut oracle, f64::INFINITY, "hovering pop")
                {
                    now = now.max(t);
                }
            }
            HOp::Rescale { factor } => {
                rescale_both(&mut cal, &mut oracle, now, factor, &mut scratch);
            }
        }
        assert_same_state(&cal, &oracle);
    }
    drain_both(&mut cal, &mut oracle);
}

// ---------------------------------------------------------------------------
// ThinkPool differential: calendar pool vs the scan pool.
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
    let mut scan = ReferenceThinkPool::new();
    let mut now = 0.0f64;
    for op in ops {
        match *op {
            POp::Push { dt } => {
                cal.push(now + dt);
                scan.push(now + dt);
            }
            POp::PushTies { dt, count } => {
                for _ in 0..count {
                    cal.push(now + dt);
                    scan.push(now + dt);
                }
            }
            POp::PopSome { k } => {
                for _ in 0..k {
                    let a = cal.pop_min();
                    let b = scan.pop_min();
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
                scan.retire_latest(k);
            }
        }
        assert_eq!(cal.len(), scan.len(), "pool len diverged");
        assert_eq!(
            cal.peek_min().map(f64::to_bits),
            scan.peek_min().map(f64::to_bits),
            "pool peek diverged"
        );
    }
    loop {
        let a = cal.pop_min();
        let b = scan.pop_min();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_queue_matches_sorted_vec(
        ops in prop::collection::vec(qop_strategy(), 1..300),
    ) {
        run_queue_differential(&ops);
    }

    #[test]
    fn calendar_small_population_matches_sorted_vec(
        ops in prop::collection::vec(hop_strategy(), 1..400),
    ) {
        run_hover_differential(&ops);
    }

    #[test]
    fn calendar_pool_matches_scan_pool(
        ops in prop::collection::vec(pop_strategy(), 1..300),
    ) {
        run_pool_differential(&ops);
    }
}
