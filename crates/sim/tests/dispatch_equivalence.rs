//! Differential property test: the bitmap-dispatch [`ServiceNode`] must
//! reproduce the frozen PR 3/4-era free-server max-heap [`HeapNode`] event
//! for event — identical completion streams, timeouts, and bit-identical
//! interval statistics — under arbitrary arrival / advance / preempt /
//! stall / DVFS-reconfigure interleavings, including heterogeneous
//! big/small speed mixes (many distinct speeds, dispatch ties within each)
//! and timeout churn.
//!
//! This is the PR 5 counterpart of `node_equivalence.rs` (which pins the
//! production node to the pre-PR3 linear-scan [`ReferenceNode`]): here the
//! oracle is the heap-based node the bitmap free list replaced, so any
//! divergence in preference ordering, rank tie-breaking, stalled-bitset
//! promotion or the arrival fast path is caught directly against the
//! structure it must mimic.

use hipster_platform::{CoreKind, Frequency};
use hipster_sim::reference::HeapNode;
use hipster_sim::{Demand, ServerSpec, ServiceNode};
use proptest::prelude::*;

/// One step of the driving sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Let `dt` pass, processing completions, then submit a request.
    Arrive { dt: f64, work: f64, mem: f64 },
    /// Let `dt` pass, processing completions.
    Advance { dt: f64 },
    /// Preempting reconfiguration to `n` servers with a speed mix drawn
    /// from `mix_seed`, stalled by `stall`.
    Remap { n: usize, mix_seed: u64, stall: f64 },
    /// DVFS-style rescale of the current servers (no count change). With
    /// `uniform`, every server lands on the same speed (one class — the
    /// uniform-rate dispatch path); otherwise each keeps its own.
    Rescale {
        factor: f64,
        stall: f64,
        uniform: bool,
    },
    /// Close the monitoring interval and open the next one.
    Interval,
}

/// A heterogeneous big/small server mix: several distinct speeds (so the
/// class table has many classes) with repeats (so classes have dispatch
/// ties), plus per-server slowdowns that split speed-equal servers into
/// different *effective* classes.
fn specs_for(n: usize, mix_seed: u64) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| {
            let speed = match (mix_seed as usize + i) % 5 {
                0 | 1 => 2.0, // big pair: dispatch ties
                2 => 0.8,     // small
                3 => 4.0,     // boosted big
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
        (0.0f64..0.4, 1.0f64..4.0, 0.0f64..0.25).prop_map(|(dt, work, mem)| Op::Arrive {
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
        (0.5f64..2.0, 0.0f64..0.1, any::<bool>()).prop_map(|(factor, stall, uniform)| {
            Op::Rescale {
                factor,
                stall,
                uniform,
            }
        }),
        Just(Op::Interval),
    ]
}

/// Applies `ops` to both implementations in lock-step, asserting identical
/// observable behaviour after every step.
fn run_differential(ops: &[Op], timeout: Option<f64>) {
    let mut bitmap = ServiceNode::new();
    let mut heap = HeapNode::new();
    bitmap.set_timeout(timeout);
    heap.set_timeout(timeout);
    let initial = specs_for(3, 1);
    let mut current_specs = initial.clone();
    bitmap.reconfigure(0.0, &initial, true, 0.0);
    heap.reconfigure(0.0, &initial, true, 0.0);
    bitmap.begin_interval(0.0);
    heap.begin_interval(0.0);

    let mut now = 0.0f64;
    let mut interval_start = 0.0f64;
    // Pending kick from the last stalled reconfiguration: delivered (like
    // the engine's event loop) before the first later event, so arrivals
    // and advances land *inside* the stall window and exercise the
    // demote/promote paths.
    let mut kick_at: Option<f64> = None;
    let mut bitmap_done = Vec::new();
    let mut heap_done = Vec::new();
    let deliver_kick =
        |bitmap: &mut ServiceNode, heap: &mut HeapNode, kick_at: &mut Option<f64>, t: f64| {
            if let Some(k) = *kick_at {
                if k <= t {
                    bitmap.kick(k);
                    heap.kick(k);
                    *kick_at = None;
                }
            }
        };
    for op in ops {
        match *op {
            Op::Arrive { dt, work, mem } => {
                now += dt;
                deliver_kick(&mut bitmap, &mut heap, &mut kick_at, now);
                bitmap_done.clear();
                heap_done.clear();
                bitmap.advance_collect(now, &mut bitmap_done);
                heap.advance_collect(now, &mut heap_done);
                assert_eq!(bitmap_done, heap_done, "completion streams diverged");
                let d = Demand::new(work, mem);
                bitmap.arrive(now, d);
                heap.arrive(now, d);
            }
            Op::Advance { dt } => {
                now += dt;
                deliver_kick(&mut bitmap, &mut heap, &mut kick_at, now);
                bitmap_done.clear();
                heap_done.clear();
                bitmap.advance_collect(now, &mut bitmap_done);
                heap.advance_collect(now, &mut heap_done);
                assert_eq!(bitmap_done, heap_done, "completion streams diverged");
            }
            Op::Remap { n, mix_seed, stall } => {
                current_specs = specs_for(n, mix_seed);
                bitmap.reconfigure(now, &current_specs, true, stall);
                heap.reconfigure(now, &current_specs, true, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Rescale {
                factor,
                stall,
                uniform,
            } => {
                for s in &mut current_specs {
                    if uniform {
                        s.speed = 2.0 * factor;
                        s.slowdown = 1.0;
                    } else {
                        s.speed *= factor;
                    }
                }
                bitmap.reconfigure(now, &current_specs, false, stall);
                heap.reconfigure(now, &current_specs, false, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Interval => {
                now = now.max(interval_start + 1e-6);
                deliver_kick(&mut bitmap, &mut heap, &mut kick_at, now);
                let a = bitmap.end_interval(now, 0.95);
                let b = heap.end_interval(now, 0.95);
                assert_eq!(a, b, "interval stats diverged");
                interval_start = now;
                bitmap.begin_interval(now);
                heap.begin_interval(now);
            }
        }
        assert_eq!(bitmap.queue_len(), heap.queue_len(), "queue len diverged");
        assert_eq!(bitmap.in_flight(), heap.in_flight(), "in-flight diverged");
        assert_eq!(
            bitmap.next_completion(),
            heap.next_completion(),
            "next completion diverged"
        );
        assert_eq!(bitmap.total_completed(), heap.total_completed());
    }
    // Drain both and compare the final interval.
    now += 1000.0;
    deliver_kick(&mut bitmap, &mut heap, &mut kick_at, now);
    bitmap_done.clear();
    heap_done.clear();
    bitmap.advance_collect(now, &mut bitmap_done);
    heap.advance_collect(now, &mut heap_done);
    assert_eq!(bitmap_done, heap_done, "drain streams diverged");
    let a = bitmap.end_interval(now, 0.95);
    let b = heap.end_interval(now, 0.95);
    assert_eq!(a, b, "final interval stats diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitmap_node_matches_heap_node(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        run_differential(&ops, None);
    }

    #[test]
    fn bitmap_node_matches_heap_node_with_timeouts(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        // A short client deadline relative to the op time scale, so the
        // dispatch-side shedding path runs constantly.
        run_differential(&ops, Some(0.75));
    }
}
