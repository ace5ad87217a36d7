//! Differential property test: the production [`ServiceNode`] (calendar
//! completion queue, preference-rank bitmap free list) must reproduce the
//! scan oracle [`ReferenceNode`] event for event — identical completion
//! streams, timeouts, and bit-identical interval statistics — under
//! arbitrary arrival / advance / preempt / stall / DVFS-reconfigure /
//! interval-boundary sequences.
//!
//! One op generator covers every regime the node's indexes have to get
//! right:
//!
//! * server counts 1–8 (the Juno node and its neighbours), plus wide
//!   remaps to 9–16 servers whose in-flight population crosses the
//!   calendar queue's flat-mode hand-off (`0..=2·FLAT_MAX` pending
//!   completions) in both directions;
//! * two heterogeneous big/small speed mixes — a 4-speed and a 5-speed
//!   pattern with repeats (dispatch ties) and per-server slowdowns that
//!   split speed-equal servers into different effective classes;
//! * DVFS rescales that keep each server's own speed, and uniform ones
//!   that put every server on one speed (the uniform-rate dispatch path);
//! * reconfiguration stalls whose kick is delivered, as the engine's
//!   event loop does, before the first later event — so arrivals and
//!   advances land *inside* the stall window and exercise the free
//!   list's demote/promote paths;
//! * simultaneous arrival bursts, and timeout churn (a second property
//!   runs every sequence with a short client deadline, so dispatch-side
//!   shedding runs constantly).

use hipster_platform::{CoreKind, Frequency};
use hipster_sim::reference::ReferenceNode;
use hipster_sim::{Demand, ServerSpec, ServiceNode};
use proptest::prelude::*;

/// The calendar queue's flat-mode population limit (one bucket's slab
/// slots); wide remaps size the node up to twice this.
const FLAT_MAX: usize = 8;

/// One step of the driving sequence, generated from raw random draws.
#[derive(Debug, Clone)]
enum Op {
    /// Let `dt` pass, processing completions, then submit `count`
    /// requests at that instant.
    Arrive {
        dt: f64,
        work: f64,
        mem: f64,
        count: usize,
    },
    /// Let `dt` pass, processing completions.
    Advance { dt: f64 },
    /// Preempting reconfiguration to `n` servers with a speed mix drawn
    /// from `mix_seed` (the 5-speed pattern when `five`), stalled by
    /// `stall`.
    Remap {
        n: usize,
        mix_seed: u64,
        five: bool,
        stall: f64,
    },
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

/// A heterogeneous big/small server mix with repeats (dispatch ties) and
/// per-server slowdowns. The 4-speed pattern alternates core kinds and
/// steps slowdowns by 0.25; the 5-speed pattern derives the kind from the
/// speed and steps slowdowns by 0.5.
fn specs_for(n: usize, mix_seed: u64, five: bool) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| {
            let k = mix_seed as usize + i;
            let (speed, kind, slowdown) = if five {
                let speed = match k % 5 {
                    0 | 1 => 2.0, // big pair: dispatch ties
                    2 => 0.8,     // small
                    3 => 4.0,     // boosted big
                    _ => 2.0,
                };
                let kind = if speed >= 2.0 {
                    CoreKind::Big
                } else {
                    CoreKind::Small
                };
                (speed, kind, 1.0 + (k % 3) as f64 * 0.5)
            } else {
                let speed = match k % 4 {
                    0 | 1 => 2.0,
                    2 => 1.0,
                    _ => 4.0,
                };
                let kind = if i % 2 == 0 {
                    CoreKind::Big
                } else {
                    CoreKind::Small
                };
                (speed, kind, 1.0 + (i % 3) as f64 * 0.25)
            };
            ServerSpec {
                kind,
                freq: Frequency::from_mhz(1000),
                speed,
                slowdown,
            }
        })
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..0.4, 0.1f64..4.0, 0.0f64..0.5).prop_map(|(dt, work, mem)| Op::Arrive {
            dt,
            work,
            mem,
            count: 1
        }),
        (0.0f64..0.4, 1.0f64..4.0, 0.0f64..0.25).prop_map(|(dt, work, mem)| Op::Arrive {
            dt,
            work,
            mem,
            count: 1
        }),
        (0.0f64..0.4, 0.5f64..4.0, 2usize..=2 * FLAT_MAX).prop_map(|(dt, work, count)| {
            Op::Arrive {
                dt,
                work,
                mem: 0.0,
                count,
            }
        }),
        (0.0f64..1.0).prop_map(|dt| Op::Advance { dt }),
        (1usize..=8, 0u64..10, any::<bool>(), 0.0f64..0.3).prop_map(
            |(n, mix_seed, five, stall)| Op::Remap {
                n,
                mix_seed,
                five,
                stall
            }
        ),
        (
            FLAT_MAX + 1..=2 * FLAT_MAX,
            0u64..10,
            any::<bool>(),
            0.0f64..0.3
        )
            .prop_map(|(n, mix_seed, five, stall)| Op::Remap {
                n,
                mix_seed,
                five,
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

/// Delivers a pending kick due at or before `t` to both nodes.
fn deliver_kick(new: &mut ServiceNode, old: &mut ReferenceNode, kick_at: &mut Option<f64>, t: f64) {
    if let Some(k) = *kick_at {
        if k <= t {
            new.kick(k);
            old.kick(k);
            *kick_at = None;
        }
    }
}

/// Processes completions up to `to` on both nodes, asserting identical
/// completion streams.
fn advance_both(
    new: &mut ServiceNode,
    old: &mut ReferenceNode,
    to: f64,
    bufs: &mut (Vec<f64>, Vec<f64>),
) {
    bufs.0.clear();
    bufs.1.clear();
    new.advance_collect(to, &mut bufs.0);
    old.advance_collect(to, &mut bufs.1);
    assert_eq!(bufs.0, bufs.1, "completion streams diverged");
}

/// Applies `ops` to both implementations in lock-step, asserting identical
/// observable behaviour after every step.
fn run_differential(ops: &[Op], timeout: Option<f64>) {
    let mut new = ServiceNode::new();
    let mut old = ReferenceNode::new();
    new.set_timeout(timeout);
    old.set_timeout(timeout);
    let initial = specs_for(3, 1, true);
    let mut current_specs = initial.clone();
    new.reconfigure(0.0, &initial, true, 0.0);
    old.reconfigure(0.0, &initial, true, 0.0);
    new.begin_interval(0.0);
    old.begin_interval(0.0);

    let mut now = 0.0f64;
    let mut interval_start = 0.0f64;
    // Pending kick from the last stalled reconfiguration: delivered (like
    // the engine's event loop) before the first later event, so arrivals
    // and advances land *inside* the stall window.
    let mut kick_at: Option<f64> = None;
    let mut bufs = (Vec::new(), Vec::new());
    for op in ops {
        match *op {
            Op::Arrive {
                dt,
                work,
                mem,
                count,
            } => {
                now += dt;
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                advance_both(&mut new, &mut old, now, &mut bufs);
                let d = Demand::new(work, mem);
                for _ in 0..count {
                    new.arrive(now, d);
                    old.arrive(now, d);
                }
            }
            Op::Advance { dt } => {
                now += dt;
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                advance_both(&mut new, &mut old, now, &mut bufs);
            }
            Op::Remap {
                n,
                mix_seed,
                five,
                stall,
            } => {
                current_specs = specs_for(n, mix_seed, five);
                new.reconfigure(now, &current_specs, true, stall);
                old.reconfigure(now, &current_specs, true, stall);
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
                new.reconfigure(now, &current_specs, false, stall);
                old.reconfigure(now, &current_specs, false, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Interval => {
                now = now.max(interval_start + 1e-6);
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                let a = new.end_interval(now, 0.95);
                let b = old.end_interval(now, 0.95);
                assert_eq!(a, b, "interval stats diverged");
                interval_start = now;
                new.begin_interval(now);
                old.begin_interval(now);
            }
        }
        assert_eq!(new.queue_len(), old.queue_len(), "queue length diverged");
        assert_eq!(new.in_flight(), old.in_flight(), "in-flight diverged");
        assert_eq!(
            new.next_completion(),
            old.next_completion(),
            "next completion diverged"
        );
        assert_eq!(new.total_completed(), old.total_completed());
    }
    // Drain both and compare the final interval.
    now += 1000.0;
    deliver_kick(&mut new, &mut old, &mut kick_at, now);
    advance_both(&mut new, &mut old, now, &mut bufs);
    let a = new.end_interval(now, 0.95);
    let b = old.end_interval(now, 0.95);
    assert_eq!(a, b, "final interval stats diverged");
}

proptest! {
    // As many cases as the three node differentials this one replaced ran
    // together (48 each).
    #![proptest_config(ProptestConfig::with_cases(144))]

    #[test]
    fn service_node_matches_reference_node(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        run_differential(&ops, None);
    }

    #[test]
    fn service_node_matches_reference_node_with_timeouts(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        // A short client deadline relative to the op time scale, so the
        // dispatch-side shedding path runs constantly.
        run_differential(&ops, Some(0.75));
    }
}
