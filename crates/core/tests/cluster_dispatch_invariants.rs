//! Property test of the cluster [`Dispatcher`] under arbitrary
//! interleavings of occupancy carry-writes, mask flips and picks, for
//! every balancing policy:
//!
//! * `total()` always equals the sum of per-node occupancies, and no
//!   occupancy exceeds the cap;
//! * while any node is unmasked, no pick lands on a masked node: a
//!   policy's candidate on a masked node moves to the next unmasked
//!   index, cyclically, and least-loaded skips masked nodes outright;
//! * a least-loaded pick is the lowest-index least-occupied unmasked
//!   node (the raw argmin when every node is masked);
//! * each pick draws a fixed amount of randomness, checked against a
//!   mirror `SimRng`: one `next_u64` for random and power-of-two (no
//!   topology, so no degraded domain), none for round-robin and
//!   least-loaded.

use proptest::prelude::*;

use hipster_core::cluster::{DispatchPolicy, Dispatcher};
use hipster_sim::SimRng;

/// One randomly generated dispatcher operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `set_occupancy(node % n, occ)` — interval-start backlog carry.
    Carry { node: usize, occ: u32 },
    /// `set_masked(node % n, masked)` — a revocation or recovery.
    Mask { node: usize, masked: bool },
    /// A burst of `k` consecutive `pick` (or `pick_retry`) calls.
    Pick { k: usize, retry: bool },
}

fn op_strategy(max_nodes: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_nodes, 0u32..40).prop_map(|(node, occ)| Op::Carry { node, occ }),
        (0..max_nodes, any::<bool>()).prop_map(|(node, masked)| Op::Mask { node, masked }),
        (1usize..64, any::<bool>()).prop_map(|(k, retry)| Op::Pick { k, retry }),
    ]
}

/// The lowest-index least-occupied node among `candidates`.
fn least(d: &Dispatcher, candidates: impl Iterator<Item = usize>) -> Option<usize> {
    candidates.min_by_key(|&i| (d.occupancy(i), i))
}

/// The first unmasked node at or cyclically after `node`; `node` itself
/// when every node is masked.
fn next_unmasked(d: &Dispatcher, node: usize) -> usize {
    let n = d.len();
    (0..n)
        .map(|step| (node + step) % n)
        .find(|&i| !d.is_masked(i))
        .unwrap_or(node)
}

/// The node the next pick must return, drawing from `mirror` exactly
/// what the policy may draw from the real stream.
fn expected_pick(d: &Dispatcher, rr_next: usize, mirror: &mut SimRng) -> usize {
    let n = d.len();
    match d.policy() {
        DispatchPolicy::Random => next_unmasked(d, mirror.index(n)),
        DispatchPolicy::RoundRobin => next_unmasked(d, rr_next),
        DispatchPolicy::LeastLoaded => least(d, (0..n).filter(|&i| !d.is_masked(i)))
            .or_else(|| least(d, 0..n))
            .expect("non-empty tier"),
        DispatchPolicy::PowerOfTwo => {
            let bits = mirror.next_u64();
            let a = ((bits >> 32) * n as u64) >> 32;
            let b = ((bits & 0xffff_ffff) * n as u64) >> 32;
            let winner = least(d, [a as usize, b as usize].into_iter()).expect("two probes");
            next_unmasked(d, winner)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatcher_invariants_hold_under_arbitrary_churn(
        nodes in 1usize..200,
        cap in 1u32..24,
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(200), 1..120),
    ) {
        for policy in DispatchPolicy::ALL {
            let mut d = Dispatcher::new(policy, nodes, cap);
            let mut rng = SimRng::seed(seed);
            let mut mirror = SimRng::seed(seed);
            let mut rr_next = 0;

            for op in &ops {
                match *op {
                    Op::Carry { node, occ } => d.set_occupancy(node % nodes, occ),
                    Op::Mask { node, masked } => d.set_masked(node % nodes, masked),
                    Op::Pick { k, retry } => {
                        for _ in 0..k {
                            let expect = expected_pick(&d, rr_next, &mut mirror);
                            rr_next = (rr_next + 1) % nodes;
                            let before = d.occupancy(expect);
                            let got = if retry { d.pick_retry(&mut rng) } else { d.pick(&mut rng) };
                            prop_assert_eq!(
                                got, expect,
                                "{}: wrong node (n={}, cap={})", policy.name(), nodes, cap
                            );
                            if (0..nodes).any(|i| !d.is_masked(i)) {
                                prop_assert!(
                                    !d.is_masked(got),
                                    "{}: picked masked node {}", policy.name(), got
                                );
                            }
                            prop_assert_eq!(d.occupancy(got), (before + 1).min(cap));
                            prop_assert_eq!(
                                rng.clone().next_u64(),
                                mirror.clone().next_u64(),
                                "{}: RNG draws per pick drifted", policy.name()
                            );
                        }
                    }
                }
                let sum: u64 = (0..nodes).map(|i| u64::from(d.occupancy(i))).sum();
                prop_assert_eq!(d.total(), sum);
                for i in 0..nodes {
                    prop_assert!(d.occupancy(i) <= cap, "node {} over cap", i);
                }
            }
        }
    }
}
