//! Cluster determinism regression: a fig2-shaped sweep (node counts ×
//! per-node policies) must produce byte-identical results no matter how
//! it is executed — serially, on one work-stealing worker, or across
//! several workers claiming clusters in whatever order the scheduler
//! lands on — and within one cluster, however many threads step its
//! nodes. Each cluster's decision digest folds every (tier, node)
//! placement, so a single divergent dispatch anywhere in any execution
//! strategy fails the test.

use hipster_bench::experiments::cluster::{cluster_spec, sweep_digests};
use hipster_bench::experiments::faults;
use hipster_bench::runner::{hipster_in, static_all_big, Workload};
use hipster_core::cluster::{ClusterOutcome, ClusterSpec};

#[test]
fn sweep_is_identical_across_execution_strategies() {
    let serial = sweep_digests(1);
    let two_workers = sweep_digests(2);
    let four_workers = sweep_digests(4);
    assert!(!serial.is_empty(), "the digest sweep ran no clusters");
    assert_eq!(serial, two_workers, "1 vs 2 workers diverged");
    assert_eq!(serial, four_workers, "1 vs 4 workers diverged");
}

/// PR 8: the same property under fault injection. Fault timelines ride
/// dedicated split-seeded RNG streams and the resilience layer (masking,
/// retries, backoff) adds its own digest folds — all of it must replay
/// byte-for-byte whether the faulted grid runs serially or across 2 or 4
/// work-stealing workers.
#[test]
fn fault_sweep_is_identical_across_execution_strategies() {
    let serial = faults::sweep_digests(1);
    let two_workers = faults::sweep_digests(2);
    let four_workers = faults::sweep_digests(4);
    assert!(!serial.is_empty(), "the fault digest sweep ran no clusters");
    assert_eq!(serial, two_workers, "1 vs 2 workers diverged under faults");
    assert_eq!(serial, four_workers, "1 vs 4 workers diverged under faults");
    // Mitigation on/off must differ: the ablation compares two genuinely
    // different decision streams, not a no-op toggle.
    for pair in serial.chunks(2) {
        if let [on, off] = pair {
            assert_ne!(on.1, off.1, "{} vs {}: same digest", on.0, off.0);
        }
    }
}

/// Same-seed faulted runs reproduce byte-for-byte; a different seed moves
/// the fault timeline and with it the decision stream.
#[test]
fn repeated_faulted_runs_are_byte_identical() {
    let run = |seed: u64| {
        let out = faults::faulty_cluster_spec(
            "fault-determinism",
            "memcached-revocable",
            8,
            static_all_big(),
            6,
            seed,
            true,
        )
        .build()
        .expect("valid faulted cluster spec")
        .run();
        (
            out.decision_digest,
            out.decisions,
            format!("{:?}", out.summary),
            out.trace.to_csv(),
        )
    };
    let first = run(31);
    assert_eq!(first, run(31), "same seed must reproduce byte-for-byte");
    assert_ne!(
        first.0,
        run(32).0,
        "a different seed must move the fault timeline"
    );
}

#[test]
fn repeated_runs_of_one_spec_are_byte_identical() {
    let run = |seed: u64| {
        let out = cluster_spec("determinism", 6, static_all_big(), 3, seed)
            .build()
            .expect("valid cluster spec")
            .run();
        (
            out.decision_digest,
            out.decisions,
            format!("{:?}", out.summary),
            out.trace.to_csv(),
        )
    };
    let first = run(11);
    assert_eq!(first, run(11), "same seed must reproduce byte-for-byte");
    assert_ne!(
        first.0,
        run(12).0,
        "a different seed must change the decision stream"
    );
}

/// Everything a byte-identity gate compares of one cluster run.
fn fingerprint(out: &ClusterOutcome) -> (u64, u64, String, String) {
    (
        out.decision_digest,
        out.decisions,
        format!("{:?}", out.summary),
        out.trace.to_csv(),
    )
}

/// The node stage of `ClusterSim::step` fans 64-node chunks out over
/// worker threads. At 256 nodes every cluster below is four chunks, and
/// its decision digest, decision count, summary and trace must be the
/// same at 1, 2 and 4 threads — plain, faulted, and under zone waves
/// with hedging, admission and collocated batch.
#[test]
fn node_stage_is_identical_across_thread_counts() {
    const NODES: usize = 256;
    let plain = |threads| {
        let policy = hipster_in(Workload::Memcached.tuned_zones(), 2, 0.05);
        cluster_spec("threads/plain", NODES, policy, 4, 5).threads(threads)
    };
    let faulted = |threads| {
        faults::faulty_cluster_spec(
            "threads/faulted",
            "memcached-revocable",
            NODES,
            static_all_big(),
            8,
            31,
            true,
        )
        .threads(threads)
    };
    let waves = |threads| {
        faults::zonewave_cluster_spec("threads/zonewave", NODES, static_all_big(), 12, 412, true)
            .threads(threads)
    };
    let cases: [(&str, &dyn Fn(usize) -> ClusterSpec); 3] = [
        ("plain", &plain),
        ("faulted", &faulted),
        ("zone-wave", &waves),
    ];
    let run = |spec: ClusterSpec| spec.build().expect("valid cluster spec").run();
    for (label, make) in cases {
        let serial = run(make(1));
        let summary = &serial.summary;
        assert!(summary.completions > 0, "{label}: {summary:?}");
        match label {
            "faulted" => assert!(summary.revoked_node_intervals > 0, "{summary:?}"),
            "zone-wave" => assert!(
                summary.revoked_node_intervals > 0
                    && summary.hedged_requests > 0
                    && summary.shed_intervals > 0,
                "{summary:?}"
            ),
            _ => {}
        }
        let want = fingerprint(&serial);
        for threads in [2, 4] {
            assert!(
                want == fingerprint(&run(make(threads))),
                "{label}: 1 vs {threads} node-stage threads diverged"
            );
        }
    }
}
