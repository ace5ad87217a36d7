//! A 64-node two-tier cluster: 48 private Juno nodes running Hipster
//! behind a power-of-two-choices balancer, plus 16 cloud overflow nodes
//! that absorb (and bill for) the bursts the private tier cannot — the
//! beyond-paper "what if the paper's machine were a fleet" scenario.
//!
//! ```text
//! cargo run --release --example cluster [policy]
//! ```
//!
//! `policy` picks the balancer: `p2c` (default), `least-loaded`,
//! `round-robin` or `random`. Every pick except least-loaded's is O(1) in
//! cluster size; least-loaded scans all nodes, O(N) per pick — noise at
//! 48 nodes, but the reason the larger sweeps use power-of-two-choices.

use hipster::workloads::memcached_bursty;
use hipster::{ClusterSpec, DispatchPolicy, Hipster, MmppLoad, OverflowSpec, Platform, Policy};

fn main() {
    let policy = std::env::args().nth(1).unwrap_or_else(|| "p2c".into());
    let dispatch = DispatchPolicy::parse(&policy).unwrap_or_else(|| {
        eprintln!("unknown dispatch policy {policy:?}; try p2c, least-loaded, round-robin, random");
        std::process::exit(2);
    });

    let intervals = 20;
    let interval_s = 0.05;
    let sim = ClusterSpec::new(
        format!("cluster-64/{}", dispatch.name()),
        Platform::juno_r1(),
    )
    .workload_with(|| Box::new(memcached_bursty()))
    // A mean-preserving bursty envelope around 55% of private capacity:
    // calm stretches punctuated by 4× bursts (the MMPP of the bench).
    .load(MmppLoad::new(
        0.55,
        10.0 * interval_s,
        intervals as f64 * interval_s,
        17,
    ))
    .policy(|p: &Platform, seed| {
        Box::new(Hipster::interactive(p, seed).learning_intervals(4).build()) as Box<dyn Policy>
    })
    .dispatch(dispatch)
    .private_nodes(48)
    .cloud_nodes(16)
    // Spill past 85% private occupancy, at a public-cloud vCPU price.
    .overflow(OverflowSpec::new(0.85, 0.12 / 3600.0))
    .intervals(intervals)
    .interval_s(interval_s)
    .seed(7)
    .build()
    .expect("valid cluster spec");

    let out = sim.run();
    let s = &out.summary;
    println!("{}", s.name);
    println!("  intervals            {}", s.intervals);
    println!(
        "  QoS guarantee        {:.1} % of intervals (p95 ≤ 10 ms)",
        s.qos_guarantee_pct
    );
    println!(
        "  cluster p99          {:.2} ms mean, {:.2} ms peak",
        s.mean_p99_s * 1e3,
        s.peak_p99_s * 1e3
    );
    println!(
        "  completions          {} ({} timeouts)",
        s.completions, s.timeouts
    );
    println!("  private energy       {:.1} J", s.total_energy_j);
    println!(
        "  cloud bill           ${:.6} for {:.3} req-s",
        s.total_cloud_usd, out.cloud_bill.req_seconds
    );
    println!(
        "  spilled to cloud     {:.1} % of quanta",
        s.spill_frac * 100.0
    );
    println!(
        "  dispatch decisions   {} (digest {:#018x})",
        out.decisions, out.decision_digest
    );
}
