//! Dispatch + completion kernel: the per-event cost of the service node's
//! indexed structures, isolated from workload sampling (demands are
//! pre-generated), at 16/256/1024 servers.
//!
//! Compares the bitmap-dispatch `ServiceNode` against the frozen
//! PR 3/4-era free-server max-heap `HeapNode` — the pair recorded in
//! `BENCH_PR5.json` — on an identical steady-state arrival/advance replay
//! at ~80% utilization. The bitmap node's cost should be flat across the
//! three sizes; the heap node's grows with log(servers).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hipster_platform::{CoreKind, Frequency};
use hipster_sim::dist::LogNormal;
use hipster_sim::reference::HeapNode;
use hipster_sim::{Demand, Sampler, ServerSpec, ServiceNode, SimRng};

/// Events replayed per routine call.
const STEPS: usize = 4096;
/// Target per-server utilization of the replay.
const UTILIZATION: f64 = 0.8;

/// The node API surface the kernel needs (both implementations expose it).
trait Node: Clone {
    fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64);
    fn begin_interval(&mut self, t: f64);
    fn arrive(&mut self, now: f64, demand: Demand);
    fn advance(&mut self, to: f64);
}

macro_rules! impl_node {
    ($ty:ty) => {
        impl Node for $ty {
            fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
                <$ty>::reconfigure(self, now, specs, preempt, stall_s);
            }
            fn begin_interval(&mut self, t: f64) {
                <$ty>::begin_interval(self, t);
            }
            fn arrive(&mut self, now: f64, demand: Demand) {
                <$ty>::arrive(self, now, demand);
            }
            fn advance(&mut self, to: f64) {
                <$ty>::advance(self, to);
            }
        }
    };
}
impl_node!(ServiceNode);
impl_node!(HeapNode);

fn specs(servers: usize) -> Vec<ServerSpec> {
    vec![
        ServerSpec {
            kind: CoreKind::Big,
            freq: Frequency::from_mhz(1150),
            speed: 1.0e6,
            slowdown: 1.0,
        };
        servers
    ]
}

/// Pre-generated per-request demands (lognormal work, as Memcached), so the
/// kernel times the node, not the sampler.
fn demands(n: usize) -> Vec<Demand> {
    // Median from mean as the workload builder does: mean = median·e^{σ²/2}.
    let work = LogNormal::from_median(37.0 / (0.7f64 * 0.7 / 2.0).exp(), 0.7);
    let mut rng = SimRng::seed(9);
    (0..n)
        .map(|_| Demand::new(work.sample(&mut rng), 9e-6))
        .collect()
}

/// A node warmed to steady state: `servers` servers, ~80% busy.
fn warm<N: Node + Default>(servers: usize, demands: &[Demand], iat: f64) -> (N, f64) {
    let mut node = N::default();
    node.reconfigure(0.0, &specs(servers), true, 0.0);
    node.begin_interval(0.0);
    let mut now = 0.0;
    for d in demands.iter().cycle().take(4 * servers) {
        now += iat;
        node.advance(now);
        node.arrive(now, *d);
    }
    (node, now)
}

/// Replays `STEPS` deterministic arrive+advance pairs from the warm state.
fn replay<N: Node>(mut node: N, mut now: f64, demands: &[Demand], iat: f64) -> N {
    for d in demands.iter().cycle().take(STEPS) {
        now += iat;
        node.advance(now);
        node.arrive(now, *d);
    }
    node
}

fn benches(c: &mut Criterion) {
    let ds = demands(STEPS);
    // Mean service ≈ work/speed + mem; offered rate = U × servers / t̄.
    let t_mean = 37.0 / 1.0e6 + 9e-6;
    for &servers in &[16usize, 256, 1024] {
        let iat = t_mean / (UTILIZATION * servers as f64);

        let (proto, t0) = warm::<ServiceNode>(servers, &ds, iat);
        let ds_b = ds.clone();
        c.bench_function(&format!("dispatch/bitmap/s{servers}"), move |b| {
            b.iter_batched(
                || proto.clone(),
                |node| criterion::black_box(replay(node, t0, &ds_b, iat)),
                BatchSize::LargeInput,
            )
        });

        let (proto, t0) = warm::<HeapNode>(servers, &ds, iat);
        let ds_h = ds.clone();
        c.bench_function(&format!("dispatch/heap/s{servers}"), move |b| {
            b.iter_batched(
                || proto.clone(),
                |node| criterion::black_box(replay(node, t0, &ds_h, iat)),
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group!(
    name = group;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = benches
);
criterion_main!(group);
