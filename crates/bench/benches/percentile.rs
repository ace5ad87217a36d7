//! Percentile computation benchmarks: exact interval percentiles by
//! selection (what the QoS Monitor computes each second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hipster_sim::{percentile, SimRng};

fn samples(n: usize) -> Vec<f64> {
    let mut rng = SimRng::seed(42);
    (0..n).map(|_| -(1.0 - rng.uniform()).ln()).collect()
}

fn benches(c: &mut Criterion) {
    // A Memcached interval completes ~36k requests at full load.
    for &n in &[1_000usize, 36_000] {
        let data = samples(n);
        c.bench_function(&format!("percentile/exact_{n}"), |b| {
            b.iter_batched(
                || data.clone(),
                |mut d| criterion::black_box(percentile(&mut d, 0.95)),
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(
    name = group;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
);
criterion_main!(group);
