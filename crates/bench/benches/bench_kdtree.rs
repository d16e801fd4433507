//! Criterion bench for experiment E-kd (Theorem 6.1): classic vs p-batched
//! k-d tree construction, including the p ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwe_bench::inputs;
use pwe_kdtree::build::{build_classic, build_p_batched, recommended_p};

fn bench_kdtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_build");
    group.sample_size(10);
    for &n in &[20_000usize, 60_000] {
        let points = inputs::kd_points(n);
        group.bench_with_input(BenchmarkId::new("classic", n), &points, |b, pts| {
            b.iter(|| build_classic(pts, 16))
        });
        let log_n = (n as f64).log2().ceil() as usize;
        for (name, p) in [("p_log_n", log_n), ("p_log3_n", recommended_p(n))] {
            group.bench_with_input(BenchmarkId::new(name, n), &points, |b, pts| {
                b.iter(|| build_p_batched(pts, p, 16, 13))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kdtree);
criterion_main!(benches);
