//! Criterion bench for experiment T1-range: 2D range tree construction and
//! query throughput across the α sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwe_augtree::range_tree::RangeTree2D;
use pwe_bench::inputs;
use pwe_geom::generators::random_query_rects;

fn bench_range_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_tree");
    group.sample_size(10);
    let n = 20_000;
    let points = inputs::rt_points(n);
    let rects = random_query_rects(200, 0.1, 32);
    for alpha in [2usize, 8, 16] {
        group.bench_function(BenchmarkId::new("build_classic", alpha), |b| {
            b.iter(|| RangeTree2D::build_classic(&points, alpha))
        });
        group.bench_function(BenchmarkId::new("build", alpha), |b| {
            b.iter(|| RangeTree2D::build(&points, alpha))
        });
        let tree = RangeTree2D::build(&points, alpha);
        group.bench_function(BenchmarkId::new("queries", alpha), |b| {
            b.iter(|| {
                let mut total = 0;
                for rect in &rects {
                    total += tree.query(rect).len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_tree);
criterion_main!(benches);
