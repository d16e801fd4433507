//! Criterion bench for experiment E-sort (Theorem 4.1): wall-clock time of
//! the write-efficient incremental sort vs the merge-sort baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwe_bench::inputs;
use pwe_sort::{incremental_sort, merge_sort_baseline};

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let keys = inputs::keys(n, 1);
        group.bench_with_input(BenchmarkId::new("merge_baseline", n), &keys, |b, keys| {
            b.iter(|| merge_sort_baseline(keys))
        });
        group.bench_with_input(BenchmarkId::new("incremental_we", n), &keys, |b, keys| {
            b.iter(|| incremental_sort(keys, 7))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort);
criterion_main!(benches);
