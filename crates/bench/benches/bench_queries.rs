//! Criterion bench for the cache-conscious query engine: flat arena
//! descent vs. vEB-blocked descent on the same structure, plus the scalar
//! vs. batched geometric predicate kernels.  Mirrors the `speedup
//! --queries` A/B rows (`BENCH_queries.json`) at CI-friendly sizes; the
//! `CRITERION_BASELINE` gate covers every group here like any other bench.

use criterion::{criterion_group, criterion_main, Criterion};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::range_tree::RangeTree2D;
use pwe_bench::inputs;
use pwe_geom::generators::stabbing_queries;
use pwe_geom::{in_circle, in_circle_batch, in_circle_batch_scalar};

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);

    let n = 50_000;
    let itree = IntervalTree::build_parallel(&inputs::intervals(n), 8);
    let stabs = stabbing_queries(2_000, 1_000_000.0, 71);
    group.bench_function("interval_stab_flat", |b| {
        b.iter(|| {
            stabs
                .iter()
                .map(|&x| itree.stab_flat(x).len())
                .sum::<usize>()
        })
    });
    group.bench_function("interval_stab_blocked", |b| {
        b.iter(|| stabs.iter().map(|&x| itree.stab(x).len()).sum::<usize>())
    });

    let rtree = RangeTree2D::build(&inputs::rt_points(n), 8);
    // The wide-x / thin-y rows of the speedup query_compare workload: the
    // report walk is dominated by inner-run searches at critical nodes.
    let rects = inputs::thin_rects(500);
    // Layout A/B with cascading held off on both sides (the PR 7 rows) …
    group.bench_function("range2d_flat", |b| {
        b.iter(|| {
            rects
                .iter()
                .map(|r| rtree.query_flat_uncascaded(r).len())
                .sum::<usize>()
        })
    });
    group.bench_function("range2d_blocked", |b| {
        b.iter(|| {
            rects
                .iter()
                .map(|r| rtree.query_uncascaded(r).len())
                .sum::<usize>()
        })
    });
    // … and the fractional-cascading A/B on top of the blocked layout (the
    // `range2d_cascade` speedup row): same answers, strictly fewer model
    // reads; wall-clock is the honest open question the row tracks.
    group.bench_function("range2d_cascaded", |b| {
        b.iter(|| rects.iter().map(|r| rtree.query(r).len()).sum::<usize>())
    });

    // Scalar vs. batched in-circle over one triangle and a SoA query storm
    // of the delaunay_locate A/B.
    let [a, bb, cc] = inputs::ccw_triangles()[0];
    let qs = inputs::grid_queries(4_096);
    let (qx, qy): (Vec<i64>, Vec<i64>) = qs.iter().map(|p| (p.x, p.y)).unzip();
    group.bench_function("in_circle_scalar", |b| {
        b.iter(|| qs.iter().filter(|q| in_circle(a, bb, cc, **q)).count())
    });
    let mut mask = vec![false; qs.len()];
    // The scalar batch loop (the dispatch fallback / SIMD oracle) …
    group.bench_function("in_circle_batch_scalar", |b| {
        b.iter(|| {
            in_circle_batch_scalar(a, bb, cc, &qx, &qy, &mut mask);
            mask.iter().filter(|&&m| m).count()
        })
    });
    // … vs the public dispatcher — the explicit AVX2 kernel wherever the
    // host has it (the `incircle_simd` speedup row).
    group.bench_function("in_circle_batched", |b| {
        b.iter(|| {
            in_circle_batch(a, bb, cc, &qx, &qy, &mut mask);
            mask.iter().filter(|&&m| m).count()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
