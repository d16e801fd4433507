//! Cascaded-vs-uncascaded equivalence for the 2-D range tree (ISSUE 8).
//!
//! Unlike `layout_equiv.rs` — where the blocked overlay must leave the ARAM
//! counters untouched — fractional cascading *changes the read charge by
//! design* (`Θ(log² n) → Θ(log n)` locate reads, MODEL.md §5 "Fractional
//! cascading").  So the contract pinned here is:
//!
//! * answers bit-identical on every path (`query` = cascaded blocked,
//!   `query_uncascaded` = blocked searched, `query_flat_uncascaded` = flat
//!   searched);
//! * the two searched paths charge **identically** (same reads, same
//!   writes — only machine addresses differ);
//! * write charges identical across all three paths (cascading touches
//!   reads only);
//! * cascaded reads genuinely drop below the searched-run reads at depth;
//! * deterministic: re-running a query charges the same deltas;
//! * tombstones filter identically, and a structural insert drops the
//!   cascade so queries fall back to the searched descent with charges
//!   equal to `query_uncascaded`.
//!
//! Counter checks difference the calling thread's ARAM ledger, which
//! concurrent tests never charge.

use proptest::prelude::*;
use pwe_asym::CounterSnapshot;
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_geom::bbox::Rect;
use pwe_geom::generators::uniform_points_2d;
use pwe_geom::point::Point2;

const ALPHAS: [usize; 3] = [2, 8, 64];

/// Runs `f`, returning its answer plus the (reads, writes) it charged.
fn charged<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = CounterSnapshot::now();
    let out = f();
    let after = CounterSnapshot::now();
    let (r, w) = after.since(&before);
    (out, r, w)
}

fn rt_points(n: usize, seed: u64) -> Vec<RtPoint> {
    uniform_points_2d(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect()
}

/// The bench workload shape (wide in x, thin in y): answers equal on all
/// three paths, searched flat/blocked charge-identical, writes equal
/// everywhere, and the aggregate cascaded read bill strictly below the
/// searched-run one — the `Θ(log² n) → Θ(log n)` drop made measurable.
/// The sizes are per-α: at α = 2 every node is critical, so the searched
/// side pays only cheap geometric-decay run searches and the crossover
/// needs more depth than the α ∈ {8, 64} fan-out shapes (the counters are
/// deterministic, so these are stable, not tuned, thresholds).
#[test]
fn cascade_reduces_reads_at_depth() {
    for &(alpha, n) in &[(2usize, 100_000usize), (8, 20_000), (64, 20_000)] {
        let pts = rt_points(n, 0xca5c + alpha as u64);
        let tree = RangeTree2D::build(&pts, alpha);
        let mut state = 41u64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut casc_reads, mut flat_reads) = (0u64, 0u64);
        for q in 0..64 {
            let w = 0.05 + 0.20 * next();
            let h = 0.0001 + 0.0009 * next();
            let x = next() * (1.0 - w);
            let y = next() * (1.0 - h);
            let rect = Rect {
                x_min: x,
                x_max: x + w,
                y_min: y,
                y_max: y + h,
            };
            let (a, cr, cw) = charged(|| tree.query(&rect));
            let (c, ur, uw) = charged(|| tree.query_uncascaded(&rect));
            let (d, vr, vw) = charged(|| tree.query_flat_uncascaded(&rect));
            assert_eq!(a, c, "cascaded vs uncascaded answers α={alpha} q={q}");
            assert_eq!(a, d, "cascaded vs flat-searched answers α={alpha} q={q}");
            assert_eq!(ur, vr, "searched paths charge alike α={alpha} q={q}");
            assert_eq!(
                [cw, uw],
                [vw, vw],
                "write charges never move α={alpha} q={q}"
            );
            casc_reads += cr;
            flat_reads += ur;
        }
        assert!(
            casc_reads < flat_reads,
            "cascading must cut the aggregate read bill: {casc_reads} vs {flat_reads} (α={alpha})"
        );
    }
}

/// Re-running the same query on the same tree charges identical deltas —
/// the cascaded locate sequence is a pure function of (tree, rect).
#[test]
fn cascaded_charges_are_deterministic() {
    let tree = RangeTree2D::build(&rt_points(1500, 7), 8);
    let rect = Rect {
        x_min: 0.2,
        x_max: 0.8,
        y_min: 0.40,
        y_max: 0.41,
    };
    let (a1, r1, w1) = charged(|| tree.query(&rect));
    let (a2, r2, w2) = charged(|| tree.query(&rect));
    assert_eq!(a1, a2);
    assert_eq!((r1, w1), (r2, w2), "same query, same charge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Arbitrary rectangles and sizes: answers equal on all three paths,
    // writes equal everywhere.
    // (Read *reduction* is asserted in the deterministic depth test above —
    // on tiny trees a bridge hop can legitimately out-cost a 1-probe run
    // search, and that is fine; correctness may never depend on it.)
    #[test]
    fn prop_cascade_answers_and_charges(
        n in 0usize..500,
        seed in 0u64..50,
        rects in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5), 1..12),
    ) {
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let tree = RangeTree2D::build(&pts, alpha);
            for &(x, y, w, h) in &rects {
                let rect = Rect { x_min: x, x_max: x + w, y_min: y, y_max: y + h };
                let (a, _, cw) = charged(|| tree.query(&rect));
                let (c, _, uw) = charged(|| tree.query_uncascaded(&rect));
                let (d, _, vw) = charged(|| tree.query_flat_uncascaded(&rect));
                prop_assert_eq!(&a, &c, "vs uncascaded α={} rect={:?}", alpha, rect);
                prop_assert_eq!(&a, &d, "vs flat-searched α={} rect={:?}", alpha, rect);
                prop_assert_eq!([cw, uw], [vw, vw], "write parity α={} rect={:?}", alpha, rect);
            }
        }
    }

    // Tombstoned points stay invisible on the cascaded path (deletion does
    // not drop the index — catalogs keep the dead points, the report
    // filters them).
    #[test]
    fn prop_cascade_with_deletes(
        n in 2usize..300,
        seed in 0u64..50,
        del_stride in 2usize..6,
    ) {
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let mut tree = RangeTree2D::build(&pts, alpha);
            for id in (0..n as u64).step_by(del_stride) {
                tree.delete(id);
            }
            let rect = Rect { x_min: 0.1, x_max: 0.9, y_min: 0.2, y_max: 0.8 };
            let a = tree.query(&rect);
            let c = tree.query_uncascaded(&rect);
            prop_assert_eq!(&a, &c, "α={}", alpha);
            prop_assert!(a.iter().all(|id| id % del_stride as u64 != 0));
        }
    }

    // A structural insert (leaf split + overflow splice) drops the cascade:
    // every query path falls back to the searched descent, so `query` and
    // `query_uncascaded` become answer- AND charge-identical until the next
    // build-finalize, and overflow runs are searched correctly.
    #[test]
    fn prop_insert_falls_back_to_searched(
        n in 2usize..300,
        seed in 0u64..50,
        extra in 1usize..20,
    ) {
        let pts = rt_points(n, seed);
        for alpha in ALPHAS {
            let mut tree = RangeTree2D::build(&pts, alpha);
            let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for i in 0..extra {
                tree.insert(RtPoint {
                    point: Point2::new([next(), next()]),
                    id: 10_000 + i as u64,
                });
            }
            let rect = Rect { x_min: 0.0, x_max: 1.0, y_min: 0.0, y_max: 1.0 };
            let (a, cr, cw) = charged(|| tree.query(&rect));
            let (b, ur, uw) = charged(|| tree.query_uncascaded(&rect));
            let (c, fr, fw) = charged(|| tree.query_flat_uncascaded(&rect));
            prop_assert_eq!(&a, &b, "α={}", alpha);
            prop_assert_eq!(&a, &c, "α={}", alpha);
            prop_assert_eq!((cr, cw), (ur, uw),
                "post-insert query must charge exactly like the searched path α={}", alpha);
            prop_assert_eq!((cr, cw), (fr, fw), "post-insert flat parity α={}", alpha);
            prop_assert_eq!(a.len() as u64, tree.len() as u64, "full-box query reports all live points α={}", alpha);
        }
    }
}

#[test]
#[ignore]
fn probe_read_landscape() {
    for &n in &[4000usize, 20000, 100000] {
        for &alpha in &ALPHAS {
            let pts = rt_points(n, 0xca5c + alpha as u64);
            let tree = RangeTree2D::build(&pts, alpha);
            let mut state = 41u64 | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let (mut casc, mut unc) = (0u64, 0u64);
            for _ in 0..64 {
                let w = 0.05 + 0.20 * next();
                let h = 0.0001 + 0.0009 * next();
                let x = next() * (1.0 - w);
                let y = next() * (1.0 - h);
                let rect = Rect {
                    x_min: x,
                    x_max: x + w,
                    y_min: y,
                    y_max: y + h,
                };
                let (_, cr, _) = charged(|| tree.query(&rect));
                let (_, ur, _) = charged(|| tree.query_uncascaded(&rect));
                casc += cr;
                unc += ur;
            }
            println!(
                "n={n} alpha={alpha}: cascaded={casc} uncascaded={unc} ratio={:.3}",
                casc as f64 / unc as f64
            );
        }
    }
}
