//! Experiment harness shared by the `table1`, `theorems` and `speedup`
//! binaries and the criterion benches: the experiments below, the seeded
//! [`inputs`], the (baseline, write-efficient) [`PAIRS`], and the binaries'
//! shared driver in [`harness`].
//!
//! Every function runs one of the paper's experiments — the theorem
//! baselines vs write-efficient pairs of §4 (sort), §5 (Delaunay) and §6
//! (k-d trees), the §7 tree constructions with their α sweeps, and the
//! small-memory ledger report of [`smallmem_experiment`] — measures
//! reads/writes/depth with [`pwe_asym`], and returns printable rows.  The
//! absolute numbers are implementation constants; what the experiments are
//! expected to reproduce is the *shape* of the paper's claims — which
//! variant writes less, by roughly what factor, and how the trade-off moves
//! with α and ω.  The machine-readable counterpart is the `speedup` binary,
//! whose JSON schema is specified in the repo-root `MODEL.md`.

pub mod harness;

use pwe_asym::cost::{measure, CostReport, Omega};
use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::PrioritySearchTree;
use pwe_augtree::range_tree::RangeTree2D;
use pwe_delaunay::{triangulate_baseline, triangulate_write_efficient};
use pwe_geom::generators::{
    random_intervals, random_query_rects, random_three_sided_queries, stabbing_queries,
};
use pwe_geom::interval::Interval;
use pwe_kdtree::build::{build_classic, build_p_batched, recommended_p};
use pwe_sort::{incremental_sort, merge_sort_baseline, merge_sort_baseline_with_scratch};
use pwe_trace::trace_collect_scratch;

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment / variant label.
    pub label: String,
    /// Problem size.
    pub n: usize,
    /// Measured cost.
    pub report: CostReport,
}

impl Row {
    /// A row of `report` measured at size `n`.
    pub fn new(label: impl Into<String>, n: usize, report: CostReport) -> Row {
        Row {
            label: label.into(),
            n,
            report,
        }
    }

    /// Render the row for the plain-text tables the harness prints.
    pub fn render(&self) -> String {
        format!(
            "{:<38} n={:<8} reads={:<12} writes={:<12} writes/n={:<8.2} work(ω={})={:<14} depth={}",
            self.label,
            self.n,
            self.report.reads,
            self.report.writes,
            self.report.writes_per_element(self.n),
            self.report.omega.get(),
            self.report.work(),
            self.report.depth
        )
    }
}

/// Print a titled table of rows.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    for row in rows {
        println!("{}", row.render());
    }
}

/// Seeded inputs, one definition per family, shared by the experiments,
/// the sweep pairs, `speedup` and the criterion benches.
pub mod inputs {
    use pwe_augtree::priority::PsPoint;
    use pwe_augtree::range_tree::RtPoint;
    use pwe_geom::generators::{random_intervals, uniform_grid_points, uniform_points_2d};
    use pwe_geom::interval::Interval;
    use pwe_geom::point::{GridPoint, Point2};
    use pwe_geom::predicates::is_ccw;
    use pwe_geom::Rect;
    use rand::{Rng, SeedableRng};

    /// `n` uniformly random sort keys.
    pub fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// `n` distinct Delaunay sites on the 2^20 grid.
    pub fn sites(n: usize) -> Vec<GridPoint> {
        uniform_grid_points(n, 1 << 20, 3)
    }

    /// `n` intervals of length ≤ 200 over [0, 10^6].
    pub fn intervals(n: usize) -> Vec<Interval> {
        random_intervals(n, 1e6, 200.0, 17)
    }

    /// `n` uniform points of the unit square, the k-d tree input.
    pub fn kd_points(n: usize) -> Vec<Point2> {
        uniform_points_2d(n, 11)
    }

    /// `n` uniform points of the unit square tagged with ids `first_id..`.
    fn tagged<T>(n: usize, seed: u64, first_id: usize, tag: fn(Point2, u64) -> T) -> Vec<T> {
        let points = uniform_points_2d(n, seed).into_iter();
        points
            .zip(first_id as u64..)
            .map(|(p, id)| tag(p, id))
            .collect()
    }

    /// `n` priority-search-tree points with ids `0..n`.
    pub fn ps_points(n: usize) -> Vec<PsPoint> {
        tagged(n, 23, 0, |point, id| PsPoint { point, id })
    }

    /// The `n / 10` points inserted into a priority search tree of `n`.
    pub fn ps_inserts(n: usize) -> Vec<PsPoint> {
        tagged(n / 10, 25, n, |point, id| PsPoint { point, id })
    }

    /// `n` range-tree points with ids `0..n`.
    pub fn rt_points(n: usize) -> Vec<RtPoint> {
        tagged(n, 31, 0, |point, id| RtPoint { point, id })
    }

    /// The `n / 10` points inserted into a range tree of `n`.
    pub fn rt_inserts(n: usize) -> Vec<RtPoint> {
        tagged(n / 10, 33, n, |point, id| RtPoint { point, id })
    }

    /// `count` wide-x, thin-y query rectangles of the unit square: many
    /// fully-contained critical nodes, so a range-tree query stream spends
    /// its time in the outer descent and the inner run searches while the
    /// answer sets stay small.
    pub fn thin_rects(count: usize) -> Vec<Rect> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        (0..count)
            .map(|_| {
                let w = rng.gen_range(0.05..0.25);
                let h = rng.gen_range(0.0001..0.001);
                let x = rng.gen_range(0.0..(1.0 - w));
                let y = rng.gen_range(0.0..(1.0 - h));
                Rect::new(x, x + w, y, y + h)
            })
            .collect()
    }

    /// The fixed CCW triangles of the in-circle predicate streams.
    pub fn ccw_triangles() -> Vec<[GridPoint; 3]> {
        let points = uniform_grid_points(144, 1 << 20, 7);
        let ccw = |[a, b, c]: [GridPoint; 3]| is_ccw(a, b, c).then_some([a, b, c]);
        let triangle =
            |t: &[GridPoint]| ccw([t[0], t[1], t[2]]).or_else(|| ccw([t[0], t[2], t[1]]));
        points.chunks_exact(3).filter_map(triangle).collect()
    }

    /// `count` in-circle query points on the triangles' grid.
    pub fn grid_queries(count: usize) -> Vec<GridPoint> {
        uniform_grid_points(count, 1 << 20, 73)
    }
}

/// The (baseline, write-efficient) pairs: `speedup --sweep` sweeps all of
/// them, `theorems` reports `sort` and `delaunay`.  The augmented-tree
/// pairs compare the classic per-level-copy constructions against the
/// parallel allocation-lean engine of `pwe_augtree::engine` (the range
/// tree's baseline is the textbook α = 2 build, where every node carries an
/// inner structure; the engine builds at α = 8).
pub const PAIRS: &[&str] = &["delaunay", "sort", "interval", "priority", "range"];

/// Measure one of [`PAIRS`] on its input of size `n`: the baseline, then
/// the write-efficient variant.
pub fn measure_pair(pair: &str, n: usize, omega: Omega) -> (CostReport, CostReport) {
    fn both<I, A, B>(
        omega: Omega,
        input: I,
        base: impl FnOnce(&I) -> A,
        we: impl FnOnce(&I) -> B,
    ) -> (CostReport, CostReport) {
        (
            measure(omega, || base(&input)).1,
            measure(omega, || we(&input)).1,
        )
    }
    match pair {
        "delaunay" => both(
            omega,
            inputs::sites(n),
            |p| triangulate_baseline(p, 5),
            |p| triangulate_write_efficient(p, 5),
        ),
        "sort" => both(
            omega,
            inputs::keys(n, 42),
            |k| merge_sort_baseline(k),
            |k| incremental_sort(k, 7),
        ),
        "interval" => both(
            omega,
            inputs::intervals(n),
            |i| IntervalTree::build_classic(i, 2),
            |i| IntervalTree::build_parallel(i, 2),
        ),
        "priority" => both(
            omega,
            inputs::ps_points(n),
            |p| PrioritySearchTree::build_classic(p),
            |p| PrioritySearchTree::build_parallel(p),
        ),
        "range" => both(
            omega,
            inputs::rt_points(n),
            |p| RangeTree2D::build_classic(p, 2),
            |p| RangeTree2D::build(p, 8),
        ),
        other => panic!("unknown pair {other:?}; expected one of {PAIRS:?}"),
    }
}

/// Experiment E-sort (Theorem 4.1): incremental sort vs merge-sort baseline.
pub fn sort_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let (merge, incr) = measure_pair("sort", n, omega);
    vec![
        Row::new("sort/merge-sort (baseline)", n, merge),
        Row::new("sort/incremental (write-efficient)", n, incr),
    ]
}

/// Experiment E-dt (Theorem 5.1): baseline vs write-efficient Delaunay.
pub fn delaunay_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let (base, we) = measure_pair("delaunay", n, omega);
    vec![
        Row::new("delaunay/ParIncrementalDT (baseline)", n, base),
        Row::new("delaunay/write-efficient", n, we),
    ]
}

/// Experiment E-kd (Theorem 6.1): classic vs p-batched k-d construction, with
/// a p-ablation, plus the resulting tree heights.
pub fn kdtree_experiment(n: usize, omega: Omega) -> (Vec<Row>, Vec<String>) {
    let points = inputs::kd_points(n);
    let (classic, classic_report) = measure(omega, || build_classic(&points, 16));
    let mut rows = vec![Row::new("kdtree/classic (baseline)", n, classic_report)];
    let mut notes = vec![format!("classic height = {}", classic.height())];

    let log_n = (n.max(2) as f64).log2().ceil() as usize;
    for (name, p) in [
        ("p=1 (pure incremental)", 1usize),
        ("p=log n", log_n),
        ("p=log^2 n", log_n * log_n),
        ("p=log^3 n (paper)", recommended_p(n)),
    ] {
        let ((tree, _), report) = measure(omega, || build_p_batched(&points, p, 16, 13));
        rows.push(Row::new(format!("kdtree/p-batched {name}"), n, report));
        notes.push(format!("p-batched {name}: height = {}", tree.height()));
    }
    (rows, notes)
}

/// Experiments T1-interval / E-aug-construct / E-aug-update for the interval
/// tree: construction (classic vs post-sorted), query and update costs as a
/// function of α.
pub fn interval_experiment(n: usize, alphas: &[usize], omega: Omega) -> Vec<Row> {
    let intervals = inputs::intervals(n);
    let queries = stabbing_queries(1000, 1e6, 18);
    let updates = random_intervals(n / 10, 1e6, 200.0, 19);
    let (_, classic) = measure(omega, || IntervalTree::build_classic(&intervals, 2));
    let (_, presorted) = measure(omega, || IntervalTree::build_presorted(&intervals, 2));
    let mut rows = vec![
        Row::new("interval/classic construction", n, classic),
        Row::new("interval/post-sorted construction", n, presorted),
    ];

    for &alpha in alphas {
        let mut tree = IntervalTree::build_presorted(&intervals, alpha);
        let (_, query_cost) = measure(omega, || {
            queries.iter().map(|&q| tree.stab(q).len()).sum::<usize>()
        });
        let label = format!("interval/α={alpha} {} stabbing queries", queries.len());
        rows.push(Row::new(label, n, query_cost));
        let (_, update_cost) = measure(omega, || {
            for (i, s) in updates.iter().enumerate() {
                tree.insert(&Interval::new(s.left, s.right, 1_000_000 + i as u64));
            }
        });
        let label = format!("interval/α={alpha} {} insertions", updates.len());
        rows.push(Row::new(label, n, update_cost));
    }
    rows
}

/// Experiments T1-priority: construction and query costs of the priority
/// search tree.
pub fn priority_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let points = inputs::ps_points(n);
    let queries = random_three_sided_queries(1000, 0.2, 24);
    let (_, classic) = measure(omega, || PrioritySearchTree::build_classic(&points));
    let (mut tree, presorted) = measure(omega, || PrioritySearchTree::build_presorted(&points));
    let (_, query_cost) = measure(omega, || {
        let answers = queries
            .iter()
            .map(|&(lo, hi, y)| tree.query_3sided(lo, hi, y).len());
        answers.sum::<usize>()
    });
    let extra = inputs::ps_inserts(n);
    let (_, update_cost) = measure(omega, || {
        extra.iter().for_each(|p| {
            tree.insert(*p);
        })
    });
    let queries_label = format!("priority/{} 3-sided queries", queries.len());
    let inserts_label = format!("priority/{} insertions", extra.len());
    vec![
        Row::new("priority/classic construction", n, classic),
        Row::new("priority/post-sorted construction", n, presorted),
        Row::new(queries_label, n, query_cost),
        Row::new(inserts_label, n, update_cost),
    ]
}

/// Experiments T1-range: range-tree construction, query and update costs as a
/// function of α.
pub fn range_tree_experiment(n: usize, alphas: &[usize], omega: Omega) -> Vec<Row> {
    let points = inputs::rt_points(n);
    let rects = random_query_rects(500, 0.1, 32);
    let extra = inputs::rt_inserts(n);
    let mut rows = Vec::new();

    for &alpha in alphas {
        let (mut tree, construct) = measure(omega, || RangeTree2D::build(&points, alpha));
        let aug = tree.augmentation_size();
        let label = format!("range-tree/α={alpha} construction (aug size {aug})");
        rows.push(Row::new(label, n, construct));
        let (_, query_cost) = measure(omega, || {
            rects.iter().map(|r| tree.query(r).len()).sum::<usize>()
        });
        let label = format!("range-tree/α={alpha} {} range queries", rects.len());
        rows.push(Row::new(label, n, query_cost));
        let (_, update_cost) = measure(omega, || {
            extra.iter().for_each(|p| {
                tree.insert(*p);
            })
        });
        let label = format!("range-tree/α={alpha} {} insertions", extra.len());
        rows.push(Row::new(label, n, update_cost));
    }
    rows
}

/// One row of the small-memory report: an algorithm's declared per-task
/// budget against the high-water mark its ledger actually observed.
#[derive(Debug, Clone)]
pub struct SmallMemRow {
    /// Algorithm / phase label.
    pub label: String,
    /// Problem size.
    pub n: usize,
    /// The stated bound ("c·log2 n", "Ω(p)", "O(D)").
    pub bound: &'static str,
    /// Ledger snapshot (budget + high water).
    pub scratch: ScratchReport,
}

impl SmallMemRow {
    /// Render the row for the plain-text table.
    pub fn render(&self) -> String {
        format!(
            "{:<26} n={:<9} bound={:<10} budget={:>6} words   high_water={:>6} words   {}",
            self.label,
            self.n,
            self.bound,
            self.scratch.budget,
            self.scratch.high_water,
            if self.scratch.within_budget() {
                "ok"
            } else {
                "OVER BUDGET"
            }
        )
    }
}

/// Print a small-memory table.
pub fn print_smallmem_table(title: &str, rows: &[SmallMemRow]) {
    println!("== {title} ==");
    for row in rows {
        println!("  {}", row.render());
    }
}

/// Exercise every algorithm crate's small-memory ledger at size `n` and
/// report each declared budget against the observed per-task high-water
/// mark — the machine-checked form of the paper's small-memory assumptions
/// (Theorems 3.1, 4.1, 5.1, 6.1, 7.1).
pub fn smallmem_experiment(n: usize) -> Vec<SmallMemRow> {
    // Sorting (Theorem 4.1): O(log n) words per task.
    let keys = inputs::keys(n, 71);
    let (_, merge) = merge_sort_baseline_with_scratch(&keys);
    let (_, sort) = pwe_sort::incremental_sort_with_stats(&keys, 7);

    // Delaunay engine (Theorem 5.1): O(log n) words per cavity task.
    let dn = n.min(20_000);
    let (mesh, dt) = pwe_delaunay::triangulate_write_efficient_with_stats(&inputs::sites(dn), 5);

    // k-d tree (Theorem 6.1): classic O(log n); p-batched Ω(p).
    let pts2 = inputs::kd_points(n);
    let (_, kd_classic) = pwe_kdtree::build::build_classic_with_stats(&pts2, 16);
    let (_, kd_batched) = build_p_batched(&pts2, recommended_p(n), 16, 13);

    // Augmented-tree query paths (Theorem 7.1): O(log n) words per query.
    let intervals = inputs::intervals(n);
    let tree = IntervalTree::build_presorted(&intervals, 2);
    let stab = SmallMem::logarithmic(n, pwe_augtree::QUERY_SCRATCH_C);
    for &q in &stabbing_queries(64, 1e6, 19) {
        let mut scratch = TaskScratch::new(&stab);
        tree.stab_scratch(q, &mut scratch);
    }

    // Augmented-tree parallel builds (shared engine): forked-recursion
    // frames at O(log n), plus O(α) k-way-merge cursors on the range tree.
    let (_, iv) = IntervalTree::build_parallel_with_stats(&intervals, 2);
    let (_, ps) = PrioritySearchTree::build_parallel_with_stats(&inputs::ps_points(n));
    let (_, rt) = RangeTree2D::build_with_stats(&inputs::rt_points(n), 8);

    // DAG tracing (Theorem 3.1): O(D(G)) words — the Delaunay history DAG
    // built above bounds the trace stack by its longest path.
    let depth_bound = 4 * (pwe_asym::depth::log2_ceil(dn.max(2)) + 1);
    let trace = SmallMem::with_budget(4 * depth_bound);
    let elements: Vec<u32> = (3..(dn as u32 + 3).min(259)).collect();
    trace_collect_scratch(&mesh, &elements, Some(&trace));

    let log = "c*log2 n";
    [
        ("mergesort baseline", n, log, merge),
        ("incremental sort", n, log, sort.scratch),
        ("delaunay engine (WE)", dn, log, dt.insert.scratch),
        ("kd classic build", n, log, kd_classic.scratch),
        ("kd p-batched build", n, "Omega(p)", kd_batched.scratch),
        ("interval stab queries", n, log, stab.report()),
        ("interval engine build", n, log, iv.scratch),
        ("priority engine build", n, log, ps.scratch),
        ("range engine build", n, "c*log2 n + c*alpha", rt.scratch),
        ("DAG tracing (history)", dn, "O(D(G))", trace.report()),
    ]
    .into_iter()
    .map(|(label, n, bound, scratch)| SmallMemRow {
        label: label.into(),
        n,
        bound,
        scratch,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_experiment_shows_write_gap() {
        let rows = sort_experiment(20_000, Omega::new(10));
        assert_eq!(rows.len(), 2);
        let merge = &rows[0].report;
        let incr = &rows[1].report;
        assert!(incr.writes < merge.writes);
        assert!(incr.work() < merge.work());
    }

    #[test]
    fn delaunay_experiment_shows_write_gap() {
        let rows = delaunay_experiment(2_000, Omega::new(10));
        assert!(rows[1].report.writes < rows[0].report.writes);
    }

    #[test]
    fn kdtree_experiment_reports_all_p_values() {
        let (rows, notes) = kdtree_experiment(5_000, Omega::new(10));
        assert_eq!(rows.len(), 5);
        assert_eq!(notes.len(), 5);
        // The paper's p = Θ(log³ n) setting writes less than the classic build.
        assert!(rows.last().unwrap().report.writes < rows[0].report.writes);
    }

    #[test]
    fn smallmem_experiment_within_every_budget() {
        for row in smallmem_experiment(3_000) {
            assert!(row.scratch.high_water > 0, "{} ledger is dead", row.label);
            assert!(
                row.scratch.within_budget(),
                "{} used {} of {} scratch words",
                row.label,
                row.scratch.high_water,
                row.scratch.budget,
            );
        }
    }

    #[test]
    fn interval_experiment_alpha_sweep_runs() {
        let rows = interval_experiment(3_000, &[2, 8], Omega::new(10));
        // classic + post-sorted + 2 rows per α.
        assert_eq!(rows.len(), 2 + 2 * 2);
        assert!(rows[1].report.writes < rows[0].report.writes);
    }
}
