//! Machine-readable JSON reports, one line per configuration on stdout:
//! self-relative speedup, baseline-vs-write-efficient sweeps, query A/Bs
//! and the service load driver.  MODEL.md §3 specifies every mode's rows.
//!
//! Every mode runs on the shared driver of [`pwe_bench::harness`]:
//!
//! * **One parser.**  A malformed number, an unknown flag, or a
//!   `--workload` outside the mode's set exits with status 2 and a message
//!   before anything runs.
//! * **One child fan-out.**  The pool reads `RAYON_NUM_THREADS` once, when
//!   it starts, so one process cannot measure two thread counts.  The
//!   parent re-executes itself as `--child <cell>` once per
//!   `(cell, threads)` job with the variable set, re-emits each child's
//!   lines, and writes a human-readable summary to stderr.
//! * **One row emitter.**  `threads_available` (detected parallelism) and
//!   `rayon_threads` (actual pool width) follow every row's identifying
//!   keys, so rows from a 1-CPU container are distinguishable from
//!   multicore CI rows.
//! * **One A/B stream timer** behind every `--queries` row.
//!
//! Modes:
//!
//! * **speedup** (default) — one line per `(workload, n, threads)` with a
//!   `"speedup_vs_1t"` field against the 1-thread run.  Workloads: the
//!   theorem experiments (`sort`, `mergesort`, `delaunay`, `kdtree`), the
//!   parallel primitives behind them (`semisort`, `scan`) and the Table-1
//!   tree constructions (`interval`, `priority`, `range`).
//! * **`--sweep`** — the write-vs-read crossover: one line per
//!   `(workload, n, omega, threads)` for each of [`pwe_bench::PAIRS`].  The
//!   counters do not depend on ω, so each child measures once and derives
//!   every ω row (`BENCH_delaunay.json`, `BENCH_augtree.json`).
//! * **`--queries`** — one `query_compare` line per query workload, timing
//!   the same stream through two implementations of one structure or
//!   predicate; answers and (but for `range2d_cascade`) counters must
//!   match, so a committed `BENCH_queries.json` row is self-validating.
//!   `--qbatch` (default 256) is the SoA batch width of the predicate
//!   workloads.
//! * **`--serve`** — one line per `(loop, threads)`: a writer arm publishes
//!   churn generations of a preloaded, sharded
//!   [`pwe_service::GeometryService`] while a reader arm serves query
//!   batches, `closed`-loop or `open`-loop at ~80% utilisation
//!   (`BENCH_service.json`).  With `--faults` (build with
//!   `--features faultinject`) a deterministic fault plan
//!   ([`pwe_primitives::faultpoint`], seed `--fault-seed`) arms after the
//!   preload, the reader adds admission control and bounded retries, and
//!   rows gain the fault fields; rows without it keep the plain schema.
//! * **`--smoke`** / **`--serve-smoke`** — small in-process runs that
//!   validate the emitters and assert the ω-crossover claim, the query A/B
//!   equalities and the serve schema; they exit non-zero on a violation.
//!   CI runs both so the emitters cannot silently rot.
//!
//! Usage:
//!   cargo run --release -p pwe-bench --bin speedup                 # all workloads
//!   cargo run --release -p pwe-bench --bin speedup -- --workload sort --n 500000
//!   cargo run --release -p pwe-bench --bin speedup -- --threads 1,2,8
//!   cargo run --release -p pwe-bench --bin speedup -- --sweep --ns 10000,50000
//!   cargo run --release -p pwe-bench --bin speedup -- --sweep --workload sort --omegas 1,10,40
//!   cargo run --release -p pwe-bench --bin speedup -- --queries --workload range2d --n 200000
//!   cargo run --release -p pwe-bench --bin speedup -- --serve --threads 4 --shards 8
//!   cargo run --release -p pwe-bench --features faultinject --bin speedup -- --serve --faults
//!   cargo run --release -p pwe-bench --bin speedup -- --smoke
//!   cargo run --release -p pwe-bench --bin speedup -- --serve-smoke

use pwe_asym::cost::{measure, Omega};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::PrioritySearchTree;
use pwe_augtree::range_tree::RangeTree2D;
use pwe_bench::harness::{
    ab_stream, available_threads, fan_out, fold_ids, json_f64, json_row, usage_error, AbTiming,
    Args, Kind,
};
use pwe_bench::{inputs, measure_pair, PAIRS};
use pwe_delaunay::triangulate_write_efficient;
use pwe_geom::generators::{random_intervals, stabbing_queries, uniform_grid_points};
use pwe_geom::{in_circle, in_circle_batch, in_circle_batch_scalar, GridPoint, Rect};
use pwe_kdtree::build::{build_p_batched, recommended_p};
use pwe_primitives::scan::par_exclusive_scan;
use pwe_primitives::semisort::semisort_by_key;
use pwe_sort::{incremental_sort, merge_sort_baseline};
use rand::Rng;
use rand::SeedableRng;

const WORKLOADS: &[&str] = &[
    "sort",
    "mergesort",
    "semisort",
    "scan",
    "delaunay",
    "kdtree",
    "interval",
    "priority",
    "range",
];

/// Query workloads (see [`query_compare`] for each one's two sides).
const QUERY_WORKLOADS: &[&str] = &[
    "interval_stab",
    "range2d",
    "range2d_cascade",
    "delaunay_locate",
    "incircle_simd",
];

/// The serve driver's loop modes, one child each.
const LOOPS: &[&str] = &["closed", "open"];

/// Mode switches in precedence order; none selects the speedup mode.
const MODES: [&str; 5] = [
    "--serve-smoke",
    "--serve",
    "--smoke",
    "--sweep",
    "--queries",
];

/// Default query-stream batch size for `--queries`.
const DEFAULT_QBATCH: usize = 256;

fn main() {
    let mode = MODES
        .into_iter()
        .find(|m| std::env::args().any(|a| a == *m))
        .unwrap_or("");
    // The mode fixes the names `--workload` takes and the cells a child
    // (`--child <cell>`, one per fan-out job) runs.
    let (workloads, cells): (&[&str], &[&str]) = match mode {
        "" => (WORKLOADS, WORKLOADS),
        "--sweep" => (PAIRS, PAIRS),
        "--queries" => (QUERY_WORKLOADS, QUERY_WORKLOADS),
        "--serve" => (&[], LOOPS),
        _ => (&[], &[]),
    };
    let args = Args::from_env(&[
        ("--workload", Kind::Choice(workloads)),
        ("--child", Kind::Choice(cells)),
        ("--n", Kind::Num),
        ("--ns", Kind::List),
        ("--omegas", Kind::List),
        ("--threads", Kind::List),
        ("--qbatch", Kind::Pos),
        ("--shards", Kind::Pos),
        ("--batches", Kind::Pos),
        ("--faults", Kind::Switch),
        ("--fault-seed", Kind::Num),
        ("--sweep", Kind::Switch),
        ("--queries", Kind::Switch),
        ("--serve", Kind::Switch),
        ("--smoke", Kind::Switch),
        ("--serve-smoke", Kind::Switch),
    ]);
    if args.has("--faults") && !cfg!(feature = "faultinject") {
        usage_error(
            "--faults requires the faultinject feature: \
             cargo run --release -p pwe-bench --features faultinject --bin speedup -- --serve --faults",
        );
    }
    let Some(cell) = args.name("--child") else {
        return match mode {
            "--serve-smoke" => serve_smoke(),
            "--smoke" => smoke(),
            _ => parent(mode, &args),
        };
    };
    let n = args.num("--n");
    let qbatch = args.num("--qbatch").unwrap_or(DEFAULT_QBATCH);
    let rows = match mode {
        "" => vec![speedup_row(cell, n)],
        "--sweep" => {
            let omegas = args.list("--omegas").unwrap_or(&[1, 5, 10, 20, 40]);
            sweep_rows(cell, n.expect("a sweep child runs one n"), omegas)
        }
        "--queries" => vec![query_row(cell, n, qbatch)],
        _ => vec![serve_row(
            cell,
            n.unwrap_or(DEFAULT_SERVE_N),
            args.num("--shards").unwrap_or(DEFAULT_SERVE_SHARDS),
            qbatch,
            args.num("--batches").unwrap_or(DEFAULT_SERVE_BATCHES),
            args.has("--faults").then(|| {
                args.num("--fault-seed")
                    .map_or(SERVE_FAULT_SEED, |s| s as u64)
            }),
        )],
    };
    for row in rows {
        println!("{row}");
    }
}

/// Every fanned-out mode: one child per `(cell, threads)` job, its rows
/// re-emitted on stdout and summarised on stderr.
fn parent(mode: &str, args: &Args) {
    let max = available_threads();
    let workloads =
        |all: &[&'static str]| args.name("--workload").map_or(all.to_vec(), |w| vec![w]);
    let (cells, default_threads) = match mode {
        "--serve" => (LOOPS.to_vec(), vec![max, 4]),
        "--sweep" => (workloads(PAIRS), vec![1, max]),
        "--queries" => (workloads(QUERY_WORKLOADS), vec![max]),
        _ => (workloads(WORKLOADS), vec![1, 2, max]),
    };
    // A sweep job runs one of the swept sizes; every other child re-parses
    // `--n` (or its default) like the rest of its flags.
    let ns: Vec<Option<usize>> = match (mode, args.list("--ns"), args.num("--n")) {
        ("--sweep", Some(ns), _) => ns.iter().copied().map(Some).collect(),
        ("--sweep", None, None) => vec![Some(5_000), Some(10_000), Some(20_000), Some(50_000)],
        (_, _, n) => vec![n],
    };
    let mut threads = args.list("--threads").unwrap_or(&default_threads).to_vec();
    threads.sort_unstable();
    threads.dedup();
    let mut jobs = Vec::new();
    for cell in cells {
        for &n in &ns {
            for &t in &threads {
                // The child sees the parent's flags (its mode switch
                // included) but runs one cell, at one n if the job fixes it.
                let mut argv = args.without(&["--workload", "--threads", "--ns", "--n"]);
                argv.extend(["--child".to_string(), cell.to_string()]);
                if let Some(n) = n {
                    argv.extend(["--n".to_string(), n.to_string()]);
                }
                jobs.push((argv, t));
            }
        }
    }
    if mode == "--serve" {
        // Serve rows group by pool width: both loops at one width, then the next.
        jobs.sort_by_key(|&(_, t)| t);
    }

    // Threads are sorted, so a requested 1-thread run comes first in every
    // cell and every later line of the cell carries `speedup_vs_1t`.
    let mut base_millis = None;
    fan_out(jobs, |child, t, mut lines| {
        let cell = &child[child.iter().position(|a| a == "--child").expect("cell") + 1];
        let first = lines
            .first()
            .expect("a child prints at least one row")
            .clone();
        let f = |key| json_f64(&first, key).unwrap_or(0.0);
        let summary = match mode {
            "--sweep" => format!(
                "{cell:<10} n={:<8} threads={t:<3} we {:>10.2} ms   write gap {:>6.2}x",
                f("n"),
                f("we_millis"),
                f("write_gap")
            ),
            "--queries" => format!(
                "{cell:<15} threads={t:<3} flat {:>9.2} ms   blocked {:>9.2} ms   gain {:>5.2}x",
                f("flat_millis"),
                f("blocked_millis"),
                f("gain")
            ),
            "--serve" => format!(
                "serve {cell:<6} threads={t:<3} {:>10.0} q/s   \
                 p50 {:>8.1} µs   p99 {:>8.1} µs   overlap {}",
                f("throughput_qps"),
                f("p50_us"),
                f("p99_us"),
                f("overlap_batches")
            ),
            _ => {
                let millis = f("millis");
                if t == 1 {
                    base_millis = Some(millis);
                }
                match base_millis.map(|base| base / millis.max(1e-9)) {
                    Some(s) => {
                        lines[0] =
                            format!("{},\"speedup_vs_1t\":{s:.3}}}", first.trim_end_matches('}'));
                        format!("{cell:<10} threads={t:<3} {millis:>10.2} ms   speedup {s:>5.2}x")
                    }
                    None => format!("{cell:<10} threads={t:<3} {millis:>10.2} ms"),
                }
            }
        };
        for line in &lines {
            println!("{line}");
        }
        eprintln!("{summary}");
        if mode == "--serve" && args.has("--faults") {
            eprintln!(
                "      faults: injected {}   degraded {}   retries {}   rejected {}",
                f("faults_injected"),
                f("batches_degraded"),
                f("retries"),
                f("batches_rejected")
            );
        }
    });
}

/// One measured speedup-mode run in a child whose pool size is fixed.
fn speedup_row(workload: &str, n: Option<usize>) -> String {
    let omega = Omega::new(1);
    let n = n.unwrap_or(match workload {
        "sort" | "kdtree" => 200_000,
        "mergesort" => 400_000,
        "semisort" => 1_000_000,
        "scan" => 4_000_000,
        "delaunay" => 20_000,
        "range" => 50_000,
        _ => 100_000,
    });
    let report = match workload {
        "sort" => {
            let keys = inputs::keys(n, 42);
            measure(omega, || incremental_sort(&keys, 7)).1
        }
        "mergesort" => {
            let keys = inputs::keys(n, 43);
            measure(omega, || merge_sort_baseline(&keys)).1
        }
        "semisort" => {
            let keys = inputs::keys(n, 44);
            measure(omega, || semisort_by_key(&keys, |k| k % 1009)).1
        }
        "scan" => {
            let input: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 101).collect();
            measure(omega, || par_exclusive_scan(&input)).1
        }
        "delaunay" => {
            let points = inputs::sites(n);
            measure(omega, || triangulate_write_efficient(&points, 5)).1
        }
        "kdtree" => {
            let points = inputs::kd_points(n);
            measure(omega, || build_p_batched(&points, recommended_p(n), 16, 13)).1
        }
        "interval" => {
            let intervals = inputs::intervals(n);
            measure(omega, || IntervalTree::build_parallel(&intervals, 2)).1
        }
        "priority" => {
            let points = inputs::ps_points(n);
            measure(omega, || PrioritySearchTree::build_parallel(&points)).1
        }
        _ => {
            let points = inputs::rt_points(n);
            measure(omega, || RangeTree2D::build(&points, 8)).1
        }
    };
    json_row(
        &format!(
            "\"workload\":\"{workload}\",\"n\":{n},\"threads\":{}",
            rayon::current_num_threads()
        ),
        &format!(
            "\"millis\":{:.3},\"reads\":{},\"writes\":{},\"depth\":{}",
            report.elapsed.as_secs_f64() * 1e3,
            report.reads,
            report.writes,
            report.depth
        ),
    )
}

/// One sweep line per ω for a fixed `(workload, n, threads)`.
fn sweep_rows(workload: &str, n: usize, omegas: &[usize]) -> Vec<String> {
    let threads = rayon::current_num_threads();
    let (base, we) = measure_pair(workload, n, Omega::symmetric());
    omegas
        .iter()
        .map(|&omega| {
            let w = omega as u64;
            let base_work = base.reads + w * base.writes;
            let we_work = we.reads + w * we.writes;
            json_row(
                &format!(
                    "\"mode\":\"sweep\",\"workload\":\"{workload}\",\"n\":{n},\
                     \"omega\":{omega},\"threads\":{threads}"
                ),
                &format!(
                    "\"base_reads\":{},\"base_writes\":{},\"base_work\":{base_work},\
                     \"base_millis\":{:.3},\
                     \"we_reads\":{},\"we_writes\":{},\"we_work\":{we_work},\
                     \"we_millis\":{:.3},\
                     \"write_gap\":{:.4},\"we_wins\":{}",
                    base.reads,
                    base.writes,
                    base.elapsed.as_secs_f64() * 1e3,
                    we.reads,
                    we.writes,
                    we.elapsed.as_secs_f64() * 1e3,
                    base.writes as f64 / we.writes.max(1) as f64,
                    we_work < base_work,
                ),
            )
        })
        .collect()
}

/// An in-circle batch kernel: the scalar loop or the dispatched one.
type Kernel = fn(GridPoint, GridPoint, GridPoint, &[i64], &[i64], &mut [bool]);

/// A range-tree query walk.
type Walk = fn(&RangeTree2D, &Rect) -> Vec<u64>;

/// Build one query workload's structure and stream, and time the stream
/// through both sides.  Returns `(n, queries, timing)`; query counts scale
/// with n so `--smoke` stays cheap.  Answers must match on every row, and
/// counters on every row but `range2d_cascade`: cascading is a model-level
/// read optimisation, so that row must keep writes and depth equal and cut
/// reads (MODEL.md §3.3).
fn query_compare(workload: &str, n: Option<usize>, qbatch: usize) -> (usize, usize, AbTiming) {
    let n = n.unwrap_or(200_000);
    let (queries, timing) = match workload {
        "interval_stab" => {
            let tree = IntervalTree::build_parallel(&inputs::intervals(n), 2);
            let qs = stabbing_queries((n / 10).clamp(200, 20_000), 1e6, 71);
            let flat = fold_ids(|&x| tree.stab_flat(x));
            (qs.len(), ab_stream(&qs, flat, fold_ids(|&x| tree.stab(x))))
        }
        "range2d" | "range2d_cascade" => {
            let tree = RangeTree2D::build(&inputs::rt_points(n), 8);
            let qs = inputs::thin_rects((n / 50).clamp(100, 4_000));
            // `range2d` A/Bs the physical layout with cascading held off
            // on both sides (flat vs vEB-blocked descent — the PR 7 row);
            // `range2d_cascade` A/Bs cascading itself: the uncascaded
            // blocked descent against the fractionally cascaded default.
            let (before, after): (Walk, Walk) = if workload == "range2d_cascade" {
                (RangeTree2D::query_uncascaded, RangeTree2D::query)
            } else {
                (
                    RangeTree2D::query_flat_uncascaded,
                    RangeTree2D::query_uncascaded,
                )
            };
            let before = fold_ids(|r| before(&tree, r));
            (
                qs.len(),
                ab_stream(&qs, before, fold_ids(|r| after(&tree, r))),
            )
        }
        _ => {
            // The point-location predicate stream: many in-circle tests of
            // query points against fixed CCW triangles — the inner loop of
            // the Delaunay engine's cavity assessment.  `delaunay_locate`
            // times the one-at-a-time exact i128 predicate against the
            // width-filtered batch kernel over SoA-staged queries;
            // `incircle_simd` times the scalar batch loop (the dispatch
            // fallback and bit-equality oracle) against the dispatcher —
            // the explicit AVX2 kernel wherever the host has it.  Every side
            // is uncharged (the engine accounts per test), so the counter
            // deltas are zero on both — equal by construction.
            let triangles = inputs::ccw_triangles();
            let queries = inputs::grid_queries(n / triangles.len().max(1));
            let queries = &queries;
            let mix = |acc: u64, inside: bool| acc.wrapping_mul(3).wrapping_add(u64::from(inside));
            let staged = |kernel: Kernel| {
                let (mut dx, mut dy, mut out) =
                    (vec![0i64; qbatch], vec![0i64; qbatch], vec![false; qbatch]);
                move |acc, &[a, b, c]: &[GridPoint; 3]| {
                    queries.chunks(qbatch).fold(acc, |acc, chunk| {
                        let m = chunk.len();
                        for (i, d) in chunk.iter().enumerate() {
                            dx[i] = d.x;
                            dy[i] = d.y;
                        }
                        kernel(a, b, c, &dx[..m], &dy[..m], &mut out[..m]);
                        out[..m].iter().fold(acc, |acc, &inside| mix(acc, inside))
                    })
                }
            };
            let timing = if workload == "delaunay_locate" {
                let exact = |acc, &[a, b, c]: &[GridPoint; 3]| {
                    queries
                        .iter()
                        .fold(acc, |acc, &d| mix(acc, in_circle(a, b, c, d)))
                };
                ab_stream(&triangles, exact, staged(in_circle_batch))
            } else {
                ab_stream(
                    &triangles,
                    staged(in_circle_batch_scalar),
                    staged(in_circle_batch),
                )
            };
            (triangles.len() * queries.len(), timing)
        }
    };
    (n, queries, timing)
}

/// One `query_compare` JSON line for a child whose pool size is fixed.
fn query_row(workload: &str, n: Option<usize>, qbatch: usize) -> String {
    let (n, queries, timing) = query_compare(workload, n, qbatch);
    let (flat, blocked, answers_equal) = (timing.before, timing.after, timing.answers_equal);
    let flat_ms = flat.elapsed.as_secs_f64() * 1e3;
    let blocked_ms = blocked.elapsed.as_secs_f64() * 1e3;
    let writes_equal = flat.writes == blocked.writes;
    let depth_equal = flat.depth == blocked.depth;
    let counters_equal = flat.reads == blocked.reads && writes_equal && depth_equal;
    // Strict: only the cascade row may (and must) set it — every other row
    // keeps reads exactly equal (MODEL.md §3.3).
    let reads_reduced = blocked.reads < flat.reads;
    json_row(
        &format!(
            "\"mode\":\"query_compare\",\"workload\":\"{workload}\",\"n\":{n},\
             \"queries\":{queries},\"qbatch\":{qbatch},\"threads\":{}",
            rayon::current_num_threads()
        ),
        &format!(
            "\"flat_millis\":{flat_ms:.3},\"blocked_millis\":{blocked_ms:.3},\
             \"gain\":{:.3},\
             \"flat_reads\":{},\"blocked_reads\":{},\
             \"flat_writes\":{},\"blocked_writes\":{},\
             \"counters_equal\":{counters_equal},\"writes_equal\":{writes_equal},\
             \"depth_equal\":{depth_equal},\"reads_reduced\":{reads_reduced},\
             \"answers_equal\":{answers_equal}",
            flat_ms / blocked_ms.max(1e-9),
            flat.reads,
            blocked.reads,
            flat.writes,
            blocked.writes,
        ),
    )
}

/// Tiny in-process sweep: the JSON emitter must produce parseable lines and
/// the crossover claim must hold — at the largest swept ω the
/// write-efficient variant costs less ω-weighted work than the baseline.
fn smoke() {
    let omegas = [1usize, 40];
    for workload in PAIRS {
        let lines = sweep_rows(workload, 3_000, &omegas);
        assert_eq!(lines.len(), omegas.len(), "one line per ω");
        for line in &lines {
            assert_numeric(
                line,
                "n omega threads base_reads base_writes base_work we_reads we_writes we_work write_gap",
            );
            println!("{line}");
        }
        let last = lines.last().expect("non-empty sweep");
        let base_work = json_f64(last, "base_work").unwrap();
        let we_work = json_f64(last, "we_work").unwrap();
        assert!(
            we_work < base_work,
            "smoke: {workload} write-efficient variant must win at ω=40 \
             (we_work={we_work}, base_work={base_work})"
        );
        let base_writes = json_f64(last, "base_writes").unwrap();
        let we_writes = json_f64(last, "we_writes").unwrap();
        assert!(
            we_writes < base_writes,
            "smoke: {workload} write-efficient variant must write less"
        );
    }
    eprintln!("sweep smoke ok");

    // Query A/B: at a small n, every compared pair must agree on every
    // answer.  All rows but `range2d_cascade` must also agree on every
    // counter — their "after" side is machine bookkeeping (blocked layout,
    // SIMD kernel), invisible to the ARAM model.  The cascade row is the
    // one *model-level* optimisation: it must keep writes and depth equal
    // and strictly reduce reads.  (No wall-clock assertion here; gains are
    // claimed only by committed full-size BENCH rows.)
    for workload in QUERY_WORKLOADS {
        let line = query_row(workload, Some(20_000), DEFAULT_QBATCH);
        assert_numeric(&line, "n queries qbatch flat_millis blocked_millis");
        if *workload == "range2d_cascade" {
            assert_true(
                &line,
                "writes_equal",
                "the cascaded path moved the write bill",
            );
            assert_true(
                &line,
                "depth_equal",
                "the cascaded path moved the depth bill",
            );
            assert_true(&line, "reads_reduced", "cascading must cut the read bill");
        } else {
            assert_true(
                &line,
                "counters_equal",
                "the blocked path moved the counters",
            );
        }
        assert_true(&line, "answers_equal", "the blocked path changed an answer");
        println!("{line}");
    }
    eprintln!("query smoke ok");
}

/// Smoke check: each of the space-separated `keys` is numeric in `line`.
fn assert_numeric(line: &str, keys: &str) {
    for key in keys.split_whitespace() {
        assert!(
            json_f64(line, key).is_some(),
            "smoke: key {key:?} missing or non-numeric in {line}"
        );
    }
}

/// Smoke check: `flag` is `true` in `line`.
fn assert_true(line: &str, flag: &str, what: &str) {
    assert!(
        line.contains(&format!("\"{flag}\":true")),
        "smoke: {what}: {line}"
    );
}

// ---------------------------------------------------------------------------
// Geometry-as-a-service load driver (`--serve` / `--serve-smoke`).
// ---------------------------------------------------------------------------

/// Default preloaded element count per family for `--serve`.
const DEFAULT_SERVE_N: usize = 50_000;
/// Default shard count for `--serve`.
const DEFAULT_SERVE_SHARDS: usize = 8;
/// Default number of timed reader batches per `--serve` row.
const DEFAULT_SERVE_BATCHES: usize = 160;
/// Preloaded Delaunay sites (the replicated mesh the `locate` queries hit).
const SERVE_SITES: usize = 2_000;
/// Coordinate half-range shared by the preload and the query stream.
const SERVE_SPAN: i64 = 1 << 12;
/// Updates per writer churn batch; each batch dirties at most this many
/// shards, so untouched shards stay structurally shared across the swap.
const SERVE_CHURN_UPDATES: usize = 4;
/// Writer rounds are bounded (no unbounded flag-wait: at one pool thread
/// the two `join` arms run back-to-back, so an unbounded writer would
/// starve the reader instead of overlapping with it).
const SERVE_WRITER_DIVISOR: usize = 4;
/// Open-loop arrival interval = calibrated mean batch latency × 5/4
/// (~80% utilisation, so queueing delay is visible but the loop is stable).
const SERVE_OPEN_SLACK_NUM: u32 = 5;
const SERVE_OPEN_SLACK_DEN: u32 = 4;
/// Calibration batches for the open-loop arrival interval.
const SERVE_WARMUP_BATCHES: usize = 8;
/// Fault mode: open-loop admission bound — an arriving batch finding a
/// deeper backlog is rejected instead of queued (injected delays must shed
/// load, not grow the queue without bound).
const SERVE_MAX_INFLIGHT: usize = 4;
/// Fault mode: bounded per-batch retries when the served answer is
/// degraded (a quarantined shard answered from its last-good snapshot).
const SERVE_MAX_RETRIES: usize = 2;
/// Fault mode: per-batch retry deadline in arrival intervals (open loop).
const SERVE_RETRY_DEADLINE_INTERVALS: f64 = 2.0;
/// Default `--fault-seed` for `--serve --faults`.
const SERVE_FAULT_SEED: u64 = 0xFA57;

/// Arm the serve-bench fault plan: rebuilds can panic / error / delay, the
/// publish commit can error / delay (aborting the swap losslessly), the
/// read path only delays.  Per-mille rates are mild enough that the loop
/// stays live but every containment path fires over a default-length run.
#[cfg(feature = "faultinject")]
fn arm_serve_plan(seed: u64) -> pwe_primitives::faultpoint::ArmedPlan {
    pwe_primitives::faultpoint::FaultPlan::new(seed)
        .rule("service.rebuild.", 60, 60, 40, 200)
        .rule("service.publish.commit", 0, 40, 40, 100)
        .rule("service.serve.batch", 0, 0, 100, 400)
        .arm()
}

/// One query batch mixing all five kinds over the preload's domain.
fn serve_query_batch(rng: &mut rand::rngs::StdRng, qbatch: usize) -> pwe_service::QueryBatch {
    use pwe_service::Query;
    let span = SERVE_SPAN as f64;
    let queries = (0..qbatch)
        .map(|_| {
            let a: i64 = rng.gen_range(-SERVE_SPAN..=SERVE_SPAN);
            let b: i64 = rng.gen_range(-SERVE_SPAN..=SERVE_SPAN);
            let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
            match rng.gen_range(0..5u32) {
                0 => Query::Stab {
                    x: rng.gen_range(0.0..span),
                },
                1 => Query::Range2D {
                    rect: Rect::new(lo, (lo + span / 16.0).min(hi.max(lo)), lo, lo + span / 16.0),
                },
                2 => Query::ThreeSided {
                    x_lo: lo,
                    x_hi: hi,
                    y_bot: lo,
                },
                3 => Query::Nearest { x: lo, y: hi },
                _ => Query::Locate { x: a, y: b },
            }
        })
        .collect();
    pwe_service::QueryBatch { queries }
}

/// One writer churn batch: delete-and-reinsert a few ids with fresh
/// coordinates (interval and point families; the mesh stays static after
/// preload, so swaps exercise the partial-rebuild path).
fn serve_churn_batch(rng: &mut rand::rngs::StdRng, n: usize) -> pwe_service::UpdateBatch {
    use pwe_service::Update;
    let mut updates = Vec::with_capacity(4 * SERVE_CHURN_UPDATES);
    for _ in 0..SERVE_CHURN_UPDATES {
        let id: u64 = rng.gen_range(0..n as u64);
        let left: f64 = rng.gen_range(0.0..(2.0 * SERVE_SPAN as f64));
        let x: i64 = rng.gen_range(-SERVE_SPAN..=SERVE_SPAN);
        let y: i64 = rng.gen_range(-SERVE_SPAN..=SERVE_SPAN);
        updates.push(Update::DeleteInterval(id));
        updates.push(Update::InsertInterval(pwe_geom::interval::Interval::new(
            left,
            left + 64.0,
            id,
        )));
        updates.push(Update::DeletePoint(id));
        updates.push(Update::InsertPoint {
            x: x as f64,
            y: y as f64,
            id,
        });
    }
    pwe_service::UpdateBatch { updates }
}

/// Build a service preloaded with `n` intervals, `n` points and
/// [`SERVE_SITES`] distinct mesh sites (generation 1).
fn serve_preload(n: usize, shards: usize) -> pwe_service::GeometryService {
    use pwe_service::Update;
    let svc = pwe_service::GeometryService::new(shards);
    let mut updates = Vec::with_capacity(2 * n + SERVE_SITES);
    for iv in random_intervals(n, 2.0 * SERVE_SPAN as f64, 200.0, 0x5E21) {
        updates.push(Update::InsertInterval(iv));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E22);
    for id in 0..n as u64 {
        updates.push(Update::InsertPoint {
            x: rng.gen_range(-SERVE_SPAN..=SERVE_SPAN) as f64,
            y: rng.gen_range(-SERVE_SPAN..=SERVE_SPAN) as f64,
            id,
        });
    }
    for site in uniform_grid_points(SERVE_SITES, SERVE_SPAN, 0x5E23) {
        updates.push(Update::InsertSite(site));
    }
    svc.apply(&pwe_service::UpdateBatch { updates });
    svc
}

/// Nearest-rank percentile of an ascending latency list, in microseconds.
fn percentile_us(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One serve-mode measurement inside a child whose pool width is fixed:
/// a writer arm publishing churn generations concurrently with a reader
/// arm serving `batches` query batches, closed- or open-loop.
///
/// With `fault_seed` set (fault mode, `faultinject` feature only), the
/// deterministic plan of `arm_serve_plan` arms *after* the preload and
/// calibration; the reader adds admission control and bounded degraded
/// retries, and the row grows the fault-mode fields.  Without it, the row
/// is byte-identical to the plain serve schema.
fn serve_row(
    loop_mode: &str,
    n: usize,
    shards: usize,
    qbatch: usize,
    batches: usize,
    fault_seed: Option<u64>,
) -> String {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    #[cfg(not(feature = "faultinject"))]
    assert!(
        fault_seed.is_none(),
        "--faults requires rebuilding with --features faultinject"
    );
    let open = loop_mode == "open";
    let faulted = fault_seed.is_some();
    let svc = serve_preload(n, shards);
    let base_gen = svc.current_gen_id();

    let mut qrng = rand::rngs::StdRng::seed_from_u64(0x5E24);
    let query_batches: Vec<pwe_service::QueryBatch> = (0..batches)
        .map(|_| serve_query_batch(&mut qrng, qbatch))
        .collect();

    // Open-loop arrival interval: calibrate the mean unloaded batch
    // latency, then offer ~80% of that service rate.
    let interval_us = if open {
        let mut wrng = rand::rngs::StdRng::seed_from_u64(0x5E25);
        let warm: Vec<pwe_service::QueryBatch> = (0..SERVE_WARMUP_BATCHES)
            .map(|_| serve_query_batch(&mut wrng, qbatch))
            .collect();
        let t = Instant::now();
        for qb in &warm {
            let _ = svc.serve(qb);
        }
        let mean = t.elapsed().as_secs_f64() * 1e6 / SERVE_WARMUP_BATCHES as f64;
        mean * f64::from(SERVE_OPEN_SLACK_NUM) / f64::from(SERVE_OPEN_SLACK_DEN)
    } else {
        0.0
    };

    // Fault mode only: the plan arms after preload and calibration, so the
    // measured loop (and nothing before it) sees injected faults.  The
    // guard disarms when this function returns; `faults_injected` is read
    // out before that.
    #[cfg(feature = "faultinject")]
    let _armed = fault_seed.map(arm_serve_plan);

    let stop = AtomicBool::new(false);
    let writer_rounds = (batches / SERVE_WRITER_DIVISOR).max(1);
    let t0 = Instant::now();
    let (gens_swapped, (lat_us, gens_seen, fault_obs)) = rayon::join(
        || {
            let mut wrng = rand::rngs::StdRng::seed_from_u64(0x5E26);
            let mut swapped = 0usize;
            for round in 0..writer_rounds {
                // Always publish at least once so every row reports a swap,
                // even if the reader drains before the writer is scheduled.
                if round > 0 && stop.load(Ordering::Relaxed) {
                    break;
                }
                // Injected rebuild panics are contained inside `apply`
                // (quarantine + retry-with-backoff); an aborted publish
                // keeps the batch durably applied but swaps nothing.
                if svc.apply(&serve_churn_batch(&mut wrng, n)).published {
                    swapped += 1;
                }
            }
            swapped
        },
        || {
            let mut lat = Vec::with_capacity(batches);
            let mut gens = Vec::with_capacity(batches);
            // (batches_degraded, retries, batches_rejected) — fault mode.
            let mut obs = (0usize, 0usize, 0usize);
            for (i, qb) in query_batches.iter().enumerate() {
                // Open loop: arrivals are scheduled, not gated on
                // completion — latency includes queueing delay.
                while open && t0.elapsed().as_secs_f64() * 1e6 < interval_us * i as f64 {
                    std::hint::spin_loop();
                }
                let start = t0.elapsed().as_secs_f64() * 1e6;
                if faulted && open {
                    // Admission control: arrivals due but unhandled beyond
                    // this batch form the backlog; shed instead of queue.
                    let due = ((start / interval_us) as usize + 1).min(batches);
                    if due.saturating_sub(i) > SERVE_MAX_INFLIGHT {
                        obs.2 += 1;
                        continue;
                    }
                }
                let mut ab = svc.serve(qb);
                if faulted {
                    // Bounded retry: a degraded batch (some shard serving
                    // its quarantined last-good snapshot) re-pins the
                    // current generation, succeeding once the writer's
                    // backoff schedule heals the shard.
                    let deadline_us = start + SERVE_RETRY_DEADLINE_INTERVALS * interval_us;
                    let mut attempts = 0usize;
                    while ab.degraded
                        && attempts < SERVE_MAX_RETRIES
                        && (!open || t0.elapsed().as_secs_f64() * 1e6 < deadline_us)
                    {
                        attempts += 1;
                        obs.1 += 1;
                        ab = svc.serve(qb);
                    }
                    if ab.degraded {
                        obs.0 += 1;
                    }
                }
                lat.push(t0.elapsed().as_secs_f64() * 1e6 - start);
                gens.push(ab.gen_id);
            }
            stop.store(true, Ordering::Relaxed);
            (lat, gens, obs)
        },
    );
    let total_millis = t0.elapsed().as_secs_f64() * 1e3;
    let (batches_degraded, retries, batches_rejected) = fault_obs;

    let final_gen = base_gen + gens_swapped as u64;
    assert_eq!(svc.current_gen_id(), final_gen, "swap accounting drifted");
    // Reader batches answered from a generation older than the final one
    // were served while the writer still had publishes outstanding: the
    // snapshot path let them proceed through the swaps.
    let overlap_batches = gens_seen.iter().filter(|&&g| g < final_gen).count();
    let distinct_gens = {
        let mut g = gens_seen.clone();
        g.sort_unstable();
        g.dedup();
        g.len()
    };

    let mut sorted = lat_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    assert!(!sorted.is_empty(), "admission control rejected every batch");
    let queries_total = ((batches - batches_rejected) * qbatch) as f64;
    let throughput_qps = queries_total / (total_millis / 1e3);

    let fault_fields = match fault_seed {
        None => String::new(),
        Some(seed) => {
            let stats = svc.stats();
            format!(
                ",\"faults\":true,\"fault_seed\":{seed},\
                 \"faults_injected\":{},\"batches_degraded\":{batches_degraded},\
                 \"retries\":{retries},\"batches_rejected\":{batches_rejected},\
                 \"quarantine_generations\":{},\"rebuild_failures\":{},\
                 \"publish_aborts\":{}",
                pwe_primitives::faultpoint::injected_total(),
                stats.quarantine_generations,
                stats.rebuild_failures,
                stats.publish_aborts,
            )
        }
    };

    json_row(
        &format!(
            "\"mode\":\"serve\",\"loop\":\"{loop_mode}\",\"n\":{n},\"shards\":{shards},\
             \"qbatch\":{qbatch},\"batches\":{batches}"
        ),
        &format!(
            "\"millis\":{total_millis:.3},\
             \"interval_us\":{interval_us:.1},\"throughput_qps\":{throughput_qps:.1},\
             \"p50_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1},\
             \"generations_swapped\":{gens_swapped},\"overlap_batches\":{overlap_batches},\
             \"distinct_gens_observed\":{distinct_gens}{fault_fields}",
            percentile_us(&sorted, 50),
            percentile_us(&sorted, 99),
            sorted.last().expect("non-empty"),
        ),
    )
}

/// `--serve-smoke`: a small in-process run of both loop modes that
/// validates the `BENCH_service.json` row schema and its internal sanity;
/// any violation aborts with a non-zero exit.  CI runs this.
fn serve_smoke() {
    for loop_mode in ["closed", "open"] {
        let line = serve_row(loop_mode, 2_000, 3, 64, 30, None);
        assert_numeric(
            &line,
            "n shards qbatch batches millis interval_us throughput_qps p50_us p99_us max_us \
             generations_swapped overlap_batches distinct_gens_observed threads_available \
             rayon_threads",
        );
        assert!(
            line.contains("\"mode\":\"serve\"")
                && line.contains(&format!("\"loop\":\"{loop_mode}\"")),
            "serve smoke: mode/loop tags missing in {line}"
        );
        let p50 = json_f64(&line, "p50_us").unwrap();
        let p99 = json_f64(&line, "p99_us").unwrap();
        let max = json_f64(&line, "max_us").unwrap();
        assert!(
            0.0 < p50 && p50 <= p99 && p99 <= max,
            "serve smoke: percentiles out of order in {line}"
        );
        assert!(
            json_f64(&line, "throughput_qps").unwrap() > 0.0,
            "serve smoke: non-positive throughput in {line}"
        );
        assert!(
            json_f64(&line, "generations_swapped").unwrap() >= 1.0,
            "serve smoke: writer never swapped a generation in {line}"
        );
        assert!(
            !line.contains("\"faults\""),
            "serve smoke: fault fields leaked into a plain serve row: {line}"
        );
        println!("{line}");
    }
    // With the feature compiled in, also smoke the fault-mode schema: the
    // extra fields must be present and numeric, injected faults must have
    // fired (the serve-site delay schedule is a pure function of the seed),
    // and the writer must still have swapped at least one generation
    // through the containment layer.
    #[cfg(feature = "faultinject")]
    {
        let line = serve_row("closed", 2_000, 3, 64, 30, Some(SERVE_FAULT_SEED));
        assert_numeric(
            &line,
            "fault_seed faults_injected batches_degraded retries batches_rejected \
             quarantine_generations rebuild_failures publish_aborts",
        );
        assert!(
            json_f64(&line, "faults_injected").unwrap() > 0.0,
            "serve smoke: armed plan injected nothing in {line}"
        );
        assert!(
            json_f64(&line, "generations_swapped").unwrap() >= 1.0,
            "serve smoke: no generation survived the fault plan in {line}"
        );
        println!("{line}");
    }
    eprintln!("serve smoke ok");
}
