//! The benchmark's command line.
//!
//! ```text
//! geobench --workload <point-mix|report-mix|churn> --seed <n> --seconds <s>
//!          --trace <0|1> [--scale full|toy]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! also makes the sequential traced pass and prints every per-layer metric
//! instead.  Human-readable lines (sizes, pool width, sample counts) come
//! first; the last line of standard output is the JSON result.  The exit
//! code is 0 exactly when every operation succeeded and every checked answer
//! was correct.

use std::process::ExitCode;
use std::time::Instant;

use geobench::load::{self, WINDOWS};
use geobench::oracle::{self, PRELOAD_GEN};
use geobench::stats::{percentile, result_json, rss_peak_mb, window_p50s};
use geobench::workload::{
    reader_batch, rng, writer_batch, Preload, Sizes, Stream, Workload, SHARDS,
};
use geobench::{traced, Metric};
use pwe_asym::cost::{measure_default as measure, CostReport};
use pwe_service::GeometryService;

/// Set-ups timed per run before the timed loop; `setup_s` is the median of
/// these and the ones after it.
const SETUPS_BEFORE: usize = 2;
/// Set-ups timed per run after the timed loop.
const SETUPS_AFTER: usize = 3;
/// Writer batches of the quiescent cost-count epilogue.
const EPILOGUE_APPLIES: usize = 8;
/// Reader batches of the quiescent cost-count epilogue.
const EPILOGUE_BATCHES: usize = 128;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = Workload::named(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let sizes = match get("--scale").unwrap_or("full") {
        "full" => Sizes::FULL,
        "toy" => Sizes::TOY,
        s => return Err(format!("--scale must be full or toy, got {s:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        sizes,
    })
}

/// Counted cost of the preload and of the quiescent epilogue.
#[derive(Default)]
struct Counts {
    setup_reads: u64,
    setup_writes: u64,
    apply_reads: u64,
    apply_writes: u64,
    updates: u64,
    query_reads: u64,
    queries: u64,
    failed: u64,
}

/// Issue the epilogue's batches one at a time on a freshly preloaded
/// service, counting each.  The state and the batches are functions of the
/// seed alone, so the counts repeat exactly.
fn epilogue(svc: &GeometryService, wl: &Workload, sizes: Sizes, seed: u64, c: &mut Counts) {
    let mut r = rng(seed, Stream::Epilogue);
    for _ in 0..EPILOGUE_APPLIES {
        let batch = writer_batch(&mut r, wl, sizes);
        let (report, cost) = measure(|| svc.apply(&batch));
        c.failed += u64::from(!report.published || !report.quarantined.is_empty());
        c.apply_reads += cost.reads;
        c.apply_writes += cost.writes;
        c.updates += batch.updates.len() as u64;
    }
    for _ in 0..EPILOGUE_BATCHES {
        let batch = reader_batch(&mut r, wl, sizes);
        let (answers, cost) = measure(|| svc.serve(&batch));
        c.failed += u64::from(answers.degraded);
        c.query_reads += cost.reads;
        c.queries += batch.queries.len() as u64;
    }
}

/// Time one set-up: a new service and the preload `apply`.  Returns the
/// service, the seconds taken and the preload's counted cost.
fn set_up(preload: &Preload, counts: &mut Counts) -> (GeometryService, f64, CostReport) {
    let start = Instant::now();
    let s = GeometryService::new(SHARDS);
    let (report, cost) = measure(|| s.apply(&preload.batch));
    let secs = start.elapsed().as_secs_f64();
    counts.failed += u64::from(!report.published || report.gen_id != PRELOAD_GEN);
    (s, secs, cost)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("geobench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let sizes = args.sizes;
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# geobench workload={} seed={} seconds={} trace={} threads_available={} pool_width={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads_available,
        rayon::current_num_threads(),
    );
    println!(
        "# preload intervals={} points={} sites={} shards={SHARDS}; reader closed-loop clients=1 \
         batch={} {:?}; writer open-loop {} batches/s {:?}",
        sizes.intervals,
        sizes.points,
        sizes.sites,
        wl.reader_batch,
        wl.reader,
        wl.writer_hz,
        wl.writer,
    );
    let preload = Preload::generate(args.seed, sizes);
    let elements = (sizes.intervals + sizes.points + sizes.sites) as f64;

    // Set-up is timed several times, before and after the timed loop, so
    // that one slow phase of the host does not set the median.  The first
    // preloaded service also runs the quiescent epilogue; the last one
    // before the loop serves it.
    let mut counts = Counts::default();
    let mut setup_s = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut svc = None;
    for rep in 0..SETUPS_BEFORE {
        let (s, secs, cost) = set_up(&preload, &mut counts);
        setup_s.push(secs);
        if rep == 0 {
            counts.setup_reads = cost.reads;
            counts.setup_writes = cost.writes;
            epilogue(&s, &wl, sizes, args.seed, &mut counts);
        }
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");

    let (mut reads, mut writes) = load::run(&svc, &wl, sizes, args.seed, args.seconds);
    drop(svc);
    let rss_mb = rss_peak_mb();
    for _ in 0..SETUPS_AFTER {
        setup_s.push(set_up(&preload, &mut counts).1);
    }
    let wrong = oracle::check(&preload, &writes.log, &reads.samples);

    let query_n: Vec<usize> = reads.windows.iter().map(|w| w.latency_us.len()).collect();
    let apply_win_n: Vec<usize> = writes.latency_ms.iter().map(Vec::len).collect();
    let batches: usize = query_n.iter().sum();
    let apply_n: usize = apply_win_n.iter().sum();
    let attempted =
        (setup_s.len() + EPILOGUE_APPLIES + EPILOGUE_BATCHES + batches + apply_n) as u64;
    let failed = counts.failed + reads.failed + writes.failed + wrong;
    // Medians are the least of the windows' medians (see `load`); tails
    // and throughput are over the whole run.
    let query_by_window = window_p50s(reads.windows.iter_mut().map(|w| &mut w.latency_us));
    let apply_by_window = window_p50s(writes.latency_ms.iter_mut());
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mut q: Vec<f64> = reads
        .windows
        .iter()
        .flat_map(|w| w.latency_us.clone())
        .collect();
    let queries: u64 = reads.windows.iter().map(|w| w.queries).sum();
    let mut a: Vec<f64> = writes.latency_ms.concat();
    let metrics = vec![
        Metric::new("setup_s", percentile(&mut setup_s, 50.0), "s"),
        Metric::new("query_p50_us", least(&query_by_window), "us"),
        Metric::new("apply_p50_ms", least(&apply_by_window), "ms"),
        Metric::new("rss_peak_mb", rss_mb, "MB"),
        Metric::new(
            "setup_writes_per_elem",
            counts.setup_writes as f64 / elements,
            "writes/elem",
        ),
        Metric::new(
            "setup_reads_per_elem",
            counts.setup_reads as f64 / elements,
            "reads/elem",
        ),
        Metric::new(
            "apply_writes_per_update",
            counts.apply_writes as f64 / counts.updates as f64,
            "writes/update",
        ),
        Metric::new(
            "apply_reads_per_update",
            counts.apply_reads as f64 / counts.updates as f64,
            "reads/update",
        ),
        Metric::new(
            "query_reads_per_query",
            counts.query_reads as f64 / counts.queries as f64,
            "reads/query",
        ),
    ];
    // Tails and throughput of the timed loop follow the host's share of
    // CPU far more than its medians do: on a shared 2-vCPU host their spread
    // over ten seeds reached 0.3-0.5 of the median, beyond any usable bound.
    // They are reported, unbounded, with the per-layer metrics.
    let loop_metrics = [
        Metric::new("query_p90_us", percentile(&mut q, 90.0), "us"),
        Metric::new("query_p99_us", percentile(&mut q, 99.0), "us"),
        Metric::new("query_qps", queries as f64 / args.seconds, "1/s"),
        Metric::new("apply_p90_ms", percentile(&mut a, 90.0), "ms"),
        Metric::new("writer.max_backlog", writes.max_backlog as f64, "count"),
        Metric::new("service.gens_observed", reads.gens.len() as f64, "count"),
        Metric::new("query_samples", batches as f64, "count"),
        Metric::new("apply_samples", apply_n as f64, "count"),
    ];
    println!(
        "# samples: setup={} query_batches={batches} applies={apply_n} oracle_batches={} \
         epilogue_applies={EPILOGUE_APPLIES} epilogue_batches={EPILOGUE_BATCHES}",
        setup_s.len(),
        reads.samples.len()
    );
    println!("# query p50 by window (us): {query_by_window:?} n={query_n:?}");
    println!("# apply p50 by window (ms): {apply_by_window:?} n={apply_win_n:?}");
    if batches < 1000 || apply_n < 100 {
        println!(
            "# warning: fewer than 1000 query batches or 100 applies; \
             p99 or p90 rests on fewer than 10 samples beyond it"
        );
    }
    println!(
        "# fail_ratio = {} ({failed}/{attempted}; oracle wrong={wrong})",
        failed as f64 / attempted as f64,
    );
    let samples_of = |name: &str| match name {
        "setup_s" => format!(" (median of n={})", setup_s.len()),
        "query_p50_us" => format!(" (least of {WINDOWS} window medians, n={query_n:?})"),
        "apply_p50_ms" => format!(" (least of {WINDOWS} window medians, n={apply_win_n:?})"),
        "query_p90_us" | "query_p99_us" | "query_qps" => format!(" (n={batches})"),
        "apply_p90_ms" => format!(" (n={apply_n})"),
        _ => String::new(),
    };
    for m in metrics.iter().chain(&loop_metrics) {
        println!("{} = {} {}{}", m.name, m.value, m.unit, samples_of(&m.name));
    }

    let (metrics, attempted, failed) = if args.trace {
        let t = traced::run(&wl, &preload, args.seed);
        let mut per_layer = t.metrics;
        for m in &per_layer {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        per_layer.extend(loop_metrics);
        (per_layer, attempted + t.attempted, failed + t.failed)
    } else {
        (metrics, attempted, failed)
    };
    println!("{}", result_json(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
