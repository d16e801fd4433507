//! The traced run: where the time and the counted cost go, layer by layer.
//!
//! Spans are taken from outside the program.  The parent spans are the
//! service's own `apply` and `serve` calls.  The child spans issue the same
//! work to each layer's public functions on a replica: per-shard `ShardGen`s
//! and a `MeshGen` built from `ShardData` that the benchmark routes itself
//! with `ShardRouter`.  Builds are pure functions of their input, so the
//! replica is bit-identical to the service's generation (its merged answers
//! are checked equal to the service's).  A layer's self time is its parent
//! span minus its child spans.
//!
//! Every span runs sequentially (`rayon::with_sequential`) with nothing else
//! in flight, so each cost count is exact and parent and children are timed
//! at the same parallelism.  Spans accumulate in memory and are reported at
//! the end.  Only the whole-batch `serve` that gives the traced batch
//! latency runs on the pool, as in the untraced run.
//!
//! The tracing overhead, `trace.query_p50_ratio`, compares that traced
//! batch latency with its twin: the same apply and serve sequence on a
//! second, identically preloaded service, with no span taken in between.

use std::time::Instant;

use pwe_asym::cost::{measure_default as measure, CostReport};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::RangeTree2D;
use pwe_delaunay::write_efficient::triangulate_write_efficient;
use pwe_geom::point::{GridPoint, Point2};
use pwe_kdtree::build::{build_p_batched, recommended_p};
use pwe_service::gen::{rt_point, MeshGen, ShardData, ShardGen, KD_LEAF_CAPACITY, SERVICE_ALPHA};
use pwe_service::{
    Answer, GeometryService, NearestHit, Query, QueryBatch, ShardRouter, Update, UpdateBatch,
};
use rayon::with_sequential;

use crate::stats::percentile;
use crate::workload::{
    kind_of, point_query, reader_batch, rng, writer_batch, Preload, Stream, Workload, KINDS,
    KIND_NAMES, SHARDS,
};
use crate::Metric;

/// Seed of the k-d tree build inside `ShardGen::build`, a private constant
/// there; only the timed `kdtree` child span uses it.  The benchmark's
/// tests check that it agrees ([`shard_child_counts`]).
pub const KD_SEED: u64 = 0x5EED_001D;
/// Seed of the Delaunay build inside `MeshGen::build`, a private constant
/// there; only the timed `delaunay` child span uses it.  The benchmark's
/// tests check that it agrees ([`mesh_child_counts`]).
pub const MESH_SEED: u64 = 0x5EED_00DE;

/// Reader batches the traced run serves, the first of the reader stream.
const TRACE_READER_BATCHES: usize = 240;
/// Writer batches the traced run applies, the first of the writer stream,
/// spread evenly between the reader batches.
const TRACE_WRITER_BATCHES: usize = 12;
/// Reader batches between two traced writer batches.
const WRITE_EVERY: usize = TRACE_READER_BATCHES / TRACE_WRITER_BATCHES;
/// Empty-batch serves timed for the pin cost.
const PIN_PROBES: usize = 2000;
/// Queries of each kind the workload's reader does not send, so that every
/// per-kind metric exists on every workload.
const PROBE_QUERIES: usize = 64;

/// Layer prefixes of the four per-shard structures, in build order.
const SHARD_LAYERS: [&str; 4] = [
    "augtree.interval",
    "augtree.range_tree",
    "augtree.priority",
    "kdtree",
];
/// The per-shard call each query kind makes, named by layer.
const QUERY_LAYER_SPANS: [&str; KINDS] = [
    "augtree.interval.stab_us",
    "augtree.range_tree.query_us",
    "augtree.priority.query_us",
    "kdtree.nearest_us",
    "delaunay.locate_us",
];

/// Sum of the spans of one build layer.
#[derive(Debug, Default, Clone, Copy)]
struct Build {
    secs: f64,
    reads: u64,
    writes: u64,
    /// Largest single-call depth: shards build in parallel.
    depth: u64,
    elems: u64,
}

impl Build {
    fn add(&mut self, c: &CostReport, elems: usize) {
        self.secs += c.elapsed.as_secs_f64();
        self.reads += c.reads;
        self.writes += c.writes;
        self.depth = self.depth.max(c.depth);
        self.elems += elems as u64;
    }

    fn per_elem(count: u64, elems: u64) -> f64 {
        count as f64 / elems.max(1) as f64
    }
}

/// Build one shard's four structures exactly as `ShardGen::try_build`
/// does, the k-d tree from `kd_seed`, one child span each, and drop them.
fn build_shard_layers(d: &ShardData, kd_seed: u64, acc: &mut [Build; 4]) {
    with_sequential(|| {
        let (_, c) = measure(|| IntervalTree::build_parallel(&d.intervals, SERVICE_ALPHA));
        acc[0].add(&c, d.intervals.len());
        let (_, c) = measure(|| RangeTree2D::build(&d.points, SERVICE_ALPHA));
        acc[1].add(&c, d.points.len());
        let ps: Vec<PsPoint> = d
            .points
            .iter()
            .map(|p| PsPoint {
                point: p.point,
                id: p.id,
            })
            .collect();
        let (_, c) = measure(|| PrioritySearchTree::build_parallel(&ps));
        acc[2].add(&c, ps.len());
        let pts: Vec<Point2> = d.points.iter().map(|p| p.point).collect();
        let p = recommended_p(pts.len());
        let (_, c) = measure(|| build_p_batched(&pts, p, KD_LEAF_CAPACITY, kd_seed));
        acc[3].add(&c, pts.len());
    });
}

/// Counted `(reads, writes)` of the child-span builds of one shard, the k-d
/// tree built from `kd_seed`.
pub fn shard_child_counts(d: &ShardData, kd_seed: u64) -> (u64, u64) {
    let mut acc = [Build::default(); 4];
    build_shard_layers(d, kd_seed, &mut acc);
    acc.iter()
        .fold((0, 0), |(r, w), b| (r + b.reads, w + b.writes))
}

/// Counted `(reads, writes)` of the `delaunay` child-span build of `sites`
/// from `seed`.
pub fn mesh_child_counts(sites: &[GridPoint], seed: u64) -> (u64, u64) {
    let (_, c) = with_sequential(|| measure(|| triangulate_write_efficient(sites, seed)));
    (c.reads, c.writes)
}

/// The benchmark's own copy of the service's shards.
struct Replica {
    router: ShardRouter,
    data: Vec<ShardData>,
    gens: Vec<ShardGen>,
    mesh: MeshGen,
}

/// Route `batch` into `data` as `GeometryService::apply` does; returns which
/// shards changed.
fn route(router: &ShardRouter, data: &mut [ShardData], batch: &UpdateBatch) -> Vec<bool> {
    let mut dirty = vec![false; data.len()];
    for u in &batch.updates {
        match *u {
            Update::InsertInterval(iv) => {
                let s = router.shard_of(iv.id);
                data[s].intervals.push(iv);
                dirty[s] = true;
            }
            Update::DeleteInterval(id) => {
                let s = router.shard_of(id);
                let before = data[s].intervals.len();
                data[s].intervals.retain(|iv| iv.id != id);
                dirty[s] |= data[s].intervals.len() != before;
            }
            Update::InsertPoint { x, y, id } => {
                let s = router.shard_of(id);
                data[s].points.push(rt_point(x, y, id));
                dirty[s] = true;
            }
            Update::DeletePoint(id) => {
                let s = router.shard_of(id);
                let before = data[s].points.len();
                data[s].points.retain(|p| p.id != id);
                dirty[s] |= data[s].points.len() != before;
            }
            Update::InsertSite(_) => {}
        }
    }
    dirty
}

/// Per-kind sums over traced queries.
#[derive(Debug, Default, Clone, Copy)]
struct KindSpans {
    queries: u64,
    serve_secs: f64,
    reads: u64,
    shard_secs: f64,
    merge_secs: f64,
    shards_queried: u64,
    shards_useful: u64,
    ids: u64,
}

/// Sums over traced applies.
#[derive(Debug, Default)]
struct WriterSpans {
    applies: u64,
    updates: u64,
    /// The apply's own work besides the rebuilds, see [`Tracer::apply`].
    self_secs: f64,
    gen_secs: f64,
    gen_reads: u64,
    gen_writes: u64,
    layers: [Build; 4],
    shards: u64,
    elems: u64,
}

/// Accumulated spans of one traced run.
struct Tracer<'a> {
    svc: &'a GeometryService,
    replica: Replica,
    kinds: [KindSpans; KINDS],
    writer: WriterSpans,
    batch_us: Vec<f64>,
    /// Operations issued and those that failed (replica answer differs, a
    /// batch came back degraded, an apply did not publish).
    attempted: u64,
    failed: u64,
}

/// A query's child spans on the replica.
struct ReplicaAnswer {
    /// The canonical merged answer.
    answer: Answer,
    /// Summed time of the per-shard (or mesh) calls.
    shard_secs: f64,
    /// Time of the cross-shard merge: concatenating and sorting the id
    /// lists, or picking the least `(dist², id)` hit.  Zero for locate,
    /// which reads the one replicated mesh and merges nothing.
    merge_secs: f64,
    /// Shards queried.
    queried: u64,
    /// Shards whose partial answer was non-empty.
    useful: u64,
}

/// Issue `q` to every replica shard (or the replica mesh) and merge as the
/// service's `answer_one` does, timing the shard calls and the merge apart.
fn replica_answer(r: &Replica, q: &Query) -> ReplicaAnswer {
    if let Query::Locate { x, y } = *q {
        let start = Instant::now();
        let hit = r.mesh.locate(GridPoint { x, y });
        return ReplicaAnswer {
            answer: Answer::Located(hit),
            shard_secs: start.elapsed().as_secs_f64(),
            merge_secs: 0.0,
            queried: 1,
            useful: u64::from(hit.is_some()),
        };
    }
    let mut parts: Vec<Vec<u64>> = Vec::with_capacity(r.gens.len());
    let mut hits: Vec<NearestHit> = Vec::new();
    let mut shard_secs = 0.0;
    for g in &r.gens {
        let start = Instant::now();
        let part = match *q {
            Query::Stab { x } => g.stab(x),
            Query::Range2D { rect } => g.range2d(&rect),
            Query::ThreeSided { x_lo, x_hi, y_bot } => g.three_sided(x_lo, x_hi, y_bot),
            Query::Nearest { x, y } => {
                hits.extend(g.nearest(x, y));
                Vec::new()
            }
            Query::Locate { .. } => unreachable!("answered from the mesh"),
        };
        shard_secs += start.elapsed().as_secs_f64();
        parts.push(part);
    }
    let useful = match q {
        Query::Nearest { .. } => hits.len(),
        _ => parts.iter().filter(|p| !p.is_empty()).count(),
    } as u64;
    let start = Instant::now();
    let answer = match q {
        Query::Nearest { .. } => Answer::Nearest(
            hits.into_iter()
                .min_by(|a, b| a.dist2.total_cmp(&b.dist2).then(a.id.cmp(&b.id))),
        ),
        _ => {
            let mut ids = parts.concat();
            ids.sort_unstable();
            Answer::Ids(ids)
        }
    };
    let merge_secs = start.elapsed().as_secs_f64();
    ReplicaAnswer {
        answer,
        shard_secs,
        merge_secs,
        queried: r.gens.len() as u64,
        useful,
    }
}

impl Tracer<'_> {
    fn query(&mut self, q: &Query) {
        let batch = QueryBatch { queries: vec![*q] };
        // Parent and children are timed on their second issue, so both
        // run on equally warm caches.
        with_sequential(|| {
            self.svc.serve(&batch);
            replica_answer(&self.replica, q)
        });
        let (served, c) = with_sequential(|| measure(|| self.svc.serve(&batch)));
        let child = with_sequential(|| replica_answer(&self.replica, q));
        let acc = &mut self.kinds[kind_of(q)];
        acc.queries += 1;
        acc.serve_secs += c.elapsed.as_secs_f64();
        acc.reads += c.reads;
        acc.shard_secs += child.shard_secs;
        acc.merge_secs += child.merge_secs;
        acc.shards_queried += child.queried;
        acc.shards_useful += child.useful;
        if let Answer::Ids(ids) = &child.answer {
            acc.ids += ids.len() as u64;
        }
        self.attempted += 1;
        if served.degraded || served.answers != [child.answer] {
            self.failed += 1;
        }
    }

    /// Apply `batch` and take its child spans: each dirty shard's rebuild,
    /// and the apply's self time measured directly, as the sum of the
    /// replica's identical mutation of its shard data, the free of each
    /// replaced shard, and an apply with no updates (assembly, publish and
    /// reclaim).  The self time is a few percent of the apply, so parent
    /// minus children, two separately timed spans, would be mostly noise
    /// and could go negative.
    fn apply(&mut self, batch: &UpdateBatch) {
        let report = with_sequential(|| self.svc.apply(batch));
        self.attempted += 1;
        if !report.published || !report.quarantined.is_empty() {
            self.failed += 1;
        }
        let w = &mut self.writer;
        w.applies += 1;
        w.updates += batch.updates.len() as u64;
        let r = &mut self.replica;
        let start = Instant::now();
        let dirty = route(&r.router, &mut r.data, batch);
        w.self_secs += start.elapsed().as_secs_f64();
        for (s, _) in dirty.iter().enumerate().filter(|(_, &d)| d) {
            let d = &r.data[s];
            let (g, c) = with_sequential(|| measure(|| ShardGen::build(d)));
            w.gen_secs += c.elapsed.as_secs_f64();
            w.gen_reads += c.reads;
            w.gen_writes += c.writes;
            build_shard_layers(d, KD_SEED, &mut w.layers);
            w.shards += 1;
            w.elems += (d.intervals.len() + d.points.len()) as u64;
            let old = std::mem::replace(&mut r.gens[s], g);
            let start = Instant::now();
            drop(old);
            w.self_secs += start.elapsed().as_secs_f64();
        }
        let start = Instant::now();
        let fixed = with_sequential(|| self.svc.apply(&UpdateBatch::default()));
        w.self_secs += start.elapsed().as_secs_f64();
        self.attempted += 1;
        self.failed += u64::from(!fixed.published);
    }
}

/// Serve `batch` whole, on the pool as the untraced run does; returns its
/// latency, µs.
fn timed_serve(svc: &GeometryService, batch: &QueryBatch) -> f64 {
    let start = Instant::now();
    std::hint::black_box(svc.serve(batch));
    start.elapsed().as_secs_f64() * 1e6
}

/// The traced pass's apply and serve sequence on a service of its own, with
/// no span taken between the calls; returns each batch's latency, µs.
fn plain_pass(wl: &Workload, preload: &Preload, seed: u64) -> Vec<f64> {
    let svc = GeometryService::new(SHARDS);
    svc.apply(&preload.batch);
    let mut reader = rng(seed, Stream::Reader);
    let mut writer = rng(seed, Stream::Writer);
    let mut batch_us = Vec::with_capacity(TRACE_READER_BATCHES);
    for i in 0..TRACE_READER_BATCHES {
        if i % WRITE_EVERY == 0 {
            with_sequential(|| svc.apply(&writer_batch(&mut writer, wl, preload.sizes)));
        }
        batch_us.push(timed_serve(
            &svc,
            &reader_batch(&mut reader, wl, preload.sizes),
        ));
    }
    batch_us
}

/// Result of the traced run.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Traced operations issued.
    pub attempted: u64,
    /// Traced operations that failed.
    pub failed: u64,
}

/// Run the traced pass of workload `wl` with `seed` and report every layer.
pub fn run(wl: &Workload, preload: &Preload, seed: u64) -> Traced {
    let sizes = preload.sizes;
    let router = ShardRouter::new(SHARDS);
    let svc = GeometryService::new(SHARDS);
    let preloaded = svc.apply(&preload.batch);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: String, value: f64, unit| m.push(Metric::new(name, value, unit));

    // The preload's builds, one child span per structure and shard.
    let mut data = vec![ShardData::default(); SHARDS];
    route(&router, &mut data, &preload.batch);
    let mut builds = [Build::default(); 4];
    for d in &data {
        build_shard_layers(d, KD_SEED, &mut builds);
    }
    let mut mesh_build = Build::default();
    let (_, c) =
        with_sequential(|| measure(|| triangulate_write_efficient(&preload.sites, MESH_SEED)));
    mesh_build.add(&c, preload.sites.len());
    let layers = SHARD_LAYERS.iter().copied().chain(["delaunay"]);
    for (name, b) in layers.zip(builds.iter().chain([&mesh_build])) {
        put(format!("{name}.build_ms"), b.secs * 1e3, "ms");
        let reads = Build::per_elem(b.reads, b.elems);
        put(format!("{name}.build_reads_per_elem"), reads, "reads/elem");
        let writes = Build::per_elem(b.writes, b.elems);
        put(
            format!("{name}.build_writes_per_elem"),
            writes,
            "writes/elem",
        );
        put(format!("{name}.build_depth"), b.depth as f64, "count");
    }

    let site_ids: Vec<u64> = (0..preload.sites.len() as u64).collect();
    let replica = Replica {
        router,
        gens: data.iter().map(ShardGen::build).collect(),
        mesh: MeshGen::build(&preload.sites, &site_ids),
        data,
    };
    let mut t = Tracer {
        svc: &svc,
        replica,
        kinds: [KindSpans::default(); KINDS],
        writer: WriterSpans::default(),
        batch_us: Vec::new(),
        attempted: 1,
        failed: u64::from(!preloaded.published),
    };

    // The pin cost: a serve with nothing to answer.
    let empty = QueryBatch::default();
    let mut pin_secs = 0.0;
    for _ in 0..PIN_PROBES {
        let start = Instant::now();
        std::hint::black_box(svc.serve(&empty));
        pin_secs += start.elapsed().as_secs_f64();
    }
    let pin_us = pin_secs / PIN_PROBES as f64 * 1e6;

    // The same batch sequence, once on an identical service with no spans
    // interleaved, gives the untraced twin of the traced batch latency.
    let mut untraced_us = plain_pass(wl, preload, seed);
    let mut reader = rng(seed, Stream::Reader);
    let mut writer = rng(seed, Stream::Writer);
    for i in 0..TRACE_READER_BATCHES {
        if i % WRITE_EVERY == 0 {
            t.apply(&writer_batch(&mut writer, wl, sizes));
        }
        let batch = reader_batch(&mut reader, wl, sizes);
        t.batch_us.push(timed_serve(&svc, &batch));
        for q in &batch.queries {
            t.query(q);
        }
    }
    let mut probe = rng(seed, Stream::Probe);
    for k in (0..KINDS).filter(|&k| !wl.reads_kind(k)) {
        for _ in 0..PROBE_QUERIES {
            t.query(&point_query(&mut probe, k, sizes));
        }
    }

    let w = &t.writer;
    let per_apply = |secs: f64| secs * 1e3 / w.applies as f64;
    put("gen.rebuild_ms".into(), per_apply(w.gen_secs), "ms");
    for (name, b) in SHARD_LAYERS.iter().zip(&w.layers) {
        put(format!("{name}.rebuild_ms"), per_apply(b.secs), "ms");
    }
    put("service.apply.self_ms".into(), per_apply(w.self_secs), "ms");
    let shards = w.shards as f64 / w.applies as f64;
    put(
        "gen.shards_rebuilt_per_batch".into(),
        shards,
        "shards/batch",
    );
    let per_update = |count: u64| count as f64 / w.updates as f64;
    put(
        "gen.elems_rebuilt_per_update".into(),
        per_update(w.elems),
        "elems/update",
    );
    let writes = per_update(w.gen_writes);
    put(
        "gen.rebuild_writes_per_update".into(),
        writes,
        "writes/update",
    );
    let reads = per_update(w.gen_reads);
    put("gen.rebuild_reads_per_update".into(), reads, "reads/update");

    put("epoch.pin_us".into(), pin_us, "us");
    for (k, acc) in t.kinds.iter().enumerate() {
        let name = KIND_NAMES[k];
        let n = acc.queries as f64;
        let serve_us = acc.serve_secs / n * 1e6;
        let shard_us = acc.shard_secs / n * 1e6;
        put(format!("service.serve.{name}.us"), serve_us, "us");
        if name != "locate" {
            let merge_us = acc.merge_secs / n * 1e6;
            put(format!("service.merge.{name}.us"), merge_us, "us");
        }
        put(QUERY_LAYER_SPANS[k].into(), shard_us, "us");
        let useful = acc.shards_useful as f64 / acc.shards_queried as f64;
        put(format!("router.{name}.useful_shard_ratio"), useful, "ratio");
        let reads = acc.reads as f64 / n;
        put(format!("{name}.reads_per_query"), reads, "reads/query");
        if k < 3 {
            let ids = acc.ids as f64 / n;
            put(format!("{name}.ids_per_query"), ids, "ids/query");
            let ns = acc.serve_secs * 1e9 / acc.ids.max(1) as f64;
            put(format!("{name}.ns_per_id"), ns, "ns/id");
        }
    }
    let traced_p50 = percentile(&mut t.batch_us, 50.0);
    put("trace.query_p50_us".into(), traced_p50, "us");
    let ratio = traced_p50 / percentile(&mut untraced_us, 50.0);
    put("trace.query_p50_ratio".into(), ratio, "ratio");
    Traced {
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
    }
}
