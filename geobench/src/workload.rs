//! Workload definitions and seeded input generation.
//!
//! Every input the service receives comes from here and is a pure function
//! of `(workload, scale, seed)`.  Rates, batch shapes and client counts are
//! constants of the workload: nothing is calibrated at run time, so a faster
//! or slower service meets the same offered load.

use std::collections::HashSet;

use pwe_geom::bbox::Rect;
use pwe_geom::interval::Interval;
use pwe_geom::point::GridPoint;
use pwe_service::{Query, QueryBatch, ShardRouter, Update, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Half-width of the square coordinate domain `[-SPAN, SPAN]²` (and of the
/// interval line).  Well inside the Delaunay grid bound.
pub const SPAN: i64 = 1 << 20;

/// Shards the service is partitioned over (all workloads).
pub const SHARDS: usize = 8;

/// Number of kinds of query the service answers.
pub const KINDS: usize = 5;

/// Names of the query kinds, indexed by [`kind_of`].
pub const KIND_NAMES: [&str; KINDS] = ["stab", "range2d", "threesided", "nearest", "locate"];

/// Index of a query's kind in [`KIND_NAMES`].
pub fn kind_of(q: &Query) -> usize {
    match q {
        Query::Stab { .. } => 0,
        Query::Range2D { .. } => 1,
        Query::ThreeSided { .. } => 2,
        Query::Nearest { .. } => 3,
        Query::Locate { .. } => 4,
    }
}

/// Input sizes of the preload, identical for every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Preloaded intervals (ids `0..intervals`).
    pub intervals: usize,
    /// Preloaded points (ids `0..points`).
    pub points: usize,
    /// Preloaded Delaunay sites; the mesh is static afterwards.
    pub sites: usize,
}

impl Sizes {
    /// The measured size.
    pub const FULL: Sizes = Sizes {
        intervals: 100_000,
        points: 100_000,
        sites: 50_000,
    };
    /// A toy size for the benchmark's own tests.
    pub const TOY: Sizes = Sizes {
        intervals: 4_000,
        points: 4_000,
        sites: 1_000,
    };
}

/// Which queries the closed-loop reader sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderMix {
    /// All five kinds in equal shares, each reporting a few dozen ids at most.
    Point,
    /// Range2D and 3-sided only, each reporting thousands of ids.
    Report,
}

/// What one writer batch does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterShape {
    /// Delete and reinsert ids in 1 or 2 random shards.
    Sparse,
    /// Delete and reinsert ids in [`CHURN_SHARDS`] random shards, so every
    /// shard is rebuilt about every other batch.
    Churn,
}

/// Shards a churn batch dirties.
pub const CHURN_SHARDS: usize = SHARDS / 2;

/// One benchmark workload: a reader mix and a fixed-rate writer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// The reader's query mix.
    pub reader: ReaderMix,
    /// Queries per reader batch.
    pub reader_batch: usize,
    /// The writer's batch shape.
    pub writer: WriterShape,
    /// Writer batches due per second (open loop).
    pub writer_hz: f64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point-mix",
        reader: ReaderMix::Point,
        reader_batch: 32,
        writer: WriterShape::Sparse,
        writer_hz: 6.0,
    },
    Workload {
        name: "report-mix",
        reader: ReaderMix::Report,
        reader_batch: 16,
        writer: WriterShape::Sparse,
        writer_hz: 6.0,
    },
    Workload {
        name: "churn",
        reader: ReaderMix::Point,
        reader_batch: 32,
        writer: WriterShape::Churn,
        writer_hz: 4.0,
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether the reader sends queries of kind `k`.
    pub fn reads_kind(&self, k: usize) -> bool {
        match self.reader {
            ReaderMix::Point => true,
            ReaderMix::Report => k == 1 || k == 2,
        }
    }
}

/// Distinct seed streams derived from the one `--seed` argument.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Preload elements.
    Preload,
    /// Reader batches of the timed loop (and of the traced run).
    Reader,
    /// Writer batches of the timed loop (and of the traced run).
    Writer,
    /// Batches of the quiescent cost-count epilogue.
    Epilogue,
    /// Probe queries of kinds a workload's reader does not send.
    Probe,
}

/// A generator seeded from `(seed, stream)`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream as u64 + 1))
}

/// The preload: one batch of intervals, points and sites.
pub struct Preload {
    /// Sizes it was generated at.
    pub sizes: Sizes,
    /// The single preload batch (intervals, then points, then sites).
    pub batch: UpdateBatch,
    /// The sites in insertion order; a site's id is its index here.
    pub sites: Vec<GridPoint>,
}

/// Ids a stab at a random point reports on average.
const STAB_TARGET_IDS: f64 = 25.0;

/// An interval of length uniform in `[0, max)`, with `max` chosen so that a
/// stab reports [`STAB_TARGET_IDS`] ids on average.
fn random_interval(rng: &mut StdRng, id: u64, sizes: Sizes) -> Interval {
    let max = 4.0 * SPAN as f64 * STAB_TARGET_IDS / sizes.intervals as f64;
    let left = rng.gen_range(-SPAN..=SPAN) as f64;
    Interval::new(left, left + rng.gen_range(0.0..max), id)
}

fn random_point(rng: &mut StdRng, id: u64) -> Update {
    Update::InsertPoint {
        x: rng.gen_range(-SPAN..=SPAN) as f64,
        y: rng.gen_range(-SPAN..=SPAN) as f64,
        id,
    }
}

impl Preload {
    /// Generate the preload for `seed`.  Sites lie on even coordinates
    /// (locate queries use odd ones, so a query never coincides with a site)
    /// and are distinct.
    pub fn generate(seed: u64, sizes: Sizes) -> Preload {
        let mut r = rng(seed, Stream::Preload);
        let mut updates = Vec::with_capacity(sizes.intervals + sizes.points + sizes.sites);
        for id in 0..sizes.intervals as u64 {
            updates.push(Update::InsertInterval(random_interval(&mut r, id, sizes)));
        }
        for id in 0..sizes.points as u64 {
            updates.push(random_point(&mut r, id));
        }
        let mut seen = HashSet::with_capacity(sizes.sites);
        let mut sites = Vec::with_capacity(sizes.sites);
        while sites.len() < sizes.sites {
            let p = GridPoint::new(
                2 * r.gen_range(-SPAN / 2..=SPAN / 2),
                2 * r.gen_range(-SPAN / 2..=SPAN / 2),
            );
            if seen.insert(p) {
                sites.push(p);
                updates.push(Update::InsertSite(p));
            }
        }
        Preload {
            sizes,
            batch: UpdateBatch { updates },
            sites,
        }
    }
}

/// A query reporting about `target` ids: its box covers `target / n` of the
/// point domain.  `0.5..1.5` spreads the output size around the target.
fn sized_query(r: &mut StdRng, kind: usize, target: f64, sizes: Sizes) -> Query {
    let side = 2.0 * SPAN as f64;
    let share = (target * r.gen_range(0.5..1.5) / sizes.points as f64).min(1.0);
    match kind {
        1 => {
            let w = side * share.sqrt();
            let x = r.gen_range(-SPAN as f64..SPAN as f64 - w);
            let y = r.gen_range(-SPAN as f64..SPAN as f64 - w);
            Query::Range2D {
                rect: Rect::new(x, x + w, y, y + w),
            }
        }
        2 => {
            // At least as wide as high, so `y_bot` sits near the top.
            let fx = r.gen_range(share.sqrt()..=1.0);
            let w = side * fx;
            let h = side * (share / fx).min(1.0);
            let x = r.gen_range(-SPAN as f64..SPAN as f64 - w);
            Query::ThreeSided {
                x_lo: x,
                x_hi: x + w,
                y_bot: SPAN as f64 - h,
            }
        }
        _ => unreachable!("only id-reporting box kinds are sized"),
    }
}

/// A point-mix query of kind `k`: few ids, fixed costs dominate.
pub fn point_query(r: &mut StdRng, k: usize, sizes: Sizes) -> Query {
    match k {
        0 => Query::Stab {
            x: r.gen_range(-SPAN as f64..SPAN as f64),
        },
        1 | 2 => sized_query(r, k, 20.0, sizes),
        3 => Query::Nearest {
            x: r.gen_range(-SPAN as f64..SPAN as f64),
            y: r.gen_range(-SPAN as f64..SPAN as f64),
        },
        // Odd coordinates inside 90% of the domain: inside the hull of the
        // sites and never on a site.
        _ => Query::Locate {
            x: 2 * r.gen_range(-SPAN * 9 / 20..SPAN * 9 / 20) + 1,
            y: 2 * r.gen_range(-SPAN * 9 / 20..SPAN * 9 / 20) + 1,
        },
    }
}

/// Ids a report-mix query reports on average at the full size.
const REPORT_TARGET_IDS: f64 = 3000.0;

/// One reader batch of the workload.
pub fn reader_batch(r: &mut StdRng, wl: &Workload, sizes: Sizes) -> QueryBatch {
    let queries = (0..wl.reader_batch)
        .map(|i| match wl.reader {
            // Equal shares, in a fixed rotation so every batch has them.
            ReaderMix::Point => point_query(r, i % KINDS, sizes),
            ReaderMix::Report => {
                let target = REPORT_TARGET_IDS * sizes.points as f64 / Sizes::FULL.points as f64;
                sized_query(r, 1 + i % 2, target, sizes)
            }
        })
        .collect();
    QueryBatch { queries }
}

fn reinsert(r: &mut StdRng, sizes: Sizes, interval: bool, id: u64, out: &mut Vec<Update>) {
    if interval {
        out.push(Update::DeleteInterval(id));
        out.push(Update::InsertInterval(random_interval(r, id, sizes)));
    } else {
        out.push(Update::DeletePoint(id));
        out.push(random_point(r, id));
    }
}

/// A random id of the family (`interval` or point) routed to `shard`.
fn id_in_shard(r: &mut StdRng, router: &ShardRouter, family_size: usize, shard: usize) -> u64 {
    loop {
        let id = r.gen_range(0..family_size as u64);
        if router.shard_of(id) == shard {
            return id;
        }
    }
}

/// One writer batch of the workload: delete-and-reinsert of one existing id
/// in each of a few distinct random shards, with fresh coordinates, so the
/// element counts stay fixed and each batch dirties a known number of
/// shards.
pub fn writer_batch(r: &mut StdRng, wl: &Workload, sizes: Sizes) -> UpdateBatch {
    let dirty = match wl.writer {
        WriterShape::Sparse => r.gen_range(1..=2),
        WriterShape::Churn => CHURN_SHARDS,
    };
    let router = ShardRouter::new(SHARDS);
    let mut shards: Vec<usize> = (0..SHARDS).collect();
    let mut updates = Vec::with_capacity(2 * dirty);
    for i in 0..dirty {
        shards.swap(i, r.gen_range(i..SHARDS));
        let interval = r.gen_bool(0.5);
        let n = if interval {
            sizes.intervals
        } else {
            sizes.points
        };
        let id = id_in_shard(r, &router, n, shards[i]);
        reinsert(r, sizes, interval, id, &mut updates);
    }
    UpdateBatch { updates }
}
