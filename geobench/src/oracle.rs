//! The correctness gate: an independent oracle of any published generation.
//!
//! The oracle replays the benchmark's own update log (never the service's
//! state) and answers by brute force: a linear scan for the id kinds and for
//! nearest, and a scan over the triangles of a `triangulate_baseline` mesh of
//! the static sites for locate.  Answers are produced in the service's
//! canonical form, so a served batch is correct exactly when it is equal.

use pwe_delaunay::baseline::triangulate_baseline;
use pwe_geom::interval::Interval;
use pwe_geom::point::{GridPoint, Point2};
use pwe_geom::predicates::orient2d_det;
use pwe_primitives::permute::random_permutation;
use pwe_service::{Answer, AnswerBatch, NearestHit, Query, QueryBatch, Update, UpdateBatch};

use crate::workload::Preload;

/// Insertion-order seed of the oracle's baseline mesh; any value works,
/// since a Delaunay triangulation of points in general position is unique.
const BASELINE_SEED: u64 = 0x0AC1E;

/// One real triangle of the baseline mesh.
struct Tri {
    corners: [GridPoint; 3],
    lo: GridPoint,
    hi: GridPoint,
    /// Sorted site ids of the corners.
    ids: [u64; 3],
}

impl Tri {
    fn contains(&self, q: GridPoint) -> bool {
        if q.x < self.lo.x || q.x > self.hi.x || q.y < self.lo.y || q.y > self.hi.y {
            return false;
        }
        let [a, b, c] = self.corners;
        let o = [
            orient2d_det(a, b, q),
            orient2d_det(b, c, q),
            orient2d_det(c, a, q),
        ];
        o.iter().all(|&d| d >= 0) || o.iter().all(|&d| d <= 0)
    }
}

/// The element state of one generation, answered by brute force.
pub struct Oracle {
    intervals: Vec<Option<Interval>>,
    points: Vec<Option<Point2>>,
    tris: Vec<Tri>,
}

impl Oracle {
    /// The oracle of the preload's generation.
    pub fn new(preload: &Preload) -> Oracle {
        let mesh = triangulate_baseline(&preload.sites, BASELINE_SEED);
        let perm = random_permutation(preload.sites.len(), BASELINE_SEED);
        // Mesh vertices 0..3 are the bounding triangle; vertex 3 + i is the
        // site inserted i-th, which is site `perm[i]`.
        let tris = mesh
            .real_triangles()
            .into_iter()
            .map(|v| {
                let corners = v.map(|i| mesh.points[i as usize]);
                let mut ids = v.map(|i| perm[i as usize - 3] as u64);
                ids.sort_unstable();
                Tri {
                    corners,
                    lo: GridPoint {
                        x: corners.iter().map(|p| p.x).min().expect("three corners"),
                        y: corners.iter().map(|p| p.y).min().expect("three corners"),
                    },
                    hi: GridPoint {
                        x: corners.iter().map(|p| p.x).max().expect("three corners"),
                        y: corners.iter().map(|p| p.y).max().expect("three corners"),
                    },
                    ids,
                }
            })
            .collect();
        let mut oracle = Oracle {
            intervals: vec![None; preload.sizes.intervals],
            points: vec![None; preload.sizes.points],
            tris,
        };
        oracle.apply(&preload.batch);
        oracle
    }

    /// Apply one update batch with the service's semantics (a delete removes
    /// the id, an insert sets it).  Sites are static after the preload and
    /// already in the mesh.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for u in &batch.updates {
            match *u {
                Update::InsertInterval(iv) => self.intervals[iv.id as usize] = Some(iv),
                Update::DeleteInterval(id) => self.intervals[id as usize] = None,
                Update::InsertPoint { x, y, id } => {
                    self.points[id as usize] = Some(Point2::xy(x, y))
                }
                Update::DeletePoint(id) => self.points[id as usize] = None,
                Update::InsertSite(_) => {}
            }
        }
    }

    fn ids_where(&self, keep: impl Fn(&Point2) -> bool) -> Answer {
        Answer::Ids(
            (0u64..)
                .zip(&self.points)
                .filter_map(|(id, p)| p.filter(|p| keep(p)).map(|_| id))
                .collect(),
        )
    }

    /// The canonical answer to `q`.
    pub fn answer(&self, q: &Query) -> Answer {
        match *q {
            Query::Stab { x } => Answer::Ids(
                self.intervals
                    .iter()
                    .flatten()
                    .filter(|iv| iv.contains(x))
                    .map(|iv| iv.id)
                    .collect(),
            ),
            Query::Range2D { rect } => self.ids_where(|p| rect.contains(p)),
            Query::ThreeSided { x_lo, x_hi, y_bot } => {
                self.ids_where(|p| x_lo <= p.x() && p.x() <= x_hi && p.y() >= y_bot)
            }
            Query::Nearest { x, y } => {
                let q = Point2::xy(x, y);
                let best = (0u64..)
                    .zip(&self.points)
                    .filter_map(|(id, p)| p.map(|p| (p.dist2(&q), id)))
                    .min_by(|a, b| a.partial_cmp(b).expect("finite distances"));
                Answer::Nearest(best.map(|(dist2, id)| NearestHit { dist2, id }))
            }
            Query::Locate { x, y } => {
                let q = GridPoint { x, y };
                Answer::Located(
                    self.tris
                        .iter()
                        .filter(|t| t.contains(q))
                        .map(|t| t.ids)
                        .min(),
                )
            }
        }
    }
}

/// A served batch kept for the correctness check.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was asked.
    pub queries: QueryBatch,
    /// What the service answered.
    pub answers: AnswerBatch,
}

/// Generation id the preload publishes on a fresh service.
pub const PRELOAD_GEN: u64 = 1;

/// Check every sample against the oracle of the generation its
/// `gen_id` names.  `log` lists the applied batches after the preload with
/// the generation each published, in publish order.  Returns the number of
/// samples that are wrong: a wrong answer, a count mismatch, or a
/// generation the log does not name.
pub fn check(preload: &Preload, log: &[(u64, UpdateBatch)], samples: &[Sample]) -> u64 {
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.answers.gen_id);
    let mut oracle = Oracle::new(preload);
    let mut at_gen = PRELOAD_GEN;
    let mut next = log.iter().peekable();
    let mut wrong = 0;
    for s in order {
        let want = s.answers.gen_id;
        while let Some((g, batch)) = next.next_if(|(g, _)| *g <= want) {
            oracle.apply(batch);
            at_gen = *g;
        }
        let ok = at_gen == want
            && s.answers.answers.len() == s.queries.queries.len()
            && s.queries
                .queries
                .iter()
                .zip(&s.answers.answers)
                .all(|(q, a)| oracle.answer(q) == *a);
        if !ok {
            wrong += 1;
        }
    }
    wrong
}
