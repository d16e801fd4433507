//! Structural depth (span) accounting.
//!
//! The depth of a nested-parallel computation is the length of the longest
//! chain of sequentially-dependent operations.  Measuring the true span of an
//! arbitrary fork-join program automatically is intrusive; instead the
//! algorithms in this workspace record their depth *structurally*, which is
//! both faithful to how the paper's analyses are written and easy to audit:
//!
//! * a sequential round contributes its own depth via [`add`] (the
//!   canonical example is the Delaunay engine's bulk-synchronous
//!   reserve-and-commit rounds: each round adds `1` for the dependence-DAG
//!   level plus the log of the *widest* cavity retriangulated in the round —
//!   the per-winner chains inside a round compose by max, not by sum, even
//!   though the rounds themselves compose sequentially);
//! * a parallel-for over items, where each item performs a variable-length
//!   chain of dependent operations (for instance tracing a point down the
//!   history DAG), contributes the **maximum** chain length over the items.
//!   [`RoundDepth`] collects that maximum with a relaxed atomic and commits
//!   it to the accumulator.  When the per-item chain lengths are a
//!   deterministic function of the round's data (as in the engine), the max
//!   can equivalently be folded while the round's results are consumed —
//!   either way the committed value is schedule-independent.
//!
//! The accumulator lives in the calling task tree's ledger (see
//! [`crate::counters`]) and is diffed by [`crate::cost::measure`], so a
//! [`crate::cost::CostReport`] carries the total depth of the measured region
//! (sequential composition adds; parallel composition inside a round takes a
//! max through `RoundDepth`) and nothing from unrelated concurrent work.
//!
//! ## Composing over `join`
//!
//! Fork-join branches compose in parallel: the span of
//! `par_join(a, b)` is `max(span(a), span(b))`, not their sum.  Since the
//! pool behind `rayon` executes branches on real threads, summing every
//! branch's [`add`] calls into one accumulator would report the
//! *work-series* depth, not the span.  Instead, [`with_span`] runs a closure
//! under a thread-local **span scope** that captures the closure's `add`
//! calls; `pwe_asym::parallel::par_join` measures both branches this way and
//! commits only the maximum to the enclosing scope (or, at the outermost
//! join, to the ledger's accumulator).  Scopes follow the task, not the
//! thread: the pool's task hooks ([`crate::counters::install_task_hooks`])
//! save and clear the executing thread's scope around every stolen job, so depth
//! recorded by an unrelated task a waiting thread picks up never leaks into
//! the waiter's span.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::current_ledger;

/// Thread-local span scope: when active, [`add`] accumulates here instead of
/// in the ledger, and the enclosing `par_join` decides how the value
/// composes (max with the sibling branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanScope {
    active: bool,
    acc: u64,
}

const NO_SCOPE: SpanScope = SpanScope {
    active: false,
    acc: 0,
};

thread_local! {
    static SCOPE: Cell<SpanScope> = const { Cell::new(NO_SCOPE) };
}

/// Add `d` units of depth for a sequentially-composed phase or round.
///
/// Inside a [`with_span`] scope (i.e. inside a `par_join` branch) the units
/// accumulate into that branch's span; otherwise they go straight to the
/// current task tree's accumulator.
#[inline]
pub fn add(d: u64) {
    if d == 0 {
        return;
    }
    let scope = SCOPE.get();
    if scope.active {
        SCOPE.set(SpanScope {
            active: true,
            acc: scope.acc + d,
        });
    } else {
        current_ledger().depth.fetch_add(d, Ordering::Relaxed);
    }
}

/// Run `f` under a fresh span scope, returning its result and the depth it
/// recorded (via [`add`], nested `par_join`s included).  The captured depth
/// is **not** committed anywhere — the caller composes it (a `par_join`
/// takes the max over its two branches) and re-[`add`]s the combined value.
pub fn with_span<R>(f: impl FnOnce() -> R) -> (R, u64) {
    struct Restore(SpanScope);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.set(self.0);
        }
    }
    let restore = Restore(SCOPE.replace(SpanScope {
        active: true,
        acc: 0,
    }));
    let result = f();
    let span = SCOPE.get().acc;
    drop(restore);
    (result, span)
}

fn pack_scope(scope: SpanScope) -> u64 {
    (scope.acc << 1) | u64::from(scope.active)
}

fn unpack_scope(token: u64) -> SpanScope {
    SpanScope {
        active: token & 1 == 1,
        acc: token >> 1,
    }
}

/// Save and clear the executing thread's span scope before a pool job, so a
/// thread that steals an unrelated job while waiting inside a `join` does
/// not mix that job's depth into its own active span.
pub(crate) fn task_enter() -> u64 {
    pack_scope(SCOPE.replace(NO_SCOPE))
}

/// Restore the scope saved by [`task_enter`] after the job.
pub(crate) fn task_exit(token: u64) {
    SCOPE.set(unpack_scope(token));
}

/// Total depth accumulated by the calling thread's task tree.
#[inline]
pub fn accumulated() -> u64 {
    current_ledger().depth.load(Ordering::Relaxed)
}

/// Ceiling of `log2(n)` for `n ≥ 1`; `0` for `n ∈ {0, 1}`.
///
/// A convenient unit for phases whose depth is logarithmic in their size
/// (parallel reductions, scans, semisort rounds, balanced-tree builds).
#[inline]
pub fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// Collects the maximum per-item chain length within one parallel round.
///
/// Typical use: a parallel-for where every item walks a root-to-leaf path of
/// some search structure.  Each item records the length of its own path; the
/// depth contributed by the whole round is the longest such path, committed
/// once the round finishes.
#[derive(Debug, Default)]
pub struct RoundDepth {
    max: AtomicU64,
}

impl RoundDepth {
    /// Start collecting a new round.
    pub fn new() -> Self {
        RoundDepth {
            max: AtomicU64::new(0),
        }
    }

    /// Record the chain length of one item in the round (thread-safe).
    #[inline]
    pub fn record(&self, d: u64) {
        self.max.fetch_max(d, Ordering::Relaxed);
    }

    /// The maximum recorded so far.
    pub fn current_max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Commit the round's depth (its maximum chain) via [`add`] and return it.
    pub fn commit(self) -> u64 {
        let d = self.max.load(Ordering::Relaxed);
        add(d);
        d
    }
}

/// A named depth tracker for algorithms that want to both contribute to the
/// depth accumulator and report a per-phase breakdown.
#[derive(Debug, Default, Clone)]
pub struct DepthTracker {
    phases: Vec<(String, u64)>,
}

impl DepthTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        DepthTracker { phases: Vec::new() }
    }

    /// Record a phase: adds `depth` via [`add`] and remembers
    /// the per-phase value under `name`.
    pub fn phase(&mut self, name: &str, depth: u64) {
        add(depth);
        self.phases.push((name.to_string(), depth));
    }

    /// Total depth across recorded phases.
    pub fn total(&self) -> u64 {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Per-phase breakdown.
    pub fn phases(&self) -> &[(String, u64)] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_matches_reference() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn round_depth_takes_max() {
        let round = RoundDepth::new();
        round.record(3);
        round.record(10);
        round.record(7);
        assert_eq!(round.current_max(), 10);
        let before = accumulated();
        let committed = round.commit();
        assert_eq!(committed, 10);
        assert!(accumulated() >= before + 10);
    }

    #[test]
    fn tracker_accumulates_phases() {
        let mut t = DepthTracker::new();
        let before = accumulated();
        t.phase("sort", 12);
        t.phase("build", 8);
        assert_eq!(t.total(), 20);
        assert_eq!(t.phases().len(), 2);
        assert!(accumulated() >= before + 20);
    }

    #[test]
    fn add_zero_is_noop_but_monotone() {
        let before = accumulated();
        add(0);
        assert!(accumulated() >= before);
    }

    #[test]
    fn span_scope_captures_adds_without_touching_global() {
        // `with_span` isolates this thread's adds, so the assertion is exact
        // even with other tests recording depth concurrently.
        let ((), span) = with_span(|| {
            add(3);
            add(4);
        });
        assert_eq!(span, 7);
    }

    #[test]
    fn span_scopes_nest() {
        let ((), outer) = with_span(|| {
            add(1);
            let ((), inner) = with_span(|| add(10));
            assert_eq!(inner, 10);
            // The inner span was *returned*, not auto-committed; compose by
            // hand like par_join does.
            add(inner);
        });
        assert_eq!(outer, 11);
    }

    #[test]
    fn scope_pack_roundtrip() {
        for scope in [
            NO_SCOPE,
            SpanScope {
                active: true,
                acc: 0,
            },
            SpanScope {
                active: true,
                acc: 123_456,
            },
        ] {
            assert_eq!(unpack_scope(pack_scope(scope)), scope);
        }
    }
}
