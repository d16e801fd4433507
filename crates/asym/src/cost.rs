//! Scoped cost measurement: `work = reads + ω · writes`.
//!
//! The paper reports, for every algorithm, the expected *work* in the
//! Asymmetric NP model together with the number of *writes* and the *depth*.
//! [`measure`] runs a closure, diffs the calling task tree's counters and
//! depth around it, and returns a [`CostReport`] holding exactly those
//! quantities (plus wall-clock time, which the paper does not use but which
//! the benchmark harness prints for context).

use std::time::{Duration, Instant};

use crate::counters::CounterSnapshot;
use crate::depth;

/// The read/write asymmetry parameter `ω ≥ 1`.
///
/// The paper's motivating projections put the asymmetry of emerging
/// non-volatile memories "between 5–40 in terms of latency, bandwidth, or
/// energy"; the benchmark harness sweeps `ω ∈ {1, 5, 10, 20, 40}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Omega(pub u64);

impl Omega {
    /// Create a new asymmetry parameter; `omega` must be at least 1.
    pub fn new(omega: u64) -> Self {
        assert!(omega >= 1, "ω must be at least 1, got {omega}");
        Omega(omega)
    }

    /// The symmetric special case `ω = 1` (ordinary RAM / PRAM costs).
    pub fn symmetric() -> Self {
        Omega(1)
    }

    /// The raw multiplier.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// The default sweep used by the experiment harness.
    pub fn paper_sweep() -> Vec<Omega> {
        [1, 5, 10, 20, 40].into_iter().map(Omega).collect()
    }
}

impl Default for Omega {
    fn default() -> Self {
        Omega(10)
    }
}

impl std::fmt::Display for Omega {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ω={}", self.0)
    }
}

/// The measured cost of a region of instrumented code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Reads charged to the large asymmetric memory.
    pub reads: u64,
    /// Writes charged to the large asymmetric memory.
    pub writes: u64,
    /// The asymmetry parameter used to weight writes.
    pub omega: Omega,
    /// Structural depth (critical path length) recorded by [`crate::depth`].
    pub depth: u64,
    /// Wall-clock duration of the region (informational only).
    pub elapsed: Duration,
}

impl CostReport {
    /// Asymmetric work: `reads + ω · writes`.
    pub fn work(&self) -> u64 {
        self.reads + self.omega.0.saturating_mul(self.writes)
    }

    /// Total number of memory operations, unweighted.
    pub fn operations(&self) -> u64 {
        self.reads + self.writes
    }

    /// Writes per input element, a convenient normalized metric for the
    /// "linear writes" claims (Theorems 4.1, 5.1, 6.1, 7.1).
    pub fn writes_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.writes as f64 / n as f64
        }
    }

    /// Reads per input element.
    pub fn reads_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.reads as f64 / n as f64
        }
    }

    /// Re-weight the same counts under a different ω (counts are ω-independent;
    /// only the work changes).
    pub fn with_omega(mut self, omega: Omega) -> Self {
        self.omega = omega;
        self
    }

    /// Combine two reports from sequentially-composed regions.
    pub fn combine_sequential(&self, other: &CostReport) -> CostReport {
        CostReport {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            omega: self.omega,
            depth: self.depth + other.depth,
            elapsed: self.elapsed + other.elapsed,
        }
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} work={} depth={} ({}, {:.2?})",
            self.reads,
            self.writes,
            self.work(),
            self.depth,
            self.omega,
            self.elapsed
        )
    }
}

/// Run `f`, measuring the reads, writes, depth and wall-clock time it records.
///
/// Measurement nests: an outer `measure` around several inner ones sees the
/// sum of their counts.  The counts are those of the calling thread's task
/// tree (see [`crate::counters`]): `f` and every pool job it forks, and
/// nothing that other threads run concurrently.
pub fn measure<T>(omega: Omega, f: impl FnOnce() -> T) -> (T, CostReport) {
    let before = CounterSnapshot::now();
    let depth_before = depth::accumulated();
    let start = Instant::now();
    let value = f();
    let elapsed = start.elapsed();
    let after = CounterSnapshot::now();
    let depth_after = depth::accumulated();
    let (reads, writes) = after.since(&before);
    (
        value,
        CostReport {
            reads,
            writes,
            omega,
            depth: depth_after.saturating_sub(depth_before),
            elapsed,
        },
    )
}

/// Measure a region with the default ω.
pub fn measure_default<T>(f: impl FnOnce() -> T) -> (T, CostReport) {
    measure(Omega::default(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{record_reads, record_writes};

    #[test]
    fn work_weights_writes_by_omega() {
        let report = CostReport {
            reads: 100,
            writes: 7,
            omega: Omega::new(5),
            depth: 3,
            elapsed: Duration::ZERO,
        };
        assert_eq!(report.work(), 100 + 5 * 7);
        assert_eq!(report.operations(), 107);
        assert_eq!(report.with_omega(Omega::new(1)).work(), 107);
    }

    #[test]
    fn measure_captures_region_counts() {
        let ((), report) = measure(Omega::new(3), || {
            record_reads(10);
            record_writes(4);
        });
        assert!(report.reads >= 10);
        assert!(report.writes >= 4);
        assert!(report.work() >= 10 + 3 * 4);
    }

    #[test]
    fn per_element_metrics() {
        let report = CostReport {
            reads: 1000,
            writes: 200,
            omega: Omega::symmetric(),
            depth: 0,
            elapsed: Duration::ZERO,
        };
        assert!((report.writes_per_element(100) - 2.0).abs() < 1e-12);
        assert!((report.reads_per_element(100) - 10.0).abs() < 1e-12);
        assert_eq!(report.writes_per_element(0), 0.0);
    }

    #[test]
    fn combine_sequential_adds_costs() {
        let a = CostReport {
            reads: 10,
            writes: 1,
            omega: Omega::new(2),
            depth: 5,
            elapsed: Duration::from_millis(1),
        };
        let b = CostReport {
            reads: 20,
            writes: 2,
            omega: Omega::new(2),
            depth: 7,
            elapsed: Duration::from_millis(2),
        };
        let c = a.combine_sequential(&b);
        assert_eq!(c.reads, 30);
        assert_eq!(c.writes, 3);
        assert_eq!(c.depth, 12);
    }

    #[test]
    #[should_panic]
    fn omega_zero_rejected() {
        let _ = Omega::new(0);
    }

    #[test]
    fn paper_sweep_is_ascending_and_in_projection_range() {
        let sweep = Omega::paper_sweep();
        assert!(sweep.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sweep.first().unwrap().0, 1);
        assert!(sweep.last().unwrap().0 <= 40);
    }
}
