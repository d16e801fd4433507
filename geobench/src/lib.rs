//! The repository benchmark for the geometry service.
//!
//! It drives `pwe_service::GeometryService` only through its public API on
//! three workloads (see [`workload::WORKLOADS`]), checks a sample of the
//! answers against an independent oracle ([`oracle`]), and reports
//! end-to-end metrics from an untraced timed loop ([`load`]) or per-layer
//! metrics from a sequential traced pass ([`traced`]).  `src/main.rs` is the
//! command line.

pub mod load;
pub mod oracle;
pub mod stats;
pub mod traced;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; panics on a value that is not finite and positive.  No
    /// JSON can carry a non-finite value, and every metric the benchmark
    /// reports is a time, a size, a count or a ratio of things that occur,
    /// so zero or less means the measurement is meaningless.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(
            value.is_finite() && value > 0.0,
            "metric {name} is {value}, not finite and positive"
        );
        Metric { name, value, unit }
    }
}
