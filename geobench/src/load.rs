//! The untraced timed loop: one closed-loop reader and one open-loop writer
//! against a preloaded service.
//!
//! The reader sends its next batch as soon as the previous one is answered.
//! The writer's batch `j` is due at `start + j / writer_hz`, whatever the
//! service does; its latency counts from that due time, so a writer that
//! falls behind shows its backlog in the apply latency.
//!
//! Reader batches are grouped by the window of the run in which they
//! completed, writer batches by the window they were due in.  The host this
//! runs on is shared: other tenants slow it down in phases of seconds, and
//! only ever add time.  The reported medians are the least of the windows'
//! medians, the one least disturbed.  A change to the service moves every
//! window, so it moves that least median too, while a slow phase that
//! leaves any window of the run alone does not.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pwe_service::{GeometryService, UpdateBatch};

use crate::oracle::Sample;
use crate::workload::{reader_batch, rng, writer_batch, Sizes, Stream, Workload};

/// Most reader batches kept for the oracle.  Kept batches are spread over
/// the whole run: every `stride`-th, with `stride` doubling when full.
const MAX_SAMPLES: usize = 64;

/// Equal windows a run's reader and writer batches are grouped into.
pub const WINDOWS: usize = 4;

/// Reader batches that completed in one window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Latency of each batch, µs.
    pub latency_us: Vec<f64>,
    /// Queries answered.
    pub queries: u64,
}

/// What the reader saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Batches by completion window.
    pub windows: Vec<Window>,
    /// Length of one window, s.
    pub window_s: f64,
    /// Batches that panicked or came back degraded.
    pub failed: u64,
    /// Distinct generation ids the answers came from.
    pub gens: BTreeSet<u64>,
    /// Batches kept for the oracle.
    pub samples: Vec<Sample>,
}

/// What the writer did.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Time from each batch's due time until `apply` returned, ms, grouped
    /// by the window the batch was due in.
    pub latency_ms: Vec<Vec<f64>>,
    /// Most batches due and not yet applied when a batch was issued,
    /// counting that batch.
    pub max_backlog: u64,
    /// Updates applied.
    pub updates: u64,
    /// Applies that panicked or did not publish.
    pub failed: u64,
    /// Published batches with the generation each produced.
    pub log: Vec<(u64, UpdateBatch)>,
}

fn reader(
    svc: &GeometryService,
    wl: &Workload,
    sizes: Sizes,
    seed: u64,
    start: Instant,
    end: Instant,
) -> ReaderLog {
    let mut r = rng(seed, Stream::Reader);
    let mut out = ReaderLog {
        windows: vec![Window::default(); WINDOWS],
        window_s: (end - start).as_secs_f64() / WINDOWS as f64,
        ..ReaderLog::default()
    };
    let mut stride = 1usize;
    let mut i = 0usize;
    while Instant::now() < end {
        let batch = reader_batch(&mut r, wl, sizes);
        let t = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| svc.serve(&batch)));
        let done = Instant::now();
        let k = ((done - start).as_secs_f64() / out.window_s) as usize;
        let window = &mut out.windows[k.min(WINDOWS - 1)];
        window.latency_us.push((done - t).as_secs_f64() * 1e6);
        match served {
            Ok(answers) => {
                window.queries += batch.queries.len() as u64;
                out.gens.insert(answers.gen_id);
                if answers.degraded {
                    out.failed += 1;
                }
                if i % stride == 0 {
                    out.samples.push(Sample {
                        queries: batch,
                        answers,
                    });
                    if out.samples.len() == MAX_SAMPLES {
                        stride *= 2;
                        let mut k = 0;
                        out.samples.retain(|_| {
                            k += 1;
                            (k - 1) % 2 == 0
                        });
                    }
                }
            }
            Err(_) => out.failed += 1,
        }
        i += 1;
    }
    out
}

fn writer(
    svc: &GeometryService,
    wl: &Workload,
    sizes: Sizes,
    seed: u64,
    start: Instant,
    end: Instant,
) -> WriterLog {
    let mut r = rng(seed, Stream::Writer);
    let period = Duration::from_secs_f64(1.0 / wl.writer_hz);
    let mut out = WriterLog {
        latency_ms: vec![Vec::new(); WINDOWS],
        ..WriterLog::default()
    };
    let window = (end - start) / WINDOWS as u32;
    for j in 0u32.. {
        let due = start + period * j;
        if due >= end {
            break;
        }
        let batch = writer_batch(&mut r, wl, sizes);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let due_by_now = (start.elapsed().as_secs_f64() * wl.writer_hz) as u64 + 1;
        out.max_backlog = out.max_backlog.max(due_by_now.saturating_sub(j as u64));
        let report = catch_unwind(AssertUnwindSafe(|| svc.apply(&batch)));
        let k = ((due - start).as_secs_f64() / window.as_secs_f64()) as usize;
        out.latency_ms[k.min(WINDOWS - 1)].push(due.elapsed().as_secs_f64() * 1e3);
        match report {
            Ok(rep) if rep.published && rep.quarantined.is_empty() => {
                out.updates += batch.updates.len() as u64;
                out.log.push((rep.gen_id, batch));
            }
            _ => out.failed += 1,
        }
    }
    out
}

/// Run the reader and the writer against `svc` for `seconds`.
pub fn run(
    svc: &GeometryService,
    wl: &Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
) -> (ReaderLog, WriterLog) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let w = s.spawn(|| writer(svc, wl, sizes, seed, start, end));
        let r = reader(svc, wl, sizes, seed, start, end);
        (r, w.join().expect("writer thread contains its panics"))
    })
}
