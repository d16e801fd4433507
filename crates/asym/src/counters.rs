//! Read/write counters for the large asymmetric memory.
//!
//! The Asymmetric NP model charges `1` for a read of a `Θ(log n)`-bit word of
//! the large memory and `ω` for a write; accesses to the small symmetric
//! memory (registers, per-task scratch of logarithmic size) are free.
//! Algorithms in this workspace call [`record_read`] / [`record_write`] at the
//! program points where the paper's analysis charges an access.  Writes to the
//! small memory are simply not recorded, mirroring the paper's convention
//! ("the number of writes refers only to the writes to the large-memory").
//!
//! Counts go to a **ledger that follows the task tree**.  A thread that is
//! not running a pool job (the main thread, a test-harness thread, a
//! service's reader or writer) records into its own root ledger; a `join`
//! branch handed to the pool carries its forker's ledger through the task
//! hooks ([`install_task_hooks`]), so work a pool thread steals is charged
//! to the tree it belongs to, never to whatever else is running.
//! [`CounterSnapshot::now`] reads the calling thread's current ledger, so
//! [`crate::cost::measure`] counts exactly the fork tree of its closure even
//! while unrelated instrumented work runs on other threads (as it does under
//! the test harness).  The algorithms need no coordination for any of this.
//!
//! Within a ledger the counters are **striped per thread**: a single shared
//! pair of atomics turns the hottest instrumented loops (one `record_read`
//! per in-circle test in the Delaunay engine, tens of millions per run) into
//! a four-way cacheline fight that erases the very parallel speedup the
//! instrumentation is supposed to observe.  Each thread increments its own
//! cache-line-padded stripe; a ledger's totals are the sum over its stripes,
//! which is exact whenever none of the tree's work is in flight.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use crate::depth;

/// Stripes per ledger; power of two so assignment wraps cheaply.  More
/// threads than stripes simply share (correctness is unaffected — stripes
/// are summed, never reset).
const STRIPES: usize = 16;

/// One per-thread counter pair, padded to keep stripes on distinct cache
/// lines.
#[repr(align(128))]
struct Stripe {
    reads: AtomicU64,
    writes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // used only as array initializer
const EMPTY_STRIPE: Stripe = Stripe {
    reads: AtomicU64::new(0),
    writes: AtomicU64::new(0),
};

/// The counters of one task tree.
pub(crate) struct Ledger {
    stripes: [Stripe; STRIPES],
    /// Depth committed outside any span scope (see [`crate::depth`]).
    pub(crate) depth: AtomicU64,
}

impl Ledger {
    const fn new() -> Ledger {
        Ledger {
            stripes: [EMPTY_STRIPE; STRIPES],
            depth: AtomicU64::new(0),
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(r, w), s| {
            (
                r + s.reads.load(Ordering::Relaxed),
                w + s.writes.load(Ordering::Relaxed),
            )
        })
    }
}

/// Records made while no root ledger is reachable (during thread teardown).
static ORPHAN: Ledger = Ledger::new();
/// Ledgers of exited root threads.  Ledgers are leaked, never freed: the
/// next new thread reuses one (its counts carry on, which is harmless
/// because only differences are ever reported).
static FREE: Mutex<Vec<&'static Ledger>> = Mutex::new(Vec::new());
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// Where this thread's records go right now.
#[derive(Clone, Copy)]
struct Sink {
    ledger: Option<&'static Ledger>,
    /// This thread's stripe index, assigned round-robin on first use.
    stripe: usize,
}

/// This thread's own ledger, returned to [`FREE`] when the thread exits.
struct RootLedger(Cell<Option<&'static Ledger>>);

impl Drop for RootLedger {
    fn drop(&mut self) {
        if let Some(ledger) = self.0.take() {
            let _ = SINK.try_with(|sink| {
                sink.set(Sink {
                    ledger: None,
                    ..sink.get()
                })
            });
            FREE.lock().unwrap().push(ledger);
        }
    }
}

thread_local! {
    static SINK: Cell<Sink> = const {
        Cell::new(Sink {
            ledger: None,
            stripe: usize::MAX,
        })
    };
    static ROOT: RootLedger = const { RootLedger(Cell::new(None)) };
}

fn assigned_stripe(stripe: usize) -> usize {
    if stripe == usize::MAX {
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1)
    } else {
        stripe
    }
}

/// Point this thread's sink at its root ledger (allocating one on first
/// use) and return it.
#[cold]
fn attach() -> &'static Ledger {
    install_task_hooks();
    let ledger = ROOT
        .try_with(|root| {
            root.0.get().unwrap_or_else(|| {
                let ledger = FREE
                    .lock()
                    .unwrap()
                    .pop()
                    .unwrap_or_else(|| Box::leak(Box::new(Ledger::new())));
                root.0.set(Some(ledger));
                ledger
            })
        })
        .unwrap_or(&ORPHAN);
    SINK.set(Sink {
        ledger: Some(ledger),
        stripe: assigned_stripe(SINK.get().stripe),
    });
    ledger
}

/// The ledger this thread's records currently go to.
#[inline]
pub(crate) fn current_ledger() -> &'static Ledger {
    SINK.get().ledger.unwrap_or_else(attach)
}

#[inline]
fn my_stripe() -> &'static Stripe {
    let sink = SINK.get();
    match sink.ledger {
        Some(ledger) => &ledger.stripes[sink.stripe & (STRIPES - 1)],
        None => {
            let ledger = attach();
            &ledger.stripes[SINK.get().stripe & (STRIPES - 1)]
        }
    }
}

fn ledger_token(ledger: Option<&'static Ledger>) -> u64 {
    ledger.map_or(0, |l| l as *const Ledger as usize as u64)
}

fn ledger_from_token(token: u64) -> Option<&'static Ledger> {
    // SAFETY: every non-zero token comes from `ledger_token` on a
    // `&'static Ledger` — ledgers are leaked and never freed — so the
    // address is valid for the rest of the process.
    (token != 0).then(|| unsafe { &*(token as usize as *const Ledger) })
}

fn task_fork() -> u64 {
    ledger_token(Some(current_ledger()))
}

fn task_enter(fork: u64) -> [u64; 2] {
    let prev = SINK.get();
    SINK.set(Sink {
        ledger: ledger_from_token(fork),
        stripe: assigned_stripe(prev.stripe),
    });
    [depth::task_enter(), ledger_token(prev.ledger)]
}

fn task_exit(token: [u64; 2]) {
    depth::task_exit(token[0]);
    SINK.set(Sink {
        ledger: ledger_from_token(token[1]),
        ..SINK.get()
    });
}

/// Register the pool's task hooks: a job handed to the pool runs under its
/// forker's ledger, and under a cleared depth-span scope (see
/// [`crate::depth`]); the executing thread's own state is restored after
/// it.  Idempotent; called before the first record and before the first
/// `par_join` fork.
pub fn install_task_hooks() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        rayon::set_task_hooks(task_fork, task_enter, task_exit);
    });
}

/// Record a single read of one word from the large asymmetric memory.
#[inline]
pub fn record_read() {
    my_stripe().reads.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` reads of words from the large asymmetric memory.
#[inline]
pub fn record_reads(n: u64) {
    if n > 0 {
        my_stripe().reads.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record a single write of one word to the large asymmetric memory.
#[inline]
pub fn record_write() {
    my_stripe().writes.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` writes of words to the large asymmetric memory.
#[inline]
pub fn record_writes(n: u64) {
    if n > 0 {
        my_stripe().writes.fetch_add(n, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the calling thread's ledger.
///
/// Snapshots are monotone: the counters only ever increase, so the difference
/// between two snapshots taken around a region on one thread is the cost of
/// that region and of every pool job it forked.  Instrumented work on other
/// threads is not included; work that other jobs of the *same* task tree
/// run concurrently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Reads recorded at the time of the snapshot.
    pub reads: u64,
    /// Writes recorded at the time of the snapshot.
    pub writes: u64,
}

impl CounterSnapshot {
    /// Capture the current values of the calling thread's ledger.
    pub fn now() -> Self {
        let (reads, writes) = current_ledger().totals();
        CounterSnapshot { reads, writes }
    }

    /// Reads and writes that happened since `earlier`.
    ///
    /// Saturates at zero so that a stale snapshot never underflows.
    pub fn since(&self, earlier: &CounterSnapshot) -> (u64, u64) {
        (
            self.reads.saturating_sub(earlier.reads),
            self.writes.saturating_sub(earlier.writes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_difference_counts_region() {
        let before = CounterSnapshot::now();
        record_read();
        record_reads(4);
        record_write();
        record_writes(2);
        let after = CounterSnapshot::now();
        let (r, w) = after.since(&before);
        assert!(r >= 5, "expected at least 5 reads, got {r}");
        assert!(w >= 3, "expected at least 3 writes, got {w}");
    }

    #[test]
    fn zero_counts_are_free() {
        let before = CounterSnapshot::now();
        record_reads(0);
        record_writes(0);
        let after = CounterSnapshot::now();
        // No other test in this module runs concurrently against these exact
        // calls, but other test threads may record; we only assert monotonicity.
        assert!(after.reads >= before.reads);
        assert!(after.writes >= before.writes);
    }

    #[test]
    fn snapshots_exclude_concurrent_unrelated_work() {
        use std::sync::atomic::AtomicBool;
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            // Stops the noisy thread even if an assertion below fails.
            let _stop = Stop(&stop);
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    crate::parallel::par_for_each(64, |_| {
                        record_read();
                        record_write();
                    });
                    started.store(true, Ordering::Relaxed);
                }
            });
            while !started.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            for _ in 0..200 {
                let before = CounterSnapshot::now();
                crate::parallel::par_for_each(1000, |_| {
                    record_reads(3);
                    record_write();
                });
                let (r, w) = CounterSnapshot::now().since(&before);
                assert_eq!((r, w), (3000, 1000));
            }
        });
    }

    #[test]
    fn since_saturates() {
        let later = CounterSnapshot {
            reads: 10,
            writes: 10,
        };
        let earlier = CounterSnapshot {
            reads: 20,
            writes: 15,
        };
        assert_eq!(earlier.since(&later), (10, 5));
        assert_eq!(later.since(&earlier), (0, 0));
    }
}
