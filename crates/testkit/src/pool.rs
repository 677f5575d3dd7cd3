//! Zero-dependency scoped worker pool with work-claiming scheduling.
//!
//! [`Pool::map`] fans a batch of independent work items out over
//! [`std::thread::scope`] threads. Each worker claims the next unclaimed
//! item from a shared atomic index until the batch is exhausted, so a
//! worker that drew cheap items keeps going instead of idling while
//! another finishes a costly chunk. Results are returned in input order,
//! so a caller whose per-item function is deterministic gets bit-identical
//! results at any job count; only *which worker* ran an item depends on
//! timing.
//!
//! With `jobs == 1` the batch runs inline on the calling thread (no thread
//! is spawned), which keeps thread-local state — e.g. thread-scoped
//! failpoint sessions — visible to the work exactly as in a plain loop.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A fixed-width worker pool. Cheap to construct; spawns scoped threads
/// per [`Pool::map`] call and never outlives it.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

/// One item's outcome: its input index and its result or panic payload.
type Claimed<T> = (usize, Result<T, Box<dyn Any + Send>>);

impl Pool {
    /// A pool running `jobs` workers per batch (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// A pool sized to [`Pool::available`] workers.
    pub fn with_available_parallelism() -> Self {
        Self::new(Self::available())
    }

    /// The machine's available parallelism (1 when it cannot be queried).
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Worker count per batch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, returning results in input order.
    ///
    /// Up to `jobs` scoped workers claim items one at a time from a shared
    /// atomic index, in input order, and each result lands in its item's
    /// slot — so the output is exactly `items.into_iter().map(f).collect()`
    /// regardless of `jobs` or of how long each item takes.
    ///
    /// # Panics
    /// Re-raises on the calling thread the panic of the first panicking
    /// item in input order, like the equivalent sequential loop would.
    /// Once an item panics no worker claims a new one; items already
    /// claimed run to completion (every item before the panicking one
    /// was claimed before it, so the re-raised panic is the first).
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        if self.jobs == 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        // Both atomics publish no data: each item travels through its
        // slot's mutex, and each result back through the worker's join.
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let work = || {
            let mut done: Vec<Claimed<T>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(k) else { break };
                let item = slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each index is claimed once");
                let out = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                if out.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                done.push((k, out));
            }
            done
        };
        let claimed: Vec<Claimed<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs.min(n)).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        });
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
        for (k, res) in claimed {
            match res {
                Ok(v) => out[k] = Some(v),
                Err(p) => {
                    if first_panic.as_ref().is_none_or(|(j, _)| k < *j) {
                        first_panic = Some((k, p));
                    }
                }
            }
        }
        if let Some((_, payload)) = first_panic {
            panic::resume_unwind(payload);
        }
        out.into_iter()
            .map(|v| v.expect("every item ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_job_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 3, 4, 7, 16, 200] {
            let got = Pool::new(jobs).map(items.clone(), |i| i * i);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert!(Pool::available() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(3).map(vec![1, 2, 3, 4, 5, 6], |i| {
                assert!(i != 4, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    /// Items of very uneven cost come back in input order. When several
    /// items panic, the one re-raised is the first in input order, even
    /// when a later item panics first: item 7 waits until item 9 has run.
    #[test]
    fn uneven_costs_keep_input_order_and_the_first_panic() {
        use std::sync::mpsc;
        use std::time::Duration;
        let items: Vec<u64> = (0..29).collect();
        for jobs in [2, 3, 5] {
            let got = Pool::new(jobs).map(items.clone(), |i| {
                std::thread::sleep(Duration::from_millis(if i % 7 == 0 { 30 } else { 1 }));
                i * 3
            });
            assert_eq!(
                got,
                items.iter().map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        for jobs in [2, 3] {
            let (tx, rx) = mpsc::channel::<()>();
            let rx = Mutex::new(rx);
            let batch = AssertUnwindSafe(|| {
                Pool::new(jobs).map(items.clone(), |i| {
                    if i == 7 {
                        let rx = rx.lock().expect("no holder of this lock panics");
                        rx.recv_timeout(Duration::from_secs(30))
                            .expect("item 9 runs while item 7 waits");
                    }
                    if i == 9 {
                        tx.send(()).expect("the receiver outlives the batch");
                    }
                    assert!(i != 7 && i != 9, "item {i} failed");
                    i
                })
            });
            let payload =
                panic::catch_unwind(batch).expect_err("a panicking item must panic the batch");
            let msg = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(msg, "item 7 failed", "jobs={jobs}");
        }
    }

    #[test]
    fn single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = Pool::new(1).map(vec![(), ()], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
