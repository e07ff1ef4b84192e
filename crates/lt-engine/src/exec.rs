//! Persistent deterministic host executor: one fork-join over indices.
//!
//! Every parallel host-side phase (kernel chunks, out-of-core decode)
//! runs on one long-lived worker pool per engine — the hot path never
//! spawns a thread. The one primitive, [`ExecPool::map`], runs `f(0..n)`
//! and returns the outputs in index order, so merged results are
//! bit-identical to serial execution (see DESIGN.md §11).
//!
//! The pool holds at most one job: the caller's `f` behind a
//! lifetime-erased reference, plus an atomic next-index counter that the
//! caller and the parked workers claim indices from until `n`, and a done
//! count. `f` may borrow from the caller's frame (like `thread::scope`):
//! `map` returns only once all `n` indices are done, after which no claim
//! can succeed, so `f` is never called again. A call made while a job is
//! in flight — a nested call from inside `f`, or a second thread — runs
//! all its indices inline on its own thread, so no call ever waits on
//! another.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The job in flight: `f` over the indices `0..n`, claimed through `next`
/// and counted through `done` once run.
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    done: AtomicUsize,
}

impl Job {
    /// Claim and run indices until none is left, counting each into
    /// `ran`; returns whether this thread ran the job's last index.
    fn claim_all(&self, ran: &AtomicU64) -> bool {
        let mut last = false;
        loop {
            // Relaxed: a claim publishes nothing; each output travels
            // through its slot's mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return last;
            }
            (self.f)(i);
            ran.fetch_add(1, Ordering::Relaxed);
            // Release pairs with the caller's Acquire load of `done`.
            last = self.done.fetch_add(1, Ordering::Release) + 1 == self.n;
        }
    }
}

/// Reinterprets a borrowed `f` as `'static` without moving it.
union Erased<'a> {
    short: &'a (dyn Fn(usize) + Sync + 'a),
    long: &'static (dyn Fn(usize) + Sync + 'static),
}

struct State {
    /// The job in flight, if any.
    job: Option<Arc<Job>>,
    /// Jobs installed so far; a worker joins each at most once.
    seq: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers for a new job or for shutdown.
    work: Condvar,
    /// Wakes the caller when a worker ran its job's last index.
    done: Condvar,
    /// Indices run by pool workers.
    tasks: AtomicU64,
    /// Indices run by calling threads.
    caller_tasks: AtomicU64,
    /// Nanoseconds pool workers spent running indices (host wall clock —
    /// never published to deterministic outputs).
    busy_ns: AtomicU64,
    /// Pool construction time, for the utilization gauge
    /// (`busy_ns / (workers × uptime)`).
    started: Instant,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISON)
    }
}

/// Why a poisoned pool lock is a bug: the state lock and the output
/// slots are only held for plain field updates.
const POISON: &str = "no code panics while holding a pool lock";

/// Snapshot of pool activity counters (host-wall values; quarantined
/// from all deterministic outputs just like the `host_*` metrics).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Number of persistent worker threads (0 = inline execution).
    pub workers: usize,
    /// Indices run by pool workers.
    pub tasks: u64,
    /// Indices run by calling threads (their own share, and every index
    /// of an inline call).
    pub caller_tasks: u64,
    /// Total nanoseconds workers spent running indices.
    pub busy_ns: u64,
    /// Nanoseconds since the pool was constructed.
    pub uptime_ns: u64,
}

/// Long-lived worker pool with an index-ordered fork-join. One per
/// engine; shared by kernel chunk stepping and out-of-core decode.
pub struct ExecPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Create a pool with up to `workers` persistent threads. `workers ==
    /// 0` creates an inline pool: every call runs on the calling thread
    /// (useful for forcing serial execution in tests). If the OS refuses a
    /// thread, the pool keeps the workers it has: outputs are in index
    /// order, so every worker count computes the same bytes, and
    /// [`Self::workers`] reports the real count.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                job: None,
                seq: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            tasks: AtomicU64::new(0),
            caller_tasks: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map_while(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lt-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .ok()
            })
            .collect();
        ExecPool { inner, handles }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            workers: self.workers(),
            tasks: self.inner.tasks.load(Ordering::Relaxed),
            caller_tasks: self.inner.caller_tasks.load(Ordering::Relaxed),
            busy_ns: self.inner.busy_ns.load(Ordering::Relaxed),
            uptime_ns: self.inner.started.elapsed().as_nanos() as u64,
        }
    }

    /// Run `f(i)` for every `i` in `0..n` and return the outputs in index
    /// order. The calling thread runs indices too; a call made while
    /// another is in flight, or on a pool without workers, runs them all
    /// inline. `f` may borrow from the caller: `map` returns only after
    /// every index has run and no worker holds `f` any more. If indices
    /// panic, the first (by index) is re-raised once all have run, and
    /// the pool stays usable.
    pub fn map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // Catches every panic, so a claim loop never unwinds past a job
        // it installed.
        let run = |i: usize| {
            let r = catch_unwind(AssertUnwindSafe(|| f(i)));
            *slots[i].lock().expect(POISON) = Some(r);
        };
        self.fork_join(n, &run);
        let mut out = Vec::with_capacity(n);
        let mut panic = None;
        for slot in slots {
            match slot.into_inner().expect(POISON).expect("every index ran") {
                Ok(v) => out.push(v),
                Err(p) => {
                    panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Run `run(0..n)` (which must not unwind) on this thread and, when
    /// the pool is free, on its workers; return once every index ran and
    /// the job is gone from the pool.
    fn fork_join(&self, n: usize, run: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the `'static` reference is only called for a claimed
        // index. This call returns once all `n` indices are done (`run`
        // does not unwind, so it cannot leave earlier), and after that
        // every claim fails: a worker still holding the job touches only
        // its counters, never the reference, once `run` is out of scope.
        #[allow(unsafe_code)]
        let f = unsafe { Erased { short: run }.long };
        let job = Arc::new(Job {
            f,
            n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        });
        let installed = n > 1 && !self.handles.is_empty() && {
            let mut s = self.inner.lock();
            let free = s.job.is_none();
            if free {
                s.job = Some(Arc::clone(&job));
                s.seq += 1;
            }
            free
        };
        if installed {
            self.inner.work.notify_all();
        }
        job.claim_all(&self.inner.caller_tasks);
        if installed {
            // The job stays in flight until its last index is done, so an
            // index's nested call runs inline.
            let mut s = self.inner.lock();
            while job.done.load(Ordering::Acquire) < n {
                s = self.inner.done.wait(s).expect(POISON);
            }
            s.job = None;
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Never panic in `drop`: a poisoned lock still holds a valid flag.
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.inner.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen = 0;
    loop {
        let job = {
            let mut s = inner.lock();
            loop {
                if s.shutdown {
                    return;
                }
                if s.seq != seen {
                    seen = s.seq;
                    if let Some(job) = s.job.clone() {
                        break job;
                    }
                }
                s = inner.work.wait(s).expect(POISON);
            }
        };
        let t = Instant::now();
        let ran_last = job.claim_all(&inner.tasks);
        inner
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if ran_last {
            // The caller checks `done` under this lock before it waits,
            // so taking it here means the wake-up cannot be lost.
            let _s = inner.lock();
            inner.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_outputs_in_index_order() {
        for workers in [0, 1, 2, 4] {
            let pool = ExecPool::new(workers);
            for n in [0, 1, workers, 64] {
                let out = pool.map(n, |i| {
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, want, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn map_lends_stack_borrows() {
        let pool = ExecPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(137).collect();
        let sums = pool.map(chunks.len(), |k| chunks[k].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    /// Disjoint `&mut` spans travel to their index through a slot taken
    /// once, the way the out-of-core decode lends its output buffers.
    #[test]
    fn map_mutates_disjoint_spans_handed_over_through_slots() {
        let pool = ExecPool::new(4);
        let mut data = vec![0u32; 100];
        {
            let slots: Vec<Mutex<Option<&mut [u32]>>> =
                data.chunks_mut(13).map(|c| Mutex::new(Some(c))).collect();
            let lens = pool.map(slots.len(), |k| {
                let span = slots[k].lock().unwrap().take().expect("taken once");
                span.iter_mut().for_each(|v| *v += k as u32 + 1);
                span.len()
            });
            assert_eq!(lens.iter().sum::<usize>(), 100);
        }
        let want: Vec<u32> = (0..100).map(|i| i / 13 + 1).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn a_panic_resurfaces_after_every_other_index_ran() {
        for workers in [0, 2] {
            let pool = ExecPool::new(workers);
            let ran = AtomicU64::new(0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.map(8, |i| {
                    assert!(i != 0, "index 0 panicked");
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(r.is_err());
            assert_eq!(ran.load(Ordering::SeqCst), 7, "workers={workers}");
            assert_eq!(pool.map(1, |_| 41usize + 1), vec![42]);
        }
    }

    /// An index that itself calls `map` on the same pool runs that call
    /// inline: the outer call still returns in index order, a panic in a
    /// nested call resurfaces at the outer call only after every other
    /// index ran, and the pool stays usable — on inline, one- and
    /// two-worker pools.
    #[test]
    fn nested_map_keeps_order_and_survives_panics() {
        for workers in [0, 1, 2] {
            let pool = &ExecPool::new(workers);
            for round in 0..20u64 {
                let out = pool.map(6, |i| {
                    pool.map(5, |j| round * 100 + i as u64 * 10 + j as u64)
                });
                let want: Vec<Vec<u64>> = (0..6)
                    .map(|i| (0..5).map(|j| round * 100 + i * 10 + j).collect())
                    .collect();
                assert_eq!(out, want, "workers={workers}");
            }

            let ran = &AtomicU64::new(0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.map(4, |i| {
                    pool.map(3, |j| {
                        assert!(i != 2 || j != 1, "nested index panicked");
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                })
            }));
            assert!(r.is_err(), "workers={workers}: the nested panic was lost");
            assert_eq!(ran.load(Ordering::SeqCst), 11, "workers={workers}");
            assert_eq!(pool.map(1, |_| 7u64), vec![7]);
        }
    }

    #[test]
    fn concurrent_callers_both_get_ordered_results() {
        let pool = ExecPool::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2u64)
                .map(|t| {
                    let pool = &pool;
                    s.spawn(move || {
                        for round in 0..50u64 {
                            let out = pool.map(16, |i| t * 10_000 + round * 100 + i as u64);
                            let want: Vec<u64> =
                                (0..16).map(|i| t * 10_000 + round * 100 + i).collect();
                            assert_eq!(out, want);
                        }
                    })
                })
                .collect();
            for c in callers {
                c.join().unwrap();
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.tasks + stats.caller_tasks, 2 * 50 * 16);
    }

    #[test]
    fn pool_survives_many_reuse_rounds() {
        let pool = ExecPool::new(3);
        let mut total = 0;
        for round in 0..200u64 {
            let n = (round % 9) as usize;
            let out = pool.map(n, |i| round * 10 + i as u64);
            assert_eq!(
                out,
                (0..n as u64).map(|i| round * 10 + i).collect::<Vec<_>>()
            );
            total += n as u64;
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.tasks + stats.caller_tasks, total);
    }

    #[test]
    fn inline_pool_counts_caller_tasks() {
        let pool = ExecPool::new(0);
        pool.map(4, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.caller_tasks, 4);
    }
}
