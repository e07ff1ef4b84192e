//! Persistent deterministic host executor.
//!
//! Every parallel host-side phase (kernel chunks, out-of-core decode)
//! runs on one long-lived worker pool per engine — the hot path never
//! spawns a thread.  Workers park on a condvar, tasks carry their
//! submission index, and the one join primitive,
//! [`ExecPool::run_ordered`], collects outputs in submission order, so
//! merged results are bit-identical to serial execution (see DESIGN.md
//! §11).
//!
//! `run_ordered` accepts *borrowing* closures (like `thread::scope`): the
//! kernel lends its task and the out-of-core decode lends disjoint `&mut`
//! slices of one partition.  That is sound because the call blocks until
//! every task of its group has finished — panicking or not — before it
//! returns, so no borrow outlives the frame that lent it.
//!
//! While a caller waits on its group it *helps*: it pops queued jobs and
//! runs them on its own thread (counted as `caller_tasks` in
//! [`ExecStats`]).  A popped job may belong to another group, but every
//! queued job belongs to some `run_ordered` call that is still blocked
//! waiting for it, so any borrow the job carries is still live.  Nested
//! calls (a task that itself calls `run_ordered`) are covered by the same
//! argument, and cannot deadlock: a waiter either runs a queued job
//! itself or parks only while its remaining tasks are already running.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Number of log2 buckets tracked for the queue-depth histogram.
/// Bucket `i` counts submissions that observed a queue depth in
/// `[2^(i-1), 2^i)` (bucket 0 = depth 0).
pub const QUEUE_DEPTH_BUCKETS: usize = 24;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Jobs executed by pool workers.
    tasks: u64,
    /// Jobs executed by waiting callers (work "stolen" back).
    caller_tasks: u64,
    /// log2 histogram of the queue depth observed at each submission.
    depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    /// Nanoseconds pool workers spent executing jobs (host wall clock —
    /// never published to deterministic outputs).
    busy_ns: AtomicU64,
    workers: usize,
    /// Pool construction time, for the utilization gauge
    /// (`busy_ns / (workers × uptime)`).
    started: Instant,
}

impl Inner {
    /// Pop one queued job on behalf of a waiting caller.
    fn pop_for_caller(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap();
        let job = s.queue.pop_front();
        if job.is_some() {
            s.caller_tasks += 1;
        }
        job
    }
}

/// Snapshot of pool activity counters (host-wall values; quarantined
/// from all deterministic outputs just like the `host_*` metrics).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Number of persistent worker threads (0 = inline execution).
    pub workers: usize,
    /// Jobs executed by pool workers.
    pub tasks: u64,
    /// Jobs executed by waiting callers (caller-help / steals).
    pub caller_tasks: u64,
    /// Total nanoseconds workers spent executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds since the pool was constructed.
    pub uptime_ns: u64,
    /// log2 histogram of queue depth observed at submission
    /// (bucket 0 = empty queue, bucket i = depth in `[2^(i-1), 2^i)`).
    pub queue_depth_log2: [u64; QUEUE_DEPTH_BUCKETS],
}

/// Result slots for one submitted group, filled in submission order.
struct GroupState<T> {
    results: Vec<Option<std::thread::Result<T>>>,
    remaining: usize,
}

struct Group<T> {
    slots: Mutex<GroupState<T>>,
    done: Condvar,
}

impl<T> Group<T> {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Group {
            slots: Mutex::new(GroupState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        })
    }

    /// Wrap `task` so it records its outcome into slot `i` and wakes the
    /// group's waiter when the group completes.  Panics are caught here,
    /// so jobs handed to workers never unwind through the worker loop.
    fn wrap<'env>(
        self: &Arc<Self>,
        i: usize,
        task: Box<dyn FnOnce() -> T + Send + 'env>,
    ) -> Box<dyn FnOnce() + Send + 'env>
    where
        T: Send + 'env,
    {
        let group = Arc::clone(self);
        Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(task));
            let mut s = group.slots.lock().unwrap();
            s.results[i] = Some(r);
            s.remaining -= 1;
            if s.remaining == 0 {
                group.done.notify_all();
            }
        })
    }

    /// Block until every task in the group has completed, running queued
    /// jobs on the calling thread while waiting.
    fn wait_help(&self, inner: &Inner) {
        loop {
            {
                let s = self.slots.lock().unwrap();
                if s.remaining == 0 {
                    return;
                }
            }
            // Help: drain the pool queue from this thread.  If the queue
            // is empty our remaining tasks are already running on
            // workers, so parking on the group condvar is correct.
            if let Some(job) = inner.pop_for_caller() {
                job();
                continue;
            }
            let s = self.slots.lock().unwrap();
            if s.remaining == 0 {
                return;
            }
            // A completing worker decrements `remaining` under this lock
            // before notifying, so no wakeup can be lost.
            let _s = self.done.wait(s).unwrap();
        }
    }

    /// Collect results in submission order; re-raises the first panic.
    fn collect(&self) -> Vec<T> {
        let results = {
            let mut s = self.slots.lock().unwrap();
            debug_assert_eq!(s.remaining, 0);
            std::mem::take(&mut s.results)
        };
        let mut out = Vec::with_capacity(results.len());
        let mut panic = None;
        for r in results {
            match r.expect("group slot unfilled after wait") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }
}

/// Long-lived worker pool with ordered joins.  One per engine; shared by
/// kernel chunk stepping and out-of-core decode.
pub struct ExecPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Create a pool with `workers` persistent threads.  `workers == 0`
    /// creates an inline pool: all primitives execute on the calling
    /// thread (useful for forcing serial execution in tests).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                tasks: 0,
                caller_tasks: 0,
                depth_hist: [0; QUEUE_DEPTH_BUCKETS],
            }),
            work: Condvar::new(),
            busy_ns: AtomicU64::new(0),
            workers,
            started: Instant::now(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("lt-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn lt-exec worker")
            })
            .collect();
        ExecPool { inner, handles }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> ExecStats {
        let s = self.inner.state.lock().unwrap();
        ExecStats {
            workers: self.inner.workers,
            tasks: s.tasks,
            caller_tasks: s.caller_tasks,
            busy_ns: self.inner.busy_ns.load(Ordering::Relaxed),
            uptime_ns: self.inner.started.elapsed().as_nanos() as u64,
            queue_depth_log2: s.depth_hist,
        }
    }

    /// Run a group of borrowing tasks and return their outputs in
    /// submission order.  Blocks until every task has completed — that
    /// blocking is what makes lending non-`'static` borrows sound, the
    /// same argument as `std::thread::scope`.  The calling thread helps
    /// execute queued jobs while it waits.  Panics propagate to the
    /// caller after the whole group has finished.
    pub fn run_ordered<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let group = Group::new(tasks.len());
        let jobs: Vec<Job> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let wrapped = group.wrap(i, t);
                // SAFETY: `wrapped` only borrows data live for 'env.  We
                // do not return before `wait_help` observes the whole
                // group complete (even on panic), so no borrow escapes —
                // the same guarantee `std::thread::scope` relies on.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped) }
            })
            .collect();
        self.enqueue(jobs);
        group.wait_help(&self.inner);
        group.collect()
    }

    fn enqueue(&self, jobs: Vec<Job>) {
        if self.inner.workers == 0 {
            // Inline pool: execute immediately on the calling thread.
            // Jobs never panic (Group::wrap catches), so counters stay
            // consistent even under task panics.
            {
                let mut s = self.inner.state.lock().unwrap();
                s.caller_tasks += jobs.len() as u64;
                s.depth_hist[0] += jobs.len() as u64;
            }
            for job in jobs {
                job();
            }
            return;
        }
        let notify = jobs.len();
        {
            let mut s = self.inner.state.lock().unwrap();
            for job in jobs {
                let depth = s.queue.len();
                let bucket = if depth == 0 {
                    0
                } else {
                    (usize::BITS - depth.leading_zeros()) as usize
                };
                s.depth_hist[bucket.min(QUEUE_DEPTH_BUCKETS - 1)] += 1;
                s.queue.push_back(job);
            }
        }
        if notify == 1 {
            self.inner.work.notify_one();
        } else {
            self.inner.work.notify_all();
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut s = self.inner.state.lock().unwrap();
            s.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut s = inner.state.lock().unwrap();
            loop {
                if let Some(j) = s.queue.pop_front() {
                    s.tasks += 1;
                    break Some(j);
                }
                if s.shutdown {
                    break None;
                }
                s = inner.work.wait(s).unwrap();
            }
        };
        match job {
            Some(job) => {
                let t = Instant::now();
                job();
                inner
                    .busy_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<T: Send>(
        fns: Vec<impl FnOnce() -> T + Send + 'static>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send + 'static>> {
        fns.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send + 'static>)
            .collect()
    }

    #[test]
    fn run_ordered_preserves_submission_order() {
        for workers in [0, 1, 2, 4] {
            let pool = ExecPool::new(workers);
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
                .map(|i| {
                    Box::new(move || {
                        if i % 7 == 0 {
                            std::thread::yield_now();
                        }
                        i * i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let out = pool.run_ordered(tasks);
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_ordered_lends_stack_borrows() {
        let pool = ExecPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(137).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = chunks
            .iter()
            .map(|c| {
                let c = *c;
                Box::new(move || c.iter().sum::<u64>()) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let sums = pool.run_ordered(tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn run_ordered_mutates_disjoint_slices() {
        let pool = ExecPool::new(4);
        let mut data = vec![0u32; 100];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks_mut(13)
                .map(|c| {
                    Box::new(move || {
                        for v in c.iter_mut() {
                            *v += 1;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_ordered(tasks);
        }
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn panics_propagate_after_group_completes() {
        for workers in [0, 2] {
            let pool = ExecPool::new(workers);
            let done = Arc::new(AtomicU64::new(0));
            let d2 = Arc::clone(&done);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_ordered(boxed(vec![
                    Box::new(|| panic!("task 0 panicked")) as Box<dyn FnOnce() + Send>,
                    Box::new(move || {
                        d2.fetch_add(1, Ordering::SeqCst);
                    }),
                ]))
            }));
            assert!(r.is_err());
            // The non-panicking task still ran before the panic resurfaced.
            assert_eq!(done.load(Ordering::SeqCst), 1);
            // The pool is still usable afterwards.
            let out = pool.run_ordered(boxed(vec![|| 41usize + 1]));
            assert_eq!(out, vec![42]);
        }
    }

    /// Tasks that themselves call `run_ordered` on the same pool: the
    /// outer call still returns in submission order, a panic in a nested
    /// group resurfaces at the outer call only after every other task ran,
    /// and the pool stays usable — on inline, one- and two-worker pools.
    #[test]
    fn nested_run_ordered_keeps_order_and_survives_panics() {
        type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;
        for workers in [0, 1, 2] {
            let pool = &ExecPool::new(workers);
            for round in 0..20u64 {
                let outer: Vec<Task<'_, Vec<u64>>> = (0..6u64)
                    .map(|i| {
                        Box::new(move || {
                            pool.run_ordered(boxed(
                                (0..5u64)
                                    .map(|j| move || round * 100 + i * 10 + j)
                                    .collect::<Vec<_>>(),
                            ))
                        }) as Task<'_, Vec<u64>>
                    })
                    .collect();
                let want: Vec<Vec<u64>> = (0..6)
                    .map(|i| (0..5).map(|j| round * 100 + i * 10 + j).collect())
                    .collect();
                assert_eq!(pool.run_ordered(outer), want, "workers={workers}");
            }

            let ran = &AtomicU64::new(0);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let outer: Vec<Task<'_, ()>> = (0..4u64)
                    .map(|i| {
                        Box::new(move || {
                            let inner: Vec<Task<'_, ()>> = (0..3u64)
                                .map(|j| {
                                    Box::new(move || {
                                        assert!(i != 2 || j != 1, "nested task panicked");
                                        ran.fetch_add(1, Ordering::SeqCst);
                                    }) as Task<'_, ()>
                                })
                                .collect();
                            pool.run_ordered(inner);
                        }) as Task<'_, ()>
                    })
                    .collect();
                pool.run_ordered(outer)
            }));
            assert!(r.is_err(), "workers={workers}: the nested panic was lost");
            assert_eq!(ran.load(Ordering::SeqCst), 11, "workers={workers}");
            assert_eq!(pool.run_ordered(boxed(vec![|| 7u64])), vec![7]);
        }
    }

    #[test]
    fn pool_survives_many_reuse_rounds() {
        let pool = ExecPool::new(3);
        for round in 0..200u64 {
            let out = pool.run_ordered(boxed(
                (0..5).map(|i| move || round * 10 + i).collect::<Vec<_>>(),
            ));
            assert_eq!(out, (0..5).map(|i| round * 10 + i).collect::<Vec<_>>());
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.tasks + stats.caller_tasks, 1000);
    }

    #[test]
    fn inline_pool_counts_caller_tasks() {
        let pool = ExecPool::new(0);
        pool.run_ordered(boxed((0..4).map(|i| move || i).collect::<Vec<_>>()));
        let stats = pool.stats();
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.tasks, 0);
        assert_eq!(stats.caller_tasks, 4);
        assert_eq!(stats.queue_depth_log2[0], 4);
    }

    #[test]
    fn stats_track_queue_depth_histogram() {
        let pool = ExecPool::new(1);
        pool.run_ordered(boxed((0..32).map(|i| move || i).collect::<Vec<_>>()));
        let stats = pool.stats();
        let total: u64 = stats.queue_depth_log2.iter().sum();
        assert_eq!(total, 32);
    }
}
