//! # ebtrain-pool
//!
//! A small **persistent worker-thread pool**: the one execution
//! substrate of the workspace.
//!
//! * Every data-parallel region — `tensor::gemm` row blocks,
//!   `tensor::ops` reductions, the `sz` chunk loops — reaches
//!   [`WorkerPool::region`] on the [global](WorkerPool::global) pool
//!   through the vendored `rayon` shim's `par_iter` / `par_chunks`;
//! * `ebtrain-membudget`'s prefetch pipeline submits one decode task per
//!   upcoming warm entry to the same global pool;
//! * `ebtrain-dist` (one thread per rank) and `ebtrain-serve` (RPC
//!   workers) run their long-lived jobs on dedicated pools.
//!
//! Three deliberate design points:
//!
//! * **Inline-claim join.** [`TaskHandle::join`] first tries to claim a
//!   still-pending task and run it on the joining thread. A caller that
//!   blocks on a result therefore never deadlocks against a saturated
//!   pool — worst case it pays the decode itself, which is exactly the
//!   non-prefetched baseline cost.
//! * **Scoped borrowed jobs.** [`WorkerPool::scope`] lets callers spawn
//!   closures that borrow from the enclosing stack frame (the
//!   data-parallel step needs `&mut` access to each replica). The scope
//!   guarantees every spawned job finished before it returns — including
//!   on unwind — which is what makes the internal lifetime erasure sound.
//! * **Regions need no nesting rule.** [`WorkerPool::region`] runs the
//!   first piece on the caller and joins the rest with the inline claim,
//!   so a region entered from a job of the same pool (a prefetch decode,
//!   a nested chunk loop) completes even when every worker is busy: the
//!   caller simply runs its own pieces.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Worker threads alive across every pool of the process (mirrored into
/// the `pool.threads` gauge whenever a pool is built or dropped).
static LIVE_THREADS: AtomicI64 = AtomicI64::new(0);

/// Worker threads alive across every [`WorkerPool`] of the process.
pub fn live_threads() -> usize {
    LIVE_THREADS.load(Ordering::Relaxed).max(0) as usize
}

fn publish_threads(delta: i64) {
    let live = LIVE_THREADS.fetch_add(delta, Ordering::Relaxed) + delta;
    ebtrain_obs::gauge_set("pool.threads", live);
}

/// Type-erased task the worker loop can execute.
trait Runnable: Send + Sync {
    fn run(&self);
}

enum TaskState<T> {
    /// Not started; the closure is up for grabs (worker or joiner).
    Pending(Box<dyn FnOnce() -> T + Send>),
    /// Claimed by some thread and executing.
    Running,
    /// Finished (`Err` holds a panic payload).
    Done(std::thread::Result<T>),
    /// Result already taken by `join`.
    Taken,
}

struct TaskInner<T> {
    state: Mutex<TaskState<T>>,
    cv: Condvar,
}

impl<T: Send> TaskInner<T> {
    /// Claim the closure if still pending and run it to completion on the
    /// current thread. Returns immediately when another thread got there
    /// first. `inline` marks claims made by a joiner rather than a pool
    /// worker (the saturated-pool fallback), counted separately so worker
    /// utilization is observable.
    fn try_run(&self, inline: bool) {
        let job = {
            let mut st = self.state.lock().expect("task poisoned");
            match std::mem::replace(&mut *st, TaskState::Running) {
                TaskState::Pending(job) => job,
                other => {
                    // Not ours to run; put the observed state back.
                    *st = other;
                    return;
                }
            }
        };
        ebtrain_obs::gauge_add("pool.queue_depth", -1);
        ebtrain_obs::counter_add("pool.tasks", 1);
        if inline {
            ebtrain_obs::counter_add("pool.tasks.inline", 1);
        }
        let result = {
            let _span = ebtrain_obs::span!("pool.task");
            catch_unwind(AssertUnwindSafe(job))
        };
        let mut st = self.state.lock().expect("task poisoned");
        *st = TaskState::Done(result);
        self.cv.notify_all();
    }
}

impl<T: Send> Runnable for TaskInner<T> {
    fn run(&self) {
        self.try_run(false);
    }
}

/// Handle to a submitted task; joining yields the closure's return value.
pub struct TaskHandle<T> {
    inner: Arc<TaskInner<T>>,
}

impl<T: Send> TaskHandle<T> {
    /// Wait for the task and return its result, with the worker's panic
    /// payload surfaced as `Err` (mirrors [`std::thread::JoinHandle::join`]).
    ///
    /// If the task is still pending — every pool thread busy — it runs
    /// **inline on the calling thread** instead of blocking, so joining
    /// can never deadlock against a saturated pool.
    pub fn join_result(self) -> std::thread::Result<T> {
        self.inner.try_run(true);
        let mut st = self.inner.state.lock().expect("task poisoned");
        loop {
            match std::mem::replace(&mut *st, TaskState::Taken) {
                TaskState::Done(result) => return result,
                other @ TaskState::Running => {
                    *st = other;
                    st = self.inner.cv.wait(st).expect("task poisoned");
                }
                TaskState::Taken => unreachable!("task result taken twice"),
                TaskState::Pending(_) => unreachable!("try_run left task pending"),
            }
        }
    }

    /// [`join_result`](Self::join_result) that resumes the worker's panic
    /// on the calling thread.
    pub fn join(self) -> T {
        match self.join_result() {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Block until the task has produced a result, **without** consuming
    /// the handle or claiming pending work inline. This is a pure
    /// completion wait: if the task is still queued behind a saturated
    /// pool the caller sleeps until a worker (or another joiner) runs
    /// it. Use [`join_result`](Self::join_result) when the caller may be
    /// the only thread left to make progress.
    pub fn wait(&self) {
        let mut st = self.inner.state.lock().expect("task poisoned");
        while !matches!(*st, TaskState::Done(_) | TaskState::Taken) {
            st = self.inner.cv.wait(st).expect("task poisoned");
        }
    }
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
}

struct PoolQueue {
    tasks: VecDeque<Arc<dyn Runnable>>,
    shutdown: bool,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool poisoned");
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).expect("pool poisoned");
            }
        };
        task.run();
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ebtrain-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect::<Vec<_>>();
        publish_threads(workers.len() as i64);
        WorkerPool { shared, workers }
    }

    /// The process-wide shared pool, sized to the available parallelism
    /// (`EBTRAIN_POOL_THREADS` overrides). Lives for the whole process —
    /// this is the pool every `par_iter` region and the membudget
    /// prefetch decoder run on.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("EBTRAIN_POOL_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            WorkerPool::new(threads)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Tasks sitting in the submission deque — an instantaneous
    /// backlog probe for admission controllers (`ebtrain-serve`) that
    /// shed load when it exceeds a ceiling. May briefly overcount: a
    /// task claimed inline by a joiner stays in the deque (as a no-op)
    /// until a worker pops it.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().expect("pool poisoned").tasks.len()
    }

    /// Submit a task; the handle joins to the closure's return value.
    pub fn submit<T, F>(&self, job: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let inner = Arc::new(TaskInner {
            state: Mutex::new(TaskState::Pending(Box::new(job))),
            cv: Condvar::new(),
        });
        let runnable: Arc<dyn Runnable> = Arc::clone(&inner) as Arc<dyn Runnable>;
        {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            assert!(!q.shutdown, "submit to a shut-down pool");
            q.tasks.push_back(runnable);
        }
        // Depth = submitted but not yet claimed (a joiner's inline claim
        // counts — the task left the logical queue even though its
        // `Runnable` is still in the deque).
        ebtrain_obs::gauge_add("pool.queue_depth", 1);
        self.shared.cv.notify_one();
        TaskHandle { inner }
    }

    /// Run `f` with a [`PoolScope`] that can spawn closures borrowing from
    /// the caller's stack. All spawned jobs are guaranteed to have
    /// finished when `scope` returns (join-on-unwind included); the first
    /// job panic is resumed on the caller.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let scope = PoolScope {
            pool: self,
            handles: Mutex::new(Vec::new()),
            _env: std::marker::PhantomData,
        };
        let result = {
            // The guard joins (without propagating) if `f` unwinds, so no
            // borrowed job can outlive the borrowed data.
            let guard = ScopeJoinGuard { scope: &scope };
            let result = f(&scope);
            std::mem::forget(guard);
            result
        };
        scope.join_all(true);
        result
    }

    /// Run `f` over every piece as **one parallel region** and return the
    /// results in piece order: the caller runs the first piece itself,
    /// the others are scoped jobs on this pool, and the join claims
    /// inline whatever no worker has started — so a region entered from
    /// inside a job of this same pool cannot deadlock, it degrades to
    /// the caller running its own pieces. A panicking piece is resumed
    /// on the caller after every other piece finished. Zero or one piece
    /// runs on the caller without touching the pool.
    pub fn region<T, R, F>(&self, pieces: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if pieces.len() <= 1 {
            ebtrain_obs::counter_add("pool.regions.inline", 1);
            return pieces.into_iter().map(f).collect();
        }
        ebtrain_obs::counter_add("pool.regions", 1);
        let mut slots: Vec<Option<R>> = pieces.iter().map(|_| None).collect();
        self.scope(|s| {
            let f = &f;
            let mut work = pieces.into_iter().zip(slots.iter_mut());
            let own = work.next();
            for (piece, slot) in work {
                s.spawn(move || *slot = Some(f(piece)));
            }
            if let Some((piece, slot)) = own {
                *slot = Some(f(piece));
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("scope joined every piece"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
        publish_threads(-(self.workers.len() as i64));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Spawn surface handed to [`WorkerPool::scope`] closures.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    handles: Mutex<Vec<TaskHandle<()>>>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Spawn a job that may borrow from the environment ('env). The job
    /// is joined before `scope` returns.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the scope joins every spawned job before returning —
        // on the normal path via `join_all`, on unwind via
        // `ScopeJoinGuard` — so the closure never outlives 'env.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        let handle = self.pool.submit(job);
        self.handles.lock().expect("scope poisoned").push(handle);
    }

    /// Join every spawned handle; optionally resume the first panic.
    fn join_all(&self, propagate: bool) {
        let mut first_panic = None;
        loop {
            // Jobs may spawn further jobs; drain until quiescent.
            let drained = std::mem::take(&mut *self.handles.lock().expect("scope poisoned"));
            if drained.is_empty() {
                break;
            }
            for h in drained {
                if let Err(p) = h.join_result() {
                    first_panic.get_or_insert(p);
                }
            }
        }
        if propagate {
            if let Some(p) = first_panic {
                resume_unwind(p);
            }
        }
    }
}

struct ScopeJoinGuard<'a, 'pool, 'env> {
    scope: &'a PoolScope<'pool, 'env>,
}

impl Drop for ScopeJoinGuard<'_, '_, '_> {
    fn drop(&mut self) {
        // Already unwinding: join without propagating job panics.
        self.scope.join_all(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn submit_and_join_returns_value() {
        let pool = WorkerPool::new(2);
        let h = pool.submit(|| 21 * 2);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn many_tasks_all_complete() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    i
                })
            })
            .collect();
        let sum: usize = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 64 * 63 / 2);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn join_runs_inline_when_pool_saturated() {
        // One thread, parked on a gate; joining the second task must run
        // it inline instead of deadlocking.
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        let main_id = std::thread::current().id();
        let h = pool.submit(move || std::thread::current().id());
        assert_eq!(h.join(), main_id, "pending task should run on joiner");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        blocker.join();
    }

    #[test]
    fn panic_propagates_through_join() {
        let pool = WorkerPool::new(1);
        let h = pool.submit(|| panic!("boom"));
        assert!(h.join_result().is_err());
    }

    #[test]
    fn scope_jobs_borrow_and_finish() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0usize; 8];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn scope_propagates_job_panic_after_joining_all() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("job panic"));
                s.spawn(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(r.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 1, "sibling job still ran");
    }

    #[test]
    fn concurrent_scope_jobs_can_rendezvous() {
        // Two jobs on a two-thread pool must run concurrently (a
        // sequential executor would deadlock on this rendezvous).
        let pool = WorkerPool::new(2);
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        pool.scope(|s| {
            for _ in 0..2 {
                let g = Arc::clone(&gate);
                s.spawn(move || {
                    let (lock, cv) = &*g;
                    let mut n = lock.lock().unwrap();
                    *n += 1;
                    cv.notify_all();
                    while *n < 2 {
                        n = cv.wait(n).unwrap();
                    }
                });
            }
        });
        assert_eq!(*gate.0.lock().unwrap(), 2);
    }

    #[test]
    fn region_returns_results_in_piece_order() {
        let pool = WorkerPool::new(3);
        let out = pool.region((0..7usize).collect(), |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
        assert_eq!(pool.region(vec![5usize], |i| i + 1), vec![6]);
        assert_eq!(pool.region(Vec::<usize>::new(), |i| i), Vec::<usize>::new());
    }

    #[test]
    fn region_pieces_run_on_the_caller_or_a_named_worker() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        for _ in 0..20 {
            let who = pool.region(vec![(); 4], |()| {
                let t = std::thread::current();
                (t.id(), t.name().map(str::to_owned))
            });
            assert_eq!(who[0].0, caller, "the first piece belongs to the caller");
            for (id, name) in who {
                let worker = name.is_some_and(|n| n.starts_with("ebtrain-pool-"));
                assert!(id == caller || worker);
            }
        }
    }

    #[test]
    fn region_inside_a_job_of_a_one_worker_pool_completes() {
        // The job occupies the pool's only worker; the pieces it spawns
        // can never be picked up by anyone else, so the region's join
        // must claim them inline. `wait` (not `join`) keeps the test
        // thread from claiming the outer job itself.
        let pool = Arc::new(WorkerPool::new(1));
        let inner = Arc::clone(&pool);
        let job = pool.submit(move || {
            let worker = std::thread::current().id();
            let who = inner.region(vec![(); 4], |()| std::thread::current().id());
            who.into_iter().all(|id| id == worker)
        });
        job.wait();
        assert!(job.join(), "every piece ran on the one worker");
    }

    #[test]
    fn region_resumes_a_piece_panic_on_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        // Piece 0 is the caller's own, piece 3 a pool job.
        for bad in [0usize, 3] {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.region((0..4usize).collect(), |i| {
                    if i == bad {
                        panic!("piece {i}");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(r.is_err());
        }
        assert_eq!(done.load(Ordering::SeqCst), 6, "sibling pieces still ran");
        assert_eq!(pool.region(vec![1, 2, 3], |i| i * 2), vec![2, 4, 6]);
    }

    #[test]
    fn regions_and_threads_are_counted() {
        ebtrain_obs::set_metrics_enabled(true);
        let before = ebtrain_obs::snapshot();
        let pool = WorkerPool::new(2);
        assert!(live_threads() >= 2);
        assert!(ebtrain_obs::gauge_value("pool.threads") >= 2);
        pool.region(vec![1, 2], |i| i);
        pool.region(vec![1], |i| i);
        let delta = ebtrain_obs::snapshot().delta_since(&before);
        assert!(delta.counter("pool.regions") >= 1);
        assert!(delta.counter("pool.regions.inline") >= 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = WorkerPool::global();
        let p2 = WorkerPool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.threads() >= 1);
        assert_eq!(p1.submit(|| 7).join(), 7);
    }

    #[test]
    fn wait_blocks_until_done_without_consuming() {
        let pool = WorkerPool::new(2);
        let h = pool.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            5
        });
        h.wait();
        assert_eq!(h.join(), 5);
    }

    #[test]
    fn queue_depth_peak_watermark_sees_backlog() {
        ebtrain_obs::set_metrics_enabled(true);
        // One worker + a blocked head task: the next submissions pile
        // up, pushing the gauge's high-water mark to the backlog size.
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let head = pool.submit(move || {
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(pool.submit(|| {}));
        }
        gate.store(1, Ordering::SeqCst);
        head.join();
        for h in handles {
            h.join();
        }
        // Peak saw at least the 4 queued tasks (other tests may add
        // more); after the take, the watermark resets to the level.
        let peak = ebtrain_obs::gauge_peak_take("pool.queue_depth");
        assert!(peak >= 4, "peak {peak} missed the backlog");
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..16 {
                let c = Arc::clone(&counter);
                // Handles dropped without joining: the pool must still
                // run (or have run) each task before drop returns.
                let _ = pool.submit(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
