//! Minimal std-only data parallelism with fault isolation, backed by one
//! process-wide persistent worker pool.
//!
//! Earlier revisions spawned a fresh `std::thread::scope` per call; every
//! T-Daub round paid thread-creation latency for workers that lived a few
//! milliseconds. All parallel primitives in this module now share a single
//! lazily-initialized pool of parked workers (shared-queue scheduling, one
//! worker per available core beyond the caller). Work items in this
//! workspace range from per-output model fits and single tree fits of a
//! few milliseconds to pipeline evaluations and dataset sweeps of seconds,
//! and their costs are *skewed*: one BATS fit can take 100× longer than a
//! Zero Model evaluation. Workers therefore pull item indices from a shared
//! atomic cursor (work-queue scheduling) instead of being handed fixed
//! contiguous chunks, so a thread that drew cheap items keeps helping
//! instead of idling behind the slowest chunk.
//!
//! Determinism: each item's result lands in a dedicated slot keyed by its
//! input index, and the mapped closure receives exactly the same `&mut T`
//! it would in a sequential loop, so parallel output is bit-identical to
//! serial output whenever the closure itself is deterministic per item —
//! scheduling order can never leak into results.
//!
//! Deadlock freedom under nesting: the submitting thread always
//! participates in draining its own batch, so a nested `parallel_*` call
//! from inside a pool worker makes progress even when every other worker is
//! busy. The caller returns only once every item has completed, which is
//! also what makes the lifetime erasure in [`pool`] sound.
//!
//! Panic policy: a panic inside the mapped closure is **caught per item**
//! and surfaced as a typed [`WorkerPanic`] in that item's result slot. It is
//! never propagated to the caller, so one crashing work item (a misbehaving
//! forecasting pipeline, a degenerate tree fit) cannot abort a long AutoML
//! run. Callers that require panic-free closures can still treat an `Err`
//! as a bug — but they decide, not the primitive.

use crate::sync::OrderedMutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A captured panic from a mapped closure: the typed error path for worker
/// crashes. Carries the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl WorkerPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        WorkerPanic { message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Invoke `f` on one item with panic isolation.
///
/// `AssertUnwindSafe` is sound here because on `Err` the caller only ever
/// observes the item through the returned error — every caller in this
/// workspace discards or quarantines an item whose closure panicked, so a
/// partially-mutated `T` is never used as a value again.
fn run_caught<T, R, F>(f: &F, item: &mut T) -> Result<R, WorkerPanic>
where
    F: Fn(&mut T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| WorkerPanic::from_payload(p.as_ref()))
}

/// The process-wide persistent worker pool.
///
/// Lifecycle: the first parallel call initializes `available_parallelism - 1`
/// parked workers (the calling thread is always the extra participant).
/// Workers never exit on their own; they park on an empty queue and are
/// unparked on submission. Two kinds of work flow through the shared queue,
/// both behind the single `par.pool` lock-order class:
///
/// * **Batches** — lifetime-erased fork/join maps submitted by
///   [`parallel_try_map_mut`]. The owner participates until completion, so
///   the erased context pointer never outlives its stack frame.
/// * **Jobs** — boxed `'static` closures used by [`supervised_try_map`]'s
///   worker loops. A job with no idle worker available gets a transient
///   worker (exits when the queue drains) so deadline supervision can never
///   be starved by a busy or wedged pool.
///
/// The `par.pool` lock is never held while running user code, spawning, or
/// acquiring any other lock, so it adds no edges to the lock-order graph
/// beyond its own leaf class.
mod pool {
    use crate::sync::OrderedMutex;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::thread::Thread;
    use std::time::Duration;

    /// One lifetime-erased fork/join batch: `run(data, i)` processes item
    /// `i` of `n` against the submitting caller's stack-held context.
    pub(super) struct Batch {
        /// Type-erased pointer to the caller's context. Only dereferenced by
        /// `run` for claimed indices `i < n`, all of which complete before
        /// the owner returns from [`run_batch`].
        data: *const (),
        /// Monomorphized trampoline supplied by the submitting call.
        run: fn(*const (), usize),
        /// Item count.
        n: usize,
        /// Work-queue cursor; each claim takes the next unclaimed index.
        next: AtomicUsize,
        /// Items fully processed; the batch is done at `completed == n`.
        completed: AtomicUsize,
        /// The submitting thread, unparked when the last item completes.
        owner: Thread,
    }

    // Soundness: `Batch` is shared with pool workers only through
    // `run_batch`, whose owner blocks until `completed == n`. A worker can
    // dereference `data` only for a claimed index `i < n`, and `completed`
    // reaches `n` only after every such claim has finished — so no worker
    // can touch `data` after the owner's stack frame ends. Cross-thread
    // `&mut` access to the underlying items is serialized by the per-item
    // locks inside the context, and the submitting call carries the
    // `T: Send, R: Send, F: Sync` bounds the sharing requires.
    #[allow(unsafe_code)]
    unsafe impl Send for Batch {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Batch {}

    impl Batch {
        /// Claim-and-run until the cursor is exhausted. Called by the owner
        /// (always) and by any pool workers that picked the batch up.
        fn drain(&self) {
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n {
                    break;
                }
                self.run_item(i);
            }
        }

        fn run_item(&self, i: usize) {
            // The trampoline catches item panics internally; this outer
            // catch is defensive — `completed` must advance even if the
            // bookkeeping around the closure ever unwound, or the owner
            // would wait forever.
            let _ = catch_unwind(AssertUnwindSafe(|| (self.run)(self.data, i)));
            let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if done >= self.n {
                self.owner.unpark();
            }
        }

        fn is_complete(&self) -> bool {
            self.completed.load(Ordering::Acquire) >= self.n
        }
    }

    /// Everything workers share, behind the single `par.pool` order class.
    struct Shared {
        batches: VecDeque<Arc<Batch>>,
        jobs: VecDeque<Box<dyn FnOnce() + Send>>,
        sleepers: Vec<Thread>,
    }

    struct Pool {
        shared: OrderedMutex<Shared>,
        /// Threads a batch can use: the persistent workers plus the
        /// submitting caller, fixed at initialization.
        threads: usize,
    }

    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

    /// The pool, initializing `available_parallelism - 1` persistent
    /// workers on first use. Spawn failures are harmless: with zero workers
    /// every batch still completes on its owner, and jobs fall back to
    /// transient spawns whose failure the submitter observes.
    fn get() -> &'static Arc<Pool> {
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(1, |v| v.get());
            let p = Arc::new(Pool {
                shared: OrderedMutex::new(
                    "par.pool",
                    Shared {
                        batches: VecDeque::new(),
                        jobs: VecDeque::new(),
                        sleepers: Vec::new(),
                    },
                ),
                threads,
            });
            for _ in 1..threads {
                let _ = spawn_worker(Arc::clone(&p), true);
            }
            p
        })
    }

    /// The pool's fixed thread count (workers plus the caller). Read once
    /// at initialization: `available_parallelism` reads cgroup files and
    /// costs tens of microseconds, too much to pay on every small batch.
    pub(super) fn threads() -> usize {
        get().threads
    }

    enum Work {
        Item(Arc<Batch>, usize),
        Job(Box<dyn FnOnce() + Send>),
    }

    /// One scan of the queues. Jobs are served before batch items: a job is
    /// a supervised worker loop whose items are deadline-watched, while a
    /// batch always has its owner draining it. When nothing is runnable a
    /// persistent worker registers itself as a sleeper (`register`);
    /// transient workers exit instead. `Err` means the shared state was
    /// poisoned — the worker quarantines itself by exiting.
    fn next_work(p: &Pool, register: bool) -> Result<Option<Work>, ()> {
        let Ok(mut shared) = p.shared.lock() else {
            return Err(());
        };
        if let Some(job) = shared.jobs.pop_front() {
            return Ok(Some(Work::Job(job)));
        }
        while let Some(front) = shared.batches.front() {
            let i = front.next.fetch_add(1, Ordering::Relaxed);
            if i < front.n {
                return Ok(Some(Work::Item(Arc::clone(front), i)));
            }
            // exhausted cursor: nothing left to claim, retire the batch
            // from the queue (its owner still waits on `completed`)
            shared.batches.pop_front();
        }
        if register {
            shared.sleepers.push(std::thread::current());
        }
        Ok(None)
    }

    fn worker_loop(p: Arc<Pool>, persistent: bool) {
        loop {
            match next_work(&p, persistent) {
                Ok(Some(Work::Item(batch, i))) => batch.run_item(i),
                Ok(Some(Work::Job(job))) => {
                    // Jobs isolate their own panics (supervised loops route
                    // them through `run_caught`); this catch is the same
                    // defensive backstop as in `run_item`.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
                Ok(None) => {
                    if !persistent {
                        return;
                    }
                    std::thread::park();
                }
                Err(()) => return,
            }
        }
    }

    fn spawn_worker(p: Arc<Pool>, persistent: bool) -> bool {
        let name = if persistent {
            "autoai-pool"
        } else {
            "autoai-pool-transient"
        };
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || worker_loop(p, persistent))
            .is_ok()
    }

    /// Run `n` erased work items on the pool, with the calling thread
    /// participating until every item has completed.
    ///
    /// Contract (what makes the erasure in [`Batch`] sound): `data` stays
    /// valid for the whole call, and `run(data, i)` is safe to invoke from
    /// any thread for each `i` in `0..n` (each index is claimed exactly
    /// once by the atomic cursor). This function returns only after
    /// `completed == n`, i.e. after the last dereference of `data`.
    pub(super) fn run_batch(data: *const (), run: fn(*const (), usize), n: usize) {
        let batch = Arc::new(Batch {
            data,
            run,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            owner: std::thread::current(),
        });
        let p = get();
        let sleepers = match p.shared.lock() {
            Ok(mut shared) => {
                shared.batches.push_back(Arc::clone(&batch));
                std::mem::take(&mut shared.sleepers)
            }
            // poisoned queue: skip submission entirely, the owner drains
            Err(_) => Vec::new(),
        };
        for t in sleepers {
            t.unpark();
        }
        // The owner drains its own batch: even with zero pool workers the
        // batch completes, and a nested call from inside a pool worker can
        // never deadlock — the submitting thread always makes progress.
        batch.drain();
        // Wait for stragglers still inside claimed items. The final item's
        // worker unparks the owner; the timeout only bounds the lost-wakeup
        // race window.
        while !batch.is_complete() {
            std::thread::park_timeout(Duration::from_millis(1));
        }
        if let Ok(mut shared) = p.shared.lock() {
            shared.batches.retain(|b| !Arc::ptr_eq(b, &batch));
        }
    }

    /// Queue a detached `'static` job (a supervised worker loop). Wakes an
    /// idle persistent worker when one exists; otherwise spawns a transient
    /// worker so the job is guaranteed to start even when every persistent
    /// worker is busy or wedged. Returns `false` only when the job could
    /// not be guaranteed a thread (queue poisoned, or the OS refused one).
    pub(super) fn spawn_job(job: Box<dyn FnOnce() + Send>) -> bool {
        let p = get();
        let sleeper = match p.shared.lock() {
            Ok(mut shared) => {
                shared.jobs.push_back(job);
                shared.sleepers.pop()
            }
            Err(_) => return false,
        };
        match sleeper {
            Some(t) => {
                t.unpark();
                true
            }
            None => spawn_worker(Arc::clone(p), false),
        }
    }

    /// Add one persistent worker. Called when deadline supervision
    /// quarantines a wedged closure that may be holding a pool thread
    /// hostage, so batch capacity is restored; growth is bounded by the
    /// number of quarantine events over the process lifetime.
    pub(super) fn add_worker() {
        let p = get();
        let _ = spawn_worker(Arc::clone(p), true);
    }
}

/// Per-item state for one [`parallel_try_map_mut`] batch: the borrowed item
/// and its take-once result slot, together behind one `par.cell` lock so a
/// claim needs exactly one acquisition.
struct MapSlot<'a, T, R> {
    item: &'a mut T,
    result: Option<Result<R, WorkerPanic>>,
}

/// The stack-held context a batch's erased `data` pointer targets.
struct MapCtx<'a, T, R, F> {
    cells: Vec<OrderedMutex<MapSlot<'a, T, R>>>,
    f: &'a F,
}

/// Monomorphized batch trampoline: process item `i` of the [`MapCtx`]
/// behind `data`.
///
/// The single dereference below is the entire unsafe surface of the pool.
/// It is sound by [`pool::run_batch`]'s contract: `data` was created from a
/// live `&MapCtx` by [`parallel_try_map_mut`], which does not return until
/// every claimed index has completed; distinct indices touch distinct
/// cells, and each cell serializes access behind its own lock. The
/// `T: Send`, `R: Send`, `F: Sync` bounds carry exactly the capabilities
/// cross-thread access to the context requires.
#[allow(unsafe_code)]
fn map_trampoline<T, R, F>(data: *const (), i: usize)
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    // SAFETY: see the function docs — `data` outlives the batch and points
    // at a `MapCtx<T, R, F>` matching this monomorphization.
    let ctx = unsafe { &*data.cast::<MapCtx<'_, T, R, F>>() };
    if let Some(cell) = ctx.cells.get(i) {
        if let Ok(mut slot) = cell.lock() {
            let result = run_caught(ctx.f, &mut *slot.item);
            slot.result = Some(result);
        }
    }
}

/// Threads a parallel map uses: the pool's persistent workers plus the
/// calling thread. Read once when the pool starts — `available_parallelism`
/// reads cgroup files on every call, too slow to repeat per round.
pub fn pool_threads() -> usize {
    pool::threads()
}

/// Map `f` over `items` in place, in parallel, returning per-item results in
/// input order. A panic inside `f` yields `Err(WorkerPanic)` for that item
/// only; all other items still complete. Falls back to a sequential loop for
/// short inputs or on single-core machines (with identical panic isolation).
///
/// Execution runs on the process-wide persistent [`pool`] — no threads are
/// spawned per call — with the calling thread participating as one worker.
/// Scheduling is a shared work queue: each worker repeatedly claims the next
/// unclaimed index, so skewed per-item costs do not serialize behind the
/// slowest contiguous chunk. Results are keyed by input index, making the
/// output bit-identical to the sequential fallback for deterministic
/// closures regardless of scheduling order. Nested calls are safe: the
/// submitting thread always drains its own batch, so progress never depends
/// on a free pool worker.
pub fn parallel_try_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || pool::threads() <= 1 {
        return items.iter_mut().map(|t| run_caught(&f, t)).collect();
    }

    // Each item sits behind its own lock; since every index is claimed by
    // exactly one worker the locks are uncontended — they exist to give
    // pool threads disjoint &mut access and to serialize the result slots.
    let cells: Vec<OrderedMutex<MapSlot<'_, T, R>>> = items
        .iter_mut()
        .map(|t| {
            OrderedMutex::new(
                "par.cell",
                MapSlot {
                    item: t,
                    result: None,
                },
            )
        })
        .collect();
    let ctx = MapCtx { cells, f: &f };
    let data = std::ptr::addr_of!(ctx).cast::<()>();
    pool::run_batch(data, map_trampoline::<T, R, F>, n);

    ctx.cells
        .into_iter()
        .map(|cell| match cell.lock() {
            Ok(mut slot) => slot.result.take().unwrap_or_else(|| {
                Err(WorkerPanic {
                    message: "worker thread died before returning a result".into(),
                })
            }),
            Err(_) => Err(WorkerPanic {
                message: "work item mutex poisoned".into(),
            }),
        })
        .collect()
}

/// Parallel map over the index range `0..n`, preserving order, with the same
/// per-item panic isolation as [`parallel_try_map_mut`].
pub fn parallel_try_map_range<R, F>(n: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut idx: Vec<usize> = (0..n).collect();
    parallel_try_map_mut(&mut idx, |i| f(*i))
}

/// Outcome of one item processed by [`supervised_try_map`].
#[derive(Debug)]
pub enum SupervisedOutcome<T, R> {
    /// The worker finished inside the hard deadline. The item comes back to
    /// the caller with any mutations applied, alongside the closure's result
    /// (or the panic it raised, caught per item as in
    /// [`parallel_try_map_mut`]).
    Completed {
        /// The work item, returned to the caller.
        item: T,
        /// The closure's return value, or the caught panic.
        result: Result<R, WorkerPanic>,
    },
    /// The worker blew the hard deadline and was quarantined: its loop was
    /// retired (it can never claim work again), the pool thread hosting it
    /// is left to the wedged closure, and the item is lost to the zombie —
    /// so only the timeout classification comes back.
    HardTimeout,
}

/// State shared between the monitor and its workers.
struct SupervisedShared<T, F> {
    /// Work-queue cursor: each worker claims the next unclaimed index.
    next: AtomicUsize,
    /// One take-once slot per input item.
    slots: Vec<OrderedMutex<Option<T>>>,
    /// Ids of quarantined workers. A retired worker exits at the top of its
    /// claim loop, so a zombie can never claim fresh work: retirement only
    /// ever happens while the worker is stuck *inside* the closure, and the
    /// retired check runs before every claim.
    retired: OrderedMutex<std::collections::HashSet<usize>>,
    f: F,
}

impl<T, F> SupervisedShared<T, F> {
    fn is_retired(&self, worker: usize) -> bool {
        self.retired
            .lock()
            .map(|set| set.contains(&worker))
            .unwrap_or(true)
    }

    fn retire(&self, worker: usize) {
        if let Ok(mut set) = self.retired.lock() {
            set.insert(worker);
        }
    }
}

enum SupervisedMsg<T, R> {
    /// A worker claimed an item and is about to run the closure. The monitor
    /// stamps the deadline clock when it *receives* this message, so the
    /// enforced bound is `hard_deadline` plus bounded messaging skew.
    Started { worker: usize, item: usize },
    /// A worker finished an item (successfully or with a caught panic).
    Finished {
        worker: usize,
        item: usize,
        value: Box<T>,
        result: Result<R, WorkerPanic>,
    },
}

/// Queue one supervised worker loop on the persistent pool; returns `false`
/// if the pool could not guarantee it a thread. The loop body is identical
/// to the pre-pool dedicated-thread version: claim an item, announce it,
/// run the closure with per-item panic isolation, report the outcome —
/// exiting as soon as the monitor retires this id or drops its receiver.
fn spawn_supervised_worker<T, R, F>(
    id: usize,
    shared: std::sync::Arc<SupervisedShared<T, F>>,
    tx: std::sync::mpsc::Sender<SupervisedMsg<T, R>>,
) -> bool
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(&mut T) -> R + Send + Sync + 'static,
{
    pool::spawn_job(Box::new(move || loop {
        if shared.is_retired(id) {
            return;
        }
        let idx = shared.next.fetch_add(1, Ordering::Relaxed);
        if idx >= shared.slots.len() {
            return;
        }
        let Some(slot) = shared.slots.get(idx) else {
            return;
        };
        let taken = match slot.lock() {
            Ok(mut guard) => guard.take(),
            Err(_) => None,
        };
        let Some(mut item) = taken else { continue };
        if tx
            .send(SupervisedMsg::Started {
                worker: id,
                item: idx,
            })
            .is_err()
        {
            // The monitor is gone; nothing can observe this worker.
            return;
        }
        let result = run_caught(&shared.f, &mut item);
        let finished = SupervisedMsg::Finished {
            worker: id,
            item: idx,
            value: Box::new(item),
            result,
        };
        if tx.send(finished).is_err() {
            return;
        }
    }))
}

/// Map `f` over owned `items` under a per-item **hard** wall-clock deadline,
/// returning per-item outcomes in input order.
///
/// Unlike [`parallel_try_map_mut`] — which must wait for every closure call
/// to return — this primitive is a supervised work queue: the calling thread
/// acts as a monitor while worker loops hosted on the persistent [`pool`]
/// pull items. A worker that runs one item past `hard_deadline` is
/// *quarantined*: its id is retired (it can never claim work again), the
/// item is reported as [`SupervisedOutcome::HardTimeout`], a fresh
/// replacement loop is queued so supervised capacity stays constant, and
/// one persistent pool worker is added to cover the thread the zombie may
/// be holding hostage. A late result from a quarantined zombie is
/// discarded, never surfaced. In the no-timeout path this costs **zero**
/// thread spawns: the loops run on parked pool workers.
///
/// This gives the caller a provable upper wall-time bound of roughly
/// `ceil(n / workers) * hard_deadline` plus scheduling overhead even when a
/// closure ignores every cooperative budget and never returns. The deadline
/// clock for an item starts when the monitor receives the worker's start
/// message, so the per-item bound has bounded messaging skew, not drift.
///
/// `workers` is clamped to `1..=items.len()`. With `workers == 1` this is a
/// sequential loop that still enforces the deadline (the monitor replaces a
/// wedged single worker so the remaining items are not starved).
pub fn supervised_try_map<T, R, F>(
    items: Vec<T>,
    hard_deadline: std::time::Duration,
    workers: usize,
    f: F,
) -> Vec<SupervisedOutcome<T, R>>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(&mut T) -> R + Send + Sync + 'static,
{
    use std::collections::HashMap;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let shared = std::sync::Arc::new(SupervisedShared {
        next: AtomicUsize::new(0),
        slots: items
            .into_iter()
            .map(|t| OrderedMutex::new("par.slot", Some(t)))
            .collect(),
        retired: OrderedMutex::new("par.retired", std::collections::HashSet::new()),
        f,
    });
    let (tx, rx) = mpsc::channel();
    let mut live_workers = 0usize;
    for id in 0..workers {
        if spawn_supervised_worker(id, std::sync::Arc::clone(&shared), tx.clone()) {
            live_workers += 1;
        }
    }
    let mut next_worker_id = workers;

    let mut outcomes: Vec<Option<SupervisedOutcome<T, R>>> = Vec::new();
    outcomes.resize_with(n, || None);
    let mut resolved = 0usize;
    // worker id -> (item index, moment its Started message arrived)
    let mut in_flight: HashMap<usize, (usize, Instant)> = HashMap::new();

    while resolved < n {
        if live_workers == 0 && in_flight.is_empty() {
            // Defensive: the pool refused every (replacement) loop and
            // nothing is running. Fill the remaining slots so the caller
            // still gets a total, typed answer instead of a hang.
            for slot in outcomes.iter_mut() {
                if slot.is_none() {
                    *slot = Some(SupervisedOutcome::HardTimeout);
                }
            }
            break;
        }
        // tscheck:allow(hash-iter): order-insensitive min over watchdog deadlines
        let wait = in_flight
            .values()
            .map(|&(_, started)| hard_deadline.saturating_sub(started.elapsed()))
            .min()
            .unwrap_or(Duration::from_millis(25))
            .min(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(SupervisedMsg::Started { worker, item }) => {
                in_flight.insert(worker, (item, Instant::now()));
            }
            Ok(SupervisedMsg::Finished {
                worker,
                item,
                value,
                result,
            }) => {
                in_flight.remove(&worker);
                if let Some(slot) = outcomes.get_mut(item) {
                    if slot.is_none() {
                        *slot = Some(SupervisedOutcome::Completed {
                            item: *value,
                            result,
                        });
                        resolved += 1;
                    }
                    // An occupied slot means the item already resolved as a
                    // HardTimeout: the sender is a quarantined zombie and its
                    // late result is discarded here, never surfaced.
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Unreachable while the monitor holds `tx`; purely defensive.
                break;
            }
        }
        // Deadline sweep: quarantine every worker whose current item has now
        // run past the hard deadline.
        // tscheck:allow(hash-iter): expiry sweep; outcomes are keyed per item, order-free
        let expired: Vec<(usize, usize)> = in_flight
            .iter()
            .filter(|&(_, &(_, started))| started.elapsed() >= hard_deadline)
            .map(|(&worker, &(item, _))| (worker, item))
            .collect();
        for (worker, item) in expired {
            in_flight.remove(&worker);
            shared.retire(worker);
            live_workers = live_workers.saturating_sub(1);
            if let Some(slot) = outcomes.get_mut(item) {
                if slot.is_none() {
                    *slot = Some(SupervisedOutcome::HardTimeout);
                    resolved += 1;
                }
            }
            // the wedged closure may be squatting on a persistent pool
            // thread: restore batch capacity alongside the replacement loop
            pool::add_worker();
            let id = next_worker_id;
            next_worker_id += 1;
            if spawn_supervised_worker(id, std::sync::Arc::clone(&shared), tx.clone()) {
                live_workers += 1;
            }
        }
    }

    outcomes
        .into_iter()
        .map(|slot| slot.unwrap_or(SupervisedOutcome::HardTimeout))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let mut items: Vec<usize> = (0..1000).collect();
        let out = parallel_try_map_mut(&mut items, |&mut i| i * 2);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mutates_in_place() {
        let mut items = vec![1, 2, 3, 4, 5];
        let _ = parallel_try_map_mut(&mut items, |i| {
            *i += 10;
            *i
        });
        assert_eq!(items, vec![11, 12, 13, 14, 15]);
    }

    #[test]
    fn empty_and_single() {
        let mut empty: Vec<i32> = vec![];
        assert!(parallel_try_map_mut(&mut empty, |&mut i| i).is_empty());
        let mut one = vec![7];
        let out = parallel_try_map_mut(&mut one, |&mut i| i + 1);
        assert_eq!(out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(), [8]);
    }

    #[test]
    fn range_map_matches_sequential() {
        let out = parallel_try_map_range(257, |i| i * i);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..257).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let mut items: Vec<usize> = (0..64).collect();
        let out = parallel_try_map_mut(&mut items, |&mut i| {
            if i % 7 == 3 {
                panic!("injected failure on {i}");
            }
            i + 1
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                let err = r.as_ref().unwrap_err();
                assert!(err.message.contains("injected failure"), "{err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i + 1);
            }
        }
    }

    #[test]
    fn panic_in_sequential_fallback_is_isolated_too() {
        let mut one = vec![0usize];
        let out = parallel_try_map_mut(&mut one, |_| -> usize { panic!("single item boom") });
        assert!(out[0].is_err());
    }

    #[test]
    fn string_and_str_payloads_are_preserved() {
        let out = parallel_try_map_range(2, |i| {
            if i == 0 {
                panic!("static str payload");
            } else {
                panic!("{}", format!("owned payload {i}"));
            }
        });
        let msgs: Vec<String> = out
            .into_iter()
            .map(|r: Result<(), WorkerPanic>| r.unwrap_err().message)
            .collect();
        assert!(msgs[0].contains("static str payload"));
        assert!(msgs[1].contains("owned payload 1"));
    }

    #[test]
    fn skewed_costs_still_complete() {
        // one expensive item among many cheap ones: the queue must not wedge
        let mut items: Vec<u64> = (0..32).collect();
        let out = parallel_try_map_mut(&mut items, |&mut i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out.into_iter().filter_map(|r| r.ok()).count(), 32);
    }

    #[test]
    fn repeated_calls_reuse_the_pool_and_stay_correct() {
        // fifty consecutive batches on one process-wide pool: results stay
        // sequential-identical on every round (pool reuse can't corrupt
        // slots or leak results across batches)
        for round in 0..50usize {
            let mut items: Vec<usize> = (0..37).collect();
            let out = parallel_try_map_mut(&mut items, |&mut i| i * 3 + round);
            let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..37).map(|i| i * 3 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallel_calls_do_not_deadlock() {
        // the owner of every batch participates in draining it, so nesting
        // can never wait on a free pool worker
        let mut outer: Vec<usize> = (0..8).collect();
        let out = parallel_try_map_mut(&mut outer, |&mut o| {
            let inner = parallel_try_map_range(16, move |i| o * 100 + i);
            inner.into_iter().map(|r| r.unwrap_or(0)).sum::<usize>()
        });
        for (o, r) in out.into_iter().enumerate() {
            let expect: usize = (0..16).map(|i| o * 100 + i).sum();
            assert_eq!(r.unwrap(), expect, "outer item {o}");
        }
    }

    #[test]
    fn nested_panics_stay_quarantined_per_level() {
        let out = parallel_try_map_range(4, |o| {
            let inner = parallel_try_map_range(6, move |i| {
                if (o + i) % 5 == 2 {
                    panic!("inner boom {o}/{i}");
                }
                i
            });
            inner.into_iter().filter(|r| r.is_ok()).count()
        });
        for (o, r) in out.into_iter().enumerate() {
            let expect = (0..6).filter(|i| (o + i) % 5 != 2).count();
            assert_eq!(r.unwrap(), expect, "outer item {o}");
        }
    }

    use std::time::Duration;

    #[test]
    fn supervised_completes_fast_items_in_order() {
        let items: Vec<usize> = (0..16).collect();
        let out = supervised_try_map(items, Duration::from_secs(10), 4, |i: &mut usize| {
            *i += 1;
            *i * 2
        });
        assert_eq!(out.len(), 16);
        for (i, o) in out.into_iter().enumerate() {
            match o {
                SupervisedOutcome::Completed { item, result } => {
                    assert_eq!(item, i + 1);
                    assert_eq!(result.unwrap(), (i + 1) * 2);
                }
                SupervisedOutcome::HardTimeout => panic!("item {i} timed out"),
            }
        }
    }

    #[test]
    fn supervised_quarantines_only_the_wedged_item() {
        let items: Vec<usize> = (0..8).collect();
        let start = std::time::Instant::now();
        let out = supervised_try_map(items, Duration::from_millis(150), 4, |i: &mut usize| {
            if *i == 3 {
                std::thread::sleep(Duration::from_secs(10));
            }
            *i
        });
        // the wedged zombie must not delay the monitor's return
        assert!(start.elapsed() < Duration::from_secs(5));
        for (i, o) in out.into_iter().enumerate() {
            match (i, o) {
                (3, SupervisedOutcome::HardTimeout) => {}
                (3, _) => panic!("wedged item survived"),
                (_, SupervisedOutcome::Completed { item, .. }) => assert_eq!(item, i),
                (_, SupervisedOutcome::HardTimeout) => panic!("healthy item {i} timed out"),
            }
        }
    }

    #[test]
    fn supervised_single_worker_is_still_deadline_bounded() {
        // with one worker, the wedged item would starve the rest without the
        // replacement-spawn machinery
        let items: Vec<usize> = (0..6).collect();
        let out = supervised_try_map(items, Duration::from_millis(150), 1, |i: &mut usize| {
            if *i == 0 {
                std::thread::sleep(Duration::from_secs(10));
            }
            *i
        });
        let completed = out
            .iter()
            .filter(|o| matches!(o, SupervisedOutcome::Completed { .. }))
            .count();
        assert_eq!(completed, 5);
        assert!(matches!(out.first(), Some(SupervisedOutcome::HardTimeout)));
    }

    #[test]
    fn supervised_catches_panics_per_item() {
        let items: Vec<usize> = (0..8).collect();
        let out = supervised_try_map(items, Duration::from_secs(10), 3, |i: &mut usize| {
            if *i % 3 == 1 {
                panic!("boom {i}", i = *i);
            }
            *i
        });
        for (i, o) in out.into_iter().enumerate() {
            let SupervisedOutcome::Completed { result, .. } = o else {
                panic!("item {i} timed out");
            };
            if i % 3 == 1 {
                assert!(result.unwrap_err().message.contains("boom"));
            } else {
                assert_eq!(result.unwrap(), i);
            }
        }
    }

    #[test]
    fn supervised_empty_input() {
        let out: Vec<SupervisedOutcome<usize, usize>> =
            supervised_try_map(Vec::new(), Duration::from_secs(1), 4, |i: &mut usize| *i);
        assert!(out.is_empty());
    }

    #[test]
    fn supervised_runs_interleave_with_batches() {
        // a supervised map (hosted on pool jobs) concurrent with batch
        // traffic from this thread: both must complete, neither may starve
        let items: Vec<usize> = (0..12).collect();
        let handle_input: Vec<usize> = (0..64).collect();
        let supervised = supervised_try_map(items, Duration::from_secs(10), 3, |i: &mut usize| {
            std::thread::sleep(Duration::from_millis(1));
            *i * 7
        });
        let mut batch = handle_input.clone();
        let out = parallel_try_map_mut(&mut batch, |&mut i| i + 1);
        assert_eq!(out.into_iter().filter_map(|r| r.ok()).count(), 64);
        assert_eq!(supervised.len(), 12);
        for (i, o) in supervised.into_iter().enumerate() {
            let SupervisedOutcome::Completed { result, .. } = o else {
                panic!("item {i} timed out");
            };
            assert_eq!(result.unwrap(), i * 7);
        }
    }
}
