//! A persistent work-stealing thread pool.
//!
//! PR 1's parallel sweeps spawned fresh scoped threads on every call; with
//! sweeps nested inside sweeps (a scenario pipeline running experiments that
//! each fan out again) the spawn cost stops being noise. [`ThreadPool`]
//! keeps one set of workers alive for the whole process and feeds them
//! *batches*: an index range `0..len` plus a job closure, claimed one index
//! at a time through an atomic cursor — the same element-granularity work
//! stealing the scoped implementation used, without the per-call spawns.
//!
//! Key properties:
//!
//! * **Caller helps.** [`ThreadPool::execute`] claims indices itself while
//!   waiting, so a pool with zero workers (the 1-core case) degenerates to
//!   an inline loop, and nested `execute` calls from inside a worker cannot
//!   deadlock: every blocked caller first drains its own batch, and the
//!   wait-for graph follows call-stack depth, which is acyclic.
//! * **Deterministic results.** Each index is claimed exactly once and
//!   writes its own slot, so [`par_map_on`] returns results in input order no
//!   matter how the indices interleave across threads.
//! * **Panic propagation.** A panicking job poisons its batch; the first
//!   payload is re-raised on the calling thread once the batch drains,
//!   matching `std::thread::scope` semantics closely enough for the
//!   workspace's tests.
//!
//! The process-wide instance is [`ThreadPool::global`], the pool every
//! production `EngineContext` fans out on; it runs
//! `available_parallelism() - 1` workers (the calling thread is the last
//! one), or the `RWS_POOL_THREADS` environment variable's count when set. Pool handles are cheap
//! to clone and share one set of workers; pools are expected to live for
//! the process (there is no shutdown — workers park on a condvar and cost
//! nothing while idle).

use crate::supervision::Quarantine;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A lifetime-erased `Fn(usize)` shared by every thread working a batch.
type Job = dyn Fn(usize) + Sync + 'static;

/// One unit of fan-out: `len` indices to feed through `job`.
struct Batch {
    /// Raw pointer to the caller's closure. Only dereferenced for indices
    /// claimed from `cursor` while `cursor < len`; the caller blocks in
    /// [`ThreadPool::execute`] until `finished == len`, so the pointee
    /// outlives every dereference.
    job: *const Job,
    len: usize,
    cursor: AtomicUsize,
    finished: AtomicUsize,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// Safety: `job` points at a `Sync` closure that the spawning caller keeps
// alive until the batch fully drains (see `execute`); everything else is
// atomics and mutexes.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    fn run_one(&self, index: usize) {
        if !self.panicked.load(Ordering::Relaxed) {
            // Safety: index < len was checked by the claimer, and the caller
            // keeps the closure alive until finished == len.
            let job = unsafe { &*self.job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(index))) {
                self.panicked.store(true, Ordering::Relaxed);
                // Poison-tolerant: a second panic while another thread held
                // this lock must not turn a diagnosable worker panic into an
                // opaque poisoned-lock abort — recover the inner value.
                let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.finished.fetch_add(1, Ordering::Release);
    }

    fn is_done(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.len
    }

    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.len
    }

    /// Claim and run indices until the cursor is exhausted.
    fn drain(&self) {
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.len {
                return;
            }
            self.run_one(index);
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// Workers wait here for new batches.
    work: Condvar,
    /// Callers wait here for their batch's stragglers.
    done: Condvar,
}

/// A handle to a persistent pool of worker threads. Cloning is cheap;
/// clones share the same workers.
#[derive(Clone)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers. Zero workers is valid: every
    /// [`execute`](Self::execute) then runs inline on the caller.
    pub fn new(threads: usize) -> ThreadPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        for worker_id in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rws-pool-{worker_id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        ThreadPool {
            shared,
            workers: threads,
        }
    }

    /// The process-wide pool: `available_parallelism() - 1` workers
    /// (overridable via `RWS_POOL_THREADS`), because the caller helps drain
    /// every batch — on a single core that leaves no workers at all, and the
    /// caller-helps path is the whole pool.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(default_thread_count()))
    }

    /// Number of worker threads (excluding helping callers).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Run `job(i)` for every `i in 0..len`, distributing indices across
    /// the pool's workers and the calling thread, and returning once all
    /// `len` indices have completed. Panics in `job` are re-raised here.
    pub fn execute(&self, len: usize, job: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        if self.workers == 0 || len == 1 {
            // Nothing to hand off — run inline (panics propagate naturally).
            for index in 0..len {
                job(index);
            }
            return;
        }

        // Safety: the batch only dereferences `job` for indices claimed
        // while `cursor < len`, and this function does not return until
        // `finished == len`, so the erased lifetime never outlives the
        // borrow.
        let job: *const Job = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const Job>(
                job as *const (dyn Fn(usize) + Sync),
            )
        };
        let batch = Arc::new(Batch {
            job,
            len,
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        });

        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.push_back(Arc::clone(&batch));
        }
        self.shared.work.notify_all();

        // Help: claim indices alongside the workers.
        batch.drain();

        // Wait for indices claimed by other threads to finish.
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        while !batch.is_done() {
            queue = self
                .shared
                .done
                .wait(queue)
                .expect("pool done condvar poisoned");
        }
        drop(queue);

        let payload = batch
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Run two closures, potentially in parallel, returning both results.
    /// No thread-identity guarantee: either closure may run on a worker.
    /// The zero-worker (inline) fallback runs `a` before `b`.
    pub fn join2<A, B, FA, FB>(&self, a: FA, b: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        let a = Mutex::new(Some(a));
        let b = Mutex::new(Some(b));
        let result_a: Mutex<Option<A>> = Mutex::new(None);
        let result_b: Mutex<Option<B>> = Mutex::new(None);
        self.execute(2, &|index| {
            if index == 0 {
                let f = a
                    .lock()
                    .expect("join2 slot")
                    .take()
                    .expect("join2 runs once");
                *result_a.lock().expect("join2 result") = Some(f());
            } else {
                let f = b
                    .lock()
                    .expect("join2 slot")
                    .take()
                    .expect("join2 runs once");
                *result_b.lock().expect("join2 result") = Some(f());
            }
        });
        (
            result_a
                .into_inner()
                .expect("join2 result")
                .expect("join2 ran"),
            result_b
                .into_inner()
                .expect("join2 result")
                .expect("join2 ran"),
        )
    }
}

fn default_thread_count() -> usize {
    if let Ok(value) = std::env::var("RWS_POOL_THREADS") {
        if let Ok(threads) = value.trim().parse::<usize>() {
            return threads.min(512);
        }
    }
    // The helping caller is the last worker.
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .saturating_sub(1)
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                // Drop batches whose cursor is exhausted — nothing left to
                // claim; completion is signalled through `finished`.
                queue.retain(|b| b.has_work());
                if let Some(batch) = queue.front() {
                    break Arc::clone(batch);
                }
                queue = shared.work.wait(queue).expect("pool work condvar poisoned");
            }
        };
        batch.drain();
        if batch.is_done() {
            // Wake the owning caller. Taking the queue lock orders this
            // notify after the caller's `is_done` check, avoiding the
            // lost-wakeup race.
            let _guard = shared.queue.lock().expect("pool queue poisoned");
            shared.done.notify_all();
        }
    }
}

/// Disjoint per-index result slots for [`par_map_on`]: every claimed index
/// writes exactly one slot, so the raw writes never alias.
struct Slots<'a, R> {
    ptr: *mut Option<R>,
    len: usize,
    _marker: PhantomData<&'a mut [Option<R>]>,
}

unsafe impl<R: Send> Send for Slots<'_, R> {}
unsafe impl<R: Send> Sync for Slots<'_, R> {}

impl<'a, R> Slots<'a, R> {
    fn new(slots: &'a mut [Option<R>]) -> Slots<'a, R> {
        Slots {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
            _marker: PhantomData,
        }
    }

    /// Safety: each index must be written at most once across all threads,
    /// which the batch cursor guarantees.
    unsafe fn put(&self, index: usize, value: R) {
        debug_assert!(index < self.len);
        *self.ptr.add(index) = Some(value);
    }
}

/// Pool-backed ordered map: apply `f` to every element, in parallel,
/// returning results in input order.
pub fn par_map_on<T, R, F>(pool: &ThreadPool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let slots = Slots::new(&mut out);
        pool.execute(n, &|index| {
            let result = f(index, &items[index]);
            // Safety: `index` is claimed exactly once by the batch cursor.
            unsafe { slots.put(index, result) };
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every claimed index writes its slot"))
        .collect()
}

/// Pool-backed map with reusable per-worker state: `state` seeds a small
/// recycling pool of scratch values (cloned on demand, returned after each
/// element), so expensive scratch (buffers, caches) is amortised across the
/// sweep without tying results to thread identity — output depends only on
/// `(index, item)`, keeping sweeps deterministic.
pub fn par_map_with_on<S, T, R, F>(pool: &ThreadPool, state: S, items: &[T], f: F) -> Vec<R>
where
    S: Clone + Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let prototype = Mutex::new(state);
    let spare: Mutex<Vec<S>> = Mutex::new(Vec::new());
    par_map_on(pool, items, |index, item| {
        let recycled = spare.lock().expect("scratch pool poisoned").pop();
        let mut scratch = recycled.unwrap_or_else(|| {
            prototype
                .lock()
                .expect("scratch prototype poisoned")
                .clone()
        });
        let result = f(&mut scratch, index, item);
        spare.lock().expect("scratch pool poisoned").push(scratch);
        result
    })
}

/// Render a panic payload as a message for the quarantine. Only string
/// payloads (the overwhelmingly common case — `panic!("…")`) carry their
/// text; anything else is recorded generically.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Salvage-mode pool map: like [`par_map_on`], but a panicking task is
/// caught via `catch_unwind` *inside* its job — the batch is never
/// poisoned — and recorded as `(index, panic message)` in the returned
/// [`Quarantine`]. The failed item's slot comes back as `None`; every other
/// task completes. Results and quarantine contents depend only on
/// `(items, f)`, never on scheduling: the quarantine is sorted by index
/// after the sweep drains, so pooled and sequential salvage sweeps are
/// identical (property-tested, including a forced 3-worker pool).
pub fn par_map_salvage_on<T, R, F>(
    pool: &ThreadPool,
    items: &[T],
    f: F,
) -> (Vec<Option<R>>, Quarantine)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let out = par_map_on(pool, items, |index, item| {
        match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
            Ok(value) => Some(value),
            Err(payload) => {
                failures
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((index, panic_message(&payload)));
                None
            }
        }
    });
    let failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    (out, Quarantine::from_failures(failures))
}

/// The sequential twin of [`par_map_salvage_on`]: tasks run inline in
/// input order, panics are caught the same way, and the quarantine comes
/// back identical — the oracle the salvage equivalence tests compare the
/// pooled sweep against.
pub fn map_salvage_seq<T, R, F>(items: &[T], f: F) -> (Vec<Option<R>>, Quarantine)
where
    F: Fn(usize, &T) -> R,
{
    let mut failures: Vec<(usize, String)> = Vec::new();
    let out = items
        .iter()
        .enumerate()
        .map(
            |(index, item)| match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
                Ok(value) => Some(value),
                Err(payload) => {
                    failures.push((index, panic_message(&payload)));
                    None
                }
            },
        )
        .collect();
    (out, Quarantine::from_failures(failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_map_matches_sequential() {
        let pool = ThreadPool::global();
        let items: Vec<u64> = (0..1000).collect();
        let mapped = par_map_on(pool, &items, |i, v| v * 3 + i as u64);
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        assert_eq!(mapped, sequential);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(
            par_map_on(&pool, &items, |_, v| v + 1),
            items.iter().map(|v| v + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_worker_pool_matches_sequential() {
        // Force real workers even when the host reports a single core, so
        // the cross-thread claim/notify paths are exercised everywhere.
        let pool = ThreadPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        let items: Vec<u64> = (0..2048).collect();
        let mapped = par_map_on(&pool, &items, |i, v| v.wrapping_mul(31) ^ i as u64);
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v.wrapping_mul(31) ^ i as u64)
            .collect();
        assert_eq!(mapped, sequential);
        let (a, b) = pool.join2(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn multi_worker_panics_reach_the_caller() {
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..512).collect();
        let _ = par_map_on(&pool, &items, |_, v| {
            if *v == 400 {
                panic!("worker boom");
            }
            *v
        });
    }

    #[test]
    fn nested_execution_completes() {
        let pool = ThreadPool::global();
        let outer: Vec<u64> = (0..8).collect();
        let totals = par_map_on(pool, &outer, |_, base| {
            let inner: Vec<u64> = (0..64).map(|i| base * 100 + i).collect();
            par_map_on(pool, &inner, |_, v| v * 2).iter().sum::<u64>()
        });
        let expected: Vec<u64> = outer
            .iter()
            .map(|base| (0..64).map(|i| (base * 100 + i) * 2).sum())
            .collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn join2_returns_both_and_orders_sequential_fallback() {
        let pool = ThreadPool::global();
        let (a, b) = pool.join2(|| 21 * 2, || "right".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "right");
        // Zero-worker pools run a before b on the caller.
        let order = Mutex::new(Vec::new());
        let seq = ThreadPool::new(0);
        let _ = seq.join2(
            || order.lock().unwrap().push('a'),
            || order.lock().unwrap().push('b'),
        );
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
    }

    #[test]
    fn par_map_with_reuses_scratch_without_affecting_results() {
        let pool = ThreadPool::global();
        let items: Vec<usize> = (0..300).collect();
        let results = par_map_with_on(pool, Vec::<u8>::with_capacity(64), &items, |buf, i, v| {
            buf.clear();
            buf.extend_from_slice(&(v + i).to_le_bytes());
            buf.iter().map(|b| *b as usize).sum::<usize>()
        });
        let expected: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(i, v)| (v + i).to_le_bytes().iter().map(|b| *b as usize).sum())
            .collect();
        assert_eq!(results, expected);
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn panics_reach_the_caller() {
        let pool = ThreadPool::global();
        let items: Vec<usize> = (0..200).collect();
        let _ = par_map_on(pool, &items, |_, v| {
            if *v == 77 {
                panic!("pool boom");
            }
            *v
        });
    }

    #[test]
    fn salvage_quarantines_panics_and_keeps_the_rest() {
        let pool = ThreadPool::new(3);
        let items: Vec<usize> = (0..512).collect();
        let task = |_: usize, v: &usize| {
            if v % 100 == 37 {
                panic!("poisoned work item {v}");
            }
            v * 2
        };
        let (pooled, pooled_q) = par_map_salvage_on(&pool, &items, task);
        let (seq, seq_q) = map_salvage_seq(&items, task);
        assert_eq!(pooled, seq);
        assert_eq!(pooled_q, seq_q);
        let indices: Vec<usize> = pooled_q.entries().iter().map(|t| t.index).collect();
        assert_eq!(indices, vec![37, 137, 237, 337, 437]);
        assert_eq!(pooled_q.entries()[0].message, "poisoned work item 37");
        for (i, slot) in pooled.iter().enumerate() {
            if indices.contains(&i) {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i * 2));
            }
        }
    }

    #[test]
    fn salvage_with_zero_panics_matches_fail_fast() {
        let pool = ThreadPool::global();
        let items: Vec<u64> = (0..700).collect();
        let task = |i: usize, v: &u64| v.wrapping_mul(7) ^ i as u64;
        let (salvaged, quarantine) = par_map_salvage_on(pool, &items, task);
        assert!(quarantine.is_empty());
        let fail_fast = par_map_on(pool, &items, task);
        let unwrapped: Vec<u64> = salvaged.into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(unwrapped, fail_fast);
    }

    #[test]
    fn salvage_records_non_string_payloads_generically() {
        let items: Vec<usize> = (0..4).collect();
        let (_, quarantine) = map_salvage_seq(&items, |_, v| {
            if *v == 2 {
                std::panic::panic_any(1234usize);
            }
            *v
        });
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine.entries()[0].message, "non-string panic payload");
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let pool = ThreadPool::global();
        let hits = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let items: Vec<u64> = (0..256).collect();
                    let sum: u64 = par_map_on(pool, &items, |_, v| *v).iter().sum();
                    assert_eq!(sum, 255 * 256 / 2);
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
