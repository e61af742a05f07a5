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
//! * **Helping waits.** [`ThreadPool::execute`] first drains its own batch
//!   alongside the workers. While other threads finish the indices they
//!   claimed, the caller runs indices of other queued batches, oldest
//!   first, and sleeps only when none has work left. Idle workers run the
//!   same loop. So a fan-out nested under [`join2`](ThreadPool::join2) is
//!   drained by every thread, not only by the one that queued it, and a
//!   pool with zero workers (the 1-core case) degenerates to an inline
//!   loop.
//! * **No deadlock.** Nesting is tree-shaped: a batch is queued by a
//!   top-level caller or by a task of an earlier batch. Every waiter has
//!   drained its own batch, so a stalled batch has no claimable index, only
//!   indices other threads claimed and are still running. Take the most
//!   recently claimed unfinished index: nothing newer sits above it on
//!   its thread's stack, so that thread is either running it or waiting
//!   on the child batch it queued. That child's open indices were claimed
//!   later still, which contradicts the choice, so the thread is running
//!   and the pool makes progress.
//! * **Bounded stacks.** Helpers take the oldest batch with work, so
//!   another thread claims an index of batch `C` only once every batch
//!   queued before `C` is exhausted. A caller still waiting on `C` can
//!   therefore only help batches queued after it. It never re-enters an
//!   outer fan-out, so its stack does not grow with the width of the
//!   fan-outs it is nested in.
//! * **No lock or `RefCell` borrow across a fan-out.** A thread waiting in
//!   `execute` may run an unrelated task. Code must not hold a lock guard
//!   or a `thread_local!` borrow across a `par_*` or `join2` call:
//!   the unrelated task could take the same lock (self-deadlock) or
//!   borrow the same cell (panic). Every current holder computes outside
//!   its guard: `ShardedMemo::get_or_insert_with`, the scratch mutexes of
//!   [`par_map_with_on`], the slot and result mutexes of `join2`, the
//!   engine's supervision monitor, the corpus generator's page table
//!   (each render task locks it only to insert its finished hosts), and
//!   the thread-local DP scratch in `rws_domain`'s Levenshtein kernel.
//! * **Deterministic results.** Each index is claimed exactly once and
//!   writes its own slot, so [`par_map_on`] returns results in input order no
//!   matter how the indices interleave across threads.
//! * **Panic propagation.** A panicking job poisons its own batch, whichever
//!   thread ran it; the first payload is re-raised on the batch's caller
//!   once the batch drains, matching `std::thread::scope` semantics closely
//!   enough for the workspace's tests. A helper's own batch is untouched.
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

    /// Claim and run indices until the cursor is exhausted or `stop()`.
    fn drain(&self, stop: &dyn Fn() -> bool) {
        while !stop() {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.len {
                return;
            }
            self.run_one(index);
        }
    }
}

struct Shared {
    /// Queued batches, oldest first.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    /// Signalled when a batch is queued or finishes; idle workers and
    /// waiting callers both sleep here.
    wake: Condvar,
}

impl Shared {
    /// The pool's one scheduling loop, run by idle workers (forever) and by
    /// callers waiting for their batch (until `done()`). It claims indices
    /// from the oldest queued batch that still has work, and sleeps only
    /// when there is none.
    fn help_until(&self, done: impl Fn() -> bool) {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        while !done() {
            // Drop batches whose cursor is exhausted — nothing left to
            // claim; completion is signalled through `finished`.
            queue.retain(|b| b.has_work());
            let Some(batch) = queue.front().cloned() else {
                queue = self.wake.wait(queue).expect("pool condvar poisoned");
                continue;
            };
            drop(queue);
            batch.drain(&done);
            queue = self.queue.lock().expect("pool queue poisoned");
            if batch.is_done() {
                // Notifying under the queue lock orders this after the
                // owner's `done()` check, so the wakeup cannot be lost.
                self.wake.notify_all();
            }
        }
    }
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
            wake: Condvar::new(),
        });
        for worker_id in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rws-pool-{worker_id}"))
                .spawn(move || shared.help_until(|| false))
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
    ///
    /// The caller drains its own batch first. While other threads finish
    /// the indices they claimed, it helps the other queued batches (a
    /// fan-out nested in a sibling task, say) and sleeps only when none has
    /// work. It may therefore run unrelated tasks before returning, so hold
    /// no lock guard or `thread_local!` borrow across this call. The module
    /// doc explains why this cannot deadlock.
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
        // Wakes idle workers and waiting callers alike: both may help.
        self.shared.wake.notify_all();

        batch.drain(&|| false);
        self.shared.help_until(|| batch.is_done());

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
                // No guard is held while `f` runs (see the module doc).
                let value = f();
                *result_a.lock().expect("join2 result") = Some(value);
            } else {
                let f = b
                    .lock()
                    .expect("join2 slot")
                    .take()
                    .expect("join2 runs once");
                let value = f();
                *result_b.lock().expect("join2 result") = Some(value);
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
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

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

    /// Spin until `ready()` holds or `deadline` passes.
    fn spin_until(ready: impl Fn() -> bool, deadline: Instant) {
        while !ready() && Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// `join2(a, b)` on one worker plus the caller, where `b` fans out and
    /// `a` cannot return before that fan-out is queued. Every item holds
    /// until a second thread has joined the fan-out (or a deadline passes,
    /// which only a pool whose waits sleep reaches). Returns the threads
    /// that ran the fan-out's items.
    fn nested_fan_out_threads(pool: &ThreadPool) -> HashSet<ThreadId> {
        let deadline = deadline();
        let started = AtomicBool::new(false);
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        pool.join2(
            || spin_until(|| started.load(Ordering::Acquire), deadline),
            || {
                par_map_on(pool, &items, |_, _| {
                    started.store(true, Ordering::Release);
                    seen.lock().unwrap().insert(std::thread::current().id());
                    spin_until(|| seen.lock().unwrap().len() >= 2, deadline);
                })
            },
        );
        seen.into_inner().unwrap()
    }

    #[test]
    fn fan_out_nested_under_join2_runs_on_every_thread() {
        // The caller finishes `a` while the worker is inside `b`'s batch;
        // a sleeping wait would leave that batch to the worker alone.
        let pool = ThreadPool::new(1);
        for round in 0..20 {
            assert_eq!(nested_fan_out_threads(&pool).len(), 2, "round {round}");
        }
    }

    /// join2 ∘ par_map ∘ join2 ∘ par_map, the scenario pipeline's shape.
    fn nested_pipeline(pool: &ThreadPool, seed: u64) -> (u64, Vec<u64>) {
        pool.join2(
            || seed.wrapping_mul(3),
            || {
                let outer: Vec<u64> = (0..40).map(|i| seed + i).collect();
                par_map_on(pool, &outer, |_, v| {
                    let (x, inner) = pool.join2(
                        || v.wrapping_mul(7),
                        || {
                            let items: Vec<u64> = (0..40).map(|i| v ^ i).collect();
                            par_map_on(pool, &items, |i, w| w.wrapping_mul(31) + i as u64)
                                .iter()
                                .sum::<u64>()
                        },
                    );
                    x.wrapping_add(inner)
                })
            },
        )
    }

    #[test]
    fn deeply_nested_fan_outs_complete_and_match_inline() {
        let inline = ThreadPool::new(0);
        for workers in [1, 3] {
            let pool = ThreadPool::new(workers);
            for seed in 0..100 {
                assert_eq!(
                    nested_pipeline(&pool, seed),
                    nested_pipeline(&inline, seed),
                    "workers {workers}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn waiters_never_reenter_an_older_batch() {
        // A thread waiting on an inner batch must not pick up another
        // outer item: that would stack outer tasks on one thread, as deep
        // as the outer fan-out is wide.
        thread_local! {
            static OUTER_DEPTH: Cell<usize> = const { Cell::new(0) };
        }
        let deepest = AtomicUsize::new(0);
        for workers in [1, 1, 3, 3] {
            let pool = ThreadPool::new(workers);
            let outer: Vec<u64> = (0..64).collect();
            par_map_on(&pool, &outer, |_, base| {
                let depth = OUTER_DEPTH.with(|d| {
                    d.set(d.get() + 1);
                    d.get()
                });
                deepest.fetch_max(depth, Ordering::Relaxed);
                let inner: Vec<u64> = (0..16).map(|i| base + i).collect();
                par_map_on(&pool, &inner, |_, v| {
                    spin_until(|| false, Instant::now() + Duration::from_micros(20));
                    *v
                });
                OUTER_DEPTH.with(|d| d.set(d.get() - 1));
            });
        }
        assert_eq!(deepest.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helper_records_foreign_panics_in_their_own_batch() {
        // The items of `b`'s fan-out that the helping caller runs panic;
        // the panic must poison that fan-out, not the join2 batch the
        // caller is waiting on.
        let pool = ThreadPool::new(1);
        let deadline = deadline();
        let started = AtomicBool::new(false);
        let caller_joined = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let ((), nested) = pool.join2(
            || spin_until(|| started.load(Ordering::Acquire), deadline),
            || {
                catch_unwind(AssertUnwindSafe(|| {
                    par_map_on(&pool, &items, |_, _| {
                        started.store(true, Ordering::Release);
                        if std::thread::current().id() == caller {
                            caller_joined.store(true, Ordering::Release);
                            panic!("nested boom");
                        }
                        spin_until(|| caller_joined.load(Ordering::Acquire), deadline);
                    })
                }))
            },
        );
        let payload = nested.expect_err("the caller helped and panicked");
        assert_eq!(panic_message(&payload), "nested boom");
    }

    #[test]
    fn salvage_nested_under_join2_matches_sequential() {
        let items: Vec<usize> = (0..300).collect();
        let task = |_: usize, v: &usize| {
            if v % 50 == 7 {
                panic!("nested item {v}");
            }
            v + 1
        };
        let want = map_salvage_seq(&items, task);
        for workers in [1, 3] {
            let pool = ThreadPool::new(workers);
            for _ in 0..10 {
                // A poisoned join2 batch would re-raise here.
                let (left, salvaged) = pool.join2(
                    || par_map_on(&pool, &items, |_, v| v * 2).len(),
                    || par_map_salvage_on(&pool, &items, task),
                );
                assert_eq!(left, items.len());
                assert_eq!(salvaged, want);
                assert_eq!(salvaged.1.len(), 6);
            }
        }
    }

    #[test]
    fn fail_fast_nested_panic_reraises_from_join2() {
        for workers in [1, 3] {
            let pool = ThreadPool::new(workers);
            let items: Vec<usize> = (0..300).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.join2(
                    || par_map_on(&pool, &items, |_, v| *v).len(),
                    || {
                        par_map_on(&pool, &items, |_, v| {
                            if *v == 123 {
                                panic!("fail-fast nested");
                            }
                            *v
                        })
                    },
                )
            }));
            let payload = outcome.expect_err("nested panic reaches join2's caller");
            assert_eq!(panic_message(&payload), "fail-fast nested");
        }
    }
}
