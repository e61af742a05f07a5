//! The execution engine shared by every layer of the reproduction.
//!
//! Before this crate, each layer built its own [`SiteResolver`] (the corpus
//! generator, the browser, the validation bot, the survey runner and the
//! list experiments all called `SiteResolver::new` independently) and every
//! parallel sweep spawned fresh scoped threads. The engine bundles the
//! process-wide resources those layers actually want to share into one
//! cheap-to-clone handle, [`EngineContext`]:
//!
//! * an optional handle to the persistent work-stealing [`ThreadPool`], so
//!   nested sweeps (a scenario pipeline running experiments that fan out
//!   again) all execute on one set of workers;
//! * a concurrency-safe [`SiteResolver`] (sharded memo cache over the full
//!   vendored Public Suffix List), so a host's eTLD+1 is computed once for
//!   the whole pipeline instead of once per layer; and
//! * the [`SupervisionPolicy`] plus the run-level [`SupervisionReport`]
//!   monitor every supervised sweep reports into.
//!
//! The pool and the supervision vocabulary live in this crate's private
//! `pool` and `supervision` modules. The `EngineContext` methods are the
//! only way to run a sweep: the pool's own map functions and its
//! `execute`/`join2` are crate-private.
//!
//! The context is the one argument every pipeline stage's single entry
//! point takes: `CorpusGenerator::generate_with`,
//! `HistoryGenerator::generate_with`, `CategoryDatabase::classify_corpus_on`,
//! `PairGenerator::generate_on`, `SurveyRunner::run_on`,
//! `LoadEngine::run_on` and `Scenario::generate_with`. Its `par_*`
//! entry points are ordered and deterministic: results are keyed by input
//! index and per-task rngs are derived, so where the work runs never
//! changes what it computes.
//!
//! # Sequential mode
//!
//! [`EngineContext::sequential`] returns a context without a pool: its
//! `par_*` and [`join2`](EngineContext::join2) entry points run inline, in
//! order, on the calling thread. It is the *oracle* the property tests
//! compare the pooled pipeline against: `Scenario::generate_with` must
//! produce field-by-field identical output under both.

mod pool;
mod supervision;

pub use pool::ThreadPool;
use pool::{par_map_on, par_map_with_on};
pub use rws_domain::SiteResolver;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use supervision::panic_message;
pub use supervision::{QuarantineEntry, SupervisionPolicy, SupervisionReport, QUARANTINE_CAP};

/// The old name of [`EngineContext`]. It exists only so the frozen
/// benchmark harness, which imports it, keeps building; nothing else may
/// use it.
#[doc(hidden)]
pub use EngineContext as EngineBackend;

/// Below this many items [`EngineContext::par_map`] runs inline: queueing a
/// batch for a handful of elements costs more than it saves.
pub const MIN_PARALLEL_LEN: usize = 32;

/// The supervision plumbing a context carries: a policy plus the shared
/// run-level monitor that supervised sweeps merge into.
#[derive(Debug, Clone)]
struct Supervisor {
    policy: SupervisionPolicy,
    /// Clones share the monitor, so every layer a context is threaded
    /// through reports into one place; twins get a fresh one so oracle
    /// runs count independently.
    monitor: Arc<Mutex<SupervisionReport>>,
}

impl Supervisor {
    fn new(policy: SupervisionPolicy) -> Supervisor {
        Supervisor {
            policy,
            monitor: Arc::new(Mutex::new(SupervisionReport::new())),
        }
    }

    fn report(&self) -> SupervisionReport {
        self.monitor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn record(&self, sweep: &SupervisionReport) {
        self.monitor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(sweep);
    }
}

/// Shared execution context: one resolver, one pool, threaded end-to-end.
///
/// Clones share the same pool workers, the same resolver memo cache and
/// the same supervision monitor.
#[derive(Debug, Clone)]
pub struct EngineContext {
    /// The pool sweeps fan out on; `None` runs every entry point inline, in
    /// input order. A caller blocked in a pooled sweep or `join2` helps run
    /// other queued sweeps, so never hold a lock guard or a `thread_local!`
    /// borrow across a call to the `par_*` or `join2` entry points (the
    /// `pool` module doc lists every lock the workspace holds and why none
    /// spans a fan-out).
    pool: Option<ThreadPool>,
    resolver: SiteResolver,
    supervisor: Supervisor,
}

impl EngineContext {
    /// The production context: global thread pool + the process-wide
    /// resolver over the full vendored PSL snapshot.
    pub fn new() -> EngineContext {
        EngineContext::with_parts(ThreadPool::global().clone(), SiteResolver::full())
    }

    /// Global pool + a resolver over the small embedded PSL snapshot — the
    /// context unit tests run on (same fixture the seed tests pinned down).
    pub fn embedded() -> EngineContext {
        EngineContext::with_parts(ThreadPool::global().clone(), SiteResolver::embedded())
    }

    /// A context that executes everything inline on the calling thread,
    /// sharing the production resolver. This is the sequential oracle for
    /// the parallel-vs-sequential equivalence property tests.
    pub fn sequential() -> EngineContext {
        EngineContext {
            pool: None,
            resolver: SiteResolver::full(),
            supervisor: Supervisor::new(SupervisionPolicy::FailFast),
        }
    }

    /// A context over an explicit pool and resolver, fail-fast.
    pub fn with_parts(pool: ThreadPool, resolver: SiteResolver) -> EngineContext {
        EngineContext {
            pool: Some(pool),
            resolver,
            supervisor: Supervisor::new(SupervisionPolicy::FailFast),
        }
    }

    /// Replace the supervision policy, resetting the monitor: the returned
    /// context starts with a fresh [`SupervisionReport`], so a salvage run
    /// aggregates only its own sweeps.
    pub fn with_supervision(mut self, policy: SupervisionPolicy) -> EngineContext {
        self.supervisor = Supervisor::new(policy);
        self
    }

    /// A context with the same resolver handle (shared memo cache) but
    /// inline execution — the per-context twin used when benchmarking or
    /// property-testing pooled against sequential runs. The twin keeps the
    /// supervision policy but gets its own fresh monitor, so oracle runs
    /// count their sweeps independently.
    pub fn sequential_twin(&self) -> EngineContext {
        EngineContext {
            pool: None,
            resolver: self.resolver.clone(),
            supervisor: Supervisor::new(self.supervision()),
        }
    }

    /// The shared memoizing site resolver.
    pub fn resolver(&self) -> &SiteResolver {
        &self.resolver
    }

    /// The pool this context fans out on — `None` means every entry point
    /// runs inline, in input order, on the calling thread.
    pub fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }

    /// The supervision policy supervised sweeps run under.
    pub fn supervision(&self) -> SupervisionPolicy {
        self.supervisor.policy
    }

    /// A snapshot of the run-level supervision aggregate: every supervised
    /// sweep executed on this context (or a clone sharing its monitor).
    pub fn supervision_report(&self) -> SupervisionReport {
        self.supervisor.report()
    }

    /// Ordered parallel map with the short-input cutoff (see
    /// [`MIN_PARALLEL_LEN`]).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.len() < MIN_PARALLEL_LEN {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.par_map_coarse(items, f)
    }

    /// Ordered parallel map without the cutoff, for coarse per-element
    /// work (whole-experiment runs, per-set history replays, chunked
    /// corpus rendering).
    pub fn par_map_coarse<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.pool() {
            Some(pool) => par_map_on(pool, items, f),
            None => items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        }
    }

    /// Ordered parallel map with recycled scratch state: `state` seeds a
    /// small pool of per-worker values (cloned on demand), letting sweeps
    /// reuse buffers without allocating per element. Results must depend
    /// only on `(index, item)` so pooled and sequential runs agree.
    pub fn par_map_with<S, T, R, F>(&self, state: S, items: &[T], f: F) -> Vec<R>
    where
        S: Clone + Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        match self.pool() {
            Some(pool) if items.len() >= MIN_PARALLEL_LEN => par_map_with_on(pool, state, items, f),
            _ => {
                let mut scratch = state;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(&mut scratch, i, t))
                    .collect()
            }
        }
    }

    /// Ordered parallel map under the context's [`SupervisionPolicy`].
    /// Under fail-fast (the default) this is
    /// [`par_map_coarse`](EngineContext::par_map_coarse) (panics re-raise
    /// on the caller) with every result `Some`; under salvage, each task
    /// runs inside `catch_unwind` on the same `par_map_coarse` sweep, a
    /// panicking task is quarantined as `(stage, index, message)`, and its
    /// slot comes back `None` while the rest of the sweep completes.
    /// Returns the results together with this sweep's own
    /// [`SupervisionReport`], which is also merged into the context's
    /// monitor. Results and quarantine contents are scheduling-independent
    /// either way.
    pub fn par_map_supervised<T, R, F>(
        &self,
        stage: &str,
        items: &[T],
        f: F,
    ) -> (Vec<Option<R>>, SupervisionReport)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut failures = Vec::new();
        let out = match self.supervision() {
            SupervisionPolicy::FailFast => self
                .par_map_coarse(items, f)
                .into_iter()
                .map(Some)
                .collect(),
            SupervisionPolicy::Salvage => {
                let caught = self.par_map_coarse(items, |index, item| {
                    catch_unwind(AssertUnwindSafe(|| f(index, item)))
                        .map_err(|payload| panic_message(&*payload))
                });
                caught
                    .into_iter()
                    .enumerate()
                    .map(|(index, result)| match result {
                        Ok(value) => Some(value),
                        Err(message) => {
                            failures.push((index, message));
                            None
                        }
                    })
                    .collect()
            }
        };
        let mut sweep = SupervisionReport::new();
        sweep.record_sweep(stage, items.len(), failures);
        self.supervisor.record(&sweep);
        (out, sweep)
    }

    /// Run two closures, in parallel when pooled (either may execute on a
    /// worker thread), or inline in `a`-then-`b` order when sequential.
    pub fn join2<A, B, FA, FB>(&self, a: FA, b: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        match self.pool() {
            Some(pool) => pool.join2(a, b),
            None => {
                let ra = a();
                let rb = b();
                (ra, rb)
            }
        }
    }
}

impl Default for EngineContext {
    fn default() -> Self {
        EngineContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_domain::DomainName;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn pooled_and_sequential_maps_agree() {
        let pooled = EngineContext::new();
        let sequential = pooled.sequential_twin();
        let f = |i: usize, v: &u64| v * 13 + i as u64;
        // Empty and below-cutoff inputs run inline; the long one fans out.
        for len in [0, 3, 500] {
            let items: Vec<u64> = (0..len).collect();
            let want: Vec<u64> = items.iter().enumerate().map(|(i, v)| f(i, v)).collect();
            assert_eq!(pooled.par_map(&items, f), want);
            assert_eq!(sequential.par_map(&items, f), want);
            assert_eq!(pooled.par_map_coarse(&items, f), want);
            assert_eq!(sequential.par_map_coarse(&items, f), want);
        }
    }

    #[test]
    fn contexts_share_the_resolver_cache() {
        let ctx = EngineContext::new();
        let clone = ctx.clone();
        let host = dn("engine-shared.example.com");
        let a = ctx.resolver().registrable_domain(&host).unwrap();
        let b = clone.resolver().registrable_domain(&host).unwrap();
        assert_eq!(a, b);
        // The clone's lookup was answered from the shared cache.
        assert!(clone.resolver().stats().hits >= 1);
    }

    #[test]
    fn sequential_join2_runs_in_order() {
        let ctx = EngineContext::sequential();
        assert!(ctx.pool().is_none());
        let log = std::sync::Mutex::new(Vec::new());
        ctx.join2(
            || log.lock().unwrap().push("a"),
            || log.lock().unwrap().push("b"),
        );
        assert_eq!(*log.lock().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn embedded_context_uses_embedded_snapshot() {
        let ctx = EngineContext::embedded();
        // The embedded snapshot lacks the full list's com.ng rule.
        assert_eq!(
            ctx.resolver()
                .registrable_domain(&dn("www.example.com.ng"))
                .unwrap(),
            dn("com.ng")
        );
        let full = EngineContext::new();
        assert_eq!(
            full.resolver()
                .registrable_domain(&dn("www.example.com.ng"))
                .unwrap(),
            dn("example.com.ng")
        );
    }

    #[test]
    fn supervised_fail_fast_matches_par_map_and_counts_tasks() {
        let ctx = EngineContext::embedded();
        assert_eq!(ctx.supervision(), SupervisionPolicy::FailFast);
        let items: Vec<u64> = (0..100).collect();
        let (out, _) = ctx.par_map_supervised("stage", &items, |i, v| v + i as u64);
        let plain: Vec<Option<u64>> = ctx
            .par_map_coarse(&items, |i, v| v + i as u64)
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(out, plain);
        let report = ctx.supervision_report();
        // Only the supervised sweep records (par_map_coarse does not).
        assert_eq!(report.tasks_run, 100);
        assert_eq!(report.quarantined, 0);
        assert!(!report.degraded());
    }

    #[test]
    fn supervised_salvage_agrees_across_modes_and_records_quarantine() {
        // A forced 3-worker pool, so panics cross threads even on a
        // single-core host.
        let pooled = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::embedded())
            .with_supervision(SupervisionPolicy::Salvage);
        let sequential = pooled.sequential_twin();
        assert_eq!(sequential.supervision(), SupervisionPolicy::Salvage);
        let items: Vec<u64> = (0..200).collect();
        let task = |_: usize, v: &u64| {
            if v % 61 == 13 {
                panic!("poisoned work item {v}");
            }
            v * 3
        };
        let (a, sweep_a) = pooled.par_map_supervised("stage", &items, task);
        let (b, sweep_b) = sequential.par_map_supervised("stage", &items, task);
        assert_eq!(a, b);
        assert_eq!(sweep_a, sweep_b);
        assert_eq!(sweep_a.quarantined, 4);
        let indices: Vec<u64> = sweep_a.entries.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![13, 74, 135, 196]);
        assert_eq!(sweep_a.entries[0].stage, "stage");
        assert_eq!(sweep_a.entries[0].message, "poisoned work item 13");
        // Exactly the quarantined slots are empty; the rest kept their values.
        for (i, slot) in a.iter().enumerate() {
            if indices.contains(&(i as u64)) {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64 * 3));
            }
        }
        // The monitors are independent (twin got a fresh one) but agree.
        assert_eq!(pooled.supervision_report(), sequential.supervision_report());
        // Clones share the monitor.
        let clone = pooled.clone();
        assert_eq!(clone.supervision_report().quarantined, 4);
    }

    #[test]
    fn salvage_with_zero_panics_matches_fail_fast() {
        let fail_fast = EngineContext::embedded();
        let salvage = fail_fast
            .clone()
            .with_supervision(SupervisionPolicy::Salvage);
        let items: Vec<u64> = (0..700).collect();
        let task = |i: usize, v: &u64| v.wrapping_mul(7) ^ i as u64;
        let (salvaged, sweep) = salvage.par_map_supervised("stage", &items, task);
        assert!(!sweep.degraded());
        assert_eq!(sweep.tasks_run, 700);
        let unwrapped: Vec<u64> = salvaged.into_iter().map(Option::unwrap).collect();
        assert_eq!(unwrapped, fail_fast.par_map_coarse(&items, task));
    }

    #[test]
    fn salvage_records_non_string_payloads_generically() {
        let ctx = EngineContext::sequential().with_supervision(SupervisionPolicy::Salvage);
        let items: Vec<usize> = (0..4).collect();
        let (out, sweep) = ctx.par_map_supervised("stage", &items, |_, v| {
            if *v == 2 {
                std::panic::panic_any(1234usize);
            }
            *v
        });
        assert_eq!(out, vec![Some(0), Some(1), None, Some(3)]);
        assert_eq!(sweep.quarantined, 1);
        assert_eq!(sweep.entries[0].message, "non-string panic payload");
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
        let salvage = SupervisionPolicy::Salvage;
        let want = EngineContext::sequential()
            .with_supervision(salvage)
            .par_map_supervised("nested", &items, task);
        assert_eq!(want.1.quarantined, 6);
        for workers in [1, 3] {
            let ctx = EngineContext::with_parts(ThreadPool::new(workers), SiteResolver::embedded())
                .with_supervision(salvage);
            for _ in 0..10 {
                // A poisoned join2 batch would re-raise here.
                let (left, salvaged) = ctx.join2(
                    || ctx.par_map_coarse(&items, |_, v| v * 2).len(),
                    || ctx.par_map_supervised("nested", &items, task),
                );
                assert_eq!(left, items.len());
                assert_eq!(salvaged, want);
            }
        }
    }

    #[test]
    fn with_supervision_resets_the_monitor() {
        let ctx = EngineContext::embedded();
        let items: Vec<u64> = (0..10).collect();
        let _ = ctx.par_map_supervised("warmup", &items, |_, v| *v);
        assert_eq!(ctx.supervision_report().tasks_run, 10);
        let fresh = ctx.with_supervision(SupervisionPolicy::Salvage);
        assert_eq!(fresh.supervision_report().tasks_run, 0);
    }

    #[test]
    fn par_map_with_agrees_across_modes() {
        let pooled = EngineContext::new();
        let sequential = pooled.sequential_twin();
        let items: Vec<u32> = (0..200).collect();
        let f = |buf: &mut Vec<u8>, i: usize, v: &u32| {
            buf.clear();
            buf.extend_from_slice(&(v + i as u32).to_le_bytes());
            buf.iter().map(|b| *b as u32).sum::<u32>()
        };
        assert_eq!(
            pooled.par_map_with(Vec::new(), &items, f),
            sequential.par_map_with(Vec::new(), &items, f)
        );
    }
}
