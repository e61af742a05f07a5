//! Load engine: hammer the frozen web with simulated browser traffic.
//!
//! Everything the paper measures is request traffic — crawls of every set
//! member's `/.well-known/related-website-set.json`, page fetches for the
//! similarity analysis, per-vendor storage-partitioning decisions on each
//! response. This crate turns that workload into a *load generator*: up to
//! hundreds of thousands of simulated browser clients replayed through the
//! [`EngineContext`](rws_engine::EngineContext) pool against the frozen
//! [`FrozenWeb`](rws_net::FrozenWeb) page store, the "millions of users" leg
//! of the roadmap's north star made measurable.
//!
//! # Model
//!
//! Each client is a deterministic state machine driven by its own
//! rng stream (derived from the run seed and the client id, so results are
//! independent of scheduling):
//!
//! * a session of Poisson-many page visits over a skewed host popularity
//!   distribution, mixed GET/HEAD, `/` and `/about` paths;
//! * redirect-following via vanity entry hosts registered on top of the
//!   frozen snapshot;
//! * `.well-known/related-website-set.json` probes;
//! * a per-vendor (`VendorPolicy::ALL`) storage-partitioning decision on
//!   every successful page response;
//! * a simulated clock: per-response `latency_ms` accumulation, simulated
//!   connection setup and keep-alive reuse, exponential think time.
//!
//! Clients run over a simulated-clock event loop (a binary heap of
//! next-action times) in fixed chunks fanned out on the pool. All
//! aggregation is integer arithmetic into a mergeable
//! [`LatencyHistogram`](rws_stats::LatencyHistogram) and counter set, so a
//! pooled run, its sequential twin, and the straight one-client-at-a-time
//! [`replay_sequential_with`](LoadEngine::replay_sequential_with) oracle produce
//! *identical* [`LoadReport`]s field for field — property-tested, like
//! every other pooled subsystem in this workspace.
//!
//! # Resilience
//!
//! A target can carry transient weather: [`LoadTarget::with_faults`]
//! installs a deterministic [`FaultPlan`] (refusals, latency spikes past
//! the deadline, 5xx bursts, truncated bodies, redirect storms) and
//! [`LoadTarget::with_retry`] gives clients a [`RetryPolicy`] whose
//! backoff passes on the *simulated* clock with jitter from each client's
//! derived rng stream. The report then aggregates retries, retry-success
//! rate, a time-to-first-success histogram and availability — and the
//! pooled ≡ sequential ≡ replay equality holds under a full fault storm,
//! because fault schedules are pure `(seed, host, per-client ordinal)`
//! functions with no shared state.
//!
//! # Supervised execution
//!
//! Every run is one windowed chunk sweep; each chunk accounts its own
//! wire requests. Sweeps run under the context's [`SupervisionPolicy`]:
//! fail-fast by default, or — under salvage — a panicking chunk is quarantined into
//! `report.supervision` while the surviving chunks' partials still merge
//! exactly. Long runs can also be checkpointed:
//! [`LoadEngine::run_checkpointed`] serialises a [`LoadCheckpoint`]
//! (chunk watermark + merged partial report) into a [`CheckpointSink`]
//! every few windows and continues from the sink's latest checkpoint, so
//! calling it again on the sink of a killed run finishes with a report
//! field-for-field equal to an uninterrupted one.
//!
//! ```
//! use rws_corpus::{CorpusConfig, CorpusGenerator};
//! use rws_engine::EngineContext;
//! use rws_load::{LoadEngine, LoadScale, LoadTarget};
//!
//! let corpus =
//!     CorpusGenerator::new(CorpusConfig::small(7)).generate_with(&EngineContext::embedded());
//! let target = LoadTarget::from_corpus_sharded(&corpus);
//! let engine = LoadEngine::new(target, LoadScale::smoke());
//! let ctx = EngineContext::new();
//! let report = engine.run_on(42, &ctx);
//! assert!(report.fetch_calls > 0);
//! assert_eq!(report, engine.run_on(42, &ctx)); // deterministic for a fixed seed
//! ```

pub mod client;
pub mod engine;
pub mod report;
pub mod scale;
pub mod target;

pub use engine::{LoadCheckpoint, LoadEngine};
pub use report::{LoadReport, VendorTally};
pub use scale::LoadScale;
pub use target::LoadTarget;

// Resilience knobs, re-exported so load consumers (tests, benches) can
// configure weather without depending on rws-net directly.
pub use rws_net::{FaultPlan, FaultScale, FetchSession, RetryPolicy};

// Supervision and checkpointing vocabulary, re-exported for the same
// reason: tests and benches configure salvage runs and sinks through the
// load crate alone.
pub use rws_engine::{SupervisionPolicy, SupervisionReport};
pub use rws_stats::{CheckpointSink, FileSink, MemorySink};
