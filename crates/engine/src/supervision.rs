//! Supervision of parallel sweeps: panic quarantine and degradation
//! accounting.
//!
//! The pool's default contract is *fail-fast*: one panicking task poisons
//! its batch and the panic is re-raised on the caller (see the `pool`
//! module). A production-scale replay wants the opposite posture for
//! poisoned work items: quarantine the failure, keep the rest of the batch,
//! and surface the degradation loudly in the run's report. This module
//! holds the vocabulary both postures share:
//!
//! * [`SupervisionPolicy`] — fail-fast (default) or salvage, where a single
//!   sweep retains at most [`QUARANTINE_CAP`] quarantine entries;
//! * [`SupervisionReport`] — the run-level aggregate (tasks run, tasks
//!   quarantined, cap trips, retained entries), mergeable across partial
//!   reports with the same order-independent integer arithmetic the load
//!   report uses.
//!
//! Determinism contract: a sweep's quarantine depends only on `(items,
//! task function)` — which tasks panic is a pure property of the task,
//! [`SupervisionReport::record_sweep`] sorts the `(index, message)`
//! failures by task index, and the cap is applied to the *sorted* list —
//! so the same sweep quarantines the same tasks with the same retained
//! entries under any scheduling, pooled or sequential. The property tests
//! pin this across seeds and a forced 3-worker pool.

use serde::{Deserialize, Serialize};
use std::any::Any;

/// Number of quarantine entries a single sweep may retain in a report.
/// Counts (`quarantined`) are always exact; the cap only bounds the
/// per-entry detail kept for diagnosis.
pub const QUARANTINE_CAP: usize = 64;

/// How a supervised sweep treats a panicking task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SupervisionPolicy {
    /// Re-raise the first panic on the caller once the batch drains — the
    /// pool's historical behaviour and still the default.
    #[default]
    FailFast,
    /// Catch each task's panic, record `(index, message)` as a quarantine
    /// entry, substitute nothing for the failed item, and let the rest of
    /// the batch complete. One sweep retains at most [`QUARANTINE_CAP`]
    /// entries (counts stay exact; exceeding the cap trips `cap_trips`).
    Salvage,
}

/// Render a panic payload as a quarantine message. Only string payloads
/// (the overwhelmingly common case — `panic!("…")`) carry their text;
/// anything else is recorded generically.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A quarantine entry as retained in a [`SupervisionReport`]: the sweep's
/// stage label plus the task's index and message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Which supervised sweep the task belonged to (`"classify"`,
    /// `"survey"`, `"history"`, `"load-chunk"`, `"experiment"`, …).
    pub stage: String,
    /// The task's index within its sweep.
    pub index: u64,
    /// The panic message.
    pub message: String,
}

/// Run-level supervision aggregate: how many tasks ran, how many were
/// quarantined, how often a sweep overflowed [`QUARANTINE_CAP`], and the
/// retained per-task entries. Every field is an integer sum or a sorted
/// list concatenation, so partial reports merge to the same value in any
/// order — the same invariant `rws_load::LoadReport` relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionReport {
    /// Tasks dispatched through supervised sweeps (fail-fast or salvage).
    pub tasks_run: u64,
    /// Tasks caught panicking and quarantined (exact, uncapped).
    pub quarantined: u64,
    /// Sweeps whose quarantine exceeded [`QUARANTINE_CAP`] (entry detail
    /// was truncated; counts stayed exact).
    pub cap_trips: u64,
    /// Retained quarantine entries, sorted by `(stage, index)`.
    pub entries: Vec<QuarantineEntry>,
}

impl SupervisionReport {
    /// An empty report.
    pub fn new() -> SupervisionReport {
        SupervisionReport::default()
    }

    /// Fold one sweep into the report: `tasks` tasks ran at `stage` and
    /// the sweep's `(index, panic message)` failures, in any order, were
    /// quarantined. The failures are sorted by task index and the lowest
    /// [`QUARANTINE_CAP`] are retained as entries; the counts stay exact.
    pub fn record_sweep(&mut self, stage: &str, tasks: usize, mut failures: Vec<(usize, String)>) {
        self.tasks_run += tasks as u64;
        self.quarantined += failures.len() as u64;
        if failures.len() > QUARANTINE_CAP {
            self.cap_trips += 1;
        }
        failures.sort_by_key(|&(index, _)| index);
        for (index, message) in failures.into_iter().take(QUARANTINE_CAP) {
            self.entries.push(QuarantineEntry {
                stage: stage.to_string(),
                index: index as u64,
                message,
            });
        }
        self.sort_entries();
    }

    /// Fold another report into this one (order-independent).
    pub fn merge(&mut self, other: &SupervisionReport) {
        self.tasks_run += other.tasks_run;
        self.quarantined += other.quarantined;
        self.cap_trips += other.cap_trips;
        self.entries.extend(other.entries.iter().cloned());
        self.sort_entries();
    }

    /// True if any task was quarantined — the run completed degraded.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0
    }

    fn sort_entries(&mut self) {
        self.entries
            .sort_by(|a, b| (a.stage.as_str(), a.index).cmp(&(b.stage.as_str(), b.index)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_to_fail_fast() {
        assert_eq!(SupervisionPolicy::default(), SupervisionPolicy::FailFast);
    }

    #[test]
    fn record_sweep_sorts_failures_by_index() {
        let mut report = SupervisionReport::new();
        // One failure more than the cap, pushed in descending index order.
        let failures: Vec<(usize, String)> = (0..=QUARANTINE_CAP)
            .rev()
            .map(|i| (i, format!("boom {i}")))
            .collect();
        report.record_sweep("stage", 100, failures);
        let indices: Vec<u64> = report.entries.iter().map(|e| e.index).collect();
        // Sorted before the cap applies, so the lowest indices survive.
        assert_eq!(indices, (0..QUARANTINE_CAP as u64).collect::<Vec<_>>());
        assert_eq!(report.entries[0].message, "boom 0");
        assert_eq!(report.quarantined, QUARANTINE_CAP as u64 + 1);
    }

    #[test]
    fn record_sweep_caps_entries_but_not_counts() {
        let mut report = SupervisionReport::new();
        let failures = (0..QUARANTINE_CAP + 10)
            .map(|i| (i, format!("boom {i}")))
            .collect();
        report.record_sweep("stage-a", 100, failures);
        assert_eq!(report.tasks_run, 100);
        assert_eq!(report.quarantined, QUARANTINE_CAP as u64 + 10);
        assert_eq!(report.cap_trips, 1);
        assert_eq!(report.entries.len(), QUARANTINE_CAP);
        assert!(report.degraded());
        // The retained entries are the lowest indices (the sorted prefix).
        assert_eq!(report.entries[0].index, 0);
        assert_eq!(
            report.entries[QUARANTINE_CAP - 1].index,
            QUARANTINE_CAP as u64 - 1
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = SupervisionReport::new();
        a.record_sweep("zeta", 4, vec![(3, "z".into())]);
        let mut b = SupervisionReport::new();
        b.record_sweep("alpha", 6, vec![(1, "a".into())]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.tasks_run, 10);
        assert_eq!(ab.quarantined, 2);
        assert_eq!(ab.entries[0].stage, "alpha");
    }

    #[test]
    fn serde_round_trip() {
        let mut report = SupervisionReport::new();
        report.record_sweep("classify", 12, vec![(7, "poisoned work item".into())]);
        let json = serde_json::to_string(&report).unwrap();
        let back: SupervisionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
