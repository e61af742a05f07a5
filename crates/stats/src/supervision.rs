//! Supervision of parallel sweeps: panic quarantine and degradation
//! accounting.
//!
//! The pool's default contract is *fail-fast*: one panicking task poisons
//! its batch and the panic is re-raised on the caller (see
//! [`pool`](crate::pool)). A production-scale replay wants the opposite
//! posture for poisoned work items: quarantine the failure, keep the rest
//! of the batch, and surface the degradation loudly in the run's report.
//! This module holds the vocabulary both postures share:
//!
//! * [`SupervisionPolicy`] — fail-fast (default) or salvage with a cap on
//!   how many quarantine entries a single sweep may retain;
//! * [`Quarantine`] — the `(index, panic message)` list one salvage sweep
//!   produced, sorted by index so pooled and sequential runs agree;
//! * [`SupervisionReport`] — the run-level aggregate (tasks run, tasks
//!   quarantined, cap trips, retained entries), mergeable across partial
//!   reports with the same order-independent integer arithmetic the load
//!   report uses.
//!
//! Determinism contract: a sweep's quarantine depends only on `(items,
//! task function)` — which tasks panic is a pure property of the task, the
//! entries are sorted by task index after the sweep drains, and the cap is
//! applied to the *sorted* list — so the same sweep quarantines the same
//! tasks with the same retained entries under any scheduling, pooled or
//! sequential. The property tests pin this across seeds and a forced
//! 3-worker pool.

use serde::{Deserialize, Serialize};

/// Default number of quarantine entries a single sweep may retain in a
/// report. Counts (`quarantined`) are always exact; the cap only bounds the
/// per-entry detail kept for diagnosis.
pub const DEFAULT_QUARANTINE_CAP: usize = 64;

/// How a supervised sweep treats a panicking task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SupervisionPolicy {
    /// Re-raise the first panic on the caller once the batch drains — the
    /// pool's historical behaviour and still the default.
    #[default]
    FailFast,
    /// Catch each task's panic, record `(index, message)` into the sweep's
    /// [`Quarantine`], substitute nothing for the failed item, and let the
    /// rest of the batch complete.
    Salvage {
        /// Maximum quarantine entries one sweep retains in the report
        /// (counts stay exact; exceeding the cap trips `cap_trips`).
        quarantine_cap: usize,
    },
}

impl SupervisionPolicy {
    /// Salvage with the default quarantine cap.
    pub fn salvage() -> SupervisionPolicy {
        SupervisionPolicy::Salvage {
            quarantine_cap: DEFAULT_QUARANTINE_CAP,
        }
    }
}

/// One task a salvage sweep caught panicking: its input index and the
/// panic's message (string payloads only; anything else is recorded as
/// `"non-string panic payload"`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedTask {
    /// The task's index in the sweep's input slice.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

/// The failures one salvage sweep collected, sorted by task index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantine {
    entries: Vec<QuarantinedTask>,
}

impl Quarantine {
    /// An empty quarantine.
    pub fn new() -> Quarantine {
        Quarantine::default()
    }

    /// Build from raw `(index, message)` pairs collected in any order; the
    /// entries are sorted by index so the result is scheduling-independent.
    pub fn from_failures(mut failures: Vec<(usize, String)>) -> Quarantine {
        failures.sort_by_key(|&(index, _)| index);
        Quarantine {
            entries: failures
                .into_iter()
                .map(|(index, message)| QuarantinedTask { index, message })
                .collect(),
        }
    }

    /// The quarantined tasks, in index order.
    pub fn entries(&self) -> &[QuarantinedTask] {
        &self.entries
    }

    /// Number of quarantined tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A quarantine entry as retained in a [`SupervisionReport`]: the sweep's
/// stage label plus the task's (offset-adjusted) index and message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Which supervised sweep the task belonged to (`"classify"`,
    /// `"survey"`, `"history"`, `"load-chunk"`, `"experiment"`, …).
    pub stage: String,
    /// The task's global index within that stage.
    pub index: u64,
    /// The panic message.
    pub message: String,
}

/// Run-level supervision aggregate: how many tasks ran, how many were
/// quarantined, how often a sweep overflowed its quarantine cap, and the
/// retained per-task entries. Every field is an integer sum or a sorted
/// list concatenation, so partial reports merge to the same value in any
/// order — the same invariant [`LoadReport`](../../rws_load/struct.LoadReport.html)
/// relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionReport {
    /// Tasks dispatched through supervised sweeps (fail-fast or salvage).
    pub tasks_run: u64,
    /// Tasks caught panicking and quarantined (exact, uncapped).
    pub quarantined: u64,
    /// Sweeps whose quarantine exceeded the policy's cap (entry detail was
    /// truncated; counts stayed exact).
    pub cap_trips: u64,
    /// Retained quarantine entries, sorted by `(stage, index)`.
    pub entries: Vec<QuarantineEntry>,
}

impl SupervisionReport {
    /// An empty report.
    pub fn new() -> SupervisionReport {
        SupervisionReport::default()
    }

    /// Fold one sweep into the report: `tasks` tasks ran at `stage`, the
    /// sweep quarantined `quarantine`, at most `cap` entries are retained
    /// (indices are shifted by `index_offset`, so windowed sweeps — e.g. a
    /// checkpointed run's chunk windows — report global positions).
    pub fn record_sweep(
        &mut self,
        stage: &str,
        index_offset: usize,
        tasks: usize,
        quarantine: &Quarantine,
        cap: usize,
    ) {
        self.tasks_run += tasks as u64;
        self.quarantined += quarantine.len() as u64;
        if quarantine.len() > cap {
            self.cap_trips += 1;
        }
        for task in quarantine.entries().iter().take(cap) {
            self.entries.push(QuarantineEntry {
                stage: stage.to_string(),
                index: (index_offset + task.index) as u64,
                message: task.message.clone(),
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
        assert_eq!(
            SupervisionPolicy::salvage(),
            SupervisionPolicy::Salvage {
                quarantine_cap: DEFAULT_QUARANTINE_CAP
            }
        );
    }

    #[test]
    fn quarantine_sorts_by_index() {
        let q = Quarantine::from_failures(vec![
            (9, "late".to_string()),
            (2, "early".to_string()),
            (5, "mid".to_string()),
        ]);
        let indices: Vec<usize> = q.entries().iter().map(|t| t.index).collect();
        assert_eq!(indices, vec![2, 5, 9]);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn record_sweep_caps_entries_but_not_counts() {
        let mut report = SupervisionReport::new();
        let q = Quarantine::from_failures(
            (0..10)
                .map(|i| (i, format!("boom {i}")))
                .collect::<Vec<_>>(),
        );
        report.record_sweep("stage-a", 0, 100, &q, 3);
        assert_eq!(report.tasks_run, 100);
        assert_eq!(report.quarantined, 10);
        assert_eq!(report.cap_trips, 1);
        assert_eq!(report.entries.len(), 3);
        assert!(report.degraded());
        // The retained entries are the lowest indices (the sorted prefix).
        assert_eq!(report.entries[0].index, 0);
        assert_eq!(report.entries[2].index, 2);
    }

    #[test]
    fn record_sweep_offsets_indices() {
        let mut report = SupervisionReport::new();
        let q = Quarantine::from_failures(vec![(1, "boom".to_string())]);
        report.record_sweep("load-chunk", 40, 8, &q, usize::MAX);
        assert_eq!(report.entries[0].index, 41);
        assert_eq!(report.cap_trips, 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = SupervisionReport::new();
        a.record_sweep(
            "zeta",
            0,
            4,
            &Quarantine::from_failures(vec![(3, "z".into())]),
            8,
        );
        let mut b = SupervisionReport::new();
        b.record_sweep(
            "alpha",
            0,
            6,
            &Quarantine::from_failures(vec![(1, "a".into())]),
            8,
        );

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
        report.record_sweep(
            "classify",
            0,
            12,
            &Quarantine::from_failures(vec![(7, "poisoned work item".into())]),
            4,
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: SupervisionReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let policy_json = serde_json::to_string(&SupervisionPolicy::salvage()).unwrap();
        let policy: SupervisionPolicy = serde_json::from_str(&policy_json).unwrap();
        assert_eq!(policy, SupervisionPolicy::salvage());
    }
}
