//! Aggregated results of a load run.

use rws_browser::{PolicyVerdict, StorageAccessPolicy, VendorPolicy};
use rws_engine::SupervisionReport;
use rws_stats::{CategoryCounter, LatencyHistogram};
use serde::{Deserialize, Serialize};

/// Per-vendor storage-access outcomes across every partitioning decision
/// taken during the run, in [`VendorPolicy::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VendorTally {
    /// Vendor report name (`chrome-rws`, `firefox`, ...).
    pub vendor: String,
    /// Decisions auto-granted without user involvement.
    pub auto_grant: u64,
    /// Decisions that would show a user prompt.
    pub prompt: u64,
    /// Decisions refused outright.
    pub deny: u64,
    /// Decisions where state actually ends up shared: auto-grants plus
    /// prompts the (per-client) simulated user accepted.
    pub shared: u64,
}

impl VendorTally {
    fn new(vendor: &str) -> VendorTally {
        VendorTally {
            vendor: vendor.to_string(),
            auto_grant: 0,
            prompt: 0,
            deny: 0,
            shared: 0,
        }
    }

    /// Total decisions this vendor saw.
    pub fn decisions(&self) -> u64 {
        self.auto_grant + self.prompt + self.deny
    }

    /// Record one verdict. `accepted` is whether the simulated user would
    /// accept a prompt, deciding the `shared` outcome for `Prompt`.
    pub(crate) fn record(&mut self, verdict: PolicyVerdict, accepted: bool) {
        match verdict {
            PolicyVerdict::AutoGrant => {
                self.auto_grant += 1;
                self.shared += 1;
            }
            PolicyVerdict::Prompt => {
                self.prompt += 1;
                if accepted {
                    self.shared += 1;
                }
            }
            PolicyVerdict::Deny => self.deny += 1,
        }
    }

    fn merge(&mut self, other: &VendorTally) {
        debug_assert_eq!(self.vendor, other.vendor);
        self.auto_grant += other.auto_grant;
        self.prompt += other.prompt;
        self.deny += other.deny;
        self.shared += other.shared;
    }
}

/// Everything a load run measured, aggregated with integer arithmetic only
/// so that per-worker partial reports [`merge`](LoadReport::merge) to the
/// same value in any order — the property the pooled ≡ sequential
/// equivalence tests pin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Clients simulated.
    pub clients: u64,
    /// Client sessions run to completion.
    pub sessions: u64,
    /// Fetch calls issued by clients (each may span several redirect hops).
    pub fetch_calls: u64,
    /// Wire-level requests including every redirect hop, from the
    /// fetchers' request counters.
    pub wire_requests: u64,
    /// GET fetch calls (page visits and `.well-known` probes).
    pub gets: u64,
    /// HEAD fetch calls.
    pub heads: u64,
    /// `/.well-known/related-website-set.json` probes issued.
    pub well_known_probes: u64,
    /// Redirect hops followed across all successful responses.
    pub redirects_followed: u64,
    /// Responses with a 2xx status.
    pub status_2xx: u64,
    /// Responses with a 4xx status.
    pub status_4xx: u64,
    /// Responses with a 5xx status.
    pub status_5xx: u64,
    /// Failed fetches tallied by [`NetError::class`](rws_net::NetError::class).
    pub errors: CategoryCounter,
    /// Retry attempts made beyond each fetch call's first attempt.
    pub retries: u64,
    /// Fetch calls that succeeded only after retrying (degraded successes).
    pub retry_successes: u64,
    /// Fetch calls that still failed after exhausting their retries.
    pub retry_failures: u64,
    /// Total simulated backoff spent between retry attempts, in
    /// milliseconds.
    pub backoff_ms_total: u64,
    /// Time-to-first-success distribution for fetch calls that needed
    /// retries: error costs + backoff + connection setup + final response
    /// latency, in simulated milliseconds.
    pub time_to_first_success: LatencyHistogram,
    /// Simulated connections opened (cold or expired keep-alive).
    pub connections_opened: u64,
    /// Simulated connections reused within the keep-alive window.
    pub connections_reused: u64,
    /// Storage-partitioning decisions taken (one per successful page
    /// response; each is evaluated against every vendor policy).
    pub decisions: u64,
    /// Per-vendor outcomes, in [`VendorPolicy::ALL`] order.
    pub vendors: Vec<VendorTally>,
    /// Latency distribution over every response (simulated milliseconds,
    /// including connection setup).
    pub latency: LatencyHistogram,
    /// Sum of all recorded latencies in simulated milliseconds.
    pub total_latency_ms: u64,
    /// Earliest client session start on the simulated clock (`u64::MAX`
    /// while empty so merge is a plain `min`).
    pub sim_start_ms: u64,
    /// Latest client session end on the simulated clock.
    pub sim_end_ms: u64,
    /// How the run's chunk sweeps were supervised: tasks run, chunks
    /// quarantined after panics (salvage mode only), cap trips, and the
    /// retained quarantine entries.
    pub supervision: SupervisionReport,
}

impl Default for LoadReport {
    fn default() -> Self {
        LoadReport::new()
    }
}

impl LoadReport {
    /// An empty report with the vendor tallies pre-seeded in
    /// [`VendorPolicy::ALL`] order.
    pub fn new() -> LoadReport {
        LoadReport {
            clients: 0,
            sessions: 0,
            fetch_calls: 0,
            wire_requests: 0,
            gets: 0,
            heads: 0,
            well_known_probes: 0,
            redirects_followed: 0,
            status_2xx: 0,
            status_4xx: 0,
            status_5xx: 0,
            errors: CategoryCounter::new(),
            retries: 0,
            retry_successes: 0,
            retry_failures: 0,
            backoff_ms_total: 0,
            time_to_first_success: LatencyHistogram::new(),
            connections_opened: 0,
            connections_reused: 0,
            decisions: 0,
            vendors: VendorPolicy::ALL
                .iter()
                .map(|v| VendorTally::new(v.name()))
                .collect(),
            latency: LatencyHistogram::new(),
            total_latency_ms: 0,
            sim_start_ms: u64::MAX,
            sim_end_ms: 0,
            supervision: SupervisionReport::new(),
        }
    }

    /// Fold a per-worker partial report into this one. Exact and
    /// order-independent: every field is an integer sum, min, max or
    /// bucket-wise histogram merge.
    pub fn merge(&mut self, other: &LoadReport) {
        self.clients += other.clients;
        self.sessions += other.sessions;
        self.fetch_calls += other.fetch_calls;
        self.wire_requests += other.wire_requests;
        self.gets += other.gets;
        self.heads += other.heads;
        self.well_known_probes += other.well_known_probes;
        self.redirects_followed += other.redirects_followed;
        self.status_2xx += other.status_2xx;
        self.status_4xx += other.status_4xx;
        self.status_5xx += other.status_5xx;
        self.errors.merge(&other.errors);
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
        self.retry_failures += other.retry_failures;
        self.backoff_ms_total += other.backoff_ms_total;
        self.time_to_first_success
            .merge(&other.time_to_first_success);
        self.connections_opened += other.connections_opened;
        self.connections_reused += other.connections_reused;
        self.decisions += other.decisions;
        for (mine, theirs) in self.vendors.iter_mut().zip(&other.vendors) {
            mine.merge(theirs);
        }
        self.latency.merge(&other.latency);
        self.total_latency_ms += other.total_latency_ms;
        self.sim_start_ms = self.sim_start_ms.min(other.sim_start_ms);
        self.sim_end_ms = self.sim_end_ms.max(other.sim_end_ms);
        self.supervision.merge(&other.supervision);
    }

    /// Total failed fetch calls across all error classes.
    pub fn error_count(&self) -> u64 {
        self.errors.total()
    }

    /// Successful responses tallied (2xx + 4xx + 5xx).
    pub fn responses(&self) -> u64 {
        self.status_2xx + self.status_4xx + self.status_5xx
    }

    /// Of the fetch calls that needed retries, the fraction that recovered
    /// (1.0 when no call retried — nothing failed to recover).
    pub fn retry_success_rate(&self) -> f64 {
        let retried = self.retry_successes + self.retry_failures;
        if retried == 0 {
            1.0
        } else {
            self.retry_successes as f64 / retried as f64
        }
    }

    /// Fraction of fetch calls that ultimately produced a response
    /// (1.0 when no calls were made) — the availability the client fleet
    /// experienced under whatever weather the run injected.
    pub fn availability(&self) -> f64 {
        if self.fetch_calls == 0 {
            1.0
        } else {
            self.responses() as f64 / self.fetch_calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_report_has_all_vendors_in_order() {
        let r = LoadReport::new();
        let names: Vec<&str> = r.vendors.iter().map(|v| v.vendor.as_str()).collect();
        assert_eq!(
            names,
            vec!["chrome-rws", "chrome-legacy", "firefox", "safari", "brave"]
        );
    }

    #[test]
    fn merge_is_field_wise() {
        let mut a = LoadReport::new();
        a.fetch_calls = 3;
        a.status_2xx = 2;
        a.sim_start_ms = 100;
        a.sim_end_ms = 900;
        a.latency.record(40);
        a.vendors[0].record(PolicyVerdict::AutoGrant, false);
        let mut b = LoadReport::new();
        b.fetch_calls = 4;
        b.status_4xx = 1;
        b.sim_start_ms = 50;
        b.sim_end_ms = 400;
        b.errors.record("timeout");
        b.vendors[0].record(PolicyVerdict::Prompt, true);
        b.retries = 5;
        b.retry_successes = 2;
        b.retry_failures = 1;
        b.backoff_ms_total = 620;
        b.time_to_first_success.record(700);
        a.merge(&b);
        assert_eq!(a.fetch_calls, 7);
        assert_eq!(a.retries, 5);
        assert_eq!(a.retry_successes, 2);
        assert_eq!(a.retry_failures, 1);
        assert_eq!(a.backoff_ms_total, 620);
        assert_eq!(a.time_to_first_success.count(), 1);
        assert_eq!(a.status_2xx, 2);
        assert_eq!(a.status_4xx, 1);
        assert_eq!(a.sim_start_ms, 50);
        assert_eq!(a.sim_end_ms, 900);
        assert_eq!(a.latency.count(), 1);
        assert_eq!(a.error_count(), 1);
        assert_eq!(a.vendors[0].auto_grant, 1);
        assert_eq!(a.vendors[0].prompt, 1);
        assert_eq!(a.vendors[0].shared, 2);
        assert_eq!(a.vendors[0].decisions(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut r = LoadReport::new();
        r.fetch_calls = 10;
        r.latency.record(55);
        r.errors.record("connection-refused");
        r.retries = 3;
        r.retry_successes = 2;
        r.backoff_ms_total = 150;
        r.time_to_first_success.record(230);
        let json = serde_json::to_string(&r).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn resilience_rates_handle_empty_and_populated_reports() {
        let mut r = LoadReport::new();
        // Nothing retried, nothing fetched: both rates read as perfect.
        assert_eq!(r.retry_success_rate(), 1.0);
        assert_eq!(r.availability(), 1.0);
        r.fetch_calls = 10;
        r.status_2xx = 6;
        r.status_5xx = 2;
        r.errors.record("connection-refused");
        r.errors.record("timeout");
        r.retry_successes = 3;
        r.retry_failures = 1;
        assert_eq!(r.retry_success_rate(), 0.75);
        assert_eq!(r.availability(), 0.8);
    }
}
