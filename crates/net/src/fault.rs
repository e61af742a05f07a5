//! Deterministic transient-fault injection over the simulated web.
//!
//! The live Web the paper's validation bot and crawler face fails
//! *transiently*: slow hosts, 5xx bursts, refused connections, truncated
//! JSON, redirect storms. The simulated web models only permanent faults (a
//! static `offline` flag, a fixed latency model), so this module layers a
//! [`FaultInjector`] between the fetcher and [`ServedPage`] resolution.
//!
//! # Determinism
//!
//! The whole point of the simulation is that a pooled replay, its
//! sequential twin and a one-client-at-a-time oracle agree field for field.
//! Fault schedules therefore cannot depend on wall clock, thread
//! interleaving or shared mutable state. A [`FaultPlan`] decides faults as
//! a **pure function** of `(plan seed, host hash, per-host request
//! ordinal)`:
//!
//! * the per-host ordinal lives in a caller-owned [`FetchSession`] — one
//!   per simulated client or validation run, never shared between clients —
//!   so a client sees the same fault schedule no matter how it is
//!   scheduled;
//! * ordinals are grouped into *burst windows* of
//!   [`FaultScale::burst_len`] consecutive requests and the fault decision
//!   is made per window, which is what turns isolated coin flips into the
//!   5xx bursts and redirect storms real outages look like;
//! * retry backoff jitter is drawn from the session's derived rng stream
//!   (see [`FetchSession::new`]), never from time.
//!
//! Faults model outages of *live* hosts: `NoSuchHost`, statically offline
//! and TLS-less answers pass through the injector untouched.

use crate::message::StatusCode;
use crate::url::Url;
use crate::web::{LatencyModel, PageBody, PageContent, ServedPage};
use rws_domain::DomainName;
use rws_stats::Xoshiro256StarStar;
use std::collections::HashMap;

/// Default per-session retry budget (see [`FetchSession::with_budget`]).
pub const DEFAULT_RETRY_BUDGET: u32 = 64;

/// How hostile the injected weather is. Like `LoadScale`: a couple of named
/// base configurations plus a multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScale {
    /// Per-mille probability that a given `(host, burst window)` is
    /// faulted. 0 disables injection entirely.
    pub fault_per_mille: u32,
    /// Consecutive per-host request ordinals covered by one fault decision
    /// (the burst length of a 5xx burst or redirect storm).
    pub burst_len: u32,
    /// Extra latency a spike adds, in simulated milliseconds. Chosen to
    /// blow past any reasonable
    /// [`FetchPolicy::deadline_ms`](crate::FetchPolicy::deadline_ms), so
    /// spikes surface as timeouts.
    pub spike_ms: u64,
}

impl FaultScale {
    /// Background weather: a few percent of windows fault.
    pub fn calm() -> FaultScale {
        FaultScale {
            fault_per_mille: 30,
            burst_len: 4,
            spike_ms: 60_000,
        }
    }

    /// A full fault storm: a quarter of all windows fault. The burst
    /// length (3) is deliberately shorter than
    /// [`RetryPolicy::standard`](crate::RetryPolicy::standard)'s four
    /// attempts, so a retry ladder started anywhere in a burst always
    /// reaches the next window — outages are survivable, not absorbing.
    pub fn storm() -> FaultScale {
        FaultScale {
            fault_per_mille: 250,
            burst_len: 3,
            spike_ms: 60_000,
        }
    }

    /// Injection disabled (every request passes through).
    pub fn off() -> FaultScale {
        FaultScale {
            fault_per_mille: 0,
            burst_len: 1,
            spike_ms: 0,
        }
    }

    /// Scale the fault rate by `factor`, saturating at 100%.
    pub fn times(self, factor: u32) -> FaultScale {
        FaultScale {
            fault_per_mille: (self.fault_per_mille.saturating_mul(factor)).min(1000),
            ..self
        }
    }
}

/// One injected transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The connection is refused for the duration of the window.
    Refuse,
    /// The response arrives, but this much later — past any sane deadline.
    LatencySpike {
        /// Extra simulated milliseconds added to the host's base latency.
        extra_ms: u64,
    },
    /// The server answers 500/503 instead of the real content.
    ServerError {
        /// The injected status.
        status: StatusCode,
    },
    /// The body is cut short (garbling JSON payloads mid-document).
    TruncateBody {
        /// How much of the body survives, in per-mille of its length.
        keep_per_mille: u32,
    },
    /// The server redirects back to the requested path, storming the
    /// fetcher's redirect limit until the burst window ends.
    RedirectStorm,
}

/// The SplitMix64 finalizer: a cheap, well-avalanched bijection used to
/// hash `(seed, host, window)` into a fault decision.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the host name — the host half of the fault-decision key,
/// shared with [`FetchSession`]'s ordinal table. A field read: the name
/// hashed itself when it was built ([`DomainName::fnv1a`]).
fn host_hash(host: &DomainName) -> u64 {
    host.fnv1a()
}

/// A deterministic fault schedule: seed + scale, evaluated as a pure
/// function per `(host, ordinal)`. `Copy`, so targets and engines embed it
/// by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the schedule (independent of any run seed).
    pub seed: u64,
    /// Fault rate, burst length and spike size.
    pub scale: FaultScale,
}

impl FaultPlan {
    /// A plan over the given seed and scale.
    pub fn new(seed: u64, scale: FaultScale) -> FaultPlan {
        FaultPlan { seed, scale }
    }

    /// The fault (if any) injected for the `ordinal`-th request a session
    /// makes to `host`. Pure: same inputs, same answer, on every replay.
    pub fn fault_at(&self, host: &DomainName, ordinal: u32) -> Option<Fault> {
        if self.scale.fault_per_mille == 0 {
            return None;
        }
        let window = ordinal / self.scale.burst_len.max(1);
        let x = mix(mix(self.seed ^ host_hash(host)) ^ u64::from(window));
        if (x % 1000) as u32 >= self.scale.fault_per_mille {
            return None;
        }
        // Decorrelate the kind pick from the fault roll.
        let pick = mix(x);
        Some(match pick % 5 {
            0 => Fault::Refuse,
            1 => Fault::LatencySpike {
                extra_ms: self.scale.spike_ms,
            },
            2 => Fault::ServerError {
                status: if (pick >> 20) & 1 == 0 {
                    StatusCode::INTERNAL_SERVER_ERROR
                } else {
                    StatusCode::SERVICE_UNAVAILABLE
                },
            },
            3 => Fault::TruncateBody {
                // Keep 5%–75% of the body: always enough damage to garble
                // a JSON document, never a no-op.
                keep_per_mille: 50 + ((pick >> 8) % 700) as u32,
            },
            _ => Fault::RedirectStorm,
        })
    }
}

/// Applies a [`FaultPlan`] to raw [`ServedPage`]s on the fetcher's serve
/// path. Stateless (the per-host ordinal comes in from the caller's
/// [`FetchSession`]), so one injector is safely shared by every clone of a
/// fetcher.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Pre-interned body for injected 5xx answers, so the fault path does
    /// not allocate per request.
    error_body: PageBody,
}

impl FaultInjector {
    /// An injector executing the given plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            error_body: PageBody::from("injected transient server error"),
        }
    }

    /// Overlay the fault (if the plan schedules one for this `(host,
    /// ordinal)`) onto what the store served. Hosts that do not exist or
    /// are permanently down keep their permanent behaviour — faults model
    /// transient outages of live hosts.
    pub fn apply(&self, url: &Url, ordinal: u32, served: ServedPage) -> ServedPage {
        let Some(fault) = self.plan.fault_at(&url.host, ordinal) else {
            return served;
        };
        let (content, extra_headers, latency) = match served {
            ServedPage::Content {
                content,
                extra_headers,
                latency,
            } => (Some(content), extra_headers, latency),
            ServedPage::Missing { latency } => (None, None, latency),
            permanent => return permanent,
        };
        let rebuild = |content: Option<PageContent>,
                       extra_headers: Option<std::sync::Arc<crate::HeaderMap>>,
                       latency: LatencyModel| match content {
            Some(content) => ServedPage::Content {
                content,
                extra_headers,
                latency,
            },
            None => ServedPage::Missing { latency },
        };
        match fault {
            Fault::Refuse => ServedPage::Refused,
            Fault::LatencySpike { extra_ms } => {
                let latency = LatencyModel {
                    base_ms: latency.base_ms.saturating_add(extra_ms),
                    ..latency
                };
                rebuild(content, extra_headers, latency)
            }
            Fault::ServerError { status } => ServedPage::Content {
                content: PageContent::Error {
                    status,
                    body: self.error_body.clone(),
                },
                extra_headers: None,
                latency,
            },
            Fault::TruncateBody { keep_per_mille } => {
                let truncated = content.map(|c| truncate_content(c, keep_per_mille));
                rebuild(truncated, extra_headers, latency)
            }
            Fault::RedirectStorm => ServedPage::Content {
                content: PageContent::Redirect {
                    // Back to the very path that was asked for: consecutive
                    // ordinals stay inside the burst window, so the storm
                    // sustains itself until the window ends or the fetcher
                    // gives up with too-many-redirects.
                    location: url.path.to_string(),
                    permanent: false,
                },
                extra_headers: None,
                latency,
            },
        }
    }
}

/// Cut a body-carrying content short; redirects have no body to damage.
fn truncate_content(content: PageContent, keep_per_mille: u32) -> PageContent {
    let cut = |body: &PageBody| {
        let keep = (body.len() as u64 * u64::from(keep_per_mille) / 1000) as usize;
        body.truncated(keep)
    };
    match content {
        PageContent::Html(body) => PageContent::Html(cut(&body)),
        PageContent::Json(body) => PageContent::Json(cut(&body)),
        PageContent::Text(body) => PageContent::Text(cut(&body)),
        PageContent::Error { status, body } => PageContent::Error {
            status,
            body: cut(&body),
        },
        redirect @ PageContent::Redirect { .. } => redirect,
    }
}

/// Caller-owned per-session fetch state: the per-host request ordinals the
/// fault plan keys on, the derived rng stream backoff jitter draws from,
/// and the session-wide retry budget.
///
/// One session per independent replay unit (a load client, one validation
/// run) — **never** shared across clients, or the pooled ≡ sequential
/// equivalence would break the moment faults trigger retries.
#[derive(Debug, Clone)]
pub struct FetchSession {
    rng: Xoshiro256StarStar,
    /// Requests issued so far per host, keyed by [`host_hash`]. (A 64-bit
    /// hash collision would merge two hosts' ordinal counters — still
    /// deterministic, just a different schedule.)
    ordinals: HashMap<u64, u32>,
    retry_budget: u32,
    retries_spent: u32,
}

impl FetchSession {
    /// A session whose rng stream is derived from `(seed, label)` — use a
    /// stable per-client label so replays agree.
    pub fn new(seed: u64, label: &str) -> FetchSession {
        FetchSession::with_budget(seed, label, DEFAULT_RETRY_BUDGET)
    }

    /// A session with an explicit retry budget: once `budget` retries have
    /// been spent across the whole session, further failures return
    /// immediately.
    pub fn with_budget(seed: u64, label: &str, budget: u32) -> FetchSession {
        FetchSession {
            rng: Xoshiro256StarStar::new(seed).derive(label),
            ordinals: HashMap::new(),
            retry_budget: budget,
            retries_spent: 0,
        }
    }

    /// The next request ordinal for `host` (0 for the first request), and
    /// advance the counter.
    pub fn next_ordinal(&mut self, host: &DomainName) -> u32 {
        let slot = self.ordinals.entry(host_hash(host)).or_insert(0);
        let ordinal = *slot;
        *slot = slot.wrapping_add(1);
        ordinal
    }

    /// Retries spent so far across the session.
    pub fn retries_spent(&self) -> u32 {
        self.retries_spent
    }

    /// Spend one retry from the budget; `false` when the budget is gone.
    pub(crate) fn try_spend_retry(&mut self) -> bool {
        if self.retries_spent >= self.retry_budget {
            return false;
        }
        self.retries_spent += 1;
        true
    }

    /// The session's derived rng stream (backoff jitter draws from here —
    /// never from wall clock).
    pub(crate) fn rng_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn host_hash_is_pinned_fnv1a_of_the_name() {
        // Byte-wise FNV-1a values: a change here moves every fault schedule.
        assert_eq!(host_hash(&dn("alpha.com")), 0x7563_b890_694e_6e04);
        assert_eq!(host_hash(&dn("beta.org")), 0xa507_6379_1032_d707);
        assert_eq!(host_hash(&dn("gamma.net")), 0x48f7_3e7a_6659_04d7);
        // Normalisation happens before hashing.
        assert_eq!(host_hash(&dn("Alpha.COM.")), host_hash(&dn("alpha.com")));
    }

    #[test]
    fn schedule_is_pure_and_window_constant() {
        let plan = FaultPlan::new(0xBEEF, FaultScale::storm());
        let hosts = [dn("alpha.com"), dn("beta.org"), dn("gamma.net")];
        for host in &hosts {
            for ordinal in 0..256u32 {
                // Pure: asking twice (or in any order) gives the same answer.
                assert_eq!(plan.fault_at(host, ordinal), plan.fault_at(host, ordinal));
                // Window-constant: every ordinal in a burst window shares
                // the window's decision.
                let window_base = ordinal - ordinal % plan.scale.burst_len;
                assert_eq!(
                    plan.fault_at(host, ordinal),
                    plan.fault_at(host, window_base),
                    "{host} ordinal {ordinal}"
                );
            }
        }
    }

    #[test]
    fn fault_rate_tracks_the_scale() {
        let hosts: Vec<DomainName> = (0..64).map(|i| dn(&format!("h{i}.example"))).collect();
        for (scale, lo, hi) in [
            (FaultScale::off(), 0.0, 0.0),
            (FaultScale::calm(), 0.005, 0.08),
            (FaultScale::storm(), 0.18, 0.33),
            (FaultScale::calm().times(1000), 1.0, 1.0),
        ] {
            let plan = FaultPlan::new(7, scale);
            let mut faulted = 0u32;
            let mut total = 0u32;
            for host in &hosts {
                for window in 0..32u32 {
                    total += 1;
                    if plan
                        .fault_at(host, window * scale.burst_len.max(1))
                        .is_some()
                    {
                        faulted += 1;
                    }
                }
            }
            let rate = f64::from(faulted) / f64::from(total);
            assert!(
                (lo..=hi).contains(&rate),
                "scale {scale:?}: rate {rate} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1, FaultScale::storm());
        let b = FaultPlan::new(2, FaultScale::storm());
        let host = dn("seed-split.example");
        let schedule = |plan: &FaultPlan| -> Vec<Option<Fault>> {
            (0..128).map(|o| plan.fault_at(&host, o)).collect()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn permanent_failures_pass_through_untouched() {
        // A plan that faults every window, every kind reachable.
        let plan = FaultPlan::new(3, FaultScale::storm().times(1000));
        let injector = FaultInjector::new(plan);
        let url = Url::parse("https://perm.example/x").unwrap();
        for ordinal in 0..32 {
            assert_eq!(
                injector.apply(&url, ordinal, ServedPage::NoSuchHost),
                ServedPage::NoSuchHost
            );
            assert_eq!(
                injector.apply(&url, ordinal, ServedPage::Refused),
                ServedPage::Refused
            );
            assert_eq!(
                injector.apply(&url, ordinal, ServedPage::TlsUnavailable),
                ServedPage::TlsUnavailable
            );
        }
    }

    #[test]
    fn every_fault_kind_shapes_served_content_as_documented() {
        let plan = FaultPlan::new(11, FaultScale::storm().times(1000));
        let injector = FaultInjector::new(plan);
        let latency = LatencyModel::default();
        let body = PageBody::from(r#"{"k": "vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv"}"#);
        let mut seen = std::collections::HashSet::new();
        // Distinct hosts draw distinct windows; sweep until every kind of
        // fault has been observed against live content.
        for i in 0..512 {
            let url = Url::parse(&format!("https://kind{i}.example/data.json")).unwrap();
            let Some(fault) = plan.fault_at(&url.host, 0) else {
                continue;
            };
            let served = ServedPage::Content {
                content: PageContent::Json(body.clone()),
                extra_headers: None,
                latency,
            };
            let out = injector.apply(&url, 0, served);
            match fault {
                Fault::Refuse => assert_eq!(out, ServedPage::Refused),
                Fault::LatencySpike { extra_ms } => match out {
                    ServedPage::Content { latency: l, .. } => {
                        assert_eq!(l.base_ms, latency.base_ms + extra_ms)
                    }
                    other => panic!("spike produced {other:?}"),
                },
                Fault::ServerError { status } => match out {
                    ServedPage::Content {
                        content: PageContent::Error { status: s, .. },
                        ..
                    } => assert_eq!(s, status),
                    other => panic!("server error produced {other:?}"),
                },
                Fault::TruncateBody { .. } => match out {
                    ServedPage::Content {
                        content: PageContent::Json(b),
                        ..
                    } => assert!(b.len() < body.len(), "body not truncated"),
                    other => panic!("truncate produced {other:?}"),
                },
                Fault::RedirectStorm => match out {
                    ServedPage::Content {
                        content: PageContent::Redirect { location, .. },
                        ..
                    } => assert_eq!(location, "/data.json"),
                    other => panic!("storm produced {other:?}"),
                },
            }
            seen.insert(std::mem::discriminant(&fault));
        }
        assert_eq!(seen.len(), 5, "not every fault kind was exercised");
    }

    #[test]
    fn session_ordinals_are_per_host_and_order_independent() {
        let a = dn("a.example");
        let b = dn("b.example");
        // Interleaved queries...
        let mut interleaved = FetchSession::new(1, "s");
        let mut log = Vec::new();
        for i in 0..6 {
            let host = if i % 2 == 0 { &a } else { &b };
            log.push((host.clone(), interleaved.next_ordinal(host)));
        }
        // ...advance each host's counter independently.
        assert_eq!(
            log.iter().map(|(_, o)| *o).collect::<Vec<_>>(),
            vec![0, 0, 1, 1, 2, 2]
        );
        // Sequential per-host queries see the same ordinals.
        let mut sequential = FetchSession::new(1, "s");
        for want in 0..3 {
            assert_eq!(sequential.next_ordinal(&a), want);
        }
        for want in 0..3 {
            assert_eq!(sequential.next_ordinal(&b), want);
        }
    }

    #[test]
    fn retry_budget_is_spent_then_refused() {
        let mut session = FetchSession::with_budget(1, "b", 2);
        assert_eq!(session.retries_spent(), 0);
        assert!(session.try_spend_retry());
        assert!(session.try_spend_retry());
        assert!(!session.try_spend_retry());
        assert_eq!(session.retries_spent(), 2);
    }
}
