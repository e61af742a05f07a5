//! Deterministic transient-fault injection over the simulated web.
//!
//! The live Web a browsing client faces fails *transiently*: slow hosts,
//! 5xx bursts, refused connections, truncated JSON, redirect storms. The
//! simulated web models only permanent faults (a static `offline` flag),
//! so a [`FaultPlan`] installed on a fetcher
//! ([`Fetcher::with_faults`](crate::Fetcher::with_faults)) schedules the
//! transient ones, and the fetcher applies them to each hop it makes. Only
//! session-aware fetches ([`Fetcher::get_with`](crate::Fetcher::get_with)
//! and [`head_with`](crate::Fetcher::head_with)) meet a fault; the load
//! engine's clients make those, while plain `get`/`head` (the validation
//! bot, the crawlers) never see one.
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
//!   per simulated client, never shared between clients —
//!   so a client sees the same fault schedule no matter how it is
//!   scheduled;
//! * ordinals are grouped into *burst windows* of
//!   [`FaultScale::burst_len`] consecutive requests and the fault decision
//!   is made per window, which is what turns isolated coin flips into the
//!   5xx bursts and redirect storms real outages look like;
//! * retry backoff jitter is drawn from the session's derived rng stream
//!   (see [`FetchSession::new`]), never from time.
//!
//! # What a fetch sees
//!
//! Every hop of a session-aware fetch advances the session's ordinal for
//! its host, then asks the web for the page. Faults model outages of
//! *live* hosts, so an unknown or statically offline host fails as it
//! always does. Otherwise the scheduled fault reshapes the hop's status,
//! headers and body before its simulated latency is priced:
//!
//! * a refusal surfaces as [`NetError::ConnectionRefused`];
//! * a latency spike adds [`FaultScale::spike_ms`] to the hop, which ends
//!   the fetch in a [`NetError::Timeout`];
//! * a redirect storm answers 302 and the next hop re-requests the same
//!   URL, until the window ends or the fetch fails with
//!   [`NetError::TooManyRedirects`];
//! * a 5xx burst answers 500 or 503 with no headers and a short body;
//! * a truncated body keeps a prefix of the page, snapped to a char
//!   boundary, and a HEAD advertises the cut length.
//!
//! The first three are the failures the retrying entry points retry. A
//! 5xx answer and a cut page are *served*: the fetcher returns them as a
//! [`Response`](crate::Response), which a load client tallies in its
//! `status_5xx`/`status_2xx` counters and never retries. Only the
//! validation bot turns a status or a payload into
//! [`NetError::HttpStatus`] or [`NetError::InvalidJson`], and it makes one
//! attempt.
//!
//! [`NetError::ConnectionRefused`]: crate::NetError::ConnectionRefused
//! [`NetError::Timeout`]: crate::NetError::Timeout
//! [`NetError::TooManyRedirects`]: crate::NetError::TooManyRedirects
//! [`NetError::HttpStatus`]: crate::NetError::HttpStatus
//! [`NetError::InvalidJson`]: crate::NetError::InvalidJson

use crate::message::StatusCode;
use rws_domain::DomainName;
use rws_stats::memo::FnvBuildHasher;
use rws_stats::Xoshiro256StarStar;
use std::collections::HashMap;

/// Retries one session may spend across all its fetches; a failure after
/// that returns at once.
const RETRY_BUDGET: u32 = 64;

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
    /// Extra latency a spike adds to its hop, in simulated milliseconds.
    /// Chosen to blow past any reasonable
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
        /// Extra simulated milliseconds added to the hop's latency.
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
    /// The server redirects back to the requested URL, storming the
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

/// Caller-owned per-session fetch state: the per-host request ordinals the
/// fault plan keys on, the derived rng stream backoff jitter draws from,
/// and the retries spent from the session-wide budget of 64.
///
/// One session per independent replay unit (a load client) — **never**
/// shared across clients, or the pooled ≡ sequential
/// equivalence would break the moment faults trigger retries.
#[derive(Debug, Clone)]
pub struct FetchSession {
    rng: Xoshiro256StarStar,
    /// Requests issued so far per host, keyed by [`host_hash`]. The key is
    /// already a hash, so the map hashes it with FNV, not SipHash. (A
    /// 64-bit hash collision would merge two hosts' ordinal counters —
    /// still deterministic, just a different schedule.)
    ordinals: HashMap<u64, u32, FnvBuildHasher>,
    retries_spent: u32,
}

impl FetchSession {
    /// A session whose rng stream is derived from `(seed, label)` — use a
    /// stable per-client label so replays agree.
    pub fn new(seed: u64, label: &str) -> FetchSession {
        FetchSession {
            rng: Xoshiro256StarStar::new(seed).derive(label),
            ordinals: HashMap::default(),
            retries_spent: 0,
        }
    }

    /// Re-seed this session as [`new`](FetchSession::new) would on
    /// `(seed, label)`: a fresh rng stream, no ordinals and no retries
    /// spent. The ordinal map keeps its capacity, so a caller running many
    /// sessions one after another allocates the map once.
    pub fn restart(&mut self, seed: u64, label: &str) {
        self.rng = Xoshiro256StarStar::new(seed).derive(label);
        self.ordinals.clear();
        self.retries_spent = 0;
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
        if self.retries_spent >= RETRY_BUDGET {
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
    use crate::{Fetcher, NetError, RetryPolicy, SimulatedWeb, SiteHost, Url};
    use rws_stats::Rng;

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
        // An offline host refuses every attempt, and a refusal is
        // retryable: each fetch retries until its attempts or the
        // session's budget run out.
        let mut web = SimulatedWeb::new();
        let mut down = SiteHost::new("down.example").unwrap();
        down.add_page("/", "x").set_offline(true);
        web.register(down);
        let fetcher = Fetcher::new(web).with_retry(RetryPolicy::standard());
        let url = Url::parse("https://down.example/").unwrap();
        let mut session = FetchSession::new(1, "b");
        let mut retries = Vec::new();
        while retries.last() != Some(&0) {
            let outcome = fetcher.get_with(&url, &mut session);
            assert!(matches!(
                outcome.result,
                Err(NetError::ConnectionRefused { .. })
            ));
            retries.push(outcome.retries());
        }
        // 21 full ladders of 3 retries, one cut to the last retry, then
        // none.
        let mut expected = vec![3; 21];
        expected.extend([1, 0]);
        assert_eq!(retries, expected);
        assert_eq!(session.retries_spent(), 64);
        assert_eq!(fetcher.get_with(&url, &mut session).attempts, 1);
        assert_eq!(session.retries_spent(), 64);
    }

    #[test]
    fn restart_leaves_a_fresh_session_with_the_same_budget() {
        let a = dn("a.example");
        let mut session = FetchSession::new(1, "old");
        session.next_ordinal(&a);
        session.next_ordinal(&a);
        assert!(session.try_spend_retry());
        session.rng_mut().next_u64();

        session.restart(9, "new");
        let fresh = FetchSession::new(9, "new");
        assert_eq!(session.rng, fresh.rng);
        assert_eq!(session.retries_spent(), 0);
        assert_eq!(session.next_ordinal(&a), 0);
        for _ in 0..64 {
            assert!(session.try_spend_retry());
        }
        assert!(!session.try_spend_retry(), "the budget is 64 again");
    }
}
