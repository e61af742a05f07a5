//! Integration tests for fault injection, retrying fetches and the
//! redirect-chain timeout attribution fix.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_net::{
    Fault, FaultPlan, FaultScale, FetchPolicy, FetchSession, Fetcher, NetError, PageBody,
    PageContent, RetryPolicy, SimulatedWeb, SiteHost, Url,
};

fn dn(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

/// A web where `a.com` redirects to `b.com`.
fn redirect_web() -> SimulatedWeb {
    let mut web = SimulatedWeb::new();
    let mut a = SiteHost::new("a.com").unwrap();
    a.add_content(
        "/start",
        PageContent::Redirect {
            location: "https://b.com/landing".into(),
            permanent: false,
        },
    );
    web.register(a);
    let mut b = SiteHost::new("b.com").unwrap();
    b.add_page("/landing", "made it");
    web.register(b);
    web
}

#[test]
fn mid_chain_timeout_is_attributed_to_the_chain_not_the_final_hop() {
    // Each hop costs 40 ms, so the chain — but no single hop — blows the
    // deadline: hop 2 crosses it at 80 ms.
    let policy = FetchPolicy {
        deadline_ms: 60,
        ..FetchPolicy::default()
    };
    let fetcher = Fetcher::with_policy(redirect_web(), policy);
    let err = fetcher
        .get(&Url::parse("https://a.com/start").unwrap())
        .unwrap_err();
    match err {
        NetError::Timeout {
            start,
            url,
            latency_ms,
            deadline_ms,
            redirects_followed,
        } => {
            // The chain entry and the fatal hop are both carried — a
            // mid-chain timeout is no longer misread as b.com alone being
            // slow.
            let start = start.expect("a redirected chain carries its entry");
            assert_eq!(start.to_string(), "https://a.com/start");
            assert_eq!(url.to_string(), "https://b.com/landing");
            assert_eq!(latency_ms, 80);
            assert_eq!(deadline_ms, 60);
            assert_eq!(redirects_followed, 1);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// A single live host serving one page.
fn one_host_web(host: &str) -> SimulatedWeb {
    let mut web = SimulatedWeb::new();
    let mut site = SiteHost::new(host).unwrap();
    site.add_page("/", "<html>alive</html>");
    web.register(site);
    web
}

/// Search seeds for a plan whose first window on `host` is a connection
/// refusal and whose next few windows are clear — a deterministic
/// "transient outage that recovers" schedule, robust to hash details.
fn refuse_then_recover_plan(host: &DomainName, scale: FaultScale) -> FaultPlan {
    for seed in 0..100_000u64 {
        let plan = FaultPlan::new(seed, scale);
        let burst = scale.burst_len;
        let first_retry = plan.fault_at(host, burst); // ordinal after the burst
        if plan.fault_at(host, 0) == Some(Fault::Refuse) && first_retry.is_none() {
            return plan;
        }
    }
    panic!("no refuse-then-recover seed found for {host}");
}

#[test]
fn retry_recovers_from_a_transient_refusal() {
    let host = dn("flaky.example");
    let scale = FaultScale {
        burst_len: 1, // one-request bursts: the retry lands in a new window
        ..FaultScale::calm()
    };
    let plan = refuse_then_recover_plan(&host, scale);
    let fetcher = Fetcher::new(one_host_web("flaky.example"))
        .with_faults(plan)
        .with_retry(RetryPolicy::standard());
    let mut session = FetchSession::new(1, "recovery");
    let outcome = fetcher.get_with(&Url::parse("https://flaky.example/").unwrap(), &mut session);
    let resp = outcome.result.as_ref().expect("retry should recover");
    assert!(resp.status.is_success());
    assert!(outcome.attempts > 1, "first attempt must have been refused");
    assert!(outcome.backoff_ms > 0, "backoff must have accumulated");
    assert_eq!(outcome.retries(), outcome.attempts - 1);
    assert_eq!(session.retries_spent(), outcome.retries());
}

#[test]
fn spent_retry_budget_fails_on_first_attempt() {
    let host = dn("flaky.example");
    let scale = FaultScale {
        burst_len: 1,
        ..FaultScale::calm()
    };
    let plan = refuse_then_recover_plan(&host, scale);
    let mut web = one_host_web("flaky.example");
    let mut down = SiteHost::new("down.example").unwrap();
    down.add_page("/", "x").set_offline(true);
    web.register(down);
    let fetcher = Fetcher::new(web)
        .with_faults(plan)
        .with_retry(RetryPolicy::standard());
    // An offline host refuses every attempt: spend the session's whole
    // budget of 64 retries on it.
    let mut session = FetchSession::new(1, "no-budget");
    let down = Url::parse("https://down.example/").unwrap();
    while session.retries_spent() < 64 {
        let outcome = fetcher.get_with(&down, &mut session);
        assert!(outcome.retries() > 0, "the budget ran out early");
    }
    assert_eq!(fetcher.get_with(&down, &mut session).attempts, 1);
    let outcome = fetcher.get_with(&Url::parse("https://flaky.example/").unwrap(), &mut session);
    assert!(matches!(
        outcome.result,
        Err(NetError::ConnectionRefused { .. })
    ));
    assert_eq!(outcome.attempts, 1);
    assert_eq!(outcome.backoff_ms, 0);
    assert_eq!(session.retries_spent(), 64);
}

#[test]
fn non_retryable_errors_are_not_retried() {
    // HTTPS policy violations are persistent: strict policy + http URL.
    let fetcher = Fetcher::with_policy(one_host_web("site.example"), FetchPolicy::strict())
        .with_retry(RetryPolicy::standard());
    let mut session = FetchSession::new(1, "https");
    let outcome = fetcher.get_with(&Url::parse("http://site.example/").unwrap(), &mut session);
    assert!(matches!(
        outcome.result,
        Err(NetError::HttpsRequired { .. })
    ));
    assert_eq!(outcome.attempts, 1);
    assert_eq!(session.retries_spent(), 0);
}

#[test]
fn plain_get_ignores_the_installed_plan() {
    // Fault everything — plain `get` (no session) must still pass through.
    let plan = FaultPlan::new(0, FaultScale::storm().times(1000));
    let fetcher = Fetcher::new(one_host_web("site.example")).with_faults(plan);
    let url = Url::parse("https://site.example/").unwrap();
    for _ in 0..8 {
        let resp = fetcher.get(&url).unwrap();
        assert!(resp.status.is_success());
    }
}

#[test]
fn redirect_storm_fault_exhausts_the_redirect_limit() {
    let host = dn("storm.example");
    // Find a seed whose entire first few windows are RedirectStorm, so the
    // whole chain stays inside the storm.
    let scale = FaultScale {
        fault_per_mille: 1000,
        burst_len: 32,
        spike_ms: 60_000,
    };
    let plan = (0..100_000u64)
        .map(|seed| FaultPlan::new(seed, scale))
        .find(|plan| plan.fault_at(&host, 0) == Some(Fault::RedirectStorm))
        .expect("no redirect-storm seed found");
    let fetcher = Fetcher::new(one_host_web("storm.example"))
        .with_faults(plan)
        .with_retry(RetryPolicy::none());
    let mut session = FetchSession::new(1, "storm");
    let outcome = fetcher.get_with(&Url::parse("https://storm.example/").unwrap(), &mut session);
    assert!(matches!(
        outcome.result,
        Err(NetError::TooManyRedirects { .. })
    ));
}

/// A plan whose first window on `host` (three requests) is a redirect
/// storm and whose second window is clear.
fn storm_then_clear_plan(host: &DomainName) -> FaultPlan {
    let scale = FaultScale::storm();
    (0..100_000u64)
        .map(|seed| FaultPlan::new(seed, scale))
        .find(|plan| {
            plan.fault_at(host, 0) == Some(Fault::RedirectStorm)
                && plan.fault_at(host, scale.burst_len).is_none()
        })
        .expect("no storm-then-clear seed found")
}

#[test]
fn a_storm_inside_the_redirect_limit_lands_on_the_requested_url() {
    let host = dn("storm.example");
    let fetcher =
        Fetcher::new(one_host_web("storm.example")).with_faults(storm_then_clear_plan(&host));
    // The storm re-requests the URL it answered, query included.
    let url = Url::parse("https://storm.example/?q=1").unwrap();
    let mut session = FetchSession::new(1, "query");
    let outcome = fetcher.get_with(&url, &mut session);
    let resp = outcome.result.expect("the window ends inside the limit");
    assert_eq!(resp.url.to_string(), "https://storm.example/?q=1");
    assert_eq!(resp.redirects_followed, 3);
    assert_eq!(resp.latency_ms, 4 * 40);
    assert_eq!(resp.body_text(), "<html>alive</html>");
    assert_eq!(outcome.attempts, 1);
    assert_eq!(fetcher.requests_issued(), 4);
}

#[test]
fn head_of_a_truncated_page_reports_the_truncated_length() {
    // A page whose multi-byte characters make the cut snap down to a char
    // boundary, so the served length differs from the raw per-mille cut.
    let page = "<html>".to_string() + &"é-ü ".repeat(200) + "</html>";
    let scale = FaultScale::storm().times(1000);
    let (name, keep_per_mille) = (0..512)
        .map(|i| format!("cut{i}.example"))
        .find_map(
            |name| match FaultPlan::new(5, scale).fault_at(&dn(&name), 0) {
                Some(Fault::TruncateBody { keep_per_mille }) => Some((name, keep_per_mille)),
                _ => None,
            },
        )
        .expect("no truncating host found");
    let mut web = SimulatedWeb::new();
    let mut host = SiteHost::new(&name).unwrap();
    host.add_page("/", page.as_str());
    web.register(host);
    let fetcher = Fetcher::new(web).with_faults(FaultPlan::new(5, scale));
    let url = Url::parse(&format!("https://{name}/")).unwrap();

    let full = page.len();
    let served = PageBody::from(page.as_str())
        .truncated(full * keep_per_mille as usize / 1000)
        .len();
    assert!(served < full, "the fault must cut the page");

    let head = fetcher.head_with(&url, &mut FetchSession::new(1, "cut"));
    let head = head.result.expect("a truncated page is still served");
    assert!(head.body.is_empty());
    assert_eq!(
        head.headers.get("content-length"),
        Some(served.to_string().as_str())
    );
    // GET in the same window serves exactly that many bytes.
    let get = fetcher.get_with(&url, &mut FetchSession::new(1, "cut"));
    assert_eq!(get.result.expect("served").body.len(), served);
    // Without the fault, HEAD reports the whole page.
    let plain = fetcher.head(&url).unwrap();
    assert_eq!(
        plain.headers.get("content-length"),
        Some(full.to_string().as_str())
    );
}

proptest! {
    /// Two sessions with the same seed and label replay the same faulted,
    /// retried request sequence field for field — the oracle-pair property
    /// the whole fault design exists to guarantee.
    #[test]
    fn identical_sessions_replay_identical_fault_schedules(seed in 0u64..1_000_000) {
        let mut web = SimulatedWeb::new();
        for name in ["one.example", "two.example", "three.example"] {
            let mut site = SiteHost::new(name).unwrap();
            site.add_page("/", "<html>body body body body</html>");
            site.add_json("/data.json", r#"{"k": "vvvvvvvvvvvvvv"}"#);
            web.register(site);
        }
        let plan = FaultPlan::new(seed, FaultScale::storm());
        let fetcher = Fetcher::new(web)
            .with_faults(plan)
            .with_retry(RetryPolicy::standard());

        let urls: Vec<Url> = ["one.example", "two.example", "three.example"]
            .iter()
            .flat_map(|h| {
                [format!("https://{h}/"), format!("https://{h}/data.json")]
            })
            .map(|s| Url::parse(&s).unwrap())
            .collect();

        // (attempts, backoff_ms, Ok(status, body_len, latency) | Err(class))
        type OutcomeSummary = (u32, u64, Result<(u16, usize, u64), &'static str>);
        let run = |label: &str| -> Vec<OutcomeSummary> {
            let mut session = FetchSession::new(seed ^ 0xA5A5, label);
            urls.iter()
                .flat_map(|url| {
                    (0..3).map(|_| {
                        let outcome = fetcher.get_with(url, &mut session);
                        let summary = outcome
                            .result
                            .as_ref()
                            .map(|r| (r.status.0, r.body.len(), r.latency_ms))
                            .map_err(|e| e.class());
                        (outcome.attempts, outcome.backoff_ms, summary)
                    }).collect::<Vec<_>>()
                })
                .collect()
        };
        prop_assert_eq!(run("replay"), run("replay"));
    }

    /// A faulted session only ever differs from an unfaulted one in the
    /// transient directions the plan models: with injection disabled
    /// (scale off) the session-aware path behaves exactly like plain `get`.
    #[test]
    fn scale_off_is_indistinguishable_from_no_plan(seed in 0u64..1_000_000) {
        let web = one_host_web("site.example");
        let url = Url::parse("https://site.example/").unwrap();
        let plain = Fetcher::new(web.clone());
        let injected = Fetcher::new(web)
            .with_faults(FaultPlan::new(seed, FaultScale::off()))
            .with_retry(RetryPolicy::standard());
        let mut session = FetchSession::new(seed, "off");
        for _ in 0..4 {
            let a = plain.get(&url).unwrap();
            let outcome = injected.get_with(&url, &mut session);
            let b = outcome.result.unwrap();
            prop_assert_eq!(outcome.attempts, 1);
            prop_assert_eq!(a.status, b.status);
            prop_assert_eq!(a.body_text(), b.body_text());
            prop_assert_eq!(a.latency_ms, b.latency_ms);
        }
    }
}
