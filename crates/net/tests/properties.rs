//! Property-based tests for the simulated network layer.

use proptest::prelude::*;
use rws_net::{Fetcher, PageContent, SimulatedWeb, SiteHost, StatusCode, Url};

fn label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

fn host_name() -> impl Strategy<Value = String> {
    (label(), label()).prop_map(|(a, b)| format!("{a}.{b}.com"))
}

fn path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,6}", 0..4).prop_map(|segs| {
        if segs.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", segs.join("/"))
        }
    })
}

proptest! {
    /// Every URL built from a valid host/path/query round-trips through
    /// Display + parse.
    #[test]
    fn url_display_parse_round_trip(host in host_name(), p in path(), q in proptest::option::of("[a-z]=[0-9]{1,3}")) {
        let mut s = format!("https://{host}{p}");
        if let Some(q) = &q {
            s.push('?');
            s.push_str(q);
        }
        let u = Url::parse(&s).unwrap();
        prop_assert_eq!(u.to_string(), s.clone());
        prop_assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
    }

    /// Fetching any registered page succeeds with 200 and returns the exact
    /// body; fetching any unregistered path on the same host returns 404.
    #[test]
    fn fetch_registered_pages(host in host_name(), p in path(), body in "[ -~]{0,200}") {
        let mut web = SimulatedWeb::new();
        let mut site = SiteHost::new(&host).unwrap();
        site.add_page(&p, body.clone());
        web.register(site);
        let fetcher = Fetcher::new(web);
        let url = Url::parse(&format!("https://{host}{p}")).unwrap();
        let resp = fetcher.get(&url).unwrap();
        prop_assert_eq!(resp.status, StatusCode::OK);
        prop_assert_eq!(resp.body_text(), body);

        let missing = Url::parse(&format!("https://{host}{p}/definitely-not-registered")).unwrap();
        let resp = fetcher.get(&missing).unwrap();
        prop_assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    /// A redirect chain of bounded length is always followed to the final
    /// page, and the hop count matches the chain length.
    #[test]
    fn redirect_chains_resolve(host in host_name(), hops in 1usize..5) {
        let mut web = SimulatedWeb::new();
        let mut site = SiteHost::new(&host).unwrap();
        for i in 0..hops {
            site.add_content(
                &format!("/hop{i}"),
                PageContent::Redirect { location: format!("/hop{}", i + 1).into(), permanent: false },
            );
        }
        site.add_page(&format!("/hop{hops}"), "final destination");
        web.register(site);
        let fetcher = Fetcher::new(web);
        let url = Url::parse(&format!("https://{host}/hop0")).unwrap();
        let resp = fetcher.get(&url).unwrap();
        prop_assert_eq!(resp.status, StatusCode::OK);
        prop_assert_eq!(resp.redirects_followed, hops);
        prop_assert_eq!(resp.body_text(), "final destination".to_string());
        // Every redirect hop is a request on the wire, plus the landing.
        prop_assert_eq!(fetcher.requests_issued(), hops + 1);
    }

    /// The request count accumulates across repeated GETs.
    #[test]
    fn requests_issued_accumulates_across_gets(host in host_name(), requests in 1usize..10) {
        let mut web = SimulatedWeb::new();
        let mut site = SiteHost::new(&host).unwrap();
        site.add_page("/", "home");
        web.register(site);
        let fetcher = Fetcher::new(web);
        let url = Url::parse(&format!("https://{host}/")).unwrap();
        for _ in 0..requests {
            fetcher.get(&url).unwrap();
        }
        prop_assert_eq!(fetcher.requests_issued(), requests);
    }
}
