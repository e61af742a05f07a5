//! HTML templates.
//!
//! Every synthetic site renders a front page from a per-category template
//! parameterised by its brand. Two sites rendered from the *same* template
//! with the *same* brand share their tag structure and CSS classes (high
//! Figure 4 similarity); sites rendered from different templates or with
//! different brands share very little — which is how the corpus reproduces
//! the paper's finding that most set members look nothing like their
//! primaries (median joint similarity ≈ 0.04).

use crate::brand::Brand;
use crate::category::SiteCategory;
use crate::site::Language;
use rws_domain::DomainName;
use rws_stats::rng::Rng;
use serde::{Deserialize, Serialize};

/// Visual/structural template style. Usually derived from the category, but
/// separable so tests can force template collisions or divergences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateStyle {
    /// Headline-grid news layout.
    NewsPortal,
    /// Documentation/product layout.
    TechProduct,
    /// Corporate marketing layout.
    Corporate,
    /// Product-grid storefront.
    Storefront,
    /// Minimal landing page for infrastructure/analytics endpoints.
    Infrastructure,
    /// Search/portal layout.
    Portal,
    /// Feed-style social layout.
    SocialFeed,
    /// Media/entertainment layout.
    Showcase,
}

impl TemplateStyle {
    /// The default template for a category.
    pub fn for_category(category: SiteCategory) -> TemplateStyle {
        match category {
            SiteCategory::NewsAndMedia => TemplateStyle::NewsPortal,
            SiteCategory::InformationTechnology => TemplateStyle::TechProduct,
            SiteCategory::BusinessAndEconomy => TemplateStyle::Corporate,
            SiteCategory::Shopping => TemplateStyle::Storefront,
            SiteCategory::AnalyticsInfrastructure | SiteCategory::CompromisedSpam => {
                TemplateStyle::Infrastructure
            }
            SiteCategory::SearchEnginesAndPortals => TemplateStyle::Portal,
            SiteCategory::SocialNetworking => TemplateStyle::SocialFeed,
            SiteCategory::Entertainment
            | SiteCategory::Travel
            | SiteCategory::Games
            | SiteCategory::AdultContent => TemplateStyle::Showcase,
            SiteCategory::Unknown => TemplateStyle::Corporate,
        }
    }

    /// Category-flavoured vocabulary injected into headlines and body copy so
    /// that the keyword classifier (rws-classify) has signal to work with.
    pub fn keywords(self) -> &'static [&'static str] {
        match self {
            TemplateStyle::NewsPortal => &[
                "breaking news",
                "politics",
                "headlines",
                "report",
                "editorial",
            ],
            TemplateStyle::TechProduct => {
                &["software", "developer", "platform", "api", "release notes"]
            }
            TemplateStyle::Corporate => {
                &["business", "finance", "investors", "markets", "services"]
            }
            TemplateStyle::Storefront => &["shop", "cart", "checkout", "products", "free shipping"],
            TemplateStyle::Infrastructure => {
                &["analytics", "tracking", "measurement", "tag", "pixel"]
            }
            TemplateStyle::Portal => &["search", "portal", "directory", "results", "explore"],
            TemplateStyle::SocialFeed => &["friends", "share", "community", "follow", "feed"],
            TemplateStyle::Showcase => &["entertainment", "stream", "travel", "games", "tickets"],
        }
    }
}

/// Render the front page of a site.
///
/// The page contains the cues the paper's survey participants report using
/// (Table 2): the domain name itself, branding elements (logo block, palette
/// classes), header text, footer text naming the operating organisation, and
/// an about link.
pub fn render_site<R: Rng + ?Sized>(
    domain: &DomainName,
    brand: &Brand,
    category: SiteCategory,
    language: Language,
    rng: &mut R,
) -> String {
    let style = TemplateStyle::for_category(category);
    let prefix = brand.css_prefix();
    let keywords = style.keywords();
    let lang_attr = match language {
        Language::English => "en",
        Language::NonEnglish => "xx",
    };
    let tagline = match language {
        Language::English => format!("{} — {}", brand.name, keywords[0]),
        Language::NonEnglish => format!("{} — lorem ipsum dolor", brand.name),
    };

    // Article/card blocks vary in count so structurally identical templates
    // still differ slightly between sites, as real pages do.
    let block_count = rng.range_usize(3, 7);
    let mut blocks = String::new();
    for i in 0..block_count {
        let kw = keywords[rng.range_usize(0, keywords.len())];
        blocks.push_str(&format!(
            r#"<article class="{prefix}-card {prefix}-card-{i}"><h3 class="{prefix}-card-title">{kw}</h3><p class="{prefix}-card-body">{body}</p></article>"#,
            body = filler_sentence(rng, language, kw),
        ));
    }

    let structure = match style {
        TemplateStyle::NewsPortal => format!(
            r#"<section class="{prefix}-headlines grid-news">{blocks}</section><aside class="{prefix}-trending sidebar"><ul class="{prefix}-trend-list"><li>{k0}</li><li>{k1}</li></ul></aside>"#,
            k0 = keywords[0],
            k1 = keywords[1],
        ),
        TemplateStyle::TechProduct => format!(
            r#"<section class="{prefix}-hero docs-hero"><pre class="{prefix}-code">GET /v1/status</pre></section><section class="{prefix}-features feature-grid">{blocks}</section>"#,
        ),
        TemplateStyle::Corporate => format!(
            r#"<section class="{prefix}-mission corporate-banner"><h2 class="{prefix}-mission-title">{tagline}</h2></section><section class="{prefix}-services">{blocks}</section>"#,
        ),
        TemplateStyle::Storefront => format!(
            r#"<section class="{prefix}-products product-grid">{blocks}</section><div class="{prefix}-cart cart-widget"><button class="{prefix}-buy">Add to cart</button></div>"#,
        ),
        TemplateStyle::Infrastructure => format!(
            r#"<main class="{prefix}-status minimal"><p class="{prefix}-notice">{k0} endpoint</p><code class="{prefix}-snippet">t.js?id={slug}</code></main>"#,
            k0 = keywords[0],
            slug = brand.slug,
        ),
        TemplateStyle::Portal => format!(
            r#"<form class="{prefix}-search search-box"><input class="{prefix}-query" name="q"><button class="{prefix}-go">Search</button></form><section class="{prefix}-directory">{blocks}</section>"#,
        ),
        TemplateStyle::SocialFeed => format!(
            r#"<section class="{prefix}-feed feed-stream">{blocks}</section><nav class="{prefix}-actions"><button class="{prefix}-follow">Follow</button><button class="{prefix}-share">Share</button></nav>"#,
        ),
        TemplateStyle::Showcase => format!(
            r#"<section class="{prefix}-carousel showcase">{blocks}</section><footer class="{prefix}-tickets"><a class="{prefix}-cta" href="/tickets">{k0}</a></footer>"#,
            k0 = keywords[0],
        ),
    };

    // Brand-dependent chrome variation: real sites differ in their header
    // and footer scaffolding even when they use the same page archetype, so
    // derive a few structural choices deterministically from the brand. This
    // keeps two pages of the *same* brand structurally identical while
    // pushing cross-brand structural similarity down towards the low values
    // the paper measures (Figure 4).
    let brand_hash = rws_stats::fnv1a_bytes(brand.slug.as_bytes());
    let nav_links: String = (0..(2 + (brand_hash % 4) as usize))
        .map(|i| format!(r#"<a class="{prefix}-nav-link" href="/section{i}">Section {i}</a>"#))
        .collect();
    let promo_banner = if brand_hash & 0x10 != 0 {
        format!(
            r#"<div class="{prefix}-promo"><span class="{prefix}-promo-text">{tagline}</span><button class="{prefix}-promo-cta">Subscribe</button></div>"#
        )
    } else {
        String::new()
    };
    let newsletter = if brand_hash & 0x20 != 0 {
        format!(
            r#"<form class="{prefix}-newsletter"><label class="{prefix}-newsletter-label">Newsletter</label><input class="{prefix}-newsletter-email" name="email"><button class="{prefix}-newsletter-submit">Sign up</button></form>"#
        )
    } else {
        String::new()
    };
    let social_links = if brand_hash & 0x40 != 0 {
        format!(
            r#"<ul class="{prefix}-social"><li class="{prefix}-social-item"><a href="/rss">RSS</a></li><li class="{prefix}-social-item"><a href="/contact">Contact</a></li></ul>"#
        )
    } else {
        String::new()
    };

    format!(
        r#"<!DOCTYPE html>
<html lang="{lang_attr}">
<head>
  <title>{title}</title>
  <meta name="description" content="{tagline}">
  <style>.{prefix}-logo {{ color: {palette}; }}</style>
</head>
<body class="{prefix}-body theme-{palette}">
  <header class="{prefix}-header site-header">
    <div class="{prefix}-logo">{brand_name}</div>
    <nav class="{prefix}-nav"><a class="{prefix}-nav-link" href="/">Home</a><a class="{prefix}-nav-link" href="/about">About</a>{nav_links}</nav>
    {promo_banner}
  </header>
  {structure}
  <footer class="{prefix}-footer site-footer">
    <p class="{prefix}-copyright">© 2024 {org}. All rights reserved.</p>
    <p class="{prefix}-legal">Operated by {org}. <a class="{prefix}-about-link" href="/about">About {brand_name}</a></p>
    {newsletter}
    {social_links}
  </footer>
</body>
</html>"#,
        title = format_args!("{} | {}", brand.name, domain),
        brand_name = brand.name,
        org = brand.organisation_name,
        palette = brand.palette,
    )
}

/// Render the `/about` page, which names the operating organisation — one of
/// the cues participants report using.
pub fn render_about_page(domain: &DomainName, brand: &Brand, language: Language) -> String {
    let prefix = brand.css_prefix();
    let body = match language {
        Language::English => format!(
            "{brand} is operated by {org}. Visit us at {domain}.",
            brand = brand.name,
            org = brand.organisation_name,
        ),
        Language::NonEnglish => format!(
            "{brand} — lorem ipsum {org}. {domain}.",
            brand = brand.name,
            org = brand.organisation_name,
        ),
    };
    format!(
        r#"<!DOCTYPE html><html><head><title>About {brand}</title></head><body class="{prefix}-body"><main class="{prefix}-about about-page"><h1 class="{prefix}-about-title">About</h1><p class="{prefix}-about-body">{body}</p></main></body></html>"#,
        brand = brand.name,
    )
}

fn filler_sentence<R: Rng + ?Sized>(rng: &mut R, language: Language, keyword: &str) -> String {
    const EN_WORDS: &[&str] = &[
        "today",
        "readers",
        "update",
        "latest",
        "coverage",
        "exclusive",
        "analysis",
        "weekly",
        "guide",
        "insight",
    ];
    const XX_WORDS: &[&str] = &[
        "lorem",
        "ipsum",
        "dolor",
        "amet",
        "consectetur",
        "adipiscing",
        "elit",
        "sed",
        "tempor",
        "incididunt",
    ];
    let words = match language {
        Language::English => EN_WORDS,
        Language::NonEnglish => XX_WORDS,
    };
    let mut s = String::from(keyword);
    for _ in 0..rng.range_usize(4, 9) {
        s.push(' ');
        s.push_str(words[rng.range_usize(0, words.len())]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_html::similarity::html_similarity;
    use rws_stats::rng::Xoshiro256StarStar;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn rendering_is_deterministic_for_a_seed() {
        let brand = Brand::named("Northpost");
        let mut a = Xoshiro256StarStar::new(5);
        let mut b = Xoshiro256StarStar::new(5);
        let pa = render_site(
            &dn("northpost.com"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut a,
        );
        let pb = render_site(
            &dn("northpost.com"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut b,
        );
        assert_eq!(pa, pb);
    }

    #[test]
    fn page_contains_survey_cues() {
        let brand = Brand::named("Northpost");
        let mut rng = Xoshiro256StarStar::new(6);
        let html = render_site(
            &dn("northpost.com"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut rng,
        );
        assert!(html.contains("northpost.com"), "domain cue");
        assert!(html.contains("Northpost"), "brand cue");
        assert!(html.contains("site-header"), "header cue");
        assert!(html.contains("Northpost Group"), "footer organisation cue");
        assert!(html.contains("/about"), "about-page cue");
    }

    #[test]
    fn same_brand_same_category_pages_are_similar() {
        let brand = Brand::named("Northpost");
        let mut rng = Xoshiro256StarStar::new(7);
        let a = render_site(
            &dn("northpost.com"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut rng,
        );
        let b = render_site(
            &dn("northpost.co.uk"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut rng,
        );
        let sim = html_similarity(&a, &b);
        assert!(
            sim.style > 0.8,
            "style similarity {} should be high",
            sim.style
        );
        assert!(
            sim.joint > 0.6,
            "joint similarity {} should be high",
            sim.joint
        );
    }

    #[test]
    fn different_brand_different_category_pages_are_dissimilar() {
        let mut rng = Xoshiro256StarStar::new(8);
        let news_brand = Brand::generate(&mut rng);
        let shop_brand = Brand::generate(&mut rng);
        let a = render_site(
            &dn("somenews.com"),
            &news_brand,
            SiteCategory::NewsAndMedia,
            Language::English,
            &mut rng,
        );
        let b = render_site(
            &dn("someshop.com"),
            &shop_brand,
            SiteCategory::Shopping,
            Language::English,
            &mut rng,
        );
        let sim = html_similarity(&a, &b);
        assert!(
            sim.style < 0.2,
            "style similarity {} should be low",
            sim.style
        );
        assert!(
            sim.joint < 0.3,
            "joint similarity {} should be low",
            sim.joint
        );
    }

    #[test]
    fn non_english_pages_marked_and_filled() {
        let brand = Brand::named("Weltkurier");
        let mut rng = Xoshiro256StarStar::new(9);
        let html = render_site(
            &dn("weltkurier.de"),
            &brand,
            SiteCategory::NewsAndMedia,
            Language::NonEnglish,
            &mut rng,
        );
        assert!(html.contains("lang=\"xx\""));
        assert!(html.contains("lorem"));
    }

    #[test]
    fn about_page_names_the_organisation() {
        let brand = Brand::named("Northpost");
        let about = render_about_page(&dn("northpost.com"), &brand, Language::English);
        assert!(about.contains("operated by Northpost Group"));
        assert!(about.contains("about-page"));
    }

    #[test]
    fn every_category_has_a_template_with_keywords() {
        for c in SiteCategory::ALL {
            let style = TemplateStyle::for_category(c);
            assert!(!style.keywords().is_empty());
        }
    }
}
