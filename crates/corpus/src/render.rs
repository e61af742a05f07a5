//! Arena-backed page rendering.
//!
//! [`crate::template::render_site`] builds a page out of per-block
//! `format!` calls — every article card, nav link and chrome fragment is a
//! fresh heap `String` that is immediately copied into the next-larger
//! fragment and dropped. That churn is pure overhead: the generator renders
//! each page exactly once and interns the finished bytes. [`RenderArena`]
//! replaces it with one reusable output buffer per worker: every fragment
//! is written in place with `write!`-style appenders in final document
//! order, so a warm arena (capacity grown by the first render) builds a
//! whole page without touching the allocator — the corpus alloc tests pin
//! this — and hands the finished `&str` straight to `PageBody` interning.
//!
//! The `format!` renderer is retained verbatim as the byte-for-byte oracle
//! (`render_site` / `render_about_page`): the property tests assert both
//! paths produce identical HTML for every seed, category, language and
//! brand.

use crate::brand::Brand;
use crate::category::SiteCategory;
use crate::site::Language;
use crate::template::TemplateStyle;
use rws_domain::DomainName;
use rws_stats::rng::Rng;
use std::fmt::Write;

/// Reusable render scratch: the page output buffer plus the two derived
/// strings (`css_prefix`, tagline) the templates splice in repeatedly.
/// Create one per worker, render any number of pages through it; buffers
/// are cleared (never shrunk) between pages.
#[derive(Debug, Default, Clone)]
pub struct RenderArena {
    /// The page being built; borrowed out by the `*_into` methods.
    buf: String,
    /// The brand's CSS class prefix (`slug-palette`), cached per render so
    /// splicing it does not call the allocating [`Brand::css_prefix`].
    prefix: String,
    /// The brand tagline, computed once per render and spliced twice.
    tagline: String,
}

impl RenderArena {
    /// A fresh, cold arena.
    pub fn new() -> RenderArena {
        RenderArena::default()
    }

    /// Reset the buffers for a new page of `brand`, keeping capacity.
    fn begin(&mut self, brand: &Brand) {
        self.buf.clear();
        self.prefix.clear();
        let _ = write!(self.prefix, "{}-{}", brand.slug, brand.palette);
        self.tagline.clear();
    }

    /// Render a site's front page into the arena, returning the finished
    /// HTML. Byte-for-byte identical to [`crate::template::render_site`]
    /// with the same inputs, consuming the RNG in the same order.
    pub fn render_site_into<R: Rng + ?Sized>(
        &mut self,
        domain: &DomainName,
        brand: &Brand,
        category: SiteCategory,
        language: Language,
        rng: &mut R,
    ) -> &str {
        self.begin(brand);
        let style = TemplateStyle::for_category(category);
        let keywords = style.keywords();
        let lang_attr = match language {
            Language::English => "en",
            Language::NonEnglish => "xx",
        };
        match language {
            Language::English => {
                let _ = write!(self.tagline, "{} — {}", brand.name, keywords[0]);
            }
            Language::NonEnglish => {
                let _ = write!(self.tagline, "{} — lorem ipsum dolor", brand.name);
            }
        }
        // The oracle draws the block count before rendering anything; keep
        // the draw here so the streams stay aligned.
        let block_count = rng.range_usize(3, 7);

        let brand_hash: u64 = brand.slug.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });

        // Head and header chrome, in document order.
        let w = &mut self.buf;
        let prefix = &self.prefix;
        let _ = write!(
            w,
            "<!DOCTYPE html>\n<html lang=\"{lang_attr}\">\n<head>\n  <title>{} | {}</title>\n  <meta name=\"description\" content=\"{}\">\n  <style>.{prefix}-logo {{ color: {palette}; }}</style>\n</head>\n<body class=\"{prefix}-body theme-{palette}\">\n  <header class=\"{prefix}-header site-header\">\n    <div class=\"{prefix}-logo\">{brand_name}</div>\n    <nav class=\"{prefix}-nav\"><a class=\"{prefix}-nav-link\" href=\"/\">Home</a><a class=\"{prefix}-nav-link\" href=\"/about\">About</a>",
            brand.name,
            domain,
            self.tagline,
            palette = brand.palette,
            brand_name = brand.name,
        );
        // Nav links stream straight into the page — no Vec<String> + join.
        for i in 0..(2 + (brand_hash % 4) as usize) {
            let _ = write!(
                w,
                "<a class=\"{prefix}-nav-link\" href=\"/section{i}\">Section {i}</a>"
            );
        }
        let _ = write!(w, "</nav>\n    ");
        if brand_hash & 0x10 != 0 {
            let _ = write!(
                w,
                "<div class=\"{prefix}-promo\"><span class=\"{prefix}-promo-text\">{}</span><button class=\"{prefix}-promo-cta\">Subscribe</button></div>",
                self.tagline,
            );
        }
        let _ = write!(w, "\n  </header>\n  ");

        // Style-specific structure, with the article blocks streamed in
        // place. Infrastructure draws the block stream but renders none of
        // it (matching the oracle, which builds and discards the string):
        // render into the buffer, then truncate back.
        match style {
            TemplateStyle::NewsPortal => {
                let _ = write!(w, "<section class=\"{prefix}-headlines grid-news\">");
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(
                    w,
                    "</section><aside class=\"{prefix}-trending sidebar\"><ul class=\"{prefix}-trend-list\"><li>{}</li><li>{}</li></ul></aside>",
                    keywords[0], keywords[1],
                );
            }
            TemplateStyle::TechProduct => {
                let _ = write!(
                    w,
                    "<section class=\"{prefix}-hero docs-hero\"><pre class=\"{prefix}-code\">GET /v1/status</pre></section><section class=\"{prefix}-features feature-grid\">"
                );
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(w, "</section>");
            }
            TemplateStyle::Corporate => {
                let _ = write!(
                    w,
                    "<section class=\"{prefix}-mission corporate-banner\"><h2 class=\"{prefix}-mission-title\">{}</h2></section><section class=\"{prefix}-services\">",
                    self.tagline,
                );
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(w, "</section>");
            }
            TemplateStyle::Storefront => {
                let _ = write!(w, "<section class=\"{prefix}-products product-grid\">");
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(
                    w,
                    "</section><div class=\"{prefix}-cart cart-widget\"><button class=\"{prefix}-buy\">Add to cart</button></div>"
                );
            }
            TemplateStyle::Infrastructure => {
                // Consume the block draws without emitting the blocks.
                let mark = w.len();
                write_blocks(w, prefix, keywords, language, block_count, rng);
                w.truncate(mark);
                let _ = write!(
                    w,
                    "<main class=\"{prefix}-status minimal\"><p class=\"{prefix}-notice\">{} endpoint</p><code class=\"{prefix}-snippet\">t.js?id={}</code></main>",
                    keywords[0], brand.slug,
                );
            }
            TemplateStyle::Portal => {
                let _ = write!(
                    w,
                    "<form class=\"{prefix}-search search-box\"><input class=\"{prefix}-query\" name=\"q\"><button class=\"{prefix}-go\">Search</button></form><section class=\"{prefix}-directory\">"
                );
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(w, "</section>");
            }
            TemplateStyle::SocialFeed => {
                let _ = write!(w, "<section class=\"{prefix}-feed feed-stream\">");
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(
                    w,
                    "</section><nav class=\"{prefix}-actions\"><button class=\"{prefix}-follow\">Follow</button><button class=\"{prefix}-share\">Share</button></nav>"
                );
            }
            TemplateStyle::Showcase => {
                let _ = write!(w, "<section class=\"{prefix}-carousel showcase\">");
                write_blocks(w, prefix, keywords, language, block_count, rng);
                let _ = write!(
                    w,
                    "</section><footer class=\"{prefix}-tickets\"><a class=\"{prefix}-cta\" href=\"/tickets\">{}</a></footer>",
                    keywords[0],
                );
            }
        }

        // Footer chrome.
        let _ = write!(
            w,
            "\n  <footer class=\"{prefix}-footer site-footer\">\n    <p class=\"{prefix}-copyright\">© 2024 {org}. All rights reserved.</p>\n    <p class=\"{prefix}-legal\">Operated by {org}. <a class=\"{prefix}-about-link\" href=\"/about\">About {}</a></p>\n    ",
            brand.name,
            org = brand.organisation_name,
        );
        if brand_hash & 0x20 != 0 {
            let _ = write!(
                w,
                "<form class=\"{prefix}-newsletter\"><label class=\"{prefix}-newsletter-label\">Newsletter</label><input class=\"{prefix}-newsletter-email\" name=\"email\"><button class=\"{prefix}-newsletter-submit\">Sign up</button></form>"
            );
        }
        let _ = write!(w, "\n    ");
        if brand_hash & 0x40 != 0 {
            let _ = write!(
                w,
                "<ul class=\"{prefix}-social\"><li class=\"{prefix}-social-item\"><a href=\"/rss\">RSS</a></li><li class=\"{prefix}-social-item\"><a href=\"/contact\">Contact</a></li></ul>"
            );
        }
        let _ = write!(w, "\n  </footer>\n</body>\n</html>");
        &self.buf
    }

    /// Render the `/about` page into the arena. Byte-for-byte identical to
    /// [`crate::template::render_about_page`].
    pub fn render_about_page_into(
        &mut self,
        domain: &DomainName,
        brand: &Brand,
        language: Language,
    ) -> &str {
        self.begin(brand);
        let w = &mut self.buf;
        let prefix = &self.prefix;
        let _ = write!(
            w,
            "<!DOCTYPE html><html><head><title>About {brand}</title></head><body class=\"{prefix}-body\"><main class=\"{prefix}-about about-page\"><h1 class=\"{prefix}-about-title\">About</h1><p class=\"{prefix}-about-body\">",
            brand = brand.name,
        );
        match language {
            Language::English => {
                let _ = write!(
                    w,
                    "{} is operated by {}. Visit us at {}.",
                    brand.name, brand.organisation_name, domain,
                );
            }
            Language::NonEnglish => {
                let _ = write!(
                    w,
                    "{} — lorem ipsum {}. {}.",
                    brand.name, brand.organisation_name, domain,
                );
            }
        }
        let _ = write!(w, "</p></main></body></html>");
        &self.buf
    }
}

/// Stream the article/card blocks into `w`, drawing from the RNG exactly as
/// the oracle's block loop does: one keyword pick per block, then the
/// filler-sentence draws (word count, then one pick per word).
fn write_blocks<R: Rng + ?Sized>(
    w: &mut String,
    prefix: &str,
    keywords: &[&str],
    language: Language,
    block_count: usize,
    rng: &mut R,
) {
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
    for i in 0..block_count {
        let kw = keywords[rng.range_usize(0, keywords.len())];
        let _ = write!(
            w,
            "<article class=\"{prefix}-card {prefix}-card-{i}\"><h3 class=\"{prefix}-card-title\">{kw}</h3><p class=\"{prefix}-card-body\">{kw}"
        );
        for _ in 0..rng.range_usize(4, 9) {
            w.push(' ');
            w.push_str(words[rng.range_usize(0, words.len())]);
        }
        let _ = write!(w, "</p></article>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{render_about_page, render_site};
    use rws_stats::rng::Xoshiro256StarStar;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn arena_matches_format_oracle_across_categories_and_languages() {
        let mut arena = RenderArena::new();
        for seed in 0..8u64 {
            let mut brand_rng = Xoshiro256StarStar::new(seed);
            let brand = Brand::generate(&mut brand_rng);
            let domain = dn(&format!("{}.example", brand.slug));
            for category in SiteCategory::ALL {
                for language in [Language::English, Language::NonEnglish] {
                    let mut a = Xoshiro256StarStar::new(seed ^ 0xabcd);
                    let mut b = a.clone();
                    let oracle = render_site(&domain, &brand, category, language, &mut a);
                    let fast = arena.render_site_into(&domain, &brand, category, language, &mut b);
                    assert_eq!(fast, oracle, "divergence on {category:?}/{language:?}");
                    // Both paths must leave the RNG in the same state.
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }

    #[test]
    fn arena_about_page_matches_oracle() {
        let mut arena = RenderArena::new();
        let brand = Brand::named("Northpost");
        let domain = dn("northpost.com");
        for language in [Language::English, Language::NonEnglish] {
            assert_eq!(
                arena.render_about_page_into(&domain, &brand, language),
                render_about_page(&domain, &brand, language),
            );
        }
    }

    #[test]
    fn arena_is_reusable_and_keeps_capacity() {
        let mut arena = RenderArena::new();
        let brand = Brand::named("Northpost");
        let domain = dn("northpost.com");
        let mut rng = Xoshiro256StarStar::new(3);
        let first = arena
            .render_site_into(
                &domain,
                &brand,
                SiteCategory::NewsAndMedia,
                Language::English,
                &mut rng,
            )
            .to_string();
        let grown = arena.buf.capacity();
        let mut rng2 = Xoshiro256StarStar::new(3);
        let second = arena
            .render_site_into(
                &domain,
                &brand,
                SiteCategory::NewsAndMedia,
                Language::English,
                &mut rng2,
            )
            .to_string();
        assert_eq!(first, second, "same seed renders the same page");
        assert_eq!(
            arena.buf.capacity(),
            grown,
            "warm re-render never reallocates"
        );
    }
}
