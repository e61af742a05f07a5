//! A fixed machine-speed probe, timed next to every operation.
//!
//! On a machine shared with other tenants the same code runs up to half
//! again as slow for seconds at a time, and the fast level itself drifts
//! over minutes. A raw wall time then measures the neighbours as much as
//! the program. The probe is a few milliseconds of work with the same
//! character as the pipeline (formatting, hashing, sorting, byte scanning
//! and allocation), written here in plain `std` so that no change to the
//! workspace crates can change it. Timed right before and after an operation, it
//! reads the machine's speed at that moment; the operation's time divided
//! by the probe's is its cost in probe units, which stays put while the
//! machine speeds up and slows down.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Words formatted, hashed, sorted and scanned per probe.
const WORDS: u64 = 12_000;

/// One probe's worth of work; returns a checksum so nothing is elided.
fn work(seed: u64) -> usize {
    let mut x = seed | 1;
    let mut words: Vec<String> = Vec::with_capacity(WORDS as usize);
    for _ in 0..WORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        words.push(format!("w{:x}.example", x % 40_000));
    }
    let mut counts: HashMap<&str, usize> = HashMap::with_capacity(words.len());
    for word in &words {
        *counts.entry(word.as_str()).or_default() += word.len();
    }
    let distinct = counts.len();
    drop(counts);
    words.sort_unstable();
    let mut text = Vec::with_capacity(words.len() * 16);
    for word in &words {
        text.extend_from_slice(word.as_bytes());
        text.push(b' ');
    }
    let dots = text.iter().filter(|&&b| b == b'.').count();
    distinct + dots
}

/// Run the probe once and return its wall time in milliseconds.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(0x5eed)));
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed_and_takes_time() {
        // The checksum pins the probe's work: a change here would silently
        // rescale every cost the benchmark has reported.
        assert_eq!(work(0x5eed), work(0x5eed));
        assert_eq!(work(0x5eed), 22_381);
        assert!(probe_ms() > 0.0);
    }
}
