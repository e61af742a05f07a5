//! Salvage-sweep equivalence gates for the engine's supervised sweep.
//!
//! Under salvage, `EngineContext::par_map_supervised` must quarantine
//! exactly the tasks that panic — no more, no fewer — and a context on a
//! forced 3-worker pool must agree with its inline `sequential_twin` on
//! both the surviving outputs and the sweep report, across arbitrary seeds
//! (so real cross-thread panics are pinned even on single-core CI
//! machines).

use proptest::prelude::*;
use rws_engine::{EngineContext, SiteResolver, SupervisionPolicy, ThreadPool};
use std::sync::{Once, OnceLock};

/// Suppress the default panic printout for the panics this suite injects
/// on purpose; everything else still reports normally.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("quarantine me"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// The salvage context on a forced 3-worker pool and its inline twin,
/// built once: pools never shut down, so one pool serves every case.
fn contexts() -> &'static (EngineContext, EngineContext) {
    static CONTEXTS: OnceLock<(EngineContext, EngineContext)> = OnceLock::new();
    CONTEXTS.get_or_init(|| {
        let pooled = EngineContext::with_parts(ThreadPool::new(3), SiteResolver::embedded())
            .with_supervision(SupervisionPolicy::Salvage);
        let sequential = pooled.sequential_twin();
        (pooled, sequential)
    })
}

proptest! {
    /// Pooled salvage == sequential salvage: same surviving values in the
    /// same slots, same sweep report (counts, cap trips and retained
    /// `(index, message)` entries), for panic patterns that vary with the
    /// seed.
    #[test]
    fn pooled_salvage_matches_sequential_across_seeds(seed in 0u64..1_000_000) {
        quiet_injected_panics();
        let (pooled, sequential) = contexts();
        let items: Vec<u64> = (0..257u64)
            .map(|i| seed.wrapping_mul(6364136223846793005).wrapping_add(i))
            .collect();
        let modulus = 3 + seed % 11;
        let f = |_: usize, v: &u64| -> u64 {
            if v.is_multiple_of(modulus) {
                panic!("quarantine me: {v}");
            }
            v.wrapping_mul(2)
        };
        let (pooled_out, pooled_sweep) = pooled.par_map_supervised("sweep", &items, f);
        let (sequential_out, sequential_sweep) = sequential.par_map_supervised("sweep", &items, f);
        prop_assert_eq!(&pooled_out, &sequential_out);
        prop_assert_eq!(&pooled_sweep, &sequential_sweep);
        // The sweep quarantined exactly the panicking indices, every
        // surviving slot holds a value, and the retained entries are the
        // lowest panicking indices up to the cap.
        let panicking: Vec<u64> = (0..items.len() as u64)
            .filter(|&index| items[index as usize].is_multiple_of(modulus))
            .collect();
        for (index, item) in items.iter().enumerate() {
            prop_assert_eq!(pooled_out[index].is_none(), item.is_multiple_of(modulus));
        }
        let cap = rws_engine::QUARANTINE_CAP;
        prop_assert_eq!(pooled_sweep.quarantined, panicking.len() as u64);
        prop_assert_eq!(pooled_sweep.cap_trips, u64::from(panicking.len() > cap));
        let retained: Vec<u64> = pooled_sweep.entries.iter().map(|e| e.index).collect();
        prop_assert_eq!(&retained[..], &panicking[..panicking.len().min(cap)]);
        for entry in &pooled_sweep.entries {
            prop_assert_eq!(
                &entry.message,
                &format!("quarantine me: {}", items[entry.index as usize])
            );
        }
    }

    /// With no panics the salvage path degenerates to a plain map: every
    /// slot survives and nothing is quarantined, pooled and sequential.
    #[test]
    fn salvage_without_panics_is_a_plain_map(seed in 0u64..1_000_000) {
        let items: Vec<u64> = (0..113u64).map(|i| seed.wrapping_add(i)).collect();
        let expected: Vec<Option<u64>> = items
            .iter()
            .enumerate()
            .map(|(i, v)| Some(v.wrapping_add(i as u64)))
            .collect();
        let (pooled, sequential) = contexts();
        for ctx in [pooled, sequential] {
            let (out, sweep) = ctx.par_map_supervised("sweep", &items, |i, v| v.wrapping_add(i as u64));
            prop_assert!(!sweep.degraded());
            prop_assert_eq!(&out, &expected);
        }
    }
}
