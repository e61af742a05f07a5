//! The load-scale knob.

use serde::{Deserialize, Serialize};

/// How much traffic a load run generates.
///
/// A small base configuration plus a [`times`](LoadScale::times)
/// multiplier, so tests run in milliseconds while the benchmark's
/// 12k-client fleet (`smoke().times(50)`) replays over a hundred thousand
/// requests from the same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadScale {
    /// Number of simulated browser clients.
    pub clients: usize,
    /// Mean page visits per client session (Poisson-distributed per
    /// client, minimum one).
    pub mean_visits: usize,
    /// Mean think time between visits in simulated milliseconds
    /// (exponentially distributed).
    pub think_time_ms: u64,
    /// Window over which client sessions start (uniform arrival), in
    /// simulated milliseconds.
    pub ramp_ms: u64,
}

impl LoadScale {
    /// A small smoke-test scale: a few hundred clients, a few thousand
    /// requests — fast enough for property tests.
    pub fn smoke() -> LoadScale {
        LoadScale {
            clients: 240,
            mean_visits: 8,
            think_time_ms: 750,
            ramp_ms: 10_000,
        }
    }

    /// Scale the client count by `factor`, keeping per-client behaviour
    /// identical (sessions are seeded per client id, so the first
    /// `clients` sessions of a scaled run match the unscaled run exactly).
    pub fn times(self, factor: usize) -> LoadScale {
        LoadScale {
            clients: self.clients * factor,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scales_clients_only() {
        let base = LoadScale::smoke();
        let scaled = base.times(4);
        assert_eq!(scaled.clients, base.clients * 4);
        assert_eq!(scaled.mean_visits, base.mean_visits);
        assert_eq!(scaled.think_time_ms, base.think_time_ms);
        assert_eq!(scaled.ramp_ms, base.ramp_ms);
    }
}
