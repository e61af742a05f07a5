//! The repository benchmark: end-to-end and per-layer performance of the
//! RWS reproduction on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-repro|load-calm|load-storm|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: the next operation starts when the
//! previous one has finished. Operations are timed from outside the
//! program, and every output is checked against the sequential oracle
//! before it counts. The last line of standard output is the JSON result;
//! the line before it records the environment. Standard error carries a
//! readable table and, with `--trace 1`, the span tree.

mod load;
mod metrics;
mod probe;
mod repro;
mod stats;
mod trace;

use metrics::{env_json, result_json, RunResult};
use rws_paper::stats::{Rng, Xoshiro256StarStar};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &["paper-repro", "load-calm", "load-storm"];

const USAGE: &str = "usage: perfbench --workload <paper-repro|load-calm|load-storm|all> \
--seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=3600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Derive an independent 64-bit seed from the workload seed and a label,
/// so every configuration seed follows from `--seed` alone.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    Xoshiro256StarStar::new(seed).derive(label).next_u64()
}

/// Pin the pool width so pool workers plus the calling thread stay within
/// the machine's cores. Must run before anything touches the global pool.
/// Returns `(nproc, workers)`.
fn pin_pool() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.saturating_sub(1);
    // Still single-threaded here: no other thread can read the environment.
    std::env::set_var("RWS_POOL_THREADS", workers.to_string());
    (nproc, workers)
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Set-up timings spread evenly over a run, so that their median samples
/// the same machine conditions as the operations do.
pub struct SetupTimer {
    reps: usize,
    secs: Vec<f64>,
}

impl SetupTimer {
    pub fn new(reps: usize) -> SetupTimer {
        SetupTimer {
            reps: reps.max(1),
            secs: Vec::with_capacity(reps),
        }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = set_up();
        self.secs.push(start.elapsed().as_secs_f64());
        out
    }

    /// True when the run has reached the slot of the next set-up: the
    /// `reps` set-ups start at even fractions of the budget.
    pub fn due(&self, elapsed: Duration, budget: Duration) -> bool {
        self.secs.len() < self.reps
            && elapsed.as_secs_f64()
                >= budget.as_secs_f64() * self.secs.len() as f64 / self.reps as f64
    }

    /// The median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        stats::median_of(self.secs.clone()).unwrap_or(0.0)
    }
}

/// Wall-time samples of a closed loop, each bracketed by machine-speed
/// probes: one probe runs before the first operation and one after every
/// operation, so operation `i` sits between probes `i` and `i + 1`.
#[derive(Debug)]
pub struct Samples {
    ms: Vec<f64>,
    probe_ms: Vec<f64>,
    items: u64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            ms: Vec::new(),
            probe_ms: vec![probe::probe_ms()],
            items: 0,
        }
    }
}

impl Samples {
    /// Record one operation's wall time and work items, then probe.
    pub fn push(&mut self, elapsed: Duration, items: u64) {
        self.ms.push(elapsed.as_secs_f64() * 1e3);
        self.items += items;
        self.probe_ms.push(probe::probe_ms());
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    pub fn median_ms(&self) -> f64 {
        stats::median_of(self.ms.clone()).unwrap_or(0.0)
    }

    /// Each operation's cost in probe units: its wall time over the mean of
    /// the two probes around it.
    fn costs(&self) -> Vec<f64> {
        self.ms
            .iter()
            .zip(self.probe_ms.windows(2))
            .map(|(ms, around)| ms / ((around[0] + around[1]) / 2.0))
            .collect()
    }

    /// Record the end-to-end timing metrics: the median cost and the tail
    /// cost with at least ten samples beyond it. Raw wall times (median,
    /// tail, quartiles, throughput) and the probe's median go to the
    /// environment line.
    pub fn report(&self, run: &mut RunResult) {
        let costs = sorted(self.costs());
        run.set("op_cost_p50", stats::median(&costs).unwrap_or(0.0));
        // Too few samples for any tail: report the slowest one and say so.
        let tail = stats::tail_percentile(&costs, 0.90, 10);
        let (q, p90) = tail.map_or((1.0, *costs.last().unwrap_or(&0.0)), |t| {
            (t.quantile, t.value)
        });
        run.set("op_cost_p90", p90);
        run.env("op_samples", self.ms.len());
        run.env("op_tail_quantile", format!("{q:.4}"));

        let ms = sorted(self.ms.clone());
        run.env("op_p50_ms", format!("{:.3}", self.median_ms()));
        if let Some(t) = stats::tail_percentile(&ms, 0.90, 10) {
            run.env("op_p90_ms", format!("{:.3}", t.value));
        }
        if let Some([q1, _, q3]) = stats::quartiles(&ms) {
            run.env("op_quartiles_ms", format!("{q1:.3}..{q3:.3}"));
        }
        let busy_s: f64 = self.ms.iter().sum::<f64>() / 1e3;
        run.env("items_per_s", format!("{:.1}", self.items as f64 / busy_s));
        let probe_p50 = stats::median_of(self.probe_ms.clone()).unwrap_or(0.0);
        run.env("probe_p50_ms", format!("{probe_p50:.4}"));
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn run_workload(workload: &str, args: &Args) -> Result<RunResult, String> {
    let (seed, budget) = (args.seed, Duration::from_secs(args.seconds));
    match workload {
        "paper-repro" => repro::run(seed, budget, args.traced),
        "load-calm" => load::run(load::Weather::Calm, seed, budget, args.traced),
        "load-storm" => load::run(load::Weather::Storm, seed, budget, args.traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (nproc, workers) = pin_pool();
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    let mut all_rows = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for workload in &workloads {
        let mut run = match run_workload(workload, &args) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut env = vec![
            ("workload", workload.to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.traced).to_string()),
            ("nproc", nproc.to_string()),
            ("pool_workers", workers.to_string()),
        ];
        env.append(&mut run.env);
        let rows = match run.rows(args.traced) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "== {workload} ({} ops, {} failed)",
            run.attempted, run.failed
        );
        for (name, value, unit) in &rows {
            eprintln!("  {name:<34} {value:>16.4} {unit}");
        }
        println!("{}", env_json(&env));
        let prefix = if workloads.len() > 1 {
            format!("{workload}.")
        } else {
            String::new()
        };
        all_rows.extend(
            rows.into_iter()
                .map(|(name, value, unit)| (format!("{prefix}{name}"), value, unit)),
        );
        attempted += run.attempted;
        failed += run.failed;
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", result_json(correct, attempted, failed, &all_rows));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("output gate failed: {failed} of {attempted} operations mismatched the oracle");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "load-storm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("load-storm", 7, 10, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "all", "--seed"]).is_err());
    }

    #[test]
    fn derived_seeds_are_stable_and_label_specific() {
        assert_eq!(derive_seed(1, "corpus"), derive_seed(1, "corpus"));
        assert_ne!(derive_seed(1, "corpus"), derive_seed(1, "survey"));
        assert_ne!(derive_seed(1, "corpus"), derive_seed(2, "corpus"));
    }
}
