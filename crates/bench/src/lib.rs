//! # elzar-bench
//!
//! Harnesses that regenerate every table and figure of the ELZAR paper's
//! evaluation. One binary per artifact:
//!
//! | binary   | artifact | content |
//! |----------|----------|---------|
//! | `fig01`  | Figure 1 | native-SIMD speedup over no-SIMD |
//! | `fig11`  | Figure 11 | ELZAR overhead vs threads |
//! | `fig12`  | Figure 12 | check-cost breakdown |
//! | `fig13`  | Figure 13 | fault-injection outcomes |
//! | `fig14`  | Figure 14 | ELZAR vs SWIFT-R |
//! | `fig15`  | Figure 15 | case-study throughput |
//! | `fig17`  | Figure 17 | proposed-AVX estimate |
//! | `table2` | Table II | native runtime statistics |
//! | `table3` | Table III | ILP + instruction increase |
//! | `table4` | Table IV | wrapper microbenchmarks |
//! | `fp_only`| §V-B | FP-only protection overheads |
//! | `fig_serve` | serving mode | sharded resident-VM throughput/latency + online faults (`BENCH_serve.json`) |
//!
//! Every harness pulls its builds from an [`elzar::ArtifactSet`]: a
//! `(workload, mode)` pair is transformed and lowered exactly once per
//! process, no matter how many thread counts, seeds or shard counts
//! consume it (workload modules take the worker count from
//! [`MachineConfig::threads`] at run time). `fig11` and `fig13` assert
//! this with [`elzar::build_count`] deltas.
//!
//! Environment knobs:
//!
//! * `ELZAR_SCALE` = `tiny`/`small`/`large` (default `small`) — problem
//!   size of every workload;
//! * `ELZAR_THREADS` = max *simulated* thread count for sweeps
//!   (default 16): the sweep is `1,2,4,8,16` clipped to this value;
//! * `ELZAR_FI_RUNS` = injections per benchmark/mode in `fig13`
//!   (default 120; the paper used 2500 on a 25-machine cluster);
//! * `ELZAR_CAMPAIGN_THREADS` = *host* OS threads used to fan out
//!   fault-injection runs (and fig11's independent measurements).
//!   Default: all available cores. `1`
//!   forces the serial driver; any value produces bit-identical
//!   results — parallelism only changes wall-clock time;
//! * `ELZAR_PASSES` = comma-separated pass-pipeline override applied to
//!   *every* build (ablations; see `elzar_passes::pm`);
//! * `ELZAR_TRACE` = any non-empty value but `0` prints the library's
//!   debug lines (`elzar_obs::debug`) to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use elzar::Artifact;
use elzar_fault::CampaignConfig;
use elzar_vm::{MachineConfig, RunResult};
use elzar_workloads::Scale;

/// Problem scale from `ELZAR_SCALE` (default `small`).
pub fn scale_from_env() -> Scale {
    match std::env::var("ELZAR_SCALE").unwrap_or_default().to_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "large" => Scale::Large,
        _ => Scale::Small,
    }
}

/// Thread sweep from `ELZAR_THREADS` (default up to 16): `1,2,4,8,16`.
pub fn thread_sweep() -> Vec<u32> {
    let max: u32 = std::env::var("ELZAR_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(16);
    [1u32, 2, 4, 8, 16].into_iter().filter(|t| *t <= max.max(1)).collect()
}

/// Peak thread count of the sweep.
pub fn max_threads() -> u32 {
    *thread_sweep().last().expect("sweep is never empty")
}

/// FI runs per benchmark/mode from `ELZAR_FI_RUNS` (default 120).
pub fn fi_runs_from_env() -> u32 {
    std::env::var("ELZAR_FI_RUNS").ok().and_then(|s| s.parse().ok()).unwrap_or(120)
}

/// Host worker threads for campaign fan-out from
/// `ELZAR_CAMPAIGN_THREADS` (default: all available cores). Worker
/// count never changes results, only wall-clock time.
pub fn campaign_workers_from_env() -> u32 {
    std::env::var("ELZAR_CAMPAIGN_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&w| w >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(4))
}

/// Campaign configuration wired to the environment knobs: `runs` and
/// `seed` from the caller, simulated threads into the machine config,
/// host workers from [`campaign_workers_from_env`].
pub fn campaign_config(runs: u32, seed: u64, threads: u32) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed,
        workers: campaign_workers_from_env(),
        machine: bench_machine(threads),
        ..Default::default()
    }
}

/// Machine configuration for benchmark runs: generous step budget,
/// `threads` simulated workers.
pub fn bench_machine(threads: u32) -> MachineConfig {
    MachineConfig { step_limit: 200_000_000_000, threads, ..MachineConfig::default() }
}

/// Run an artifact's `main` under the bench machine with `threads`
/// simulated workers.
pub fn run_artifact(a: &Artifact, input: &[u8], threads: u32) -> RunResult {
    a.run(input, bench_machine(threads))
}

/// Print a standard experiment header.
pub fn banner(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("(scale={:?}, see EXPERIMENTS.md for paper-vs-measured notes)", scale_from_env());
    println!("==============================================================");
}

/// Report how many artifact builds a harness performed and assert the
/// expected count — the build-once contract, checked at the end of the
/// sweeps that used to re-lower per cell.
///
/// # Panics
/// Panics if the delta does not match `expected`.
pub fn assert_builds(start_count: u64, expected: u64, what: &str) {
    let got = elzar::build_count() - start_count;
    assert_eq!(got, expected, "{what}: expected {expected} artifact builds, performed {got}");
    println!("[build-once] {what}: {got} artifact builds (each (workload, mode) lowered exactly once)");
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        // Not setting the vars yields the defaults.
        assert!(matches!(scale_from_env(), Scale::Small | Scale::Tiny | Scale::Large));
        assert!(!thread_sweep().is_empty());
        assert!(fi_runs_from_env() > 0);
        assert!(campaign_workers_from_env() >= 1);
        assert!(mean(&[1.0, 3.0]) == 2.0);
        assert!(mean(&[]) == 0.0);
    }

    #[test]
    fn campaign_config_carries_knobs() {
        let c = campaign_config(7, 99, 2);
        assert_eq!(c.runs, 7);
        assert_eq!(c.seed, 99);
        assert!(c.workers >= 1);
        assert_eq!(c.machine.step_limit, bench_machine(2).step_limit);
        assert_eq!(c.machine.threads, 2);
    }
}
