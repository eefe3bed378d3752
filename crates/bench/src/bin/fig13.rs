//! Figure 13: fault-injection outcomes for native vs ELZAR builds
//! (2 threads, smallest inputs — §V-A/§V-C).
//!
//! Artifact-centric campaigns: each `(benchmark, version)` is lowered
//! exactly once (asserted via `elzar::build_count`) and its campaign
//! classifies against the artifact's *cached* golden run — the
//! reference execution is computed once per artifact, never per
//! campaign invocation.

#![forbid(unsafe_code)]

use elzar::{ArtifactSet, Mode};
use elzar_bench::{assert_builds, banner, campaign_config, campaign_workers_from_env, fi_runs_from_env};
use elzar_fault::{Outcome, OutcomeClass};
use elzar_workloads::{by_name, short_name, Scale};

/// The twelve benchmarks of the paper's Figure 13 (mmul and fluidanimate
/// were not fault-injected in the paper either).
const FI_BENCHES: [&str; 12] = [
    "histogram",
    "kmeans",
    "linear_regression",
    "pca",
    "string_match",
    "word_count",
    "blackscholes",
    "dedup",
    "ferret",
    "streamcluster",
    "swaptions",
    "x264",
];

/// The paper injected at 2 simulated threads.
const FI_THREADS: u32 = 2;

fn main() {
    let runs = fi_runs_from_env();
    banner("Figure 13", "fault-injection outcomes, native (N) vs ELZAR (E)");
    let builds_at_start = elzar::build_count();
    println!(
        "{runs} injections per benchmark and version (paper: 2500, 2 threads), {} campaign workers",
        campaign_workers_from_env()
    );
    println!(
        "{:<10} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "bench", "ver", "hang", "os-det", "corr", "masked", "SDC", "crashed", "correct", "corrupt"
    );
    let set = ArtifactSet::new();
    let mut sums: std::collections::HashMap<(&str, OutcomeClass), f64> = Default::default();
    for name in FI_BENCHES {
        let w = by_name(name).expect("known benchmark");
        let built = w.build(Scale::Tiny);
        for (ver, mode) in [("N", Mode::NativeNoSimd), ("E", Mode::elzar_default())] {
            let artifact = set.get_or_build(name, &mode, || built.module.clone());
            let cfg = campaign_config(runs, 0xF13 ^ runs as u64, FI_THREADS);
            let r = artifact.campaign(&built.input, &cfg);
            println!(
                "{:<10} {:>3} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% | {:>7.1}% {:>7.1}% {:>7.1}%",
                short_name(name),
                ver,
                r.rate(Outcome::Hang) * 100.0,
                r.rate(Outcome::OsDetected) * 100.0,
                r.rate(Outcome::ElzarCorrected) * 100.0,
                r.rate(Outcome::Masked) * 100.0,
                r.rate(Outcome::Sdc) * 100.0,
                r.class_rate(OutcomeClass::Crashed) * 100.0,
                r.class_rate(OutcomeClass::Correct) * 100.0,
                r.class_rate(OutcomeClass::Corrupted) * 100.0,
            );
            for c in [OutcomeClass::Crashed, OutcomeClass::Correct, OutcomeClass::Corrupted] {
                *sums.entry((ver, c)).or_default() += r.class_rate(c);
            }
        }
    }
    let n = FI_BENCHES.len() as f64;
    println!("--------------------------------------------------------------");
    for ver in ["N", "E"] {
        println!(
            "{:<10} {:>3} mean: crashed {:>5.1}%  correct {:>5.1}%  corrupted {:>5.1}%",
            "mean",
            ver,
            sums[&(ver, OutcomeClass::Crashed)] / n * 100.0,
            sums[&(ver, OutcomeClass::Correct)] / n * 100.0,
            sums[&(ver, OutcomeClass::Corrupted)] / n * 100.0,
        );
    }
    println!();
    assert_builds(builds_at_start, FI_BENCHES.len() as u64 * 2, "fig13");
    println!();
    println!("Paper shape: ELZAR cuts SDC from ~27% to ~5% and crashes from");
    println!("~18% to ~6%; histogram keeps the worst residual SDC (address");
    println!("extraction window, §V-C); blackscholes is near zero.");
}
