//! Figure 14: ELZAR vs the SWIFT-R instruction-triplication baseline at
//! the peak thread count, with the per-benchmark delta annotations.

#![forbid(unsafe_code)]

use elzar::{normalized_runtime, ArtifactSet, Mode};
use elzar_bench::{banner, max_threads, mean, run_artifact, scale_from_env};
use elzar_workloads::{all_workloads, short_name};

fn main() {
    let t = max_threads();
    banner("Figure 14", "ELZAR vs SWIFT-R normalized runtime");
    let scale = scale_from_env();
    let set = ArtifactSet::new();
    println!("{:<12} {:>10} {:>10} {:>12}   ({t} threads)", "benchmark", "SWIFT-R", "ELZAR", "ELZAR vs SR");
    let (mut es, mut ss) = (vec![], vec![]);
    for w in all_workloads() {
        let built = w.build(scale);
        let native = set.get_or_build(w.name(), &Mode::Native, || built.module.clone());
        let swiftr = set.get_or_build(w.name(), &Mode::SwiftR, || built.module.clone());
        let elzar = set.get_or_build(w.name(), &Mode::elzar_default(), || built.module.clone());
        let rn = run_artifact(&native, &built.input, t);
        let sw = run_artifact(&swiftr, &built.input, t);
        let el = run_artifact(&elzar, &built.input, t);
        let os = normalized_runtime(&sw, &rn);
        let oe = normalized_runtime(&el, &rn);
        es.push(oe);
        ss.push(os);
        println!(
            "{:<12} {:>9.2}x {:>9.2}x {:>+11.0}%",
            short_name(w.name()),
            os,
            oe,
            (oe / os - 1.0) * 100.0
        );
    }
    println!(
        "{:<12} {:>9.2}x {:>9.2}x {:>+11.0}%",
        "mean",
        mean(&ss),
        mean(&es),
        (mean(&es) / mean(&ss) - 1.0) * 100.0
    );
    println!();
    println!("Paper shape: SWIFT-R ~2.5x vs ELZAR ~3.7x mean (+46%); ELZAR");
    println!("wins on kmeans, blackscholes, fluidanimate (FP-heavy, few");
    println!("memory ops); loses badly on histogram/smatch/wc (memory-bound).");
}
