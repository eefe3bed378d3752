//! §V-B "Floating point-only protection": ELZAR restricted to FP data on
//! the three FP-heavy PARSEC benchmarks.

#![forbid(unsafe_code)]

use elzar::{normalized_runtime, ArtifactSet, Mode};
use elzar_bench::{banner, run_artifact, scale_from_env, thread_sweep};
use elzar_workloads::{by_name, short_name};

fn main() {
    banner("§V-B", "FP-only protection overhead vs native");
    let scale = scale_from_env();
    let sweep = thread_sweep();
    let set = ArtifactSet::new();
    print!("{:<14}", "benchmark");
    for t in &sweep {
        print!(" {:>7}T", t);
    }
    println!();
    for name in ["blackscholes", "fluidanimate", "swaptions"] {
        let w = by_name(name).expect("known");
        let built = w.build(scale);
        let native = set.get_or_build(name, &Mode::Native, || built.module.clone());
        let fp = set.get_or_build(name, &Mode::elzar_fp_only(), || built.module.clone());
        print!("{:<14}", short_name(name));
        for t in &sweep {
            let rn = run_artifact(&native, &built.input, *t);
            let rf = run_artifact(&fp, &built.input, *t);
            print!(" {:>+6.0}%", (normalized_runtime(&rf, &rn) - 1.0) * 100.0);
        }
        println!();
    }
    println!();
    println!("Paper: blackscholes 9-35%, fluidanimate 10-18%, swaptions");
    println!("40-60% over native — hardening floats alone is cheap.");
}
