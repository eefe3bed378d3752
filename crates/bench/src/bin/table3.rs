//! Table III: instruction-level parallelism (native / ELZAR / SWIFT-R)
//! and the instruction-increase factors of both hardening schemes.

#![forbid(unsafe_code)]

use elzar::{instr_increase, ArtifactSet, Mode};
use elzar_bench::{banner, max_threads, run_artifact, scale_from_env};
use elzar_workloads::{all_workloads, short_name};

fn main() {
    let t = max_threads();
    banner("Table III", "ILP (instr/cycle) and instruction increase vs native");
    let scale = scale_from_env();
    let set = ArtifactSet::new();
    println!(
        "{:<12} {:>8} {:>8} {:>8} | {:>9} {:>9}   ({t} threads)",
        "benchmark", "ILP-nat", "ILP-elz", "ILP-swr", "elz-instr", "swr-instr"
    );
    for w in all_workloads() {
        let built = w.build(scale);
        let native = set.get_or_build(w.name(), &Mode::Native, || built.module.clone());
        let elzar = set.get_or_build(w.name(), &Mode::elzar_default(), || built.module.clone());
        let swiftr = set.get_or_build(w.name(), &Mode::SwiftR, || built.module.clone());
        let rn = run_artifact(&native, &built.input, t);
        let re = run_artifact(&elzar, &built.input, t);
        let rs = run_artifact(&swiftr, &built.input, t);
        println!(
            "{:<12} {:>8.2} {:>8.2} {:>8.2} | {:>8.2}x {:>8.2}x",
            short_name(w.name()),
            rn.ilp(),
            re.ilp(),
            rs.ilp(),
            instr_increase(&re, &rn),
            instr_increase(&rs, &rn),
        );
    }
    println!();
    println!("Paper shape: SWIFT-R's ILP exceeds ELZAR's everywhere (scalar");
    println!("ports are wider); ELZAR's instruction increase undercuts");
    println!("SWIFT-R on compute-heavy kernels (blackscholes, fluidanimate)");
    println!("but explodes on memory-heavy ones (smatch ~32x).");
}
