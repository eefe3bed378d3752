//! Table II: runtime statistics of the *native* builds — L1D miss ratio,
//! branch miss ratio, and the load/store/branch fractions of executed
//! instructions.

#![forbid(unsafe_code)]

use elzar::{ArtifactSet, Mode};
use elzar_bench::{banner, max_threads, run_artifact, scale_from_env};
use elzar_workloads::{all_workloads, short_name};

fn main() {
    let t = max_threads();
    banner("Table II", "native runtime statistics (percent)");
    let scale = scale_from_env();
    let set = ArtifactSet::new();
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>9}   ({t} threads)",
        "benchmark", "L1-miss", "br-miss", "loads", "stores", "branches"
    );
    for w in all_workloads() {
        let built = w.build(scale);
        let native = set.get_or_build(w.name(), &Mode::Native, || built.module.clone());
        let r = run_artifact(&native, &built.input, t);
        let k = r.counters;
        let instrs = k.instrs.max(1) as f64;
        println!(
            "{:<12} {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>8.2}%",
            short_name(w.name()),
            k.l1_misses as f64 / k.mem_refs.max(1) as f64 * 100.0,
            k.branch_misses as f64 / k.branches.max(1) as f64 * 100.0,
            k.loads as f64 / instrs * 100.0,
            k.stores as f64 / instrs * 100.0,
            k.branches as f64 / instrs * 100.0,
        );
    }
    println!();
    println!("Paper shape: mmul ~62% L1 misses; histogram heaviest on");
    println!("loads+stores; ferret/fluidanimate worst branch predictability;");
    println!("blackscholes fewest memory accesses.");
}
