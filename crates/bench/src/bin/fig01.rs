//! Figure 1: performance improvement of native (SIMD/vectorized) builds
//! over no-SIMD builds — the motivation that SIMD units sit idle in most
//! applications.

#![forbid(unsafe_code)]

use elzar::{ArtifactSet, Mode};
use elzar_apps::{App, AppParams, YcsbWorkload};
use elzar_bench::{banner, run_artifact, scale_from_env};
use elzar_workloads::{all_workloads, short_name};

fn main() {
    banner("Figure 1", "native SIMD speedup over no-SIMD builds");
    let scale = scale_from_env();
    let set = ArtifactSet::new();
    println!("{:<12} {:>12} {:>12} {:>10}", "benchmark", "no-SIMD cyc", "SIMD cyc", "speedup");
    for w in all_workloads() {
        let built = w.build(scale);
        let nosimd = set.get_or_build(w.name(), &Mode::NativeNoSimd, || built.module.clone());
        let simd = set.get_or_build(w.name(), &Mode::Native, || built.module.clone());
        let rn = run_artifact(&nosimd, &built.input, 1);
        let rs = run_artifact(&simd, &built.input, 1);
        let gain = rn.cycles as f64 / rs.cycles as f64 - 1.0;
        println!("{:<12} {:>12} {:>12} {:>+9.1}%", short_name(w.name()), rn.cycles, rs.cycles, gain * 100.0);
    }
    for app in App::all() {
        let built = app.build(&AppParams::new(scale, YcsbWorkload::A));
        let nosimd = set.get_or_build(app.name(), &Mode::NativeNoSimd, || built.module.clone());
        let simd = set.get_or_build(app.name(), &Mode::Native, || built.module.clone());
        let rn = run_artifact(&nosimd, &built.input, 2);
        let rs = run_artifact(&simd, &built.input, 2);
        // Throughput increase = runtime ratio for a fixed op count.
        let gain = rn.cycles as f64 / rs.cycles as f64 - 1.0;
        println!("{:<12} {:>12} {:>12} {:>+9.1}%", app.name(), rn.cycles, rs.cycles, gain * 100.0);
    }
    println!();
    println!("Paper shape: most benchmarks < 10%; string match ~ +60%;");
    println!("a few (kmeans, swaptions) slightly negative.");
}
