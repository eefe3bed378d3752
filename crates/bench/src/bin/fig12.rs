//! Figure 12: overhead breakdown by successively disabling ELZAR's checks
//! (loads → +stores → +branches → all), at the peak thread count.

#![forbid(unsafe_code)]

use elzar::{normalized_runtime, ArtifactSet, CheckConfig, Config, Mode};
use elzar_bench::{banner, max_threads, mean, run_artifact, scale_from_env};
use elzar_workloads::{all_workloads, short_name};

fn main() {
    let t = max_threads();
    banner("Figure 12", "check-cost breakdown (checks disabled cumulatively)");
    let scale = scale_from_env();
    let set = ArtifactSet::new();
    let configs: Vec<(&str, CheckConfig)> = vec![
        ("all", CheckConfig::all()),
        ("no-loads", CheckConfig { loads: false, ..CheckConfig::all() }),
        ("+no-stores", CheckConfig { loads: false, stores: false, ..CheckConfig::all() }),
        ("+no-branches", CheckConfig { loads: false, stores: false, branches: false, ..CheckConfig::all() }),
        ("none", CheckConfig::none()),
    ];
    print!("{:<12}", "benchmark");
    for (name, _) in &configs {
        print!(" {:>12}", name);
    }
    println!("   ({t} threads)");
    let mut cols: Vec<Vec<f64>> = vec![vec![]; configs.len()];
    for w in all_workloads() {
        let built = w.build(scale);
        let native = set.get_or_build(w.name(), &Mode::Native, || built.module.clone());
        let rn = run_artifact(&native, &built.input, t);
        print!("{:<12}", short_name(w.name()));
        for (k, (_, checks)) in configs.iter().enumerate() {
            let mode = Mode::Elzar(Config { checks: *checks, ..Config::default() });
            let a = set.get_or_build(w.name(), &mode, || built.module.clone());
            let r = run_artifact(&a, &built.input, t);
            let o = normalized_runtime(&r, &rn);
            cols[k].push(o);
            print!(" {:>11.2}x", o);
        }
        println!();
    }
    print!("{:<12}", "mean");
    for col in &cols {
        print!(" {:>11.2}x", mean(col));
    }
    println!();
    println!();
    println!("Paper shape: disabling load+store checks cuts the mean from ~4.2x");
    println!("to ~2.7x (store checks cost more than load checks); branch checks");
    println!("cost almost nothing; all-disabled still ~2.6x over native.");
}
