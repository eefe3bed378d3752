//! Figure 11: ELZAR's normalized runtime w.r.t. native across thread
//! counts (the paper's headline 4.1–5.6× average).
//!
//! Artifact-centric sweep: every `(workload, mode)` is transformed and
//! lowered exactly once (asserted via `elzar::build_count`), because
//! workload modules take the simulated worker count from
//! `MachineConfig::threads` at run time. The per-cell measurements are
//! independent full interpretations, fanned out over
//! `ELZAR_CAMPAIGN_THREADS` host workers and printed in order — the
//! numbers are identical to the serial sweep, only faster.

#![forbid(unsafe_code)]

use elzar::{normalized_runtime, ArtifactSet, Mode};
use elzar_bench::{
    assert_builds, banner, campaign_workers_from_env, mean, run_artifact, scale_from_env, thread_sweep,
};
use elzar_workloads::{all_workloads, by_name, short_name, BuiltWorkload};
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() {
    banner("Figure 11", "ELZAR normalized runtime vs native, by thread count");
    let builds_at_start = elzar::build_count();
    let scale = scale_from_env();
    let sweep = thread_sweep();
    let names: Vec<&'static str> = all_workloads().iter().map(|w| w.name()).collect();

    // Build every workload module + input once...
    let builts: Vec<BuiltWorkload> = all_workloads().iter().map(|w| w.build(scale)).collect();
    // ...and every (workload, mode) artifact once, shared by all cells.
    let set = ArtifactSet::new();
    for (wi, name) in names.iter().enumerate() {
        for mode in [Mode::Native, Mode::elzar_default()] {
            set.get_or_build(name, &mode, || builts[wi].module.clone());
        }
    }

    // One job per (workload, simulated threads) cell; results land in
    // their own slots, so host scheduling never reorders anything.
    let jobs: Vec<(usize, usize)> =
        (0..names.len()).flat_map(|wi| (0..sweep.len()).map(move |k| (wi, k))).collect();
    let mut cells = vec![0.0f64; jobs.len()];
    let workers = (campaign_workers_from_env() as usize).min(jobs.len()).max(1);
    let next = AtomicUsize::new(0);
    let done: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let jobs = &jobs;
                let sweep = &sweep;
                let set = &set;
                let names = &names;
                let builts = &builts;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs.len() {
                            return local;
                        }
                        let (wi, k) = jobs[j];
                        let built = &builts[wi];
                        let native = set.get_or_build(names[wi], &Mode::Native, || unreachable!());
                        let elz = set.get_or_build(names[wi], &Mode::elzar_default(), || unreachable!());
                        let rn = run_artifact(&native, &built.input, sweep[k]);
                        let re = run_artifact(&elz, &built.input, sweep[k]);
                        local.push((j, normalized_runtime(&re, &rn)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    for (j, o) in done {
        cells[j] = o;
    }

    print!("{:<12}", "benchmark");
    for t in &sweep {
        print!(" {:>7}T", t);
    }
    println!();
    let mut per_thread: Vec<Vec<f64>> = vec![vec![]; sweep.len()];
    for (wi, name) in names.iter().enumerate() {
        print!("{:<12}", short_name(name));
        for k in 0..sweep.len() {
            let o = cells[wi * sweep.len() + k];
            per_thread[k].push(o);
            print!(" {o:>7.2}x");
        }
        println!();
    }
    print!("{:<12}", "mean");
    for col in &per_thread {
        print!(" {:>7.2}x", mean(col));
    }
    println!();
    // The paper's smatch-na variant: string match against a no-AVX native.
    let smatch = by_name("string_match").expect("known");
    let built = smatch.build(scale);
    let nosimd = set.get_or_build("string_match", &Mode::NativeNoSimd, || built.module.clone());
    let elz = set.get_or_build("string_match", &Mode::elzar_default(), || unreachable!());
    print!("{:<12}", "smatch-na");
    for t in &sweep {
        let rn = run_artifact(&nosimd, &built.input, *t);
        let re = run_artifact(&elz, &built.input, *t);
        print!(" {:>7.2}x", normalized_runtime(&re, &rn));
    }
    println!();
    println!();
    // 14 workloads x {native, elzar} + smatch's no-SIMD baseline: the
    // whole thread sweep lowers each (workload, mode) exactly once.
    assert_builds(builds_at_start, names.len() as u64 * 2 + 1, "fig11");
    println!();
    println!("Paper shape: mean 4.1-5.6x; mmul lowest (~1.1x); smatch highest");
    println!("(15-20x vs AVX-native, 10-14x vs no-AVX native).");
}
