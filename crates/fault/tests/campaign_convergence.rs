//! The checkpointed campaign driver's early stop must be exact on real
//! workloads: every plan's outcome from `run_plans` (one shared
//! fault-free base, faulty runs classified at re-convergence with a
//! fault-free twin) equals re-interpreting the program from the start
//! with `inject_once`, the result does not depend on the worker count,
//! and early stops do happen — only on runs whose full outcome is
//! `Masked` or `ElzarCorrected`.

use elzar::{build, Mode};
use elzar_fault::{golden_run, inject_once, run_plans, sample_plans, CampaignConfig, Outcome};
use elzar_vm::MachineConfig;
use elzar_workloads::{by_name, Scale};

/// Figure 13 workloads whose tiny golden runs stay under ~1M steps.
const WORKLOADS: [&str; 4] = ["histogram", "linear_regression", "pca", "blackscholes"];

/// Plans per build.
const PLANS: u32 = 48;

#[test]
fn early_stop_matches_from_scratch_injection() {
    let machine = MachineConfig { threads: 2, ..MachineConfig::default() };
    let mut converged = 0;
    for (w, name) in WORKLOADS.iter().enumerate() {
        let built = by_name(name).expect("known workload").build(Scale::Tiny);
        for (ver, mode) in [("native", Mode::NativeNoSimd), ("elzar", Mode::elzar_default())] {
            let prog = build(&built.module, &mode);
            let golden = golden_run(&prog, &built.input, &machine);
            assert!(golden.steps < 1_500_000, "{name}.{ver}: golden run of {} steps", golden.steps);
            let plans = sample_plans(0xC0_4E + w as u64, golden.eligible, PLANS);
            let cfg = |workers| CampaignConfig { workers, machine, ..CampaignConfig::default() };
            let hang_factor = cfg(1).hang_factor;
            let serial = run_plans(&prog, &built.input, &golden, &plans, &cfg(1));
            let parallel = run_plans(&prog, &built.input, &golden, &plans, &cfg(3));
            assert_eq!(serial, parallel, "{name}.{ver}: worker count changed the results");
            for (&(index, bit), run) in plans.iter().zip(&serial) {
                let scratch = inject_once(&prog, &built.input, &golden, index, bit, &machine, hang_factor);
                assert_eq!(run.outcome, scratch, "{name}.{ver}: plan ({index}, {bit})");
                if run.converged {
                    assert!(
                        matches!(scratch, Outcome::Masked | Outcome::ElzarCorrected),
                        "{name}.{ver}: plan ({index}, {bit}) converged but ends {scratch}"
                    );
                    converged += 1;
                }
            }
            eprintln!(
                "{name}.{ver}: {} steps, {} of {PLANS} converged",
                golden.steps,
                serial.iter().filter(|p| p.converged).count()
            );
        }
    }
    assert!(converged > 0, "no injected run re-converged with its fault-free twin");
}
