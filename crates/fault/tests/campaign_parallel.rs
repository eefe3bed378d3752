//! Differential tests for the parallel campaign driver: for a fixed
//! seed, the serial driver (`workers == 1`) and every parallel fan-out
//! must produce bit-identical outcome histograms, per-run outcome
//! sequences, eligible counts and golden cycles. Host parallelism may
//! only change wall-clock time, never results.

use elzar::{build, Mode};
use elzar_fault::{
    golden_run, inject_once, run_campaign, run_plans, sample_plans, CampaignConfig, GoldenRun, Outcome,
    PlanOutcome, HANG_FACTOR,
};
use elzar_ir::builder::{c64, FuncBuilder};
use elzar_ir::{Builtin, Module, Ty};
use elzar_vm::Program;

/// A compute kernel with observable output and enough instructions for
/// interesting injection points.
fn kernel() -> Module {
    let mut m = Module::new("fi-par");
    let mut b = FuncBuilder::new("main", vec![], Ty::I64);
    let buf = b.call_builtin(Builtin::Malloc, vec![c64(32 * 8)], Ty::Ptr).unwrap();
    b.counted_loop(c64(0), c64(32), |b, i| {
        let v = b.mul(i, c64(0x9E37));
        let x = b.bin(elzar_ir::BinOp::Xor, Ty::I64, v, c64(0x5A5A));
        let p = b.gep(buf, i, 8);
        b.store(Ty::I64, x, p);
    });
    let acc = b.alloca(Ty::I64, c64(1));
    b.store(Ty::I64, c64(0), acc);
    b.counted_loop(c64(0), c64(32), |b, i| {
        let p = b.gep(buf, i, 8);
        let v = b.load(Ty::I64, p);
        let a = b.load(Ty::I64, acc);
        let s = b.add(a, v);
        b.store(Ty::I64, s, acc);
    });
    let v = b.load(Ty::I64, acc);
    b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
    b.ret(c64(0));
    m.add_func(b.finish());
    m
}

#[test]
fn serial_and_parallel_campaigns_are_bit_identical() {
    for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
        let prog = build(&kernel(), &mode);
        let serial = run_campaign(
            &prog,
            &[],
            &CampaignConfig { runs: 60, seed: 0xD1FF, workers: 1, ..Default::default() },
        );
        for workers in [2, 3, 8, 61] {
            let par = run_campaign(
                &prog,
                &[],
                &CampaignConfig { runs: 60, seed: 0xD1FF, workers, ..Default::default() },
            );
            assert_eq!(serial.counts, par.counts, "{mode:?} with {workers} workers: histogram");
            assert_eq!(serial.eligible, par.eligible, "{mode:?}: eligible");
            assert_eq!(serial.golden_cycles, par.golden_cycles, "{mode:?}: cycles");
        }
    }
}

#[test]
fn per_run_outcome_sequences_match_across_worker_counts() {
    let prog = build(&kernel(), &Mode::elzar_default());
    let machine = CampaignConfig::default().machine;
    let golden = golden_run(&prog, &[], &machine);
    let plans = sample_plans(0xBEEF, golden.eligible, 40);
    let serial = run_plans(&prog, &[], &golden, &plans, &CampaignConfig { workers: 1, ..Default::default() });
    let parallel =
        run_plans(&prog, &[], &golden, &plans, &CampaignConfig { workers: 7, ..Default::default() });
    assert_eq!(serial, parallel, "outcome sequence must not depend on scheduling");
}

/// The plain path: every plan re-interpreted from the start.
fn from_scratch(prog: &Program, golden: &GoldenRun, plans: &[(u64, u32)]) -> Vec<Outcome> {
    let machine = CampaignConfig::default().machine;
    plans
        .iter()
        .map(|&(index, bit)| inject_once(prog, &[], golden, index, bit, &machine, HANG_FACTOR))
        .collect()
}

#[test]
fn checkpointed_and_naive_drivers_agree_exactly() {
    // The checkpoint-sharing driver must be a pure wall-clock
    // optimization: per-run outcomes identical to re-interpreting every
    // run from the start, for both hardened and plain builds.
    for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
        let prog = build(&kernel(), &mode);
        let machine = CampaignConfig::default().machine;
        let golden = golden_run(&prog, &[], &machine);
        let plans = sample_plans(0xC0DE, golden.eligible, 50);
        let shared =
            run_plans(&prog, &[], &golden, &plans, &CampaignConfig { workers: 1, ..Default::default() });
        let outcomes = |runs: Vec<PlanOutcome>| runs.into_iter().map(|p| p.outcome).collect::<Vec<_>>();
        assert_eq!(
            outcomes(shared),
            from_scratch(&prog, &golden, &plans),
            "{mode:?}: checkpointing changed outcomes"
        );
    }
}

#[test]
fn plans_outside_the_eligible_range_run_from_scratch() {
    // Hand-built plans at index 0 and past the last eligible
    // instruction (just past, and far past) can never fire, so they have no checkpoint to branch from; mixed
    // with reachable plans, each still gets exactly `inject_once`'s
    // outcome, unconverged, for any worker count.
    for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
        let prog = build(&kernel(), &mode);
        let golden = golden_run(&prog, &[], &CampaignConfig::default().machine);
        let e = golden.eligible;
        let plans = [(e + 1, 3), (0, 7), (e / 2, 5), (0, 200), (u64::MAX, 64), (1, 0)];
        let want: Vec<PlanOutcome> = from_scratch(&prog, &golden, &plans)
            .into_iter()
            .map(|outcome| PlanOutcome { outcome, converged: false })
            .collect();
        for workers in [1, 3] {
            let got =
                run_plans(&prog, &[], &golden, &plans, &CampaignConfig { workers, ..Default::default() });
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                if plans[k].0 == 0 || plans[k].0 > e {
                    assert_eq!(g, w, "{mode:?} workers={workers}: plan {:?}", plans[k]);
                } else {
                    assert_eq!(g.outcome, w.outcome, "{mode:?} workers={workers}: plan {:?}", plans[k]);
                }
            }
        }
    }
}

#[test]
fn plan_stream_is_a_pure_function_of_seed() {
    let a = sample_plans(42, 1000, 50);
    let b = sample_plans(42, 1000, 50);
    let c = sample_plans(43, 1000, 50);
    assert_eq!(a, b);
    assert_ne!(a, c);
    for &(index, bit) in &a {
        assert!((1..=1000).contains(&index));
        assert!(bit < 256);
    }
}
