//! # elzar-fault
//!
//! Single-event-upset fault-injection campaigns (§IV-B of the paper).
//!
//! A campaign first performs a *golden run* to record the program's
//! reference output and the number of fault-eligible dynamic instructions
//! (instructions in hardened code that write a destination register).
//! Each injection run then flips one uniformly random bit of the
//! destination register of one uniformly random eligible instruction —
//! GPR bits for scalars, one YMM lane bit for vectors — and the result is
//! classified per the paper's Table I:
//!
//! | outcome          | meaning                               | class     |
//! |------------------|---------------------------------------|-----------|
//! | `Hang`           | program became unresponsive           | Crashed   |
//! | `OsDetected`     | trap (segfault, div-by-zero, …)       | Crashed   |
//! | `ElzarCorrected` | recovery fired, output matches golden | Correct   |
//! | `Masked`         | fault did not affect the output       | Correct   |
//! | `Sdc`            | silent data corruption in the output  | Corrupted |
//!
//! The campaign driver ([`run_plans`]) interprets the fault-free prefix
//! once per campaign: all workers branch their injections off one shared
//! base machine that advances in ascending injection order. Each
//! injected run carries a fault-free twin for its first rounds and is
//! classified early once its whole machine state equals the twin's
//! ([`PlanOutcome::converged`]). Outcomes are exactly those of
//! re-interpreting every run from the start, for any worker count.
//!
//! ```
//! use elzar::{build, Mode};
//! use elzar_fault::{run_campaign, CampaignConfig};
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::{Builtin, Module, Ty};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", vec![], Ty::I64);
//! let acc = b.alloca(Ty::I64, c64(1));
//! b.store(Ty::I64, c64(0), acc);
//! b.counted_loop(c64(0), c64(40), |b, i| {
//!     let v = b.load(Ty::I64, acc);
//!     let s = b.add(v, i);
//!     b.store(Ty::I64, s, acc);
//! });
//! let v = b.load(Ty::I64, acc);
//! b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
//! b.ret(c64(0));
//! m.add_func(b.finish());
//!
//! let prog = build(&m, &Mode::elzar_default());
//! let result = run_campaign(&prog, &[], &CampaignConfig { runs: 50, ..Default::default() });
//! assert_eq!(result.total(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use elzar_obs::debug;
use elzar_rng::DetRng;
use elzar_vm::{run_program, FaultPlan, Machine, MachineConfig, Program, RunOutcome, RunResult};
use std::fmt;
use std::sync::Mutex;

/// Fault-injection outcome (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Outcome {
    /// Program exceeded its step budget ("became unresponsive").
    Hang,
    /// A hardware/OS trap terminated the program.
    OsDetected,
    /// ELZAR detected and corrected the fault; output correct.
    ElzarCorrected,
    /// Fault did not affect the output.
    Masked,
    /// Silent data corruption: output differs from the golden run.
    Sdc,
}

impl Outcome {
    /// The coarse system-state class used in Figure 13.
    pub fn class(self) -> OutcomeClass {
        match self {
            Outcome::Hang | Outcome::OsDetected => OutcomeClass::Crashed,
            Outcome::ElzarCorrected | Outcome::Masked => OutcomeClass::Correct,
            Outcome::Sdc => OutcomeClass::Corrupted,
        }
    }

    /// All outcomes, in Table I order.
    pub fn all() -> [Outcome; 5] {
        [Outcome::Hang, Outcome::OsDetected, Outcome::ElzarCorrected, Outcome::Masked, Outcome::Sdc]
    }

    /// This outcome's slot in Table-I-ordered count arrays
    /// ([`Outcome::all`] order).
    pub fn index(self) -> usize {
        Outcome::all().iter().position(|x| *x == self).expect("known outcome")
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::Hang => "hang",
            Outcome::OsDetected => "os-detected",
            Outcome::ElzarCorrected => "elzar-corrected",
            Outcome::Masked => "masked",
            Outcome::Sdc => "SDC",
        };
        f.write_str(s)
    }
}

/// Coarse classes (the stacked bars of Figure 13).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OutcomeClass {
    /// Hang or OS-detected.
    Crashed,
    /// Corrected or masked.
    Correct,
    /// Silent data corruption.
    Corrupted,
}

/// Default hang budget, as a multiple of the golden run's retired
/// instructions: [`CampaignConfig::hang_factor`]'s default, and the
/// budget the serving runtime gives every injected request.
pub const HANG_FACTOR: u64 = 20;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of injection runs.
    pub runs: u32,
    /// RNG seed for injection-point sampling.
    pub seed: u64,
    /// Host worker threads to parallelize runs over.
    pub workers: u32,
    /// Hang budget as a multiple of the golden run's retired instructions.
    pub hang_factor: u64,
    /// Base machine configuration (threads inside the VM etc.).
    pub machine: MachineConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            runs: 200,
            seed: 0xE12A,
            workers: std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(4),
            hang_factor: HANG_FACTOR,
            machine: MachineConfig::default(),
        }
    }
}

/// Aggregate campaign result.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Counts per outcome, Table-I order.
    pub counts: [u64; 5],
    /// Eligible instructions in the golden run.
    pub eligible: u64,
    /// Golden-run cycles.
    pub golden_cycles: u64,
    /// Injections classified early, at re-convergence with the
    /// fault-free execution (see [`PlanOutcome::converged`]). A pure
    /// function of the program and the plans, like `counts`.
    pub converged: u64,
}

impl CampaignResult {
    /// Total runs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count for one outcome.
    pub fn count(&self, o: Outcome) -> u64 {
        self.counts[o.index()]
    }

    /// Fraction for one outcome in `[0, 1]`.
    pub fn rate(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(o) as f64 / self.total() as f64
        }
    }

    /// Fraction for a coarse class.
    pub fn class_rate(&self, c: OutcomeClass) -> f64 {
        Outcome::all().iter().filter(|o| o.class() == c).map(|o| self.rate(*o)).sum()
    }

    fn record(&mut self, o: Outcome) {
        self.counts[o.index()] += 1;
    }
}

/// One executed fault plan: its Table-I outcome and how it was reached.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanOutcome {
    /// The Table-I outcome.
    pub outcome: Outcome,
    /// The run was classified without running to its end: a few rounds
    /// after the flip its whole machine state equalled a fault-free
    /// twin's, so its remainder is the golden run's. Deterministic, and
    /// only ever set for `Masked` and `ElzarCorrected` outcomes.
    pub converged: bool,
}

/// Reference execution data.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// Observable output.
    pub output: Vec<u8>,
    /// Exit outcome.
    pub outcome: RunOutcome,
    /// Fault-eligible instruction count.
    pub eligible: u64,
    /// Retired instructions (hang budget base).
    pub steps: u64,
    /// Cycles.
    pub cycles: u64,
}

/// Perform the golden (fault-free) run.
///
/// # Panics
/// Panics if the fault-free program does not exit cleanly — campaigns on
/// broken programs are meaningless.
pub fn golden_run(prog: &Program, input: &[u8], machine: &MachineConfig) -> GoldenRun {
    let mut cfg = *machine;
    cfg.fault = None;
    let r = run_program(prog, "main", input, cfg);
    assert!(matches!(r.outcome, RunOutcome::Exited(_)), "golden run must exit cleanly, got {:?}", r.outcome);
    assert!(r.eligible > 0, "program has no fault-eligible instructions");
    debug::emit("fault", || {
        format!("golden run: {} steps, {} cycles, {} eligible instructions", r.steps, r.cycles, r.eligible)
    });
    GoldenRun { output: r.output, outcome: r.outcome, eligible: r.eligible, steps: r.steps, cycles: r.cycles }
}

/// Classify one faulty run against the golden reference.
pub fn classify(golden: &GoldenRun, faulty: &RunResult) -> Outcome {
    match faulty.outcome {
        RunOutcome::StepLimit => Outcome::Hang,
        RunOutcome::Trapped(_) => Outcome::OsDetected,
        RunOutcome::Exited(_) => {
            if faulty.outcome == golden.outcome && faulty.output == golden.output {
                if faulty.corrections > 0 {
                    Outcome::ElzarCorrected
                } else {
                    Outcome::Masked
                }
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Run a prepared machine under one fault plan to completion and
/// classify it against `golden`. The campaign driver's from-scratch path
/// and the serving runtime's online injection funnel through it; the
/// campaign's checkpointed path arms the machine the same way and
/// classifies with the same [`classify`], but may stop early at
/// re-convergence ([`run_plans`]).
///
/// `m` must be positioned strictly before eligible instruction `index`
/// (a fresh [`Machine::start`], a campaign checkpoint clone, or a
/// reentered resident shard). The hang budget is
/// `golden.steps * hang_factor + 100_000` retired instructions,
/// measured on the machine's own step counter.
///
/// Returns the Table-I outcome together with the faulty run's full
/// [`RunResult`] (the serving runtime charges its cycles as the
/// request's service time).
pub fn inject_one(
    m: Machine<'_>,
    golden: &GoldenRun,
    index: u64,
    bit: u32,
    hang_factor: u64,
) -> (Outcome, RunResult) {
    let (o, r, _) = inject_probe(m, golden, index, bit, hang_factor);
    (o, r)
}

/// [`inject_one`] that additionally hands the *post-fault machine*
/// back to the caller — the divergence-probe variant.
///
/// Classification per Table I compares observable *output*; a second,
/// independent SDC detector can instead compare the machine's resident
/// *state* after the faulty execution against the committed reference
/// state (the serving runtime's primary/replica divergence checker does
/// exactly this). That comparison needs the corrupted machine itself,
/// which [`inject_one`] consumes — this variant returns it. The
/// machine's memory is only meaningful for outcomes that exited; a
/// hung or trapped machine was cut mid-flight and its state carries no
/// committed semantics.
pub fn inject_probe<'p>(
    mut m: Machine<'p>,
    golden: &GoldenRun,
    index: u64,
    bit: u32,
    hang_factor: u64,
) -> (Outcome, RunResult, Machine<'p>) {
    arm(&mut m, golden, index, bit, hang_factor);
    let outcome = m.run_to_completion();
    let r = m.result(outcome);
    let o = classify(golden, &r);
    (o, r, m)
}

/// Install the fault plan `(index, bit)` and the hang budget on `m`.
fn arm(m: &mut Machine<'_>, golden: &GoldenRun, index: u64, bit: u32, hang_factor: u64) {
    m.set_fault(Some(FaultPlan { index, bit }));
    m.set_step_limit(hang_budget(golden, hang_factor));
}

/// Retired instructions after which an injected run counts as hung.
fn hang_budget(golden: &GoldenRun, hang_factor: u64) -> u64 {
    golden.steps.saturating_mul(hang_factor).saturating_add(100_000)
}

/// Inject one fault at eligible instruction `index` (1-based), flipping
/// raw bit `bit`, and classify the result. Interprets the whole program
/// from the start; the campaign's checkpointed path avoids that.
pub fn inject_once(
    prog: &Program,
    input: &[u8],
    golden: &GoldenRun,
    index: u64,
    bit: u32,
    machine: &MachineConfig,
    hang_factor: u64,
) -> Outcome {
    let mut cfg = *machine;
    cfg.fault = None;
    inject_one(Machine::start(prog, "main", input, cfg), golden, index, bit, hang_factor).0
}

/// A committed-suffix replay failed: a payload that should have exited
/// cleanly hung, trapped or otherwise diverged.
///
/// The suffix handed to [`replay_suffix`] consists of requests that
/// already committed on the original machine, so a non-clean outcome
/// means the machine being replayed onto is *not* the snapshot the
/// suffix extends — a corrupted standby, a stale clone, a wrong entry.
/// Callers with a fallback (the serving runtime's warm-replica rebuild
/// degrades to cold restart-from-snapshot) match on this instead of
/// aborting the whole run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayError {
    /// Zero-based position of the failing payload among the *kept*
    /// payloads (replay order, after any [`replay_suffix_where`]
    /// filtering).
    pub at: u64,
    /// The outcome the failing payload actually produced.
    pub outcome: RunOutcome,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "suffix replay diverged at payload {}: expected a clean exit, got {:?}",
            self.at, self.outcome
        )
    }
}

impl std::error::Error for ReplayError {}

/// Deterministically replay a committed request suffix on a machine
/// restored from a snapshot: one [`Machine::reenter`] + run per
/// payload, in order. Returns the total replayed virtual cycles.
///
/// This is the serving runtime's crash-recovery primitive, the
/// request-granular twin of the campaign's checkpoint sharing
/// ([`run_plans`]): a shard that snapshots every K requests does not
/// hold the pre-request state of an arbitrary request — on a crash (or
/// to build a fault twin) it restores the last snapshot and replays the
/// committed-but-unsnapshotted suffix. Because the machine is
/// deterministic and shards commit only reference executions, the
/// replayed state is bit-identical to the state the resident machine
/// reached by serving those requests live, whatever batching produced
/// it.
///
/// # Errors
/// Returns a [`ReplayError`] if a replayed request does not exit
/// cleanly; `m` is then left mid-divergence and must be discarded.
pub fn replay_suffix(m: &mut Machine<'_>, entry: &str, payloads: &[&[u8]]) -> Result<u64, ReplayError> {
    replay_suffix_where(m, entry, payloads, |_| true).map(|(cycles, _)| cycles)
}

/// [`replay_suffix`] restricted to the payloads a predicate keeps —
/// the *migration* primitive of the adaptive serving layer.
///
/// When a key range moves to another shard (elastic scale-up), the
/// joining shard boots from the donor's snapshot and must reconstruct
/// the *current* state of exactly the keys it takes over: it replays
/// the donor's committed suffix filtered to requests whose routing key
/// falls in the migrated range (`keep`, typically a key-range predicate
/// built from the app's `ServeApp::key_of` mirror). Because requests only
/// touch state owned by their own key, the filtered replay reconstructs
/// the migrated range bit-for-bit while leaving unrelated keys at
/// whatever state the snapshot carried — and the skipped payloads cost
/// nothing, which is what makes migration cheaper than a full replay.
///
/// Returns `(replayed virtual cycles, replayed request count)`.
///
/// # Errors
/// Returns a [`ReplayError`] if a kept payload does not exit cleanly
/// (see [`replay_suffix`]); `at` indexes the failing payload among the
/// kept ones.
pub fn replay_suffix_where(
    m: &mut Machine<'_>,
    entry: &str,
    payloads: &[&[u8]],
    keep: impl Fn(&[u8]) -> bool,
) -> Result<(u64, u64), ReplayError> {
    let mut cycles = 0;
    let mut replayed = 0;
    for p in payloads {
        if !keep(p) {
            continue;
        }
        m.reenter(entry, p);
        let o = m.run_to_completion();
        if !matches!(o, RunOutcome::Exited(_)) {
            return Err(ReplayError { at: replayed, outcome: o });
        }
        cycles += m.cycles_so_far().max(1);
        replayed += 1;
    }
    Ok((cycles, replayed))
}

/// Sample the campaign's fault plans: `runs` pairs of (eligible index,
/// raw bit). The stream depends only on `(seed, eligible, runs)` — never
/// on worker count or scheduling — so any execution order over these
/// plans reproduces the same histogram.
pub fn sample_plans(seed: u64, eligible: u64, runs: u32) -> Vec<(u64, u32)> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..runs).map(|_| (rng.range_inclusive(1, eligible), rng.below(256) as u32)).collect()
}

/// Run a full campaign: golden run + `cfg.runs` single-SEU injections at
/// uniformly random eligible instructions and bits, parallelized across
/// host threads.
///
/// Determinism contract: the outcome histogram (and every per-run
/// outcome) is a pure function of `(program, input, seed, runs)`.
/// `workers` only changes wall-clock time — workers claim plans in a
/// fixed order and write outcomes back by index, so serial
/// (`workers == 1`) and parallel campaigns are bit-identical.
///
/// Callers that already hold the reference execution (e.g. a build
/// artifact's cached golden-run table) should use
/// [`run_campaign_with_golden`] instead and skip the recomputation.
pub fn run_campaign(prog: &Program, input: &[u8], cfg: &CampaignConfig) -> CampaignResult {
    let golden = golden_run(prog, input, &cfg.machine);
    run_campaign_with_golden(prog, input, &golden, cfg)
}

/// [`run_campaign`] against an already-computed golden run.
///
/// `golden` must be the reference execution of exactly `(prog, input,
/// cfg.machine)` — campaigns classified against a foreign golden run are
/// meaningless. The campaign itself never re-executes the fault-free
/// program: injection plans are sampled from `golden.eligible` and every
/// faulty run is classified against `golden`'s output.
pub fn run_campaign_with_golden(
    prog: &Program,
    input: &[u8],
    golden: &GoldenRun,
    cfg: &CampaignConfig,
) -> CampaignResult {
    let plans = sample_plans(cfg.seed, golden.eligible, cfg.runs);
    let mut result =
        CampaignResult { eligible: golden.eligible, golden_cycles: golden.cycles, ..Default::default() };
    if plans.is_empty() {
        return result;
    }
    debug::emit("fault", || {
        format!(
            "campaign start: {} plans over {} eligible instructions, {} workers, seed={:#x}",
            plans.len(),
            golden.eligible,
            cfg.workers.max(1),
            cfg.seed
        )
    });
    for p in run_plans(prog, input, golden, &plans, cfg) {
        result.record(p.outcome);
        result.converged += u64::from(p.converged);
    }
    debug::emit("fault", || {
        let c = result.counts;
        format!(
            "campaign done: hang={} os={} corrected={} masked={} sdc={} converged={}",
            c[0], c[1], c[2], c[3], c[4], result.converged
        )
    });
    result
}

/// Rounds after a checkpoint clone at which an injected run is compared
/// with its fault-free twin: 1, 2, 4, ... up to this cap, where the twin
/// is dropped and the run continues alone. On the Figure 13 campaign
/// every observed re-convergence happened by round 16.
const TWIN_ROUND_CAP: u32 = 32;

/// Execute the given fault plans and return per-plan outcomes in plan
/// order, fanned out over `cfg.workers` OS threads.
///
/// The campaign interprets the fault-free prefix once. All workers share
/// one *base* machine behind a lock; a worker claims the next plan in
/// ascending injection order while holding it, advances the base to
/// just below that plan's injection point and branches a checkpoint
/// clone off it, then runs the injection outside the lock. So the base
/// only moves forward, and a plan only pays for the execution *after*
/// its injection point.
///
/// Each checkpointed run also carries a fault-free twin, a second clone
/// of the base, advanced round for round beside it. At rounds 1, 2, 4,
/// ... (up to a fixed cap) after the flip has fired, the two whole
/// machine states are compared ([`Machine::state_matches`]). If they are
/// equal, the faulty run's remainder is the golden run's, so it is
/// classified at once: `ElzarCorrected` if it has recorded corrections,
/// `Masked` otherwise ([`PlanOutcome::converged`]).
///
/// Hand-built plans outside `1..=golden.eligible`, where the fault can
/// never fire, have no checkpoint to branch from; they run from the
/// start through [`inject_once`]. Every outcome equals [`inject_once`]'s
/// for the same plan: the machine is deterministic, a clone resumes
/// exactly where the original stood, and equal states have equal
/// futures.
pub fn run_plans(
    prog: &Program,
    input: &[u8],
    golden: &GoldenRun,
    plans: &[(u64, u32)],
    cfg: &CampaignConfig,
) -> Vec<PlanOutcome> {
    if plans.is_empty() {
        return Vec::new();
    }
    let workers = (cfg.workers.max(1) as usize).min(plans.len());
    // Process plans in ascending injection order so the shared base
    // machine only ever advances; scatter outcomes back to plan order.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| plans[i].0);
    // The next position in `order`, and the shared fault-free base.
    let claims: Mutex<(usize, Option<Machine>)> = Mutex::new((0, None));
    let mut outcomes: Vec<Option<PlanOutcome>> = vec![None; plans.len()];
    let tagged: Vec<(usize, PlanOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let claims = &claims;
                let order = &order;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let mut guard = claims.lock().expect("a campaign worker panicked");
                        let (next, base) = &mut *guard;
                        let Some(&i) = order.get(*next) else {
                            // Every plan is claimed: free the base now,
                            // not after the last injection.
                            *base = None;
                            return local;
                        };
                        *next += 1;
                        // Checkpointing requires a reachable injection
                        // point; hand-built plans outside
                        // `1..=golden.eligible` (where the fault can
                        // never fire) take the plain path instead.
                        let reachable = (1..=golden.eligible).contains(&plans[i].0);
                        let checkpoint = reachable.then(|| {
                            let base = base.get_or_insert_with(|| {
                                let mut mc = cfg.machine;
                                mc.fault = None;
                                Machine::start(prog, "main", input, mc)
                            });
                            advance_base(base, plans[i].0);
                            base.clone()
                        });
                        drop(guard);
                        let (index, bit) = plans[i];
                        let o = match checkpoint {
                            Some(m) => inject_converging(m, golden, index, bit, cfg.hang_factor),
                            None => PlanOutcome {
                                outcome: inject_once(
                                    prog,
                                    input,
                                    golden,
                                    index,
                                    bit,
                                    &cfg.machine,
                                    cfg.hang_factor,
                                ),
                                converged: false,
                            },
                        };
                        local.push((i, o));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    for (i, o) in tagged {
        outcomes[i] = Some(o);
    }
    outcomes.into_iter().map(|o| o.expect("every plan executed")).collect()
}

/// Advance `base` (a fault-free execution) by whole rounds while the
/// next round provably cannot reach eligible instruction `index`.
///
/// `base` must not have crossed `index` yet, and `index` must satisfy
/// `1 <= index <= golden.eligible` — both guaranteed by the caller,
/// which visits plans in ascending `index` order and routes
/// out-of-range plans to [`inject_once`].
fn advance_base(base: &mut Machine<'_>, index: u64) {
    while base.eligible_so_far() + base.eligible_round_bound() < index {
        if base.run_round().is_some() {
            unreachable!("base finished with eligible < plan index <= golden.eligible");
        }
    }
    debug_assert!(base.eligible_so_far() < index);
}

/// Inject `(index, bit)` into the checkpoint clone `m` and classify the
/// run, stopping early if it re-converges with a fault-free twin.
///
/// The twin is a clone of `m` taken before the fault is armed; both run
/// one round per step. Equal states at the same round boundary have
/// equal futures, and the twin's future is the golden run's remainder,
/// which adds no corrections and exits at `golden.steps` — within the
/// faulty run's hang budget, or no twin is taken. So a converged run
/// exits with the golden output, and only `ElzarCorrected` or `Masked`
/// is possible.
fn inject_converging(
    mut m: Machine<'_>,
    golden: &GoldenRun,
    index: u64,
    bit: u32,
    hang_factor: u64,
) -> PlanOutcome {
    let mut twin = (golden.steps <= hang_budget(golden, hang_factor)).then(|| m.clone());
    arm(&mut m, golden, index, bit, hang_factor);
    let mut round = 0u32;
    let outcome = loop {
        if let Some(o) = m.run_round() {
            break o;
        }
        let Some(g) = twin.as_mut() else { continue };
        round += 1;
        if g.run_round().is_some() {
            twin = None;
        } else if round.is_power_of_two() && m.eligible_so_far() >= index && m.state_matches(g) {
            let outcome = if m.corrections_so_far() > 0 { Outcome::ElzarCorrected } else { Outcome::Masked };
            return PlanOutcome { outcome, converged: true };
        } else if round >= TWIN_ROUND_CAP {
            twin = None;
        }
    };
    PlanOutcome { outcome: classify(golden, &m.result(outcome)), converged: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar::{build, Mode};
    use elzar_ir::builder::{c64, FuncBuilder};
    use elzar_ir::{Builtin, Module, Ty};

    /// A small compute kernel with observable output.
    fn kernel() -> Module {
        let mut m = Module::new("fi");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let buf = b.call_builtin(Builtin::Malloc, vec![c64(64 * 8)], Ty::Ptr).unwrap();
        b.counted_loop(c64(0), c64(64), |b, i| {
            let v = b.mul(i, c64(0x9E37));
            let x = b.bin(elzar_ir::BinOp::Xor, Ty::I64, v, c64(0x5A5A));
            let p = b.gep(buf, i, 8);
            b.store(Ty::I64, x, p);
        });
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        b.counted_loop(c64(0), c64(64), |b, i| {
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

    fn campaign(mode: &Mode, runs: u32, seed: u64) -> CampaignResult {
        let prog = build(&kernel(), mode);
        run_campaign(&prog, &[], &CampaignConfig { runs, seed, ..Default::default() })
    }

    #[test]
    fn native_suffers_sdc_elzar_mostly_does_not() {
        let native = campaign(&Mode::NativeNoSimd, 150, 7);
        let elzar = campaign(&Mode::elzar_default(), 150, 7);
        assert!(native.rate(Outcome::Sdc) > 0.10, "native SDC {:.2}", native.rate(Outcome::Sdc));
        assert!(
            elzar.rate(Outcome::Sdc) < native.rate(Outcome::Sdc) / 2.0,
            "ELZAR SDC {:.2} vs native {:.2}",
            elzar.rate(Outcome::Sdc),
            native.rate(Outcome::Sdc)
        );
        assert!(elzar.count(Outcome::ElzarCorrected) > 0, "no corrections observed");
        // Native runs can never be classified as corrected.
        assert_eq!(native.count(Outcome::ElzarCorrected), 0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = campaign(&Mode::elzar_default(), 40, 99);
        let b = campaign(&Mode::elzar_default(), 40, 99);
        assert_eq!(a.counts, b.counts);
    }

    /// The checkpointed driver (one shared base advanced by whole
    /// rounds, early stop at re-convergence) must agree with
    /// re-interpreting every run from the start ([`inject_once`]), and
    /// with itself across worker counts: counts, eligibility and golden
    /// cycles.
    #[test]
    fn checkpoint_advancement_is_core_invariant() {
        let prog = build(&kernel(), &Mode::elzar_default());
        let run = |workers: u32| {
            run_campaign(&prog, &[], &CampaignConfig { runs: 40, seed: 11, workers, ..Default::default() })
        };
        let machine = MachineConfig::default();
        let golden = golden_run(&prog, &[], &machine);
        let mut scratch =
            CampaignResult { eligible: golden.eligible, golden_cycles: golden.cycles, ..Default::default() };
        for (index, bit) in sample_plans(11, golden.eligible, 40) {
            scratch.record(inject_once(&prog, &[], &golden, index, bit, &machine, HANG_FACTOR));
        }
        let serial = run(1);
        for (name, other) in [("workers=3", run(3)), ("inject_once", scratch)] {
            assert_eq!(serial.counts, other.counts, "{name}");
            assert_eq!(
                (serial.eligible, serial.golden_cycles),
                (other.eligible, other.golden_cycles),
                "{name}"
            );
        }
    }

    #[test]
    fn exhaustive_bit_flips_on_replicated_add_never_corrupt() {
        // TMR invariant: corrupting one lane of a replicated arithmetic
        // destination is always detected-and-corrected or masked —
        // the checks guard every path to memory/output.
        let prog = build(&kernel(), &Mode::elzar_default());
        let golden = golden_run(&prog, &[], &MachineConfig::default());
        // Eligible index 5 is inside the hardened init loop.
        for bit in (0..256).step_by(13) {
            let o = inject_once(&prog, &[], &golden, 5, bit, &MachineConfig::default(), 20);
            assert_ne!(o, Outcome::Sdc, "bit {bit} caused SDC through TMR");
        }
    }

    #[test]
    fn classify_covers_all_paths() {
        let g = GoldenRun {
            output: vec![1, 2, 3],
            outcome: RunOutcome::Exited(0),
            eligible: 10,
            steps: 100,
            cycles: 100,
        };
        let mk = |outcome, output: Vec<u8>, corrections| RunResult {
            outcome,
            output,
            cycles: 1,
            counters: Default::default(),
            corrections,
            eligible: 10,
            steps: 1,
            thread_cycles: vec![],
            heartbeats: 0,
            heartbeat_cycles: vec![],
        };
        assert_eq!(classify(&g, &mk(RunOutcome::StepLimit, vec![], 0)), Outcome::Hang);
        assert_eq!(
            classify(&g, &mk(RunOutcome::Trapped(elzar_vm::Trap::DivByZero), vec![], 0)),
            Outcome::OsDetected
        );
        assert_eq!(classify(&g, &mk(RunOutcome::Exited(0), vec![1, 2, 3], 0)), Outcome::Masked);
        assert_eq!(classify(&g, &mk(RunOutcome::Exited(0), vec![1, 2, 3], 2)), Outcome::ElzarCorrected);
        assert_eq!(classify(&g, &mk(RunOutcome::Exited(0), vec![9, 9, 9], 0)), Outcome::Sdc);
        assert_eq!(classify(&g, &mk(RunOutcome::Exited(7), vec![1, 2, 3], 0)), Outcome::Sdc);
    }

    #[test]
    fn empty_campaign_rates_are_zero_not_nan() {
        // total() == 0 must yield clean 0.0 rates (not NaN) for every
        // outcome and class — zero-run campaigns happen in smoke tests
        // and in harnesses that filter plans before running any.
        let r = CampaignResult::default();
        assert_eq!(r.total(), 0);
        for o in Outcome::all() {
            let v = r.rate(o);
            assert!(!v.is_nan(), "rate({o}) is NaN");
            assert_eq!(v, 0.0, "rate({o})");
        }
        for c in [OutcomeClass::Crashed, OutcomeClass::Correct, OutcomeClass::Corrupted] {
            let v = r.class_rate(c);
            assert!(!v.is_nan(), "class_rate({c:?}) is NaN");
            assert_eq!(v, 0.0, "class_rate({c:?})");
        }
    }

    #[test]
    fn campaign_with_cached_golden_matches_recomputed() {
        let prog = build(&kernel(), &Mode::elzar_default());
        let cfg = CampaignConfig { runs: 30, seed: 11, ..Default::default() };
        let golden = golden_run(&prog, &[], &cfg.machine);
        let fresh = run_campaign(&prog, &[], &cfg);
        let cached = run_campaign_with_golden(&prog, &[], &golden, &cfg);
        assert_eq!(fresh.counts, cached.counts);
        assert_eq!(fresh.eligible, cached.eligible);
        assert_eq!(fresh.golden_cycles, cached.golden_cycles);
    }

    #[test]
    fn suffix_replay_reconstructs_resident_state() {
        use elzar_vm::GLOBAL_BASE;
        // A resident counter service: `main` zeroes a global
        // accumulator, `bump` folds the input word into it and replies
        // with the running total — the smallest stateful analog of a
        // serving shard.
        let mut m = Module::new("replay");
        let acc = GLOBAL_BASE + m.alloc_global(8) as u64;
        let mut ib = FuncBuilder::new("main", vec![], Ty::I64);
        ib.store(Ty::I64, c64(0), elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(acc)));
        ib.ret(c64(0));
        m.add_func(ib.finish());
        let mut bb = FuncBuilder::new("bump", vec![], Ty::I64);
        let pacc = elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(acc));
        let inp = bb.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        let w = bb.load(Ty::I64, inp);
        let a = bb.load(Ty::I64, pacc.clone());
        let x = bb.mul(w, c64(3));
        let s = bb.add(a, x);
        bb.store(Ty::I64, s, pacc);
        bb.call_builtin(Builtin::OutputI64, vec![s.into()], Ty::Void);
        bb.ret(c64(0));
        m.add_func(bb.finish());
        let prog = build(&m, &Mode::elzar_default());

        let mut live = Machine::start(&prog, "main", &[], MachineConfig::default());
        assert!(matches!(live.run_to_completion(), RunOutcome::Exited(_)));
        let snapshot = live.clone();

        // The live machine commits a suffix of requests...
        let payloads: Vec<[u8; 8]> = (1..=5u64).map(|i| (i * 7).to_le_bytes()).collect();
        let suffix: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        for p in &suffix {
            live.reenter("bump", p);
            assert!(matches!(live.run_to_completion(), RunOutcome::Exited(_)));
        }
        // ...and a restored snapshot replays it deterministically.
        let mut restored = snapshot;
        let replayed = replay_suffix(&mut restored, "bump", &suffix).expect("committed suffix replays");
        assert!(replayed > 0);

        // Both machines now serve the same next request bit-identically
        // — state, reply and timing all reconstructed.
        let next = 99u64.to_le_bytes();
        live.reenter("bump", &next);
        let o1 = live.run_to_completion();
        let r1 = live.result(o1);
        restored.reenter("bump", &next);
        let o2 = restored.run_to_completion();
        let r2 = restored.result(o2);
        assert_eq!(r1.outcome, r2.outcome);
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.cycles, r2.cycles);
        let total = u64::from_le_bytes(r1.output[..8].try_into().unwrap());
        assert_eq!(total, (1..=5u64).map(|i| i * 7 * 3).sum::<u64>() + 99 * 3);
    }

    #[test]
    fn filtered_suffix_replay_migrates_a_key_range_bit_for_bit() {
        use elzar_vm::GLOBAL_BASE;
        // A keyed resident service: `main` zeroes an 8-slot accumulator
        // table, `bump` folds the input word into the slot addressed by
        // its low 3 bits and replies with that slot's running total —
        // the smallest model of a sharded KV shard whose key ranges can
        // migrate. The payload's "routing key" is its low 3 bits.
        let mut m = Module::new("migrate");
        let table = GLOBAL_BASE + m.alloc_global(8 * 8) as u64;
        let mut ib = FuncBuilder::new("main", vec![], Ty::I64);
        ib.counted_loop(c64(0), c64(8), |b, i| {
            let p = b.gep(elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(table)), i, 8);
            b.store(Ty::I64, c64(0), p);
        });
        ib.ret(c64(0));
        m.add_func(ib.finish());
        let mut bb = FuncBuilder::new("bump", vec![], Ty::I64);
        let inp = bb.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        let w = bb.load(Ty::I64, inp);
        let slot = bb.bin(elzar_ir::BinOp::And, Ty::I64, w, c64(7));
        let p = bb.gep(elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(table)), slot, 8);
        let a = bb.load(Ty::I64, p);
        let x = bb.mul(w, c64(5));
        let s = bb.add(a, x);
        bb.store(Ty::I64, s, p);
        bb.call_builtin(Builtin::OutputI64, vec![s.into()], Ty::Void);
        bb.ret(c64(0));
        m.add_func(bb.finish());
        let prog = build(&m, &Mode::elzar_default());
        let key_of = |p: &[u8]| u64::from_le_bytes(p[..8].try_into().unwrap()) & 7;
        let migrated = |p: &[u8]| key_of(p) >= 4; // the range that moves

        // The donor boots, snapshots, then commits a mixed suffix over
        // all 8 keys.
        let mut donor = Machine::start(&prog, "main", &[], MachineConfig::default());
        assert!(matches!(donor.run_to_completion(), RunOutcome::Exited(_)));
        let snapshot = donor.clone();
        let payloads: Vec<[u8; 8]> = (0..24u64).map(|i| (i * 11 + 3).to_le_bytes()).collect();
        let suffix: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let (all_cycles, all_count) =
            replay_suffix_where(&mut donor, "bump", &suffix, |_| true).expect("committed suffix replays");
        assert_eq!(all_count, 24);

        // Migration: a joiner boots from the donor's snapshot and
        // replays only the migrated range's committed requests.
        let mut joiner = snapshot.clone();
        let (mig_cycles, mig_count) =
            replay_suffix_where(&mut joiner, "bump", &suffix, migrated).expect("filtered replay succeeds");
        assert!(0 < mig_count && mig_count < 24, "both key ranges must appear in the suffix");
        assert!(mig_cycles < all_cycles, "filtered replay must be cheaper than a full one");

        // Reference: a shard that *served* the migrated range from the
        // start — its own boot, then the range's requests live through
        // the serving entry, the way a resident shard runs them.
        let mut reference = Machine::start(&prog, "main", &[], MachineConfig::default());
        assert!(matches!(reference.run_to_completion(), RunOutcome::Exited(_)));
        let mut ref_count = 0;
        for p in suffix.iter().filter(|p| migrated(p)) {
            reference.reenter("bump", p);
            assert!(matches!(reference.run_to_completion(), RunOutcome::Exited(_)));
            ref_count += 1;
        }
        assert_eq!(ref_count, mig_count);

        // The migrated range's resident state is bit-for-bit the state
        // of the shard that owned it all along: identical table words
        // and identical replies (value *and* timing) to the next
        // request on every migrated key.
        for slot in 4..8u64 {
            let a = joiner.memory().load(table + slot * 8, 8).unwrap();
            let b = reference.memory().load(table + slot * 8, 8).unwrap();
            assert_eq!(a, b, "slot {slot} diverged");
            let next = (slot + 8 * 100).to_le_bytes();
            joiner.reenter("bump", &next);
            let o1 = joiner.run_to_completion();
            let r1 = joiner.result(o1);
            reference.reenter("bump", &next);
            let o2 = reference.run_to_completion();
            let r2 = reference.result(o2);
            assert_eq!(r1.outcome, r2.outcome);
            assert_eq!(r1.output, r2.output, "slot {slot}: replies diverged");
            assert_eq!(r1.cycles, r2.cycles, "slot {slot}: timing diverged");
        }
        // And the donor's live state agrees with the full replay for
        // the keys that did *not* move.
        let mut full = donor;
        for slot in 0..4u64 {
            let next = (slot + 8 * 200).to_le_bytes();
            full.reenter("bump", &next);
            let o = full.run_to_completion();
            let expect: u64 = (0..24u64)
                .map(|i| i * 11 + 3)
                .filter(|w| w & 7 == slot)
                .map(|w| w.wrapping_mul(5))
                .sum::<u64>()
                .wrapping_add((slot + 8 * 200).wrapping_mul(5));
            let r = full.result(o);
            assert_eq!(u64::from_le_bytes(r.output[..8].try_into().unwrap()), expect);
        }
    }

    #[test]
    fn replay_errors_are_typed_not_panics() {
        use elzar_vm::GLOBAL_BASE;
        // `poke` stores 1 *at the address given by the input word* — a
        // committed-looking payload that traps when the address is wild
        // models a corrupted standby diverging mid-replay. Failover
        // code must get a value it can match on (and fall back to cold
        // restart), not a process abort.
        let mut m = Module::new("replayerr");
        let cell = GLOBAL_BASE + m.alloc_global(8) as u64;
        let mut ib = FuncBuilder::new("main", vec![], Ty::I64);
        ib.store(Ty::I64, c64(0), elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(cell)));
        ib.ret(c64(0));
        m.add_func(ib.finish());
        let mut bb = FuncBuilder::new("poke", vec![], Ty::I64);
        let inp = bb.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        let w = bb.load(Ty::I64, inp);
        let p = bb.gep(elzar_ir::Operand::Imm(elzar_ir::Const::Ptr(0)), w, 1);
        bb.store(Ty::I64, c64(1), p);
        bb.ret(c64(0));
        m.add_func(bb.finish());
        let prog = build(&m, &Mode::elzar_default());

        let mut base = Machine::start(&prog, "main", &[], MachineConfig::default());
        assert!(matches!(base.run_to_completion(), RunOutcome::Exited(_)));
        let good = cell.to_le_bytes();
        let bad = 8u64.to_le_bytes(); // far below any mapped segment
        let suffix: Vec<&[u8]> = vec![&good, &bad, &good];

        let err = replay_suffix(&mut base.clone(), "poke", &suffix).unwrap_err();
        assert_eq!(err.at, 1, "failure position indexes kept payloads");
        assert!(matches!(err.outcome, RunOutcome::Trapped(_)), "got {:?}", err.outcome);
        let msg = err.to_string();
        assert!(msg.contains("payload 1"), "{msg}");

        // The filtered variant never executes the poisoned payload, so
        // it succeeds — and `at` counts *kept* payloads, which is why
        // the error above says 1, not its absolute stream position.
        let keep = |p: &[u8]| u64::from_le_bytes(p[..8].try_into().unwrap()) == cell;
        let (cycles, kept) =
            replay_suffix_where(&mut base.clone(), "poke", &suffix, keep).expect("filter avoids the trap");
        assert_eq!(kept, 2);
        assert!(cycles > 0);
    }

    #[test]
    fn inject_probe_returns_the_corrupted_machine() {
        // The probe variant must (a) classify exactly like inject_one
        // and (b) hand back the machine whose memory a state-digest
        // detector can inspect.
        let prog = build(&kernel(), &Mode::elzar_default());
        let golden = golden_run(&prog, &[], &MachineConfig::default());
        for (index, bit) in sample_plans(0xD1CE, golden.eligible, 8) {
            let mk = || {
                let mc = MachineConfig { fault: None, ..Default::default() };
                Machine::start(&prog, "main", &[], mc)
            };
            let (o1, r1) = inject_one(mk(), &golden, index, bit, 20);
            let (o2, r2, m) = inject_probe(mk(), &golden, index, bit, 20);
            assert_eq!(o1, o2);
            assert_eq!(r1.output, r2.output);
            assert_eq!(r1.cycles, r2.cycles);
            // The returned machine is the one that ran: its resident
            // memory is readable post-fault.
            assert!(m.memory().resident_bytes() > 0);
        }
    }

    #[test]
    fn outcome_classes_match_figure13_grouping() {
        assert_eq!(Outcome::Hang.class(), OutcomeClass::Crashed);
        assert_eq!(Outcome::OsDetected.class(), OutcomeClass::Crashed);
        assert_eq!(Outcome::ElzarCorrected.class(), OutcomeClass::Correct);
        assert_eq!(Outcome::Masked.class(), OutcomeClass::Correct);
        assert_eq!(Outcome::Sdc.class(), OutcomeClass::Corrupted);
        let mut r = CampaignResult::default();
        r.record(Outcome::Hang);
        r.record(Outcome::Sdc);
        r.record(Outcome::Masked);
        r.record(Outcome::Masked);
        assert_eq!(r.total(), 4);
        assert!((r.class_rate(OutcomeClass::Correct) - 0.5).abs() < 1e-9);
        assert!((r.class_rate(OutcomeClass::Crashed) - 0.25).abs() < 1e-9);
    }
}
