//! # elzar
//!
//! Public API of the ELZAR reproduction — *Triple Modular Redundancy
//! using Intel AVX* (Kuvaiskii et al., DSN 2016).
//!
//! ELZAR hardens unmodified programs against transient CPU faults by
//! replicating **data** across the lanes of 256-bit AVX registers instead
//! of replicating **instructions** (SWIFT-R-style ILR). This crate is the
//! artifact-centric pipeline tying the pieces together:
//!
//! * build a program against [`elzar_ir`]'s builder,
//! * pick a [`Mode`] — plain builds, ELZAR hardening with any
//!   configuration, the SWIFT-R baseline, or the paper's §VII estimates.
//!   A mode is just a pass pipeline ([`Mode::pipeline`] returns
//!   `Vec<PassDesc>`, runnable by [`elzar_passes::pm::PassManager`] and
//!   overridable via `ELZAR_PASSES` for ablations),
//! * [`Artifact::build`] the mode once — transform, verify, lower — and
//!   reuse the immutable artifact everywhere: [`Artifact::run`] for
//!   batch measurements, [`Artifact::campaign`] for fault injection
//!   (feeding `elzar_fault` its cached golden run), and
//!   [`Artifact::serve`] for the sharded serving runtime,
//! * or let an [`ArtifactSet`] cache builds per `(workload, mode)`
//!   across a whole harness, so a thread sweep or campaign never lowers
//!   the same program twice.
//!
//! See `DESIGN.md` at the repository root for the crate inventory and
//! the full pipeline architecture.
//!
//! ```
//! use elzar::{Artifact, Mode};
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::{Module, Ty};
//! use elzar_vm::{MachineConfig, RunOutcome};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", vec![], Ty::I64);
//! let x = b.add(c64(40), c64(2));
//! b.ret(x);
//! m.add_func(b.finish());
//!
//! // Build once per mode; run as many times as needed.
//! let native = Artifact::build(&m, &Mode::Native);
//! let hardened = Artifact::build(&m, &Mode::elzar_default());
//! let rn = native.run(&[], MachineConfig::default());
//! let rh = hardened.run(&[], MachineConfig::default());
//! assert_eq!(rn.outcome, RunOutcome::Exited(42));
//! assert_eq!(rh.outcome, RunOutcome::Exited(42));
//! assert!(rh.cycles > rn.cycles, "TMR is not free");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use elzar_apps::ServeApp;
use elzar_fault::{CampaignConfig, CampaignResult, GoldenRun};
use elzar_ir::Module;
use elzar_passes::elzar::ElzarConfig;
use elzar_passes::pm::{pipeline_from_env, PassDesc, PassManager, PassStat};
use elzar_serve::{ServeConfig, ServeReport, Service};
use elzar_vm::{run_program, MachineConfig, Program, RunResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use elzar_passes::elzar::{CheckConfig, ElzarConfig as Config, FutureAvx};

/// Build/hardening mode, mirroring the configurations of the paper's
/// evaluation (§V). A mode is sugar for a pass pipeline — see
/// [`Mode::pipeline`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    /// `-O3` with vectorization: hinted loops are vectorized
    /// (Figure 1's "native").
    Native,
    /// `-O3 -no-sse -no-avx -fno-vectorize`: the baseline every hardened
    /// build is derived from, and the reference for normalized runtimes.
    NativeNoSimd,
    /// ELZAR hardening with the given configuration.
    Elzar(ElzarConfig),
    /// SWIFT-R instruction triplication (§V-D baseline).
    SwiftR,
    /// Native (vectorized) build slowed by dummy wrapper instructions —
    /// the §VII-D methodology behind the Figure 17 estimate.
    DeceleratedNative,
}

impl Mode {
    /// ELZAR with all checks on — the paper's default.
    pub fn elzar_default() -> Mode {
        Mode::Elzar(ElzarConfig::default())
    }

    /// ELZAR restricted to floating-point data (§V-B).
    pub fn elzar_fp_only() -> Mode {
        Mode::Elzar(ElzarConfig { fp_only: true, ..Default::default() })
    }

    /// ELZAR under the proposed AVX extensions (§VII-B/C).
    pub fn elzar_future_avx() -> Mode {
        Mode::Elzar(ElzarConfig { future: FutureAvx::all(), ..Default::default() })
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Mode::Native => "native".into(),
            Mode::NativeNoSimd => "native-nosimd".into(),
            Mode::Elzar(c) => {
                let mut s = String::from("elzar");
                if c.fp_only {
                    s.push_str("-fp");
                }
                if c.future != FutureAvx::default() {
                    s.push_str("-future");
                }
                if c.checks != CheckConfig::all() {
                    s.push_str("-nochk");
                }
                s
            }
            Mode::SwiftR => "swift-r".into(),
            Mode::DeceleratedNative => "native-decel".into(),
        }
    }

    /// The mode's transformation pipeline as data. This is the entire
    /// definition of what a mode *is* — there is no other dispatch.
    pub fn pipeline(&self) -> Vec<PassDesc> {
        match self {
            Mode::Native => vec![PassDesc::Vectorize],
            Mode::NativeNoSimd => vec![],
            Mode::Elzar(cfg) => vec![PassDesc::Elzar(*cfg)],
            Mode::SwiftR => vec![PassDesc::SwiftR],
            Mode::DeceleratedNative => vec![PassDesc::Vectorize, PassDesc::Decelerate],
        }
    }

    /// The pipeline that will actually run: the `ELZAR_PASSES`
    /// environment override if set (ablations), the mode's own pipeline
    /// otherwise.
    pub fn effective_pipeline(&self) -> Vec<PassDesc> {
        pipeline_from_env().unwrap_or_else(|| self.pipeline())
    }
}

/// Apply the mode's transformation pipeline and verify the result.
///
/// # Panics
/// Panics if the transformed module fails verification — that is a bug in
/// a pass, never in user code.
pub fn prepare(m: &Module, mode: &Mode) -> Module {
    let (out, _stats) = run_pipeline(m, mode);
    out
}

fn run_pipeline(m: &Module, mode: &Mode) -> (Module, Vec<PassStat>) {
    let pipeline = mode.effective_pipeline();
    if pipeline.is_empty() {
        // No pass ran, so no pass verified: check the source module.
        if let Err(errs) = elzar_ir::verify::verify_module(m) {
            panic!(
                "source module {} fails verification under {mode:?}: {:#?}",
                m.name,
                &errs[..errs.len().min(5)]
            );
        }
    }
    PassManager::new().run(m, &pipeline)
}

/// Prepare and lower to an executable program.
///
/// Prefer [`Artifact::build`] (or an [`ArtifactSet`]) — it keeps the
/// lowered program together with its pass stats and golden-run cache so
/// nothing is recomputed per run. This wrapper builds a throwaway
/// artifact and unwraps the program.
pub fn build(m: &Module, mode: &Mode) -> Program {
    Artifact::build(m, mode).into_program()
}

/// Prepare, lower and run `main` in one step (one-shot convenience; a
/// harness measuring the same build repeatedly wants [`Artifact`]).
pub fn execute(m: &Module, mode: &Mode, input: &[u8], cfg: MachineConfig) -> RunResult {
    Artifact::build(m, mode).run(input, cfg)
}

/// Normalized runtime of `run` w.r.t. `baseline` (the y-axis of
/// Figures 11, 12, 14 and 17).
pub fn normalized_runtime(run: &RunResult, baseline: &RunResult) -> f64 {
    run.cycles as f64 / baseline.cycles.max(1) as f64
}

/// Instruction-increase factor w.r.t. a baseline (Table III).
pub fn instr_increase(run: &RunResult, baseline: &RunResult) -> f64 {
    run.counters.instrs as f64 / baseline.counters.instrs.max(1) as f64
}

static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of artifact builds (= module lowerings) performed
/// through this crate. Harnesses assert deltas of this counter to prove
/// a sweep lowered each `(workload, mode)` exactly once.
pub fn build_count() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

/// Golden-run cache key: the fault-free execution is determined by the
/// input bytes and the machine configuration (with any fault plan
/// stripped — golden runs are fault-free by definition).
type GoldenKey = (Vec<u8>, MachineConfig);

/// An immutable build product: one source module taken through one
/// mode's pass pipeline and lowered exactly once.
///
/// The artifact owns everything derived from the build — the lowered
/// [`Program`], the per-pass timing/verification stats, and a cache of
/// golden (fault-free reference) runs keyed by `(input,
/// MachineConfig)` — and exposes every way the repository consumes a
/// build:
///
/// * [`Artifact::run`] — batch execution (figure/table harnesses);
/// * [`Artifact::campaign`] — SEU injection campaigns, feeding
///   [`elzar_fault`] the cached golden run instead of recomputing it;
/// * [`Artifact::serve`] — the sharded resident-VM serving runtime,
///   booting [`elzar_serve`] shards from the shared program.
///
/// Because workload modules are thread-count-agnostic (the worker count
/// comes from [`MachineConfig::threads`] at run time), one artifact
/// covers an entire thread sweep.
#[derive(Debug)]
pub struct Artifact {
    name: String,
    mode: Mode,
    program: Program,
    pass_stats: Vec<PassStat>,
    golden: Mutex<HashMap<GoldenKey, Arc<GoldenRun>>>,
}

impl Artifact {
    /// Transform `m` under `mode` (per-pass verification included) and
    /// lower it. The one place in the repository where lowering happens;
    /// increments [`build_count`].
    ///
    /// # Panics
    /// Panics if a pass emits IR that fails verification.
    pub fn build(m: &Module, mode: &Mode) -> Artifact {
        let (prepared, pass_stats) = run_pipeline(m, mode);
        let program = Program::lower(&prepared);
        BUILDS.fetch_add(1, Ordering::Relaxed);
        Artifact {
            name: m.name.clone(),
            mode: mode.clone(),
            program,
            pass_stats,
            golden: Mutex::new(HashMap::new()),
        }
    }

    /// Name of the source module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mode this artifact was built under.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The lowered program (shared by every consumer of this build).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Per-pass stats recorded while building (registry name, wall-clock
    /// micros, instruction count after the pass).
    pub fn pass_stats(&self) -> &[PassStat] {
        &self.pass_stats
    }

    /// Unwrap the lowered program, discarding the caches.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Run `main` to completion on the simulated machine.
    pub fn run(&self, input: &[u8], cfg: MachineConfig) -> RunResult {
        run_program(&self.program, "main", input, cfg)
    }

    /// The golden (fault-free reference) run for `(input, machine)`,
    /// computed on first use and cached — thread sweeps and campaigns
    /// over the same artifact share one reference execution per
    /// configuration. Any fault plan in `machine` is ignored.
    ///
    /// # Panics
    /// Panics if the fault-free program does not exit cleanly (see
    /// [`elzar_fault::golden_run`]).
    pub fn golden(&self, input: &[u8], machine: &MachineConfig) -> Arc<GoldenRun> {
        let mut key_cfg = *machine;
        key_cfg.fault = None;
        let mut cache = self.golden.lock().expect("golden cache poisoned");
        // Borrowed scan first: the cache holds a handful of entries at
        // most, and this avoids cloning a potentially multi-megabyte
        // input just to probe the map on a warm hit.
        if let Some(g) = cache
            .iter()
            .find(|((inp, cfg), _)| *cfg == key_cfg && inp.as_slice() == input)
            .map(|(_, g)| Arc::clone(g))
        {
            return g;
        }
        let g = Arc::new(elzar_fault::golden_run(&self.program, input, &key_cfg));
        cache.insert((input.to_vec(), key_cfg), Arc::clone(&g));
        g
    }

    /// Number of distinct `(input, machine)` golden runs cached so far.
    pub fn golden_cache_len(&self) -> usize {
        self.golden.lock().expect("golden cache poisoned").len()
    }

    /// Run a fault-injection campaign against this build, classifying
    /// every injection against the *cached* golden run for
    /// `(input, cfg.machine)` — the reference execution is computed at
    /// most once per artifact and configuration, no matter how many
    /// campaigns (or seeds) run on it.
    pub fn campaign(&self, input: &[u8], cfg: &CampaignConfig) -> CampaignResult {
        let golden = self.golden(input, &cfg.machine);
        elzar_fault::run_campaign_with_golden(&self.program, input, &golden, cfg)
    }

    /// Serve `service`'s request stream on this build: construct
    /// [`elzar_serve`] shards from the shared lowered program and drain
    /// the stream to completion. `app` must be the serving-form app this
    /// artifact was built from (it carries the entry names and resident
    /// table layout).
    ///
    /// # Panics
    /// Panics if `app`'s module name differs from this artifact's source
    /// module — serving a program against a foreign app's stream and
    /// table layout would silently produce garbage measurements.
    pub fn serve(&self, service: Service, app: &ServeApp, cfg: &ServeConfig) -> ServeReport {
        assert_eq!(
            self.name, app.module.name,
            "Artifact::serve: artifact was built from {:?} but the app is {:?}",
            self.name, app.module.name
        );
        elzar_serve::serve_program(service, &self.program, app, cfg)
    }
}

/// A build cache keyed by `(source name, mode)`: every harness that
/// sweeps workloads across modes, thread counts, seeds or shard counts
/// pulls its artifacts from one set, so each `(workload, mode)` is
/// transformed and lowered exactly once per process.
///
/// Builds happen under the set's lock — two racing callers can never
/// build the same artifact twice (the exactly-once property is what
/// `fig11`/`fig13` assert via [`build_count`] deltas).
#[derive(Debug, Default)]
pub struct ArtifactSet {
    map: Mutex<HashMap<(String, Mode), Arc<Artifact>>>,
}

impl ArtifactSet {
    /// An empty set.
    pub fn new() -> ArtifactSet {
        ArtifactSet::default()
    }

    /// Fetch the artifact for `(name, mode)`, building it from `source`
    /// on first use. `source` is only invoked on a cache miss.
    pub fn get_or_build(&self, name: &str, mode: &Mode, source: impl FnOnce() -> Module) -> Arc<Artifact> {
        let mut map = self.map.lock().expect("artifact set poisoned");
        if let Some(a) = map.get(&(name.to_string(), mode.clone())) {
            return Arc::clone(a);
        }
        let a = Arc::new(Artifact::build(&source(), mode));
        map.insert((name.to_string(), mode.clone()), Arc::clone(&a));
        a
    }

    /// Artifacts built so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("artifact set poisoned").len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_ir::builder::{c64, FuncBuilder};
    use elzar_ir::Ty;
    use elzar_vm::RunOutcome;

    fn memory_loop() -> Module {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        b.counted_loop(c64(0), c64(500), |b, i| {
            let a = b.load(Ty::I64, acc);
            let s = b.add(a, i);
            b.store(Ty::I64, s, acc);
        });
        let v = b.load(Ty::I64, acc);
        b.ret(v);
        m.add_func(b.finish());
        m
    }

    #[test]
    fn all_modes_agree_on_results() {
        let m = memory_loop();
        let expect = RunOutcome::Exited(500 * 499 / 2);
        for mode in [
            Mode::Native,
            Mode::NativeNoSimd,
            Mode::elzar_default(),
            Mode::elzar_fp_only(),
            Mode::elzar_future_avx(),
            Mode::SwiftR,
            Mode::DeceleratedNative,
        ] {
            let r = execute(&m, &mode, &[], MachineConfig::default());
            assert_eq!(r.outcome, expect, "mode {mode:?}");
        }
    }

    #[test]
    fn overhead_ordering_matches_paper_on_memory_heavy_code() {
        // On a load/store/branch-dominated loop the paper finds:
        // native <= swift-r <= elzar, and future-AVX ELZAR well below
        // plain ELZAR (§V, §VII).
        let m = memory_loop();
        let cfg = MachineConfig::default();
        let native = execute(&m, &Mode::NativeNoSimd, &[], cfg);
        let swiftr = execute(&m, &Mode::SwiftR, &[], cfg);
        let elz = execute(&m, &Mode::elzar_default(), &[], cfg);
        let fut = execute(&m, &Mode::elzar_future_avx(), &[], cfg);
        let os = normalized_runtime(&swiftr, &native);
        let oe = normalized_runtime(&elz, &native);
        let of = normalized_runtime(&fut, &native);
        assert!(os > 1.2, "SWIFT-R must cost something, got {os:.2}");
        assert!(oe > os, "ELZAR ({oe:.2}x) should exceed SWIFT-R ({os:.2}x) on memory-heavy code");
        assert!(of < oe, "future AVX ({of:.2}x) must beat plain ELZAR ({oe:.2}x)");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Mode::Native.label(), "native");
        assert_eq!(Mode::elzar_default().label(), "elzar");
        assert_eq!(Mode::elzar_future_avx().label(), "elzar-future");
        assert_eq!(Mode::SwiftR.label(), "swift-r");
    }

    #[test]
    fn pipelines_are_data_and_pinned() {
        // The mode → pipeline mapping is part of the public contract:
        // reports and ablations name these pass sequences.
        assert_eq!(Mode::Native.pipeline(), vec![PassDesc::Vectorize]);
        assert_eq!(Mode::NativeNoSimd.pipeline(), vec![]);
        assert_eq!(Mode::elzar_default().pipeline(), vec![PassDesc::elzar_default()]);
        assert_eq!(Mode::SwiftR.pipeline(), vec![PassDesc::SwiftR]);
        assert_eq!(Mode::DeceleratedNative.pipeline(), vec![PassDesc::Vectorize, PassDesc::Decelerate]);
    }

    #[test]
    fn artifact_records_pass_stats_and_counts_builds() {
        let m = memory_loop();
        let before = build_count();
        let a = Artifact::build(&m, &Mode::DeceleratedNative);
        // Other unit tests build artifacts concurrently, so the global
        // counter only moves monotonically here; the figure harnesses
        // assert exact deltas from their single-threaded mains.
        assert!(build_count() > before, "build_count must advance");
        let names: Vec<_> = a.pass_stats().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["vectorize", "decelerate"]);
        assert_eq!(a.name(), "t");
        assert_eq!(a.mode(), &Mode::DeceleratedNative);
    }

    #[test]
    fn artifact_set_builds_each_mode_exactly_once() {
        let set = ArtifactSet::new();
        let mut sources = 0;
        for _ in 0..4 {
            for mode in [Mode::NativeNoSimd, Mode::elzar_default()] {
                let a = set.get_or_build("t", &mode, || {
                    sources += 1;
                    memory_loop()
                });
                assert_eq!(a.run(&[], MachineConfig::default()).outcome, RunOutcome::Exited(124750));
            }
        }
        // Every cache miss performs exactly one Artifact::build, so the
        // source-closure count is the lowering count.
        assert_eq!(sources, 2, "source modules built and lowered once per mode");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn golden_runs_are_cached_per_input_and_machine() {
        let mut m = Module::new("g");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        b.counted_loop(c64(0), c64(64), |bb, i| {
            let a = bb.load(Ty::I64, acc);
            let s = bb.add(a, i);
            bb.store(Ty::I64, s, acc);
        });
        let v = b.load(Ty::I64, acc);
        b.call_builtin(elzar_ir::Builtin::OutputI64, vec![v.into()], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());

        let a = Artifact::build(&m, &Mode::elzar_default());
        assert_eq!(a.golden_cache_len(), 0);
        let g1 = a.golden(&[], &MachineConfig::default());
        let g2 = a.golden(&[], &MachineConfig::default());
        assert!(Arc::ptr_eq(&g1, &g2), "same key must share one golden run");
        assert_eq!(a.golden_cache_len(), 1);
        // A different machine config is a different reference execution.
        let other = MachineConfig { threads: 2, ..MachineConfig::default() };
        let g3 = a.golden(&[], &other);
        assert_eq!(a.golden_cache_len(), 2);
        assert_eq!(g1.output, g3.output, "single-threaded kernel: same observable output");
        // Campaigns consume the cache instead of recomputing.
        let cfg = CampaignConfig { runs: 10, ..Default::default() };
        let r = a.campaign(&[], &cfg);
        assert_eq!(r.total(), 10);
        assert_eq!(a.golden_cache_len(), 2, "campaign reused the cached golden run");
    }
}
