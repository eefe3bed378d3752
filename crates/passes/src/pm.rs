//! Pass manager: named, composable IR transformation pipelines.
//!
//! The crate's transformations ([`crate::elzar`], [`crate::swiftr`],
//! [`crate::vectorize`], [`crate::decelerate`], [`crate::dce`]) are
//! exposed here behind one [`Pass`] trait plus a data-only descriptor
//! ([`PassDesc`]), so a build pipeline is a *value* —
//! `Vec<PassDesc>` — rather than a hard-coded `match`. The
//! [`PassManager`] runs a pipeline with per-pass post-verification
//! (every pass must leave the module valid under
//! [`elzar_ir::verify::verify_module`]) and wall-clock timing stats,
//! and keeps global counters so harnesses can assert how many builds
//! actually happened (e.g. "this sweep lowered each artifact exactly
//! once").
//!
//! Pipelines can be overridden from the environment for ablations:
//! `ELZAR_PASSES="vectorize,dce"` (comma-separated registry names, see
//! [`registry`] and [`parse_pipeline`]) replaces whatever pipeline a
//! mode would normally request.
//!
//! ```
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::{Module, Ty};
//! use elzar_passes::pm::{PassDesc, PassManager};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", vec![], Ty::I64);
//! let x = b.add(c64(40), c64(2));
//! b.ret(x);
//! m.add_func(b.finish());
//!
//! let pm = PassManager::new();
//! let (hardened, stats) = pm.run(&m, &[PassDesc::elzar_default()]);
//! assert_eq!(stats.len(), 1);
//! assert_eq!(stats[0].name, "elzar");
//! elzar_ir::verify::verify_module(&hardened).unwrap();
//! ```

use crate::elzar::{harden_module as elzar_harden, ElzarConfig};
use crate::{dce, decelerate_module, swiftr, vectorize_module};
use elzar_ir::Module;
use elzar_obs::debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A named module-to-module transformation.
///
/// Passes take and return owned modules: several of the underlying
/// transformations are rebuilding (hardening emits a fresh module), and
/// in-place ones simply mutate and hand the module back.
pub trait Pass: Sync {
    /// Registry name (stable; used by `ELZAR_PASSES` and reports).
    fn name(&self) -> &'static str;
    /// Apply the transformation.
    fn run(&self, m: Module) -> Module;
}

/// Data-only descriptor of a pass instance — the unit build pipelines
/// are made of. `Mode::pipeline()` (in the `elzar` crate) maps every
/// build mode to a `Vec<PassDesc>`, and ablation overrides parse into
/// the same type.
#[derive(Clone, PartialEq, Debug)]
pub enum PassDesc {
    /// Innermost-loop vectorization (the Figure 1 "native" builds).
    Vectorize,
    /// ELZAR AVX-lane triple modular redundancy with a configuration.
    Elzar(ElzarConfig),
    /// SWIFT-R instruction triplication (§V-D baseline).
    SwiftR,
    /// Dummy-wrapper deceleration (§VII-D estimation methodology).
    Decelerate,
    /// Dead-code elimination hygiene.
    Dce,
}

impl PassDesc {
    /// ELZAR with the paper's default configuration.
    pub fn elzar_default() -> PassDesc {
        PassDesc::Elzar(ElzarConfig::default())
    }

    /// The descriptor's registry name.
    pub fn name(&self) -> &'static str {
        match self {
            PassDesc::Vectorize => "vectorize",
            PassDesc::Elzar(_) => "elzar",
            PassDesc::SwiftR => "swiftr",
            PassDesc::Decelerate => "decelerate",
            PassDesc::Dce => "dce",
        }
    }

    /// Look a descriptor up by registry name (default configurations).
    pub fn parse(name: &str) -> Option<PassDesc> {
        match name.trim() {
            "vectorize" => Some(PassDesc::Vectorize),
            "elzar" => Some(PassDesc::elzar_default()),
            "swiftr" => Some(PassDesc::SwiftR),
            "decelerate" => Some(PassDesc::Decelerate),
            "dce" => Some(PassDesc::Dce),
            _ => None,
        }
    }

    /// Instantiate the runnable pass.
    pub fn instantiate(&self) -> Box<dyn Pass> {
        match self {
            PassDesc::Vectorize => Box::new(VectorizePass),
            PassDesc::Elzar(cfg) => Box::new(ElzarPass(*cfg)),
            PassDesc::SwiftR => Box::new(SwiftRPass),
            PassDesc::Decelerate => Box::new(DeceleratePass),
            PassDesc::Dce => Box::new(DcePass),
        }
    }
}

/// Every registered pass name, in registry order.
pub fn registry() -> [&'static str; 5] {
    ["vectorize", "elzar", "swiftr", "decelerate", "dce"]
}

/// Parse a comma-separated pipeline spec (the `ELZAR_PASSES` format).
/// Empty input yields the empty pipeline; unknown names are errors.
pub fn parse_pipeline(spec: &str) -> Result<Vec<PassDesc>, String> {
    let mut out = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        out.push(
            PassDesc::parse(name)
                .ok_or_else(|| format!("unknown pass {name:?} (registry: {:?})", registry()))?,
        );
    }
    Ok(out)
}

/// The pipeline override from `ELZAR_PASSES`, if set.
///
/// # Panics
/// Panics on an unparsable spec — a silently ignored ablation flag
/// would invalidate whole experiments.
pub fn pipeline_from_env() -> Option<Vec<PassDesc>> {
    let spec = std::env::var("ELZAR_PASSES").ok()?;
    Some(parse_pipeline(&spec).expect("ELZAR_PASSES"))
}

struct VectorizePass;
impl Pass for VectorizePass {
    fn name(&self) -> &'static str {
        "vectorize"
    }
    fn run(&self, mut m: Module) -> Module {
        vectorize_module(&mut m);
        m
    }
}

struct ElzarPass(ElzarConfig);
impl Pass for ElzarPass {
    fn name(&self) -> &'static str {
        "elzar"
    }
    fn run(&self, m: Module) -> Module {
        elzar_harden(&m, &self.0)
    }
}

struct SwiftRPass;
impl Pass for SwiftRPass {
    fn name(&self) -> &'static str {
        "swiftr"
    }
    fn run(&self, m: Module) -> Module {
        swiftr::harden_module(&m)
    }
}

struct DeceleratePass;
impl Pass for DeceleratePass {
    fn name(&self) -> &'static str {
        "decelerate"
    }
    fn run(&self, m: Module) -> Module {
        decelerate_module(&m)
    }
}

struct DcePass;
impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run(&self, mut m: Module) -> Module {
        dce::dce_module(&mut m);
        m
    }
}

/// Per-pass execution record.
#[derive(Clone, Debug)]
pub struct PassStat {
    /// Registry name of the pass.
    pub name: &'static str,
    /// Wall-clock microseconds the pass took.
    pub micros: u64,
    /// Instruction count after the pass ran.
    pub insts_after: usize,
}

/// Runs pipelines: every pass is followed by a verification of the
/// transformed module, and timing is recorded per pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassManager;

impl PassManager {
    /// A pass manager. It always verifies: a pass that emits invalid IR
    /// is a bug worth an immediate panic.
    pub fn new() -> PassManager {
        PassManager
    }

    /// Run `pipeline` over (a clone of) `m`, returning the transformed
    /// module and per-pass stats.
    ///
    /// # Panics
    /// Panics if a pass leaves the module failing verification — that is
    /// a bug in the pass, never in user code.
    pub fn run(&self, m: &Module, pipeline: &[PassDesc]) -> (Module, Vec<PassStat>) {
        PIPELINES_RUN.fetch_add(1, Ordering::Relaxed);
        let mut cur = m.clone();
        let mut stats = Vec::with_capacity(pipeline.len());
        for desc in pipeline {
            let pass = desc.instantiate();
            let t0 = Instant::now();
            cur = pass.run(cur);
            let micros = t0.elapsed().as_micros() as u64;
            PASSES_RUN.fetch_add(1, Ordering::Relaxed);
            if let Err(errs) = elzar_ir::verify::verify_module(&cur) {
                panic!(
                    "pass bug: {} left {} failing verification: {:#?}",
                    pass.name(),
                    m.name,
                    &errs[..errs.len().min(5)]
                );
            }
            let insts_after = module_insts(&cur);
            debug::emit("passes", || {
                format!("{}: pass {} took {micros}us, {insts_after} insts after", m.name, pass.name())
            });
            stats.push(PassStat { name: pass.name(), micros, insts_after });
        }
        (cur, stats)
    }
}

fn module_insts(m: &Module) -> usize {
    m.funcs.iter().map(|f| f.insts.len()).sum()
}

static PIPELINES_RUN: AtomicU64 = AtomicU64::new(0);
static PASSES_RUN: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of pipelines executed by [`PassManager::run`].
/// Harnesses use deltas of this to assert build-once behaviour.
pub fn pipelines_run() -> u64 {
    PIPELINES_RUN.load(Ordering::Relaxed)
}

/// Process-wide count of individual passes executed.
pub fn passes_run() -> u64 {
    PASSES_RUN.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_ir::builder::{c64, FuncBuilder};
    use elzar_ir::{Builtin, Ty};

    fn sample() -> Module {
        let mut m = Module::new("pm-sample");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        b.counted_loop(c64(0), c64(64), |b, i| {
            let v = b.load(Ty::I64, acc);
            let s = b.add(v, i);
            b.store(Ty::I64, s, acc);
        });
        let v = b.load(Ty::I64, acc);
        b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
        b.ret(v);
        m.add_func(b.finish());
        m
    }

    #[test]
    fn every_registered_pass_passes_verification() {
        let m = sample();
        let pm = PassManager::new();
        for name in registry() {
            let desc = PassDesc::parse(name).expect("registry name parses");
            assert_eq!(desc.name(), name);
            // PassManager::run panics if the pass breaks the module.
            let (out, stats) = pm.run(&m, &[desc]);
            assert_eq!(stats.len(), 1, "{name}");
            assert_eq!(stats[0].name, name);
            assert!(stats[0].insts_after > 0, "{name} emptied the module");
            elzar_ir::verify::verify_module(&out).unwrap();
        }
    }

    #[test]
    fn parse_pipeline_roundtrips_and_rejects_unknown() {
        let p = parse_pipeline("vectorize, dce").unwrap();
        assert_eq!(p, vec![PassDesc::Vectorize, PassDesc::Dce]);
        assert_eq!(parse_pipeline("").unwrap(), vec![]);
        assert!(parse_pipeline("vectorise").is_err());
        for name in registry() {
            assert_eq!(PassDesc::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn counters_advance_per_pipeline_and_pass() {
        // Sibling tests run pipelines concurrently, so assert monotone
        // advancement by at least this test's own work (exact deltas
        // are asserted by single-threaded harness mains).
        let m = sample();
        let pm = PassManager::new();
        let p0 = pipelines_run();
        let q0 = passes_run();
        pm.run(&m, &[PassDesc::Vectorize, PassDesc::Dce]);
        assert!(pipelines_run() - p0 >= 1);
        assert!(passes_run() - q0 >= 2);
    }

    #[test]
    fn empty_pipeline_is_identity_modulo_clone() {
        let m = sample();
        let (out, stats) = PassManager::new().run(&m, &[]);
        assert!(stats.is_empty());
        assert_eq!(format!("{out:?}").len(), format!("{m:?}").len());
    }
}
