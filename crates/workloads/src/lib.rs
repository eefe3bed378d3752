//! # elzar-workloads
//!
//! The benchmark programs of the ELZAR paper's evaluation (§V), authored
//! against `elzar-ir`: all seven Phoenix 2.0 kernels, the seven evaluated
//! PARSEC 3.0 kernels, the §VII-A microbenchmarks, and a hardened IR
//! math library used by the FP-heavy kernels.
//!
//! Workload modules are *thread-count-agnostic*: the worker count comes
//! from [`elzar_vm::MachineConfig::threads`] at run time (via the
//! `num_threads` builtin), so one build serves a whole thread sweep.
//!
//! ```
//! use elzar_workloads::{by_name, Scale};
//! use elzar::{execute, Mode};
//! use elzar_vm::MachineConfig;
//!
//! let hist = by_name("histogram").unwrap();
//! let built = hist.build(Scale::Tiny);
//! let cfg = MachineConfig { threads: 2, ..MachineConfig::default() };
//! let r = execute(&built.module, &Mode::NativeNoSimd, &built.input, cfg);
//! assert!(matches!(r.outcome, elzar_vm::RunOutcome::Exited(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod libm_ir;
pub mod micro;
pub mod parsec;
pub mod phoenix;

pub use common::{Scale, MAX_WORKLOAD_THREADS};
use elzar_ir::Module;

/// Which benchmark suite a workload belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// Phoenix 2.0 (map-reduce style kernels).
    Phoenix,
    /// PARSEC 3.0.
    Parsec,
}

/// A built workload: an IR module (with `main`) plus its input bytes.
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// The program.
    pub module: Module,
    /// Bytes placed in the VM's input segment.
    pub input: Vec<u8>,
}

/// A benchmark program generator.
pub trait Workload: Sync {
    /// Benchmark name (paper spelling, lowercase).
    fn name(&self) -> &'static str;
    /// Originating suite.
    fn suite(&self) -> Suite;
    /// Build the module and input for the given scale. The module is
    /// thread-count-agnostic: it spawns `MachineConfig::threads` workers
    /// at run time.
    fn build(&self, scale: Scale) -> BuiltWorkload;
}

/// All Phoenix workloads, in the paper's order.
pub fn phoenix_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(phoenix::Histogram),
        Box::new(phoenix::Kmeans),
        Box::new(phoenix::LinearRegression),
        Box::new(phoenix::MatrixMultiply),
        Box::new(phoenix::Pca),
        Box::new(phoenix::StringMatch),
        Box::new(phoenix::WordCount),
    ]
}

/// All evaluated PARSEC workloads, in the paper's order.
pub fn parsec_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(parsec::Blackscholes),
        Box::new(parsec::Dedup),
        Box::new(parsec::Ferret),
        Box::new(parsec::Fluidanimate),
        Box::new(parsec::Streamcluster),
        Box::new(parsec::Swaptions),
        Box::new(parsec::X264),
    ]
}

/// Every benchmark (Phoenix then PARSEC) — the 14 bars of Figure 11.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    let mut v = phoenix_workloads();
    v.extend(parsec_workloads());
    v
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

/// Abbreviations used in the paper's figures (hist, km, linreg, …).
pub fn short_name(name: &str) -> &'static str {
    match name {
        "histogram" => "hist",
        "kmeans" => "km",
        "linear_regression" => "linreg",
        "matrix_multiply" => "mmul",
        "pca" => "pca",
        "string_match" => "smatch",
        "word_count" => "wc",
        "blackscholes" => "black",
        "dedup" => "dedup",
        "ferret" => "ferret",
        "fluidanimate" => "fluid",
        "streamcluster" => "scluster",
        "swaptions" => "swap",
        "x264" => "x264",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let names: Vec<_> = all_workloads().iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names.len(), 14);
        assert!(by_name("histogram").is_some());
        assert!(by_name("x264").is_some());
        assert!(by_name("nope").is_none());
        for n in &names {
            assert_ne!(short_name(n), "?", "missing short name for {n}");
        }
    }

    #[test]
    fn all_workloads_verify_and_lower() {
        for w in all_workloads() {
            let built = w.build(Scale::Tiny);
            elzar_ir::verify::verify_module(&built.module)
                .unwrap_or_else(|e| panic!("{}: {:#?}", w.name(), &e[..e.len().min(5)]));
            let p = elzar_vm::Program::lower(&built.module);
            assert!(p.num_insts() > 0);
        }
    }
}
