//! The three workloads: how each is set up (modules built, artifacts
//! transformed and lowered) and what one measured pass runs.

use crate::config::{self, Size};
use crate::fingerprint;
use crate::report::process_cpu_s;
use crate::spans::Spans;
use elzar::{Artifact, Mode};
use elzar_apps::{Scale, ServeApp};
use elzar_fault::{golden_run, run_campaign_with_golden, CampaignResult, Outcome};
use elzar_ir::Module;
use elzar_serve::{serve_program, serve_scenario, ServeConfig, ServeReport, Service};
use elzar_vm::Program;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    KvA,
    KvDElastic,
    Fig13,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvA, Workload::KvDElastic, Workload::Fig13];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvA => "serve-kv-a",
            Workload::KvDElastic => "serve-kv-d-elastic",
            Workload::Fig13 => "campaign-fig13",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One lowered build and the input its `main` runs on.
pub struct Build {
    pub label: String,
    pub hardened: bool,
    pub program: Program,
    pub input: Vec<u8>,
}

/// Build `module` under `mode`. Untraced this is one `Artifact::build`;
/// traced, the same two steps run separately so passes and lowering
/// get spans of their own.
pub fn build(spans: &Spans, label: String, module: &Module, mode: &Mode, input: Vec<u8>) -> Build {
    let hardened = matches!(mode, Mode::Elzar(_));
    let program = if spans.enabled() {
        let pass = if hardened { "passes.elzar" } else { "passes.native" };
        let prepared = spans.span(pass, || elzar::prepare(module, mode));
        spans.span("lower", || Program::lower(&prepared))
    } else {
        Artifact::build(module, mode).into_program()
    };
    Build { label, hardened, program, input }
}

/// A serving app and its hardened build.
pub struct ServeSetup {
    pub service: Service,
    pub app: ServeApp,
    pub build: Build,
}

pub fn serve_setup(spans: &Spans, service: Service) -> ServeSetup {
    let app = spans.span("setup.module", || service.app(Scale::Tiny));
    let build = build(spans, service.label().to_string(), &app.module, &Mode::elzar_default(), Vec::new());
    ServeSetup { service, app, build }
}

/// The native-nosimd and ELZAR builds of each named Figure 13
/// benchmark, benchmark-major.
pub fn fig13_setup(spans: &Spans, benches: &[&str]) -> Vec<Build> {
    let mut builds = Vec::new();
    for &name in benches {
        let w = elzar_workloads::by_name(name).expect("Figure 13 benchmark exists");
        let built = spans.span("setup.module", || w.build(Scale::Tiny));
        for (ver, mode) in [("N", Mode::NativeNoSimd), ("E", Mode::elzar_default())] {
            builds.push(build(spans, format!("{name}.{ver}"), &built.module, &mode, built.input.clone()));
        }
    }
    builds
}

/// Everything a workload's passes need.
pub enum Setup {
    Serve(Box<ServeSetup>),
    Fig13(Vec<Build>),
}

pub fn setup(w: Workload, spans: &Spans) -> Setup {
    spans.span("setup", || match w {
        Workload::KvA => Setup::Serve(Box::new(serve_setup(spans, Service::KvA))),
        Workload::KvDElastic => Setup::Serve(Box::new(serve_setup(spans, Service::KvD))),
        Workload::Fig13 => Setup::Fig13(fig13_setup(spans, &config::FIG13_BENCHES)),
    })
}

/// What one pass produced.
pub struct Pass {
    /// Operations attempted: served requests, or classified injection
    /// runs.
    pub ops: u64,
    /// Host seconds of the serve or campaign calls.
    pub wall_s: f64,
    /// CPU seconds the process used in those calls, all threads.
    pub cpu_s: f64,
    pub fingerprint: String,
    pub virt: Virtual,
}

/// Virtual figures of one pass, for the report lines (the fingerprint
/// pins them bit-exactly).
pub enum Virtual {
    Serve(Box<ServeReport>),
    Campaign { results: Vec<(String, CampaignResult)>, hardened: Vec<bool> },
}

/// Knobs of one pass beyond the seed.
#[derive(Clone, Copy)]
pub struct PassOpts {
    pub workers: u32,
    pub size: Size,
    /// Serve only: record the canonical event trace.
    pub trace_events: bool,
}

impl PassOpts {
    pub fn new(size: Size) -> PassOpts {
        PassOpts { workers: config::WORKERS, size, trace_events: false }
    }
}

/// The `ServeConfig` of a serve workload's pass.
pub fn serve_config(service: Service, seed: u64, o: PassOpts) -> ServeConfig {
    let cfg = match service {
        Service::KvD => config::kv_d_elastic(seed, o.workers),
        _ => config::kv_a(seed, o.workers, o.size),
    };
    if o.trace_events {
        config::with_trace_events(cfg)
    } else {
        cfg
    }
}

/// One serve call over the workload's stream.
pub fn serve_pass(s: &ServeSetup, seed: u64, o: PassOpts) -> Pass {
    let cfg = serve_config(s.service, seed, o);
    let prog = &s.build.program;
    let (t, cpu) = (Instant::now(), process_cpu_s());
    let r = match s.service {
        Service::KvD => serve_scenario(s.service, prog, &s.app, &config::kv_d_scenario(o.size), &cfg),
        _ => serve_program(s.service, prog, &s.app, &cfg),
    };
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
    Pass {
        ops: r.served,
        wall_s,
        cpu_s,
        fingerprint: fingerprint::serve(&r),
        virt: Virtual::Serve(Box::new(r)),
    }
}

/// One campaign pass: every build's golden run, then its injections
/// through `run_campaign_with_golden`, the library's campaign entry.
pub fn campaign_pass(builds: &[Build], seed: u64, o: PassOpts) -> Pass {
    let machine = config::fig13_machine();
    let (t, cpu) = (Instant::now(), process_cpu_s());
    let mut results = Vec::with_capacity(builds.len());
    let mut ops = 0;
    for (i, b) in builds.iter().enumerate() {
        let golden = golden_run(&b.program, &b.input, &machine);
        let cfg = config::fig13_campaign(seed, i, o.workers, o.size);
        let r = run_campaign_with_golden(&b.program, &b.input, &golden, &cfg);
        ops += r.total();
        results.push((b.label.clone(), r));
    }
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
    let hardened = builds.iter().map(|b| b.hardened).collect();
    Pass {
        ops,
        wall_s,
        cpu_s,
        fingerprint: fingerprint::campaign(&results),
        virt: Virtual::Campaign { results, hardened },
    }
}

pub fn pass(setup: &Setup, seed: u64, o: PassOpts) -> Pass {
    match setup {
        Setup::Serve(s) => serve_pass(s, seed, o),
        Setup::Fig13(builds) => campaign_pass(builds, seed, o),
    }
}

impl Virtual {
    /// Human-readable virtual figures (simulated time, never host).
    pub fn describe(&self) -> String {
        match self {
            Virtual::Serve(r) => format!(
                "virtual: p50 {:.2} us, p99 {:.2} us over {} requests, availability {:.5}, \
                 {} injected ({} SDC)",
                r.quantile_us(0.50),
                r.quantile_us(0.99),
                r.hist.count(),
                r.availability(),
                r.injected,
                r.count(Outcome::Sdc),
            ),
            Virtual::Campaign { results, hardened } => {
                let (mut sdc, mut total) = (0, 0);
                for ((_, r), _) in results.iter().zip(hardened).filter(|(_, h)| **h) {
                    sdc += r.count(Outcome::Sdc);
                    total += r.total();
                }
                // Builds alternate native, ELZAR per benchmark.
                let logs: Vec<f64> = results
                    .chunks(2)
                    .map(|p| (p[1].1.golden_cycles as f64 / p[0].1.golden_cycles.max(1) as f64).ln())
                    .collect();
                let overhead = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
                format!(
                    "virtual: ELZAR SDC {:.2}% of {} injections, overhead {:.3}x (geomean ELZAR/native \
                     golden cycles, {} benchmarks)",
                    100.0 * sdc as f64 / total.max(1) as f64,
                    total,
                    overhead,
                    logs.len(),
                )
            }
        }
    }
}
