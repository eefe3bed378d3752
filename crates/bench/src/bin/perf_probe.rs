//! Perf probe: measures interpreter and campaign throughput and writes
//! `BENCH_interp.json` (in the current directory) so successive PRs
//! have a recorded performance trajectory.
//!
//! Metrics:
//! * `engines` — retired IR instructions per wall-clock second for each
//!   execution engine (reference interpreter, trace engine), in both
//!   native and ELZAR-hardened modes, plus the host's detected SIMD
//!   features (context for the numbers: the kernels are portable Rust);
//! * `elzar_speedup_trace_vs_reference` — the headline: hardened
//!   steps/s of the trace engine over the reference interpreter;
//! * `campaign_runs_per_sec` — fault-injection runs per second on the
//!   hardened kernel (checkpointed driver, `ELZAR_CAMPAIGN_THREADS`
//!   workers);
//! * `campaign_speedup_vs_naive` — same campaign with prefix sharing
//!   and fan-out disabled, as a ratio.

#![forbid(unsafe_code)]

use elzar::{Artifact, Mode};
use elzar_bench::campaign_workers_from_env;
use elzar_bench::report::{write_report, Json};
use elzar_fault::CampaignConfig;
use elzar_ir::builder::{c64, FuncBuilder};
use elzar_ir::{Builtin, Module, Ty};
use elzar_vm::{EngineKind, MachineConfig};
use std::time::Instant;

fn kernel(iters: i64) -> Module {
    let mut m = Module::new("probe");
    let mut b = FuncBuilder::new("main", vec![], Ty::I64);
    let buf = b.call_builtin(Builtin::Malloc, vec![c64(64 * 8)], Ty::Ptr).unwrap();
    b.counted_loop(c64(0), c64(iters), |b, i| {
        let idx = b.bin(elzar_ir::BinOp::And, Ty::I64, i, c64(63));
        let p = b.gep(buf, idx, 8);
        let v = b.load(Ty::I64, p);
        let x = b.mul(v, c64(3));
        let y = b.add(x, i);
        b.store(Ty::I64, y, p);
    });
    let p0 = b.gep(buf, c64(0), 8);
    let v = b.load(Ty::I64, p0);
    b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
    b.ret(c64(0));
    m.add_func(b.finish());
    m
}

/// Names of the SIMD-relevant CPU features detected at runtime.
fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, have) in [
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                out.push(name);
            }
        }
    }
    out
}

/// One timed window of `artifact` under `engine`: steps per second.
fn interp_window(artifact: &Artifact, engine: EngineKind) -> f64 {
    let cfg = MachineConfig { engine, ..MachineConfig::default() };
    let mut steps = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 150 {
        steps += artifact.run(&[], cfg).steps;
    }
    steps as f64 / t0.elapsed().as_secs_f64()
}

/// Steps/second for every engine in `engines`, measured as interleaved
/// rounds with the per-engine maximum kept. Interleaving spreads any
/// transient host load across all engines instead of biasing whichever
/// one was measured during the spike, and the max discards slowed
/// windows entirely — external noise only ever subtracts throughput.
fn interp_rates(artifact: &Artifact, engines: &[EngineKind]) -> Vec<f64> {
    for &engine in engines {
        // Warm-up: fault caches, lazily-grown memory, branch history.
        artifact.run(&[], MachineConfig { engine, ..MachineConfig::default() });
    }
    let mut best = vec![0.0f64; engines.len()];
    for _ in 0..10 {
        for (i, &engine) in engines.iter().enumerate() {
            best[i] = best[i].max(interp_window(artifact, engine));
        }
    }
    best
}

/// Campaign runs/second on a shared hardened-kernel artifact. The
/// golden run comes from the artifact's cache, so successive probes
/// (fast vs naive) never recompute the reference execution.
fn campaign_rate(artifact: &Artifact, share_prefixes: bool, workers: u32) -> f64 {
    let cfg = CampaignConfig { runs: 60, seed: 0xBE7C, workers, share_prefixes, ..Default::default() };
    let t0 = Instant::now();
    let r = artifact.campaign(&[], &cfg);
    r.total() as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let engines = [EngineKind::Reference, EngineKind::Trace];
    let native = Artifact::build(&kernel(20_000), &Mode::NativeNoSimd);
    let elzar = Artifact::build(&kernel(20_000), &Mode::elzar_default());
    let mut sections = Json::obj();
    let native_rates = interp_rates(&native, &engines);
    let elzar_rates = interp_rates(&elzar, &engines);
    for (i, engine) in engines.iter().enumerate() {
        sections = sections.field(
            engine.name(),
            Json::obj()
                .field("native_steps_per_sec", Json::num(native_rates[i], 0))
                .field("elzar_steps_per_sec", Json::num(elzar_rates[i], 0)),
        );
    }
    let workers = campaign_workers_from_env();
    let hardened = Artifact::build(&kernel(5_000), &Mode::elzar_default());
    // Prime the golden-run cache so both probes time only injection
    // runs — otherwise the first probe would pay the reference
    // execution inside its window and bias the speedup ratio.
    hardened.golden(&[], &CampaignConfig::default().machine);
    let fast = campaign_rate(&hardened, true, workers);
    let naive = campaign_rate(&hardened, false, 1);
    let features = Json::Arr(cpu_features().into_iter().map(Json::str).collect());
    let json = Json::obj()
        .field("cpu_features", features)
        .field("engines", sections)
        .field("elzar_speedup_trace_vs_reference", Json::num(elzar_rates[1] / elzar_rates[0], 2))
        .field("native_speedup_trace_vs_reference", Json::num(native_rates[1] / native_rates[0], 2))
        .field("campaign_workers", Json::uint(u64::from(workers)))
        .field("campaign_runs_per_sec", Json::num(fast, 2))
        .field("campaign_runs_per_sec_naive_serial", Json::num(naive, 2))
        .field("campaign_speedup_vs_naive", Json::num(fast / naive.max(1e-9), 2));
    write_report("BENCH_interp.json", &json);
}
