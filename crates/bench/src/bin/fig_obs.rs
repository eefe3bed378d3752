//! Observability overhead and determinism harness: the cost of the
//! virtual-time tracer measured like any other perf number. Writes
//! `BENCH_obs.json` plus one sample Perfetto-loadable trace
//! (`trace_serve_failover.json`) in the current directory.
//!
//! Three sections:
//!
//! 1. **Overhead** — every service served twice with identical
//!    configuration except `trace_events` (0 vs a deep ring), wall
//!    clock compared over repeated runs: the tracer must stay under a
//!    few percent, and with tracing *off* the report is asserted
//!    byte-identical in every behavioral field (outcomes, digest,
//!    histogram, makespan) — recording can never feed back into
//!    virtual time;
//! 2. **Ledger** — a crash-storm run per service with the full
//!    cycle-accounting breakdown; the conservation invariant
//!    (`foreground categories == lifetime cycles`, per shard) is
//!    checked inside report merging on every run this harness does;
//! 3. **Trace determinism** — a failover + compaction storm traced at
//!    1 and 4 workers; the canonical byte serialization must be
//!    bit-identical.
//!
//! Knobs: `ELZAR_SCALE` (service problem size), `ELZAR_OBS_REPS`
//! (wall-clock repetitions per cell, default 5).

#![forbid(unsafe_code)]

use elzar::{Artifact, Mode};
use elzar_bench::report::{chrome_trace, write_report, Json};
use elzar_bench::{banner, scale_from_env};
use elzar_serve::gen::rescale_gaps;
use elzar_serve::{serve_stream, Category, ServeConfig, ServeReport, Service};
use std::time::Instant;

/// Ring depth for tracing-on cells: deep enough that nothing drops on
/// these streams, so the canonical trace covers the whole run.
const TRACE_DEPTH: usize = 1 << 14;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The storm the failover differential suite uses: dense SEUs so
/// recovery, promotion and divergence probes all appear in the trace.
fn storm_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: 2,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 360,
        seed: 0xFA11_0EE5,
        fault_rate_ppm: 300_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300,
        ..Default::default()
    }
}

/// Everything that must not move when tracing toggles: the behavioral
/// surface of the report.
fn assert_behavior_eq(tag: &str, a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.served, b.served, "{tag}: served diverged");
    assert_eq!(a.rejected, b.rejected, "{tag}: rejected diverged");
    assert_eq!(a.injected, b.injected, "{tag}: injections diverged");
    assert_eq!(a.outcomes, b.outcomes, "{tag}: outcome histogram diverged");
    assert_eq!(a.restarts, b.restarts, "{tag}: restarts diverged");
    assert_eq!(a.hist, b.hist, "{tag}: latency histogram diverged");
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{tag}: makespan diverged");
    assert_eq!(a.ledger, b.ledger, "{tag}: cycle ledger diverged");
    assert_eq!(a.table_digest, b.table_digest, "{tag}: final resident state diverged");
}

/// Median wall-clock seconds of `reps` runs of `f` (each rep re-serves
/// the whole stream).
fn median_secs(reps: u64, mut f: impl FnMut() -> ServeReport) -> (f64, ServeReport) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    times.sort_by(|x, y| x.partial_cmp(y).expect("no NaN timings"));
    (times[times.len() / 2], last.expect("at least one rep"))
}

fn ledger_json(r: &ServeReport) -> Json {
    let mut j = Json::obj();
    for c in Category::ALL {
        j = j.field(c.label(), Json::uint(r.ledger.get(c)));
    }
    j
}

fn main() {
    banner("fig_obs", "observability: tracer overhead, cycle ledger, trace determinism");
    let scale = scale_from_env();
    let reps = env_u64("ELZAR_OBS_REPS", 5);
    let cycles_per_us = (elzar_apps::FREQ_HZ / 1e6) as u64;

    // ---- Section 1: tracing-off vs tracing-on overhead ----------------
    println!("\n-- tracer overhead (off vs on, {reps} reps, median wall clock) --");
    let mut overhead_rows = Vec::new();
    for service in Service::all() {
        let app = service.app(scale);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let cfg = storm_cfg();
        let stream = service.stream(&app, &cfg);
        // One untimed warm-up so the first timed cell doesn't pay the
        // cold caches alone.
        let _ = serve_stream(artifact.program(), &app, &stream, &cfg);
        let (t_off, r_off) = median_secs(reps, || serve_stream(artifact.program(), &app, &stream, &cfg));
        let on_cfg = ServeConfig { trace_events: TRACE_DEPTH, ..cfg.clone() };
        let (t_on, r_on) = median_secs(reps, || serve_stream(artifact.program(), &app, &stream, &on_cfg));
        assert_behavior_eq(service.label(), &r_off, &r_on);
        assert!(r_off.trace.is_empty(), "{}: tracing off must record nothing", service.label());
        assert!(!r_on.trace.is_empty(), "{}: tracing on recorded nothing", service.label());
        let overhead_pct = (t_on / t_off - 1.0) * 100.0;
        println!(
            "{:<12} off={:.4}s on={:.4}s overhead={:+.2}% events={} dropped={}",
            service.label(),
            t_off,
            t_on,
            overhead_pct,
            r_on.trace.len(),
            r_on.trace.dropped_events
        );
        overhead_rows.push(
            Json::obj()
                .field("service", Json::str(service.label()))
                .field("off_secs", Json::num(t_off, 6))
                .field("on_secs", Json::num(t_on, 6))
                .field("overhead_pct", Json::num(overhead_pct, 2))
                .field("trace_events", Json::uint(r_on.trace.len() as u64))
                .field("dropped_events", Json::uint(r_on.trace.dropped_events))
                .field("behavioral_delta", Json::uint(0)),
        );
    }

    // ---- Section 2: cycle-accounting ledger ---------------------------
    println!("\n-- cycle ledger (crash storm, conservation checked per shard) --");
    let mut ledger_rows = Vec::new();
    for service in Service::all() {
        let app = service.app(scale);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let cfg = ServeConfig { replicas: true, ..storm_cfg() };
        let stream = service.stream(&app, &cfg);
        let r = serve_stream(artifact.program(), &app, &stream, &cfg);
        let lifetime: u64 = r.shards.iter().map(|s| s.lifetime_cycles).sum();
        println!(
            "{:<12} lifetime={} execute={} downtime={} idle={} availability={:.6}",
            service.label(),
            lifetime,
            r.ledger.get(Category::Execute),
            r.downtime_cycles(),
            r.ledger.get(Category::Idle),
            r.availability()
        );
        ledger_rows.push(
            Json::obj()
                .field("service", Json::str(service.label()))
                .field("lifetime_cycles", Json::uint(lifetime))
                .field("foreground_cycles", Json::uint(r.ledger.foreground_total()))
                .field("background_cycles", Json::uint(r.ledger.background_total()))
                .field("availability", Json::num(r.availability(), 6))
                .field("cells", ledger_json(&r)),
        );
    }

    // ---- Section 3: trace determinism across worker counts ------------
    println!("\n-- trace determinism (failover + compaction storm, w1 vs w4) --");
    let service = Service::KvA;
    let app = service.app(scale);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        replicas: true,
        adaptive_shards: true,
        compaction: true,
        shards: 1,
        shards_max: 4,
        trace_events: TRACE_DEPTH,
        ..storm_cfg()
    };
    let mut stream = service.stream(&app, &base);
    let from = stream.len() * 2 / 3;
    rescale_gaps(&mut stream, from, 30, 1);
    let w1 = serve_stream(artifact.program(), &app, &stream, &ServeConfig { workers: 1, ..base.clone() });
    let w4 = serve_stream(artifact.program(), &app, &stream, &ServeConfig { workers: 4, ..base.clone() });
    let bytes1 = w1.trace.canonical_bytes();
    let bytes4 = w4.trace.canonical_bytes();
    assert_eq!(bytes1, bytes4, "canonical trace bytes diverged across worker counts");
    println!(
        "canonical trace: {} events, {} bytes, bit-identical across 1 and 4 workers",
        w1.trace.len(),
        bytes1.len()
    );

    // The sample artifact CI uploads: a Perfetto-loadable failover trace.
    let sample = chrome_trace(&w4.trace, cycles_per_us);
    std::fs::write("trace_serve_failover.json", sample.to_pretty())
        .unwrap_or_else(|e| panic!("write trace_serve_failover.json: {e}"));
    println!("wrote trace_serve_failover.json ({} events)", w4.trace.len());

    let report = Json::obj()
        .field("bench", Json::str("obs"))
        .field("scale", Json::str(format!("{scale:?}")))
        .field("reps", Json::uint(reps))
        .field("trace_depth", Json::uint(TRACE_DEPTH as u64))
        .field("overhead", Json::Arr(overhead_rows))
        .field("ledger", Json::Arr(ledger_rows))
        .field(
            "determinism",
            Json::obj()
                .field("service", Json::str(service.label()))
                .field("events", Json::uint(w1.trace.len() as u64))
                .field("canonical_bytes", Json::uint(bytes1.len() as u64))
                .field("workers_compared", Json::str("1 vs 4"))
                .field("bit_identical", Json::uint(1)),
        );
    write_report("BENCH_obs.json", &report);
}
