//! Observability determinism harness: what the virtual-time tracer and
//! the cycle ledger record, with no host-time figure in it, so the
//! output is a pure function of the code and `ELZAR_SCALE`. Writes
//! `BENCH_obs.json` plus one sample Perfetto-loadable trace
//! (`trace_serve_failover.json`) in the current directory. The
//! tracer's host-time overhead is measured by the host benchmark
//! (`hostbench`'s traced `obs.trace_overhead_pct`), not here.
//!
//! Three sections:
//!
//! 1. **Tracing toggle** — every service served twice with identical
//!    configuration except `trace_events` (0 vs a deep ring): the
//!    report is asserted identical in every behavioral field
//!    (outcomes, digest, histogram, makespan, ledger) — recording can
//!    never feed back into virtual time — and the event counts are
//!    recorded;
//! 2. **Ledger** — a crash-storm run per service with the full
//!    cycle-accounting breakdown; the conservation invariant
//!    (`foreground categories == lifetime cycles`, per shard) is
//!    checked inside report merging on every run this harness does;
//! 3. **Trace determinism** — a failover + compaction storm traced
//!    twice; the canonical byte serialization must be bit-identical.
//!
//! Knob: `ELZAR_SCALE` (service problem size).

#![forbid(unsafe_code)]

use elzar::{Artifact, Mode};
use elzar_bench::report::{chrome_trace, write_report, Json};
use elzar_bench::{banner, scale_from_env};
use elzar_serve::gen::rescale_gaps;
use elzar_serve::{serve_stream, Category, ServeConfig, ServeReport, Service};

/// Ring depth for tracing-on cells: deep enough that nothing drops on
/// these streams, so the canonical trace covers the whole run.
const TRACE_DEPTH: usize = 1 << 14;

/// The storm the failover differential suite uses: dense SEUs so
/// recovery, promotion and divergence probes all appear in the trace.
fn storm_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
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

fn ledger_json(r: &ServeReport) -> Json {
    let mut j = Json::obj();
    for c in Category::ALL {
        j = j.field(c.label(), Json::uint(r.ledger.get(c)));
    }
    j
}

fn main() {
    banner("fig_obs", "observability: tracing toggle, cycle ledger, trace determinism");
    let scale = scale_from_env();
    let cycles_per_us = (elzar_apps::FREQ_HZ / 1e6) as u64;

    // ---- Section 1: tracing off vs on, behavior unchanged -------------
    println!("\n-- tracing toggle (off vs on, behavioral fields identical) --");
    let mut toggle_rows = Vec::new();
    for service in Service::all() {
        let app = service.app(scale);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let cfg = storm_cfg();
        let stream = service.stream(&app, &cfg);
        let r_off = serve_stream(artifact.program(), &app, &stream, &cfg);
        let on_cfg = ServeConfig { trace_events: TRACE_DEPTH, ..cfg.clone() };
        let r_on = serve_stream(artifact.program(), &app, &stream, &on_cfg);
        assert_behavior_eq(service.label(), &r_off, &r_on);
        assert!(r_off.trace.is_empty(), "{}: tracing off must record nothing", service.label());
        assert!(!r_on.trace.is_empty(), "{}: tracing on recorded nothing", service.label());
        println!("{:<12} events={} dropped={}", service.label(), r_on.trace.len(), r_on.trace.dropped_events);
        toggle_rows.push(
            Json::obj()
                .field("service", Json::str(service.label()))
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

    // ---- Section 3: trace determinism across reruns -------------------
    println!("\n-- trace determinism (failover + compaction storm, run twice) --");
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
    let first = serve_stream(artifact.program(), &app, &stream, &base);
    let rerun = serve_stream(artifact.program(), &app, &stream, &base);
    let bytes = first.trace.canonical_bytes();
    assert_eq!(bytes, rerun.trace.canonical_bytes(), "canonical trace bytes diverged across reruns");
    println!(
        "canonical trace: {} events, {} bytes, bit-identical across 2 runs",
        first.trace.len(),
        bytes.len()
    );

    // A sample Perfetto-loadable failover trace.
    let sample = chrome_trace(&first.trace, cycles_per_us);
    std::fs::write("trace_serve_failover.json", sample.to_pretty())
        .unwrap_or_else(|e| panic!("write trace_serve_failover.json: {e}"));
    println!("wrote trace_serve_failover.json ({} events)", first.trace.len());

    let report = Json::obj()
        .field("bench", Json::str("obs"))
        .field("scale", Json::str(format!("{scale:?}")))
        .field("trace_depth", Json::uint(TRACE_DEPTH as u64))
        .field("tracing_toggle", Json::Arr(toggle_rows))
        .field("ledger", Json::Arr(ledger_rows))
        .field(
            "determinism",
            Json::obj()
                .field("service", Json::str(service.label()))
                .field("events", Json::uint(first.trace.len() as u64))
                .field("canonical_bytes", Json::uint(bytes.len() as u64))
                .field("runs_compared", Json::uint(2))
                .field("bit_identical", Json::uint(1)),
        );
    write_report("BENCH_obs.json", &report);
}
