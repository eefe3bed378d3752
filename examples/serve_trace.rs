//! Tracing quick-start: serve one YCSB-A crash storm with warm-replica
//! failover and a deep event ring, then dump the run three ways:
//!
//! 1. a **text timeline** excerpt — every event cycle-stamped in the
//!    canonical `(cycle, track, seq)` order;
//! 2. the **cycle ledger** — where every shard cycle went, with the
//!    conservation identity (foreground categories sum to exactly the
//!    fleet's lifetime) printed for inspection;
//! 3. `trace_failover.json` — Chrome trace-event JSON; open it at
//!    <https://ui.perfetto.dev> (or `chrome://tracing`) to see the
//!    failover: the `execute` spans, the `injection` instants, and the
//!    `failover`/`rebuild` detours on each shard row.
//!
//! Everything is stamped in *virtual* cycles, so the trace — down to
//! its byte serialization — is a pure function of the configuration.
//!
//! ```sh
//! cargo run --release --example serve_trace
//! ```

use elzar_suite::elzar::{Artifact, Mode};
use elzar_suite::elzar_apps::{Scale, FREQ_HZ};
use elzar_suite::elzar_bench::report::chrome_trace;
use elzar_suite::elzar_obs::EventKind;
use elzar_suite::elzar_serve::{serve_stream, ServeConfig, Service};

fn main() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 2,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 360,
        seed: 0xFA11_0EE5,
        fault_rate_ppm: 300_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300,
        replicas: true,
        trace_events: 1 << 14,
        ..Default::default()
    };
    let stream = service.stream(&app, &cfg);
    let r = serve_stream(artifact.program(), &app, &stream, &cfg);

    println!("== text timeline (first 20 of {} events) ==", r.trace.len());
    for line in r.trace.text_timeline().lines().take(21) {
        println!("{line}");
    }

    println!("\n== the failovers ==");
    for e in r.trace.events.iter().filter(|e| e.kind == EventKind::Failover) {
        println!(
            "cycle {:>9}: shard {} promoted its standby over request {} ({} cycle handoff)",
            e.cycle, e.track, e.a, e.dur
        );
    }

    println!("\n== cycle ledger ==");
    let lifetimes: u64 = r.shards.iter().map(|s| s.lifetime_cycles).sum();
    println!(
        "execute={} snapshot={} downtime={} idle={} | mirror={} rebuild={}",
        r.ledger.get(elzar_suite::elzar_obs::Category::Execute),
        r.ledger.get(elzar_suite::elzar_obs::Category::Snapshot),
        r.downtime_cycles(),
        r.ledger.get(elzar_suite::elzar_obs::Category::Idle),
        r.replica_apply_cycles(),
        r.rebuild_cycles(),
    );
    println!(
        "conservation: foreground {} == fleet lifetime {} | availability {:.6}",
        r.ledger.foreground_total(),
        lifetimes,
        r.availability()
    );
    assert_eq!(r.ledger.foreground_total(), lifetimes);

    let json = chrome_trace(&r.trace, (FREQ_HZ / 1e6) as u64);
    std::fs::write("trace_failover.json", json.to_pretty()).expect("write trace_failover.json");
    println!(
        "\nwrote trace_failover.json ({} events, {} promotions) — load it at https://ui.perfetto.dev",
        r.trace.len(),
        r.promotions
    );
}
