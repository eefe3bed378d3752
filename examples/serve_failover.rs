//! Failover example: one YCSB-A stream under an SEU storm (~30% of
//! requests take a fault), served twice on the same artifact:
//!
//! 1. **restart-only** — every Crashed-class outcome stalls the shard
//!    for `elzar_serve::RESTART_CYCLES` + suffix replay while its queue waits;
//! 2. **warm-replica** — a standby mirrors the committed log in the
//!    background and is promoted in `elzar_serve::FAILOVER_CYCLES` on each crash;
//!    the restart+replay detour still runs, but in background time,
//!    rebuilding the new standby.
//!
//! Outcome counts, crash counts and the final table digest are
//! bit-identical — failover is purely a timing/availability lever —
//! while MTTR drops from the restart detour to the promotion handoff.
//!
//! The replica run also turns on the divergence detector: every
//! injected request's faulty state is probed against the committed
//! reference (an SDC detector independent of ELZAR's classification),
//! and the primary and standby digests are compared every 8 commits.
//!
//! ```sh
//! cargo run --release --example serve_failover
//! ```

use elzar_suite::elzar::{Artifact, Mode};
use elzar_suite::elzar_apps::Scale;
use elzar_suite::elzar_serve::{serve_stream, ServeConfig, ServeReport, Service};

fn report_line(label: &str, r: &ServeReport) {
    let mttr = if r.restarts == 0 { 0.0 } else { r.downtime_cycles() as f64 / r.restarts as f64 };
    println!(
        "{label:<14} {:>12.6} {:>7} {:>7} {:>10.1} {:>9.1} {:>9.1}",
        r.availability(),
        r.restarts,
        r.promotions,
        mttr,
        r.quantile_us(0.90),
        r.quantile_us(0.999),
    );
}

fn main() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());

    let cfg = ServeConfig {
        shards: 2,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 400,
        seed: 0xFA11_0EE5,
        fault_rate_ppm: 300_000,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300,
        ..Default::default()
    };
    let stream = service.stream(&app, &cfg);

    println!("mini-memcached, YCSB-A, 400 requests, ~30% SEU rate, K=16\n");
    println!(
        "{:<14} {:>12} {:>7} {:>7} {:>10} {:>9} {:>9}",
        "recovery", "availability", "crashes", "promos", "mttr cyc", "p90 us", "p99.9 us"
    );
    let restart = serve_stream(artifact.program(), &app, &stream, &cfg);
    report_line("restart-only", &restart);
    let replica = serve_stream(
        artifact.program(),
        &app,
        &stream,
        &ServeConfig { replicas: true, divergence_check_interval: 8, ..cfg.clone() },
    );
    report_line("warm-replica", &replica);

    // Failover never changes what was served — only when.
    assert_eq!(restart.outcomes, replica.outcomes);
    assert_eq!(restart.restarts, replica.restarts);
    assert_eq!(restart.table_digest, replica.table_digest);
    assert_eq!(replica.promotions, replica.restarts, "every crash promotes");
    assert!(replica.availability() > restart.availability());

    println!(
        "\nwarm replicas: downtime {} -> {} cycles across {} crashes; \
         {} background cycles rebuilding standbys, {} mirroring the log",
        restart.downtime_cycles(),
        replica.downtime_cycles(),
        replica.restarts,
        replica.rebuild_cycles(),
        replica.replica_apply_cycles(),
    );
    println!(
        "divergence detector: {} probes, flagged {:?} vs ELZAR outcomes {:?} \
         ({:.1}% agreement); {} periodic checks, {} alarms",
        replica.div_probes(),
        replica.div_flagged,
        replica.outcomes,
        100.0 * replica.divergence_agreement(),
        replica.divergence_checks,
        replica.divergence_alarms,
    );
    assert_eq!(replica.divergence_alarms, 0);
}
