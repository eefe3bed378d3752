//! Deterministic chaos suite for the replication layer: seeded crash
//! storms across shards, pinning three guarantees.
//!
//! * **Failover is a timing lever only.** Warm replicas change
//!   availability and latency — never outcome counts, restarts or the
//!   final KV digest — across {replicas on, off} × worker counts,
//!   because the standby is a copy of the primary at every commit
//!   boundary and promotion only adds the failover charge.
//! * **Compaction bounds the committed log.** With
//!   [`ServeConfig::compaction`] the retained per-slot log never
//!   exceeds one snapshot interval, while outcomes and the digest stay
//!   bit-identical to compaction-off and static runs (scale-down
//!   absorption included, now replaying a bounded delta).
//! * **The divergence detector is a real second SDC detector.** Probing
//!   the faulty twin's resident state against the committed reference
//!   flags injected SDCs with no access to ELZAR's classification, the
//!   periodic primary-vs-standby check never alarms, and the
//!   availability denominator integrates true shard lifetimes.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_fault::Outcome;
use elzar_serve::gen::{rescale_gaps, Request};
use elzar_serve::{serve_stream, ServeConfig, ServeReport, Service};

/// Crash storm: ~30% of requests take an SEU, so Crashed-class
/// outcomes arrive in bursts on both shards.
fn storm_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: 4,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 360,
        seed: 0xFA11_0EE5,
        fault_rate_ppm: 300_000,
        // Rejections are load-dependent and would legitimately differ
        // across configurations — keep the queue unbounded.
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300,
        ..Default::default()
    }
}

/// Dense head, 30x-stretched tail: makes the elastic controller scale
/// both ways so compaction runs against real migrations.
fn phased_stream(service: Service, app: &elzar_apps::ServeApp, cfg: &ServeConfig) -> Vec<Request> {
    let mut stream = service.stream(app, cfg);
    let from = stream.len() * 2 / 3;
    rescale_gaps(&mut stream, from, 30, 1);
    stream
}

fn invariant_eq(tag: &str, a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.served, b.served, "{tag}: served diverged");
    assert_eq!(a.rejected, 0, "{tag}: unbounded queue must reject nothing");
    assert_eq!(b.rejected, 0, "{tag}");
    assert_eq!(a.injected, b.injected, "{tag}: injection count diverged");
    assert_eq!(a.outcomes, b.outcomes, "{tag}: outcome histogram diverged");
    assert_eq!(a.restarts, b.restarts, "{tag}: crash count diverged");
    assert_eq!(a.table_digest, b.table_digest, "{tag}: final resident state diverged");
}

/// The tentpole: under an identical crash storm at equal snapshot
/// interval K, warm replicas strictly beat restart-only availability,
/// while outcome counts, restarts and the digest are bit-identical
/// across {replicas on, off} × {1, 4} workers.
#[test]
fn warm_failover_raises_availability_never_changes_outcomes() {
    for service in [Service::KvA, Service::Web] {
        let app = service.app(Scale::Tiny);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let cfg = storm_cfg();
        let stream = service.stream(&app, &cfg);
        let label = service.label();

        let off = serve_stream(artifact.program(), &app, &stream, &cfg);
        let on = serve_stream(
            artifact.program(),
            &app,
            &stream,
            &ServeConfig { replicas: true, workers: 4, ..cfg.clone() },
        );
        let on_w1 = serve_stream(
            artifact.program(),
            &app,
            &stream,
            &ServeConfig { replicas: true, workers: 1, ..cfg.clone() },
        );

        invariant_eq(&format!("{label}: replicas off vs on"), &off, &on);
        invariant_eq(&format!("{label}: replicas on, w4 vs w1"), &on, &on_w1);
        // The hardened KV build crashes rarely even at a 30% SEU rate
        // (most flips are masked or corrected); the web parse crashes
        // often. A handful is enough to discriminate availability.
        assert!(off.restarts >= 3, "{label}: only {} crashes — no storm to recover from", off.restarts);

        // Restart-only recovery stalls the queue for restart + replay;
        // promotion charges only the handoff.
        assert_eq!(off.promotions, 0, "{label}: restart-only run promoted");
        assert_eq!(on.promotions, on.restarts, "{label}: every crash must promote the standby");
        assert_eq!(on.replay_cycles(), 0, "{label}: failover pays no foreground replay");
        assert!(on.rebuild_cycles() > 0, "{label}: promotions must rebuild standbys in background");
        assert!(on.replica_apply_cycles() > 0, "{label}: the standby never applied the log");
        assert!(
            on.downtime_cycles() < off.downtime_cycles(),
            "{label}: downtime {} !< {}",
            on.downtime_cycles(),
            off.downtime_cycles()
        );
        assert!(
            on.availability() > off.availability(),
            "{label}: availability {} !> {}",
            on.availability(),
            off.availability()
        );

        // Replicated runs are themselves worker-count invariant down to
        // the full timing surface.
        assert_eq!(on.makespan_cycles, on_w1.makespan_cycles, "{label}");
        assert_eq!(on.hist, on_w1.hist, "{label}: histogram diverged across workers");
        assert_eq!(on.promotions, on_w1.promotions, "{label}");
        assert_eq!(on.downtime_cycles(), on_w1.downtime_cycles(), "{label}");
        assert_eq!(on.rebuild_cycles(), on_w1.rebuild_cycles(), "{label}");
        assert_eq!(on.replica_apply_cycles(), on_w1.replica_apply_cycles(), "{label}");
    }
}

/// Compaction bounds the retained per-slot committed log to under one
/// snapshot interval — through scale-ups, scale-downs and crash
/// recoveries — without changing outcomes or the digest; without it the
/// hottest slot's log grows past the interval.
#[test]
fn compaction_bounds_the_committed_log_without_changing_state() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        shards: 1,
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 32,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        fault_rate_ppm: 100_000,
        ..storm_cfg()
    };
    let stream = phased_stream(service, &app, &base);

    let plain = serve_stream(artifact.program(), &app, &stream, &base);
    let compacted = serve_stream(
        artifact.program(),
        &app,
        &stream,
        &ServeConfig { compaction: true, replicas: true, ..base.clone() },
    );
    let static1 = serve_stream(
        artifact.program(),
        &app,
        &stream,
        &ServeConfig { adaptive_shards: false, ..base.clone() },
    );

    invariant_eq("compaction on vs off", &plain, &compacted);
    invariant_eq("compaction on vs static", &static1, &compacted);
    assert!(compacted.scale_ups >= 1 && compacted.scale_downs >= 1, "the fleet must actually scale");

    assert!(compacted.compactions > 0, "no compaction pass removed anything");
    assert!(compacted.compacted_entries > 0);
    assert!(compacted.catchup_cycles() > 0, "compaction catch-up never replayed");
    let k = u64::from(base.snapshot_interval);
    assert!(
        compacted.max_slot_log <= k,
        "retained slot log {} exceeds one snapshot interval {k}",
        compacted.max_slot_log
    );
    assert_eq!(plain.compactions, 0);
    assert!(
        plain.max_slot_log > k,
        "without compaction the hottest slot ({} entries) should outgrow K={k} — \
         otherwise this test bounds nothing",
        plain.max_slot_log
    );
}

/// The divergence detector is an SDC detector in its own right: probing
/// the faulty execution's resident state against the committed
/// reference flags injected SDCs (and sees latent corruption ELZAR's
/// output-based verdict calls Masked), while the periodic
/// primary-vs-standby check never alarms on a healthy replication path.
#[test]
fn divergence_detector_flags_injected_sdcs() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    // Unhardened build: without TMR voting, corrupted values flow
    // straight into the table and the reply — plentiful SDCs for the
    // detector to catch.
    let artifact = Artifact::build(&app.module, &Mode::NativeNoSimd);
    let cfg = ServeConfig { replicas: true, divergence_check_interval: 8, ..storm_cfg() };
    let stream = service.stream(&app, &cfg);
    let r = serve_stream(artifact.program(), &app, &stream, &cfg);

    assert!(r.injected > 50, "only {} injections", r.injected);
    assert!(r.count(Outcome::Sdc) > 0, "the unhardened build must leak SDCs");
    // Every injection that exited was probed (crashed machines never
    // reached a commit boundary to compare).
    assert_eq!(
        r.div_probes(),
        r.injected - r.count(Outcome::Hang) - r.count(Outcome::OsDetected),
        "probe count disagrees with exited injections"
    );
    assert!(
        r.div_flagged[Outcome::Sdc.index()] >= 1,
        "the state-digest detector flagged no injected SDC: {:?} of {:?}",
        r.div_flagged,
        r.div_probed
    );
    let agreement = r.divergence_agreement();
    assert!((0.0..=1.0).contains(&agreement) && agreement > 0.0, "agreement {agreement}");

    assert!(r.divergence_checks > 0, "periodic checks never ran");
    assert_eq!(r.divergence_alarms, 0, "primary and standby apply the same committed sequence");
    assert!(r.divergence_cycles() > 0, "divergence scans are not free");

    // The detector is config-deterministic.
    let again = serve_stream(artifact.program(), &app, &stream, &cfg);
    assert_eq!(r.div_probed, again.div_probed);
    assert_eq!(r.div_flagged, again.div_flagged);
    assert_eq!(r.divergence_checks, again.divergence_checks);
}

/// `availability()` integrates shard-cycles over true lifetimes: a
/// joiner's span starts at its spawn instant and a retiree's ends at
/// its retirement, so elastic runs no longer inflate the denominator
/// with `makespan × every shard that ever existed`.
#[test]
fn availability_integrates_shard_lifetimes() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        shards: 1,
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 32,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        fault_rate_ppm: 100_000,
        ..storm_cfg()
    };
    let stream = phased_stream(service, &app, &base);
    let r = serve_stream(artifact.program(), &app, &stream, &base);

    assert!(r.scale_ups >= 1 && r.scale_downs >= 1, "the fleet must actually scale");
    assert!(r.restarts > 0, "no downtime to account");
    assert!(r.shards.iter().any(|s| s.spawned_at > 0), "no joiner recorded a spawn time");
    assert!(r.shards.iter().any(|s| s.retired_at != u64::MAX), "no retiree recorded a retirement");

    let span: u64 = r
        .shards
        .iter()
        .map(|s| s.retired_at.min(r.makespan_cycles) - s.spawned_at.min(r.makespan_cycles))
        .sum();
    let expected = 1.0 - r.downtime_cycles() as f64 / span as f64;
    assert!((r.availability() - expected).abs() < 1e-12, "{} vs {expected}", r.availability());

    // The old fixed-fleet denominator overcounted shard-time, so it
    // could only overstate availability.
    let naive = r.makespan_cycles * r.shards.len() as u64;
    assert!(span < naive, "lifetimes must be shorter than makespan × all shards");
    let old = 1.0 - r.downtime_cycles() as f64 / naive as f64;
    assert!(r.availability() <= old + 1e-12);
}
