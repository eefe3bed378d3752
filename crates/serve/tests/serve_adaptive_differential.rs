//! Differential determinism tests for the adaptive serving layer,
//! extending the shard/worker/batch/interval guarantees of
//! `serve_differential.rs` and `serve_batch_differential.rs` to the
//! elastic controller:
//!
//! * the *scaling schedule* changes latency/throughput only — outcome
//!   counts and the final KV digest are bit-identical across {static 1
//!   shard, static 4 shards, adaptive}, because migration replays
//!   exactly the committed per-key sequences (snapshot + key-range-
//!   filtered suffix replay) and the fault schedule keys on global
//!   request ids;
//! * the *batch policy* (static `batch_size` vs queue-depth-adaptive)
//!   is equally invariant;
//! * adaptive runs are themselves deterministic and worker-count
//!   invariant (full report equality, scaling events included), also
//!   when arrivals, shard wake-ups and controller decisions collide on
//!   one cycle;
//! * the runs actually scale: the load shape (dense head, 10x-stretched
//!   tail) makes both scale-up and scale-down events fire, asserted via
//!   the controller event counters.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::controller::ScaleEvent;
use elzar_serve::gen::{rescale_gaps, Request};
use elzar_serve::{serve_stream, ServeConfig, ServeReport, Service};

/// Dense head (queues build on a small fleet), then a 30x-stretched
/// tail (queues drain, the controller scales back down). Identities,
/// keys and payloads are untouched, so every config below serves the
/// exact same committed sequences.
fn phased_stream(service: Service, app: &elzar_apps::ServeApp, cfg: &ServeConfig) -> Vec<Request> {
    let mut stream = service.stream(app, cfg);
    let from = stream.len() * 2 / 3;
    rescale_gaps(&mut stream, from, 30, 1);
    stream
}

fn base_cfg() -> ServeConfig {
    ServeConfig {
        shards: 1,
        workers: 4,
        batch_size: 8,
        snapshot_interval: 16,
        requests: 360,
        seed: 0xADA7_71FE,
        fault_rate_ppm: 100_000, // ~10%: a few dozen online injections
        // Large enough that nothing is rejected — rejections are
        // load-dependent and would legitimately differ across
        // configurations.
        queue_capacity: 1 << 20,
        mean_gap_cycles: 300, // saturating for the 1-shard start
        ..Default::default()
    }
}

fn adaptive_cfg() -> ServeConfig {
    ServeConfig {
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 32,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        ..base_cfg()
    }
}

fn invariant_eq(tag: &str, a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.served, b.served, "{tag}: served diverged");
    assert_eq!(a.rejected, 0, "{tag}: large queue must reject nothing");
    assert_eq!(b.rejected, 0, "{tag}");
    assert_eq!(a.injected, b.injected, "{tag}: injection count diverged");
    assert_eq!(a.outcomes, b.outcomes, "{tag}: outcome histogram diverged");
    assert_eq!(a.restarts, b.restarts, "{tag}: restart count diverged");
    assert_eq!(a.table_digest, b.table_digest, "{tag}: final resident state diverged");
}

/// The tentpole invariance: outcome counts and the final resident-table
/// digest are a pure function of the stream — never of the scaling
/// schedule, the batch policy, or how many host workers drained the
/// shards — including runs where the fleet actually grows and shrinks.
#[test]
fn scaling_schedule_and_batch_policy_are_outcome_and_digest_invariant() {
    for service in [Service::KvA, Service::Web] {
        let app = service.app(Scale::Tiny);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        let stream = phased_stream(service, &app, &base_cfg());

        let static1 = serve_stream(artifact.program(), &app, &stream, &base_cfg());
        let static4 =
            serve_stream(artifact.program(), &app, &stream, &ServeConfig { shards: 4, ..base_cfg() });
        let adaptive = serve_stream(artifact.program(), &app, &stream, &adaptive_cfg());
        let adaptive_batch = serve_stream(
            artifact.program(),
            &app,
            &stream,
            &ServeConfig { batch_adaptive: true, batch_max: 32, ..adaptive_cfg() },
        );
        let static_batch1 = serve_stream(
            artifact.program(),
            &app,
            &stream,
            &ServeConfig { batch_size: 1, shards: 4, ..base_cfg() },
        );

        let label = service.label();
        assert!(static1.injected > 10, "{label}: only {} injections", static1.injected);
        assert_eq!(static1.served, 360, "{label}");
        invariant_eq(&format!("{label}: static1 vs static4"), &static1, &static4);
        invariant_eq(&format!("{label}: static1 vs adaptive"), &static1, &adaptive);
        invariant_eq(&format!("{label}: static1 vs adaptive+adaptive-batch"), &static1, &adaptive_batch);
        invariant_eq(&format!("{label}: static batch=8 vs batch=1"), &static4, &static_batch1);

        // The adaptive runs must have really scaled — in both
        // directions — or this test pins nothing.
        for (name, r) in [("adaptive", &adaptive), ("adaptive+batch", &adaptive_batch)] {
            assert!(r.scale_ups >= 1, "{label}/{name}: no scale-up fired");
            assert!(r.scale_downs >= 1, "{label}/{name}: no scale-down fired");
            assert_eq!(
                r.scale_ups,
                r.events.iter().filter(|e| matches!(e, ScaleEvent::Up { .. })).count() as u64,
                "{label}/{name}: event counter disagrees with the event log"
            );
            assert!(r.peak_shards > 1, "{label}/{name}: fleet never grew");
            assert!(r.final_shards < r.peak_shards, "{label}/{name}: fleet never shrank");
            assert!(r.migrated_slots > 0, "{label}/{name}: no slots migrated");
            assert!(r.migration_replays > 0, "{label}/{name}: migration never replayed commits");
            assert_eq!(r.served, 360, "{label}/{name}: adaptive run dropped requests");
        }

        // Elasticity must pay off against the under-provisioned static
        // start it grew away from: the dense phase queues far less, so
        // the latency tail improves (makespan is arrival-dominated in
        // the lull, so it is not the discriminating metric here).
        assert!(
            adaptive.quantile_cycles(0.9) < static1.quantile_cycles(0.9),
            "{label}: scaling up should beat the 1-shard static tail: p90 {} vs {}",
            adaptive.quantile_cycles(0.9),
            static1.quantile_cycles(0.9)
        );
    }
}

/// Adaptive runs are bit-identical across host worker counts: the
/// scaling schedule, per-shard stats, histogram and makespan are all
/// virtual-time quantities.
#[test]
fn adaptive_worker_count_never_changes_anything() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let stream = phased_stream(service, &app, &base_cfg());
    let cfg = ServeConfig { batch_adaptive: true, ..adaptive_cfg() };

    let w1 = serve_stream(artifact.program(), &app, &stream, &ServeConfig { workers: 1, ..cfg.clone() });
    let w4 = serve_stream(artifact.program(), &app, &stream, &ServeConfig { workers: 4, ..cfg });
    assert_eq!(w1.served, w4.served);
    assert_eq!(w1.rejected, w4.rejected);
    assert_eq!(w1.injected, w4.injected);
    assert_eq!(w1.outcomes, w4.outcomes);
    assert_eq!(w1.restarts, w4.restarts);
    assert_eq!(w1.makespan_cycles, w4.makespan_cycles);
    assert_eq!(w1.hist, w4.hist, "latency histogram diverged across workers");
    assert_eq!(w1.table_digest, w4.table_digest);
    assert_eq!(w1.events, w4.events, "scaling schedule diverged across workers");
    assert_eq!(w1.peak_shards, w4.peak_shards);
    assert_eq!(w1.migration_replays, w4.migration_replays);
    assert_eq!(w1.migration_cycles(), w4.migration_cycles());
    assert!(w1.scale_ups >= 1 && w1.scale_downs >= 1, "the schedule must actually scale");
    for (sa, sb) in w1.shards.iter().zip(&w4.shards) {
        assert_eq!(sa.busy_cycles(), sb.busy_cycles());
        assert_eq!(sa.last_completion, sb.last_completion);
        assert_eq!(sa.migration_replays, sb.migration_replays);
    }
}

/// A joining shard is usable state, not just bookkeeping: with updates
/// flowing before and after the scale events, the digest still matches
/// a static run — the migrated ranges were reconstructed bit-for-bit
/// from the donor snapshot + filtered replay.
#[test]
fn migrated_ranges_serve_updates_consistently() {
    let service = Service::KvD; // read-heavy: migrated values must survive
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let stream = phased_stream(service, &app, &base_cfg());
    let cfg = ServeConfig { fault_rate_ppm: 0, ..adaptive_cfg() };
    let adaptive = serve_stream(artifact.program(), &app, &stream, &cfg);
    let static2 = serve_stream(
        artifact.program(),
        &app,
        &stream,
        &ServeConfig { shards: 2, adaptive_shards: false, ..cfg.clone() },
    );
    assert!(adaptive.scale_ups >= 1, "no scale-up fired");
    assert_eq!(adaptive.table_digest, static2.table_digest);
    assert_eq!(adaptive.served, static2.served);
}

/// Deliberate same-cycle collisions: arrivals quantized so batches of
/// requests land on identical instants (which are also the epoch
/// boundaries the controller reads), waking several shards on the
/// same cycle. The canonical trace byte stream — and the whole report
/// — is invariant across worker counts, so this guards worker
/// invariance should shard drains ever run in parallel again.
#[test]
fn same_cycle_collisions_commit_in_pinned_order() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let base = ServeConfig {
        shards: 1,
        workers: 1,
        requests: 128,
        seed: 0xC0_11_1D_E5,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 16,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        trace_events: 64,
        ..Default::default()
    };
    let mut stream = service.stream(&app, &base);
    // Sixteen requests per instant — one control epoch per instant —
    // so every epoch boundary, every shard wake-up and the controller
    // decision all collide on one cycle.
    for (i, req) in stream.iter_mut().enumerate() {
        req.arrival = (i as u64 / 16 + 1) * 40_000;
    }
    let fingerprint = |r: &ServeReport| {
        (
            r.served,
            r.rejected,
            r.shed,
            r.makespan_cycles,
            [0.5, 0.9, 0.99, 0.999, 1.0].map(|q| r.quantile_cycles(q)),
            r.table_digest,
            r.trace.canonical_bytes(),
        )
    };
    let reference = fingerprint(&serve_stream(artifact.program(), &app, &stream, &base));
    assert!(!reference.6.is_empty(), "collision run must produce trace bytes");
    for workers in [1, 4] {
        let cfg = ServeConfig { workers, ..base.clone() };
        let got = fingerprint(&serve_stream(artifact.program(), &app, &stream, &cfg));
        assert_eq!(reference, got, "collision run diverged at workers={workers}");
    }
}
