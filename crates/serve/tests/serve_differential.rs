//! Differential determinism tests for the serving runtime, extending
//! PR 1's campaign guarantee to the serving layer:
//!
//! * host *worker* count changes nothing at all (full report equality);
//! * *shard* count changes latency/throughput but never the online
//!   fault outcome counts or the final KV-table digest — shards commit
//!   only reference executions and the fault schedule keys on global
//!   request ids, so the resident state is a pure function of the
//!   committed request sequence per key;
//! * virtual-time overflow dies loudly: a stream whose arrivals sit
//!   near `u64::MAX` panics naming the shard component that would have
//!   wrapped, instead of silently lapping the clock.

use elzar::{Artifact, Mode};
use elzar_apps::Scale;
use elzar_serve::{serve_program, serve_stream, ServeConfig, ServeReport, Service};

/// Build the hardened artifact and serve the service's stream on it —
/// the same `Artifact::build` + `serve_program` composition
/// `Artifact::serve` performs.
fn serve(service: Service, mode: &Mode, scale: Scale, cfg: &ServeConfig) -> ServeReport {
    let app = service.app(scale);
    let artifact = Artifact::build(&app.module, mode);
    serve_program(service, artifact.program(), &app, cfg)
}

fn cfg(shards: u32, workers: u32) -> ServeConfig {
    ServeConfig {
        shards,
        workers,
        requests: 220,
        seed: 0xD5EE_D001,
        fault_rate_ppm: 120_000, // ~12%: a few dozen online injections
        // Large enough that the overloaded 1-shard config still
        // rejects nothing — rejections are load-dependent and would
        // legitimately differ across shard counts.
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_500,
        ..Default::default()
    }
}

#[test]
fn worker_count_never_changes_anything() {
    for service in [Service::KvA, Service::Web] {
        let a = serve(service, &Mode::elzar_default(), Scale::Tiny, &cfg(4, 1));
        let b = serve(service, &Mode::elzar_default(), Scale::Tiny, &cfg(4, 4));
        assert_eq!(a.served, b.served, "{}", service.label());
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.restarts, b.restarts);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.hist, b.hist, "{}: latency histogram diverged", service.label());
        assert_eq!(a.table_digest, b.table_digest);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.busy_cycles(), sb.busy_cycles());
            assert_eq!(sa.last_completion, sb.last_completion);
        }
    }
}

#[test]
fn shard_count_preserves_outcomes_and_table_digest() {
    let one = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &cfg(1, 4));
    let four = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &cfg(4, 4));
    assert_eq!(one.served, four.served, "large queue: nothing rejected in either config");
    assert_eq!(one.rejected, 0);
    assert_eq!(four.rejected, 0);
    assert_eq!(one.injected, four.injected, "fault schedule keys on request ids");
    assert_eq!(one.outcomes, four.outcomes, "Table-I outcome counts must be shard-count invariant");
    assert_eq!(one.restarts, four.restarts);
    assert_eq!(
        one.table_digest, four.table_digest,
        "final KV state must be bit-identical across shard counts"
    );
    // Sanity: the campaign actually exercised the interesting paths.
    assert!(one.injected > 10, "only {} injections", one.injected);
    assert!(one.outcomes.iter().sum::<u64>() == one.injected, "every injection classified exactly once");
    // Sharding must actually help under this offered load.
    assert!(
        four.makespan_cycles < one.makespan_cycles,
        "4 shards should finish earlier: {} vs {}",
        four.makespan_cycles,
        one.makespan_cycles
    );
}

#[test]
fn elzar_mode_corrects_online_where_native_corrupts() {
    use elzar_fault::Outcome;
    let c = cfg(2, 4);
    let hardened = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &c);
    assert!(hardened.count(Outcome::ElzarCorrected) > 0, "online recovery must fire under a 12% fault rate");
    let native = serve(Service::KvA, &Mode::NativeNoSimd, Scale::Tiny, &c);
    assert_eq!(
        native.injected, hardened.injected,
        "the fault schedule keys on request ids, not on the build mode"
    );
    assert_eq!(native.count(Outcome::ElzarCorrected), 0, "native cannot correct");
    assert!(
        native.count(Outcome::Sdc) > hardened.count(Outcome::Sdc),
        "native SDCs {} should exceed hardened {}",
        native.count(Outcome::Sdc),
        hardened.count(Outcome::Sdc)
    );
    assert!(hardened.sdc_rate() < 0.02, "hardened SDC rate {}", hardened.sdc_rate());
}

/// A stream whose arrivals crowd `u64::MAX` must die loudly in the
/// shard clock arithmetic — naming the component — not wrap and serve
/// requests in a lapped past.
#[test]
fn near_max_arrivals_panic_naming_the_shard_component() {
    let service = Service::KvA;
    let app = service.app(Scale::Tiny);
    let artifact = Artifact::build(&app.module, &Mode::elzar_default());
    let cfg = ServeConfig {
        shards: 2,
        workers: 1,
        requests: 16,
        seed: 0xBADC_0FFE,
        queue_capacity: 1 << 20,
        mean_gap_cycles: 1_000,
        ..Default::default()
    };
    let mut stream = service.stream(&app, &cfg);
    // Shift the (monotone) arrivals so the last lands 8 cycles shy of
    // the end of virtual time: the first completion estimate wraps.
    let n = stream.len() as u64;
    for (i, req) in stream.iter_mut().enumerate() {
        req.arrival = u64::MAX - 8 - (n - i as u64);
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_stream(artifact.program(), &app, &stream, &cfg)
    }))
    .expect_err("near-MAX arrivals must panic, not wrap");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("virtual-time overflow") && msg.contains("shard"),
        "panic must name the shard component, got: {msg}"
    );
}
