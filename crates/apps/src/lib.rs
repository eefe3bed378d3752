//! # elzar-apps
//!
//! The paper's three real-world case studies (§VI) as IR programs:
//!
//! * [`kv`] — mini-memcached: bucket-locked hash table, scales with
//!   threads, poor memory locality (ELZAR reaches 72–85% of native);
//! * [`db`] — mini-SQLite: one global lock + comparator-call binary
//!   search, *reverse* scalability (ELZAR's worst case, 20–30%);
//! * [`web`] — mini-Apache: hardened request parsing + unhardened
//!   library page copies (ELZAR ≈ 85%);
//!
//! plus a YCSB generator ([`ycsb`]) with the two extreme workloads the
//! paper uses (A: 50/50 Zipf; D: 95/5 latest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod kv;
pub mod web;
pub mod ycsb;

/// RNG shared with the workload crate (re-exported for `ycsb`).
pub mod common_rng {
    pub use elzar_workloads::common::lcg;
}

use elzar_ir::Module;
pub use elzar_workloads::Scale;
pub use ycsb::{YcsbOp, YcsbWorkload, Zipf};

/// Case-study build parameters. App modules are thread-count-agnostic:
/// the server worker count comes from `MachineConfig::threads` at run
/// time, so one built app serves a whole thread sweep.
#[derive(Clone, Copy, Debug)]
pub struct AppParams {
    /// Problem size.
    pub scale: Scale,
    /// YCSB workload (ignored by the web server).
    pub workload: YcsbWorkload,
}

impl AppParams {
    /// Convenience constructor.
    pub fn new(scale: Scale, workload: YcsbWorkload) -> AppParams {
        AppParams { scale, workload }
    }
}

/// A built case study: module + input + the operation count used for
/// throughput reporting.
#[derive(Clone, Debug)]
pub struct BuiltApp {
    /// The program.
    pub module: Module,
    /// Input bytes (the encoded request/op trace).
    pub input: Vec<u8>,
    /// Operations the run performs (messages/queries/requests).
    pub ops: u64,
}

/// A case study packaged for the serving runtime (`elzar_serve`): the
/// batch builders above run a whole trace per `main` invocation; a
/// `ServeApp` instead exposes a one-shot init entry that builds the
/// resident state (tables, buffers), a per-request entry that serves
/// exactly one encoded request from the input segment, and a batched
/// entry that serves a count-prefixed mini-trace of requests in one
/// invocation, replying through the output builtins.
///
/// Every request path — single or batched — emits exactly one
/// `heartbeat` at the request's completion; the serving runtime reads
/// the heartbeat timestamps to attribute per-request latency inside a
/// batch.
#[derive(Clone, Debug)]
pub struct ServeApp {
    /// The program (init + per-request + batched entries).
    pub module: Module,
    /// Entry run once when a shard VM boots (preload resident state).
    pub init_entry: &'static str,
    /// Entry run per request (input segment = one encoded request).
    pub request_entry: &'static str,
    /// Entry run per *batch*: the input segment holds a `u64` request
    /// count followed by that many [`ServeApp::request_bytes`]-stride
    /// records (`Machine::reenter_batch` layout); semantically
    /// equivalent to running [`ServeApp::request_entry`] once per
    /// record, in order.
    pub batch_entry: &'static str,
    /// Base address of the resident KV table, `0` when stateless.
    pub table_base: u64,
    /// Keys preloaded into the table, `0` when stateless.
    pub n_keys: u64,
    /// Encoded size of one request in bytes.
    pub request_bytes: usize,
    /// Routing key of an encoded request payload — the host-side mirror
    /// of whatever the hardened entry derives its data placement from
    /// (the KV op's key, the web parse hash). The serving runtime uses
    /// it to route requests, partition the keyspace into migratable
    /// ranges, and filter committed-suffix replays when a key range
    /// moves between shards, so it must stay bit-identical to the IR.
    pub key_of: fn(&[u8]) -> u64,
}

/// The three case studies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    /// Mini-memcached.
    Memcached,
    /// Mini-SQLite.
    Sqlite,
    /// Mini-Apache.
    Apache,
}

impl App {
    /// All apps in the paper's order.
    pub fn all() -> [App; 3] {
        [App::Memcached, App::Sqlite, App::Apache]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Memcached => "memcached",
            App::Sqlite => "sqlite3",
            App::Apache => "apache",
        }
    }

    /// Build the app with the given parameters.
    pub fn build(self, p: &AppParams) -> BuiltApp {
        match self {
            App::Memcached => kv::build(p),
            App::Sqlite => db::build(p),
            App::Apache => web::build(p),
        }
    }
}

/// Simulated core frequency used for throughput conversion (the paper's
/// testbed ran at 2.0 GHz).
pub const FREQ_HZ: f64 = 2.0e9;

/// Throughput in operations/second given a run's cycle count.
pub fn throughput(ops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        ops as f64 * FREQ_HZ / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar::{execute, Mode};
    use elzar_vm::{MachineConfig, RunOutcome};

    fn cfg() -> MachineConfig {
        cfg_t(2)
    }

    fn cfg_t(threads: u32) -> MachineConfig {
        MachineConfig { step_limit: 3_000_000_000, threads, ..MachineConfig::default() }
    }

    #[test]
    fn apps_run_and_agree_across_modes() {
        for app in App::all() {
            for w in [YcsbWorkload::A, YcsbWorkload::D] {
                let built = app.build(&AppParams::new(Scale::Tiny, w));
                let native = execute(&built.module, &Mode::NativeNoSimd, &built.input, cfg());
                assert!(
                    matches!(native.outcome, RunOutcome::Exited(_)),
                    "{} ({}): {:?}",
                    app.name(),
                    w.label(),
                    native.outcome
                );
                let elz = execute(&built.module, &Mode::elzar_default(), &built.input, cfg());
                assert_eq!(native.outcome, elz.outcome, "{}", app.name());
                assert_eq!(native.output, elz.output, "{} output diverged", app.name());
            }
        }
    }

    #[test]
    fn apps_are_thread_count_invariant() {
        for app in App::all() {
            // One build, different runtime worker counts.
            let built = app.build(&AppParams::new(Scale::Tiny, YcsbWorkload::A));
            let r1 = execute(&built.module, &Mode::NativeNoSimd, &built.input, cfg_t(1));
            let r3 = execute(&built.module, &Mode::NativeNoSimd, &built.input, cfg_t(3));
            assert_eq!(r1.output, r3.output, "{}: thread count changed results", app.name());
        }
    }

    #[test]
    fn memcached_scales_sqlite_does_not() {
        let p = AppParams::new(Scale::Small, YcsbWorkload::A);
        let mc = App::Memcached.build(&p);
        let r1 = execute(&mc.module, &Mode::NativeNoSimd, &mc.input, cfg_t(1));
        let r4 = execute(&mc.module, &Mode::NativeNoSimd, &mc.input, cfg_t(4));
        let t1 = throughput(mc.ops, r1.cycles);
        let t4 = throughput(mc.ops, r4.cycles);
        assert!(t4 > t1 * 1.8, "memcached should scale: {t1:.0} -> {t4:.0} ops/s");

        let db = App::Sqlite.build(&p);
        let s1 = execute(&db.module, &Mode::NativeNoSimd, &db.input, cfg_t(1));
        let s4 = execute(&db.module, &Mode::NativeNoSimd, &db.input, cfg_t(4));
        let u1 = throughput(db.ops, s1.cycles);
        let u4 = throughput(db.ops, s4.cycles);
        assert!(u4 < u1 * 1.3, "sqlite must not scale (global lock): {u1:.0} -> {u4:.0} ops/s");
    }

    #[test]
    fn serve_entries_process_single_requests() {
        use elzar_vm::Machine;
        // KV: init preloads, then one read and one update round-trip
        // through a resident machine.
        let app = kv::build_serve(Scale::Tiny);
        let prog = elzar::build(&app.module, &Mode::elzar_default());
        let mut m = Machine::start(&prog, app.init_entry, &[], cfg());
        let o = m.run_to_completion();
        assert!(matches!(o, RunOutcome::Exited(0)), "init: {o:?}");

        let read7 = ycsb::encode(&[YcsbOp { read: true, key: 7 }]);
        m.reenter(app.request_entry, &read7);
        let o = m.run_to_completion();
        let r = m.result(o);
        assert!(matches!(o, RunOutcome::Exited(0)), "read: {o:?}");
        assert_eq!(u64::from_le_bytes(r.output[..8].try_into().unwrap()), 1, "key 7 preloaded");
        let preloaded = u64::from_le_bytes(r.output[8..16].try_into().unwrap());
        assert_eq!(preloaded, 7u64.wrapping_mul(0x9E3779B97F4A7C15));
        assert_eq!(kv::serve_lookup(m.memory(), app.table_base, 7), Some(preloaded));

        let upd7 = ycsb::encode(&[YcsbOp { read: false, key: 7 }]);
        m.reenter(app.request_entry, &upd7);
        let o = m.run_to_completion();
        assert!(matches!(o, RunOutcome::Exited(0)));
        let updated = kv::serve_lookup(m.memory(), app.table_base, 7).unwrap();
        assert_ne!(updated, preloaded, "update must be observable in the table");

        // Web: stateless page serve replies with the request hash.
        let web = web::build_serve(Scale::Tiny);
        let wprog = elzar::build(&web.module, &Mode::elzar_default());
        let mut wm = Machine::start(&wprog, web.init_entry, &[], cfg());
        assert!(matches!(wm.run_to_completion(), RunOutcome::Exited(0)));
        let req = vec![0x41u8; web.request_bytes];
        wm.reenter(web.request_entry, &req);
        let o = wm.run_to_completion();
        let r = wm.result(o);
        assert!(matches!(o, RunOutcome::Exited(0)), "web: {o:?}");
        assert_eq!(r.output.len(), 8);
        assert!(r.heartbeats >= 1, "page serve emits a heartbeat");
    }

    #[test]
    fn elzar_hits_sqlite_hardest_and_apache_least() {
        let p = AppParams::new(Scale::Small, YcsbWorkload::A);
        let mut rel = std::collections::HashMap::new();
        for app in App::all() {
            let built = app.build(&p);
            let native = execute(&built.module, &Mode::NativeNoSimd, &built.input, cfg());
            let elz = execute(&built.module, &Mode::elzar_default(), &built.input, cfg());
            rel.insert(app.name(), native.cycles as f64 / elz.cycles as f64);
        }
        // §VI: apache ≈ 85%, memcached 72–85%, sqlite 20–30% of native.
        assert!(
            rel["apache"] > rel["sqlite3"],
            "apache {:.2} should retain more than sqlite {:.2}",
            rel["apache"],
            rel["sqlite3"]
        );
        assert!(
            rel["memcached"] > rel["sqlite3"],
            "memcached {:.2} should retain more than sqlite {:.2}",
            rel["memcached"],
            rel["sqlite3"]
        );
    }
}
