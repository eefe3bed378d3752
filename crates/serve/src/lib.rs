//! # elzar-serve
//!
//! A sharded, resident-VM request-serving runtime for the ELZAR
//! reproduction — the serving-scenario counterpart of the batch
//! harnesses: instead of one `run_program` per figure cell, it keeps
//! hardened VM shards *resident* and pushes an open-loop request stream
//! through them, measuring throughput and tail latency under sustained
//! load while ELZAR's detection/correction accounting runs *online*.
//!
//! Pipeline:
//!
//! 1. [`gen`] produces a deterministic request stream (YCSB A/D key
//!    distributions, or the web server's 64-byte request lines) with a
//!    virtual-cycle arrival schedule, and routes each request to its
//!    owning shard by key hash;
//! 2. every shard boots one resident hardened VM ([`elzar_vm::Machine`]
//!    with segmented memory: the preloaded state persists across
//!    requests);
//! 3. whenever a shard is free it drains arrived requests into one
//!    *batch* — a count-prefixed mini-trace executed by a single
//!    [`elzar_vm::Machine::reenter_batch`] — sized by the static
//!    [`ServeConfig::batch_size`] or the queue-depth policy
//!    `clamp(queue_depth, 1, batch_max)` ([`ServeConfig::batch_adaptive`]);
//! 4. shards snapshot their machine every
//!    [`ServeConfig::snapshot_interval`] committed requests and recover
//!    from crashes by restoring the last snapshot and deterministically
//!    replaying the committed suffix ([`elzar_fault::replay_suffix`]);
//! 5. with [`ServeConfig::adaptive_shards`], a [`controller`] observes
//!    per-shard virtual-time queue occupancy at fixed epochs and scales
//!    the shard set between [`ServeConfig::shards`]'s starting point, 1
//!    and [`ServeConfig::shards_max`]: a joiner boots from a donor's
//!    snapshot and replays only the key range it takes over
//!    ([`elzar_fault::replay_suffix_where`]); a retiring shard's range
//!    is absorbed by a survivor from the committed log;
//! 6. admission is enforced in virtual time: the bounded per-shard
//!    queue drops at capacity, and with [`ServeConfig::shed_slo`] a
//!    request predicted to miss [`ServeConfig::slo_cycles`] is shed at
//!    admission, so goodput — served requests that met their deadline —
//!    tracks offered load instead of collapsing;
//! 7. with [`ServeConfig::replicas`] every shard keeps a *warm
//!    standby*, a copy of the primary refreshed after every committed
//!    operation and charged that operation's cycles in the background:
//!    a Crashed-class outcome promotes it in
//!    [`FAILOVER_CYCLES`] instead of a restart+replay
//!    queue stall; [`ServeConfig::compaction`] truncates the elastic
//!    path's committed log at the fleet-minimum snapshot mark; and
//!    [`ServeConfig::divergence_check_interval`] runs a state-digest
//!    divergence detector beside ELZAR's own classification
//!    ([`ServeReport::divergence_agreement`]);
//! 8. shards drain one after another on the calling thread, in
//!    shard-id order — they share no state within a controller epoch,
//!    so the order cannot change any result;
//! 9. an online fault-injection schedule flips destination-register
//!    bits mid-service and classifies every hit per Table I
//!    (Masked / ElzarCorrected / Sdc / Crashed-with-restart-from-
//!    snapshot), turning the batch campaign taxonomy into an
//!    availability / SDC-rate-under-load metric;
//! 10. the [`ServeReport`] aggregates per-shard throughput, a
//!     log-bucketed latency histogram (p50/p90/p99/p999), outcome
//!     counts, snapshot/replay/migration/replication cost, controller
//!     events and the final resident-table digest.
//!
//! Determinism contract: everything in the report — outcome counts,
//! latency histogram, digests, cycle totals, scaling events — is a pure
//! function of `(program, service, scale, ServeConfig)`. The worker
//! count changes nothing ([`ServeConfig::workers`]); shard count,
//! batch policy, snapshot interval and the scaling schedule change
//! latency/throughput (that is the point) but never fault outcome
//! counts or the table digest,
//! because the fault schedule keys on global request ids,
//! fault-scheduled requests always execute through the single-request
//! entry, each shard commits only reference executions, and migration
//! replays exactly the committed per-key sequences (see [`shard`] and
//! [`controller`] for the full argument).
//!
//! The runtime consumes an already-lowered [`elzar_vm::Program`] — how
//! it was hardened is the build pipeline's business (`elzar::Artifact`
//! wraps this crate behind its `serve` method, sharing one lowered
//! program between batch runs, fault campaigns and serving).
//!
//! ```
//! use elzar::{Artifact, Mode};
//! use elzar_apps::Scale;
//! use elzar_serve::{serve_program, Service, ServeConfig};
//!
//! let cfg = ServeConfig { requests: 40, shards: 2, ..Default::default() };
//! let app = Service::Web.app(Scale::Tiny);
//! let artifact = Artifact::build(&app.module, &Mode::elzar_default());
//! let report = serve_program(Service::Web, artifact.program(), &app, &cfg);
//! assert_eq!(report.served, 40);
//! assert!(report.quantile_cycles(0.99) >= report.quantile_cycles(0.50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod gen;
pub mod histogram;
pub mod shard;

use controller::{adjust_predictive, decide, Decision, Forecaster, Partition, ScaleEvent, PARTITION_SLOTS};
pub use controller::{ScalingPolicy, RATE_FP};
use elzar_apps::ycsb::YcsbWorkload;
use elzar_apps::{kv, web, Scale, ServeApp, FREQ_HZ};
use elzar_fault::Outcome;
use elzar_obs::{debug, DRIVER_TRACK};
pub use shard::{FAILOVER_CYCLES, RESTART_CYCLES};
// Re-exported so report consumers can name the ledger/trace types
// without a separate `elzar_obs` dependency.
pub use elzar_obs::{Category, CycleLedger, EventKind, Trace, TraceEvent, Tracer};
use elzar_vm::{MachineConfig, Program};
use gen::{shard_of, Request};
use histogram::LatencyHistogram;
use shard::{boot_image, drain_shard, ShardOutput, ShardRuntime, ShardStats};

/// Serving-runtime parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Resident VM shards (the *starting* count when
    /// [`ServeConfig::adaptive_shards`] is on).
    pub shards: u32,
    /// Unused: serving drains every shard on the calling thread, in
    /// shard-id order, whatever this says. Kept so existing
    /// configurations still compile; it never changes results.
    pub workers: u32,
    /// Maximum requests a shard drains into one batched VM entry when
    /// it becomes free (`1` = unbatched single-request serving; the
    /// shard never *waits* to fill a batch, so light load degenerates
    /// to size-1 batches). Batched runs also break at snapshot
    /// boundaries, so the effective amortization is
    /// `min(batch_size, snapshot_interval)` — batching is a no-op at
    /// `snapshot_interval = 1`. Ignored when
    /// [`ServeConfig::batch_adaptive`] is on. Changes
    /// latency/throughput, never outcome counts or the table digest.
    pub batch_size: u32,
    /// Replace the static `batch_size` with the per-drain queue-depth
    /// policy `batch = clamp(queue_depth, 1, batch_max)`: each drain
    /// sizes itself to the backlog it finds, so one configuration
    /// tracks the best static cap across services and load levels.
    /// Changes latency/throughput, never outcome counts or the digest.
    pub batch_adaptive: bool,
    /// Ceiling of the adaptive batch policy.
    pub batch_max: u32,
    /// Snapshot the resident machine every this many committed
    /// requests. Small intervals pay clone cost
    /// ([`ServeConfig::snapshot_bytes_per_cycle`]) on the steady path;
    /// large intervals pay suffix-replay cost on every crash. Changes
    /// latency/availability, never outcome counts or the table digest.
    pub snapshot_interval: u32,
    /// Snapshot cost model: a periodic clone is charged
    /// `resident_bytes / snapshot_bytes_per_cycle` virtual cycles (the
    /// default, 64 B/cycle at the simulated 2 GHz, is a 128 GB/s
    /// streaming copy).
    pub snapshot_bytes_per_cycle: u64,
    /// Bounded per-shard queue: requests arriving with this many
    /// earlier requests still in flight are rejected.
    pub queue_capacity: usize,
    /// Elastic shard scaling: a controller observes per-shard
    /// virtual-time queue occupancy every
    /// [`ServeConfig::control_interval`] requests and scales the shard
    /// set between 1 and [`ServeConfig::shards_max`], migrating key
    /// ranges by snapshot + filtered suffix replay. Changes
    /// latency/throughput, never outcome counts or the table digest.
    pub adaptive_shards: bool,
    /// Ceiling of the elastic shard controller.
    pub shards_max: u32,
    /// Controller epoch length in requests (the scaling decision
    /// cadence; also the granularity at which key ranges can move).
    pub control_interval: u32,
    /// Scale up when the deepest shard's queue occupancy reaches this
    /// many requests at an epoch boundary.
    pub scale_up_backlog: u32,
    /// Scale down when *every* shard's queue occupancy is at or below
    /// this many requests at an epoch boundary (hysteresis: keep it
    /// well under [`ServeConfig::scale_up_backlog`]).
    pub scale_down_backlog: u32,
    /// Per-request latency SLO in virtual cycles (arrival →
    /// completion). `0` disables SLO accounting; `> 0` makes the report
    /// count [`ServeReport::slo_met`] and [`ServeReport::goodput_rps`].
    pub slo_cycles: u64,
    /// Deadline-aware admission: shed a request at admission when its
    /// predicted completion (drain start + batch position × a
    /// conservative per-request estimate) exceeds
    /// [`ServeConfig::slo_cycles`]. Sheds are counted in
    /// [`ServeReport::shed`], never executed, and never committed.
    /// Fault-free, every admitted request then meets its SLO; a
    /// Crashed-class SEU detour (restart + replay) is not predictable
    /// at admission and can push requests past the deadline — the SLO
    /// accounting reports such misses rather than hiding them.
    pub shed_slo: bool,
    /// Keep a *warm standby* per shard: a copy of the primary,
    /// refreshed after every committed operation and charged the
    /// cycles the primary spent on it as background mirror cost (what
    /// re-executing the operation on the standby would cost). A
    /// Crashed-class outcome then promotes the standby in
    /// [`FAILOVER_CYCLES`] instead of stalling the queue
    /// for [`RESTART_CYCLES`] + suffix replay; the restart+replay detour
    /// still runs, but in background time, rebuilding the new standby
    /// ([`ServeReport::rebuild_cycles`]). Changes
    /// availability/latency, never outcome counts or the table digest.
    pub replicas: bool,
    /// Compact the elastic path's global committed log at every epoch
    /// boundary: bring each active shard up to the full log (background
    /// catch-up replay), then truncate each slot at the fleet-minimum
    /// snapshot mark — no recovery, twin or migration can ever reach
    /// below it. Bounds the retained per-slot log to under one
    /// [`ServeConfig::snapshot_interval`] (fixing the otherwise
    /// unbounded scale-down absorption replay). Changes timing only,
    /// never outcome counts or the table digest.
    pub compaction: bool,
    /// Run the state-digest divergence detector: every N commits
    /// compare primary and standby resident-table digests (a
    /// replication-correctness check, alarms expected 0), and probe
    /// every injected request's faulty state against the committed
    /// reference — an SDC detector independent of ELZAR's
    /// classification (see [`ServeReport::divergence_agreement`]).
    /// `0` disables both.
    pub divergence_check_interval: u32,
    /// Per-shard event-trace ring capacity ([`elzar_obs::Tracer`]): the
    /// runtime records admission, batch, execution, commit, snapshot,
    /// recovery, migration and divergence events stamped in virtual
    /// cycles, merged into [`ServeReport::trace`] in canonical
    /// `(cycle, track, seq)` order. `0` (the default) disables tracing
    /// entirely — recording never touches virtual time, so enabling it
    /// changes *no* other report field, and the canonical trace itself
    /// is bit-identical across worker counts.
    pub trace_events: usize,
    /// Mean inter-arrival gap of the open-loop generator, in cycles.
    pub mean_gap_cycles: u64,
    /// Requests in the stream.
    pub requests: u64,
    /// Seed for the stream and the online fault schedule.
    pub seed: u64,
    /// Per-request SEU probability in parts per million (0 = off).
    pub fault_rate_ppm: u32,
    /// Piecewise fault-rate schedule: `(first request id, ppm)` pairs
    /// sorted by id, each in force from its id until the next entry —
    /// what a compiled [`gen::Scenario`] plugs in for fault storms.
    /// Empty (the default) means the uniform
    /// [`ServeConfig::fault_rate_ppm`] everywhere. Keyed by *global
    /// request id*, so the fault placement stays a pure function of the
    /// stream — invariant across shard counts, batch policies, scaling
    /// schedules and worker counts.
    pub fault_phases: Vec<(u64, u32)>,
    /// Which scaling policy the elastic path runs (reactive queue
    /// hysteresis, or reactive + Holt arrival-rate forecast that
    /// pre-boots joiners before the queue builds). Ignored unless
    /// [`ServeConfig::adaptive_shards`] is on. Changes
    /// latency/throughput, never outcome counts or the table digest.
    pub scaling_policy: ScalingPolicy,
    /// Base machine configuration for shard VMs.
    pub machine: MachineConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            workers: 1,
            batch_size: 1,
            batch_adaptive: false,
            batch_max: 32,
            snapshot_interval: 8,
            snapshot_bytes_per_cycle: 64,
            queue_capacity: 4096,
            adaptive_shards: false,
            shards_max: 8,
            control_interval: 64,
            scale_up_backlog: 12,
            scale_down_backlog: 2,
            slo_cycles: 0,
            shed_slo: false,
            replicas: false,
            compaction: false,
            divergence_check_interval: 0,
            trace_events: 0,
            mean_gap_cycles: 2_000,
            requests: 1_000,
            seed: 0x5E12_AE5E,
            fault_rate_ppm: 0,
            fault_phases: Vec::new(),
            scaling_policy: ScalingPolicy::Reactive,
            machine: MachineConfig { step_limit: 10_000_000_000, ..MachineConfig::default() },
        }
    }
}

impl ServeConfig {
    /// The SEU rate (ppm) in force for request `id`: the last
    /// [`ServeConfig::fault_phases`] entry at or before it, or the
    /// uniform [`ServeConfig::fault_rate_ppm`] when the schedule is
    /// empty or starts after `id`.
    pub fn fault_ppm_for(&self, id: u64) -> u32 {
        let mut ppm = self.fault_rate_ppm;
        for &(from, p) in &self.fault_phases {
            if from <= id {
                ppm = p;
            } else {
                break;
            }
        }
        ppm
    }
}

/// The serving workloads (§VI shapes, re-cast as request streams).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Service {
    /// Mini-memcached under YCSB A (50/50, Zipf keys).
    KvA,
    /// Mini-memcached under YCSB D (95/5, latest-skewed keys).
    KvD,
    /// Mini-Apache static page serving.
    Web,
}

impl Service {
    /// All services.
    pub fn all() -> [Service; 3] {
        [Service::KvA, Service::KvD, Service::Web]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Service::KvA => "memcached-A",
            Service::KvD => "memcached-D",
            Service::Web => "apache",
        }
    }

    /// Build the service's serving-form app.
    pub fn app(self, scale: Scale) -> ServeApp {
        match self {
            Service::KvA | Service::KvD => kv::build_serve(scale),
            Service::Web => web::build_serve(scale),
        }
    }

    /// Generate the service's request stream.
    pub fn stream(self, app: &ServeApp, cfg: &ServeConfig) -> Vec<Request> {
        match self {
            Service::KvA => {
                gen::kv_stream(YcsbWorkload::A, cfg.requests, app.n_keys, cfg.mean_gap_cycles, cfg.seed)
            }
            Service::KvD => {
                gen::kv_stream(YcsbWorkload::D, cfg.requests, app.n_keys, cfg.mean_gap_cycles, cfg.seed)
            }
            Service::Web => gen::web_stream(cfg.requests, app.request_bytes, cfg.mean_gap_cycles, cfg.seed),
        }
    }

    /// The [`gen::StreamKind`] a [`gen::Scenario`] compiles against for
    /// this service.
    pub fn stream_kind(self, app: &ServeApp) -> gen::StreamKind {
        match self {
            Service::KvA => gen::StreamKind::Kv { workload: YcsbWorkload::A, n_keys: app.n_keys },
            Service::KvD => gen::StreamKind::Kv { workload: YcsbWorkload::D, n_keys: app.n_keys },
            Service::Web => gen::StreamKind::Web { request_bytes: app.request_bytes },
        }
    }
}

/// Aggregate serving result.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-shard statistics: every shard that ever served, in shard-id
    /// order (retired shards included).
    pub shards: Vec<ShardStats>,
    /// Merged request-latency histogram (cycles).
    pub hist: LatencyHistogram,
    /// Requests served across all shards.
    pub served: u64,
    /// Requests rejected by bounded queues.
    pub rejected: u64,
    /// Requests shed by deadline-aware admission (never executed).
    pub shed: u64,
    /// Served requests whose latency met [`ServeConfig::slo_cycles`]
    /// (0 when no SLO is configured).
    pub slo_met: u64,
    /// Batched-entry invocations across all shards (fault-scheduled
    /// requests run solo and are not counted).
    pub batches: u64,
    /// Requests that took an injected fault.
    pub injected: u64,
    /// Outcome counts for injected requests, Table-I order.
    pub outcomes: [u64; 5],
    /// Shard restarts (crashed/hung requests).
    pub restarts: u64,
    /// Periodic machine snapshots taken across all shards.
    pub snapshots: u64,
    /// Elastic scale-up events (a joiner booted from a donor snapshot).
    pub scale_ups: u64,
    /// Elastic scale-down events (a shard retired into a survivor).
    pub scale_downs: u64,
    /// Partition slots migrated across all scale events.
    pub migrated_slots: u64,
    /// Committed requests replayed to reconstruct migrated ranges.
    pub migration_replays: u64,
    /// Warm-replica promotions across all shards: crashes where the
    /// standby took over instead of a restart-from-snapshot detour
    /// ([`ServeConfig::replicas`]).
    pub promotions: u64,
    /// Where every shard cycle went: the per-shard
    /// [`elzar_obs::CycleLedger`]s summed cell-wise. The foreground
    /// categories conserve against the summed shard lifetimes (verified
    /// when the report is assembled); the accessor methods
    /// ([`ServeReport::downtime_cycles`] etc.) read this ledger.
    pub ledger: CycleLedger,
    /// Compaction passes that removed at least one committed entry.
    pub compactions: u64,
    /// Committed log entries dropped by compaction.
    pub compacted_entries: u64,
    /// Largest per-slot committed-log length ever retained on the
    /// elastic path (0 for static runs, which keep no global log). With
    /// [`ServeConfig::compaction`] this stays under one
    /// [`ServeConfig::snapshot_interval`]; without it the hottest
    /// slot's log grows with the stream.
    pub max_slot_log: u64,
    /// Periodic primary-vs-standby divergence checks performed
    /// ([`ServeConfig::divergence_check_interval`]).
    pub divergence_checks: u64,
    /// Periodic checks that found the standby diverged from the primary
    /// (expected 0 — an alarm means the replication path itself broke).
    pub divergence_alarms: u64,
    /// Divergence probes of injected requests by Table-I outcome of the
    /// injected run: each probe compares the faulty execution's
    /// resident state against the committed reference.
    pub div_probed: [u64; 5],
    /// Probes (same indexing) where the faulty state diverged from the
    /// committed reference — what a state-digest detector would flag.
    pub div_flagged: [u64; 5],
    /// Largest number of simultaneously active shards.
    pub peak_shards: u32,
    /// Active shards when the stream ended.
    pub final_shards: u32,
    /// The controller's scaling schedule, in event order (empty for
    /// static runs).
    pub events: Vec<ScaleEvent>,
    /// The canonical virtual-time event stream (empty unless
    /// [`ServeConfig::trace_events`] > 0): every shard's ring plus the
    /// driver's, merged in `(cycle, track, seq)` order — bit-identical
    /// across worker counts.
    pub trace: Trace,
    /// Virtual time from 0 to the last completion.
    pub makespan_cycles: u64,
    /// FNV-1a digest of the final resident tables — each key read from
    /// its *owning* shard, folded in global key order — so the value is
    /// comparable across shard counts and scaling schedules.
    /// `FNV_OFFSET` when stateless.
    pub table_digest: u64,
}

impl ServeReport {
    /// Count for one Table-I outcome among injected requests.
    pub fn count(&self, o: Outcome) -> u64 {
        self.outcomes[o.index()]
    }

    /// Aggregate throughput in requests per simulated second:
    /// `served * FREQ_HZ / makespan_cycles` (0.0 for an empty report).
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.served as f64 * FREQ_HZ / self.makespan_cycles as f64
        }
    }

    /// Goodput in requests per simulated second: served requests that
    /// met their SLO over the makespan. Meaningful only when
    /// [`ServeConfig::slo_cycles`] was configured (0.0 otherwise, and
    /// for an empty report).
    pub fn goodput_rps(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.slo_met as f64 * FREQ_HZ / self.makespan_cycles as f64
        }
    }

    /// Latency quantile in cycles: the upper edge of the histogram
    /// bucket covering rank `ceil(q * served)` (≤ 12.5 % relative
    /// error, never past the exact maximum). `q` is clamped to
    /// `[0, 1]`; `q = 0` reports the smallest recorded bucket, `q = 1`
    /// the exact maximum, and an empty report yields 0.
    pub fn quantile_cycles(&self, q: f64) -> u64 {
        self.hist.quantile(q)
    }

    /// [`ServeReport::quantile_cycles`] converted to microseconds of
    /// simulated time: `quantile_cycles(q) / FREQ_HZ * 1e6`.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 / FREQ_HZ * 1e6
    }

    /// Fraction of total shard-time *not* lost to crash recovery:
    /// `1 - downtime / Σ per-shard lifetime`, where downtime is
    /// [`RESTART_CYCLES`] + suffix replay per restart (or
    /// [`FAILOVER_CYCLES`] per warm-replica promotion) and
    /// each shard's lifetime runs from the virtual time it came online
    /// to the time it retired — clamped to the makespan — so elastic
    /// runs integrate shard-cycles over the actual scaling schedule
    /// instead of assuming a fixed fleet (1.0 with no restarts or an
    /// empty report).
    pub fn availability(&self) -> f64 {
        let span: u64 = self
            .shards
            .iter()
            .map(|s| s.retired_at.min(self.makespan_cycles) - s.spawned_at.min(self.makespan_cycles))
            .sum();
        if span == 0 {
            1.0
        } else {
            (1.0 - self.downtime_cycles() as f64 / span as f64).max(0.0)
        }
    }

    /// Virtual cycles shards were unavailable recovering from crashes:
    /// restart penalty + suffix replay per restart, or the promotion
    /// handoff per failover
    /// ([`Category::Downtime`] + [`Category::Replay`] of the ledger).
    pub fn downtime_cycles(&self) -> u64 {
        self.ledger.get(Category::Downtime) + self.ledger.get(Category::Replay)
    }

    /// Crash-recovery suffix-replay cycles alone ([`Category::Replay`]
    /// — grows with [`ServeConfig::snapshot_interval`]).
    pub fn replay_cycles(&self) -> u64 {
        self.ledger.get(Category::Replay)
    }

    /// Virtual cycles charged for periodic snapshot clones
    /// ([`Category::Snapshot`] — shrinks as
    /// [`ServeConfig::snapshot_interval`] grows).
    pub fn snapshot_cycles(&self) -> u64 {
        self.ledger.get(Category::Snapshot)
    }

    /// Virtual cycles spent on migration (snapshot clones + filtered
    /// replays; [`Category::Migration`]).
    pub fn migration_cycles(&self) -> u64 {
        self.ledger.get(Category::Migration)
    }

    /// Background virtual cycles spent rebuilding standbys after
    /// promotions ([`Category::Rebuild`] — the detour that no longer
    /// stalls the queue).
    pub fn rebuild_cycles(&self) -> u64 {
        self.ledger.get(Category::Rebuild)
    }

    /// Background virtual cycles standbys spent applying the committed
    /// log ([`Category::Mirror`] — the steady-state price of
    /// replication).
    pub fn replica_apply_cycles(&self) -> u64 {
        self.ledger.get(Category::Mirror)
    }

    /// Background virtual cycles spent on compaction catch-up replays
    /// ([`Category::Catchup`]).
    pub fn catchup_cycles(&self) -> u64 {
        self.ledger.get(Category::Catchup)
    }

    /// Background virtual cycles charged for divergence scans
    /// ([`Category::Divergence`] — probes and periodic checks).
    pub fn divergence_cycles(&self) -> u64 {
        self.ledger.get(Category::Divergence)
    }

    /// Agreement rate between the state-digest divergence detector and
    /// ELZAR's Table-I classification, over probed injections: an `Sdc`
    /// the probe flagged agrees, and a non-`Sdc` outcome the probe did
    /// *not* flag agrees. Disagreements are the interesting residue —
    /// a flagged `Masked` run is latent state corruption ELZAR's
    /// output-based verdict cannot see, and an unflagged `Sdc` is
    /// output-only corruption a state monitor cannot see. 1.0 when
    /// nothing was probed.
    pub fn divergence_agreement(&self) -> f64 {
        let probed = self.div_probes();
        if probed == 0 {
            return 1.0;
        }
        let sdc = Outcome::Sdc.index();
        let mut agree = self.div_flagged[sdc];
        for i in 0..self.div_probed.len() {
            if i != sdc {
                agree += self.div_probed[i] - self.div_flagged[i];
            }
        }
        agree as f64 / probed as f64
    }

    /// Total divergence probes of injected requests across outcomes.
    pub fn div_probes(&self) -> u64 {
        self.div_probed.iter().sum()
    }

    /// Observed SDC rate under load: silently corrupted replies over
    /// served requests, `count(Sdc) / served` (0.0 when nothing was
    /// served).
    pub fn sdc_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.count(Outcome::Sdc) as f64 / self.served as f64
        }
    }

    fn empty() -> ServeReport {
        ServeReport {
            shards: Vec::new(),
            hist: LatencyHistogram::new(),
            served: 0,
            rejected: 0,
            shed: 0,
            slo_met: 0,
            batches: 0,
            injected: 0,
            outcomes: [0; 5],
            restarts: 0,
            snapshots: 0,
            scale_ups: 0,
            scale_downs: 0,
            migrated_slots: 0,
            migration_replays: 0,
            promotions: 0,
            ledger: CycleLedger::new(),
            compactions: 0,
            compacted_entries: 0,
            max_slot_log: 0,
            divergence_checks: 0,
            divergence_alarms: 0,
            div_probed: [0; 5],
            div_flagged: [0; 5],
            peak_shards: 0,
            final_shards: 0,
            events: Vec::new(),
            trace: Trace::default(),
            makespan_cycles: 0,
            table_digest: FNV_OFFSET,
        }
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

pub(crate) fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

/// Generate `service`'s request stream and serve it to completion on an
/// already-built program (the serving half of `elzar::Artifact::serve`).
///
/// ```
/// use elzar::{Artifact, Mode};
/// use elzar_apps::Scale;
/// use elzar_serve::{serve_program, ServeConfig, Service};
///
/// let app = Service::KvA.app(Scale::Tiny);
/// let artifact = Artifact::build(&app.module, &Mode::elzar_default());
/// let cfg = ServeConfig {
///     requests: 48,
///     shards: 2,
///     batch_size: 4,
///     snapshot_interval: 16,
///     ..Default::default()
/// };
/// let report = serve_program(Service::KvA, artifact.program(), &app, &cfg);
/// assert_eq!(report.served + report.rejected, 48);
/// // Batching never changes the committed state: the digest matches an
/// // unbatched run of the same stream.
/// let unbatched = ServeConfig { batch_size: 1, ..cfg.clone() };
/// let reference = serve_program(Service::KvA, artifact.program(), &app, &unbatched);
/// assert_eq!(report.table_digest, reference.table_digest);
/// ```
pub fn serve_program(service: Service, prog: &Program, app: &ServeApp, cfg: &ServeConfig) -> ServeReport {
    let stream = service.stream(app, cfg);
    serve_stream(prog, app, &stream, cfg)
}

/// Serve a compiled [`gen::Scenario`]: the scenario is compiled against
/// the service's [`gen::StreamKind`] with `cfg.seed`, its per-phase
/// fault-rate schedule installed as [`ServeConfig::fault_phases`]
/// (overriding any uniform `fault_rate_ppm`), and the resulting stream
/// served through the normal static/elastic path. Ignores
/// `cfg.requests` and `cfg.mean_gap_cycles` — the scenario owns both.
pub fn serve_scenario(
    service: Service,
    prog: &Program,
    app: &ServeApp,
    scenario: &gen::Scenario,
    cfg: &ServeConfig,
) -> ServeReport {
    let compiled = scenario.compile(service.stream_kind(app), cfg.seed);
    let cfg = ServeConfig {
        requests: compiled.stream.len() as u64,
        fault_phases: compiled.fault_phases,
        ..cfg.clone()
    };
    serve_stream(prog, app, &compiled.stream, &cfg)
}

/// Serve an explicit stream on an already-built program. The static
/// path routes by key hash up front and drains every shard to
/// completion; with [`ServeConfig::adaptive_shards`] the elastic path
/// runs the stream in controller epochs, scaling the shard set against
/// queue depth. Either way every shard drains on the calling thread in
/// shard-id order and results merge in shard-id order.
pub fn serve_stream(prog: &Program, app: &ServeApp, stream: &[Request], cfg: &ServeConfig) -> ServeReport {
    if cfg.adaptive_shards {
        serve_adaptive(prog, app, stream, cfg)
    } else {
        serve_static(prog, app, stream, cfg)
    }
}

/// The static serving path: route by key hash, then drain each shard's
/// arrivals to completion, one shard after another. Shards share no
/// state, so the drain order cannot change any result.
fn serve_static(prog: &Program, app: &ServeApp, stream: &[Request], cfg: &ServeConfig) -> ServeReport {
    let shards = cfg.shards.max(1);
    let mut routed: Vec<Vec<&Request>> = (0..shards).map(|_| Vec::new()).collect();
    for r in stream {
        routed[shard_of(r.key, shards) as usize].push(r);
    }

    let image = boot_image(prog, app, cfg);
    let outputs: Vec<ShardOutput> = routed
        .iter()
        .enumerate()
        .map(|(s, reqs)| drain_shard(&image, app, s as u32, shards, reqs, cfg))
        .collect();
    let mut report = merge_outputs(outputs, Tracer::off());
    report.peak_shards = shards;
    report.final_shards = shards;
    report
}

/// The elastic serving path: run the stream in controller epochs of
/// [`ServeConfig::control_interval`] requests. Within an epoch the
/// shard set is fixed and shards share no state, so each active shard
/// drains its routed arrivals to completion in shard-id order, exactly
/// like the static path. At each epoch boundary the controller reads
/// every active shard's queue occupancy at the epoch's last arrival and
/// applies one [`Decision`] — all in virtual time, so the scaling
/// schedule is deterministic.
fn serve_adaptive(prog: &Program, app: &ServeApp, stream: &[Request], cfg: &ServeConfig) -> ServeReport {
    let start_shards = cfg.shards.clamp(1, cfg.shards_max.max(1));
    let mut partition = Partition::initial(start_shards);
    let image = boot_image(prog, app, cfg);
    // Runtimes indexed by shard id; retired shards become `None` after
    // their stats are banked.
    let mut runtimes: Vec<Option<ShardRuntime>> =
        (0..start_shards).map(|id| Some(ShardRuntime::boot(&image, cfg, id))).collect();
    let mut active: Vec<u32> = (0..start_shards).collect();
    let mut banked: Vec<Option<ShardOutput>> = (0..start_shards).map(|_| None).collect();
    // Global committed log per partition slot, in commit order — only
    // one shard owns a slot per epoch, so appends never interleave.
    let mut log: Vec<Vec<&Request>> = (0..PARTITION_SLOTS).map(|_| Vec::new()).collect();
    // Compaction offset: `log[s]` holds the committed entries of slot
    // `s` from absolute index `base[s]` onward (all zero until a
    // compaction pass truncates).
    let mut base = [0u32; PARTITION_SLOTS as usize];
    let mut compactions = 0u64;
    let mut compacted_entries = 0u64;
    let mut max_slot_log = 0u64;
    let mut events: Vec<ScaleEvent> = Vec::new();
    let mut peak = start_shards;
    // The controller's own track: scaling decisions and compaction
    // passes run after each epoch's shard drains.
    let mut driver = Tracer::new(DRIVER_TRACK, cfg.trace_events);
    // Predictive policy state: Holt smoothing over each epoch's
    // admitted-arrival rate. The rate is `chunk len / arrival span` —
    // a property of the stream alone, so the forecast (and therefore
    // the scaling schedule) is identical across batch policies.
    let mut forecaster = Forecaster::default();
    let mut prev_t_end = 0u64;

    let interval = cfg.control_interval.max(1) as usize;
    for (epoch, chunk) in stream.chunks(interval).enumerate() {
        // Route this epoch under the current assignment.
        let mut routed: Vec<Vec<&Request>> = (0..runtimes.len()).map(|_| Vec::new()).collect();
        for r in chunk {
            routed[partition.owner_of(r.key) as usize].push(r);
        }

        // Drain the active shards in shard-id order (retired slots are
        // `None` and routed nothing). Each slot has a single committing
        // shard per epoch, so appends to its log never interleave.
        for (rt, reqs) in runtimes.iter_mut().zip(&routed) {
            if let Some(rt) = rt {
                for r in rt.feed(reqs, app, cfg) {
                    log[controller::slot_of(r.key) as usize].push(r);
                }
            }
        }

        // Controller: read queue occupancy at the epoch's last arrival
        // and apply at most one scaling decision.
        let t_end = chunk.last().expect("chunks are non-empty").arrival;
        let backlogs: Vec<(u32, usize)> = active
            .iter()
            .map(|&id| {
                (id, runtimes[id as usize].as_ref().expect("active shard has a runtime").backlog_at(t_end))
            })
            .collect();
        let mut decision =
            decide(&backlogs, cfg.scale_up_backlog as usize, cfg.scale_down_backlog as usize, cfg.shards_max);
        if cfg.scaling_policy == ScalingPolicy::Predictive {
            let span = (t_end - prev_t_end).max(1);
            forecaster.observe((chunk.len() as u64).saturating_mul(RATE_FP) / span);
            let fc = forecaster.forecast_ahead(controller::FORECAST_HORIZON);
            let lvl = forecaster.level();
            driver.record(EventKind::Forecast, t_end, 0, fc, lvl);
            decision = adjust_predictive(decision, fc, lvl, &backlogs, cfg.shards_max);
        }
        prev_t_end = t_end;
        match decision {
            Decision::Up { donor } => {
                let taken = controller::split_upper_half(partition.slots_of(donor));
                if taken != 0 {
                    let joiner = runtimes.len() as u32;
                    let d = runtimes[donor as usize].as_ref().expect("donor is active");
                    let rt = ShardRuntime::boot_from_donor(d, app, cfg, joiner, taken, t_end);
                    events.push(ScaleEvent::Up {
                        epoch: epoch as u32,
                        donor,
                        joiner,
                        slots: taken.count_ones(),
                        replayed: rt.stats.migration_replays,
                    });
                    driver.record(EventKind::ScaleUp, t_end, 0, u64::from(donor), u64::from(joiner));
                    debug::emit("serve", || {
                        format!(
                            "epoch {epoch}: scale-up donor={donor} joiner={joiner} slots={}",
                            taken.count_ones()
                        )
                    });
                    runtimes.push(Some(rt));
                    banked.push(None);
                    partition.assign(taken, joiner);
                    active.push(joiner);
                    peak = peak.max(active.len() as u32);
                }
            }
            Decision::Down { leaver, recipient } => {
                let taken = partition.slots_of(leaver);
                let rt = runtimes[recipient as usize].as_mut().expect("recipient is active");
                let replayed_before = rt.stats.migration_replays;
                rt.absorb(taken, &log, &base, app, cfg);
                events.push(ScaleEvent::Down {
                    epoch: epoch as u32,
                    leaver,
                    recipient,
                    slots: taken.count_ones(),
                    replayed: rt.stats.migration_replays - replayed_before,
                });
                driver.record(EventKind::ScaleDown, t_end, 0, u64::from(leaver), u64::from(recipient));
                debug::emit("serve", || {
                    format!(
                        "epoch {epoch}: scale-down leaver={leaver} recipient={recipient} slots={}",
                        taken.count_ones()
                    )
                });
                partition.assign(taken, recipient);
                let mut rt = runtimes[leaver as usize].take().expect("leaver is active");
                rt.stats.retired_at = t_end;
                banked[leaver as usize] = Some(rt.into_output(app, &|_| false));
                active.retain(|&id| id != leaver);
            }
            Decision::Hold => {}
        }

        // Compaction pass: bring every active shard up to the full
        // committed log (background catch-up replay), then truncate
        // each slot at the fleet-minimum snapshot mark — entries below
        // it can never be replayed again (recovery, twins and
        // migrations all start from a snapshot at or past the mark).
        if cfg.compaction {
            for &id in &active {
                runtimes[id as usize]
                    .as_mut()
                    .expect("active shard has a runtime")
                    .catch_up(&log, &base, app, cfg);
            }
            let removed_before = compacted_entries;
            for (s, slot_log) in log.iter_mut().enumerate() {
                let floor = active
                    .iter()
                    .map(|&id| {
                        runtimes[id as usize].as_ref().expect("active shard has a runtime").snapshot_mark(s)
                    })
                    .min()
                    .unwrap_or(base[s]);
                let cut = (floor - base[s]) as usize;
                if cut > 0 {
                    slot_log.drain(..cut);
                    base[s] = floor;
                    compacted_entries += cut as u64;
                }
            }
            if compacted_entries > removed_before {
                compactions += 1;
                driver.record(
                    EventKind::Compaction,
                    t_end,
                    0,
                    compacted_entries - removed_before,
                    compactions,
                );
                debug::emit("serve", || {
                    format!(
                        "epoch {epoch}: compaction #{compactions} removed {} log entries",
                        compacted_entries - removed_before
                    )
                });
            }
        }
        max_slot_log = max_slot_log.max(log.iter().map(|l| l.len() as u64).max().unwrap_or(0));
    }

    // Finish: every still-active runtime reads the keys its final
    // assignment owns; retired shards contributed their stats already.
    let final_shards = active.len() as u32;
    let outputs: Vec<ShardOutput> = banked
        .into_iter()
        .zip(runtimes)
        .enumerate()
        .map(|(id, (b, rt))| match b {
            Some(out) => out,
            None => {
                rt.expect("unretired runtime").into_output(app, &|key| partition.owner_of(key) == id as u32)
            }
        })
        .collect();
    let mut report = merge_outputs(outputs, driver);
    report.scale_ups = events.iter().filter(|e| matches!(e, ScaleEvent::Up { .. })).count() as u64;
    report.scale_downs = events.iter().filter(|e| matches!(e, ScaleEvent::Down { .. })).count() as u64;
    report.migrated_slots = events
        .iter()
        .map(|e| match e {
            ScaleEvent::Up { slots, .. } | ScaleEvent::Down { slots, .. } => u64::from(*slots),
        })
        .sum();
    report.compactions = compactions;
    report.compacted_entries = compacted_entries;
    report.max_slot_log = max_slot_log;
    report.peak_shards = peak;
    report.final_shards = final_shards;
    report.events = events;
    report
}

/// Merge per-shard outputs (in shard-id order) into the aggregate
/// report, folding the final table digest in global key order so it is
/// comparable across partitions. `driver` carries the controller's own
/// events (scaling, compaction); the static path passes
/// [`Tracer::off`]. Every shard's ledger is checked for cycle
/// conservation before it is folded in — a leak here is a runtime bug,
/// so it panics rather than producing a silently mis-attributed report.
fn merge_outputs(outputs: Vec<ShardOutput>, driver: Tracer) -> ServeReport {
    let mut report = ServeReport::empty();
    let mut table: Vec<(u64, u64)> = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::with_capacity(outputs.len() + 1);
    for out in outputs {
        out.stats
            .ledger
            .verify(out.stats.lifetime_cycles)
            .unwrap_or_else(|e| panic!("shard {}: {e}", out.stats.shard));
        report.hist.merge(&out.stats.hist);
        report.served += out.stats.served;
        report.rejected += out.stats.rejected;
        report.shed += out.stats.shed;
        report.slo_met += out.stats.slo_met;
        report.batches += out.stats.batches;
        report.injected += out.stats.injected;
        for (a, b) in report.outcomes.iter_mut().zip(out.stats.outcomes) {
            *a += b;
        }
        report.restarts += out.stats.restarts;
        report.snapshots += out.stats.snapshots;
        report.migration_replays += out.stats.migration_replays;
        report.promotions += out.stats.promotions;
        report.ledger.merge(&out.stats.ledger);
        report.divergence_checks += out.stats.divergence_checks;
        report.divergence_alarms += out.stats.divergence_alarms;
        for (a, b) in report.div_probed.iter_mut().zip(out.stats.div_probed) {
            *a += b;
        }
        for (a, b) in report.div_flagged.iter_mut().zip(out.stats.div_flagged) {
            *a += b;
        }
        report.makespan_cycles = report.makespan_cycles.max(out.stats.last_completion);
        table.extend(out.table.iter().copied());
        tracers.push(out.tracer);
        report.shards.push(out.stats);
    }
    tracers.push(driver);
    report.trace = Trace::merge(tracers);
    // Global key order makes the digest independent of the partition.
    table.sort_unstable_by_key(|&(k, _)| k);
    for (k, v) in table {
        report.table_digest = fnv_fold(fnv_fold(report.table_digest, k), v);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig { requests: 60, shards: 2, workers: 2, ..Default::default() }
    }

    /// Build the service's hardened program (via the dev-dependency on
    /// the build pipeline) and serve its stream.
    fn serve(service: Service, mode: &elzar::Mode, scale: Scale, cfg: &ServeConfig) -> ServeReport {
        let app = service.app(scale);
        let artifact = elzar::Artifact::build(&app.module, mode);
        serve_program(service, artifact.program(), &app, cfg)
    }

    use elzar::Mode;

    #[test]
    fn web_service_serves_every_request() {
        let r = serve(Service::Web, &Mode::elzar_default(), Scale::Tiny, &tiny_cfg());
        assert_eq!(r.served + r.rejected, 60);
        assert_eq!(r.rejected, 0, "default queue capacity must not reject at this rate");
        assert_eq!(r.injected, 0, "faults are off by default");
        assert!(r.makespan_cycles > 0);
        assert!(r.throughput_rps() > 0.0);
        assert_eq!(r.hist.count(), r.served);
        assert!(r.availability() == 1.0);
        assert_eq!(r.peak_shards, 2);
        assert_eq!(r.final_shards, 2);
        assert!(r.events.is_empty(), "static runs never scale");
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        // Near-zero inter-arrival gap + a 2-deep queue on one shard
        // must shed most of the stream.
        let cfg = ServeConfig {
            requests: 80,
            shards: 1,
            queue_capacity: 2,
            mean_gap_cycles: 1,
            ..Default::default()
        };
        let r = serve(Service::Web, &Mode::elzar_default(), Scale::Tiny, &cfg);
        assert!(r.rejected > 40, "only {} rejected", r.rejected);
        assert_eq!(r.served + r.rejected, 80);
    }

    #[test]
    fn online_faults_are_classified_and_accounted() {
        let cfg = ServeConfig {
            requests: 80,
            shards: 2,
            fault_rate_ppm: 400_000, // 40%: plenty of hits in 80 requests
            ..Default::default()
        };
        let r = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &cfg);
        assert!(r.injected > 10, "only {} injections", r.injected);
        assert_eq!(r.outcomes.iter().sum::<u64>(), r.injected);
        assert_eq!(
            r.restarts,
            r.count(Outcome::Hang) + r.count(Outcome::OsDetected),
            "every crash/hang restarts its shard"
        );
        if r.restarts > 0 {
            assert!(r.availability() < 1.0);
        }
    }

    #[test]
    fn kv_digest_reflects_committed_updates() {
        let base = ServeConfig { requests: 50, shards: 1, ..Default::default() };
        let with_updates = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &base);
        // A read-heavy stream over the same seed leaves different table
        // state than the 50/50 stream.
        let reads = serve(Service::KvD, &Mode::elzar_default(), Scale::Tiny, &base);
        assert_ne!(with_updates.table_digest, reads.table_digest);
        // Same config twice: bit-identical.
        let again = serve(Service::KvA, &Mode::elzar_default(), Scale::Tiny, &base);
        assert_eq!(with_updates.table_digest, again.table_digest);
        assert_eq!(with_updates.outcomes, again.outcomes);
        assert_eq!(with_updates.hist, again.hist);
    }
}
