//! One serving shard: a resident hardened VM drained in arrival order
//! with batched request execution, K-interval snapshots with
//! suffix-replay recovery, per-request online fault accounting, and —
//! new in the adaptive layer — deadline-aware admission and
//! snapshot-migrated key-range hand-off.
//!
//! ## Execution model
//!
//! A `ShardRuntime` boots once from the serve call's boot image (one
//! run of `init_entry`, which preloads resident state — e.g. the KV
//! table — into the machine's memory, cloned per shard), then serves
//! routed requests in arrival order, fed either all at once (the
//! static path) or one controller epoch at a time (the elastic path).
//! Time is *virtual*: the VM's cycle counts drive a serial queue model,
//! so results are independent of host threads and wall-clock.
//!
//! ## Batching
//!
//! Whenever the shard becomes free at virtual time `t`, it drains every
//! admitted request that has arrived by `t` — up to a per-drain cap —
//! into one *batch* and executes it as a single
//! [`Machine::reenter_batch`] over the requests' concatenated payloads
//! (a count-prefixed mini-trace). The cap is either the static
//! [`ServeConfig::batch_size`] or, with
//! [`ServeConfig::batch_adaptive`], the queue-depth policy
//! `clamp(queue_depth, 1, batch_max)`: the drain sizes itself to the
//! backlog, so no per-service cap tuning is needed. The shard never
//! waits to fill a batch: under light load batches degenerate to size
//! 1, under saturation they amortize the per-entry costs (thread spawn,
//! cold L1/L2/branch state) across the batch. Per-request latency stays
//! honest inside a batch: every request emits one heartbeat at
//! completion, and request `i` of a batch completes at
//! `batch_start + heartbeat_cycles[i]`, not at the batch's end.
//!
//! ## Admission control
//!
//! Two gates, both enforced in virtual time at the instant a request
//! would join a forming batch:
//!
//! * **bounded queue** (drop-tail): a request arriving while
//!   `queue_capacity` earlier requests are still in flight is rejected;
//! * **deadline-aware shedding** ([`ServeConfig::shed_slo`]): the batch
//!   drain policy knows the exact drain start and the request's
//!   position in the forming batch, so its completion is predicted as
//!   `start + (position + 1) * est` where `est` is 1.5× the largest
//!   per-request marginal cost the shard has observed (solo cycles and
//!   in-batch heartbeat deltas). If the predicted latency exceeds
//!   [`ServeConfig::slo_cycles`] the request is shed at admission —
//!   never executed — so capacity is spent only on requests that can
//!   still meet their deadline. Until a first completion calibrates the
//!   estimate, drains are capped at one request so the predictor never
//!   admits a burst blind. The every-admitted-request-meets-its-SLO
//!   guarantee is a *fault-free* property: an admitted request that
//!   then takes a Crashed-class SEU serves a restart + replay detour no
//!   admission-time predictor could have priced in, and requests queued
//!   behind it can miss their deadline too.
//!
//! ## K-interval snapshots, suffix replay and migration
//!
//! The shard clones its machine every [`ServeConfig::snapshot_interval`]
//! *committed* requests (a usage-proportional clone charged
//! `resident_bytes / snapshot_bytes_per_cycle` virtual cycles) and
//! remembers the payloads applied since (`suffix`). Everything that
//! needs historical state is built from that machinery alone:
//!
//! * a *fault twin* is `snapshot.clone()` + [`elzar_fault::replay_suffix`]:
//!   it holds the live pre-request table bytes, not the live machine
//!   (the replay runs the solo entry where the shard ran batches);
//! * a *crashed* outcome restarts the shard the same way, the detour
//!   charged as downtime;
//! * a *joining shard* (elastic scale-up) is `donor.snapshot.clone()` +
//!   [`elzar_fault::replay_suffix_where`] filtered to the key range it
//!   takes over (`ShardRuntime::boot_from_donor`);
//! * a *retiring shard*'s range is absorbed by a survivor replaying the
//!   committed log of the migrated slots (`ShardRuntime::absorb`).
//!
//! The runtime tracks, per partition slot, how many committed requests
//! the machine has applied (`applied`), so a migration replays exactly
//! the delta between the receiving machine's state and the global
//! committed log: the migrated keys' table entries come out exactly as
//! the donor holds them, because execution is deterministic and
//! requests only touch state owned by their own key.
//!
//! ## Online fault accounting (reference-committed)
//!
//! A deterministic per-request schedule (a pure function of the
//! campaign seed and the global request id — never of shard count,
//! batching, snapshot cadence, scaling schedule or host threads) picks
//! which requests take a single-event upset. A scheduled request always
//! executes through the *single-request* entry: the shard runs it clean
//! on the resident machine (this is what commits), then replays the
//! suffix-reconstructed twin under the fault through
//! [`elzar_fault::inject_one`]. The committed state is always the
//! reference execution's, so the resident state evolves as a pure
//! function of the committed request sequence — which is why outcome
//! counts and final table digests are bit-identical across shard
//! counts, worker counts, batch policies, snapshot intervals and
//! scaling schedules.
//!
//! ## Warm replicas, failover and divergence checking
//!
//! With [`ServeConfig::replicas`] each shard keeps a *warm standby*: a
//! copy of the primary, refreshed after every committed operation and
//! charged the cycles the primary spent on it — what re-running the
//! operation on it would cost, since execution is deterministic. On a
//! Crashed-class outcome the standby, still at the pre-request
//! boundary, is promoted in [`FAILOVER_CYCLES`] and billed the clean
//! re-run; the restart+replay detour moves to background time
//! (`rebuild_cycles`). Promotion changes *timing only* — outcome counts
//! and digests stay bit-identical with replicas on or off.
//!
//! The replica also powers a second, independent SDC detector
//! ([`ServeConfig::divergence_check_interval`]): every injected
//! request's faulty twin is probed by comparing its resident-table
//! digest against the committed reference state (what a state-digest
//! monitor would flag, with no access to ELZAR's classification), and
//! every N commits the primary and standby digests are compared as a
//! replication-correctness check.

use crate::controller::{slot_of, PARTITION_SLOTS};
use crate::gen::{shard_of, Request};
use crate::histogram::LatencyHistogram;
use crate::{fnv_fold, ServeConfig, FNV_OFFSET};
use elzar_apps::{kv, ServeApp};
use elzar_fault::{inject_probe, replay_suffix, replay_suffix_where, GoldenRun, OutcomeClass, HANG_FACTOR};
use elzar_obs::{vt_add, vt_mul, Category, CycleLedger, EventKind, Tracer};
use elzar_rng::{splitmix64, DetRng};
use elzar_vm::{Machine, Program, RunOutcome};
use std::collections::VecDeque;

/// Cost model of one resident-table divergence scan, in virtual cycles
/// per key per machine: a cache-resident 16-byte entry probe plus the
/// digest fold.
const DIVERGENCE_CYCLES_PER_KEY: u64 = 4;

/// Virtual-cycle cost of promoting the warm standby (failure detection
/// and queue handoff), paid as downtime on each promotion. A local
/// handoff, not a rebuild: ~1 us at the simulated 2 GHz.
pub const FAILOVER_CYCLES: u64 = 2_000;

/// Virtual-cycle penalty for a shard restart from snapshot: crash
/// detection plus swapping in the pre-request snapshot
/// (usage-proportional, a few MB), ~25 us at 2 GHz. Suffix replay is
/// charged on top.
pub const RESTART_CYCLES: u64 = 50_000;

/// Per-shard serving statistics.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected by the bounded queue (never executed).
    pub rejected: u64,
    /// Requests shed by deadline-aware admission (predicted to miss
    /// their SLO; never executed).
    pub shed: u64,
    /// Served requests whose latency met [`ServeConfig::slo_cycles`]
    /// (0 when no SLO is configured).
    pub slo_met: u64,
    /// Batched-entry invocations (fault-scheduled requests run solo
    /// through the single-request entry and are not counted).
    pub batches: u64,
    /// Requests that took an injected fault.
    pub injected: u64,
    /// Outcome counts for injected requests, Table-I order
    /// ([`elzar_fault::Outcome::all`]).
    pub outcomes: [u64; 5],
    /// Shard restarts from snapshot (crashed/hung requests).
    pub restarts: u64,
    /// Periodic snapshots taken (the boot snapshot is free — it happens
    /// before traffic).
    pub snapshots: u64,
    /// Partition slots migrated *into* this shard (scale-up boot or
    /// scale-down absorption).
    pub migrated_in_slots: u64,
    /// Committed requests replayed to reconstruct migrated ranges.
    pub migration_replays: u64,
    /// Where every virtual cycle of this shard's lifetime went, plus
    /// background (overlapped) work — see [`elzar_obs::Category`]. The
    /// foreground categories sum to [`ShardStats::lifetime_cycles`]
    /// exactly (asserted when the report merges).
    pub ledger: CycleLedger,
    /// The shard's accounted lifetime in virtual cycles: from
    /// `spawned_at` to its retirement instant (or its final clock,
    /// whichever is later) — the conservation target of the ledger.
    pub lifetime_cycles: u64,
    /// Completion time of the shard's last request (0 if none).
    pub last_completion: u64,
    /// Virtual time the shard came online (0 for boot shards, the
    /// scale-up instant for joiners) — the start of its availability
    /// denominator.
    pub spawned_at: u64,
    /// Virtual time the shard retired (elastic scale-down);
    /// `u64::MAX` while it is still serving at stream end.
    pub retired_at: u64,
    /// Warm-replica promotions: crashes where the standby took over
    /// instead of a restart-from-snapshot detour
    /// ([`ServeConfig::replicas`]).
    pub promotions: u64,
    /// Periodic primary-vs-replica state-digest comparisons performed
    /// ([`ServeConfig::divergence_check_interval`]).
    pub divergence_checks: u64,
    /// Periodic checks that found the replica diverged from the
    /// primary (expected 0: both apply the same committed sequence —
    /// an alarm means the replication path itself is broken).
    pub divergence_alarms: u64,
    /// Per-injection divergence probes by Table-I outcome of the
    /// injected run ([`elzar_fault::Outcome::all`] order): probes
    /// compare the faulty execution's resident table against the
    /// committed reference state. Only outcomes that exited are probed
    /// (a hung/trapped machine has no committed state to compare), and
    /// only for stateful services.
    pub div_probed: [u64; 5],
    /// Probes (same indexing) where the faulty state *diverged* from
    /// the committed state — what a state-digest detector would flag.
    pub div_flagged: [u64; 5],
    /// Request latency histogram (arrival → completion, cycles).
    pub hist: LatencyHistogram,
}

impl ShardStats {
    fn new(shard: u32) -> ShardStats {
        ShardStats {
            shard,
            served: 0,
            rejected: 0,
            shed: 0,
            slo_met: 0,
            batches: 0,
            injected: 0,
            outcomes: [0; 5],
            restarts: 0,
            snapshots: 0,
            migrated_in_slots: 0,
            migration_replays: 0,
            ledger: CycleLedger::new(),
            lifetime_cycles: 0,
            last_completion: 0,
            spawned_at: 0,
            retired_at: u64::MAX,
            promotions: 0,
            divergence_checks: 0,
            divergence_alarms: 0,
            div_probed: [0; 5],
            div_flagged: [0; 5],
            hist: LatencyHistogram::new(),
        }
    }

    /// Virtual cycles spent executing request payloads
    /// ([`Category::Execute`] — crash detours excluded; those are
    /// downtime/replay).
    pub fn busy_cycles(&self) -> u64 {
        self.ledger.get(Category::Execute)
    }

    /// Virtual cycles the shard was unavailable recovering from
    /// crashes: restart penalty + suffix replay per restart, or the
    /// promotion handoff per failover
    /// ([`Category::Downtime`] + [`Category::Replay`]).
    pub fn downtime_cycles(&self) -> u64 {
        self.ledger.get(Category::Downtime) + self.ledger.get(Category::Replay)
    }

    /// Crash-recovery suffix-replay cycles alone
    /// ([`Category::Replay`] — the part of downtime that grows with
    /// `snapshot_interval`).
    pub fn replay_cycles(&self) -> u64 {
        self.ledger.get(Category::Replay)
    }

    /// Virtual cycles charged for periodic snapshot clones
    /// ([`Category::Snapshot`]).
    pub fn snapshot_cycles(&self) -> u64 {
        self.ledger.get(Category::Snapshot)
    }

    /// Virtual cycles spent on migration clone + replay
    /// ([`Category::Migration`]).
    pub fn migration_cycles(&self) -> u64 {
        self.ledger.get(Category::Migration)
    }

    /// Background cycles rebuilding the standby after promotions
    /// ([`Category::Rebuild`]).
    pub fn rebuild_cycles(&self) -> u64 {
        self.ledger.get(Category::Rebuild)
    }

    /// Background cycles the warm replica spent applying the committed
    /// log ([`Category::Mirror`]).
    pub fn replica_apply_cycles(&self) -> u64 {
        self.ledger.get(Category::Mirror)
    }

    /// Background compaction catch-up replay cycles
    /// ([`Category::Catchup`]).
    pub fn catchup_cycles(&self) -> u64 {
        self.ledger.get(Category::Catchup)
    }

    /// Background divergence-scan cycles ([`Category::Divergence`]).
    pub fn divergence_cycles(&self) -> u64 {
        self.ledger.get(Category::Divergence)
    }
}

/// A drained shard: stats, its event ring, and the final values of the
/// keys it owns (empty for stateless services).
pub(crate) struct ShardOutput {
    pub stats: ShardStats,
    pub tracer: Tracer,
    pub table: Vec<(u64, u64)>,
}

/// Fault schedule: whether request `id` takes an SEU, and if so the RNG
/// that samples its injection point. Depends only on `(seed, id)` and
/// the rate in force at `id` (`ServeConfig::fault_ppm_for` — uniform,
/// or a scenario's per-phase storm schedule), so fault placement is
/// invariant across shard counts, batching, scaling and workers.
fn fault_rng_for(cfg: &ServeConfig, id: u64) -> Option<DetRng> {
    let mut s = cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = DetRng::seed_from_u64(splitmix64(&mut s));
    (rng.below(1_000_000) < u64::from(cfg.fault_ppm_for(id))).then_some(rng)
}

/// A resident serving shard that can be fed incrementally (one
/// controller epoch at a time) and hand key ranges to or take them from
/// other shards between feeds. The static serving path is the trivial
/// schedule: boot once, feed the whole routed stream.
pub(crate) struct ShardRuntime<'p, 'a> {
    m: Machine<'p>,
    /// Warm standby ([`ServeConfig::replicas`]): a copy of the primary
    /// refreshed after every committed operation, so its state — memory
    /// *and* microarchitectural — equals the primary's at every commit
    /// boundary. On a Crashed-class outcome it is promoted in
    /// [`FAILOVER_CYCLES`] instead of the restart+replay detour. `Some`
    /// exactly when `cfg.replicas` is set.
    replica: Option<Machine<'p>>,
    /// Last periodic snapshot (boot state until the first one).
    snap: Machine<'p>,
    /// Per-slot applied counts at the time of `snap`.
    snap_applied: [u32; PARTITION_SLOTS as usize],
    /// Per-slot committed-log entries this machine has applied (served
    /// or replayed). The machine's state for slot `s` is the pure
    /// function of the first `applied[s]` committed requests of `s`.
    applied: [u32; PARTITION_SLOTS as usize],
    /// Payloads applied since `snap`, in application order (commits and
    /// migration replays alike) — what crash recovery and fault twins
    /// replay.
    suffix: Vec<&'a [u8]>,
    /// Virtual time the shard becomes free.
    clock: u64,
    /// Completion times of admitted-but-unfinished requests at the next
    /// arrival instant (the virtual-time queue).
    inflight: VecDeque<u64>,
    /// Largest observed per-request marginal cost (cycles) — solo runs
    /// and in-batch heartbeat deltas. Drives SLO admission prediction.
    est_cycles: u64,
    /// Commits since the last periodic primary/replica divergence
    /// check.
    since_div_check: u64,
    /// Virtual-time event ring ([`ServeConfig::trace_events`]; disabled
    /// at capacity 0). Recording never reads or feeds back into the
    /// clock, so tracing on/off cannot change any serving result.
    tracer: Tracer,
    /// Serving statistics.
    pub stats: ShardStats,
}

/// FNV-1a digest of a machine's resident KV table — the state the
/// divergence detector compares. Folds `(key, value)` in key order via
/// the host-side [`kv::serve_lookup`] mirror; [`FNV_OFFSET`] for
/// stateless services (which the detector therefore cannot see —
/// output-only corruption leaves no resident state to diverge).
fn table_digest_of(m: &Machine<'_>, app: &ServeApp) -> u64 {
    let mut h = FNV_OFFSET;
    if app.table_base != 0 {
        for k in 0..app.n_keys {
            let v = kv::serve_lookup(m.memory(), app.table_base, k).unwrap_or(0);
            h = fnv_fold(fnv_fold(h, k), v);
        }
    }
    h
}

/// Run the init entry once (preloads resident state): the machine every
/// shard of one serve call boots from. Init takes no input and never
/// sees the shard id, so each shard clones this image instead of
/// re-running init — the result is bit-identical.
pub(crate) fn boot_image<'p>(prog: &'p Program, app: &ServeApp, cfg: &ServeConfig) -> Machine<'p> {
    let mut mc = cfg.machine;
    mc.fault = None;
    let mut m = Machine::start(prog, app.init_entry, &[], mc);
    let outcome = m.run_to_completion();
    assert!(matches!(outcome, RunOutcome::Exited(_)), "shard init must exit cleanly, got {outcome:?}");
    m
}

impl<'p, 'a> ShardRuntime<'p, 'a> {
    /// Boot a fresh shard from the serve call's [`boot_image`] and take
    /// the free boot snapshot.
    pub fn boot(image: &Machine<'p>, cfg: &ServeConfig, shard: u32) -> ShardRuntime<'p, 'a> {
        let m = image.clone();
        let snap = m.clone();
        // The boot standby is cloned before traffic, like the boot
        // snapshot: free.
        let replica = cfg.replicas.then(|| m.clone());
        ShardRuntime {
            m,
            replica,
            snap,
            snap_applied: [0; PARTITION_SLOTS as usize],
            applied: [0; PARTITION_SLOTS as usize],
            suffix: Vec::new(),
            clock: 0,
            inflight: VecDeque::new(),
            est_cycles: 0,
            since_div_check: 0,
            tracer: Tracer::new(shard, cfg.trace_events),
            stats: ShardStats::new(shard),
        }
    }

    /// Boot a *joining* shard from a donor's snapshot (elastic
    /// scale-up): clone the donor's last snapshot, replay the donor's
    /// committed suffix filtered to the `taken` slots, and snapshot the
    /// result. The clone and the filtered replay are charged to the
    /// joiner's clock starting at virtual time `at`; the donor is
    /// untouched (its snapshot already exists, so it donates without
    /// downtime).
    pub fn boot_from_donor(
        donor: &ShardRuntime<'p, 'a>,
        app: &ServeApp,
        cfg: &ServeConfig,
        shard: u32,
        taken: u64,
        at: u64,
    ) -> ShardRuntime<'p, 'a> {
        let mut m = donor.snap.clone();
        let clone_cost = ShardRuntime::snap_cost(&m, cfg);
        let key_of = app.key_of;
        let (replay, replayed) = replay_suffix_where(&mut m, app.request_entry, &donor.suffix, |p| {
            taken >> slot_of(key_of(p)) & 1 == 1
        })
        .expect("donor's committed suffix replays cleanly on its snapshot");
        let mut applied = donor.snap_applied;
        for (s, a) in applied.iter_mut().enumerate() {
            if taken >> s & 1 == 1 {
                *a = donor.applied[s];
            }
        }
        let mut stats = ShardStats::new(shard);
        stats.spawned_at = at;
        stats.migrated_in_slots = u64::from(taken.count_ones());
        stats.migration_replays = replayed;
        stats.ledger.charge(Category::Migration, clone_cost + replay);
        let snap = m.clone();
        // The joiner's standby is a second clone of the freshly built
        // state, charged as background replication cost.
        let replica = cfg.replicas.then(|| m.clone());
        if replica.is_some() {
            stats.ledger.charge(Category::Mirror, clone_cost);
        }
        let mut tracer = Tracer::new(shard, cfg.trace_events);
        tracer.record(EventKind::Migration, at, clone_cost + replay, u64::from(donor.stats.shard), replayed);
        ShardRuntime {
            m,
            replica,
            snap,
            snap_applied: applied,
            applied,
            suffix: Vec::new(),
            clock: at + clone_cost + replay,
            inflight: VecDeque::new(),
            est_cycles: donor.est_cycles,
            since_div_check: 0,
            tracer,
            stats,
        }
    }

    /// Absorb the `taken` slots of a retiring shard (elastic
    /// scale-down): replay, onto the *live* machine, each migrated
    /// slot's committed log past what this machine has already applied.
    /// Requests only touch state owned by their own key, so the replay
    /// reconstructs the migrated ranges without disturbing the slots
    /// this shard already serves. `base` is the driver's per-slot
    /// compaction offset: `log[s]` holds the committed entries from
    /// absolute index `base[s]` onward (all-zero when compaction is
    /// off). Charged to the serving clock.
    pub fn absorb(
        &mut self,
        taken: u64,
        log: &[Vec<&'a Request>],
        base: &[u32; PARTITION_SLOTS as usize],
        app: &ServeApp,
        cfg: &ServeConfig,
    ) {
        let delta = self.take_delta(taken, log, base);
        let cycles = replay_suffix(&mut self.m, app.request_entry, &delta)
            .expect("committed log entries replay cleanly during absorption");
        self.stats.migrated_in_slots += u64::from(taken.count_ones());
        self.stats.migration_replays += delta.len() as u64;
        self.stats.ledger.charge(Category::Migration, cycles);
        self.tracer.record(
            EventKind::Migration,
            self.clock,
            cycles,
            u64::from(taken.count_ones()),
            delta.len() as u64,
        );
        self.clock = vt_add("shard migration clock", self.clock, cycles);
        self.mirror(cycles);
        self.suffix.extend(delta);
        self.maybe_snapshot(cfg);
    }

    /// Catch this shard up to the *entire* committed log
    /// ([`ServeConfig::compaction`]): replay, onto the live machine,
    /// every slot's committed entries past what this machine has
    /// already applied — scale-down absorption applied to all slots.
    /// Once every active shard has caught up, no shard can ever need a
    /// log entry below its snapshot mark again, so the driver truncates
    /// each slot at the fleet-minimum mark. Requests only touch state
    /// owned by their own key, so replaying non-owned slots never
    /// disturbs the slots this shard serves. Charged to background time
    /// (`catchup_cycles`) — production standbys stream the log
    /// concurrently with serving.
    pub fn catch_up(
        &mut self,
        log: &[Vec<&'a Request>],
        base: &[u32; PARTITION_SLOTS as usize],
        app: &ServeApp,
        cfg: &ServeConfig,
    ) {
        let delta = self.take_delta(u64::MAX, log, base);
        if delta.is_empty() {
            return;
        }
        let cycles = replay_suffix(&mut self.m, app.request_entry, &delta)
            .expect("committed log entries replay cleanly during catch-up");
        self.stats.ledger.charge(Category::Catchup, cycles);
        self.tracer.record(EventKind::Catchup, self.clock, cycles, delta.len() as u64, 0);
        self.mirror(cycles);
        self.suffix.extend(delta);
        self.maybe_snapshot(cfg);
    }

    /// The replay delta of the slots set in the `slots` bitmask: each
    /// slot's committed log entries past what this machine has already
    /// applied, in slot order. Marks them applied. `base[s]` is the
    /// absolute index of `log[s]`'s first entry (the compaction offset).
    fn take_delta(
        &mut self,
        slots: u64,
        log: &[Vec<&'a Request>],
        base: &[u32; PARTITION_SLOTS as usize],
    ) -> Vec<&'a [u8]> {
        let mut delta: Vec<&'a [u8]> = Vec::new();
        for s in 0..PARTITION_SLOTS as usize {
            if slots >> s & 1 == 1 {
                for req in &log[s][(self.applied[s] - base[s]) as usize..] {
                    delta.push(&req.payload);
                }
                self.applied[s] = base[s] + log[s].len() as u32;
            }
        }
        delta
    }

    /// The absolute per-slot applied count captured by this shard's
    /// last snapshot — the compaction floor: a committed entry below
    /// every active shard's mark can never be replayed again (crash
    /// recovery, fault twins and migrations all start from a snapshot).
    pub fn snapshot_mark(&self, slot: usize) -> u32 {
        self.snap_applied[slot]
    }

    /// Queue occupancy at virtual time `t`: admitted requests whose
    /// completion lies after `t` — the controller's load signal.
    pub fn backlog_at(&self, t: u64) -> usize {
        self.inflight.iter().filter(|&&c| c > t).count()
    }

    /// 1.5× the largest observed per-request marginal cost — the
    /// conservative per-request estimate SLO admission multiplies by
    /// queue position.
    fn est_margin(&self) -> u64 {
        self.est_cycles + self.est_cycles / 2
    }

    /// Virtual-cycle cost of one machine snapshot clone under the
    /// configured cost model — the single definition shared by the
    /// periodic snapshot, migration boot and the shed predictor (which
    /// must charge exactly what [`ShardRuntime::maybe_snapshot`] will).
    fn snap_cost(m: &Machine<'_>, cfg: &ServeConfig) -> u64 {
        m.memory().resident_bytes() / cfg.snapshot_bytes_per_cycle.max(1)
    }

    /// Per-drain batch cap: the static `batch_size`, or the queue-depth
    /// policy `clamp(depth, 1, batch_max)` with
    /// [`ServeConfig::batch_adaptive`]. While deadline-aware admission
    /// has no calibrated estimate yet, drains are capped at one request
    /// so the predictor never admits a burst blind.
    fn batch_cap(&self, cfg: &ServeConfig, depth: usize) -> usize {
        if cfg.shed_slo && cfg.slo_cycles > 0 && self.est_cycles == 0 {
            return 1;
        }
        if cfg.batch_adaptive {
            depth.clamp(1, cfg.batch_max.max(1) as usize)
        } else {
            cfg.batch_size.max(1) as usize
        }
    }

    fn observe_marginal(&mut self, cycles: u64) {
        self.est_cycles = self.est_cycles.max(cycles);
    }

    fn account_completion(&mut self, req: &Request, completion: u64, cfg: &ServeConfig) {
        let latency = completion - req.arrival;
        self.stats.hist.record(latency);
        if cfg.slo_cycles > 0 && latency <= cfg.slo_cycles {
            self.stats.slo_met += 1;
        }
        self.inflight.push_back(completion);
        self.stats.served += 1;
        self.stats.last_completion = completion;
    }

    /// Take the periodic snapshot if the applied-suffix length has
    /// reached the interval: clone the quiescent machine, charge the
    /// copy in virtual time, restart the suffix.
    fn maybe_snapshot(&mut self, cfg: &ServeConfig) {
        if self.suffix.len() >= cfg.snapshot_interval.max(1) as usize {
            self.snap.clone_from(&self.m);
            self.snap_applied = self.applied;
            self.suffix.clear();
            self.stats.snapshots += 1;
            let cost = ShardRuntime::snap_cost(&self.m, cfg);
            self.stats.ledger.charge(Category::Snapshot, cost);
            self.tracer.record(EventKind::Snapshot, self.clock, cost, self.stats.snapshots, 0);
            self.clock = vt_add("shard snapshot clock", self.clock, cost);
        }
    }

    /// Bring the warm standby to the commit boundary the primary just
    /// reached: copy the primary and charge `cycles`, what the primary
    /// spent on the committed operation, as mirror cost. The standby
    /// held the primary's pre-operation state and execution is
    /// deterministic, so applying the same operation on it would cost
    /// exactly `cycles` and leave exactly the primary's state.
    fn mirror(&mut self, cycles: u64) {
        if let Some(replica) = self.replica.as_mut() {
            replica.clone_from(&self.m);
            self.stats.ledger.charge(Category::Mirror, cycles);
        }
    }

    /// Periodic primary-vs-replica divergence check
    /// ([`ServeConfig::divergence_check_interval`]): every N commits,
    /// compare both machines' resident-table digests. Agreement is the
    /// expected steady state — the standby is refreshed from the primary
    /// at every commit — so an alarm means the replication path itself
    /// broke.
    fn maybe_divergence_check(&mut self, app: &ServeApp, cfg: &ServeConfig, committed_n: u64) {
        if cfg.divergence_check_interval == 0 || app.table_base == 0 {
            return;
        }
        self.since_div_check += committed_n;
        if self.since_div_check >= u64::from(cfg.divergence_check_interval) {
            self.since_div_check = 0;
            if let Some(replica) = self.replica.as_ref() {
                self.stats.divergence_checks += 1;
                self.stats.ledger.charge(Category::Divergence, 2 * app.n_keys * DIVERGENCE_CYCLES_PER_KEY);
                let alarm = table_digest_of(&self.m, app) != table_digest_of(replica, app);
                if alarm {
                    self.stats.divergence_alarms += 1;
                }
                self.tracer.record(
                    EventKind::DivergenceCheck,
                    self.clock,
                    0,
                    self.stats.divergence_checks,
                    u64::from(alarm),
                );
            }
        }
    }

    /// Drain `requests` (this shard's routed arrivals, in arrival
    /// order) to completion on the calling thread: one
    /// [`ShardRuntime::drain_once`] after another until the queue is
    /// spent. Returns the requests that committed, in commit order —
    /// the driver appends them to the global per-slot committed log
    /// that scale-down migration replays.
    pub fn feed(&mut self, requests: &[&'a Request], app: &ServeApp, cfg: &ServeConfig) -> Vec<&'a Request> {
        let mut committed: Vec<&'a Request> = Vec::new();
        let mut i = 0;
        while i < requests.len() {
            self.drain_once(requests, &mut i, &mut committed, app, cfg);
        }
        committed
    }

    /// One drain: form a single batch starting at `requests[*i]`,
    /// execute it as fault-free/solo segments, commit, snapshot as the
    /// interval dictates, and advance `*i` past every request consumed
    /// (admitted, rejected or shed).
    fn drain_once(
        &mut self,
        requests: &[&'a Request],
        i: &mut usize,
        committed: &mut Vec<&'a Request>,
        app: &ServeApp,
        cfg: &ServeConfig,
    ) {
        let interval = cfg.snapshot_interval.max(1) as usize;
        {
            // Batch formation: drain everything that has arrived by the
            // instant the shard picks up work, up to the per-drain cap.
            // Admission is checked at each request's own arrival
            // instant, counting both executed-but-unfinished batches
            // and the batch being formed.
            let mut batch: Vec<&Request> = Vec::new();
            let mut start = 0u64;
            let mut cap = 1usize;
            let mut snap_cost = 0u64;
            while *i < requests.len() {
                let req = requests[*i];
                if batch.is_empty() {
                    start = self.clock.max(req.arrival);
                    let depth = requests[*i..].iter().take_while(|r| r.arrival <= start).count();
                    cap = self.batch_cap(cfg, depth);
                    // Resident bytes only change by executing, so the
                    // clone-cost term is constant across one formation.
                    snap_cost = ShardRuntime::snap_cost(&self.m, cfg);
                } else if req.arrival > start || batch.len() >= cap {
                    break;
                }
                while self.inflight.front().is_some_and(|&c| c <= req.arrival) {
                    self.inflight.pop_front();
                }
                if self.inflight.len() + batch.len() >= cfg.queue_capacity {
                    self.stats.rejected += 1;
                    self.tracer.record(EventKind::Reject, req.arrival, 0, req.id, 0);
                    *i += 1;
                    continue;
                }
                if cfg.shed_slo && cfg.slo_cycles > 0 {
                    // Deadline-aware admission: the drain start and the
                    // request's batch position are exact; the marginal
                    // estimate is conservative (see est_margin); and
                    // every snapshot boundary the position can cross
                    // charges a worst-case clone pause.
                    let pos1 = batch.len() as u64 + 1;
                    let snaps = 1 + (self.suffix.len() as u64 + pos1) / interval as u64;
                    let predicted = vt_add(
                        "shard shed predictor",
                        start,
                        vt_add(
                            "shard shed predictor",
                            vt_mul("shard shed predictor", pos1, self.est_margin()),
                            vt_mul("shard shed predictor", snaps, snap_cost),
                        ),
                    );
                    if predicted - req.arrival > cfg.slo_cycles {
                        self.stats.shed += 1;
                        self.tracer.record(EventKind::Shed, req.arrival, 0, req.id, 0);
                        *i += 1;
                        continue;
                    }
                }
                self.tracer.record(EventKind::Admit, req.arrival, 0, req.id, 0);
                batch.push(req);
                *i += 1;
            }
            if batch.is_empty() {
                return;
            }
            // The gap between the shard going free and this drain's
            // start is the only place lifetime cycles pass unoccupied.
            self.stats.ledger.charge(Category::Idle, start - self.clock);
            self.tracer.record(EventKind::BatchForm, start, 0, batch[0].id, batch.len() as u64);

            // Execute the batch as segments: maximal fault-free runs go
            // through the batched entry; fault-scheduled requests run
            // solo (identically for every batch policy — the invariance
            // the differential tests pin); segments also end at
            // snapshot boundaries so clones always happen between
            // requests.
            let mut t = start;
            let mut k = 0;
            while k < batch.len() {
                if let Some(mut rng) = fault_rng_for(cfg, batch[k].id) {
                    let req = batch[k];
                    // Reference execution — this is what commits.
                    self.m.reenter(app.request_entry, &req.payload);
                    let outcome = self.m.run_to_completion();
                    assert!(
                        matches!(outcome, RunOutcome::Exited(_)),
                        "fault-free request {} must exit cleanly, got {outcome:?}",
                        req.id
                    );
                    let clean = self.m.result(outcome);
                    self.observe_marginal(clean.cycles.max(1));

                    let mut service = clean.cycles.max(1);
                    // What mirroring this request costs the standby;
                    // nothing once a promotion has re-run it there.
                    let mut mirror_cycles = clean.cycles.max(1);
                    // Recovery cycles inside `service` (charged to
                    // downtime/replay, not execute).
                    let mut detour = 0u64;
                    // Degenerate requests that retire no eligible
                    // instruction (nothing to corrupt) let the schedule
                    // slot pass unfired.
                    if clean.eligible > 0 {
                        let index = rng.range_inclusive(1, clean.eligible);
                        let bit = rng.below(256) as u32;
                        let golden = GoldenRun {
                            output: clean.output.clone(),
                            outcome: clean.outcome,
                            eligible: clean.eligible,
                            steps: clean.steps,
                            cycles: clean.cycles,
                        };
                        // The twin comes from the recovery machinery,
                        // not a fresh clone: restore the last snapshot,
                        // replay the applied suffix to the pre-request
                        // state.
                        let mut twin = self.snap.clone();
                        let replay = replay_suffix(&mut twin, app.request_entry, &self.suffix)
                            .expect("committed suffix replays cleanly on the snapshot");
                        twin.reenter(app.request_entry, &req.payload);
                        let (o, faulty, faulty_m) = inject_probe(twin, &golden, index, bit, HANG_FACTOR);
                        self.stats.injected += 1;
                        self.stats.outcomes[o.index()] += 1;
                        self.tracer.record(EventKind::Injection, t, 0, req.id, o.index() as u64);
                        // Second, independent SDC detector: compare the
                        // faulty execution's resident state against the
                        // committed reference — what a state-digest
                        // divergence monitor would flag, with no access
                        // to ELZAR's output/trap classification. Only
                        // exited outcomes are probed (a hung or trapped
                        // machine never reached a commit boundary), and
                        // only for stateful services.
                        if cfg.divergence_check_interval > 0
                            && app.table_base != 0
                            && o.class() != OutcomeClass::Crashed
                        {
                            self.stats.div_probed[o.index()] += 1;
                            let flagged = table_digest_of(&faulty_m, app) != table_digest_of(&self.m, app);
                            if flagged {
                                self.stats.div_flagged[o.index()] += 1;
                            }
                            self.stats
                                .ledger
                                .charge(Category::Divergence, 2 * app.n_keys * DIVERGENCE_CYCLES_PER_KEY);
                            self.tracer.record(EventKind::DivergenceProbe, t, 0, req.id, u64::from(flagged));
                        }
                        service = match o.class() {
                            OutcomeClass::Crashed => {
                                self.stats.restarts += 1;
                                if self.replica.is_some() {
                                    // Warm failover: the standby — at
                                    // the pre-request commit boundary,
                                    // where the reference execution
                                    // started — is promoted in
                                    // `FAILOVER_CYCLES` and re-runs the
                                    // request (the SEU does not recur)
                                    // in the clean cycles, ending in
                                    // the primary's state; it is
                                    // refreshed by copy below. The
                                    // restart+replay detour still
                                    // happens, but in the background,
                                    // rebuilding state no client is
                                    // waiting on.
                                    mirror_cycles = 0;
                                    self.stats.promotions += 1;
                                    self.stats.ledger.charge(Category::Downtime, FAILOVER_CYCLES);
                                    self.stats.ledger.charge(Category::Rebuild, RESTART_CYCLES + replay);
                                    detour = FAILOVER_CYCLES;
                                    let at = t + faulty.cycles.max(1);
                                    self.tracer.record(EventKind::Failover, at, FAILOVER_CYCLES, req.id, 0);
                                    self.tracer.record(
                                        EventKind::Rebuild,
                                        at,
                                        RESTART_CYCLES + replay,
                                        req.id,
                                        0,
                                    );
                                    faulty.cycles.max(1) + FAILOVER_CYCLES + clean.cycles.max(1)
                                } else {
                                    // Detected crash/hang, no standby:
                                    // production restores the snapshot,
                                    // replays the suffix and re-runs
                                    // the request; the client waits out
                                    // the detour.
                                    self.stats.ledger.charge(Category::Replay, replay);
                                    self.stats.ledger.charge(Category::Downtime, RESTART_CYCLES);
                                    detour = RESTART_CYCLES + replay;
                                    self.tracer.record(
                                        EventKind::Restart,
                                        t + faulty.cycles.max(1),
                                        RESTART_CYCLES + replay,
                                        req.id,
                                        0,
                                    );
                                    faulty.cycles.max(1) + RESTART_CYCLES + replay + clean.cycles.max(1)
                                }
                            }
                            // Masked / corrected / SDC: the faulty
                            // execution is what production ran.
                            _ => faulty.cycles.max(1),
                        };
                    }
                    let completion = vt_add("shard solo completion", t, service);
                    self.stats.ledger.charge(Category::Execute, service - detour);
                    self.tracer.record(EventKind::Execute, t, service, req.id, 1);
                    self.account_completion(req, completion, cfg);
                    self.tracer.record(EventKind::Commit, completion, 0, req.id, completion - req.arrival);
                    t = completion;
                    self.suffix.push(&req.payload);
                    self.applied[slot_of(req.key) as usize] += 1;
                    committed.push(req);
                    self.mirror(mirror_cycles);
                    self.maybe_divergence_check(app, cfg, 1);
                    k += 1;
                } else {
                    // Maximal fault-free segment, capped by the
                    // snapshot boundary.
                    let room = interval - self.suffix.len();
                    let mut end = k + 1;
                    while end < batch.len() && end - k < room && fault_rng_for(cfg, batch[end].id).is_none() {
                        end += 1;
                    }
                    let seg = &batch[k..end];
                    let parts: Vec<&'a [u8]> = seg.iter().map(|r| &*r.payload).collect();
                    self.m.reenter_batch(app.batch_entry, &parts);
                    let outcome = self.m.run_to_completion();
                    assert!(
                        matches!(outcome, RunOutcome::Exited(_)),
                        "fault-free batch at request {} must exit cleanly, got {outcome:?}",
                        seg[0].id
                    );
                    let r = self.m.result(outcome);
                    assert_eq!(
                        r.heartbeat_cycles.len(),
                        seg.len(),
                        "serve batch entries emit exactly one heartbeat per request"
                    );
                    let cycles = r.cycles.max(1);
                    self.tracer.record(EventKind::Execute, t, cycles, seg[0].id, seg.len() as u64);
                    let mut prev_hb = 0u64;
                    for (req, &hb) in seg.iter().zip(&r.heartbeat_cycles) {
                        let completion = vt_add("shard heartbeat offset", t, hb.max(1));
                        self.account_completion(req, completion, cfg);
                        self.tracer.record(
                            EventKind::Commit,
                            completion,
                            0,
                            req.id,
                            completion - req.arrival,
                        );
                        self.observe_marginal(hb.max(1) - prev_hb.min(hb));
                        prev_hb = hb;
                    }
                    self.stats.ledger.charge(Category::Execute, cycles);
                    self.stats.batches += 1;
                    t = vt_add("shard batch clock", t, cycles);
                    for req in seg {
                        self.suffix.push(&req.payload);
                        self.applied[slot_of(req.key) as usize] += 1;
                        committed.push(req);
                    }
                    self.mirror(cycles);
                    self.maybe_divergence_check(app, cfg, seg.len() as u64);
                    k = end;
                }
                self.clock = t;
                self.maybe_snapshot(cfg);
                t = self.clock;
            }
            self.clock = t;
        }
    }

    /// Finish the shard: close the cycle ledger (the tail between the
    /// last activity and the shard's end of life is idle), then emit
    /// stats, the event ring and the final resident-table values of the
    /// keys the `owns` predicate assigns to it.
    pub fn into_output(mut self, app: &ServeApp, owns: &dyn Fn(u64) -> bool) -> ShardOutput {
        // A retiree's life ends at its retirement instant (or its final
        // clock if a trailing snapshot/migration ran past it); a shard
        // alive at stream end ends at its final clock.
        let end = if self.stats.retired_at == u64::MAX {
            self.clock
        } else {
            self.stats.retired_at.max(self.clock)
        };
        self.stats.ledger.charge(Category::Idle, end - self.clock);
        self.stats.lifetime_cycles = end - self.stats.spawned_at;
        let mut table = Vec::new();
        if app.table_base != 0 {
            for k in 0..app.n_keys {
                if owns(k) {
                    table.push((k, kv::serve_lookup(self.m.memory(), app.table_base, k).unwrap_or(0)));
                }
            }
        }
        ShardOutput { stats: self.stats, tracer: self.tracer, table }
    }
}

/// Boot shard `shard` from `image` and drain its routed `requests` in
/// arrival order — the static serving path (a [`ShardRuntime`] fed
/// once).
pub(crate) fn drain_shard(
    image: &Machine<'_>,
    app: &ServeApp,
    shard: u32,
    shards: u32,
    requests: &[&Request],
    cfg: &ServeConfig,
) -> ShardOutput {
    let mut rt = ShardRuntime::boot(image, cfg, shard);
    rt.feed(requests, app, cfg);
    rt.into_output(app, &|key| shard_of(key, shards) == shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Service;
    use elzar::{Artifact, Mode};
    use elzar_apps::Scale;
    use elzar_obs::Trace;

    fn kv_build() -> (ServeApp, Artifact) {
        let app = Service::KvA.app(Scale::Tiny);
        let artifact = Artifact::build(&app.module, &Mode::elzar_default());
        (app, artifact)
    }

    /// One shard under a ~30% SEU storm with an unbounded queue, so
    /// every request commits.
    fn storm(batch_size: u32, replicas: bool) -> ServeConfig {
        ServeConfig {
            shards: 1,
            batch_size,
            replicas,
            requests: 200,
            seed: 0xFA11_0EE5,
            fault_rate_ppm: 300_000,
            queue_capacity: 1 << 20,
            mean_gap_cycles: 300,
            ..Default::default()
        }
    }

    /// Split `reqs` before every fault-scheduled request. Fed chunk by
    /// chunk, the runtime sits at each such request's pre-request
    /// boundary between two feeds.
    fn split_before_faults<'r>(cfg: &ServeConfig, reqs: &'r [&'r Request]) -> Vec<&'r [&'r Request]> {
        let mut chunks = Vec::new();
        let mut from = 0;
        for i in 1..reqs.len() {
            if fault_rng_for(cfg, reqs[i].id).is_some() {
                chunks.push(&reqs[from..i]);
                from = i;
            }
        }
        chunks.push(&reqs[from..]);
        chunks
    }

    /// Run an entered machine to a clean exit; its cycles as the
    /// runtime charges them.
    fn run_clean(m: &mut Machine<'_>) -> u64 {
        let o = m.run_to_completion();
        assert!(matches!(o, RunOutcome::Exited(_)), "committed operation must exit cleanly, got {o:?}");
        m.result(o).cycles.max(1)
    }

    /// A fault twin (the last snapshot plus the replayed suffix) holds
    /// the live machine's resident table bytes at the request's
    /// pre-request boundary, whether the live machine served the suffix
    /// batched or one request at a time. Only the table is asserted: the
    /// replay runs the single-request entry where the live machine ran
    /// the batch entry, so the two machines differ elsewhere.
    #[test]
    fn fault_twins_hold_the_live_table_bytes() {
        let (app, artifact) = kv_build();
        for batch_size in [1, 8] {
            let cfg = storm(batch_size, false);
            let stream = Service::KvA.stream(&app, &cfg);
            let reqs: Vec<&Request> = stream.iter().collect();
            let image = boot_image(artifact.program(), &app, &cfg);
            let mut rt = ShardRuntime::boot(&image, &cfg, 0);
            let mut replayed_twins = 0;
            for chunk in split_before_faults(&cfg, &reqs) {
                if fault_rng_for(&cfg, chunk[0].id).is_some() {
                    let mut twin = rt.snap.clone();
                    replay_suffix(&mut twin, app.request_entry, &rt.suffix).expect("suffix replays");
                    assert_eq!(
                        table_digest_of(&twin, &app),
                        table_digest_of(&rt.m, &app),
                        "batch_size {batch_size}: twin of request {} holds other table bytes",
                        chunk[0].id
                    );
                    replayed_twins += usize::from(!rt.suffix.is_empty());
                }
                rt.feed(chunk, &app, &cfg);
            }
            assert_eq!(rt.stats.served, cfg.requests, "batch_size {batch_size}: every request commits");
            assert!(rt.stats.injected > 20, "batch_size {batch_size}: {} injections", rt.stats.injected);
            assert!(replayed_twins > 20, "batch_size {batch_size}: {replayed_twins} twins replayed a suffix");
            if batch_size > 1 {
                let solo = rt.stats.outcomes.iter().sum::<u64>();
                assert!(rt.stats.batches < cfg.requests - solo, "batch_size {batch_size}: nothing batched");
            }
        }
    }

    /// The warm standby is a copy of the primary; this test keeps the
    /// re-execution it replaced as an oracle. For every committed
    /// operation (a solo request, a fault-free batch, a promotion, an
    /// absorption and a catch-up delta) it re-runs the operation on a
    /// clone of the pre-operation primary, and requires that machine to
    /// equal the copied standby and its cycles to equal the mirror
    /// charge, or for a promotion the re-run the request was billed.
    #[test]
    fn standby_copy_equals_re_execution() {
        let (app, artifact) = kv_build();
        let cfg = ServeConfig { snapshot_interval: 1 << 20, trace_events: 1 << 16, ..storm(4, true) };
        // Everything arrives at once, so each fault-free chunk below
        // forms exactly one batch.
        let mut stream = Service::KvA.stream(&app, &cfg);
        for r in &mut stream {
            r.arrival = 0;
        }
        let reqs: Vec<&Request> = stream.iter().collect();
        let image = boot_image(artifact.program(), &app, &cfg);
        let mut rt = ShardRuntime::boot(&image, &cfg, 0);
        let mirror_of = |rt: &ShardRuntime<'_, '_>| rt.stats.ledger.get(Category::Mirror);
        let check = |rt: &ShardRuntime<'_, '_>, oracle: &Machine<'_>, what: &str| {
            let standby = rt.replica.as_ref().expect("replicas on");
            assert!(oracle.state_matches(standby), "{what}: re-execution and copy differ");
        };
        let (mut solos, mut batches, mut promotions) = (0, 0, 0);
        let mut committed: Vec<&Request> = Vec::new();
        for seg in split_before_faults(&cfg, &reqs) {
            let (head, rest) = seg.split_at(usize::from(fault_rng_for(&cfg, seg[0].id).is_some()));
            for chunk in std::iter::once(head).filter(|h| !h.is_empty()).chain(rest.chunks(4)) {
                let mut oracle = rt.m.clone();
                let (mirror0, promoted0) = (mirror_of(&rt), rt.stats.promotions);
                committed.extend(rt.feed(chunk, &app, &cfg));
                let charged = mirror_of(&rt) - mirror0;
                let id = chunk[0].id;
                if fault_rng_for(&cfg, id).is_some() {
                    oracle.reenter(app.request_entry, &chunk[0].payload);
                    let rerun = run_clean(&mut oracle);
                    if rt.stats.promotions > promoted0 {
                        let trace = Trace::merge([rt.tracer.clone()]);
                        let end_of = |kind| {
                            let e = trace.events.iter().find(|e| e.kind == kind && e.a == id).unwrap();
                            e.cycle + e.dur
                        };
                        let billed = end_of(EventKind::Execute) - end_of(EventKind::Failover);
                        assert_eq!(billed, rerun, "promotion of request {id}: billed re-run");
                        assert_eq!(charged, 0, "promotion of request {id}: no mirror charge");
                        promotions += 1;
                    } else {
                        assert_eq!(charged, rerun, "solo request {id}: mirror charge");
                        solos += 1;
                    }
                    check(&rt, &oracle, &format!("request {id}"));
                } else {
                    let parts: Vec<&[u8]> = chunk.iter().map(|r| &*r.payload).collect();
                    oracle.reenter_batch(app.batch_entry, &parts);
                    assert_eq!(charged, run_clean(&mut oracle), "batch at request {id}: mirror charge");
                    check(&rt, &oracle, &format!("batch at request {id}"));
                    batches += usize::from(chunk.len() > 1);
                }
            }
        }
        assert_eq!(rt.stats.served, cfg.requests);
        assert!(
            solos > 10 && batches > 10 && promotions > 0,
            "{solos} solos, {batches} batches, {promotions} promotions"
        );

        // Replay deltas: a committed log holding this shard's commits
        // plus requests from another stream it never applied. The lower
        // half of the slots is absorbed, the rest caught up.
        let other = Service::KvA.stream(&app, &ServeConfig { seed: 7, requests: 60, ..cfg.clone() });
        let mut log: Vec<Vec<&Request>> = vec![Vec::new(); PARTITION_SLOTS as usize];
        for r in committed.iter().copied().chain(&other) {
            log[slot_of(r.key) as usize].push(r);
        }
        let base = [0; PARTITION_SLOTS as usize];
        for (what, slots) in [("absorb", u64::MAX >> 32), ("catch-up", u64::MAX)] {
            let mut oracle = rt.m.clone();
            let mut delta: Vec<&[u8]> = Vec::new();
            for (s, entries) in log.iter().enumerate() {
                if slots >> s & 1 == 1 {
                    delta.extend(entries[rt.applied[s] as usize..].iter().map(|r| &*r.payload));
                }
            }
            assert!(!delta.is_empty(), "{what}: empty delta");
            let mirror0 = mirror_of(&rt);
            if what == "absorb" {
                rt.absorb(slots, &log, &base, &app, &cfg);
            } else {
                rt.catch_up(&log, &base, &app, &cfg);
            }
            let cycles = replay_suffix(&mut oracle, app.request_entry, &delta).expect("delta replays");
            assert_eq!(mirror_of(&rt) - mirror0, cycles, "{what}: mirror charge");
            check(&rt, &oracle, what);
        }
    }
}
