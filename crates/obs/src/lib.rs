//! # elzar-obs
//!
//! Deterministic observability primitives for the ELZAR reproduction:
//! a virtual-time span/event tracer, a cycle-accounting ledger, and a
//! human-facing debug sink — all zero-dependency, all pure data.
//!
//! ## The tracer ([`Tracer`], [`Trace`])
//!
//! Every producer (a serving shard, the elastic driver) owns one
//! [`Tracer`]: a bounded ring buffer of [`TraceEvent`]s stamped in
//! *virtual cycles*, never wall-clock. Because every stamp is virtual
//! time and every ring is owned by exactly one deterministic producer,
//! the merged [`Trace`] — events from all rings sorted by
//! `(cycle, track, seq)` — is a pure function of the run's inputs:
//! bit-identical across host worker counts, byte-for-byte
//! ([`Trace::canonical_bytes`]). The differential suites pin this.
//!
//! Rings are bounded ([`Tracer::new`]'s `cap`): on overflow the oldest
//! event is dropped and counted ([`Tracer::dropped`]), so tracing a
//! long run costs bounded memory and the loss is itself deterministic.
//! A capacity of 0 disables the tracer entirely — [`Tracer::record`]
//! is a no-op that touches nothing, which is what makes "tracing off"
//! byte-identical to not having a tracer at all.
//!
//! ## The ledger ([`CycleLedger`], [`Category`])
//!
//! Every virtual cycle a shard lives through is attributed to exactly
//! one *foreground* category (execute / snapshot / replay / migration /
//! downtime / idle), and background work (replica mirroring, standby
//! rebuild, compaction catch-up, divergence scans) is attributed to
//! background categories that overlap foreground time. The conservation
//! invariant — `foreground_total() == lifetime cycles` — is checked by
//! [`CycleLedger::verify`] and asserted at report time by the serving
//! runtime, so a cycle can never be double-charged or lost silently.
//! The ledger's sums are checked, and so is every other virtual clock
//! through [`vt_add`] / [`vt_mul`]: a `u64` wrap panics, naming the
//! component, instead of silently reordering later events.
//!
//! ## The debug sink ([`debug`])
//!
//! Human-facing progress lines (campaign drivers, scaling decisions,
//! pass spans) go through [`debug::emit`], gated on the `ELZAR_TRACE`
//! environment variable and off by default — CI output is unchanged.
//! Wall-clock text for a human at a terminal; it is deliberately *not*
//! part of the deterministic canonical trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Cycle-accounting ledger
// ---------------------------------------------------------------------------

/// Where a virtual cycle went. Foreground categories partition a
/// shard's lifetime (they sum to it exactly — the conservation
/// invariant); background categories account work that overlaps
/// foreground time on other simulated resources (the standby machine,
/// the log streamer, the divergence scanner).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// Foreground: executing request payloads (solo re-entries and
    /// batched segments; for an injected request, the production
    /// execution — the faulty run plus any post-recovery re-run).
    Execute,
    /// Foreground: periodic snapshot clones.
    Snapshot,
    /// Foreground: crash-recovery suffix replay the client waits out.
    Replay,
    /// Foreground: migration clone + filtered replay (scale-up boot,
    /// scale-down absorption).
    Migration,
    /// Foreground: unavailability that is not replay — the restart
    /// penalty, or the warm-replica promotion handoff.
    Downtime,
    /// Foreground: the shard was free and no admitted request had
    /// arrived.
    Idle,
    /// Background: the warm standby applying the committed log.
    Mirror,
    /// Background: rebuilding the standby after a promotion.
    Rebuild,
    /// Background: compaction catch-up replay.
    Catchup,
    /// Background: divergence probes and periodic checks.
    Divergence,
}

impl Category {
    /// All categories, in ledger-cell order.
    pub const ALL: [Category; 10] = [
        Category::Execute,
        Category::Snapshot,
        Category::Replay,
        Category::Migration,
        Category::Downtime,
        Category::Idle,
        Category::Mirror,
        Category::Rebuild,
        Category::Catchup,
        Category::Divergence,
    ];

    /// Number of foreground categories — the prefix of [`Category::ALL`]
    /// that must conserve against lifetime.
    pub const FOREGROUND: usize = 6;

    /// Ledger cell index.
    pub fn index(self) -> usize {
        match self {
            Category::Execute => 0,
            Category::Snapshot => 1,
            Category::Replay => 2,
            Category::Migration => 3,
            Category::Downtime => 4,
            Category::Idle => 5,
            Category::Mirror => 6,
            Category::Rebuild => 7,
            Category::Catchup => 8,
            Category::Divergence => 9,
        }
    }

    /// Whether the category is on the critical path (counts toward the
    /// conservation invariant) or overlapped background work.
    pub fn is_foreground(self) -> bool {
        self.index() < Category::FOREGROUND
    }

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Execute => "execute",
            Category::Snapshot => "snapshot",
            Category::Replay => "replay",
            Category::Migration => "migration",
            Category::Downtime => "downtime",
            Category::Idle => "idle",
            Category::Mirror => "mirror",
            Category::Rebuild => "rebuild",
            Category::Catchup => "catchup",
            Category::Divergence => "divergence",
        }
    }
}

/// The conservation invariant failed: the foreground categories do not
/// sum to the claimed lifetime. Carries the full breakdown so the
/// panic/report message names the leak.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConservationError {
    /// `sum(foreground categories)` as accounted.
    pub foreground: u64,
    /// The lifetime the ledger was verified against.
    pub lifetime: u64,
    /// The full cell contents, [`Category::ALL`] order.
    pub cells: [u64; Category::ALL.len()],
}

impl std::fmt::Display for ConservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle ledger leaks: foreground sum {} != lifetime {} (", self.foreground, self.lifetime)?;
        for (i, c) in Category::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", c.label(), self.cells[i])?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ConservationError {}

/// Per-shard (and, merged, per-report) attribution of virtual cycles
/// to [`Category`] cells. Plain data: charging is an add, merging is a
/// cell-wise sum.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CycleLedger {
    cells: [u64; Category::ALL.len()],
}

impl CycleLedger {
    /// The all-zero ledger.
    pub fn new() -> CycleLedger {
        CycleLedger::default()
    }

    /// Attribute `cycles` to `cat`. A category sum that would wrap
    /// `u64` is a virtual-time corruption (every downstream conservation
    /// check would silently pass against garbage), so it panics loudly,
    /// naming the category.
    pub fn charge(&mut self, cat: Category, cycles: u64) {
        let cell = &mut self.cells[cat.index()];
        *cell = cell.checked_add(cycles).unwrap_or_else(|| {
            panic!("virtual-time overflow in ledger category {}: {cell} + {cycles} wraps u64", cat.label())
        });
    }

    /// Cycles attributed to `cat` so far.
    pub fn get(&self, cat: Category) -> u64 {
        self.cells[cat.index()]
    }

    /// Sum of the foreground categories — must equal the owning shard's
    /// lifetime (see [`CycleLedger::verify`]).
    pub fn foreground_total(&self) -> u64 {
        self.cells[..Category::FOREGROUND].iter().sum()
    }

    /// Sum of the background categories (overlapped work, not part of
    /// the conservation invariant).
    pub fn background_total(&self) -> u64 {
        self.cells[Category::FOREGROUND..].iter().sum()
    }

    /// Cell-wise sum with another ledger (report aggregation). Panics
    /// on `u64` wraparound, naming the overflowing category — same
    /// rationale as [`CycleLedger::charge`].
    pub fn merge(&mut self, other: &CycleLedger) {
        for (cat, (a, b)) in Category::ALL.iter().zip(self.cells.iter_mut().zip(other.cells)) {
            *a = a.checked_add(b).unwrap_or_else(|| {
                panic!("virtual-time overflow merging ledger category {}: {a} + {b} wraps u64", cat.label())
            });
        }
    }

    /// Check the conservation invariant against a lifetime in cycles.
    pub fn verify(&self, lifetime: u64) -> Result<(), ConservationError> {
        let foreground = self.foreground_total();
        if foreground == lifetime {
            Ok(())
        } else {
            Err(ConservationError { foreground, lifetime, cells: self.cells })
        }
    }
}

/// Checked virtual-time addition: `a + b`, panicking loudly — naming
/// the accumulating `component` — instead of wrapping. Use for every
/// cycle-counter accumulation outside the ledger; a wrapped virtual
/// clock silently reorders all subsequent events.
#[track_caller]
pub fn vt_add(component: &str, a: u64, b: u64) -> u64 {
    a.checked_add(b).unwrap_or_else(|| panic!("virtual-time overflow in {component}: {a} + {b} wraps u64"))
}

/// Checked virtual-time multiplication: `a * b`, panicking loudly —
/// naming the `component` — instead of wrapping.
#[track_caller]
pub fn vt_mul(component: &str, a: u64, b: u64) -> u64 {
    a.checked_mul(b).unwrap_or_else(|| panic!("virtual-time overflow in {component}: {a} * {b} wraps u64"))
}

// ---------------------------------------------------------------------------
// Virtual-time tracer
// ---------------------------------------------------------------------------

/// Track id of driver-level events (controller decisions, compaction
/// epochs) in the canonical stream — sorts after every shard track at
/// equal cycles.
pub const DRIVER_TRACK: u32 = u32::MAX;

/// What a [`TraceEvent`] records. Instant events have `dur == 0`; span
/// events cover `[cycle, cycle + dur)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A request joined a forming batch (`a` = request id).
    Admit,
    /// The bounded queue dropped a request at arrival (`a` = id).
    Reject,
    /// Deadline-aware admission shed a request (`a` = id).
    Shed,
    /// A batch finished forming (`a` = first request id, `b` = size).
    BatchForm,
    /// A batch segment or solo request executed (`a` = first request
    /// id, `b` = segment size).
    Execute,
    /// A request committed (`a` = id, `b` = latency in cycles).
    Commit,
    /// An SEU fired on a request (`a` = id, `b` = Table-I outcome
    /// index).
    Injection,
    /// A periodic snapshot clone (`a` = snapshot ordinal).
    Snapshot,
    /// A crash restart-from-snapshot detour the client waited out
    /// (`a` = request id).
    Restart,
    /// A warm-standby promotion (`a` = request id).
    Failover,
    /// Background standby rebuild after a promotion (`a` = request id).
    Rebuild,
    /// A migration clone + replay (`a` = donor shard or slot count,
    /// `b` = requests replayed).
    Migration,
    /// Background compaction catch-up replay (`a` = requests replayed).
    Catchup,
    /// A divergence probe of an injected request's faulty state
    /// (`a` = request id, `b` = 1 if flagged).
    DivergenceProbe,
    /// A periodic primary-vs-standby digest check (`a` = check
    /// ordinal, `b` = 1 on alarm).
    DivergenceCheck,
    /// The controller added a shard (`a` = donor, `b` = joiner).
    ScaleUp,
    /// The controller retired a shard (`a` = leaver, `b` = recipient).
    ScaleDown,
    /// A compaction pass truncated the committed log (`a` = entries
    /// removed, `b` = epoch).
    Compaction,
    /// A build-pipeline pass span (`a`/`b` producer-defined; used by
    /// the wall-clock debug sink, not the virtual-time serve trace).
    Pass,
    /// The predictive controller's per-epoch arrival-rate forecast
    /// (`a` = forecast, `b` = smoothed level, both in the controller's
    /// fixed-point rate units) — the instant every predictive scale
    /// decision is conditioned on.
    Forecast,
}

impl EventKind {
    /// All kinds, in canonical-code order.
    pub const ALL: [EventKind; 20] = [
        EventKind::Admit,
        EventKind::Reject,
        EventKind::Shed,
        EventKind::BatchForm,
        EventKind::Execute,
        EventKind::Commit,
        EventKind::Injection,
        EventKind::Snapshot,
        EventKind::Restart,
        EventKind::Failover,
        EventKind::Rebuild,
        EventKind::Migration,
        EventKind::Catchup,
        EventKind::DivergenceProbe,
        EventKind::DivergenceCheck,
        EventKind::ScaleUp,
        EventKind::ScaleDown,
        EventKind::Compaction,
        EventKind::Pass,
        EventKind::Forecast,
    ];

    /// Stable byte code for [`Trace::canonical_bytes`].
    pub fn code(self) -> u8 {
        EventKind::ALL.iter().position(|&k| k == self).expect("every kind is in ALL") as u8
    }

    /// Stable label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Shed => "shed",
            EventKind::BatchForm => "batch_form",
            EventKind::Execute => "execute",
            EventKind::Commit => "commit",
            EventKind::Injection => "injection",
            EventKind::Snapshot => "snapshot",
            EventKind::Restart => "restart",
            EventKind::Failover => "failover",
            EventKind::Rebuild => "rebuild",
            EventKind::Migration => "migration",
            EventKind::Catchup => "catchup",
            EventKind::DivergenceProbe => "divergence_probe",
            EventKind::DivergenceCheck => "divergence_check",
            EventKind::ScaleUp => "scale_up",
            EventKind::ScaleDown => "scale_down",
            EventKind::Compaction => "compaction",
            EventKind::Pass => "pass",
            EventKind::Forecast => "forecast",
        }
    }
}

/// One traced span or instant, stamped in virtual cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Virtual-cycle start of the span (or the instant itself).
    pub cycle: u64,
    /// Span length in cycles; 0 for instants.
    pub dur: u64,
    /// Producer track: a shard id, or [`DRIVER_TRACK`].
    pub track: u32,
    /// Per-track record sequence number — the within-cycle tiebreak of
    /// the canonical order (monotone even across ring drops).
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific argument (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// A bounded per-producer event ring. `cap == 0` disables recording
/// entirely (zero cost, zero allocation); on overflow the *oldest*
/// event is dropped and counted, so the retained window and the drop
/// count are both deterministic.
#[derive(Clone, Debug)]
pub struct Tracer {
    track: u32,
    cap: usize,
    seq: u32,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// A tracer for `track` retaining at most `cap` events.
    pub fn new(track: u32, cap: usize) -> Tracer {
        Tracer { track, cap, seq: 0, ring: VecDeque::new(), dropped: 0 }
    }

    /// The disabled tracer — every [`Tracer::record`] is a no-op.
    pub fn off() -> Tracer {
        Tracer::new(0, 0)
    }

    /// Whether recording is on (`cap > 0`).
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Record one event at virtual time `cycle` spanning `dur` cycles
    /// (0 for an instant). No-op when disabled.
    pub fn record(&mut self, kind: EventKind, cycle: u64, dur: u64, a: u64, b: u64) {
        if self.cap == 0 {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.ring.push_back(TraceEvent { cycle, dur, track: self.track, seq, kind, a, b });
        if self.ring.len() > self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
    }

    /// Events dropped to the ring bound so far (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The canonical merged event stream: every producer's retained events
/// sorted by `(cycle, track, seq)`. Since every stamp is virtual time
/// and every ring has a single deterministic producer, the whole
/// struct — including [`Trace::dropped_events`] — is a pure function
/// of the run's inputs, independent of host workers.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Events in canonical `(cycle, track, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Total events dropped to ring bounds across all producers.
    pub dropped_events: u64,
}

impl Trace {
    /// Merge producer rings into the canonical stream.
    pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Trace {
        let mut events = Vec::new();
        let mut dropped_events = 0;
        for t in tracers {
            dropped_events += t.dropped;
            events.extend(t.ring);
        }
        events.sort_unstable_by_key(|e| (e.cycle, e.track, e.seq));
        Trace { events, dropped_events }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fixed-width byte serialization of the canonical stream — the
    /// thing the determinism suites compare byte-for-byte across worker
    /// counts. Layout: an 8-byte magic, the event count, the drop
    /// count, then 41 bytes per event
    /// (`cycle, dur: u64 | track, seq: u32 | kind: u8 | a, b: u64`),
    /// all little-endian.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.events.len() * 41);
        out.extend_from_slice(b"ELZTRC1\0");
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.dropped_events.to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.cycle.to_le_bytes());
            out.extend_from_slice(&e.dur.to_le_bytes());
            out.extend_from_slice(&e.track.to_le_bytes());
            out.extend_from_slice(&e.seq.to_le_bytes());
            out.push(e.kind.code());
            out.extend_from_slice(&e.a.to_le_bytes());
            out.extend_from_slice(&e.b.to_le_bytes());
        }
        out
    }

    /// Compact text timeline: one line per event in canonical order,
    /// cycle-stamped, with the producer track and the kind-specific
    /// arguments spelled out.
    pub fn text_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {} events, {} dropped", self.events.len(), self.dropped_events);
        for e in &self.events {
            let track =
                if e.track == DRIVER_TRACK { "driver".to_string() } else { format!("shard {}", e.track) };
            let _ = write!(out, "{:>12}  {:<8}  {:<16}", e.cycle, track, e.kind.label());
            if e.dur > 0 {
                let _ = write!(out, " dur={}", e.dur);
            }
            let _ = writeln!(out, " a={} b={}", e.a, e.b);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// ELZAR_TRACE debug sink
// ---------------------------------------------------------------------------

/// Human-facing debug lines gated on the `ELZAR_TRACE` environment
/// variable (unset, empty or `0` = off). Producers pass a closure so a
/// disabled sink formats nothing.
pub mod debug {
    use std::sync::OnceLock;

    static ENABLED: OnceLock<bool> = OnceLock::new();

    /// Whether `ELZAR_TRACE` enables the sink (checked once per
    /// process).
    pub fn enabled() -> bool {
        *ENABLED
            .get_or_init(|| std::env::var("ELZAR_TRACE").map(|v| !v.is_empty() && v != "0").unwrap_or(false))
    }

    /// Emit one `[elzar-trace] topic: ...` line on stderr when the sink
    /// is enabled; otherwise do nothing (the closure never runs).
    pub fn emit(topic: &str, msg: impl FnOnce() -> String) {
        if enabled() {
            eprintln!("[elzar-trace] {topic}: {}", msg());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_conserves_and_merges() {
        let mut a = CycleLedger::new();
        a.charge(Category::Execute, 70);
        a.charge(Category::Idle, 20);
        a.charge(Category::Downtime, 10);
        a.charge(Category::Mirror, 55); // background: not in the invariant
        assert_eq!(a.foreground_total(), 100);
        assert_eq!(a.background_total(), 55);
        assert!(a.verify(100).is_ok());
        let err = a.verify(99).unwrap_err();
        assert_eq!((err.foreground, err.lifetime), (100, 99));
        let msg = err.to_string();
        assert!(msg.contains("execute=70") && msg.contains("mirror=55"), "{msg}");

        let mut b = CycleLedger::new();
        b.charge(Category::Execute, 30);
        b.charge(Category::Snapshot, 5);
        a.merge(&b);
        assert_eq!(a.get(Category::Execute), 100);
        assert_eq!(a.get(Category::Snapshot), 5);
        assert!(a.verify(135).is_ok());
    }

    /// A shard whose life starts near `u64::MAX` drives every category
    /// sum toward the wraparound edge — the regression the checked
    /// ledger arithmetic exists for: the panic must fire (instead of a
    /// silent wrap to ~0 that `verify` would then "conserve") and must
    /// name the overflowing category.
    #[test]
    fn ledger_overflow_panics_naming_the_category() {
        let msg_of =
            |err: Box<dyn std::any::Any + Send>| err.downcast_ref::<String>().cloned().unwrap_or_default();

        let mut a = CycleLedger::new();
        a.charge(Category::Idle, u64::MAX - 5); // spawned_at near u64::MAX
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut a = a;
            a.charge(Category::Idle, 6);
        }))
        .unwrap_err();
        let msg = msg_of(err);
        assert!(msg.contains("idle"), "charge panic must name the category: {msg}");
        assert!(msg.contains("virtual-time overflow"), "{msg}");

        let mut b = CycleLedger::new();
        b.charge(Category::Idle, 6);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || a.merge(&b))).unwrap_err();
        let msg = msg_of(err);
        assert!(msg.contains("idle"), "merge panic must name the category: {msg}");
    }

    #[test]
    fn vt_add_overflow_names_the_component() {
        let err = std::panic::catch_unwind(|| vt_add("shard 3 heartbeat", u64::MAX - 1, 2)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("shard 3 heartbeat"), "panic must name the component: {msg}");
        assert!(msg.contains("virtual-time overflow"), "panic must say what happened: {msg}");
    }

    #[test]
    fn vt_mul_overflow_names_the_component() {
        let err = std::panic::catch_unwind(|| vt_mul("shed predictor", u64::MAX / 2, 3)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("shed predictor"), "panic must name the component: {msg}");
    }

    #[test]
    fn category_indices_and_labels_are_distinct() {
        let mut seen = [false; Category::ALL.len()];
        for c in Category::ALL {
            assert!(!seen[c.index()], "duplicate index {}", c.index());
            seen[c.index()] = true;
        }
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "ALL must be in cell order");
            for d in &Category::ALL[i + 1..] {
                assert_ne!(c.label(), d.label());
            }
        }
        assert!(Category::Execute.is_foreground());
        assert!(Category::Idle.is_foreground());
        assert!(!Category::Mirror.is_foreground());
        assert!(!Category::Divergence.is_foreground());
    }

    #[test]
    fn event_kind_codes_are_stable_and_distinct() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.code() as usize, i);
            for other in &EventKind::ALL[i + 1..] {
                assert_ne!(k.label(), other.label());
            }
        }
    }

    #[test]
    fn ring_drops_oldest_deterministically() {
        let mut t = Tracer::new(3, 4);
        for i in 0..10u64 {
            t.record(EventKind::Commit, 100 * i, 0, i, 0);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let trace = Trace::merge([t]);
        assert_eq!(trace.dropped_events, 6);
        // Oldest-first: exactly the newest 4 remain, seq still monotone.
        let kept: Vec<u64> = trace.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        let seqs: Vec<u32> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.record(EventKind::Execute, 5, 10, 1, 2);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(Trace::merge([t]).is_empty());
    }

    #[test]
    fn merge_orders_by_cycle_track_seq() {
        let mut a = Tracer::new(1, 16);
        let mut d = Tracer::new(DRIVER_TRACK, 16);
        let mut b = Tracer::new(0, 16);
        a.record(EventKind::Execute, 50, 10, 0, 0);
        a.record(EventKind::Commit, 50, 0, 1, 0); // same cycle, later seq
        b.record(EventKind::Admit, 50, 0, 2, 0); // same cycle, lower track
        d.record(EventKind::ScaleUp, 50, 0, 0, 1); // driver sorts last
        b.record(EventKind::Commit, 10, 0, 3, 0);
        let trace = Trace::merge([a, d, b]);
        let order: Vec<(u64, u32, u32)> = trace.events.iter().map(|e| (e.cycle, e.track, e.seq)).collect();
        assert_eq!(order, vec![(10, 0, 1), (50, 0, 0), (50, 1, 0), (50, 1, 1), (50, DRIVER_TRACK, 0)]);
    }

    #[test]
    fn canonical_bytes_are_fixed_width_and_order_sensitive() {
        let mut t = Tracer::new(2, 8);
        t.record(EventKind::Snapshot, 7, 3, 1, 0);
        t.record(EventKind::Execute, 9, 4, 2, 5);
        let trace = Trace::merge([t.clone()]);
        let bytes = trace.canonical_bytes();
        assert_eq!(bytes.len(), 24 + 2 * 41);
        assert_eq!(&bytes[..8], b"ELZTRC1\0");
        // Identical input → identical bytes; any difference shows.
        assert_eq!(bytes, Trace::merge([t.clone()]).canonical_bytes());
        let mut t2 = t.clone();
        t2.record(EventKind::Commit, 9, 0, 2, 5);
        assert_ne!(bytes, Trace::merge([t2]).canonical_bytes());
    }

    #[test]
    fn text_timeline_names_tracks_and_kinds() {
        let mut s = Tracer::new(3, 8);
        let mut d = Tracer::new(DRIVER_TRACK, 8);
        s.record(EventKind::Execute, 100, 40, 7, 1);
        d.record(EventKind::Compaction, 200, 0, 12, 4);
        let text = Trace::merge([s, d]).text_timeline();
        assert!(text.starts_with("# 2 events, 0 dropped\n"), "{text}");
        assert!(text.contains("shard 3") && text.contains("execute") && text.contains("dur=40"), "{text}");
        assert!(text.contains("driver") && text.contains("compaction"), "{text}");
    }
}
