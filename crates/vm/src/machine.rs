//! The machine: a multi-threaded interpreter for lowered programs with an
//! integrated timing model and SEU fault-injection hooks.
//!
//! Execution model:
//! * threads run in deterministic round-robin quanta; each thread owns a
//!   simulated core ([`elzar_cpu::Core`]) whose clock advances with every
//!   retired instruction;
//! * clocks synchronize at the points where real threads synchronize —
//!   spawn, join, lock acquisition and same-line atomics — using a
//!   virtual-time rule `clock = max(own, peer) + cost`, which reproduces
//!   sub-linear scaling of lock-heavy programs (dedup, SQLite);
//! * wall-clock of a run = max over thread clocks.
//!
//! Fault injection (§IV-B): the machine counts dynamic result-producing
//! instructions in *hardened* functions; when the count hits the plan's
//! index, one bit of that instruction's destination register is flipped
//! (a GPR bit for scalars, one YMM lane bit for vectors).

use crate::kernels::BinKernel;
use crate::lower::{DGroup, LInst, LKind, LOp, LPhi, LTerm, Program, VMeta, NO_DST};
use crate::memory::{Memory, Trap, DEFAULT_MEM_SIZE, INPUT_BASE};
use crate::trace::{TOp, Trace};
use elzar_avx::{majority_extended, LaneWidth, MajorityOutcome, Ymm};
use elzar_cpu::{Core, Counters, InstClass, SharedL3};
use elzar_ir::{BinOp, Builtin, CastOp, CmpPred, RmwOp};
use std::collections::VecDeque;

/// A planned single-event upset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultPlan {
    /// 1-based index of the eligible dynamic instruction to corrupt.
    pub index: u64,
    /// Raw bit offset; reduced modulo the destination register width.
    pub bit: u32,
}

/// Which execution engine runs a machine.
///
/// Both engines produce bit-identical virtual results — outcomes, output
/// bytes, cycles, counters, eligible counts, campaign classifications —
/// and differ only in host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The per-instruction reference interpreter: the baseline the trace
    /// engine is checked against.
    Reference,
    /// Superblock trace execution ([`crate::trace`]) with whole-register
    /// kernels for the hardened TMR ops. The default.
    #[default]
    Trace,
}

impl EngineKind {
    /// Lower-case name, as used in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Trace => "trace",
        }
    }
}

/// Machine configuration.
///
/// `MachineConfig` is hashable so build artifacts can key cached golden
/// runs on `(input, MachineConfig)` — every field that changes execution
/// is part of the key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MachineConfig {
    /// Simulated worker threads *requested by the program* via the
    /// `num_threads` builtin. Thread-count-agnostic workloads spawn this
    /// many workers at runtime, so one lowered program serves a whole
    /// thread sweep. Clamped to at least 1.
    pub threads: u32,
    /// Retired-instruction budget; exceeding it reports a hang.
    pub step_limit: u64,
    /// Optional fault to inject.
    pub fault: Option<FaultPlan>,
    /// Execution engine. Both engines give bit-identical virtual
    /// results; only host time differs.
    pub engine: EngineKind,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig { threads: 1, step_limit: u64::MAX, fault: None, engine: EngineKind::default() }
    }
}

/// How a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Main returned.
    Exited(i64),
    /// A trap fired ("OS-detected").
    Trapped(Trap),
    /// The step budget ran out (hang).
    StepLimit,
}

/// Result of executing a program.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Termination condition.
    pub outcome: RunOutcome,
    /// Observable output bytes.
    pub output: Vec<u8>,
    /// Wall-clock cycles (max over thread clocks).
    pub cycles: u64,
    /// Aggregated perf counters.
    pub counters: Counters,
    /// ELZAR corrections performed at runtime.
    pub corrections: u64,
    /// Eligible (fault-injectable) dynamic instructions executed.
    pub eligible: u64,
    /// Total retired IR instructions.
    pub steps: u64,
    /// Per-thread cycle clocks.
    pub thread_cycles: Vec<u64>,
    /// Heartbeats emitted.
    pub heartbeats: u64,
    /// Retire cycle of every heartbeat, in execution order. Serving
    /// entries emit one heartbeat per completed request, so for a
    /// batched invocation ([`Machine::reenter_batch`]) entry `i` is the
    /// virtual completion offset of the batch's `i`-th request — the
    /// hook the serving runtime uses to attribute per-request latency
    /// inside a batch.
    pub heartbeat_cycles: Vec<u64>,
}

impl RunResult {
    /// Instructions/cycle over the whole run.
    pub fn ilp(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.counters.instrs as f64 / self.cycles as f64
        }
    }
}

/// A runtime value: GPR or YMM contents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtVal {
    /// Scalar (canonical zero-extended bits).
    S(u64),
    /// Vector.
    V(Ymm),
}

impl RtVal {
    fn s(self) -> u64 {
        match self {
            RtVal::S(v) => v,
            RtVal::V(y) => y.lane(LaneWidth::B64, 0),
        }
    }

    fn v(self, m: &VMeta) -> Ymm {
        match self {
            RtVal::V(y) => y,
            RtVal::S(v) => Ymm::splat(m.width, m.lanes as usize, v),
        }
    }
}

#[derive(Clone)]
struct Frame<'p> {
    func: u32,
    block: u32,
    prev_block: u32,
    ip: u32,
    slots: Vec<RtVal>,
    ready: Vec<u64>,
    ret_dst: u32,
    sp_save: u64,
    /// The function this frame executes — cached so the stepper never
    /// re-indexes `prog.funcs`.
    lf: &'p crate::lower::LFunc,
    /// Current block's instructions (follows `block`).
    insts: &'p [LInst],
    /// Current block's terminator (follows `block`).
    term: &'p LTerm,
}

impl Frame<'_> {
    /// Field-wise equality for [`Machine::state_matches`]. The cached
    /// `lf`/`insts`/`term` references follow from `func` and `block`.
    fn state_matches(&self, twin: &Frame<'_>) -> bool {
        let Frame { func, block, prev_block, ip, slots, ready, ret_dst, sp_save, lf: _, insts: _, term: _ } =
            self;
        (*func, *block, *prev_block, *ip, *ret_dst, *sp_save)
            == (twin.func, twin.block, twin.prev_block, twin.ip, twin.ret_dst, twin.sp_save)
            && *slots == twin.slots
            && *ready == twin.ready
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Ready,
    BlockedLock(u64),
    BlockedJoin(u32),
    Done,
}

#[derive(Clone)]
struct ThreadCtx<'p> {
    frames: Vec<Frame<'p>>,
    core: Core,
    sp: u64,
    stack_limit: u64,
    state: TState,
    result: u64,
}

impl ThreadCtx<'_> {
    /// Field-wise equality for [`Machine::state_matches`].
    fn state_matches(&self, twin: &ThreadCtx<'_>) -> bool {
        let ThreadCtx { frames, core, sp, stack_limit, state, result } = self;
        (*sp, *stack_limit, *state, *result) == (twin.sp, twin.stack_limit, twin.state, twin.result)
            && frames.len() == twin.frames.len()
            && frames.iter().zip(&twin.frames).all(|(a, b)| a.state_matches(b))
            && *core == twin.core
    }
}

#[derive(Clone, PartialEq, Eq)]
struct LockInfo {
    owner: Option<u32>,
    release: u64,
    waiters: VecDeque<u32>,
}

/// Mutex registry. Programs hold a handful of distinct mutex addresses,
/// so a dense vector with linear lookup beats hashing: the common case
/// is a hit within the first few entries, with no hashing, no pointer
/// chasing and deterministic iteration for free.
#[derive(Clone, Default, PartialEq, Eq)]
struct LockTable {
    entries: Vec<(u64, LockInfo)>,
}

impl LockTable {
    /// Existing lock state for `addr`.
    #[inline]
    fn get_mut(&mut self, addr: u64) -> Option<&mut LockInfo> {
        self.entries.iter_mut().find(|(a, _)| *a == addr).map(|(_, l)| l)
    }

    /// Lock state for `addr`, created on first use.
    #[inline]
    fn entry_mut(&mut self, addr: u64) -> &mut LockInfo {
        if let Some(i) = self.entries.iter().position(|(a, _)| *a == addr) {
            return &mut self.entries[i].1;
        }
        self.entries.push((addr, LockInfo { owner: None, release: 0, waiters: VecDeque::new() }));
        &mut self.entries.last_mut().expect("just pushed").1
    }
}

/// Open-addressed map from cacheline base → (last-writing thread,
/// serialization release cycle), replacing a `HashMap` on the atomics
/// hot path. Keys are 64-byte-aligned addresses, so `u64::MAX` is free
/// as the empty sentinel; probing is linear from a Fibonacci-hashed
/// start slot. The table is cleared when it reaches the same bound the
/// previous `HashMap` version enforced, which keeps memory bounded and
/// is deterministic (clearing only forgets stale serialization points).
#[derive(Clone, PartialEq, Eq)]
struct AtomicTable {
    keys: Vec<u64>,
    vals: Vec<(u32, u64)>,
    len: usize,
}

const ATOMIC_EMPTY: u64 = u64::MAX;
const ATOMIC_MAX_ENTRIES: usize = 1 << 17;

impl AtomicTable {
    fn new() -> AtomicTable {
        AtomicTable { keys: vec![ATOMIC_EMPTY; 1024], vals: vec![(0, 0); 1024], len: 0 }
    }

    /// Forget every entry in place, keeping the capacity.
    fn clear(&mut self) {
        if self.len > 0 {
            self.keys.fill(ATOMIC_EMPTY);
            self.vals.fill((0, 0));
            self.len = 0;
        }
    }

    /// Slot of `key`, or of the first empty probe position.
    #[inline]
    fn slot(keys: &[u64], key: u64) -> usize {
        let mask = keys.len() - 1;
        // Fibonacci hashing spreads the (shifted, aligned) keys well.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = keys[i];
            if k == key || k == ATOMIC_EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<(u32, u64)> {
        let i = Self::slot(&self.keys, key);
        if self.keys[i] == key {
            Some(self.vals[i])
        } else {
            None
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, val: (u32, u64)) {
        let i = Self::slot(&self.keys, key);
        if self.keys[i] == key {
            self.vals[i] = val;
            return;
        }
        if self.len >= ATOMIC_MAX_ENTRIES {
            // Same memory bound the HashMap version enforced: forget
            // stale serialization points wholesale.
            self.keys.fill(ATOMIC_EMPTY);
            self.len = 0;
            let j = Self::slot(&self.keys, key);
            self.keys[j] = key;
            self.vals[j] = val;
            self.len = 1;
            return;
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
        // Keep load factor <= 1/2 so probe chains stay short.
        if self.len * 2 > self.keys.len() {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![ATOMIC_EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![(0, 0); new_cap]);
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != ATOMIC_EMPTY {
                let i = Self::slot(&self.keys, k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// Maximum live threads (main + spawned); one simulated stack each.
const MAX_THREADS: u32 = 24;
/// Round-robin scheduler quantum in instructions.
const QUANTUM: u32 = 256;
const CALL_DEPTH_LIMIT: usize = 220;
const SPAWN_COST: u64 = 2_000;
const JOIN_COST: u64 = 200;
const LOCK_COST: u64 = 40;
const MALLOC_COST: u64 = 100;

/// The interpreter.
///
/// `Clone` snapshots the *entire* execution state — memory, thread
/// contexts, timing model, caches, branch predictor, counters. Because
/// execution is deterministic, resuming a clone behaves exactly like
/// the original would have; the fault-injection campaign exploits this
/// to share the pre-injection prefix across runs. Memory and the L3 are
/// copy-on-write, so a clone costs what the original writes afterwards;
/// [`Clone::clone_from`] refreshes an older clone of the same machine,
/// re-sharing only the pages and L3 chunks written since.
pub struct Machine<'p> {
    prog: &'p Program,
    cfg: MachineConfig,
    mem: Memory,
    threads: Vec<ThreadCtx<'p>>,
    l3: SharedL3,
    locks: LockTable,
    atomics: AtomicTable,
    output: Vec<u8>,
    corrections: u64,
    eligible: u64,
    steps: u64,
    heartbeats: u64,
    heartbeat_cycles: Vec<u64>,
    input_len: u64,
    phi_scratch: Vec<(u32, RtVal, u64)>,
}

impl Clone for Machine<'_> {
    fn clone(&self) -> Self {
        Machine {
            prog: self.prog,
            cfg: self.cfg,
            mem: self.mem.clone(),
            threads: self.threads.clone(),
            l3: self.l3.clone(),
            locks: self.locks.clone(),
            atomics: self.atomics.clone(),
            output: self.output.clone(),
            corrections: self.corrections,
            eligible: self.eligible,
            steps: self.steps,
            heartbeats: self.heartbeats,
            heartbeat_cycles: self.heartbeat_cycles.clone(),
            input_len: self.input_len,
            phi_scratch: self.phi_scratch.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Machine {
            prog,
            cfg,
            mem,
            threads,
            l3,
            locks,
            atomics,
            output,
            corrections,
            eligible,
            steps,
            heartbeats,
            heartbeat_cycles,
            input_len,
            phi_scratch,
        } = self;
        (*prog, *cfg) = (source.prog, source.cfg);
        mem.clone_from(&source.mem);
        threads.clone_from(&source.threads);
        l3.clone_from(&source.l3);
        locks.clone_from(&source.locks);
        atomics.clone_from(&source.atomics);
        output.clone_from(&source.output);
        (*corrections, *eligible, *steps, *heartbeats, *input_len) =
            (source.corrections, source.eligible, source.steps, source.heartbeats, source.input_len);
        heartbeat_cycles.clone_from(&source.heartbeat_cycles);
        phi_scratch.clone_from(&source.phi_scratch);
    }
}

/// Run `entry` (a function taking no meaningful arguments) of `prog` over
/// `input`, under `cfg`.
///
/// # Panics
/// Panics if `entry` does not exist in the program.
pub fn run_program(prog: &Program, entry: &str, input: &[u8], cfg: MachineConfig) -> RunResult {
    let mut m = Machine::start(prog, entry, input, cfg);
    let outcome = m.run_to_completion();
    m.finish(outcome)
}

impl<'p> Machine<'p> {
    fn new(prog: &'p Program, input: &[u8], cfg: MachineConfig) -> Machine<'p> {
        Machine {
            prog,
            cfg,
            mem: Memory::new(DEFAULT_MEM_SIZE, &prog.globals, input, MAX_THREADS),
            threads: vec![],
            l3: SharedL3::haswell(),
            locks: LockTable::default(),
            atomics: AtomicTable::new(),
            output: Vec::new(),
            corrections: 0,
            eligible: 0,
            steps: 0,
            heartbeats: 0,
            heartbeat_cycles: Vec::new(),
            input_len: input.len() as u64,
            phi_scratch: Vec::new(),
        }
    }

    fn spawn(&mut self, func: u32, arg: u64, start_cycle: u64) -> Result<u32, Trap> {
        let th = ThreadCtx {
            frames: Vec::new(),
            core: Core::new(),
            sp: 0,
            stack_limit: 0,
            state: TState::Ready,
            result: 0,
        };
        self.spawn_on(th, func, arg, start_cycle)
    }

    /// Start `func(arg)` at `start_cycle` as the next thread, on `th`'s
    /// core (which must be new or reset) and in its frame vector.
    fn spawn_on(
        &mut self,
        mut th: ThreadCtx<'p>,
        func: u32,
        arg: u64,
        start_cycle: u64,
    ) -> Result<u32, Trap> {
        if func as usize >= self.prog.funcs.len() {
            return Err(Trap::BadFunction);
        }
        if self.threads.len() as u32 >= MAX_THREADS {
            return Err(Trap::OutOfMemory);
        }
        let tid = self.threads.len() as u32;
        let lf: &'p crate::lower::LFunc = &self.prog.funcs[func as usize];
        let mut slots = vec![RtVal::S(0); lf.n_slots as usize];
        if lf.n_params >= 1 {
            slots[0] = RtVal::S(arg);
        }
        th.core.advance_to(start_cycle);
        th.frames.clear();
        th.frames.push(Frame {
            func,
            block: 0,
            prev_block: 0,
            ip: 0,
            ready: vec![start_cycle; lf.n_slots as usize],
            slots,
            ret_dst: NO_DST,
            sp_save: self.mem.stack_top(tid),
            lf,
            insts: &lf.blocks[0].insts,
            term: &lf.blocks[0].term,
        });
        th.sp = self.mem.stack_top(tid);
        th.stack_limit = self.mem.stack_limit(tid);
        th.state = TState::Ready;
        th.result = 0;
        self.threads.push(th);
        Ok(tid)
    }

    /// Create a machine and spawn `entry` as its main thread.
    ///
    /// # Panics
    /// Panics if `entry` does not exist in the program.
    pub fn start(prog: &'p Program, entry: &str, input: &[u8], cfg: MachineConfig) -> Machine<'p> {
        let entry_idx =
            prog.func_by_name(entry).unwrap_or_else(|| panic!("entry function `{entry}` not found"));
        let mut m = Machine::new(prog, input, cfg);
        m.spawn(entry_idx, 0, 0).expect("spawning the main thread cannot fail");
        m
    }

    /// Re-enter a *resident* machine for a fresh invocation of `entry`,
    /// retaining memory (globals, heap, previously written bytes) and
    /// the warmed shared L3, but starting an otherwise clean run:
    /// threads, stacks, locks, output, per-run counters (steps,
    /// eligible, corrections, heartbeats) and any installed fault plan
    /// are reset, `input` replaces the input segment, and `entry` is
    /// spawned as a new main thread at cycle 0.
    ///
    /// This is the request-granular reset the serving runtime uses: a
    /// shard machine preloads its state once (e.g. a KV table), then
    /// serves each request as one `reenter` + run, so per-request
    /// cycles/eligible counts are measured from the request's own start.
    ///
    /// # Panics
    /// Panics if `entry` does not exist in the program or `input` does
    /// not fit in the input segment.
    pub fn reenter(&mut self, entry: &str, input: &[u8]) {
        self.mem.set_input(input);
        self.reenter_reset(entry, input.len() as u64);
    }

    /// [`Machine::reenter`] for a *batched* invocation: the input
    /// segment receives a multi-request image — a `u64` record count
    /// followed by the concatenated `parts`, one encoded request each
    /// ([`Memory::set_input_parts`] layout) — and `entry` runs once over
    /// the whole mini-trace. Batched serve entries read the count from
    /// the first input word and iterate the fixed-stride records behind
    /// it, emitting one heartbeat per request so
    /// [`RunResult::heartbeat_cycles`] carries each request's completion
    /// offset inside the batch.
    ///
    /// Everything else behaves exactly like [`Machine::reenter`]: the
    /// resident memory and warm L3 survive, threads/output/counters and
    /// any fault plan are reset, and the run starts at cycle 0.
    ///
    /// # Panics
    /// Panics if `entry` does not exist in the program or the combined
    /// image does not fit in the input segment.
    pub fn reenter_batch(&mut self, entry: &str, parts: &[&[u8]]) {
        let len = self.mem.set_input_parts(parts);
        self.reenter_reset(entry, len as u64);
    }

    /// The reset shared by [`Machine::reenter`] and
    /// [`Machine::reenter_batch`] — everything except writing the input
    /// image, which the callers have already done.
    fn reenter_reset(&mut self, entry: &str, input_len: u64) {
        let entry_idx =
            self.prog.func_by_name(entry).unwrap_or_else(|| panic!("entry function `{entry}` not found"));
        // Fresh stacks: a new invocation must read zeros where a fresh
        // machine would, not the previous invocation's frames.
        self.mem.reset_stacks();
        self.input_len = input_len;
        // The previous entry thread's context becomes the new one: its
        // core is reset in place to a cold core, which is cheaper than
        // allocating one.
        self.threads.truncate(1);
        let mut th = self.threads.pop().expect("a started machine has an entry thread");
        th.core.reset();
        self.locks.entries.clear();
        // Stale atomic serialization points carry release cycles from
        // the previous invocation's clock domain; the new run starts at
        // cycle 0, so they must not stall it.
        self.atomics.clear();
        self.output.clear();
        self.corrections = 0;
        self.eligible = 0;
        self.steps = 0;
        self.heartbeats = 0;
        self.heartbeat_cycles.clear();
        self.cfg.fault = None;
        self.spawn_on(th, entry_idx, 0, 0).expect("spawning the entry thread cannot fail");
    }

    /// The machine's memory (e.g. to digest resident state between
    /// [`Machine::reenter`] invocations).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Wall-clock cycles of the current invocation so far (max over
    /// thread clocks) — [`RunResult::cycles`] without materializing a
    /// result. Replay loops that only need timing use this instead of
    /// cloning output/counter vectors per request.
    pub fn cycles_so_far(&self) -> u64 {
        self.threads.iter().map(|t| t.core.cycles()).max().unwrap_or(0)
    }

    /// Execute one scheduler round: wake joiners, give every ready
    /// thread one quantum, then check for exit/deadlock. Returns
    /// `Some(outcome)` when the program is finished, `None` while it is
    /// still running. Round boundaries are exact resumption points —
    /// `run_to_completion` is a plain loop over this — so a machine
    /// cloned between rounds continues bit-identically.
    pub fn run_round(&mut self) -> Option<RunOutcome> {
        // Wake joiners whose target finished.
        for i in 0..self.threads.len() {
            if let TState::BlockedJoin(c) = self.threads[i].state {
                if matches!(self.threads[c as usize].state, TState::Done) {
                    self.threads[i].state = TState::Ready;
                }
            }
        }
        let mut progressed = false;
        let n = self.threads.len();
        for t in 0..n {
            if self.threads[t].state == TState::Ready {
                progressed = true;
                match self.step_quantum(t) {
                    Ok(()) => {}
                    Err(trap) => return Some(RunOutcome::Trapped(trap)),
                }
                if self.steps > self.cfg.step_limit {
                    return Some(RunOutcome::StepLimit);
                }
            }
        }
        if self.threads.iter().all(|t| t.state == TState::Done) {
            return Some(RunOutcome::Exited(self.threads[0].result as i64));
        }
        if !progressed {
            return Some(RunOutcome::Trapped(Trap::Deadlock));
        }
        None
    }

    /// Run scheduler rounds until the program finishes.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        loop {
            if let Some(outcome) = self.run_round() {
                return outcome;
            }
        }
    }

    /// Eligible (fault-injectable) instructions executed so far.
    pub fn eligible_so_far(&self) -> u64 {
        self.eligible
    }

    /// ELZAR corrections performed so far ([`RunResult::corrections`]
    /// without materializing a result).
    pub fn corrections_so_far(&self) -> u64 {
        self.corrections
    }

    /// Upper bound on how many *additional* eligible instructions the
    /// next [`Machine::run_round`] can execute (every live thread gets
    /// at most one quantum, and at most every instruction is eligible).
    pub fn eligible_round_bound(&self) -> u64 {
        self.threads.len() as u64 * u64::from(QUANTUM)
    }

    /// Install (or clear) the fault plan for subsequent execution.
    pub fn set_fault(&mut self, fault: Option<FaultPlan>) {
        self.cfg.fault = fault;
    }

    /// Replace the retired-instruction budget.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.cfg.step_limit = limit;
    }

    /// Does this machine hold the same execution state as `twin`, so
    /// that from here on both retire the same instructions at the same
    /// cycles and produce the same output?
    ///
    /// The fault campaign uses this to stop an injected run once it has
    /// re-converged with a fault-free twin cloned at the same point.
    /// Every field takes part except four:
    ///
    /// * the fault plan, once it can no longer fire on either side (its
    ///   index is at or below `eligible`, which only grows). A plan that
    ///   can still fire makes the states unequal;
    /// * the step limit, which only decides where a run is cut off: the
    ///   caller must know both runs end within both budgets;
    /// * the correction count, which never feeds back into execution;
    /// * the phi scratch buffer, cleared before every use.
    ///
    /// The comparison is conservative. A representation difference that
    /// reads the same (a stack backed deeper, an atomics table filled in
    /// another order) compares unequal; states that differ in anything
    /// but the four fields above never compare equal.
    pub fn state_matches(&self, twin: &Machine<'_>) -> bool {
        // Exhaustive destructures: a new field fails to compile here
        // until it is classified. Cheap fields are compared first,
        // memory and the L3 last.
        let Machine {
            prog,
            cfg,
            mem,
            threads,
            l3,
            locks,
            atomics,
            output,
            corrections: _,
            eligible,
            steps,
            heartbeats,
            heartbeat_cycles,
            input_len,
            phi_scratch: _,
        } = self;
        let MachineConfig { threads: sim_threads, step_limit: _, fault, engine } = cfg;
        let spent = |plan: Option<FaultPlan>| plan.is_none_or(|p| p.index <= *eligible);
        std::ptr::eq(*prog, twin.prog)
            && *steps == twin.steps
            && *eligible == twin.eligible
            && (*fault == twin.cfg.fault || spent(*fault) && spent(twin.cfg.fault))
            && (*sim_threads, *engine) == (twin.cfg.threads, twin.cfg.engine)
            && (*heartbeats, *input_len) == (twin.heartbeats, twin.input_len)
            && *output == twin.output
            && *heartbeat_cycles == twin.heartbeat_cycles
            && threads.len() == twin.threads.len()
            && threads.iter().zip(&twin.threads).all(|(a, b)| a.state_matches(b))
            && *locks == twin.locks
            && *atomics == twin.atomics
            && *mem == twin.mem
            && *l3 == twin.l3
    }

    /// Aggregate result of the current invocation *without* consuming
    /// the machine (the output bytes are cloned). A resident machine
    /// uses this between [`Machine::reenter`] calls.
    pub fn result(&self, outcome: RunOutcome) -> RunResult {
        let mut counters = Counters::default();
        let mut cycles = 0;
        let mut thread_cycles = vec![];
        for t in &self.threads {
            counters.add(&t.core.counters());
            cycles = cycles.max(t.core.cycles());
            thread_cycles.push(t.core.cycles());
        }
        counters.corrections = self.corrections;
        RunResult {
            outcome,
            output: self.output.clone(),
            cycles,
            counters,
            corrections: self.corrections,
            eligible: self.eligible,
            steps: self.steps,
            thread_cycles,
            heartbeats: self.heartbeats,
            heartbeat_cycles: self.heartbeat_cycles.clone(),
        }
    }

    /// Consume the machine, producing the aggregate result.
    pub fn finish(mut self, outcome: RunOutcome) -> RunResult {
        // Move the output out first so `result` clones an empty vec.
        let output = std::mem::take(&mut self.output);
        let mut r = self.result(outcome);
        r.output = output;
        r
    }

    fn step_quantum(&mut self, t: usize) -> Result<(), Trap> {
        match self.cfg.engine {
            EngineKind::Reference => self.step_quantum_ref(t),
            EngineKind::Trace => self.step_quantum_trace(t),
        }
    }

    /// Reference engine: one pre-decoded instruction at a time.
    fn step_quantum_ref(&mut self, t: usize) -> Result<(), Trap> {
        for _ in 0..QUANTUM {
            if self.threads[t].state != TState::Ready {
                break;
            }
            self.step_inst(t)?;
        }
        Ok(())
    }

    /// Trace engine: enter a superblock at every block head, fall back
    /// to per-instruction stepping for untraceable ops and inside the
    /// fault-injection window. The quantum budget is shared between the
    /// two paths so the interleave with other threads is identical to
    /// the reference engine's.
    fn step_quantum_trace(&mut self, t: usize) -> Result<(), Trap> {
        let prog = self.prog;
        let mut budget = QUANTUM as usize;
        while budget > 0 {
            if self.threads[t].state != TState::Ready {
                break;
            }
            let (func, block, ip) = {
                let fr = self.threads[t].frames.last().expect("live thread has a frame");
                (fr.func, fr.block, fr.ip)
            };
            if ip == 0 {
                let tr = &prog.traces[func as usize][block as usize];
                if !tr.ops.is_empty() && self.trace_window_safe(tr) {
                    let used = self.exec_trace(t, tr, budget)?;
                    // `used == 0` means the first op is a fused pattern
                    // wider than the remaining budget: step through it
                    // per-instruction instead of spinning.
                    if used > 0 {
                        budget -= used;
                        continue;
                    }
                }
            }
            self.step_inst(t)?;
            budget -= 1;
        }
        Ok(())
    }

    /// May this trace be entered without missing the planned fault?
    /// The flip logic lives only in the per-instruction path
    /// ([`Machine::commit`]), so the trace executor refuses to run while
    /// the plan's index could fall inside the trace's write window.
    #[inline]
    fn trace_window_safe(&self, tr: &Trace) -> bool {
        match self.cfg.fault {
            None => true,
            Some(plan) => {
                !tr.hardened || plan.index <= self.eligible || plan.index > self.eligible + tr.writes
            }
        }
    }

    /// Execute up to `budget` reference-steps of `tr` on thread `t`.
    /// Returns the number of steps retired (0 when the first op is a
    /// fused pattern wider than the budget). Every op replays the
    /// reference handler's exact retire and write-back sequence, so
    /// cycles, counters and the eligible count stay bit-identical; the
    /// only differences are pre-resolved costs ([`crate::trace::Pc`]),
    /// whole-register kernels for full-width vector ops, and fused
    /// multi-step patterns that keep intermediates in registers while
    /// committing every intermediate slot exactly as the unfused
    /// sequence would.
    fn exec_trace(&mut self, t: usize, tr: &Trace, budget: usize) -> Result<usize, Trap> {
        let Machine { threads, mem, l3, steps, eligible, corrections, phi_scratch, .. } = self;
        let ThreadCtx { frames, core, sp, stack_limit, .. } = &mut threads[t];
        let fr = frames.last_mut().expect("live thread has a frame");
        let hardened = tr.hardened;
        let mut used = 0usize;

        // Write-back: advance the ip and commit the destination slot,
        // mirroring `commit` minus the flip (the entry guard keeps the
        // planned index outside this trace's window).
        macro_rules! put {
            ($dst:expr, $v:expr, $done:expr) => {{
                let dst = $dst;
                fr.ip += 1;
                if dst != NO_DST {
                    fr.slots[dst as usize] = $v;
                    fr.ready[dst as usize] = $done;
                    if hardened {
                        *eligible += 1;
                    }
                }
            }};
        }

        for op in &tr.ops {
            // Never start an op that cannot finish inside the quantum:
            // the per-instruction path picks up partial fused patterns.
            let w = op.weight();
            if used + w > budget {
                break;
            }
            used += w;
            // Counts the op's first reference-step; fused arms account
            // their remaining steps at the matching commit points.
            *steps += 1;
            match op {
                TOp::SBin { op, m, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let v = scalar_bin(*op, m, va.s(), vb.s())?;
                    put!(*dst, RtVal::S(v), done);
                }
                TOp::SCmp { m, pred, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let v = u64::from(scalar_cmp(*pred, m, va.s(), vb.s()));
                    put!(*dst, RtVal::S(v), done);
                }
                TOp::SCmpFused { m, pred, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    // Retires as half of the following jcc: free slot.
                    let done = ra.max(rb);
                    let v = u64::from(scalar_cmp(*pred, m, va.s(), vb.s()));
                    put!(*dst, RtVal::S(v), done);
                }
                TOp::SCast { op, from, to, pc, dst, a } => {
                    let (va, ra) = read_op(fr, a);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra]);
                    put!(*dst, RtVal::S(scalar_cast(*op, from, to, va.s())), done);
                }
                TOp::Gep { pc, dst, base, index, scale } => {
                    let (vb, rb) = read_op(fr, base);
                    let (vi, ri) = read_op(fr, index);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rb, ri]);
                    let addr = vb.s().wrapping_add((vi.s() as i64).wrapping_mul(i64::from(*scale)) as u64);
                    put!(*dst, RtVal::S(addr), done);
                }
                TOp::Sel { m, cond_scalar, pc, dst, cond, a, b } => {
                    let (vc, rc) = read_op(fr, cond);
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rc, ra, rb]);
                    let v = if *cond_scalar {
                        if vc.s() & 1 != 0 {
                            va
                        } else {
                            vb
                        }
                    } else {
                        RtVal::V(Ymm::blend(&vc.v(m), &va.v(m), &vb.v(m), m.width, m.lanes as usize))
                    };
                    put!(*dst, v, done);
                }
                TOp::Load { m, pc, dst, addr } => {
                    let (va, ra) = read_op(fr, addr);
                    let a = va.s();
                    let done = core.retire_mem_precosted(pc.cost, pc.avx, false, &[ra], a, l3);
                    let v = if m.scalar {
                        RtVal::S(mem.load(a, m.ebytes)? & m.fmask)
                    } else {
                        let eb = m.ebytes;
                        let mut y = Ymm::ZERO;
                        for i in 0..m.lanes as usize {
                            y.set_lane(m.width, i, mem.load(a + (i as u64) * u64::from(eb), eb)?);
                        }
                        RtVal::V(y)
                    };
                    put!(*dst, v, done);
                }
                TOp::Store { m, pc, val, addr } => {
                    let (vv, rv) = read_op(fr, val);
                    let (va, ra) = read_op(fr, addr);
                    let a = va.s();
                    core.retire_mem_precosted(pc.cost, pc.avx, true, &[rv, ra], a, l3);
                    if m.scalar {
                        mem.store(a, m.ebytes, vv.s())?;
                    } else {
                        let eb = m.ebytes;
                        let y = vv.v(m);
                        for i in 0..m.lanes as usize {
                            mem.store(a + (i as u64) * u64::from(eb), eb, y.lane(m.width, i))?;
                        }
                    }
                    fr.ip += 1;
                }
                TOp::Gather { m, pc, dst, addrs } => {
                    let (va, ra) = read_op(fr, addrs);
                    // §VII-B: hardware majority-votes the replicated
                    // address (pointers are always 4-way replicated).
                    let am = VMeta::ptr4();
                    let voted = vote(&va.v(&am), &am, corrections)?;
                    let done = core.retire_mem_precosted(pc.cost, pc.avx, false, &[ra], voted, l3);
                    let loaded = mem.load(voted, m.ebytes)? & m.fmask;
                    put!(*dst, RtVal::V(Ymm::splat(m.width, m.lanes as usize, loaded)), done);
                }
                TOp::Scatter { m, pc, val, addrs } => {
                    let (vv, rv) = read_op(fr, val);
                    let (va, ra) = read_op(fr, addrs);
                    let am = VMeta::ptr4();
                    let addr = vote(&va.v(&am), &am, corrections)?;
                    let value = vote(&vv.v(m), m, corrections)?;
                    core.retire_mem_precosted(pc.cost, pc.avx, true, &[rv, ra], addr, l3);
                    mem.store(addr, m.ebytes, value)?;
                    fr.ip += 1;
                }
                TOp::Alloca { pc, dst, elem_bytes, count } => {
                    let (vc, rc) = read_op(fr, count);
                    let size = (vc.s().saturating_mul(u64::from(*elem_bytes)) + 31) & !31;
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rc]);
                    let new_sp = sp.checked_sub(size).ok_or(Trap::StackOverflow)?;
                    if new_sp < *stack_limit {
                        return Err(Trap::StackOverflow);
                    }
                    *sp = new_sp;
                    put!(*dst, RtVal::S(new_sp), done);
                }
                TOp::VBinK { k, m, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let (ya, yb) = (va.v(m), vb.v(m));
                    let out = k.apply(ya.limbs_ref(), yb.limbs_ref());
                    put!(*dst, RtVal::V(Ymm::from_limbs(out)), done);
                }
                TOp::VBinL { op, m, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let (ya, yb) = (va.v(m), vb.v(m));
                    let mut r = Ymm::ZERO;
                    for i in 0..m.lanes as usize {
                        r.set_lane(m.width, i, scalar_bin(*op, m, ya.lane(m.width, i), yb.lane(m.width, i))?);
                    }
                    put!(*dst, RtVal::V(r), done);
                }
                TOp::VCmpK { k, m, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let (ya, yb) = (va.v(m), vb.v(m));
                    let out = k.apply(ya.limbs_ref(), yb.limbs_ref());
                    put!(*dst, RtVal::V(Ymm::from_limbs(out)), done);
                }
                TOp::VCmpL { pred, m, pc, dst, a, b } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra, rb]);
                    let (ya, yb) = (va.v(m), vb.v(m));
                    let v = RtVal::V(
                        ya.cmp_mask(&yb, m.width, m.lanes as usize, |x, y| scalar_cmp(*pred, m, x, y)),
                    );
                    put!(*dst, v, done);
                }
                TOp::VCast { op, from, to, pc, dst, a } => {
                    let (va, ra) = read_op(fr, a);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra]);
                    put!(*dst, vec_cast(*op, from, to, va), done);
                }
                TOp::Extract { m, pc, dst, vec, idx } => {
                    let (vv, rv) = read_op(fr, vec);
                    let (vi, ri) = read_op(fr, idx);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rv, ri]);
                    let lane = (vi.s() as usize) % (m.lanes as usize);
                    put!(*dst, RtVal::S(vv.v(m).lane(m.width, lane)), done);
                }
                TOp::Insert { m, pc, dst, vec, val, idx } => {
                    let (vv, rv) = read_op(fr, vec);
                    let (vx, rx) = read_op(fr, val);
                    let (vi, ri) = read_op(fr, idx);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rv, rx, ri]);
                    let lane = (vi.s() as usize) % (m.lanes as usize);
                    put!(*dst, RtVal::V(vv.v(m).with_lane(m.width, lane, vx.s())), done);
                }
                TOp::ShufRot { k, m, pc, dst, a } => {
                    let (va, ra) = read_op(fr, a);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra]);
                    let out = k.apply(va.v(m).limbs_ref());
                    put!(*dst, RtVal::V(Ymm::from_limbs(out)), done);
                }
                TOp::Shuf { m, pc, dst, a, mask } => {
                    let (va, ra) = read_op(fr, a);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra]);
                    put!(*dst, RtVal::V(va.v(m).shuffle(m.width, mask)), done);
                }
                TOp::Splat { m, full, pc, dst, val } => {
                    let (vv, rv) = read_op(fr, val);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rv]);
                    let v = if *full {
                        Ymm::broadcast(m.width, vv.s())
                    } else {
                        Ymm::splat(m.width, m.lanes as usize, vv.s())
                    };
                    put!(*dst, RtVal::V(v), done);
                }
                TOp::Ptest { m, full, pc, dst, mask } => {
                    let (vmask, rm) = read_op(fr, mask);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[rm]);
                    let code = if *full {
                        ptest_full(vmask.v(m).limbs_ref())
                    } else {
                        vmask.v(m).ptest(m.width, m.lanes as usize).code()
                    };
                    put!(*dst, RtVal::S(code), done);
                }
                TOp::Check8Br {
                    k,
                    m,
                    pc_shuf,
                    pc_xor,
                    pc_ptest,
                    d_shuf,
                    d_xor,
                    d_code,
                    a,
                    site,
                    bbs,
                    cont,
                } => {
                    // One read of the checked register feeds all three
                    // fused instructions; no intermediate slot reads.
                    let ya = fr.slots[*a as usize].v(m);
                    let ra = fr.ready[*a as usize];
                    let r1 = core.retire_precosted(pc_shuf.cost, pc_shuf.avx, &[ra]);
                    let rot = k.apply(ya.limbs_ref());
                    put!(*d_shuf, RtVal::V(Ymm::from_limbs(rot)), r1);
                    *steps += 1;
                    let r2 = core.retire_precosted(pc_xor.cost, pc_xor.avx, &[ra, r1]);
                    let x = BinKernel::Xor.apply(ya.limbs_ref(), &rot);
                    put!(*d_xor, RtVal::V(Ymm::from_limbs(x)), r2);
                    *steps += 1;
                    let r3 = core.retire_precosted(pc_ptest.cost, pc_ptest.avx, &[r2]);
                    let code = ptest_full(&x) as usize;
                    put!(*d_code, RtVal::S(code as u64), r3);
                    *steps += 1;
                    core.retire_branch(site << 1, code == 0, &[r3]);
                    if code != 0 && bbs[2] != bbs[1] && bbs[2] != bbs[0] {
                        core.retire_branch((site << 1) | 1, code == 1, &[r3]);
                    }
                    apply_edge(fr, phi_scratch, bbs[code]);
                    // The trace's remaining ops (if any) belong to the
                    // `cont` target; any other exit leaves the trace.
                    if bbs[code] != *cont {
                        return Ok(used);
                    }
                }
                TOp::CmpCheckBr { k, m, pc_cmp, pc_ptest, d_mask, d_code, a, b, site, bbs, cont } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let r1 = core.retire_precosted(pc_cmp.cost, pc_cmp.avx, &[ra, rb]);
                    let mask = k.apply(va.v(m).limbs_ref(), vb.v(m).limbs_ref());
                    put!(*d_mask, RtVal::V(Ymm::from_limbs(mask)), r1);
                    *steps += 1;
                    let r2 = core.retire_precosted(pc_ptest.cost, pc_ptest.avx, &[r1]);
                    let code = ptest_full(&mask) as usize;
                    put!(*d_code, RtVal::S(code as u64), r2);
                    *steps += 1;
                    core.retire_branch(site << 1, code == 0, &[r2]);
                    if code != 0 && bbs[2] != bbs[1] && bbs[2] != bbs[0] {
                        core.retire_branch((site << 1) | 1, code == 1, &[r2]);
                    }
                    apply_edge(fr, phi_scratch, bbs[code]);
                    // The trace's remaining ops (if any) belong to the
                    // `cont` target; any other exit leaves the trace.
                    if bbs[code] != *cont {
                        return Ok(used);
                    }
                }
                TOp::ExtractLoadSplat {
                    em,
                    lm,
                    sm,
                    full,
                    pc_ex,
                    pc_ld,
                    pc_sp,
                    d_lane,
                    d_val,
                    d_vec,
                    vec,
                    idx,
                } => {
                    let (vv, rv) = read_op(fr, vec);
                    let (vi, ri) = read_op(fr, idx);
                    let r1 = core.retire_precosted(pc_ex.cost, pc_ex.avx, &[rv, ri]);
                    let lane = (vi.s() as usize) % (em.lanes as usize);
                    let addr = vv.v(em).lane(em.width, lane);
                    put!(*d_lane, RtVal::S(addr), r1);
                    *steps += 1;
                    let r2 = core.retire_mem_precosted(pc_ld.cost, pc_ld.avx, false, &[r1], addr, l3);
                    let loaded = mem.load(addr, lm.ebytes)? & lm.fmask;
                    put!(*d_val, RtVal::S(loaded), r2);
                    *steps += 1;
                    let r3 = core.retire_precosted(pc_sp.cost, pc_sp.avx, &[r2]);
                    let y = if *full {
                        Ymm::broadcast(sm.width, loaded)
                    } else {
                        Ymm::splat(sm.width, sm.lanes as usize, loaded)
                    };
                    put!(*d_vec, RtVal::V(y), r3);
                }
                TOp::ExtractStore { em, sm, pc_ex, pc_st, d_lane, vec, idx, val } => {
                    let (vv, rv) = read_op(fr, vec);
                    let (vi, ri) = read_op(fr, idx);
                    let r1 = core.retire_precosted(pc_ex.cost, pc_ex.avx, &[rv, ri]);
                    let lane = (vi.s() as usize) % (em.lanes as usize);
                    let addr = vv.v(em).lane(em.width, lane);
                    put!(*d_lane, RtVal::S(addr), r1);
                    *steps += 1;
                    // The store may read the just-committed extract.
                    let (vs, rs) = read_op(fr, val);
                    core.retire_mem_precosted(pc_st.cost, pc_st.avx, true, &[rs, r1], addr, l3);
                    mem.store(addr, sm.ebytes, vs.s())?;
                    fr.ip += 1;
                }
                TOp::VBin2K { k1, k2, m1, m2, pc1, pc2, d1, d2, a, b, o, swapped } => {
                    let (va, ra) = read_op(fr, a);
                    let (vb, rb) = read_op(fr, b);
                    let r1 = core.retire_precosted(pc1.cost, pc1.avx, &[ra, rb]);
                    let out1 = k1.apply(va.v(m1).limbs_ref(), vb.v(m1).limbs_ref());
                    put!(*d1, RtVal::V(Ymm::from_limbs(out1)), r1);
                    *steps += 1;
                    let (vo, ro) = read_op(fr, o);
                    let r2 = core.retire_precosted(pc2.cost, pc2.avx, &[r1, ro]);
                    let yo = vo.v(m2);
                    let out2 = if *swapped {
                        k2.apply(yo.limbs_ref(), &out1)
                    } else {
                        k2.apply(&out1, yo.limbs_ref())
                    };
                    put!(*d2, RtVal::V(Ymm::from_limbs(out2)), r2);
                }
                TOp::VCastId { m, pc, dst, a } => {
                    let (va, ra) = read_op(fr, a);
                    let done = core.retire_precosted(pc.cost, pc.avx, &[ra]);
                    put!(*dst, RtVal::V(va.v(m)), done);
                }
                TOp::VCast2Id { m1, pc1, pc2, d1, d2, a, .. } => {
                    let (va, ra) = read_op(fr, a);
                    let r1 = core.retire_precosted(pc1.cost, pc1.avx, &[ra]);
                    let y = va.v(m1);
                    put!(*d1, RtVal::V(y), r1);
                    *steps += 1;
                    let r2 = core.retire_precosted(pc2.cost, pc2.avx, &[r1]);
                    put!(*d2, RtVal::V(y), r2);
                }
                TOp::CastBinK { k, cm, bm, pc_c, pc_b, d1, d2, a, o, swapped } => {
                    let (va, ra) = read_op(fr, a);
                    let r1 = core.retire_precosted(pc_c.cost, pc_c.avx, &[ra]);
                    let y = va.v(cm);
                    put!(*d1, RtVal::V(y), r1);
                    *steps += 1;
                    let (vo, ro) = read_op(fr, o);
                    let r2 = core.retire_precosted(pc_b.cost, pc_b.avx, &[r1, ro]);
                    let yo = vo.v(bm);
                    let out = if *swapped {
                        k.apply(yo.limbs_ref(), y.limbs_ref())
                    } else {
                        k.apply(y.limbs_ref(), yo.limbs_ref())
                    };
                    put!(*d2, RtVal::V(Ymm::from_limbs(out)), r2);
                }
                TOp::Jump { target } => {
                    core.retire_jump();
                    apply_edge(fr, phi_scratch, *target);
                }
                TOp::CondBr { site, cond, t: tb, f: fb } => {
                    let (v, r) = read_op(fr, cond);
                    let taken = v.s() & 1 != 0;
                    core.retire_branch(*site, taken, &[r]);
                    apply_edge(fr, phi_scratch, if taken { *tb } else { *fb });
                    return Ok(used);
                }
                TOp::PtestBr { site, flags, m, bbs, cont } => {
                    let (v, r) = read_op(fr, flags);
                    let code = match m {
                        None => v.s().min(2) as usize,
                        Some(m) => v.v(m).ptest(m.width, m.lanes as usize).code() as usize,
                    };
                    core.retire_branch(site << 1, code == 0, &[r]);
                    if code != 0 && bbs[2] != bbs[1] && bbs[2] != bbs[0] {
                        core.retire_branch((site << 1) | 1, code == 1, &[r]);
                    }
                    apply_edge(fr, phi_scratch, bbs[code]);
                    // The trace's remaining ops (if any) belong to the
                    // `cont` target; any other exit leaves the trace.
                    if bbs[code] != *cont {
                        return Ok(used);
                    }
                }
            }
        }
        Ok(used)
    }

    #[inline]
    fn step_inst(&mut self, t: usize) -> Result<(), Trap> {
        // The frame caches `&'p` references into the lowered program, so
        // fetching the next instruction is one slice index — no
        // re-derivation through `prog.funcs[f].blocks[b]`.
        let (insts, term, hardened, func_idx, block_idx, ip) = {
            let fr = self.threads[t].frames.last().expect("live thread has a frame");
            (fr.insts, fr.term, fr.lf.hardened, fr.func, fr.block, fr.ip)
        };
        self.steps += 1;
        if (ip as usize) < insts.len() {
            self.exec_inst(t, hardened, &insts[ip as usize])
        } else {
            self.exec_term(t, func_idx, block_idx, term)
        }
    }

    /// Transition the current frame to `target`, evaluating its phis.
    fn take_edge(&mut self, t: usize, target: u32) {
        apply_edge(self.threads[t].frames.last_mut().expect("frame"), &mut self.phi_scratch, target);
    }

    fn exec_term(&mut self, t: usize, func_idx: u32, block_idx: u32, term: &LTerm) -> Result<(), Trap> {
        let site = (u64::from(func_idx) << 16) | u64::from(block_idx);
        match term {
            LTerm::Br(target) => {
                self.threads[t].core.retire_jump();
                self.take_edge(t, *target);
                Ok(())
            }
            LTerm::CondBr { cond, t: tb, f: fb } => {
                let th = &mut self.threads[t];
                let fr = th.frames.last().expect("frame");
                let (v, r) = read_op(fr, cond);
                let taken = v.s() & 1 != 0;
                th.core.retire_branch(site, taken, &[r]);
                self.take_edge(t, if taken { *tb } else { *fb });
                Ok(())
            }
            LTerm::PtestBr { flags, mask_meta, bbs } => {
                let th = &mut self.threads[t];
                let fr = th.frames.last().expect("frame");
                let (v, r) = read_op(fr, flags);
                let code = match mask_meta {
                    None => v.s().min(2) as usize,
                    Some(m) => v.v(m).ptest(m.width, m.lanes as usize).code() as usize,
                };
                // A three-outcome ptest branch is a cascade of two x86
                // conditional jumps (Figure 9: `je` then `ja`). When the
                // mixed outcome aliases a regular target (branch checks
                // disabled), the cascade collapses to a single jcc.
                th.core.retire_branch(site << 1, code == 0, &[r]);
                if code != 0 && bbs[2] != bbs[1] && bbs[2] != bbs[0] {
                    th.core.retire_branch((site << 1) | 1, code == 1, &[r]);
                }
                self.take_edge(t, bbs[code]);
                Ok(())
            }
            LTerm::Ret(val) => {
                let th = &mut self.threads[t];
                let ret = {
                    let fr = th.frames.last().expect("frame");
                    val.as_ref().map(|o| read_op(fr, o))
                };
                let done = th.core.retire(InstClass::Call, &[ret.map(|(_, r)| r).unwrap_or(0)]);
                let fr = th.frames.pop().expect("frame");
                th.sp = fr.sp_save;
                if th.frames.is_empty() {
                    th.result = ret.map(|(v, _)| v.s()).unwrap_or(0);
                    th.state = TState::Done;
                } else if fr.ret_dst != NO_DST {
                    let caller = th.frames.last_mut().expect("caller");
                    let v = ret.map(|(v, _)| v).unwrap_or(RtVal::S(0));
                    caller.slots[fr.ret_dst as usize] = v;
                    caller.ready[fr.ret_dst as usize] = done;
                }
                Ok(())
            }
            LTerm::Unreachable => Err(Trap::Unreachable),
        }
    }

    /// Dispatch one instruction to its pre-decoded handler group. The
    /// discriminant (and the cost class each handler charges) was
    /// resolved at lower time, so the hot path does no re-derivation.
    #[inline]
    fn exec_inst(&mut self, t: usize, hardened: bool, inst: &LInst) -> Result<(), Trap> {
        let out = match inst.group {
            DGroup::ScalarAlu => self.exec_scalar_alu(t, inst)?,
            DGroup::VecAlu => self.exec_vec_alu(t, inst)?,
            DGroup::Mem => self.exec_mem(t, inst)?,
            DGroup::Control => return self.exec_control(t, inst),
            DGroup::Builtin => {
                let LKind::CallB { b, args, metas, dst, ret_meta } = &inst.kind else {
                    unreachable!("builtin group holds only CallB")
                };
                self.exec_simple_builtin(t, *b, args, metas, *dst, ret_meta.as_ref())?;
                self.advance_ip(t);
                self.post_write(t, hardened, *dst, ret_meta.as_ref().map(|m| m.bound).unwrap_or(64));
                return Ok(());
            }
        };
        self.commit(t, hardened, out);
        Ok(())
    }

    /// Write back a handler's result: destination slot, instruction
    /// pointer, and fault-injection accounting — one frame borrow for
    /// all three.
    #[inline]
    fn commit(&mut self, t: usize, hardened: bool, out: Option<(u32, RtVal, u64, u32)>) {
        let fault = self.cfg.fault;
        let eligible = &mut self.eligible;
        let fr = self.threads[t].frames.last_mut().expect("frame");
        fr.ip += 1;
        if let Some((dst, v, ready, bit_bound)) = out {
            if dst != NO_DST {
                fr.slots[dst as usize] = v;
                fr.ready[dst as usize] = ready;
                if hardened {
                    *eligible += 1;
                    if let Some(plan) = fault {
                        if *eligible == plan.index {
                            fr.slots[dst as usize] = flip(v, plan.bit, bit_bound);
                        }
                    }
                }
            }
        }
    }

    /// GPR-domain compute: scalar bin/cmp/cast/select and address math.
    fn exec_scalar_alu(&mut self, t: usize, inst: &LInst) -> Result<Option<(u32, RtVal, u64, u32)>, Trap> {
        let th = &mut self.threads[t];
        let fr = th.frames.last_mut().expect("frame");
        let core = &mut th.core;
        Ok(match &inst.kind {
            LKind::Bin { op, m, dst, a, b } => {
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = core.retire(inst.class, &[ra, rb]);
                Some((*dst, RtVal::S(scalar_bin(*op, m, va.s(), vb.s())?), done, 64))
            }
            LKind::Cmp { pred, m, dst, a, b, fused } => {
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = if *fused {
                    // Retires as half of the following jcc: free slot.
                    ra.max(rb)
                } else {
                    core.retire(inst.class, &[ra, rb])
                };
                Some((*dst, RtVal::S(u64::from(scalar_cmp(*pred, m, va.s(), vb.s()))), done, 64))
            }
            LKind::Cast { op, from, to, dst, a } => {
                let (va, ra) = read_op(fr, a);
                let done = core.retire(inst.class, &[ra]);
                Some((*dst, RtVal::S(scalar_cast(*op, from, to, va.s())), done, 64))
            }
            LKind::Select { m, cond_scalar, dst, cond, a, b } => {
                let (vc, rc) = read_op(fr, cond);
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = core.retire(inst.class, &[rc, ra, rb]);
                let v = if *cond_scalar {
                    if vc.s() & 1 != 0 {
                        va
                    } else {
                        vb
                    }
                } else {
                    RtVal::V(Ymm::blend(&vc.v(m), &va.v(m), &vb.v(m), m.width, m.lanes as usize))
                };
                Some((*dst, v, done, m.bound))
            }
            LKind::Gep { dst, base, index, scale } => {
                let (vb, rb) = read_op(fr, base);
                let (vi, ri) = read_op(fr, index);
                let done = core.retire(inst.class, &[rb, ri]);
                let addr = vb.s().wrapping_add((vi.s() as i64).wrapping_mul(i64::from(*scale)) as u64);
                Some((*dst, RtVal::S(addr), done, 64))
            }
            _ => unreachable!("not a scalar-ALU instruction"),
        })
    }

    /// YMM-domain compute: vector bin/cmp/cast/select and lane ops.
    fn exec_vec_alu(&mut self, t: usize, inst: &LInst) -> Result<Option<(u32, RtVal, u64, u32)>, Trap> {
        let th = &mut self.threads[t];
        let fr = th.frames.last_mut().expect("frame");
        let core = &mut th.core;
        Ok(match &inst.kind {
            LKind::Bin { op, m, dst, a, b } => {
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = core.retire(inst.class, &[ra, rb]);
                let (ya, yb) = (va.v(m), vb.v(m));
                let mut r = Ymm::ZERO;
                for i in 0..m.lanes as usize {
                    r.set_lane(m.width, i, scalar_bin(*op, m, ya.lane(m.width, i), yb.lane(m.width, i))?);
                }
                Some((*dst, RtVal::V(r), done, m.bound))
            }
            LKind::Cmp { pred, m, dst, a, b, fused } => {
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = if *fused { ra.max(rb) } else { core.retire(inst.class, &[ra, rb]) };
                let (ya, yb) = (va.v(m), vb.v(m));
                let v =
                    RtVal::V(ya.cmp_mask(&yb, m.width, m.lanes as usize, |x, y| scalar_cmp(*pred, m, x, y)));
                Some((*dst, v, done, m.bound))
            }
            LKind::Cast { op, from, to, dst, a } => {
                let (va, ra) = read_op(fr, a);
                let done = core.retire(inst.class, &[ra]);
                Some((*dst, vec_cast(*op, from, to, va), done, to.bound))
            }
            LKind::Select { m, cond_scalar, dst, cond, a, b } => {
                let (vc, rc) = read_op(fr, cond);
                let (va, ra) = read_op(fr, a);
                let (vb, rb) = read_op(fr, b);
                let done = core.retire(inst.class, &[rc, ra, rb]);
                let v = if *cond_scalar {
                    if vc.s() & 1 != 0 {
                        va
                    } else {
                        vb
                    }
                } else {
                    RtVal::V(Ymm::blend(&vc.v(m), &va.v(m), &vb.v(m), m.width, m.lanes as usize))
                };
                Some((*dst, v, done, m.bound))
            }
            LKind::Extract { m, dst, vec, idx } => {
                let (vv, rv) = read_op(fr, vec);
                let (vi, ri) = read_op(fr, idx);
                let done = core.retire(inst.class, &[rv, ri]);
                let lane = (vi.s() as usize) % (m.lanes as usize);
                Some((*dst, RtVal::S(vv.v(m).lane(m.width, lane)), done, 64))
            }
            LKind::Insert { m, dst, vec, val, idx } => {
                let (vv, rv) = read_op(fr, vec);
                let (vx, rx) = read_op(fr, val);
                let (vi, ri) = read_op(fr, idx);
                let done = core.retire(inst.class, &[rv, rx, ri]);
                let lane = (vi.s() as usize) % (m.lanes as usize);
                Some((*dst, RtVal::V(vv.v(m).with_lane(m.width, lane, vx.s())), done, m.bound))
            }
            LKind::Shuffle { m, dst, a, mask } => {
                let (va, ra) = read_op(fr, a);
                let done = core.retire(inst.class, &[ra]);
                Some((*dst, RtVal::V(va.v(m).shuffle(m.width, mask)), done, m.bound))
            }
            LKind::Splat { m, dst, val } => {
                let (vv, rv) = read_op(fr, val);
                let done = core.retire(inst.class, &[rv]);
                Some((*dst, RtVal::V(Ymm::splat(m.width, m.lanes as usize, vv.s())), done, m.bound))
            }
            LKind::Ptest { m, dst, mask } => {
                let (vm, rm) = read_op(fr, mask);
                let done = core.retire(inst.class, &[rm]);
                let code = vm.v(m).ptest(m.width, m.lanes as usize).code();
                Some((*dst, RtVal::S(code), done, 8))
            }
            _ => unreachable!("not a vector-ALU instruction"),
        })
    }

    /// Memory traffic: loads, stores, gathers, scatters, atomics,
    /// fences, stack allocation.
    fn exec_mem(&mut self, t: usize, inst: &LInst) -> Result<Option<(u32, RtVal, u64, u32)>, Trap> {
        // Stack allocation adjusts the thread's stack pointer, which the
        // common borrows below would conflict with — handle it first.
        if let LKind::Alloca { dst, elem_bytes, count } = &inst.kind {
            let th = &mut self.threads[t];
            let (vc, rc) = read_op(th.frames.last().expect("frame"), count);
            let size = (vc.s().saturating_mul(u64::from(*elem_bytes)) + 31) & !31;
            let done = th.core.retire(inst.class, &[rc]);
            let new_sp = th.sp.checked_sub(size).ok_or(Trap::StackOverflow)?;
            if new_sp < th.stack_limit {
                return Err(Trap::StackOverflow);
            }
            th.sp = new_sp;
            return Ok(Some((*dst, RtVal::S(new_sp), done, 64)));
        }
        let th = &mut self.threads[t];
        let fr = th.frames.last_mut().expect("frame");
        let core = &mut th.core;
        Ok(match &inst.kind {
            LKind::Load { m, dst, addr } => {
                let (va, ra) = read_op(fr, addr);
                let a = va.s();
                let done = core.retire_mem(inst.class, &[ra], a, &mut self.l3);
                let v = if m.scalar {
                    RtVal::S(self.mem.load(a, m.ebytes)? & m.fmask)
                } else {
                    let eb = m.ebytes;
                    let mut y = Ymm::ZERO;
                    for i in 0..m.lanes as usize {
                        y.set_lane(m.width, i, self.mem.load(a + (i as u64) * u64::from(eb), eb)?);
                    }
                    RtVal::V(y)
                };
                Some((*dst, v, done, m.bound))
            }
            LKind::Store { m, val, addr } => {
                let (vv, rv) = read_op(fr, val);
                let (va, ra) = read_op(fr, addr);
                let a = va.s();
                core.retire_mem(inst.class, &[rv, ra], a, &mut self.l3);
                if m.scalar {
                    self.mem.store(a, m.ebytes, vv.s())?;
                } else {
                    let eb = m.ebytes;
                    let y = vv.v(m);
                    for i in 0..m.lanes as usize {
                        self.mem.store(a + (i as u64) * u64::from(eb), eb, y.lane(m.width, i))?;
                    }
                }
                None
            }
            LKind::Gather { m, dst, addrs } => {
                let (va, ra) = read_op(fr, addrs);
                // §VII-B: hardware majority-votes the replicated address
                // (pointers are always 4-way replicated).
                let am = VMeta::ptr4();
                let voted = vote(&va.v(&am), &am, &mut self.corrections)?;
                let done = core.retire_mem(inst.class, &[ra], voted, &mut self.l3);
                let loaded = self.mem.load(voted, m.ebytes)? & m.fmask;
                Some((*dst, RtVal::V(Ymm::splat(m.width, m.lanes as usize, loaded)), done, m.bound))
            }
            LKind::Scatter { m, val, addrs } => {
                let (vv, rv) = read_op(fr, val);
                let (va, ra) = read_op(fr, addrs);
                let am = VMeta::ptr4();
                let addr = vote(&va.v(&am), &am, &mut self.corrections)?;
                let value = vote(&vv.v(m), m, &mut self.corrections)?;
                core.retire_mem(inst.class, &[rv, ra], addr, &mut self.l3);
                self.mem.store(addr, m.ebytes, value)?;
                None
            }
            LKind::AtomicRmw { op, m, dst, addr, val } => {
                let (va, ra) = read_op(fr, addr);
                let (vv, rv) = read_op(fr, val);
                let a = va.s();
                let key = a & !63;
                if let Some((owner, done)) = self.atomics.get(key) {
                    if owner != t as u32 {
                        core.advance_to(done);
                    }
                }
                let done = core.retire_mem(inst.class, &[ra, rv], a, &mut self.l3);
                self.atomics.insert(key, (t as u32, done));
                let old = self.mem.load(a, m.ebytes)? & m.mask;
                let new = rmw(*op, m, old, vv.s());
                self.mem.store(a, m.ebytes, new)?;
                Some((*dst, RtVal::S(old), done, 64))
            }
            LKind::CmpXchg { m, dst, addr, expected, new } => {
                let (va, ra) = read_op(fr, addr);
                let (ve, re) = read_op(fr, expected);
                let (vn, rn) = read_op(fr, new);
                let a = va.s();
                let key = a & !63;
                if let Some((owner, done)) = self.atomics.get(key) {
                    if owner != t as u32 {
                        core.advance_to(done);
                    }
                }
                let done = core.retire_mem(inst.class, &[ra, re, rn], a, &mut self.l3);
                self.atomics.insert(key, (t as u32, done));
                let old = self.mem.load(a, m.ebytes)? & m.mask;
                if old == ve.s() & m.mask {
                    self.mem.store(a, m.ebytes, vn.s() & m.mask)?;
                }
                Some((*dst, RtVal::S(old), done, 64))
            }
            LKind::Fence => {
                core.retire(inst.class, &[]);
                None
            }
            _ => unreachable!("not a memory instruction"),
        })
    }

    /// Control transfers: direct calls and thread-management builtins.
    fn exec_control(&mut self, t: usize, inst: &LInst) -> Result<(), Trap> {
        match &inst.kind {
            LKind::CallF { func, args, dst } => self.exec_call(t, *func, args, *dst),
            LKind::CallB { .. } => self.exec_thread_builtin(t, inst),
            _ => unreachable!("not a control instruction"),
        }
    }

    fn advance_ip(&mut self, t: usize) {
        self.threads[t].frames.last_mut().expect("frame").ip += 1;
    }

    /// Eligibility accounting + planned fault injection on the value just
    /// written to `dst`.
    fn post_write(&mut self, t: usize, hardened: bool, dst: u32, bit_bound: u32) {
        if !hardened || dst == NO_DST {
            return;
        }
        self.eligible += 1;
        if let Some(plan) = self.cfg.fault {
            if self.eligible == plan.index {
                let fr = self.threads[t].frames.last_mut().expect("frame");
                let cur = fr.slots[dst as usize];
                fr.slots[dst as usize] = flip(cur, plan.bit, bit_bound);
            }
        }
    }

    fn exec_call(&mut self, t: usize, func: u32, args: &[LOp], dst: u32) -> Result<(), Trap> {
        let prog = self.prog;
        if func as usize >= prog.funcs.len() {
            return Err(Trap::BadFunction);
        }
        let th = &mut self.threads[t];
        if th.frames.len() >= CALL_DEPTH_LIMIT {
            return Err(Trap::CallDepth);
        }
        let callee: &'p crate::lower::LFunc = &prog.funcs[func as usize];
        let mut slots = vec![RtVal::S(0); callee.n_slots as usize];
        let mut ready = vec![0u64; callee.n_slots as usize];
        let mut deps = 0u64;
        {
            let fr = th.frames.last().expect("frame");
            for (i, a) in args.iter().enumerate().take(callee.n_params as usize) {
                let (v, r) = read_op(fr, a);
                slots[i] = v;
                ready[i] = r;
                deps = deps.max(r);
            }
        }
        let done = th.core.retire(InstClass::Call, &[deps]);
        for r in ready.iter_mut().take(callee.n_params as usize) {
            *r = (*r).max(done);
        }
        th.frames.last_mut().expect("frame").ip += 1;
        th.frames.push(Frame {
            func,
            block: 0,
            prev_block: 0,
            ip: 0,
            slots,
            ready,
            ret_dst: dst,
            sp_save: th.sp,
            lf: callee,
            insts: &callee.blocks[0].insts,
            term: &callee.blocks[0].term,
        });
        Ok(())
    }

    /// Spawn / join / lock / unlock — builtins that manipulate threads.
    fn exec_thread_builtin(&mut self, t: usize, inst: &LInst) -> Result<(), Trap> {
        let LKind::CallB { b, args, dst, .. } = &inst.kind else { unreachable!() };
        // Read args with an immutable borrow first.
        let vals: Vec<(u64, u64)> = {
            let fr = self.threads[t].frames.last().expect("frame");
            args.iter()
                .map(|a| {
                    let (v, r) = read_op(fr, a);
                    (v.s(), r)
                })
                .collect()
        };
        match b {
            Builtin::Spawn => {
                let func = vals.first().map(|v| v.0).unwrap_or(u64::MAX) as u32;
                let arg = vals.get(1).map(|v| v.0).unwrap_or(0);
                let start = self.threads[t].core.cycles() + SPAWN_COST;
                let tid = self.spawn(func, arg, start)?;
                let th = &mut self.threads[t];
                let done = th.core.retire(InstClass::LibCall, &[vals[0].1]);
                let fr = th.frames.last_mut().expect("frame");
                if *dst != NO_DST {
                    fr.slots[*dst as usize] = RtVal::S(u64::from(tid));
                    fr.ready[*dst as usize] = done;
                }
                fr.ip += 1;
                Ok(())
            }
            Builtin::Join => {
                let target = vals.first().map(|v| v.0).unwrap_or(u64::MAX) as usize;
                if target >= self.threads.len() || target == t {
                    return Err(Trap::BadFunction);
                }
                if self.threads[target].state == TState::Done {
                    let child_cycles = self.threads[target].core.cycles();
                    let result = self.threads[target].result;
                    let th = &mut self.threads[t];
                    th.core.advance_to(child_cycles + JOIN_COST);
                    let done = th.core.retire(InstClass::LibCall, &[vals[0].1]);
                    let fr = th.frames.last_mut().expect("frame");
                    if *dst != NO_DST {
                        fr.slots[*dst as usize] = RtVal::S(result);
                        fr.ready[*dst as usize] = done;
                    }
                    fr.ip += 1;
                } else {
                    // Re-execute the join once the child finishes.
                    self.steps -= 1;
                    self.threads[t].state = TState::BlockedJoin(target as u32);
                }
                Ok(())
            }
            Builtin::Lock => {
                let addr = vals.first().map(|v| v.0).unwrap_or(0);
                let own_cycles = self.threads[t].core.cycles();
                let entry = self.locks.entry_mut(addr);
                if entry.owner.is_none() {
                    entry.owner = Some(t as u32);
                    let release = entry.release;
                    let th = &mut self.threads[t];
                    th.core.advance_to(own_cycles.max(release) + LOCK_COST);
                    th.core.retire_mem(InstClass::Atomic, &[vals[0].1], addr, &mut self.l3);
                    th.frames.last_mut().expect("frame").ip += 1;
                } else {
                    entry.waiters.push_back(t as u32);
                    self.steps -= 1;
                    self.threads[t].state = TState::BlockedLock(addr);
                }
                Ok(())
            }
            Builtin::Unlock => {
                let addr = vals.first().map(|v| v.0).unwrap_or(0);
                let own_cycles = {
                    let th = &mut self.threads[t];
                    th.core.retire_mem(InstClass::Atomic, &[vals[0].1], addr, &mut self.l3);
                    th.frames.last_mut().expect("frame").ip += 1;
                    th.core.cycles()
                };
                if let Some(entry) = self.locks.get_mut(addr) {
                    if entry.owner == Some(t as u32) {
                        entry.owner = None;
                        entry.release = entry.release.max(own_cycles);
                        if let Some(w) = entry.waiters.pop_front() {
                            self.threads[w as usize].state = TState::Ready;
                        }
                    }
                }
                Ok(())
            }
            _ => unreachable!("not a thread builtin"),
        }
    }

    /// Builtins that only need memory / output / math.
    #[allow(clippy::too_many_arguments)]
    fn exec_simple_builtin(
        &mut self,
        t: usize,
        b: Builtin,
        args: &[LOp],
        metas: &[VMeta],
        dst: u32,
        _ret_meta: Option<&VMeta>,
    ) -> Result<(), Trap> {
        let th = &mut self.threads[t];
        let fr = th.frames.last_mut().expect("frame");
        let core = &mut th.core;
        // Evaluate arguments.
        let mut vals: [RtVal; 4] = [RtVal::S(0); 4];
        let mut readys: [u64; 4] = [0; 4];
        for (i, a) in args.iter().enumerate().take(4) {
            let (v, r) = read_op(fr, a);
            vals[i] = v;
            readys[i] = r;
        }
        let deps = readys.iter().copied().max().unwrap_or(0);
        let (v, done): (RtVal, u64) = match b {
            Builtin::Malloc => {
                let p = self.mem.malloc(vals[0].s())?;
                (RtVal::S(p), core.retire(InstClass::LibCall, &[deps]) + MALLOC_COST)
            }
            Builtin::Free => (RtVal::S(0), core.retire(InstClass::LibCall, &[deps])),
            Builtin::Memcpy => {
                let (d, s, n) = (vals[0].s(), vals[1].s(), vals[2].s());
                let mut last = core.retire(InstClass::LibCall, &[deps]);
                let mut off = 0;
                while off < n {
                    core.retire_mem(InstClass::VecLoad, &[], s + off, &mut self.l3);
                    last = core.retire_mem(InstClass::VecStore, &[], d + off, &mut self.l3);
                    off += 64;
                }
                self.mem.copy(d, s, n)?;
                (RtVal::S(0), last)
            }
            Builtin::Memset => {
                let (d, byte, n) = (vals[0].s(), vals[1].s(), vals[2].s());
                let mut last = core.retire(InstClass::LibCall, &[deps]);
                let mut off = 0;
                while off < n {
                    last = core.retire_mem(InstClass::VecStore, &[], d + off, &mut self.l3);
                    off += 64;
                }
                self.mem.fill(d, byte as u8, n)?;
                (RtVal::S(0), last)
            }
            Builtin::Memcmp => {
                let (a, bb, n) = (vals[0].s(), vals[1].s(), vals[2].s());
                let mut last = core.retire(InstClass::LibCall, &[deps]);
                let mut off = 0;
                while off < n {
                    core.retire_mem(InstClass::VecLoad, &[], a + off, &mut self.l3);
                    last = core.retire_mem(InstClass::VecLoad, &[], bb + off, &mut self.l3);
                    off += 64;
                }
                let r = match self.mem.cmp_ranges(a, bb, n)? {
                    std::cmp::Ordering::Less => -1i64,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                (RtVal::S(r as u64), last)
            }
            Builtin::Output => {
                let (p, n) = (vals[0].s(), vals[1].s());
                self.mem.read_into(&mut self.output, p, n)?;
                (RtVal::S(0), core.retire(InstClass::LibCall, &[deps]))
            }
            Builtin::OutputI64 => {
                self.output.extend_from_slice(&vals[0].s().to_le_bytes());
                (RtVal::S(0), core.retire(InstClass::LibCall, &[deps]))
            }
            Builtin::OutputF64 => {
                self.output.extend_from_slice(&vals[0].s().to_le_bytes());
                (RtVal::S(0), core.retire(InstClass::LibCall, &[deps]))
            }
            Builtin::Sqrt => {
                let x = f64::from_bits(vals[0].s());
                (RtVal::S(x.sqrt().to_bits()), core.retire(InstClass::ScalarFpDiv, &[deps]))
            }
            Builtin::Fabs => {
                let x = f64::from_bits(vals[0].s());
                (RtVal::S(x.abs().to_bits()), core.retire(InstClass::ScalarFpAdd, &[deps]))
            }
            Builtin::Exp | Builtin::Log | Builtin::Pow | Builtin::Sin | Builtin::Cos | Builtin::Erf => {
                let x = f64::from_bits(vals[0].s());
                let y = f64::from_bits(vals[1].s());
                let r = match b {
                    Builtin::Exp => x.exp(),
                    Builtin::Log => x.ln(),
                    Builtin::Pow => x.powf(y),
                    Builtin::Sin => x.sin(),
                    Builtin::Cos => x.cos(),
                    Builtin::Erf => erf(x),
                    _ => unreachable!(),
                };
                // libm cost: a ~10-op dependent FP chain.
                let mut ready = deps;
                for _ in 0..10 {
                    ready = core.retire(InstClass::ScalarFpMul, &[ready]);
                }
                (RtVal::S(r.to_bits()), ready)
            }
            Builtin::InputPtr => (RtVal::S(INPUT_BASE), core.retire(InstClass::ScalarAlu, &[deps])),
            Builtin::InputLen => (RtVal::S(self.input_len), core.retire(InstClass::ScalarAlu, &[deps])),
            Builtin::NumThreads => {
                (RtVal::S(u64::from(self.cfg.threads.max(1))), core.retire(InstClass::ScalarAlu, &[deps]))
            }
            Builtin::Recover => {
                let m = metas.first().copied().unwrap_or(VMeta::ptr4());
                let fixed = vote(&vals[0].v(&m), &m, &mut self.corrections)?;
                // Slow path cost (§III-C): compare low lanes, broadcast.
                let mut ready = deps;
                for _ in 0..2 {
                    ready = core.retire(InstClass::Extract, &[ready]);
                }
                ready = core.retire(InstClass::ScalarAlu, &[ready]);
                ready = core.retire(InstClass::Broadcast, &[ready]);
                (RtVal::V(Ymm::splat(m.width, m.lanes as usize, fixed)), ready)
            }
            Builtin::Heartbeat => {
                self.heartbeats += 1;
                let done = core.retire(InstClass::LibCall, &[deps]);
                // Timestamp in the emitting thread's clock domain —
                // serve entries are single-threaded, so for them this
                // is the request's virtual completion offset.
                self.heartbeat_cycles.push(done);
                (RtVal::S(0), done)
            }
            Builtin::Spawn | Builtin::Join | Builtin::Lock | Builtin::Unlock => {
                unreachable!("thread builtins handled separately")
            }
        };
        let fr = self.threads[t].frames.last_mut().expect("frame");
        if dst != NO_DST {
            fr.slots[dst as usize] = v;
            fr.ready[dst as usize] = done;
        }
        Ok(())
    }
}

#[inline]
fn read_op(fr: &Frame, op: &LOp) -> (RtVal, u64) {
    match op {
        LOp::Slot(s) => (fr.slots[*s as usize], fr.ready[*s as usize]),
        LOp::CS(v) => (RtVal::S(*v), 0),
        LOp::CV(y) => (RtVal::V(*y), 0),
    }
}

/// §III-C extended majority vote over `y`'s lanes, shared by gathers,
/// scatters and the `recover` builtin in both engines: the agreeing
/// value, counting one correction when a lane disagreed. A 2+2 split
/// has no majority and traps.
#[inline]
fn vote(y: &Ymm, m: &VMeta, corrections: &mut u64) -> Result<u64, Trap> {
    match majority_extended(y, m.width, m.lanes as usize) {
        MajorityOutcome::Recovered { value, corrected } => {
            *corrections += u64::from(corrected);
            Ok(value)
        }
        MajorityOutcome::Tie => Err(Trap::Unrecoverable),
    }
}

/// `ptest` flags code of a whole-register mask, where every bit of the
/// YMM is a live mask bit: 0 when all bits are clear, 1 when all are
/// set, 2 otherwise. Two 256-bit folds suffice.
#[inline]
fn ptest_full(l: &[u64; 4]) -> u64 {
    if l[0] | l[1] | l[2] | l[3] == 0 {
        0
    } else if l[0] & l[1] & l[2] & l[3] == u64::MAX {
        1
    } else {
        2
    }
}

/// Transition `fr` to `target`, evaluating the target's phis against the
/// block being left. Shared by the per-instruction terminator path and
/// the trace executor so both take edges identically. `scratch` breaks
/// the read/write borrow on the frame (phi semantics: all incomings read
/// before any destination is written).
fn apply_edge<'p>(fr: &mut Frame<'p>, scratch: &mut Vec<(u32, RtVal, u64)>, target: u32) {
    let from = fr.block;
    let lb = &fr.lf.blocks[target as usize];
    fr.prev_block = from;
    fr.block = target;
    fr.ip = 0;
    fr.insts = &lb.insts;
    fr.term = &lb.term;
    let phis: &[LPhi] = &lb.phis;
    if phis.is_empty() {
        return;
    }
    scratch.clear();
    for phi in phis {
        if let Some((_, op)) = phi.incomings.iter().find(|(p, _)| *p == from) {
            let (v, r) = read_op(fr, op);
            scratch.push((phi.dst, v, r));
        }
    }
    for &(dst, v, r) in scratch.iter() {
        fr.slots[dst as usize] = v;
        fr.ready[dst as usize] = r;
    }
}

/// Vector-domain cast, shared by the reference interpreter and the trace
/// executor (result-value semantics only; retire is the caller's).
fn vec_cast(op: CastOp, from: &VMeta, to: &VMeta, va: RtVal) -> RtVal {
    if to.scalar {
        RtVal::S(scalar_cast(op, from, to, va.s()))
    } else if matches!(op, CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr) {
        // Pure reinterpretation: every lane's bits survive — essential so
        // a corrupted lane stays visible to the shuffle-xor-ptest check
        // after a float->int bitcast.
        RtVal::V(va.v(from))
    } else if from.lanes == to.lanes {
        // Lane-preserving conversion (same replication count).
        let src = va.v(from);
        let mut y = Ymm::ZERO;
        for i in 0..to.lanes as usize {
            y.set_lane(to.width, i, scalar_cast(op, from, to, src.lane(from.width, i)));
        }
        RtVal::V(y)
    } else {
        // Replication width changes (§III-D): convert lane 0,
        // re-replicate across the destination register.
        let lane0 = va.v(from).lane(from.width, 0);
        let c = scalar_cast(op, from, to, lane0);
        RtVal::V(Ymm::splat(to.width, to.lanes as usize, c))
    }
}

fn flip(v: RtVal, bit: u32, bound: u32) -> RtVal {
    match v {
        RtVal::S(x) => RtVal::S(x ^ (1u64 << (bit % bound.clamp(1, 64)))),
        RtVal::V(y) => RtVal::V(y.flip_bit(bit % bound.clamp(1, 256))),
    }
}

fn sext(v: u64, bits: u8) -> i64 {
    if bits >= 64 {
        v as i64
    } else {
        let sh = 64 - u32::from(bits);
        ((v << sh) as i64) >> sh
    }
}

// One float lane of a `Bin` op. A NaN operand comes back quieted, the
// first one when both are NaN (x86's rule for `vaddps` and friends);
// `FMin`/`FMax` return the other operand when only one is NaN. Rust
// leaves the payload of a NaN result unspecified and the compiler may
// swap a commutative op's operands, so without the explicit rule the
// interpreter and a kernel could return different NaNs for the same
// lanes. Kernels call these with a constant `op`.
macro_rules! float_bin {
    ($name:ident, $t:ty, $quiet_bit:expr) => {
        #[inline(always)]
        pub(crate) fn $name(op: BinOp, x: $t, y: $t) -> $t {
            use BinOp::*;
            if x.is_nan() || y.is_nan() {
                let quiet = |n: $t| <$t>::from_bits(n.to_bits() | $quiet_bit);
                return match op {
                    FMin | FMax if !x.is_nan() => x,
                    FMin | FMax if !y.is_nan() => y,
                    _ if x.is_nan() => quiet(x),
                    _ => quiet(y),
                };
            }
            match op {
                FAdd => x + y,
                FSub => x - y,
                FMul => x * y,
                FDiv => x / y,
                FMin => x.min(y),
                FMax => x.max(y),
                _ => unreachable!("int op on float meta"),
            }
        }
    };
}

float_bin!(fbin32, f32, 1 << 22);
float_bin!(fbin64, f64, 1 << 51);

pub(crate) fn scalar_bin(op: BinOp, m: &VMeta, a: u64, b: u64) -> Result<u64, Trap> {
    use BinOp::*;
    if m.float {
        return Ok(if m.bits == 32 {
            u64::from(fbin32(op, f32::from_bits(a as u32), f32::from_bits(b as u32)).to_bits())
        } else {
            fbin64(op, f64::from_bits(a), f64::from_bits(b)).to_bits()
        });
    }
    let mask = m.mask();
    let (a, b) = (a & mask, b & mask);
    let bits = m.bits;
    let shift_mod = u32::from(bits.max(1));
    let r = match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        UDiv => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a / b
        }
        URem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a % b
        }
        SDiv => {
            let (x, y) = (sext(a, bits), sext(b, bits));
            if y == 0 || (x == i64::MIN && y == -1) {
                return Err(Trap::DivByZero);
            }
            (x / y) as u64
        }
        SRem => {
            let (x, y) = (sext(a, bits), sext(b, bits));
            if y == 0 || (x == i64::MIN && y == -1) {
                return Err(Trap::DivByZero);
            }
            (x % y) as u64
        }
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl((b as u32) % shift_mod),
        LShr => a.wrapping_shr((b as u32) % shift_mod),
        AShr => (sext(a, bits) >> ((b as u32) % shift_mod).min(63)) as u64,
        UMin => a.min(b),
        UMax => a.max(b),
        SMin => {
            if sext(a, bits) <= sext(b, bits) {
                a
            } else {
                b
            }
        }
        SMax => {
            if sext(a, bits) >= sext(b, bits) {
                a
            } else {
                b
            }
        }
        FAdd | FSub | FMul | FDiv | FMin | FMax => unreachable!("float op on int meta"),
    };
    Ok(r & mask)
}

pub(crate) fn scalar_cmp(pred: CmpPred, m: &VMeta, a: u64, b: u64) -> bool {
    use CmpPred::*;
    if m.float {
        let (x, y) = if m.bits == 32 {
            (f64::from(f32::from_bits(a as u32)), f64::from(f32::from_bits(b as u32)))
        } else {
            (f64::from_bits(a), f64::from_bits(b))
        };
        return match pred {
            FOeq => x == y,
            FOne => x != y && !x.is_nan() && !y.is_nan(),
            FOlt => x < y,
            FOle => x <= y,
            FOgt => x > y,
            FOge => x >= y,
            _ => unreachable!("int predicate on float meta"),
        };
    }
    let mask = m.mask();
    let (a, b) = (a & mask, b & mask);
    let (sa, sb) = (sext(a, m.bits), sext(b, m.bits));
    match pred {
        Eq => a == b,
        Ne => a != b,
        Ult => a < b,
        Ule => a <= b,
        Ugt => a > b,
        Uge => a >= b,
        Slt => sa < sb,
        Sle => sa <= sb,
        Sgt => sa > sb,
        Sge => sa >= sb,
        FOeq | FOne | FOlt | FOle | FOgt | FOge => unreachable!("float predicate on int meta"),
    }
}

fn scalar_cast(op: CastOp, from: &VMeta, to: &VMeta, v: u64) -> u64 {
    match op {
        CastOp::Trunc => v & to.mask(),
        CastOp::ZExt => v & from.mask(),
        CastOp::SExt => (sext(v & from.mask(), from.bits) as u64) & to.mask(),
        CastOp::FpTrunc => u64::from((f64::from_bits(v) as f32).to_bits()),
        CastOp::FpExt => f64::from(f32::from_bits(v as u32)).to_bits(),
        CastOp::FpToSi => {
            let x = if from.bits == 32 { f64::from(f32::from_bits(v as u32)) } else { f64::from_bits(v) };
            (x as i64 as u64) & to.mask()
        }
        CastOp::FpToUi => {
            let x = if from.bits == 32 { f64::from(f32::from_bits(v as u32)) } else { f64::from_bits(v) };
            (x as u64) & to.mask()
        }
        CastOp::SiToFp => {
            let x = sext(v & from.mask(), from.bits) as f64;
            if to.bits == 32 {
                u64::from((x as f32).to_bits())
            } else {
                x.to_bits()
            }
        }
        CastOp::UiToFp => {
            let x = (v & from.mask()) as f64;
            if to.bits == 32 {
                u64::from((x as f32).to_bits())
            } else {
                x.to_bits()
            }
        }
        CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr => v,
    }
}

fn rmw(op: RmwOp, m: &VMeta, old: u64, val: u64) -> u64 {
    let mask = m.mask();
    let val = val & mask;
    let r = match op {
        RmwOp::Add => old.wrapping_add(val),
        RmwOp::Sub => old.wrapping_sub(val),
        RmwOp::And => old & val,
        RmwOp::Or => old | val,
        RmwOp::Xor => old ^ val,
        RmwOp::Xchg => val,
        RmwOp::UMax => old.max(val),
        RmwOp::UMin => old.min(val),
    };
    r & mask
}

/// Abramowitz & Stegun 7.1.26 rational approximation of `erf` (the host
/// stand-in for libm's `erf`, used by the Black–Scholes CNDF).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::Program;
    use elzar_ir::builder::{c64, cf64, FuncBuilder};
    use elzar_ir::{BinOp, Builtin, Module, Ty};

    fn run(m: &Module, entry: &str) -> RunResult {
        let p = Program::lower(m);
        run_program(&p, entry, &[], MachineConfig::default())
    }

    fn run_input(m: &Module, entry: &str, input: &[u8]) -> RunResult {
        let p = Program::lower(m);
        run_program(&p, entry, input, MachineConfig::default())
    }

    #[test]
    fn returns_value() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let x = b.add(c64(40), c64(2));
        b.ret(x);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(42));
        assert!(r.cycles > 0);
    }

    #[test]
    fn loop_sums() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc_ptr = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc_ptr);
        b.counted_loop(c64(0), c64(100), |b, i| {
            let acc = b.load(Ty::I64, acc_ptr);
            let s = b.add(acc, i);
            b.store(Ty::I64, s, acc_ptr);
        });
        let fin = b.load(Ty::I64, acc_ptr);
        b.ret(fin);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(4950));
        assert!(r.counters.loads >= 100);
        assert!(r.counters.branches >= 100);
    }

    #[test]
    fn output_and_input_builtins() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let p = b.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        let n = b.call_builtin(Builtin::InputLen, vec![], Ty::I64).unwrap();
        b.call_builtin(Builtin::Output, vec![p.into(), n.into()], Ty::Void);
        b.ret(n);
        m.add_func(b.finish());
        let r = run_input(&m, "main", b"hello");
        assert_eq!(r.outcome, RunOutcome::Exited(5));
        assert_eq!(r.output, b"hello");
    }

    #[test]
    fn vector_pipeline_checks_out() {
        // Replicate 7 into 4 lanes, add splat(35), check all lanes equal.
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let v7 = b.splat(c64(7), 4);
        let v35 = b.splat(c64(35), 4);
        let sum = b.bin(BinOp::Add, Ty::vec(Ty::I64, 4), v7, v35);
        let rot = b.shuffle(sum, vec![1, 2, 3, 0]);
        let diff = b.bin(BinOp::Xor, Ty::vec(Ty::I64, 4), sum, rot);
        let flags = b.ptest(diff);
        let ok = b.block("ok");
        let bad = b.block("bad");
        b.ptest_br(flags, ok, bad, bad);
        b.switch_to(ok);
        let x = b.extract(sum, 0);
        b.ret(x);
        b.switch_to(bad);
        b.ret(c64(-1));
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(42));
        assert!(r.counters.avx_instrs >= 5);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let z = b.add(c64(0), c64(0));
        let d = b.bin(BinOp::SDiv, Ty::I64, c64(1), z);
        b.ret(d);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Trapped(Trap::DivByZero));
    }

    #[test]
    fn null_deref_segfaults() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let v = b.load(Ty::I64, elzar_ir::Operand::Imm(elzar_ir::Const::null()));
        b.ret(v);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert!(matches!(r.outcome, RunOutcome::Trapped(Trap::Segfault(_))));
    }

    #[test]
    fn function_calls_and_floats() {
        let mut m = Module::new("t");
        let mut g = FuncBuilder::new("square", vec![Ty::F64], Ty::F64);
        let x = g.param(0);
        let r = g.bin(BinOp::FMul, Ty::F64, x, x);
        g.ret(r);
        let gid = m.add_func(g.finish());
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let s = b.call(gid, vec![cf64(1.5)], Ty::F64).unwrap();
        b.call_builtin(Builtin::OutputF64, vec![s.into()], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(0));
        let bits = u64::from_le_bytes(r.output[..8].try_into().unwrap());
        assert_eq!(f64::from_bits(bits), 2.25);
    }

    #[test]
    fn threads_spawn_join_and_share_memory() {
        let mut m = Module::new("t");
        // worker(slot_ptr): *slot_ptr = 21; returns tid arg * 2.
        let mut w = FuncBuilder::new("worker", vec![Ty::I64], Ty::I64);
        let arg = w.param(0);
        let two = w.mul(arg, c64(2));
        w.ret(two);
        let wid = m.add_func(w.finish());
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let t1 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(10)], Ty::I64).unwrap();
        let t2 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(11)], Ty::I64).unwrap();
        let r1 = b.call_builtin(Builtin::Join, vec![t1.into()], Ty::I64).unwrap();
        let r2 = b.call_builtin(Builtin::Join, vec![t2.into()], Ty::I64).unwrap();
        let s = b.add(r1, r2);
        b.ret(s);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(42));
        assert_eq!(r.thread_cycles.len(), 3);
    }

    #[test]
    fn locks_serialize_virtual_time() {
        // Two workers increment a shared counter under a mutex 1000 times.
        let mut m = Module::new("t");
        let mutex_off = m.alloc_global(8) as i64;
        let ctr_off = m.alloc_global(8) as i64;
        let mutex = crate::memory::GLOBAL_BASE as i64 + mutex_off;
        let ctr = crate::memory::GLOBAL_BASE as i64 + ctr_off;
        let mut w = FuncBuilder::new("worker", vec![Ty::I64], Ty::I64);
        w.counted_loop(c64(0), c64(1000), |b, _i| {
            b.critical_section(c64(mutex), |b| {
                let v = b.load(Ty::I64, c64(ctr));
                let v2 = b.add(v, c64(1));
                b.store(Ty::I64, v2, c64(ctr));
            });
        });
        w.ret(c64(0));
        let wid = m.add_func(w.finish());
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let t1 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(0)], Ty::I64).unwrap();
        let t2 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(0)], Ty::I64).unwrap();
        b.call_builtin(Builtin::Join, vec![t1.into()], Ty::I64).unwrap();
        b.call_builtin(Builtin::Join, vec![t2.into()], Ty::I64).unwrap();
        let v = b.load(Ty::I64, c64(ctr));
        b.ret(v);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(2000));
    }

    #[test]
    fn atomics_count_correctly() {
        let mut m = Module::new("t");
        let ctr = crate::memory::GLOBAL_BASE as i64;
        let _ = m.alloc_global(8);
        let mut w = FuncBuilder::new("worker", vec![Ty::I64], Ty::I64);
        w.counted_loop(c64(0), c64(500), |b, _i| {
            b.atomic_rmw(elzar_ir::RmwOp::Add, Ty::I64, c64(ctr), c64(1));
        });
        w.ret(c64(0));
        let wid = m.add_func(w.finish());
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let t1 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(0)], Ty::I64).unwrap();
        let t2 = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(0)], Ty::I64).unwrap();
        b.call_builtin(Builtin::Join, vec![t1.into()], Ty::I64).unwrap();
        b.call_builtin(Builtin::Join, vec![t2.into()], Ty::I64).unwrap();
        let v = b.load(Ty::I64, c64(ctr));
        b.ret(v);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(1000));
    }

    #[test]
    fn step_limit_reports_hang() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let spin = b.block("spin");
        b.br(spin);
        b.switch_to(spin);
        b.br(spin);
        m.add_func(b.finish());
        let p = Program::lower(&m);
        let cfg = MachineConfig { step_limit: 10_000, ..MachineConfig::default() };
        let r = run_program(&p, "main", &[], cfg);
        assert_eq!(r.outcome, RunOutcome::StepLimit);
    }

    #[test]
    fn fault_injection_flips_destination() {
        // main returns x = 40 + 2; inject into the add's destination.
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let x = b.add(c64(40), c64(2));
        b.ret(x);
        m.add_func(b.finish());
        let p = Program::lower(&m);
        let cfg = MachineConfig { fault: Some(FaultPlan { index: 1, bit: 0 }), ..MachineConfig::default() };
        let r = run_program(&p, "main", &[], cfg);
        assert_eq!(r.outcome, RunOutcome::Exited(43)); // 42 ^ 1
    }

    #[test]
    fn recover_builtin_corrects_single_lane() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let v = b.splat(c64(7), 4);
        let bad = b.insert(v, c64(9), 2); // corrupt lane 2
        let fixed = b.call_builtin(Builtin::Recover, vec![bad.into()], Ty::vec(Ty::I64, 4)).unwrap();
        let x = b.extract(fixed, 2);
        b.ret(x);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(7));
        assert_eq!(r.corrections, 1);
    }

    #[test]
    fn recover_two_two_split_is_unrecoverable() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let v = b.splat(c64(7), 4);
        let v1 = b.insert(v, c64(9), 2);
        let v2 = b.insert(v1, c64(9), 3);
        let fixed = b.call_builtin(Builtin::Recover, vec![v2.into()], Ty::vec(Ty::I64, 4)).unwrap();
        let x = b.extract(fixed, 0);
        b.ret(x);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Trapped(Trap::Unrecoverable));
    }

    #[test]
    fn memcpy_and_memcmp() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let buf = b.call_builtin(Builtin::Malloc, vec![c64(4096)], Ty::Ptr).unwrap();
        let buf2 = b.call_builtin(Builtin::Malloc, vec![c64(4096)], Ty::Ptr).unwrap();
        b.call_builtin(Builtin::Memset, vec![buf.into(), c64(0xAB), c64(4096)], Ty::Void);
        b.call_builtin(Builtin::Memcpy, vec![buf2.into(), buf.into(), c64(4096)], Ty::Void);
        let c = b.call_builtin(Builtin::Memcmp, vec![buf.into(), buf2.into(), c64(4096)], Ty::I64).unwrap();
        b.ret(c);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(0));
        assert!(r.counters.stores >= 64, "memset/memcpy charge vector stores");
    }

    #[test]
    fn esoteric_int_widths_wrap_correctly() {
        // i9 arithmetic: 511 + 1 wraps to 0 (§III-D esoteric types).
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let t9 = Ty::int(9);
        let x = b.bin(BinOp::Add, t9.clone(), elzar_ir::Const::int(9, 511), elzar_ir::Const::int(9, 1));
        let wide = b.cast(elzar_ir::CastOp::ZExt, x, Ty::I64);
        b.ret(wide);
        m.add_func(b.finish());
        let r = run(&m, "main");
        assert_eq!(r.outcome, RunOutcome::Exited(0));
    }

    #[test]
    fn reenter_retains_memory_and_resets_run_state() {
        // `bump` increments a global counter and outputs the new value:
        // a resident machine must see the counter persist across
        // reenters while per-run counters restart from zero.
        let mut m = Module::new("t");
        let ctr = crate::memory::GLOBAL_BASE as i64;
        let _ = m.alloc_global(8);
        let mut b = FuncBuilder::new("bump", vec![], Ty::I64);
        let v = b.load(Ty::I64, c64(ctr));
        let v2 = b.add(v, c64(1));
        b.store(Ty::I64, v2, c64(ctr));
        b.call_builtin(Builtin::OutputI64, vec![v2.into()], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());
        let p = Program::lower(&m);
        let mut mach = Machine::start(&p, "bump", &[], MachineConfig::default());
        let o1 = mach.run_to_completion();
        let r1 = mach.result(o1);
        mach.reenter("bump", &[]);
        let o2 = mach.run_to_completion();
        let r2 = mach.result(o2);
        assert_eq!(r1.output, 1u64.to_le_bytes());
        assert_eq!(r2.output, 2u64.to_le_bytes(), "global state must survive reenter");
        assert_eq!(r1.steps, r2.steps, "per-run step count restarts at zero");
        assert_eq!(r1.eligible, r2.eligible);
    }

    #[test]
    fn reenter_replaces_input_and_zeroes_stale_tail() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let p = b.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        // Echo a fixed 8-byte window so a shorter second input exposes
        // any stale tail bytes.
        b.call_builtin(Builtin::Output, vec![p.into(), c64(8)], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());
        let prog = Program::lower(&m);
        let mut mach = Machine::start(&prog, "main", b"ABCDEFGH", MachineConfig::default());
        let o1 = mach.run_to_completion();
        assert_eq!(mach.result(o1).output, b"ABCDEFGH");
        mach.reenter("main", b"xy");
        let o2 = mach.run_to_completion();
        assert_eq!(mach.result(o2).output, b"xy\0\0\0\0\0\0");
    }

    #[test]
    fn reenter_gives_fresh_zeroed_stacks() {
        // `dirty` fills an alloca with garbage; `probe` allocas the same
        // amount and reads before writing. On a reentered machine the
        // probe must see zeros, exactly like a fresh machine would —
        // otherwise execution would depend on invocation history.
        let mut m = Module::new("t");
        let mut d = FuncBuilder::new("dirty", vec![], Ty::I64);
        let buf = d.alloca(Ty::I64, c64(8));
        d.counted_loop(c64(0), c64(8), |b, i| {
            let p = b.gep(buf, i, 8);
            b.store(Ty::I64, c64(-1), p);
        });
        d.ret(c64(0));
        m.add_func(d.finish());
        let mut pr = FuncBuilder::new("probe", vec![], Ty::I64);
        let buf = pr.alloca(Ty::I64, c64(8));
        let p7 = pr.gep(buf, c64(7), 8);
        let v = pr.load(Ty::I64, p7);
        pr.ret(v);
        m.add_func(pr.finish());
        let prog = Program::lower(&m);
        let mut mach = Machine::start(&prog, "dirty", &[], MachineConfig::default());
        assert_eq!(mach.run_to_completion(), RunOutcome::Exited(0));
        mach.reenter("probe", &[]);
        assert_eq!(mach.run_to_completion(), RunOutcome::Exited(0), "stale stack bytes leaked");
    }

    #[test]
    fn reenter_matches_fresh_start_when_memory_untouched() {
        // A request that only reads its input behaves bit-identically on
        // a reentered machine and a fresh one (warm L3 may change cycle
        // counts, but outputs/steps/eligible must agree).
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let p = b.call_builtin(Builtin::InputPtr, vec![], Ty::Ptr).unwrap();
        let v = b.load(Ty::I64, p);
        let d = b.mul(v, c64(3));
        b.call_builtin(Builtin::OutputI64, vec![d.into()], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());
        let prog = Program::lower(&m);
        let inp = 1234u64.to_le_bytes();
        let fresh = run_program(&prog, "main", &inp, MachineConfig::default());
        let mut mach = Machine::start(&prog, "main", &[0u8; 8], MachineConfig::default());
        let _ = mach.run_to_completion();
        mach.reenter("main", &inp);
        let o = mach.run_to_completion();
        let re = mach.result(o);
        assert_eq!(re.outcome, fresh.outcome);
        assert_eq!(re.output, fresh.output);
        assert_eq!(re.steps, fresh.steps);
        assert_eq!(re.eligible, fresh.eligible);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(1), acc);
        b.counted_loop(c64(0), c64(5000), |b, i| {
            let v = b.load(Ty::I64, acc);
            let v2 = b.mul(v, c64(3));
            let v3 = b.add(v2, i);
            b.store(Ty::I64, v3, acc);
        });
        let v = b.load(Ty::I64, acc);
        b.call_builtin(Builtin::OutputI64, vec![v.into()], Ty::Void);
        b.ret(c64(0));
        m.add_func(b.finish());
        let r1 = run(&m, "main");
        let r2 = run(&m, "main");
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.eligible, r2.eligible);
    }

    /// A mixed scalar/vector/control/memory program that exercises every
    /// trace-op family, for cross-engine comparison.
    fn engine_probe_module() -> Module {
        let mut m = Module::new("probe");
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        b.counted_loop(c64(0), c64(200), |b, i| {
            let v4 = b.splat(i, 4);
            let m3 = b.splat(c64(3), 4);
            let prod = b.bin(BinOp::Mul, Ty::vec(Ty::I64, 4), v4, m3);
            let rot = b.shuffle(prod, vec![1, 2, 3, 0]);
            let diff = b.bin(BinOp::Xor, Ty::vec(Ty::I64, 4), prod, rot);
            let flags = b.ptest(diff);
            let ok = b.block("ok");
            let bad = b.block("bad");
            b.ptest_br(flags, ok, bad, bad);
            b.switch_to(bad);
            b.ret(c64(-1));
            b.switch_to(ok);
            let lane = b.extract(prod, 2);
            let acc_v = b.load(Ty::I64, acc);
            let s = b.add(acc_v, lane);
            b.store(Ty::I64, s, acc);
        });
        let fin = b.load(Ty::I64, acc);
        b.call_builtin(Builtin::OutputI64, vec![fin.into()], Ty::Void);
        b.ret(fin);
        m.add_func(b.finish());
        m
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let m = engine_probe_module();
        let p = Program::lower(&m);
        let runs: Vec<RunResult> = [EngineKind::Reference, EngineKind::Trace]
            .iter()
            .map(|&engine| run_program(&p, "main", &[], MachineConfig { engine, ..Default::default() }))
            .collect();
        let base = &runs[0];
        assert_eq!(base.outcome, RunOutcome::Exited(3 * 199 * 200 / 2));
        for r in &runs[1..] {
            assert_eq!(r.outcome, base.outcome);
            assert_eq!(r.output, base.output);
            assert_eq!(r.cycles, base.cycles);
            assert_eq!(r.steps, base.steps);
            assert_eq!(r.eligible, base.eligible);
            assert_eq!(r.counters, base.counters);
            assert_eq!(r.thread_cycles, base.thread_cycles);
        }
    }

    #[test]
    fn fault_campaign_is_engine_invariant() {
        let m = engine_probe_module();
        let p = Program::lower(&m);
        for index in [1, 7, 50, 301, 1203] {
            let fault = Some(FaultPlan { index, bit: 17 });
            let mut outcomes = vec![];
            for engine in [EngineKind::Reference, EngineKind::Trace] {
                let cfg = MachineConfig { engine, fault, ..Default::default() };
                let r = run_program(&p, "main", &[], cfg);
                outcomes.push((r.outcome, r.output.clone(), r.cycles, r.steps, r.eligible));
            }
            assert_eq!(outcomes[0], outcomes[1], "fault @{index}: reference vs trace");
        }
    }

    /// A two-thread program touching every kind of machine state: a
    /// global, a heap buffer, a stack slot, a mutex, an atomic, output
    /// and heartbeats.
    fn state_probe_module() -> (Module, u64) {
        let mut m = Module::new("state");
        let g = crate::memory::GLOBAL_BASE + m.alloc_global(64) as u64;
        let (mutex, ctr) = (c64(g as i64), c64(g as i64 + 8));
        let mut w = FuncBuilder::new("worker", vec![Ty::I64], Ty::I64);
        w.counted_loop(c64(0), c64(400), |b, i| {
            b.critical_section(mutex.clone(), |b| {
                let v = b.load(Ty::I64, ctr.clone());
                let v2 = b.add(v, i);
                b.store(Ty::I64, v2, ctr.clone());
            });
            b.atomic_rmw(elzar_ir::RmwOp::Add, Ty::I64, c64(g as i64 + 16), c64(1));
        });
        w.ret(c64(0));
        let wid = m.add_func(w.finish());
        let mut b = FuncBuilder::new("main", vec![], Ty::I64);
        let buf = b.call_builtin(Builtin::Malloc, vec![c64(256)], Ty::Ptr).unwrap();
        let acc = b.alloca(Ty::I64, c64(1));
        b.store(Ty::I64, c64(0), acc);
        let t = b.call_builtin(Builtin::Spawn, vec![c64(wid.0 as i64), c64(0)], Ty::I64).unwrap();
        b.counted_loop(c64(0), c64(400), |b, i| {
            let p = b.gep(buf, i, 8);
            b.store(Ty::I64, i, p);
            let a = b.load(Ty::I64, acc);
            let s = b.add(a, i);
            b.store(Ty::I64, s, acc);
            b.call_builtin(Builtin::OutputI64, vec![s.into()], Ty::Void);
            b.call_builtin(Builtin::Heartbeat, vec![], Ty::Void);
        });
        b.call_builtin(Builtin::Join, vec![t.into()], Ty::I64).unwrap();
        b.ret(c64(0));
        m.add_func(b.finish());
        (m, g)
    }

    /// Flip the low bit of the byte at `addr`.
    fn flip_byte(m: &mut Machine, addr: u64) {
        let v = m.mem.load(addr, 1).unwrap();
        m.mem.store(addr, 1, v ^ 1).unwrap();
    }

    #[test]
    fn state_matches_is_strict() {
        let (module, g) = state_probe_module();
        let prog = Program::lower(&module);
        let cfg = MachineConfig { threads: 2, ..MachineConfig::default() };
        let mut base = Machine::start(&prog, "main", &[], cfg);
        for _ in 0..4 {
            assert_eq!(base.run_round(), None, "the probe must still be running");
        }
        assert_eq!(base.threads.len(), 2);
        assert!(base.heartbeats > 0 && !base.output.is_empty());
        assert!(base.state_matches(&base.clone()), "a machine mid-run must match its clone");
        let heap = crate::memory::HEAP_BASE;
        let top = base.mem.stack_top(0) - 1;
        let cold = 0x7700_0000;
        type Perturb = Box<dyn Fn(&mut Machine)>;
        let perturbations: Vec<(&str, Perturb)> = vec![
            (
                "slot value",
                Box::new(|m: &mut Machine| {
                    let fr = m.threads[0].frames.last_mut().unwrap();
                    fr.slots[0] = flip(fr.slots[0], 0, 64);
                }),
            ),
            (
                "ready cycle",
                Box::new(|m: &mut Machine| m.threads[0].frames.last_mut().unwrap().ready[0] += 1),
            ),
            ("globals byte", Box::new(move |m: &mut Machine| flip_byte(m, g + 8))),
            ("heap byte", Box::new(move |m: &mut Machine| flip_byte(m, heap + 8))),
            ("stack byte", Box::new(move |m: &mut Machine| flip_byte(m, top))),
            (
                "L1 access",
                // Thread 0 just wrote its heap buffer: an L1 hit.
                Box::new(move |m: &mut Machine| {
                    m.threads[0].core.retire_mem(InstClass::Load, &[], heap, &mut m.l3);
                }),
            ),
            (
                "L2 access",
                // Nine lines in one L1 set evict the first from L1 but
                // not from L2; the measured access is the L2 hit.
                Box::new(move |m: &mut Machine| {
                    let line = |k: u64| heap + 0x10_0000 + k * 4096;
                    let mut warm = m.clone();
                    for k in 0..9 {
                        warm.threads[0].core.retire_mem(InstClass::Load, &[], line(k), &mut warm.l3);
                    }
                    let mut hit = warm.clone();
                    hit.threads[0].core.retire_mem(InstClass::Load, &[], line(0), &mut hit.l3);
                    let misses = |m: &Machine| m.threads[0].core.counters().l1_misses;
                    assert_eq!(misses(&hit), misses(&warm) + 1, "an L1 miss");
                    assert!(hit.l3 == warm.l3, "that hits in L2");
                    *m = hit;
                }),
            ),
            (
                "L3 access",
                Box::new(move |m: &mut Machine| {
                    m.l3.access(cold);
                }),
            ),
            (
                "branch predictor",
                Box::new(|m: &mut Machine| {
                    m.threads[0].core.retire_branch(0xB1, false, &[]);
                }),
            ),
            (
                "core clock",
                Box::new(|m: &mut Machine| {
                    let c = m.threads[1].core.cycles();
                    m.threads[1].core.advance_to(c + 1);
                }),
            ),
            ("output byte", Box::new(|m: &mut Machine| m.output[0] ^= 1)),
            (
                "heartbeat",
                Box::new(|m: &mut Machine| {
                    m.heartbeats += 1;
                    m.heartbeat_cycles.push(m.cycles_so_far());
                }),
            ),
            ("held lock", Box::new(move |m: &mut Machine| m.locks.entry_mut(g + 32).owner = Some(1))),
            (
                "atomic serialization point",
                Box::new(move |m: &mut Machine| m.atomics.insert(g + 128, (1, 9))),
            ),
            ("steps", Box::new(|m: &mut Machine| m.steps += 1)),
            ("eligible", Box::new(|m: &mut Machine| m.eligible += 1)),
            (
                "pending fault plan",
                Box::new(|m: &mut Machine| m.set_fault(Some(FaultPlan { index: m.eligible + 1, bit: 0 }))),
            ),
        ];
        for (what, perturb) in perturbations {
            let mut m = base.clone();
            perturb(&mut m);
            assert!(!m.state_matches(&base), "{what}: perturbed machine matched");
            assert!(!base.state_matches(&m), "{what}: match is not symmetric");
        }

        // Representation-only differences of equal timing and counters:
        // a cold miss to a different line on each side (cache contents),
        // and a correctly predicted not-taken branch at a different site
        // on each side (predictor table).
        let mut a = base.clone();
        let mut b = base.clone();
        a.threads[0].core.retire_mem(InstClass::Load, &[], cold, &mut a.l3);
        b.threads[0].core.retire_mem(InstClass::Load, &[], cold + 64, &mut b.l3);
        assert_eq!(a.threads[0].core.counters(), b.threads[0].core.counters());
        assert_eq!(a.threads[0].core.cycles(), b.threads[0].core.cycles());
        assert!(!a.state_matches(&b), "cache contents");
        let mut a = base.clone();
        let mut b = base.clone();
        a.threads[0].core.retire_branch(0xA11CE, false, &[]);
        b.threads[0].core.retire_branch(0xB0B, false, &[]);
        assert_eq!(a.threads[0].core.counters(), b.threads[0].core.counters());
        assert!(!a.state_matches(&b), "predictor table");

        // A fault plan that has fired (its index is at or below
        // `eligible`) matches the fault-free twin when nothing else
        // differs; so do the other excluded fields: the step limit,
        // corrections and the phi scratch buffer.
        let mut m = base.clone();
        m.set_fault(Some(FaultPlan { index: m.eligible, bit: 3 }));
        assert!(m.state_matches(&base), "a fired fault plan must not take part");
        m.set_step_limit(m.steps + 1);
        m.corrections += 5;
        m.phi_scratch.push((0, RtVal::S(1), 2));
        assert!(m.state_matches(&base), "excluded fields must not take part");
        assert!(base.state_matches(&m));

        // A reset core reads as a new one: the ways it held before the
        // reset are empty. A way used since the reset is live and takes
        // part: a cold miss to a different line on each side (equal
        // timing and counters) reads unequal, the same line equal.
        let mut reset = base.clone();
        reset.threads[0].core.reset();
        let mut fresh = base.clone();
        fresh.threads[0].core = Core::new();
        assert!(reset.state_matches(&fresh), "a reset core must match a new core");
        let (mut a, mut b) = (reset.clone(), fresh.clone());
        a.threads[0].core.retire_mem(InstClass::Load, &[], cold, &mut a.l3);
        b.threads[0].core.retire_mem(InstClass::Load, &[], cold, &mut b.l3);
        assert!(a.state_matches(&b), "the same live way on both sides");
        let mut c = reset.clone();
        c.threads[0].core.retire_mem(InstClass::Load, &[], cold + 64, &mut c.l3);
        assert_eq!(a.threads[0].core.counters(), c.threads[0].core.counters());
        assert_eq!(a.threads[0].core.cycles(), c.threads[0].core.cycles());
        assert!(!a.state_matches(&c) && !c.state_matches(&a), "live cache way");

        // Writing a byte back to its value copies the page the clone
        // shared with `base`: the copy holds the same bytes and matches.
        let mut m = base.clone();
        flip_byte(&mut m, g + 8);
        flip_byte(&mut m, g + 8);
        flip_byte(&mut m, heap + 8);
        flip_byte(&mut m, heap + 8);
        assert!(m.state_matches(&base) && base.state_matches(&m), "copied but equal pages");
    }

    /// Clone `m` into `into` with [`Clone::clone_from`] and check the
    /// result matches a plain clone.
    fn refresh<'p>(into: &mut Machine<'p>, m: &Machine<'p>) {
        into.clone_from(m);
        assert!(into.state_matches(&m.clone()) && m.state_matches(into), "clone_from gave another state");
    }

    /// Run `a` and `b` to completion, asserting they stay in step round
    /// by round and end with the same result.
    fn assert_same_continuation(a: &mut Machine, b: &mut Machine) {
        loop {
            let (oa, ob) = (a.run_round(), b.run_round());
            assert_eq!(oa, ob);
            assert!(a.state_matches(b), "diverged at step {}", a.steps);
            if let Some(o) = oa {
                let (ra, rb) = (a.result(o), b.result(o));
                assert_eq!((ra.output, ra.cycles, ra.counters), (rb.output, rb.cycles, rb.counters));
                assert_eq!(
                    (ra.steps, ra.eligible, ra.thread_cycles),
                    (rb.steps, rb.eligible, rb.thread_cycles)
                );
                return;
            }
        }
    }

    #[test]
    fn clone_from_matches_clone_and_continues_identically() {
        let (module, _) = state_probe_module();
        let prog = Program::lower(&module);
        let cfg = MachineConfig { threads: 2, ..MachineConfig::default() };
        let mut m = Machine::start(&prog, "main", &[], cfg);
        // The snapshot starts as an unrelated machine, then is refreshed
        // from `m` every few rounds; each refresh must continue exactly
        // like a plain clone taken at the same point.
        let mut snap = Machine::start(&prog, "main", &[], MachineConfig::default());
        snap.run_round();
        for round in 0..12 {
            if round % 3 == 0 {
                refresh(&mut snap, &m);
                let mut plain = m.clone();
                let mut refreshed = snap.clone();
                refreshed.clone_from(&snap);
                assert_same_continuation(&mut refreshed, &mut plain);
            }
            assert_eq!(m.run_round(), None, "the probe must still be running");
        }
        // A resident machine serving requests: snapshot by clone_from
        // after each one, then restore the snapshot and compare.
        for k in 0..3 {
            m.reenter("main", &[]);
            assert!(matches!(m.run_to_completion(), RunOutcome::Exited(0)));
            refresh(&mut snap, &m);
            let mut restored = snap.clone();
            restored.reenter("main", &[k]);
            m.reenter("main", &[k]);
            assert_same_continuation(&mut restored, &mut m.clone());
        }
    }

    /// The re-entry reset from new parts — new lock and atomics tables
    /// and a new core: the reference the in-place reset must match.
    fn reenter_rebuilt(m: &mut Machine, entry: &str, input: &[u8]) {
        m.mem.set_input(input);
        m.mem.reset_stacks();
        m.input_len = input.len() as u64;
        m.threads.clear();
        m.locks = LockTable::default();
        m.atomics = AtomicTable::new();
        m.output.clear();
        (m.corrections, m.eligible, m.steps, m.heartbeats) = (0, 0, 0, 0);
        m.heartbeat_cycles.clear();
        m.cfg.fault = None;
        let entry = m.prog.func_by_name(entry).unwrap();
        m.spawn(entry, 0, 0).unwrap();
    }

    #[test]
    fn reenter_in_place_matches_a_rebuilt_machine() {
        // Two threads, a mutex, an atomic, heap and stack traffic: every
        // table and the core the reset reuses is dirty before each reentry.
        let (module, _) = state_probe_module();
        let prog = Program::lower(&module);
        let cfg = MachineConfig { threads: 2, ..MachineConfig::default() };
        let mut m = Machine::start(&prog, "main", &[], cfg);
        assert!(matches!(m.run_to_completion(), RunOutcome::Exited(0)));
        for k in 0..4u8 {
            let mut rebuilt = m.clone();
            reenter_rebuilt(&mut rebuilt, "main", &[k; 5]);
            m.reenter("main", &[k; 5]);
            assert!(m.state_matches(&rebuilt), "reentry {k}");
            let mut done = m.clone();
            assert_same_continuation(&mut done, &mut rebuilt);
            // Stop this invocation mid-run half the time, so the next
            // reentry also resets a thread that has frames left.
            if k % 2 == 0 {
                m = done;
            } else {
                for _ in 0..3 {
                    m.run_round();
                }
            }
        }
    }
}
