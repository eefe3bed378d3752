//! Out-of-order core timing model.
//!
//! A per-instruction O(1) dataflow scoreboard approximating a Haswell-class
//! out-of-order engine: instructions are fetched 4/cycle in program order,
//! issue when their operands are ready and a capable execution port is
//! free, and complete after their class latency. Cycle count = the largest
//! completion time seen; ILP = retired instructions / cycles — directly
//! comparable to the paper's Table III.

use crate::branch::BranchPredictor;
use crate::cache::{CoreCaches, SharedL3};
use crate::cost::InstClass;

/// Tunable core parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreConfig {
    /// Instructions fetched/renamed per cycle.
    pub fetch_width: u32,
    /// Refetch penalty after a branch mispredict (cycles).
    pub mispredict_penalty: u32,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig { fetch_width: 4, mispredict_penalty: 15 }
    }
}

/// Perf-stat style counters (the raw events behind Tables II and III).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Retired instructions (including legalization expansions).
    pub instrs: u64,
    /// Retired AVX instructions.
    pub avx_instrs: u64,
    /// Scalar + vector loads (incl. gathers).
    pub loads: u64,
    /// Scalar + vector stores (incl. scatters).
    pub stores: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// Memory references (cache accesses).
    pub mem_refs: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// ELZAR runtime corrections (recovered faults) observed on this core.
    pub corrections: u64,
}

impl Counters {
    /// Merge another counter set into this one.
    pub fn add(&mut self, o: &Counters) {
        self.instrs += o.instrs;
        self.avx_instrs += o.avx_instrs;
        self.loads += o.loads;
        self.stores += o.stores;
        self.branches += o.branches;
        self.branch_misses += o.branch_misses;
        self.mem_refs += o.mem_refs;
        self.l1_misses += o.l1_misses;
        self.corrections += o.corrections;
    }
}

/// One simulated core (one hardware context per software thread).
///
/// Equality compares the whole timing state: clocks, ports, counters,
/// caches and predictor (the scalars are declared first so a derived
/// comparison of two diverged cores stops before the cache arrays).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Core {
    cfg: CoreConfig,
    cycles: u64,
    seq: u64,
    counters: Counters,
    port_free: [u64; 8],
    fetch_base_cycle: u64,
    fetch_base_seq: u64,
    /// `log2(fetch_width)` — the per-instruction fetch-cycle divide is
    /// a shift (fetch width must be a power of two).
    fetch_shift: u32,
    pred: BranchPredictor,
    caches: CoreCaches,
}

impl Default for Core {
    fn default() -> Core {
        Core::new()
    }
}

impl Core {
    /// A Haswell-like core.
    pub fn new() -> Core {
        let cfg = CoreConfig::default();
        assert!(cfg.fetch_width.is_power_of_two(), "fetch width must be a power of two");
        Core {
            fetch_shift: cfg.fetch_width.trailing_zeros(),
            cfg,
            caches: CoreCaches::haswell(),
            pred: BranchPredictor::haswell(),
            port_free: [0; 8],
            fetch_base_cycle: 0,
            fetch_base_seq: 0,
            seq: 0,
            cycles: 0,
            counters: Counters::default(),
        }
    }

    #[inline]
    fn fetch_cycle(&self) -> u64 {
        self.fetch_base_cycle + ((self.seq - self.fetch_base_seq) >> self.fetch_shift)
    }

    #[inline]
    fn issue(&mut self, class: InstClass, ops: &[u64], mem_latency: u32) -> u64 {
        self.issue_cost(class.cost(), class.is_avx(), ops, mem_latency)
    }

    #[inline]
    fn issue_cost(&mut self, cost: crate::cost::Cost, avx: bool, ops: &[u64], mem_latency: u32) -> u64 {
        let fetch = self.fetch_cycle();
        self.seq += 1 + u64::from(cost.extra_instrs);
        let op_ready = ops.iter().copied().max().unwrap_or(0);
        // Pick the soonest-free capable port, visiting set bits only.
        let mut best_port = usize::MAX;
        let mut best_free = u64::MAX;
        let mut mask = cost.ports;
        while mask != 0 {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.port_free[p] < best_free {
                best_free = self.port_free[p];
                best_port = p;
            }
        }
        debug_assert!(best_port != usize::MAX, "class without ports");
        let issue_at = fetch.max(op_ready).max(best_free);
        self.port_free[best_port] = issue_at + u64::from(cost.occupy);
        let done = issue_at + u64::from(cost.latency) + u64::from(mem_latency);
        if done > self.cycles {
            self.cycles = done;
        }
        // Bookkeeping.
        self.counters.instrs += 1 + u64::from(cost.extra_instrs);
        if avx {
            self.counters.avx_instrs += 1 + u64::from(cost.extra_instrs);
        }
        done
    }

    /// Retire a non-memory, non-branch instruction whose operands become
    /// ready at the given cycles. Returns the cycle its result is ready.
    #[inline]
    pub fn retire(&mut self, class: InstClass, ops: &[u64]) -> u64 {
        debug_assert!(!class.is_mem() && class != InstClass::Branch);
        self.issue(class, ops, 0)
    }

    /// Retire an unconditional jump (no prediction bookkeeping).
    pub fn retire_jump(&mut self) -> u64 {
        self.counters.branches += 1;
        self.issue(InstClass::Branch, &[], 0)
    }

    /// Retire a memory instruction touching `addr`; the added latency
    /// comes from the cache hierarchy.
    #[inline]
    pub fn retire_mem(&mut self, class: InstClass, ops: &[u64], addr: u64, l3: &mut SharedL3) -> u64 {
        let lat = self.caches.access(addr, l3);
        self.counters.mem_refs += 1;
        match class {
            InstClass::Load | InstClass::VecLoad | InstClass::Gather | InstClass::Atomic => {
                self.counters.loads += 1;
            }
            InstClass::Store | InstClass::VecStore | InstClass::Scatter => {
                self.counters.stores += 1;
            }
            _ => {}
        }
        // Stores complete into the store buffer: the data-cache latency is
        // hidden, only port pressure counts.
        let mem_lat = match class {
            InstClass::Store | InstClass::VecStore | InstClass::Scatter => 0,
            _ => lat,
        };
        self.issue(class, ops, mem_lat)
    }

    /// Retire a non-memory, non-branch instruction from a precomputed
    /// `(cost, avx)` pair — the trace engine's timing bridge. Identical
    /// accounting to [`Core::retire`] when the pair came from the same
    /// [`InstClass`].
    #[inline]
    pub fn retire_precosted(&mut self, cost: crate::cost::Cost, avx: bool, ops: &[u64]) -> u64 {
        self.issue_cost(cost, avx, ops, 0)
    }

    /// Retire a memory instruction from a precomputed `(cost, avx)` pair
    /// plus a `store` flag. Identical accounting to [`Core::retire_mem`]:
    /// the cache is always accessed first, and stores complete into the
    /// store buffer (data-cache latency hidden, only port pressure
    /// counts). Traces never carry gathers, scatters or atomics, so the
    /// flag fully determines the load/store counter split.
    #[inline]
    pub fn retire_mem_precosted(
        &mut self,
        cost: crate::cost::Cost,
        avx: bool,
        store: bool,
        ops: &[u64],
        addr: u64,
        l3: &mut SharedL3,
    ) -> u64 {
        let lat = self.caches.access(addr, l3);
        self.counters.mem_refs += 1;
        let mem_lat = if store {
            self.counters.stores += 1;
            0
        } else {
            self.counters.loads += 1;
            lat
        };
        self.issue_cost(cost, avx, ops, mem_lat)
    }

    /// Retire a branch instruction at `site` (a stable static id), with
    /// the actual `taken` outcome. Returns the cycle the branch resolves.
    pub fn retire_branch(&mut self, site: u64, taken: bool, ops: &[u64]) -> u64 {
        self.counters.branches += 1;
        let done = self.issue(InstClass::Branch, ops, 0);
        let correct = self.pred.predict_and_update(site, taken);
        if !correct {
            self.counters.branch_misses += 1;
            // Redirect fetch: younger instructions cannot fetch until the
            // branch resolves plus the front-end refill penalty.
            self.fetch_base_cycle = done + u64::from(self.cfg.mispredict_penalty);
            self.fetch_base_seq = self.seq;
        }
        done
    }

    /// Synchronize this core's clock forward to `cycle` (used by the VM's
    /// virtual-time model at lock acquisitions, joins and atomic
    /// serialization points). Also stalls the front end until then.
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle > self.cycles {
            self.cycles = cycle;
        }
        if cycle > self.fetch_base_cycle {
            self.fetch_base_cycle = cycle;
            self.fetch_base_seq = self.seq;
        }
        for p in &mut self.port_free {
            *p = (*p).max(cycle);
        }
    }

    /// Total cycles elapsed on this core.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Counter snapshot (L1 statistics folded in).
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        c.l1_misses = self.caches.l1_misses();
        c
    }

    /// Instructions / cycles.
    pub fn ilp(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.counters.instrs as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_scalar_ops_reach_wide_ilp() {
        let mut c = Core::new();
        for _ in 0..10_000 {
            c.retire(InstClass::ScalarAlu, &[]);
        }
        let ilp = c.ilp();
        assert!(ilp > 3.5, "independent ALU stream should sustain ~4 IPC, got {ilp}");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut c = Core::new();
        let mut ready = 0;
        for _ in 0..10_000 {
            ready = c.retire(InstClass::ScalarAlu, &[ready]);
        }
        let ilp = c.ilp();
        assert!(ilp < 1.1, "1-latency dependent chain is ~1 IPC, got {ilp}");
    }

    #[test]
    fn vector_stream_capped_by_three_ports() {
        let mut c = Core::new();
        for _ in 0..10_000 {
            c.retire(InstClass::VecAlu, &[]);
        }
        let ilp = c.ilp();
        assert!(ilp > 2.5 && ilp < 3.3, "AVX ALU is served by 3 ports, got {ilp}");
    }

    #[test]
    fn wrapped_load_costs_about_twice_a_plain_load() {
        // Table IV, loads row: extract+load+broadcast ≈ 2× a plain load.
        // Use dependent address chains as in the paper's microbenchmark.
        let mut l3 = SharedL3::haswell();
        let mut native = Core::new();
        let mut addr_ready = 0;
        for i in 0..20_000u64 {
            addr_ready = native.retire_mem(InstClass::Load, &[addr_ready], (i % 64) * 64, &mut l3);
        }
        let mut l3b = SharedL3::haswell();
        let mut wrapped = Core::new();
        let mut ready = 0;
        for i in 0..20_000u64 {
            let ex = wrapped.retire(InstClass::Extract, &[ready]);
            let ld = wrapped.retire_mem(InstClass::Load, &[ex], (i % 64) * 64, &mut l3b);
            ready = wrapped.retire(InstClass::Broadcast, &[ld]);
        }
        let ratio = wrapped.cycles() as f64 / native.cycles() as f64;
        assert!(ratio > 1.6 && ratio < 3.0, "wrapped/native load ratio {ratio}");
    }

    #[test]
    fn store_port_is_the_bottleneck_for_both_variants() {
        // Table IV, stores row: the single store port dominates, so the
        // AVX-wrapped store stream is barely slower (~1.0–1.15×).
        let mut l3 = SharedL3::haswell();
        let mut native = Core::new();
        for i in 0..20_000u64 {
            native.retire_mem(InstClass::Store, &[], (i % 64) * 64, &mut l3);
        }
        let mut l3b = SharedL3::haswell();
        let mut wrapped = Core::new();
        for i in 0..20_000u64 {
            let ex = wrapped.retire(InstClass::Extract, &[]);
            let ev = wrapped.retire(InstClass::Extract, &[]);
            wrapped.retire_mem(InstClass::Store, &[ex, ev], (i % 64) * 64, &mut l3b);
        }
        let ratio = wrapped.cycles() as f64 / native.cycles() as f64;
        assert!(ratio < 1.5, "store streams are port-4 bound, ratio {ratio}");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mut well = Core::new();
        for i in 0..5_000u64 {
            // Perfectly periodic branch -> learned.
            well.retire_branch(1, i % 2 == 0, &[]);
            well.retire(InstClass::ScalarAlu, &[]);
        }
        let mut badly = Core::new();
        let mut x = 9u64;
        for _ in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            badly.retire_branch(1, (x >> 62) & 1 == 1, &[]);
            badly.retire(InstClass::ScalarAlu, &[]);
        }
        assert!(
            badly.cycles() > well.cycles() * 2,
            "random branches must be much slower: {} vs {}",
            badly.cycles(),
            well.cycles()
        );
        assert!(badly.counters().branch_misses > well.counters().branch_misses * 5);
    }

    #[test]
    fn advance_to_moves_clock_monotonically() {
        let mut c = Core::new();
        c.retire(InstClass::ScalarAlu, &[]);
        c.advance_to(1000);
        assert_eq!(c.cycles(), 1000);
        c.advance_to(500); // never goes backwards
        assert_eq!(c.cycles(), 1000);
        // Subsequent work starts after the sync point.
        let done = c.retire(InstClass::ScalarAlu, &[]);
        assert!(done >= 1000);
    }

    #[test]
    fn counters_track_classes() {
        let mut l3 = SharedL3::haswell();
        let mut c = Core::new();
        c.retire_mem(InstClass::Load, &[], 0, &mut l3);
        c.retire_mem(InstClass::Store, &[], 64, &mut l3);
        c.retire_branch(5, true, &[]);
        c.retire(InstClass::VecAlu, &[]);
        let k = c.counters();
        assert_eq!(k.loads, 1);
        assert_eq!(k.stores, 1);
        assert_eq!(k.branches, 1);
        assert_eq!(k.avx_instrs, 1);
        assert_eq!(k.mem_refs, 2);
        assert_eq!(k.instrs, 4);
    }

    #[test]
    fn precosted_retire_matches_class_based_retire() {
        let mut a = Core::new();
        let mut b = Core::new();
        let mut l3a = SharedL3::haswell();
        let mut l3b = SharedL3::haswell();
        let mut ra = 0;
        let mut rb = 0;
        for i in 0..4_000u64 {
            let class = match i % 5 {
                0 => InstClass::ScalarAlu,
                1 => InstClass::VecAlu,
                2 => InstClass::Shuffle,
                3 => InstClass::Load,
                _ => InstClass::Store,
            };
            if class.is_mem() {
                let addr = (i % 512) * 8;
                let store = class == InstClass::Store;
                ra = a.retire_mem(class, &[ra], addr, &mut l3a);
                rb = b.retire_mem_precosted(class.cost(), class.is_avx(), store, &[rb], addr, &mut l3b);
            } else {
                ra = a.retire(class, &[ra]);
                rb = b.retire_precosted(class.cost(), class.is_avx(), &[rb]);
            }
            assert_eq!(ra, rb);
        }
        assert_eq!(a.cycles(), b.cycles());
        let (ka, kb) = (a.counters(), b.counters());
        assert_eq!(ka.instrs, kb.instrs);
        assert_eq!(ka.avx_instrs, kb.avx_instrs);
        assert_eq!(ka.loads, kb.loads);
        assert_eq!(ka.stores, kb.stores);
        assert_eq!(ka.mem_refs, kb.mem_refs);
        assert_eq!(ka.l1_misses, kb.l1_misses);
    }

    #[test]
    fn legalized_vector_div_inflates_instruction_count() {
        let mut c = Core::new();
        c.retire(InstClass::VecIntDiv, &[]);
        assert!(c.counters().instrs >= 12);
    }
}
