//! Set-associative cache hierarchy simulator.
//!
//! Models the paper's testbed (§V-A): per-core 32 KB 8-way L1D and 256 KB
//! 8-way L2, plus a 35 MB 16-way L3 shared by all cores. Latencies are in
//! core cycles. True LRU within each set.

use std::sync::Arc;

/// Sentinel tag for an unoccupied way.
const EMPTY_TAG: u64 = u64::MAX;

/// One way: `(tag, last_used_tick)`.
type Way = (u64, u64);

/// Set/tag decomposition of an address for one cache geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Geometry {
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
}

impl Geometry {
    /// # Panics
    /// Panics if the geometry is not a power-of-two or is inconsistent.
    fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Geometry {
        assert!(line_bytes.is_power_of_two() && size_bytes.is_multiple_of(ways * line_bytes));
        let n_sets = size_bytes / (ways * line_bytes);
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Geometry {
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            tag_shift: n_sets.trailing_zeros(),
        }
    }

    fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// `(set index, tag)` of `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.tag_shift)
    }
}

/// Look `tag` up in one set at time `tick`; a miss replaces the least
/// recently used way. Returns true on hit. The one LRU scan shared by
/// every cache level.
#[inline]
fn access_set(set: &mut [Way], tag: u64, tick: u64) -> bool {
    let mut lru = 0;
    let mut lru_used = u64::MAX;
    for (i, e) in set.iter_mut().enumerate() {
        if e.0 == tag {
            e.1 = tick;
            return true;
        }
        // Empty ways have tick 0 and lose every LRU comparison,
        // so they are filled before anything is evicted.
        if e.1 < lru_used {
            lru_used = e.1;
            lru = i;
        }
    }
    set[lru] = (tag, tick);
    false
}

/// Access clock and hit/miss counts of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Stats {
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Stats {
    /// Advance the clock for one access; returns the access's tick.
    #[inline]
    fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    #[inline]
    fn record(&mut self, hit: bool) -> bool {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn miss_ratio(&self) -> f64 {
        let accesses = self.hits + self.misses;
        if accesses == 0 {
            0.0
        } else {
            self.misses as f64 / accesses as f64
        }
    }
}

/// One set-associative cache level.
///
/// Ways are stored in one flat `(tag, last_used_tick)` array — a single
/// allocation with the whole set in adjacent memory — instead of one
/// heap vector per set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cache {
    geo: Geometry,
    stats: Stats,
    ways_flat: Vec<Way>, // sets × ways
}

impl Cache {
    /// Build a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` lines (both powers of two).
    ///
    /// # Panics
    /// Panics if the geometry is not a power-of-two or is inconsistent.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Cache {
        let geo = Geometry::new(size_bytes, ways, line_bytes);
        Cache { ways_flat: vec![(EMPTY_TAG, 0); geo.sets() * ways], geo, stats: Stats::default() }
    }

    /// Access `addr`; returns true on hit. Misses allocate (LRU evict).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let tick = self.stats.tick();
        let (set, tag) = self.geo.locate(addr);
        let base = set * self.geo.ways;
        let hit = access_set(&mut self.ways_flat[base..base + self.geo.ways], tag, tick);
        self.stats.record(hit)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.stats.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Miss ratio in `[0, 1]` (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        self.stats.miss_ratio()
    }
}

/// Latency parameters of the hierarchy (cycles).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheLatencies {
    /// L1D hit.
    pub l1: u32,
    /// L2 hit.
    pub l2: u32,
    /// L3 hit.
    pub l3: u32,
    /// DRAM.
    pub mem: u32,
}

impl Default for CacheLatencies {
    fn default() -> CacheLatencies {
        CacheLatencies { l1: 4, l2: 12, l3: 36, mem: 200 }
    }
}

/// Sets per copy-on-write chunk of the [`SharedL3`]: 64 sets of 16
/// ways are 16 KiB, so the Haswell L3 is 512 chunks.
const CHUNK_SETS: usize = 64;

/// The shared last-level cache (one per machine).
///
/// The same LRU cache as a flat [`Cache`], stored as fixed chunks of
/// 64 sets, each behind an `Arc`. The simulated L3 is 8 MiB
/// of `(tag, tick)` state, and machines are cloned for every snapshot,
/// fault twin and campaign checkpoint, so the chunks are copy-on-write:
/// a fresh L3 is one shared empty chunk, a clone copies the chunk
/// pointers, and the first access to a chunk after a clone copies only
/// that chunk. Clone cost follows the sets touched since the last clone,
/// not the size of the cache; hits and misses are exactly a flat
/// [`Cache`]'s.
///
/// Equality compares contents. A chunk two clones still share compares
/// in O(1): `Arc`'s `PartialEq` short-cuts on pointer equality when the
/// contents are `Eq`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedL3 {
    geo: Geometry,
    stats: Stats,
    chunks: Vec<Arc<[Way]>>,
}

impl SharedL3 {
    /// 35 MB, 16-way, 64-byte lines — the paper's Haswell L3. The size is
    /// rounded to a power-of-two set count (32 MB effective).
    pub fn haswell() -> SharedL3 {
        let geo = Geometry::new(32 * 1024 * 1024, 16, 64);
        let empty: Arc<[Way]> = vec![(EMPTY_TAG, 0); CHUNK_SETS * geo.ways].into();
        SharedL3 { chunks: vec![empty; geo.sets() / CHUNK_SETS], geo, stats: Stats::default() }
    }

    /// Access; true on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let tick = self.stats.tick();
        let (set, tag) = self.geo.locate(addr);
        // One uncontended compare-exchange per L3 access (L2 misses
        // only); an unsafe owned-chunk fast path measured no faster.
        let chunk = Arc::make_mut(&mut self.chunks[set / CHUNK_SETS]);
        let base = set % CHUNK_SETS * self.geo.ways;
        let hit = access_set(&mut chunk[base..base + self.geo.ways], tag, tick);
        self.stats.record(hit)
    }

    /// Miss ratio observed at L3.
    pub fn miss_ratio(&self) -> f64 {
        self.stats.miss_ratio()
    }
}

/// Per-core L1D + L2 with a handle-free interface: the caller passes the
/// shared L3 on each access.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoreCaches {
    l1: Cache,
    l2: Cache,
    lat: CacheLatencies,
}

impl CoreCaches {
    /// Haswell-like core caches: 32 KB/8-way L1D, 256 KB/8-way L2.
    pub fn haswell() -> CoreCaches {
        CoreCaches {
            l1: Cache::new(32 * 1024, 8, 64),
            l2: Cache::new(256 * 1024, 8, 64),
            lat: CacheLatencies::default(),
        }
    }

    /// Access `addr`, returning the load-to-use latency in cycles.
    pub fn access(&mut self, addr: u64, l3: &mut SharedL3) -> u32 {
        if self.l1.access(addr) {
            return self.lat.l1;
        }
        if self.l2.access(addr) {
            return self.lat.l2;
        }
        if l3.access(addr) {
            return self.lat.l3;
        }
        self.lat.mem
    }

    /// L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.l1.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_rng::DetRng;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(32 * 1024, 8, 64);
        assert!(!c.access(0x1000));
        for _ in 0..10 {
            assert!(c.access(0x1000));
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 10);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = Cache::new(32 * 1024, 8, 64);
        c.access(0x1000);
        assert!(c.access(0x103F)); // same 64B line
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn lru_eviction_in_one_set() {
        // Direct a stream of 9 distinct lines into the same set of an
        // 8-way cache: the first line must be evicted.
        let mut c = Cache::new(32 * 1024, 8, 64);
        let n_sets = 32 * 1024 / (8 * 64); // 64 sets
        let stride = (n_sets * 64) as u64; // same set, new tag
        for i in 0..9u64 {
            c.access(i * stride);
        }
        // Line 0 was LRU and must now miss.
        assert!(!c.access(0));
        // Line 8 is still resident.
        assert!(c.access(8 * stride));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(1024, 2, 64); // tiny cache: 16 lines
        let mut misses0 = 0;
        for round in 0..3 {
            for i in 0..64u64 {
                let hit = c.access(i * 64);
                if round == 0 && !hit {
                    misses0 += 1;
                }
            }
        }
        assert_eq!(misses0, 64);
        assert!(c.miss_ratio() > 0.9, "LRU + sequential sweep over 4x capacity must thrash");
    }

    #[test]
    fn hierarchy_latencies_ordered() {
        let mut l3 = SharedL3::haswell();
        let mut cc = CoreCaches::haswell();
        let first = cc.access(0x10000, &mut l3);
        let second = cc.access(0x10000, &mut l3);
        assert_eq!(first, CacheLatencies::default().mem);
        assert_eq!(second, CacheLatencies::default().l1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut l3 = SharedL3::haswell();
        let mut cc = CoreCaches::haswell();
        // Touch a line, then sweep 64 KB (evicts it from 32 KB L1 but not
        // from 256 KB L2), then touch it again.
        cc.access(0, &mut l3);
        for i in 0..1024u64 {
            cc.access(0x100000 + i * 64, &mut l3);
        }
        let lat = cc.access(0, &mut l3);
        assert_eq!(lat, CacheLatencies::default().l2);
    }

    /// A seeded address stream concentrated on a few sets of a few
    /// chunks, with more distinct tags per set than ways, so hits, cold
    /// misses and LRU evictions all occur.
    fn conflict_stream(seed: u64, len: usize) -> Vec<u64> {
        let mut rng = DetRng::seed_from_u64(seed);
        let sets: Vec<u64> = (0..12).map(|_| rng.below(32 * 1024)).collect();
        (0..len)
            .map(|_| {
                let set = sets[rng.below(sets.len() as u64) as usize];
                let tag = rng.below(24);
                (tag << 15 | set) << 6 | rng.below(64)
            })
            .collect()
    }

    fn drive(l3: &mut SharedL3, flat: &mut Cache, stream: &[u64]) {
        for (i, &a) in stream.iter().enumerate() {
            assert_eq!(l3.access(a), flat.access(a), "access {i} to {a:#x}");
        }
    }

    #[test]
    fn chunked_l3_matches_flat_cache() {
        for seed in 0..4 {
            let mut l3 = SharedL3::haswell();
            let mut flat = Cache::new(32 * 1024 * 1024, 16, 64);
            drive(&mut l3, &mut flat, &conflict_stream(seed, 20_000));
            assert!(flat.hits() > 0 && flat.misses() > 16 * 12, "stream must hit and evict");
            assert_eq!(l3.miss_ratio(), flat.miss_ratio());
        }
    }

    #[test]
    fn chunked_l3_clones_diverge_independently() {
        for seed in 0..4 {
            let mut l3 = SharedL3::haswell();
            let mut flat = Cache::new(32 * 1024 * 1024, 16, 64);
            drive(&mut l3, &mut flat, &conflict_stream(seed, 5_000));
            // Clone mid-stream, then drive each copy with its own
            // stream: neither may see the other's fills or LRU updates.
            let (mut l3b, mut flatb) = (l3.clone(), flat.clone());
            for round in 0..3 {
                drive(&mut l3, &mut flat, &conflict_stream(100 + seed * 8 + round, 3_000));
                drive(&mut l3b, &mut flatb, &conflict_stream(200 + seed * 8 + round, 3_000));
            }
            // A clone of a clone keeps matching too.
            let (mut l3c, mut flatc) = (l3b.clone(), flatb.clone());
            drive(&mut l3c, &mut flatc, &conflict_stream(300 + seed, 3_000));
            drive(&mut l3b, &mut flatb, &conflict_stream(400 + seed, 3_000));
        }
    }

    #[test]
    fn shared_l3_is_shared() {
        let mut l3 = SharedL3::haswell();
        let mut core_a = CoreCaches::haswell();
        let mut core_b = CoreCaches::haswell();
        core_a.access(0x5000, &mut l3);
        // Core B misses its private caches but hits the line Core A
        // brought into the shared L3.
        let lat = core_b.access(0x5000, &mut l3);
        assert_eq!(lat, CacheLatencies::default().l3);
    }
}
