//! Flat process memory with a fixed layout and trap-reporting accesses.
//!
//! The VM models a single protected (ECC) memory shared by all threads —
//! the paper's fault model excludes memory faults (§III-A), so memory holds
//! exactly one copy of the state while registers are replicated.
//!
//! Layout (byte addresses):
//!
//! ```text
//! 0x0000_0000 .. 0x0000_1000   unmapped null page (access ⇒ segfault)
//! 0x0001_0000 .. +globals      module globals
//! 0x0100_0000 .. +input        read-only input segment
//! 0x0400_0000 .. stacks        heap (bump allocator, grows up)
//! top - N*2MB .. top           per-thread stacks (grow down)
//! ```
//!
//! Although the *semantics* are a single zero-initialized flat array,
//! the *representation* is segmented: each region below the stacks
//! (low, globals, input, heap) is a `Segment` of copy-on-write pages
//! as long as its highest written byte. Untouched bytes read as zero,
//! exactly as the flat array did. A clone shares every page and the
//! first write to a shared page copies that page only, so a clone costs
//! a pointer per page and then the pages each copy writes — the key
//! enabler for the serving runtime's periodic snapshots of a resident
//! KV table and for the fault-injection campaign's checkpoint sharing.
//! [`Clone::clone_from`] refreshes an older clone of the same memory by
//! re-sharing only the pages that differ by pointer.
//!
//! Each thread's `STACK_SIZE` stack chunk grows *down*, as the stack
//! does: it is backed only from the page holding its lowest written
//! byte up to the stack top (growing in whole pages, at least doubling
//! each time), and everything below reads as zero. A request served on
//! a resident machine therefore clones and resets the few pages its
//! frames used, not 2 MiB per thread. [`Memory::reset_stacks`] zeroes
//! the backed range in place and keeps it for the next invocation.
//!
//! [`Memory::resident_bytes`] — the *virtual* snapshot-cost basis the
//! serving runtime charges — is independent of this representation: it
//! counts the segment lengths plus a full `STACK_SIZE` for every stack
//! chunk written since the last reset, as when segments were plain
//! vectors and stack chunks were materialized whole.

use std::fmt;
use std::sync::Arc;

/// Base address of the global data segment.
pub const GLOBAL_BASE: u64 = 0x0001_0000;
/// Base address of the input segment.
pub const INPUT_BASE: u64 = 0x0100_0000;
/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x0400_0000;
/// Per-thread stack size.
pub const STACK_SIZE: u64 = 2 * 1024 * 1024;
/// Total process memory size of every machine (256 MiB).
pub(crate) const DEFAULT_MEM_SIZE: u64 = 0x1000_0000;
/// Lowest mapped address (end of the null page).
const LOW_BASE: u64 = 0x1000;
/// Bytes per copy-on-write page of a [`Segment`], and the growth
/// granule of a stack chunk's backing.
const PAGE: usize = 4096;

type Page = [u8; PAGE];

/// Faults detected by the machine ("OS-detected" outcomes in Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Out-of-range or null-page access.
    Segfault(u64),
    /// Misaligned scalar access.
    Misaligned(u64),
    /// Integer division by zero (or `MIN / -1`).
    DivByZero,
    /// Reached an `unreachable` terminator.
    Unreachable,
    /// Heap exhausted.
    OutOfMemory,
    /// Stack overflow.
    StackOverflow,
    /// ELZAR extended recovery found a 2+2 split — no majority (§III-C).
    Unrecoverable,
    /// Indirect spawn/call to a bad function index.
    BadFunction,
    /// Every live thread is blocked.
    Deadlock,
    /// Call depth exceeded.
    CallDepth,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Segfault(a) => write!(f, "segmentation fault at {a:#x}"),
            Trap::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::Unreachable => write!(f, "executed unreachable"),
            Trap::OutOfMemory => write!(f, "heap exhausted"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::Unrecoverable => write!(f, "majority voting found no majority (2+2 split)"),
            Trap::BadFunction => write!(f, "invalid function reference"),
            Trap::Deadlock => write!(f, "all threads blocked"),
            Trap::CallDepth => write!(f, "call depth exceeded"),
        }
    }
}

impl std::error::Error for Trap {}

/// Flat byte-addressable memory (segmented representation).
///
/// Equality compares the representation: equal memories read the same
/// everywhere, but two memories that read the same may compare unequal
/// (a segment or stack grown further, zeros included). Whether a page
/// is shared does not take part: a copied page equals its original.
#[derive(PartialEq, Eq)]
pub struct Memory {
    stacks_base: u64,
    size: u64,
    heap_next: u64,
    heap_limit: u64,
    /// `[LOW_BASE, GLOBAL_BASE)` — rarely touched, grows on write.
    low: Segment,
    /// `[GLOBAL_BASE, INPUT_BASE)` — grows on write past the initial
    /// globals image.
    globals: Segment,
    /// `[INPUT_BASE, HEAP_BASE)` — grows on write past the input image.
    input: Segment,
    /// `[HEAP_BASE, stacks_base)` — grows on write.
    heap: Segment,
    /// `[stacks_base, size)`, one `STACK_SIZE` chunk per thread slot.
    stacks: Vec<Stack>,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            stacks_base: self.stacks_base,
            size: self.size,
            heap_next: self.heap_next,
            heap_limit: self.heap_limit,
            low: self.low.clone(),
            globals: self.globals.clone(),
            input: self.input.clone(),
            heap: self.heap.clone(),
            stacks: self.stacks.clone(),
        }
    }

    /// Make `self` equal to `source`, re-sharing only the pages that are
    /// not already shared.
    fn clone_from(&mut self, source: &Memory) {
        let Memory { stacks_base, size, heap_next, heap_limit, low, globals, input, heap, stacks } = self;
        (*stacks_base, *size, *heap_next, *heap_limit) =
            (source.stacks_base, source.size, source.heap_next, source.heap_limit);
        low.clone_from(&source.low);
        globals.clone_from(&source.globals);
        input.clone_from(&source.input);
        heap.clone_from(&source.heap);
        stacks.clone_from(&source.stacks);
    }
}

/// One segment: a logical length and the copy-on-write pages backing
/// it. Bytes at or past `len` read as zero, and so do the bytes of the
/// last page past `len` (writes never reach past `len`).
#[derive(Default, PartialEq, Eq)]
struct Segment {
    /// The segment's length as a plain vector would have it: it grows
    /// on write, at least doubling, and never shrinks.
    len: usize,
    /// `len.div_ceil(PAGE)` pages.
    pages: Vec<Arc<Page>>,
}

impl Clone for Segment {
    fn clone(&self) -> Segment {
        Segment { len: self.len, pages: self.pages.clone() }
    }

    /// Re-share only the pages `source` does not already share with
    /// `self`: refreshing a snapshot from the memory it was taken from
    /// costs the pages written since, not a refcount update per page.
    fn clone_from(&mut self, source: &Segment) {
        self.len = source.len;
        self.pages.truncate(source.pages.len());
        for (mine, theirs) in self.pages.iter_mut().zip(&source.pages) {
            if !Arc::ptr_eq(mine, theirs) {
                *mine = Arc::clone(theirs);
            }
        }
        let have = self.pages.len();
        self.pages.extend_from_slice(&source.pages[have..]);
    }
}

impl Segment {
    fn from_bytes(bytes: &[u8]) -> Segment {
        let mut s = Segment::default();
        s.extend_to(bytes.len());
        s.write(0, bytes);
        s
    }

    /// Grow the logical length to at least `len` (it never shrinks).
    /// New pages share one zero page until written.
    fn extend_to(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            let pages = len.div_ceil(PAGE);
            if pages > self.pages.len() {
                self.pages.resize(pages, Arc::new([0; PAGE]));
            }
        }
    }

    /// The page holding `off` and `off`'s offset in it; an empty view
    /// past the last page.
    #[inline]
    fn page(&self, off: usize) -> (&[u8], usize) {
        match self.pages.get(off / PAGE) {
            Some(p) => (&p[..], off % PAGE),
            None => (&[], 0),
        }
    }

    /// The page holding `off`, copied first if shared, and `off`'s
    /// offset in it. `off` must be below `len`.
    #[inline]
    fn page_mut(&mut self, off: usize) -> (&mut [u8], usize) {
        (&mut Arc::make_mut(&mut self.pages[off / PAGE])[..], off % PAGE)
    }

    /// Copy `data` to `off..off + data.len()`, within `len`.
    fn write(&mut self, mut off: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let (page, o) = self.page_mut(off);
            let n = (PAGE - o).min(data.len());
            page[o..o + n].copy_from_slice(&data[..n]);
            (off, data) = (off + n, &data[n..]);
        }
    }

    /// Zero `off..len`, copying only pages that hold a nonzero byte
    /// there.
    fn zero_from(&mut self, mut off: usize) {
        while off < self.len {
            let n = (PAGE - off % PAGE).min(self.len - off);
            let (page, o) = self.page(off);
            if page[o..o + n].iter().any(|&b| b != 0) {
                let (page, o) = self.page_mut(off);
                page[o..o + n].fill(0);
            }
            off += n;
        }
    }
}

/// One thread's stack chunk, backed from a page boundary up to its top.
#[derive(Clone, Default, PartialEq, Eq)]
struct Stack {
    /// The top `bytes.len()` bytes of the chunk (a whole number of
    /// pages); the bytes below them read as zero.
    bytes: Vec<u8>,
    /// Written since creation or the last [`Memory::reset_stacks`].
    touched: bool,
}

impl Stack {
    /// Offset within the chunk of the lowest backed byte.
    #[inline]
    fn low(&self) -> usize {
        STACK_SIZE as usize - self.bytes.len()
    }

    /// Back the chunk down to (at least) offset `off`, growing by whole
    /// pages and at least doubling, so a deepening stack is copied
    /// O(log) times.
    fn grow_down(&mut self, off: usize) {
        let need = STACK_SIZE as usize - off / PAGE * PAGE;
        let len = need.max(2 * self.bytes.len()).min(STACK_SIZE as usize);
        let mut grown = vec![0u8; len];
        grown[len - self.bytes.len()..].copy_from_slice(&self.bytes);
        self.bytes = grown;
    }
}

/// Which backing segment an address falls into.
enum Region {
    Low,
    Globals,
    Input,
    Heap,
    /// `(chunk index, offset within chunk)`.
    Stack(usize, usize),
}

impl Memory {
    /// Create memory of `size` bytes, install `globals` at
    /// [`GLOBAL_BASE`] and `input` at [`INPUT_BASE`], and reserve
    /// `max_threads` stacks at the top.
    ///
    /// # Panics
    /// Panics if the segments do not fit.
    pub fn new(size: u64, globals: &[u8], input: &[u8], max_threads: u32) -> Memory {
        assert!(GLOBAL_BASE + globals.len() as u64 <= INPUT_BASE, "globals too large");
        assert!(INPUT_BASE + input.len() as u64 <= HEAP_BASE, "input too large");
        let stacks = u64::from(max_threads) * STACK_SIZE;
        assert!(HEAP_BASE + stacks < size, "memory too small");
        Memory {
            low: Segment::default(),
            globals: Segment::from_bytes(globals),
            input: Segment::from_bytes(input),
            heap: Segment::default(),
            stacks: vec![Stack::default(); max_threads as usize],
            stacks_base: size - stacks,
            size,
            heap_next: HEAP_BASE,
            heap_limit: size - stacks,
        }
    }

    /// Total size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Zero every per-thread stack in place, so it reads as zero again,
    /// and mark it untouched. The backing stays allocated for the next
    /// invocation. Used by [`crate::Machine::reenter`]: stacks are
    /// per-invocation scratch, and letting a new entry observe the
    /// previous invocation's stack bytes would make execution depend on
    /// which requests ran on the machine before — exactly the history
    /// dependence the serving runtime's determinism contract excludes.
    pub fn reset_stacks(&mut self) {
        for s in self.stacks.iter_mut().filter(|s| s.touched) {
            s.bytes.fill(0);
            s.touched = false;
        }
    }

    /// Replace the input image in place: write `input` at
    /// [`INPUT_BASE`] and zero whatever tail of the previous image
    /// extends past it — exactly what overwriting a flat memory would
    /// leave behind. Used by [`crate::Machine::reenter`] to feed a
    /// resident VM its next request without rebuilding memory.
    ///
    /// # Panics
    /// Panics if `input` does not fit in the input segment.
    pub fn set_input(&mut self, input: &[u8]) {
        assert!(INPUT_BASE + input.len() as u64 <= HEAP_BASE, "input too large");
        self.input.extend_to(input.len());
        self.input.write(0, input);
        self.input.zero_from(input.len());
    }

    /// Replace the input image with a *multi-request* segment: a `u64`
    /// record count at [`INPUT_BASE`], followed by the concatenated
    /// `parts` (one encoded request each, fixed stride per program).
    /// The tail of any previous image is zeroed exactly as
    /// [`Memory::set_input`] does. Returns the total image length.
    ///
    /// This is the layout batched serve entries consume: they read the
    /// count from the first word and iterate the records at
    /// `INPUT_BASE + 8`. Used by [`crate::Machine::reenter_batch`].
    ///
    /// # Panics
    /// Panics if the combined image does not fit in the input segment.
    pub fn set_input_parts(&mut self, parts: &[&[u8]]) -> usize {
        let total = 8 + parts.iter().map(|p| p.len()).sum::<usize>();
        assert!(INPUT_BASE + total as u64 <= HEAP_BASE, "batched input too large");
        self.input.extend_to(total);
        self.input.write(0, &(parts.len() as u64).to_le_bytes());
        let mut off = 8;
        for p in parts {
            self.input.write(off, p);
            off += p.len();
        }
        self.input.zero_from(off);
        total
    }

    /// Initial stack pointer for thread `tid` (stacks grow down).
    pub fn stack_top(&self, tid: u32) -> u64 {
        self.size - u64::from(tid) * STACK_SIZE
    }

    /// Lowest valid stack address for thread `tid`.
    pub fn stack_limit(&self, tid: u32) -> u64 {
        self.stack_top(tid) - STACK_SIZE
    }

    /// Resident bytes under the snapshot cost model: the length of
    /// every grown segment plus `STACK_SIZE` for each stack chunk
    /// written since the last [`Memory::reset_stacks`]. The serving
    /// runtime charges virtual snapshot cycles from this value, so it
    /// does not follow the host representation (a stack chunk's backing
    /// is usually a few pages).
    pub fn resident_bytes(&self) -> u64 {
        let stacks = self.stacks.iter().filter(|s| s.touched).count() as u64 * STACK_SIZE;
        (self.low.len + self.globals.len + self.input.len + self.heap.len) as u64 + stacks
    }

    /// Bump-allocate `size` heap bytes (32-byte aligned).
    ///
    /// # Errors
    /// [`Trap::OutOfMemory`] when the heap meets the stack region.
    pub fn malloc(&mut self, size: u64) -> Result<u64, Trap> {
        let base = (self.heap_next + 31) & !31;
        let end = base.checked_add(size).ok_or(Trap::OutOfMemory)?;
        if end > self.heap_limit {
            return Err(Trap::OutOfMemory);
        }
        self.heap_next = end;
        Ok(base)
    }

    #[inline]
    fn check(&self, addr: u64, size: u64) -> Result<(), Trap> {
        if addr < LOW_BASE {
            return Err(Trap::Segfault(addr));
        }
        let end = addr.checked_add(size).ok_or(Trap::Segfault(addr))?;
        if end > self.size {
            return Err(Trap::Segfault(addr));
        }
        Ok(())
    }

    #[inline]
    fn region_of(&self, addr: u64) -> Region {
        if addr >= self.stacks_base {
            let off = addr - self.stacks_base;
            Region::Stack((off / STACK_SIZE) as usize, (off % STACK_SIZE) as usize)
        } else if addr >= HEAP_BASE {
            Region::Heap
        } else if addr >= INPUT_BASE {
            Region::Input
        } else if addr >= GLOBAL_BASE {
            Region::Globals
        } else {
            Region::Low
        }
    }

    /// End (exclusive) of the run of bytes containing `addr` that one
    /// [`Memory::backing`] call describes: the end of the segment page
    /// or the stack chunk, except below a stack chunk's backed range,
    /// whose run of zeros ends where the backing starts.
    fn run_end(&self, addr: u64) -> u64 {
        if addr >= self.stacks_base {
            let off = addr - self.stacks_base;
            let chunk_base = self.stacks_base + off / STACK_SIZE * STACK_SIZE;
            let low = self.stacks[(off / STACK_SIZE) as usize].low() as u64;
            if off % STACK_SIZE < low {
                chunk_base + low
            } else {
                chunk_base + STACK_SIZE
            }
        } else {
            // Segment bases are page-aligned.
            let page_end = (addr / PAGE as u64 + 1) * PAGE as u64;
            let region_end = if addr >= HEAP_BASE {
                self.stacks_base
            } else if addr >= INPUT_BASE {
                HEAP_BASE
            } else if addr >= GLOBAL_BASE {
                INPUT_BASE
            } else {
                GLOBAL_BASE
            };
            page_end.min(region_end)
        }
    }

    /// Immutable view of the backing bytes from `addr` on, and `addr`'s
    /// offset in it (the view may end before [`Memory::run_end`] — the
    /// rest reads as 0).
    #[inline]
    fn backing(&self, addr: u64) -> (&[u8], usize) {
        match self.region_of(addr) {
            Region::Low => self.low.page((addr - LOW_BASE) as usize),
            Region::Globals => self.globals.page((addr - GLOBAL_BASE) as usize),
            Region::Input => self.input.page((addr - INPUT_BASE) as usize),
            Region::Heap => self.heap.page((addr - HEAP_BASE) as usize),
            Region::Stack(chunk, off) => {
                let s = &self.stacks[chunk];
                match off.checked_sub(s.low()) {
                    Some(o) => (&s.bytes, o),
                    None => (&[], 0),
                }
            }
        }
    }

    /// Mutable backing for the run containing `addr`, grown so that
    /// `off + len` is in range and unshared. `len` must not cross the
    /// run end (checked by the caller via [`Memory::run_end`]).
    fn backing_mut(&mut self, addr: u64, len: usize) -> (&mut [u8], usize) {
        #[inline]
        fn grown(s: &mut Segment, off: usize, len: usize, cap: usize) -> (&mut [u8], usize) {
            if s.len < off + len {
                // Amortize growth; never exceed the region size.
                s.extend_to((off + len).max(s.len * 2).min(cap));
            }
            s.page_mut(off)
        }
        match self.region_of(addr) {
            Region::Low => {
                grown(&mut self.low, (addr - LOW_BASE) as usize, len, (GLOBAL_BASE - LOW_BASE) as usize)
            }
            Region::Globals => grown(
                &mut self.globals,
                (addr - GLOBAL_BASE) as usize,
                len,
                (INPUT_BASE - GLOBAL_BASE) as usize,
            ),
            Region::Input => {
                grown(&mut self.input, (addr - INPUT_BASE) as usize, len, (HEAP_BASE - INPUT_BASE) as usize)
            }
            Region::Heap => {
                let cap = (self.stacks_base - HEAP_BASE) as usize;
                grown(&mut self.heap, (addr - HEAP_BASE) as usize, len, cap)
            }
            Region::Stack(chunk, off) => {
                let s = &mut self.stacks[chunk];
                if off < s.low() {
                    s.grow_down(off);
                }
                s.touched = true;
                let low = s.low();
                (&mut s.bytes, off - low)
            }
        }
    }

    /// Load `size ∈ {1,2,4,8}` bytes little-endian (zero-extended).
    ///
    /// # Errors
    /// Traps on out-of-range access.
    #[inline]
    pub fn load(&self, addr: u64, size: u32) -> Result<u64, Trap> {
        self.check(addr, u64::from(size))?;
        let (b, off) = self.backing(addr);
        // Fast path: fully materialized and inside one run.
        if off + size as usize <= b.len() && addr + u64::from(size) <= self.run_end(addr) {
            let mut v = 0u64;
            for i in 0..size as usize {
                v |= u64::from(b[off + i]) << (8 * i);
            }
            return Ok(v);
        }
        // Slow path: unmaterialized tail bytes read as zero; run
        // crossings are assembled byte by byte.
        let mut v = 0u64;
        for i in 0..u64::from(size) {
            let (b, o) = self.backing(addr + i);
            let byte = b.get(o).copied().unwrap_or(0);
            v |= u64::from(byte) << (8 * i);
        }
        Ok(v)
    }

    /// Store `size ∈ {1,2,4,8}` bytes little-endian.
    ///
    /// # Errors
    /// Traps on out-of-range access.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u32, val: u64) -> Result<(), Trap> {
        self.check(addr, u64::from(size))?;
        if addr + u64::from(size) <= self.run_end(addr) {
            let (b, off) = self.backing_mut(addr, size as usize);
            for i in 0..size as usize {
                b[off + i] = (val >> (8 * i)) as u8;
            }
            return Ok(());
        }
        // Rare page- or region-crossing store.
        for i in 0..u64::from(size) {
            let (b, off) = self.backing_mut(addr + i, 1);
            b[off] = (val >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Copy `len` bytes starting at `addr` into `out`.
    ///
    /// # Errors
    /// Traps on out-of-range access.
    pub fn read_into(&self, out: &mut Vec<u8>, addr: u64, len: u64) -> Result<(), Trap> {
        self.check(addr, len)?;
        let mut a = addr;
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(self.run_end(a) - a);
            let (b, off) = self.backing(a);
            let have = b.len().saturating_sub(off).min(n as usize);
            // `off` may lie past the backing's end: slice only when bytes exist.
            if have > 0 {
                out.extend_from_slice(&b[off..off + have]);
            }
            // Unmaterialized bytes read as zero.
            out.resize(out.len() + (n as usize - have), 0);
            a += n;
            remaining -= n;
        }
        Ok(())
    }

    /// Fill `[addr, addr+len)` with `byte`.
    ///
    /// # Errors
    /// Traps on out-of-range access.
    pub fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), Trap> {
        self.check(addr, len)?;
        let mut a = addr;
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(self.run_end(a) - a);
            let (b, off) = self.backing_mut(a, n as usize);
            b[off..off + n as usize].fill(byte);
            a += n;
            remaining -= n;
        }
        Ok(())
    }

    /// Lexicographic comparison of two ranges (memcmp).
    ///
    /// # Errors
    /// Traps when either range is invalid.
    pub fn cmp_ranges(&self, a: u64, b: u64, len: u64) -> Result<std::cmp::Ordering, Trap> {
        self.check(a, len)?;
        self.check(b, len)?;
        // Byte-wise is fine: memcmp sizes are small and this is exact.
        for i in 0..len {
            let (ba, oa) = self.backing(a + i);
            let (bb, ob) = self.backing(b + i);
            let xa = ba.get(oa).copied().unwrap_or(0);
            let xb = bb.get(ob).copied().unwrap_or(0);
            match xa.cmp(&xb) {
                std::cmp::Ordering::Equal => {}
                other => return Ok(other),
            }
        }
        Ok(std::cmp::Ordering::Equal)
    }

    /// memmove-style copy (handles overlap).
    ///
    /// # Errors
    /// Traps when either range is invalid.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        self.check(src, len)?;
        self.check(dst, len)?;
        // Materialize the source (handles overlap and region crossings),
        // then write it out chunk-wise.
        let mut buf = Vec::with_capacity(len as usize);
        self.read_into(&mut buf, src, len)?;
        let mut a = dst;
        let mut done = 0usize;
        while done < buf.len() {
            let n = ((buf.len() - done) as u64).min(self.run_end(a) - a) as usize;
            let (b, off) = self.backing_mut(a, n);
            b[off..off + n].copy_from_slice(&buf[done..done + n]);
            a += n as u64;
            done += n;
        }
        Ok(())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memory({} bytes, heap at {:#x}, {} resident)",
            self.size,
            self.heap_next,
            self.resident_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_rng::DetRng;

    fn mem() -> Memory {
        Memory::new(DEFAULT_MEM_SIZE, &[1, 2, 3, 4], &[9, 9], 4)
    }

    #[test]
    fn layout_places_segments() {
        let m = mem();
        assert_eq!(m.load(GLOBAL_BASE, 4).unwrap(), 0x04030201);
        assert_eq!(m.load(INPUT_BASE, 2).unwrap(), 0x0909);
    }

    #[test]
    fn null_page_faults() {
        let m = mem();
        assert_eq!(m.load(0, 8), Err(Trap::Segfault(0)));
        assert_eq!(m.load(0xFFF, 1), Err(Trap::Segfault(0xFFF)));
        assert!(m.load(0x1000 + GLOBAL_BASE, 1).is_ok());
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = mem();
        let top = m.size();
        assert!(matches!(m.load(top, 1), Err(Trap::Segfault(_))));
        assert!(matches!(m.store(top - 4, 8, 1), Err(Trap::Segfault(_))));
        assert!(m.store(top - 8, 8, 1).is_ok());
    }

    #[test]
    fn load_store_roundtrip_le() {
        let mut m = mem();
        m.store(HEAP_BASE, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(HEAP_BASE, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.load(HEAP_BASE, 1).unwrap(), 0x88);
        assert_eq!(m.load(HEAP_BASE + 7, 1).unwrap(), 0x11);
        m.store(HEAP_BASE + 16, 2, 0xABCD).unwrap();
        assert_eq!(m.load(HEAP_BASE + 16, 4).unwrap(), 0xABCD);
    }

    #[test]
    fn malloc_bumps_and_exhausts() {
        let mut m = Memory::new(HEAP_BASE + 4 * STACK_SIZE + 1024 * 1024, &[], &[], 1);
        let a = m.malloc(100).unwrap();
        let b = m.malloc(100).unwrap();
        assert_eq!(a % 32, 0);
        assert!(b >= a + 100);
        assert!(m.malloc(1 << 40).is_err());
    }

    #[test]
    fn stacks_are_disjoint_per_thread() {
        let m = mem();
        assert_eq!(m.stack_top(0), m.size());
        assert_eq!(m.stack_top(1), m.size() - STACK_SIZE);
        assert!(m.stack_limit(0) >= m.stack_top(1));
    }

    #[test]
    fn overlapping_copy_is_memmove() {
        let mut m = mem();
        for i in 0..16 {
            m.store(HEAP_BASE + i, 1, i).unwrap();
        }
        m.copy(HEAP_BASE + 4, HEAP_BASE, 12).unwrap();
        assert_eq!(m.load(HEAP_BASE + 4, 1).unwrap(), 0);
        assert_eq!(m.load(HEAP_BASE + 15, 1).unwrap(), 11);
    }

    #[test]
    fn untouched_memory_reads_zero_everywhere() {
        let m = mem();
        // Gaps between segments, unwritten heap, unwritten stacks.
        assert_eq!(m.load(LOW_BASE, 8).unwrap(), 0);
        assert_eq!(m.load(GLOBAL_BASE + 1000, 8).unwrap(), 0);
        assert_eq!(m.load(INPUT_BASE + 100, 8).unwrap(), 0);
        assert_eq!(m.load(HEAP_BASE + (1 << 20), 8).unwrap(), 0);
        assert_eq!(m.load(m.size() - 64, 8).unwrap(), 0);
    }

    #[test]
    fn wild_writes_persist_like_flat_memory() {
        let mut m = mem();
        // A store into the inter-segment gap must read back.
        let wild = INPUT_BASE + 0x20_0000;
        m.store(wild, 8, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load(wild, 8).unwrap(), 0xDEAD_BEEF);
        // A store crossing the input→heap boundary round-trips.
        let edge = HEAP_BASE - 4;
        m.store(edge, 8, 0x1234_5678_9ABC_DEF0).unwrap();
        assert_eq!(m.load(edge, 8).unwrap(), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn clone_cost_tracks_usage_not_size() {
        let mut m = mem();
        let before = m.resident_bytes();
        assert!(before < 1 << 20, "fresh memory must be near-empty, got {before}");
        m.store(HEAP_BASE + 4096, 8, 1).unwrap();
        m.store(m.size() - 128, 8, 1).unwrap(); // one stack chunk
        let after = m.resident_bytes();
        assert!(after >= STACK_SIZE, "stack chunk materialized");
        assert!(after < 4 * STACK_SIZE, "only touched segments materialize");
    }

    #[test]
    fn read_into_fill_cmp_cross_regions() {
        let mut m = mem();
        m.fill(HEAP_BASE, 0xAB, 64).unwrap();
        let mut out = Vec::new();
        m.read_into(&mut out, HEAP_BASE, 64).unwrap();
        assert_eq!(out, vec![0xAB; 64]);
        // Compare a filled range against an untouched (zero) range.
        assert_eq!(m.cmp_ranges(HEAP_BASE, HEAP_BASE + (1 << 20), 64).unwrap(), std::cmp::Ordering::Greater);
        assert_eq!(
            m.cmp_ranges(HEAP_BASE + (1 << 21), HEAP_BASE + (1 << 20), 64).unwrap(),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn stack_backing_grows_down_in_pages_and_resets_in_place() {
        let mut m = mem();
        let top = m.size();
        // Thread 0's stack is the chunk at the top of memory.
        let t = m.stacks.len() - 1;
        m.store(top - 8, 8, 7).unwrap();
        assert_eq!((m.stacks[t].bytes.len(), m.stacks[t].touched), (PAGE, true));
        // Loads below the backed range read zero and do not grow it.
        assert_eq!(m.load(top - 3 * PAGE as u64, 8).unwrap(), 0);
        assert_eq!(m.stacks[t].bytes.len(), PAGE);
        m.store(top - 10_000, 4, 9).unwrap();
        assert_eq!(m.stacks[t].bytes.len(), 3 * PAGE);
        assert_eq!(m.load(top - 10_000, 4).unwrap(), 9);
        assert_eq!(m.load(top - 8, 8).unwrap(), 7);
        let resident = m.resident_bytes();
        m.reset_stacks();
        assert_eq!(m.resident_bytes(), resident - STACK_SIZE);
        assert_eq!((m.stacks[t].bytes.len(), m.stacks[t].touched), (3 * PAGE, false));
        assert!(m.stacks[t].bytes.iter().all(|&b| b == 0));
    }

    /// The memory model the segmented representation must reproduce:
    /// one zero-initialized byte array, plus the stack chunks written
    /// since the last reset (for the resident-bytes formula).
    #[derive(Clone)]
    struct Flat {
        bytes: Vec<u8>,
        stacks_base: u64,
        touched: Vec<bool>,
    }

    impl Flat {
        fn new(m: &Memory, globals: &[u8], input: &[u8]) -> Flat {
            let mut bytes = vec![0u8; m.size() as usize];
            bytes[GLOBAL_BASE as usize..][..globals.len()].copy_from_slice(globals);
            bytes[INPUT_BASE as usize..][..input.len()].copy_from_slice(input);
            Flat { bytes, stacks_base: m.stacks_base, touched: vec![false; m.stacks.len()] }
        }

        fn check(&self, addr: u64, len: u64) -> Result<(), Trap> {
            match addr.checked_add(len) {
                Some(end) if addr >= LOW_BASE && end <= self.bytes.len() as u64 => Ok(()),
                _ => Err(Trap::Segfault(addr)),
            }
        }

        fn range(&self, addr: u64, len: u64) -> std::ops::Range<usize> {
            addr as usize..(addr + len) as usize
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            let r = self.range(addr, data.len() as u64);
            self.bytes[r].copy_from_slice(data);
            for a in [addr, addr + data.len() as u64 - 1] {
                if a >= self.stacks_base {
                    self.touched[((a - self.stacks_base) / STACK_SIZE) as usize] = true;
                }
            }
        }

        fn load(&self, addr: u64, size: u32) -> Result<u64, Trap> {
            self.check(addr, u64::from(size))?;
            let b = &self.bytes[self.range(addr, u64::from(size))];
            Ok(b.iter().rev().fold(0, |v, &x| v << 8 | u64::from(x)))
        }

        fn store(&mut self, addr: u64, size: u32, val: u64) -> Result<(), Trap> {
            self.check(addr, u64::from(size))?;
            self.write(addr, &val.to_le_bytes()[..size as usize]);
            Ok(())
        }

        fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), Trap> {
            self.check(addr, len)?;
            if len > 0 {
                self.write(addr, &vec![byte; len as usize]);
            }
            Ok(())
        }

        fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
            self.check(src, len)?;
            self.check(dst, len)?;
            if len > 0 {
                let buf = self.bytes[self.range(src, len)].to_vec();
                self.write(dst, &buf);
            }
            Ok(())
        }

        fn read_into(&self, out: &mut Vec<u8>, addr: u64, len: u64) -> Result<(), Trap> {
            self.check(addr, len)?;
            out.extend_from_slice(&self.bytes[self.range(addr, len)]);
            Ok(())
        }

        fn cmp_ranges(&self, a: u64, b: u64, len: u64) -> Result<std::cmp::Ordering, Trap> {
            self.check(a, len)?;
            self.check(b, len)?;
            Ok(self.bytes[self.range(a, len)].cmp(&self.bytes[self.range(b, len)]))
        }

        fn reset_stacks(&mut self) {
            let base = self.stacks_base as usize;
            self.bytes[base..].fill(0);
            self.touched.fill(false);
        }
    }

    /// The pre-page-backing formula: segment lengths plus a whole
    /// `STACK_SIZE` per stack chunk written since the last reset.
    fn old_resident_bytes(m: &Memory, flat: &Flat) -> u64 {
        let segments = m.low.len + m.globals.len + m.input.len + m.heap.len;
        segments as u64 + flat.touched.iter().filter(|&&t| t).count() as u64 * STACK_SIZE
    }

    /// A seeded address near one of the layout's interesting spots:
    /// segment starts, segment page boundaries, region boundaries, the
    /// chunk boundary between the two stacks, stack tops (where frames
    /// live and the backing's low-water mark moves) and the very top of
    /// memory.
    fn hot_addr(rng: &mut DetRng, m: &Memory) -> u64 {
        let top = m.size();
        let near = |rng: &mut DetRng, at: u64, span: u64| at - span + rng.below(2 * span);
        match rng.below(12) {
            0 => LOW_BASE + rng.below(64),
            1 => GLOBAL_BASE + rng.below(96),
            2 => near(rng, HEAP_BASE, 24),
            3 => HEAP_BASE + rng.below(8192),
            4 => near(rng, m.stacks_base, 24),
            5 => near(rng, m.stack_top(1), 24),
            6 => m.stack_top(1) - 1 - rng.below(6 * PAGE as u64),
            7 => {
                let depth = if rng.below(16) == 0 { STACK_SIZE } else { 5 * PAGE as u64 };
                top - 1 - rng.below(depth)
            }
            8 => near(rng, GLOBAL_BASE + PAGE as u64, 24),
            9 => near(rng, INPUT_BASE + PAGE as u64, 24),
            10 => near(rng, HEAP_BASE + 2 * PAGE as u64, 24),
            _ => top - rng.below(24),
        }
    }

    /// Apply `ops` random operations to `m` and its model, asserting
    /// every result (values, bytes and traps) agrees.
    fn drive(rng: &mut DetRng, m: &mut Memory, flat: &mut Flat, ops: usize) {
        for _ in 0..ops {
            let a = hot_addr(rng, m);
            let b = hot_addr(rng, m);
            let len = if rng.below(4) == 0 { rng.below(9000) } else { rng.below(300) };
            let size = 1 << rng.below(4);
            match rng.below(6) {
                0 => {
                    let v = rng.next_u64();
                    assert_eq!(m.store(a, size, v), flat.store(a, size, v), "store {a:#x}/{size}");
                }
                1 => assert_eq!(m.load(a, size), flat.load(a, size), "load {a:#x}/{size}"),
                2 => {
                    let byte = rng.next_u32() as u8;
                    assert_eq!(m.fill(a, byte, len), flat.fill(a, byte, len), "fill {a:#x}+{len}");
                }
                3 => assert_eq!(m.copy(a, b, len), flat.copy(a, b, len), "copy {b:#x}->{a:#x}+{len}"),
                4 => {
                    let (mut got, mut want) = (vec![1, 2], vec![1, 2]);
                    let (r, w) = (m.read_into(&mut got, a, len), flat.read_into(&mut want, a, len));
                    assert_eq!(r, w, "read_into {a:#x}+{len}");
                    if r.is_ok() {
                        assert!(got == want, "read_into {a:#x}+{len} bytes");
                    }
                }
                _ => {
                    assert_eq!(m.cmp_ranges(a, b, len), flat.cmp_ranges(a, b, len), "cmp {a:#x} {b:#x}+{len}")
                }
            }
            assert_eq!(m.resident_bytes(), old_resident_bytes(m, flat));
        }
    }

    /// Every byte from the null page's end to the top of memory that
    /// the operations can reach, read back through the public API.
    fn assert_same_bytes(m: &Memory, flat: &Flat) {
        let windows = [
            (LOW_BASE, 4096),
            (GLOBAL_BASE, 4096),
            (INPUT_BASE, 4096),
            (HEAP_BASE - 4096, 16384),
            (m.stacks_base - 4096, m.size() - m.stacks_base + 4096),
        ];
        for (at, len) in windows {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            m.read_into(&mut got, at, len).unwrap();
            flat.read_into(&mut want, at, len).unwrap();
            assert!(got == want, "bytes differ in window at {at:#x}");
        }
    }

    #[test]
    fn memory_matches_flat_reference_across_resets_and_clones() {
        let size = HEAP_BASE + 2 * STACK_SIZE + 0x1_0000;
        for seed in 0..3 {
            let mut rng = DetRng::seed_from_u64(0xF1A7 + seed);
            let globals: Vec<u8> = (0..48).map(|_| rng.next_u32() as u8).collect();
            let input: Vec<u8> = (0..24).map(|_| rng.next_u32() as u8).collect();
            let mut m = Memory::new(size, &globals, &input, 2);
            let mut flat = Flat::new(&m, &globals, &input);
            drive(&mut rng, &mut m, &mut flat, 1500);
            assert_same_bytes(&m, &flat);
            let mut stale = m.clone();
            m.reset_stacks();
            flat.reset_stacks();
            assert_eq!(m.resident_bytes(), old_resident_bytes(&m, &flat));
            assert_same_bytes(&m, &flat);
            drive(&mut rng, &mut m, &mut flat, 1500);
            // A clone and its original then take different operations
            // (one of them resets its stacks): each must match its own
            // model, so neither sees the other's writes.
            let (mut m2, mut flat2) = (m.clone(), flat.clone());
            let mut rng2 = DetRng::seed_from_u64(0xC10E + seed);
            drive(&mut rng, &mut m, &mut flat, 1000);
            m2.reset_stacks();
            flat2.reset_stacks();
            drive(&mut rng2, &mut m2, &mut flat2, 1000);
            assert_same_bytes(&m, &flat);
            assert_same_bytes(&m2, &flat2);
            // Refreshing a stale clone gives the same as a new clone,
            // and it then diverges just as independently.
            stale.clone_from(&m2);
            assert!(stale == m2);
            let mut flat3 = flat2.clone();
            let mut rng3 = DetRng::seed_from_u64(0xF20 + seed);
            drive(&mut rng3, &mut stale, &mut flat3, 1000);
            drive(&mut rng2, &mut m2, &mut flat2, 1000);
            assert_same_bytes(&stale, &flat3);
            assert_same_bytes(&m2, &flat2);
        }
    }

    /// Stores that cross a page boundary in every segment and in a
    /// stack chunk, and one inside a page.
    fn page_spots(m: &Memory) -> [u64; 6] {
        let crossing = |base: u64| base + PAGE as u64 - 4;
        [
            crossing(LOW_BASE),
            crossing(GLOBAL_BASE),
            crossing(INPUT_BASE),
            crossing(HEAP_BASE),
            m.stack_top(1) - PAGE as u64 - 4,
            GLOBAL_BASE + 1,
        ]
    }

    #[test]
    fn writes_after_a_clone_stay_private() {
        let (old, new) = (0x1111_1111_1111_1111, 0x2222_2222_2222_2222);
        let mut m = mem();
        for a in page_spots(&m) {
            m.store(a, 8, old).unwrap();
        }
        for a in page_spots(&m) {
            for refresh in [false, true] {
                let mut c = if refresh {
                    let mut c = mem();
                    c.clone_from(&m);
                    c
                } else {
                    m.clone()
                };
                assert!(c == m);
                // The copy's write stays in the copy ...
                c.store(a, 8, new).unwrap();
                assert_eq!((m.load(a, 8), c.load(a, 8)), (Ok(old), Ok(new)), "{a:#x}");
                // ... and the original's in the original.
                let mut d = c.clone();
                c.store(a, 8, old).unwrap();
                assert_eq!((c.load(a, 8), d.load(a, 8)), (Ok(old), Ok(new)), "{a:#x}");
                assert!(c == m, "a copied page holding the same bytes compares equal");
                d.clone_from(&c);
                assert!(d == m);
            }
        }
    }

    #[test]
    fn clone_from_reshares_every_page() {
        let mut m = mem();
        m.fill(GLOBAL_BASE, 7, 64 * 1024).unwrap();
        m.fill(HEAP_BASE, 9, 16 * 1024).unwrap();
        let mut snap = m.clone();
        m.store(GLOBAL_BASE + 5 * PAGE as u64, 8, 1).unwrap();
        m.store(HEAP_BASE + 80 * PAGE as u64, 8, 1).unwrap(); // grows the heap
        let shared = |a: &Segment, b: &Segment| a.pages.iter().zip(&b.pages).all(|(x, y)| Arc::ptr_eq(x, y));
        assert!(!shared(&snap.globals, &m.globals) && snap.heap.len < m.heap.len);
        snap.clone_from(&m);
        assert!(snap == m);
        for (a, b) in
            [(&snap.low, &m.low), (&snap.globals, &m.globals), (&snap.input, &m.input), (&snap.heap, &m.heap)]
        {
            assert_eq!((a.len, a.pages.len()), (b.len, b.pages.len()));
            assert!(shared(a, b));
        }
    }
}
