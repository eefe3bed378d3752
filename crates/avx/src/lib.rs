//! # elzar-avx
//!
//! Bit-accurate software model of the Intel AVX 256-bit (YMM) register file
//! and the lane operations the ELZAR transformation relies on (§II-C of the
//! paper): lane-wise arithmetic, compares producing all-ones/all-zeros
//! masks, `ptest` three-outcome flag folding, `shuffle`, `extract`,
//! `broadcast`, blends, and the §VII "future AVX" gather/scatter value
//! plumbing.
//!
//! The model also provides what real silicon will not: a precise
//! single-bit fault-injection hook ([`Ymm::flip_bit`]) and majority-vote
//! helpers implementing the paper's simple and extended recovery policies
//! (§III-C step 3).
//!
//! ```
//! use elzar_avx::{LaneWidth, PtestResult, Ymm};
//!
//! // Four replicas of 7, as ELZAR would hold an i64.
//! let a = Ymm::splat(LaneWidth::B64, 4, 7);
//! let b = Ymm::splat(LaneWidth::B64, 4, 35);
//! let sum = a.map2(&b, LaneWidth::B64, 4, |x, y| x.wrapping_add(y));
//! assert_eq!(sum.lane(LaneWidth::B64, 0), 42);
//!
//! // The Figure-8 check: shuffle-rotate, xor, ptest.
//! let rot = sum.rotate_lanes(LaneWidth::B64, 4);
//! let diff = sum.xor(&rot);
//! assert_eq!(diff.ptest(LaneWidth::B64, 4), PtestResult::AllFalse);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Lane element width within a YMM register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LaneWidth {
    /// 8-bit lanes (32 per register).
    B8,
    /// 16-bit lanes (16 per register).
    B16,
    /// 32-bit lanes (8 per register).
    B32,
    /// 64-bit lanes (4 per register).
    B64,
}

impl LaneWidth {
    /// Lane width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            LaneWidth::B8 => 8,
            LaneWidth::B16 => 16,
            LaneWidth::B32 => 32,
            LaneWidth::B64 => 64,
        }
    }

    /// Lane capacity of one 256-bit register at this width.
    pub fn capacity(self) -> usize {
        (256 / self.bits()) as usize
    }

    /// All-ones lane value (the AVX "true" mask lane).
    pub fn ones(self) -> u64 {
        match self {
            LaneWidth::B64 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Width for a lane of `bytes` storage bytes.
    ///
    /// # Panics
    /// Panics unless `bytes ∈ {1,2,4,8}`.
    pub fn from_bytes(bytes: u32) -> LaneWidth {
        match bytes {
            1 => LaneWidth::B8,
            2 => LaneWidth::B16,
            4 => LaneWidth::B32,
            8 => LaneWidth::B64,
            _ => panic!("no lane width of {bytes} bytes"),
        }
    }
}

/// The three outcomes `ptest` + `ja/je/jne` distinguish (Figure 9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PtestResult {
    /// Every considered lane is all-zeros ("false" in every replica).
    AllFalse,
    /// Every considered lane is all-ones ("true" in every replica).
    AllTrue,
    /// Lanes disagree — under ELZAR's mask discipline this means a fault.
    Mixed,
}

impl PtestResult {
    /// Encoding used by the IR (`i8`): 0 / 1 / 2.
    pub fn code(self) -> u64 {
        match self {
            PtestResult::AllFalse => 0,
            PtestResult::AllTrue => 1,
            PtestResult::Mixed => 2,
        }
    }
}

/// A 256-bit YMM register value.
///
/// Stored little-endian as four 64-bit limbs: bit 0 of `limbs[0]` is bit 0
/// of the register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ymm {
    limbs: [u64; 4],
}

impl Ymm {
    /// The all-zeros register.
    pub const ZERO: Ymm = Ymm { limbs: [0; 4] };

    /// Construct from raw limbs (limb 0 = bits 0..64).
    pub fn from_limbs(limbs: [u64; 4]) -> Ymm {
        Ymm { limbs }
    }

    /// Raw limbs.
    pub fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Borrow the raw limbs without copying — the view execution-engine
    /// kernels operate on.
    pub fn limbs_ref(&self) -> &[u64; 4] {
        &self.limbs
    }

    /// Mutably borrow the raw limbs, for in-place kernel writes.
    pub fn limbs_mut(&mut self) -> &mut [u64; 4] {
        &mut self.limbs
    }

    /// Broadcast `value` (masked to the lane width) across the *whole*
    /// register — [`Ymm::splat`] with `lanes == capacity`, but computed
    /// with four limb writes instead of a per-lane loop. This is the
    /// shape every ELZAR-hardened value has, so it is the fast path the
    /// trace engine and the fault model share.
    pub fn broadcast(width: LaneWidth, value: u64) -> Ymm {
        let limb = match width {
            LaneWidth::B64 => value,
            LaneWidth::B32 => (value & 0xFFFF_FFFF).wrapping_mul(0x0000_0001_0000_0001),
            LaneWidth::B16 => (value & 0xFFFF).wrapping_mul(0x0001_0001_0001_0001),
            LaneWidth::B8 => (value & 0xFF).wrapping_mul(0x0101_0101_0101_0101),
        };
        Ymm { limbs: [limb; 4] }
    }

    /// Broadcast `value` (masked to the lane width) into the first
    /// `lanes` lanes; upper lanes stay zero. This is `vbroadcast` when
    /// `lanes` equals the capacity.
    pub fn splat(width: LaneWidth, lanes: usize, value: u64) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..lanes {
            r.set_lane(width, i, value);
        }
        r
    }

    /// Read lane `i` (zero-extended).
    ///
    /// # Panics
    /// Panics if `i` exceeds the lane capacity for `width`.
    pub fn lane(&self, width: LaneWidth, i: usize) -> u64 {
        assert!(i < width.capacity(), "lane {i} out of range for {width:?}");
        let bits = width.bits() as usize;
        let bit = i * bits;
        let limb = bit / 64;
        let off = bit % 64;
        let raw = self.limbs[limb] >> off;
        if bits == 64 {
            raw
        } else {
            raw & ((1u64 << bits) - 1)
        }
    }

    /// Write lane `i` (value masked to the lane width).
    pub fn set_lane(&mut self, width: LaneWidth, i: usize, value: u64) {
        assert!(i < width.capacity(), "lane {i} out of range for {width:?}");
        let bits = width.bits() as usize;
        let bit = i * bits;
        let limb = bit / 64;
        let off = bit % 64;
        if bits == 64 {
            self.limbs[limb] = value;
        } else {
            let mask = ((1u64 << bits) - 1) << off;
            self.limbs[limb] = (self.limbs[limb] & !mask) | ((value << off) & mask);
        }
    }

    /// Functional update of one lane.
    pub fn with_lane(mut self, width: LaneWidth, i: usize, value: u64) -> Ymm {
        self.set_lane(width, i, value);
        self
    }

    /// Lane-wise unary map over the first `lanes` lanes.
    pub fn map(&self, width: LaneWidth, lanes: usize, mut f: impl FnMut(u64) -> u64) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..lanes {
            r.set_lane(width, i, f(self.lane(width, i)));
        }
        r
    }

    /// Lane-wise binary map over the first `lanes` lanes.
    pub fn map2(
        &self,
        other: &Ymm,
        width: LaneWidth,
        lanes: usize,
        mut f: impl FnMut(u64, u64) -> u64,
    ) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..lanes {
            r.set_lane(width, i, f(self.lane(width, i), other.lane(width, i)));
        }
        r
    }

    /// Lane-wise compare producing an AVX mask: all-ones where `f` holds,
    /// all-zeros elsewhere (`vpcmpeq`/`vcmpps` semantics, §II-C).
    pub fn cmp_mask(
        &self,
        other: &Ymm,
        width: LaneWidth,
        lanes: usize,
        mut f: impl FnMut(u64, u64) -> bool,
    ) -> Ymm {
        let ones = width.ones();
        self.map2(other, width, lanes, |a, b| if f(a, b) { ones } else { 0 })
    }

    /// In-place lane-wise unary map over the first `lanes` lanes —
    /// [`Ymm::map`] without materializing a fresh register.
    pub fn map_assign(&mut self, width: LaneWidth, lanes: usize, mut f: impl FnMut(u64) -> u64) {
        for i in 0..lanes {
            self.set_lane(width, i, f(self.lane(width, i)));
        }
    }

    /// In-place lane-wise binary map over the first `lanes` lanes —
    /// [`Ymm::map2`] updating `self` directly.
    pub fn map2_assign(
        &mut self,
        other: &Ymm,
        width: LaneWidth,
        lanes: usize,
        mut f: impl FnMut(u64, u64) -> u64,
    ) {
        for i in 0..lanes {
            self.set_lane(width, i, f(self.lane(width, i), other.lane(width, i)));
        }
    }

    /// Whole-register xor.
    pub fn xor(&self, other: &Ymm) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..4 {
            r.limbs[i] = self.limbs[i] ^ other.limbs[i];
        }
        r
    }

    /// In-place whole-register xor.
    pub fn xor_assign(&mut self, other: &Ymm) {
        for i in 0..4 {
            self.limbs[i] ^= other.limbs[i];
        }
    }

    /// Lane permutation: result lane `i` = source lane `mask[i]`
    /// (`vperm`-style, one source).
    ///
    /// # Panics
    /// Panics if any mask entry exceeds capacity.
    pub fn shuffle(&self, width: LaneWidth, mask: &[u8]) -> Ymm {
        let mut r = Ymm::ZERO;
        for (i, &m) in mask.iter().enumerate() {
            r.set_lane(width, i, self.lane(width, m as usize));
        }
        r
    }

    /// Rotate the first `lanes` lanes down by one (lane `i` receives lane
    /// `i+1`, last receives lane 0) — the shuffle ELZAR's Figure-8 check
    /// uses.
    pub fn rotate_lanes(&self, width: LaneWidth, lanes: usize) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..lanes {
            r.set_lane(width, i, self.lane(width, (i + 1) % lanes));
        }
        r
    }

    /// `ptest` restricted to the first `lanes` lanes, with ELZAR's flag
    /// interpretation (Figure 9): all-false / all-true / mixed.
    pub fn ptest(&self, width: LaneWidth, lanes: usize) -> PtestResult {
        let ones = width.ones();
        let mut all_zero = true;
        let mut all_ones = true;
        for i in 0..lanes {
            let v = self.lane(width, i);
            if v != 0 {
                all_zero = false;
            }
            if v != ones {
                all_ones = false;
            }
        }
        if all_zero {
            PtestResult::AllFalse
        } else if all_ones {
            PtestResult::AllTrue
        } else {
            PtestResult::Mixed
        }
    }

    /// Lane-wise blend: where the mask lane is non-zero take `a`, else
    /// `b` (`vblendv` with canonical masks).
    pub fn blend(mask: &Ymm, a: &Ymm, b: &Ymm, width: LaneWidth, lanes: usize) -> Ymm {
        let mut r = Ymm::ZERO;
        for i in 0..lanes {
            let v = if mask.lane(width, i) != 0 { a.lane(width, i) } else { b.lane(width, i) };
            r.set_lane(width, i, v);
        }
        r
    }

    /// Flip a single bit (0..=255) — the SEU model's injection primitive.
    ///
    /// # Panics
    /// Panics if `bit >= 256`.
    pub fn flip_bit(mut self, bit: u32) -> Ymm {
        assert!(bit < 256, "bit index out of range");
        self.limbs[(bit / 64) as usize] ^= 1u64 << (bit % 64);
        self
    }

    /// True if the first `lanes` lanes all hold the same value.
    pub fn lanes_agree(&self, width: LaneWidth, lanes: usize) -> bool {
        let first = self.lane(width, 0);
        (1..lanes).all(|i| self.lane(width, i) == first)
    }
}

/// Result of a majority vote across replicas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MajorityOutcome {
    /// A plurality agreed on `value`; `corrected` is true when at least
    /// one lane had to be overwritten.
    Recovered {
        /// The winning replica value.
        value: u64,
        /// Whether any lane diverged from the winner.
        corrected: bool,
    },
    /// Two groups of equal size disagree (the paper's scenario 3) — no
    /// majority exists and execution must stop.
    Tie,
}

/// Simple recovery (§III-C "Step 3", fast variant): compare the two low
/// lanes; if they agree broadcast lane 0, otherwise broadcast the highest
/// lane. Correct under the single-corrupted-lane assumption.
pub fn majority_simple(v: &Ymm, width: LaneWidth, lanes: usize) -> u64 {
    if lanes >= 2 && v.lane(width, 0) == v.lane(width, 1) {
        v.lane(width, 0)
    } else {
        v.lane(width, lanes - 1)
    }
}

/// Extended recovery (§III-C): count agreement groups across all lanes.
///
/// * one group strictly larger than every other → recovered (covers the
///   paper's scenarios 1 and 2, and any pattern leaving a plurality);
/// * equal-size leading groups (e.g. the 2+2 split) →
///   [`MajorityOutcome::Tie`]: execution must stop.
pub fn majority_extended(v: &Ymm, width: LaneWidth, lanes: usize) -> MajorityOutcome {
    // Count occurrences of each distinct lane value (lanes ≤ 32).
    let mut values: Vec<(u64, usize)> = Vec::with_capacity(lanes);
    for i in 0..lanes {
        let x = v.lane(width, i);
        match values.iter_mut().find(|(val, _)| *val == x) {
            Some((_, c)) => *c += 1,
            None => values.push((x, 1)),
        }
    }
    values.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let (best, best_count) = values[0];
    let second_count = values.get(1).map(|&(_, c)| c).unwrap_or(0);
    if best_count == lanes {
        MajorityOutcome::Recovered { value: best, corrected: false }
    } else if best_count > second_count {
        MajorityOutcome::Recovered { value: best, corrected: true }
    } else {
        MajorityOutcome::Tie
    }
}

impl fmt::Debug for Ymm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ymm({:#018x} {:#018x} {:#018x} {:#018x})",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl fmt::Display for Ymm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

// ---------------------------------------------------------------------------
// Float lane helpers (the VM executes FP vector ops through these).
// ---------------------------------------------------------------------------

/// Interpret a 32-bit lane as `f32`.
pub fn f32_from_lane(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

/// Store an `f32` into a 32-bit lane.
pub fn f32_to_lane(v: f32) -> u64 {
    u64::from(v.to_bits())
}

/// Interpret a 64-bit lane as `f64`.
pub fn f64_from_lane(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Store an `f64` into a 64-bit lane.
pub fn f64_to_lane(v: f64) -> u64 {
    v.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_roundtrip_all_widths() {
        for w in [LaneWidth::B8, LaneWidth::B16, LaneWidth::B32, LaneWidth::B64] {
            let mut r = Ymm::ZERO;
            for i in 0..w.capacity() {
                r.set_lane(w, i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            for i in 0..w.capacity() {
                let want = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & w.ones();
                assert_eq!(r.lane(w, i), want, "width {w:?} lane {i}");
            }
        }
    }

    #[test]
    fn splat_fills_lanes() {
        let r = Ymm::splat(LaneWidth::B32, 8, 0xDEAD_BEEF);
        for i in 0..8 {
            assert_eq!(r.lane(LaneWidth::B32, i), 0xDEAD_BEEF);
        }
        assert!(r.lanes_agree(LaneWidth::B32, 8));
    }

    #[test]
    fn figure2_addition_semantics() {
        // Figure 2: r1+r2 computed in all four lanes at once.
        let r1 = Ymm::splat(LaneWidth::B64, 4, 100);
        let r2 = Ymm::splat(LaneWidth::B64, 4, 23);
        let sum = r1.map2(&r2, LaneWidth::B64, 4, |a, b| a.wrapping_add(b));
        for i in 0..4 {
            assert_eq!(sum.lane(LaneWidth::B64, i), 123);
        }
    }

    #[test]
    fn cmp_mask_is_all_ones_or_zeros() {
        let a = Ymm::splat(LaneWidth::B64, 4, 5);
        let b = Ymm::splat(LaneWidth::B64, 4, 5).with_lane(LaneWidth::B64, 2, 6);
        let m = a.cmp_mask(&b, LaneWidth::B64, 4, |x, y| x == y);
        assert_eq!(m.lane(LaneWidth::B64, 0), u64::MAX);
        assert_eq!(m.lane(LaneWidth::B64, 2), 0);
    }

    #[test]
    fn ptest_trichotomy() {
        let f = Ymm::ZERO;
        assert_eq!(f.ptest(LaneWidth::B64, 4), PtestResult::AllFalse);
        let t = Ymm::splat(LaneWidth::B64, 4, u64::MAX);
        assert_eq!(t.ptest(LaneWidth::B64, 4), PtestResult::AllTrue);
        let m = t.with_lane(LaneWidth::B64, 1, 0);
        assert_eq!(m.ptest(LaneWidth::B64, 4), PtestResult::Mixed);
        // Garbage (neither all-ones nor zero in a lane) is also Mixed.
        let g = Ymm::ZERO.with_lane(LaneWidth::B64, 0, 0b1010);
        assert_eq!(g.ptest(LaneWidth::B64, 4), PtestResult::Mixed);
    }

    #[test]
    fn figure8_check_detects_single_lane_corruption() {
        // shuffle(rot1) + xor + ptest: clean register -> AllFalse,
        // any single corrupted lane -> not AllFalse.
        let clean = Ymm::splat(LaneWidth::B64, 4, 0xABCD);
        let diff = clean.xor(&clean.rotate_lanes(LaneWidth::B64, 4));
        assert_eq!(diff.ptest(LaneWidth::B64, 4), PtestResult::AllFalse);

        for lane in 0..4 {
            for bit in [0u32, 17, 63] {
                let faulty = clean.flip_bit(lane * 64 + bit);
                let d = faulty.xor(&faulty.rotate_lanes(LaneWidth::B64, 4));
                assert_ne!(d.ptest(LaneWidth::B64, 4), PtestResult::AllFalse, "lane {lane} bit {bit}");
            }
        }
    }

    #[test]
    fn shuffle_matches_figure4() {
        let mut v = Ymm::ZERO;
        for i in 0..4 {
            v.set_lane(LaneWidth::B64, i, 10 + i as u64);
        }
        let s = v.shuffle(LaneWidth::B64, &[3, 2, 1, 0]);
        assert_eq!(s.lane(LaneWidth::B64, 0), 13);
        assert_eq!(s.lane(LaneWidth::B64, 3), 10);
    }

    #[test]
    fn blend_selects_by_mask() {
        let a = Ymm::splat(LaneWidth::B32, 8, 1);
        let b = Ymm::splat(LaneWidth::B32, 8, 2);
        let mut mask = Ymm::ZERO;
        mask.set_lane(LaneWidth::B32, 3, LaneWidth::B32.ones());
        let r = Ymm::blend(&mask, &a, &b, LaneWidth::B32, 8);
        for i in 0..8 {
            assert_eq!(r.lane(LaneWidth::B32, i), if i == 3 { 1 } else { 2 });
        }
    }

    #[test]
    fn majority_simple_matches_paper_fast_path() {
        // Low two lanes agree -> take lane 0.
        let v = Ymm::splat(LaneWidth::B64, 4, 9).with_lane(LaneWidth::B64, 3, 1);
        assert_eq!(majority_simple(&v, LaneWidth::B64, 4), 9);
        // Low lanes disagree -> the fault is among them; take the top lane.
        let v = Ymm::splat(LaneWidth::B64, 4, 9).with_lane(LaneWidth::B64, 0, 1);
        assert_eq!(majority_simple(&v, LaneWidth::B64, 4), 9);
        let v = Ymm::splat(LaneWidth::B64, 4, 9).with_lane(LaneWidth::B64, 1, 1);
        assert_eq!(majority_simple(&v, LaneWidth::B64, 4), 9);
    }

    #[test]
    fn majority_extended_three_scenarios() {
        let w = LaneWidth::B64;
        // Scenario 1: three identical, one faulty.
        let v = Ymm::splat(w, 4, 7).with_lane(w, 2, 3);
        assert_eq!(majority_extended(&v, w, 4), MajorityOutcome::Recovered { value: 7, corrected: true });
        // Scenario 2: two identical + two distinct singletons.
        let v = Ymm::splat(w, 4, 7).with_lane(w, 1, 3).with_lane(w, 2, 4);
        assert_eq!(majority_extended(&v, w, 4), MajorityOutcome::Recovered { value: 7, corrected: true });
        // Scenario 3: 2+2 split — no majority.
        let v = Ymm::splat(w, 4, 7).with_lane(w, 2, 3).with_lane(w, 3, 3);
        assert_eq!(majority_extended(&v, w, 4), MajorityOutcome::Tie);
        // Clean register: recovered without correction.
        let v = Ymm::splat(w, 4, 7);
        assert_eq!(majority_extended(&v, w, 4), MajorityOutcome::Recovered { value: 7, corrected: false });
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        let v = Ymm::splat(LaneWidth::B64, 4, 0);
        for bit in [0u32, 63, 64, 128, 255] {
            let f = v.flip_bit(bit);
            let mut diff = 0;
            for i in 0..4 {
                diff += (f.limbs()[i] ^ v.limbs()[i]).count_ones();
            }
            assert_eq!(diff, 1);
            assert_eq!(f.flip_bit(bit), v, "double flip restores");
        }
    }

    #[test]
    fn broadcast_equals_full_capacity_splat() {
        for w in [LaneWidth::B8, LaneWidth::B16, LaneWidth::B32, LaneWidth::B64] {
            for v in [0u64, 1, 0xAB, 0xDEAD_BEEF, u64::MAX, 0x8000_0000_0000_0001] {
                assert_eq!(Ymm::broadcast(w, v), Ymm::splat(w, w.capacity(), v), "{w:?} {v:#x}");
            }
        }
    }

    #[test]
    fn in_place_variants_match_copying_ops() {
        let a = Ymm::from_limbs([0x0123, 0x4567, 0x89AB, 0xCDEF]);
        let b = Ymm::from_limbs([u64::MAX, 0, 0x5555_5555, 0xAAAA_AAAA]);
        let mut x = a;
        x.xor_assign(&b);
        assert_eq!(x, a.xor(&b));
        let mut y = a;
        y.map_assign(LaneWidth::B32, 8, |v| v.wrapping_mul(3));
        assert_eq!(y, a.map(LaneWidth::B32, 8, |v| v.wrapping_mul(3)));
        let mut z = a;
        z.map2_assign(&b, LaneWidth::B64, 4, u64::wrapping_add);
        assert_eq!(z, a.map2(&b, LaneWidth::B64, 4, u64::wrapping_add));
        let mut w = a;
        w.limbs_mut()[2] = 42;
        assert_eq!(w.limbs_ref()[2], 42);
        assert_eq!(w.lane(LaneWidth::B64, 2), 42);
    }

    #[test]
    fn float_lane_roundtrip() {
        assert_eq!(f32_from_lane(f32_to_lane(1.5)), 1.5);
        assert_eq!(f64_from_lane(f64_to_lane(-2.25)), -2.25);
        let v = Ymm::splat(LaneWidth::B64, 4, f64_to_lane(0.5));
        let sq = v.map(LaneWidth::B64, 4, |b| f64_to_lane(f64_from_lane(b) * 2.0));
        assert_eq!(f64_from_lane(sq.lane(LaneWidth::B64, 0)), 1.0);
    }
}
