//! The trace engine's 256-bit register kernels over `[u64; 4]` limbs
//! (the little-endian limb layout of [`elzar_avx::Ymm`]).
//!
//! Kernels implement the reference interpreter's per-lane semantics for
//! *full-register* vector shapes only — lane count equals the width's
//! capacity and the logical bit width equals the lane width (or the
//! lanes are floats). That is exactly the shape every ELZAR-hardened
//! value has (scalars are widened to whole YMM registers), so the trace
//! builder can select kernels for the hot TMR ops and leave esoteric
//! shapes (masked sub-width integers, partial registers) to the generic
//! per-lane path.
//!
//! The kernels are portable Rust on purpose. ELZAR hardens the
//! *simulated* AVX lanes, whose executable spec is `elzar_avx`; the
//! host's own AVX2 would be a second implementation of the same lanes.
//! The float kernels call the interpreter's own lane functions
//! (`fbin32`/`fbin64`), which fix the NaN a float op returns: Rust leaves
//! it unspecified, and at `opt-level = 3` a plain `x + y` kernel and the
//! interpreter returned different operands' NaNs. The tests below pin
//! every kernel to the interpreter's `scalar_bin`/`scalar_cmp` and to
//! [`Ymm::rotate_lanes`](elzar_avx::Ymm::rotate_lanes).

use crate::machine::{fbin32, fbin64};
use elzar_ir::BinOp;

/// Binary kernel: two 256-bit registers in, one out.
type BinFn = fn(&[u64; 4], &[u64; 4]) -> [u64; 4];
/// Unary kernel: one 256-bit register in, one out.
type UnFn = fn(&[u64; 4]) -> [u64; 4];

// ---------------------------------------------------------------------------
// Lane helpers (little-endian limbs, same layout as `elzar_avx::Ymm`).
// ---------------------------------------------------------------------------

#[inline(always)]
fn map64(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u64, u64) -> u64) -> [u64; 4] {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

#[inline(always)]
fn map32(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u32, u32) -> u32) -> [u64; 4] {
    map64(a, b, |x, y| {
        let lo = u64::from(f(x as u32, y as u32));
        let hi = u64::from(f((x >> 32) as u32, (y >> 32) as u32));
        lo | (hi << 32)
    })
}

#[inline(always)]
fn map16(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u16, u16) -> u16) -> [u64; 4] {
    map64(a, b, |x, y| {
        let mut r = 0u64;
        for k in 0..4 {
            let v = f((x >> (16 * k)) as u16, (y >> (16 * k)) as u16);
            r |= u64::from(v) << (16 * k);
        }
        r
    })
}

#[inline(always)]
fn map8(a: &[u64; 4], b: &[u64; 4], f: impl Fn(u8, u8) -> u8) -> [u64; 4] {
    map64(a, b, |x, y| {
        let mut r = 0u64;
        for k in 0..8 {
            let v = f((x >> (8 * k)) as u8, (y >> (8 * k)) as u8);
            r |= u64::from(v) << (8 * k);
        }
        r
    })
}

#[inline(always)]
fn mapf64(a: &[u64; 4], b: &[u64; 4], f: impl Fn(f64, f64) -> f64) -> [u64; 4] {
    map64(a, b, |x, y| f(f64::from_bits(x), f64::from_bits(y)).to_bits())
}

#[inline(always)]
fn mapf32(a: &[u64; 4], b: &[u64; 4], f: impl Fn(f32, f32) -> f32) -> [u64; 4] {
    map32(a, b, |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits())
}

#[inline(always)]
fn m8(t: bool) -> u8 {
    if t {
        u8::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m16(t: bool) -> u16 {
    if t {
        u16::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m32(t: bool) -> u32 {
    if t {
        u32::MAX
    } else {
        0
    }
}

#[inline(always)]
fn m64(t: bool) -> u64 {
    if t {
        u64::MAX
    } else {
        0
    }
}

/// Rotate the whole 256-bit register down by `K` bits (the lane-rotate
/// shuffle of the Figure-8 check, for lane width `K`).
#[inline(always)]
fn rot_bits<const K: u32>(a: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = (a[i] >> K) | (a[(i + 1) & 3] << (64 - K));
    }
    out
}

// Kernel definitions. `sk!(name, mapper, closure)` expands to a named
// fn so it can live in the table as a plain function pointer.
macro_rules! sk {
    ($name:ident, $map:ident, $f:expr) => {
        fn $name(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
            $map(a, b, $f)
        }
    };
}

sk!(s_and, map64, |x, y| x & y);
sk!(s_or, map64, |x, y| x | y);
sk!(s_xor, map64, |x, y| x ^ y);
sk!(s_add8, map8, u8::wrapping_add);
sk!(s_add16, map16, u16::wrapping_add);
sk!(s_add32, map32, u32::wrapping_add);
sk!(s_add64, map64, u64::wrapping_add);
sk!(s_sub8, map8, u8::wrapping_sub);
sk!(s_sub16, map16, u16::wrapping_sub);
sk!(s_sub32, map32, u32::wrapping_sub);
sk!(s_sub64, map64, u64::wrapping_sub);
sk!(s_mul16, map16, u16::wrapping_mul);
sk!(s_mul32, map32, u32::wrapping_mul);
sk!(s_mul64, map64, u64::wrapping_mul);
// Shift amounts follow the interpreter: amount modulo the lane width
// (`wrapping_shl`/`wrapping_shr` mask by the operand width).
sk!(s_shl32, map32, u32::wrapping_shl);
sk!(s_shl64, map64, |x, y| x.wrapping_shl(y as u32));
sk!(s_lshr32, map32, u32::wrapping_shr);
sk!(s_lshr64, map64, |x, y| x.wrapping_shr(y as u32));
sk!(s_ashr32, map32, |x, y| (x as i32).wrapping_shr(y) as u32);
sk!(s_ashr64, map64, |x, y| (x as i64).wrapping_shr(y as u32) as u64);
sk!(s_umin32, map32, |x, y| x.min(y));
sk!(s_umax32, map32, |x, y| x.max(y));
sk!(s_smin32, map32, |x, y| (x as i32).min(y as i32) as u32);
sk!(s_smax32, map32, |x, y| (x as i32).max(y as i32) as u32);
sk!(s_umin64, map64, |x, y| x.min(y));
sk!(s_umax64, map64, |x, y| x.max(y));
sk!(s_smin64, map64, |x, y| (x as i64).min(y as i64) as u64);
sk!(s_smax64, map64, |x, y| (x as i64).max(y as i64) as u64);
sk!(s_fadd32, mapf32, |x, y| fbin32(BinOp::FAdd, x, y));
sk!(s_fsub32, mapf32, |x, y| fbin32(BinOp::FSub, x, y));
sk!(s_fmul32, mapf32, |x, y| fbin32(BinOp::FMul, x, y));
sk!(s_fdiv32, mapf32, |x, y| fbin32(BinOp::FDiv, x, y));
sk!(s_fmin32, mapf32, |x, y| fbin32(BinOp::FMin, x, y));
sk!(s_fmax32, mapf32, |x, y| fbin32(BinOp::FMax, x, y));
sk!(s_fadd64, mapf64, |x, y| fbin64(BinOp::FAdd, x, y));
sk!(s_fsub64, mapf64, |x, y| fbin64(BinOp::FSub, x, y));
sk!(s_fmul64, mapf64, |x, y| fbin64(BinOp::FMul, x, y));
sk!(s_fdiv64, mapf64, |x, y| fbin64(BinOp::FDiv, x, y));
sk!(s_fmin64, mapf64, |x, y| fbin64(BinOp::FMin, x, y));
sk!(s_fmax64, mapf64, |x, y| fbin64(BinOp::FMax, x, y));
sk!(s_eq8, map8, |x, y| m8(x == y));
sk!(s_ne8, map8, |x, y| m8(x != y));
sk!(s_eq16, map16, |x, y| m16(x == y));
sk!(s_ne16, map16, |x, y| m16(x != y));
sk!(s_eq32, map32, |x, y| m32(x == y));
sk!(s_ne32, map32, |x, y| m32(x != y));
sk!(s_ult32, map32, |x, y| m32(x < y));
sk!(s_ule32, map32, |x, y| m32(x <= y));
sk!(s_ugt32, map32, |x, y| m32(x > y));
sk!(s_uge32, map32, |x, y| m32(x >= y));
sk!(s_slt32, map32, |x, y| m32((x as i32) < (y as i32)));
sk!(s_sle32, map32, |x, y| m32((x as i32) <= (y as i32)));
sk!(s_sgt32, map32, |x, y| m32((x as i32) > (y as i32)));
sk!(s_sge32, map32, |x, y| m32((x as i32) >= (y as i32)));
sk!(s_eq64, map64, |x, y| m64(x == y));
sk!(s_ne64, map64, |x, y| m64(x != y));
sk!(s_ult64, map64, |x, y| m64(x < y));
sk!(s_ule64, map64, |x, y| m64(x <= y));
sk!(s_ugt64, map64, |x, y| m64(x > y));
sk!(s_uge64, map64, |x, y| m64(x >= y));
sk!(s_slt64, map64, |x, y| m64((x as i64) < (y as i64)));
sk!(s_sle64, map64, |x, y| m64((x as i64) <= (y as i64)));
sk!(s_sgt64, map64, |x, y| m64((x as i64) > (y as i64)));
sk!(s_sge64, map64, |x, y| m64((x as i64) >= (y as i64)));
// Float compares follow the interpreter: f32 lanes are promoted to f64
// before the (ordered) predicate — exact and order-preserving, so the
// result equals a direct f32 compare.
sk!(s_foeq32, map32, |x, y| m32(f64::from(f32::from_bits(x)) == f64::from(f32::from_bits(y))));
sk!(s_fone32, map32, |x, y| {
    let (x, y) = (f32::from_bits(x), f32::from_bits(y));
    m32(x != y && !x.is_nan() && !y.is_nan())
});
sk!(s_folt32, map32, |x, y| m32(f32::from_bits(x) < f32::from_bits(y)));
sk!(s_fole32, map32, |x, y| m32(f32::from_bits(x) <= f32::from_bits(y)));
sk!(s_fogt32, map32, |x, y| m32(f32::from_bits(x) > f32::from_bits(y)));
sk!(s_foge32, map32, |x, y| m32(f32::from_bits(x) >= f32::from_bits(y)));
sk!(s_foeq64, map64, |x, y| m64(f64::from_bits(x) == f64::from_bits(y)));
sk!(s_fone64, map64, |x, y| {
    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
    m64(x != y && !x.is_nan() && !y.is_nan())
});
sk!(s_folt64, map64, |x, y| m64(f64::from_bits(x) < f64::from_bits(y)));
sk!(s_fole64, map64, |x, y| m64(f64::from_bits(x) <= f64::from_bits(y)));
sk!(s_fogt64, map64, |x, y| m64(f64::from_bits(x) > f64::from_bits(y)));
sk!(s_foge64, map64, |x, y| m64(f64::from_bits(x) >= f64::from_bits(y)));

fn s_rot8(a: &[u64; 4]) -> [u64; 4] {
    rot_bits::<8>(a)
}

fn s_rot16(a: &[u64; 4]) -> [u64; 4] {
    rot_bits::<16>(a)
}

fn s_rot32(a: &[u64; 4]) -> [u64; 4] {
    rot_bits::<32>(a)
}

fn s_rot64(a: &[u64; 4]) -> [u64; 4] {
    [a[1], a[2], a[3], a[0]]
}

// ---------------------------------------------------------------------------
// Kernel index enums and the table (one macro keeps variant order and
// table order aligned by construction).
// ---------------------------------------------------------------------------

macro_rules! bin_kernels {
    ($(($variant:ident, $f:path)),+ $(,)?) => {
        /// A binary kernel: an index into the kernel table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum BinKernel { $($variant),+ }

        impl BinKernel {
            /// Number of binary kernels.
            pub(crate) const COUNT: usize = [$(BinKernel::$variant),+].len();
        }

        static BIN: [BinFn; BinKernel::COUNT] = [$($f),+];
    };
}

macro_rules! un_kernels {
    ($(($variant:ident, $f:path)),+ $(,)?) => {
        /// A unary kernel: an index into the kernel table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum UnKernel { $($variant),+ }

        impl UnKernel {
            /// Number of unary kernels.
            pub(crate) const COUNT: usize = [$(UnKernel::$variant),+].len();
        }

        static UN: [UnFn; UnKernel::COUNT] = [$($f),+];
    };
}

bin_kernels! {
    (And, s_and),
    (Or, s_or),
    (Xor, s_xor),
    (Add8, s_add8),
    (Add16, s_add16),
    (Add32, s_add32),
    (Add64, s_add64),
    (Sub8, s_sub8),
    (Sub16, s_sub16),
    (Sub32, s_sub32),
    (Sub64, s_sub64),
    (Mul16, s_mul16),
    (Mul32, s_mul32),
    (Mul64, s_mul64),
    (Shl32, s_shl32),
    (Shl64, s_shl64),
    (Lshr32, s_lshr32),
    (Lshr64, s_lshr64),
    (AShr32, s_ashr32),
    (AShr64, s_ashr64),
    (UMin32, s_umin32),
    (UMax32, s_umax32),
    (SMin32, s_smin32),
    (SMax32, s_smax32),
    (UMin64, s_umin64),
    (UMax64, s_umax64),
    (SMin64, s_smin64),
    (SMax64, s_smax64),
    (FAdd32, s_fadd32),
    (FSub32, s_fsub32),
    (FMul32, s_fmul32),
    (FDiv32, s_fdiv32),
    (FMin32, s_fmin32),
    (FMax32, s_fmax32),
    (FAdd64, s_fadd64),
    (FSub64, s_fsub64),
    (FMul64, s_fmul64),
    (FDiv64, s_fdiv64),
    (FMin64, s_fmin64),
    (FMax64, s_fmax64),
    (Eq8, s_eq8),
    (Ne8, s_ne8),
    (Eq16, s_eq16),
    (Ne16, s_ne16),
    (Eq32, s_eq32),
    (Ne32, s_ne32),
    (Ult32, s_ult32),
    (Ule32, s_ule32),
    (Ugt32, s_ugt32),
    (Uge32, s_uge32),
    (Slt32, s_slt32),
    (Sle32, s_sle32),
    (Sgt32, s_sgt32),
    (Sge32, s_sge32),
    (Eq64, s_eq64),
    (Ne64, s_ne64),
    (Ult64, s_ult64),
    (Ule64, s_ule64),
    (Ugt64, s_ugt64),
    (Uge64, s_uge64),
    (Slt64, s_slt64),
    (Sle64, s_sle64),
    (Sgt64, s_sgt64),
    (Sge64, s_sge64),
    (FOeq32, s_foeq32),
    (FOne32, s_fone32),
    (FOlt32, s_folt32),
    (FOle32, s_fole32),
    (FOgt32, s_fogt32),
    (FOge32, s_foge32),
    (FOeq64, s_foeq64),
    (FOne64, s_fone64),
    (FOlt64, s_folt64),
    (FOle64, s_fole64),
    (FOgt64, s_fogt64),
    (FOge64, s_foge64),
}

un_kernels! {
    (Rot8, s_rot8),
    (Rot16, s_rot16),
    (Rot32, s_rot32),
    (Rot64, s_rot64),
}

impl BinKernel {
    /// Run the kernel on two registers.
    #[inline(always)]
    pub(crate) fn apply(self, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        BIN[self as usize](a, b)
    }
}

impl UnKernel {
    /// Run the kernel on one register.
    #[inline(always)]
    pub(crate) fn apply(self, a: &[u64; 4]) -> [u64; 4] {
        UN[self as usize](a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::VMeta;
    use crate::machine::{scalar_bin, scalar_cmp};
    use crate::trace::{bin_kernel, cmp_kernel, rot_mask};
    use elzar_avx::{LaneWidth, Ymm};
    use elzar_ir::CmpPred;
    use elzar_rng::DetRng;

    fn rand_reg(rng: &mut DetRng) -> [u64; 4] {
        // Mix raw randomness with degenerate patterns (equal lanes,
        // all-ones, zeros, sign boundaries) so compares and shifts see
        // their edge cases.
        match rng.below(5) {
            0 => [0; 4],
            1 => [u64::MAX; 4],
            2 => {
                let x = rng.next_u64();
                [x; 4]
            }
            3 => {
                let x = rng.next_u64();
                [x, x ^ 1, x, x.wrapping_neg()]
            }
            _ => [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()],
        }
    }

    /// The fixed NaN-payload case (f32 lane 3 holds a quiet NaN in `a`
    /// and all-ones, another NaN, in `b`: `vaddps` returns `a`'s payload,
    /// Rust's `x + y` need not) followed by seeded random registers.
    fn random_inputs() -> Vec<([u64; 4], [u64; 4])> {
        let mut out = vec![(
            [0xe819a0dc541cc745, 0x7ffe7073970c7157, 0xda382177c257db88, 0xc7c0c3ce36db0a8d],
            [u64::MAX; 4],
        )];
        let mut rng = DetRng::seed_from_u64(0xE17A);
        out.extend((0..400).map(|_| (rand_reg(&mut rng), rand_reg(&mut rng))));
        out
    }

    /// Every pair of float specials (+-0, NaN, +-inf, `MIN_POSITIVE`)
    /// and two ordinary values, splatted as f64 and as f32 lanes.
    fn float_special_inputs() -> Vec<([u64; 4], [u64; 4])> {
        let f64s = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1.5, -2.25];
        let f32s = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1.5, -2.25];
        let splat32 = |x: f32| u64::from(x.to_bits()) * 0x1_0000_0001;
        let mut out = Vec::new();
        for (i, &x) in f64s.iter().enumerate() {
            for (j, &y) in f64s.iter().enumerate() {
                out.push(([x.to_bits(); 4], [y.to_bits(); 4]));
                out.push(([splat32(f32s[i]); 4], [splat32(f32s[j]); 4]));
            }
        }
        out
    }

    #[test]
    fn scalar_kernels_match_ymm_spec() {
        // Kernels against `elzar_avx::Ymm` lane ops (the executable spec
        // of the simulated lanes) with hand-written lane closures: an
        // oracle independent of the interpreter's `scalar_bin`.
        type Case = (BinKernel, LaneWidth, fn(u64, u64) -> u64);
        let mut rng = DetRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let (al, bl) = (rand_reg(&mut rng), rand_reg(&mut rng));
            let (a, b) = (Ymm::from_limbs(al), Ymm::from_limbs(bl));
            let cases: [Case; 8] = [
                (BinKernel::Add64, LaneWidth::B64, u64::wrapping_add),
                (BinKernel::Xor, LaneWidth::B64, |x, y| x ^ y),
                (BinKernel::Mul32, LaneWidth::B32, |x, y| u64::from((x as u32).wrapping_mul(y as u32))),
                (BinKernel::Sub16, LaneWidth::B16, |x, y| u64::from((x as u16).wrapping_sub(y as u16))),
                (BinKernel::Add8, LaneWidth::B8, |x, y| u64::from((x as u8).wrapping_add(y as u8))),
                (BinKernel::Shl64, LaneWidth::B64, |x, y| x.wrapping_shl((y % 64) as u32)),
                (BinKernel::AShr32, LaneWidth::B32, |x, y| ((x as u32 as i32) >> (y % 32)) as u32 as u64),
                (BinKernel::FMul64, LaneWidth::B64, |x, y| (f64::from_bits(x) * f64::from_bits(y)).to_bits()),
            ];
            for (k, w, f) in cases {
                let got = Ymm::from_limbs(k.apply(&al, &bl));
                let want = a.map2(&b, w, w.capacity(), f);
                assert_eq!(got, want, "kernel {k:?}");
            }
            // Compares produce canonical AVX masks.
            let got = Ymm::from_limbs(BinKernel::Ult64.apply(&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B64, 4, |x, y| x < y);
            assert_eq!(got, want, "Ult64 mask");
            let got = Ymm::from_limbs(BinKernel::Sgt32.apply(&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B32, 8, |x, y| (x as u32 as i32) > (y as u32 as i32));
            assert_eq!(got, want, "Sgt32 mask");
        }
    }

    /// Checks every kernel of the table against the interpreter's
    /// per-lane semantics on `inputs`: each binary kernel through the
    /// full-register `(op, width)`/`(pred, width)` that `bin_kernel`/
    /// `cmp_kernel` map to it, each unary kernel through `rot_mask`.
    fn check_every_kernel(inputs: &[([u64; 4], [u64; 4])]) {
        use BinOp::*;
        use CmpPred::*;
        const OPS: [BinOp; 23] = [
            Add, Sub, Mul, UDiv, SDiv, URem, SRem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul, FDiv,
            UMin, UMax, SMin, SMax, FMin, FMax,
        ];
        const PREDS: [CmpPred; 16] =
            [Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge, FOeq, FOne, FOlt, FOle, FOgt, FOge];
        let mut bin_seen = [false; BinKernel::COUNT];
        let mut un_seen = [false; UnKernel::COUNT];
        for w in [LaneWidth::B8, LaneWidth::B16, LaneWidth::B32, LaneWidth::B64] {
            let lanes = w.capacity();
            for float in [false, true] {
                if float && w.bits() < 32 {
                    continue;
                }
                // The full-register shape the trace builder keys kernels on.
                let m = VMeta::new(false, float, w.bits() as u8, w, lanes as u8);
                let ops = OPS.iter().filter(|op| op.is_float() == float);
                let bins = ops.filter_map(|&op| Some((bin_kernel(op, &m)?, op)));
                for (k, op) in bins {
                    bin_seen[k as usize] = true;
                    for (a, b) in inputs {
                        let (ya, yb) = (Ymm::from_limbs(*a), Ymm::from_limbs(*b));
                        // The interpreter's per-lane vector `Bin` handler.
                        let want = ya.map2(&yb, w, lanes, |x, y| scalar_bin(op, &m, x, y).unwrap());
                        let got = Ymm::from_limbs(k.apply(a, b));
                        assert_eq!(got, want, "{k:?} ({op:?}) on {a:x?} {b:x?}");
                    }
                }
                let preds = PREDS.iter().filter(|p| p.is_float() == float);
                let cmps = preds.filter_map(|&p| Some((cmp_kernel(p, &m)?, p)));
                for (k, pred) in cmps {
                    bin_seen[k as usize] = true;
                    for (a, b) in inputs {
                        let (ya, yb) = (Ymm::from_limbs(*a), Ymm::from_limbs(*b));
                        // The interpreter's vector `Cmp` handler.
                        let want = ya.cmp_mask(&yb, w, lanes, |x, y| scalar_cmp(pred, &m, x, y));
                        let got = Ymm::from_limbs(k.apply(a, b));
                        assert_eq!(got, want, "{k:?} ({pred:?}) on {a:x?} {b:x?}");
                    }
                }
            }
            // Rotates are the Figure-8 shuffle at full register width.
            let m = VMeta::new(false, false, w.bits() as u8, w, lanes as u8);
            let mask: Vec<u8> = (0..lanes).map(|i| ((i + 1) % lanes) as u8).collect();
            let k = rot_mask(&mask, &m).expect("full-register rotate has a kernel");
            un_seen[k as usize] = true;
            for (a, _) in inputs {
                let want = Ymm::from_limbs(*a).rotate_lanes(w, lanes);
                assert_eq!(Ymm::from_limbs(k.apply(a)), want, "{k:?} on {a:x?}");
            }
        }
        // Every table entry is reachable from some op, so none of them
        // went unchecked.
        assert!(bin_seen.iter().all(|&s| s), "binary kernels no op maps to: {bin_seen:?}");
        assert!(un_seen.iter().all(|&s| s), "unary kernels no shuffle maps to: {un_seen:?}");
    }

    #[test]
    fn simd_table_matches_scalar_table() {
        // The whole-register kernel table against the interpreter's
        // scalar per-lane handlers, on the NaN-payload case and random
        // registers.
        check_every_kernel(&random_inputs());
    }

    #[test]
    fn float_edge_cases_agree_across_tables() {
        // The same check on float specials in f32 and f64 lanes.
        check_every_kernel(&float_special_inputs());
    }
}
