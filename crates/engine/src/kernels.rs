//! Fixed tables of 256-bit register kernels over `[u64; 4]` limbs.
//!
//! Two tables with bit-identical semantics: a portable scalar table
//! (always available, and the executable spec), and an AVX2 table whose
//! kernels are `#[target_feature(enable = "avx2")]` wrappers around real
//! `std::arch::x86_64` intrinsics. The AVX2 table is only ever handed
//! out after `is_x86_feature_detected!("avx2")` succeeds at runtime, so
//! calling its kernels is sound on the detected host.
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
//! Deliberately scalar in *both* tables, because the obvious intrinsic
//! would not be bit-identical (or does not exist on AVX2):
//! `Mul64` (no `vpmullq` below AVX-512), `AShr64` (no `vpsravq`),
//! 64-bit min/max, `FMin`/`FMax` (Rust's `f64::min` NaN semantics
//! differ from `vminpd`), and float `FAdd`/`FSub`/`FMul`/`FDiv` (with
//! two NaN operands `vaddps` returns the first one's payload, while
//! Rust's `x + y` — the reference interpreter's semantics — may return
//! either).

/// Binary kernel: two 256-bit registers in, one out.
pub type BinFn = fn(&[u64; 4], &[u64; 4]) -> [u64; 4];
/// Unary kernel: one 256-bit register in, one out.
pub type UnFn = fn(&[u64; 4]) -> [u64; 4];

/// A kernel table: one function pointer per [`BinKernel`]/[`UnKernel`].
pub struct KernelTable {
    /// Binary kernels, indexed by `BinKernel as usize`.
    pub bin: [BinFn; BinKernel::COUNT],
    /// Unary kernels, indexed by `UnKernel as usize`.
    pub un: [UnFn; UnKernel::COUNT],
    /// True for the AVX2 table (reported by benchmarks).
    pub simd: bool,
}

/// The kernel table for the requested dispatch.
///
/// `simd == true` returns the AVX2 table; callers must only pass `true`
/// after runtime detection (see `elzar_engine::avx2_available`). On
/// non-x86_64 hosts the scalar table is returned unconditionally.
pub fn table(simd: bool) -> &'static KernelTable {
    #[cfg(target_arch = "x86_64")]
    {
        if simd {
            return &SIMD_TABLE;
        }
    }
    let _ = simd;
    &SCALAR_TABLE
}

// ---------------------------------------------------------------------------
// Scalar lane helpers (little-endian limbs, same layout as `elzar_avx::Ymm`).
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

// Scalar kernel definitions. `sk!(name, mapper, closure)` expands to a
// named fn so it can live in the table as a plain function pointer.
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
sk!(s_fadd32, mapf32, |x, y| x + y);
sk!(s_fsub32, mapf32, |x, y| x - y);
sk!(s_fmul32, mapf32, |x, y| x * y);
sk!(s_fdiv32, mapf32, |x, y| x / y);
sk!(s_fmin32, mapf32, f32::min);
sk!(s_fmax32, mapf32, f32::max);
sk!(s_fadd64, mapf64, |x, y| x + y);
sk!(s_fsub64, mapf64, |x, y| x - y);
sk!(s_fmul64, mapf64, |x, y| x * y);
sk!(s_fdiv64, mapf64, |x, y| x / y);
sk!(s_fmin64, mapf64, f64::min);
sk!(s_fmax64, mapf64, f64::max);
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
// AVX2 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod simd {
    use core::arch::x86_64::*;

    // `vk!(name, |a, b| expr)`: a safe wrapper around an
    // `#[target_feature(enable = "avx2")]` body. The wrapper is what sits
    // in the kernel table; it is sound to call because the AVX2 table is
    // only handed out after runtime feature detection.
    macro_rules! vk {
        ($name:ident, |$a:ident, $b:ident| $body:expr) => {
            pub fn $name(av: &[u64; 4], bv: &[u64; 4]) -> [u64; 4] {
                #[target_feature(enable = "avx2")]
                unsafe fn go(av: &[u64; 4], bv: &[u64; 4]) -> [u64; 4] {
                    let $a = _mm256_loadu_si256(av.as_ptr().cast());
                    let $b = _mm256_loadu_si256(bv.as_ptr().cast());
                    let r = $body;
                    let mut out = [0u64; 4];
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), r);
                    out
                }
                // SAFETY: reachable only through the runtime-detected table.
                unsafe { go(av, bv) }
            }
        };
    }

    macro_rules! vk1 {
        ($name:ident, |$a:ident| $body:expr) => {
            pub fn $name(av: &[u64; 4]) -> [u64; 4] {
                #[target_feature(enable = "avx2")]
                unsafe fn go(av: &[u64; 4]) -> [u64; 4] {
                    let $a = _mm256_loadu_si256(av.as_ptr().cast());
                    let r = $body;
                    let mut out = [0u64; 4];
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), r);
                    out
                }
                // SAFETY: reachable only through the runtime-detected table.
                unsafe { go(av) }
            }
        };
    }

    // Float compares stay in the integer register domain via bit-casts;
    // a mask carries no NaN payload, so it matches the scalar path.
    macro_rules! cmp_pd {
        ($imm:expr, $a:expr, $b:expr) => {
            _mm256_castpd_si256(_mm256_cmp_pd::<{ $imm }>(_mm256_castsi256_pd($a), _mm256_castsi256_pd($b)))
        };
    }
    macro_rules! cmp_ps {
        ($imm:expr, $a:expr, $b:expr) => {
            _mm256_castps_si256(_mm256_cmp_ps::<{ $imm }>(_mm256_castsi256_ps($a), _mm256_castsi256_ps($b)))
        };
    }

    vk!(v_and, |a, b| _mm256_and_si256(a, b));
    vk!(v_or, |a, b| _mm256_or_si256(a, b));
    vk!(v_xor, |a, b| _mm256_xor_si256(a, b));
    vk!(v_add8, |a, b| _mm256_add_epi8(a, b));
    vk!(v_add16, |a, b| _mm256_add_epi16(a, b));
    vk!(v_add32, |a, b| _mm256_add_epi32(a, b));
    vk!(v_add64, |a, b| _mm256_add_epi64(a, b));
    vk!(v_sub8, |a, b| _mm256_sub_epi8(a, b));
    vk!(v_sub16, |a, b| _mm256_sub_epi16(a, b));
    vk!(v_sub32, |a, b| _mm256_sub_epi32(a, b));
    vk!(v_sub64, |a, b| _mm256_sub_epi64(a, b));
    vk!(v_mul16, |a, b| _mm256_mullo_epi16(a, b));
    vk!(v_mul32, |a, b| _mm256_mullo_epi32(a, b));
    // Variable shifts mask the amount to the lane width first, matching
    // the interpreter's `amount % width` rule (vpsllv* would zero the
    // lane for amounts >= width instead).
    vk!(v_shl32, |a, b| _mm256_sllv_epi32(a, _mm256_and_si256(b, _mm256_set1_epi32(31))));
    vk!(v_shl64, |a, b| _mm256_sllv_epi64(a, _mm256_and_si256(b, _mm256_set1_epi64x(63))));
    vk!(v_lshr32, |a, b| _mm256_srlv_epi32(a, _mm256_and_si256(b, _mm256_set1_epi32(31))));
    vk!(v_lshr64, |a, b| _mm256_srlv_epi64(a, _mm256_and_si256(b, _mm256_set1_epi64x(63))));
    vk!(v_ashr32, |a, b| _mm256_srav_epi32(a, _mm256_and_si256(b, _mm256_set1_epi32(31))));
    vk!(v_umin32, |a, b| _mm256_min_epu32(a, b));
    vk!(v_umax32, |a, b| _mm256_max_epu32(a, b));
    vk!(v_smin32, |a, b| _mm256_min_epi32(a, b));
    vk!(v_smax32, |a, b| _mm256_max_epi32(a, b));
    vk!(v_eq8, |a, b| _mm256_cmpeq_epi8(a, b));
    vk!(v_ne8, |a, b| _mm256_xor_si256(_mm256_cmpeq_epi8(a, b), _mm256_set1_epi8(-1)));
    vk!(v_eq16, |a, b| _mm256_cmpeq_epi16(a, b));
    vk!(v_ne16, |a, b| _mm256_xor_si256(_mm256_cmpeq_epi16(a, b), _mm256_set1_epi16(-1)));
    vk!(v_eq32, |a, b| _mm256_cmpeq_epi32(a, b));
    vk!(v_ne32, |a, b| _mm256_xor_si256(_mm256_cmpeq_epi32(a, b), _mm256_set1_epi32(-1)));
    // Unsigned compares: bias both operands by the sign bit, then use the
    // signed compare (AVX2 has no unsigned vpcmpgt).
    vk!(v_ult32, |a, b| {
        let bias = _mm256_set1_epi32(i32::MIN);
        _mm256_cmpgt_epi32(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias))
    });
    vk!(v_ule32, |a, b| {
        let bias = _mm256_set1_epi32(i32::MIN);
        let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
        _mm256_xor_si256(gt, _mm256_set1_epi32(-1))
    });
    vk!(v_ugt32, |a, b| {
        let bias = _mm256_set1_epi32(i32::MIN);
        _mm256_cmpgt_epi32(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias))
    });
    vk!(v_uge32, |a, b| {
        let bias = _mm256_set1_epi32(i32::MIN);
        let lt = _mm256_cmpgt_epi32(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias));
        _mm256_xor_si256(lt, _mm256_set1_epi32(-1))
    });
    vk!(v_slt32, |a, b| _mm256_cmpgt_epi32(b, a));
    vk!(v_sle32, |a, b| _mm256_xor_si256(_mm256_cmpgt_epi32(a, b), _mm256_set1_epi32(-1)));
    vk!(v_sgt32, |a, b| _mm256_cmpgt_epi32(a, b));
    vk!(v_sge32, |a, b| _mm256_xor_si256(_mm256_cmpgt_epi32(b, a), _mm256_set1_epi32(-1)));
    vk!(v_eq64, |a, b| _mm256_cmpeq_epi64(a, b));
    vk!(v_ne64, |a, b| _mm256_xor_si256(_mm256_cmpeq_epi64(a, b), _mm256_set1_epi64x(-1)));
    vk!(v_ult64, |a, b| {
        let bias = _mm256_set1_epi64x(i64::MIN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias))
    });
    vk!(v_ule64, |a, b| {
        let bias = _mm256_set1_epi64x(i64::MIN);
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
        _mm256_xor_si256(gt, _mm256_set1_epi64x(-1))
    });
    vk!(v_ugt64, |a, b| {
        let bias = _mm256_set1_epi64x(i64::MIN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias))
    });
    vk!(v_uge64, |a, b| {
        let bias = _mm256_set1_epi64x(i64::MIN);
        let lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias));
        _mm256_xor_si256(lt, _mm256_set1_epi64x(-1))
    });
    vk!(v_slt64, |a, b| _mm256_cmpgt_epi64(b, a));
    vk!(v_sle64, |a, b| _mm256_xor_si256(_mm256_cmpgt_epi64(a, b), _mm256_set1_epi64x(-1)));
    vk!(v_sgt64, |a, b| _mm256_cmpgt_epi64(a, b));
    vk!(v_sge64, |a, b| _mm256_xor_si256(_mm256_cmpgt_epi64(b, a), _mm256_set1_epi64x(-1)));
    vk!(v_foeq32, |a, b| cmp_ps!(_CMP_EQ_OQ, a, b));
    vk!(v_fone32, |a, b| cmp_ps!(_CMP_NEQ_OQ, a, b));
    vk!(v_folt32, |a, b| cmp_ps!(_CMP_LT_OQ, a, b));
    vk!(v_fole32, |a, b| cmp_ps!(_CMP_LE_OQ, a, b));
    vk!(v_fogt32, |a, b| cmp_ps!(_CMP_GT_OQ, a, b));
    vk!(v_foge32, |a, b| cmp_ps!(_CMP_GE_OQ, a, b));
    vk!(v_foeq64, |a, b| cmp_pd!(_CMP_EQ_OQ, a, b));
    vk!(v_fone64, |a, b| cmp_pd!(_CMP_NEQ_OQ, a, b));
    vk!(v_folt64, |a, b| cmp_pd!(_CMP_LT_OQ, a, b));
    vk!(v_fole64, |a, b| cmp_pd!(_CMP_LE_OQ, a, b));
    vk!(v_fogt64, |a, b| cmp_pd!(_CMP_GT_OQ, a, b));
    vk!(v_foge64, |a, b| cmp_pd!(_CMP_GE_OQ, a, b));
    // Lane-rotate-by-one (the Figure-8 shuffle) per lane width.
    vk1!(v_rot32, |a| _mm256_permutevar8x32_epi32(a, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0)));
    vk1!(v_rot64, |a| _mm256_permute4x64_epi64::<0b00_11_10_01>(a));
}

// ---------------------------------------------------------------------------
// Kernel index enums and the tables (one macro keeps variant order and
// table order aligned by construction).
// ---------------------------------------------------------------------------

macro_rules! bin_kernels {
    ($(($variant:ident, $scalar:path, $simd:path)),+ $(,)?) => {
        /// Index of a binary kernel in a [`KernelTable`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum BinKernel { $($variant),+ }

        impl BinKernel {
            /// Number of binary kernels.
            pub const COUNT: usize = [$(BinKernel::$variant),+].len();
            /// Every kernel index, in table order.
            pub const ALL: [BinKernel; BinKernel::COUNT] = [$(BinKernel::$variant),+];
        }

        const SCALAR_BIN: [BinFn; BinKernel::COUNT] = [$($scalar),+];
        #[cfg(target_arch = "x86_64")]
        const SIMD_BIN: [BinFn; BinKernel::COUNT] = [$($simd),+];
    };
}

macro_rules! un_kernels {
    ($(($variant:ident, $scalar:path, $simd:path)),+ $(,)?) => {
        /// Index of a unary kernel in a [`KernelTable`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum UnKernel { $($variant),+ }

        impl UnKernel {
            /// Number of unary kernels.
            pub const COUNT: usize = [$(UnKernel::$variant),+].len();
            /// Every kernel index, in table order.
            pub const ALL: [UnKernel; UnKernel::COUNT] = [$(UnKernel::$variant),+];
        }

        const SCALAR_UN: [UnFn; UnKernel::COUNT] = [$($scalar),+];
        #[cfg(target_arch = "x86_64")]
        const SIMD_UN: [UnFn; UnKernel::COUNT] = [$($simd),+];
    };
}

#[cfg(target_arch = "x86_64")]
bin_kernels! {
    (And, s_and, simd::v_and),
    (Or, s_or, simd::v_or),
    (Xor, s_xor, simd::v_xor),
    (Add8, s_add8, simd::v_add8),
    (Add16, s_add16, simd::v_add16),
    (Add32, s_add32, simd::v_add32),
    (Add64, s_add64, simd::v_add64),
    (Sub8, s_sub8, simd::v_sub8),
    (Sub16, s_sub16, simd::v_sub16),
    (Sub32, s_sub32, simd::v_sub32),
    (Sub64, s_sub64, simd::v_sub64),
    (Mul16, s_mul16, simd::v_mul16),
    (Mul32, s_mul32, simd::v_mul32),
    (Mul64, s_mul64, s_mul64),
    (Shl32, s_shl32, simd::v_shl32),
    (Shl64, s_shl64, simd::v_shl64),
    (Lshr32, s_lshr32, simd::v_lshr32),
    (Lshr64, s_lshr64, simd::v_lshr64),
    (AShr32, s_ashr32, simd::v_ashr32),
    (AShr64, s_ashr64, s_ashr64),
    (UMin32, s_umin32, simd::v_umin32),
    (UMax32, s_umax32, simd::v_umax32),
    (SMin32, s_smin32, simd::v_smin32),
    (SMax32, s_smax32, simd::v_smax32),
    (UMin64, s_umin64, s_umin64),
    (UMax64, s_umax64, s_umax64),
    (SMin64, s_smin64, s_smin64),
    (SMax64, s_smax64, s_smax64),
    (FAdd32, s_fadd32, s_fadd32),
    (FSub32, s_fsub32, s_fsub32),
    (FMul32, s_fmul32, s_fmul32),
    (FDiv32, s_fdiv32, s_fdiv32),
    (FMin32, s_fmin32, s_fmin32),
    (FMax32, s_fmax32, s_fmax32),
    (FAdd64, s_fadd64, s_fadd64),
    (FSub64, s_fsub64, s_fsub64),
    (FMul64, s_fmul64, s_fmul64),
    (FDiv64, s_fdiv64, s_fdiv64),
    (FMin64, s_fmin64, s_fmin64),
    (FMax64, s_fmax64, s_fmax64),
    (Eq8, s_eq8, simd::v_eq8),
    (Ne8, s_ne8, simd::v_ne8),
    (Eq16, s_eq16, simd::v_eq16),
    (Ne16, s_ne16, simd::v_ne16),
    (Eq32, s_eq32, simd::v_eq32),
    (Ne32, s_ne32, simd::v_ne32),
    (Ult32, s_ult32, simd::v_ult32),
    (Ule32, s_ule32, simd::v_ule32),
    (Ugt32, s_ugt32, simd::v_ugt32),
    (Uge32, s_uge32, simd::v_uge32),
    (Slt32, s_slt32, simd::v_slt32),
    (Sle32, s_sle32, simd::v_sle32),
    (Sgt32, s_sgt32, simd::v_sgt32),
    (Sge32, s_sge32, simd::v_sge32),
    (Eq64, s_eq64, simd::v_eq64),
    (Ne64, s_ne64, simd::v_ne64),
    (Ult64, s_ult64, simd::v_ult64),
    (Ule64, s_ule64, simd::v_ule64),
    (Ugt64, s_ugt64, simd::v_ugt64),
    (Uge64, s_uge64, simd::v_uge64),
    (Slt64, s_slt64, simd::v_slt64),
    (Sle64, s_sle64, simd::v_sle64),
    (Sgt64, s_sgt64, simd::v_sgt64),
    (Sge64, s_sge64, simd::v_sge64),
    (FOeq32, s_foeq32, simd::v_foeq32),
    (FOne32, s_fone32, simd::v_fone32),
    (FOlt32, s_folt32, simd::v_folt32),
    (FOle32, s_fole32, simd::v_fole32),
    (FOgt32, s_fogt32, simd::v_fogt32),
    (FOge32, s_foge32, simd::v_foge32),
    (FOeq64, s_foeq64, simd::v_foeq64),
    (FOne64, s_fone64, simd::v_fone64),
    (FOlt64, s_folt64, simd::v_folt64),
    (FOle64, s_fole64, simd::v_fole64),
    (FOgt64, s_fogt64, simd::v_fogt64),
    (FOge64, s_foge64, simd::v_foge64),
}

#[cfg(not(target_arch = "x86_64"))]
bin_kernels! {
    (And, s_and, s_and),
    (Or, s_or, s_or),
    (Xor, s_xor, s_xor),
    (Add8, s_add8, s_add8),
    (Add16, s_add16, s_add16),
    (Add32, s_add32, s_add32),
    (Add64, s_add64, s_add64),
    (Sub8, s_sub8, s_sub8),
    (Sub16, s_sub16, s_sub16),
    (Sub32, s_sub32, s_sub32),
    (Sub64, s_sub64, s_sub64),
    (Mul16, s_mul16, s_mul16),
    (Mul32, s_mul32, s_mul32),
    (Mul64, s_mul64, s_mul64),
    (Shl32, s_shl32, s_shl32),
    (Shl64, s_shl64, s_shl64),
    (Lshr32, s_lshr32, s_lshr32),
    (Lshr64, s_lshr64, s_lshr64),
    (AShr32, s_ashr32, s_ashr32),
    (AShr64, s_ashr64, s_ashr64),
    (UMin32, s_umin32, s_umin32),
    (UMax32, s_umax32, s_umax32),
    (SMin32, s_smin32, s_smin32),
    (SMax32, s_smax32, s_smax32),
    (UMin64, s_umin64, s_umin64),
    (UMax64, s_umax64, s_umax64),
    (SMin64, s_smin64, s_smin64),
    (SMax64, s_smax64, s_smax64),
    (FAdd32, s_fadd32, s_fadd32),
    (FSub32, s_fsub32, s_fsub32),
    (FMul32, s_fmul32, s_fmul32),
    (FDiv32, s_fdiv32, s_fdiv32),
    (FMin32, s_fmin32, s_fmin32),
    (FMax32, s_fmax32, s_fmax32),
    (FAdd64, s_fadd64, s_fadd64),
    (FSub64, s_fsub64, s_fsub64),
    (FMul64, s_fmul64, s_fmul64),
    (FDiv64, s_fdiv64, s_fdiv64),
    (FMin64, s_fmin64, s_fmin64),
    (FMax64, s_fmax64, s_fmax64),
    (Eq8, s_eq8, s_eq8),
    (Ne8, s_ne8, s_ne8),
    (Eq16, s_eq16, s_eq16),
    (Ne16, s_ne16, s_ne16),
    (Eq32, s_eq32, s_eq32),
    (Ne32, s_ne32, s_ne32),
    (Ult32, s_ult32, s_ult32),
    (Ule32, s_ule32, s_ule32),
    (Ugt32, s_ugt32, s_ugt32),
    (Uge32, s_uge32, s_uge32),
    (Slt32, s_slt32, s_slt32),
    (Sle32, s_sle32, s_sle32),
    (Sgt32, s_sgt32, s_sgt32),
    (Sge32, s_sge32, s_sge32),
    (Eq64, s_eq64, s_eq64),
    (Ne64, s_ne64, s_ne64),
    (Ult64, s_ult64, s_ult64),
    (Ule64, s_ule64, s_ule64),
    (Ugt64, s_ugt64, s_ugt64),
    (Uge64, s_uge64, s_uge64),
    (Slt64, s_slt64, s_slt64),
    (Sle64, s_sle64, s_sle64),
    (Sgt64, s_sgt64, s_sgt64),
    (Sge64, s_sge64, s_sge64),
    (FOeq32, s_foeq32, s_foeq32),
    (FOne32, s_fone32, s_fone32),
    (FOlt32, s_folt32, s_folt32),
    (FOle32, s_fole32, s_fole32),
    (FOgt32, s_fogt32, s_fogt32),
    (FOge32, s_foge32, s_foge32),
    (FOeq64, s_foeq64, s_foeq64),
    (FOne64, s_fone64, s_fone64),
    (FOlt64, s_folt64, s_folt64),
    (FOle64, s_fole64, s_fole64),
    (FOgt64, s_fogt64, s_fogt64),
    (FOge64, s_foge64, s_foge64),
}

#[cfg(target_arch = "x86_64")]
un_kernels! {
    (Rot8, s_rot8, s_rot8),
    (Rot16, s_rot16, s_rot16),
    (Rot32, s_rot32, simd::v_rot32),
    (Rot64, s_rot64, simd::v_rot64),
}

#[cfg(not(target_arch = "x86_64"))]
un_kernels! {
    (Rot8, s_rot8, s_rot8),
    (Rot16, s_rot16, s_rot16),
    (Rot32, s_rot32, s_rot32),
    (Rot64, s_rot64, s_rot64),
}

static SCALAR_TABLE: KernelTable = KernelTable { bin: SCALAR_BIN, un: SCALAR_UN, simd: false };
#[cfg(target_arch = "x86_64")]
static SIMD_TABLE: KernelTable = KernelTable { bin: SIMD_BIN, un: SIMD_UN, simd: true };

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_avx::{LaneWidth, Ymm};
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

    #[test]
    fn simd_table_matches_scalar_table() {
        if !crate::avx2_available() {
            return;
        }
        let (s, v) = (table(false), table(true));
        let mut rng = DetRng::seed_from_u64(0xE17A);
        // A NaN-payload case `vaddps` got wrong: f32 lane 3 holds a
        // quiet NaN in `a` and all-ones (another NaN) in `b`.
        let fixed = [(
            [0xe819a0dc541cc745, 0x7ffe7073970c7157, 0xda382177c257db88, 0xc7c0c3ce36db0a8d],
            [u64::MAX; 4],
        )];
        let random = (0..400).map(|_| (rand_reg(&mut rng), rand_reg(&mut rng))).collect::<Vec<_>>();
        for (a, b) in fixed.into_iter().chain(random) {
            for k in BinKernel::ALL {
                assert_eq!(
                    (s.bin[k as usize])(&a, &b),
                    (v.bin[k as usize])(&a, &b),
                    "kernel {k:?} diverges on {a:x?} {b:x?}"
                );
            }
            for k in UnKernel::ALL {
                assert_eq!((s.un[k as usize])(&a), (v.un[k as usize])(&a), "kernel {k:?} diverges on {a:x?}");
            }
        }
    }

    #[test]
    fn scalar_kernels_match_ymm_spec() {
        // The scalar table against `elzar_avx::Ymm` lane ops — the
        // executable spec named by the paper reproduction.
        type Case = (BinKernel, LaneWidth, fn(u64, u64) -> u64);
        let t = table(false);
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
                let got = Ymm::from_limbs((t.bin[k as usize])(&al, &bl));
                let want = a.map2(&b, w, w.capacity(), f);
                assert_eq!(got, want, "kernel {k:?}");
            }
            // Compares produce canonical AVX masks.
            let got = Ymm::from_limbs((t.bin[BinKernel::Ult64 as usize])(&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B64, 4, |x, y| x < y);
            assert_eq!(got, want, "Ult64 mask");
            let got = Ymm::from_limbs((t.bin[BinKernel::Sgt32 as usize])(&al, &bl));
            let want = a.cmp_mask(&b, LaneWidth::B32, 8, |x, y| (x as u32 as i32) > (y as u32 as i32));
            assert_eq!(got, want, "Sgt32 mask");
            // Rotates are the Figure-8 shuffle at full register width.
            for (k, w) in [
                (UnKernel::Rot8, LaneWidth::B8),
                (UnKernel::Rot16, LaneWidth::B16),
                (UnKernel::Rot32, LaneWidth::B32),
                (UnKernel::Rot64, LaneWidth::B64),
            ] {
                let got = Ymm::from_limbs((t.un[k as usize])(&al));
                let want = a.rotate_lanes(w, w.capacity());
                assert_eq!(got, want, "kernel {k:?}");
            }
        }
    }

    #[test]
    fn float_edge_cases_agree_across_tables() {
        if !crate::avx2_available() {
            return;
        }
        let (s, v) = (table(false), table(true));
        let specials = [
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            1.5f64.to_bits(),
            (-2.25f64).to_bits(),
        ];
        for &x in &specials {
            for &y in &specials {
                let a = [x; 4];
                let b = [y; 4];
                for k in [
                    BinKernel::FAdd64,
                    BinKernel::FDiv64,
                    BinKernel::FOeq64,
                    BinKernel::FOne64,
                    BinKernel::FOlt64,
                    BinKernel::FOge64,
                ] {
                    assert_eq!(
                        (s.bin[k as usize])(&a, &b),
                        (v.bin[k as usize])(&a, &b),
                        "kernel {k:?} on {x:#x} vs {y:#x}"
                    );
                }
            }
        }
    }
}
