//! Property-based tests for the YMM model: lane operations must agree with
//! a scalar reference, the Figure-8/9 check sequences must detect every
//! single-lane corruption, and majority voting must mask any single fault.
//!
//! Cases are drawn from the repo's deterministic PRNG (`elzar_rng`):
//! each test sweeps every lane width crossed with pseudo-random values
//! and *every* bit position, which is stronger than sampled bits.

use elzar_avx::{majority_extended, LaneWidth, MajorityOutcome, PtestResult, Ymm};
use elzar_rng::DetRng;

const WIDTHS: [LaneWidth; 4] = [LaneWidth::B8, LaneWidth::B16, LaneWidth::B32, LaneWidth::B64];
const CASES: usize = 32;

#[test]
fn map2_add_matches_scalar_reference() {
    let mut rng = DetRng::seed_from_u64(0xA1);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let (a0, b0) = (rng.next_u64(), rng.next_u64());
            let a = Ymm::splat(w, lanes, a0);
            let b = Ymm::splat(w, lanes, b0);
            let sum = a.map2(&b, w, lanes, |x, y| x.wrapping_add(y));
            let want = a0.wrapping_add(b0) & w.ones();
            for i in 0..lanes {
                assert_eq!(sum.lane(w, i) & w.ones(), want, "{w:?} lane {i}");
            }
        }
    }
}

#[test]
fn lane_set_get_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xA2);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let i = rng.below(lanes as u64) as usize;
            let v = rng.next_u64();
            let r = Ymm::ZERO.with_lane(w, i, v);
            assert_eq!(r.lane(w, i), v & w.ones());
            // All other lanes untouched.
            for j in 0..lanes {
                if j != i {
                    assert_eq!(r.lane(w, j), 0, "{w:?} lane {j} dirtied");
                }
            }
        }
    }
}

#[test]
fn shuffle_then_inverse_is_identity() {
    let mut rng = DetRng::seed_from_u64(0xA3);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let seed = rng.next_u64();
            let mut v = Ymm::ZERO;
            for i in 0..lanes {
                v.set_lane(w, i, seed.wrapping_mul(i as u64 + 1));
            }
            // rotate down then rotate up.
            let down: Vec<u8> = (0..lanes).map(|i| ((i + 1) % lanes) as u8).collect();
            let up: Vec<u8> = (0..lanes).map(|i| ((i + lanes - 1) % lanes) as u8).collect();
            let r = v.shuffle(w, &down).shuffle(w, &up);
            assert_eq!(r, v, "{w:?}");
        }
    }
}

/// The exact check ELZAR inserts before synchronization instructions
/// (Figure 8): it must accept every clean register and reject every
/// register with a single flipped bit.
#[test]
fn figure8_check_soundness_and_completeness() {
    let mut rng = DetRng::seed_from_u64(0xA4);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let value = rng.next_u64();
            let clean = Ymm::splat(w, lanes, value);
            let check = |r: &Ymm| r.xor(&r.rotate_lanes(w, lanes)).ptest(w, lanes);
            assert_eq!(check(&clean), PtestResult::AllFalse, "{w:?} clean {value:#x}");
            for bit in 0..256 {
                let faulty = clean.flip_bit(bit);
                assert_ne!(check(&faulty), PtestResult::AllFalse, "{w:?} bit {bit} undetected");
            }
        }
    }
}

/// Branch checks (Figure 9): a canonical mask (all lanes agree, each
/// all-ones or all-zeros) never reads as Mixed; a single bit flip in
/// the mask always does.
#[test]
fn figure9_branch_check() {
    for w in WIDTHS {
        let lanes = w.capacity();
        for taken in [false, true] {
            let mask = if taken { Ymm::splat(w, lanes, w.ones()) } else { Ymm::ZERO };
            let want = if taken { PtestResult::AllTrue } else { PtestResult::AllFalse };
            assert_eq!(mask.ptest(w, lanes), want, "{w:?} taken={taken}");
            for bit in 0..256 {
                assert_eq!(mask.flip_bit(bit).ptest(w, lanes), PtestResult::Mixed, "{w:?} bit {bit}");
            }
        }
    }
}

/// TMR guarantee: any single bit flip is outvoted by the remaining
/// replicas.
#[test]
fn single_fault_always_outvoted() {
    let mut rng = DetRng::seed_from_u64(0xA5);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let value = rng.next_u64();
            let clean = Ymm::splat(w, lanes, value);
            let expected = value & w.ones();
            for bit in 0..256 {
                let faulty = clean.flip_bit(bit);
                match majority_extended(&faulty, w, lanes) {
                    MajorityOutcome::Recovered { value: v, .. } => assert_eq!(v, expected),
                    MajorityOutcome::Tie => panic!("{w:?} bit {bit}: single fault must never tie"),
                }
            }
        }
    }
}

/// Two independent bit flips in *different* lanes are still recovered
/// by the extended policy when at least two lanes stay clean
/// (§III-A: "four copies of data can tolerate two independent SEUs").
#[test]
fn extended_policy_tolerates_two_lane_faults() {
    let mut rng = DetRng::seed_from_u64(0xA6);
    let w = LaneWidth::B64;
    for _ in 0..CASES {
        let value = rng.next_u64();
        for b1 in (0..64).step_by(7) {
            for b2 in (0..64).step_by(5) {
                let faulty = Ymm::splat(w, 4, value)
                    .flip_bit(b1) // lane 0
                    .flip_bit(64 + b2); // lane 1
                match majority_extended(&faulty, w, 4) {
                    MajorityOutcome::Recovered { value: v, corrected } => {
                        assert_eq!(v, value, "bits ({b1}, {b2})");
                        assert!(corrected);
                    }
                    MajorityOutcome::Tie => {
                        // A tie can only occur when the two faults landed on
                        // the same bit position, making the two faulty lanes
                        // agree.
                        assert_eq!(b1, b2, "unexpected tie on bits ({b1}, {b2})");
                    }
                }
            }
        }
    }
}

#[test]
fn blend_with_true_mask_is_first_arg() {
    let mut rng = DetRng::seed_from_u64(0xA7);
    for w in WIDTHS {
        let lanes = w.capacity();
        for _ in 0..CASES {
            let (a0, b0) = (rng.next_u64(), rng.next_u64());
            let a = Ymm::splat(w, lanes, a0);
            let b = Ymm::splat(w, lanes, b0);
            let t = Ymm::splat(w, lanes, w.ones());
            assert_eq!(Ymm::blend(&t, &a, &b, w, lanes), a, "{w:?}");
            assert_eq!(Ymm::blend(&Ymm::ZERO, &a, &b, w, lanes), b, "{w:?}");
        }
    }
}
