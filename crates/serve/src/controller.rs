//! Elastic-shard control: a fixed virtual-partition space, the mutable
//! slot → shard ownership map, and the queue-depth scaling policy.
//!
//! ## Partitions
//!
//! Keys hash into [`PARTITION_SLOTS`] fixed *slots* (the unit of
//! migration — small enough that a scale event moves a useful fraction
//! of a shard's keyspace, large enough that the ownership map stays a
//! 64-entry table). A [`Partition`] maps every slot to its owning
//! shard; routing a request is `owner[slot_of(key)]`. The slot hash is
//! a pure function of the key, so a key's slot never changes — only the
//! slot's owner does, and only at controller epochs, which is what
//! keeps per-key request order (and therefore the resident-state
//! digest) invariant under scaling.
//!
//! ## Policy
//!
//! At every epoch boundary the controller observes each active shard's
//! *virtual-time queue occupancy* — admitted requests whose completion
//! lies after the epoch's last arrival — and applies one decision with
//! hysteresis:
//!
//! * **scale up** when the deepest queue reaches
//!   `ServeConfig::scale_up_backlog` and the fleet is below
//!   `shards_max`: the deepest shard donates the upper half of its
//!   slots to a joiner booted from the donor's snapshot
//!   (`elzar_fault::replay_suffix_where` reconstructs the migrated
//!   range);
//! * **scale down** when *every* queue is at or below
//!   `ServeConfig::scale_down_backlog` and more than one shard is
//!   active: the shallowest shard retires, its slots absorbed by the
//!   next-shallowest survivor via committed-log replay.
//!
//! Both triggers, the donor/leaver choices and the slot split are pure
//! functions of virtual-time state, so the scaling schedule is
//! deterministic and independent of host workers.

use crate::gen::shard_of;

/// Fixed virtual partitions (migration granularity). Keys hash into
/// this many slots; shards own sets of slots.
pub const PARTITION_SLOTS: u32 = 64;

/// Owning slot of `key` (stable: a pure function of the key).
pub fn slot_of(key: u64) -> u32 {
    shard_of(key, PARTITION_SLOTS)
}

/// The mutable slot → shard ownership map.
#[derive(Clone, Debug)]
pub struct Partition {
    owner: [u32; PARTITION_SLOTS as usize],
}

impl Partition {
    /// Initial contiguous assignment of the slot space to `shards`
    /// shards (ids `0..shards`).
    pub fn initial(shards: u32) -> Partition {
        let shards = shards.max(1) as u64;
        let mut owner = [0u32; PARTITION_SLOTS as usize];
        for (s, o) in owner.iter_mut().enumerate() {
            *o = (s as u64 * shards / u64::from(PARTITION_SLOTS)) as u32;
        }
        Partition { owner }
    }

    /// Shard owning `key` under the current assignment.
    pub fn owner_of(&self, key: u64) -> u32 {
        self.owner[slot_of(key) as usize]
    }

    /// Bitmask of the slots `shard` currently owns (bit `s` = slot `s`).
    pub fn slots_of(&self, shard: u32) -> u64 {
        let mut mask = 0u64;
        for (s, &o) in self.owner.iter().enumerate() {
            if o == shard {
                mask |= 1 << s;
            }
        }
        mask
    }

    /// Reassign every slot in `mask` to `to`.
    pub fn assign(&mut self, mask: u64, to: u32) {
        for (s, o) in self.owner.iter_mut().enumerate() {
            if mask >> s & 1 == 1 {
                *o = to;
            }
        }
    }
}

/// The upper half (by slot index) of a slot mask — the range a donor
/// hands to a joining shard. Empty when the donor owns a single slot
/// (an unsplittable shard never donates).
pub fn split_upper_half(mask: u64) -> u64 {
    let n = mask.count_ones();
    if n < 2 {
        return 0;
    }
    let mut keep = n - n / 2; // donor keeps the larger half on odd counts
    let mut taken = 0u64;
    for s in 0..PARTITION_SLOTS {
        if mask >> s & 1 == 1 {
            if keep > 0 {
                keep -= 1;
            } else {
                taken |= 1 << s;
            }
        }
    }
    taken
}

/// One elastic-scaling event, recorded in the [`crate::ServeReport`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleEvent {
    /// A joiner booted from `donor`'s snapshot and took over `slots`
    /// partitions, replaying `replayed` committed suffix requests.
    Up {
        /// Controller epoch (0-based) the event fired at.
        epoch: u32,
        /// Donor shard id.
        donor: u32,
        /// New shard id.
        joiner: u32,
        /// Migrated slot count.
        slots: u32,
        /// Committed requests replayed to reconstruct the range.
        replayed: u64,
    },
    /// `leaver` retired; `recipient` absorbed its `slots` partitions by
    /// replaying `replayed` committed-log requests.
    Down {
        /// Controller epoch (0-based) the event fired at.
        epoch: u32,
        /// Retiring shard id.
        leaver: u32,
        /// Surviving shard taking over the slots.
        recipient: u32,
        /// Migrated slot count.
        slots: u32,
        /// Committed requests replayed to reconstruct the range.
        replayed: u64,
    },
}

/// A controller decision at one epoch boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Decision {
    /// Add a shard; the named donor splits its slots.
    Up {
        /// Donor shard id (deepest queue).
        donor: u32,
    },
    /// Retire `leaver`, its slots absorbed by `recipient`.
    Down {
        /// Retiring shard id (shallowest queue).
        leaver: u32,
        /// Absorbing shard id (next-shallowest).
        recipient: u32,
    },
    /// No change.
    Hold,
}

/// The scaling policy: one decision per epoch from the active shards'
/// `(id, backlog)` pairs. Ties break on shard id (lowest id donates /
/// absorbs, highest id retires) so the schedule is deterministic.
pub(crate) fn decide(backlogs: &[(u32, usize)], up_at: usize, down_at: usize, shards_max: u32) -> Decision {
    if backlogs.is_empty() {
        return Decision::Hold;
    }
    let deepest = backlogs.iter().fold(backlogs[0], |best, &b| if b.1 > best.1 { b } else { best });
    if deepest.1 >= up_at.max(1) && backlogs.len() < shards_max.max(1) as usize {
        elzar_obs::debug::emit("controller", || {
            format!("scale-up trigger: shard {} backlog {} >= {up_at} ({backlogs:?})", deepest.0, deepest.1)
        });
        return Decision::Up { donor: deepest.0 };
    }
    if backlogs.len() > 1 && backlogs.iter().all(|&(_, d)| d <= down_at) {
        let leaver = backlogs.iter().fold(backlogs[0], |best, &b| {
            if b.1 < best.1 || (b.1 == best.1 && b.0 > best.0) {
                b
            } else {
                best
            }
        });
        let rest: Vec<(u32, usize)> = backlogs.iter().copied().filter(|&(id, _)| id != leaver.0).collect();
        let recipient = rest.iter().fold(rest[0], |best, &b| if b.1 < best.1 { b } else { best });
        elzar_obs::debug::emit("controller", || {
            format!("scale-down trigger: all backlogs <= {down_at} ({backlogs:?})")
        });
        return Decision::Down { leaver: leaver.0, recipient: recipient.0 };
    }
    Decision::Hold
}

// ---------------------------------------------------------------------------
// Predictive scaling
// ---------------------------------------------------------------------------

/// Which scaling policy `serve_adaptive` runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ScalingPolicy {
    /// Queue-occupancy hysteresis only (the PR 5 controller): react to
    /// backlog that has already built.
    #[default]
    Reactive,
    /// Reactive triggers *plus* a Holt arrival-rate forecast: pre-boot
    /// a joiner when the [`FORECAST_HORIZON`]-epoch-ahead forecast
    /// exceeds the smoothed level by more than 3/2 (trading a snapshot
    /// clone for tail latency before the queue builds), and hold
    /// retirements while that forecast exceeds the level by more than
    /// 5/4 (don't retire into a ramp).
    /// At constant load the forecast converges exactly onto the level,
    /// neither trigger can fire, and every decision matches
    /// [`ScalingPolicy::Reactive`] bit-for-bit.
    Predictive,
}

/// Fixed-point scale for arrival rates: rates are
/// `admits * RATE_FP / cycles`, kept in integers so the forecast is a
/// pure function of the stream (no floats, no host variance).
pub const RATE_FP: u64 = 1 << 20;

/// Epochs of lookahead the predictive triggers evaluate the Holt
/// forecast at (`level + FORECAST_HORIZON * trend`). Four epochs turns
/// a sustained ramp's trend into a fire signal while per-epoch arrival
/// jitter (a few percent of the level after smoothing) stays far below
/// the 1.5x trigger band.
pub const FORECAST_HORIZON: u32 = 4;

/// Holt linear (double-exponential) smoothing over the per-epoch
/// arrival rate, in integer fixed point: `α = 1/2`, `β = 1/4`, both
/// exact shifts. Deterministic and worker-independent because its only
/// input is the admitted-arrival rate of each epoch's stream chunk —
/// a property of the *stream*, not of batching or host scheduling.
#[derive(Clone, Copy, Debug, Default)]
pub struct Forecaster {
    level: i64,
    trend: i64,
    seen: bool,
}

impl Forecaster {
    /// Fold in one epoch's observed arrival rate (fixed-point,
    /// [`RATE_FP`] units).
    pub fn observe(&mut self, rate: u64) {
        let x = rate.min(i64::MAX as u64) as i64;
        if !self.seen {
            self.level = x;
            self.trend = 0;
            self.seen = true;
            return;
        }
        // level' = (x + level + trend) / 2       (α = 1/2)
        // trend' = (level' - level) / 4 + 3*trend/4   (β = 1/4)
        let prev = self.level;
        self.level = (x + prev + self.trend) >> 1;
        self.trend = (self.level - prev + 3 * self.trend) >> 2;
    }

    /// One-epoch-ahead rate forecast (never negative).
    pub fn forecast(&self) -> u64 {
        self.forecast_ahead(1)
    }

    /// `h`-epoch-ahead rate forecast, `level + h * trend` (never
    /// negative). The predictive triggers use
    /// [`FORECAST_HORIZON`] epochs: with `α = 1/2` the smoothed level
    /// tracks a step almost as fast as the one-step forecast, so the
    /// one-step ratio barely moves — the *trend* is the ramp signal,
    /// and a multi-epoch horizon amplifies it above the steady-state
    /// jitter floor. At constant input the trend is exactly 0, so every
    /// horizon forecasts exactly the level.
    pub fn forecast_ahead(&self, h: u32) -> u64 {
        (self.level + i64::from(h) * self.trend).max(0) as u64
    }

    /// The smoothed current rate (never negative) — the baseline the
    /// predictive triggers compare the forecast against.
    pub fn level(&self) -> u64 {
        self.level.max(0) as u64
    }
}

/// Overlay the predictive triggers on a reactive decision. Pure
/// function of `(reactive decision, forecast, level, backlogs)`:
///
/// * `Hold` becomes `Up` when the forecast exceeds the smoothed level
///   by more than 3/2 and the fleet has headroom — the deepest shard
///   donates (same tie-break as [`decide`]) so the pre-booted joiner
///   lands where pressure will concentrate;
/// * `Down` becomes `Hold` while the forecast exceeds the level by
///   more than 5/4 — never retire into a predicted ramp;
/// * everything else passes through unchanged, so at steady state
///   (forecast == level) predictive is bit-identical to reactive.
pub(crate) fn adjust_predictive(
    reactive: Decision,
    forecast: u64,
    level: u64,
    backlogs: &[(u32, usize)],
    shards_max: u32,
) -> Decision {
    match reactive {
        Decision::Hold
            if forecast * 2 > level * 3
                && !backlogs.is_empty()
                && backlogs.len() < shards_max.max(1) as usize =>
        {
            let deepest = backlogs.iter().fold(backlogs[0], |best, &b| if b.1 > best.1 { b } else { best });
            elzar_obs::debug::emit("controller", || {
                format!("predictive pre-boot: forecast {forecast} > 1.5x level {level} ({backlogs:?})")
            });
            Decision::Up { donor: deepest.0 }
        }
        Decision::Down { .. } if forecast * 4 > level * 5 => {
            elzar_obs::debug::emit("controller", || {
                format!("predictive hold: forecast {forecast} > 1.25x level {level}, no retire")
            });
            Decision::Hold
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_partition_covers_all_slots_with_contiguous_ranges() {
        for shards in [1u32, 2, 3, 4, 7] {
            let p = Partition::initial(shards);
            let mut total = 0u64;
            for sh in 0..shards {
                let mask = p.slots_of(sh);
                assert_ne!(mask, 0, "shard {sh}/{shards} owns no slots");
                assert_eq!(total & mask, 0, "overlap at shard {sh}");
                total |= mask;
            }
            assert_eq!(total, u64::MAX, "{shards} shards must cover all 64 slots");
        }
    }

    #[test]
    fn split_takes_the_upper_half_and_respects_singletons() {
        let p = Partition::initial(1);
        let all = p.slots_of(0);
        let upper = split_upper_half(all);
        assert_eq!(upper.count_ones(), 32);
        assert_eq!(upper, !0u64 << 32);
        assert_eq!(split_upper_half(1 << 7), 0, "a single slot cannot split");
        let three = (1 << 3) | (1 << 9) | (1 << 40);
        let taken = split_upper_half(three);
        assert_eq!(taken, 1 << 40, "odd counts leave the donor the larger half");
    }

    #[test]
    fn routing_follows_reassignment() {
        let mut p = Partition::initial(2);
        let key = 12345u64;
        let before = p.owner_of(key);
        let slot = slot_of(key);
        p.assign(1 << slot, 9);
        assert_eq!(p.owner_of(key), 9);
        assert_ne!(before, 9);
        // Only that slot moved.
        assert_eq!(p.slots_of(9), 1 << slot);
    }

    #[test]
    fn policy_is_hysteretic_and_deterministic() {
        // Deep queue on shard 1: scale up with 1 as donor.
        assert_eq!(decide(&[(0, 2), (1, 12)], 10, 1, 4), Decision::Up { donor: 1 });
        // At the ceiling: hold even under pressure.
        assert_eq!(decide(&[(0, 2), (1, 12)], 10, 1, 2), Decision::Hold);
        // All shallow: highest-id shallowest shard retires into the
        // shallowest survivor.
        assert_eq!(decide(&[(0, 0), (1, 1), (2, 0)], 10, 1, 4), Decision::Down { leaver: 2, recipient: 0 });
        // Mid-band: hold.
        assert_eq!(decide(&[(0, 4), (1, 5)], 10, 1, 4), Decision::Hold);
        // A single shard never scales down.
        assert_eq!(decide(&[(0, 0)], 10, 1, 4), Decision::Hold);
        // Tie on depth for scale-up: lowest id donates.
        assert_eq!(decide(&[(0, 12), (1, 12)], 10, 1, 4), Decision::Up { donor: 0 });
    }

    #[test]
    fn forecaster_converges_exactly_on_constant_input() {
        // level = c, trend = 0 is a fixed point of the update, and the
        // first observation initializes straight onto it — so constant
        // input yields the constant *exactly*, from the first epoch.
        // This is what makes predictive == reactive at steady state.
        for c in [0u64, 1, 17, RATE_FP, 37 * RATE_FP + 1_234] {
            let mut f = Forecaster::default();
            for _ in 0..50 {
                f.observe(c);
                assert_eq!(f.forecast(), c, "constant {c} must be exact");
                assert_eq!(f.forecast_ahead(FORECAST_HORIZON), c, "every horizon is exact");
                assert_eq!(f.level(), c);
            }
        }
    }

    #[test]
    fn forecaster_is_nonnegative_under_adversarial_input() {
        // Violent swings including drops to zero: forecast() and
        // level() never go negative (the trend can).
        let mut f = Forecaster::default();
        let mut s = 0xDEAD_BEEFu64;
        for i in 0..2_000 {
            let x = if i % 7 == 0 { 0 } else { elzar_rng::splitmix64(&mut s) % (100 * RATE_FP) };
            f.observe(x);
            let _ = f.forecast(); // max(0) cast would panic on negative
            assert!(f.forecast() <= 400 * RATE_FP, "forecast stays bounded by the input range");
        }
        // A cliff to zero: forecast decays to 0 and stays there.
        for _ in 0..80 {
            f.observe(0);
        }
        assert_eq!(f.forecast(), 0);
    }

    #[test]
    fn forecaster_step_response_is_bounded_and_fast() {
        // Step 10 → 100 (in RATE_FP units): within 8 epochs the
        // forecast is within 2% of the new plateau, and it never
        // overshoots past 2x the step target (Holt overshoots by design
        // — that's the early ramp detection — but boundedly).
        let lo = 10 * RATE_FP;
        let hi = 100 * RATE_FP;
        let mut f = Forecaster::default();
        for _ in 0..20 {
            f.observe(lo);
        }
        let mut settled = None;
        for e in 0..20 {
            f.observe(hi);
            assert!(f.forecast() < 2 * hi, "no unbounded overshoot at epoch {e}");
            if settled.is_none() && f.forecast().abs_diff(hi) <= hi / 50 {
                settled = Some(e);
            }
        }
        assert!(settled.expect("must settle") <= 8, "settled at {settled:?}");
        // After settling, floor rounding may leave a sticky few-unit
        // offset (observed: 5 of ~104M) — bounded, never drifting.
        for _ in 0..100 {
            f.observe(hi);
        }
        assert!(f.forecast().abs_diff(hi) <= 8, "steady error {}", f.forecast().abs_diff(hi));
    }

    #[test]
    fn forecaster_sees_a_ramp_before_it_peaks() {
        // On a linear ramp the one-step-ahead forecast runs *above*
        // the latest observation — the whole point of pre-booting.
        let mut f = Forecaster::default();
        for i in 0..30u64 {
            f.observe((10 + i * 5) * RATE_FP);
        }
        assert!(f.forecast() > (10 + 29 * 5) * RATE_FP, "forecast leads the ramp");
    }

    #[test]
    fn predictive_overlay_matches_reactive_at_steady_state() {
        let backlogs = [(0u32, 3usize), (1, 4)];
        // forecast == level: every reactive decision passes through.
        for d in [Decision::Hold, Decision::Up { donor: 1 }, Decision::Down { leaver: 0, recipient: 1 }] {
            assert_eq!(adjust_predictive(d, 700, 700, &backlogs, 4), d);
        }
        // Ramp predicted (forecast > 1.5x level): Hold becomes a
        // pre-boot with the deepest shard donating.
        assert_eq!(adjust_predictive(Decision::Hold, 1_600, 1_000, &backlogs, 4), Decision::Up { donor: 1 });
        // ...but not at the fleet ceiling.
        assert_eq!(adjust_predictive(Decision::Hold, 1_600, 1_000, &backlogs, 2), Decision::Hold);
        // Mild ramp (1.25x < r <= 1.5x): retirement is vetoed, no pre-boot.
        assert_eq!(
            adjust_predictive(Decision::Down { leaver: 1, recipient: 0 }, 1_300, 1_000, &backlogs, 4),
            Decision::Hold
        );
        assert_eq!(adjust_predictive(Decision::Hold, 1_300, 1_000, &backlogs, 4), Decision::Hold);
        // Exactly at the thresholds: strict inequality, no fire.
        assert_eq!(adjust_predictive(Decision::Hold, 1_500, 1_000, &backlogs, 4), Decision::Hold);
        assert_eq!(
            adjust_predictive(Decision::Down { leaver: 1, recipient: 0 }, 1_250, 1_000, &backlogs, 4),
            Decision::Down { leaver: 1, recipient: 0 }
        );
        // A reactive Up is never second-guessed.
        assert_eq!(
            adjust_predictive(Decision::Up { donor: 0 }, 100, 1_000, &backlogs, 4),
            Decision::Up { donor: 0 }
        );
    }
}
