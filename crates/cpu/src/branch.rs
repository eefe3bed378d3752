//! Branch predictor: gshare-style two-bit saturating counters.
//!
//! Provides the `br-miss` column of Table II and the mispredict refetch
//! penalty in the core model.

/// Gshare predictor with a global history register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BranchPredictor {
    history: u64,
    mask: u64,
    predictions: u64,
    misses: u64,
    table: Vec<u8>, // 2-bit counters
}

impl BranchPredictor {
    /// Predictor with `2^log2_entries` counters.
    pub fn new(log2_entries: u32) -> BranchPredictor {
        let n = 1usize << log2_entries;
        BranchPredictor {
            table: vec![1; n], // weakly not-taken
            history: 0,
            mask: (n - 1) as u64,
            predictions: 0,
            misses: 0,
        }
    }

    /// Untrain in place: afterwards the predictor behaves exactly like
    /// [`BranchPredictor::new`] of the same size.
    pub fn reset(&mut self) {
        self.table.fill(1);
        self.history = 0;
        self.predictions = 0;
        self.misses = 0;
    }

    /// Default size (16k entries), roughly a desktop-class predictor.
    pub fn haswell() -> BranchPredictor {
        BranchPredictor::new(14)
    }

    fn index(&self, site: u64) -> usize {
        // Mix the site id and history (gshare xor).
        let h = site.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.history;
        (h & self.mask) as usize
    }

    /// Record the outcome of branch `site`; returns `true` when the
    /// prediction was correct.
    pub fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        let idx = self.index(site);
        let counter = self.table[idx];
        let predicted_taken = counter >= 2;
        let correct = predicted_taken == taken;
        self.predictions += 1;
        if !correct {
            self.misses += 1;
        }
        self.table[idx] = match (counter, taken) {
            (3, true) => 3,
            (c, true) => c + 1,
            (0, false) => 0,
            (c, false) => c - 1,
        };
        self.history = (self.history << 1) | u64::from(taken);
        correct
    }

    /// Branches predicted so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elzar_rng::DetRng;

    fn miss_ratio(p: &BranchPredictor) -> f64 {
        p.misses as f64 / p.predictions as f64
    }

    #[test]
    fn learns_always_taken() {
        let mut p = BranchPredictor::new(10);
        for _ in 0..1000 {
            p.predict_and_update(42, true);
        }
        // After warmup the loop branch is essentially always right.
        assert!(miss_ratio(&p) < 0.02, "ratio {}", miss_ratio(&p));
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = BranchPredictor::new(12);
        let mut wrong_late = 0;
        for i in 0..4000 {
            let taken = i % 2 == 0;
            let ok = p.predict_and_update(7, taken);
            if i >= 2000 && !ok {
                wrong_late += 1;
            }
        }
        // Gshare keys on history, so a strict alternation becomes
        // predictable.
        assert!(wrong_late < 100, "wrong_late {wrong_late}");
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut p = BranchPredictor::new(12);
        // Deterministic pseudo-random outcome stream.
        let mut x = 0x12345678u64;
        let mut miss = 0;
        let n = 20_000;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if !p.predict_and_update(13, taken) {
                miss += 1;
            }
        }
        let ratio = miss as f64 / n as f64;
        assert!(ratio > 0.30, "random stream should mispredict a lot, got {ratio}");
    }

    #[test]
    fn distinct_sites_do_not_destructively_alias_much() {
        let mut p = BranchPredictor::haswell();
        for i in 0..10_000u64 {
            p.predict_and_update(100, true);
            p.predict_and_update(200, false);
            let _ = i;
        }
        assert!(miss_ratio(&p) < 0.05, "ratio {}", miss_ratio(&p));
    }

    /// A seeded stream of `(site, taken)` over a few sites, each biased
    /// its own way, so the predictor trains and still mispredicts.
    fn branch_stream(seed: u64, len: usize) -> Vec<(u64, bool)> {
        let mut rng = DetRng::seed_from_u64(seed);
        let bias: Vec<u64> = (0..16).map(|_| rng.below(8)).collect();
        (0..len)
            .map(|_| {
                let site = rng.below(bias.len() as u64);
                (site * 0x51, rng.below(8) < bias[site as usize])
            })
            .collect()
    }

    #[test]
    fn reset_behaves_like_new() {
        for seed in 0..4 {
            let mut p = BranchPredictor::new(10);
            for (site, taken) in branch_stream(seed, 5_000) {
                p.predict_and_update(site, taken);
            }
            for epoch in 1..3 {
                p.reset();
                let mut fresh = BranchPredictor::new(10);
                assert_eq!(p, fresh);
                for (i, (site, taken)) in branch_stream(seed * 8 + epoch, 5_000).into_iter().enumerate() {
                    assert_eq!(
                        p.predict_and_update(site, taken),
                        fresh.predict_and_update(site, taken),
                        "{i}"
                    );
                }
                assert!(fresh.misses() > 0 && fresh.misses() < fresh.predictions());
                assert_eq!((p.predictions(), p.misses()), (fresh.predictions(), fresh.misses()));
                assert_eq!(p, fresh);
            }
        }
    }
}
