//! Open-loop load generation: deterministic request streams with
//! arrival schedules in *virtual* cycles, plus the key-hash routing that
//! assigns every request to its owning shard.
//!
//! Streams are a pure function of `(workload, requests, seed)`; arrivals
//! advance by uniform jitter around the configured mean gap so bursts
//! exist but the schedule replays bit-identically on every host.
//!
//! ## Scenarios
//!
//! Steady-state streams miss exactly the behavior a serving fleet is
//! sized for: transients. A [`Scenario`] is a list of [`Phase`]s — each
//! a request count, a [`PhaseLoad`] shape (steady or linear ramp of the
//! mean inter-arrival gap), a per-phase SEU rate and an optional
//! correlated key-space rotation — that [`Scenario::compile`]s into one
//! deterministic request stream plus a piecewise per-request-id
//! fault-rate schedule (`ServeConfig::fault_phases`). Five named
//! [`ScenarioPreset`]s cover the canonical transients (diurnal swing,
//! flash crowd, lull, key-skew shift, fault storm), and
//! [`Scenario::random`] composes random phase sequences from an
//! `elzar_rng` seed for deterministic fuzzing. Everything — arrivals,
//! keys, payloads, fault rates — is a pure function of
//! `(scenario, stream kind, seed)`, so every differential invariance
//! that holds for plain streams holds verbatim for compiled scenarios.

use elzar_apps::ycsb::{self, YcsbWorkload};
use elzar_obs::vt_add;
use elzar_rng::{splitmix64, DetRng};

/// One request: identity, arrival time, routing key and the encoded
/// input-segment payload its serve entry consumes.
#[derive(Clone, Debug)]
pub struct Request {
    /// Global position in the stream (also the fault-schedule key).
    pub id: u64,
    /// Arrival time in virtual cycles.
    pub arrival: u64,
    /// Routing key (KV key, or the web request's parse hash).
    pub key: u64,
    /// Encoded request bytes for the VM input segment.
    pub payload: Box<[u8]>,
}

/// Owning shard of `key` under `shards`-way partitioning (stable: the
/// same key always routes to the same shard for a given shard count).
pub fn shard_of(key: u64, shards: u32) -> u32 {
    let mut s = key ^ 0xE12A_5EED;
    (splitmix64(&mut s) % u64::from(shards.max(1))) as u32
}

/// Re-space a stream's tail: keep every request's identity, key and
/// payload (so committed state and fault schedules are untouched) but
/// scale the inter-arrival gaps from index `from` on by `num / den`,
/// with a 1-cycle floor so arrivals stay strictly increasing.
///
/// This is the deterministic load-phase shaper: `num > den` thins the
/// tail into a lull (what makes an elastic controller scale *down*),
/// `num < den` compresses it into a burst. Because only arrival
/// timestamps change, a reshaped stream still satisfies every
/// digest/outcome invariance the differential tests pin.
pub fn rescale_gaps(stream: &mut [Request], from: usize, num: u64, den: u64) {
    let den = den.max(1);
    let gaps: Vec<u64> = (1..stream.len()).map(|i| stream[i].arrival - stream[i - 1].arrival).collect();
    for i in 1..stream.len() {
        let gap = if i >= from.max(1) { (gaps[i - 1] * num / den).max(1) } else { gaps[i - 1] };
        stream[i].arrival = vt_add("gen rescale arrival clock", stream[i - 1].arrival, gap);
    }
}

/// Next inter-arrival gap: uniform in `[1, 2*mean - 1]` (mean = `mean`).
fn gap(rng: &mut DetRng, mean: u64) -> u64 {
    let m = mean.max(1);
    rng.range_inclusive(1, 2 * m - 1)
}

/// YCSB stream over `n_keys` keys: one 8-byte encoded op per request,
/// keys drawn from the workload's distribution (A: Zipf, D: latest).
pub fn kv_stream(w: YcsbWorkload, requests: u64, n_keys: u64, mean_gap: u64, seed: u64) -> Vec<Request> {
    let ops = ycsb::generate(w, requests as usize, n_keys, seed);
    let mut rng = DetRng::seed_from_u64(seed ^ 0xA221_7EA1);
    let mut t = 0u64;
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            t = vt_add("gen kv arrival clock", t, gap(&mut rng, mean_gap));
            Request {
                id: i as u64,
                arrival: t,
                key: op.key,
                payload: ycsb::encode(std::slice::from_ref(op)).into_boxed_slice(),
            }
        })
        .collect()
}

/// Web stream: `request_bytes`-sized random request lines, routed by the
/// parse hash of their 16-byte prefix.
pub fn web_stream(requests: u64, request_bytes: usize, mean_gap: u64, seed: u64) -> Vec<Request> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x3EB5_11FE);
    let mut t = 0u64;
    (0..requests)
        .map(|i| {
            t = vt_add("gen web arrival clock", t, gap(&mut rng, mean_gap));
            let payload: Box<[u8]> = (0..request_bytes).map(|_| (rng.next_u64() >> 32) as u8).collect();
            // Route by the same hash the server's hardened parse
            // computes over the request prefix.
            let key = elzar_apps::web::parse_hash(&payload);
            Request { id: i, arrival: t, key, payload }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Scenario library
// ---------------------------------------------------------------------------

/// How one phase spaces its arrivals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseLoad {
    /// Constant mean inter-arrival gap (cycles); per-arrival jitter is
    /// uniform in `[1, 2*gap - 1]` like the plain generators.
    Steady {
        /// Mean gap in cycles.
        mean_gap: u64,
    },
    /// The mean gap interpolates linearly from `from` (first request of
    /// the phase) to `to` (last) — a diurnal shoulder or a flash-crowd
    /// onset, steep enough to matter but gradual enough that a
    /// rate forecaster can see it coming.
    Ramp {
        /// Mean gap at the phase's first request.
        from: u64,
        /// Mean gap at the phase's last request.
        to: u64,
    },
}

/// One scenario phase: `requests` arrivals under one load shape, one
/// SEU rate and one key-space rotation. Zero-length phases are legal
/// and contribute nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Phase {
    /// Phase label (report/timeline use only — no semantic weight).
    pub name: &'static str,
    /// Requests in this phase (0 is legal).
    pub requests: u64,
    /// Arrival spacing across the phase.
    pub load: PhaseLoad,
    /// Per-request SEU probability in ppm while this phase lasts — the
    /// piecewise fault-rate schedule the serving runtime consults by
    /// *global request id*, which is what keeps fault placement
    /// invariant across shard counts, batch policies and scaling
    /// schedules.
    pub fault_ppm: u32,
    /// Correlated key-skew shift, KV streams only: every key of the
    /// phase is rotated by `n_keys * key_rotate_pct / 100`, moving the
    /// whole Zipf head to a different key range at once (web streams
    /// route by payload hash and ignore this).
    pub key_rotate_pct: u8,
}

/// What kind of stream a scenario compiles to — the service-specific
/// half of [`Scenario::compile`] (`Service::stream_kind` builds it from
/// a `ServeApp`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    /// YCSB key-value stream: op mix from `workload`, keys in
    /// `[0, n_keys)`.
    Kv {
        /// Read/update mix and key distribution.
        workload: YcsbWorkload,
        /// Resident table size.
        n_keys: u64,
    },
    /// Web request lines of `request_bytes` random bytes, routed by
    /// parse hash.
    Web {
        /// Encoded request size in bytes.
        request_bytes: usize,
    },
}

/// A deterministic multi-phase load scenario. Compile it against a
/// [`StreamKind`] and a seed to get the request stream and the
/// per-phase fault-rate schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Scenario label.
    pub name: &'static str,
    /// The phases, in arrival order.
    pub phases: Vec<Phase>,
}

/// A compiled scenario: the request stream, the piecewise fault-rate
/// schedule keyed by global request id, and the phase boundaries for
/// reporting.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// The arrival-ordered request stream.
    pub stream: Vec<Request>,
    /// `(first request id, ppm)` per phase, sorted by id — plug into
    /// `ServeConfig::fault_phases`.
    pub fault_phases: Vec<(u64, u32)>,
    /// `(phase name, first request id)` per phase, zero-length phases
    /// included.
    pub boundaries: Vec<(&'static str, u64)>,
}

impl Scenario {
    /// Total requests across all phases.
    pub fn requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// Compile to a request stream + fault schedule. Deterministic: a
    /// pure function of `(self, kind, seed)`. KV streams draw one op
    /// sequence for the whole scenario (so two scenarios differing only
    /// in arrival shapes serve the same committed sequences), then
    /// apply each phase's key rotation; arrivals advance by uniform
    /// jitter around the phase's (possibly ramping) mean gap with a
    /// 1-cycle floor, so they are strictly increasing.
    pub fn compile(&self, kind: StreamKind, seed: u64) -> CompiledScenario {
        let total = self.requests();
        let ops = match kind {
            StreamKind::Kv { workload, n_keys } => ycsb::generate(workload, total as usize, n_keys, seed),
            StreamKind::Web { .. } => Vec::new(),
        };
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5CE2_A210_AB1E_11FE);
        let mut stream = Vec::with_capacity(total as usize);
        let mut fault_phases = Vec::with_capacity(self.phases.len());
        let mut boundaries = Vec::with_capacity(self.phases.len());
        let mut t = 0u64;
        let mut id = 0u64;
        for phase in &self.phases {
            fault_phases.push((id, phase.fault_ppm));
            boundaries.push((phase.name, id));
            for i in 0..phase.requests {
                let mean = match phase.load {
                    PhaseLoad::Steady { mean_gap } => mean_gap,
                    PhaseLoad::Ramp { from, to } => {
                        // Linear interpolation across the phase; the
                        // last request of the phase lands exactly on
                        // `to`.
                        let span = phase.requests.max(2) - 1;
                        (from as i64 + (to as i64 - from as i64) * i.min(span) as i64 / span as i64) as u64
                    }
                };
                t = vt_add("gen scenario arrival clock", t, gap(&mut rng, mean));
                let (key, payload): (u64, Box<[u8]>) = match kind {
                    StreamKind::Kv { n_keys, .. } => {
                        let mut op = ops[id as usize];
                        let rot = n_keys * u64::from(phase.key_rotate_pct.min(100)) / 100;
                        op.key = (op.key + rot) % n_keys.max(1);
                        (op.key, ycsb::encode(std::slice::from_ref(&op)).into_boxed_slice())
                    }
                    StreamKind::Web { request_bytes } => {
                        let payload: Box<[u8]> =
                            (0..request_bytes).map(|_| (rng.next_u64() >> 32) as u8).collect();
                        (elzar_apps::web::parse_hash(&payload), payload)
                    }
                };
                stream.push(Request { id, arrival: t, key, payload });
                id += 1;
            }
        }
        CompiledScenario { stream, fault_phases, boundaries }
    }

    /// A random scenario composition: 2–5 phases with random shapes
    /// (steady / ramp between random gaps in `[base_gap/6, 3*base_gap]`),
    /// random SEU rates (off / `base_ppm` / a storm) and random key
    /// rotations, splitting `requests` at random cut points — so
    /// zero-length phases occur naturally. A pure function of the seed:
    /// the deterministic-fuzz suite reruns failing seeds verbatim.
    pub fn random(seed: u64, requests: u64, base_gap: u64, base_ppm: u32) -> Scenario {
        let mut rng = DetRng::seed_from_u64(seed ^ 0xF022_5CEA_A210_11FE);
        let n = 2 + rng.below(4) as usize; // 2..=5 phases
                                           // Random split: n-1 sorted cut points over [0, requests].
        let mut cuts: Vec<u64> = (1..n).map(|_| rng.below(requests + 1)).collect();
        cuts.sort_unstable();
        cuts.push(requests);
        let lo = (base_gap / 6).max(1);
        let hi = (base_gap * 3).max(1);
        let storm = (u64::from(base_ppm.max(20_000)) * 10).clamp(150_000, 400_000) as u32;
        let mut phases = Vec::with_capacity(n);
        let mut prev = 0u64;
        for cut in cuts {
            let len = cut - prev;
            prev = cut;
            let (name, load) = match rng.below(3) {
                0 => ("steady", PhaseLoad::Steady { mean_gap: rng.range_inclusive(lo, hi) }),
                1 => ("ramp", {
                    let from = rng.range_inclusive(lo, hi);
                    let to = rng.range_inclusive(lo, hi);
                    PhaseLoad::Ramp { from, to }
                }),
                _ => ("burst", PhaseLoad::Steady { mean_gap: lo }),
            };
            let fault_ppm = match rng.below(4) {
                0 => 0,
                1 | 2 => base_ppm,
                _ => storm,
            };
            let key_rotate_pct = [0u8, 25, 50][rng.below(3) as usize];
            phases.push(Phase { name, requests: len, load, fault_ppm, key_rotate_pct });
        }
        Scenario { name: "random", phases }
    }
}

/// The named transients every serving story gets asked about. Each
/// compiles to a phase list scaled to a request budget, a base mean gap
/// and a base SEU rate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioPreset {
    /// Slow swing: quiet night, long morning ramp, busy plateau, long
    /// evening ramp, quiet night.
    Diurnal,
    /// Steady traffic, a steep (but multi-epoch) onset into a 6x
    /// crowd, then decay back — the transient predictive scaling is
    /// for.
    FlashCrowd,
    /// Busy start fading into a deep lull and recovering — what makes a
    /// controller retire shards (and regret it if it retires into the
    /// recovery ramp).
    Lull,
    /// Constant load whose Zipf head jumps to a different key range
    /// twice — correlated key-skew shifts that re-skew per-shard load
    /// without any rate change.
    SkewShift,
    /// Constant load with a cosmic-ray burst: the SEU rate spikes an
    /// order of magnitude for the middle third.
    FaultStorm,
}

impl ScenarioPreset {
    /// All presets, report order.
    pub fn all() -> [ScenarioPreset; 5] {
        [
            ScenarioPreset::Diurnal,
            ScenarioPreset::FlashCrowd,
            ScenarioPreset::Lull,
            ScenarioPreset::SkewShift,
            ScenarioPreset::FaultStorm,
        ]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioPreset::Diurnal => "diurnal",
            ScenarioPreset::FlashCrowd => "flash-crowd",
            ScenarioPreset::Lull => "lull",
            ScenarioPreset::SkewShift => "skew-shift",
            ScenarioPreset::FaultStorm => "fault-storm",
        }
    }

    /// Build the preset's scenario: `requests` arrivals total around a
    /// `base_gap` mean, with `base_ppm` as the ambient SEU rate.
    pub fn scenario(self, requests: u64, base_gap: u64, base_ppm: u32) -> Scenario {
        let g = base_gap.max(8);
        let r = requests;
        let steady = |name, requests, mean_gap, fault_ppm, rot| Phase {
            name,
            requests,
            load: PhaseLoad::Steady { mean_gap },
            fault_ppm,
            key_rotate_pct: rot,
        };
        let ramp = |name, requests, from, to, fault_ppm| Phase {
            name,
            requests,
            load: PhaseLoad::Ramp { from, to },
            fault_ppm,
            key_rotate_pct: 0,
        };
        let phases = match self {
            ScenarioPreset::Diurnal => vec![
                steady("night", r / 6, 3 * g, base_ppm, 0),
                ramp("morning", r / 4, 3 * g, g / 2, base_ppm),
                steady("peak", r / 4, g / 2, base_ppm, 0),
                ramp("evening", r / 6, g / 2, 3 * g, base_ppm),
                steady("night", r - (r / 6 + r / 4 + r / 4 + r / 6), 3 * g, base_ppm, 0),
            ],
            ScenarioPreset::FlashCrowd => vec![
                steady("calm", r / 4, g, base_ppm, 0),
                ramp("onset", r / 8, g, g / 6, base_ppm),
                steady("crowd", r / 4, g / 6, base_ppm, 0),
                ramp("decay", r / 8, g / 6, g, base_ppm),
                steady("calm", r - (r / 4 + r / 8 + r / 4 + r / 8), g, base_ppm, 0),
            ],
            ScenarioPreset::Lull => vec![
                steady("busy", r / 3, g / 2, base_ppm, 0),
                ramp("fade", r / 6, g / 2, 4 * g, base_ppm),
                steady("quiet", r / 4, 4 * g, base_ppm, 0),
                ramp("recover", r - (r / 3 + r / 6 + r / 4), 4 * g, g / 2, base_ppm),
            ],
            ScenarioPreset::SkewShift => vec![
                steady("skew-a", r / 3, g, base_ppm, 0),
                steady("skew-b", r / 3, g, base_ppm, 37),
                steady("skew-c", r - 2 * (r / 3), g, base_ppm, 71),
            ],
            ScenarioPreset::FaultStorm => {
                let storm = (u64::from(base_ppm.max(20_000)) * 10).clamp(150_000, 400_000) as u32;
                vec![
                    steady("calm", r / 3, g, base_ppm, 0),
                    steady("storm", r / 3, g, storm, 0),
                    steady("calm", r - 2 * (r / 3), g, base_ppm, 0),
                ]
            }
        };
        Scenario { name: self.label(), phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a = kv_stream(YcsbWorkload::A, 200, 128, 500, 7);
        let b = kv_stream(YcsbWorkload::A, 200, 128, 500, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, x.arrival, x.key, &x.payload), (y.id, y.arrival, y.key, &y.payload));
        }
        let w = web_stream(50, 64, 500, 7);
        let w2 = web_stream(50, 64, 500, 7);
        assert_eq!(w[49].arrival, w2[49].arrival);
        assert_eq!(w[49].payload, w2[49].payload);
    }

    #[test]
    fn arrivals_increase_with_the_right_mean() {
        let s = kv_stream(YcsbWorkload::D, 2_000, 64, 400, 3);
        let mut prev = 0;
        for r in &s {
            assert!(r.arrival > prev, "arrivals strictly increase");
            prev = r.arrival;
        }
        let mean = prev as f64 / s.len() as f64;
        assert!((320.0..480.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for key in 0..1_000u64 {
            let s4 = shard_of(key, 4);
            assert!(s4 < 4);
            assert_eq!(s4, shard_of(key, 4));
            assert_eq!(shard_of(key, 1), 0);
        }
        // All shards get some keys.
        let mut seen = [false; 4];
        for key in 0..64u64 {
            seen[shard_of(key, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rescale_preserves_identity_and_monotonicity() {
        let orig = kv_stream(YcsbWorkload::A, 100, 64, 400, 5);
        let mut lull = orig.clone();
        rescale_gaps(&mut lull, 50, 8, 1);
        let mut prev = 0;
        for (a, b) in orig.iter().zip(&lull) {
            assert_eq!((a.id, a.key, &a.payload), (b.id, b.key, &b.payload));
            assert!(b.arrival > prev, "arrivals strictly increase after rescale");
            prev = b.arrival;
        }
        // The head is untouched; the tail is stretched 8x.
        assert_eq!(orig[49].arrival, lull[49].arrival);
        let orig_tail = orig[99].arrival - orig[50].arrival;
        let lull_tail = lull[99].arrival - lull[50].arrival;
        assert!(lull_tail > orig_tail * 7, "tail {lull_tail} vs {orig_tail}");
        // Compression floors at 1-cycle gaps.
        let mut burst = orig.clone();
        rescale_gaps(&mut burst, 0, 1, 1_000_000);
        for w in burst.windows(2) {
            assert_eq!(w[1].arrival, w[0].arrival + 1);
        }
    }

    #[test]
    fn kv_payload_matches_ycsb_encoding() {
        let s = kv_stream(YcsbWorkload::A, 10, 32, 100, 9);
        for r in &s {
            assert_eq!(r.payload.len(), 8);
            let word = u64::from_le_bytes(r.payload[..8].try_into().unwrap());
            assert_eq!(word & !(1 << 63), r.key);
        }
    }

    const KV: StreamKind = StreamKind::Kv { workload: YcsbWorkload::A, n_keys: 64 };

    #[test]
    fn scenario_compile_is_deterministic_and_total() {
        for preset in ScenarioPreset::all() {
            let sc = preset.scenario(240, 300, 50_000);
            assert_eq!(sc.requests(), 240, "{}: presets must hit the request budget", preset.label());
            let a = sc.compile(KV, 0xBEEF);
            let b = sc.compile(KV, 0xBEEF);
            assert_eq!(a.stream.len(), 240);
            assert_eq!(a.fault_phases, b.fault_phases);
            assert_eq!(a.boundaries, b.boundaries);
            let mut prev = 0;
            for (x, y) in a.stream.iter().zip(&b.stream) {
                assert_eq!((x.id, x.arrival, x.key, &x.payload), (y.id, y.arrival, y.key, &y.payload));
                assert!(x.arrival > prev, "arrivals strictly increase");
                prev = x.arrival;
            }
        }
    }

    #[test]
    fn zero_length_phases_are_legal() {
        // A scenario with empty phases at the front, middle and back
        // compiles to exactly the non-empty phases' requests, with
        // boundaries recorded for every phase (including the empty
        // ones, which share their successor's first id).
        let z = |name| Phase {
            name,
            requests: 0,
            load: PhaseLoad::Ramp { from: 100, to: 1 },
            fault_ppm: 999_999,
            key_rotate_pct: 99,
        };
        let p = |name, requests| Phase {
            name,
            requests,
            load: PhaseLoad::Steady { mean_gap: 50 },
            fault_ppm: 10_000,
            key_rotate_pct: 0,
        };
        let sc =
            Scenario { name: "holes", phases: vec![z("a"), p("b", 5), z("c"), z("d"), p("e", 3), z("f")] };
        let c = sc.compile(KV, 7);
        assert_eq!(c.stream.len(), 8);
        assert_eq!(c.boundaries, vec![("a", 0), ("b", 0), ("c", 5), ("d", 5), ("e", 5), ("f", 8)]);
        // The fault schedule is consulted by id: ids 0..5 get phase b's
        // rate — the *last* schedule entry at or before the id wins, so
        // empty phases never shadow real requests... except at their
        // exact boundary, where the last-writer (the empty phase) is
        // fine because zero requests carry its rate.
        let cfg = crate::ServeConfig { fault_phases: c.fault_phases.clone(), ..Default::default() };
        assert_eq!(cfg.fault_ppm_for(0), 10_000);
        assert_eq!(cfg.fault_ppm_for(4), 10_000);
        // id 5 sits at the seam where c, d, e all start; e is last.
        assert_eq!(cfg.fault_ppm_for(5), 10_000);
        assert_eq!(cfg.fault_ppm_for(7), 10_000);
    }

    #[test]
    fn ramp_interpolation_hits_both_endpoints_and_never_zero() {
        // A single long down-ramp: first gap drawn around `from`, last
        // around `to`, and every gap ≥ 1 even when `to` is 1.
        let sc = Scenario {
            name: "ramp",
            phases: vec![Phase {
                name: "down",
                requests: 400,
                load: PhaseLoad::Ramp { from: 600, to: 1 },
                fault_ppm: 0,
                key_rotate_pct: 0,
            }],
        };
        let c = sc.compile(KV, 11);
        let gaps: Vec<u64> =
            (1..c.stream.len()).map(|i| c.stream[i].arrival - c.stream[i - 1].arrival).collect();
        assert!(gaps.iter().all(|&g| g >= 1), "gaps never drop to 0");
        // Head gaps average near 600, tail gaps near 1 (jitter is
        // uniform in [1, 2m-1], so the mean tracks m).
        let head: u64 = gaps[..50].iter().sum::<u64>() / 50;
        let tail: u64 = gaps[gaps.len() - 50..].iter().sum::<u64>() / 50;
        assert!((400..800).contains(&head), "head mean {head}");
        assert!(tail < head / 5, "tail mean {tail} vs head {head}");
        // The very last request's mean is exactly `to` = 1, and jitter
        // in [1, 2*1-1] is the point value 1.
        assert_eq!(*gaps.last().unwrap(), 1);
        // A 1-request ramp phase is legal (span clamps; gap uses `from`).
        let one = Scenario {
            name: "one",
            phases: vec![Phase {
                name: "p",
                requests: 1,
                load: PhaseLoad::Ramp { from: 100, to: 900 },
                fault_ppm: 0,
                key_rotate_pct: 0,
            }],
        };
        assert_eq!(one.compile(KV, 3).stream.len(), 1);
    }

    #[test]
    fn rescale_gaps_seam_rounding_edges() {
        // num/den rounding at a phase seam: a 1-cycle gap scaled by
        // 2/3 floors to 0 and must clamp to 1; scaling by 3/2 keeps it
        // at 1 (floor) — never 0 unless the caller asked for gap 0,
        // which the API can't express.
        let mk = |gaps: &[u64]| {
            let mut t = 0;
            gaps.iter()
                .enumerate()
                .map(|(i, &g)| {
                    t += g;
                    Request { id: i as u64, arrival: t, key: 0, payload: Box::new([]) }
                })
                .collect::<Vec<_>>()
        };
        let mut s = mk(&[1, 1, 3, 1]);
        rescale_gaps(&mut s, 0, 2, 3);
        let gaps: Vec<u64> = (1..s.len()).map(|i| s[i].arrival - s[i - 1].arrival).collect();
        assert_eq!(gaps, vec![1, 2, 1], "2/3 of [1,3,1] floors then clamps");
        // Empty and single-request streams are no-ops, not panics.
        let mut empty: Vec<Request> = Vec::new();
        rescale_gaps(&mut empty, 0, 7, 2);
        let mut single = mk(&[5]);
        rescale_gaps(&mut single, 0, 7, 2);
        assert_eq!(single[0].arrival, 5);
        // den = 0 clamps to 1 rather than dividing by zero.
        let mut z = mk(&[4, 4]);
        rescale_gaps(&mut z, 0, 3, 0);
        assert_eq!(z[1].arrival - z[0].arrival, 12);
    }

    #[test]
    fn key_rotation_shifts_the_head_but_preserves_ops() {
        // SkewShift rotates whole phases; the op mix (read/update flags)
        // is unchanged, only keys move, and rotated keys stay in range.
        let sc = ScenarioPreset::SkewShift.scenario(300, 200, 0);
        let c = sc.compile(KV, 21);
        let plain = Scenario {
            name: "plain",
            phases: sc.phases.iter().map(|p| Phase { key_rotate_pct: 0, ..*p }).collect(),
        }
        .compile(KV, 21);
        let mut moved = 0;
        for (r, p) in c.stream.iter().zip(&plain.stream) {
            assert!(r.key < 64);
            let flag = u64::from_le_bytes(r.payload[..8].try_into().unwrap()) >> 63;
            let pflag = u64::from_le_bytes(p.payload[..8].try_into().unwrap()) >> 63;
            assert_eq!(flag, pflag, "op kind survives rotation");
            assert_eq!(r.arrival, p.arrival, "arrivals unaffected by rotation");
            moved += u64::from(r.key != p.key);
        }
        assert!(moved > 100, "rotation moved only {moved} keys");
    }

    #[test]
    fn random_scenarios_are_seed_deterministic_and_budgeted() {
        for seed in 0..64u64 {
            let a = Scenario::random(seed, 150, 300, 50_000);
            let b = Scenario::random(seed, 150, 300, 50_000);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.requests(), 150, "seed {seed} lost requests");
            assert!((2..=5).contains(&a.phases.len()));
            let ca = a.compile(KV, seed);
            let cb = b.compile(KV, seed);
            assert_eq!(ca.stream.len(), 150);
            assert_eq!(ca.fault_phases, cb.fault_phases);
            for (x, y) in ca.stream.iter().zip(&cb.stream) {
                assert_eq!((x.id, x.arrival, x.key, &x.payload), (y.id, y.arrival, y.key, &y.payload));
            }
        }
    }

    #[test]
    fn web_scenarios_route_by_parse_hash() {
        let sc = ScenarioPreset::FlashCrowd.scenario(60, 200, 0);
        let c = sc.compile(StreamKind::Web { request_bytes: 64 }, 5);
        for r in &c.stream {
            assert_eq!(r.key, elzar_apps::web::parse_hash(&r.payload));
            assert_eq!(r.payload.len(), 64);
        }
    }
}
