//! Every `ServeConfig` / `CampaignConfig` literal the benchmark uses, in
//! one place.
//!
//! Only durable knobs are set. `event_core`, `order_fuzz`,
//! `share_prefixes` and the machine's `engine` keep the library
//! defaults, so a later change to those defaults (or the removal of the
//! knobs) cannot silently change what a workload measures.

use elzar_fault::CampaignConfig;
use elzar_serve::gen::{Scenario, ScenarioPreset};
use elzar_serve::{ScalingPolicy, ServeConfig};
use elzar_vm::MachineConfig;

/// The seed whose virtual results are pinned in `pinned.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Host worker threads for every serve and campaign call (the traced
/// run's single comparison against 1 aside).
pub const WORKERS: u32 = 2;

/// The twelve benchmarks of the paper's Figure 13.
pub const FIG13_BENCHES: [&str; 12] = [
    "histogram",
    "kmeans",
    "linear_regression",
    "pca",
    "string_match",
    "word_count",
    "blackscholes",
    "dedup",
    "ferret",
    "streamcluster",
    "swaptions",
    "x264",
];

/// Simulated threads of every Figure 13 run (the paper injected at 2).
pub const FIG13_THREADS: u32 = 2;

/// Workload sizes: the measured size, and the minimal size the
/// self-test runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Minimal,
}

impl Size {
    /// Requests in one `serve-kv-a` stream.
    pub fn kv_a_requests(self) -> u64 {
        match self {
            Size::Full => 2_000,
            Size::Minimal => 96,
        }
    }

    /// Requests in one `serve-kv-d-elastic` scenario.
    pub fn elastic_requests(self) -> u64 {
        match self {
            Size::Full => 1_600,
            Size::Minimal => 128,
        }
    }

    /// Injections per build in one `campaign-fig13` pass.
    pub fn fig13_runs(self) -> u32 {
        match self {
            Size::Full => 8,
            Size::Minimal => 2,
        }
    }
}

/// Mixes the benchmark seed into a library seed, so seed 0 and 1 do not
/// map to neighbouring generator states.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `serve-kv-a`: memcached-A on 4 static shards, unbatched, a snapshot
/// every 8 commits, 2% per-request SEU, open loop well under capacity.
pub fn kv_a(seed: u64, workers: u32, size: Size) -> ServeConfig {
    ServeConfig {
        shards: 4,
        workers,
        batch_size: 1,
        snapshot_interval: 8,
        fault_rate_ppm: 20_000,
        mean_gap_cycles: 2_500,
        requests: size.kv_a_requests(),
        seed: mix(seed, 0xA),
        ..ServeConfig::default()
    }
}

/// `serve-kv-d-elastic`: memcached-D on the elastic fleet (1 to 4
/// shards, predictive policy) with adaptive batching, warm replicas,
/// compaction and divergence checks every 8 commits. The stream comes
/// from [`kv_d_scenario`], which also owns the fault rate.
pub fn kv_d_elastic(seed: u64, workers: u32) -> ServeConfig {
    ServeConfig {
        shards: 1,
        workers,
        batch_adaptive: true,
        snapshot_interval: 8,
        queue_capacity: 1 << 20,
        adaptive_shards: true,
        shards_max: 4,
        control_interval: 16,
        scale_up_backlog: 6,
        scale_down_backlog: 1,
        replicas: true,
        compaction: true,
        divergence_check_interval: 8,
        scaling_policy: ScalingPolicy::Predictive,
        seed: mix(seed, 0xD),
        ..ServeConfig::default()
    }
}

/// The `flash-crowd` preset at 5% SEU around a calm gap a single shard
/// absorbs; the crowd phase needs more shards.
pub fn kv_d_scenario(size: Size) -> Scenario {
    ScenarioPreset::FlashCrowd.scenario(size.elastic_requests(), 6_000, 50_000)
}

/// `cfg` with the canonical event trace on (the traced run's
/// `elzar_obs` overhead comparison; recording never changes results).
pub fn with_trace_events(cfg: ServeConfig) -> ServeConfig {
    ServeConfig { trace_events: 1 << 14, ..cfg }
}

/// Machine of every Figure 13 run: 2 simulated threads, a generous step
/// budget.
pub fn fig13_machine() -> MachineConfig {
    MachineConfig { step_limit: 200_000_000_000, threads: FIG13_THREADS, ..MachineConfig::default() }
}

/// Campaign of one Figure 13 build (`build` indexes the 24 builds in
/// benchmark-major order).
pub fn fig13_campaign(seed: u64, build: usize, workers: u32, size: Size) -> CampaignConfig {
    CampaignConfig {
        runs: size.fig13_runs(),
        seed: mix(seed, 0xF13 + build as u64),
        workers,
        machine: fig13_machine(),
        ..CampaignConfig::default()
    }
}
