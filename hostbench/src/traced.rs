//! The traced run: per-layer metrics derived from spans recorded around
//! calls into each layer's public functions.
//!
//! Every traced run measures every layer. The workload's own calls
//! cover the layers on its path; the layers it never calls (the serving
//! stack for the campaign, golden runs and checkpointed injection for
//! the serve workloads) are measured on a fixture: `serve-kv-a` at the
//! same size for the campaign, and the Figure 13 `histogram` pair for
//! the serve workloads. `README.md` lists which is which.

use crate::config::{self, Size};
use crate::measure::Checker;
use crate::report::{peak_rss_mb, RunResult};
use crate::spans::Spans;
use crate::stats::{f64s, median, quantile};
use crate::workload::{self, Build, PassOpts, ServeSetup, Setup, Virtual, Workload};
use elzar_apps::kv;
use elzar_fault::{golden_run, inject_one, replay_suffix, sample_plans, Outcome};
use elzar_serve::gen::Request;
use elzar_serve::{ServeReport, Service};
use elzar_vm::{Machine, RunOutcome};
use std::path::Path;
use std::time::Instant;

/// Requests the resident-shard probe serves.
const PROBE_REQUESTS: usize = 1_024;

/// Shard boots the probe times.
const PROBE_BOOTS: usize = 4;

/// Stream generations the probe times.
const PROBE_GENS: usize = 3;

/// Checkpointed injections the probe times per build: the campaign's
/// own 24 builds, or the 2 builds of the fixture.
const PROBE_PLANS_OWN: u32 = 6;
const PROBE_PLANS_FIXTURE: u32 = 48;

/// Rounds of the pass comparisons (`workers = 2` against `workers = 1`,
/// and `trace_events` off against on). The passes alternate within a
/// round, and each ratio is one of medians over the rounds.
const ROUNDS: usize = 3;

/// Span-cost calibration: batches, and empty spans per batch.
const CALIBRATION_BATCHES: usize = 9;
const CALIBRATION_SPANS: usize = 20_000;

const MIB: f64 = 1024.0 * 1024.0;

/// The traced run: a fixed sequence of passes and probes, whatever
/// `--seconds` says.
pub fn run(w: Workload, seed: u64, size: Size) -> RunResult {
    let spans = Spans::new(true);
    let fixture_spans = Spans::new(true);
    let mut own_check = Checker::pinned(w, seed, size);

    let own = workload::setup(w, &spans);
    let lower_insts: usize = match &own {
        Setup::Serve(s) => s.build.program.num_insts(),
        Setup::Fig13(builds) => builds.iter().map(|b| b.program.num_insts()).sum(),
    };

    let opts = PassOpts::new(size);
    let (serve, campaign, fixture_check) = match &own {
        Setup::Serve(s) => {
            let serve = serve_part(s, seed, opts, &mut own_check, &spans);
            let builds = workload::fig13_setup(&fixture_spans, &["histogram"]);
            let mut check = Checker::new("campaign-fig13/histogram fixture".into(), None);
            let campaign = serve
                .as_ref()
                .and_then(|_| campaign_part(&builds, seed, opts, PROBE_PLANS_FIXTURE, &mut check, &spans));
            (serve, campaign, check)
        }
        Setup::Fig13(builds) => {
            let campaign = campaign_part(builds, seed, opts, PROBE_PLANS_OWN, &mut own_check, &spans);
            let s = workload::serve_setup(&fixture_spans, Service::KvA);
            let mut check = Checker::pinned(Workload::KvA, seed, size);
            let serve = campaign.as_ref().and_then(|_| serve_part(&s, seed, opts, &mut check, &spans));
            (serve, campaign, check)
        }
    };
    let mut r = RunResult {
        attempted: own_check.attempted + fixture_check.attempted,
        failed: own_check.failed + fixture_check.failed,
        metrics: Vec::new(),
    };
    let (Some(serve), Some(campaign)) = (serve, campaign) else {
        // A pass panicked: no metrics, and the run is not correct.
        r.attempted = r.attempted.max(1);
        r.failed = r.failed.max(1);
        return r;
    };
    r.failed += serve.probe_failures;

    // Passes and lowering: the workload's own builds, the fixture's
    // where the workload has none of that kind.
    let ms = |name: &str| {
        let own = spans.durations(name);
        let d = if own.is_empty() { fixture_spans.durations(name) } else { own };
        median(&f64s(&d)) / 1e6
    };
    r.push("passes.elzar_ms", ms("passes.elzar"), "ms");
    r.push("passes.native_ms", ms("passes.native"), "ms");
    r.push("lower.ms", ms("lower"), "ms");
    r.push("lower.insts", lower_insts as f64, "count");

    r.push("vm.batch_ns_per_step.elzar", campaign.ns_per_step_elzar, "ns");
    r.push("vm.batch_ns_per_step.native", campaign.ns_per_step_native, "ns");
    r.push("vm.reenter_us", median(&f64s(&spans.durations("vm.reenter"))) / 1e3, "us");
    let request = f64s(&spans.durations("vm.request"));
    r.push("vm.request_us.p50", quantile(&request, 0.50) / 1e3, "us");
    r.push("vm.request_us.p99", quantile(&request, 0.99) / 1e3, "us");
    r.push("vm.request_ns_per_step", serve.request_ns_per_step, "ns");
    r.push("vm.batch_req_us", serve.batch_req_us, "us");
    r.push("vm.snapshot_clone_us", median(&f64s(&spans.durations("vm.snapshot_clone"))) / 1e3, "us");
    r.push("vm.resident_mb", serve.resident_bytes as f64 / MIB, "MiB");
    r.push("vm.checkpoint_clone_us", median(&f64s(&spans.durations("vm.checkpoint_clone"))) / 1e3, "us");

    let golden: Vec<u64> =
        [spans.durations("fault.golden.elzar"), spans.durations("fault.golden.native")].concat();
    r.push("fault.golden_ms", median(&f64s(&golden)) / 1e6, "ms");
    let inject = f64s(&spans.durations("fault.inject"));
    r.push("fault.inject_ms.p50", quantile(&inject, 0.50) / 1e6, "ms");
    r.push("fault.inject_ms.p99", quantile(&inject, 0.99) / 1e6, "ms");
    r.push("fault.hang_share", campaign.hangs as f64 / inject.len().max(1) as f64, "ratio");
    r.push("fault.replay_us_per_req", serve.replay_us_per_req, "us");

    let rep = &serve.report;
    r.push("serve.boot_ms", median(&f64s(&spans.durations("serve.boot"))) / 1e6, "ms");
    r.push("serve.gen_ms", median(&f64s(&spans.durations("serve.gen"))) / 1e6, "ms");
    r.push("serve.snapshots", rep.snapshots as f64, "count");
    r.push("serve.restarts", rep.restarts as f64, "count");
    r.push("serve.promotions", rep.promotions as f64, "count");
    r.push("serve.migration_replays", rep.migration_replays as f64, "count");
    r.push("serve.batches", rep.batches as f64, "count");
    r.push("serve.injected", rep.injected as f64, "count");
    r.push("serve.wall_ms", serve.wall_s * 1e3, "ms");
    r.push("serve.attributed_ms", serve.attributed_s * 1e3, "ms");
    r.push("serve.unattributed_share", 1.0 - serve.attributed_s / serve.wall_s, "ratio");
    r.push("serve.worker_speedup", serve.worker_speedup, "ratio");
    r.push("campaign.wall_ms", campaign.wall_s * 1e3, "ms");
    r.push("campaign.worker_speedup", campaign.worker_speedup, "ratio");
    r.push("obs.trace_overhead_pct", serve.trace_overhead_pct, "%");

    // The benchmark's own tracing: the calibrated cost of one span times
    // the spans recorded, against the traced time net of that cost.
    let span_ns = span_cost_ns();
    let recorded = (spans.len() + fixture_spans.len()) as f64;
    let traced_ns = (spans.root_ns() + fixture_spans.root_ns()) as f64;
    let cost_ns = recorded * span_ns;
    println!("spans: {recorded} recorded at {span_ns:.1} ns each, over {:.3} s traced", traced_ns / 1e9);
    r.push("bench.trace_overhead_pct", 100.0 * cost_ns / (traced_ns - cost_ns), "%");
    r.push("proc.peak_rss_mb", peak_rss_mb(), "MiB");

    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let fixture_path = dir.join(format!("spans-{}-seed{seed}-fixture.jsonl", w.name()));
    let written = spans
        .write_jsonl(&path, w.name())
        .and_then(|()| fixture_spans.write_jsonl(&fixture_path, &format!("{}/fixture", w.name())));
    match written {
        Ok(()) => println!("spans written to {} and {}", path.display(), fixture_path.display()),
        Err(e) => eprintln!("hostbench: could not write spans: {e}"),
    }
    r
}

/// Host cost of recording one span, in ns: the median over batches of
/// empty spans, each nested in an outer one, in a throwaway recorder.
fn span_cost_ns() -> f64 {
    let per_span: Vec<f64> = (0..CALIBRATION_BATCHES)
        .map(|_| {
            let s = Spans::new(true);
            let t = Instant::now();
            for _ in 0..CALIBRATION_SPANS / 2 {
                s.span("calibrate", || s.span("calibrate.inner", || ()));
            }
            t.elapsed().as_nanos() as f64 / s.len() as f64
        })
        .collect();
    median(&per_span)
}

/// Wall or CPU times of the alternating comparison passes, over the
/// rounds.
#[derive(Default)]
struct Times {
    base: Vec<f64>,
    other: Vec<f64>,
}

impl Times {
    /// Median time of the compared passes over that of the base passes.
    fn ratio(&self) -> f64 {
        median(&self.other) / median(&self.base)
    }
}

/// The serving-layer numbers of one traced run.
struct ServePart {
    report: ServeReport,
    request_ns_per_step: f64,
    batch_req_us: f64,
    replay_us_per_req: f64,
    resident_bytes: u64,
    /// Median wall of the `workers = 2` serve passes.
    wall_s: f64,
    /// The part of `wall_s` the report's counts account for at the
    /// probe's per-call costs: a model estimate.
    attributed_s: f64,
    worker_speedup: f64,
    trace_overhead_pct: f64,
    /// Probe requests whose replayed state disagreed with the served
    /// one (expected 0).
    probe_failures: u64,
}

/// Serve passes in alternating rounds (`workers = 2`, `workers = 1`,
/// `trace_events` on), each checked by `check`, plus the resident-shard
/// probe. `None` when a pass panicked.
fn serve_part(
    s: &ServeSetup,
    seed: u64,
    opts: PassOpts,
    check: &mut Checker,
    spans: &Spans,
) -> Option<ServePart> {
    let (mut workers, mut events) = (Times::default(), Times::default());
    let mut first = None;
    for _ in 0..ROUNDS {
        let p = check.run(|| workload::serve_pass(s, seed, opts))?;
        let one = check.run(|| workload::serve_pass(s, seed, PassOpts { workers: 1, ..opts }))?;
        let traced = check.run(|| workload::serve_pass(s, seed, PassOpts { trace_events: true, ..opts }))?;
        workers.base.push(p.wall_s);
        workers.other.push(one.wall_s);
        events.base.push(p.cpu_s);
        events.other.push(traced.cpu_s);
        first.get_or_insert(p);
    }
    let pass = first?;
    println!("{}: {}", check.label(), pass.virt.describe());
    let Virtual::Serve(report) = pass.virt else { unreachable!("serve passes report serve results") };
    let wall = median(&workers.base);

    let cfg = workload::serve_config(s.service, seed, opts);
    let mut stream = Vec::new();
    for _ in 0..PROBE_GENS {
        stream = spans.span("serve.gen", || match s.service {
            Service::KvD => {
                config::kv_d_scenario(opts.size).compile(s.service.stream_kind(&s.app), cfg.seed).stream
            }
            _ => s.service.stream(&s.app, &cfg),
        });
    }
    // The average batch the serve pass ran (fault-scheduled requests
    // run solo and are not in batches).
    let batched = report.served - report.injected;
    let batch = (batched as f64 / report.batches.max(1) as f64).round().max(1.0) as usize;
    let probe = resident_probe(s, &cfg, &stream, batch, spans);

    // Host time the report's counts account for, at the probe's
    // per-call costs. This models the serve path from outside: each
    // restart and fault twin replays half a snapshot interval, replicas
    // execute every request twice, and injected runs cost one clean
    // request. The rest of the wall is the driver loop, the controller,
    // divergence scans and merging.
    let us = |name: &str| {
        let d = spans.durations(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
    };
    let (boot, clone, request) = (us("serve.boot"), us("vm.snapshot_clone"), us("vm.request"));
    let k = f64::from(cfg.snapshot_interval);
    let replay_half_interval = (k - 1.0) / 2.0 * probe.replay_us_per_req;
    let injected = report.injected as f64;
    let execute = batched as f64 * probe.batch_req_us + injected * request;
    let mut attributed_us = f64::from(cfg.shards) * boot
        + execute
        + injected * (clone + replay_half_interval + request)
        + report.snapshots as f64 * clone
        + report.restarts as f64 * (clone + replay_half_interval)
        + report.scale_ups as f64 * clone
        + report.migration_replays as f64 * probe.replay_us_per_req;
    if cfg.replicas {
        attributed_us += execute;
    }
    Some(ServePart {
        report: *report,
        request_ns_per_step: probe.request_ns_per_step,
        batch_req_us: probe.batch_req_us,
        replay_us_per_req: probe.replay_us_per_req,
        resident_bytes: probe.resident_bytes,
        wall_s: wall,
        attributed_s: attributed_us / 1e6,
        worker_speedup: workers.ratio(),
        trace_overhead_pct: 100.0 * (events.ratio() - 1.0),
        probe_failures: probe.failures,
    })
}

struct ResidentProbe {
    request_ns_per_step: f64,
    batch_req_us: f64,
    replay_us_per_req: f64,
    resident_bytes: u64,
    failures: u64,
}

/// Drive one resident shard through the stream with the public
/// `Machine` API: boot, per-request `reenter` + run, a snapshot clone
/// every snapshot interval, the interval replayed onto the previous
/// snapshot (what recovery and fault twins do), and the same requests
/// again as batches of `batch`.
fn resident_probe(
    s: &ServeSetup,
    cfg: &elzar_serve::ServeConfig,
    stream: &[Request],
    batch: usize,
    spans: &Spans,
) -> ResidentProbe {
    let (prog, app) = (&s.build.program, &s.app);
    let mut mc = cfg.machine;
    mc.fault = None;
    let mut booted = None;
    for _ in 0..PROBE_BOOTS {
        booted = Some(spans.span("serve.boot", || {
            let mut m = Machine::start(prog, app.init_entry, &[], mc);
            let o = m.run_to_completion();
            assert!(matches!(o, RunOutcome::Exited(_)), "shard init must exit cleanly, got {o:?}");
            let snap = m.clone();
            (m, snap)
        }));
    }
    let (mut m, mut snap) = booted.expect("at least one boot");
    let boot_snap = snap.clone();
    let requests = &stream[..stream.len().min(PROBE_REQUESTS)];
    let k = cfg.snapshot_interval.max(1) as usize;
    let (mut steps, mut request_ns, mut replay_ns, mut replayed, mut failures) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut suffix: Vec<&[u8]> = Vec::with_capacity(k);
    let mut resident_bytes = m.memory().resident_bytes();
    for r in requests {
        let before = spans.len();
        let o = spans.span("vm.request", || {
            spans.span("vm.reenter", || m.reenter(app.request_entry, &r.payload));
            spans.span("vm.run", || m.run_to_completion())
        });
        request_ns += spans.durations_since(before, "vm.request");
        if !matches!(o, RunOutcome::Exited(_)) {
            failures += 1;
        }
        steps += m.result(o).steps;
        suffix.push(&r.payload);
        if suffix.len() == k {
            let mut twin = spans.span("vm.snapshot_clone", || snap.clone());
            let before = spans.len();
            let ok =
                spans.span("fault.replay", || replay_suffix(&mut twin, app.request_entry, &suffix)).is_ok();
            replay_ns += spans.durations_since(before, "fault.replay");
            replayed += suffix.len() as u64;
            if !ok || table_digest(&twin, app) != table_digest(&m, app) {
                failures += 1;
            }
            snap = spans.span("vm.snapshot_clone", || m.clone());
            resident_bytes = m.memory().resident_bytes();
            suffix.clear();
        }
    }
    let mut bm = boot_snap;
    let mut batch_ns = 0;
    for chunk in requests.chunks(batch) {
        let parts: Vec<&[u8]> = chunk.iter().map(|r| &*r.payload).collect();
        let before = spans.len();
        let o = spans.span("vm.batch", || {
            bm.reenter_batch(app.batch_entry, &parts);
            bm.run_to_completion()
        });
        batch_ns += spans.durations_since(before, "vm.batch");
        if !matches!(o, RunOutcome::Exited(_)) {
            failures += 1;
        }
    }
    if table_digest(&bm, app) != table_digest(&m, app) {
        failures += 1;
    }
    ResidentProbe {
        request_ns_per_step: request_ns as f64 / steps.max(1) as f64,
        batch_req_us: batch_ns as f64 / requests.len().max(1) as f64 / 1e3,
        replay_us_per_req: replay_ns as f64 / replayed.max(1) as f64 / 1e3,
        resident_bytes,
        failures,
    }
}

/// The resident KV table as `(key, value)` pairs folded into one word.
fn table_digest(m: &Machine<'_>, app: &elzar_apps::ServeApp) -> u64 {
    (0..app.n_keys).fold(0xcbf2_9ce4_8422_2325, |h, k| {
        let v = kv::serve_lookup(m.memory(), app.table_base, k).unwrap_or(0);
        (h ^ k ^ v.rotate_left(17)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fault-campaign numbers of one traced run.
struct CampaignPart {
    ns_per_step_elzar: f64,
    ns_per_step_native: f64,
    hangs: u64,
    /// Median wall of the `workers = 2` campaign passes.
    wall_s: f64,
    worker_speedup: f64,
}

/// Campaign passes in alternating rounds (`workers = 2`, `workers =
/// 1`), each checked by `check`, plus the checkpointed injection probe
/// on every build. `None` when a pass panicked.
fn campaign_part(
    builds: &[Build],
    seed: u64,
    opts: PassOpts,
    plans_per_build: u32,
    check: &mut Checker,
    spans: &Spans,
) -> Option<CampaignPart> {
    let mut workers = Times::default();
    let mut first = None;
    for _ in 0..ROUNDS {
        let p = check.run(|| workload::campaign_pass(builds, seed, opts))?;
        let one = check.run(|| workload::campaign_pass(builds, seed, PassOpts { workers: 1, ..opts }))?;
        workers.base.push(p.wall_s);
        workers.other.push(one.wall_s);
        first.get_or_insert(p);
    }
    println!("{}: {}", check.label(), first?.virt.describe());
    let machine = config::fig13_machine();
    let (mut ns, mut steps) = ([0u64; 2], [0u64; 2]);
    let mut hangs = 0;
    for (i, b) in builds.iter().enumerate() {
        let name = if b.hardened { "fault.golden.elzar" } else { "fault.golden.native" };
        let before = spans.len();
        let golden = spans.span(name, || golden_run(&b.program, &b.input, &machine));
        ns[b.hardened as usize] += spans.durations_since(before, name);
        steps[b.hardened as usize] += golden.steps;
        let hang_factor = config::fig13_campaign(seed, i, opts.workers, opts.size).hang_factor;
        let mut plans = sample_plans(config::mix(seed, 0x9_0BE + i as u64), golden.eligible, plans_per_build);
        plans.sort_unstable();
        let mut base = Machine::start(&b.program, "main", &b.input, machine);
        for (index, bit) in plans {
            while base.eligible_so_far() + base.eligible_round_bound() < index {
                if base.run_round().is_some() {
                    unreachable!("a fault-free run retires all {} eligible instructions", golden.eligible);
                }
            }
            let clone = spans.span("vm.checkpoint_clone", || base.clone());
            let (o, _) = spans.span("fault.inject", || inject_one(clone, &golden, index, bit, hang_factor));
            hangs += u64::from(o == Outcome::Hang);
        }
    }
    Some(CampaignPart {
        ns_per_step_elzar: ns[1] as f64 / steps[1].max(1) as f64,
        ns_per_step_native: ns[0] as f64 / steps[0].max(1) as f64,
        hangs,
        wall_s: median(&workers.base),
        worker_speedup: workers.ratio(),
    })
}
