//! The untraced run (end-to-end metrics), the fingerprint checker every
//! pass goes through, the self-test and the pin printer.

use crate::config::{Size, DEFAULT_SEED};
use crate::fingerprint;
use crate::report::{thread_cpu_s, RunResult};
use crate::spans::Spans;
use crate::stats::median;
use crate::traced;
use crate::workload::{self, Pass, PassOpts, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// CPU seconds of one set-up sample: consecutive set-ups are timed until
/// they have used this much, and the sample is their mean.
const SETUP_SLICE_S: f64 = 0.1;

/// Timed passes per run at least, however long they take.
const MIN_PASSES: usize = 3;

/// Checks every pass's fingerprint against the workload's reference:
/// the pinned line for `(workload, seed)` when there is one, otherwise
/// the run's first pass.
pub struct Checker {
    label: String,
    reference: Option<String>,
    /// Operations of the last good pass: what a panicking pass is
    /// charged as failed.
    last_ops: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A checker against `reference`, or against the first pass it sees
    /// when there is none.
    pub fn new(label: String, reference: Option<String>) -> Checker {
        Checker { label, reference, last_ops: 1, attempted: 0, failed: 0 }
    }

    /// A checker against the pinned fingerprint of `w` at `seed`, if
    /// there is one.
    pub fn pinned(w: Workload, seed: u64, size: Size) -> Checker {
        let label = pin_key(w, size);
        let reference = fingerprint::pinned(&label, seed);
        let how = if reference.is_some() { "pinned" } else { "first pass (seed not pinned)" };
        println!("{} seed {seed}: fingerprint reference = {how}", w.name());
        Checker::new(label, reference)
    }

    /// Run `f` (one pass), charging its operations as attempted and, if
    /// it panicked or its fingerprint differs from the reference, as
    /// failed. Returns the pass when it ran to completion.
    pub fn run(&mut self, f: impl FnOnce() -> Pass) -> Option<Pass> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(p) => {
                self.attempted += p.ops;
                self.last_ops = p.ops.max(1);
                if !self.matches(&p.fingerprint) {
                    self.failed += p.ops;
                }
                Some(p)
            }
            Err(_) => {
                self.attempted += self.last_ops;
                self.failed += self.last_ops;
                eprintln!("{}: pass panicked", self.label);
                None
            }
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    /// Compare (or adopt) a fingerprint.
    fn matches(&mut self, fp: &str) -> bool {
        match &self.reference {
            None => {
                self.reference = Some(fp.to_string());
                true
            }
            Some(want) if want == fp => true,
            Some(want) => {
                eprintln!("{}: fingerprint mismatch: {}", self.label, fingerprint::diff(want, fp));
                false
            }
        }
    }
}

/// The `pinned.txt` key of a workload at a size.
fn pin_key(w: Workload, size: Size) -> String {
    match size {
        Size::Full => w.name().to_string(),
        Size::Minimal => format!("{}/minimal", w.name()),
    }
}

/// One set-up sample: after one untimed set-up (which refills the
/// allocator and caches a pass has churned), set the workload up
/// repeatedly for at least `SETUP_SLICE_S` and return the mean CPU time
/// of one set-up. Set-up runs on the calling thread only, so its CPU
/// time is its host time less what a hypervisor stole. Dropping a set-up
/// is not timed.
fn setup_sample(w: Workload, spans: &Spans) -> f64 {
    drop(workload::setup(w, spans));
    let (mut timed, mut n) = (0.0, 0u32);
    while n == 0 || timed < SETUP_SLICE_S {
        let t = thread_cpu_s();
        let setup = workload::setup(w, spans);
        timed += thread_cpu_s() - t;
        drop(setup);
        n += 1;
    }
    timed / f64::from(n)
}

/// The untraced run: set up, then passes until `seconds` have elapsed
/// (at least `MIN_PASSES`), each checked against the fingerprint
/// reference and each followed by one set-up sample, so the set-up
/// samples spread over the run as the passes do. Reports the median
/// per-pass rate in operations per CPU second and the median set-up
/// sample.
pub fn run(w: Workload, seed: u64, seconds: u64, size: Size) -> RunResult {
    let spans = Spans::new(false);
    let setup = workload::setup(w, &spans);
    let mut check = Checker::pinned(w, seed, size);
    let opts = PassOpts::new(size);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut rates, mut wall_rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        if let Some(p) = check.run(|| workload::pass(&setup, seed, opts)) {
            rates.push(p.ops as f64 / p.cpu_s);
            wall_rates.push(p.ops as f64 / p.wall_s);
            last = Some(p);
        }
        if check.failed > 0 {
            break;
        }
        setups.push(setup_sample(w, &spans));
    }
    if let Some(p) = &last {
        println!("{} seed {seed}: {}", w.name(), p.virt.describe());
    }
    println!("{} seed {seed}: {} passes, ops per CPU second per pass {:?}", w.name(), rates.len(), rates);
    println!("{} seed {seed}: ops per wall second per pass {:?}", w.name(), wall_rates);
    println!("{} seed {seed}: set-up samples (CPU s) {:?}", w.name(), setups);
    let mut r = RunResult { attempted: check.attempted, failed: check.failed, metrics: Vec::new() };
    r.push("setup_s", median(&setups), "s");
    r.push("ops_per_cpu_s", median(&rates), "1/s");
    r
}

/// `--pin <workload|all> <seed>...`: print `pinned.txt` lines for the
/// given seeds at full size, plus each workload's minimal-size line at
/// the default seed.
pub fn print_pins(args: &[String]) -> Result<(), String> {
    let (which, seeds) = args.split_first().ok_or("--pin needs a workload (or all) and seeds")?;
    let workloads: Vec<Workload> = match which.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?],
    };
    let seeds: Vec<u64> =
        seeds.iter().map(|s| s.parse().map_err(|e| format!("seed {s}: {e}"))).collect::<Result<_, _>>()?;
    let spans = Spans::new(false);
    for w in workloads {
        let setup = workload::setup(w, &spans);
        for (size, seed) in seeds.iter().map(|&s| (Size::Full, s)).chain([(Size::Minimal, DEFAULT_SEED)]) {
            let p = workload::pass(&setup, seed, PassOpts::new(size));
            println!("{} {seed} {}", pin_key(w, size), p.fingerprint);
        }
    }
    Ok(())
}

/// The names and units of one metric list in `BENCHMARK.json`.
fn declared_metrics(json: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let start = json.find(&format!("\"{key}\"")).ok_or_else(|| format!("BENCHMARK.json has no {key}"))?;
    let body = &json[start..];
    let end = body.find(']').ok_or_else(|| format!("{key} is not a list"))?;
    let field = |obj: &str, name: &str| -> Option<String> {
        let at = obj.find(&format!("\"{name}\""))? + name.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|obj| {
            Ok((
                field(obj, "name").ok_or("metric without name")?,
                field(obj, "unit").ok_or("metric without unit")?,
            ))
        })
        .collect()
}

/// Every declared metric is emitted once, with its declared unit, and
/// nothing else is.
fn check_emitted(r: &RunResult, declared: &[(String, String)], what: &str) -> Result<(), String> {
    for (name, unit) in declared {
        let m =
            r.metrics.iter().find(|m| m.name == name).ok_or_else(|| format!("{what}: {name} not emitted"))?;
        if m.unit != unit {
            return Err(format!("{what}: {name} emitted in {}, declared in {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{what}: {name} = {} is not a number", m.value));
        }
    }
    if r.metrics.len() != declared.len() {
        return Err(format!("{what}: {} metrics emitted, {} declared", r.metrics.len(), declared.len()));
    }
    Ok(())
}

/// `--self-test`: every workload once at minimal size, untraced and
/// traced. Checks that every metric `BENCHMARK.json` names is emitted
/// with its unit, that each pass matches its pinned minimal-size
/// fingerprint, and that a perturbed pin is caught as a failure.
pub fn self_test() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let end_to_end = declared_metrics(&json, "end_to_end")?;
    let per_layer = declared_metrics(&json, "per_layer")?;
    for w in Workload::ALL {
        let r = run(w, DEFAULT_SEED, 1, Size::Minimal);
        if !r.correct() {
            return Err(format!("{}: minimal run failed its pinned fingerprint", w.name()));
        }
        check_emitted(&r, &end_to_end, &format!("{} untraced", w.name()))?;
        let t = traced::run(w, DEFAULT_SEED, Size::Minimal);
        if !t.correct() {
            return Err(format!("{}: minimal traced run failed", w.name()));
        }
        check_emitted(&t, &per_layer, &format!("{} traced", w.name()))?;

        let key = pin_key(w, Size::Minimal);
        let pin = fingerprint::pinned(&key, DEFAULT_SEED).ok_or_else(|| format!("{key} is not pinned"))?;
        let perturbed = perturb(&pin);
        let spans = Spans::new(false);
        let setup = workload::setup(w, &spans);
        let mut check = Checker::new(key, Some(perturbed));
        check.run(|| workload::pass(&setup, DEFAULT_SEED, PassOpts::new(Size::Minimal)));
        if check.failed == 0 || check.failed != check.attempted {
            return Err(format!("{}: a perturbed pinned value was not caught", w.name()));
        }
        println!("self-test {}: metrics complete, pin matched, perturbed pin caught", w.name());
    }
    println!("self-test passed");
    Ok(())
}

/// `fp` with its last digit changed.
fn perturb(fp: &str) -> String {
    let mut s = fp.to_string();
    let at = s.rfind(|c: char| c.is_ascii_digit()).expect("fingerprints hold numbers");
    let d = s.as_bytes()[at];
    let nd = if d == b'9' { '0' } else { (d + 1) as char };
    s.replace_range(at..=at, &nd.to_string());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_are_read_in_order() {
        let json = r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "b", "unit": "1/s"}], "per_layer": [{"name": "c", "unit": "count"}]}"#;
        let e = declared_metrics(json, "end_to_end").unwrap();
        assert_eq!(e, vec![("a".into(), "s".into()), ("b".into(), "1/s".into())]);
        assert_eq!(declared_metrics(json, "per_layer").unwrap(), vec![("c".into(), "count".into())]);
    }

    #[test]
    fn perturb_changes_one_digit() {
        assert_eq!(perturb("a=10 b=29"), "a=10 b=20");
        assert_ne!(perturb("x=5"), "x=5");
    }
}
