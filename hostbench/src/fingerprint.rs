//! Virtual-result fingerprints.
//!
//! A fingerprint is one canonical line of `key=value` fields holding
//! every virtual result a workload pass produces. Host-side changes must
//! leave it byte-identical: a pass whose fingerprint differs from the
//! reference counts all its operations as failed.
//!
//! References come from `pinned.txt` (one line per workload and seed)
//! when the seed is pinned there, and otherwise from the run itself:
//! every pass must then match the run's first pass, and the traced run
//! also compares `workers = 1` against `workers = 2`.

use elzar_fault::CampaignResult;
use elzar_serve::{Category, ServeReport};

/// The pinned fingerprints, `<workload> <seed> <fingerprint>` per line.
const PINNED: &str = include_str!("../pinned.txt");

/// The canonical virtual-result line of one serve call.
pub fn serve(r: &ServeReport) -> String {
    let o = r.outcomes;
    let mut s = format!(
        "digest={:#018x} served={} rejected={} shed={} injected={} outcomes={}/{}/{}/{}/{} \
         p50={} p99={} p999={} restarts={} snapshots={} promotions={} batches={} \
         scale_ups={} scale_downs={} migration_replays={} makespan={}",
        r.table_digest,
        r.served,
        r.rejected,
        r.shed,
        r.injected,
        o[0],
        o[1],
        o[2],
        o[3],
        o[4],
        r.quantile_cycles(0.50),
        r.quantile_cycles(0.99),
        r.quantile_cycles(0.999),
        r.restarts,
        r.snapshots,
        r.promotions,
        r.batches,
        r.scale_ups,
        r.scale_downs,
        r.migration_replays,
        r.makespan_cycles,
    );
    for c in Category::ALL {
        s.push_str(&format!(" ledger.{}={}", c.label(), r.ledger.get(c)));
    }
    s
}

/// The canonical virtual-result line of one campaign pass: per build,
/// the outcome histogram (Table I order), eligible instructions and
/// golden cycles.
pub fn campaign(results: &[(String, CampaignResult)]) -> String {
    let fields: Vec<String> = results
        .iter()
        .map(|(label, r)| {
            let c = r.counts;
            format!("{label}={}/{}/{}/{}/{}/{}/{}", c[0], c[1], c[2], c[3], c[4], r.eligible, r.golden_cycles)
        })
        .collect();
    fields.join(" ")
}

/// The pinned fingerprint of `workload` at `seed`, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<String> {
    pinned_in(PINNED, workload, seed)
}

fn pinned_in(text: &str, workload: &str, seed: u64) -> Option<String> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut parts = l.splitn(3, ' ');
        let (w, s, fp) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then(|| fp.to_string())
    })
}

/// The fields on which `got` differs from `want`, for the failure
/// message.
pub fn diff(want: &str, got: &str) -> String {
    let w: Vec<&str> = want.split(' ').collect();
    let g: Vec<&str> = got.split(' ').collect();
    if w.len() != g.len() {
        return format!("field count {} != {}", g.len(), w.len());
    }
    let d: Vec<String> =
        w.iter().zip(&g).filter(|(a, b)| a != b).map(|(a, b)| format!("got {b}, want {a}")).collect();
    d.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_lines_are_found_by_workload_and_seed() {
        let text = "# comment\nw 1 a=1 b=2\nw 2 a=3 b=4\nv 1 a=5\n";
        assert_eq!(pinned_in(text, "w", 2).as_deref(), Some("a=3 b=4"));
        assert_eq!(pinned_in(text, "v", 1).as_deref(), Some("a=5"));
        assert_eq!(pinned_in(text, "v", 2), None);
    }

    #[test]
    fn diff_names_the_changed_field() {
        assert_eq!(diff("a=1 b=2", "a=1 b=3"), "got b=3, want b=2");
    }
}
