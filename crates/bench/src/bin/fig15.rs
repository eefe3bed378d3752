//! Figure 15: case-study throughput vs thread count, native and ELZAR,
//! with YCSB workloads A and D for the key-value store and the database.
//!
//! Apps are thread-count-agnostic, so each `(app, workload, mode)` is
//! built once and the whole thread sweep runs on the shared artifact.

#![forbid(unsafe_code)]

use elzar::{ArtifactSet, Mode};
use elzar_apps::{throughput, App, AppParams, YcsbWorkload};
use elzar_bench::{banner, run_artifact, scale_from_env, thread_sweep};

fn main() {
    banner("Figure 15", "Memcached / SQLite3 / Apache throughput (ops/s)");
    let scale = scale_from_env();
    let sweep = thread_sweep();
    let set = ArtifactSet::new();
    for app in App::all() {
        let workloads: &[YcsbWorkload] = match app {
            App::Apache => &[YcsbWorkload::A],
            _ => &[YcsbWorkload::A, YcsbWorkload::D],
        };
        for w in workloads {
            let label = match app {
                App::Apache => app.name().to_string(),
                _ => format!("{} ({})", app.name(), w.label()),
            };
            println!("--- {label} ---");
            print!("{:<10}", "threads");
            for t in &sweep {
                print!(" {:>12}", t);
            }
            println!();
            let built = app.build(&AppParams::new(scale, *w));
            let key = format!("{}-{}", app.name(), w.label());
            let mut rows = vec![];
            for mode in [Mode::Native, Mode::elzar_default()] {
                let artifact = set.get_or_build(&key, &mode, || built.module.clone());
                let mut row = vec![];
                for t in &sweep {
                    let r = run_artifact(&artifact, &built.input, *t);
                    row.push(throughput(built.ops, r.cycles));
                }
                print!("{:<10}", mode.label());
                for v in &row {
                    print!(" {:>12.0}", v);
                }
                println!();
                rows.push(row);
            }
            print!("{:<10}", "ratio");
            for (n, e) in rows[0].iter().zip(&rows[1]) {
                print!(" {:>11.0}%", e / n * 100.0);
            }
            println!();
        }
    }
    println!();
    println!("Paper shape: memcached scales and ELZAR reaches 72-85% of");
    println!("native; SQLite3 throughput falls with threads (global lock)");
    println!("and ELZAR reaches only 20-30%; Apache stays ~85% (time spent");
    println!("in unhardened libraries).");
}
