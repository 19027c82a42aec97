//! Regenerates the paper's **§3 motivation**: naive persistent fuzzing is
//! semantically inconsistent. Every crash a campaign reports is re-executed
//! in a fresh process; crashes that do not reproduce are *false crashes*
//! caused by residual state from earlier test cases.

use bench::{budget, run_trials, Mechanism};
use closurex::executor::Executor;
use closurex::fresh::FreshProcessExecutor;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    mechanism: String,
    execs: u64,
    confirmed_crash_sites: usize,
    false_crash_sites: usize,
}

fn main() {
    println!("Motivation: semantic inconsistency of naive persistent mode");
    println!("(a crash is FALSE if its input does not crash a fresh process)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for name in ["gpmf-parser", "giftext", "libbpf", "c-blosc2"] {
        let t = targets::by_name(name).expect("registered");
        let module = t.module();
        for m in [Mechanism::NaivePersistent, Mechanism::ClosureX] {
            let results = run_trials(t, m, budget());
            let execs: u64 = results.iter().map(|r| r.execs).sum::<u64>() / results.len() as u64;
            let mut confirmed = std::collections::HashSet::new();
            let mut false_sites = std::collections::HashSet::new();
            let mut fresh = FreshProcessExecutor::new(&module).expect("instrument");
            for r in &results {
                for c in &r.crashes {
                    let replay = fresh.run(&c.input);
                    match replay.status.crash() {
                        Some(rc) if rc.site_key() == c.crash.site_key() => {
                            confirmed.insert(c.crash.site_key());
                        }
                        _ => {
                            false_sites.insert(c.crash.site_key());
                        }
                    }
                }
            }
            rows.push(vec![
                t.name.to_string(),
                m.name().to_string(),
                format!("{execs}"),
                format!("{}", confirmed.len()),
                format!("{}", false_sites.len()),
            ]);
            json.push(Row {
                benchmark: t.name.to_string(),
                mechanism: m.name().to_string(),
                execs,
                confirmed_crash_sites: confirmed.len(),
                false_crash_sites: false_sites.len(),
            });
        }
        eprintln!("  {name} done");
    }
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Benchmark",
                "Mechanism",
                "execs/trial",
                "confirmed crash sites",
                "FALSE crash sites"
            ],
            &rows
        )
    );
    println!("\nNaive persistent mode reports crashes that vanish on re-execution (wasted");
    println!("triage) — fd starvation, heap exhaustion, stale flags. Every ClosureX crash");
    println!("reproduces, because every test case ran from fresh-equivalent state.");
    bench::write_report("motivation_stale_state", &json).expect("report written");
}
