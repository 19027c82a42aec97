//! Regenerates **Table 5**: test-case execution rate, ClosureX vs the
//! AFL++ forkserver, 5 trials each, with speedup and Mann-Whitney p.

use bench::{budget, mean, p_value, run_trials, Mechanism};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    closurex_execs: f64,
    aflpp_execs: f64,
    speedup: f64,
    p_value: f64,
}

fn main() {
    let budget = budget();
    println!("Table 5: test cases executed per trial (budget = {budget} cycles, 5 trials)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut speedups = Vec::new();
    for t in targets::all() {
        let cx = run_trials(t, Mechanism::ClosureX, budget);
        let afl = run_trials(t, Mechanism::ForkServer, budget);
        let cx_execs = mean(&cx.iter().map(|r| r.execs as f64).collect::<Vec<_>>());
        let afl_execs = mean(&afl.iter().map(|r| r.execs as f64).collect::<Vec<_>>());
        let speedup = cx_execs / afl_execs.max(1.0);
        let p = p_value(&cx, &afl, |r| r.execs as f64);
        speedups.push(speedup);
        rows.push(vec![
            t.name.to_string(),
            format!("{cx_execs:.0}"),
            format!("{afl_execs:.0}"),
            format!("{speedup:.2}"),
            format!("{p:.4}"),
        ]);
        json.push(Row {
            benchmark: t.name.to_string(),
            closurex_execs: cx_execs,
            aflpp_execs: afl_execs,
            speedup,
            p_value: p,
        });
        eprintln!("  {} done (speedup {speedup:.2}x)", t.name);
    }
    let avg: f64 = speedups.iter().sum::<f64>() / speedups.len() as f64;
    rows.push(vec![
        "**Average**".into(),
        String::new(),
        String::new(),
        format!("**{avg:.2}**"),
        String::new(),
    ]);
    print!(
        "{}",
        bench::markdown_table(
            &["Benchmark", "CLOSUREX", "AFL++", "Speedup", "p value"],
            &rows
        )
    );
    println!("\nPaper: speedups 2.36–4.79x, average 3.53x, p = 0.0079 everywhere.");
    bench::write_report("table5_throughput", &json).expect("report written");
}
