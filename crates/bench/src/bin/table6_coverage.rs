//! Regenerates **Table 6**: edge coverage after the budget, ClosureX vs
//! AFL++ forkserver, with % improvement and Mann-Whitney p.

use bench::{budget, mean, p_value, run_trials, total_cfg_edges, Mechanism};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    closurex_cov_pct: f64,
    aflpp_cov_pct: f64,
    improvement_pct: f64,
    p_value: f64,
}

fn main() {
    let budget = budget();
    println!("Table 6: edge coverage percentage (budget = {budget} cycles, 5 trials)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut improvements = Vec::new();
    for t in targets::all() {
        let denom = total_cfg_edges(t) as f64;
        let cx = run_trials(t, Mechanism::ClosureX, budget);
        let afl = run_trials(t, Mechanism::ForkServer, budget);
        let cov = |rs: &[aflrs::CampaignResult]| {
            mean(
                &rs.iter()
                    .map(|r| r.edges_found as f64 / denom * 100.0)
                    .collect::<Vec<_>>(),
            )
        };
        let c = cov(&cx);
        let a = cov(&afl);
        let imp = if a > 0.0 { (c - a) / a * 100.0 } else { 0.0 };
        let p = p_value(&cx, &afl, |r| r.edges_found as f64);
        improvements.push(imp);
        rows.push(vec![
            t.name.to_string(),
            format!("{c:.2}%"),
            format!("{a:.2}%"),
            format!("{imp:.2}"),
            format!("{p:.3}"),
        ]);
        json.push(Row {
            benchmark: t.name.to_string(),
            closurex_cov_pct: c,
            aflpp_cov_pct: a,
            improvement_pct: imp,
            p_value: p,
        });
        eprintln!("  {} done (+{imp:.1}%)", t.name);
    }
    let avg: f64 = improvements.iter().sum::<f64>() / improvements.len() as f64;
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
            &["Benchmark", "CLOSUREX", "AFL++", "% Improvement", "p value"],
            &rows
        )
    );
    println!("\nPaper: average +7.8%, significant on 5/10 benchmarks.");
    bench::write_report("table6_coverage", &json).expect("report written");
}
