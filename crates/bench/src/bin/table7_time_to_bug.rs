//! Regenerates **Table 7**: time-to-bug and trial-consistency for every
//! planted bug, ClosureX vs AFL++ forkserver.

use bench::{budget, run_trials, Mechanism};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    bug_id: String,
    bug_type: String,
    cve: Option<String>,
    closurex_time_s: Option<f64>,
    closurex_trials: usize,
    aflpp_time_s: Option<f64>,
    aflpp_trials: usize,
}

fn cell(time: Option<f64>, trials: usize) -> String {
    match time {
        Some(t) => format!("{t:.1} ({trials})"),
        None => "— (0)".to_string(),
    }
}

fn main() {
    let budget = budget() * 4; // bug hunting needs longer trials
    println!("Table 7: time to find bugs in seconds (count of trials that found it), budget = {budget} cycles\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut cx_wins = 0usize;
    let mut comparisons = 0usize;
    for t in targets::all().into_iter().filter(|t| !t.bugs.is_empty()) {
        let cx = run_trials(t, Mechanism::ClosureX, budget);
        let afl = run_trials(t, Mechanism::ForkServer, budget);
        for bug in t.bugs {
            let collect = |results: &[aflrs::CampaignResult]| {
                let times: Vec<f64> = results
                    .iter()
                    .filter_map(|r| {
                        r.crashes
                            .iter()
                            .find(|c| t.identify(&c.crash).map(|b| b.id) == Some(bug.id))
                            .map(|c| c.found_at_cycles as f64 / aflrs::CYCLES_PER_SECOND as f64)
                    })
                    .collect();
                let avg = if times.is_empty() {
                    None
                } else {
                    Some(times.iter().sum::<f64>() / times.len() as f64)
                };
                (avg, times.len())
            };
            let (cx_t, cx_n) = collect(&cx);
            let (afl_t, afl_n) = collect(&afl);
            if let (Some(a), Some(b)) = (cx_t, afl_t) {
                comparisons += 1;
                if a <= b {
                    cx_wins += 1;
                }
            }
            rows.push(vec![
                t.name.to_string(),
                cell(cx_t, cx_n),
                cell(afl_t, afl_n),
                bug.kind.bug_type_name().to_string(),
            ]);
            json.push(Row {
                benchmark: t.name.to_string(),
                bug_id: bug.id.to_string(),
                bug_type: bug.kind.bug_type_name().to_string(),
                cve: bug.cve.map(str::to_string),
                closurex_time_s: cx_t,
                closurex_trials: cx_n,
                aflpp_time_s: afl_t,
                aflpp_trials: afl_n,
            });
        }
        eprintln!("  {} done", t.name);
    }
    print!(
        "{}",
        bench::markdown_table(&["Benchmark", "CLOSUREX", "AFL++", "Bug Type"], &rows)
    );
    let cx_total: usize = json.iter().map(|r| r.closurex_trials).sum();
    let afl_total: usize = json.iter().map(|r| r.aflpp_trials).sum();
    println!(
        "\nClosureX found bugs in {cx_total} trials vs AFL++ {afl_total} ({}% more).",
        if afl_total > 0 {
            (cx_total as i64 - afl_total as i64) * 100 / afl_total as i64
        } else {
            0
        }
    );
    println!("Head-to-head wins where both found the bug: {cx_wins}/{comparisons}.");
    println!("Paper: 15 0-days (4 CVEs), ClosureX 1.9x faster, 25% more finding trials.");
    bench::write_report("table7_time_to_bug", &json).expect("report written");
}
