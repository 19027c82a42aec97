//! Regenerates the paper's **§6.1.4 correctness evaluation**: dataflow and
//! control-flow equivalence of ClosureX executions against fresh-process
//! ground truth, over fuzzing queues, with pollution and non-determinism
//! masking.

use bench::{budget, run_trials, Mechanism};
use closurex::correctness::check_queue;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    queue_entries: usize,
    dataflow_ok: usize,
    controlflow_ok: usize,
    heap_clean: usize,
    masked_bytes_max: usize,
    all_ok: bool,
}

fn main() {
    // Pollution count: paper uses 1000 iterations; scale via env.
    let pollution: usize = std::env::var("CLOSUREX_POLLUTION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    println!("Correctness evaluation (pollution = {pollution} prior inputs per check)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for t in targets::all() {
        // Build a queue with a short ClosureX campaign, like the paper
        // accumulating a fuzzing queue.
        let results = run_trials(t, Mechanism::ClosureX, budget() / 4);
        let mut queue = results[0].queue_inputs.clone();
        queue.truncate(12); // keep the check fast; every entry is checked
        let module = t.module();
        let report =
            check_queue(&module, &queue, pollution, 0xBEEF, 3_000_000).expect("instrumentation");
        let df = report.inputs.iter().filter(|i| i.dataflow_ok).count();
        let cf = report.inputs.iter().filter(|i| i.controlflow_ok).count();
        let hc = report.inputs.iter().filter(|i| i.heap_clean).count();
        let mm = report
            .inputs
            .iter()
            .map(|i| i.masked_bytes)
            .max()
            .unwrap_or(0);
        let ok = report.all_ok();
        rows.push(vec![
            t.name.to_string(),
            format!("{}", report.inputs.len()),
            format!("{df}/{}", report.inputs.len()),
            format!("{cf}/{}", report.inputs.len()),
            format!("{hc}/{}", report.inputs.len()),
            format!("{mm}"),
            if ok { "PASS".into() } else { "FAIL".into() },
        ]);
        json.push(Row {
            benchmark: t.name.to_string(),
            queue_entries: report.inputs.len(),
            dataflow_ok: df,
            controlflow_ok: cf,
            heap_clean: hc,
            masked_bytes_max: mm,
            all_ok: ok,
        });
        eprintln!("  {} {}", t.name, if ok { "PASS" } else { "FAIL" });
    }
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Benchmark",
                "queue",
                "dataflow",
                "control-flow",
                "heap clean",
                "masked bytes",
                "verdict"
            ],
            &rows
        )
    );
    println!("\nPaper: all targets, all queue entries equivalent to fresh-process execution.");
    bench::write_report("correctness_eval", &json).expect("report written");
}
