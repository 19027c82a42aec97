//! Regenerates the paper's **execution-mechanism continuum figure**
//! (Fig. 1/2): per-test-case cost decomposition for all four mechanisms on
//! one target — where the time goes and why ClosureX wins.

use bench::Mechanism;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mechanism: String,
    exec_cycles: f64,
    mgmt_cycles: f64,
    total_cycles: f64,
    mgmt_fraction: f64,
}

fn main() {
    let t = targets::by_name("giftext").expect("registered");
    let seed = (t.seeds)()[0].clone();
    println!(
        "Figure (continuum): per-test-case cost on '{}' (100-exec average)\n",
        t.name
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for m in [
        Mechanism::Fresh,
        Mechanism::ForkServer,
        Mechanism::NaivePersistent,
        Mechanism::ClosureX,
    ] {
        let mut ex = m.executor(t);
        let (mut exec, mut mgmt) = (0u64, 0u64);
        for _ in 0..100 {
            let out = ex.run(&seed);
            exec += out.exec_cycles;
            mgmt += out.mgmt_cycles;
        }
        let (e, g) = (exec as f64 / 100.0, mgmt as f64 / 100.0);
        rows.push(vec![
            m.name().to_string(),
            format!("{e:.0}"),
            format!("{g:.0}"),
            format!("{:.0}", e + g),
            format!("{:.1}%", g / (e + g) * 100.0),
        ]);
        json.push(Row {
            mechanism: m.name().to_string(),
            exec_cycles: e,
            mgmt_cycles: g,
            total_cycles: e + g,
            mgmt_fraction: g / (e + g),
        });
    }
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Mechanism",
                "target exec",
                "process mgmt / restore",
                "total",
                "mgmt share"
            ],
            &rows
        )
    );
    println!("\nShape check: fresh >> forkserver >> ClosureX ≈ naive-persistent (+ restore).");
    bench::write_report("fig_continuum", &json).expect("report written");
}
