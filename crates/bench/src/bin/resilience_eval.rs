//! **Resilience evaluation**: sweep a deterministic fault plan over the
//! executor continuum and show that ClosureX *self-heals* — detecting
//! corrupted restores, quarantining inputs, respawning from the pristine
//! template, and degrading to fork-per-exec when the substrate stays
//! hostile — while naive persistence silently accumulates false crashes.
//!
//! Injected faults (see `vmos::fault`): malloc-null, fopen-fail,
//! fork-fail, post-restore global-section bit flips, and fd-table leaks,
//! each fired with the same per-roll probability. Writes
//! `results/resilience_eval.json`.

use aflrs::{Campaign, CampaignConfig, CampaignResult};
use bench::{budget, Mechanism};
use closurex::executor::Executor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::naive::NaivePersistentExecutor;
use serde::Serialize;
use vmos::FaultPlan;

/// Per-roll fault probabilities swept (0.0 = control).
const RATES: [f64; 4] = [0.0, 0.001, 0.005, 0.02];

/// One plain (uncheckpointed, unkillable) campaign through the builder.
fn run(ex: &mut dyn Executor, seeds: &[Vec<u8>], cfg: &CampaignConfig) -> CampaignResult {
    Campaign::new(seeds, cfg)
        .executor(ex)
        .run()
        .expect("plain campaign config is always valid")
        .finished()
        .expect("no kill configured")
}

#[derive(Serialize)]
struct Row {
    target: String,
    mechanism: String,
    fault_rate: f64,
    /// Trial ran to budget without panicking the host.
    completed: bool,
    execs: u64,
    clock_cycles: u64,
    crashes: usize,
    /// Resource-exhaustion crashes — false positives under persistence.
    false_crashes: usize,
    respawns: u64,
    divergences: u64,
    integrity_checks: u64,
    quarantined: u64,
    /// Quarantined inputs evicted past the ring cap (retained set is a
    /// sample when nonzero).
    quarantine_dropped: u64,
    harness_faults: u64,
    retries: u64,
    dropped_inputs: u64,
    watchdog_trips: u64,
    degradation: String,
}

fn run_cell(target: &targets::TargetSpec, mech: Mechanism, rate: f64, budget: u64) -> Row {
    let cfg = CampaignConfig {
        budget_cycles: budget,
        seed: 0xFA017,
        deterministic_stage: false,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    };
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ex = mech.executor(target);
        ex.inject_faults(FaultPlan::uniform(0xDEAD ^ rate.to_bits(), rate));
        let seeds = (target.seeds)();
        run(ex.as_mut(), &seeds, &cfg)
    }));
    match out {
        Ok(r) => Row {
            target: target.name.to_string(),
            mechanism: mech.name().to_string(),
            fault_rate: rate,
            completed: r.clock_cycles >= budget
                || !r.crashes.is_empty()
                || r.execs > 0 && r.resilience.dropped_inputs == 0,
            execs: r.execs,
            clock_cycles: r.clock_cycles,
            crashes: r.crashes.len(),
            false_crashes: r.false_crashes(),
            respawns: r.resilience.executor.respawns,
            divergences: r.resilience.executor.divergences,
            integrity_checks: r.resilience.executor.integrity_checks,
            quarantined: r.resilience.executor.quarantined,
            quarantine_dropped: r.resilience.executor.quarantine_dropped,
            harness_faults: r.resilience.harness_faults,
            retries: r.resilience.retries,
            dropped_inputs: r.resilience.dropped_inputs,
            watchdog_trips: r.resilience.watchdog_trips,
            degradation: r.resilience.degradation().name().to_string(),
        },
        Err(_) => Row {
            target: target.name.to_string(),
            mechanism: mech.name().to_string(),
            fault_rate: rate,
            completed: false,
            execs: 0,
            clock_cycles: 0,
            crashes: 0,
            false_crashes: 0,
            respawns: 0,
            divergences: 0,
            integrity_checks: 0,
            quarantined: 0,
            quarantine_dropped: 0,
            harness_faults: 0,
            retries: 0,
            dropped_inputs: 0,
            watchdog_trips: 0,
            degradation: "panicked".into(),
        },
    }
}

/// A target that never crashes on its own: every crash recorded against it
/// is the harness's fault, making leak accumulation cleanly measurable.
const QUIET_TARGET: &str = r#"
    fn main() {
        var f = fopen("/fuzz/input", 0);
        if (f == 0) { exit(1); }
        var buf[16];
        var n = fread(buf, 1, 16, f);
        fclose(f);
        if (n > 8) { return 1; }
        return 0;
    }
"#;

/// Descriptor-leak stress: only `fclose` misbehaves, at a rate high enough
/// to exhaust the fd table within one campaign. Naive persistence marches
/// into `FdExhaustion` false crashes; ClosureX's fd census flags the leaked
/// slot as a restore divergence and respawns before the limit is near.
fn run_leak_stress(budget: u64) -> Vec<Row> {
    let m = minic::compile("quiet", QUIET_TARGET).expect("quiet target compiles");
    let plan = FaultPlan {
        seed: 0xFD,
        fd_leak: 0.25,
        ..FaultPlan::none()
    };
    let cfg = CampaignConfig {
        budget_cycles: budget,
        seed: 0xFA017,
        deterministic_stage: false,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    };
    let seeds = vec![b"stress".to_vec()];
    let mut rows = Vec::new();
    let mut executors: Vec<(&str, Box<dyn Executor>)> = vec![
        (
            Mechanism::ClosureX.name(),
            Box::new(ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument")),
        ),
        (
            Mechanism::NaivePersistent.name(),
            Box::new(NaivePersistentExecutor::new(&m).expect("instrument")),
        ),
    ];
    for (label, ex) in &mut executors {
        ex.inject_faults(plan.clone());
        let r = run(ex.as_mut(), &seeds, &cfg);
        let false_hits: u64 = r
            .crashes
            .iter()
            .filter(|c| c.crash.kind.is_resource_exhaustion())
            .map(|c| c.hits)
            .sum();
        eprintln!(
            "  fd-leak stress / {}: execs={} false_crash_hits={false_hits} \
             divergences={} respawns={} degr={}",
            r.executor,
            r.execs,
            r.resilience.executor.divergences,
            r.resilience.executor.respawns,
            r.resilience.degradation().name()
        );
        rows.push(Row {
            target: "quiet (fd-leak stress)".into(),
            mechanism: label.to_string(),
            fault_rate: plan.fd_leak,
            completed: r.clock_cycles >= budget,
            execs: r.execs,
            clock_cycles: r.clock_cycles,
            crashes: r.crashes.len(),
            false_crashes: r.false_crashes().max(false_hits as usize),
            respawns: r.resilience.executor.respawns,
            divergences: r.resilience.executor.divergences,
            integrity_checks: r.resilience.executor.integrity_checks,
            quarantined: r.resilience.executor.quarantined,
            quarantine_dropped: r.resilience.executor.quarantine_dropped,
            harness_faults: r.resilience.harness_faults,
            retries: r.resilience.retries,
            dropped_inputs: r.resilience.dropped_inputs,
            watchdog_trips: r.resilience.watchdog_trips,
            degradation: r.resilience.degradation().name().to_string(),
        });
    }
    rows
}

fn main() {
    let budget = budget();
    println!("Resilience evaluation: fault-injection sweep (budget = {budget} cycles)\n");
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Vec::new();
    // The sweep grid is embarrassingly parallel: every cell builds its own
    // executor and fault plane from (target, mechanism, rate) alone. Fan the
    // cells out across threads and join in spawn order so rows, the table,
    // and the JSON report come back in the same order as the serial loop.
    let cells: Vec<(&targets::TargetSpec, Mechanism, f64)> = targets::all()
        .into_iter()
        .take(3)
        .flat_map(|t| {
            RATES.iter().flat_map(move |&rate| {
                [Mechanism::ClosureX, Mechanism::NaivePersistent]
                    .into_iter()
                    .map(move |mech| (t, mech, rate))
            })
        })
        .collect();
    let cell_rows: Vec<Row> = std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .iter()
            .map(|&(t, mech, rate)| s.spawn(move || run_cell(t, mech, rate, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run_cell catches target panics itself"))
            .collect()
    });
    for row in cell_rows {
        eprintln!(
            "  {} / {} @ {}: execs={} respawns={} divergences={} \
             false_crashes={} faults={} degr={}",
            row.target,
            row.mechanism,
            row.fault_rate,
            row.execs,
            row.respawns,
            row.divergences,
            row.false_crashes,
            row.harness_faults,
            row.degradation
        );
        table.push(vec![
            row.target.clone(),
            row.mechanism.clone(),
            format!("{}", row.fault_rate),
            row.execs.to_string(),
            row.respawns.to_string(),
            row.divergences.to_string(),
            format!("{} (-{})", row.quarantined, row.quarantine_dropped),
            row.false_crashes.to_string(),
            row.degradation.clone(),
        ]);
        rows.push(row);
    }
    for row in run_leak_stress(budget) {
        table.push(vec![
            row.target.clone(),
            row.mechanism.clone(),
            format!("{}", row.fault_rate),
            row.execs.to_string(),
            row.respawns.to_string(),
            row.divergences.to_string(),
            format!("{} (-{})", row.quarantined, row.quarantine_dropped),
            row.false_crashes.to_string(),
            row.degradation.clone(),
        ]);
        rows.push(row);
    }
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Target",
                "Mechanism",
                "Fault rate",
                "Execs",
                "Respawns",
                "Divergences",
                "Quarantined (evicted)",
                "False crashes",
                "Degradation",
            ],
            &table
        )
    );

    // Headline: under injected faults ClosureX keeps executing (and heals
    // via respawns) while naive persistence pollutes its crash buckets.
    fn faulted<'a>(rows: &'a [Row], m: &'a str) -> impl Iterator<Item = &'a Row> {
        rows.iter()
            .filter(move |r| r.mechanism == m && r.fault_rate > 0.0)
    }
    let cx_respawns: u64 = faulted(&rows, "ClosureX").map(|r| r.respawns).sum();
    let cx_completed = faulted(&rows, "ClosureX").all(|r| r.completed);
    let naive_false: usize = faulted(&rows, "naive-persistent")
        .map(|r| r.false_crashes)
        .sum();
    let naive_dead = faulted(&rows, "naive-persistent")
        .filter(|r| !r.completed)
        .count();
    println!(
        "\nClosureX under faults: all trials completed = {cx_completed}, \
         total respawns = {cx_respawns}."
    );
    println!(
        "Naive persistence under faults: {naive_false} false crashes, \
         {naive_dead} trials failed to complete."
    );
    bench::write_report("resilience_eval", &rows).expect("report written");
}
