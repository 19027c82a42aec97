//! **Process-isolation evaluation**: prove that lane-per-process
//! campaigns (`Isolation::Process`) reproduce the in-process engine's
//! results bit-identically, and that a worker process dying in *any* ugly
//! way — `abort()`, an OOM-kill exit, a wedged stall, a corrupted frame on
//! the protocol pipe — at any `(lane, epoch)` grid position is contained,
//! recovered, and erased from the campaign result.
//!
//! Scenarios per target:
//!
//! 1. **Engine identity** — the unfaulted process-mode campaign must match
//!    the in-process campaign exactly (via
//!    `CampaignResult::sans_supervision`); this is the tentpole's
//!    acceptance gate.
//! 2. **Fault grid** — one campaign per `(kind, lane, epoch)` cell over
//!    the four process-fault kinds (the full grid in full mode, the lane
//!    diagonal in `--smoke`), each compared against the unfaulted
//!    baseline. Any divergence fails the run outright.
//! 3. **Repeated-failure degradation** — a worker that keeps aborting
//!    past its respawn budget must be retired with a typed
//!    `LaneDegradation` while the campaign still finishes.
//!
//! Writes `results/BENCH_proc.json` (`results/BENCH_proc_smoke.json`
//! under `--smoke`). In smoke mode the mean recovery-overhead ratio is
//! gated against the checked-in floor (`results/BENCH_proc_floor.json`):
//! exceeding twice the floor exits nonzero, as does any non-identical
//! recovery.

use aflrs::{Campaign, CampaignConfig, CampaignResult, Isolation, SupervisorConfig};
use bench::{floor, Mechanism, MechanismFactory};
use serde::Serialize;
use std::time::Instant;
use vmos::{PlanKind, ProcFaultKind, ProcFaultPlan};

/// Smoke-mode per-campaign cycle budget. The grid multiplies campaigns,
/// so each one stays small.
const SMOKE_BUDGET: u64 = 6_000_000;

/// Grid dimensions: lanes × epochs per target.
const LANES: usize = 4;
const EPOCHS: u64 = 4;

/// The supervisor's pipe-read deadline. Stall cells cost exactly this
/// much wall clock, so the eval tightens it well below the production
/// default while staying far above a legitimate epoch's compute time.
const SMOKE_DEADLINE_MS: u64 = 2_000;
const FULL_DEADLINE_MS: u64 = 8_000;

#[derive(Serialize)]
struct Row {
    target: String,
    fault: String,
    lane: u64,
    epoch: u64,
    wall_secs: f64,
    faults_contained: u64,
    recovered: u64,
    /// The gate: identical to the unfaulted baseline outside the
    /// supervision report.
    identical: bool,
}

#[derive(Serialize)]
struct DegradationTrial {
    target: String,
    lane: u64,
    epoch: u64,
    attempts: u64,
    reclaimed_cycles: u64,
    last_fault: String,
    finished: bool,
}

#[derive(Serialize)]
struct Aggregate {
    inproc_wall_secs: f64,
    proc_wall_secs: f64,
    /// Clean process-mode wall clock over clean in-process wall clock:
    /// what per-lane processes + the wire protocol cost with no faults.
    isolation_overhead_ratio: f64,
    mean_faulted_wall_secs: f64,
    /// Mean faulted wall clock over the clean process-mode wall clock,
    /// **excluding stall cells** — a stalled worker costs exactly the
    /// read deadline by construction, so folding it in would make the
    /// ratio measure the deadline constant, not recovery work.
    recovery_overhead_ratio: f64,
    grid_cells: usize,
    all_identical: bool,
}

#[derive(Serialize)]
struct Report {
    mode: String,
    budget_cycles: u64,
    lanes: usize,
    sync_epochs: u64,
    read_deadline_ms: u64,
    rows: Vec<Row>,
    degradations: Vec<DegradationTrial>,
    aggregate: Aggregate,
}

fn fingerprint(r: &CampaignResult) -> String {
    serde_json::to_string(&r.sans_supervision().sans_resume()).expect("result serializes")
}

fn campaign_cfg(budget: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles: budget,
        seed: 0x150_1A7E,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn run_one(
    factory: &MechanismFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    iso: Isolation,
    sup: Option<SupervisorConfig>,
) -> CampaignResult {
    let mut c = Campaign::new(seeds, cfg)
        .factory(factory)
        .lanes(LANES)
        .sync_epochs(EPOCHS)
        .shards(2)
        .isolation(iso);
    if let Some(sup) = sup {
        c = c.supervision(sup);
    }
    c.run()
        .expect("supervised campaign survives injected process faults")
        .finished()
        .expect("no kill configured")
}

fn plan_for(lane: u64, epoch: u64, kind: ProcFaultKind, deadline_ms: u64) -> SupervisorConfig {
    SupervisorConfig {
        proc_faults: ProcFaultPlan::at((lane, epoch), kind),
        read_deadline_ms: deadline_ms,
        ..SupervisorConfig::default()
    }
}

fn main() {
    // Hidden worker entrypoint: when the supervisor re-execs this binary
    // with `AFLRS_PROC_WORKER` set, serve the lane protocol and exit.
    aflrs::worker_main_hook(bench::factory_from_spec);

    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let deadline_ms = if smoke { SMOKE_DEADLINE_MS } else { FULL_DEADLINE_MS };
    let mode = if smoke { "smoke" } else { "full" };
    let target_names: &[&str] = if smoke {
        &["giftext"]
    } else {
        &["giftext", "gpmf-parser"]
    };
    println!(
        "proc_eval ({mode}): budget = {budget} cycles/campaign, \
         grid = {LANES} lanes x {EPOCHS} epochs, read deadline = {deadline_ms}ms\n"
    );

    let clean_sup = SupervisorConfig {
        read_deadline_ms: deadline_ms,
        ..SupervisorConfig::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut degradations: Vec<DegradationTrial> = Vec::new();
    let mut all_identical = true;
    let mut inproc_secs = 0.0f64;
    let mut proc_secs = 0.0f64;
    let mut faulted_secs = 0.0f64;
    let mut faulted_runs = 0usize;

    for name in target_names {
        let t = targets::by_name(name).expect("bundled target");
        let cfg = campaign_cfg(budget);
        let seeds = (t.seeds)();
        let factory = MechanismFactory::new(Mechanism::ClosureX, t);

        // Engine identity: the tentpole gate. Untimed in-process warm-up
        // settles decode caches before anything is on the clock.
        let _ = run_one(&factory, &seeds, &cfg, Isolation::InProcess, None);
        let start = Instant::now();
        let inproc = run_one(&factory, &seeds, &cfg, Isolation::InProcess, None);
        let in_secs = start.elapsed().as_secs_f64();
        inproc_secs += in_secs;
        let start = Instant::now();
        let clean = run_one(
            &factory,
            &seeds,
            &cfg,
            Isolation::Process,
            Some(clean_sup.clone()),
        );
        let clean_secs = start.elapsed().as_secs_f64();
        proc_secs += clean_secs;
        let want = fingerprint(&clean);
        if fingerprint(&inproc) != want {
            all_identical = false;
            eprintln!("ENGINE DIVERGENCE: {name}: process-mode result differs from in-process");
        }
        assert!(
            clean.resilience.supervision.is_quiet(),
            "unfaulted process-mode run must report no supervision activity"
        );
        eprintln!(
            "  {name} / baseline: {} execs, in-process {in_secs:.2}s, process {clean_secs:.2}s",
            clean.execs
        );

        // The fault grid: every ugly worker death at every cell. Smoke
        // runs the lane diagonal (still touches every lane and epoch).
        let mut cells: Vec<(ProcFaultKind, u64, u64)> = Vec::new();
        for kind in [
            ProcFaultKind::Abort,
            ProcFaultKind::Oom,
            ProcFaultKind::Stall,
            ProcFaultKind::GarbageFrame,
        ] {
            for lane in 0..LANES as u64 {
                for epoch in 0..EPOCHS {
                    if smoke && lane != epoch {
                        continue;
                    }
                    cells.push((kind, lane, epoch));
                }
            }
        }

        for (kind, lane, epoch) in cells {
            let start = Instant::now();
            let r = run_one(
                &factory,
                &seeds,
                &cfg,
                Isolation::Process,
                Some(plan_for(lane, epoch, kind, deadline_ms)),
            );
            let secs = start.elapsed().as_secs_f64();
            if kind != ProcFaultKind::Stall {
                faulted_secs += secs;
                faulted_runs += 1;
            }
            let s = &r.resilience.supervision;
            let identical = fingerprint(&r) == want && s.faults_contained() >= 1;
            if !identical {
                all_identical = false;
                eprintln!(
                    "RECOVERY DIVERGENCE: {name} {} at (lane {lane}, epoch {epoch}) did not \
                     reproduce the unfaulted result",
                    kind.name()
                );
            }
            rows.push(Row {
                target: name.to_string(),
                fault: kind.name().to_string(),
                lane,
                epoch,
                wall_secs: secs,
                faults_contained: s.faults_contained(),
                recovered: s.recovered,
                identical,
            });
        }
        eprintln!(
            "  {name} / grid: {} cells, all identical so far = {all_identical}",
            rows.iter().filter(|r| r.target == *name).count()
        );

        // Repeated-failure degradation: a worker that aborts on every
        // respawn retires its lane; the campaign finishes without it.
        let mut faults = ProcFaultPlan::at((2, 1), ProcFaultKind::Abort);
        faults.targeted[0].fires = 10;
        let sup = SupervisorConfig {
            max_lane_retries: 2,
            proc_faults: faults,
            read_deadline_ms: deadline_ms,
            ..SupervisorConfig::default()
        };
        let r = run_one(&factory, &seeds, &cfg, Isolation::Process, Some(sup));
        let degs = &r.resilience.supervision.degradations;
        let finished = r.execs > 0 && degs.len() == 1;
        if !finished {
            all_identical = false;
            eprintln!(
                "DEGRADATION FAILURE: {name}: expected exactly one retired lane, got {}",
                degs.len()
            );
        }
        for d in degs {
            eprintln!(
                "  {name} / degradation: lane {} retired at epoch {} after {} attempts \
                 ({} cycles folded forward)",
                d.lane, d.epoch, d.attempts, d.reclaimed_cycles
            );
            degradations.push(DegradationTrial {
                target: name.to_string(),
                lane: d.lane,
                epoch: d.epoch,
                attempts: d.attempts,
                reclaimed_cycles: d.reclaimed_cycles,
                last_fault: d.last_fault.clone(),
                finished,
            });
        }
    }

    let mean_faulted = faulted_secs / faulted_runs.max(1) as f64;
    let mean_clean_proc = proc_secs / target_names.len() as f64;
    let overhead = mean_faulted / mean_clean_proc.max(1e-9);
    let agg = Aggregate {
        inproc_wall_secs: inproc_secs,
        proc_wall_secs: proc_secs,
        isolation_overhead_ratio: proc_secs / inproc_secs.max(1e-9),
        mean_faulted_wall_secs: mean_faulted,
        recovery_overhead_ratio: overhead,
        grid_cells: rows.len(),
        all_identical,
    };
    println!(
        "\nAggregate: {} grid cells, clean process campaign {:.2}s ({:.2}x in-process), \
         mean faulted campaign {:.2}s (recovery overhead {:.2}x), all identical = {}",
        agg.grid_cells,
        mean_clean_proc,
        agg.isolation_overhead_ratio,
        agg.mean_faulted_wall_secs,
        agg.recovery_overhead_ratio,
        agg.all_identical
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.target.clone(),
                r.fault.clone(),
                r.lane.to_string(),
                r.epoch.to_string(),
                format!("{:.2}", r.wall_secs),
                r.faults_contained.to_string(),
                if r.identical { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(
            &["Target", "Fault", "Lane", "Epoch", "Wall (s)", "Contained", "Identical"],
            &table
        )
    );

    let report_name = if smoke { "BENCH_proc_smoke" } else { "BENCH_proc" };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            budget_cycles: budget,
            lanes: LANES,
            sync_epochs: EPOCHS,
            read_deadline_ms: deadline_ms,
            rows,
            degradations,
            aggregate: agg,
        },
    );

    if !all_identical {
        eprintln!("FAIL: a process-mode recovery diverged from the unfaulted baseline");
        std::process::exit(1);
    }

    if smoke {
        // Regression gate: recovery overhead against the checked-in floor.
        // Stall cells pay the full read deadline by construction, so some
        // overhead is structural; the gate catches recovery suddenly
        // costing far more than it should (tolerance 2x — wall clock is
        // noisy and the numerator is a single-campaign mean).
        let floor = floor("results/BENCH_proc_floor.json", "smoke_recovery_overhead_ratio");
        let max = floor * 2.0;
        if overhead > max {
            eprintln!(
                "FAIL: recovery overhead {overhead:.2}x exceeds twice the checked-in \
                 floor {floor:.2}x (maximum {max:.2}x)"
            );
            std::process::exit(1);
        }
        println!("Floor check passed: overhead {overhead:.2}x <= 2x floor {floor:.2}x.");
    }
}
