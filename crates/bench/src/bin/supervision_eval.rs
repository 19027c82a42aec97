//! **Lane-supervision evaluation**: prove that the sharded campaign
//! survives injected orchestration faults — worker panics, lane hangs,
//! barrier-timeout handoffs — at *every* `(lane, epoch)` grid position,
//! recovering to a `CampaignResult` bit-identical to the unfaulted run
//! outside the supervision report, and measure what recovery costs in
//! host wall clock.
//!
//! Scenarios per target:
//!
//! 1. **Fault grid** — one campaign per `(kind, lane, epoch)` cell (the
//!    full grid in full mode, the lane-diagonal in `--smoke`), each
//!    compared against the unfaulted baseline via
//!    `CampaignResult::sans_supervision`. Any divergence fails the run
//!    outright.
//! 2. **Barrier timeout** — the third fault kind, one cell.
//! 3. **Repeated-failure degradation** — a lane that faults past its
//!    retry budget must be retired with a typed `LaneDegradation` (budget
//!    folded into the survivors) while the campaign still finishes.
//!
//! Writes `results/BENCH_supervision.json`
//! (`results/BENCH_supervision_smoke.json` under `--smoke`, so the CI
//! gate never clobbers the blessed full-run report). In smoke mode the
//! mean recovery-overhead ratio (faulted wall clock over baseline wall
//! clock) is gated against the checked-in floor
//! (`results/BENCH_supervision_floor.json`): exceeding twice the floor
//! exits nonzero, as does any non-identical recovery.

use aflrs::{Campaign, CampaignConfig, CampaignResult, SupervisorConfig};
use bench::{floor, Mechanism, MechanismFactory};
use serde::Serialize;
use std::time::Instant;
use vmos::{OrchFaultKind, OrchFaultPlan, PlanKind};

/// Smoke-mode per-campaign cycle budget. The grid multiplies campaigns,
/// so each one stays small.
const SMOKE_BUDGET: u64 = 8_000_000;

/// Grid dimensions: lanes × epochs per target. Smaller than the campaign
/// defaults so the full grid (both fault kinds at every cell) stays
/// tractable.
const LANES: usize = 4;
const EPOCHS: u64 = 4;

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
    /// The campaign still finished with the remaining lanes.
    finished: bool,
}

#[derive(Serialize)]
struct Aggregate {
    baseline_wall_secs: f64,
    mean_faulted_wall_secs: f64,
    /// Mean faulted wall clock over baseline wall clock: what one
    /// contained fault + lane rebuild + epoch re-run costs end to end.
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
    max_lane_retries: u32,
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
        seed: 0x5AADED,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn run_supervised(
    factory: &MechanismFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    sup: Option<SupervisorConfig>,
) -> CampaignResult {
    let mut c = Campaign::new(seeds, cfg)
        .factory(factory)
        .lanes(LANES)
        .sync_epochs(EPOCHS)
        .shards(2);
    if let Some(sup) = sup {
        c = c.supervision(sup);
    }
    c.run()
        .expect("supervised campaign survives injected faults")
        .finished()
        .expect("no kill configured")
}

fn plan_for(lane: u64, epoch: u64, kind: OrchFaultKind) -> SupervisorConfig {
    SupervisorConfig {
        faults: OrchFaultPlan::at((lane, epoch), kind),
        ..SupervisorConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let mode = if smoke { "smoke" } else { "full" };
    let target_names: &[&str] = if smoke {
        &["giftext"]
    } else {
        &["giftext", "gpmf-parser"]
    };
    println!(
        "supervision_eval ({mode}): budget = {budget} cycles/campaign, \
         grid = {LANES} lanes x {EPOCHS} epochs\n"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut degradations: Vec<DegradationTrial> = Vec::new();
    let mut all_identical = true;
    let mut baseline_secs = 0.0f64;
    let mut faulted_secs = 0.0f64;
    let mut faulted_runs = 0usize;

    for name in target_names {
        let t = targets::by_name(name).expect("bundled target");
        let cfg = campaign_cfg(budget);
        let seeds = (t.seeds)();
        let factory = MechanismFactory::new(Mechanism::ClosureX, t);

        // Untimed warm-up: decode caches and thread pools settle before
        // anything is on the clock.
        let _ = run_supervised(&factory, &seeds, &cfg, None);

        let start = Instant::now();
        let clean = run_supervised(&factory, &seeds, &cfg, None);
        let clean_secs = start.elapsed().as_secs_f64();
        baseline_secs += clean_secs;
        assert!(
            clean.resilience.supervision.is_quiet(),
            "unfaulted run must report no supervision activity"
        );
        let want = fingerprint(&clean);
        eprintln!(
            "  {name} / baseline: {} execs in {clean_secs:.2}s",
            clean.execs
        );

        // The fault grid: kill or hang every lane at every epoch. Smoke
        // runs the lane diagonal (still touches every lane and epoch).
        let mut cells: Vec<(OrchFaultKind, u64, u64)> = Vec::new();
        for kind in [OrchFaultKind::WorkerPanic, OrchFaultKind::LaneHang] {
            for lane in 0..LANES as u64 {
                for epoch in 0..EPOCHS {
                    if smoke && lane != epoch {
                        continue;
                    }
                    cells.push((kind, lane, epoch));
                }
            }
        }
        cells.push((OrchFaultKind::BarrierTimeout, 1, EPOCHS - 1));

        for (kind, lane, epoch) in cells {
            let start = Instant::now();
            let r = run_supervised(&factory, &seeds, &cfg, Some(plan_for(lane, epoch, kind)));
            let secs = start.elapsed().as_secs_f64();
            faulted_secs += secs;
            faulted_runs += 1;
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

        // Repeated-failure degradation: fault one lane past its retry
        // budget; the lane retires, the campaign finishes.
        let mut faults = OrchFaultPlan::at((2, 1), OrchFaultKind::WorkerPanic);
        faults.targeted[0].fires = 10;
        let sup = SupervisorConfig {
            max_lane_retries: 2,
            faults,
            ..SupervisorConfig::default()
        };
        let r = run_supervised(&factory, &seeds, &cfg, Some(sup));
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
    let mean_baseline = baseline_secs / target_names.len() as f64;
    let overhead = mean_faulted / mean_baseline.max(1e-9);
    let agg = Aggregate {
        baseline_wall_secs: baseline_secs,
        mean_faulted_wall_secs: mean_faulted,
        recovery_overhead_ratio: overhead,
        grid_cells: rows.len(),
        all_identical,
    };
    println!(
        "\nAggregate: {} grid cells, baseline {:.2}s, mean faulted campaign {:.2}s \
         (recovery overhead {:.2}x), all identical = {}",
        agg.grid_cells, mean_baseline, agg.mean_faulted_wall_secs, agg.recovery_overhead_ratio,
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

    let report_name = if smoke {
        "BENCH_supervision_smoke"
    } else {
        "BENCH_supervision"
    };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            budget_cycles: budget,
            lanes: LANES,
            sync_epochs: EPOCHS,
            max_lane_retries: SupervisorConfig::default().max_lane_retries,
            rows,
            degradations,
            aggregate: agg,
        },
    );

    if !all_identical {
        eprintln!("FAIL: a supervised recovery diverged from the unfaulted baseline");
        std::process::exit(1);
    }

    if smoke {
        // Regression gate: recovery overhead against the checked-in floor.
        // A faulted campaign re-runs one epoch, so some overhead is
        // structural; the gate catches recovery suddenly re-running far
        // more than it should (tolerance 2x — wall clock is noisy and the
        // numerator is a single-campaign mean).
        let floor = floor("results/BENCH_supervision_floor.json", "smoke_recovery_overhead_ratio");
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
