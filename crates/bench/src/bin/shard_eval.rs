//! **Sharded-campaign evaluation**: prove that multi-worker sharding is a
//! *pure throughput knob* — on a fixed lane decomposition, `shards=2` and
//! `shards=4` reproduce the `shards=1` `CampaignResult` (coverage hash,
//! queue inputs, crash records, cycle accounting) byte-for-byte — and
//! measure the host-side wall-clock speedup the extra workers buy.
//!
//! Scenarios per target (giftext and gpmf-parser, one bug-free and one
//! with planted crashes so the crash-dedup merge is exercised):
//!
//! 1. **Shard sweep** — the same campaign at `shards ∈ {1, 2, 4}`; every
//!    result is fingerprinted (full JSON serialization) and must match the
//!    single-worker baseline exactly. A mismatch is a merge-protocol bug
//!    and fails the run outright.
//! 2. **Kill + resume** — a checkpointed sharded run killed mid-campaign
//!    and resumed must reproduce the uninterrupted sharded result, which
//!    in turn must match the baseline (resume is shard-count-agnostic).
//!
//! Writes `results/BENCH_shard.json` (`results/BENCH_shard_smoke.json`
//! under `--smoke`, so the CI gate never clobbers the blessed full-run
//! report). The measured 1→4-worker speedup is normalized to the best the
//! host can deliver (`min(4, cores)`); on a single-core machine the
//! metric therefore gates *overhead-neutrality* — sharding must not cost
//! wall clock — while multicore hosts gate real scaling. In smoke mode
//! that efficiency is compared against the checked-in floor
//! (`results/BENCH_shard_floor.json`); a drop of more than 40% below the
//! floor exits nonzero.

use aflrs::{Campaign, CampaignConfig, CampaignOutcome, CampaignResult, CheckpointConfig};
use bench::{floor, Mechanism, MechanismFactory};
use serde::Serialize;
use std::time::Instant;

/// Smoke-mode per-campaign cycle budget. Deliberately larger than the
/// other smoke gates: each campaign must run long enough on the host that
/// worker parallelism beats thread/merge overhead, or the scaling-
/// efficiency floor would gate on noise.
const SMOKE_BUDGET: u64 = 24_000_000;

/// Worker counts swept. Lanes stay at the default, so every count runs
/// the identical logical schedule.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Serialize)]
struct Row {
    target: String,
    shards: usize,
    wall_secs: f64,
    execs: u64,
    clock_cycles: u64,
    coverage_hash: u64,
    edges_found: usize,
    crashes: usize,
    queue_len: usize,
    /// The gate: byte-identical to the shards=1 baseline.
    identical: bool,
}

#[derive(Serialize)]
struct ResumeTrial {
    target: String,
    shards: usize,
    kill_after_execs: u64,
    snapshot_execs: u64,
    records_applied: u64,
    /// The gate: resumed result byte-identical to the baseline.
    matched: bool,
}

#[derive(Serialize)]
struct Aggregate {
    wall_secs_1_worker: f64,
    wall_secs_4_workers: f64,
    /// Wall-clock speedup of 4 workers over 1 on the same schedule.
    speedup: f64,
    /// CPUs the host actually offers this process.
    host_cores: usize,
    /// `min(4, host_cores)` — the best 4 workers could possibly do here.
    ideal_speedup: f64,
    /// `speedup / ideal_speedup` — the fraction of the *achievable* linear
    /// scaling realized. On a single-core host the ideal is 1.0 and this
    /// measures overhead-neutrality: sharding must not cost wall clock.
    scaling_efficiency: f64,
}

#[derive(Serialize)]
struct Report {
    mode: String,
    budget_cycles: u64,
    lanes: usize,
    sync_epochs: u64,
    rows: Vec<Row>,
    resume_trials: Vec<ResumeTrial>,
    aggregate: Aggregate,
}

fn fingerprint(r: &CampaignResult) -> String {
    // Strip the resume report: it describes the revival, not the outcome.
    serde_json::to_string(&r.sans_resume()).expect("result serializes")
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

/// One sharded campaign (no checkpointing) at `shards` workers.
fn run_sharded(
    factory: &MechanismFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    shards: usize,
) -> CampaignResult {
    Campaign::new(seeds, cfg)
        .factory(factory)
        .shards(shards)
        .run()
        .expect("sharded campaign runs")
        .finished()
        .expect("no kill configured")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let mode = if smoke { "smoke" } else { "full" };
    let targets: Vec<&targets::TargetSpec> = targets::all()
        .into_iter()
        .filter(|t| t.name == "giftext" || t.name == "gpmf-parser")
        .collect();
    assert!(targets.len() == 2, "expected giftext and gpmf-parser");
    println!(
        "shard_eval ({mode}): budget = {budget} cycles/campaign, lanes = {}, epochs = {}\n",
        aflrs::DEFAULT_LANES,
        aflrs::DEFAULT_SYNC_EPOCHS
    );

    let scratch = std::env::temp_dir().join(format!("closurex-shard-eval-{}", std::process::id()));
    let mut rows: Vec<Row> = Vec::new();
    let mut resume_trials: Vec<ResumeTrial> = Vec::new();
    let mut all_identical = true;
    let (mut secs_1, mut secs_4) = (0.0f64, 0.0f64);

    for t in &targets {
        let cfg = campaign_cfg(budget);
        let seeds = (t.seeds)();
        let factory = MechanismFactory::new(Mechanism::ClosureX, t);

        // Untimed warm-up: module decode caches, thread pools, CPU
        // frequency settle before anything is on the clock.
        let _ = run_sharded(&factory, &seeds, &cfg, SHARD_COUNTS[SHARD_COUNTS.len() - 1]);

        let mut baseline: Option<String> = None;
        for &shards in &SHARD_COUNTS {
            let start = Instant::now();
            let r = run_sharded(&factory, &seeds, &cfg, shards);
            let secs = start.elapsed().as_secs_f64();
            let fp = fingerprint(&r);
            let identical = match &baseline {
                None => {
                    baseline = Some(fp);
                    true
                }
                Some(want) => &fp == want,
            };
            if !identical {
                all_identical = false;
                eprintln!(
                    "SHARD DIVERGENCE: {} at shards={shards}: execs={} cycles={} cov={:#x} \
                     differs from the shards=1 baseline",
                    t.name, r.execs, r.clock_cycles, r.coverage_hash
                );
            }
            eprintln!(
                "  {} / shards={shards}: {} execs in {:.2}s ({:.0} execs/s host), identical={identical}",
                t.name,
                r.execs,
                secs,
                r.execs as f64 / secs.max(1e-9)
            );
            if shards == 1 {
                secs_1 += secs;
            }
            if shards == 4 {
                secs_4 += secs;
            }
            rows.push(Row {
                target: t.name.to_string(),
                shards,
                wall_secs: secs,
                execs: r.execs,
                clock_cycles: r.clock_cycles,
                coverage_hash: r.coverage_hash,
                edges_found: r.edges_found,
                crashes: r.crashes.len(),
                queue_len: r.queue_len,
                identical,
            });
        }

        // Kill + resume: a sharded checkpointed campaign killed roughly
        // mid-run must resume to the exact uninterrupted result.
        let want = baseline.expect("baseline recorded");
        let total_execs = rows.last().map(|r| r.execs).unwrap_or(2).max(2);
        let kill_at = total_execs / 2;
        let shards = 2;
        let dir = scratch.join(format!("resume-{}", t.name));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = CheckpointConfig::new(dir.clone());
        ck.kill_after_execs = Some(kill_at);
        let first = Campaign::new(&seeds, &cfg)
            .factory(&factory)
            .shards(shards)
            .checkpoint(ck.clone())
            .run()
            .expect("sharded checkpointed campaign runs");
        let (resumed, info) = match first {
            CampaignOutcome::Killed { .. } => {
                ck.kill_after_execs = None;
                let (out, info) = Campaign::new(&seeds, &cfg)
                    .factory(&factory)
                    .shards(shards)
                    .checkpoint(ck)
                    .resume()
                    .expect("sharded resume runs");
                (out.finished(), info)
            }
            // The kill point fell past the campaign's end; the first leg
            // already finished and there is nothing to resume.
            CampaignOutcome::Finished(r) => (Some(r), aflrs::ResumeReport::default()),
        };
        let matched = resumed.as_ref().is_some_and(|r| fingerprint(r) == want);
        if !matched {
            all_identical = false;
            eprintln!(
                "RESUME DIVERGENCE: {} killed at {kill_at} execs did not reproduce the baseline",
                t.name
            );
        }
        eprintln!(
            "  {} / kill@{kill_at}+resume (shards={shards}): snapshot_execs={} \
             records_applied={} matched={matched}",
            t.name, info.snapshot_execs, info.records_applied
        );
        resume_trials.push(ResumeTrial {
            target: t.name.to_string(),
            shards,
            kill_after_execs: kill_at,
            snapshot_execs: info.snapshot_execs,
            records_applied: info.records_applied,
            matched,
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let speedup = secs_1 / secs_4.max(1e-9);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ideal_speedup = host_cores.min(4) as f64;
    let efficiency = speedup / ideal_speedup;
    let agg = Aggregate {
        wall_secs_1_worker: secs_1,
        wall_secs_4_workers: secs_4,
        speedup,
        host_cores,
        ideal_speedup,
        scaling_efficiency: efficiency,
    };
    println!(
        "\nAggregate: 1 worker {:.2}s, 4 workers {:.2}s — speedup {:.2}x \
         of an achievable {:.0}x on {} core(s) (scaling efficiency {:.0}%)",
        agg.wall_secs_1_worker,
        agg.wall_secs_4_workers,
        agg.speedup,
        agg.ideal_speedup,
        agg.host_cores,
        agg.scaling_efficiency * 100.0
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.target.clone(),
                r.shards.to_string(),
                format!("{:.2}", r.wall_secs),
                r.execs.to_string(),
                format!("{:#x}", r.coverage_hash),
                r.crashes.to_string(),
                if r.identical { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Target",
                "Shards",
                "Wall (s)",
                "Execs",
                "Coverage hash",
                "Crashes",
                "Identical",
            ],
            &table
        )
    );

    let report_name = if smoke { "BENCH_shard_smoke" } else { "BENCH_shard" };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            budget_cycles: budget,
            lanes: aflrs::DEFAULT_LANES,
            sync_epochs: aflrs::DEFAULT_SYNC_EPOCHS,
            rows,
            resume_trials,
            aggregate: agg,
        },
    );

    if !all_identical {
        eprintln!("FAIL: sharded campaigns diverged from the single-worker baseline");
        std::process::exit(1);
    }

    if smoke {
        // Regression gate: scaling efficiency (normalized to what the host
        // can actually deliver) against the checked-in floor. Parallel
        // wall-clock is far noisier than throughput, so the tolerance is
        // wider than exec_throughput's (40% vs 20%).
        let floor = floor("results/BENCH_shard_floor.json", "smoke_scaling_efficiency");
        let min = floor * 0.6;
        if efficiency < min {
            eprintln!(
                "FAIL: scaling efficiency {efficiency:.2} is more than 40% below the \
                 checked-in floor {floor:.2} (minimum {min:.2})"
            );
            std::process::exit(1);
        }
        println!("Floor check passed: efficiency {efficiency:.2} >= 60% of floor {floor:.2}.");
    }
}
