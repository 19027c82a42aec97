//! **Host-throughput benchmark**: how many simulated test cases per host
//! second the execution engine sustains, decoded-bytecode engine vs the
//! AST-walking reference, measured in the *same* run so the comparison is
//! honest (same binary, same machine state, same workload).
//!
//! For every (target, mechanism) cell the harness runs the identical
//! campaign on both engines — with `vmos::set_reference_engine(true)` (the
//! pre-change engine: AST walk, full coverage-map clears, full-scan virgin
//! merge) and on the decoded fast path — in interleaved rounds after an
//! untimed warm-up round, keeping each engine's best time, and
//! cross-checks that every run's `execs`, `clock_cycles` and
//! `coverage_hash` are bit-identical. A mismatch is a determinism bug and
//! fails the run outright.
//!
//! Modes:
//! * default: all targets × {ClosureX, forkserver}, `CLOSUREX_BUDGET` or
//!   the standard default budget;
//! * `--smoke`: first two targets, small budget — the CI gate. In smoke mode the aggregate decoded/reference speedup is
//!   compared against the checked-in floor (`results/BENCH_floor.json`)
//!   and a miss exits nonzero; decoded execs/sec below 80% of its floor
//!   only warns.
//!
//! Writes `results/BENCH_throughput.json`.

use aflrs::{Campaign, CampaignConfig, CampaignResult};
use bench::Mechanism;
use closurex::executor::Executor;
use serde::Serialize;
use std::time::Instant;

/// Smoke-mode per-campaign cycle budget (big enough that the decoded
/// engine's dispatch dominates, small enough for CI).
const SMOKE_BUDGET: u64 = 4_000_000;

/// Timed rounds per cell in both modes; each engine keeps its best. One
/// round of a tens-of-milliseconds full-mode row cannot resolve a
/// per-target change on a shared host.
const ROUNDS: usize = 3;

#[derive(Serialize)]
struct Row {
    target: String,
    mechanism: String,
    execs: u64,
    clock_cycles: u64,
    coverage_hash: u64,
    reference_secs: f64,
    decoded_secs: f64,
    reference_execs_per_sec: f64,
    decoded_execs_per_sec: f64,
    speedup: f64,
    deterministic: bool,
}

#[derive(Serialize)]
struct Aggregate {
    total_execs: u64,
    reference_execs_per_sec: f64,
    decoded_execs_per_sec: f64,
    speedup: f64,
}

/// Decode-time optimizer statistics for one target, lifted from the
/// cached [`vmos::DecodedImage`] so the report records *what* the
/// optimizer did to the stream the timed rows ran on.
#[derive(Serialize)]
struct OptRow {
    target: String,
    decode_micros: u64,
    insts_eliminated: u64,
    operands_resolved: u64,
    movs_coalesced: u64,
    blocks_merged: u64,
    fused_sites: u64,
    chains: u64,
    chain_comps: u64,
    inlined_callees: u64,
}

#[derive(Serialize)]
struct Report {
    mode: String,
    budget_cycles: u64,
    rows: Vec<Row>,
    optimizer: Vec<OptRow>,
    aggregate: Aggregate,
}

/// One plain campaign through the builder.
fn run(ex: &mut dyn Executor, seeds: &[Vec<u8>], cfg: &CampaignConfig) -> CampaignResult {
    Campaign::new(seeds, cfg)
        .executor(ex)
        .run()
        .expect("plain campaign config is always valid")
        .finished()
        .expect("no kill configured")
}

fn campaign_cfg(budget: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles: budget,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// One timed campaign on the requested engine. Executor construction is
/// outside the timed window (decode happens once per module and is cached);
/// the window covers exactly what a fuzzing campaign spends per test case.
fn timed_run(
    target: &targets::TargetSpec,
    mech: Mechanism,
    budget: u64,
    reference: bool,
) -> (CampaignResult, f64) {
    vmos::set_reference_engine(reference);
    let cfg = campaign_cfg(budget);
    let seeds = (target.seeds)();
    let mut ex = mech.executor(target);
    let start = Instant::now();
    let r = run(ex.as_mut(), &seeds, &cfg);
    let secs = start.elapsed().as_secs_f64();
    vmos::set_reference_engine(false);
    (r, secs)
}

/// Do two runs agree on everything the engines must reproduce?
fn same_run(a: &CampaignResult, b: &CampaignResult) -> bool {
    a.execs == b.execs
        && a.clock_cycles == b.clock_cycles
        && a.coverage_hash == b.coverage_hash
        && a.edges_found == b.edges_found
        && a.crashes.len() == b.crashes.len()
}

/// One cell's reference and decoded campaigns: an untimed warm-up round
/// (caches, branch predictors and CPU frequency settle), then [`ROUNDS`]
/// timed rounds interleaved (reference, decoded, reference, ...) so drift
/// in host throughput hits both engines alike, the way `opt_bisect` times
/// its legs. Returns both warm-up results, each engine's best wall time,
/// and whether every timed run reproduced its engine's warm-up run.
fn best_of(
    target: &targets::TargetSpec,
    mech: Mechanism,
    budget: u64,
) -> ([CampaignResult; 2], [f64; 2], bool) {
    let warm = [true, false].map(|reference| timed_run(target, mech, budget, reference).0);
    let mut best = [f64::INFINITY; 2];
    let mut stable = true;
    for _ in 0..ROUNDS {
        for (i, reference) in [true, false].into_iter().enumerate() {
            let (r, secs) = timed_run(target, mech, budget, reference);
            stable &= same_run(&r, &warm[i]);
            best[i] = best[i].min(secs);
        }
    }
    (warm, best, stable)
}

use bench::floor;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let targets: Vec<&targets::TargetSpec> = if smoke {
        targets::all().into_iter().take(2).collect()
    } else {
        targets::all()
    };
    let mode = if smoke { "smoke" } else { "full" };
    println!("exec_throughput ({mode}): budget = {budget} cycles/campaign\n");

    let mut rows = Vec::new();
    let mut opt_rows = Vec::new();
    let mut all_deterministic = true;
    let (mut total_execs, mut ref_secs, mut dec_secs) = (0u64, 0.0f64, 0.0f64);
    for t in &targets {
        let s = vmos::DecodedImage::cached(&t.module()).stats.clone();
        eprintln!(
            "  {} optimizer: {} insts eliminated, {} fused sites, {} chains ({} comps), \
             {} callees inlined, decoded in {}us",
            t.name,
            s.insts_eliminated,
            s.fused_total(),
            s.chains,
            s.chain_comps,
            s.inlined_callees,
            s.decode_micros,
        );
        opt_rows.push(OptRow {
            target: t.name.to_string(),
            decode_micros: s.decode_micros,
            insts_eliminated: s.insts_eliminated,
            operands_resolved: s.operands_resolved,
            movs_coalesced: s.movs_coalesced,
            blocks_merged: s.blocks_merged,
            fused_sites: s.fused_total(),
            chains: s.chains,
            chain_comps: s.chain_comps,
            inlined_callees: s.inlined_callees,
        });
        for mech in [Mechanism::ClosureX, Mechanism::ForkServer] {
            let ([ref_r, dec_r], [r_secs, d_secs], stable) = best_of(t, mech, budget);
            let deterministic = stable && same_run(&ref_r, &dec_r);
            if !deterministic {
                all_deterministic = false;
                eprintln!(
                    "DETERMINISM VIOLATION: {} / {}: reference (execs={}, cycles={}, cov={:#x}) \
                     != decoded (execs={}, cycles={}, cov={:#x}), or a round diverged",
                    t.name,
                    mech.name(),
                    ref_r.execs,
                    ref_r.clock_cycles,
                    ref_r.coverage_hash,
                    dec_r.execs,
                    dec_r.clock_cycles,
                    dec_r.coverage_hash
                );
            }
            let ref_eps = dec_r.execs as f64 / r_secs.max(1e-9);
            let dec_eps = dec_r.execs as f64 / d_secs.max(1e-9);
            eprintln!(
                "  {} / {}: {} execs | reference {:.0}/s, decoded {:.0}/s ({:.2}x)",
                t.name,
                mech.name(),
                dec_r.execs,
                ref_eps,
                dec_eps,
                dec_eps / ref_eps.max(1e-9)
            );
            total_execs += dec_r.execs;
            ref_secs += r_secs;
            dec_secs += d_secs;
            rows.push(Row {
                target: t.name.to_string(),
                mechanism: mech.name().to_string(),
                execs: dec_r.execs,
                clock_cycles: dec_r.clock_cycles,
                coverage_hash: dec_r.coverage_hash,
                reference_secs: r_secs,
                decoded_secs: d_secs,
                reference_execs_per_sec: ref_eps,
                decoded_execs_per_sec: dec_eps,
                speedup: dec_eps / ref_eps.max(1e-9),
                deterministic,
            });
        }
    }

    let agg_ref = total_execs as f64 / ref_secs.max(1e-9);
    let agg_dec = total_execs as f64 / dec_secs.max(1e-9);
    let agg = Aggregate {
        total_execs,
        reference_execs_per_sec: agg_ref,
        decoded_execs_per_sec: agg_dec,
        speedup: agg_dec / agg_ref.max(1e-9),
    };
    println!(
        "\nAggregate: {} execs | reference {:.0} execs/s | decoded {:.0} execs/s | speedup {:.2}x",
        agg.total_execs, agg.reference_execs_per_sec, agg.decoded_execs_per_sec, agg.speedup
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.target.clone(),
                r.mechanism.clone(),
                r.execs.to_string(),
                format!("{:.0}", r.reference_execs_per_sec),
                format!("{:.0}", r.decoded_execs_per_sec),
                format!("{:.2}", r.speedup),
                r.deterministic.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Target",
                "Mechanism",
                "Execs",
                "Ref execs/s",
                "Decoded execs/s",
                "Speedup",
                "Deterministic",
            ],
            &table
        )
    );
    // Smoke mode writes to its own file so the CI gate never clobbers the
    // blessed full-run report.
    let report_name = if smoke {
        "BENCH_throughput_smoke"
    } else {
        "BENCH_throughput"
    };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            budget_cycles: budget,
            rows,
            optimizer: opt_rows,
            aggregate: agg,
        },
    )
    .expect("report written");

    if !all_deterministic {
        eprintln!("FAIL: decoded engine diverged from the reference engine");
        std::process::exit(1);
    }

    if smoke {
        // Regression gate: the decoded/reference speedup of interleaved
        // best-of-three rounds. Both engines ride the same host-load phase,
        // so the ratio is load-robust where absolute execs/sec swings with
        // host load (shared machines show ±60% phases); it alone decides.
        // The absolute floor is reported, and a miss only warns.
        let abs = floor("results/BENCH_floor.json", "smoke_decoded_execs_per_sec");
        let ratio = floor("results/BENCH_floor.json", "smoke_min_speedup");
        let speedup = agg_dec / agg_ref.max(1e-9);
        if speedup < ratio {
            eprintln!(
                "FAIL: the decoded/reference speedup {speedup:.2}x is below the speedup floor \
                 {ratio:.2}x ({agg_dec:.0} decoded execs/s) — an engine regression"
            );
            std::process::exit(1);
        }
        if agg_dec < abs * 0.8 {
            eprintln!(
                "WARN: decoded throughput {agg_dec:.0} execs/s is below 80% of floor {abs:.0}, \
                 but the within-run speedup {speedup:.2}x clears its floor {ratio:.2}x — \
                 treating as a host slow phase"
            );
        } else {
            println!(
                "Floor check passed: {agg_dec:.0} execs/s, speedup {speedup:.2}x \
                 (floors: {abs:.0} execs/s, {ratio:.2}x)"
            );
        }
    }
}
