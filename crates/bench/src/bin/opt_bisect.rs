//! Decode-optimizer timing tool: times one target's campaign on each
//! engine configuration (reference / plain decoded / optimized decoded)
//! and reports best-of-N execs/sec. Every leg must match the reference
//! leg on execs, simulated clock, coverage hash and crash sites before a
//! speedup is printed, so a diverged leg fails loudly instead of timing
//! a different campaign.
//!
//! Usage: `opt_bisect [target ...]` (default: giftext gpmf-parser
//! c-blosc2). Budget via `CLOSUREX_BUDGET` (default 20M cycles).

use aflrs::{Campaign, CampaignConfig, CampaignResult};
use bench::Mechanism;
use std::time::Instant;
use vmos::{Crash, DecodeOptGuard, ReferenceEngineGuard};

const ROUNDS: usize = 3;
const LEGS: [&str; 3] = ["reference", "plain", "optimized"];

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: bench::budget(),
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// The observables every leg must agree on: execs, simulated clock,
/// coverage hash and crash sites.
type Observed = (u64, u64, u64, Vec<Crash>);

fn observed(r: &CampaignResult) -> Observed {
    let crashes = r.crashes.iter().map(|c| c.crash.clone()).collect();
    (r.execs, r.clock_cycles, r.coverage_hash, crashes)
}

/// One timed campaign run; returns (wall seconds, observables).
fn run_once(target: &targets::TargetSpec) -> (f64, Observed) {
    let cfg = cfg();
    let seeds = (target.seeds)();
    let mut ex = Mechanism::ClosureX.executor(target);
    let start = Instant::now();
    let r = Campaign::new(&seeds, &cfg)
        .executor(ex.as_mut())
        .run()
        .expect("campaign")
        .finished()
        .expect("no kill configured");
    (start.elapsed().as_secs_f64(), observed(&r))
}

/// Best-of-N for all three engine configurations, with the rounds
/// *interleaved* (ref, plain, opt, ref, plain, opt, ...) so slow drift in
/// machine throughput hits every configuration equally instead of
/// penalizing whichever leg runs last. Round 0 is a discarded warm-up.
fn best3(name: &str, target: &targets::TargetSpec) -> ([f64; 3], u64) {
    let mut best = [f64::INFINITY; 3];
    let mut want: Option<Observed> = None;
    for round in 0..=ROUNDS {
        for (i, s) in best.iter_mut().enumerate() {
            let guards = match i {
                0 => (Some(ReferenceEngineGuard::new()), None),
                1 => (None, Some(DecodeOptGuard::new())),
                _ => (None, None),
            };
            let (secs, got) = run_once(target);
            drop(guards);
            let want = want.get_or_insert_with(|| got.clone());
            assert_eq!(
                &got, want,
                "{name}: {} leg diverged from the reference (execs, clock, coverage hash, crash sites)",
                LEGS[i]
            );
            if round > 0 {
                *s = s.min(secs);
            }
        }
    }
    (best, want.expect("at least one round").0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["giftext", "gpmf-parser", "c-blosc2"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    println!("opt_bisect: budget {} cycles", bench::budget());
    for name in names {
        let t = targets::by_name(name).expect("bundled target");
        let ([ref_s, plain_s, opt_s], execs) = best3(name, t);
        println!(
            "  {name}: {execs} execs | ref {:.0}/s | plain {:.0}/s ({:.2}x) | opt {:.0}/s ({:.2}x, {:+.1}% vs plain)",
            execs as f64 / ref_s,
            execs as f64 / plain_s,
            ref_s / plain_s,
            execs as f64 / opt_s,
            ref_s / opt_s,
            (plain_s / opt_s - 1.0) * 100.0,
        );
    }
}
