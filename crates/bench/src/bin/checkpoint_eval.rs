//! **Checkpoint/resume torture evaluation**: prove that crash-safe
//! campaign checkpointing is *invisible* — a campaign killed at arbitrary
//! execution boundaries (even repeatedly, even with its newest snapshot
//! corrupted or torn) and resumed produces a byte-identical
//! `CampaignResult` to the same campaign run uninterrupted.
//!
//! Scenarios:
//!
//! 1. **Overhead check** — checkpointed-but-never-killed vs a plain
//!    un-checkpointed campaign: identical (checkpoint I/O charges zero
//!    simulated cycles).
//! 2. **Single kill** — K seeded-random kill points, each killed once and
//!    resumed to completion.
//! 3. **Gauntlet** — one campaign killed at *all* K points in sequence,
//!    resumed after each (resume-of-a-resume must chain journals
//!    correctly).
//! 4. **Corruption drill** — kill, then flip a bit in / truncate the
//!    newest snapshot: resume must fall back to the previous snapshot,
//!    chain the journals across the gap, and still match — no panic.
//!
//! Every scenario runs with crash revalidation wired to a fresh-process
//! executor, so the revalidation replay stream is part of what must be
//! reproduced. Writes `results/checkpoint_eval.json`
//! (`results/checkpoint_eval_smoke.json` under `--smoke`, so CI never
//! overwrites the full-mode report); exits nonzero on any mismatch (this
//! is a correctness gate, not a benchmark).
//!
//! `--smoke` shrinks the budget and kill count for CI.

use std::path::{Path, PathBuf};

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CheckpointConfig,
    ResumeReport,
};
use closurex::fresh::FreshProcessExecutor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A stateful magic-guarded target: global accumulation gives persistent
/// mode something to restore, the planted null deref gives revalidation a
/// genuine crash to confirm.
const TARGET: &str = r#"
    global total;
    fn main() {
        var f = fopen("/fuzz/input", 0);
        if (f == 0) { exit(1); }
        var buf[32];
        var n = fread(buf, 1, 32, f);
        fclose(f);
        if (n < 4) { exit(2); }
        if (load8(buf) == 'F') {
            if (load8(buf + 1) == 'U') {
                if (load8(buf + 2) == 'Z') {
                    if (load8(buf + 3) == 'Z') {
                        return load64(0); // planted crash
                    }
                    return 3;
                }
                return 2;
            }
            return 1;
        }
        total = total + n;
        return 0;
    }
"#;

#[derive(Serialize)]
struct Trial {
    scenario: String,
    /// Execution counts the campaign was killed at, in order.
    kills: Vec<u64>,
    /// Snapshot the final resume started from.
    snapshot_execs: u64,
    /// Journal records the final resume replayed.
    records_applied: u64,
    corrupt_snapshots_skipped: u64,
    /// Journal records dropped to torn/corrupt tails across all legs.
    torn_records: u64,
    /// The gate: final result byte-identical to the uninterrupted run.
    matched: bool,
    panicked: bool,
}

fn fingerprint(r: &CampaignResult) -> String {
    // Storage counters record how the run was stored (snapshots scrubbed,
    // repaired, torn records dropped), not what it computed — a resume that
    // repaired a corrupt snapshot must still count as byte-identical.
    serde_json::to_string(&r.sans_storage().sans_resume()).expect("result serializes")
}

struct Lab {
    module: fir::Module,
    cfg: CampaignConfig,
    seeds: Vec<Vec<u8>>,
    scratch: PathBuf,
}

impl Lab {
    fn executor(&self) -> ClosureXExecutor {
        ClosureXExecutor::new(&self.module, ClosureXConfig::default()).expect("instrument")
    }

    fn revalidator(&self) -> FreshProcessExecutor {
        FreshProcessExecutor::new(&self.module).expect("instrument")
    }

    fn dir(&self, tag: &str) -> PathBuf {
        let d = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// One checkpointed campaign leg from scratch.
    fn run_checkpointed(&self, ck: &CheckpointConfig) -> Result<CampaignOutcome, CampaignError> {
        let mut ex = self.executor();
        let mut rv = self.revalidator();
        Campaign::new(&self.seeds, &self.cfg)
            .executor(&mut ex)
            .revalidator(&mut rv)
            .checkpoint(ck.clone())
            .run()
    }

    /// One resume leg from the checkpoint directory.
    fn resume(&self, ck: &CheckpointConfig) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
        let mut ex = self.executor();
        let mut rv = self.revalidator();
        Campaign::new(&self.seeds, &self.cfg)
            .executor(&mut ex)
            .revalidator(&mut rv)
            .checkpoint(ck.clone())
            .resume()
    }

    /// Run to completion through a kill sequence: kill at each point in
    /// `kills` (ascending), resuming after each, then resume to the end.
    /// Returns the final result, the last leg's resume info, and whether
    /// any leg panicked.
    fn run_gauntlet(
        &self,
        ck: &CheckpointConfig,
        kills: &[u64],
    ) -> (Option<CampaignResult>, ResumeReport, bool) {
        let mut ck = ck.clone();
        let mut info = ResumeReport::default();
        let mut started = false;
        for &k in kills {
            ck.kill_after_execs = Some(k);
            let leg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if started {
                    self.resume(&ck)
                } else {
                    self.run_checkpointed(&ck).map(|o| (o, ResumeReport::default()))
                }
            }));
            started = true;
            match leg {
                Ok(Ok((CampaignOutcome::Killed { .. }, i))) => info = i,
                // The campaign finished before this kill point fired.
                Ok(Ok((CampaignOutcome::Finished(r), i))) => return (Some(r), i, false),
                Ok(Err(e)) => {
                    eprintln!("  leg failed: {e}");
                    return (None, info, false);
                }
                Err(_) => return (None, info, true),
            }
        }
        ck.kill_after_execs = None;
        let last = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.resume(&ck)));
        match last {
            Ok(Ok((outcome, i))) => (outcome.finished(), i, false),
            Ok(Err(e)) => {
                eprintln!("  final resume failed: {e}");
                (None, info, false)
            }
            Err(_) => (None, info, true),
        }
    }
}

/// Newest `ckpt-*.bin` in a checkpoint directory.
fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
        })
        .max()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { 3_000_000 } else { bench::budget() };
    let n_kills = if smoke { 2 } else { 6 };
    let snapshot_every = if smoke { 40 } else { 150 };

    let lab = Lab {
        module: minic::compile("magic", TARGET).expect("target compiles"),
        cfg: CampaignConfig {
            budget_cycles: budget,
            seed: 0x5EED,
            revalidate_crashes: true,
            ..CampaignConfig::default()
        },
        seeds: vec![b"FUZA".to_vec(), b"hello".to_vec()],
        scratch: std::env::temp_dir().join(format!("closurex-ckpt-eval-{}", std::process::id())),
    };
    let mut ck0 = CheckpointConfig::new(lab.scratch.join("unused"));
    ck0.snapshot_every_execs = snapshot_every;

    println!(
        "Checkpoint/resume torture evaluation (budget = {budget} cycles, \
         {n_kills} kill points, snapshot every {snapshot_every} execs)\n"
    );

    // The ground truth: one uninterrupted, uncheckpointed campaign.
    let reference = {
        let mut ex = lab.executor();
        let mut rv = lab.revalidator();
        Campaign::new(&lab.seeds, &lab.cfg)
            .executor(&mut ex)
            .revalidator(&mut rv)
            .run()
            .expect("plain campaign config is always valid")
            .finished()
            .expect("no kill configured")
    };
    let want = fingerprint(&reference);
    eprintln!(
        "  reference: execs={} edges={} crashes={} clock={}",
        reference.execs,
        reference.edges_found,
        reference.crashes.len(),
        reference.clock_cycles
    );

    let mut trials: Vec<Trial> = Vec::new();
    let mut table = Vec::new();
    let mut record = |t: Trial| {
        table.push(vec![
            t.scenario.clone(),
            format!("{:?}", t.kills),
            t.snapshot_execs.to_string(),
            t.records_applied.to_string(),
            t.corrupt_snapshots_skipped.to_string(),
            t.torn_records.to_string(),
            if t.matched { "yes".into() } else { "NO".into() },
        ]);
        trials.push(t);
    };

    // 1. Checkpointing overhead must be invisible.
    {
        let mut ck = ck0.clone();
        ck.dir = lab.dir("overhead");
        let out = lab
            .run_checkpointed(&ck)
            .expect("checkpointed run")
            .finished()
            .expect("no kill configured");
        record(Trial {
            scenario: "uninterrupted+checkpointing".into(),
            kills: vec![],
            snapshot_execs: 0,
            records_applied: 0,
            corrupt_snapshots_skipped: 0,
            torn_records: 0,
            matched: fingerprint(&out) == want,
            panicked: false,
        });
    }

    // 2. Single kill at each seeded-random point.
    let mut rng = SmallRng::seed_from_u64(0xD1E);
    let horizon = reference.execs.max(2);
    let kill_points: Vec<u64> = (0..n_kills)
        .map(|_| rng.gen_range(1..horizon))
        .collect();
    for &k in &kill_points {
        let mut ck = ck0.clone();
        ck.dir = lab.dir(&format!("kill-{k}"));
        let (result, info, panicked) = lab.run_gauntlet(&ck, &[k]);
        record(Trial {
            scenario: "kill+resume".into(),
            kills: vec![k],
            snapshot_execs: info.snapshot_execs,
            records_applied: info.records_applied,
            corrupt_snapshots_skipped: info.corrupt_snapshots_skipped,
            torn_records: info.torn_records,
            matched: result.as_ref().is_some_and(|r| fingerprint(r) == want),
            panicked,
        });
    }

    // 3. The gauntlet: all kill points in one campaign, in order.
    {
        let mut ck = ck0.clone();
        ck.dir = lab.dir("gauntlet");
        let mut kills = kill_points.clone();
        kills.sort_unstable();
        kills.dedup();
        let (result, info, panicked) = lab.run_gauntlet(&ck, &kills);
        record(Trial {
            scenario: "gauntlet (sequential kills)".into(),
            kills,
            snapshot_execs: info.snapshot_execs,
            records_applied: info.records_applied,
            corrupt_snapshots_skipped: info.corrupt_snapshots_skipped,
            torn_records: info.torn_records,
            matched: result.as_ref().is_some_and(|r| fingerprint(r) == want),
            panicked,
        });
    }

    // 4. Corruption drills: damage the newest snapshot after a kill; the
    //    resume must fall back and still match, without panicking.
    for (tag, damage) in [
        ("bit-flip", 0u8),
        ("truncate", 1u8),
    ] {
        let k = horizon * 2 / 3;
        let mut ck = ck0.clone();
        ck.dir = lab.dir(&format!("corrupt-{tag}"));
        ck.kill_after_execs = Some(k.max(1));
        let _ = lab.run_checkpointed(&ck).expect("checkpointed run");
        if let Some(path) = newest_snapshot(&ck.dir) {
            let bytes = std::fs::read(&path).expect("snapshot readable");
            let mutated = if damage == 0 {
                let mut b = bytes;
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                b
            } else {
                bytes[..bytes.len() / 3].to_vec()
            };
            std::fs::write(&path, mutated).expect("snapshot writable");
        }
        ck.kill_after_execs = None;
        let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lab.resume(&ck)));
        let (result, info, panicked) = match resumed {
            Ok(Ok((outcome, i))) => (outcome.finished(), i, false),
            Ok(Err(e)) => {
                eprintln!("  corrupt-{tag} resume failed: {e}");
                (None, ResumeReport::default(), false)
            }
            Err(_) => (None, ResumeReport::default(), true),
        };
        record(Trial {
            scenario: format!("corrupt newest snapshot ({tag})"),
            kills: vec![k.max(1)],
            snapshot_execs: info.snapshot_execs,
            records_applied: info.records_applied,
            corrupt_snapshots_skipped: info.corrupt_snapshots_skipped,
            torn_records: info.torn_records,
            matched: result.as_ref().is_some_and(|r| fingerprint(r) == want),
            panicked,
        });
    }

    print!(
        "{}",
        bench::markdown_table(
            &[
                "Scenario",
                "Kills (execs)",
                "Resume snapshot",
                "Records replayed",
                "Snapshots skipped",
                "Torn records",
                "Identical result",
            ],
            &table
        )
    );

    let failures = trials.iter().filter(|t| !t.matched || t.panicked).count();
    let skipped: u64 = trials.iter().map(|t| t.corrupt_snapshots_skipped).sum();
    println!(
        "\n{}/{} scenarios reproduced the uninterrupted result exactly; \
         {skipped} corrupt snapshot(s) skipped, 0 tolerated panics.",
        trials.len() - failures,
        trials.len()
    );
    let report_name = if smoke { "checkpoint_eval_smoke" } else { "checkpoint_eval" };
    bench::write_report(report_name, &trials);
    let _ = std::fs::remove_dir_all(&lab.scratch);
    if failures > 0 {
        eprintln!("FAIL: {failures} scenario(s) diverged from the uninterrupted campaign");
        std::process::exit(1);
    }
}
