//! Checkpoint plane: crash-safe checkpointing is invisible. A single-driver
//! campaign killed at arbitrary execution counts (once, or again and again
//! with resume-of-a-resume), or killed with its newest snapshot corrupted
//! or torn, resumes to the result of the same campaign run uninterrupted.
//! Crash revalidation runs on a fresh-process executor throughout, so its
//! replay stream is part of what must be reproduced.
//!
//! No cost ratio: this plane is identity only.

use std::path::{Path, PathBuf};

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CheckpointConfig,
};
use closurex::fresh::FreshProcessExecutor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{budget, finished, in_scratch, killed, same, Block, Cell, Fail, Grid, Size};

const TARGET_NAME: &str = "magic";

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

struct Lab {
    module: fir::Module,
    cfg: CampaignConfig,
    seeds: Vec<Vec<u8>>,
    snapshot_every: u64,
}

impl Lab {
    fn new(size: Size) -> Self {
        Lab {
            module: minic::compile(TARGET_NAME, TARGET).expect("target compiles"),
            cfg: CampaignConfig {
                budget_cycles: budget(size, 3_000_000),
                seed: 0x5EED,
                revalidate_crashes: true,
                ..CampaignConfig::default()
            },
            seeds: vec![b"FUZA".to_vec(), b"hello".to_vec()],
            snapshot_every: if size == Size::Full { 150 } else { 40 },
        }
    }

    /// One leg: uncheckpointed when `ck` is `None`, else a fresh run or a
    /// resume over `ck.dir`.
    fn leg(
        &self,
        ck: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        let mut ex =
            ClosureXExecutor::new(&self.module, ClosureXConfig::default()).expect("instrument");
        let mut rv = FreshProcessExecutor::new(&self.module).expect("instrument");
        let mut c = Campaign::new(&self.seeds, &self.cfg)
            .executor(&mut ex)
            .revalidator(&mut rv);
        if let Some(ck) = ck {
            c = c.checkpoint(ck.clone());
        }
        if resume {
            c.resume().map(|(out, _)| out)
        } else {
            c.run()
        }
    }

    fn checkpoint(&self, dir: &Path) -> CheckpointConfig {
        let mut ck = CheckpointConfig::new(dir);
        ck.snapshot_every_execs = self.snapshot_every;
        ck
    }

    /// Kill at each of `kills` (ascending) in turn, resuming after each,
    /// then resume to the end. Every kill must fire.
    fn gauntlet(&self, kills: &[u64]) -> Result<CampaignResult, String> {
        in_scratch("ckpt-gauntlet", |dir| {
            let mut ck = self.checkpoint(dir);
            for (i, &k) in kills.iter().enumerate() {
                ck.kill_after_execs = Some(k);
                killed(self.leg(Some(&ck), i > 0), k)?;
            }
            ck.kill_after_execs = None;
            finished(self.leg(Some(&ck), !kills.is_empty()))
        })
    }

    /// Kill at `k`, damage the newest snapshot, and resume: the resume
    /// must fall back to the previous snapshot and chain the journals.
    fn corrupted(&self, k: u64, truncate: bool) -> Result<CampaignResult, String> {
        in_scratch("ckpt-corrupt", |dir| {
            let mut ck = self.checkpoint(dir);
            ck.kill_after_execs = Some(k);
            killed(self.leg(Some(&ck), false), k)?;
            let path = newest_snapshot(dir).ok_or("no snapshot to damage before the kill")?;
            let mut bytes = std::fs::read(&path).fail()?;
            if truncate {
                bytes.truncate(bytes.len() / 3);
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
            std::fs::write(&path, bytes).fail()?;
            ck.kill_after_execs = None;
            finished(self.leg(Some(&ck), true))
        })
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

/// The checkpoint grid at `size`: one part at every size, scaled by
/// [`Lab::new`].
pub fn grid(size: Size) -> Vec<Cell> {
    super::run(size, &[kill_and_resume_is_invisible])
}

/// Kill once, kill again and again, kill and corrupt the newest snapshot:
/// every resume matches the uninterrupted run.
pub fn kill_and_resume_is_invisible(g: &mut Grid) {
    let lab = Lab::new(g.size());
    let Some(want) = g.cell(TARGET_NAME, "uninterrupted", || {
        finished(lab.leg(None, false))
    }) else {
        return;
    };
    let keep = [Block::Supervision];
    g.cell(TARGET_NAME, "uninterrupted + checkpointing", || {
        let out = in_scratch("ckpt-overhead", |dir| {
            finished(lab.leg(Some(&lab.checkpoint(dir)), false))
        });
        same(&out?, &want, &keep)
    });
    let horizon = want.execs.max(2);
    let mut rng = SmallRng::seed_from_u64(0xD1E);
    let n_kills = if g.size() == Size::Full { 6 } else { 2 };
    let mut kills: Vec<u64> = (0..n_kills).map(|_| rng.gen_range(1..horizon)).collect();
    for &k in &kills {
        g.cell(TARGET_NAME, format!("kill@{k} + resume"), || {
            same(&lab.gauntlet(&[k])?, &want, &keep)
        });
    }
    kills.sort_unstable();
    kills.dedup();
    g.cell(TARGET_NAME, format!("gauntlet {kills:?}"), || {
        same(&lab.gauntlet(&kills)?, &want, &keep)
    });
    for (tag, truncate) in [("bit-flip", false), ("truncate", true)] {
        let k = (horizon * 2 / 3).max(1);
        g.cell(
            TARGET_NAME,
            format!("kill@{k} + {tag} newest snapshot"),
            || same(&lab.corrupted(k, truncate)?, &want, &keep),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kill_past_the_end_fails() {
        let why = Lab::new(Size::Test)
            .gauntlet(&[1 << 40])
            .expect_err("an unfired kill must fail");
        assert!(why.contains("never fired"), "{why}");
    }
}
