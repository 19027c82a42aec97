//! Checkpoint plane: crash-safe checkpointing is invisible. A single-driver
//! campaign killed at arbitrary execution counts (once, or again and again
//! with resume-of-a-resume), or killed with its newest snapshot corrupted
//! or torn, resumes to the result of the same campaign run uninterrupted.
//! Snapshots are the only durable points, so the kill-offset cells kill
//! just before, at and just past a snapshot and in the final stretch:
//! every resume re-runs from the newest snapshot before the kill. Crash
//! revalidation runs on a fresh-process executor throughout, so its
//! replay stream is part of what must be reproduced.
//!
//! No cost ratio: this plane is identity only.

use std::path::{Path, PathBuf};

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CheckpointConfig,
    ResumeReport,
};
use closurex::fresh::FreshProcessExecutor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{
    budget, ensure, finished, in_scratch, killed, reran, resume_report, same, Block, Cell, Fail,
    Grid, Size,
};

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

    /// Hand `body` a campaign over fresh executors.
    fn campaign<T>(&self, body: impl FnOnce(Campaign<'_>) -> T) -> T {
        let mut ex =
            ClosureXExecutor::new(&self.module, ClosureXConfig::default()).expect("instrument");
        let mut rv = FreshProcessExecutor::new(&self.module).expect("instrument");
        body(
            Campaign::new(&self.seeds, &self.cfg)
                .executor(&mut ex)
                .revalidator(&mut rv),
        )
    }

    /// One leg: uncheckpointed when `ck` is `None`, else a fresh run or a
    /// resume over `ck.dir`.
    fn leg(
        &self,
        ck: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        match ck {
            None => self.campaign(|c| c.run()),
            Some(ck) if resume => self.resume(ck).map(|(out, _)| out),
            Some(ck) => self.campaign(|c| c.checkpoint(ck.clone()).run()),
        }
    }

    /// A resume over `ck.dir`, with the report of what it found.
    fn resume(
        &self,
        ck: &CheckpointConfig,
    ) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
        self.campaign(|c| c.checkpoint(ck.clone()).resume())
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
    /// must fall back to the previous snapshot and re-run from it.
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

    /// Kill one exec past the snapshot at `snapshot`, flip a byte of that
    /// generation, and resume with a kill one exec past it again: the
    /// resume falls back a generation and the re-run rewrites the damaged
    /// file byte for byte. A last resume runs to the end and must match
    /// `want`.
    fn repaired(
        &self,
        snapshot: u64,
        want: &CampaignResult,
        keep: &[Block],
    ) -> Result<(), String> {
        in_scratch("ckpt-repair", |dir| {
            let mut ck = self.checkpoint(dir);
            ck.kill_after_execs = Some(snapshot + 1);
            killed(self.leg(Some(&ck), false), snapshot + 1)?;
            let path = newest_snapshot(dir).ok_or("no snapshot to damage before the kill")?;
            let intact = std::fs::read(&path).fail()?;
            let mut bytes = intact.clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, bytes).fail()?;
            let (out, report) = self.resume(&ck).fail()?;
            killed(Ok(out), snapshot + 1)?;
            ensure(
                report.corrupt_snapshots_skipped == 1
                    && report.snapshot_execs + self.snapshot_every == snapshot
                    && report.snapshots_repaired == 1,
                || format!("expected one generation skipped and repaired: {report:?}"),
            )?;
            ensure(std::fs::read(&path).fail()? == intact, || {
                format!("{} was not rewritten byte for byte", path.display())
            })?;
            ck.kill_after_execs = None;
            same(&finished(self.leg(Some(&ck), true))?, want, keep)
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

/// The checkpoint grid at `size`: the same parts at every size, scaled by
/// `Lab::new`.
pub fn grid(size: Size) -> Vec<Cell> {
    super::run(
        size,
        &[
            kill_and_resume_is_invisible,
            kill_at_every_snapshot_offset_resumes_exactly,
        ],
    )
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

/// Kills one exec before a snapshot, exactly at it (the kill lands before
/// that snapshot is written), one exec past it, and one exec past the last
/// snapshot before the end: each resume must start from the newest
/// snapshot before the kill, re-run the rest, and reach the uninterrupted
/// result. Then a kill past a snapshot with that newest generation
/// bit-flipped: the resume falls back one generation, and the re-run
/// rewrites the damaged file with the bytes it held before the flip,
/// counted as one repair.
pub fn kill_at_every_snapshot_offset_resumes_exactly(g: &mut Grid) {
    let lab = Lab::new(g.size());
    let Some(want) = g.cell(TARGET_NAME, "uninterrupted", || {
        finished(lab.leg(None, false))
    }) else {
        return;
    };
    let keep = [Block::Supervision];
    let every = lab.snapshot_every;
    // The newest snapshot a kill after `execs` execs resumes from.
    let newest_before = |execs: u64| (execs - 1) / every * every;
    let snapshot = newest_before(want.execs / 2 + 1);
    let last = newest_before(want.execs);
    let room = || {
        ensure(every <= snapshot && snapshot < last, || {
            format!("snapshots at {snapshot} and {last} of {} execs", want.execs)
        })
    };
    if g.cell(TARGET_NAME, "the snapshots leave room for every offset", room)
        .is_none()
    {
        return;
    }
    let offsets = [
        ("snapshot-1", snapshot - 1),
        ("snapshot", snapshot),
        ("snapshot+1", snapshot + 1),
        ("final stretch", last + 1),
    ];
    for (offset, kill_at) in offsets {
        g.cell(TARGET_NAME, format!("kill@{offset} ({kill_at})"), || {
            let (r, report) = in_scratch("ckpt-offset", |dir| {
                let mut ck = lab.checkpoint(dir);
                ck.kill_after_execs = Some(kill_at);
                let killed_at = killed(lab.leg(Some(&ck), false), kill_at)?;
                ck.kill_after_execs = None;
                let r = finished(lab.leg(Some(&ck), true))?;
                let report = resume_report(&r)?.clone();
                reran(killed_at, &report)?;
                ensure(report.snapshot_execs == newest_before(killed_at), || {
                    format!("killed at {killed_at}, resumed from the wrong snapshot: {report:?}")
                })?;
                Ok::<_, String>((r, report))
            })?;
            same(&r, &want, &keep)?;
            ensure(report.corrupt_snapshots_skipped == 0, || {
                format!("a clean kill skipped a snapshot: {report:?}")
            })
        });
    }
    g.cell(
        TARGET_NAME,
        format!("kill@snapshot+1 ({}), newest snapshot bit-flipped", snapshot + 1),
        || lab.repaired(snapshot, &want, &keep),
    );
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
