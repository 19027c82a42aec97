//! Shard plane: the worker count of a sharded campaign is a pure
//! throughput knob. On a fixed lane decomposition, `shards ∈ {1, 2, 4}`
//! produce the identical result, supervision and storage blocks included,
//! on both engines; and a sharded checkpointed campaign killed mid-run
//! resumes, even at another worker count, to the uninterrupted result.
//! Barriers are the only durable points, so the kill-offset cells kill
//! just before, at and just past a barrier and in the final epoch, in
//! process and with one process per lane, and corrupt the newest
//! snapshot: every resume re-runs from the newest valid barrier to the
//! same result.
//!
//! Cost: [`scaling_efficiency`], from the 1- and 4-worker wall clocks.

use std::path::Path;

use aflrs::{CampaignResult, Isolation};

use super::{
    budget, ensure, reran, resume_report, same, sound_baseline, Block, Cell, Fail, Grid, Part,
    Role, Setup, Size,
};

const BOTH: &[Block] = &[Block::Supervision, Block::Storage];

/// Smoke-size per-campaign budget: long enough on the host that worker
/// parallelism beats thread and merge overhead, or the scaling gate
/// would measure noise.
const SMOKE_BUDGET: u64 = 24_000_000;

/// The shard grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            giftext_sharding_is_worker_count_invariant,
            gpmf_sharding_with_crashes_is_worker_count_invariant,
            sharding_is_worker_count_invariant_on_reference_engine,
            sharded_kill_and_resume_reproduces_uninterrupted_result,
            kill_at_every_barrier_offset_resumes_exactly,
        ],
        Size::Smoke | Size::Full => &[scaling_grid],
    };
    super::run(size, parts)
}

/// The test-size campaign on `target` (gpmf with its bug witnesses).
fn test_setup(target: &'static str, reference: bool) -> Setup {
    Setup {
        witnesses: target == "gpmf-parser",
        reference,
        ..Setup::new(target, 0xC0FFEE, 3_000_000)
    }
}

/// giftext at 1, 2 and 4 workers.
pub fn giftext_sharding_is_worker_count_invariant(g: &mut Grid) {
    sweep(g, &test_setup("giftext", false));
}

/// gpmf, crash records and all, at 1, 2 and 4 workers.
pub fn gpmf_sharding_with_crashes_is_worker_count_invariant(g: &mut Grid) {
    sweep(g, &test_setup("gpmf-parser", false));
}

/// Both targets on the reference engine, which must also agree with the
/// decoded engine.
pub fn sharding_is_worker_count_invariant_on_reference_engine(g: &mut Grid) {
    let decoded = sweep(g, &test_setup("giftext", false));
    if let (Some(d), Some(r)) = (decoded, sweep(g, &test_setup("giftext", true))) {
        g.check("giftext", "decoded = reference", same(&r, &d, BOTH));
    }
    sweep(g, &test_setup("gpmf-parser", true));
}

/// Killed off any epoch boundary, so resume re-runs a torn epoch, and
/// resumed at another worker count than the kill.
pub fn sharded_kill_and_resume_reproduces_uninterrupted_result(g: &mut Grid) {
    let gpmf = test_setup("gpmf-parser", false);
    if let Some(want) = g.cell(gpmf.target, "shards=1", || gpmf.run(1, |c| c)) {
        kill_and_resume(g, &gpmf, &want, 97, (2, 4));
    }
}

/// Kills one exec before a barrier, exactly at it, one exec past it and
/// one exec into the final epoch, in process and one process per lane; then,
/// with the newest snapshot corrupted, a resume that falls back a barrier
/// (`keep_snapshots` = 2) and re-runs two epochs. Each resume must reach
/// the uninterrupted result. An in-process kill stops the epoch it lands
/// in before its barrier, so that resume always re-runs work; a
/// lane-per-process kill counts each worker's execs against the line, so
/// a kill at or just before a barrier may land on it.
pub fn kill_at_every_barrier_offset_resumes_exactly(g: &mut Grid) {
    let gpmf = test_setup("gpmf-parser", false);
    let Some(want) = g.cell(gpmf.target, "shards=1", || gpmf.run(1, |c| c)) else {
        return;
    };
    // An in-process kill's resume starts from the barrier before it: a
    // kill mid-campaign finds a middle barrier, one exec before the end
    // the last barrier.
    let inproc = (2, Isolation::InProcess);
    let mut barrier_before = |kill_at: u64| {
        g.cell(
            gpmf.target,
            format!("find the barrier before {kill_at}"),
            || {
                let (r, _) = gpmf.kill_then_resume(kill_at, inproc, inproc, |_| Ok(()))?;
                same(&r, &want, BOTH)?;
                Ok(resume_report(&r)?.snapshot_execs)
            },
        )
    };
    let (Some(barrier), Some(last)) = (
        barrier_before(want.execs / 2),
        barrier_before(want.execs - 1),
    ) else {
        return;
    };
    let room = || {
        ensure(
            1 < barrier && barrier < last && last + 1 < want.execs,
            || format!("barriers at {barrier} and {last} of {} execs", want.execs),
        )
    };
    if g.cell(
        gpmf.target,
        "the barriers leave room for every offset",
        room,
    )
    .is_none()
    {
        return;
    }
    let offsets = [
        ("barrier-1", barrier - 1),
        ("barrier", barrier),
        ("barrier+1", barrier + 1),
        ("final epoch", last + 1),
    ];
    for iso in [Isolation::InProcess, Isolation::Process] {
        let legs = (2, iso);
        for (offset, kill_at) in offsets {
            g.cell(
                gpmf.target,
                format!("{iso:?} kill@{offset} ({kill_at})"),
                || {
                    let (r, killed_at) = gpmf.kill_then_resume(kill_at, legs, legs, |_| Ok(()))?;
                    same(&r, &want, &[Block::Storage])?;
                    let report = resume_report(&r)?;
                    if iso == Isolation::InProcess {
                        reran(killed_at, report)
                    } else {
                        ensure(report.snapshot_execs <= killed_at, || {
                            format!("resumed past the kill at {killed_at}: {report:?}")
                        })
                    }
                },
            );
        }
        g.cell(gpmf.target, format!("{iso:?} kill@barrier+1, newest snapshot corrupt"), || {
            let (r, _) = gpmf.kill_then_resume(barrier + 1, legs, legs, corrupt_newest_snapshot)?;
            same(&r, &want, &[])?;
            let report = resume_report(&r)?;
            ensure(
                report.corrupt_snapshots_skipped == 1 && report.snapshot_execs < barrier,
                || format!("the resume did not fall back past the barrier at {barrier}: {report:?}"),
            )
        });
    }
}

/// Flip one payload byte of the newest shard snapshot in `dir`.
fn corrupt_newest_snapshot(dir: &Path) -> Result<(), String> {
    let newest = std::fs::read_dir(dir)
        .fail()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-ckpt-") && n.ends_with(".bin"))
        })
        .max()
        .ok_or("no shard snapshot to corrupt")?;
    let mut bytes = std::fs::read(&newest).fail()?;
    let at = bytes.len() - 1;
    bytes[at] ^= 0x40;
    std::fs::write(&newest, bytes).fail()
}

/// The smoke and full grid: per target, the worker sweep timed for the
/// scaling gate, then a kill halfway through and a resume.
fn scaling_grid(g: &mut Grid) {
    for target in ["giftext", "gpmf-parser"] {
        let s = Setup::new(target, 0x5AADED, budget(g.size(), SMOKE_BUDGET));
        // Untimed warm-up: decode caches and thread pools settle before
        // anything is on the clock.
        g.cell(target, "warm-up", || s.run(4, |c| c));
        if let Some(want) = sweep(g, &s) {
            kill_and_resume(g, &s, &want, want.execs / 2, (2, 2));
        }
    }
}

/// `s` at 1, 2 and 4 workers; every count must reproduce the 1-worker
/// baseline, which is returned.
fn sweep(g: &mut Grid, s: &Setup) -> Option<CampaignResult> {
    let engine = if s.reference { "reference" } else { "decoded" };
    let label = format!("{engine} shards=1");
    let run = || s.run(1, |c| c);
    let want = g.timed(s.target, label, Role::Numerator, run, |r| {
        sound_baseline(r, s.witnesses)
    })?;
    for (shards, role) in [(2, Role::Untimed), (4, Role::Denominator)] {
        let label = format!("{engine} shards={shards}");
        g.timed(
            s.target,
            label,
            role,
            || s.run(shards, |c| c),
            |r| same(r, &want, BOTH),
        );
    }
    Some(want)
}

fn kill_and_resume(
    g: &mut Grid,
    s: &Setup,
    want: &CampaignResult,
    kill_at: u64,
    legs: (usize, usize),
) {
    let label = format!("kill@{kill_at} shards={}→{}", legs.0, legs.1);
    let inproc = Isolation::InProcess;
    g.cell(s.target, label, || {
        same(
            &s.kill_and_resume(kill_at, (legs.0, inproc), (legs.1, inproc))?,
            want,
            BOTH,
        )
    });
}

/// The cost ratio (1-worker over 4-worker wall clock, the speedup)
/// divided by `min(4, host cores)`: the share of achievable linear
/// scaling realized. On a single-core host the ideal is 1.0 and this
/// gates overhead neutrality instead.
pub fn scaling_efficiency(cells: &[Cell]) -> Option<f64> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Some(super::cost_ratio(cells)? / cores.min(4) as f64)
}
