//! Process plane: a sharded campaign with every lane in its own supervised
//! child process (`Isolation::Process`) matches the in-process engine on
//! the same lane decomposition, on both engines and at any worker count.
//! A worker that dies in any ugly way — SIGKILL, `abort()`, an OOM exit, a
//! stall past the read deadline, a corrupted frame — at any `(lane,
//! epoch)` is contained and erased from the result but for the
//! supervision report; one that keeps dying retires its lane with a typed
//! degradation. A checkpointed campaign killed under one isolation mode
//! resumes under the other to the uninterrupted result.
//!
//! Every binary that runs this grid must install
//! [`aflrs::worker_main_hook`] first: lane workers re-exec it.
//!
//! Cost ratio: mean faulted campaign wall clock over the clean
//! process-mode one, without stall cells (a stall costs the read deadline
//! by construction).

use aflrs::{CampaignResult, Isolation, SupervisorConfig};
use vmos::{PlanKind, ProcFaultKind, ProcFaultPlan};

use super::{
    budget, ensure, recovered_once, same, sound_baseline, Block, Cell, Grid, Part, Role, Setup,
    Size,
};

const LANES: usize = 4;
const EPOCHS: u64 = 4;

/// The supervisor's pipe-read deadline at test and smoke size. Stall
/// cells cost exactly this much wall clock, so it sits well below the
/// production default while staying far above a legitimate epoch's
/// compute time.
const SMOKE_DEADLINE_MS: u64 = 2_000;

/// Every way a worker dies but SIGKILL.
const DEATHS: [ProcFaultKind; 4] = [
    ProcFaultKind::Abort,
    ProcFaultKind::Oom,
    ProcFaultKind::Stall,
    ProcFaultKind::GarbageFrame,
];

/// The process grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            process_matches_in_process_on_giftext,
            process_matches_in_process_on_gpmf_with_crashes,
            process_identity_holds_on_reference_engine,
            sigkill_recovery_is_exact_everywhere,
            every_worker_death_recovers_exactly,
            repeated_aborts_degrade_the_lane_not_the_campaign,
            kill_and_resume_crosses_isolation_modes,
        ],
        Size::Smoke | Size::Full => &[death_grid],
    };
    super::run(size, parts)
}

/// The lane diagonal, which touches every lane and every epoch.
fn diagonal() -> Vec<(u64, u64)> {
    (0..EPOCHS).map(|i| (i, i)).collect()
}

/// Every `(lane, epoch)`.
fn everywhere() -> Vec<(u64, u64)> {
    (0..LANES as u64)
        .flat_map(|l| (0..EPOCHS).map(move |e| (l, e)))
        .collect()
}

/// The test-size campaign on `target` (gpmf with its bug witnesses).
fn test_setup(target: &'static str) -> Setup {
    Setup {
        witnesses: target == "gpmf-parser",
        lanes: Some((LANES, EPOCHS)),
        ..Setup::new(target, 0xC0FFEE, 3_000_000)
    }
}

/// Process mode matches in-process on giftext.
pub fn process_matches_in_process_on_giftext(g: &mut Grid) {
    identity(g, &test_setup("giftext"));
}

/// Process mode matches in-process on gpmf, crash records and all.
pub fn process_matches_in_process_on_gpmf_with_crashes(g: &mut Grid) {
    identity(g, &test_setup("gpmf-parser"));
}

/// The engine choice crosses the process boundary in the Hello frame.
pub fn process_identity_holds_on_reference_engine(g: &mut Grid) {
    let s = Setup {
        reference: true,
        ..test_setup("giftext")
    };
    identity(g, &s);
}

/// A SIGKILLed worker at any `(lane, epoch)` is recovered exactly.
pub fn sigkill_recovery_is_exact_everywhere(g: &mut Grid) {
    let (s, sup) = (test_setup("giftext"), SupervisorConfig::default());
    if let Some(want) = clean(g, &s, 1, &sup) {
        faulted(g, &s, &want, 1, &[ProcFaultKind::Kill], &everywhere(), &sup);
    }
}

/// Every other way to die, on the lane diagonal, is recovered exactly.
pub fn every_worker_death_recovers_exactly(g: &mut Grid) {
    let (s, sup) = (test_setup("giftext"), deadline(SMOKE_DEADLINE_MS));
    if let Some(want) = clean(g, &s, 1, &sup) {
        faulted(g, &s, &want, 1, &DEATHS, &diagonal(), &sup);
    }
}

/// A worker that keeps aborting retires its lane.
pub fn repeated_aborts_degrade_the_lane_not_the_campaign(g: &mut Grid) {
    degrade(g, &test_setup("giftext"), 1, &SupervisorConfig::default());
}

/// A checkpoint written under one isolation mode resumes under the other,
/// killed off any epoch boundary: the checkpoint does not know where
/// lanes ran.
pub fn kill_and_resume_crosses_isolation_modes(g: &mut Grid) {
    let gpmf = test_setup("gpmf-parser");
    let Some(want) = g.cell(gpmf.target, "in-process shards=1", || gpmf.run(1, |c| c)) else {
        return;
    };
    let (p, i) = (Isolation::Process, Isolation::InProcess);
    for (first, second) in [(p, p), (p, i), (i, p)] {
        g.cell(
            gpmf.target,
            format!("kill@97 {first:?} → resume {second:?}"),
            || {
                same(
                    &gpmf.kill_and_resume(97, (2, first), (4, second))?,
                    &want,
                    &[Block::Storage],
                )
            },
        );
    }
}

/// The smoke and full grid at 2 workers: process against in-process, then
/// every non-SIGKILL death on the lane diagonal (smoke) or everywhere
/// (full, which adds gpmf and a production-scale read deadline), and a
/// retired lane.
fn death_grid(g: &mut Grid) {
    let full = g.size() == Size::Full;
    let targets: &[&'static str] = if full {
        &["giftext", "gpmf-parser"]
    } else {
        &["giftext"]
    };
    let sup = deadline(if full { 8_000 } else { SMOKE_DEADLINE_MS });
    let at = if full { everywhere() } else { diagonal() };
    for &target in targets {
        let s = Setup {
            lanes: Some((LANES, EPOCHS)),
            ..Setup::new(target, 0x150_1A7E, budget(g.size(), 6_000_000))
        };
        g.cell(target, "warm-up", || s.run(2, |c| c));
        let Some(inproc) = g.cell(target, "in-process shards=2", || s.run(2, |c| c)) else {
            continue;
        };
        let Some(want) = clean(g, &s, 2, &sup) else {
            continue;
        };
        g.check(
            target,
            "process = in-process",
            same(&want, &inproc, &[Block::Storage]),
        );
        faulted(g, &s, &want, 2, &DEATHS, &at, &sup);
        degrade(g, &s, 2, &sup);
    }
}

fn deadline(ms: u64) -> SupervisorConfig {
    SupervisorConfig {
        read_deadline_ms: ms,
        ..SupervisorConfig::default()
    }
}

/// The unfaulted process-mode run of `s`: the cost ratio's denominator.
fn clean(g: &mut Grid, s: &Setup, shards: usize, sup: &SupervisorConfig) -> Option<CampaignResult> {
    let run = || {
        s.run(shards, |c| {
            c.isolation(Isolation::Process).supervision(sup.clone())
        })
    };
    g.timed(
        s.target,
        format!("process shards={shards}"),
        Role::Denominator,
        run,
        |r| sound_baseline(r, s.witnesses),
    )
}

/// The in-process run of `s` against process mode at 1, 2 and 4 workers.
fn identity(g: &mut Grid, s: &Setup) {
    let engine = if s.reference { " reference" } else { "" };
    let run = || s.run(1, |c| c);
    let label = format!("in-process shards=1{engine}");
    let Some(want) = g.timed(s.target, label, Role::Untimed, run, |r| {
        sound_baseline(r, s.witnesses)
    }) else {
        return;
    };
    for n in [1, 2, 4] {
        g.cell(s.target, format!("process shards={n}{engine}"), || {
            let r = s.run(n, |c| c.isolation(Isolation::Process))?;
            same(&r, &want, &[Block::Storage])?;
            sound_baseline(&r, s.witnesses)
        });
    }
}

/// One cell per kind × `(lane, epoch)`: the worker death must be
/// recovered exactly once (see [`recovered_once`]).
fn faulted(
    g: &mut Grid,
    s: &Setup,
    want: &CampaignResult,
    shards: usize,
    kinds: &[ProcFaultKind],
    at: &[(u64, u64)],
    sup: &SupervisorConfig,
) {
    for &kind in kinds {
        // A stall costs the read deadline by construction: keep it out of
        // the cost ratio.
        let role = if kind == ProcFaultKind::Stall {
            Role::Untimed
        } else {
            Role::Numerator
        };
        for &(lane, epoch) in at {
            let sup = SupervisorConfig {
                proc_faults: ProcFaultPlan::at((lane, epoch), kind),
                ..sup.clone()
            };
            let run = || s.run(shards, |c| c.isolation(Isolation::Process).supervision(sup));
            let label = format!("{} at ({lane}, {epoch})", kind.name());
            g.timed(s.target, label, role, run, |r| recovered_once(r, want));
        }
    }
}

/// A worker at (2, 1) that aborts on every respawn, past a retry budget
/// of 2, retires its lane; the campaign finishes without it.
fn degrade(g: &mut Grid, s: &Setup, shards: usize, sup: &SupervisorConfig) {
    g.cell(s.target, "abort x10 at (2, 1): lane retired", || {
        let mut faults = ProcFaultPlan::at((2, 1), ProcFaultKind::Abort);
        faults.targeted[0].fires = 10;
        let sup = SupervisorConfig {
            max_lane_retries: 2,
            proc_faults: faults,
            ..sup.clone()
        };
        let r = s.run(shards, |c| c.isolation(Isolation::Process).supervision(sup))?;
        let sv = &r.resilience.supervision;
        ensure(sv.degradations.len() == 1, || format!("expected one retired lane: {sv:?}"))?;
        let d = &sv.degradations[0];
        ensure((d.lane, d.epoch) == (2, 1) && d.attempts == 3 && d.reclaimed_cycles > 0, || {
            format!("expected lane 2 retired at epoch 1 after 3 attempts, budget folded forward: {d:?}")
        })?;
        ensure(r.execs > 50, || format!("only {} execs: the survivors must keep fuzzing", r.execs))
    });
}
