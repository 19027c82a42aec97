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

use std::path::Path;

use aflrs::{
    Campaign, CampaignError, CampaignResult, CheckpointConfig, Isolation, SupervisorConfig,
};
use closurex::executor::{Executor, ExecutorFactory};
use closurex::resilience::HarnessError;
use vmos::{OrchFaultKind, OrchFaultPlan, PlanKind, ProcFaultKind, ProcFaultPlan};

use super::{
    budget, cfg, corpus, ensure, in_scratch, recovered_once, same, sound_baseline, Block, Cell,
    Grid, Part, Role, Setup, Size,
};
use crate::{factory_spec, Mechanism, MechanismFactory};

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
            a_refused_worker_spec_is_a_typed_worker_failure,
            shard_snapshots_are_byte_identical_across_isolation_modes,
            a_retired_lane_is_retired_identically_in_both_modes,
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

/// A worker whose parser refuses its factory spec ends the campaign in
/// the typed worker failure, carrying the worker's own message.
pub fn a_refused_worker_spec_is_a_typed_worker_failure(g: &mut Grid) {
    /// Builds giftext executors but hands workers a spec naming a target
    /// no build bundles.
    struct Unbundled(MechanismFactory);
    impl ExecutorFactory for Unbundled {
        fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
            self.0.build()
        }
        fn worker_spec(&self) -> Option<Vec<u8>> {
            Some(factory_spec(Mechanism::ClosureX, "no-such-target"))
        }
    }
    g.cell("giftext", "refused worker spec", || {
        let target = targets::by_name("giftext").expect("bundled target");
        let factory = Unbundled(MechanismFactory::new(Mechanism::ClosureX, target));
        let seeds = corpus("giftext", false);
        let run = Campaign::new(&seeds, &cfg(1, 1_000_000))
            .factory(&factory)
            .lanes(2)
            .isolation(Isolation::Process)
            .run();
        let want = "worker spec rejected: unknown target \"no-such-target\" in worker spec";
        match run {
            Err(CampaignError::WorkerFailed(msg)) => ensure(msg == want, || {
                format!("worker message {msg:?}, want {want:?}")
            }),
            other => Err(format!("expected a typed worker failure, got {other:?}")),
        }
    });
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

/// A checkpointed campaign leaves the same shard snapshots, name for name
/// and byte for byte, whichever isolation mode ran its lanes: a snapshot
/// records what the lanes computed, not where they ran.
pub fn shard_snapshots_are_byte_identical_across_isolation_modes(g: &mut Grid) {
    let gpmf = test_setup("gpmf-parser");
    let snapshots = |iso: Isolation| {
        in_scratch("snapshots", |dir| {
            let ck = CheckpointConfig {
                keep_snapshots: 1000, // keep every epoch's snapshot
                ..CheckpointConfig::new(dir)
            };
            gpmf.run(2, |c| c.isolation(iso).checkpoint(ck))?;
            shard_snapshots(dir)
        })
    };
    let Some(want) = g.cell(gpmf.target, "in-process snapshots", || {
        snapshots(Isolation::InProcess)
    }) else {
        return;
    };
    g.cell(gpmf.target, "process snapshots = in-process", || {
        let got = snapshots(Isolation::Process)?;
        ensure(got.len() == EPOCHS as usize + 1, || {
            format!("expected {} snapshots, got {got:?}", EPOCHS + 1)
        })?;
        ensure(got == want, || {
            format!("snapshots differ: in-process {want:?}, process {got:?}")
        })
    });
}

/// `(name, length, FNV-1a)` of every `shard-ckpt-*` file in `dir`, by name.
fn shard_snapshots(dir: &Path) -> Result<Vec<(String, usize, u64)>, String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with("shard-ckpt-") {
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            out.push((name.to_string(), bytes.len(), vmos::wire::fnv1a(&bytes)));
        }
    }
    out.sort();
    Ok(out)
}

/// A lane that panics on every attempt at (2, 1), past a retry budget of
/// 2, is retired the same way in both isolation modes: the same outcome,
/// and the same degradation record.
pub fn a_retired_lane_is_retired_identically_in_both_modes(g: &mut Grid) {
    let s = test_setup("giftext");
    let mut faults = OrchFaultPlan::at((2, 1), OrchFaultKind::WorkerPanic);
    faults.targeted[0].fires = 10;
    let sup = SupervisorConfig {
        max_lane_retries: 2,
        faults,
        ..SupervisorConfig::default()
    };
    let retired = |iso: Isolation| {
        let r = s.run(2, |c| c.isolation(iso).supervision(sup.clone()))?;
        let n = r.resilience.supervision.degradations.len();
        ensure(n == 1, || {
            format!("{iso:?}: expected one retired lane, got {n}")
        })?;
        Ok(r)
    };
    let Some(want) = g.cell(s.target, "panic x10 at (2, 1) in-process", || {
        retired(Isolation::InProcess)
    }) else {
        return;
    };
    g.cell(s.target, "panic x10 at (2, 1) process = in-process", || {
        let got = retired(Isolation::Process)?;
        same(&got, &want, &[Block::Storage])?;
        let (w, g) = (&want.resilience.supervision, &got.resilience.supervision);
        ensure(w.degradations == g.degradations, || {
            format!(
                "degradations differ: in-process {:?}, process {:?}",
                w.degradations, g.degradations
            )
        })
    });
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
