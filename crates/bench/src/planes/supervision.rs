//! Supervision plane: an injected lane fault — a worker panic, a wedged
//! lane, a barrier timeout — at any `(lane, epoch)` no longer aborts a
//! sharded campaign. The supervisor contains it, rebuilds the lane from
//! its barrier snapshot and re-runs the epoch, and the result matches the
//! unfaulted run everywhere but the supervision report. A lane that fails
//! past its retry budget is retired with a typed degradation while the
//! campaign finishes.
//!
//! Cost ratio: mean faulted campaign wall clock over the unfaulted one.

use aflrs::{SupervisorConfig, DEFAULT_LANES, DEFAULT_SYNC_EPOCHS};
use vmos::{OrchFaultKind, OrchFaultPlan, PlanKind};

use super::{budget, ensure, recovered_once, sound_baseline, Cell, Grid, Part, Role, Setup, Size};

/// The supervision grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            giftext_panic_recovery_is_exact_everywhere,
            giftext_hang_recovery_is_exact_everywhere,
            gpmf_panic_recovery_is_exact_with_crashes,
            recovery_is_exact_on_reference_engine,
            barrier_timeout_recovery_is_exact,
            repeated_failures_degrade_the_lane_not_the_campaign,
        ],
        Size::Smoke | Size::Full => &[lane_grid],
    };
    super::run(size, parts)
}

/// The test-size campaign on `target`, on the default lane shape.
fn test_setup(target: &'static str) -> Setup {
    Setup {
        witnesses: target == "gpmf-parser",
        ..Setup::new(target, 0xC0FFEE, 3_000_000)
    }
}

/// `kind` at every default `(lane, epoch)` on 1 worker, and on one
/// diagonal cell each at 2 and 4 workers.
fn everywhere(g: &mut Grid, target: &'static str, kind: OrchFaultKind) {
    let (lanes, epochs) = (DEFAULT_LANES as u64, DEFAULT_SYNC_EPOCHS);
    let grid = (0..lanes).flat_map(|l| (0..epochs).map(move |e| (kind, 1, l, e)));
    let diagonal = [2, 4].map(|n: usize| (kind, n, n as u64 % lanes, n as u64 % epochs));
    let cells: Vec<_> = grid.chain(diagonal).collect();
    faulted(g, &test_setup(target), 1, &cells);
}

/// A worker panic anywhere on giftext is recovered exactly.
pub fn giftext_panic_recovery_is_exact_everywhere(g: &mut Grid) {
    everywhere(g, "giftext", OrchFaultKind::WorkerPanic);
}

/// A wedged lane anywhere on giftext is recovered exactly.
pub fn giftext_hang_recovery_is_exact_everywhere(g: &mut Grid) {
    everywhere(g, "giftext", OrchFaultKind::LaneHang);
}

/// A worker panic anywhere on gpmf, whose planted bugs put crash records
/// in the result, is recovered exactly.
pub fn gpmf_panic_recovery_is_exact_with_crashes(g: &mut Grid) {
    everywhere(g, "gpmf-parser", OrchFaultKind::WorkerPanic);
}

/// Recovery is exact on the AST-walking reference engine too.
pub fn recovery_is_exact_on_reference_engine(g: &mut Grid) {
    let s = Setup {
        reference: true,
        ..test_setup("giftext")
    };
    let (panic, hang) = (OrchFaultKind::WorkerPanic, OrchFaultKind::LaneHang);
    faulted(g, &s, 1, &[(panic, 2, 1, 2), (hang, 2, 1, 2)]);
}

/// A barrier that times out is recovered exactly.
pub fn barrier_timeout_recovery_is_exact(g: &mut Grid) {
    let cells = [(OrchFaultKind::BarrierTimeout, 2, 2, 1)];
    faulted(g, &test_setup("giftext"), 2, &cells);
}

/// A lane that keeps failing is retired; the campaign finishes.
pub fn repeated_failures_degrade_the_lane_not_the_campaign(g: &mut Grid) {
    degrade(g, &test_setup("giftext"), (1, 0));
}

/// The smoke and full grid on 4 lanes × 4 epochs at 2 workers: panics
/// and hangs on the lane diagonal (smoke, which still touches every lane
/// and every epoch) or everywhere (full, which adds gpmf), one barrier
/// timeout, one retired lane.
fn lane_grid(g: &mut Grid) {
    let smoke = g.size() == Size::Smoke;
    let targets: &[&'static str] = if smoke {
        &["giftext"]
    } else {
        &["giftext", "gpmf-parser"]
    };
    let (lanes, epochs) = (4, 4);
    for &target in targets {
        let s = Setup {
            lanes: Some((lanes, epochs)),
            ..Setup::new(target, 0x5AADED, budget(g.size(), 8_000_000))
        };
        g.cell(target, "warm-up", || s.run(2, |c| c));
        let mut cells: Vec<_> = [OrchFaultKind::WorkerPanic, OrchFaultKind::LaneHang]
            .into_iter()
            .flat_map(|k| {
                (0..lanes as u64).flat_map(move |l| (0..epochs).map(move |e| (k, 2, l, e)))
            })
            .filter(|&(_, _, l, e)| !smoke || l == e)
            .collect();
        cells.push((OrchFaultKind::BarrierTimeout, 2, 1, epochs - 1));
        faulted(g, &s, 2, &cells);
        degrade(g, &s, (2, 1));
    }
}

/// The unfaulted run of `s` at `baseline` workers (the cost ratio's
/// denominator), then one cell per `(kind, shards, lane, epoch)`: the
/// fault must be recovered exactly once (see [`recovered_once`]).
fn faulted(g: &mut Grid, s: &Setup, baseline: usize, cells: &[(OrchFaultKind, usize, u64, u64)]) {
    let engine = if s.reference { " reference" } else { "" };
    let label = format!("unfaulted shards={baseline}{engine}");
    let run = || s.run(baseline, |c| c);
    let Some(want) = g.timed(s.target, label, Role::Denominator, run, |r| {
        sound_baseline(r, s.witnesses)
    }) else {
        return;
    };
    for &(kind, shards, lane, epoch) in cells {
        let sup = SupervisorConfig {
            faults: OrchFaultPlan::at((lane, epoch), kind),
            ..SupervisorConfig::default()
        };
        let label = format!("{} at ({lane}, {epoch}) shards={shards}", kind.name());
        let run = || s.run(shards, |c| c.supervision(sup));
        g.timed(s.target, label, Role::Numerator, run, |r| {
            recovered_once(r, &want)?;
            let sv = &r.resilience.supervision;
            ensure(
                kind != OrchFaultKind::BarrierTimeout || sv.barrier_timeouts == 1,
                || format!("expected one barrier timeout: {sv:?}"),
            )
        });
    }
}

/// Panic the lane at `at` on every attempt, past a retry budget of 2, on
/// 2 workers: the lane must be retired with a typed degradation, its
/// budget folded into the survivors, and the campaign must still finish.
fn degrade(g: &mut Grid, s: &Setup, at: (u64, u64)) {
    g.cell(s.target, format!("panic x10 at {at:?}: lane retired"), || {
        let mut faults = OrchFaultPlan::at(at, OrchFaultKind::WorkerPanic);
        faults.targeted[0].fires = 10;
        let sup = SupervisorConfig {
            max_lane_retries: 2,
            faults,
            ..SupervisorConfig::default()
        };
        let r = s.run(2, |c| c.supervision(sup))?;
        let sv = &r.resilience.supervision;
        ensure(sv.degradations.len() == 1, || format!("expected one retired lane: {sv:?}"))?;
        let d = &sv.degradations[0];
        ensure(
            (d.lane, d.epoch) == at
                && d.attempts == 3
                && d.last_fault == "panic"
                && d.reclaimed_cycles > 0
                && sv.lane_panics >= 3,
            || format!("expected the lane at {at:?} retired after 3 panics, budget folded forward: {d:?}"),
        )?;
        ensure(r.execs > 50, || format!("only {} execs: the survivors must keep fuzzing", r.execs))
    });
}
