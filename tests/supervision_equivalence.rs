//! Golden supervision equivalence: an injected lane fault — a worker
//! panic or a wedged (hung) lane, at *any* `(lane, epoch)` position — no
//! longer aborts a sharded campaign. The supervisor contains the fault,
//! rebuilds the lane's executor from the factory, re-runs the epoch from
//! its barrier snapshot, and the recovered `CampaignResult` is
//! bit-identical to the unfaulted run everywhere outside the supervision
//! report (`CampaignResult::sans_supervision` is the comparison key —
//! a recovered run necessarily *reports* its recoveries).
//!
//! Checked at `shards ∈ {1, 2, 4}` on both execution engines, plus the
//! degradation ladder: a lane that fails past its retry budget is retired
//! with a typed `LaneDegradation` and its remaining budget folded into the
//! surviving lanes — the campaign still finishes.

use aflrs::{
    Campaign, CampaignConfig, CampaignResult, SupervisorConfig, DEFAULT_LANES,
    DEFAULT_SYNC_EPOCHS,
};
use closurex::executor::{Executor, ExecutorFactory};
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::resilience::HarnessError;
use vmos::{OrchFaultKind, OrchFaultPlan, PlanKind, ReferenceEngineGuard};

const BUDGET: u64 = 3_000_000;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: BUDGET,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// Per-lane ClosureX executors over one compiled module.
struct CxFactory {
    module: fir::Module,
}

impl CxFactory {
    fn for_target(t: &targets::TargetSpec) -> Self {
        CxFactory { module: t.module() }
    }
}

impl ExecutorFactory for CxFactory {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        ClosureXExecutor::new(&self.module, ClosureXConfig::default())
            .map(|ex| Box::new(ex) as Box<dyn Executor + Send>)
            .map_err(|e| HarnessError::BootFailed(e.to_string()))
    }
}

/// Everything a campaign reports, as one comparable string.
fn fingerprint(r: &CampaignResult) -> String {
    format!("{:?}", r.sans_resume())
}

fn corpus(t: &targets::TargetSpec, with_witnesses: bool) -> Vec<Vec<u8>> {
    let mut seeds = (t.seeds)();
    if with_witnesses {
        seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    }
    seeds
}

fn supervised(
    t: &targets::TargetSpec,
    shards: usize,
    with_witnesses: bool,
    reference: bool,
    sup: Option<SupervisorConfig>,
) -> CampaignResult {
    let _guard = reference.then(ReferenceEngineGuard::new);
    let factory = CxFactory::for_target(t);
    let seeds = corpus(t, with_witnesses);
    let mut c = Campaign::new(&seeds, &cfg()).factory(&factory).shards(shards);
    if let Some(sup) = sup {
        c = c.supervision(sup);
    }
    c.run()
        .expect("sharded campaign survives injected lane faults")
        .finished()
        .expect("no kill configured")
}

fn plan_for(lane: u64, epoch: u64, kind: OrchFaultKind) -> SupervisorConfig {
    SupervisorConfig {
        faults: OrchFaultPlan::at((lane, epoch), kind),
        ..SupervisorConfig::default()
    }
}

/// Inject `kind` at every `(lane, epoch)` grid position in turn and demand
/// recovery is exact at every worker count.
fn recovery_exact_on(name: &str, with_witnesses: bool, reference: bool, kind: OrchFaultKind) {
    let t = targets::by_name(name).expect("bundled target");
    let clean = supervised(t, 1, with_witnesses, reference, None);
    assert!(clean.execs > 50, "{name}: campaign must actually run");
    assert!(
        clean.resilience.supervision.is_quiet(),
        "{name}: an unfaulted run reports no supervision activity"
    );
    let want = fingerprint(&clean.sans_supervision());
    // The full grid at shards=1, a diagonal at the other worker counts
    // (the grid is O(lanes × epochs) campaigns; the diagonal still covers
    // every lane and every epoch).
    for lane in 0..DEFAULT_LANES as u64 {
        for epoch in 0..DEFAULT_SYNC_EPOCHS {
            let r = supervised(t, 1, with_witnesses, reference, Some(plan_for(lane, epoch, kind)));
            assert_eq!(
                fingerprint(&r.sans_supervision()),
                want,
                "{name}: {} at (lane {lane}, epoch {epoch}) must recover exactly",
                kind.name()
            );
            assert!(
                r.resilience.supervision.faults_contained() >= 1,
                "{name}: the injected fault must actually fire"
            );
            assert_eq!(r.resilience.supervision.recovered, 1);
            assert!(r.resilience.supervision.degradations.is_empty());
        }
    }
    for shards in [2, 4] {
        let lane = (shards as u64) % DEFAULT_LANES as u64;
        let epoch = (shards as u64) % DEFAULT_SYNC_EPOCHS;
        let r = supervised(
            t,
            shards,
            with_witnesses,
            reference,
            Some(plan_for(lane, epoch, kind)),
        );
        assert_eq!(
            fingerprint(&r.sans_supervision()),
            want,
            "{name}: {} recovery must stay exact at shards={shards}",
            kind.name()
        );
        assert!(r.resilience.supervision.faults_contained() >= 1);
    }
}

#[test]
fn giftext_panic_recovery_is_exact_everywhere() {
    recovery_exact_on("giftext", false, false, OrchFaultKind::WorkerPanic);
}

#[test]
fn giftext_hang_recovery_is_exact_everywhere() {
    recovery_exact_on("giftext", false, false, OrchFaultKind::LaneHang);
}

#[test]
fn gpmf_panic_recovery_is_exact_with_crashes() {
    let t = targets::by_name("gpmf-parser").expect("bundled target");
    let clean = supervised(t, 1, true, false, None);
    assert!(
        !clean.crashes.is_empty(),
        "gpmf has planted bugs; recovery over a crashing corpus must not be vacuous"
    );
    recovery_exact_on("gpmf-parser", true, false, OrchFaultKind::WorkerPanic);
}

#[test]
fn recovery_is_exact_on_reference_engine() {
    let t = targets::by_name("giftext").expect("bundled target");
    let clean = supervised(t, 1, false, true, None);
    let want = fingerprint(&clean.sans_supervision());
    for kind in [OrchFaultKind::WorkerPanic, OrchFaultKind::LaneHang] {
        let r = supervised(t, 2, false, true, Some(plan_for(1, 2, kind)));
        assert_eq!(
            fingerprint(&r.sans_supervision()),
            want,
            "reference engine: {} recovery must be exact",
            kind.name()
        );
        assert!(r.resilience.supervision.faults_contained() >= 1);
    }
}

#[test]
fn barrier_timeout_recovery_is_exact() {
    let t = targets::by_name("giftext").expect("bundled target");
    let clean = supervised(t, 2, false, false, None);
    let want = fingerprint(&clean.sans_supervision());
    let r = supervised(
        t,
        2,
        false,
        false,
        Some(plan_for(2, 1, OrchFaultKind::BarrierTimeout)),
    );
    assert_eq!(fingerprint(&r.sans_supervision()), want);
    assert_eq!(r.resilience.supervision.barrier_timeouts, 1);
    assert_eq!(r.resilience.supervision.recovered, 1);
}

#[test]
fn repeated_failures_degrade_the_lane_not_the_campaign() {
    let t = targets::by_name("giftext").expect("bundled target");
    // Fail lane 1 at epoch 0 more times than the retry budget allows: the
    // lane is retired, its budget folds into the survivors, and the
    // campaign still finishes with a typed degradation report.
    let mut faults = OrchFaultPlan::at((1, 0), OrchFaultKind::WorkerPanic);
    faults.targeted[0].fires = 10;
    let sup = SupervisorConfig {
        max_lane_retries: 2,
        faults,
        ..SupervisorConfig::default()
    };
    let r = supervised(t, 2, false, false, Some(sup));
    let s = &r.resilience.supervision;
    assert_eq!(s.degradations.len(), 1, "exactly one lane retired");
    let d = &s.degradations[0];
    assert_eq!((d.lane, d.epoch), (1, 0));
    assert_eq!(d.attempts, 3, "initial failure + two rebuild retries");
    assert_eq!(d.last_fault, "panic");
    assert!(d.reclaimed_cycles > 0, "unspent budget was folded forward");
    assert!(s.lane_panics >= 3);
    assert!(
        r.execs > 50,
        "the surviving lanes keep fuzzing after the degradation"
    );
}
