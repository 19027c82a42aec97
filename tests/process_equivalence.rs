//! Golden process-isolation equivalence: a sharded campaign run with
//! `Isolation::Process` — every lane in its own supervised child process,
//! speaking the checksum-framed pipe protocol — must be bit-identical to
//! the in-process engine on the same lane decomposition
//! (`CampaignResult::sans_supervision` is the comparison key), on both
//! execution engines, at any worker count. A worker SIGKILLed at *any*
//! `(lane, epoch)` grid position must recover to the exact uninterrupted
//! result, and a checkpointed campaign killed mid-run under either
//! isolation mode must resume under the *other* mode to the same result —
//! the checkpoint format is engine-neutral.
//!
//! This test is `harness = false`: the binary's `main` installs
//! [`aflrs::worker_main_hook`] first, because the supervisor spawns lane
//! workers by re-exec'ing the current executable — i.e. this test binary
//! doubles as its own worker.

use aflrs::{
    Campaign, CampaignConfig, CampaignOutcome, CampaignResult, CheckpointConfig, Isolation,
    SupervisorConfig,
};
use bench::{Mechanism, MechanismFactory};
use vmos::{ProcFaultKind, ProcFaultPlan, ReferenceEngineGuard};

const BUDGET: u64 = 3_000_000;
/// Explicit lane grid (both modes run the same schedule; smaller than the
/// campaign defaults so the SIGKILL grid stays tractable).
const LANES: usize = 4;
const EPOCHS: u64 = 4;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: BUDGET,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// Everything a campaign reports, as one comparable string.
fn fingerprint(r: &CampaignResult) -> String {
    // The resume report describes how a run was revived, not what it
    // computed — strip it so resumed results compare against clean ones.
    format!("{:?}", r.sans_resume())
}

fn corpus(t: &targets::TargetSpec, with_witnesses: bool) -> Vec<Vec<u8>> {
    let mut seeds = (t.seeds)();
    if with_witnesses {
        seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    }
    seeds
}

fn run_mode(
    t: &targets::TargetSpec,
    iso: Isolation,
    shards: usize,
    with_witnesses: bool,
    reference: bool,
    sup: Option<SupervisorConfig>,
) -> CampaignResult {
    let _guard = reference.then(ReferenceEngineGuard::new);
    let factory = MechanismFactory::new(Mechanism::ClosureX, t);
    let seeds = corpus(t, with_witnesses);
    let mut c = Campaign::new(&seeds, &cfg())
        .factory(&factory)
        .lanes(LANES)
        .sync_epochs(EPOCHS)
        .shards(shards)
        .isolation(iso);
    if let Some(sup) = sup {
        c = c.supervision(sup);
    }
    c.run()
        .expect("campaign survives supervised process faults")
        .finished()
        .expect("no kill configured")
}

fn identity_on(name: &str, with_witnesses: bool, reference: bool) -> CampaignResult {
    let t = targets::by_name(name).expect("bundled target");
    let inproc = run_mode(t, Isolation::InProcess, 1, with_witnesses, reference, None);
    assert!(inproc.execs > 50, "{name}: campaign must actually run");
    let want = fingerprint(&inproc.sans_supervision());
    // Process mode at several worker counts (the knob is ignored there —
    // every lane is its own process — but the API must stay invariant).
    for shards in [1, 2, 4] {
        let r = run_mode(t, Isolation::Process, shards, with_witnesses, reference, None);
        assert_eq!(
            fingerprint(&r.sans_supervision()),
            want,
            "{name}: process isolation (shards={shards}) must be bit-identical to in-process"
        );
        assert!(
            r.resilience.supervision.is_quiet(),
            "{name}: an unfaulted process-mode run reports no supervision activity"
        );
    }
    inproc
}

fn process_matches_in_process_on_giftext() {
    identity_on("giftext", false, false);
}

fn process_matches_in_process_on_gpmf_with_crashes() {
    let r = identity_on("gpmf-parser", true, false);
    assert!(
        !r.crashes.is_empty(),
        "gpmf has planted bugs; the cross-process crash merge must not be vacuous"
    );
}

fn process_identity_holds_on_reference_engine() {
    // The engine choice crosses the process boundary via the Hello frame.
    identity_on("giftext", false, true);
}

fn sigkill_recovery_is_exact_everywhere() {
    let t = targets::by_name("giftext").expect("bundled target");
    let clean = run_mode(t, Isolation::Process, 1, false, false, None);
    let want = fingerprint(&clean.sans_supervision());
    for lane in 0..LANES as u64 {
        for epoch in 0..EPOCHS {
            let sup = SupervisorConfig {
                proc_faults: ProcFaultPlan::at((lane, epoch), ProcFaultKind::Kill),
                ..SupervisorConfig::default()
            };
            let r = run_mode(t, Isolation::Process, 1, false, false, Some(sup));
            assert_eq!(
                fingerprint(&r.sans_supervision()),
                want,
                "giftext: SIGKILL at (lane {lane}, epoch {epoch}) must recover exactly"
            );
            assert!(
                r.resilience.supervision.faults_contained() >= 1,
                "giftext: the SIGKILL must actually land"
            );
            assert_eq!(r.resilience.supervision.recovered, 1);
            assert!(r.resilience.supervision.degradations.is_empty());
        }
    }
}

fn repeated_aborts_degrade_the_lane_not_the_campaign() {
    let t = targets::by_name("giftext").expect("bundled target");
    let mut faults = ProcFaultPlan::at((2, 1), ProcFaultKind::Abort);
    faults.targeted[0].fires = 10;
    let sup = SupervisorConfig {
        max_lane_retries: 2,
        proc_faults: faults,
        ..SupervisorConfig::default()
    };
    let r = run_mode(t, Isolation::Process, 1, false, false, Some(sup));
    let s = &r.resilience.supervision;
    assert_eq!(s.degradations.len(), 1, "exactly one lane retired");
    let d = &s.degradations[0];
    assert_eq!((d.lane, d.epoch), (2, 1));
    assert_eq!(d.attempts, 3, "initial failure + two respawn retries");
    assert!(d.reclaimed_cycles > 0, "unspent budget was folded forward");
    assert!(
        r.execs > 50,
        "the surviving lanes keep fuzzing after the degradation"
    );
}

/// Kill a checkpointed campaign mid-run under one isolation mode and
/// resume it under another: every pairing must reproduce the
/// uninterrupted result — the on-disk checkpoint does not know or care
/// where lanes execute.
fn kill_and_resume_crosses_isolation_modes() {
    let t = targets::by_name("gpmf-parser").expect("bundled target");
    let factory = MechanismFactory::new(Mechanism::ClosureX, t);
    let seeds = corpus(t, true);
    let want = fingerprint(&run_mode(t, Isolation::InProcess, 1, true, false, None));

    for (leg1, leg2) in [
        (Isolation::Process, Isolation::Process),
        (Isolation::Process, Isolation::InProcess),
        (Isolation::InProcess, Isolation::Process),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "cx-proc-resume-{}-{:?}-{:?}",
            std::process::id(),
            leg1,
            leg2
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = CheckpointConfig::new(dir.clone());
        // Off any epoch boundary: the kill lands mid-epoch and resume
        // must replay the per-lane journals of the interrupted epoch.
        ck.kill_after_execs = Some(97);
        let out = Campaign::new(&seeds, &cfg())
            .factory(&factory)
            .lanes(LANES)
            .sync_epochs(EPOCHS)
            .shards(2)
            .isolation(leg1)
            .checkpoint(ck.clone())
            .run()
            .expect("first leg");
        let CampaignOutcome::Killed { execs } = out else {
            panic!("kill_after_execs must fire before the budget runs out ({leg1:?})");
        };
        assert!(execs >= 97);

        ck.kill_after_execs = None;
        let (resumed, info) = Campaign::new(&seeds, &cfg())
            .factory(&factory)
            .lanes(LANES)
            .sync_epochs(EPOCHS)
            .shards(4)
            .isolation(leg2)
            .checkpoint(ck)
            .resume()
            .expect("resume leg");
        let CampaignOutcome::Finished(resumed) = resumed else {
            panic!("resumed campaign must finish ({leg2:?})");
        };
        assert_eq!(
            fingerprint(&resumed.sans_supervision()),
            want,
            "kill under {leg1:?} / resume under {leg2:?} must reproduce the \
             uninterrupted result; resume info: {info:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn main() {
    // Hidden worker entrypoint — must run before anything else: when the
    // supervisor under test re-execs this binary, the child serves the
    // lane protocol and exits here.
    aflrs::worker_main_hook(bench::factory_from_spec);

    let tests: &[(&str, fn())] = &[
        (
            "process_matches_in_process_on_giftext",
            process_matches_in_process_on_giftext,
        ),
        (
            "process_matches_in_process_on_gpmf_with_crashes",
            process_matches_in_process_on_gpmf_with_crashes,
        ),
        (
            "process_identity_holds_on_reference_engine",
            process_identity_holds_on_reference_engine,
        ),
        (
            "sigkill_recovery_is_exact_everywhere",
            sigkill_recovery_is_exact_everywhere,
        ),
        (
            "repeated_aborts_degrade_the_lane_not_the_campaign",
            repeated_aborts_degrade_the_lane_not_the_campaign,
        ),
        (
            "kill_and_resume_crosses_isolation_modes",
            kill_and_resume_crosses_isolation_modes,
        ),
    ];

    println!("\nrunning {} tests", tests.len());
    let mut failed = 0usize;
    for (name, f) in tests {
        use std::io::Write as _;
        print!("test {name} ... ");
        let _ = std::io::stdout().flush();
        match std::panic::catch_unwind(f) {
            Ok(()) => println!("ok"),
            Err(_) => {
                println!("FAILED");
                failed += 1;
            }
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed\n",
        if failed == 0 { "ok" } else { "FAILED" },
        tests.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
