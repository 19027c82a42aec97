//! Golden equivalence: the decoded-bytecode engine — with and without the
//! decode-time optimizer — must be observably indistinguishable from the
//! reference AST-walking interpreter.
//!
//! "Observable" means everything a campaign can see or persist: execution
//! counts, the simulated cycle clock, the accumulated coverage hash, crash
//! sites, and the bytes of checkpoint snapshots (`ckpt-*`) and journals
//! (`journal-*`). Two targets are exercised: `giftext` (bug-free, deep
//! format loop) and `gpmf-parser` (planted bugs, so real crash sites flow
//! through both engines).
//!
//! The gate is **three-way**:
//!
//! * **reference** — the original tree-walking interpreter, selected
//!   per-thread with [`vmos::ReferenceEngineGuard`];
//! * **plain decoded** — the decoded engine on the unoptimized 1:1
//!   streams, pinned with [`vmos::DecodeOptGuard`];
//! * **optimized decoded** — the default: superinstruction fusion, block
//!   linearization, operand pre-resolution and decode-time inlining.
//!
//! Every leg is a single-driver campaign on the test thread, which is
//! where both guards apply, so one test binary covers all three and no
//! switch position may change a single observable bit.

use aflrs::{Campaign, CampaignConfig, CampaignOutcome, CampaignResult, CheckpointConfig};
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use vmos::{DecodeOptGuard, ReferenceEngineGuard};

const BUDGET: u64 = 3_000_000;

/// Which of the three engine configurations a campaign leg runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Reference,
    DecodedPlain,
    DecodedOpt,
}

impl Engine {
    const ALL: [Engine; 3] = [Engine::Reference, Engine::DecodedPlain, Engine::DecodedOpt];

    fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::DecodedPlain => "decoded-plain",
            Engine::DecodedOpt => "decoded-opt",
        }
    }

    /// Pin this engine on the current thread until the guards drop.
    fn pin(self) -> (Option<ReferenceEngineGuard>, Option<DecodeOptGuard>) {
        match self {
            Engine::Reference => (Some(ReferenceEngineGuard::new()), None),
            Engine::DecodedPlain => (None, Some(DecodeOptGuard::new())),
            Engine::DecodedOpt => (None, None),
        }
    }
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: BUDGET,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn campaign(target: &targets::TargetSpec, engine: Engine) -> CampaignResult {
    let _guards = engine.pin();
    let m = target.module();
    let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let seeds = (target.seeds)();
    Campaign::new(&seeds, &cfg())
        .executor(&mut ex)
        .run()
        .expect("plain campaign config is always valid")
        .finished()
        .expect("no kill configured")
}

fn assert_observables_equal(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.execs, b.execs, "{what}: execs");
    assert_eq!(a.clock_cycles, b.clock_cycles, "{what}: simulated clock");
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec cycles");
    assert_eq!(a.mgmt_cycles, b.mgmt_cycles, "{what}: mgmt cycles");
    assert_eq!(a.edges_found, b.edges_found, "{what}: edges");
    assert_eq!(a.coverage_hash, b.coverage_hash, "{what}: coverage hash");
    assert_eq!(a.queue_len, b.queue_len, "{what}: queue length");
    assert_eq!(a.hangs, b.hangs, "{what}: hangs");
    assert_eq!(a.queue_inputs, b.queue_inputs, "{what}: queue inputs");
    assert_eq!(
        format!("{:?}", a.crashes),
        format!("{:?}", b.crashes),
        "{what}: crash records (site, kind, input, discovery time)"
    );
}

/// Run all three legs on `target_name` and compare each decoded leg
/// against the reference leg.
fn equivalence_on(target_name: &str) -> CampaignResult {
    let t = targets::by_name(target_name).expect("bundled target");
    let reference = campaign(t, Engine::Reference);
    assert!(reference.execs > 50, "campaign must actually run");
    for engine in [Engine::DecodedPlain, Engine::DecodedOpt] {
        let leg = campaign(t, engine);
        assert_observables_equal(
            &leg,
            &reference,
            &format!("{target_name} [{}]", engine.name()),
        );
    }
    reference
}

#[test]
fn giftext_campaign_is_bit_identical_across_engines() {
    equivalence_on("giftext");
}

#[test]
fn gpmf_campaign_with_crashes_is_bit_identical_across_engines() {
    let reference = equivalence_on("gpmf-parser");
    assert!(
        !reference.crashes.is_empty(),
        "gpmf has planted bugs; the crash-site comparison must not be vacuous"
    );
}

/// The thread-locals must not leak between legs: after a pinned campaign
/// the default engine (decoded + optimizer) is back in force.
#[test]
fn engine_pins_do_not_leak_across_legs() {
    let t = targets::by_name("giftext").expect("bundled target");
    let _ = campaign(t, Engine::Reference);
    assert!(!vmos::reference_engine());
    let _ = campaign(t, Engine::DecodedPlain);
    assert!(vmos::decode_opt());
}

/// Collect `(file name, bytes)` of every checkpoint artifact in `dir`,
/// sorted by name.
fn checkpoint_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cx-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn checkpoint_bytes_are_identical_across_engines() {
    let t = targets::by_name("giftext").expect("bundled target");
    let m = t.module();
    let mut dirs = Vec::new();
    for engine in Engine::ALL {
        let _guards = engine.pin();
        let dir = temp_dir(engine.name());
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
        let ck = CheckpointConfig {
            snapshot_every_execs: 50,
            keep_snapshots: 1000, // keep everything: compare the full history
            ..CheckpointConfig::new(&dir)
        };
        let seeds = (t.seeds)();
        let out = Campaign::new(&seeds, &cfg())
            .executor(&mut ex)
            .checkpoint(ck)
            .run()
            .expect("checkpointed campaign");
        assert!(matches!(out, CampaignOutcome::Finished(_)));
        dirs.push(dir);
    }
    let reference = checkpoint_files(&dirs[0]);
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert!(
        reference.iter().any(|(n, _)| n.starts_with("ckpt-"))
            && reference.iter().any(|(n, _)| n.starts_with("journal-")),
        "comparison must cover both snapshots and journals"
    );
    for (engine, dir) in Engine::ALL.iter().zip(&dirs).skip(1) {
        let leg = checkpoint_files(dir);
        assert_eq!(
            names(&leg),
            names(&reference),
            "same artifact set [{}]",
            engine.name()
        );
        for ((name, la), (_, ra)) in leg.iter().zip(reference.iter()) {
            assert_eq!(
                la,
                ra,
                "checkpoint artifact {name} must be byte-identical [{}]",
                engine.name()
            );
        }
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Kill a campaign mid-flight on `engine`, resume it, and require the
/// stitched-together run to match an uninterrupted reference run bit for
/// bit.
fn kill_resume_round_trip(engine: Engine) {
    let t = targets::by_name("gpmf-parser").expect("bundled target");
    let m = t.module();
    let seeds = (t.seeds)();

    // Ground truth: one uninterrupted run on the reference engine.
    let reference = campaign(t, Engine::Reference);

    let _guards = engine.pin();
    // Kill mid-campaign (off the snapshot grid), then resume.
    let dir = temp_dir(&format!("resume-{}", engine.name()));
    let mut ck = CheckpointConfig {
        snapshot_every_execs: 40,
        ..CheckpointConfig::new(&dir)
    };
    ck.kill_after_execs = Some(97);
    let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let out = Campaign::new(&seeds, &cfg())
        .executor(&mut ex)
        .checkpoint(ck.clone())
        .run()
        .expect("first leg");
    let CampaignOutcome::Killed { execs } = out else {
        panic!("kill_after_execs must fire before the budget runs out");
    };
    assert!(execs >= 97);

    ck.kill_after_execs = None;
    let mut ex2 = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let (out2, _info) = Campaign::new(&seeds, &cfg())
        .executor(&mut ex2)
        .checkpoint(ck)
        .resume()
        .expect("resume");
    let CampaignOutcome::Finished(resumed) = out2 else {
        panic!("resumed campaign must finish");
    };
    assert_observables_equal(
        &resumed,
        &reference,
        &format!("kill/resume round-trip [{}]", engine.name()),
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn kill_and_resume_on_decoded_engine_matches_uninterrupted_reference() {
    kill_resume_round_trip(Engine::DecodedPlain);
}

#[test]
fn kill_and_resume_on_optimized_engine_matches_uninterrupted_reference() {
    kill_resume_round_trip(Engine::DecodedOpt);
}

/// Cross-leg resume: a campaign killed on the **optimized** engine must
/// resume cleanly on the **plain** decoded engine (and vice versa) — the
/// checkpoint format carries no optimizer state, and the decoded-image
/// cache key's optimizer discriminant keeps the streams from aliasing.
#[test]
fn resume_crosses_engine_legs_without_divergence() {
    let t = targets::by_name("giftext").expect("bundled target");
    let m = t.module();
    let seeds = (t.seeds)();
    let reference = campaign(t, Engine::Reference);

    let dir = temp_dir("cross-resume");
    let mut ck = CheckpointConfig {
        snapshot_every_execs: 40,
        ..CheckpointConfig::new(&dir)
    };
    ck.kill_after_execs = Some(97);
    {
        let _guards = Engine::DecodedOpt.pin();
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
        let out = Campaign::new(&seeds, &cfg())
            .executor(&mut ex)
            .checkpoint(ck.clone())
            .run()
            .expect("first leg");
        assert!(matches!(out, CampaignOutcome::Killed { .. }));
    }
    ck.kill_after_execs = None;
    let _guards = Engine::DecodedPlain.pin();
    let mut ex2 = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let (out2, _info) = Campaign::new(&seeds, &cfg())
        .executor(&mut ex2)
        .checkpoint(ck)
        .resume()
        .expect("resume");
    let CampaignOutcome::Finished(resumed) = out2 else {
        panic!("resumed campaign must finish");
    };
    assert_observables_equal(&resumed, &reference, "cross-engine kill/resume");
    let _ = std::fs::remove_dir_all(dir);
}
