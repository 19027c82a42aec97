//! Golden equivalence: the decoded-bytecode engine — with and without the
//! decode-time optimizer — must be observably indistinguishable from the
//! reference AST-walking interpreter.
//!
//! "Observable" means everything a campaign can see or persist: execution
//! counts, the simulated cycle clock, the accumulated coverage hash, crash
//! sites, and the bytes of checkpoint snapshots (`ckpt-*`). Two targets are exercised in depth: `giftext` (bug-free,
//! deep format loop) and `gpmf-parser` (planted bugs, so real crash sites
//! flow through both engines); every bundled target runs the same legs at
//! a smoke budget. Below the campaign level, trapping `Chain` components
//! are swept across every fuel position.
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
use fir::{BinOp, Module};
use vmos::decoded::{ChainComp, DOp};
use vmos::{
    CallOutcome, CallResult, CovMap, CrashKind, DecodeOptGuard, DecodedImage, HostCtx, Machine, Os,
    ReferenceEngineGuard,
};

const BUDGET: u64 = 3_000_000;
/// Per-target budget of the all-targets smoke legs.
const SMOKE_BUDGET: u64 = 400_000;

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
    cfg_with_budget(BUDGET)
}

fn cfg_with_budget(budget_cycles: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn campaign(target: &targets::TargetSpec, engine: Engine) -> CampaignResult {
    campaign_with_budget(target, engine, BUDGET)
}

fn campaign_with_budget(
    target: &targets::TargetSpec,
    engine: Engine,
    budget_cycles: u64,
) -> CampaignResult {
    let _guards = engine.pin();
    let m = target.module();
    let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let seeds = (target.seeds)();
    Campaign::new(&seeds, &cfg_with_budget(budget_cycles))
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

#[test]
fn every_target_is_bit_identical_across_engines_at_smoke_budget() {
    for t in targets::all() {
        let reference = campaign_with_budget(t, Engine::Reference, SMOKE_BUDGET);
        assert!(
            reference.execs > 0,
            "{}: campaign must actually run",
            t.name
        );
        for engine in [Engine::DecodedPlain, Engine::DecodedOpt] {
            let leg = campaign_with_budget(t, engine, SMOKE_BUDGET);
            assert_observables_equal(&leg, &reference, &format!("{} [{}]", t.name, engine.name()));
        }
    }
}

/// Run `main(arg)` with `fuel` on `engine` in a fresh process.
fn call_main(m: &Module, img: &DecodedImage, engine: Engine, arg: i64, fuel: u64) -> CallOutcome {
    let _guards = engine.pin();
    let mut os = Os::new();
    let (mut p, _) = os.spawn(m);
    let mut cov = CovMap::new();
    let mut ctx = HostCtx::new(&mut os, &mut cov);
    Machine::with_image(m, img).call(&mut p, &mut ctx, "main", &[arg], fuel)
}

/// Compile `src`, check that `main`'s optimized stream holds a `Chain`
/// whose executable component `k > 0` is the trapping kind `trap`, and
/// sweep fuel
/// over every position until the chain runs block-charged — so across
/// its boundary (`rest - 1`, `rest`, `rest + 1` left after its head) —
/// requiring both decoded streams to match the reference in result,
/// crash site, `insts` and `cycles`.
fn chain_trap_sweep(src: &str, arg: i64, trap: fn(&ChainComp) -> bool, kind: CrashKind) {
    let m = minic::compile("chain_trap", src).expect("MinC source compiles");
    let img = DecodedImage::new(&m);
    let main = &img.opt_funcs[m.function_id("main").expect("main").0 as usize];
    let rest = main
        .ops
        .iter()
        .find_map(|op| match op {
            DOp::Chain { comps, rest, .. } if comps.iter().skip(1).any(trap) => Some(*rest),
            _ => None,
        })
        .unwrap_or_else(|| {
            panic!(
                "the trap must sit in a chain, after its head: {:?}",
                main.ops
            )
        });
    let full = call_main(&m, &img, Engine::Reference, arg, u64::MAX);
    assert_eq!(
        full.result.crash().map(|c| c.kind),
        Some(kind),
        "{:?}",
        full.result
    );
    // Every exec reaching the chain's head has charged less than the
    // crash's total, so this bound passes `rest + 1` left after the head.
    fuel_sweep(&m, &img, arg, full.insts + rest + 1);
}

/// Run `main(arg)` at every fuel in `1..=max_fuel`, requiring both
/// decoded streams to match the reference in result, crash site, `insts`
/// and `cycles`.
fn fuel_sweep(m: &Module, img: &DecodedImage, arg: i64, max_fuel: u64) {
    for fuel in 1..=max_fuel {
        let reference = call_main(m, img, Engine::Reference, arg, fuel);
        for engine in [Engine::DecodedPlain, Engine::DecodedOpt] {
            let leg = call_main(m, img, engine, arg, fuel);
            let what = format!("arg {arg}, fuel {fuel} [{}]", engine.name());
            assert_eq!(
                leg.result, reference.result,
                "{what}: result and crash site"
            );
            assert_eq!(leg.insts, reference.insts, "{what}: insts");
            assert_eq!(leg.cycles, reference.cycles, "{what}: cycles");
        }
    }
}

/// `setjmp`/`longjmp` and call-depth overflow: the frame-stack transitions
/// that move register windows the most. `main` keeps a live register
/// across a `setjmp`; with `arg <= 5`, `leaf` — three frames below `main`,
/// with live registers in every frame between — `longjmp`s back, and
/// `main` returns the jumped value plus its own register. With `arg > 5`,
/// the landing recurses until the call depth overflows. Both paths are
/// swept at every fuel up to completion.
#[test]
fn setjmp_longjmp_and_stack_overflow_match_reference_at_every_fuel() {
    let m = minic::compile(
        "jumps",
        "global jb[64];
         fn leaf(x) {
             var a = x * 3 + 1;
             var b = a + 7;
             if (x > 2) { longjmp(jb, a * 100 + b); }
             return a + b;
         }
         fn mid(x) {
             var m = x + 100;
             var r = leaf(x + 1);
             return m + r;
         }
         fn top(x) {
             var t = x * 5;
             var r = mid(x + 1);
             return t + r;
         }
         fn recurse(n) {
             var k = n + 1;
             return recurse(k) + k;
         }
         fn main(arg) {
             var live = arg * 11;
             var v = setjmp(jb);
             if (v != 0) {
                 if (arg > 5) { return recurse(live) + v; }
                 return v + live;
             }
             var r = top(arg);
             return r + live;
         }",
    )
    .expect("MinC source compiles");
    let img = DecodedImage::new(&m);
    // arg 1: leaf sees x = 3, a = 10, b = 17, and jumps with 1017.
    let jumped = call_main(&m, &img, Engine::Reference, 1, u64::MAX);
    assert_eq!(jumped.result, CallResult::Return(1017 + 11));
    fuel_sweep(&m, &img, 1, jumped.insts + 1);
    let overflow = call_main(&m, &img, Engine::Reference, 7, u64::MAX);
    let crash = overflow.result.crash().expect("recursion overflows");
    assert_eq!(crash.kind, CrashKind::StackOverflow);
    assert_eq!(
        crash.detail,
        format!("call depth {}", vmos::process::MAX_CALL_DEPTH)
    );
    fuel_sweep(&m, &img, 7, overflow.insts + 1);
}

#[test]
fn chain_division_trap_matches_reference_at_every_fuel() {
    chain_trap_sweep(
        "global g;
         fn main(d) {
             var a = g + 1;
             var b = a * 3;
             var c = b / d;
             g = c + b;
             return c;
         }",
        0,
        |c| {
            matches!(
                c,
                ChainComp::BinRR {
                    op: BinOp::SDiv,
                    ..
                }
            )
        },
        CrashKind::DivisionByZero,
    );
}

#[test]
fn chain_heap_oob_load_matches_reference_at_every_fuel() {
    chain_trap_sweep(
        "fn main(i) {
             var p = malloc(16);
             var x = i + 1;
             var y = x * 2;
             var v = load64(p + y);
             return v + y;
         }",
        5,
        |c| matches!(c, ChainComp::LoadR { .. } | ChainComp::LoadI { .. }),
        CrashKind::OutOfBoundsAccess,
    );
}

#[test]
fn chain_rodata_store_matches_reference_at_every_fuel() {
    chain_trap_sweep(
        "const global RO = \"abcdefgh\";
         fn main(v) {
             var a = v + 1;
             var b = a * 2;
             store8(RO + 1, b);
             return b;
         }",
        3,
        |c| {
            matches!(
                c,
                ChainComp::StoreRR { .. }
                    | ChainComp::StoreRI { .. }
                    | ChainComp::StoreIR { .. }
                    | ChainComp::StoreII { .. }
            )
        },
        CrashKind::InvalidWrite,
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
        reference.iter().filter(|(n, _)| n.starts_with("ckpt-")).count() >= 2,
        "comparison must cover two or more snapshot generations"
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
