//! Property-based tests for the checkpoint wire format and the
//! kill-and-resume determinism guarantee.

use proptest::prelude::*;

use closurex::checkpoint::ExecutorState;
use closurex::executor::{Executor, ExecutorFactory};
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::resilience::{DegradationLevel, HarnessError};
use vmos::cov::VirginMap;
use vmos::{
    Crash, CrashKind, DiskFaultKind, DiskFaultPlan, OrchFaultKind, OrchFaultPlan, PlanKind,
};

use crate::builder::Campaign;
use crate::campaign::{CampaignConfig, Stage};
use crate::checkpoint::{
    load_snapshot, seal_snapshot, CampaignOutcome, CheckpointConfig, Scalars, SnapshotState,
};
use crate::queue::QueueEntry;
use crate::stats::{CampaignResult, CrashRecord};
use crate::supervise::SupervisorConfig;

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        any::<u16>().prop_map(|i| Stage::Seeds(usize::from(i))),
        Just(Stage::Pick),
        (any::<u16>(), any::<u16>()).prop_map(|(e, m)| Stage::Det {
            entry: usize::from(e),
            mutant: usize::from(m),
        }),
        (any::<u16>(), 0u32..64).prop_map(|(e, i)| Stage::Havoc {
            entry: usize::from(e),
            iter: i,
        }),
        Just(Stage::Done),
    ]
}

fn arb_rng_state() -> impl Strategy<Value = [u64; 4]> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        .prop_map(|(a, b, c, d)| [a, b, c | 1, d]) // avoid the all-zero state
}

fn arb_scalars() -> impl Strategy<Value = Scalars> {
    (
        (arb_stage(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (arb_rng_state(), arb_rng_state(), any::<u32>()),
    )
        .prop_map(|(a, b, c, d)| Scalars {
            stage: a.0,
            clock: u64::from(a.1),
            execs: u64::from(a.2),
            hangs: u64::from(a.3),
            mgmt_cycles: u64::from(b.0),
            exec_cycles: u64::from(b.1),
            retries: u64::from(b.2),
            dropped_inputs: u64::from(b.3),
            harness_faults: u64::from(c.0),
            consecutive_hangs: u64::from(c.1),
            watchdog_trips: u64::from(c.2),
            rng: d.0,
            backoff_rng: d.1,
            cursor: u64::from(d.2),
        })
}

fn arb_entry() -> impl Strategy<Value = QueueEntry> {
    (
        prop::collection::vec(any::<u8>(), 0..40),
        any::<u32>(),
        any::<u32>(),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|(data, cyc, at, (det, fav))| QueueEntry {
            data,
            exec_cycles: u64::from(cyc),
            found_at: u64::from(at),
            det_done: det,
            favored: fav,
        })
}

fn arb_crash_record() -> impl Strategy<Value = CrashRecord> {
    (
        (0u8..15, "[a-z_]{1,12}", any::<u16>(), "[a-z0-9 ]{0,20}"),
        (
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..24),
            1u64..1000,
            any::<bool>(),
        ),
    )
        .prop_map(|((tag, function, block, detail), (at, input, hits, flaky))| CrashRecord {
            crash: Crash {
                kind: CrashKind::from_wire_tag(tag).expect("tag in range"),
                function,
                block: u32::from(block),
                detail,
            },
            found_at_cycles: u64::from(at),
            input,
            hits,
            flaky,
        })
}

fn arb_virgin() -> impl Strategy<Value = VirginMap> {
    prop::collection::vec((any::<u16>(), 1u8..=255), 0..50).prop_map(|bytes| {
        let mut v = VirginMap::new();
        for (i, b) in bytes {
            v.or_byte(usize::from(i), b);
        }
        v
    })
}

fn arb_exec_state() -> impl Strategy<Value = Option<ExecutorState>> {
    prop_oneof![
        Just(None),
        (
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            (any::<u32>(), any::<bool>(), any::<bool>()),
            (
                prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..5),
                any::<u32>(),
                any::<u32>(),
            ),
        )
            .prop_map(|(c, (iters, fork, alive), (quarantine, dropped, rolls))| {
                Some(ExecutorState {
                    respawns: u64::from(c.0),
                    divergences: u64::from(c.1),
                    integrity_checks: u64::from(c.2),
                    harness_faults: u64::from(c.3),
                    iters: u64::from(iters),
                    degradation: if fork {
                        DegradationLevel::ForkPerExec
                    } else {
                        DegradationLevel::Persistent
                    },
                    proc_alive: alive,
                    quarantine,
                    quarantine_dropped: u64::from(dropped),
                    fault_rolls: u64::from(rolls),
                    fault_injected: [u64::from(rolls) % 7, 0, 1, 2, 3],
                    // CoW lineage derived from the same draws: empty and
                    // non-empty page sets both round-trip.
                    proc_cow_faults: u64::from(rolls) % 3,
                    proc_private_pages: (0..u64::from(dropped) % 4).collect(),
                })
            }),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = SnapshotState> {
    (
        arb_scalars(),
        prop::collection::vec(arb_entry(), 0..12),
        arb_virgin(),
        (prop::collection::vec(arb_crash_record(), 0..6), arb_exec_state()),
    )
        .prop_map(|(scalars, entries, virgin, (crashes, exec_state))| SnapshotState {
            scalars,
            entries,
            virgin,
            crashes,
            exec_state,
        })
}

pub(crate) const RESUME_TARGET: &str = r#"
    fn main() {
        var f = fopen("/fuzz/input", 0);
        if (f == 0) { exit(1); }
        var buf[16];
        var n = fread(buf, 1, 16, f);
        fclose(f);
        if (n > 2) {
            if (load8(buf) == 'C') {
                if (load8(buf + 1) == 'X') {
                    return load64(0);
                }
                return 2;
            }
            return 1;
        }
        return 0;
    }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The snapshot encoding is canonical: decode(encode(s)) re-encodes to
    /// the identical bytes, for arbitrary campaign states.
    #[test]
    fn snapshot_state_roundtrips(state in arb_snapshot()) {
        let bytes = state.encode();
        let back = SnapshotState::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(bytes, back.encode());
    }

    /// Decoding arbitrary garbage never panics (it is fed file contents an
    /// adversary — or a power cut — controls).
    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = SnapshotState::decode(&bytes);
    }

    /// A sealed snapshot file with any single bit flipped is rejected by
    /// validation — never accepted, never a panic.
    #[test]
    fn bit_flipped_snapshot_rejected(
        state in arb_snapshot(),
        flip_bit in any::<u32>(),
    ) {
        let mut sealed = seal_snapshot(&state.encode(), 0);
        let nbits = sealed.len() * 8;
        let bit = flip_bit as usize % nbits;
        sealed[bit / 8] ^= 1 << (bit % 8);

        let dir = std::env::temp_dir().join(format!(
            "closurex-prop-flip-{}-{}",
            std::process::id(),
            bit
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000000.bin");
        std::fs::write(&path, &sealed).unwrap();
        let res = load_snapshot(&path);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(res.is_err(), "flipped bit {bit} went undetected");
    }

    /// A truncated snapshot file is rejected — never accepted, never a
    /// panic.
    #[test]
    fn truncated_snapshot_rejected(state in arb_snapshot(), cut in any::<u32>()) {
        let sealed = seal_snapshot(&state.encode(), 0);
        let keep = cut as usize % sealed.len(); // strictly shorter
        let dir = std::env::temp_dir().join(format!(
            "closurex-prop-trunc-{}-{}",
            std::process::id(),
            keep
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000000.bin");
        std::fs::write(&path, &sealed[..keep]).unwrap();
        let res = load_snapshot(&path);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(res.is_err(), "truncation to {keep} bytes went undetected");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline guarantee, propertized: killing a campaign at an
    /// arbitrary execution boundary and resuming yields the exact result of
    /// the uninterrupted campaign.
    #[test]
    fn kill_anywhere_resume_exact(kill_at in 1u64..140, seed in 1u64..5) {
        let module = minic::compile("t", RESUME_TARGET).expect("compiles");
        let cfg = CampaignConfig {
            budget_cycles: 2_500_000,
            seed,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec()];
        let mk = || ClosureXExecutor::new(&module, ClosureXConfig::default()).expect("boots");

        let reference = Campaign::new(&seeds, &cfg)
            .executor(&mut mk())
            .run()
            .expect("plain run")
            .finished()
            .expect("no kill");

        let dir = std::env::temp_dir().join(format!(
            "closurex-prop-kill-{}-{}-{}",
            std::process::id(),
            kill_at,
            seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 30;
        ck.kill_after_execs = Some(kill_at);
        let first = Campaign::new(&seeds, &cfg)
            .executor(&mut mk())
            .checkpoint(ck.clone())
            .run()
            .expect("checkpointed run");
        ck.kill_after_execs = None;
        let out = match first {
            crate::checkpoint::CampaignOutcome::Killed { .. } => {
                Campaign::new(&seeds, &cfg)
                    .executor(&mut mk())
                    .checkpoint(ck.clone())
                    .resume()
                    .expect("resume")
                    .0
            }
            finished => finished, // the whole campaign fit under kill_at
        };
        let resumed = out.finished().expect("no kill on the second leg");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&resumed.sans_resume()).unwrap()
        );
    }
}

/// Builds one ClosureX executor per lane over a shared module.
pub(crate) struct CxFactory<'m> {
    pub(crate) module: &'m fir::Module,
}

impl ExecutorFactory for CxFactory<'_> {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        ClosureXExecutor::new(self.module, ClosureXConfig::default())
            .map(|ex| Box::new(ex) as Box<dyn Executor + Send>)
            .map_err(|e| HarnessError::BootFailed(e.to_string()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded merge is invariant under shard (worker) scheduling:
    /// any worker count over the same lane decomposition yields the
    /// bit-identical campaign result, because each lane's schedule is a
    /// pure function of `(config, seeds, lane)` and every barrier merge is
    /// either commutative (virgin-map OR) or applied in canonical lane
    /// order — never in completion order.
    #[test]
    fn epoch_merge_invariant_under_worker_count(seed in 1u64..6, workers in 2usize..5) {
        let module = minic::compile("t", RESUME_TARGET).expect("compiles");
        let factory = CxFactory { module: &module };
        let cfg = CampaignConfig {
            budget_cycles: 2_000_000,
            seed,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec(), b"CX!".to_vec()];
        let run = |shards: usize| -> CampaignResult {
            Campaign::new(&seeds, &cfg)
                .factory(&factory)
                .shards(shards)
                .run()
                .expect("sharded run")
                .finished()
                .expect("no kill configured")
        };
        let serial = run(1);
        let parallel = run(workers);
        prop_assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Supervised recovery is exact: injecting a lane fault — a worker
    /// panic or a lane hang, at *any* `(lane, epoch)` position, failing up
    /// to `fires` consecutive attempts — yields a campaign result
    /// bit-identical to the unfaulted run outside the supervision report,
    /// and the report shows the faults were actually contained.
    #[test]
    fn supervised_recovery_is_exact(
        seed in 1u64..5,
        lane in 0u64..3,
        epoch in 0u64..3,
        panic_kind in any::<bool>(),
        fires in 1u32..=2,
    ) {
        let module = minic::compile("t", RESUME_TARGET).expect("compiles");
        let factory = CxFactory { module: &module };
        let cfg = CampaignConfig {
            budget_cycles: 2_000_000,
            seed,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec(), b"CX!".to_vec()];
        let run = |sup: Option<SupervisorConfig>| -> CampaignResult {
            let mut c = Campaign::new(&seeds, &cfg)
                .factory(&factory)
                .lanes(3)
                .sync_epochs(3)
                .shards(2);
            if let Some(s) = sup {
                c = c.supervision(s);
            }
            c.run()
                .expect("sharded run")
                .finished()
                .expect("no kill configured")
        };
        let clean = run(None);

        let kind = if panic_kind {
            OrchFaultKind::WorkerPanic
        } else {
            OrchFaultKind::LaneHang
        };
        let mut faults = OrchFaultPlan::at((lane, epoch), kind);
        faults.targeted[0].fires = fires; // fires <= max_lane_retries: recovery converges
        let faulted = run(Some(SupervisorConfig {
            faults,
            ..SupervisorConfig::default()
        }));

        prop_assert!(
            faulted.resilience.supervision.faults_contained() >= u64::from(fires),
            "injected faults were contained and counted"
        );
        prop_assert!(faulted.resilience.supervision.recovered >= 1);
        prop_assert_eq!(
            serde_json::to_string(&clean.sans_supervision()).unwrap(),
            serde_json::to_string(&faulted.sans_supervision()).unwrap()
        );
    }
}

/// Runs one campaign leg for the storage-fault properties: single-driver
/// or in-process sharded, optionally checkpointed, optionally fault-armed.
fn storage_leg(
    module: &fir::Module,
    cfg: &CampaignConfig,
    seeds: &[Vec<u8>],
    sharded: bool,
    plan: Option<DiskFaultPlan>,
    ck: Option<CheckpointConfig>,
    resume: bool,
) -> Result<CampaignOutcome, crate::builder::CampaignError> {
    let factory = CxFactory { module };
    let mut ex = None;
    let mut c = Campaign::new(seeds, cfg);
    if sharded {
        c = c.factory(&factory).shards(2).lanes(2).sync_epochs(2);
    } else {
        let slot = ex.insert(
            ClosureXExecutor::new(module, ClosureXConfig::default()).expect("boots"),
        );
        c = c.executor(slot);
    }
    if let Some(p) = plan {
        c = c.storage_faults(p);
    }
    if let Some(k) = ck {
        c = c.checkpoint(k);
    }
    if resume {
        c.resume().map(|(out, _)| out)
    } else {
        c.run()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No disk-fault plan can make a campaign panic, surface a raw I/O
    /// error, or lose data. Every injected fault is retried to success,
    /// degraded with a typed report, or kills the machine at an I/O
    /// boundary from which a clean restart recovers — and in all cases the
    /// final result is bit-identical (outside the storage report) to the
    /// unfaulted run.
    #[test]
    fn storage_faults_never_lose_data(
        seed in 1u64..4,
        op in 0u64..10,
        kind_ix in 0usize..6,
        fires in 1u32..=5,
        sharded in any::<bool>(),
    ) {
        let module = minic::compile("t", RESUME_TARGET).expect("compiles");
        let cfg = CampaignConfig {
            budget_cycles: 2_000_000,
            seed,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec(), b"CX!".to_vec()];
        let reference = storage_leg(&module, &cfg, &seeds, sharded, None, None, false)
            .expect("plain run")
            .finished()
            .expect("no kill configured");

        // `fires` beyond the default retry budget (3) models permanently
        // broken storage: the transient kinds must then take the typed
        // degradation exit instead of erroring out.
        // Every storage op is on the coordinator stream, 0.
        let mut plan = DiskFaultPlan::at((0, op), DiskFaultKind::ALL[kind_ix]);
        plan.targeted[0].fires = fires;

        let dir = std::env::temp_dir().join(format!(
            "closurex-prop-disk-{}-{}-{}-{}-{}",
            std::process::id(),
            seed,
            op,
            kind_ix,
            u8::from(sharded),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 30;

        let first =
            storage_leg(&module, &cfg, &seeds, sharded, Some(plan), Some(ck.clone()), false)
                .expect("a disk fault never surfaces as a raw error");
        let out = match first {
            CampaignOutcome::Killed { .. } => {
                // The fault killed the machine at an I/O boundary. The
                // ALICE model: recovery runs fault-free over whatever the
                // crash left on disk.
                match storage_leg(&module, &cfg, &seeds, sharded, None, Some(ck.clone()), true) {
                    Ok(out) => out,
                    // Crash before the first durable commit: nothing to
                    // resume from, and a fresh start is the correct (and
                    // only) recovery.
                    Err(_) => {
                        storage_leg(&module, &cfg, &seeds, sharded, None, Some(ck.clone()), false)
                            .expect("fresh restart over crash debris")
                    }
                }
            }
            finished => finished,
        };
        let faulted = out.finished().expect("recovery leg finishes");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(
            serde_json::to_string(&reference.sans_storage()).unwrap(),
            serde_json::to_string(&faulted.sans_storage()).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scrub-and-repair round-trips arbitrary corruption of the newest
    /// snapshot generation: whether it is bit-flipped, truncated, or
    /// deleted outright, resume falls back to an older good generation,
    /// re-runs from it, and produces the exact
    /// uninterrupted result — rewriting the rotted generation
    /// byte-identically when its carcass is still on disk to repair.
    #[test]
    fn snapshot_corruption_round_trips(
        kill_at in 35u64..140,
        seed in 1u64..5,
        mode in 0u8..3,
        noise in any::<u64>(),
    ) {
        let module = minic::compile("t", RESUME_TARGET).expect("compiles");
        let cfg = CampaignConfig {
            budget_cycles: 2_500_000,
            seed,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec()];
        let mk = || ClosureXExecutor::new(&module, ClosureXConfig::default()).expect("boots");
        let reference = Campaign::new(&seeds, &cfg)
            .executor(&mut mk())
            .run()
            .expect("plain run")
            .finished()
            .expect("no kill configured");

        let dir = std::env::temp_dir().join(format!(
            "closurex-prop-rot-{}-{}-{}-{}",
            std::process::id(),
            kill_at,
            seed,
            mode
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 30;
        ck.kill_after_execs = Some(kill_at);
        let first = Campaign::new(&seeds, &cfg)
            .executor(&mut mk())
            .checkpoint(ck.clone())
            .run()
            .expect("checkpointed run");
        ck.kill_after_execs = None;
        if first.finished().is_some() {
            // The whole campaign fit under kill_at; nothing was left to
            // corrupt-and-resume. (Does not happen with this target and
            // budget, but the property must not depend on that.)
            let _ = std::fs::remove_dir_all(&dir);
            return Ok(());
        }

        // Corrupt the newest sealed generation.
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
            })
            .collect();
        snaps.sort();
        prop_assert!(snaps.len() >= 2, "an older good generation must exist");
        let newest = snaps.pop().unwrap();
        match mode {
            0 => {
                let mut bytes = std::fs::read(&newest).unwrap();
                let bit = noise as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(&newest, &bytes).unwrap();
            }
            1 => {
                let bytes = std::fs::read(&newest).unwrap();
                let keep = noise as usize % bytes.len(); // strictly shorter
                std::fs::write(&newest, &bytes[..keep]).unwrap();
            }
            _ => std::fs::remove_file(&newest).unwrap(),
        }

        let (out, info) = Campaign::new(&seeds, &cfg)
            .executor(&mut mk())
            .checkpoint(ck.clone())
            .resume()
            .expect("resume");
        let resumed = out.finished().expect("no kill on the second leg");
        let _ = std::fs::remove_dir_all(&dir);
        if mode < 2 {
            // The rotted bytes were still on disk: the scrub must have
            // seen them and the re-run must have rewritten the generation.
            prop_assert_eq!(info.corrupt_snapshots_skipped, 1);
            prop_assert_eq!(info.snapshots_repaired, 1);
            prop_assert_eq!(resumed.resilience.storage.corrupt_snapshots, 1);
            prop_assert_eq!(resumed.resilience.storage.snapshots_repaired, 1);
        }
        prop_assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&resumed.sans_storage().sans_resume()).unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// RPC plane: codec robustness and fault-plan-proof sessions.
// ---------------------------------------------------------------------------

use crate::rpc::{
    decode_reply_body, decode_request, encode_request, MemNet, RemoteOptions, RemoteService,
    RpcOp, RpcServer, ServerOptions,
};
use crate::service::{CampaignSpec, Service, ServiceConfig, SpecResolver};
use std::sync::Arc;
use vmos::{NetFaultKind, NetFaultPlan};

fn arb_tenant_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..12)
        .prop_map(|v| v.into_iter().map(|b| char::from(b'a' + b)).collect())
}

fn arb_campaign_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        (
            arb_tenant_name(),
            prop::collection::vec(any::<u8>(), 0..24),
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..4),
            any::<u64>(),
        ),
        ((1usize..9, 1usize..5), 1u64..9, 1usize..4),
    )
        .prop_map(|((name, factory_spec, seeds, seed), ((lanes, shards), epochs, keep))| {
            let mut s = CampaignSpec::new(
                name,
                factory_spec,
                seeds,
                CampaignConfig {
                    seed,
                    ..CampaignConfig::default()
                },
            );
            s.lanes = lanes;
            s.shards = shards;
            s.sync_epochs = epochs;
            s.keep_snapshots = keep;
            s
        })
}

fn arb_rpc_op() -> impl Strategy<Value = RpcOp> {
    prop_oneof![
        arb_campaign_spec().prop_map(RpcOp::Submit),
        arb_tenant_name().prop_map(RpcOp::Status),
        arb_tenant_name().prop_map(RpcOp::Health),
        arb_tenant_name().prop_map(RpcOp::Pause),
        arb_tenant_name().prop_map(RpcOp::Resume),
        arb_tenant_name().prop_map(RpcOp::Kill),
        arb_tenant_name().prop_map(RpcOp::Await),
    ]
}

fn arb_net_plan() -> impl Strategy<Value = NetFaultPlan> {
    prop_oneof![
        Just(NetFaultPlan::none()),
        (any::<u64>(), 0u32..30).prop_map(|(seed, pct)| NetFaultPlan::uniform(
            seed,
            f64::from(pct) / 100.0,
            |k| !k.kills_connection()
        )),
        (0u64..3, 0u8..2, 0u64..5, 0usize..6).prop_map(|(conn, dir, frame, k)| {
            NetFaultPlan::at((conn, dir, frame), NetFaultKind::ALL[k])
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Adversarial bytes into the RPC decoders: never a panic, never an
    /// unbounded allocation — every length is validated against the
    /// remaining payload before anything is reserved.
    #[test]
    fn rpc_decoders_never_panic_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_reply_body(&bytes);
    }

    /// The request codec is canonical over arbitrary operations (arbitrary
    /// specs included), and no truncation of a valid request decodes.
    #[test]
    fn rpc_request_codec_roundtrips_and_rejects_cuts(
        req_id in any::<u64>(),
        op in arb_rpc_op(),
    ) {
        let bytes = encode_request(req_id, &op);
        let (rid, back) = decode_request(&bytes).expect("canonical encoding decodes");
        prop_assert_eq!(rid, req_id);
        prop_assert_eq!(&back, &op);
        prop_assert_eq!(encode_request(rid, &back), bytes.clone(), "re-encode is bit-identical");
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_request(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte request must not decode",
                bytes.len()
            );
        }
    }
}

/// Resolver for RPC session sweeps: the tests below never run a grant
/// (they only probe unknown tenants), so admission just needs *a*
/// factory value to exist.
struct NullResolver;

impl SpecResolver for NullResolver {
    fn resolve(
        &self,
        _: &[u8],
    ) -> Result<Box<dyn ExecutorFactory + Send + Sync>, String> {
        Err("the session sweep never admits".to_string())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An RPC session under an arbitrary fault plan never panics and
    /// never diverges: a status probe for a tenant that does not exist
    /// must come back `None` — served over the wire, from the reply
    /// journal, or degraded-local, but never as a wrong answer — and the
    /// session survives an abrupt server replacement mid-stream.
    #[test]
    fn rpc_session_survives_arbitrary_fault_plans(
        plan in arb_net_plan(),
        probes in 1usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "cx-prop-rpc-{}-{probes}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(
            Service::new(ServiceConfig::new(&dir), Arc::new(NullResolver)).expect("service"),
        );
        let net = MemNet::new();
        let server = RpcServer::start(
            Arc::clone(&service),
            &net,
            ServerOptions { fault_plan: plan.clone(), ..ServerOptions::default() },
        );
        let opts = RemoteOptions {
            fault_plan: plan,
            read_timeout: std::time::Duration::from_millis(20),
            await_timeout: std::time::Duration::from_millis(200),
            max_attempts: 6,
            fallback: Some(Arc::clone(&service)),
            ..RemoteOptions::default()
        };
        let client = RemoteService::connect(&net, opts).expect("fallback makes connect total");
        for _ in 0..probes {
            let r = client.handle("nobody").expect("fallback makes calls total");
            prop_assert!(r.is_none(), "an unknown tenant must never resolve");
        }
        // Abrupt server replacement: the client either resumes its
        // session against the successor or is already (correctly)
        // serving degraded — both answer identically.
        server.kill();
        let server2 =
            RpcServer::start(Arc::clone(&service), &net, ServerOptions::default());
        for _ in 0..probes {
            let r = client.handle("nobody").expect("fallback makes calls total");
            prop_assert!(r.is_none(), "divergence after server churn");
        }
        server2.stop();
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
