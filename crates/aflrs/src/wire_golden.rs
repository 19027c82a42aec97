//! Golden wire bytes: every supervisor ⇄ worker message, every RPC
//! request and reply, the RPC session handshake and reply-journal
//! records, `spec.bin`, and the executor and fault-plan codecs those
//! embed — each built from a fixed fixture and pinned as
//! `(name, length, FNV-1a)`.
//!
//! Round-trip tests cannot notice a field reordered (or a tag renumbered)
//! consistently on both sides of a codec; these constants can. They were
//! computed once and must not move unless a wire format deliberately
//! changes. Together with the two `checkpoint_golden.rs` tables they are
//! the specification of every byte this crate puts on a pipe, a socket or
//! a disk.
//!
//! The same fixtures feed one generic property every [`Wire`] type must
//! satisfy (see [`check`]).

use std::borrow::Cow;

use closurex::checkpoint::ExecutorState;
use closurex::resilience::{DegradationLevel, ResilienceReport};
use vmos::cov::VirginMap;
use vmos::wire::fnv1a;
use vmos::{
    CovMap, Crash, CrashKind, DiskFaultKind, DiskFaultPlan, NetFaultKind, NetFaultPlan,
    OrchFaultKind, OrchFaultPlan, ProcFaultKind, ProcFaultPlan, Reader, TargetedFault, WarmSource,
    Wire, Writer,
};

use crate::campaign::{CampaignConfig, Stage};
use crate::checkpoint::{ResumeReport, Scalars, SnapshotState};
use crate::proc::{send_fatal, Ack, BarrierMsg, Hello, RunEpochMsg};
use crate::queue::QueueEntry;
use crate::rpc::{RemoteAdmissionError, ReplyJournal, RpcOp, RpcReply};
use crate::service::{CampaignSpec, CampaignState, HealthReport, ServiceError};
use crate::shard::LaneBarrier;
use crate::stats::{CampaignResult, CrashRecord, ResilienceCounters};
use crate::storage::{StorageCounters, StorageDegradation};
use crate::supervise::{LaneDegradation, LaneFault, SupervisionCounters};

/// A campaign result with every field populated.
pub(crate) fn fixture_result() -> CampaignResult {
    CampaignResult {
        executor: "closurex".into(),
        execs: 12_345,
        clock_cycles: 999_999,
        edges_found: 42,
        coverage_hash: 0xDEAD_BEEF,
        crashes: vec![crash_record()],
        queue_len: 5,
        hangs: 1,
        mgmt_cycles: 10,
        exec_cycles: 20,
        queue_inputs: vec![vec![4, 5], vec![]],
        resilience: ResilienceCounters {
            executor: ResilienceReport {
                respawns: 1,
                divergences: 2,
                integrity_checks: 3,
                quarantined: 4,
                quarantine_dropped: 5,
                harness_faults: 6,
                degradation: DegradationLevel::ForkPerExec,
            },
            harness_faults: 7,
            retries: 8,
            dropped_inputs: 9,
            watchdog_trips: 10,
            supervision: SupervisionCounters {
                lane_panics: 1,
                lane_hangs: 2,
                barrier_timeouts: 3,
                lane_rebuilds: 4,
                recovered: 5,
                worker_signals: 6,
                worker_exits: 7,
                pipe_eofs: 8,
                frame_corruptions: 9,
                deadline_kills: 10,
                lane_respawns: vec![0, 3, 1],
                degradations: vec![LaneDegradation {
                    lane: 2,
                    epoch: 4,
                    attempts: 3,
                    reclaimed_cycles: 500,
                    last_fault: "panic".into(),
                }],
            },
            storage: StorageCounters {
                transient_faults: 11,
                retries: 12,
                backoff_cycles: 13,
                crashes: 14,
                bitrot_injected: 15,
                writes_skipped: 16,
                sweep_warnings: 17,
                corrupt_snapshots: 18,
                snapshots_repaired: 19,
                degradations: vec![StorageDegradation {
                    stream: 0,
                    op: 21,
                    attempts: 4,
                    last_error: "no_space".into(),
                }],
            },
        },
        resume: Some(ResumeReport {
            snapshot_execs: 100,
            corrupt_snapshots_skipped: 1,
            snapshots_repaired: 3,
            sweep_warnings: 4,
            decoded_image_ready: true,
            decoded_image_source: Some(vmos::WarmSource::Cache),
        }),
    }
}

fn crash_record() -> CrashRecord {
    CrashRecord {
        crash: Crash {
            kind: CrashKind::DoubleFree,
            function: "main".into(),
            block: 7,
            detail: "freed twice".into(),
        },
        found_at_cycles: 123,
        input: vec![1, 2, 3],
        hits: 9,
        flaky: true,
    }
}

fn exec_state() -> ExecutorState {
    ExecutorState {
        respawns: 3,
        divergences: 1,
        integrity_checks: 40,
        harness_faults: 2,
        iters: 123,
        degradation: DegradationLevel::ForkPerExec,
        proc_alive: false,
        quarantine: vec![b"bad".to_vec(), Vec::new(), vec![0xFF; 70]],
        quarantine_dropped: 5,
        fault_rolls: 999,
        fault_injected: [1, 0, 2, 0, 4],
        proc_cow_faults: 3,
        proc_private_pages: vec![0, 7, 0x4_0000],
    }
}

fn report() -> ResilienceReport {
    ResilienceReport {
        respawns: 2,
        divergences: 1,
        integrity_checks: 64,
        quarantined: 3,
        quarantine_dropped: 1,
        harness_faults: 5,
        degradation: DegradationLevel::Persistent,
    }
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: 123_456,
        seed: 42,
        deterministic_stage: false,
        stop_after_crashes: 3,
        max_retries: 5,
        max_consecutive_hangs: 7,
        retry_backoff_cycles: 900,
        revalidate_crashes: true,
    }
}

fn snapshot(exec_state: Option<ExecutorState>) -> SnapshotState {
    let mut virgin = VirginMap::new();
    let mut run = CovMap::new();
    for idx in [3, 700, 4096, 65_000] {
        run.hit(idx);
    }
    virgin.merge(&run);
    SnapshotState {
        scalars: Scalars {
            stage: Stage::Havoc { entry: 1, iter: 7 },
            clock: 10_000,
            execs: 31,
            hangs: 2,
            mgmt_cycles: 300,
            exec_cycles: 9_700,
            retries: 1,
            dropped_inputs: 0,
            harness_faults: 1,
            consecutive_hangs: 0,
            watchdog_trips: 0,
            rng: [1, 2, 3, 4],
            backoff_rng: [5, 6, 7, 8],
            cursor: 1,
        },
        entries: vec![
            QueueEntry {
                data: b"seed".to_vec(),
                exec_cycles: 120,
                found_at: 0,
                det_done: true,
                favored: true,
            },
            QueueEntry {
                data: vec![0, 1, 2, 0xFF],
                exec_cycles: 140,
                found_at: 5_000,
                det_done: false,
                favored: false,
            },
        ],
        virgin,
        crashes: vec![crash_record()],
        exec_state,
    }
}

fn orch_plan() -> OrchFaultPlan {
    let mut p = OrchFaultPlan::uniform(11, 0.125, |_| true).with_rate(OrchFaultKind::LaneHang, 0.5);
    p.targeted = vec![
        TargetedFault {
            site: (1, 2),
            kind: OrchFaultKind::WorkerPanic,
            fires: 1,
        },
        TargetedFault {
            site: (3, 0),
            kind: OrchFaultKind::BarrierTimeout,
            fires: 9,
        },
    ];
    p
}

fn proc_plan() -> ProcFaultPlan {
    let mut p = ProcFaultPlan::none().with_rate(ProcFaultKind::Stall, 0.25);
    p.seed = 5;
    p.targeted = vec![
        TargetedFault {
            site: (0, 1),
            kind: ProcFaultKind::Kill,
            fires: 2,
        },
        TargetedFault {
            site: (2, 3),
            kind: ProcFaultKind::GarbageFrame,
            fires: 1,
        },
    ];
    p
}

fn disk_plan() -> DiskFaultPlan {
    let mut p = DiskFaultPlan::uniform(17, 0.0625, |k| k != DiskFaultKind::CrashAtBoundary);
    p.targeted = vec![
        TargetedFault {
            site: (0, 4),
            kind: DiskFaultKind::CrashAtBoundary,
            fires: 1,
        },
        TargetedFault {
            site: (0, 9),
            kind: DiskFaultKind::Bitrot,
            fires: 3,
        },
    ];
    p
}

fn net_plan() -> NetFaultPlan {
    let mut p = NetFaultPlan::none().with_rate(NetFaultKind::Delay, 0.75);
    p.seed = 23;
    p.targeted = vec![
        TargetedFault {
            site: (3, 1, 9),
            kind: NetFaultKind::Corrupt,
            fires: 1,
        },
        TargetedFault {
            site: (0, 0, 2),
            kind: NetFaultKind::PartialFrame,
            fires: 4,
        },
    ];
    p
}

fn spec() -> CampaignSpec {
    let mut s = CampaignSpec::new(
        "tenant-7",
        vec![1, 2, 3],
        vec![b"go".to_vec(), vec![]],
        cfg(),
    );
    s.lanes = 3;
    s.shards = 2;
    s.sync_epochs = 5;
    s.keep_snapshots = 4;
    s
}

fn health() -> HealthReport {
    HealthReport {
        epoch: 1,
        epochs: 2,
        execs: 3,
        clock_cycles: 4,
        edges_found: 5,
        queue_len: 6,
        crashes: 7,
        edges_per_megaexec: 1.5,
        stalled_grants: 8,
        stale_queue_grants: 9,
    }
}

/// The reply journal a fresh server leaves after one session and two
/// recorded replies.
fn journal_file() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("closurex-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(crate::rpc::RPC_JOURNAL_FILE);
    let mut j = ReplyJournal::load(path.clone(), 8, 1 << 20);
    let session = j.open_session();
    j.record(session, 7, RpcReply::Unit.to_bytes());
    j.record(
        session,
        8,
        RpcReply::Status(CampaignState::Running).to_bytes(),
    );
    let bytes = std::fs::read(&path).expect("journal written");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn messages() -> Vec<(&'static str, Vec<u8>)> {
    let hello = Hello {
        reference: true,
        lane: 3,
        spec: vec![9, 9, 9],
        cfg: cfg(),
        seeds: vec![b"a".to_vec(), Vec::new(), vec![0xFF; 33]],
        faults: orch_plan(),
        hang_deadline_ticks: 2048,
        proc_faults: proc_plan(),
        exec_restore: Some(exec_state()),
    };
    let ack = Ack {
        executor: "closurex".into(),
        fingerprint: 0xDEAD_BEEF,
        report: report(),
        exec_state: Some(exec_state()),
    };
    let run_epoch = RunEpochMsg {
        epoch: 2,
        epochs: 8,
        attempt: 1,
        budget_cycles: 750_000,
        state: Cow::Owned(snapshot(None)),
        kill: Some((100, 7)),
    };
    let barrier = BarrierMsg {
        killed: true,
        state: snapshot(Some(exec_state())),
        report: report(),
    };
    let mut fatal = Vec::new();
    send_fatal(&mut fatal, "worker spec rejected: no such target");

    let ops = [
        ("op submit", RpcOp::Submit(spec())),
        ("op status", RpcOp::Status("a".into())),
        ("op health", RpcOp::Health("b".into())),
        ("op pause", RpcOp::Pause("c".into())),
        ("op resume", RpcOp::Resume("d".into())),
        ("op kill", RpcOp::Kill("e".into())),
        ("op await", RpcOp::Await("f".into())),
    ];
    let replies = [
        ("reply unit", RpcReply::Unit),
        (
            "reply status queued",
            RpcReply::Status(CampaignState::Queued),
        ),
        (
            "reply status running",
            RpcReply::Status(CampaignState::Running),
        ),
        (
            "reply status paused",
            RpcReply::Status(CampaignState::Paused),
        ),
        (
            "reply status killed",
            RpcReply::Status(CampaignState::Killed { execs: 17 }),
        ),
        (
            "reply status finished",
            RpcReply::Status(CampaignState::Finished),
        ),
        (
            "reply status failed",
            RpcReply::Status(CampaignState::Failed),
        ),
        ("reply health none", RpcReply::Health(None)),
        ("reply health", RpcReply::Health(Some(health()))),
        ("reply result", RpcReply::Result(Box::new(fixture_result()))),
        (
            "reply service killed",
            RpcReply::Service(ServiceError::Killed { execs: 99 }),
        ),
        (
            "reply service failed",
            RpcReply::Service(ServiceError::Failed("boom".into())),
        ),
        (
            "reply service shutdown",
            RpcReply::Service(ServiceError::ShutDown),
        ),
        (
            "reply admission full",
            RpcReply::Admission(RemoteAdmissionError::Full { capacity: 8 }),
        ),
        (
            "reply admission duplicate",
            RpcReply::Admission(RemoteAdmissionError::Duplicate("t".into())),
        ),
        (
            "reply admission invalid",
            RpcReply::Admission(RemoteAdmissionError::InvalidSpec("no seeds".into())),
        ),
        (
            "reply admission resolver",
            RpcReply::Admission(RemoteAdmissionError::Resolver("unknown target".into())),
        ),
        (
            "reply admission io",
            RpcReply::Admission(RemoteAdmissionError::Io("disk full".into())),
        ),
        ("reply unknown tenant", RpcReply::UnknownTenant),
    ];

    let mut out = vec![
        ("proc hello", hello.to_bytes()),
        ("proc ack", ack.to_bytes()),
        ("proc run-epoch", run_epoch.to_bytes()),
        ("proc barrier", barrier.to_bytes()),
        (
            "proc fault panic",
            LaneFault::Panic("lane 2 panicked".into()).to_bytes(),
        ),
        ("proc fault hang", LaneFault::Hang.to_bytes()),
        (
            "proc fault barrier-timeout",
            LaneFault::BarrierTimeout.to_bytes(),
        ),
        (
            "proc fault pipe-eof (folded)",
            LaneFault::PipeEof.to_bytes(),
        ),
        ("proc fatal frame", fatal),
    ];
    for (i, (name, op)) in ops.into_iter().enumerate() {
        out.push((name, (i as u64 + 7, op).to_bytes()));
    }
    for (name, reply) in &replies {
        out.push((name, reply.to_bytes()));
    }
    out.extend([
        ("rpc hello", 0u64.to_bytes()),
        ("rpc hello-ok", 5u64.to_bytes()),
        ("rpc reply journal", journal_file()),
        ("spec.bin", spec().to_bytes()),
        ("executor state", exec_state().to_bytes()),
        (
            "executor state default",
            ExecutorState::default().to_bytes(),
        ),
        ("resilience report", report().to_bytes()),
        ("orch plan", orch_plan().to_bytes()),
        ("proc plan", proc_plan().to_bytes()),
        ("disk plan", disk_plan().to_bytes()),
        ("net plan", net_plan().to_bytes()),
    ]);
    out
}

/// `(name, byte length, FNV-1a)` of every pinned message.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("proc hello", 564, 0xbde150072b782934),
    ("proc ack", 317, 0x1a5667a957cea293),
    ("proc run-epoch", 65907, 0x32f6870a228c245c),
    ("proc barrier", 66155, 0x7a892303963a9785),
    ("proc fault panic", 24, 0xd908531acc08fafd),
    ("proc fault hang", 1, 0xaf63bc4c8601b62c),
    ("proc fault barrier-timeout", 1, 0xaf63bf4c8601bb45),
    ("proc fault pipe-eof (folded)", 1, 0xaf63bc4c8601b62c),
    ("proc fatal frame", 61, 0x66b3c8704731ebd7),
    ("op submit", 164, 0xcad9d3ce7310f940),
    ("op status", 18, 0x72a51a1374256a2c),
    ("op health", 18, 0xec9609fd0ab2236b),
    ("op pause", 18, 0xe1593e4e544f0d52),
    ("op resume", 18, 0xf8b46629dd9916e1),
    ("op kill", 18, 0x953dd19db3d3d6e0),
    ("op await", 18, 0x0f2ec9874a609db7),
    ("reply unit", 1, 0xaf63bd4c8601b7df),
    ("reply status queued", 2, 0x082f2207b4e88cc4),
    ("reply status running", 2, 0x082f2307b4e88e77),
    ("reply status paused", 2, 0x082f2407b4e8902a),
    ("reply status killed", 10, 0xfcc5af47a193c34c),
    ("reply status finished", 2, 0x082f1e07b4e885f8),
    ("reply status failed", 2, 0x082f1f07b4e887ab),
    ("reply health none", 2, 0x08395407b4f1363f),
    ("reply health", 82, 0x25a0fd2d316974b8),
    ("reply result", 580, 0xcf718ba7ed2023f3),
    ("reply service killed", 10, 0x46e069a5c0bc6c6a),
    ("reply service failed", 14, 0xa4cd25808c96f111),
    ("reply service shutdown", 2, 0x0824ee07b4dfdfe3),
    ("reply admission full", 10, 0xe66f9b02e7e09528),
    ("reply admission duplicate", 11, 0x5a2202a94c7b7d52),
    ("reply admission invalid", 18, 0xc9fd809d7309f1eb),
    ("reply admission resolver", 24, 0x0d51a51a434b0670),
    ("reply admission io", 19, 0x4d02053aff8b9771),
    ("reply unknown tenant", 1, 0xaf63bb4c8601b479),
    ("rpc hello", 8, 0xa8c7f832281a39c5),
    ("rpc hello-ok", 8, 0x0de21504f16dc720),
    ("rpc reply journal", 110, 0x312458a616e8fc57),
    ("spec.bin", 147, 0x8b7cdd266bcc0ad0),
    ("executor state", 243, 0xf0132c2130b341d1),
    ("executor state default", 122, 0x5167519966d6be4d),
    ("resilience report", 49, 0x9e42c7afc5339f33),
    ("orch plan", 82, 0xef6bc6efa03b86a7),
    ("proc plan", 98, 0xbad12164ca9ad806),
    ("disk plan", 106, 0xa69926bd1639b838),
    ("net plan", 108, 0xb57c0d5e36ea03c9),
];

#[test]
fn wire_bytes_match_golden_digests() {
    let got: Vec<(&str, u64, u64)> = messages()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len() as u64, fnv1a(bytes)))
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, len, h)| format!("    (\"{n}\", {len}, {h:#018x}),"))
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "wire bytes moved; if a format change is deliberate, the new table is:\n{}",
        rendered.join("\n")
    );
}

/// The property every [`Wire`] type satisfies, checked on `samples` (which
/// include a minimal value of the type):
///
/// * decode(encode(v)) consumes every byte and re-encodes to the same
///   bytes (no `PartialEq` needed, which `CampaignResult` lacks), and a
///   trailing byte fails [`Wire::from_bytes`];
/// * every strict prefix of an encoding decodes to an error;
/// * `u64::MAX` written into any count field (of a `Vec`, a string or a
///   nested message) is rejected, without a panic or an allocation;
/// * `MIN_LEN` never exceeds a real encoding.
fn check<T: Wire>(name: &str, samples: &[T]) {
    for v in samples {
        let mut w = Writer::recording();
        v.encode(&mut w);
        let counts = w.count_offsets().to_vec();
        let bytes = w.into_bytes();
        assert!(
            T::MIN_LEN <= bytes.len(),
            "{name}: MIN_LEN {} exceeds a {}-byte encoding",
            T::MIN_LEN,
            bytes.len()
        );
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).unwrap_or_else(|e| panic!("{name}: own bytes: {e}"));
        assert!(r.is_empty(), "{name}: decode left {} bytes", r.remaining());
        assert!(back.to_bytes() == bytes, "{name}: re-encode differs");
        let padded = [&bytes[..], &[0]].concat();
        assert!(
            T::from_bytes(&padded).is_err(),
            "{name}: trailing byte accepted"
        );
        for cut in 0..bytes.len() {
            assert!(
                T::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "{name}: a {cut}-byte prefix decodes"
            );
        }
        for &at in &counts {
            let mut evil = bytes.clone();
            evil[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                T::decode(&mut Reader::new(&evil)).is_err(),
                "{name}: a u64::MAX count at offset {at} decodes"
            );
        }
    }
}

fn minimal_result() -> CampaignResult {
    CampaignResult {
        executor: String::new(),
        execs: 0,
        clock_cycles: 0,
        edges_found: 0,
        coverage_hash: 0,
        crashes: Vec::new(),
        queue_len: 0,
        hangs: 0,
        mgmt_cycles: 0,
        exec_cycles: 0,
        queue_inputs: Vec::new(),
        resilience: ResilienceCounters::default(),
        resume: None,
    }
}

fn minimal_snapshot() -> SnapshotState {
    SnapshotState {
        scalars: Scalars {
            stage: Stage::Pick,
            clock: 0,
            execs: 0,
            hangs: 0,
            mgmt_cycles: 0,
            exec_cycles: 0,
            retries: 0,
            dropped_inputs: 0,
            harness_faults: 0,
            consecutive_hangs: 0,
            watchdog_trips: 0,
            rng: [0; 4],
            backoff_rng: [0; 4],
            cursor: 0,
        },
        entries: Vec::new(),
        virgin: VirginMap::new(),
        crashes: Vec::new(),
        exec_state: None,
    }
}

#[test]
fn every_wire_type_round_trips_exactly() {
    let kinds: Vec<CrashKind> = (0..15)
        .map(|t| CrashKind::from_bytes(&[t]).unwrap())
        .collect();
    let min_crash = Crash {
        kind: CrashKind::Abort,
        function: String::new(),
        block: 0,
        detail: String::new(),
    };
    check("CrashKind", &kinds);
    check("Crash", &[min_crash.clone(), crash_record().crash]);
    check(
        "DegradationLevel",
        &[DegradationLevel::Persistent, DegradationLevel::ForkPerExec],
    );
    check("ExecutorState", &[ExecutorState::default(), exec_state()]);
    check("ResilienceReport", &[ResilienceReport::default(), report()]);
    check("CampaignConfig", &[CampaignConfig::default(), cfg()]);
    let entries = snapshot(None).entries;
    check("QueueEntry", &entries);
    let min_record = CrashRecord {
        crash: min_crash,
        found_at_cycles: 0,
        input: Vec::new(),
        hits: 0,
        flaky: false,
    };
    check("CrashRecord", &[min_record, crash_record()]);
    check(
        "Stage",
        &[
            Stage::Seeds(3),
            Stage::Pick,
            Stage::Det {
                entry: 1,
                mutant: 9,
            },
            Stage::Havoc { entry: 2, iter: 31 },
            Stage::Done,
        ],
    );
    check(
        "Scalars",
        &[minimal_snapshot().scalars, snapshot(None).scalars],
    );
    check("VirginMap", &[VirginMap::new(), snapshot(None).virgin]);
    check(
        "SnapshotState",
        &[minimal_snapshot(), snapshot(Some(exec_state()))],
    );
    check(
        "LaneBarrier",
        &[LaneBarrier {
            scalars: minimal_snapshot().scalars,
            exec_state: None,
        }],
    );
    check(
        "shard snapshot payload",
        &[(
            7u64,
            (entries, snapshot(None).virgin, vec![crash_record()]),
            Vec::<LaneBarrier>::new(),
        )],
    );
    check(
        "Hello",
        &[Hello {
            reference: false,
            lane: 0,
            spec: Vec::new(),
            cfg: CampaignConfig::default(),
            seeds: Vec::new(),
            faults: OrchFaultPlan::none(),
            hang_deadline_ticks: 0,
            proc_faults: ProcFaultPlan::none(),
            exec_restore: None,
        }],
    );
    check(
        "Ack",
        &[Ack {
            executor: String::new(),
            fingerprint: 0,
            report: ResilienceReport::default(),
            exec_state: None,
        }],
    );
    check(
        "RunEpochMsg",
        &[RunEpochMsg {
            epoch: 0,
            epochs: 1,
            attempt: 0,
            budget_cycles: 0,
            state: Cow::Owned(minimal_snapshot()),
            kill: None,
        }],
    );
    check(
        "BarrierMsg",
        &[BarrierMsg {
            killed: false,
            state: minimal_snapshot(),
            report: ResilienceReport::default(),
        }],
    );
    // Parent-side faults fold into `Hang` on the way out, so only the
    // faults a child reports round-trip.
    check(
        "LaneFault",
        &[
            LaneFault::Panic(String::new()),
            LaneFault::Hang,
            LaneFault::BarrierTimeout,
        ],
    );
    let full = fixture_result();
    check(
        "StorageDegradation",
        &[
            StorageDegradation::default(),
            full.resilience.storage.degradations[0].clone(),
        ],
    );
    check(
        "StorageCounters",
        &[StorageCounters::default(), full.resilience.storage.clone()],
    );
    check(
        "LaneDegradation",
        &[
            LaneDegradation::default(),
            full.resilience.supervision.degradations[0].clone(),
        ],
    );
    check(
        "SupervisionCounters",
        &[
            SupervisionCounters::default(),
            full.resilience.supervision.clone(),
        ],
    );
    check(
        "ResilienceCounters",
        &[ResilienceCounters::default(), full.resilience.clone()],
    );
    let sources = [None, Some(WarmSource::Cache), Some(WarmSource::Lowered)];
    let resumes: Vec<ResumeReport> = sources
        .into_iter()
        .map(|decoded_image_source| ResumeReport {
            decoded_image_source,
            ..ResumeReport::default()
        })
        .collect();
    check("ResumeReport", &resumes);
    check("CampaignResult", &[minimal_result(), full]);
    check(
        "CampaignState",
        &[
            CampaignState::Queued,
            CampaignState::Running,
            CampaignState::Paused,
            CampaignState::Killed { execs: 0 },
            CampaignState::Finished,
            CampaignState::Failed,
        ],
    );
    check("HealthReport", &[HealthReport::default(), health()]);
    check(
        "ServiceError",
        &[
            ServiceError::Killed { execs: 0 },
            ServiceError::Failed(String::new()),
            ServiceError::ShutDown,
        ],
    );
    check(
        "RemoteAdmissionError",
        &[
            RemoteAdmissionError::Full { capacity: 0 },
            RemoteAdmissionError::Duplicate(String::new()),
            RemoteAdmissionError::InvalidSpec(String::new()),
            RemoteAdmissionError::Resolver(String::new()),
            RemoteAdmissionError::Io(String::new()),
        ],
    );
    let min_spec = CampaignSpec::new("", Vec::new(), Vec::new(), CampaignConfig::default());
    check("CampaignSpec", &[min_spec.clone(), spec()]);
    check(
        "request",
        &[
            (0u64, RpcOp::Submit(min_spec)),
            (1, RpcOp::Status(String::new())),
            (2, RpcOp::Health(String::new())),
            (3, RpcOp::Pause(String::new())),
            (4, RpcOp::Resume(String::new())),
            (5, RpcOp::Kill(String::new())),
            (6, RpcOp::Await(String::new())),
        ],
    );
    check(
        "RpcReply",
        &[
            RpcReply::Unit,
            RpcReply::Status(CampaignState::Queued),
            RpcReply::Health(None),
            RpcReply::Health(Some(health())),
            RpcReply::Result(Box::new(minimal_result())),
            RpcReply::Result(Box::new(fixture_result())),
            RpcReply::Service(ServiceError::ShutDown),
            RpcReply::Admission(RemoteAdmissionError::Full { capacity: 8 }),
            RpcReply::UnknownTenant,
        ],
    );
    check(
        "reply frame",
        &[(0u64, Vec::<u8>::new()), (9, RpcReply::Unit.to_bytes())],
    );
    check("journal record", &[(0u64, 0u64, Vec::<u8>::new())]);
    check("session id", &[0u64, u64::MAX]);
    check("OrchFaultPlan", &[OrchFaultPlan::none(), orch_plan()]);
    check("ProcFaultPlan", &[ProcFaultPlan::none(), proc_plan()]);
    check("DiskFaultPlan", &[DiskFaultPlan::none(), disk_plan()]);
    check("NetFaultPlan", &[NetFaultPlan::none(), net_plan()]);
    check(
        "fatal report",
        &[String::new(), "worker spec rejected".to_string()],
    );
}
