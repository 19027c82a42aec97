//! RPC-plane correctness gate: the network front end is *invisible* to
//! campaign results. Everything a client observes over the faulted wire —
//! admission outcomes, status, and above all the final [`CampaignResult`]
//! — must be bit-identical to the same campaign driven through the
//! in-process [`Service`] API (transport counters excluded, trivially:
//! they live outside the result), across
//!
//! * the full deterministic [`NetFaultPlan`] grid — every fault kind ×
//!   both directions × every early frame position, on both engines
//!   (optimized decoded lowering and the plain decoded streams),
//! * a server crash ([`RpcServer::kill`]) with service churn and restore,
//!   the client resuming its session against the successor server,
//! * retried `Submit`s landing as duplicates (admission-level idempotency
//!   when the reply journal can no longer answer), and
//! * the recovery ladder's last rung: degraded-local execution through
//!   the very same `execute_op` path the server runs.

use aflrs::{
    Campaign, CampaignConfig, CampaignResult, CampaignSpec, Degraded, MemNet,
    RemoteAdmissionError, RemoteError, RemoteOptions, RemoteService, RpcServer, ServedBy,
    ServerOptions, Service, ServiceConfig, ServiceError,
};
use bench::{Mechanism, MechanismFactory, MechanismResolver};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vmos::{NetFaultKind, NetFaultPlan, PlanKind};

/// Tiny budget: the grid runs dozens of campaigns; transport faults do
/// not touch the campaign, so a short run discriminates just as well.
const BUDGET: u64 = 150_000;

fn cfg_with(budget: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles: budget,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn cfg() -> CampaignConfig {
    cfg_with(BUDGET)
}

fn fingerprint(r: &CampaignResult) -> String {
    format!("{:?}", r.sans_resume())
}

fn factory_spec(target: &str) -> Vec<u8> {
    let mut w = vmos::Writer::new();
    w.put_u8(Mechanism::ClosureX.wire_tag());
    w.put_str(target);
    w.into_bytes()
}

fn corpus(target: &str) -> Vec<Vec<u8>> {
    let t = targets::by_name(target).expect("bundled target");
    let mut seeds = (t.seeds)();
    seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    seeds
}

fn spec(name: &str, decode_opt: bool) -> CampaignSpec {
    let mut s = CampaignSpec::new(name, factory_spec("giftext"), corpus("giftext"), cfg());
    s.shards = 1;
    s.decode_opt = decode_opt;
    s
}

/// Ground truth per engine: the same campaign through a *local* (no RPC)
/// service over its own directory.
fn service_reference(decode_opt: bool) -> String {
    let dir = tmp(if decode_opt { "ref-opt" } else { "ref-plain" });
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let service = Service::new(ServiceConfig::new(&dir), resolver).expect("service starts");
    let h = service.submit(spec("grid", decode_opt)).expect("admission");
    let fp = fingerprint(&h.await_result().expect("local campaign finishes"));
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    fp
}

/// A fresh scratch directory. Unique per call, not just per tag: tests run
/// in parallel and several build the same reference service.
fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cx-rpc-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn client_opts(plan: NetFaultPlan) -> RemoteOptions {
    RemoteOptions {
        fault_plan: plan,
        // Short timeouts: a dropped frame should cost milliseconds, not
        // the default interactive-scale patience — the grid campaigns
        // finish in well under a second, so even a dropped Await retries
        // into a journal replay quickly.
        read_timeout: Duration::from_millis(50),
        await_timeout: Duration::from_secs(2),
        ..RemoteOptions::default()
    }
}

/// Which counter proves a given fault kind actually fired.
fn fired(kind: NetFaultKind, c: &aflrs::RpcCounters) -> u64 {
    match kind {
        NetFaultKind::Drop => c.frames_dropped,
        NetFaultKind::Delay => c.frames_delayed,
        NetFaultKind::Duplicate => c.frames_duplicated,
        NetFaultKind::Corrupt => c.frames_corrupted,
        NetFaultKind::Disconnect => c.disconnects_injected,
        NetFaultKind::PartialFrame => c.partial_frames,
    }
}

/// The tentpole gate: every fault kind, on each direction, at each of the
/// first three frame positions of the client's first connection (hello /
/// submit / await on the way out; hello-ok / submit-reply / result on the
/// way back). The remote result must be bit-identical to the in-process
/// service run, on both engines, and the targeted fault must demonstrably
/// have fired.
#[test]
fn fault_grid_is_bit_identical_on_both_engines() {
    for decode_opt in [true, false] {
        let want = service_reference(decode_opt);
        for &kind in NetFaultKind::ALL {
            for direction in [0u8, 1u8] {
                for frame in 0u64..3 {
                    let tag = format!(
                        "{}-d{direction}-f{frame}-{}",
                        kind.name(),
                        if decode_opt { "opt" } else { "plain" }
                    );
                    let dir = tmp(&tag);
                    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
                    let service = Arc::new(
                        Service::new(ServiceConfig::new(&dir), resolver).expect("service"),
                    );
                    let net = MemNet::new();
                    // One targeted plan, shared by value with both
                    // endpoints; each endpoint only injects on its own
                    // direction, so exactly one side fires it.
                    let plan = NetFaultPlan::at((0, direction, frame), kind);
                    let server = RpcServer::start(
                        Arc::clone(&service),
                        &net,
                        ServerOptions {
                            fault_plan: plan.clone(),
                            ..ServerOptions::default()
                        },
                    );
                    let client =
                        RemoteService::connect(&net, client_opts(plan)).expect("client connects");
                    let h = client.submit(spec("grid", decode_opt)).expect("admission");
                    let r = h.await_result().expect("remote campaign finishes");
                    assert_eq!(
                        fingerprint(&r),
                        want,
                        "{tag}: the faulted wire must not alter the result"
                    );
                    let hit = fired(kind, &client.counters()) + fired(kind, &server.counters());
                    assert!(hit > 0, "{tag}: the targeted fault never fired");
                    server.stop();
                    drop(service);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
}

/// Sustained random loss on both directions: the retry ladder grinds
/// through it and the result is still bit-identical.
#[test]
fn lossy_wire_converges_to_the_clean_result() {
    let want = service_reference(true);
    let dir = tmp("lossy");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let service = Arc::new(Service::new(ServiceConfig::new(&dir), resolver).expect("service"));
    let net = MemNet::new();
    let plan = NetFaultPlan::uniform(0xBAD_CAB1E, 0.12, |k| !k.kills_connection());
    let server = RpcServer::start(
        Arc::clone(&service),
        &net,
        ServerOptions {
            fault_plan: plan.clone(),
            ..ServerOptions::default()
        },
    );
    let mut opts = client_opts(plan);
    opts.max_attempts = 32;
    let client = RemoteService::connect(&net, opts).expect("client connects");
    let h = client.submit(spec("lossy", true)).expect("admission");
    let r = h.await_result().expect("remote campaign finishes through the loss");
    assert_eq!(fingerprint(&r), want, "loss is retried away, never absorbed");
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// Server crash + service churn: the campaign dies mid-epoch (torn
/// journal tails), the RPC server is killed abruptly, and a successor
/// server over the restored service answers the *same client* — session
/// resumed, result bit-identical to the uninterrupted run.
#[test]
fn server_kill_and_restore_resumes_the_session() {
    // A budget big enough that the 151-exec kill switch fires mid-run.
    let churn_budget = 1_500_000;
    // Uninterrupted ground truth through the single-campaign builder.
    let t = targets::by_name("giftext").expect("bundled target");
    let factory = MechanismFactory::new(Mechanism::ClosureX, t);
    let want = fingerprint(
        &Campaign::new(&corpus("giftext"), &cfg_with(churn_budget))
            .factory(&factory)
            .run()
            .expect("reference campaign runs")
            .finished()
            .expect("no kill configured"),
    );

    let dir = tmp("churn");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let net = MemNet::new();

    // Leg 1: armed kill switch; the tenant dies mid-epoch (151 is off
    // every barrier) and the client sees the typed Killed error over RPC.
    let mut churn_cfg = ServiceConfig::new(&dir);
    churn_cfg.kill_after_execs = Some(151);
    let service1 = Arc::new(
        Service::new(churn_cfg, Arc::clone(&resolver)).expect("service starts"),
    );
    let server1 = RpcServer::start(Arc::clone(&service1), &net, ServerOptions::default());
    let mut opts = client_opts(NetFaultPlan::none());
    opts.await_timeout = Duration::from_secs(30); // the churn campaign is real work
    let client = RemoteService::connect(&net, opts).expect("client connects");
    let session = client.session();
    assert_ne!(session, 0, "a live handshake assigns a session");
    let mut churn_spec =
        CampaignSpec::new("churn", factory_spec("giftext"), corpus("giftext"), cfg_with(churn_budget));
    churn_spec.shards = 2;
    let h = client.submit(churn_spec).expect("admission");
    match h.await_result() {
        Err(RemoteError::Service(ServiceError::Killed { execs })) => {
            assert!(execs >= 151, "kill switch must have fired");
        }
        other => panic!("expected the killed campaign over the wire, got {other:?}"),
    }

    // Abrupt server death + graceful service drain: durable state is
    // spec.bin, the shard checkpoints with torn tails, and the RPC reply
    // journal.
    server1.kill();
    drop(service1);

    // Leg 2: successor server over the restored service, same MemNet,
    // same client value. The next call reconnects, resumes the session,
    // and the resumed campaign finishes bit-identically.
    let service2 = Arc::new(
        Service::restore(ServiceConfig::new(&dir), resolver).expect("service restores"),
    );
    let server2 = RpcServer::start(Arc::clone(&service2), &net, ServerOptions::default());
    let h = client
        .handle("churn")
        .expect("transport recovers")
        .expect("tenant survived the churn");
    let r = h.await_result().expect("restored campaign finishes");
    assert_eq!(
        fingerprint(&r),
        want,
        "server kill + service churn + restore must reproduce the uninterrupted result"
    );
    assert!(
        r.resume.expect("restored result carries its resume report").records_applied > 0,
        "resume must replay a journal tail"
    );
    assert_eq!(client.session(), session, "the session survives the server");
    assert!(
        client.counters().sessions_resumed > 0,
        "the successor server must resume, not reassign, the session"
    );
    server2.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// Admission-level idempotency: when the reply journal can no longer
/// answer a retried Submit (here: a different client session entirely),
/// an identical spec dedupes into success while a conflicting spec is
/// still refused as a duplicate.
#[test]
fn duplicate_submits_dedupe_only_on_identical_specs() {
    let dir = tmp("dedup");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let service = Arc::new(Service::new(ServiceConfig::new(&dir), resolver).expect("service"));
    let net = MemNet::new();
    let server = RpcServer::start(Arc::clone(&service), &net, ServerOptions::default());

    let a = RemoteService::connect(&net, client_opts(NetFaultPlan::none())).expect("client a");
    let b = RemoteService::connect(&net, client_opts(NetFaultPlan::none())).expect("client b");
    assert_ne!(a.session(), b.session(), "distinct sessions");

    let s = spec("dedup", true);
    a.submit(s.clone()).expect("first admission");
    // The same bytes again, from a session whose journal has never seen
    // the request: admitted-as-duplicate collapses to success.
    b.submit(s.clone()).expect("identical spec dedupes to success");
    assert!(
        server.counters().dup_submits_deduped > 0,
        "the dedup path, not a fresh admission, must have served it"
    );
    // Same name, different campaign: a real conflict, refused.
    let mut conflicting = spec("dedup", false);
    conflicting.cfg.seed ^= 1;
    match b.submit(conflicting) {
        Err(RemoteError::Admission(RemoteAdmissionError::Duplicate(name))) => {
            assert_eq!(name, "dedup");
        }
        other => panic!("conflicting spec must stay refused, got {other:?}"),
    }
    let r = a
        .handle("dedup")
        .expect("transport up")
        .expect("tenant exists")
        .await_result()
        .expect("campaign finishes");
    // The tenant name never reaches the result: the deduped campaign is
    // bit-identical to the reference run under any name.
    assert_eq!(fingerprint(&r), service_reference(true));
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

/// The ladder's last rung: no server at all, a local fallback configured.
/// Every verb works, served degraded, and the result is bit-identical —
/// it runs through the same `execute_op` the server would have used.
#[test]
fn degraded_local_fallback_is_bit_identical() {
    let want = service_reference(true);
    let dir = tmp("degraded");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let fallback =
        Arc::new(Service::new(ServiceConfig::new(&dir), resolver).expect("service"));
    let net = MemNet::new(); // nobody listens
    let opts = RemoteOptions {
        max_attempts: 2,
        fallback: Some(Arc::clone(&fallback)),
        ..client_opts(NetFaultPlan::none())
    };
    let client = RemoteService::connect(&net, opts).expect("degraded connect succeeds");
    assert_eq!(client.served_by(), ServedBy::Degraded(Degraded::Local));
    assert_eq!(client.session(), 0, "no server ever assigned a session");
    let h = client.submit(spec("grid", true)).expect("degraded admission");
    assert!(h.status().is_ok());
    let r = h.await_result().expect("degraded campaign finishes");
    assert_eq!(
        fingerprint(&r),
        want,
        "the degraded rung serves the identical result"
    );
    let c = client.counters();
    assert!(c.degraded_calls >= 3, "every verb was served degraded: {c:?}");
    let _ = std::fs::remove_dir_all(dir);
}
