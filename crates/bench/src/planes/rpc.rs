//! RPC plane: the network front end is invisible to campaign results.
//! Whatever a client reads over a faulted wire matches the same campaign
//! through the in-process [`Service`] API, across every [`NetFaultKind`] ×
//! both directions × the first three frames of the client's first
//! connection (each targeted fault must fire), sustained random loss, a
//! server killed and replaced under a live session, retried submits that
//! land as duplicates, and the degraded local fallback.
//!
//! Which engine runs is independent of wire faults, so the grid runs on
//! the default engine; `tests/engine_equivalence.rs` proves the engines
//! agree.
//!
//! Cost ratio: one campaign's wall clock over a fault-free wire over the
//! same campaign through the in-process service, best of two each.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aflrs::{
    CampaignConfig, CampaignResult, Degraded, MemNet, RemoteAdmissionError, RemoteError,
    RemoteOptions, RemoteService, RpcCounters, RpcServer, ServedBy, ServerOptions, Service,
    ServiceConfig, ServiceError, SpecResolver,
};
use vmos::{NetFaultKind, NetFaultPlan, PlanKind};

use super::{
    budget, cfg, ensure, in_scratch, reran, resume_report, same, tenant, Block, Cell, Fail, Grid,
    Part, Role, Setup, Size,
};
use crate::MechanismResolver;

const BOTH: &[Block] = &[Block::Supervision, Block::Storage];
const TARGET: &str = "giftext";
/// Wire-grid campaign budget: transport faults never touch the campaign,
/// so a short run discriminates as well as a long one.
const GRID_BUDGET: u64 = 150_000;
/// Off every epoch barrier, so the churn kill lands mid-epoch.
const CHURN_KILL: u64 = 151;

fn resolver() -> Arc<dyn SpecResolver> {
    Arc::new(MechanismResolver)
}

fn service(dir: &Path) -> Result<Arc<Service>, String> {
    Service::new(ServiceConfig::new(dir), resolver())
        .map(Arc::new)
        .fail()
}

/// A fresh service over `dir` behind an RPC server on a fresh wire, with
/// `plan` armed on the server's sends; `client` runs against it, then the
/// server stops.
fn served<T>(
    dir: &Path,
    plan: NetFaultPlan,
    client: impl FnOnce(&MemNet, &RpcServer) -> Result<T, String>,
) -> Result<T, String> {
    let net = MemNet::new();
    let opts = ServerOptions {
        fault_plan: plan,
        ..ServerOptions::default()
    };
    let server = RpcServer::start(service(dir)?, &net, opts);
    let out = client(&net, &server);
    server.stop();
    out
}

/// Short timeouts: a dropped frame should cost milliseconds, and even a
/// dropped Await retries into a journal replay quickly.
fn client_opts(plan: NetFaultPlan, await_secs: u64) -> RemoteOptions {
    RemoteOptions {
        fault_plan: plan,
        read_timeout: Duration::from_millis(50),
        await_timeout: Duration::from_secs(await_secs),
        ..RemoteOptions::default()
    }
}

/// Which counter proves a fault kind fired.
fn fired(kind: NetFaultKind, c: &RpcCounters) -> u64 {
    match kind {
        NetFaultKind::Drop => c.frames_dropped,
        NetFaultKind::Delay => c.frames_delayed,
        NetFaultKind::Duplicate => c.frames_duplicated,
        NetFaultKind::Corrupt => c.frames_corrupted,
        NetFaultKind::Disconnect => c.disconnects_injected,
        NetFaultKind::PartialFrame => c.partial_frames,
    }
}

/// The grid campaign through a local service: the wire cells' reference.
fn local(cfg: &CampaignConfig) -> Result<CampaignResult, String> {
    in_scratch("rpc-local", |dir| {
        let svc = service(dir)?;
        let h = svc.submit(tenant("grid", TARGET, 1, cfg.clone())).fail()?;
        h.await_result().fail()
    })
}

/// The RPC grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            fault_grid_is_bit_identical,
            server_kill_and_restore_resumes_the_session,
            lossy_wire_converges_to_the_clean_result,
            duplicate_submits_dedupe_only_on_identical_specs,
            degraded_local_fallback_is_bit_identical,
        ],
        Size::Smoke | Size::Full => &[
            fault_grid_is_bit_identical,
            server_kill_and_restore_resumes_the_session,
            overhead,
        ],
    };
    super::run(size, parts)
}

/// What a grid size varies.
struct Shape {
    seed: u64,
    /// Client await timeout of a wire cell.
    await_secs: u64,
    /// Worker count and budget of the churn tenant.
    churn: (usize, u64),
}

impl Shape {
    fn of(size: Size) -> Self {
        match size {
            Size::Test => Shape {
                seed: 0xC0FFEE,
                await_secs: 2,
                churn: (2, 1_500_000),
            },
            Size::Smoke | Size::Full => Shape {
                seed: 0x5EAF00D,
                await_secs: 5,
                churn: (1, budget(size, 1_500_000)),
            },
        }
    }

    /// The wire cells' campaign.
    fn grid_cfg(&self) -> CampaignConfig {
        cfg(self.seed, GRID_BUDGET)
    }
}

/// The wire cells' campaign and its reference result through a local
/// service.
fn reference(g: &mut Grid) -> Option<(CampaignConfig, CampaignResult)> {
    let cfg = Shape::of(g.size()).grid_cfg();
    let want = g.cell(TARGET, "local service run", || local(&cfg))?;
    Some((cfg, want))
}

/// Every fault kind × both directions × the first three frames.
pub fn fault_grid_is_bit_identical(g: &mut Grid) {
    let await_secs = Shape::of(g.size()).await_secs;
    if let Some((cfg, want)) = reference(g) {
        for &kind in NetFaultKind::ALL {
            for direction in [0u8, 1] {
                for frame in 0..3 {
                    wire_cell(g, &cfg, &want, (kind, direction, frame), await_secs);
                }
            }
        }
    }
}

/// A server killed and replaced under a live session.
pub fn server_kill_and_restore_resumes_the_session(g: &mut Grid) {
    let shape = Shape::of(g.size());
    server_churn(g, shape.seed, shape.churn.1, shape.churn.0);
}

/// Sustained random loss converges to the clean result.
pub fn lossy_wire_converges_to_the_clean_result(g: &mut Grid) {
    if let Some((cfg, want)) = reference(g) {
        lossy(g, &cfg, &want);
    }
}

/// Retried submits dedupe only when the specs are identical.
pub fn duplicate_submits_dedupe_only_on_identical_specs(g: &mut Grid) {
    if let Some((cfg, want)) = reference(g) {
        dedupe(g, &cfg, &want);
    }
}

/// With no server, the local fallback serves every verb.
pub fn degraded_local_fallback_is_bit_identical(g: &mut Grid) {
    if let Some((cfg, want)) = reference(g) {
        degraded(g, &cfg, &want);
    }
}

/// A fresh service, server and client with the targeted fault armed at
/// both endpoints (each injects only on its own sends): the remote result
/// must match and the fault must have fired.
fn wire_cell(
    g: &mut Grid,
    cfg: &CampaignConfig,
    want: &CampaignResult,
    at: (NetFaultKind, u8, u64),
    await_secs: u64,
) {
    let (kind, direction, frame) = at;
    let label = format!("{} direction={direction} frame={frame}", kind.name());
    g.cell(TARGET, label, || {
        in_scratch("rpc-grid", |dir| {
            let plan = NetFaultPlan::at((0, direction, frame), kind);
            served(dir, plan.clone(), |net, server| {
                let client = RemoteService::connect(net, client_opts(plan, await_secs)).fail()?;
                let h = client
                    .submit(tenant("grid", TARGET, 1, cfg.clone()))
                    .fail()?;
                same(&h.await_result().fail()?, want, BOTH)?;
                let hits = fired(kind, &client.counters()) + fired(kind, &server.counters());
                ensure(hits > 0, || "the targeted fault never fired".to_string())
            })
        })
    });
}

/// Sustained random loss on both directions: the retry ladder grinds
/// through it, and the result still matches.
fn lossy(g: &mut Grid, cfg: &CampaignConfig, want: &CampaignResult) {
    g.cell(TARGET, "12% random loss", || {
        in_scratch("rpc-lossy", |dir| {
            let plan = NetFaultPlan::uniform(0xBAD_CAB1E, 0.12, |k| !k.kills_connection());
            served(dir, plan.clone(), |net, _| {
                let opts = RemoteOptions {
                    max_attempts: 32,
                    ..client_opts(plan, 2)
                };
                let client = RemoteService::connect(net, opts).fail()?;
                let h = client
                    .submit(tenant("lossy", TARGET, 1, cfg.clone()))
                    .fail()?;
                same(&h.await_result().fail()?, want, BOTH)
            })
        })
    });
}

/// The campaign dies mid-epoch, the RPC server is killed abruptly, and a
/// successor server over the restored service answers the same client:
/// session resumed, result equal to the uninterrupted builder run.
fn server_churn(g: &mut Grid, seed: u64, budget: u64, shards: usize) {
    let s = Setup {
        witnesses: true,
        ..Setup::new(TARGET, seed, budget)
    };
    let Some(want) = g.cell(TARGET, "builder run", || s.run(1, |c| c)) else {
        return;
    };
    let label = format!("kill@{CHURN_KILL} + server kill + restore, shards={shards}");
    g.cell(TARGET, label, || {
        in_scratch("rpc-churn", |dir| {
            let net = MemNet::new();
            let mut killing = ServiceConfig::new(dir);
            killing.kill_after_execs = Some(CHURN_KILL);
            let first = Arc::new(Service::new(killing, resolver()).fail()?);
            let server = RpcServer::start(Arc::clone(&first), &net, ServerOptions::default());
            let client =
                RemoteService::connect(&net, client_opts(NetFaultPlan::none(), 60)).fail()?;
            let session = client.session();
            ensure(session != 0, || {
                "the handshake assigned no session".to_string()
            })?;
            let h = client
                .submit(tenant("churn", TARGET, shards, cfg(seed, budget)))
                .fail()?;
            let killed_at = match h.await_result() {
                Err(RemoteError::Service(ServiceError::Killed { execs }))
                    if execs >= CHURN_KILL =>
                {
                    execs
                }
                other => return Err(format!("expected the kill over the wire, got {other:?}")),
            };
            // Abrupt server death; the durable state is spec.bin, the
            // shard snapshots up to the last barrier and the reply journal.
            server.kill();
            drop(first);
            let second = Service::restore(ServiceConfig::new(dir), resolver()).fail()?;
            let server = RpcServer::start(Arc::new(second), &net, ServerOptions::default());
            let r = client
                .handle("churn")
                .fail()
                .and_then(|h| h.ok_or("the tenant did not survive the churn".to_string()))
                .and_then(|h| h.await_result().fail());
            server.stop();
            let r = r?;
            same(&r, &want, BOTH)?;
            reran(killed_at, resume_report(&r)?)?;
            ensure(
                client.session() == session && client.counters().sessions_resumed > 0,
                || "the successor server reassigned the session instead of resuming it".to_string(),
            )
        })
    });
}

/// When the reply journal cannot answer a retried Submit (here: another
/// session), an identical spec dedupes into success and a conflicting one
/// is refused.
fn dedupe(g: &mut Grid, cfg: &CampaignConfig, want: &CampaignResult) {
    g.cell(TARGET, "duplicate submits from two sessions", || {
        in_scratch("rpc-dedup", |dir| {
            served(dir, NetFaultPlan::none(), |net, server| {
                let connect =
                    || RemoteService::connect(net, client_opts(NetFaultPlan::none(), 2)).fail();
                let (a, b) = (connect()?, connect()?);
                ensure(a.session() != b.session(), || {
                    "two clients share a session".to_string()
                })?;
                let spec = tenant("dedup", TARGET, 1, cfg.clone());
                a.submit(spec.clone()).fail()?;
                b.submit(spec.clone()).fail()?;
                ensure(server.counters().dup_submits_deduped > 0, || {
                    "the identical spec was not served by the dedup path".to_string()
                })?;
                let mut conflicting = spec;
                conflicting.cfg.seed ^= 1;
                match b.submit(conflicting) {
                    Err(RemoteError::Admission(RemoteAdmissionError::Duplicate(name)))
                        if name == "dedup" => {}
                    other => {
                        return Err(format!(
                            "a conflicting spec must stay refused, got {other:?}"
                        ))
                    }
                }
                let h = a.handle("dedup").fail()?.ok_or("tenant missing")?;
                // The tenant name never reaches the result.
                same(&h.await_result().fail()?, want, BOTH)
            })
        })
    });
}

/// No server at all, a local fallback configured: every verb is served
/// degraded through the same `execute_op` the server runs, and the result
/// matches.
fn degraded(g: &mut Grid, cfg: &CampaignConfig, want: &CampaignResult) {
    g.cell(TARGET, "degraded local fallback", || {
        in_scratch("rpc-degraded", |dir| {
            let opts = RemoteOptions {
                max_attempts: 2,
                fallback: Some(service(dir)?),
                ..client_opts(NetFaultPlan::none(), 2)
            };
            // Nobody listens on a fresh wire.
            let client = RemoteService::connect(&MemNet::new(), opts).fail()?;
            ensure(
                client.served_by() == ServedBy::Degraded(Degraded::Local) && client.session() == 0,
                || {
                    format!(
                        "expected a degraded client with no session, got {:?}",
                        client.served_by()
                    )
                },
            )?;
            let h = client
                .submit(tenant("grid", TARGET, 1, cfg.clone()))
                .fail()?;
            h.status().fail()?;
            same(&h.await_result().fail()?, want, BOTH)?;
            let c = client.counters();
            ensure(c.degraded_calls >= 3, || {
                format!("not every verb was served degraded: {c:?}")
            })
        })
    });
}

/// One campaign over a fault-free wire against the same one through the
/// in-process service, at four times the churn budget.
fn overhead(g: &mut Grid) {
    let shape = Shape::of(g.size());
    let cfg = cfg(shape.seed, shape.churn.1 * 4);
    let solo = || tenant("solo", TARGET, 1, cfg.clone());
    g.cell(TARGET, "warm-up", || local(&cfg));
    g.best_of(2, TARGET, "local service run", Role::Denominator, || {
        in_scratch("rpc-local", |dir| {
            let start = Instant::now();
            let svc = service(dir)?;
            svc.submit(solo()).fail()?.await_result().fail()?;
            Ok(start.elapsed().as_secs_f64())
        })
    });
    g.best_of(2, TARGET, "remote run", Role::Numerator, || {
        in_scratch("rpc-remote", |dir| {
            let start = Instant::now();
            served(dir, NetFaultPlan::none(), |net, _| {
                let client =
                    RemoteService::connect(net, client_opts(NetFaultPlan::none(), 600)).fail()?;
                client.submit(solo()).fail()?.await_result().fail()?;
                Ok(start.elapsed().as_secs_f64())
            })
        })
    });
}
