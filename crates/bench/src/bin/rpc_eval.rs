//! **RPC front-end evaluation**: the network service plane must be
//! *invisible* to campaign results and *cheap* on the clean path.
//!
//! Scenarios:
//!
//! 1. **Fault-grid identity** — every [`vmos::NetFaultKind`] × both
//!    directions × the first three frame positions of the client's first
//!    connection, on both engines (optimized decoded lowering and the
//!    plain decoded streams). Each cell submits and awaits a campaign
//!    over the faulted wire and must (a) observe the targeted fault
//!    actually firing and (b) read a result bit-identical to the same
//!    campaign through the in-process [`Service`] API.
//! 2. **Server churn** — the campaign dies mid-epoch (simulated SIGKILL),
//!    the RPC server is killed abruptly, and a successor server over the
//!    restored service must resume the same client session and serve the
//!    bit-identical uninterrupted result.
//! 3. **Clean-path overhead** — wall clock of one campaign driven over a
//!    fault-free wire vs the same campaign through the in-process
//!    service. Within-run ratio, best of two trials per leg.
//!
//! Writes `results/BENCH_rpc.json` (`_smoke` under `--smoke`). Smoke mode
//! gates the fault-grid rate (floor: 1.0), the churn-resume identity, and
//! the overhead ratio against twice the blessed ceiling in
//! `results/BENCH_rpc_floor.json`.

use aflrs::{
    Campaign, CampaignConfig, CampaignResult, CampaignSpec, MemNet, RemoteError, RemoteOptions,
    RemoteService, RpcCounters, RpcServer, ServerOptions, Service, ServiceConfig, ServiceError,
    SpecResolver,
};
use bench::{floor, Mechanism, MechanismFactory, MechanismResolver};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vmos::{NetFaultKind, NetFaultPlan, PlanKind};

/// Per-cell campaign budget: transport faults never touch the campaign,
/// so a short run discriminates exactly as well as a long one.
const GRID_BUDGET: u64 = 150_000;
const SMOKE_BUDGET: u64 = 1_500_000;
/// Off every epoch barrier, so the churn kill lands mid-epoch.
const CHURN_KILL: u64 = 151;

#[derive(Serialize)]
struct Cell {
    engine: &'static str,
    fault: &'static str,
    /// 0 = client→server, 1 = server→client.
    direction: u8,
    /// Frame sequence position on the client's first connection.
    frame: u64,
    /// The targeted fault demonstrably fired at one endpoint.
    fault_fired: bool,
    /// The gate: remote result bit-identical to the in-process run.
    identical: bool,
}

#[derive(Serialize)]
struct ChurnStory {
    /// Executions journaled when the in-campaign kill fired.
    killed_at: u64,
    /// The client's session survived the server replacement.
    session_resumed: bool,
    /// Journal replays served by both servers across the episode.
    journal_replays: u64,
    /// The gate: the resumed campaign's result is bit-identical to the
    /// uninterrupted builder run.
    identical: bool,
}

#[derive(Serialize)]
struct Aggregate {
    grid_cells: usize,
    identical_cells: usize,
    fault_grid_rate: f64,
    service_wall_secs: f64,
    rpc_wall_secs: f64,
    /// RPC-driven over in-process wall clock for one campaign: what the
    /// framing, checksumming, and reply journal cost when nothing fails.
    rpc_overhead_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    mode: String,
    grid_budget_cycles: u64,
    overhead_budget_cycles: u64,
    cells: Vec<Cell>,
    churn: ChurnStory,
    aggregate: Aggregate,
}

fn fingerprint(r: &CampaignResult) -> String {
    serde_json::to_string(&r.sans_resume()).expect("result serializes")
}

fn cfg(budget: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles: budget,
        seed: 0x5EAF00D,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
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

fn spec(name: &str, decode_opt: bool, budget: u64) -> CampaignSpec {
    let mut s = CampaignSpec::new(name, factory_spec("giftext"), corpus("giftext"), cfg(budget));
    s.shards = 1;
    s.decode_opt = decode_opt;
    s
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("closurex-rpc-eval-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn client_opts(plan: NetFaultPlan) -> RemoteOptions {
    RemoteOptions {
        fault_plan: plan,
        read_timeout: Duration::from_millis(50),
        await_timeout: Duration::from_secs(5),
        ..RemoteOptions::default()
    }
}

/// Which counter proves a given fault kind fired.
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

/// Ground truth per engine: the same campaign through a local service.
fn service_reference(decode_opt: bool) -> String {
    let dir = scratch(if decode_opt { "ref-opt" } else { "ref-plain" });
    let resolver: Arc<dyn SpecResolver> = Arc::new(MechanismResolver);
    let service = Service::new(ServiceConfig::new(&dir), resolver).expect("service starts");
    let h = service
        .submit(spec("cell", decode_opt, GRID_BUDGET))
        .expect("admission");
    let fp = fingerprint(&h.await_result().expect("local campaign finishes"));
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    fp
}

/// One grid cell: a fresh service + server + client with the targeted
/// fault armed at both endpoints (each injects only on its own sends).
fn grid_cell(
    engine: &'static str,
    decode_opt: bool,
    kind: NetFaultKind,
    direction: u8,
    frame: u64,
    want: &str,
) -> Cell {
    let dir = scratch(&format!("grid-{engine}-{}-{direction}-{frame}", kind.name()));
    let resolver: Arc<dyn SpecResolver> = Arc::new(MechanismResolver);
    let service = Arc::new(Service::new(ServiceConfig::new(&dir), resolver).expect("service"));
    let net = MemNet::new();
    let plan = NetFaultPlan::at((0, direction, frame), kind);
    let server = RpcServer::start(
        Arc::clone(&service),
        &net,
        ServerOptions {
            fault_plan: plan.clone(),
            ..ServerOptions::default()
        },
    );
    let client = RemoteService::connect(&net, client_opts(plan)).expect("client connects");
    let h = client
        .submit(spec("cell", decode_opt, GRID_BUDGET))
        .expect("admission");
    let r = h.await_result().expect("remote campaign finishes");
    let fault_fired = fired(kind, &client.counters()) + fired(kind, &server.counters()) > 0;
    let identical = fingerprint(&r) == want;
    server.stop();
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    Cell {
        engine,
        fault: kind.name(),
        direction,
        frame,
        fault_fired,
        identical,
    }
}

/// Server churn: campaign killed mid-epoch, RPC server killed abruptly,
/// successor server over the restored service answers the same client.
fn churn_story(budget: u64) -> ChurnStory {
    let t = targets::by_name("giftext").expect("bundled target");
    let factory = MechanismFactory::new(Mechanism::ClosureX, t);
    let want = fingerprint(
        &Campaign::new(&corpus("giftext"), &cfg(budget))
            .factory(&factory)
            .run()
            .expect("reference campaign runs")
            .finished()
            .expect("no kill configured"),
    );

    let dir = scratch("churn");
    let resolver: Arc<dyn SpecResolver> = Arc::new(MechanismResolver);
    let net = MemNet::new();
    let mut churn_cfg = ServiceConfig::new(&dir);
    churn_cfg.kill_after_execs = Some(CHURN_KILL);
    let service1 =
        Arc::new(Service::new(churn_cfg, Arc::clone(&resolver)).expect("service starts"));
    let server1 = RpcServer::start(Arc::clone(&service1), &net, ServerOptions::default());
    let mut opts = client_opts(NetFaultPlan::none());
    opts.await_timeout = Duration::from_secs(60);
    let client = RemoteService::connect(&net, opts).expect("client connects");
    let session = client.session();
    let h = client
        .submit(spec("churn", true, budget))
        .expect("admission");
    let killed_at = match h.await_result() {
        Err(RemoteError::Service(ServiceError::Killed { execs })) => execs,
        other => panic!("expected the killed campaign over the wire, got {other:?}"),
    };
    let replays1 = server1.counters().journal_replays;
    server1.kill();
    drop(service1);

    let service2 = Arc::new(
        Service::restore(ServiceConfig::new(&dir), resolver).expect("service restores"),
    );
    let server2 = RpcServer::start(Arc::clone(&service2), &net, ServerOptions::default());
    let r = client
        .handle("churn")
        .expect("transport recovers")
        .expect("tenant survived the churn")
        .await_result()
        .expect("restored campaign finishes");
    let story = ChurnStory {
        killed_at,
        session_resumed: client.session() == session && client.counters().sessions_resumed > 0,
        journal_replays: replays1 + server2.counters().journal_replays,
        identical: fingerprint(&r) == want,
    };
    server2.stop();
    drop(service2);
    let _ = std::fs::remove_dir_all(dir);
    story
}

/// Wall clock of one campaign over the fault-free wire vs in-process.
/// Best of two trials per leg (robust to host noise spikes; the gate
/// doubles the blessed ceiling on top).
fn overhead(budget: u64) -> (f64, f64) {
    let budget = budget * 4;
    // Warm-up settles the decode cache on both paths.
    let _ = service_reference(true);

    let service_secs = (0..2)
        .map(|trial| {
            let dir = scratch(&format!("local-{trial}"));
            let resolver: Arc<dyn SpecResolver> = Arc::new(MechanismResolver);
            let start = Instant::now();
            let service =
                Service::new(ServiceConfig::new(&dir), resolver).expect("service starts");
            let h = service
                .submit(spec("solo", true, budget))
                .expect("admission");
            h.await_result().expect("service campaign finishes");
            let secs = start.elapsed().as_secs_f64();
            drop(service);
            let _ = std::fs::remove_dir_all(dir);
            secs
        })
        .fold(f64::INFINITY, f64::min);

    let rpc_secs = (0..2)
        .map(|trial| {
            let dir = scratch(&format!("remote-{trial}"));
            let resolver: Arc<dyn SpecResolver> = Arc::new(MechanismResolver);
            let start = Instant::now();
            let service = Arc::new(
                Service::new(ServiceConfig::new(&dir), resolver).expect("service starts"),
            );
            let net = MemNet::new();
            let server =
                RpcServer::start(Arc::clone(&service), &net, ServerOptions::default());
            let mut opts = client_opts(NetFaultPlan::none());
            opts.await_timeout = Duration::from_secs(600);
            let client = RemoteService::connect(&net, opts).expect("client connects");
            let h = client
                .submit(spec("solo", true, budget))
                .expect("admission");
            h.await_result().expect("remote campaign finishes");
            let secs = start.elapsed().as_secs_f64();
            server.stop();
            drop(service);
            let _ = std::fs::remove_dir_all(dir);
            secs
        })
        .fold(f64::INFINITY, f64::min);
    (service_secs, rpc_secs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "rpc_eval ({mode}): grid = {} fault kinds x 2 directions x 3 frames x 2 engines \
         at {GRID_BUDGET} cycles/cell, churn kill at {CHURN_KILL} execs, \
         overhead at {} cycles\n",
        NetFaultKind::ALL.len(),
        budget * 4
    );

    let mut cells = Vec::new();
    for (engine, decode_opt) in [("opt", true), ("plain", false)] {
        let want = service_reference(decode_opt);
        for &kind in NetFaultKind::ALL {
            for direction in [0u8, 1u8] {
                for frame in 0u64..3 {
                    cells.push(grid_cell(engine, decode_opt, kind, direction, frame, &want));
                }
            }
        }
    }
    let identical = cells
        .iter()
        .filter(|c| c.identical && c.fault_fired)
        .count();
    let rate = identical as f64 / cells.len() as f64;
    for c in cells.iter().filter(|c| !(c.identical && c.fault_fired)) {
        eprintln!(
            "DIVERGED: engine={} fault={} direction={} frame={} (fired={}, identical={})",
            c.engine, c.fault, c.direction, c.frame, c.fault_fired, c.identical
        );
    }
    println!(
        "fault grid: {identical}/{} cells fired-and-identical (rate {rate:.3})",
        cells.len()
    );

    let churn = churn_story(budget);
    println!(
        "churn story: killed at {} execs, session resumed: {}, {} journal replays, \
         identical: {}",
        churn.killed_at, churn.session_resumed, churn.journal_replays, churn.identical
    );

    let (service_secs, rpc_secs) = overhead(budget);
    let ratio = if service_secs > 0.0 { rpc_secs / service_secs } else { 1.0 };
    println!("overhead: in-process {service_secs:.3}s, over RPC {rpc_secs:.3}s ({ratio:.2}x)");

    let agg = Aggregate {
        grid_cells: cells.len(),
        identical_cells: identical,
        fault_grid_rate: rate,
        service_wall_secs: service_secs,
        rpc_wall_secs: rpc_secs,
        rpc_overhead_ratio: ratio,
    };
    let churn_ok = churn.identical && churn.session_resumed;
    let report_name = if smoke { "BENCH_rpc_smoke" } else { "BENCH_rpc" };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            grid_budget_cycles: GRID_BUDGET,
            overhead_budget_cycles: budget * 4,
            cells,
            churn,
            aggregate: agg,
        },
    );

    if rate < 1.0 {
        eprintln!("FAIL: a fault-grid cell diverged (or its fault never fired)");
        std::process::exit(1);
    }
    if !churn_ok {
        eprintln!("FAIL: the churn episode lost the session or diverged");
        std::process::exit(1);
    }
    if smoke {
        const FLOOR: &str = "results/BENCH_rpc_floor.json";
        let f = floor(FLOOR, "fault_grid_rate");
        if rate < f {
            eprintln!("FAIL: fault-grid rate {rate:.3} below the checked-in floor {f:.3}");
            std::process::exit(1);
        }
        println!("Floor check passed: fault grid {rate:.3} >= {f:.3}.");
        // Wall clock is noisy and the numerator is one campaign: gate at
        // twice the recorded ratio (the identity gates above are the exact
        // ones; this catches regressions in transport cost, not host phase).
        let f = floor(FLOOR, "smoke_rpc_overhead_ratio");
        let max = f * 2.0;
        if ratio > max {
            eprintln!(
                "FAIL: RPC overhead {ratio:.2}x exceeds twice the checked-in \
                 ceiling {f:.2}x (maximum {max:.2}x)"
            );
            std::process::exit(1);
        }
        println!("Floor check passed: overhead {ratio:.2}x <= 2x ceiling {f:.2}x.");
    }
}
