//! Cold set-up, timed by layer: compile (`minic`), instrument (`passes`),
//! decode (`vmos::decoded`), then the serving stack a workload needs
//! before its first exec — `Service` + `RpcServer` + `RemoteService`
//! for `service-rpc`, lane worker processes for `isolated-fork`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aflrs::{
    MemNet, RemoteOptions, RemoteService, RpcServer, ServerOptions, Service, ServiceConfig,
    SpecResolver,
};

use crate::plan::Workload;
use crate::wrap::{pipeline, BenchResolver, FactorySpec, Modules, Sink};

/// Environment variable that turns the benchmark binary into a set-up
/// probe: it builds one executor the way a lane worker does, reports
/// `ready` on stdout and exits.
pub const PROBE_ENV: &str = "PERFBENCH_PROBE";

/// Lanes (and so worker processes) of an `isolated-fork` campaign.
pub const FORK_LANES: usize = 2;

/// One cold set-up, in seconds per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    pub compile_s: f64,
    pub instrument_s: f64,
    pub decode_s: f64,
    /// Service/server/client start or worker spawn.
    pub stack_s: f64,
}

impl SetupSample {
    pub fn total(&self) -> f64 {
        self.compile_s + self.instrument_s + self.decode_s + self.stack_s
    }
}

/// Set up `w` from cold: evict every decoded image, then compile,
/// instrument and decode each of its targets and start its stack.
/// Returns the timings and the compiled modules.
pub fn cold(w: Workload, scratch: &Path) -> Result<(SetupSample, Modules), String> {
    vmos::DecodedImage::cache_evict_all();
    let mut s = SetupSample::default();
    let mut modules = Modules::new();
    for name in w.targets() {
        let target = targets::by_name(name).ok_or_else(|| format!("no target {name}"))?;
        let t = Instant::now();
        let module =
            minic::compile(target.name, target.source).map_err(|e| format!("{name}: {e}"))?;
        s.compile_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut instrumented = module.clone();
        pipeline(w.mechanism())
            .run(&mut instrumented)
            .map_err(|e| format!("{name}: {e}"))?;
        s.instrument_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        vmos::DecodedImage::warm(&instrumented);
        s.decode_s += t.elapsed().as_secs_f64();
        modules.insert(target.name, Arc::new(module));
    }
    s.stack_s = match w {
        Workload::Persistent => 0.0,
        Workload::ServiceRpc => {
            let modules = Arc::new(modules.clone());
            let t = Instant::now();
            let stack = Stack::start(scratch, modules, Sink::Memory(Arc::default()))?;
            let secs = t.elapsed().as_secs_f64();
            stack.stop();
            secs
        }
        Workload::IsolatedFork => {
            let t = Instant::now();
            spawn_probes(w, &w.targets()[..FORK_LANES.min(w.targets().len())])?;
            t.elapsed().as_secs_f64()
        }
    };
    Ok((s, modules))
}

/// The `service-rpc` stack: a 2-worker `Service`, an `RpcServer` in
/// front of it on a fault-free `MemNet`, and one connected client.
pub struct Stack {
    /// The service root; each tenant checkpoints under `dir/<name>/`.
    pub dir: std::path::PathBuf,
    pub service: Arc<Service>,
    server: RpcServer,
    pub client: RemoteService,
}

impl Stack {
    pub fn start(dir: &Path, modules: Arc<Modules>, sink: Sink) -> Result<Stack, String> {
        let dir = dir.join(format!("service-{}", crate::wrap::now_ns()));
        let resolver: Arc<dyn SpecResolver> = Arc::new(BenchResolver { modules, sink });
        let service = Arc::new(
            Service::new(ServiceConfig::new(&dir), resolver)
                .map_err(|e| format!("service start: {e}"))?,
        );
        let net = MemNet::new();
        let server = RpcServer::start(Arc::clone(&service), &net, ServerOptions::default());
        let client = RemoteService::connect(
            &net,
            RemoteOptions {
                await_timeout: Duration::from_secs(60),
                ..RemoteOptions::default()
            },
        )
        .map_err(|e| format!("client connect: {e}"))?;
        Ok(Stack {
            dir,
            service,
            server,
            client,
        })
    }

    /// Stop the server (joining its threads), then the service (joining
    /// its workers once the last reference drops).
    pub fn stop(self) {
        let Stack {
            dir: _,
            service,
            server,
            client,
        } = self;
        drop(client);
        server.stop();
        drop(service);
    }
}

/// Spawn one probe per target at once, as a process-isolated campaign
/// spawns its lanes, and wait until every probe has built its executor
/// and exited.
fn spawn_probes(w: Workload, names: &[&str]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let children: Vec<_> = names
        .iter()
        .map(|name| {
            Command::new(&exe)
                .env(PROBE_ENV, format!("{}:{name}", w.mechanism().wire_tag()))
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("probe spawn: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let outputs: Vec<_> = children.into_iter().map(|c| c.wait_with_output()).collect();
    for out in outputs {
        let out = out.map_err(|e| format!("probe wait: {e}"))?;
        if !out.status.success() || out.stdout != b"ready\n" {
            return Err(format!("probe failed: {:?}", out.status));
        }
    }
    Ok(())
}

/// Call at the top of `main`: when [`PROBE_ENV`] is set, build the named
/// executor, report and exit.
pub fn probe_main_hook() {
    let Ok(spec) = std::env::var(PROBE_ENV) else {
        return;
    };
    let code = match probe(&spec) {
        Ok(()) => {
            println!("ready");
            0
        }
        Err(e) => {
            eprintln!("probe: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn probe(spec: &str) -> Result<(), String> {
    let (tag, name) = spec.split_once(':').ok_or("probe spec is tag:target")?;
    let tag: u8 = tag.parse().map_err(|_| "probe tag")?;
    let spec = FactorySpec {
        campaign: 0,
        mechanism: bench::Mechanism::from_wire_tag(tag).ok_or("probe mechanism")?,
        target: name.to_string(),
        traced: false,
        trace_dir: String::new(),
    };
    let factory = crate::wrap::worker_factory(&spec.encode())?;
    factory.build().map(drop).map_err(|e| e.to_string())
}

/// Median of per-rep samples, by field.
pub fn medians(samples: &[SetupSample]) -> (SetupSample, f64) {
    let m = |f: fn(&SetupSample) -> f64| {
        let v: Vec<f64> = samples.iter().map(f).collect();
        crate::stats::median(&v).unwrap_or(0.0)
    };
    (
        SetupSample {
            compile_s: m(|s| s.compile_s),
            instrument_s: m(|s| s.instrument_s),
            decode_s: m(|s| s.decode_s),
            stack_s: m(|s| s.stack_s),
        },
        m(SetupSample::total),
    )
}
