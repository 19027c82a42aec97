//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <persistent|service-rpc|isolated-fork> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Runs the workload's seeded closed-loop campaigns for `--seconds`,
//! setting it up from cold before every unit of campaigns (`setup_s` is
//! the median), then checks
//! every campaign against its oracle. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics from a traced run (`--trace 1`).
//! See `perfbench/README.md` for the workloads and what each metric
//! predicts.

mod plan;
mod probe;
mod report;
mod run;
mod scratch;
mod setup;
mod stats;
mod trace;
mod wrap;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use plan::Workload;
use report::{EndToEnd, Layers, END_TO_END, PER_LAYER};
use run::Runner;
use scratch::RunDir;
use wrap::now_ns;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    if argv.len() != 8 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    let name = get("--workload")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", plan::WORKLOADS))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: u32 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

fn main() {
    // A lane worker or set-up probe serves and exits here.
    aflrs::worker_main_hook(wrap::worker_factory);
    setup::probe_main_hook();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match bench_run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn bench_run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let dir = RunDir::create()?;
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "scratch: {} on {} (removed at exit)",
        dir.path().display(),
        scratch::filesystem(dir.path())
    );

    // Set-up, from cold: once here, then again before every later unit,
    // so set-up is sampled across the run like the units are.
    let s0 = now_ns();
    let (first, modules) = setup::cold(w, dir.path())?;
    let mut setup_spans = vec![(s0, now_ns())];
    let mut setup = vec![first];
    let modules = Arc::new(modules);
    let logs = Arc::new(Mutex::new(Vec::new()));
    let stack = match w {
        Workload::ServiceRpc => Some(setup::Stack::start(
            dir.path(),
            Arc::clone(&modules),
            wrap::Sink::Memory(Arc::clone(&logs)),
        )?),
        _ => None,
    };
    let runner = Runner {
        workload: w,
        dir: &dir,
        modules: Arc::clone(&modules),
        logs: Arc::clone(&logs),
        worker_trace_dir: dir.sub("worker-trace")?,
        stack,
    };

    // The timed window: whole units, closed loop. A traced run runs each
    // unit twice, untraced and traced, alternating which goes first.
    let exact = w.exact_units();
    let t0 = Instant::now();
    let window0 = now_ns();
    let mut recs = Vec::new();
    let mut probes = Vec::new();
    let mut peak_rss = 0.0;
    let mut units_s = 0.0;
    let mut lowered = 0;
    let mut unit = 0u32;
    loop {
        if unit > 0 {
            let s0 = now_ns();
            setup.push(setup::cold(w, dir.path())?.0);
            setup_spans.push((s0, now_ns()));
        }
        probes.push(probe::step_ns(w.busy_threads()));
        let plans = w.unit(args.seed, unit);
        let order: &[bool] = match (args.trace, unit % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let (t, lowered0) = (Instant::now(), vmos::decode_counters().lowered);
        for &traced in order {
            recs.extend(runner.unit(unit, &plans, traced));
        }
        units_s += t.elapsed().as_secs_f64();
        lowered += vmos::decode_counters().lowered - lowered0;
        unit += 1;
        if unit == exact {
            // Peak memory over a fixed amount of work.
            peak_rss = scratch::peak_rss_mb().ok_or("cannot read peak RSS")?;
        }
        if unit >= exact && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let window = (window0, now_ns());
    let Runner { stack, .. } = runner;
    let counters = stack
        .as_ref()
        .map(|s| (s.service.stats(), s.client.counters()));
    if let Some(s) = stack {
        s.stop();
    }
    let logs = std::mem::take(&mut *logs.lock().map_err(|_| "lane logs poisoned")?);

    // The oracle, outside the window.
    let oracle_t = Instant::now();
    let verdicts = run::check(w, &modules, &recs)?;
    let failed = verdicts.iter().filter(|v| v.is_err()).count();
    for e in verdicts.iter().filter_map(|v| v.as_ref().err()) {
        println!("FAILED: {e}");
    }
    let plain = recs.iter().filter(|r| !r.traced).count();
    println!(
        "window {:.3} s ({units_s:.3} s in units), {unit} unit(s), {} campaigns ({plain} untraced); \
         oracle checked all in {:.2} s: {failed} failed",
        (window.1 - window.0) as f64 / 1e9,
        recs.len(),
        oracle_t.elapsed().as_secs_f64()
    );

    let (metrics, spec): (Vec<report::Metric>, &[(&str, &str)]) = if args.trace {
        let m = report::per_layer(&Layers {
            recs: &recs,
            logs: &logs,
            setup: &setup,
            lowered,
            service: counters.as_ref().map(|c| &c.0),
            rpc: counters.as_ref().map(|c| &c.1),
            process_lanes: w == Workload::IsolatedFork,
        });
        let path = std::path::Path::new(scratch::ROOT).join(format!("trace-{}.tsv", w.name()));
        let n = trace::write(&path, w.name(), window, &setup_spans, &recs, &logs)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {n} spans written to {}", path.display());
        (m, &PER_LAYER)
    } else {
        let m = report::end_to_end(&EndToEnd {
            recs: &recs,
            failed,
            units_s,
            probe_ns: stats::median(&probes).ok_or("no host probe")?,
            setup: &setup,
            peak_rss_mb: peak_rss,
            exact_units: exact,
        });
        (m, &END_TO_END)
    };
    report::validate(&metrics, spec)?;
    for (m, (_, u)) in metrics.iter().zip(spec) {
        println!(
            "{:<34} {:>16.6} {u:<14} n={:<7} {}",
            m.name, m.value, m.n, m.note
        );
    }
    drop(dir);
    Ok(report::json(
        recs.len(),
        failed,
        failed == 0,
        &metrics,
        spec,
    ))
}
