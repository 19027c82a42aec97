//! The metrics, computed from the records, lane logs and counters of a
//! run. Each metric carries its sample count for the report.

use std::collections::{BTreeMap, BTreeSet};

use aflrs::{RpcCounters, ServiceStats, CYCLES_PER_SECOND};

use crate::run::Record;
use crate::setup::{SetupSample, FORK_LANES};
use crate::stats::{self_time, Summary};
use crate::wrap::LaneLog;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("execs_per_s", "1/s"),
    ("campaign_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_execs_per_s", "1/s"),
    ("edges_found", "count"),
    ("bugs_found", "count"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("minic.compile_s", "s"),
    ("passes.instrument_s", "s"),
    ("vmos.decode_s", "s"),
    ("vmos.decode_lowerings", "count/campaign"),
    ("vmos.ns_per_inst", "ns"),
    ("core.insts_per_exec", "count"),
    ("core.run_us_p50", "us"),
    ("core.run_us_p99", "us"),
    ("core.run_busy_frac", "fraction"),
    ("core.exec_cycles_per_exec", "cycles"),
    ("core.mgmt_cycles_per_exec", "cycles"),
    ("core.crash_frac", "fraction"),
    ("core.hang_frac", "fraction"),
    ("aflrs.driver.gap_us_p50", "us"),
    ("aflrs.driver.gap_us_p99", "us"),
    ("aflrs.driver.self_frac", "fraction"),
    ("aflrs.queue.yield", "entries/exec"),
    ("aflrs.queue_len", "count"),
    ("aflrs.checkpoint.bytes_per_exec", "B"),
    ("aflrs.storage.retries", "count/campaign"),
    ("aflrs.storage.degradations", "count/campaign"),
    ("aflrs.shard.barrier_s", "s/campaign"),
    ("aflrs.shard.barriers", "count/campaign"),
    ("aflrs.proc.overhead_frac", "fraction"),
    ("aflrs.proc.respawns", "count/campaign"),
    ("aflrs.service.admit_ms_p50", "ms"),
    ("aflrs.service.wait_s_p50", "s"),
    ("aflrs.service.grants", "count/campaign"),
    ("aflrs.rpc.status_rtt_us_p50", "us"),
    ("aflrs.rpc.status_rtt_us_p99", "us"),
    ("aflrs.rpc.retries", "count/campaign"),
    ("aflrs.rpc.timeouts", "count/campaign"),
    ("trace.overhead_frac", "fraction"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// How the value was taken (percentile actually used, base, …).
    pub note: String,
}

fn metric(name: &'static str, value: f64, n: usize, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        n,
        note: note.into(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median and the requested tail of a sample (0 when empty).
fn timing(
    (p50_name, tail_name): (&'static str, &'static str),
    xs: &[f64],
    what: &str,
) -> [Metric; 2] {
    let n = xs.len();
    let p50 = Summary::of(xs).map_or(0.0, |s| s.p50);
    let (p, tail) = Summary::at_most(xs, 99.0).unwrap_or((99.0, 0.0));
    [
        metric(p50_name, p50, n, format!("median {what}")),
        metric(tail_name, tail, n, format!("p{p} {what}")),
    ]
}

/// What the end-to-end metrics are computed from.
pub struct EndToEnd<'a> {
    pub recs: &'a [Record],
    pub failed: usize,
    /// Seconds spent running units (the window minus set-up).
    pub units_s: f64,
    /// Median host-probe step (see [`crate::probe`]).
    pub probe_ns: f64,
    pub setup: &'a [SetupSample],
    pub peak_rss_mb: f64,
    /// Units whose campaigns define the exact metrics.
    pub exact_units: u32,
}

pub fn end_to_end(e: &EndToEnd<'_>) -> Vec<Metric> {
    let plain: Vec<&Record> = e.recs.iter().filter(|r| !r.traced).collect();
    let ok: Vec<_> = plain
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|res| (*r, res)))
        .collect();
    let execs: u64 = ok.iter().map(|(_, r)| r.execs).sum();
    let walls: Vec<f64> = ok.iter().map(|(r, _)| r.wall_s()).collect();
    let campaign = Summary::of(&walls);
    let (_, setup_total) = crate::setup::medians(e.setup);

    let exact: Vec<_> = ok.iter().filter(|(r, _)| r.unit < e.exact_units).collect();
    let sim_execs: u64 = exact.iter().map(|(_, r)| r.execs).sum();
    let sim_cycles: u64 = exact.iter().map(|(_, r)| r.clock_cycles).sum();
    let edges: usize = exact.iter().map(|(_, r)| r.edges_found).sum();
    // Table 7 counts finding trials: each campaign's distinct planted
    // bugs, summed.
    let mut distinct: BTreeSet<&str> = BTreeSet::new();
    let mut bug_finds = 0usize;
    for (rec, r) in &exact {
        let spec = rec.plan.spec();
        let found: BTreeSet<&str> = r
            .crashes
            .iter()
            .filter_map(|c| spec.identify(&c.crash).map(|b| b.id))
            .collect();
        bug_finds += found.len();
        distinct.extend(found);
    }
    let attempted = e.recs.len();
    // Host times scaled to the reference host (see `probe`).
    let slow = e.probe_ns / crate::probe::REFERENCE_NS;
    let raw_rate = ratio(execs as f64, e.units_s);
    let raw_campaign = campaign.as_ref().map_or(0.0, |s| s.p50);
    let host = format!("host probe {:.3} ns/step", e.probe_ns);
    let tail = campaign
        .as_ref()
        .and_then(|s| s.tail)
        .map_or_else(String::new, |(p, v)| format!(", p{p} {v:.4} s"));
    vec![
        metric(
            "execs_per_s",
            raw_rate * slow,
            ok.len(),
            format!(
                "raw {raw_rate:.1}/s: {execs} execs in {:.3} s of units; {host}",
                e.units_s
            ),
        ),
        metric(
            "campaign_s_p50",
            raw_campaign / slow,
            walls.len(),
            format!("raw median submission-to-result {raw_campaign:.4} s{tail}"),
        ),
        metric(
            "setup_s",
            setup_total / slow,
            e.setup.len(),
            format!("raw median cold set-up {setup_total:.5} s"),
        ),
        metric(
            "peak_rss_mb",
            e.peak_rss_mb,
            1,
            "VmHWM of the benchmark process",
        ),
        metric(
            "sim_execs_per_s",
            ratio(
                sim_execs as f64 * CYCLES_PER_SECOND as f64,
                sim_cycles as f64,
            ),
            exact.len(),
            format!("first {} unit(s)", e.exact_units),
        ),
        metric(
            "edges_found",
            edges as f64,
            exact.len(),
            format!("first {} unit(s)", e.exact_units),
        ),
        metric(
            "bugs_found",
            bug_finds as f64,
            exact.len(),
            format!(
                "per-campaign distinct bugs, summed; {} distinct overall",
                distinct.len()
            ),
        ),
        metric(
            "success_rate",
            1.0 - ratio(e.failed as f64, attempted as f64),
            attempted,
            format!(
                "error_rate {} = {} failed / {attempted} attempted",
                ratio(e.failed as f64, attempted as f64),
                e.failed
            ),
        ),
    ]
}

/// What the per-layer metrics are computed from.
pub struct Layers<'a> {
    pub recs: &'a [Record],
    pub logs: &'a [LaneLog],
    pub setup: &'a [SetupSample],
    /// Decoded-image lowerings in this process during the window.
    pub lowered: u64,
    pub service: Option<&'a ServiceStats>,
    pub rpc: Option<&'a RpcCounters>,
    pub process_lanes: bool,
}

pub fn per_layer(l: &Layers<'_>) -> Vec<Metric> {
    let traced: Vec<&Record> = l.recs.iter().filter(|r| r.traced).collect();
    let ok: Vec<_> = traced
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|res| (*r, res)))
        .collect();
    let campaigns = traced.len();
    let per = |x: f64| ratio(x, campaigns as f64);
    let (setup, _) = crate::setup::medians(l.setup);
    let reps = l.setup.len();

    let mut runs_us = Vec::new();
    let mut gaps_us = Vec::new();
    let (mut run_ns, mut gap_ns, mut active_ns) = (0u64, 0u64, 0u64);
    let (mut insts, mut execs, mut exec_cyc, mut mgmt_cyc, mut crashes, mut hangs) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut barrier_ns = 0u64;
    let mut barriers_per_campaign: BTreeMap<u32, u64> = BTreeMap::new();
    let mut worker_lowered = 0u64;
    for log in l.logs {
        for &(s, e) in &log.runs {
            run_ns += e - s;
            runs_us.push((e - s) as f64 / 1e3);
        }
        let mut barriers = 0;
        for (s, e, barrier) in log.classified_gaps() {
            if barrier {
                barrier_ns += e - s;
                barriers += 1;
            } else {
                gap_ns += e - s;
                gaps_us.push((e - s) as f64 / 1e3);
            }
        }
        let b = barriers_per_campaign.entry(log.campaign).or_default();
        *b = (*b).max(barriers);
        if let (Some(first), Some(last)) = (log.runs.first(), log.runs.last()) {
            active_ns += last.1 - first.0;
        }
        insts += log.insts;
        execs += log.execs();
        exec_cyc += log.exec_cycles;
        mgmt_cyc += log.mgmt_cycles;
        crashes += log.crashes;
        hangs += log.hangs;
        worker_lowered += log.lowered;
    }

    let results: Vec<_> = ok.iter().map(|(_, r)| *r).collect();
    let result_execs: u64 = results.iter().map(|r| r.execs).sum();
    let queue: usize = results.iter().map(|r| r.queue_len).sum();
    let ckpt: u64 = ok.iter().map(|(rec, _)| rec.ckpt_bytes).sum();
    let storage_retries: u64 = results.iter().map(|r| r.resilience.storage.retries).sum();
    let degradations: usize = results
        .iter()
        .map(|r| r.resilience.storage.degradations.len())
        .sum();
    let respawns: u64 = results
        .iter()
        .map(|r| r.resilience.supervision.lane_respawns.iter().sum::<u64>())
        .sum();

    // Process lanes: the share of lane-worker time (lanes × campaign wall)
    // not covered by child-side run() calls or driver gaps.
    let (mut lane_ns, mut lane_self_ns) = (0u64, 0u64);
    if l.process_lanes {
        for rec in &traced {
            let span = rec.span;
            let lanes: Vec<&LaneLog> = l
                .logs
                .iter()
                .filter(|g| g.worker && g.campaign == rec.trace_id())
                .collect();
            let n = lanes.len().max(FORK_LANES) as u64;
            lane_ns += n * (span.1 - span.0);
            lane_self_ns += (n - lanes.len() as u64) * (span.1 - span.0);
            for g in lanes {
                let busy: Vec<(u64, u64)> = g
                    .runs
                    .iter()
                    .copied()
                    .chain(g.classified_gaps().filter(|x| !x.2).map(|(s, e, _)| (s, e)))
                    .collect();
                lane_self_ns += self_time(span, &busy);
            }
        }
    }

    // Service: Submit calls, Submit → first run(), Status round trips.
    let admit_ms: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.submit.map(|(s, e)| (e - s) as f64 / 1e6))
        .collect();
    let wait_s: Vec<f64> = traced
        .iter()
        .filter(|r| r.submit.is_some())
        .filter_map(|r| {
            let first = l
                .logs
                .iter()
                .filter(|g| g.campaign == r.trace_id())
                .filter_map(|g| g.runs.first().map(|x| x.0))
                .min()?;
            Some(first.saturating_sub(r.span.0) as f64 / 1e9)
        })
        .collect();
    let rtt_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.status_calls.iter().map(|(s, e)| (e - s) as f64 / 1e3))
        .collect();
    let submitted = l.recs.iter().filter(|r| r.submit.is_some()).count() as f64;

    // Tracing overhead: each traced campaign over its untraced twin.
    let twin_ratios: Vec<f64> = traced
        .iter()
        .filter_map(|t| {
            let twin = l
                .recs
                .iter()
                .find(|u| !u.traced && u.unit == t.unit && u.plan == t.plan)?;
            Some(ratio(t.wall_s(), twin.wall_s()))
        })
        .collect();

    let mut m = vec![
        metric(
            "minic.compile_s",
            setup.compile_s,
            reps,
            "median cold compile, all targets",
        ),
        metric(
            "passes.instrument_s",
            setup.instrument_s,
            reps,
            "median, all targets",
        ),
        metric(
            "vmos.decode_s",
            setup.decode_s,
            reps,
            "median cold decode, all targets",
        ),
        metric(
            "vmos.decode_lowerings",
            ratio(l.lowered as f64, l.recs.len() as f64) + per(worker_lowered as f64),
            l.recs.len(),
            format!("{} in process, {worker_lowered} in workers", l.lowered),
        ),
        metric(
            "vmos.ns_per_inst",
            ratio(run_ns as f64, insts as f64),
            execs as usize,
            "run() ns / insts",
        ),
        metric(
            "core.insts_per_exec",
            ratio(insts as f64, execs as f64),
            execs as usize,
            "",
        ),
    ];
    m.extend(timing(
        ("core.run_us_p50", "core.run_us_p99"),
        &runs_us,
        "run()",
    ));
    m.extend([
        metric(
            "core.run_busy_frac",
            ratio(run_ns as f64, active_ns as f64),
            l.logs.len(),
            "run() time / lane active time",
        ),
        metric(
            "core.exec_cycles_per_exec",
            ratio(exec_cyc as f64, execs as f64),
            execs as usize,
            "",
        ),
        metric(
            "core.mgmt_cycles_per_exec",
            ratio(mgmt_cyc as f64, execs as f64),
            execs as usize,
            "",
        ),
        metric(
            "core.crash_frac",
            ratio(crashes as f64, execs as f64),
            execs as usize,
            "",
        ),
        metric(
            "core.hang_frac",
            ratio(hangs as f64, execs as f64),
            execs as usize,
            "",
        ),
    ]);
    m.extend(timing(
        ("aflrs.driver.gap_us_p50", "aflrs.driver.gap_us_p99"),
        &gaps_us,
        "gap between run() calls, barriers excluded",
    ));
    m.extend([
        metric(
            "aflrs.driver.self_frac",
            ratio(gap_ns as f64, (gap_ns + run_ns) as f64),
            gaps_us.len(),
            "driver gaps / (runs + driver gaps)",
        ),
        metric(
            "aflrs.queue.yield",
            ratio(queue as f64, result_execs as f64),
            results.len(),
            "",
        ),
        metric(
            "aflrs.queue_len",
            ratio(queue as f64, results.len() as f64),
            results.len(),
            "mean final queue",
        ),
        metric(
            "aflrs.checkpoint.bytes_per_exec",
            ratio(ckpt as f64, result_execs as f64),
            results.len(),
            format!("{ckpt} B left in checkpoint dirs"),
        ),
        metric(
            "aflrs.storage.retries",
            per(storage_retries as f64),
            campaigns,
            "",
        ),
        metric(
            "aflrs.storage.degradations",
            per(degradations as f64),
            campaigns,
            "",
        ),
        metric(
            "aflrs.shard.barrier_s",
            per(barrier_ns as f64 / 1e9),
            campaigns,
            "lane time in gaps spanning a barrier",
        ),
        metric(
            "aflrs.shard.barriers",
            per(barriers_per_campaign.values().sum::<u64>() as f64),
            campaigns,
            "",
        ),
        metric(
            "aflrs.proc.overhead_frac",
            ratio(lane_self_ns as f64, lane_ns as f64),
            if l.process_lanes { campaigns } else { 0 },
            "lane-worker time outside child run() and driver gaps",
        ),
        metric("aflrs.proc.respawns", per(respawns as f64), campaigns, ""),
        metric(
            "aflrs.service.admit_ms_p50",
            Summary::of(&admit_ms).map_or(0.0, |s| s.p50),
            admit_ms.len(),
            "median Submit call",
        ),
        metric(
            "aflrs.service.wait_s_p50",
            Summary::of(&wait_s).map_or(0.0, |s| s.p50),
            wait_s.len(),
            "median Submit to first run()",
        ),
        metric(
            "aflrs.service.grants",
            l.service
                .map_or(0.0, |s| ratio(s.epoch_grants as f64, submitted)),
            submitted as usize,
            "epoch grants per tenant",
        ),
    ]);
    m.extend(timing(
        ("aflrs.rpc.status_rtt_us_p50", "aflrs.rpc.status_rtt_us_p99"),
        &rtt_us,
        "Status round trip",
    ));
    m.extend([
        metric(
            "aflrs.rpc.retries",
            l.rpc.map_or(0.0, |c| ratio(c.retries as f64, submitted)),
            submitted as usize,
            "client retries per tenant",
        ),
        metric(
            "aflrs.rpc.timeouts",
            l.rpc.map_or(0.0, |c| ratio(c.timeouts as f64, submitted)),
            submitted as usize,
            "client timeouts per tenant",
        ),
        metric(
            "trace.overhead_frac",
            Summary::of(&twin_ratios).map_or(0.0, |s| s.p50 - 1.0),
            twin_ratios.len(),
            "median traced/untraced wall over twin campaigns, minus 1",
        ),
    ]);
    m
}

/// Fail closed: the metrics must be exactly `spec`, in order, and finite.
pub fn validate(metrics: &[Metric], spec: &[(&str, &str)]) -> Result<(), String> {
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
    if names != want {
        return Err(format!("metric set {names:?} is not {want:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite", m.name)),
        None => Ok(()),
    }
}

/// The result line: one JSON object.
pub fn json(
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: &[Metric],
    spec: &[(&str, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(spec)
        .map(|(m, (_, unit))| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
