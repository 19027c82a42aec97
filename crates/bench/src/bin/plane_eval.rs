//! **Plane evaluation**: run each fault plane's identity grid (see
//! `bench::planes`) at smoke or full size, print its cells, write
//! `results/BENCH_<plane>.json` (`_smoke` under `--smoke`; the checkpoint
//! plane keeps its historical `checkpoint_eval` name), and gate.
//!
//! ```text
//! plane_eval [--smoke] [plane...]    planes: checkpoint shard supervision
//!                                    process storage service rpc (default: all)
//! ```
//!
//! Every mode fails (exit 1) on any failed cell or an unwritable report.
//! `--smoke` also gates each plane's cost against its blessed value in
//! `results/BENCH_<plane>_floor.json`: the shard scaling efficiency must
//! reach 0.6x its floor, every overhead ratio must stay within 2x its
//! ceiling, and the gated pass rates must reach their floor of 1.0. An
//! unknown flag or plane exits 2 with usage.

use bench::planes::{self, Cell, Size};
use serde::Serialize;

/// One plane as `plane_eval` runs and gates it.
struct Plane {
    name: &'static str,
    grid: fn(Size) -> Vec<Cell>,
    /// Report file stem under `results/`.
    report: &'static str,
    /// Floor file stem under `results/`, for `--smoke`.
    floor: &'static str,
    /// Floor key of a gated pass rate.
    rate: Option<&'static str>,
    cost: Option<Cost>,
}

/// A plane's cost figure and how `--smoke` gates it.
struct Cost {
    /// Name in the report.
    name: &'static str,
    value: fn(&[Cell]) -> Option<f64>,
    /// Floor key of the blessed value.
    key: &'static str,
    bound: Bound,
}

#[derive(Clone, Copy)]
enum Bound {
    /// Fail above this multiple of the blessed ceiling.
    AtMost(f64),
    /// Fail below this multiple of the blessed floor.
    AtLeast(f64),
}

const fn ratio(name: &'static str, key: &'static str) -> Option<Cost> {
    Some(Cost {
        name,
        value: planes::cost_ratio,
        key,
        bound: Bound::AtMost(2.0),
    })
}

const PLANES: &[Plane] = &[
    Plane {
        name: "checkpoint",
        grid: planes::checkpoint::grid,
        report: "checkpoint_eval",
        floor: "",
        rate: None,
        cost: None,
    },
    Plane {
        name: "shard",
        grid: planes::shard::grid,
        report: "BENCH_shard",
        floor: "BENCH_shard_floor",
        rate: None,
        cost: Some(Cost {
            name: "scaling_efficiency",
            value: planes::shard::scaling_efficiency,
            key: "smoke_scaling_efficiency",
            bound: Bound::AtLeast(0.6),
        }),
    },
    Plane {
        name: "supervision",
        grid: planes::supervision::grid,
        report: "BENCH_supervision",
        floor: "BENCH_supervision_floor",
        rate: None,
        cost: ratio("recovery_overhead_ratio", "smoke_recovery_overhead_ratio"),
    },
    Plane {
        name: "process",
        grid: planes::process::grid,
        report: "BENCH_proc",
        floor: "BENCH_proc_floor",
        rate: None,
        cost: ratio("recovery_overhead_ratio", "smoke_recovery_overhead_ratio"),
    },
    Plane {
        name: "storage",
        grid: planes::storage::grid,
        report: "BENCH_storage",
        floor: "BENCH_storage_floor",
        rate: Some("grid_pass_rate"),
        cost: ratio("clean_overhead_ratio", "smoke_clean_overhead_ratio"),
    },
    Plane {
        name: "service",
        grid: planes::service::grid,
        report: "BENCH_service",
        floor: "BENCH_service_floor",
        rate: Some("churn_identity_rate"),
        cost: ratio("service_overhead_ratio", "smoke_service_overhead_ratio"),
    },
    Plane {
        name: "rpc",
        grid: planes::rpc::grid,
        report: "BENCH_rpc",
        floor: "BENCH_rpc_floor",
        rate: Some("fault_grid_rate"),
        cost: ratio("rpc_overhead_ratio", "smoke_rpc_overhead_ratio"),
    },
];

#[derive(Serialize)]
struct Report {
    plane: &'static str,
    mode: &'static str,
    pass_rate: f64,
    cost_name: Option<&'static str>,
    cost: Option<f64>,
    cells: Vec<Cell>,
}

fn usage(why: &str) -> ! {
    let names: Vec<&str> = PLANES.iter().map(|p| p.name).collect();
    eprintln!(
        "plane_eval: {why}\nusage: plane_eval [--smoke] [plane...]\nplanes: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// Run, report and gate one plane; `false` when any check failed.
fn evaluate(plane: &Plane, size: Size) -> bool {
    let smoke = size == Size::Smoke;
    let mode = if smoke { "smoke" } else { "full" };
    println!("\n## {} ({mode})\n", plane.name);
    let cells = (plane.grid)(size);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.target.clone(),
                c.label.clone(),
                format!("{:.2}", c.wall_secs),
                c.failure
                    .clone()
                    .map_or_else(|| "pass".to_string(), |why| format!("FAIL: {why}")),
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(&["Target", "Cell", "Wall (s)", "Verdict"], &rows)
    );
    let passed = cells.iter().filter(|c| c.passed()).count();
    let pass_rate = passed as f64 / cells.len().max(1) as f64;
    let cost = plane.cost.as_ref().and_then(|c| (c.value)(&cells));
    println!("\n{passed}/{} cells passed", cells.len());
    let mut ok = passed == cells.len() && !cells.is_empty();
    if !ok {
        eprintln!(
            "FAIL: {}: {} of {} cells failed",
            plane.name,
            cells.len() - passed,
            cells.len()
        );
    }

    let report = Report {
        plane: plane.name,
        mode,
        pass_rate,
        cost_name: plane.cost.as_ref().map(|c| c.name),
        cost,
        cells,
    };
    let written = bench::write_report(
        &format!("{}{}", plane.report, if smoke { "_smoke" } else { "" }),
        &report,
    );
    if let Err(e) = written {
        eprintln!("FAIL: {}: {e}", plane.name);
        ok = false;
    }
    if !smoke {
        return ok;
    }

    let floor_file = format!("results/{}.json", plane.floor);
    if let Some(key) = plane.rate {
        let f = bench::floor(&floor_file, key);
        if pass_rate < f {
            eprintln!(
                "FAIL: {}: {key} {pass_rate:.3} is below the checked-in floor {f:.3}",
                plane.name
            );
            ok = false;
        } else {
            println!("Floor check passed: {key} {pass_rate:.3} >= {f:.3}.");
        }
    }
    if let Some(c) = &plane.cost {
        let blessed = bench::floor(&floor_file, c.key);
        let Some(v) = cost else {
            eprintln!(
                "FAIL: {}: no timed cells to compute {} from",
                plane.name, c.name
            );
            return false;
        };
        let (limit, within) = match c.bound {
            Bound::AtMost(m) => (blessed * m, v <= blessed * m),
            Bound::AtLeast(m) => (blessed * m, v >= blessed * m),
        };
        if within {
            println!(
                "Floor check passed: {} {v:.2} within {limit:.2} (blessed {blessed:.2}).",
                c.name
            );
        } else {
            eprintln!(
                "FAIL: {}: {} {v:.2} is outside {limit:.2} (blessed {blessed:.2})",
                plane.name, c.name
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    // Lane workers of the process and storage planes re-exec this binary.
    aflrs::worker_main_hook(bench::factory_from_spec);

    let mut size = Size::Full;
    let mut chosen: Vec<&Plane> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            size = Size::Smoke;
        } else if let Some(p) = PLANES.iter().find(|p| p.name == arg) {
            chosen.push(p);
        } else if arg.starts_with('-') {
            usage(&format!("unknown flag {arg:?}"));
        } else {
            usage(&format!("unknown plane {arg:?}"));
        }
    }
    if chosen.is_empty() {
        chosen = PLANES.iter().collect();
    }
    let failed: Vec<&str> = chosen
        .into_iter()
        .filter(|p| !evaluate(p, size))
        .map(|p| p.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("\nFAIL: plane(s) {} failed", failed.join(", "));
        std::process::exit(1);
    }
}
