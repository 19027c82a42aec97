//! Ablation of ClosureX's restoration components (DESIGN.md §4): disable
//! each piece and observe correctness or cost consequences.

use closurex::executor::{ExecStatus, Executor};
use closurex::harness::{ClosureXConfig, ClosureXExecutor, RestoreStrategy};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    consistent: bool,
    avg_restore_cycles: f64,
}

fn run_variant(name: &str, cfg: ClosureXConfig) -> Row {
    let src = r#"
        global count;
        global big_table[2048];
        fn main() {
            count = count + 1;
            store8(big_table + (count % 2048), count & 255);
            var p = malloc(64);
            store8(p, 1);
            return count;  // 1 every time iff state restoration works
        }
    "#;
    let module = minic::compile("ablate", src).expect("compiles");
    let mut ex = ClosureXExecutor::new(&module, cfg).expect("instrument");
    let mut consistent = true;
    let mut restore_total = 0u64;
    let n = 50;
    for _ in 0..n {
        let out = ex.run(b"x");
        restore_total += ex.last_restore().cycles;
        if out.status != ExecStatus::Exit(1) {
            consistent = false;
        }
    }
    Row {
        variant: name.to_string(),
        consistent,
        avg_restore_cycles: restore_total as f64 / f64::from(n),
    }
}

fn main() {
    println!("Ablation: ClosureX restoration components\n");
    let base = ClosureXConfig::default();
    let variants = vec![
        ("full restore (paper design)", base.clone()),
        (
            "dirty-only global restore",
            ClosureXConfig {
                restore_strategy: RestoreStrategy::DirtyOnly,
                ..base.clone()
            },
        ),
        (
            "no global restore",
            ClosureXConfig {
                global_restore: false,
                ..base.clone()
            },
        ),
        (
            "no heap sweep",
            ClosureXConfig {
                heap_sweep: false,
                ..base.clone()
            },
        ),
        (
            "no fd sweep",
            ClosureXConfig {
                fd_sweep: false,
                ..base
            },
        ),
    ];
    let rows: Vec<Row> = variants
        .into_iter()
        .map(|(n, c)| run_variant(n, c))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                if r.consistent {
                    "yes".into()
                } else {
                    "NO — stale state".into()
                },
                format!("{:.0}", r.avg_restore_cycles),
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(
            &["Variant", "semantically consistent", "avg restore cycles"],
            &table
        )
    );
    println!("\nDirty-only restore trades a scan for fewer writes; disabling any sweep");
    println!("reintroduces exactly the inconsistency class it guards against.");
    bench::write_report("ablation_restore", &rows).expect("report written");
}
