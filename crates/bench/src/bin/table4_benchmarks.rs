//! Regenerates **Table 4**: the benchmark inventory with input formats and
//! executable sizes, measured from the compiled FIR images.

use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    input_format: String,
    executable_size_bytes: u64,
    executable_size: String,
    functions: usize,
    instructions: usize,
}

fn main() {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for t in targets::all() {
        let m = t.module();
        let size = fir::image::image_size(&m);
        json.push(Row {
            benchmark: t.name.to_string(),
            input_format: t.input_format.to_string(),
            executable_size_bytes: size,
            executable_size: fir::image::human_size(size),
            functions: m.functions.len(),
            instructions: m.inst_count(),
        });
        rows.push(vec![
            t.name.to_string(),
            t.input_format.to_string(),
            fir::image::human_size(size),
        ]);
    }
    println!("Table 4: Evaluation benchmarks\n");
    print!(
        "{}",
        bench::markdown_table(&["Benchmark", "Input Format", "Executable Size"], &rows)
    );
    bench::write_report("table4_benchmarks", &json).expect("report written");
}
