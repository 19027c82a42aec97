//! Criterion micro-benchmarks for the decode-time FIR optimizer stack:
//!
//! * `decode/*` — one-time cost of lowering each of the ten targets, as
//!   executors see it (after the ClosureX pipeline), to a
//!   [`vmos::DecodedImage`]: plain streams plus the optimizer stack (the
//!   optimizer must stay cheap enough to amortize in one campaign);
//! * `fingerprint/*` — [`fir::Module::fingerprint`] of the same module, the
//!   image cache's key (computed once per cold warm-up);
//! * `warm/*` — a cold [`DecodedImage::warm`]: evict the cache, then
//!   fingerprint and decode, which is what every cold process pays;
//! * `exec/*` — per-test-case cost on the three engine configurations
//!   (optimized stream / plain stream / reference interpreter), isolating
//!   what superinstruction fusion buys at the dispatch loop itself.

use bench::Mechanism;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmos::{DecodeOptGuard, DecodedImage, ReferenceEngineGuard};

/// Targets of the `exec/*` rows.
const TARGETS: [&str; 3] = ["giftext", "c-blosc2", "gpmf-parser"];

/// Every target's module after the ClosureX pipeline.
fn instrumented() -> Vec<(&'static str, fir::Module)> {
    targets::all()
        .into_iter()
        .map(|t| {
            let mut m = t.module();
            passes::pipelines::closurex_pipeline()
                .run(&mut m)
                .expect("pipeline runs");
            (t.name, m)
        })
        .collect()
}

fn bench_decode(c: &mut Criterion) {
    let modules = instrumented();
    let mut g = c.benchmark_group("decode");
    for (name, m) in &modules {
        // The full image: plain streams + the optimizer stack.
        g.bench_function(format!("{name}/optimized"), |b| {
            b.iter(|| black_box(DecodedImage::new(m)));
        });
    }
    g.finish();
    let mut g = c.benchmark_group("fingerprint");
    for (name, m) in &modules {
        g.bench_function(*name, |b| b.iter(|| black_box(m.fingerprint())));
    }
    g.finish();
    let mut g = c.benchmark_group("warm");
    for (name, m) in &modules {
        g.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| {
                DecodedImage::cache_evict_all();
                black_box(DecodedImage::warm(m))
            });
        });
    }
    g.finish();
}

fn bench_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec");
    for name in TARGETS {
        let t = targets::by_name(name).unwrap();
        let seed = (t.seeds)()[0].clone();
        g.bench_function(format!("{name}/optimized"), |b| {
            let mut ex = Mechanism::ClosureX.executor(t);
            b.iter(|| black_box(ex.run(&seed)));
        });
        g.bench_function(format!("{name}/plain"), |b| {
            let _guard = DecodeOptGuard::new();
            let mut ex = Mechanism::ClosureX.executor(t);
            b.iter(|| black_box(ex.run(&seed)));
        });
        g.bench_function(format!("{name}/reference"), |b| {
            let _guard = ReferenceEngineGuard::new();
            let mut ex = Mechanism::ClosureX.executor(t);
            b.iter(|| black_box(ex.run(&seed)));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_decode, bench_exec
}
criterion_main!(benches);
