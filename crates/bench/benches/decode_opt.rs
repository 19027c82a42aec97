//! Criterion micro-benchmarks for the decode-time FIR optimizer stack:
//!
//! * `decode/*` — one-time cost of lowering a target module to a
//!   [`vmos::DecodedImage`], plain streams plus the optimizer stack (the
//!   optimizer must stay cheap enough to amortize in one campaign);
//! * `exec/*` — per-test-case cost on the three engine configurations
//!   (optimized stream / plain stream / reference interpreter), isolating
//!   what superinstruction fusion buys at the dispatch loop itself.

use bench::Mechanism;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmos::{DecodeOptGuard, DecodedImage, ReferenceEngineGuard};

const TARGETS: [&str; 3] = ["giftext", "c-blosc2", "gpmf-parser"];

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    for name in TARGETS {
        let t = targets::by_name(name).unwrap();
        let m = t.module();
        // The full image: plain streams + the optimizer stack.
        g.bench_function(format!("{name}/optimized"), |b| {
            b.iter(|| black_box(DecodedImage::new(&m)));
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
