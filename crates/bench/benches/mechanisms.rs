//! Criterion micro-benchmarks: per-test-case cost of each execution
//! mechanism (the continuum figure, measured in host time), and the host
//! cost of one forkserver fork + reap against the parent's resident pages.

use bench::Mechanism;
use criterion::{criterion_group, criterion_main, Criterion};
use passes::pipelines::baseline_pipeline;
use vmos::mem::PAGE_SIZE;
use vmos::{ForkServer, Os, Process};

fn bench_mechanisms(c: &mut Criterion) {
    let t = targets::by_name("giftext").unwrap();
    let seed = (t.seeds)()[0].clone();
    let mut g = c.benchmark_group("per_testcase_by_mechanism");
    for m in [
        Mechanism::Fresh,
        Mechanism::ForkServer,
        Mechanism::NaivePersistent,
        Mechanism::ClosureX,
    ] {
        g.bench_function(m.name(), |b| {
            let mut ex = m.executor(t);
            b.iter(|| ex.run(&seed));
        });
    }
    g.finish();
}

/// The targets of the benchmark's forkserver workload, fewest resident
/// pages first.
const FORK_TARGETS: [&str; 5] = ["giftext", "md4c", "gpmf-parser", "c-blosc2", "libbpf"];

/// Starts of the first two distinct pages holding writable globals: the
/// child dirties them between fork and reap, taking two CoW faults.
fn two_writable_pages(parent: &Process) -> Vec<u64> {
    let mut pages: Vec<u64> = parent
        .globals
        .slots()
        .iter()
        .filter(|s| s.writable && s.size > 0)
        .map(|s| s.start / PAGE_SIZE * PAGE_SIZE)
        .collect();
    pages.dedup();
    pages.truncate(2);
    pages
}

/// One fork, two CoW faults and one reap per iteration, for each target's
/// forkserver parent: the recycled `ForkServer` child against a full
/// `Os::fork` + `Os::teardown`. The simulated charge is the same; the
/// host cost of the second grows with the resident pages in the id.
fn bench_forkserver_by_target(c: &mut Criterion) {
    let mut g = c.benchmark_group("forkserver_by_target");
    for name in FORK_TARGETS {
        let mut m = targets::by_name(name).unwrap().module();
        baseline_pipeline().run(&mut m).unwrap();
        let mut os = Os::new();
        let (mut parent, _) = os.spawn(&m);
        let dirty = two_writable_pages(&parent);
        let id = format!("{name}/{}p", parent.mem.resident_pages());
        g.bench_function(format!("{id}/recycled"), |b| {
            let mut server = ForkServer::new(parent.share());
            b.iter(|| {
                let (child, _) = server.fork(&mut os).unwrap();
                for &a in &dirty {
                    child.mem.write_uint(a, 1, 1);
                }
                server.reap(&mut os)
            });
        });
        g.bench_function(format!("{id}/os_fork"), |b| {
            b.iter(|| {
                let (mut child, _) = os.fork(&mut parent);
                for &a in &dirty {
                    child.mem.write_uint(a, 1, 1);
                }
                os.teardown(child)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_mechanisms
}
criterion_group! {
    name = fork_benches;
    config = Criterion::default().sample_size(20_000).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_forkserver_by_target
}
criterion_main!(benches, fork_benches);
