//! Host-speed probe.
//!
//! The bench host is shared: its speed switches between phases tens of
//! percent apart, each lasting minutes, so raw host times of the same code
//! differ between runs by more than any bound worth setting. The probe is
//! a fixed computation shaped like the program's hot path — a bytecode
//! dispatch loop with loads, stores and data-dependent branches over
//! 1 MiB — that shares no code with the program. It is timed before each
//! unit of a run, on as many threads as the workload keeps busy, and
//! host-time metrics are scaled by its median to what they would read on
//! a host where one probe step takes [`REFERENCE_NS`].

use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per probe step on the reference host.
pub const REFERENCE_NS: f64 = 10.0;

const STEPS: u32 = 3_000_000;
const MEM_WORDS: usize = 1 << 17;
const CODE_LEN: usize = 4096;

/// Nanoseconds per probe step, run on `threads` threads at once (as
/// many as the workload keeps busy) and averaged over them.
pub fn step_ns(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(run)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("probe threads do not panic"))
            .sum()
    });
    total / threads.max(1) as f64
}

/// One probe run (about 30 ms): nanoseconds per step.
fn run() -> f64 {
    let mut mem = vec![0u64; MEM_WORDS];
    let mut code = Vec::with_capacity(CODE_LEN);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..CODE_LEN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        code.push(((x >> 60) as u8 % 6, x as usize % MEM_WORDS));
    }
    let t = Instant::now();
    let mut acc = black_box(1u64);
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let (op, arg) = code[pc];
        pc = (pc + 1) % CODE_LEN;
        match op {
            0 => acc = acc.wrapping_add(mem[arg]),
            1 => mem[arg] ^= acc,
            2 if acc & 1 == 0 => pc = (pc + (arg & 63)) % CODE_LEN,
            3 => acc = acc.rotate_left(7) ^ arg as u64,
            4 => mem[(arg ^ acc as usize) % MEM_WORDS] += 1,
            _ => acc = acc.wrapping_mul(0x9E37_79B9),
        }
    }
    black_box((acc, &mem));
    t.elapsed().as_nanos() as f64 / f64::from(STEPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        for threads in [1, 2] {
            let ns = step_ns(threads);
            assert!(ns > 0.1 && ns < 1000.0, "{ns}");
        }
    }
}
