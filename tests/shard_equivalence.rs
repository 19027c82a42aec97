//! Shard plane identity at test size: the worker count of a sharded
//! campaign is a pure throughput knob, on both engines and across a
//! kill and resume, and a kill at any offset from a barrier, in process
//! or with one process per lane, resumes exactly. The parts live in
//! `bench::planes::shard`; `plane_eval` runs the same grid at smoke and
//! full size.
//!
//! This test is `harness = false`: its lane-per-process cells spawn lane
//! workers by re-exec'ing the current executable, so `main` is
//! [`bench::planes::test_main`], which installs the worker hook first.

fn main() {
    bench::planes::test_main(&bench::named_parts![shard:
        giftext_sharding_is_worker_count_invariant,
        gpmf_sharding_with_crashes_is_worker_count_invariant,
        sharding_is_worker_count_invariant_on_reference_engine,
        sharded_kill_and_resume_reproduces_uninterrupted_result,
        kill_at_every_barrier_offset_resumes_exactly,
    ]);
}
