#!/bin/sh
# Repo CI gate: build, test, lint. Run from the repository root.
set -eux

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link must resolve to a public item, so a
# deleted or privatized item cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The benchmark (`perfbench/`) is its own package outside the workspace, so
# the workspace build above cannot see it: build and test it here so a
# public-API change in the crates it drives fails CI instead of the next
# benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --manifest-path perfbench/Cargo.toml
# Engine determinism + throughput gate: the decoded engine must match the
# reference engine bit-for-bit, and aggregate decoded execs/sec must stay
# within 20% of the blessed floor in results/BENCH_floor.json.
cargo run --release -p bench --bin exec_throughput -- --smoke
# Fault-plane gates: every plane's identity grid (bench::planes, the same
# grids `cargo test` runs at test size) at smoke size. Any failed cell fails,
# and each plane's cost is gated against results/BENCH_<plane>_floor.json:
# - checkpoint: kill/resume, resume-of-a-resume, kills at every offset
#   around a snapshot and corrupted-snapshot recovery (with the damaged
#   generation rewritten byte for byte) match the uninterrupted run
#   (identity only);
# - shard: shards in {1,2,4} and a sharded kill/resume match; scaling
#   efficiency >= 0.6x smoke_scaling_efficiency;
# - supervision: worker panics, lane hangs and barrier timeouts recover
#   exactly, a repeatedly failing lane retires; recovery overhead
#   <= 2x smoke_recovery_overhead_ratio;
# - process (BENCH_proc): lane-per-process runs match in-process, every
#   worker death (abort, OOM, stall, corrupt frame) recovers exactly;
#   non-stall recovery overhead <= 2x smoke_recovery_overhead_ratio;
# - storage: every disk fault at every probed I/O boundary of the
#   coordinator stream (sharded lanes do no I/O between barriers), both
#   isolation modes, retries, degrades typed or resumes exactly;
#   grid_pass_rate >= 1.0 and clean-path overhead <= 2x
#   smoke_clean_overhead_ratio;
# - service: a killed and restored service resumes every tenant exactly on
#   both engines and worker shapes, a 100-tenant restore decodes once;
#   churn_identity_rate >= 1.0, overhead <= 2x smoke_service_overhead_ratio;
# - rpc: every wire fault kind x direction x early frame, and a server
#   kill/restore, leave the result identical; fault_grid_rate >= 1.0,
#   overhead <= 2x smoke_rpc_overhead_ratio.
cargo run --release -p bench --bin plane_eval -- --smoke
