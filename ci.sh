#!/bin/sh
# Repo CI gate: build, test, lint. Run from the repository root.
set -eux

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark (`perfbench/`) is its own package outside the workspace, so
# the workspace build above cannot see it: build and test it here so a
# public-API change in the crates it drives fails CI instead of the next
# benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --manifest-path perfbench/Cargo.toml
# Checkpoint/resume correctness gate: kill-and-resume must be byte-identical.
cargo run --release -p bench --bin checkpoint_eval -- --smoke
# Engine determinism + throughput gate: the decoded engine must match the
# reference engine bit-for-bit, and aggregate decoded execs/sec must stay
# within 20% of the blessed floor in results/BENCH_floor.json.
cargo run --release -p bench --bin exec_throughput -- --smoke
# Sharding correctness + scaling gate: shards in {1,2,4} must produce
# bit-identical campaigns (including a sharded kill/resume round-trip), and
# host-normalized scaling efficiency must stay within 40% of the blessed
# floor in results/BENCH_shard_floor.json.
cargo run --release -p bench --bin shard_eval -- --smoke
# Lane-supervision gate: an injected worker panic / lane hang / barrier
# timeout at any (lane, epoch) must be contained and recovered
# bit-identically to the unfaulted run, repeated failures must degrade to
# a retired lane (not an abort), and mean recovery overhead must stay
# within 2x of the blessed floor in results/BENCH_supervision_floor.json.
cargo run --release -p bench --bin supervision_eval -- --smoke
# Process-isolation gate: lane-per-process campaigns must be bit-identical
# to the in-process engine, every injected worker death (abort, OOM kill,
# stall, corrupted frame) must be contained and recovered exactly, and
# non-stall recovery overhead must stay within 2x of the blessed floor in
# results/BENCH_proc_floor.json.
cargo run --release -p bench --bin proc_eval -- --smoke
# Storage fault-plane gate: every injected disk fault (ENOSPC, EIO, short
# write, crash-at-boundary, lost rename, bitrot) at every probed I/O
# boundary, on both isolation modes, must end in a sanctioned state —
# retried, degraded with a typed report, or killed and resumed
# bit-identically — and the clean-path checkpoint overhead must stay
# within 2x of the blessed ceiling in results/BENCH_storage_floor.json.
cargo run --release -p bench --bin storage_eval -- --smoke
# Multi-tenant service gate: a service hosting several campaigns, killed
# abruptly and restored, must resume every tenant bit-identically on both
# engines and worker shapes; a 100-campaign same-target restore must pay
# zero module lowerings (one sidecar load, the rest cache hits); and the
# per-campaign scheduling overhead must stay within 2x of the blessed
# ceiling in results/BENCH_service_floor.json.
cargo run --release -p bench --bin service_eval -- --smoke
# Network service-plane gate: every injected wire fault (drop, delay,
# duplicate, corrupt, disconnect, partial frame) in either direction at any
# early frame position must leave the remote campaign
# bit-identical to the in-process service; a server killed mid-campaign and
# restored must resume the same client session exactly; and the clean-path
# RPC overhead must stay within 2x of the blessed ceiling in
# results/BENCH_rpc_floor.json.
cargo run --release -p bench --bin rpc_eval -- --smoke
