#!/bin/sh
# Repo CI gate: build, test, lint. Run from the repository root.
set -eux

# Format gate: the workspace is rustfmt-clean, so a formatting diff never
# rides along with an unrelated change. (perfbench/ is its own package and
# is not part of the workspace.)
cargo fmt --all -- --check
cargo build --release
cargo test -q --workspace
# The engine's fast paths again under release codegen, the build the
# benchmark runs: debug assertions (the access verdict's oracle among them)
# are compiled out there, so `vmos`'s own tests, the verdict oracle
# (crates/vmos/tests/verdict_oracle.rs) included, must pass without them.
cargo test --release -q -p vmos
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
# reference engine bit-for-bit, and the aggregate decoded/reference speedup
# of interleaved best-of-three rounds must reach smoke_min_speedup in
# results/BENCH_floor.json. Decoded execs/sec below 80% of
# smoke_decoded_execs_per_sec only warns (absolute throughput swings with
# host load; the in-run ratio does not).
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
# Leak gate: lane workers are self-execs of the binary that spawned them, so
# a `plane_eval` process still alive once the grids returned is a worker that
# some campaign left running.
if pgrep -x plane_eval; then
    echo "plane_eval left worker processes running" >&2
    exit 1
fi
# Report gate: nothing above may rewrite a tracked full-mode report under
# results/ (smoke runs write their own untracked `*_smoke.json` files), so
# a test or smoke run that does fails here instead of riding into a commit.
git diff --exit-code -- results/
