#!/usr/bin/env python3
"""Build and run the repository benchmark; fail closed on its output.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds `perfbench` (release) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it with the same arguments, echoes its report, and
re-prints its result line only after checking it against
`BENCHMARK.json`: exactly the keys `correct`, `attempted`, `failed`,
`metrics`, and exactly the end-to-end (`--trace 0`) or per-layer
(`--trace 1`) metrics with their units and finite values. Anything
missing or malformed exits nonzero without a result line.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not JSON")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no campaign was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in want.items():
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"metric {name} is not {{value, unit={unit}}}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("missing --trace")
    trace = args[args.index("--trace") + 1] == "1"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target_dir, "release", "perfbench")
    run = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    if not lines:
        fail("benchmark printed nothing")
    check(lines[-1], trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
