#!/usr/bin/env python3
"""Build and run the Stale View Cleaning benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `svc-perfbench` package (perfbench/Cargo.toml, a workspace of
its own that depends on the repository's crates by path) in release mode,
runs it, and checks its output against BENCHMARK.json: with `--trace 0`
every `end_to_end` metric must be present, with its unit and a positive
value; with `--trace 1` every `per_layer` metric. The exact counts of a
run are kept per source tree, workload and seed under the build
directory, and a run whose counts differ from an earlier run of the same
sources with the same seed fails.

Standard output ends with the benchmark's record (sizes, sample counts,
exact counts, source revision, why the workload was chosen, each metric's
unit and better direction) and, as the last line, the result object. Any
failure exits non-zero without printing a result.
"""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# A run must end within this many seconds, build included, once built.
RUN_LIMIT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def flag(argv, name):
    try:
        return argv[argv.index(name) + 1]
    except (ValueError, IndexError):
        fail(f"missing {name}")


def revision():
    """The git revision when run inside a clone, plus a digest of the
    sources the benchmark builds, which identifies any checkout."""
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git = None
    digest = hashlib.sha256()
    for base in (ROOT / "crates", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git": git, "source_sha256": digest.hexdigest()}


def check_counts(target, source, workload, seed, counts):
    """Exact counts must repeat between runs of the same sources with the
    same seed. They are keyed by the source digest: changed code may
    rightly change them and starts a fresh reference."""
    store = target / "perfbench-counts" / source
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            diff = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
            fail(f"exact counts differ from an earlier run with seed {seed}: {diff}")
        return True
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(path)
    return False


def main():
    argv = sys.argv[1:]
    workload = flag(argv, "--workload")
    seed = flag(argv, "--seed")
    trace = flag(argv, "--trace") not in ("0", "false")
    flag(argv, "--seconds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if workload not in why:
        fail(f"unknown workload {workload}")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    started = time.monotonic()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    built_in = time.monotonic() - started
    # A fresh build may take long; a cached one counts against the limit.
    limit = RUN_LIMIT_S if built_in > 60 else RUN_LIMIT_S - built_in

    exe = target / "release" / "svc-perfbench"
    try:
        proc = subprocess.run([str(exe)] + argv, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {limit:.0f} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])

    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
    for m in expected:
        got = metrics[m["name"]]
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"bad metric {m['name']}: {got}")
        if not trace and value <= 0:
            fail(f"end-to-end metric {m['name']} is not positive: {value}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail("output checks failed")

    record["revision"] = revision()
    record["counts_repeat_earlier_run"] = check_counts(
        target, record["revision"]["source_sha256"], workload, seed, record["exact_counts"]
    )
    record["why"] = why[workload]
    record["metric_directions"] = {m["name"]: [m["unit"], m["better"]] for m in expected}
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
