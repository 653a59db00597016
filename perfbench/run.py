#!/usr/bin/env python3
"""Build and run the ROAR cluster benchmark.

    python3 perfbench/run.py --workload <pool|reconfig>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the repository's src/ plus the cluster_bench binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The binary's last stdout line, one JSON object
with keys correct/attempted/failed/metrics, is validated and re-printed as
this script's last line. With --trace 1 the benchmark's spans and the
sampled span trees are written to <build dir>/traces/<workload>-<seed>.txt.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configures (once) and builds; build output goes to stderr."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                       stdout=sys.stderr)
    return out / "cluster_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "cluster" / "tcp_cluster.h").is_file():
        return fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    try:
        exe = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"cluster_bench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"cluster_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("cluster_bench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail(f"unexpected result keys {sorted(result)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
