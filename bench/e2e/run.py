#!/usr/bin/env python3
"""Builds qres_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer one (--trace 1); with --all, every metric qres_bench reported
(compare.py --record keeps them all). Exits non-zero when the build
fails, the run fails a check, or a metric named in BENCHMARK.json is
missing.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(build_dir: Path) -> Path:
    """Configures (once) and builds qres_bench; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "qres_bench", "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)
    return build_dir / "qres_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    wanted = benchmark["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--journal-dir", str(build_dir)]
    if args.trace == "1":
        command += ["--trace", str(build_dir / f"trace-{args.workload}.jsonl")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: qres_bench exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    print(f"run.py: qres_bench took {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if not lines:
        print("run.py: qres_bench printed nothing", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    produced = {**result["metrics"], **result["layers"]}
    metrics = dict(produced) if args.all else {}
    for metric in wanted:
        value = produced.get(metric["name"])
        if value is None or value["unit"] != metric["unit"]:
            print(f"run.py: metric {metric['name']} ({metric['unit']}) "
                  "missing from qres_bench output", file=sys.stderr)
            return 1
        metrics[metric["name"]] = value
    correct = result["correct"] and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
