#!/usr/bin/env python3
"""Smoke test for qres_bench (ctest: qres_bench_e2e_smoke).

    python3 smoke.py --bench <qres_bench> --work-dir <dir>

Runs every workload of BENCHMARK.json once with --quick and --trace (one
untraced and one traced round each) on seeds.json's seed, and asserts:

  * every run passes its own checks: conservation after the final drain,
    equal digests across rounds, so traced decisions equal untraced ones,
    durable_1x deciding as paper_1x and flash_100x's pool deciding as
    inline planning;
  * no request failed;
  * every metric BENCHMARK.json names is in every workload's output.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    benchmark = json.loads((PACKAGE.parents[1] / "BENCHMARK.json").read_text())
    seed = json.loads((PACKAGE / "seeds.json").read_text())["seed"]
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    failures = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        trace = Path(args.work_dir) / f"smoke-{workload}.jsonl"
        command = [args.bench, "--workload", workload, "--seed", str(seed),
                   "--quick", "--trace", str(trace),
                   "--journal-dir", args.work_dir]
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=120)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            failures.append(f"{workload}: exited {result.returncode}")
            continue
        out = json.loads(lines[-1])
        produced = {**out["metrics"], **out["layers"]}
        missing = [name for name in names if name not in produced]
        if missing:
            failures.append(f"{workload}: missing metrics {missing}")
        if out["failed"] != 0:
            failures.append(f"{workload}: {out['failed']} failed requests")
        print(f"{workload}: digest {out['digest']}, "
              f"{out['attempted']} requests")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("qres_bench smoke: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
