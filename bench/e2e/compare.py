#!/usr/bin/env python3
"""Compares two checkouts on the qres_bench workloads, or records a baseline.

    python3 bench/e2e/compare.py --parent <checkout> --change <checkout>
                                 [--pairs 10] [--workloads a,b] [--holdout]
    python3 bench/e2e/compare.py --record <BENCH_x.json> --change <checkout>
                                 [--runs 10] [--workloads a,b]

Both modes run each checkout's own bench/e2e/run.py (building it in that
checkout's .bench_build) with BENCHMARK.json's run_seconds, one workload
at a time, on one seed: seeds.json's "seed", or its "holdout_seed" with
--holdout, so that a claim can be re-checked on a seed not used while the
change was written.

Comparing runs parent/change pairs, alternating which side runs first,
and prints one row per workload with a verdict per end-to-end metric and
for the count of failed requests. Timings are judged on their spread:

  GAIN        the change won >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's spread
              (distance between its quartiles);
  REGRESSED   the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound;
  unresolved  the parent's own spread exceeds the bound, so a regression
              of that size could not be seen (unless every change run
              beat every parent run, which reads GAIN or ok);
  ok          none of the above.

admitted_frac, qos_level_mean and the failed count follow from the seeded
decisions alone, so every run of one build reads the same value. They
are judged exactly: any worse value is REGRESSED, any better one GAIN
(their bounds only cover the spread across seeds, which a comparison on
one seed does not have), and runs of one build that disagree read
NONDETERMINISTIC. A timing GAIN on a workload where the change admits
fewer sessions or fails more requests reads "refused": rejected requests
skip dispatch and are cheaper, so such a gain does not count.

Exits 1 when any metric regressed or was nondeterministic. Recording
writes medians and quartiles of --runs untraced runs per workload, one
traced run's per-layer metrics, and machine metadata.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = json.loads(
    (Path(__file__).resolve().parent / "seeds.json").read_text())

# Fixed by the decisions at a seed (main.cpp, RoundResult::record).
EXACT = {"admitted_frac", "qos_level_mean", "failed"}
FAILED = {"name": "failed", "better": "lower", "bound": 0}


def run_once(checkout, workload, seed, seconds, trace, every_metric=False):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    result = subprocess.run(
        [sys.executable, "bench/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"]
        + (["--all"] if every_metric else []),
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} failed "
                         f"(exit {result.returncode})")
    out = json.loads(result.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in out["metrics"].items()}
    values["failed"] = out["failed"]
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    delta = (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if metric["name"] in EXACT:
        if len(set(parent)) > 1 or len(set(change)) > 1:
            return "NONDETERMINISTIC", delta, wins
        if better(p_med, c_med):
            return "REGRESSED", delta, wins
        return ("GAIN" if better(c_med, p_med) else "ok"), delta, wins
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / p_med if p_med else 0.0
    gain = (wins >= 0.9 * len(parent) and better(c_med, p_med)
            and abs(c_med - p_med) > q3 - q1)
    worse = delta if lower else -delta
    beats_every_parent_run = all(better(c, p) for c in change for p in parent)
    if not beats_every_parent_run and spread > bound:
        return "unresolved", delta, wins
    if not beats_every_parent_run and worse > bound:
        return "REGRESSED", delta, wins
    return ("GAIN" if gain else "ok"), delta, wins


def compare(args, benchmark, workloads, seed):
    seconds = benchmark["run_seconds"]
    failing = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                                "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(
                    run_once(checkout, workload, seed, seconds, False))
        verdicts = {}
        for metric in benchmark["end_to_end"] + [FAILED]:
            name = metric["name"]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            verdicts[name] = verdict(metric, parent, change)
        decided_worse = any(verdicts[name][0] not in ("ok", "GAIN")
                            for name in ("admitted_frac", "failed"))
        cells = []
        for name, (result, delta, wins) in verdicts.items():
            if decided_worse and result == "GAIN" and name not in EXACT:
                result = "refused"
            failing |= result in ("REGRESSED", "NONDETERMINISTIC")
            cells.append(f"{name} {result} {delta:+.1%} "
                         f"({wins}/{args.pairs})")
        print(f"{workload:12s} " + " | ".join(cells), flush=True)
    return 1 if failing else 0


def machine(checkout):
    cache = Path(checkout) / ".bench_build" / "CMakeCache.txt"
    entries = {}
    for line in cache.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            entries[key.split(":")[0]] = value
    compiler = subprocess.run([entries["CMAKE_CXX_COMPILER"], "--version"],
                              stdout=subprocess.PIPE, text=True)
    filesystem = subprocess.run(
        ["stat", "-f", "-c", "%T", str(cache.parent)],
        stdout=subprocess.PIPE, text=True)
    commit = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    return {
        "commit": commit.stdout.strip() or None,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": compiler.stdout.splitlines()[0],
        "build_type": entries.get("CMAKE_BUILD_TYPE", ""),
        "journal_filesystem": filesystem.stdout.strip(),
    }


def record(args, benchmark, workloads, seed):
    seconds = benchmark["run_seconds"]
    doc = {"seed": seed, "run_seconds": seconds, "runs": args.runs,
           "recorded": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in workloads:
        runs = [run_once(args.change, workload, seed, seconds, False)
                for _ in range(args.runs)]
        metrics = {}
        for metric in benchmark["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, q3 = quartiles(values)
            metrics[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "unit": metric["unit"]}
        layers = run_once(args.change, workload, seed, seconds, True,
                          every_metric=True)
        doc["workloads"][workload] = {"metrics": metrics, "layers": layers}
        print(f"{workload}: recorded", flush=True)
    doc["machine"] = machine(args.change)
    Path(args.record).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent")
    parser.add_argument("--record")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--holdout", action="store_true")
    args = parser.parse_args()
    if (args.parent is None) == (args.record is None):
        parser.error("give exactly one of --parent and --record")

    benchmark = json.loads(
        (Path(args.change) / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in benchmark["workloads"]])
    seed = SEEDS["holdout_seed" if args.holdout else "seed"]
    if args.record:
        return record(args, benchmark, workloads, seed)
    return compare(args, benchmark, workloads, seed)


if __name__ == "__main__":
    sys.exit(main())
