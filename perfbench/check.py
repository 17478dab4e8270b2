"""Acceptance checks of the benchmark itself, run from the root of a checkout:

    python3 perfbench/check.py

For each workload it
  1. runs ``run.py`` at the default seed and ``--seconds`` and prints every
     end-to-end metric with its unit, requiring error rate 0 and the recorded output digest;
  2. runs ``run.py --trace 1`` twice at the default seed and requires the
     exact counts (calls per op, Scalar ops per op, cache ratios) to agree;
  3. requires a second seed to change the generated argv and to give the
     same error rate.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    return json.loads(lines[-1])


def generated(workload: str, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, env=env,
    ).stdout


def exact(metrics: dict) -> dict:
    return {
        name: m["value"]
        for name, m in metrics.items()
        if name.endswith(("calls_per_op", "ops_per_op", "cache_hit_ratio"))
    }


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = bench(workload, DEFAULT_SEED, 0)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: default seed not correct ({result['failed']}/{result['attempted']} failed)")
        first = exact(bench(workload, DEFAULT_SEED, 1)["metrics"])
        second = exact(bench(workload, DEFAULT_SEED, 1)["metrics"])
        differing = sorted(name for name in first if first[name] != second[name])
        print(f"  exact counts repeat across two traced runs: {not differing} ({len(first)} counts)")
        if differing:
            problems.append(f"{workload}: counts differ between traced runs: {differing}")
        other_seed = DEFAULT_SEED + 1
        if generated(workload, DEFAULT_SEED) == generated(workload, other_seed):
            problems.append(f"{workload}: seed {other_seed} generates the same argv as seed {DEFAULT_SEED}")
        other = bench(workload, other_seed, 0)
        rates = (result["failed"] / result["attempted"], other["failed"] / other["attempted"])
        print(f"  seed {other_seed}: argv differ, error rate {rates[1]} vs {rates[0]}")
        if rates[0] != rates[1]:
            problems.append(f"{workload}: error rate changes with the seed: {rates}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("all checks passed" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
