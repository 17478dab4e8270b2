"""trigonal4 benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan-offconic --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Inputs come from ``--seed`` alone (see
``workloads.py``); the program receives only the generated argv.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter (median of several), then a closed loop of whole rounds of
requests in a fresh interpreter for about ``--seconds``.  Times are
reported scaled to the reference host of ``calibrate.py``; the times as
measured are printed above the result line.  ``--trace 1``
runs the first round twice, untraced and then traced, each in a fresh
interpreter, and reports the per-layer metrics of the traced run plus the
ratio of the two throughputs.  Spans go to ``.bench_build/perfbench/``.

Every op's output is checked; at the default seed the first round's output
must also match the digest in ``expected.json``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat the figures for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
# op_ms.p90 is reported only with at least this many samples beyond it.
P90_MIN_BEYOND = 10
# Every child must be done by then, so the whole run stays under 180 s.
DEADLINE_S = 170
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import trigonal4.cli as c; c.build_parser(); "
    "print(time.perf_counter() - t)"
)
WORKLOADS = ("scan-offconic", "point-query")


class BenchError(Exception):
    pass


def _child(argv: list, started: float, stdin: str | None = None) -> str:
    # A fixed hash seed keeps the exact per-layer counts independent of the
    # iteration order of string sets.
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(
            [sys.executable, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=max(remaining, 1)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish within {DEADLINE_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def _worker(job: dict, started: float) -> dict:
    return json.loads(_child([os.path.join(HERE, "worker.py")], started, json.dumps(job)).splitlines()[-1])


def nearest_rank(values: list, percent: int) -> float:
    """The smallest sample with at least ``percent``% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[-(-percent * len(ordered) // 100) - 1]


def measure(workload: str, seed: int, seconds: int, trace: bool, span_dir: str) -> tuple[dict, list]:
    started = time.perf_counter()
    rounds = json.loads(_child([os.path.join(HERE, "workloads.py"), workload, str(seed)], started))
    if trace:
        # Exactly the first round (seconds=0), so every count is an exact
        # function of the seed.
        job = {"rounds": rounds, "seconds": 0, "trace": False}
        plain = _worker(job, started)
        traced = _worker(dict(job, trace=True, span_dir=span_dir), started)
        overhead = (traced["attempted"] / traced["busy_s"]) / (plain["attempted"] / plain["busy_s"])
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        return metrics, [plain, traced]
    setups = [float(_child(["-c", SETUP_PROBE], started)) for _ in range(SETUP_SAMPLES + 1)][1:]
    run = _worker({"rounds": rounds, "seconds": seconds, "trace": False}, started)
    latencies = run["latencies_ms"]
    p90 = nearest_rank(latencies, 90)
    beyond = sum(v > p90 for v in latencies)
    if beyond < P90_MIN_BEYOND:
        raise BenchError(f"only {beyond} of {len(latencies)} samples lie beyond op_ms.p90; it needs {P90_MIN_BEYOND}")
    # Set-up is scaled by the slowdown of the run that follows it: loops timed
    # inside each short probe tracked its import too loosely and doubled the spread.
    slow = run["slowdown"]
    ops_per_s, p50 = run["attempted"] / run["busy_s"], statistics.median(latencies)
    run["summary"] = (
        f"{len(latencies)} latency samples in {run['rounds']} rounds, {beyond} beyond p90; host slowdown {slow:.4f}; "
        f"as measured: ops_per_s {ops_per_s:.6g}, op_ms.p50 {p50:.6g}, op_ms.p90 {p90:.6g}, "
        f"setup_s {statistics.median(setups):.6g}"
    )
    metrics = {
        "ops_per_s": (ops_per_s * slow, "1/s"),
        "op_ms.p50": (p50 / slow, "ms"),
        "op_ms.p90": (p90 / slow, "ms"),
        "setup_s": (statistics.median(setups) / slow, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return metrics, [run]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "trigonal4", "cli.py")):
        print("run from the root of a trigonal4 checkout: src/trigonal4/cli.py not found", file=sys.stderr)
        return 2
    span_dir = os.path.join(".bench_build", "perfbench", f"{args.workload}-seed{args.seed}")
    try:
        metrics, runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), span_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0
    digest_note = "not checked (not the default seed)"
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)["digests"][args.workload]
        matches = all(r["digest"] == expected for r in runs)
        correct = correct and matches
        digest_note = "matches expected.json" if matches else f"MISMATCH: {runs[0]['digest']} != {expected}"
    for r in runs:
        for error in r["errors"]:
            print(f"failed op: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: error_rate {failed}/{attempted}; first-round digest {digest_note}")
    for r in runs:
        if "summary" in r:
            print(f"  {r['summary']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
