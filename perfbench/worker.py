"""One measured process: runs generated requests through the CLI in-process.

Reads a JSON job on stdin and prints one JSON result line.  It runs in a
fresh interpreter, so the program's per-parameter caches start empty, as
they do for a CLI user.  Requests run one after another from a single
thread (a closed loop: each waits for the previous one).

``trigonal4.cli.main(argv, out)`` is called with ``out`` a recording
writer.  ``cmd_scan`` writes exactly one line per row, so a scan row's
latency is the gap between two writes; any other command is one op timed
from call to return.

After each request it times the fixed loop of ``calibrate``, which gives
the host's slowdown over the run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import calibrate
import workloads
from layertrace import Tracer

MAX_ERRORS_KEPT = 5
LOOPS_PER_REQUEST = 2


class RecordingWriter:
    """Stands in for stdout: keeps each write and the time it happened."""

    def __init__(self, tracer: Tracer | None):
        self.writes: list[str] = []
        self.times: list[int] = []
        self._tracer = tracer

    def write(self, text: str) -> int:
        self.times.append(time.perf_counter_ns())
        self.writes.append(text)
        if self._tracer is not None:
            self._tracer.op += 1
        return len(text)


def run(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    from trigonal4 import cli

    rounds, seconds = job["rounds"], job["seconds"]
    latencies_ns: list[int] = []
    loop_ns: list[int] = []
    attempted = failed = 0
    errors: list[str] = []
    busy_ns = 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    done = 0
    for index, requests in enumerate(rounds):
        # The first round always runs; another starts only if a mean round
        # still fits in ``seconds``.
        elapsed = time.perf_counter() - started
        if done and elapsed + elapsed / done > seconds:
            break
        for req in requests:
            out = RecordingWriter(tracer)
            if tracer is not None:
                tracer.op = attempted
            problem = None
            begin = time.perf_counter_ns()
            try:
                code = cli.main(req["argv"], out)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                code, problem = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            busy_ns += end - begin
            if problem is None and code != 0:
                problem = f"exit code {code}"
            if problem is None:
                try:
                    workloads.check_output(req["check"], out.writes)
                except Exception as exc:  # noqa: BLE001 - malformed output fails the check too
                    problem = f"check failed: {type(exc).__name__}: {exc}"
            if req["rows"]:
                marks = [begin] + out.times[: req["rows"]]
                latencies_ns.extend(b - a for a, b in zip(marks, marks[1:]))
            else:
                latencies_ns.append(end - begin)
            ops = req["rows"] or 1
            attempted += ops
            if problem is not None:
                failed += ops
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append(f"{' '.join(req['argv'])}: {problem}")
            if index == 0:
                digest.update(b"<failed>" if problem else "".join(out.writes).encode())
            loop_ns.append(sum(calibrate.loop_ns() for _ in range(LOOPS_PER_REQUEST)) // LOOPS_PER_REQUEST)
        done += 1
    result = {
        "rounds": done,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "latencies_ms": [ns / 1e6 for ns in latencies_ns],
        "busy_s": busy_ns / 1e9,
        "slowdown": calibrate.slowdown(loop_ns),
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(attempted)
        tracer.write(job["span_dir"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
