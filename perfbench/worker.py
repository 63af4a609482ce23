"""One workload in one fresh process: set-up, a warm-up round, timed rounds, checks.

Started by ``run.py`` with the BLAS thread count fixed to 1.  Prints one JSON
object on its last line of standard output.  ``--spawned-at`` is the
``time.monotonic()`` reading taken by the parent just before the spawn;
CLOCK_MONOTONIC is shared by all processes, so set-up time includes the
interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

UNTRACED_MIN_ROUNDS = 5
TRACED_MIN_ROUNDS = 3
MAX_PROBLEMS_SHOWN = 5


class Rounds:
    """Runs timed rounds and tallies the attempted and failed units of each."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, traced: bool) -> float:
        op = self.next_op
        self.next_op += 1
        self.tracer.op = op
        self.tracer.active = traced
        start = time.perf_counter()
        outputs = self.workload.run(op)
        elapsed = time.perf_counter() - start
        self.tracer.active = False
        for unit_problems in self.workload.check(op, outputs):
            self.attempted += 1
            if unit_problems:
                self.failed += 1
                self.problems.extend(unit_problems)
        return elapsed

    def until(self, deadline: float, min_rounds: int) -> list[float]:
        times = []
        while len(times) < min_rounds or time.monotonic() < deadline:
            times.append(self.one(traced=False))
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    work_dir = Path(args.work_dir)
    workload = workloads.build(args.workload, args.seed, tracer, work_dir)
    tracer.active = False
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = Rounds(workload, tracer)
    rounds.one(traced=False)  # warm-up: the first round runs slower
    start = time.monotonic()
    result = {"setup_s": setup_s}
    if args.trace:
        # alternate untraced and traced rounds, so drift in the host's speed
        # falls on both sides of trace.overhead_s alike
        untraced, traced, traced_ops = [], [], []
        deadline = start + args.seconds
        while len(traced) < TRACED_MIN_ROUNDS or time.monotonic() < deadline:
            untraced.append(rounds.one(traced=False))
            traced_ops.append(rounds.next_op)
            traced.append(rounds.one(traced=True))
        result["layers"] = tracer.layer_metrics(traced_ops, statistics.median(traced),
                                                statistics.median(untraced))
        tracer.write(work_dir.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        result["op_times"] = untraced
    else:
        result["op_times"] = rounds.until(start + args.seconds, UNTRACED_MIN_ROUNDS)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = rounds.attempted
    result["failed"] = rounds.failed
    result["problems"] = rounds.problems[:MAX_PROBLEMS_SHOWN]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(BENCH_DIR.parent)
    sys.exit(main())
