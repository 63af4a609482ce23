"""Benchmark of the sqopt fit loop: L-BFGS -> oracle -> loss map + 1-D dual solve.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --repeat 10

Each run byte-compiles ``src/`` (the build), starts the workload in a fresh
worker process with one BLAS/OpenMP thread, and starts ``SETUP_SAMPLES - 1``
more workers that only set up.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (median round time ``op_s``,
median ``setup_s`` and ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer figures of ``spans.py``.  ``--workload all`` runs every workload
untraced and traced and names each metric ``<workload>/<metric>``.
``--repeat N`` runs N seeds in a row and prints the median and quartiles of
every metric, with the host's steal time during each run.

Everything is written under ``perfbench/out/``; nothing outside the checkout
is read or written.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("tall", "wide", "study")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
SETUP_LIMIT_S = 60.0

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: iteration counts (and artifact bytes) repeat only at a
    # fixed thread count, and the worker must not compete with itself on 2 cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # fixed glibc thresholds.  With the adaptive defaults a fresh process
    # unmaps and re-faults the dual solve's O(n) temporaries on every call
    # (~180k minor faults, a quarter of a tall round), and that kernel time
    # swings with the host's memory load.  Blocks of 4 MiB and more are still
    # mapped apart, so the peak resident set does not hinge on heap layout.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(128 << 20)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT_DIR)
    env.pop("SQOPT_DATA_DIR", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload, seed, seconds, trace, work_dir, setup_only=False, timeout=RUN_LIMIT_S):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen([*cmd, "--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def build() -> None:
    """Byte-compile the package so every worker starts from warm caches."""
    if not (ROOT / "src" / "sqopt" / "__init__.py").is_file():
        raise BenchError(f"no sqopt package under {ROOT / 'src'}")
    for directory in (ROOT / "src", BENCH_DIR):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise BenchError(f"could not compile {directory}")


def steal_ticks() -> int:
    """Host steal time in clock ticks from /proc/stat (read-only), 0 where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_once(workload, seed, seconds, trace) -> dict:
    """One benchmark run of one workload; returns the result object."""
    work_dir = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        main = run_worker(workload, seed, seconds, trace, work_dir)
        setups = [main["setup_s"]]
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            limit = min(SETUP_LIMIT_S, RUN_LIMIT_S - (time.monotonic() - started))
            if limit <= 0:
                raise BenchError("run exceeded its time limit during set-up samples")
            setups.append(run_worker(workload, seed, seconds, trace, work_dir, True, limit)["setup_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in main["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = main["layers"]
    else:
        values = {"op_s": statistics.median(main["op_times"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": main["failed"] == 0, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics, "rounds": len(main["op_times"])}


def public(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def run_all(seed, seconds) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, seed, seconds, trace)
            print(f"{workload} trace={trace}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def repeat(workload, first_seed, seconds, trace, count) -> None:
    """Run ``count`` seeds and print median, quartiles and spread of every metric."""
    samples: dict[str, list[float]] = {}
    shares = set()
    for k in range(count):
        seed = first_seed + k
        before = steal_ticks()
        result = run_once(workload, seed, seconds, trace)
        steal_s = (steal_ticks() - before) / os.sysconf("SC_CLK_TCK")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        shares.add(result["failed"] / result["attempted"])
        shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"rounds {result['rounds']} steal_s {steal_s:.2f} {shown}", flush=True)
    print(f"failed share over runs: {sorted(shares)}")
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} (n={len(values)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run this many seeds and summarize")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.repeat and args.workload == "all":
        parser.error("--repeat needs a single workload")
    try:
        build()
        OUT_DIR.mkdir(exist_ok=True)
        if args.repeat:
            repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = public(run_once(args.workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
