#!/usr/bin/env python3
"""Time the superquantile layers alone across n: exact, cold and warm dual solve, adjoint.

For each n the script draws one loss-like sample (half squared residuals
with a heteroscedastic scale, as the regression fits produce) and times

* ``exact``: the exact superquantile ``sqopt.superquantile``;
* ``cold``: ``solve_dual_1d`` with no start;
* ``warm``: ``solve_dual_1d`` on the sample moved by a relative 1e-3, from
  the ``start`` of the solve on the unmoved sample, as the smoothed oracle
  calls it along a fit;

for both divergences at p = 0.9 and three nu each.  Every solve is checked
against ``bisect_dual``: the values must agree within ``1e-12 max(1, |value|)
+ 4 eps nu`` and the weights within ``1e-9`` of the cap.

For n up to 1e5 it also times the gradient step of a smoothed oracle call,

* ``adjoint``: ``eval`` and then ``adjoint_apply`` of a pointwise squared-loss
  map with d = 20 features, at a point whose losses are the moved sample, fed
  the weights of this tree's warm solve; each call alternates between two
  points, so the predictions are computed afresh as along a fit;

and reports the share of rows whose weight is not zero, which the adjoint
may skip.  Each gradient is checked against the dense numpy product
``x.T @ (q * (x @ w - y))``, within ``1e-12`` of the sum of the terms'
magnitudes.  A failed check is printed to standard error and makes the exit
code 1.

One timing round runs each call in a loop sized to take about 20 ms and
records the time per call; a figure is the median and quartiles over
``--repeat`` rounds.  ``--against SRC`` loads a second source tree's
``sqopt`` from the directory ``SRC`` under another package name and times
the two trees in the same process, alternating which runs first from round
to round, so that drift in the host's speed falls on both alike; each row
then also holds the median of the per-round ratios, this tree over the
other.  Two separate runs on a shared host differ by 20% and more at small
n, which hides a per-call cost of a few microseconds.  To compare a change
with its parent::

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/dual_timing.py --against ../parent/src

Usage:  python scripts/dual_timing.py [--n 160,1000,...] [--repeat 7] [--seed 0] [--against SRC]

The output is one JSON object: ``rows`` holds one entry per (layer, kind,
nu, n) with each tree's median, quartiles and loop size, ``candidates``
the share of rows above the candidate filter's floor in the warm solve's
sample, and ``support`` the share of rows that carry weight in the warm
solve's solution, for the n of the ``adjoint`` rows.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

import sqopt
import sqopt.smoothing as sm
from sqopt import SmoothingSpec

P = 0.9
NUS = {"euclidean": (0.1, 1.0, 30.0), "kl": (0.01, 0.1, 1.0)}
DEFAULT_N = (160, 1_000, 10_000, 100_000, 1_000_000)
TARGET_S = 0.02
ADJOINT_MAX_N = 100_000
ADJOINT_D = 20


def load_tree(src: str):
    """The ``sqopt`` package of the source directory ``src``, imported as ``sqopt_against``."""
    root = Path(src) / "sqopt"
    spec = importlib.util.spec_from_file_location("sqopt_against", root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def sample(rng, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return 0.5 * ((0.5 + np.abs(x)) * rng.standard_normal(n)) ** 2


def timed(calls: dict, repeat: int) -> dict:
    """Per-call time of each of ``calls`` (label -> function), interleaved round by round."""
    loops = {}
    for label, call in calls.items():
        call()
        start = time.perf_counter()
        call()
        loops[label] = max(1, int(TARGET_S / max(time.perf_counter() - start, 1e-7)))
    per_call = {label: [] for label in calls}
    order = list(calls)
    for _ in range(repeat):
        for label in order:
            call, count = calls[label], loops[label]
            start = time.perf_counter()
            for _ in range(count):
                call()
            per_call[label].append((time.perf_counter() - start) / count * 1e6)
        order.reverse()
    out = {}
    for label, times in per_call.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        out[label] = {"median_us": float(median), "q1_us": float(q1), "q3_us": float(q3), "loops": loops[label]}
    if len(calls) == 2:
        this, other = (per_call[label] for label in calls)
        out["ratio"] = float(np.median(np.array(this) / np.array(other)))
    return out


def check(label: str, sol, u: np.ndarray, spec: SmoothingSpec) -> list[str]:
    ref = sm.bisect_dual(u, spec, P)
    cap = 1.0 / (u.size * (1.0 - P))
    slack = 1e-12 * max(1.0, abs(ref.value)) + 4.0 * np.finfo(float).eps * spec.nu
    problems = []
    if not abs(sol.value - ref.value) <= slack:
        problems.append(f"{label}: value {sol.value!r} against bisection {ref.value!r}")
    deviation = float(np.abs(sol.weights - ref.weights).max()) / cap
    if not deviation <= 1e-9:
        problems.append(f"{label}: weights off bisection by {deviation:.2e} of the cap")
    return problems


def candidate_share(u: np.ndarray, spec: SmoothingSpec) -> float:
    """Share of rows the candidate filter keeps: those above the floor gap below the quantile."""
    v = u - sm._quantile(u, P)
    return float(np.count_nonzero(v > -sm._floor_gap(spec, u.size, P))) / u.size


def regression_with_losses(seed: int, losses: np.ndarray):
    """Features, targets and a point at which the squared losses are ``losses`` (to rounding)."""
    rng = np.random.default_rng([seed, losses.size])  # its own stream: the samples above stay as they were
    x = rng.standard_normal((losses.size, ADJOINT_D))
    w = rng.standard_normal(ADJOINT_D)
    return x, x @ w + np.sqrt(2.0 * losses), w


def check_adjoint(label: str, grad: np.ndarray, x: np.ndarray, y: np.ndarray, w, q) -> list[str]:
    terms = q * (x @ w - y)
    miss = float((np.abs(grad - x.T @ terms) / (np.abs(x).T @ np.abs(terms))).max())
    return [] if miss <= 1e-12 else [f"{label}: adjoint off the dense product by {miss:.2e} of the terms"]


def main(sizes, repeat: int, seed: int, against: str | None) -> int:
    trees = {"this": sqopt}
    if against is not None:
        trees["against"] = load_tree(against)
    rng = np.random.default_rng(seed)
    rows, shares, supports, problems = [], [], [], []
    for n in sizes:
        u = sample(rng, n)
        moved = u * (1.0 + 1e-3 * rng.standard_normal(n))
        maps = {}
        if n <= ADJOINT_MAX_N:
            x, y, w = regression_with_losses(seed, moved)
            points = (w, w * (1.0 + 1e-12))
            maps = {label: tree.pointwise_loss_map(tree.Dataset(x, y), tree.ModelSpec()) for label, tree in trees.items()}
        exact = {label: (lambda tree=tree: tree.superquantile(u, P)) for label, tree in trees.items()}
        rows.append({"layer": "exact", "kind": None, "nu": None, "n": n, **timed(exact, repeat)})
        for kind, nus in NUS.items():
            for nu in nus:
                cold, warm, warm_weights = {}, {}, {}
                for label, tree in trees.items():
                    spec = tree.SmoothingSpec(kind, nu)
                    name = f"{label} {kind} nu={nu} n={n}"
                    solve = tree.solve_dual_1d
                    first = solve(u, spec, P)
                    moved_solution = solve(moved, spec, P, start=first.start)
                    problems += check(f"cold {name}", first, u, SmoothingSpec(kind, nu))
                    problems += check(f"warm {name}", moved_solution, moved, SmoothingSpec(kind, nu))
                    warm_weights[label] = moved_solution.weights
                    cold[label] = lambda solve=solve, spec=spec: solve(u, spec, P)
                    warm[label] = lambda solve=solve, spec=spec, start=first.start: solve(moved, spec, P, start=start)
                rows.append({"layer": "cold", "kind": kind, "nu": nu, "n": n, **timed(cold, repeat)})
                rows.append({"layer": "warm", "kind": kind, "nu": nu, "n": n, **timed(warm, repeat)})
                share = candidate_share(moved, SmoothingSpec(kind, nu))
                shares.append({"kind": kind, "nu": nu, "n": n, "share": share})
                if maps:
                    q = warm_weights["this"]
                    adjoint = {}
                    for label, loss_map in maps.items():
                        for point in points:
                            problems += check_adjoint(f"adjoint {label} {kind} nu={nu} n={n}",
                                                      loss_map.adjoint_apply(point, q), x, y, point, q)

                        def call(loss_map=loss_map, cycle=itertools.cycle(points)):
                            point = next(cycle)
                            loss_map.eval(point)
                            return loss_map.adjoint_apply(point, q)

                        adjoint[label] = call
                    rows.append({"layer": "adjoint", "kind": kind, "nu": nu, "n": n, **timed(adjoint, repeat)})
                    supports.append({"kind": kind, "nu": nu, "n": n,
                                     "share": float(np.count_nonzero(q)) / n})
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"p": P, "seed": seed, "repeat": repeat, "against": against, "checked": not problems,
                      "rows": rows, "candidates": shares, "support": supports}, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", default=",".join(map(str, DEFAULT_N)), help="comma-separated sample sizes")
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", help="source directory of a second sqopt to time alongside this one")
    args = parser.parse_args()
    sys.exit(main([int(float(x)) for x in args.n.split(",")], args.repeat, args.seed, args.against))
