#!/usr/bin/env python3
"""Compare the exact and smoothing numerics of this source tree with another one, part by part.

A change to ``sqopt`` that should keep every number is checked against the
source of its parent (a second checkout, made with ``git clone`` or
``git archive``) in one process, with nothing written::

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    PYTHONPATH=src python scripts/smoothing_digest.py --against ../parent/src

The other tree is imported under another package name (the loader of
``scripts/dual_timing.py``), and both trees go through the same outputs on
the same cases, with the same drawn warm starts.  The script prints, per
divergence and output and overall, how many parts are not bit-identical and
the largest relative deviation, and exits 1 when any part differs.  A part's
deviation is ``max|a - b| / max(max|a|, max|b|, unit)`` over its finite
entries (infinite where the shapes or the non-finite entries differ), where
the unit is its natural scale in the case: the largest ``|u|`` (at least nu)
for thresholds and values, the cap ``1/(n(1-p))`` for weights, their
product for conjugate values, ``1/(1-p)`` for the dual derivative, and the
cap (euclidean) or 1 (kl) for divergences.  The exact outputs have the same
units, without the floor at nu: the largest ``|u|`` for values and the
quantile, the cap for weights.

Each case is a seeded sample from the edge families of the solver tests
(continuous, ties, a 1e8 offset, a 1e12 scale, constant) with n up to 3000,
p up to 0.999999 and nu from 1e-6 to 1e6 times the scale, solved for both
divergences.  The outputs are: the cold ``solve_dual_1d`` and
``bisect_dual`` solutions (threshold, value, weights), four warm-started
``solve_dual_1d`` solves (passing ``start=`` the cold solution's ``start``,
a perturbed one, NaN, and one outside the bracket, each with the ``start``
it returns), ``scalar_conjugate`` and ``scalar_conjugate_grad`` on arrays
and scalars, ``divergence``, ``divergence_max``, the dual function
``eta + sum scalar_conjugate(u - eta)`` and its derivative
``1 - sum scalar_conjugate_grad(u - eta)``, and ``smoothed_positive_part``.
Once per case, whatever the divergence, the exact side of ``sqopt.core`` adds
``quantile``, ``superquantile_integral``, ``superquantile_dual`` (value and
weights) and ``superquantile_variational`` (value and eta).

Once per run, the ``oracles`` part fits through each tree's oracles and
``minimize``: on a seeded 5000 x 6 ``pointwise_loss_map`` of each loss (the
squared one large enough for its screen, the logistic one, which has none,
for the full passes), euclidean (nu = 1) and KL (nu = 0.01) fits of
``smoothed_objective`` at p = 0.9 with ``reg = 1``, from zeros, in two rounds
on one map; on both sides of ``core._ROW_GATE``, where the dual filter,
the gathered adjoint and the screen switch on, a euclidean fit on its first
1999 and first 2000 rows and a KL fit (nu = 0.01) on a ``grouped_loss_map``
of those rows, one per group, so 1999 and 2000 groups; then one KL fit (nu =
0.1) on a ``grouped_loss_map`` of 50 groups and one ``erm_objective`` fit.
A tree that moves one of the three switches alone by a row differs in at
least one of the gate fits.  Each fit's parts are its status (as its
bytes), its iteration count, its value and ``w*``, relative to no unit.

Usage:  python scripts/smoothing_digest.py --against SRC [samples]   (default 2000)
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

import sqopt
from dual_timing import load_tree

FAMILIES = ("continuous", "ties", "offset", "huge", "constant")


def instances(rng, count):
    for k in range(count):
        family = FAMILIES[k % len(FAMILIES)]
        n = int(rng.choice([1, 2, 3, 10, 200, 3000]))
        p = float(rng.choice([0.0, 0.5, 0.9, 0.999, 0.999999, rng.uniform(0.0, 0.99)]))
        z = rng.normal(0.0, 1.0, n)
        scale = 1e12 if family == "huge" else 1.0
        u = {"continuous": z, "ties": np.round(z), "offset": 1e8 + z,
             "huge": z * scale, "constant": np.full(n, 3.0)}[family]
        yield u, p, scale * float(10 ** rng.uniform(-6, 6))


def exact_outputs(core, u, p):
    """Yield ``(name, parts)`` of the tree whose ``sqopt.core`` is ``core``; a part is ``(numbers, unit)``."""
    cap = 1.0 / (u.size * (1.0 - p))
    loss = float(np.abs(u).max())
    yield "quantile", ((core.quantile(u, p), loss),)
    yield "superquantile_integral", ((core.superquantile_integral(u, p), loss),)
    value, weights = core.superquantile_dual(u, p)
    yield "superquantile_dual", ((value, loss), (weights, cap))
    value, eta = core.superquantile_variational(u, p)
    yield "superquantile_variational", ((value, loss), (eta, loss))


def outputs(sm, u, spec, p, draw):
    """Yield ``(name, parts)`` of the tree whose ``sqopt.smoothing`` is ``sm``; a part is ``(numbers, unit)``.

    ``draw`` is a standard normal number that perturbs the second warm start.
    """
    n = u.size
    cap = 1.0 / (n * (1.0 - p))
    loss = max(float(np.abs(u).max()), spec.nu)
    div = cap if spec.kind == "euclidean" else 1.0
    cold = sm.solve_dual_1d(u, spec, p)
    yield "cold", ((cold.threshold, loss), (cold.value, loss), (cold.weights, cap))
    ref = sm.bisect_dual(u, spec, p)
    yield "bisect", ((ref.threshold, loss), (ref.value, loss), (ref.weights, cap))
    start = cold.start
    for k, guess in enumerate((start, start + draw * (1.0 + abs(start)), math.nan, float(u.max()) + 1e3)):
        sol = sm.solve_dual_1d(u, spec, p, start=guess)
        yield f"warm{k}", ((sol.threshold, loss), (sol.value, loss), (sol.weights, cap), (sol.start, loss))
    shifted = u - cold.threshold
    yield "conjugate", ((sm.scalar_conjugate(shifted, spec, n, p), loss * cap),
                        (sm.scalar_conjugate(float(shifted[0]), spec, n, p), loss * cap))
    yield "conjugate_grad", ((sm.scalar_conjugate_grad(shifted, spec, n, p), cap),
                             (sm.scalar_conjugate_grad(float(shifted[-1]), spec, n, p), cap))
    yield "divergence", ((sm.divergence(cold.weights, spec, n), div), (sm.divergence(ref.weights, spec, n), div))
    yield "divergence_max", ((sm.divergence_max(spec, n, p), div),)

    def dual(eta):
        return float(eta + sm.scalar_conjugate(u - eta, spec, n, p).sum())

    def slope(eta):
        return float(1.0 - sm.scalar_conjugate_grad(u - eta, spec, n, p).sum())

    slope_unit = 1.0 / (1.0 - p)
    yield "dual_derivative", ((slope(cold.threshold), slope_unit), (slope(ref.threshold + spec.nu), slope_unit))
    yield "dual_objective", ((dual(cold.threshold), loss), (dual(ref.threshold - spec.nu), loss))
    yield "positive_part", ((sm.smoothed_positive_part(shifted, spec, n, p), loss),)


def oracle_outputs(tree):
    """Yield ``(name, parts)`` of the fits through the ``sqopt`` package ``tree``; a part is ``(numbers, unit)``."""
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, (5000, 6))
    noisy = x @ rng.normal(0.0, 1.0, 6) + (0.5 + np.abs(x[:, 0])) * rng.normal(0.0, 1.0, 5000)
    zeros = np.zeros(6)

    def parts(result):
        return (list(result.status.encode()), 0.0), (result.iterations, 0.0), (result.value, 0.0), \
            (result.w_star, 0.0)

    for loss, y in (("squared", noisy), ("logistic", np.where(noisy > 0.0, 1.0, -1.0))):
        loss_map = tree.pointwise_loss_map(tree.Dataset(x, y), tree.ModelSpec(loss=loss))
        for round_ in (0, 1):
            for kind, nu in (("euclidean", 1.0), ("kl", 0.01)):
                oracle = tree.oracles.smoothed_objective(loss_map, 0.9, tree.SmoothingSpec(kind, nu), 1.0)
                yield f"{loss} {kind} round {round_}", parts(tree.minimize(oracle, zeros))
    # both sides of the row gate: the screen serves every adjoint of the 2000-row pointwise fit, so the
    # gathered adjoint is reached through a grouped map of one row per group, which has no screen
    for rows in (1999, 2000):
        data = tree.Dataset(x[:rows], noisy[:rows])
        oracle = tree.oracles.smoothed_objective(tree.pointwise_loss_map(data, tree.ModelSpec()), 0.9,
                                                 tree.SmoothingSpec("euclidean", 1.0), 1.0)
        yield f"squared euclidean {rows} rows", parts(tree.minimize(oracle, zeros))
        grouped = tree.grouped_loss_map(data, tree.ModelSpec(), tree.GroupStructure(np.arange(rows)))
        oracle = tree.oracles.smoothed_objective(grouped, 0.9, tree.SmoothingSpec("kl", 0.01), 1.0)
        yield f"grouped kl {rows} groups", parts(tree.minimize(oracle, zeros))
    data = tree.Dataset(x, noisy)
    grouped = tree.grouped_loss_map(data, tree.ModelSpec(), tree.GroupStructure(np.arange(5000) % 50))
    oracle = tree.oracles.smoothed_objective(grouped, 0.9, tree.SmoothingSpec("kl", 0.1), 1.0)
    yield "grouped kl", parts(tree.minimize(oracle, zeros))
    oracle = tree.oracles.erm_objective(tree.pointwise_loss_map(data, tree.ModelSpec()), 1.0)
    yield "erm", parts(tree.minimize(oracle, zeros))


def deviation(x: np.ndarray, y: np.ndarray, unit: float) -> float:
    """``max|x - y| / max(max|x|, max|y|, unit)`` over the finite entries; inf if the others differ."""
    finite = np.isfinite(x)
    if x.shape != y.shape or not (np.array_equal(finite, np.isfinite(y))
                                  and np.array_equal(x[~finite], y[~finite], equal_nan=True)):
        return math.inf
    x, y = x[finite], y[finite]
    scale = max(float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0)), unit)
    return float(np.abs(x - y).max(initial=0.0)) / scale if scale > 0.0 else 0.0


def main(against: str, samples: int) -> int:
    trees = (sqopt, load_tree(against))
    rng = np.random.default_rng(11)
    perturb = np.random.default_rng(12)
    table = {}  # "side output" -> [non-identical parts, parts, largest deviation, its case]

    def compare(side, case, this, other):
        for (name, parts), (_, other_parts) in zip(this, other, strict=True):
            row = table.setdefault(f"{side} {name}", [0, 0, 0.0, None])
            for (a, unit), (b, _) in zip(parts, other_parts, strict=True):
                a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
                row[0] += a.shape != b.shape or a.tobytes() != b.tobytes()
                row[1] += 1
                d = deviation(a, b, unit)
                if d > row[2]:
                    row[2], row[3] = d, case

    for case, (u, p, nu) in enumerate(instances(rng, samples)):
        compare("exact", case, *(exact_outputs(tree.core, u, p) for tree in trees))
        for kind in ("euclidean", "kl"):
            draw = float(perturb.normal())
            compare(kind, case, *(outputs(tree.smoothing, u, tree.SmoothingSpec(kind, nu), p, draw)
                                  for tree in trees))
    compare("oracles", None, *(oracle_outputs(tree) for tree in trees))
    print(f"{'output':36s} {'differ':>7s} {'parts':>7s}  largest relative deviation")
    for key, (differ, parts, worst, case) in sorted(table.items(), key=lambda item: (-item[1][2], item[0])):
        print(f"{key:36s} {differ:7d} {parts:7d}  {worst:.3e}" + (f"  (case {case})" if case is not None else ""))
    differ, parts = sum(row[0] for row in table.values()), sum(row[1] for row in table.values())
    print(f"{differ} of {parts} parts not bit-identical; "
          f"largest relative deviation {max(row[2] for row in table.values()):.3e}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="source directory of the sqopt to compare with")
    parser.add_argument("samples", nargs="?", type=int, default=2000)
    args = parser.parse_args()
    sys.exit(main(args.against, args.samples))
