#!/usr/bin/env python3
"""Print one digest line per (case, kind, output) of the smoothing numerics.

A refactor of ``sqopt.smoothing`` that should not change a single bit is
checked by running this script against both commits' sources (a second
checkout, made with ``git clone`` or ``git archive``, holds the other one)
and comparing the outputs::

    PYTHONPATH=src python scripts/smoothing_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/smoothing_digest.py > before.txt
    cmp before.txt after.txt

A change that reorders the arithmetic changes the bits; ``--values`` prints
the numbers behind each hash instead, one line per part of an output, and
``--compare`` reads two such listings and prints the largest relative
deviation per output and overall.  The listings are large (hundreds of MB
at the default 2000 samples), so stream them::

    PYTHONPATH=src python scripts/smoothing_digest.py --compare \
        <(PYTHONPATH=../parent/src python scripts/smoothing_digest.py --values) \
        <(PYTHONPATH=src python scripts/smoothing_digest.py --values)

A part's deviation is ``max|a - b| / max(max|a|, max|b|, unit)``, where the
unit is its natural scale in the case: the largest ``|u|`` (at least nu)
for thresholds and values, the cap ``1/(n(1-p))`` for weights, their
product for conjugate values, ``1/(1-p)`` for the dual derivative, and the
cap (euclidean) or 1 (kl) for divergences.

Each case is a seeded sample from the edge families of the solver tests
(continuous, ties, a 1e8 offset, a 1e12 scale, constant) with n up to 3000,
p up to 0.999999 and nu from 1e-6 to 1e6 times the scale, solved for both
divergences.  The outputs are hashes of the exact bytes of: the cold
``solve_dual_1d`` and ``bisect_dual`` solutions (threshold, value, weights),
four warm-started ``solve_dual_1d`` solves (passing ``start=`` the cold
solution's ``start``, a perturbed one, NaN, and one outside the bracket,
each with the ``start`` it returns),
``scalar_conjugate`` and ``scalar_conjugate_grad`` on arrays and scalars,
``divergence``, ``divergence_max``, ``dual_derivative``, ``dual_objective``
and ``smoothed_positive_part``.

Usage:  python scripts/smoothing_digest.py [--values] [samples]   (default 2000)
        python scripts/smoothing_digest.py --compare BEFORE AFTER
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

import sqopt.smoothing as sm
from sqopt.smoothing import SmoothingSpec

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


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=float).tobytes())
    return h.hexdigest()[:16]


def warm_solve(u, spec, p, start=None):
    """``solve_dual_1d`` from ``start``, and the solution's ``start``.

    A source from before ``DualSolution.start`` has the warm start only in
    the private ``_newton_dual``, which returns the same pair.
    """
    if hasattr(sm, "_newton_dual"):
        return sm._newton_dual(u, spec, p, start)
    sol = sm.solve_dual_1d(u, spec, p, start=start)
    return sol, sol.start


def outputs(u, spec, p, rng):
    """Yield ``(name, parts)``; each part is ``(label, numbers, unit)``."""
    n = u.size
    cap = 1.0 / (n * (1.0 - p))
    loss = max(float(np.abs(u).max()), spec.nu)
    div = cap if spec.kind == "euclidean" else 1.0
    cold = sm.solve_dual_1d(u, spec, p)
    yield "cold", (("threshold", cold.threshold, loss), ("value", cold.value, loss), ("weights", cold.weights, cap))
    ref = sm.bisect_dual(u, spec, p)
    yield "bisect", (("threshold", ref.threshold, loss), ("value", ref.value, loss), ("weights", ref.weights, cap))
    _, start = warm_solve(u, spec, p)
    starts = (start, start + rng.normal() * (1.0 + abs(start)), math.nan, float(u.max()) + 1e3)
    for k, guess in enumerate(starts):
        sol, back = warm_solve(u, spec, p, guess)
        yield f"warm{k}", (("threshold", sol.threshold, loss), ("value", sol.value, loss),
                           ("weights", sol.weights, cap), ("start", back, loss))
    shifted = u - cold.threshold
    yield "conjugate", (("array", sm.scalar_conjugate(shifted, spec, n, p), loss * cap),
                        ("scalar", sm.scalar_conjugate(float(shifted[0]), spec, n, p), loss * cap))
    yield "conjugate_grad", (("array", sm.scalar_conjugate_grad(shifted, spec, n, p), cap),
                             ("scalar", sm.scalar_conjugate_grad(float(shifted[-1]), spec, n, p), cap))
    yield "divergence", (("cold", sm.divergence(cold.weights, spec, n), div),
                         ("bisect", sm.divergence(ref.weights, spec, n), div))
    yield "divergence_max", (("value", sm.divergence_max(spec, n, p), div),)
    yield "dual_derivative", (("cold", sm.dual_derivative(cold.threshold, u, spec, p), 1.0 / (1.0 - p)),
                              ("shifted", sm.dual_derivative(ref.threshold + spec.nu, u, spec, p), 1.0 / (1.0 - p)))
    yield "dual_objective", (("cold", sm.dual_objective(cold.threshold, u, spec, p), loss),
                             ("shifted", sm.dual_objective(ref.threshold - spec.nu, u, spec, p), loss))
    yield "positive_part", (("array", sm.smoothed_positive_part(shifted, spec, n, p), loss),)


def main(samples: int, values: bool) -> None:
    rng = np.random.default_rng(11)
    perturb = np.random.default_rng(12)
    for case, (u, p, nu) in enumerate(instances(rng, samples)):
        # the kinds are spelled out so that the script also runs against
        # sources without the ``_KINDS`` registry
        for kind in ("euclidean", "kl"):
            for name, parts in outputs(u, SmoothingSpec(kind, nu), p, perturb):
                if not values:
                    print(case, kind, name, digest(*(numbers for _, numbers, _ in parts)))
                    continue
                for label, numbers, unit in parts:
                    listed = " ".join(map(repr, np.atleast_1d(np.asarray(numbers, dtype=float)).tolist()))
                    print(case, kind, f"{name}.{label}", repr(unit), listed)


def compare(before: str, after: str) -> None:
    """Largest relative deviation between two ``--values`` listings, per output and overall."""
    worst = {}
    with open(before) as a, open(after) as b:
        for line_a, line_b in zip(a, b, strict=True):
            case, kind, name, unit, *xs = line_a.split()
            if line_b.split(maxsplit=3)[:3] != [case, kind, name]:
                raise SystemExit(f"listings differ in their cases: {line_a[:60]!r} vs {line_b[:60]!r}")
            x = np.array(xs, dtype=float)
            y = np.array(line_b.split()[4:], dtype=float)
            if x.shape != y.shape or not np.array_equal(np.isfinite(x), np.isfinite(y)):
                raise SystemExit(f"case {case} {kind} {name}: shapes or non-finite entries differ")
            finite = np.isfinite(x)
            if not np.array_equal(x[~finite], y[~finite], equal_nan=True):
                raise SystemExit(f"case {case} {kind} {name}: non-finite entries differ")
            x, y = x[finite], y[finite]
            if x.size == 0:
                continue
            scale = max(float(np.abs(x).max()), float(np.abs(y).max()), float(unit))
            deviation = float(np.abs(x - y).max()) / scale if scale > 0.0 else 0.0
            key = f"{kind} {name}"
            if deviation >= worst.get(key, (-1.0,))[0]:
                worst[key] = (deviation, case)
    for key, (deviation, case) in sorted(worst.items(), key=lambda item: -item[1][0]):
        print(f"{key:32s} {deviation:.3e}  (case {case})")
    print(f"largest relative deviation {max(d for d, _ in worst.values()):.3e}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        compare(args[1], args[2])
    else:
        listing = "--values" in args
        rest = [a for a in args if a != "--values"]
        main(int(rest[0]) if rest else 2000, listing)
