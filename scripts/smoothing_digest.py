#!/usr/bin/env python3
"""Print one digest line per (case, kind, output) of the smoothing numerics.

A refactor of ``sqopt.smoothing`` that should not change a single bit is
checked by running this script against both commits' sources (a second
checkout, made with ``git clone`` or ``git archive``, holds the other one)
and comparing the outputs::

    PYTHONPATH=src python scripts/smoothing_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/smoothing_digest.py > before.txt
    cmp before.txt after.txt

Each case is a seeded sample from the edge families of the solver tests
(continuous, ties, a 1e8 offset, a 1e12 scale, constant) with n up to 3000,
p up to 0.999999 and nu from 1e-6 to 1e6 times the scale, solved for both
divergences.  The outputs are hashes of the exact bytes of: the cold
``solve_dual_1d`` and ``bisect_dual`` solutions (threshold, value, weights),
four warm-started ``_newton_dual`` solves (its own start, a perturbed one,
NaN, and one outside the bracket, with the returned start),
``scalar_conjugate`` and ``scalar_conjugate_grad`` on arrays and scalars,
``divergence``, ``divergence_max``, ``dual_derivative``, ``dual_objective``
and ``smoothed_positive_part``.

Usage:  python scripts/smoothing_digest.py [samples]   (default 2000)
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


def outputs(u, spec, p, rng):
    n = u.size
    cold = sm.solve_dual_1d(u, spec, p)
    yield "cold", digest(cold.threshold, cold.value, cold.weights)
    ref = sm.bisect_dual(u, spec, p)
    yield "bisect", digest(ref.threshold, ref.value, ref.weights)
    _, start = sm._newton_dual(u, spec, p)
    starts = (start, start + rng.normal() * (1.0 + abs(start)), math.nan, float(u.max()) + 1e3)
    for k, guess in enumerate(starts):
        sol, back = sm._newton_dual(u, spec, p, guess)
        yield f"warm{k}", digest(sol.threshold, sol.value, sol.weights, back)
    shifted = u - cold.threshold
    yield "conjugate", digest(sm.scalar_conjugate(shifted, spec, n, p),
                              sm.scalar_conjugate(float(shifted[0]), spec, n, p))
    yield "conjugate_grad", digest(sm.scalar_conjugate_grad(shifted, spec, n, p),
                                   sm.scalar_conjugate_grad(float(shifted[-1]), spec, n, p))
    yield "divergence", digest(sm.divergence(cold.weights, spec, n), sm.divergence(ref.weights, spec, n))
    yield "divergence_max", digest(sm.divergence_max(spec, n, p))
    yield "dual_derivative", digest(sm.dual_derivative(cold.threshold, u, spec, p),
                                    sm.dual_derivative(ref.threshold + spec.nu, u, spec, p))
    yield "dual_objective", digest(sm.dual_objective(cold.threshold, u, spec, p),
                                   sm.dual_objective(ref.threshold - spec.nu, u, spec, p))
    yield "positive_part", digest(sm.smoothed_positive_part(shifted, spec, n, p))


def main(samples: int) -> None:
    rng = np.random.default_rng(11)
    perturb = np.random.default_rng(12)
    for case, (u, p, nu) in enumerate(instances(rng, samples)):
        # the kinds are spelled out so that the script also runs against
        # sources without the ``_KINDS`` registry
        for kind in ("euclidean", "kl"):
            for name, value in outputs(u, SmoothingSpec(kind, nu), p, perturb):
                print(case, kind, name, value)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
