"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (enumeration, sorting, dense grids,
projections, adaptive quadrature) and shares no code path with the package
internals it checks.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad


def capped_simplex_vertices(n: int, cap: float):
    """All vertices of {q : 0 <= q_i <= cap, sum(q) = 1} (small n only)."""
    m = int(math.floor(1.0 / cap + 1e-12))
    rem = 1.0 - m * cap
    vertices = []
    if rem < 1e-12:
        for full in combinations(range(n), m):
            q = np.zeros(n)
            q[list(full)] = cap
            vertices.append(q)
    else:
        for full in combinations(range(n), m):
            for j in range(n):
                if j in full:
                    continue
                q = np.zeros(n)
                q[list(full)] = cap
                q[j] = rem
                vertices.append(q)
    return vertices


def brute_force_superquantile(u, p: float) -> float:
    """Maximize q @ u over the capped simplex by vertex enumeration."""
    u = np.asarray(u, dtype=float)
    n = u.size
    cap = 1.0 / (n * (1.0 - p))
    return max(float(q @ u) for q in capped_simplex_vertices(n, cap))


def sorted_quantile(u, p: float) -> float:
    """Direct CDF inversion over the sorted values."""
    v = np.sort(np.asarray(u, dtype=float))
    n = v.size
    for j in range(n):
        if (j + 1) / n >= p:
            return float(v[j])
    return float(v[-1])


def sorted_tail_average(u, p: float) -> float:
    """Integrate the empirical (step) quantile function over [p, 1]."""
    v = np.sort(np.asarray(u, dtype=float))
    n = v.size
    total = 0.0
    for j in range(n):
        lo, hi = j / n, (j + 1) / n
        overlap = max(0.0, hi - max(lo, p))
        total += v[j] * overlap
    return total / (1.0 - p)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    ind = np.arange(n) + 1
    rho = np.nonzero(u - cssv / ind > 0)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def grid_max(fun, lo: float, hi: float, points: int = 1_000_001) -> float:
    """Dense-grid maximization of a scalar function on [lo, hi]."""
    t = np.linspace(lo, hi, points)
    return float(np.max(fun(t)))


def finite_difference(value_fn, w, h: float = 1e-6) -> np.ndarray:
    """Plain central differences (independent twin of the packaged checker)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    for j in range(w.size):
        step = h * (1.0 + abs(w[j]))
        wp = w.copy()
        wp[j] += step
        wm = w.copy()
        wm[j] -= step
        out[j] = (value_fn(wp) - value_fn(wm)) / (2.0 * step)
    return out


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def conv_smoothed_positive_part_quadrature(x: float, density, nu: float,
                                           tol: float = 1e-10) -> float:
    """Convolution of ``max(. , 0)`` with the rescaled density, by adaptive quadrature."""
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    hi = x
    if density.kind == "uniform":
        # integrate over the exact support so quad never sees the jumps
        lo = density.a * nu
        hi = min(x, density.b * nu)
    else:
        # the logistic and gaussian tails are negligible beyond 40 units
        lo = -40.0 * nu
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda s: (x - s) * density.pdf(s / nu) / nu, lo, hi,
                  epsabs=tol, limit=200)
    return float(val)
