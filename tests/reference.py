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


def sorted_smoothed_superquantile(u, kind: str, nu: float, p: float) -> tuple[float, np.ndarray]:
    """Smoothed superquantile value and weights by sorting, with exact sums.

    Maximizes ``q @ u - nu D(q)`` over the capped simplex.  For
    ``euclidean`` the weights are ``clip(u_i/nu + 1/n - t, 0, cap)``: the
    sum is piecewise linear in ``t`` with breakpoints where a weight meets a
    bound, so the root is found between two sorted breakpoints and
    interpolated.  For ``kl`` the largest values saturate at the cap one at
    a time (water-filling) and the rest share the remaining mass as a
    softmax.  The sample is centred at its median first, which the value
    then gets back.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    cap = 1.0 / (n * (1.0 - p))
    centre = float(np.median(u))
    c = u - centre
    if kind == "euclidean":
        a = c / nu + 1.0 / n

        def total(t):
            return math.fsum(np.clip(a - t, 0.0, cap))

        points = np.unique(np.concatenate([a, a - cap]))
        sums = [total(t) for t in points]
        if sums[0] <= 1.0:
            # every weight below the cap at the first breakpoint: all free there
            t, step = points[0], -(1.0 - sums[0]) / n
        else:
            j = next(j for j in range(1, points.size) if sums[j] <= 1.0)
            t, s1, s2 = points[j - 1], sums[j - 1], sums[j]
            step = (s1 - 1.0) / (s1 - s2) * (points[j] - t)
        # the step is taken from the breakpoint, so that its resolution is
        # not that of t itself
        q = np.clip((a - t) - step, 0.0, cap)
        penalty = 0.5 * math.fsum((q - 1.0 / n) ** 2)
    else:
        order = np.argsort(-c, kind="stable")
        q = np.zeros(n)
        for m in range(n):
            rest = c[order[m:]]
            e = np.exp((rest - rest.max()) / nu)
            w = (1.0 - m * cap) * e / math.fsum(e)
            if w.max() <= cap * (1.0 + 1e-15):
                q[order[:m]] = cap
                q[order[m:]] = np.minimum(w, cap)
                break
        positive = q[q > 0.0]
        penalty = math.fsum(positive * np.log(n * positive))
    return centre + (math.fsum(q * c) - nu * penalty), q
