"""Smooth approximation of the superquantile by dual regularization.

The superquantile is the support function of the capped simplex
``{q : 0 <= q_i <= 1/(n(1-p)), sum(q) = 1}``.  Subtracting a strongly convex
divergence-to-uniform ``nu * D(q)`` from the dual objective turns the max into
a differentiable function of the sample whose gradient is the unique argmax.
Two divergences are supported:

* ``euclidean`` -- ``D(q) = ||q - uniform||^2 / 2``,
* ``kl``        -- ``D(q) = sum(q_i log(n q_i))`` (Kullback-Leibler to uniform).

For a separable divergence the dual of the regularized problem is a smooth
convex function of a single scalar shift with a monotone derivative.
:func:`solve_dual_1d` finds the root of that derivative for both divergences
with one safeguarded Newton iteration: it centres the sample at its
p-quantile, brackets the root in closed form without sorting, and takes the
slope and the curvature from one O(n) pass per step, bisecting the bracket
when a step leaves it or stalls.  :func:`bisect_dual` is the independent
bisection-only reference.

The module also hosts the equivalence toolkit between this smoothing and the
classical smoothing of the positive part: ``smoothed_positive_part`` (one
scalar term of the variational form), ``conv_smoothed_positive_part``
(convolution of ``max(. , 0)`` with a mollifier density), and the two
conversion maps between densities and divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit, ndtr, ndtri, xlogy

from .core import as_sample, check_tail, quantile, tail_cap

__all__ = [
    "EUCLIDEAN",
    "KL",
    "SmoothingSpec",
    "DualSolution",
    "scalar_conjugate",
    "scalar_conjugate_grad",
    "dual_objective",
    "dual_derivative",
    "solve_dual_1d",
    "bisect_dual",
    "smoothed_superquantile",
    "divergence",
    "divergence_max",
    "smoothed_positive_part",
    "DensitySpec",
    "conv_smoothed_positive_part",
    "conv_smoothed_positive_part_quadrature",
    "divergence_from_density",
    "density_from_smoothing",
    "SmoothingDensity",
]

EUCLIDEAN = "euclidean"
KL = "kl"

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class SmoothingSpec:
    """Divergence kind plus smoothing strength ``nu`` (in loss units)."""

    kind: str
    nu: float

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, KL):
            raise ValueError(f"unknown smoothing kind {self.kind!r}, expected 'euclidean' or 'kl'")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"smoothing parameter nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class DualSolution:
    """Scalar dual minimizer, the optimal weights, and the smoothed value.

    ``weights[i]`` equals the conjugate derivative evaluated at
    ``u_i - threshold`` and is the unique maximizer of the regularized dual;
    ``value`` is the smoothed superquantile.
    """

    threshold: float
    weights: np.ndarray
    value: float


def _conjugate_raw(s: np.ndarray, kind: str, nu: float, n: int, p: float, cap: float) -> np.ndarray:
    if kind == EUCLIDEAN:
        t = np.clip(s / nu + 1.0 / n, 0.0, cap)
        return s * t - 0.5 * nu * (t - 1.0 / n) ** 2
    # KL: on the unsaturated branch the maximum value collapses to nu * t
    hi = nu * (1.0 - math.log1p(-p))
    t = np.exp(np.minimum(s, hi) / nu - 1.0) / n
    return np.where(s >= hi, cap * (s + nu * math.log1p(-p)), nu * t)


def _weights_and_curvature(s: np.ndarray, kind: str, nu: float, n: int, p: float,
                           cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights at the shifted values ``s = u - eta`` and their curvature shares.

    The second derivative of the dual function is ``curvature.sum() / nu``:
    a weight strictly inside ``(0, cap)`` contributes 1 (``euclidean``) or
    its own value (``kl``), a weight at a bound contributes nothing.
    """
    if kind == EUCLIDEAN:
        t = np.clip(s / nu + 1.0 / n, 0.0, cap)
        return t, (t > 0.0) & (t < cap)
    hi = nu * (1.0 - math.log1p(-p))
    saturated = s >= hi
    t = np.exp(np.minimum(s, hi) / nu - 1.0) / n
    return np.where(saturated, cap, np.minimum(t, cap)), np.where(saturated, 0.0, t)


def scalar_conjugate(s, spec: SmoothingSpec, n: int, p: float):
    """One coordinate's share of the smoothed dual objective.

    ``max_{0 <= t <= cap} (s t - nu d(t))`` with ``cap = 1/(n(1-p))``.  For
    very negative ``s`` the maximizer is ``t = 0`` and the value flattens at
    ``-nu d(0)`` (zero for ``kl``, ``-nu / (2 n^2)`` for ``euclidean``).
    """
    p = check_tail(p)
    s_arr = np.asarray(s, dtype=float)
    out = _conjugate_raw(s_arr, spec.kind, spec.nu, n, p, tail_cap(n, p))
    return out if s_arr.ndim else float(out)


def scalar_conjugate_grad(s, spec: SmoothingSpec, n: int, p: float):
    """Derivative of :func:`scalar_conjugate`: the optimal weight in [0, cap].

    Three branches: 0 below the lower threshold (``euclidean`` only, the KL
    branch is never exactly zero), ``cap`` above the saturation threshold,
    and the inverse divergence gradient in between.
    """
    p = check_tail(p)
    s_arr = np.asarray(s, dtype=float)
    out, _ = _weights_and_curvature(s_arr, spec.kind, spec.nu, n, p, tail_cap(n, p))
    return out if s_arr.ndim else float(out)


def dual_objective(eta: float, values, spec: SmoothingSpec, p: float) -> float:
    """Dual function ``eta + sum_i scalar_conjugate(u_i - eta)``; convex in eta."""
    u = as_sample(values)
    p = check_tail(p)
    return float(eta + _conjugate_raw(u - eta, spec.kind, spec.nu, u.size, p, tail_cap(u.size, p)).sum())


def dual_derivative(eta: float, values, spec: SmoothingSpec, p: float) -> float:
    """Derivative of the dual function: ``1 - sum_i scalar_conjugate_grad(u_i - eta)``.

    Non-decreasing in ``eta``; tends to 1 at +inf and to ``-p/(1-p)`` at -inf.
    """
    u = as_sample(values)
    p = check_tail(p)
    return _slope(eta, u, spec.kind, spec.nu, u.size, p, tail_cap(u.size, p))


def _slope(eta: float, u: np.ndarray, kind: str, nu: float, n: int, p: float, cap: float) -> float:
    weights, _ = _weights_and_curvature(u - eta, kind, nu, n, p, cap)
    return float(1.0 - weights.sum())


def _slope_eps(p: float) -> float:
    """Absolute noise floor for the dual derivative.

    The derivative is one minus a sum of n terms bounded by the cap, so its
    rounding noise scales with ``n * cap = 1/(1-p)``.  At ``p = 0`` the exact
    asymptote is 0 and must be recognized through this floor.
    """
    return max(1e-12, 16.0 * np.finfo(float).eps / (1.0 - p))


def _bisect(u: np.ndarray, kind: str, nu: float, n: int, p: float, cap: float,
            lo: float, hi: float) -> float:
    """Bisection on the dual derivative, assuming slope(lo) <= 0 <= slope(hi)."""
    mid = 0.5 * (lo + hi)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        s = _slope(mid, u, kind, nu, n, p, cap)
        if abs(s) <= _BISECT_TOL or hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
        if s < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _newton_step(slope: float, curvature: float, kind: str, nu: float) -> float:
    """Newton step on the dual derivative; infinite where the model has no root.

    For ``euclidean`` the free weights are linear in the shift.  For ``kl``
    they are linear in ``x = exp(-eta / nu)``, where the weights' sum is
    concave and piecewise linear, so the step is taken in x: it lands on the
    root when no weight reaches the cap on the way, while a step in ``eta``
    shrinks an exponential tail only by a factor ``e``.
    """
    if kind == EUCLIDEAN:
        return -nu * slope / curvature if curvature > 0.0 else math.copysign(math.inf, -slope)
    ratio = slope / curvature if curvature > 0.0 else -math.inf
    return -nu * math.log1p(ratio) if ratio > -1.0 else math.inf


def _solution_at(v: np.ndarray, shift: float, eta: float, weights: np.ndarray,
                 curvature: np.ndarray, kind: str, nu: float, n: int, p: float,
                 cap: float) -> DualSolution:
    """Weights, threshold ``shift + eta`` and value of a dual solve on ``v = u - shift``."""
    # the quantization of eta floors the achievable |sum - 1| at
    # curvature * ulp(eta); spread that residual over the coordinates in
    # proportion to their curvature, which is how an infinitesimal eta
    # shift would act
    resid = float(weights.sum()) - 1.0
    total = float(curvature.sum())
    if resid != 0.0 and abs(resid) < 1e-8 and total > 0.0:
        adjusted = weights - (resid / total) * curvature
        if adjusted.min() >= 0.0 and adjusted.max() <= cap:
            weights = adjusted
    value = shift + (eta + float(_conjugate_raw(v - eta, kind, nu, n, p, cap).sum()))
    return DualSolution(threshold=float(shift + eta), weights=weights, value=value)


def solve_dual_1d(values, spec: SmoothingSpec, p: float) -> DualSolution:
    """Minimize the scalar dual of the smoothed superquantile.

    The dual derivative ``1 - sum(weights)`` is non-decreasing in the shift
    ``eta``, and one safeguarded Newton iteration finds its root for both
    divergences.  The sample is centred at its p-quantile, so that the shift
    keeps its resolution under a large common offset.  The iteration starts
    where the p-quantile has weight ``1/n``, inside a bracket whose ends are
    known in closed form.  Each pass over the sample gives the derivative
    and the curvature.  The iteration bisects the bracket instead of taking
    the Newton step when that step leaves the bracket or has no root, or
    when the derivative did not halve since the previous pass.
    """
    u = as_sample(values)
    p = check_tail(p)
    kind, nu = spec.kind, spec.nu
    n = u.size
    cap = tail_cap(n, p)
    shift = quantile(u, p)
    v = u - shift
    # a weight is 1/n at v - eta = s_uniform and at the cap from v - eta = s_cap on
    if kind == EUCLIDEAN:
        s_uniform, s_cap = 0.0, (nu / n) * p / (1.0 - p)
    else:
        s_uniform, s_cap = nu, nu * (1.0 - math.log1p(-p))
    # at lo the p-quantile and every larger value, more than n(1-p) of them,
    # sit at the cap; at hi every weight is at most 1/n
    lo, hi = -s_cap, float(v.max()) - s_uniform
    eta = -s_uniform
    tol = _slope_eps(p)
    previous = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        weights, curvature = _weights_and_curvature(v - eta, kind, nu, n, p, cap)
        slope = 1.0 - float(weights.sum())
        if abs(slope) <= tol:
            break
        if slope < 0.0:
            lo = eta
        else:
            hi = eta
        step = eta + _newton_step(slope, float(curvature.sum()), kind, nu)
        if step == eta:
            break
        if not lo < step < hi or abs(slope) > 0.5 * previous:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        previous = abs(slope)
        eta = step
    else:
        weights, curvature = _weights_and_curvature(v - eta, kind, nu, n, p, cap)
    return _solution_at(v, shift, eta, weights, curvature, kind, nu, n, p, cap)


def bisect_dual(values, spec: SmoothingSpec, p: float) -> DualSolution:
    """Solve the scalar dual by bisection only (reference path, no Newton steps)."""
    u = as_sample(values)
    p = check_tail(p)
    kind, nu = spec.kind, spec.nu
    n = u.size
    cap = tail_cap(n, p)
    lo = float(u.min()) - nu - 1.0
    hi = float(u.max()) + nu + 1.0
    eps = _slope_eps(p)
    if _slope(lo, u, kind, nu, n, p, cap) > eps:
        span = hi - lo
        for _ in range(60):
            lo -= span
            span *= 2.0
            if _slope(lo, u, kind, nu, n, p, cap) <= eps:
                break
    if _slope(hi, u, kind, nu, n, p, cap) < -eps:
        span = hi - lo
        for _ in range(60):
            hi += span
            span *= 2.0
            if _slope(hi, u, kind, nu, n, p, cap) >= -eps:
                break
    eta = _bisect(u, kind, nu, n, p, cap, lo, hi)
    weights, curvature = _weights_and_curvature(u - eta, kind, nu, n, p, cap)
    return _solution_at(u, 0.0, eta, weights, curvature, kind, nu, n, p, cap)


def smoothed_superquantile(values, spec: SmoothingSpec, p: float) -> tuple[float, np.ndarray]:
    """Smoothed superquantile value and the maximizing weights.

    The weights are the unique maximizer of ``q @ u - nu D(q)`` over the
    capped simplex: they sum to one, respect the cap, and converge to the
    exact tail weights as ``nu -> 0`` and to the uniform distribution as
    ``nu -> inf``.
    """
    sol = solve_dual_1d(values, spec, p)
    return sol.value, sol.weights


def divergence(q, spec: SmoothingSpec, n: int) -> float:
    """Divergence D of a weight vector from the uniform distribution."""
    q_arr = np.asarray(q, dtype=float)
    if spec.kind == EUCLIDEAN:
        return float(0.5 * ((q_arr - 1.0 / n) ** 2).sum())
    return float(xlogy(q_arr, q_arr * n).sum())


def divergence_max(spec: SmoothingSpec, n: int, p: float) -> float:
    """Largest divergence over the capped simplex.

    Both divergences are symmetric and convex, so the maximum sits at the
    most concentrated vertex: greedily stack the cap on as few coordinates
    as possible and put the remainder on one more.
    """
    p = check_tail(p)
    cap = tail_cap(n, p)
    m = min(int(math.floor(1.0 / cap + 1e-12)), n)
    q = np.zeros(n)
    q[:m] = cap
    rem = 1.0 - m * cap
    if rem > 1e-12 and m < n:
        q[m] = rem
    return divergence(q, spec, n)


def smoothed_positive_part(x, spec: SmoothingSpec, n: int, p: float):
    """Smooth surrogate of ``max(x, 0)`` induced by the divergence.

    ``max_{0 <= t <= 1} (x t - nu * dt(t))`` where ``dt`` rescales the scalar
    divergence from ``[0, cap]`` to ``[0, 1]``.  Equals ``n (1-p)`` times
    :func:`scalar_conjugate`; evaluating the shifted sum of these terms and
    minimizing over the shift reproduces :func:`smoothed_superquantile`.
    """
    p = check_tail(p)
    nu = spec.nu
    c = n * (1.0 - p)
    x_arr = np.asarray(x, dtype=float)
    if spec.kind == EUCLIDEAN:
        t = np.clip((1.0 - p) + x_arr * c / nu, 0.0, 1.0)
        out = x_arr * t - nu * (t - (1.0 - p)) ** 2 / (2.0 * c)
    else:
        hi = nu * (1.0 - math.log1p(-p))
        t = np.minimum((1.0 - p) * np.exp(np.minimum(x_arr, hi) / nu - 1.0), 1.0)
        out = np.where(x_arr >= hi, x_arr + nu * math.log1p(-p), nu * t)
    return out if x_arr.ndim else float(out)


@dataclass(frozen=True)
class DensitySpec:
    """Mollifier density for convolution smoothing of the positive part.

    ``kind`` is one of ``"logistic"``, ``"uniform"`` (support ``[a, b]``) or
    ``"gaussian"`` (standard normal).
    """

    kind: str
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("logistic", "uniform", "gaussian"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "uniform" and not self.b > self.a:
            raise ValueError("uniform density needs a < b")

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        if self.kind == "logistic":
            e = np.exp(-np.abs(x_arr))
            out = e / (1.0 + e) ** 2
        elif self.kind == "gaussian":
            out = np.exp(-0.5 * x_arr**2) / math.sqrt(2.0 * math.pi)
        else:
            out = np.where((x_arr >= self.a) & (x_arr <= self.b), 1.0 / (self.b - self.a), 0.0)
        return out if x_arr.ndim else float(out)

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        if self.kind == "logistic":
            out = expit(x_arr)
        elif self.kind == "gaussian":
            out = ndtr(x_arr)
        else:
            out = np.clip((x_arr - self.a) / (self.b - self.a), 0.0, 1.0)
        return out if x_arr.ndim else float(out)

    def quantile_fn(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "logistic":
            out = np.log(t_arr) - np.log1p(-t_arr)
        elif self.kind == "gaussian":
            out = ndtri(t_arr)
        else:
            out = self.a + t_arr * (self.b - self.a)
        return out if t_arr.ndim else float(out)

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b) if self.kind == "uniform" else 0.0

    @property
    def scale(self) -> float:
        """Width used for truncating quadrature tails."""
        return self.b - self.a if self.kind == "uniform" else 1.0


def conv_smoothed_positive_part(x, density: DensitySpec, nu: float):
    """Convolution of ``max(. , 0)`` with the rescaled density (closed forms).

    Convex, smooth, and converges pointwise to ``max(x, 0)`` as ``nu -> 0``.
    The logistic density gives ``nu * softplus(x / nu)``.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    x_arr = np.asarray(x, dtype=float)
    z = x_arr / nu
    if density.kind == "logistic":
        out = nu * np.logaddexp(0.0, z)
    elif density.kind == "gaussian":
        out = nu * (z * ndtr(z) + np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi))
    else:
        a, b = density.a, density.b
        ramp = (np.clip(z, a, b) - a) ** 2 / (2.0 * (b - a))
        out = nu * np.where(z >= b, z - density.mean, ramp)
    return out if x_arr.ndim else float(out)


def conv_smoothed_positive_part_quadrature(x: float, density: DensitySpec, nu: float,
                                           tol: float = 1e-10) -> float:
    """Quadrature evaluation of the convolution smoothing (test oracle path)."""
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    hi = x
    if density.kind == "uniform":
        # integrate over the exact support so quad never sees the jumps
        lo = density.a * nu
        hi = min(x, density.b * nu)
    else:
        lo = -40.0 * nu * density.scale
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda s: (x - s) * density.pdf(s / nu) / nu, lo, hi,
                  epsabs=tol, limit=200)
    return float(val)


def divergence_from_density(density: DensitySpec):
    """Divergence on [0, 1] whose dual smoothing matches the convolution one.

    Returns ``dbar`` such that ``max_t (x t - dbar(t))`` over ``t in [0, 1]``
    reproduces the unit-strength convolution smoothing.  For the logistic
    density ``dbar`` is the negative binary entropy.  Endpoints are the
    limits: 0 at ``t = 0`` and the density mean at ``t = 1``.
    """

    def dbar(t):
        t_arr = np.asarray(t, dtype=float)
        if np.any((t_arr < 0.0) | (t_arr > 1.0)):
            raise ValueError("dbar is defined on [0, 1]")
        out = np.full(t_arr.shape, 0.0)
        interior = (t_arr > 0.0) & (t_arr < 1.0)
        if np.any(interior):
            qt = density.quantile_fn(t_arr[interior])
            out_interior = t_arr[interior] * qt - conv_smoothed_positive_part(qt, density, 1.0)
            out[interior] = out_interior
        out = np.where(t_arr == 1.0, density.mean, out)
        return out if t_arr.ndim else float(out)

    return dbar


@dataclass(frozen=True)
class SmoothingDensity:
    """Uniform density recovered as the curvature of the euclidean smoothing.

    ``tail_value`` is the limit of the smoothed positive part at minus
    infinity; adding it to the convolution of ``max(. , 0)`` with this
    density reproduces the smoothing exactly.
    ``max_reconstruction_error`` stores the verification residual computed by
    quadrature on a grid straddling the support.
    """

    height: float
    support: tuple[float, float]
    tail_value: float
    max_reconstruction_error: float

    def pdf(self, s):
        s_arr = np.asarray(s, dtype=float)
        lo, hi = self.support
        out = np.where((s_arr >= lo) & (s_arr <= hi), self.height, 0.0)
        return out if s_arr.ndim else float(out)


def density_from_smoothing(spec: SmoothingSpec, n: int, p: float,
                           grid_size: int = 41) -> SmoothingDensity:
    """Recover the mollifier density hidden in the euclidean smoothing.

    The euclidean smoothed positive part is piecewise quadratic, so its
    second derivative is a uniform density on the interval between the two
    slope changes.  The returned object carries the quadrature verification
    that convolving ``max(. , 0)`` with this density (plus the tail constant)
    rebuilds the smoothing.  The KL kind has unbounded curvature support and
    is rejected.
    """
    if spec.kind != EUCLIDEAN:
        raise ValueError("density reconstruction is implemented for the 'euclidean' kind only")
    p = check_tail(p)
    nu = spec.nu
    c = n * (1.0 - p)
    lo = -nu / n
    hi = nu * p / (n * (1.0 - p))
    height = c / nu
    tail_value = -nu * (1.0 - p) / (2.0 * n)

    width = max(hi - lo, nu)
    etas = np.linspace(lo - width, hi + width, grid_size)
    worst = 0.0
    for eta in etas:
        if eta <= lo:
            integral = 0.0
        else:
            integral, _ = quad(lambda s: (eta - s) * height, lo, min(eta, hi), epsabs=1e-10)
        rebuilt = tail_value + integral
        exact = smoothed_positive_part(eta, spec, n, p)
        worst = max(worst, abs(rebuilt - exact))
    return SmoothingDensity(height=height, support=(lo, hi), tail_value=tail_value,
                            max_reconstruction_error=worst)
