"""Smooth approximation of the superquantile by dual regularization.

The superquantile is the support function of the capped simplex
``{q : 0 <= q_i <= 1/(n(1-p)), sum(q) = 1}``.  Subtracting a strongly convex
divergence-to-uniform ``nu * D(q)`` from the dual objective turns the max into
a differentiable function of the sample whose gradient is the unique argmax.
Two divergences are supported:

* ``euclidean`` -- ``D(q) = ||q - uniform||^2 / 2``,
* ``kl``        -- ``D(q) = sum(q_i log(n q_i))`` (Kullback-Leibler to uniform).

Each divergence is one private class, ``_Euclidean`` and ``_KL``, and the
registry ``_KINDS`` maps each kind name to its class; ``SmoothingSpec`` and
the command line's ``--smoothing`` read the names from it.  A record of the
class is built once per call from ``(nu, n, p)``, which it checks, and
defines everything the kind changes: the cap, the bracket ends
``s_uniform`` and ``s_cap``, the pass that gives the weights and their
curvature, the conjugate values from that pass, the Newton step and the
divergence itself (see ``_Divergence``).  The solver and the conjugates take
a record and never branch on the kind.
``smoothed_positive_part`` keeps its own closed forms and ``bisect_dual`` its
own bracket, so that each checks the records independently.

For a separable divergence the dual of the regularized problem is a smooth
convex function of a single scalar shift, ``eta + sum_i scalar_conjugate(u_i
- eta)``, whose derivative ``1 - sum_i scalar_conjugate_grad(u_i - eta)`` is
non-decreasing, from ``-p/(1-p)`` at ``-inf`` to 1 at ``+inf``.
:func:`solve_dual_1d` finds the root of that derivative for both divergences
with one safeguarded Newton iteration: it centres the sample at its
p-quantile, brackets the root in closed form without sorting, and takes the
slope and the curvature from one O(n) pass per step, bisecting the bracket
when a step leaves it or stalls.  Before the first pass it drops the rows
whose weight stays at its floor over the whole bracket (the candidate filter
of Michelot's and Condat's simplex projections).  A caller that can bound
the losses may leave such rows out of the sample in the first place and
pass the whole sample's size as ``n``: pre-screened rows and filtered rows
are one mechanism, the same gap below the p-quantile, counted the same way
in the cap, the quantile's rank and the value.  The smoothed value comes
from the weights and sums of the last pass.  :func:`bisect_dual` is the
independent bisection-only reference.

The smoothed oracle (``sqopt.oracles.smoothed_objective``) calls
:func:`solve_dual_1d` once per call on losses that move little from call to
call, so it warm-starts the iteration: it passes the previous solution's
``start``, its threshold measured from that sample's p-quantile, and the
solver takes it when it lies strictly inside the new bracket.  Bracket,
safeguards and stopping rule are those of a cold solve, so a warm-started
solution agrees with a cold one to rounding.

The module also hosts the equivalence toolkit between this smoothing and the
classical smoothing of the positive part: ``smoothed_positive_part`` (one
scalar term of the variational form), ``conv_smoothed_positive_part``
(convolution of ``max(. , 0)`` with a mollifier density, in closed form), the
two conversion maps between densities and divergences, and the uniform
``DensitySpec`` recovered from the euclidean smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import _ROW_GATE, _as_vector, _check_integer, _quantile, as_sample, check_tail, tail_cap

__all__ = [
    "SmoothingSpec",
    "DualSolution",
    "scalar_conjugate",
    "scalar_conjugate_grad",
    "solve_dual_1d",
    "bisect_dual",
    "smoothed_superquantile",
    "divergence",
    "divergence_max",
    "smoothed_positive_part",
    "DensitySpec",
    "conv_smoothed_positive_part",
    "divergence_from_density",
    "density_from_smoothing",
    "SmoothingDensity",
]

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
_NEWTON_MAX_ITER = 100
# the filter of solve_dual_1d cuts this factor below lo + s_floor = -(s_cap -
# s_floor), so that a row within rounding of the floor stays a candidate
_FLOOR_SLACK = 1.0 + 8.0 * np.finfo(float).eps
# points of the reconstruction check in density_from_smoothing
_DENSITY_CHECK_POINTS = 41


@dataclass(frozen=True)
class SmoothingSpec:
    """Divergence kind plus smoothing strength ``nu`` (in loss units)."""

    kind: str
    nu: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown smoothing kind {self.kind!r}, expected {' or '.join(map(repr, _KINDS))}")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"smoothing parameter nu must be positive, got {self.nu}")


@dataclass(frozen=True)
class DualSolution:
    """Scalar dual minimizer, the optimal weights, and the smoothed value.

    ``weights[i]`` equals the conjugate derivative evaluated at
    ``u_i - threshold`` and is the unique maximizer of the regularized dual;
    ``value`` is the smoothed superquantile.  For ``kl`` this holds up to
    the rows that :func:`solve_dual_1d` drops: their weights are set to 0
    where the derivative is below ``exp(-41)/n``, so all of them together
    differ from it by less than ``exp(-41)`` (1.6e-18), below the rounding
    of the weights' sum.

    ``start`` is the threshold measured from the sample's p-quantile, the
    warm start of :func:`solve_dual_1d` on a nearby sample; it is NaN, a
    cold start, for a :func:`bisect_dual` solution.
    """

    threshold: float
    weights: np.ndarray
    value: float
    start: float = math.nan


class _Divergence:
    """One smoothing kind at fixed ``(nu, n, p)``; the subclasses are the kinds.

    A subclass sets the bracket ends ``s_uniform`` and ``s_cap``: a weight
    is ``1/n`` at the shifted value ``s = u - eta = s_uniform`` and at the
    cap from ``s = s_cap`` on.  It also sets the floor ``s_floor < 0``: up
    to ``s = s_floor`` a weight is at its floor, which is 0 for
    ``euclidean`` and below ``exp(-41)/n`` for ``kl``, and its conjugate
    value is ``floor_value``.  It defines four methods:

    * ``weights_and_curvature(s)``: the optimal weights at ``s`` and their
      curvature shares, whose sum over ``nu`` is the second derivative of
      the dual function (a weight at a bound contributes nothing).
    * ``values(s, weights, curvature)``: the conjugate values at ``s`` from
      that pass.
    * ``step(slope, curvature)``: the Newton step on the dual derivative,
      infinite where the model has no root.
    * ``divergence(q)``: ``D(q)``.
    """

    def __init__(self, nu: float, n: int, p: float):
        self.nu, self.n, self.p = nu, _check_integer(n, "sample size n", 1), check_tail(p)
        self.cap = tail_cap(n, self.p)

    @property
    def floor_gap(self) -> float:
        """How far below the p-quantile a value sits at its floor weight for every ``eta`` in the bracket.

        That is ``s_cap - s_floor``, widened by ``_FLOOR_SLACK`` so that a
        value within rounding of the floor is not counted.
        """
        return (self.s_cap - self.s_floor) * _FLOOR_SLACK


class _Euclidean(_Divergence):
    """``D(q) = ||q - uniform||^2 / 2``: a weight is ``1/n + s/nu`` clipped to ``[0, cap]``."""

    def __init__(self, nu: float, n: int, p: float):
        super().__init__(nu, n, p)
        self.s_uniform, self.s_cap = 0.0, (nu / n) * self.p / (1.0 - self.p)
        # from s = -nu/n down the weight is exactly 0 and the value -nu d(0)
        self.s_floor, self.floor_value = -nu / n, -0.5 * nu * (1.0 / n) ** 2

    def weights_and_curvature(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights at ``s``; a weight strictly inside ``(0, cap)`` has curvature share 1."""
        weights = np.clip(s / self.nu + 1.0 / self.n, 0.0, self.cap)
        return weights, (weights > 0.0) & (weights < self.cap)

    def values(self, s: np.ndarray, weights: np.ndarray, curvature: np.ndarray) -> np.ndarray:
        return s * weights - 0.5 * self.nu * (weights - 1.0 / self.n) ** 2

    def step(self, slope: float, curvature: float) -> float:
        """Newton step in ``eta``, in which the free weights are linear."""
        return -self.nu * slope / curvature if curvature > 0.0 else math.copysign(math.inf, -slope)

    def divergence(self, q: np.ndarray) -> float:
        return float(0.5 * ((q - 1.0 / self.n) ** 2).sum())


class _KL(_Divergence):
    """``D(q) = sum(q_i log(n q_i))``: a weight is ``exp(s/nu - 1)/n`` below ``s_cap``, the cap above."""

    def __init__(self, nu: float, n: int, p: float):
        super().__init__(nu, n, p)
        self.s_uniform, self.s_cap = nu, nu * (1.0 - math.log1p(-self.p))
        # from s = -40 nu down the weight exp(s/nu - 1)/n is below exp(-41)/n,
        # and its value nu times that; both are taken as 0
        self.s_floor, self.floor_value = -40.0 * nu, 0.0

    def weights_and_curvature(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights at ``s``; an unsaturated weight is its own curvature share.

        ``s`` has at least one dimension: the saturated entries are written
        in place, which costs less than a select over the whole array.
        """
        saturated = s >= self.s_cap
        t = np.exp(np.minimum(s, self.s_cap) / self.nu - 1.0) / self.n
        weights = np.minimum(t, self.cap)
        weights[saturated] = self.cap
        t[saturated] = 0.0
        return weights, t

    def values(self, s: np.ndarray, weights: np.ndarray, curvature: np.ndarray) -> np.ndarray:
        # unsaturated, the value is nu * t, the curvature share; saturation is
        # tested on s, since an underflowed weight has zero curvature too
        out = self.nu * curvature
        saturated = s >= self.s_cap
        out[saturated] = self.cap * (s[saturated] + self.nu * math.log1p(-self.p))
        return out

    def step(self, slope: float, curvature: float) -> float:
        """Newton step taken in ``x = exp(-eta / nu)``.

        The free weights are linear in x, where the weights' sum is concave
        and piecewise linear, so the step lands on the root when no weight
        reaches the cap on the way, while a step in ``eta`` shrinks an
        exponential tail only by a factor ``e``.
        """
        ratio = slope / curvature if curvature > 0.0 else -math.inf
        return -self.nu * math.log1p(ratio) if ratio > -1.0 else math.inf

    def divergence(self, q: np.ndarray) -> float:
        q = q[q != 0.0]  # 0 log 0 = 0
        return float((q * np.log(q * self.n)).sum())


# the smoothing kinds by name; SmoothingSpec and the command line read the names here
_KINDS = {"euclidean": _Euclidean, "kl": _KL}


def scalar_conjugate(s, spec: SmoothingSpec, n: int, p: float):
    """One coordinate's share of the smoothed dual objective.

    ``max_{0 <= t <= cap} (s t - nu d(t))`` with ``cap = 1/(n(1-p))``.  For
    very negative ``s`` the maximizer is ``t = 0`` and the value flattens at
    ``-nu d(0)`` (zero for ``kl``, ``-nu / (2 n^2)`` for ``euclidean``).
    """
    # the passes write entries in place, so a scalar goes through as one entry
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    kind = _KINDS[spec.kind](spec.nu, n, p)
    weights, curvature = kind.weights_and_curvature(s_arr)
    out = kind.values(s_arr, weights, curvature)
    return out if np.ndim(s) else float(out[0])


def scalar_conjugate_grad(s, spec: SmoothingSpec, n: int, p: float):
    """Derivative of :func:`scalar_conjugate`: the optimal weight in [0, cap].

    Three branches: 0 below the lower threshold (``euclidean`` only, the KL
    branch is never exactly zero), ``cap`` above the saturation threshold,
    and the inverse divergence gradient in between.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out, _ = _KINDS[spec.kind](spec.nu, n, p).weights_and_curvature(s_arr)
    return out if np.ndim(s) else float(out[0])


def _slope_eps(p: float) -> float:
    """Absolute noise floor for the dual derivative.

    The derivative is one minus a sum of n terms bounded by the cap, so its
    rounding noise scales with ``n * cap = 1/(1-p)``.  At ``p = 0`` the exact
    asymptote is 0 and must be recognized through this floor.
    """
    return max(1e-12, 16.0 * np.finfo(float).eps / (1.0 - p))


def _solution_at(shift: float, eta: float, s: np.ndarray, weights: np.ndarray, curvature: np.ndarray,
                 kind: _Divergence, sums: tuple[float, float]) -> tuple[np.ndarray, float]:
    """Weights and value of the threshold ``shift + eta`` from a solve's last pass at ``s = v - eta``.

    ``sums`` are that pass's ``weights.sum()`` and ``curvature.sum()``.
    """
    value = shift + (eta + float(kind.values(s, weights, curvature).sum()))
    # the quantization of eta floors the achievable |sum - 1| at
    # curvature * ulp(eta); spread that residual over the coordinates in
    # proportion to their curvature, which is how an infinitesimal eta
    # shift would act
    total_weight, total = sums
    resid = total_weight - 1.0
    if resid != 0.0 and abs(resid) < 1e-8 and total > 0.0:
        adjusted = weights - (resid / total) * curvature
        if adjusted.min() >= 0.0 and adjusted.max() <= kind.cap:
            weights = adjusted
    return weights, value


def _floor_gap(spec: SmoothingSpec, n: int, p: float) -> float:
    """The gap below the p-quantile of an ``n``-value sample from which a value's weight is at its floor.

    :func:`solve_dual_1d` drops the values at least this far below the
    quantile before its first pass, and a caller may leave them out of
    ``values`` in the first place (its ``n`` argument).
    """
    return _KINDS[spec.kind](spec.nu, n, p).floor_gap


def solve_dual_1d(values, spec: SmoothingSpec, p: float, start: float | None = None,
                  n: int | None = None) -> DualSolution:
    """Minimize the scalar dual of the smoothed superquantile, from an optional start.

    The dual derivative ``1 - sum(weights)`` is non-decreasing in the shift
    ``eta``, and one safeguarded Newton iteration finds its root for both
    divergences.  The sample is centred at its p-quantile, so that the shift
    keeps its resolution under a large common offset.  The iteration starts
    where the p-quantile has weight ``1/n``, inside a bracket whose ends are
    known in closed form.  Each pass over the sample gives the derivative
    and the curvature.  The iteration bisects the bracket instead of taking
    the Newton step when that step leaves the bracket or has no root, or
    when the derivative did not halve since the previous pass.

    ``start``, a threshold measured from the sample's p-quantile such as a
    nearby sample's ``DualSolution.start``, replaces the cold start when it
    lies strictly inside the bracket (not ``None``, NaN or infinite).
    Measured from the quantile, it follows losses that move as a whole.  A
    warm solve keeps near its start where the ``kl`` model has no root (the
    capped rows alone hold weight 1): it takes the Newton step in ``eta``,
    ``-nu * slope / curvature``, under the same safeguards, where a cold
    solve bisects.

    Before the first pass, on samples of at least ``core._ROW_GATE`` rows
    (2000; below it the mask, gather and scatter cost more than they save),
    the solve drops the rows at their floor weight for every ``eta >= lo =
    -s_cap``: those with ``v_i <= lo + s_floor``, less a rounding margin.
    The passes run on the candidates, with the full sample's ``n`` and cap;
    a dropped row gets weight 0 and adds ``floor_value`` to the value.  For
    ``euclidean`` that is its exact weight.  For ``kl`` the dropped weights
    are each below ``exp(-41)/n``, so together they hold less than
    ``exp(-41)`` (1.6e-18), below the rounding of the weights' sum, and
    their value, less than ``nu`` times that, is left out.

    ``n``, when given, is the size of a sample of which ``values`` holds
    ``m <= n`` values: the caller promises that each of the ``n - m`` others
    lies at least ``_floor_gap(spec, n, p)`` below the p-quantile, where the
    filter would drop it.  The solve is then the one on the whole sample,
    with its cap, value and dropped count, and the quantile is the ``(k - (n
    - m))``-th order statistic of ``values``; the weights, 0 on the omitted
    values, are returned for the ``m`` given ones.  A non-integer ``n``, an
    ``n < m``, or so many omitted values that they would reach the quantile
    raises ``ValueError``.
    """
    u = as_sample(values)
    m = u.size
    n = m if n is None else _check_integer(n, "sample size n", m)
    kind = _KINDS[spec.kind](spec.nu, n, p)
    shift = _quantile(u, kind.p, n - m)
    v = u - shift
    # at lo the p-quantile and every larger value, more than n(1-p) of them,
    # sit at the cap; at hi every weight is at most 1/n
    lo, hi = -kind.s_cap, float(v.max()) - kind.s_uniform
    dropped = n - m
    if n >= _ROW_GATE:
        # indices from the mask: gathering and scattering through them is
        # several times faster than indexing with the mask itself
        candidates = np.flatnonzero(v > -kind.floor_gap)
        dropped = n - candidates.size
        if candidates.size < m:
            v = v[candidates]
    warm = start is not None and lo < start < hi
    eta = start if warm else -kind.s_uniform
    tol = _slope_eps(kind.p)
    previous = math.inf

    def weights_at(eta):
        s = v - eta
        weights, curvature = kind.weights_and_curvature(s)
        return s, weights, curvature, (float(weights.sum()), float(curvature.sum()))

    for _ in range(_NEWTON_MAX_ITER):
        s, weights, curvature, sums = weights_at(eta)
        slope = 1.0 - sums[0]
        if abs(slope) <= tol:
            break
        if slope < 0.0:
            lo = eta
        else:
            hi = eta
        move = kind.step(slope, sums[1])
        if warm and math.isinf(move) and sums[1] > 0.0:
            # a KL model without a root: a warm start lies near the root, which a
            # bisection of the cold bracket would leave, so step in eta instead
            move = -kind.nu * slope / sums[1]
        step = eta + move
        if not lo < step < hi or abs(slope) > 0.5 * previous:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        previous = abs(slope)
        eta = step
    else:
        s, weights, curvature, sums = weights_at(eta)
    weights, value = _solution_at(shift, eta, s, weights, curvature, kind, sums)
    if v.size < m:
        scattered = np.zeros(m)
        scattered[candidates] = weights
        weights = scattered
    if dropped:
        value = value + dropped * kind.floor_value
    return DualSolution(threshold=float(shift + eta), weights=weights, value=value, start=eta)


def bisect_dual(values, spec: SmoothingSpec, p: float) -> DualSolution:
    """Solve the scalar dual by bisection only (reference path, no Newton steps)."""
    u = as_sample(values)
    kind = _KINDS[spec.kind](spec.nu, u.size, p)
    # centred at its minimum, the sample keeps the bracket's resolution under a large offset
    shift = float(u.min())
    v = u - shift
    # the bracket holds the root: with v >= 0, every s = v - lo is at least
    # nu + 1, so each euclidean weight is at least min(1, cap), each KL
    # weight at least 1/n, and the slope at most 0; every s = v - hi is at
    # most -nu - 1, so each euclidean weight is 0, each KL weight below
    # e^-2/n, and the slope positive
    lo = -spec.nu - 1.0
    hi = float(v.max()) + spec.nu + 1.0
    for _ in range(_BISECT_MAX_ITER):
        eta = 0.5 * (lo + hi)
        weights, _ = kind.weights_and_curvature(v - eta)
        slope = float(1.0 - weights.sum())
        if abs(slope) <= _BISECT_TOL or hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
        if slope < 0.0:
            lo = eta
        else:
            hi = eta
    s = v - eta
    weights, curvature = kind.weights_and_curvature(s)
    total = float(weights.sum())
    if abs(1.0 - total) > _BISECT_TOL:
        # the bracket is too narrow to split, yet the sum jumps across 1
        # inside it (many tied values at a small nu): take the point between
        # the weights at its ends where the sum is 1
        below, _ = kind.weights_and_curvature(v - lo)
        above, _ = kind.weights_and_curvature(v - hi)
        sum_below, sum_above = float(below.sum()), float(above.sum())
        if sum_above < 1.0 < sum_below:
            weights = below + ((sum_below - 1.0) / (sum_below - sum_above)) * (above - below)
            total = float(weights.sum())
    weights, value = _solution_at(shift, eta, s, weights, curvature, kind, (total, float(curvature.sum())))
    return DualSolution(threshold=float(shift + eta), weights=weights, value=value)


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
    """Divergence D of a weight vector of length n from the uniform distribution."""
    # D does not depend on the tail, so any p builds the record
    kind = _KINDS[spec.kind](spec.nu, n, 0.0)
    return kind.divergence(_as_vector(q, n))


def divergence_max(spec: SmoothingSpec, n: int, p: float) -> float:
    """Largest divergence over the capped simplex.

    Both divergences are symmetric and convex, so the maximum sits at the
    most concentrated vertex: greedily stack the cap on as few coordinates
    as possible and put the remainder on one more.
    """
    kind = _KINDS[spec.kind](spec.nu, n, p)
    m = min(int(math.floor(1.0 / kind.cap + 1e-12)), n)
    q = np.zeros(n)
    q[:m] = kind.cap
    rem = 1.0 - m * kind.cap
    if rem > 1e-12 and m < n:
        q[m] = rem
    return kind.divergence(q)


def smoothed_positive_part(x, spec: SmoothingSpec, n: int, p: float):
    """Smooth surrogate of ``max(x, 0)`` induced by the divergence.

    ``max_{0 <= t <= 1} (x t - nu * dt(t))`` where ``dt`` rescales the scalar
    divergence from ``[0, cap]`` to ``[0, 1]``.  Equals ``n (1-p)`` times
    :func:`scalar_conjugate`; evaluating the shifted sum of these terms and
    minimizing over the shift reproduces :func:`smoothed_superquantile`.
    """
    kind = _KINDS[spec.kind](spec.nu, n, p)  # the record checks n and p
    p = kind.p
    nu = spec.nu
    c = n * (1.0 - p)
    x_arr = np.asarray(x, dtype=float)
    if isinstance(kind, _Euclidean):
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
    ``"gaussian"`` (standard normal).  Only the uniform density reads
    ``a`` and ``b``; the others reject any but the defaults.
    """

    kind: str
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("logistic", "uniform", "gaussian"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "uniform" and not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"uniform density needs finite a < b, got a={self.a}, b={self.b}")
        if self.kind != "uniform" and (self.a, self.b) != (-1.0, 1.0):
            raise ValueError(f"{self.kind} density has no support parameters, got a={self.a}, b={self.b}")

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
            out = np.exp(np.minimum(x_arr, 0.0)) / (1.0 + np.exp(-np.abs(x_arr)))
        elif self.kind == "gaussian":
            # math.erfc one element at a time, as the quantile below: no fit reads the gaussian
            out = np.vectorize(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), otypes=[float])(x_arr)
        else:
            out = np.clip((x_arr - self.a) / (self.b - self.a), 0.0, 1.0)
        return out if x_arr.ndim else float(out)

    def quantile_fn(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "logistic":
            # -inf at 0, +inf at 1 and NaN outside [0, 1], as the gaussian quantile
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.log(t_arr) - np.log1p(-t_arr)
        elif self.kind == "gaussian":
            out = np.select([t_arr == 0.0, t_arr == 1.0], [-math.inf, math.inf], math.nan)
            inner = (t_arr > 0.0) & (t_arr < 1.0)
            out[inner] = [NormalDist().inv_cdf(v) for v in t_arr[inner]]
        else:
            out = self.a + t_arr * (self.b - self.a)
        return out if t_arr.ndim else float(out)

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b) if self.kind == "uniform" else 0.0


def conv_smoothed_positive_part(x, density: DensitySpec, nu: float):
    """Convolution of ``max(. , 0)`` with the rescaled density (closed forms).

    Convex, smooth, and converges pointwise to ``max(x, 0)`` as ``nu -> 0``.
    The logistic density gives ``nu * softplus(x / nu)``.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive and finite, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    z = x_arr / nu
    if density.kind == "logistic":
        out = nu * np.logaddexp(0.0, z)
    elif density.kind == "gaussian":
        out = nu * (z * density.cdf(z) + density.pdf(z))
    else:
        a, b = density.a, density.b
        ramp = (np.clip(z, a, b) - a) ** 2 / (2.0 * (b - a))
        out = nu * np.where(z >= b, z - density.mean, ramp)
    return out if x_arr.ndim else float(out)


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
            out[interior] = t_arr[interior] * qt - conv_smoothed_positive_part(qt, density, 1.0)
        out = np.where(t_arr == 1.0, density.mean, out)
        return out if t_arr.ndim else float(out)

    return dbar


@dataclass(frozen=True)
class SmoothingDensity:
    """Uniform density recovered as the curvature of the euclidean smoothing.

    ``density`` is the unit-strength mollifier that
    :func:`conv_smoothed_positive_part` and :func:`divergence_from_density`
    take.  ``tail_value`` is the limit of the smoothed positive part at minus
    infinity; adding it to the convolution of ``max(. , 0)`` with this
    density at strength ``nu`` reproduces the smoothing exactly.
    ``max_reconstruction_error`` is the largest residual of that
    reconstruction on a grid straddling the support.
    """

    density: DensitySpec
    tail_value: float
    max_reconstruction_error: float


def density_from_smoothing(spec: SmoothingSpec, n: int, p: float) -> SmoothingDensity:
    """Recover the mollifier density hidden in the euclidean smoothing.

    The euclidean smoothed positive part is piecewise quadratic, so its
    second derivative is a uniform density on the interval between the two
    slope changes, ``[-nu/n, nu p/(n(1-p))]``: at unit strength
    ``DensitySpec("uniform", -1/n, p/(n(1-p)))``, which does not depend on
    ``nu``.  The reconstruction check compares
    :func:`conv_smoothed_positive_part` of it at strength ``nu``, plus the
    tail constant, with :func:`smoothed_positive_part` on a grid.  The KL
    kind has unbounded curvature support and is rejected.
    """
    if _KINDS[spec.kind] is not _Euclidean:
        raise ValueError("density reconstruction is implemented for the 'euclidean' kind only")
    p = _Euclidean(spec.nu, n, p).p  # the record checks n and p
    nu = spec.nu
    density = DensitySpec("uniform", -1.0 / n, p / (n * (1.0 - p)))
    tail_value = -nu * (1.0 - p) / (2.0 * n)

    lo, hi = nu * density.a, nu * density.b
    width = max(hi - lo, nu)
    etas = np.linspace(lo - width, hi + width, _DENSITY_CHECK_POINTS)
    rebuilt = tail_value + conv_smoothed_positive_part(etas, density, nu)
    worst = float(np.max(np.abs(rebuilt - smoothed_positive_part(etas, spec, n, p))))
    return SmoothingDensity(density=density, tail_value=tail_value, max_reconstruction_error=worst)
