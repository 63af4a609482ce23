"""First-order oracles for tail-risk objectives ``S_p(L(w))``.

``LossMap`` is the only interface the oracles need: evaluate the vector of
component losses and apply the adjoint Jacobian to a weight vector.  The exact
objective is differentiable except where several losses tie with the
p-quantile; :func:`subdifferential` returns the full structured set there,
while :func:`smoothed_value_grad` evaluates the smooth surrogate whose
gradient is a single weighted adjoint application.  The mean-loss baseline
has only its closure: ``erm_objective(loss_map, reg)(w)`` is one call.

The smoothed oracle calls ``solve_dual_1d`` once per call, through the name
bound here, and hands each solution's ``start`` to the next solve.  Its
``as_sample`` is the call's one finiteness check: a ``NonFiniteSample``
becomes the value ``inf`` and a NaN gradient, a failed step for ``minimize``.
On a loss map with a ``screen`` the closure ``smoothed_objective`` asks it
for the losses of only the rows that can reach the tail, and solves on those
with the whole sample's ``n``; ``smoothed_value_grad`` never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import NonFiniteSample, _rank, _tail, as_sample, check_tail, tail_cap
from .smoothing import SmoothingSpec, _floor_gap, solve_dual_1d

__all__ = [
    "LossMap",
    "SubdifferentialDescription",
    "subdifferential",
    "smoothed_value_grad",
    "smoothed_objective",
    "erm_objective",
    "finite_difference_grad",
]

# relative finite-difference step, of the order of the cube root of machine
# epsilon that balances truncation and rounding error for central differences
FD_STEP = 1e-6


@dataclass(frozen=True)
class LossMap:
    """Differentiable map from parameters to ``n`` component losses.

    ``eval(w)`` returns the loss vector; ``adjoint_apply(w, q)`` returns the
    q-weighted sum of the component gradients, linear in ``q``, for a ``q``
    of shape ``(n,)``, one weight per component (the maps of
    :mod:`sqopt.models` reject any other shape with ``ValueError``).  A loss
    map's results depend only on its arguments; an implementation may reuse
    work from its latest point (the oracles call ``adjoint_apply`` at the
    point of the preceding ``eval``), and its adjoint may skip the components
    whose weight is zero, since the smoothed weights are zero on most of a
    large sample.  No Jacobian is ever materialized.

    ``screen``, optional, serves the smoothed oracle on large samples.
    ``screen(w, k, gap)`` returns the losses of some ``m <= n`` of the
    components, in their original order, and the adjoint over those: a
    function of their ``m`` weights.  It promises that every component it
    leaves out has a loss at least ``gap`` below the ``k``-th smallest of
    all ``n``, so that its smoothed weight is at its floor.  The losses and
    the adjoint may differ from ``eval`` and ``adjoint_apply`` by rounding.
    The oracle closures built on a loss map need not be pure: see
    :func:`smoothed_objective`.
    """

    dim: int
    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    screen: Callable[[np.ndarray, int, float],
                     tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]] | None = None


@dataclass(frozen=True)
class SubdifferentialDescription:
    """Structured subdifferential of a tail-risk objective at a point.

    The set is ``fixed_part + hull_weight * conv(extreme_gradients)``:
    ``fixed_part`` collects the gradients of losses strictly above the
    quantile (scaled by ``1/(n(1-p))``) and the convex hull ranges over the
    gradients of the losses tied with the quantile.  ``selected`` is the
    canonical element using the uniform average of the extremes.  The
    objective is differentiable exactly when a single loss attains the
    quantile.
    """

    fixed_part: np.ndarray
    extreme_gradients: list[np.ndarray]
    hull_weight: float
    selected: np.ndarray

    @property
    def is_singleton(self) -> bool:
        return len(self.extreme_gradients) <= 1


def _losses(losses: Callable, w: np.ndarray):
    # a trial step can overflow the losses; as_sample reports it
    with np.errstate(over="ignore", invalid="ignore"):
        return losses(w)


def _objective(loss_map: LossMap, reg: float,
               value_weights: Callable[[np.ndarray], tuple[float, np.ndarray]],
               losses: Callable[[np.ndarray], tuple] | None = None
               ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` of a risk of the losses plus ``reg/(2n) ||w||^2``.

    ``value_weights`` checks the loss vector with ``as_sample`` and maps it
    to the risk and to the weights whose adjoint image is the risk's
    gradient.  ``losses(w)`` gives that loss vector and the adjoint that
    takes its weights; without it, exactly one ``eval`` and one
    ``adjoint_apply`` per call.  Non-finite losses give the value ``inf``
    and a NaN gradient, without an adjoint, and an empty or
    multi-dimensional loss vector raises.
    """
    if not 0.0 <= reg < math.inf:
        raise ValueError(f"reg must be nonnegative and finite, got {reg}")
    n = loss_map.n
    if losses is None:
        def losses(w):
            return loss_map.eval(w), None

    def oracle(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=float)
        try:
            u, adjoint = _losses(losses, w)
            value, weights = value_weights(u)
        except NonFiniteSample:
            # read by ``minimize`` as a failed trial step, not raised
            return math.inf, np.full(w.shape, np.nan)
        grad = loss_map.adjoint_apply(w, weights) if adjoint is None else adjoint(weights)
        grad = np.asarray(grad, dtype=float)
        return value + 0.5 * reg / n * float(w @ w), grad + (reg / n) * w

    return oracle


def subdifferential(loss_map: LossMap, w, p: float) -> SubdifferentialDescription:
    """Exact subdifferential of ``w -> S_p(L(w))`` at ``w``.

    Only the gradients of the losses at or above the p-quantile enter; they
    are extracted through ``adjoint_apply`` with indicator weights, never via
    a full Jacobian.  The losses and ``p`` are checked once, and the split at
    the quantile is the one ``superquantile_integral`` uses.
    """
    w = np.asarray(w, dtype=float)
    p = check_tail(p)
    try:
        u = as_sample(_losses(loss_map.eval, w))
    except NonFiniteSample:
        raise ValueError("loss map returned non-finite values") from None
    n = u.size
    q, above, gap = _tail(u, p)
    fixed = np.asarray(loss_map.adjoint_apply(w, above * tail_cap(n, p)), dtype=float)

    extremes = []
    for i in np.flatnonzero(u == q):
        basis = np.zeros(n)
        basis[i] = 1.0
        extremes.append(np.asarray(loss_map.adjoint_apply(w, basis), dtype=float))

    hull_weight = gap / (1.0 - p)
    mean_extreme = sum(extremes) / len(extremes)
    selected = fixed + hull_weight * mean_extreme
    return SubdifferentialDescription(fixed_part=fixed, extreme_gradients=extremes,
                                      hull_weight=hull_weight, selected=selected)


def smoothed_value_grad(loss_map: LossMap, w, p: float,
                        spec: SmoothingSpec) -> tuple[float, np.ndarray]:
    """Value and gradient of the smoothed tail-risk objective.

    The smoothed weights come from the scalar dual solve on the loss values,
    and the gradient is their adjoint image.  Exactly one ``eval`` and one
    ``adjoint_apply`` per call: a loss map's ``screen`` is not used, so the
    result depends on the arguments only, not on the map's earlier calls,
    and a screened :func:`smoothed_objective` agrees with it to rounding.
    Non-finite losses give the value ``inf`` and a NaN gradient, without an
    adjoint.
    """
    return smoothed_objective(replace(loss_map, screen=None), p, spec)(w)


def smoothed_objective(loss_map: LossMap, p: float, spec: SmoothingSpec,
                       reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized smoothed objective.

    ``p`` is checked here, when the closure is built, as ``reg`` is.  Each
    call makes one ``solve_dual_1d``, whose ``as_sample`` checks the losses.
    On a loss map with a ``screen``, the losses come from one ``screen(w, k,
    gap)`` call, with ``k`` the rank of the p-quantile among the map's ``n``
    components and ``gap`` the one below which the solve drops a row, and
    the solve and the adjoint run on the rows it returns; otherwise one
    ``eval`` and one ``adjoint_apply``.
    The closure carries state: it keeps the last solution's ``start`` and
    starts the next solve's Newton iteration there, which saves a quarter
    to a half of the passes over the losses along a solver's path.  A
    closure fed the same sequence of points, on a loss map in the same
    state (a screen keeps its reference across closures), replays the same
    values bit for bit, and each call agrees with a cold solve
    (:func:`smoothed_value_grad`) to rounding.  Use one closure per fit and
    per thread.
    """
    p = check_tail(p)
    start = None
    screen = loss_map.screen
    if screen is not None:
        n = loss_map.n
        rank, gap = _rank(n, p), _floor_gap(spec, n, p)

    def value_weights(u) -> tuple[float, np.ndarray]:
        nonlocal start
        # without a screen, the call keeps the form that wrappers of this name
        # were written for, (values, spec, p, start=)
        if screen is None:
            sol = solve_dual_1d(u, spec, p, start=start)
        else:
            sol = solve_dual_1d(u, spec, p, start=start, n=n)
        start = sol.start
        return sol.value, sol.weights

    losses = None if screen is None else (lambda w: screen(w, rank, gap))
    return _objective(loss_map, reg, value_weights, losses)


def erm_objective(loss_map: LossMap, reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized mean loss.

    Exactly one ``eval`` and one ``adjoint_apply`` per call; the mean reads
    every loss, so a loss map's ``screen`` is not used.
    """

    def value_weights(u) -> tuple[float, np.ndarray]:
        u = as_sample(u)
        return float(u.mean()), np.full(u.size, 1.0 / u.size)

    return _objective(loss_map, reg, value_weights)


def finite_difference_grad(value_fn: Callable[[np.ndarray], float], w) -> np.ndarray:
    """Central finite differences with relative steps ``FD_STEP * (1 + |w_j|)``."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for j in range(w.size):
        step = FD_STEP * (1.0 + abs(w[j]))
        w_plus = w.copy()
        w_plus[j] += step
        w_minus = w.copy()
        w_minus[j] -= step
        grad[j] = (value_fn(w_plus) - value_fn(w_minus)) / (2.0 * step)
    return grad
