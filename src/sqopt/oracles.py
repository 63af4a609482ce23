"""First-order oracles for tail-risk objectives ``S_p(L(w))``.

``LossMap`` is the only interface the oracles need: evaluate the vector of
component losses and apply the adjoint Jacobian to a weight vector.  The exact
objective is differentiable except where several losses tie with the
p-quantile; :func:`subdifferential` returns the full structured set there,
while :func:`smoothed_value_grad` evaluates the smooth surrogate whose
gradient is a single weighted adjoint application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_tail, tail_split
from .smoothing import SmoothingSpec, _newton_dual
from .smoothing import solve_dual_1d  # noqa: F401  (perfbench/spans.py wraps this name here)

__all__ = [
    "LossMap",
    "SubdifferentialDescription",
    "subdifferential",
    "smoothed_value_grad",
    "erm_value_grad",
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
    q-weighted sum of the component gradients, linear in ``q``.  A loss
    map's results depend only on its arguments; an implementation may reuse
    work from its latest point (the oracles call ``adjoint_apply`` at the
    point of the preceding ``eval``).  No Jacobian is ever materialized.
    The oracle closures built on a loss map need not be pure: see
    :func:`smoothed_objective`.
    """

    dim: int
    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _finite_losses(loss_map: LossMap, w: np.ndarray) -> np.ndarray | None:
    # a trial step can overflow the losses; the None result is the report
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(loss_map.eval(w), dtype=float)
    return u if np.all(np.isfinite(u)) else None


def _non_finite(w: np.ndarray) -> tuple[float, np.ndarray]:
    # read by ``minimize`` as a failed trial step, not raised
    return math.inf, np.full(w.shape, np.nan)


def _objective(loss_map: LossMap, reg: float,
               value_weights: Callable[[np.ndarray], tuple[float, np.ndarray]]
               ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` of a risk of the losses plus ``reg/(2n) ||w||^2``.

    ``value_weights`` maps the finite loss vector to the risk and to the
    weights whose adjoint image is the risk's gradient.  Exactly one
    ``eval`` and one ``adjoint_apply`` per call; non-finite losses give the
    value ``inf`` and a NaN gradient, without an ``adjoint_apply``.
    """
    if not reg >= 0.0:
        raise ValueError(f"reg must be nonnegative, got {reg}")
    if reg == math.inf:
        raise ValueError(f"reg must be nonnegative and finite, got {reg}")
    n = loss_map.n

    def oracle(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=float)
        u = _finite_losses(loss_map, w)
        if u is None:
            return _non_finite(w)
        value, weights = value_weights(u)
        grad = np.asarray(loss_map.adjoint_apply(w, weights), dtype=float)
        return value + 0.5 * reg / n * float(w @ w), grad + (reg / n) * w

    return oracle


def subdifferential(loss_map: LossMap, w, p: float) -> SubdifferentialDescription:
    """Exact subdifferential of ``w -> S_p(L(w))`` at ``w``.

    Only the gradients of the losses at or above the p-quantile enter; they
    are extracted through ``adjoint_apply`` with indicator weights, never via
    a full Jacobian.
    """
    w = np.asarray(w, dtype=float)
    p = check_tail(p)
    u = _finite_losses(loss_map, w)
    if u is None:
        raise ValueError("loss map returned non-finite values")
    n = u.size
    split = tail_split(u, p)

    q_above = np.zeros(n)
    q_above[split.above] = 1.0 / (n * (1.0 - p))
    fixed = np.asarray(loss_map.adjoint_apply(w, q_above), dtype=float)

    extremes = []
    for i in split.equal:
        basis = np.zeros(n)
        basis[i] = 1.0
        extremes.append(np.asarray(loss_map.adjoint_apply(w, basis), dtype=float))

    hull_weight = split.cdf_gap / (1.0 - p)
    mean_extreme = sum(extremes) / len(extremes)
    selected = fixed + hull_weight * mean_extreme
    return SubdifferentialDescription(fixed_part=fixed, extreme_gradients=extremes,
                                      hull_weight=hull_weight, selected=selected)


def smoothed_value_grad(loss_map: LossMap, w, p: float,
                        spec: SmoothingSpec) -> tuple[float, np.ndarray]:
    """Value and gradient of the smoothed tail-risk objective.

    Exactly one ``eval`` and one ``adjoint_apply`` per call: the smoothed
    weights come from the scalar dual solve on the loss values, and the
    gradient is their adjoint image.  Non-finite losses give the value
    ``inf`` and a NaN gradient, without an ``adjoint_apply``.
    """
    return smoothed_objective(loss_map, p, spec)(w)


def erm_value_grad(loss_map: LossMap, w, reg: float = 0.0) -> tuple[float, np.ndarray]:
    """Mean-loss objective with ridge term ``reg/(2n) ||w||^2``.

    Non-finite losses give the value ``inf`` and a NaN gradient.
    """
    return erm_objective(loss_map, reg)(w)


def smoothed_objective(loss_map: LossMap, p: float, spec: SmoothingSpec,
                       reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized smoothed objective.

    ``p`` is checked here, when the closure is built, as ``reg`` is.  The
    closure carries state: it keeps the last dual solve's threshold,
    measured from the p-quantile of those losses, and starts the next
    solve's Newton iteration there, which saves a quarter to a half of the
    passes over the losses along a solver's path.  A closure fed the same sequence of
    points replays the same values bit for bit, and each call agrees with a
    cold solve (:func:`smoothed_value_grad`) to rounding.  Use one closure
    per fit and per thread.
    """
    p = check_tail(p)
    start = None

    def value_weights(u: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal start
        # _finite_losses has checked u, so the dual solve skips as_sample
        sol, start = _newton_dual(u, spec, p, start)
        return sol.value, sol.weights

    return _objective(loss_map, reg, value_weights)


def erm_objective(loss_map: LossMap, reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized mean loss."""
    return _objective(loss_map, reg, lambda u: (float(u.mean()), np.full(u.size, 1.0 / u.size)))


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
