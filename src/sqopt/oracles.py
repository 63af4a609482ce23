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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import check_tail, tail_split
from .smoothing import SmoothingSpec, solve_dual_1d

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
    q-weighted sum of the component gradients.  Implementations must be pure
    and linear in ``q`` so they can be shared across threads; no Jacobian is
    ever materialized.
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
    extreme_gradients: list[np.ndarray] = field(default_factory=list)
    hull_weight: float = 0.0
    selected: np.ndarray = None

    @property
    def is_singleton(self) -> bool:
        return len(self.extreme_gradients) <= 1

    def element(self, coefficients) -> np.ndarray:
        """Subgradient for an arbitrary convex combination of the extremes."""
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.shape != (len(self.extreme_gradients),):
            raise ValueError("one coefficient per extreme gradient expected")
        if np.any(coeffs < 0) or not np.isclose(coeffs.sum(), 1.0):
            raise ValueError("coefficients must be a convex combination")
        mix = sum(c * g for c, g in zip(coeffs, self.extreme_gradients))
        return self.fixed_part + self.hull_weight * mix


def _finite_losses(loss_map: LossMap, w: np.ndarray) -> np.ndarray | None:
    # a trial step can overflow the losses; the None result is the report
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(loss_map.eval(w), dtype=float)
    return u if np.all(np.isfinite(u)) else None


def _non_finite(w: np.ndarray) -> tuple[float, np.ndarray]:
    # read by ``minimize`` as a failed trial step, not raised
    return math.inf, np.full(w.shape, np.nan)


def _ridge(w: np.ndarray, n: int, reg: float) -> tuple[float, np.ndarray]:
    """Ridge term ``reg/(2n) ||w||^2`` and its gradient."""
    if not reg >= 0.0:
        raise ValueError(f"reg must be nonnegative, got {reg}")
    return 0.5 * reg / n * float(w @ w), (reg / n) * w


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
    w = np.asarray(w, dtype=float)
    u = _finite_losses(loss_map, w)
    if u is None:
        return _non_finite(w)
    sol = solve_dual_1d(u, spec, p)
    grad = np.asarray(loss_map.adjoint_apply(w, sol.weights), dtype=float)
    return sol.value, grad


def erm_value_grad(loss_map: LossMap, w, reg: float = 0.0) -> tuple[float, np.ndarray]:
    """Mean-loss objective with ridge term ``reg/(2n) ||w||^2``.

    Non-finite losses give the value ``inf`` and a NaN gradient.
    """
    w = np.asarray(w, dtype=float)
    ridge_value, ridge_grad = _ridge(w, loss_map.n, reg)
    u = _finite_losses(loss_map, w)
    if u is None:
        return _non_finite(w)
    n = u.size
    grad = np.asarray(loss_map.adjoint_apply(w, np.full(n, 1.0 / n)), dtype=float)
    return float(u.mean()) + ridge_value, grad + ridge_grad


def smoothed_objective(loss_map: LossMap, p: float, spec: SmoothingSpec,
                       reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized smoothed objective."""

    def oracle(w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=float)
        value, grad = smoothed_value_grad(loss_map, w, p, spec)
        ridge_value, ridge_grad = _ridge(w, loss_map.n, reg)
        return value + ridge_value, grad + ridge_grad

    return oracle


def erm_objective(loss_map: LossMap, reg: float = 0.0) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Closure ``w -> (value, grad)`` for the ridge-regularized mean loss."""

    def oracle(w: np.ndarray) -> tuple[float, np.ndarray]:
        return erm_value_grad(loss_map, w, reg)

    return oracle


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
