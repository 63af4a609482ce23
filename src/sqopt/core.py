"""Exact quantiles and superquantiles of discrete equiprobable samples.

A sample is a vector ``u`` of ``n`` equally likely loss values.  The module
is its p-quantile (:func:`quantile`) and three equivalent routes to its
p-superquantile (conditional value-at-risk at level ``p``), the average of the
quantiles above level ``p``:

* ``superquantile_integral`` -- integrate the empirical quantile function over
  the tail ``[p, 1]`` (the fast path, uses an O(n) order statistic),
* ``superquantile_dual`` -- maximize ``q @ u`` over the capped simplex, solved
  greedily as a fractional knapsack,
* ``superquantile_variational`` -- evaluate the exact-penalty form
  ``eta + sum(max(u - eta, 0)) / (n (1 - p))`` at ``eta`` equal to the
  p-quantile.

The split of a sample at its p-quantile (the values above it and the CDF gap
that weights the tied ones) is private: ``superquantile_integral`` and the
exact oracle ``sqopt.oracles.subdifferential`` share it.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonFiniteSample",
    "as_sample",
    "check_tail",
    "tail_cap",
    "quantile",
    "superquantile",
    "superquantile_integral",
    "superquantile_dual",
    "superquantile_variational",
]


class NonFiniteSample(ValueError):
    """A sample holds an infinite or NaN value; raised by :func:`as_sample` only."""


def as_sample(values) -> np.ndarray:
    """Validate and convert ``values`` to a 1-d float array of finite losses.

    An inf or NaN value raises :class:`NonFiniteSample`, any other defect ``ValueError``.
    """
    u = np.atleast_1d(np.asarray(values, dtype=float))
    if u.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {u.shape}")
    if u.size == 0:
        raise ValueError("empty sample")
    if not np.isfinite(u).all():
        raise NonFiniteSample("sample values must be finite")
    return u


def check_tail(p: float) -> float:
    """Validate a tail probability; p = 1 is rejected (the cap is undefined)."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"tail probability p must be in [0, 1), got {p}")
    return p


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_vector(values, size: int, name: str = "weights") -> np.ndarray:
    """``values`` as a float array of shape ``(size,)``; any other shape raises ``ValueError``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {values.shape}")
    return values


def tail_cap(n: int, p: float) -> float:
    """Per-coordinate bound 1/(n(1-p)) of the capped simplex."""
    return 1.0 / (n * (1.0 - p))


def quantile(values, p: float) -> float:
    """Smallest sample value whose empirical CDF weight reaches ``p``.

    Left-continuous inverse of the empirical CDF, i.e. the k-th order
    statistic with ``k = ceil(n p)`` (at least 1).  Selected by
    quickselect-style partitioning, not a full sort.
    """
    return _quantile(as_sample(values), check_tail(p))


def _rank(n: int, p: float) -> int:
    """The rank ``k = ceil(n p)``, at least 1, of the p-quantile among ``n`` values."""
    k = max(math.ceil(n * p), 1)
    # fix the off-by-one that floating-point rounding of n*p can introduce,
    # so that (k-1)/n < p <= k/n holds in float arithmetic
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    while k < n and k / n < p:
        k += 1
    return k


def _quantile(u: np.ndarray, p: float, omitted: int = 0) -> float:
    """:func:`quantile` of a checked sample at a checked tail probability.

    With ``omitted > 0``, ``u`` is what is left of a sample of ``u.size +
    omitted`` values after dropping ``omitted`` values below its p-quantile,
    which is then the ``(k - omitted)``-th order statistic of ``u``; a ``k``
    that leaves no rank in ``u`` raises ``ValueError``.
    """
    k = _rank(u.size + omitted, p) - omitted
    if k < 1:
        raise ValueError(f"{omitted} omitted values reach the p-quantile, rank {k + omitted}")
    return float(np.partition(u, k - 1)[k - 1])


def _tail(u: np.ndarray, p: float) -> tuple[float, np.ndarray, float]:
    """Split a checked sample at its p-quantile ``q``; ties are compared exactly, bit-wise.

    Returns ``q``, the mask of the values strictly above it, and the CDF gap:
    the probability mass between ``p`` and the empirical CDF at ``q``.  The
    gap weights the values tied with ``q`` in the tail average and is zero
    whenever ``p`` falls exactly on a CDF step.
    """
    q = _quantile(u, p)
    above = u > q
    return q, above, (u.size - int(np.count_nonzero(above))) / u.size - p


def superquantile_integral(values, p: float) -> float:
    """Integral-form superquantile: average of the quantiles above level p."""
    u = as_sample(values)
    p = check_tail(p)
    q, above, gap = _tail(u, p)
    tail_sum = float(u[above].sum()) / (u.size * (1.0 - p))
    return float(tail_sum + gap / (1.0 - p) * q)


superquantile = superquantile_integral


def superquantile_dual(values, p: float) -> tuple[float, np.ndarray]:
    """Dual-form superquantile: max of ``q @ u`` over the capped simplex.

    The maximizer is built by the fractional-knapsack greedy rule: walk the
    values in descending order (ties broken by ascending original index),
    hand each one the cap until less than a cap of probability budget is
    left, hand the remainder to the next value, zeros afterwards.

    Returns ``(value, q)`` with ``value == q @ u`` in the same arithmetic.
    """
    u = as_sample(values)
    p = check_tail(p)
    n = u.size
    cap = tail_cap(n, p)
    order = np.argsort(-u, kind="stable")
    budget_left = 1.0 - np.arange(n) * cap
    q = np.empty(n)
    q[order] = np.clip(budget_left, 0.0, cap)
    return float(q @ u), q


def superquantile_variational(values, p: float) -> tuple[float, float]:
    """Exact-penalty superquantile; the minimizing shift is the p-quantile.

    Returns ``(value, eta)`` where ``eta`` is the left end-point of the set
    of minimizers of ``eta + sum(max(u - eta, 0)) / (n (1 - p))``.
    """
    u = as_sample(values)
    p = check_tail(p)
    n = u.size
    eta = _quantile(u, p)
    value = eta + float(np.maximum(u - eta, 0.0).sum()) / (n * (1.0 - p))
    return float(value), eta
