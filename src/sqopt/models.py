"""Datasets, prediction functions, losses and group structures.

These assemble the :class:`~sqopt.oracles.LossMap` instances the oracles
consume: per-observation losses for a linear or univariate polynomial model
under the squared or logistic loss, and their per-group averages for
federated / fairness objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import _ROW_GATE, _as_vector, _check_integer, _is_integer
from .oracles import LossMap

__all__ = [
    "LOSSES",
    "Dataset",
    "ModelSpec",
    "GroupStructure",
    "design_matrix",
    "predict",
    "pointwise_loss_map",
    "grouped_loss_map",
    "conformity",
]

# the losses of ModelSpec, and the choices of the command line's --loss
LOSSES = ("squared", "logistic")


def _integral(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float array, if every entry is a finite integer such as ``1`` or ``1.0``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
    if not (np.isfinite(values) & (np.trunc(values) == values)).all():
        raise ValueError(f"{name} must be finite integers")
    return values


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets (real for regression, -1/+1 for classification)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.targets, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"row count mismatch: {x.shape[0]} feature rows, {y.shape[0]} targets")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        """Rows at integer positions or where a boolean mask is true.

        Positions form a 1-D array; a position may be an integral float such
        as ``1.0``.  Any other float, a NaN or infinite one, one outside
        ``[0, n_rows)``, positions of any other shape (a scalar too) and a
        mask of other than ``n_rows`` entries raise ``ValueError``.
        """
        idx = np.asarray(indices)
        if idx.dtype == bool:
            if idx.shape != (self.n_rows,):
                raise ValueError(f"row mask must have shape ({self.n_rows},), got {idx.shape}")
        else:  # positions, an empty list too
            idx = _integral(idx, "row indices")
            if idx.size and not (idx.min() >= 0 and idx.max() < self.n_rows):
                raise ValueError(f"row indices must lie in [0, {self.n_rows})")
            idx = idx.astype(int)
        return Dataset(self.features[idx], self.targets[idx])


@dataclass(frozen=True)
class ModelSpec:
    """Prediction function and loss: linear or univariate polynomial of given degree.

    The degree is an integer >= 1 (a bool is not one), and a linear model's
    degree is 1.
    """

    kind: str = "linear"
    degree: int = 1
    loss: str = "squared"

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "linear" and _is_integer(self.degree) and self.degree != 1:
            raise ValueError(f"a linear model has degree 1, got {self.degree}")
        _check_integer(self.degree, "degree", 1)
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def task(self) -> str:
        """``classification`` under the logistic loss, ``regression`` under the squared loss."""
        return "classification" if self.loss == "logistic" else "regression"


@dataclass(frozen=True)
class GroupStructure:
    """A partition of the rows: each row's group index, the groups 0..m-1 all non-empty.

    The indices form a 1-D array, one per row; an index may be given as an
    integral float such as ``1.0``.  Any other float, a NaN or infinite
    index, or indices of any other shape raise ``ValueError``.  The structure
    holds no group weights: a group's loss is the plain average over its rows.
    """

    assignment: np.ndarray

    def __post_init__(self):
        indices = _integral(self.assignment, "group indices")
        if indices.size == 0:
            raise ValueError("empty group assignment")
        if indices.min() < 0:
            raise ValueError("group indices must be nonnegative")
        # m groups need m rows: checked before the counts, which take max + 1 entries
        if indices.max() >= indices.size:
            raise ValueError("every group must be non-empty")
        a = indices.astype(int)
        if np.any(np.bincount(a) == 0):
            raise ValueError("every group must be non-empty")
        object.__setattr__(self, "assignment", a)

    @property
    def n_groups(self) -> int:
        return int(self.assignment.max()) + 1


def design_matrix(dataset: Dataset, model: ModelSpec) -> np.ndarray:
    """Features as seen by the linear predictor.

    Linear models use the feature matrix as-is; polynomial models require a
    single scalar feature and expand it to ``[1, x, ..., x^degree]``.
    """
    x = dataset.features
    if model.kind == "linear":
        return x
    if x.shape[1] != 1:
        raise ValueError("polynomial models expect a single scalar feature column")
    return np.vander(x[:, 0], model.degree + 1, increasing=True)


def predict(dataset: Dataset, model: ModelSpec, w) -> np.ndarray:
    phi = design_matrix(dataset, model)
    return phi @ _as_vector(w, phi.shape[1], "model weights")


def _loss_values(z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == "squared":
        # 0.5 * (y - z) ** 2 bit for bit, in one temporary instead of three
        out = np.subtract(y, z)
        np.square(out, out=out)
        out *= 0.5
        return out
    # log(1 + exp(-y z)) evaluated without overflow
    return np.logaddexp(0.0, -y * z)


def _residuals(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row residuals ``|y - z|``, the scores of the screen: the squared loss is ``s^2 / 2``."""
    out = np.subtract(y, z)
    np.abs(out, out=out)
    return out


def _loss_dz(z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == "squared":
        return z - y
    # -y times the sigmoid of x = -y z, in a form whose exponents cannot overflow
    x = -y * z
    return -y * np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


# Gathered rows per block, as float64 elements: 1 MiB, so that the restricted
# adjoint's peak memory does not grow with the support.
_BLOCK_ELEMENTS = 2**17
# The copy of pointwise_loss_map's screen holds the rows that can reach the
# tail at the reference plus this share of all rows.  On the tall fits
# (n = 40000, seed 1) the median round took 0.250 s at 0, where most calls
# made a full pass (29-57 per fit), 0.178 s at 0.005, 0.170 s at 0.01 (7-11
# full passes per fit) and 0.173 s at 0.015; larger shares cut few full
# passes more (5-8 at 0.08) and made every other call dearer.
_SCREEN_MARGIN = 0.01
# No reference whose copy would hold more than this share of the rows: the
# break-even.  Squared-loss euclidean fits at 40000 x 20 (perfbench's tall
# data, nu = 1, one BLAS thread, 7 alternating runs, seeds 1, 3 and 5), with
# copies of a fixed share 1 - p + 0.01, took against the same fits without
# the screen: 0.86-0.94 of the time at 51%, 1.05 at 56%, 0.97 at 59%,
# 0.93-1.13 at 61%, 1.08-1.11 at 71%, 1.25 at 81% and 1.29 at 91%.
_SCREEN_MAX_SHARE = 0.6


def _support_pays(count: int, n: int, d: int) -> bool:
    """Whether the adjoint over ``count`` of ``n`` rows of width ``d`` should gather them.

    The restricted product copies each weighted row into a block and reads it
    again, at a cost per row worth about 16 more columns, so its break-even
    share of rows grows with the width.  Against the dense product on 8 MB
    matrices with one BLAS thread (2-core x86 host) it broke even at a share
    of 0.19-0.28 for d = 5-40, 0.29-0.34 for d = 60-120 and 0.39-0.41 for
    d = 250-500; the rule ``share <= 0.4 d / (d + 16)`` stays at or below
    those, with 0.22 at d = 20 and 0.38 at d = 250.
    """
    return 5 * count * (d + 16) <= 2 * n * d


def pointwise_loss_map(dataset: Dataset, model: ModelSpec) -> LossMap:
    """One loss component per observation.

    ``adjoint_apply(w, q)`` takes one weight per observation, a ``q`` of
    shape ``(n,)``; any other shape raises ``ValueError``.

    The map keeps the predictions ``phi @ w`` of the latest point it saw,
    keyed on the exact bytes of ``w``, so an ``adjoint_apply`` at the point
    of the preceding ``eval`` makes one n x d pass plus the weighted rows.  A
    different point, or the same array changed in place, is recomputed.

    From the row gate ``core._ROW_GATE`` (2000 rows) on, where the dual
    solve's candidate filter also runs, the map leaves rows out in two ways,
    and below it in neither.  First, the adjoint skips rows of zero weight:
    where the weights are zero on enough rows, it gathers the others in
    blocks of 1 MiB and sums their products, instead of the dense ``phi.T @
    r``.  The two sum in a different order, so they agree to rounding, not
    bit for bit.

    Second, a squared-loss map has a ``screen`` (see :class:`LossMap`).  A
    row's loss ``s^2 / 2`` increases with its residual ``s = |y - z|``, and a
    residual moves by at most ``M |w - w_ref|`` from a reference point
    ``w_ref``, where ``M`` is the largest row norm, computed once per map.
    Each closure ``screen(k, gap)`` owns its reference.  At a full pass it
    keeps, in their original order, a contiguous copy of the rows that can
    reach the tail there, plus 1% of the rows more: about ``(1 - p + 0.01) n
    d`` floats, plus the rows within the gap below the quantile, and no copy
    where that is more than 60% of the rows.  Each later call tests in O(d)
    that no other row can reach the tail from ``w_ref`` and predicts only
    the copy; where the test fails it makes a full pass and takes a new
    reference.  A product over the copy sums each row as the full product
    does, but its bits can differ in the last place with the row's position,
    so a screened oracle agrees with one over ``eval`` and ``adjoint_apply``
    to rounding.

    A logistic map has no screen and makes the full passes: its fits are
    short (5-15 iterations), and over 64 of them (n 4000 and 20000, d 5 and
    20, p 0.9 and 0.99, euclidean and KL) a screen served 14 of their 1132
    oracle calls, 3-4 in each of four euclidean fits at p = 0.9.
    """
    phi = design_matrix(dataset, model)
    y = dataset.targets
    if model.loss == "logistic" and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("logistic loss expects targets in {-1, +1}")
    loss = model.loss
    n, d = phi.shape
    block = max(1, _BLOCK_ELEMENTS // max(d, 1))
    latest = None  # (w.tobytes(), phi @ w), replaced as one tuple
    row_norm = None  # M, computed on the first screen
    # bounds the rounding of a prediction phi_i @ w, relative to |phi_i| |w|
    rounding = 4.0 * (d + 2) * np.finfo(float).eps

    def predictions(w) -> np.ndarray:
        nonlocal latest
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        cached = latest  # read once: key and predictions of the same point
        if cached is not None and cached[0] == key:
            return cached[1]
        z = phi @ w
        latest = (key, z)
        return z

    def eval_losses(w: np.ndarray) -> np.ndarray:
        return _loss_values(predictions(w), y, loss)

    def dense_adjoint(x: np.ndarray, t: np.ndarray, z: np.ndarray, q: np.ndarray) -> np.ndarray:
        # x.T @ r over rows x of phi, their targets t and predictions z; the
        # screen's copies take it too: 25-80% of their rows carry weight on
        # tall, and in cache the gather pays only below about 10% (at 6100 x
        # 20, 33.5 us dense against 30.8 us gathered at 10%, 24 us against
        # 83 us at 5200 x 20 and 77%)
        return x.T @ (q * _loss_dz(z, t, loss))

    def adjoint(w: np.ndarray, q: np.ndarray) -> np.ndarray:
        q = _as_vector(q, n)
        z = predictions(w)
        if n >= _ROW_GATE:
            carried = q != 0
            count = np.count_nonzero(carried)
            if _support_pays(count, n, d):
                rows = np.flatnonzero(carried)
                r = q[rows] * _loss_dz(z[rows], y[rows], loss)
                grad = phi.take(rows[:block], axis=0).T @ r[:block]
                for start in range(block, count, block):
                    grad += phi.take(rows[start:start + block], axis=0).T @ r[start:start + block]
                return grad
        return dense_adjoint(phi, y, z, q)

    def holds(tau: float, s_k: float, reach: float, gap: float) -> bool:
        # the screen's test, for the squared loss only: every row of residual
        # at most tau + reach has a loss at least gap below the k-th
        # smallest, which is at least the loss of s_k - reach, or 0; the
        # relative margins cover the rounding of the losses; false for NaN
        high = tau + reach
        return 0.5 * high * high * (1.0 + 1e-12) <= 0.5 * max(s_k - reach, 0.0) ** 2 * (1.0 - 1e-12) - gap

    def screen(k: int, gap: float):
        nonlocal row_norm
        # (w_ref, |w_ref|, k-th residual s_k, largest omitted residual tau,
        # kept rows of phi, their targets), replaced as one tuple
        reference = None
        margin = math.ceil(_SCREEN_MARGIN * n)
        # the rows from the k-th up alone fill more than the copy may hold
        if n - k + 1 + margin > _SCREEN_MAX_SHARE * n:
            return lambda w: (eval_losses(w), partial(adjoint, w))
        if row_norm is None:
            row_norm = math.sqrt(float(np.einsum("ij,ij->i", phi, phi).max()))

        def screened(w: np.ndarray):
            nonlocal reference
            w_norm = math.sqrt(float(w @ w))
            if reference is not None:
                w_ref, ref_norm, s_k, tau, x, t = reference
                step = w - w_ref
                reach = row_norm * (math.sqrt(float(step @ step)) + rounding * (w_norm + ref_norm))
                if holds(tau, s_k, reach * (1.0 + 1e-9), gap):
                    z = x @ w
                    return _loss_values(z, t, loss), partial(dense_adjoint, x, t, z)
            z = predictions(w)
            residuals = _residuals(z, y)
            # no reference from overflowed losses
            top = float(residuals.max())
            if math.isfinite(0.5 * top * top):
                # the k-th smallest residual and the k - 1 below it
                part = np.partition(residuals, k - 1)
                s_k, below = float(part[k - 1]), part[:k - 1]
                # rows above the residual whose loss is gap below the k-th can reach the tail; all do if that is < 0
                low = 0.5 * s_k * s_k - gap
                free = below.size - int(np.count_nonzero(below > (math.sqrt(2.0 * low) if low >= 0.0 else -math.inf)))
                # the rows that cannot reach the tail less the margin, none if the copy would hold too many
                omitted = free - margin
                if omitted > 0 and n - omitted <= _SCREEN_MAX_SHARE * n:
                    tau = float(np.partition(below, omitted - 1)[omitted - 1])
                    if holds(tau, s_k, row_norm * rounding * 2.0 * w_norm, gap):
                        rows = np.flatnonzero(residuals > tau)
                        # take copies the rows in 0.6 of the time of phi[rows]
                        x, t, z = phi.take(rows, axis=0), y[rows], z[rows]
                        reference = (w.copy(), w_norm, s_k, tau, x, t)
                        return _loss_values(z, t, loss), partial(dense_adjoint, x, t, z)
            return _loss_values(z, y, loss), partial(adjoint, w)

        return screened

    return LossMap(dim=d, n=n, eval=eval_losses, adjoint_apply=adjoint,
                   screen=screen if n >= _ROW_GATE and loss == "squared" else None)


def grouped_loss_map(dataset: Dataset, model: ModelSpec, groups: GroupStructure) -> LossMap:
    """One loss component per group: the plain average over the group's rows.

    ``adjoint_apply(w, q)`` takes one weight per group, a ``q`` of shape
    ``(m,)``; any other shape raises ``ValueError``.

    Minimizing the tail risk of this map at level ``p = 1 - c`` protects
    every test mixture of the group distributions whose conformity, against
    the uniform mixture, is at least ``c``.
    """
    if groups.assignment.shape[0] != dataset.n_rows:
        raise ValueError("group assignment length must match the dataset")
    base = pointwise_loss_map(dataset, model)
    assign = groups.assignment
    m = groups.n_groups
    counts = np.bincount(assign, minlength=m).astype(float)

    def eval_losses(w: np.ndarray) -> np.ndarray:
        return np.bincount(assign, weights=base.eval(w), minlength=m) / counts

    def adjoint(w: np.ndarray, q: np.ndarray) -> np.ndarray:
        return base.adjoint_apply(w, (_as_vector(q, m) / counts)[assign])

    return LossMap(dim=base.dim, n=m, eval=eval_losses, adjoint_apply=adjoint)


def conformity(pi, alpha) -> float:
    """How well a test mixture ``pi`` conforms to the training mixture ``alpha``.

    ``min(alpha_i / pi_i)`` over the support of ``pi``, capped at 1.  A group
    that ``pi`` weights but ``alpha`` does not drives the level to 0.
    """
    pi_arr = np.asarray(pi, dtype=float).reshape(-1)
    alpha_arr = np.asarray(alpha, dtype=float).reshape(-1)
    if pi_arr.shape != alpha_arr.shape:
        raise ValueError("pi and alpha must have the same length")
    for name, v in (("pi", pi_arr), ("alpha", alpha_arr)):
        # written so that a NaN or infinite entry fails it too
        if not (np.all(v >= 0) and abs(v.sum() - 1.0) <= 1e-9):
            raise ValueError(f"{name} must be a finite probability vector")
    support = pi_arr > 0
    ratios = alpha_arr[support] / pi_arr[support]
    return float(min(ratios.min(), 1.0))
