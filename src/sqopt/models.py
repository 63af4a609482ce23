"""Datasets, prediction functions, losses and group structures.

These assemble the :class:`~sqopt.oracles.LossMap` instances the oracles
consume: per-observation losses for a linear or univariate polynomial model
under the squared or logistic loss, and their per-group averages for
federated / fairness objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_vector, _is_integer
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
    """``values`` as a float array, if every entry is a finite integer such as ``1`` or ``1.0``."""
    values = np.asarray(values, dtype=float)
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

        A position may be an integral float such as ``1.0``; any other float,
        or a NaN or infinite one, raises ``ValueError``.
        """
        idx = np.asarray(indices)
        if idx.dtype != bool:  # positions, an empty list too
            idx = _integral(idx, "row indices").astype(int)
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
        if not _is_integer(self.degree):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.kind == "linear" and self.degree != 1:
            raise ValueError(f"a linear model has degree 1, got {self.degree}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def task(self) -> str:
        """``classification`` under the logistic loss, ``regression`` under the squared loss."""
        return "classification" if self.loss == "logistic" else "regression"


@dataclass(frozen=True)
class GroupStructure:
    """A partition of the rows: each row's group index, the groups 0..m-1 all non-empty.

    An index may be given as an integral float such as ``1.0``; any other
    float, or a NaN or infinite index, raises ``ValueError``.  The structure
    holds no group weights: a group's loss is the plain average over its rows.
    """

    assignment: np.ndarray

    def __post_init__(self):
        indices = _integral(self.assignment, "group indices").reshape(-1)
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


def _loss_dz(z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == "squared":
        return z - y
    # -y times the sigmoid of x = -y z, in a form whose exponents cannot overflow
    x = -y * z
    return -y * np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


# The adjoint reads only the rows of nonzero weight on samples of at least
# this many rows.  Below it the gather's fixed costs outweigh the rows it
# skips: with one BLAS thread at d = 20 the restricted product took 2.4 times
# the dense 2.8 us at n = 276 whatever the support, 1.35-1.6 times at n = 1000
# and 1-10% support, 0.8-1.5 times at n = 2000 and 0.5-0.85 times at n = 4000.
# It keeps the studies' fits of a few hundred rows on the dense product, bit
# for bit.
_SUPPORT_MIN_ROWS = 2000
# Gathered rows per block, as float64 elements: 1 MiB, so that the restricted
# adjoint's peak memory does not grow with the support.
_BLOCK_ELEMENTS = 2**17


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

    The adjoint skips rows of zero weight: on samples of at least 2000 rows
    whose weights are zero on enough rows, it gathers the others in blocks
    of 1 MiB and sums their products, instead of the dense ``phi.T @ r``.
    The two sum in a different order, so they agree to rounding, not bit for
    bit.
    """
    phi = design_matrix(dataset, model)
    y = dataset.targets
    if model.loss == "logistic" and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("logistic loss expects targets in {-1, +1}")
    loss = model.loss
    n, d = phi.shape
    block = max(1, _BLOCK_ELEMENTS // max(d, 1))
    latest = None  # (w.tobytes(), phi @ w), replaced as one tuple

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

    def adjoint(w: np.ndarray, q: np.ndarray) -> np.ndarray:
        q = _as_vector(q, n)
        z = predictions(w)
        if n >= _SUPPORT_MIN_ROWS:
            carried = q != 0
            count = np.count_nonzero(carried)
            if _support_pays(count, n, d):
                rows = np.flatnonzero(carried)
                r = q[rows] * _loss_dz(z[rows], y[rows], loss)
                grad = phi.take(rows[:block], axis=0).T @ r[:block]
                for start in range(block, count, block):
                    grad += phi.take(rows[start:start + block], axis=0).T @ r[start:start + block]
                return grad
        return phi.T @ (q * _loss_dz(z, y, loss))

    return LossMap(dim=d, n=n, eval=eval_losses, adjoint_apply=adjoint)


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
