"""Datasets, prediction functions, losses and group structures.

These assemble the :class:`~sqopt.oracles.LossMap` instances the oracles
consume: per-observation losses for a linear or univariate polynomial model
under the squared or logistic loss, and their per-group averages for
federated / fairness objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .oracles import LossMap

__all__ = [
    "Dataset",
    "ModelSpec",
    "GroupStructure",
    "design_matrix",
    "predict",
    "pointwise_loss_map",
    "grouped_loss_map",
    "conformity",
    "group_metrics",
]


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
        """Rows at integer positions or where a boolean mask is true."""
        idx = np.asarray(indices)
        if idx.dtype != bool:  # positions, an empty list too
            idx = idx.astype(int, copy=False)
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
        if isinstance(self.degree, bool) or not isinstance(self.degree, (int, np.integer)):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.kind == "linear" and self.degree != 1:
            raise ValueError(f"a linear model has degree 1, got {self.degree}")
        if self.loss not in ("squared", "logistic"):
            raise ValueError(f"unknown loss {self.loss!r}")

    @property
    def task(self) -> str:
        """``classification`` under the logistic loss, ``regression`` under the squared loss."""
        return "classification" if self.loss == "logistic" else "regression"


@dataclass(frozen=True)
class GroupStructure:
    """Per-row group assignment (0..m-1) with weights summing to one."""

    assignment: np.ndarray
    alpha: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int).reshape(-1)
        if a.size == 0:
            raise ValueError("empty group assignment")
        if a.min() < 0:
            raise ValueError("group indices must be nonnegative")
        m = int(a.max()) + 1
        counts = np.bincount(a, minlength=m)
        if np.any(counts == 0):
            raise ValueError("every group must be non-empty")
        if self.alpha is None:
            alpha = np.full(m, 1.0 / m)
        else:
            alpha = np.asarray(self.alpha, dtype=float).reshape(-1)
            if alpha.shape != (m,):
                raise ValueError(f"alpha must have one entry per group ({m})")
            if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-9:
                raise ValueError("alpha must be nonnegative and sum to one")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_groups(self) -> int:
        return self.alpha.shape[0]


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
    w = np.asarray(w, dtype=float)
    if w.shape != (phi.shape[1],):
        raise ValueError(f"expected weight vector of length {phi.shape[1]}, got shape {w.shape}")
    return phi @ w


def _loss_values(z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == "squared":
        return 0.5 * (y - z) ** 2
    # log(1 + exp(-y z)) evaluated without overflow
    return np.logaddexp(0.0, -y * z)


def _loss_dz(z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == "squared":
        return z - y
    return -y * expit(-y * z)


def pointwise_loss_map(dataset: Dataset, model: ModelSpec) -> LossMap:
    """One loss component per observation.

    The map keeps the predictions ``phi @ w`` of the latest point it saw,
    keyed on the exact bytes of ``w``, so an ``adjoint_apply`` at the point
    of the preceding ``eval`` makes one n x d pass instead of two.  A
    different point, or the same array changed in place, is recomputed.
    """
    phi = design_matrix(dataset, model)
    y = dataset.targets
    if model.loss == "logistic" and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("logistic loss expects targets in {-1, +1}")
    loss = model.loss
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
        z = predictions(w)
        return phi.T @ (np.asarray(q, dtype=float) * _loss_dz(z, y, loss))

    return LossMap(dim=phi.shape[1], n=phi.shape[0], eval=eval_losses, adjoint_apply=adjoint)


def grouped_loss_map(dataset: Dataset, model: ModelSpec, groups: GroupStructure) -> LossMap:
    """One loss component per group: the plain average over the group's rows.

    Only uniform group weights are supported; a structure with any other
    ``alpha`` is rejected.  Minimizing the tail risk of this map at level
    ``p = 1 - c`` protects every test mixture of the group distributions
    whose conformity is at least ``c``.
    """
    if groups.assignment.shape[0] != dataset.n_rows:
        raise ValueError("group assignment length must match the dataset")
    if np.ptp(groups.alpha) > 1e-12:
        raise ValueError("grouped_loss_map supports uniform group weights alpha only")
    base = pointwise_loss_map(dataset, model)
    assign = groups.assignment
    m = groups.n_groups
    counts = np.bincount(assign, minlength=m).astype(float)

    def eval_losses(w: np.ndarray) -> np.ndarray:
        return np.bincount(assign, weights=base.eval(w), minlength=m) / counts

    def adjoint(w: np.ndarray, q: np.ndarray) -> np.ndarray:
        row_weights = (np.asarray(q, dtype=float) / counts)[assign]
        return base.adjoint_apply(w, row_weights)

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
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a probability vector")
    support = pi_arr > 0
    ratios = alpha_arr[support] / pi_arr[support]
    return float(min(ratios.min(), 1.0))


def group_metrics(dataset: Dataset, model: ModelSpec, groups: GroupStructure, w) -> np.ndarray:
    """Mean loss of model ``w`` on each group (regularization excluded; ``alpha`` is not read)."""
    uniform = GroupStructure(groups.assignment)
    return grouped_loss_map(dataset, model, uniform).eval(np.asarray(w, dtype=float))
