"""Synthetic data generators, CSV ingestion, splits and distribution shifts.

All randomness flows through explicit seeds feeding ``numpy``'s default
generator (PCG64), so every artifact is reproducible bit-for-bit on a given
platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import _is_integer
from .models import Dataset, GroupStructure

__all__ = [
    "SyntheticSpec",
    "generate_quadratic",
    "split_indices",
    "load_csv",
    "downsample_majority",
]

# sampling interval for the scalar feature of the quadratic toy generator
X_LOW, X_HIGH = -1.0, 3.0

N_CONFORMING_DEVICES = 4


def _check_seed(seed) -> None:
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _check_coefficients(values, name: str) -> None:
    if not (np.shape(values) == (3,) and np.isfinite(np.asarray(values, dtype=float)).all()):
        raise ValueError(f"{name} must be three finite numbers, got {values!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Quadratic-trend regression sample ``y = w0 + w1 x + w2 x^2 + noise``.

    ``mixture`` optionally routes a fraction of the rows through an alternate
    coefficient vector, modelling a non-conforming subpopulation.  Each
    coefficient vector is three finite numbers, and the seed an integer >= 0.
    """

    n: int
    w_bar: tuple[float, float, float]
    sigma: float = 1.0
    mixture: tuple[float, tuple[float, float, float]] | None = None
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        # written so that a NaN fails it too
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma!r}")
        _check_coefficients(self.w_bar, "w_bar")
        _check_seed(self.seed)
        if self.mixture is not None:
            fraction, alt_w = self.mixture
            if not 0.0 < fraction < 1.0:
                raise ValueError("mixture fraction must be in (0, 1)")
            _check_coefficients(alt_w, "mixture coefficients")


def _quadratic(coeffs, x: np.ndarray) -> np.ndarray:
    w0, w1, w2 = coeffs
    return w0 + w1 * x + w2 * x**2


def generate_quadratic(spec: SyntheticSpec) -> tuple[Dataset, GroupStructure | None]:
    """Draw the quadratic toy sample; x is uniform on [-1, 3].

    With a mixture, the last ``round(fraction * n)`` rows follow the
    alternate coefficients and the returned group structure assigns the
    conforming rows round-robin to four devices and the alternate rows to a
    fifth one.
    """
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(X_LOW, X_HIGH, spec.n)
    noise = rng.normal(0.0, spec.sigma, spec.n) if spec.sigma > 0 else np.zeros(spec.n)
    y = _quadratic(spec.w_bar, x) + noise

    groups = None
    if spec.mixture is not None:
        fraction, alt_w = spec.mixture
        n_alt = int(round(fraction * spec.n))
        n_alt = min(max(n_alt, 1), spec.n - 1)
        alt = np.arange(spec.n) >= spec.n - n_alt
        y[alt] = _quadratic(alt_w, x[alt]) + noise[alt]
        assignment = np.where(alt, N_CONFORMING_DEVICES,
                              np.arange(spec.n) % N_CONFORMING_DEVICES)
        groups = GroupStructure(assignment)
    return Dataset(x[:, None], y), groups


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train/test row indices (sorted), together covering all rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if not _is_integer(n) or n < 2:
        raise ValueError(f"need at least two rows to split: n must be an integer >= 2, got {n!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value


def load_csv(path, task: str = "regression") -> Dataset:
    """Load a comma-delimited UTF-8 file with one header row.

    The label lives in the last column.  A feature column of numbers is taken
    as-is, one with no number is one-hot encoded in place with levels in
    lexicographic order, and a mix (an empty cell is text) is rejected.
    Classification labels map to -1/+1 in lexicographic order of the two.
    """
    if task not in ("regression", "classification"):
        raise ValueError(f"unknown task {task!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [[cell.strip() for cell in row] for row in csv.reader(handle) if row]
    if len(rows) < 2:
        raise ValueError("need a header row and at least one data row")
    header, body = rows[0], rows[1:]
    width = len(header)
    if width < 2:
        raise ValueError("need at least one feature column and a label column")
    for k, row in enumerate(body):
        if len(row) != width:
            raise ValueError(f"ragged row {k + 2}: expected {width} cells, got {len(row)}")

    columns = [[row[j] for row in body] for j in range(width)]
    feature_blocks: list[np.ndarray] = []
    for name, col in zip(header, columns[:-1]):
        parsed = [_parse_float(cell) for cell in col]
        text = [i for i, v in enumerate(parsed) if v is None]
        if not text:
            feature_blocks.append(np.asarray(parsed, dtype=float)[:, None])
        elif len(text) < len(col):
            raise ValueError(f"column {name!r} mixes numbers with text: row {text[0] + 2} holds {col[text[0]]!r}")
        else:
            levels = sorted(set(col))
            block = np.zeros((len(col), len(levels)))
            index = {level: j for j, level in enumerate(levels)}
            for i, cell in enumerate(col):
                block[i, index[cell]] = 1.0
            feature_blocks.append(block)
    features = np.hstack(feature_blocks)

    labels = columns[-1]
    if task == "regression":
        parsed = [_parse_float(cell) for cell in labels]
        bad = next((i for i, v in enumerate(parsed) if v is None), None)
        if bad is not None:
            raise ValueError(f"unparseable numeric label {labels[bad]!r} in row {bad + 2}")
        targets = np.asarray(parsed, dtype=float)
    else:
        classes = sorted(set(labels))
        if len(classes) != 2:
            raise ValueError(f"classification needs exactly 2 classes, got {len(classes)}")
        mapping = {classes[0]: -1.0, classes[1]: 1.0}
        targets = np.asarray([mapping[cell] for cell in labels])
    return Dataset(features, targets)


def downsample_majority(dataset: Dataset, ratio: float = 0.10, seed: int = 0) -> Dataset:
    """Shift a binary dataset by shrinking its majority class.

    Every minority row is kept, plus a uniformly sampled subset of
    ``ceil(ratio * n_minority)`` majority rows (all of them when already that
    few).  With balanced classes the +1 label counts as the majority.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    _check_seed(seed)
    y = dataset.targets
    labels = np.unique(y)
    if labels.size != 2:
        raise ValueError(f"need exactly two classes, got {labels.size}")
    count0 = int((y == labels[0]).sum())
    count1 = int((y == labels[1]).sum())
    majority_label = labels[1] if count1 >= count0 else labels[0]
    majority = np.flatnonzero(y == majority_label)
    minority = np.flatnonzero(y != majority_label)

    keep_majority = min(math.ceil(ratio * minority.size), majority.size)
    rng = np.random.default_rng(seed)
    kept = rng.choice(majority, size=keep_majority, replace=False)
    keep_idx = np.sort(np.concatenate([minority, kept]))
    return dataset.subset(keep_idx)
