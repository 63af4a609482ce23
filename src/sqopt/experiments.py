"""Experiment drivers behind the command line interface.

Each driver is a pure function from a seed (plus optional dataset) to a
report dictionary and per-row tables, so the studies can run and be checked
without touching the filesystem.  Settings travel as whole validated
specs: a :class:`FitSettings` holds a ``ModelSpec`` and a ``SmoothingSpec``,
and the studies smooth with ``STUDY_SMOOTHING`` unless they say otherwise.
A table is a list of row dicts that ``_records`` builds from whole columns;
every cell is a plain Python number or label, which the CSV writer prints
exactly.  The CLI layer only parses flags and writes the artifacts, through
one writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_sample, superquantile
from .data import SyntheticSpec, downsample_majority, generate_quadratic, split_indices
from .models import Dataset, GroupStructure, ModelSpec, group_metrics, pointwise_loss_map, grouped_loss_map, predict
from .optim import CONVERGED, minimize
from .oracles import erm_objective, smoothed_objective
from .smoothing import SmoothingSpec, divergence_max, smoothed_superquantile

__all__ = [
    "FitSettings",
    "STUDY_SMOOTHING",
    "fit_models",
    "run_toyreg",
    "run_federated",
    "run_fairness",
    "run_abalone",
    "run_credit",
    "run_convergence",
    "run_sweep",
    "synthetic_credit",
    "CREDIT_P_GRID",
]

CREDIT_N = 900
CREDIT_P_GRID = (0.8, 0.85, 0.9, 0.95, 0.99)
CREDIT_FOLDS = 5
CREDIT_SEEDS = 5
CREDIT_DOWNSAMPLE_RATIO = 0.10
FEDERATED_CONFORMITY_LEVEL = 0.2
NU_GRID_POINTS = 13
# the smoothing of every study fit, and the default of ``fit``
STUDY_SMOOTHING = SmoothingSpec("euclidean", 0.1)


@dataclass(frozen=True)
class FitSettings:
    """Configuration shared by the fit command and the named experiments.

    The model and the smoothing are whole specs, validated when they are built.
    """

    model: ModelSpec = ModelSpec()
    p: float = 0.9
    smoothing: SmoothingSpec = STUDY_SMOOTHING
    reg: float = 0.0
    train_fraction: float = 0.8
    seed: int = 0

    def config_dict(self) -> dict:
        """Every setting but the seed (the report records it on its own), both specs flattened."""
        return {"loss": self.model.loss, "model_kind": self.model.kind, "degree": self.model.degree,
                "p": self.p, "nu": self.smoothing.nu, "smoothing": self.smoothing.kind,
                "reg": self.reg, "train_fraction": self.train_fraction}


def regression_metrics(targets: np.ndarray, predictions: np.ndarray) -> dict:
    """Mean and upper percentiles of the absolute residuals."""
    residuals = np.abs(targets - predictions)
    p80, p90, p95 = np.percentile(residuals, [80, 90, 95]).tolist()
    return {"residual_mean": float(residuals.mean()),
            "residual_p80": p80, "residual_p90": p90, "residual_p95": p95}


def classification_metrics(targets: np.ndarray, margins: np.ndarray) -> dict:
    """Accuracy and precision of the sign predictor (positive class +1)."""
    predicted = np.where(margins > 0, 1.0, -1.0)
    accuracy = float((predicted == targets).mean())
    positives = predicted == 1.0
    if positives.any():
        precision = float((targets[positives] == 1.0).mean())
    else:
        precision = 0.0
    return {"accuracy": accuracy, "precision": precision}


def _split_metrics(targets: np.ndarray, preds: np.ndarray, task: str) -> dict:
    if task == "regression":
        return regression_metrics(targets, preds)
    return classification_metrics(targets, preds)


def _records(**columns) -> list[dict]:
    """Row dicts from equal-length columns, in keyword order.

    ``tolist`` makes every cell a Python scalar: the CSV writer prints floats
    with ``repr``, which gives ``np.float64(...)`` for a numpy scalar.
    """
    cells = [np.asarray(column).tolist() for column in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*cells)]


def _optim_summary(result) -> dict:
    return {
        "status": result.status,
        "iterations": result.iterations,
        "objective": result.value,
        "grad_norm": result.grad_norm,
        "weights": [float(v) for v in result.w_star],
    }


def fit_models(dataset: Dataset, settings: FitSettings,
               groups: GroupStructure | None = None) -> tuple[dict, list[dict]]:
    """Train the mean-loss baseline and the smoothed tail-risk model.

    Returns the report dictionary and per-row prediction records from which
    every reported metric can be recomputed.
    """
    model = settings.model
    train_idx, test_idx = split_indices(dataset.n_rows, settings.train_fraction, settings.seed)

    loss_map = pointwise_loss_map(dataset.subset(train_idx), model)
    w0 = np.zeros(loss_map.dim)
    erm_result = minimize(erm_objective(loss_map, settings.reg), w0)
    sq_result = minimize(
        smoothed_objective(loss_map, settings.p, settings.smoothing, settings.reg), w0)

    report = {
        "experiment": "fit",
        "seed": settings.seed,
        "config": settings.config_dict(),
        "task": model.task,
        "n_rows": dataset.n_rows,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "models": {},
    }
    fits = {"erm": erm_result, "superquantile": sq_result}
    all_preds = {}
    for name, result in fits.items():
        preds = all_preds[name] = predict(dataset, model, result.w_star)
        entry = {
            "optim": _optim_summary(result),
            "metrics": {
                split: _split_metrics(dataset.targets[idx], preds[idx], model.task)
                for split, idx in (("train", train_idx), ("test", test_idx))
            },
        }
        if groups is not None:
            entry["group_losses"] = group_metrics(dataset, model, groups, result.w_star).tolist()
        report["models"][name] = entry

    in_train = np.zeros(dataset.n_rows, dtype=bool)
    in_train[train_idx] = True
    group_column = {} if groups is None else {"group": groups.assignment}
    predictions = _records(row=np.arange(dataset.n_rows), split=np.where(in_train, "train", "test"),
                           target=dataset.targets, prediction_erm=all_preds["erm"],
                           prediction_superquantile=all_preds["superquantile"], **group_column)
    return report, predictions


# ---------------------------------------------------------------------------
# named experiments

TOY_W_BAR = (1.0, -2.0, 1.0)
TOY_W_ALT = (22.0, 3.0, -2.5)
TOY_MIXTURE_FRACTION = 0.2
TOY_N = 600
TOY_SIGMA = 1.0


def _toy_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(n=TOY_N, w_bar=TOY_W_BAR, sigma=TOY_SIGMA,
                         mixture=(TOY_MIXTURE_FRACTION, TOY_W_ALT), seed=seed)


def run_toyreg(seed: int = 0) -> tuple[dict, list[dict]]:
    """Quadratic regression on two-subpopulation data: mean loss vs tail risk.

    The tail-risk model trades average accuracy for control of the worst
    residuals, which shows up as lower upper percentiles and a higher mean.
    """
    dataset, groups = generate_quadratic(_toy_spec(seed))
    settings = FitSettings(model=ModelSpec(kind="polynomial", degree=2), seed=seed)
    report, predictions = fit_models(dataset, settings, groups=groups)
    report["experiment"] = "toyreg"
    return report, predictions


def run_federated(seed: int = 0) -> tuple[dict, list[dict]]:
    """Compare pooled mean loss, pooled tail risk, and per-device tail risk.

    Five devices, four sharing a distribution and one off-trend.  The
    device-level model has tail level ``1 - FEDERATED_CONFORMITY_LEVEL`` and
    so caps each device's dual weight at ``1/(m * FEDERATED_CONFORMITY_LEVEL)``
    (1 for the five devices at the level 0.2), protecting every mixture whose
    conformity stays above the level.
    """
    dataset, groups = generate_quadratic(_toy_spec(seed))
    model = ModelSpec(kind="polynomial", degree=2, loss="squared")
    point_map = pointwise_loss_map(dataset, model)
    device_map = grouped_loss_map(dataset, model, groups)
    p_grouped = 1.0 - FEDERATED_CONFORMITY_LEVEL
    w0 = np.zeros(point_map.dim)

    fits = {
        "erm": minimize(erm_objective(point_map), w0),
        "superquantile": minimize(smoothed_objective(point_map, 0.9, STUDY_SMOOTHING), w0),
        "grouped_superquantile": minimize(smoothed_objective(device_map, p_grouped, STUDY_SMOOTHING), w0),
    }

    subgroup = GroupStructure(np.where(groups.assignment == 4, 1, 0))
    report = {
        "experiment": "federated",
        "seed": seed,
        "config": {"p_pooled": 0.9, "p_grouped": p_grouped, "nu": STUDY_SMOOTHING.nu,
                   "smoothing": STUDY_SMOOTHING.kind, "conformity_level": FEDERATED_CONFORMITY_LEVEL},
        "models": {},
    }
    preds = {}
    for name, result in fits.items():
        preds[f"prediction_{name}"] = predict(dataset, model, result.w_star)
        report["models"][name] = {
            "optim": _optim_summary(result),
            "device_losses": group_metrics(dataset, model, groups, result.w_star).tolist(),
            "subgroup_losses": group_metrics(dataset, model, subgroup, result.w_star).tolist(),
        }
    predictions = _records(row=np.arange(dataset.n_rows), target=dataset.targets,
                           device=groups.assignment, **preds)
    return report, predictions


def run_fairness(seed: int = 0) -> tuple[dict, list[dict]]:
    """Report the two-subgroup loss table for the three federated models.

    The per-device tail-risk model evens out the subgroup losses: smallest
    gap between the two groups and smallest worst-group loss.
    """
    report, predictions = run_federated(seed)
    table = {name: entry["subgroup_losses"] for name, entry in report["models"].items()}
    gaps = {name: abs(v[0] - v[1]) for name, v in table.items()}
    worst = {name: max(v) for name, v in table.items()}
    report["experiment"] = "fairness"
    report["subgroup_table"] = table
    report["subgroup_gap"] = gaps
    report["worst_subgroup_loss"] = worst
    return report, predictions


def run_abalone(dataset: Dataset, seed: int = 0) -> tuple[dict, list[dict]]:
    """Ridge-regularized least squares vs its tail-risk version (p = 0.98)."""
    settings = FitSettings(p=0.98, reg=1.0, seed=seed)
    report, predictions = fit_models(dataset, settings)
    report["experiment"] = "abalone"
    return report, predictions


def synthetic_credit(seed: int = 7) -> Dataset:
    """Credit-style binary classification stand-in with ``CREDIT_N`` rows.

    Two mostly separated classes with bounded feature noise (tail-risk
    training is only sensible when the hardest examples are not hopeless
    outliers), a slight positive majority so the training-time downsampling
    induces a genuine label shift, and a constant column so that the
    imbalance can act on the intercept.
    """
    n = CREDIT_N
    rng = np.random.default_rng(seed)
    n_pos = int(round(0.56 * n))
    dim = 6
    mu = np.full(dim, 0.9 / np.sqrt(dim))
    noise = rng.uniform(-1.3, 1.3, (n, dim))
    features = np.vstack([noise[:n_pos] + mu, noise[n_pos:] - mu])
    features = np.hstack([features, np.ones((n, 1))])
    targets = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    perm = rng.permutation(n)
    return Dataset(features[perm], targets[perm])


def _cv_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(perm[j::k]) for j in range(k)]


def run_credit(dataset: Dataset, seed: int = 0) -> tuple[dict, list[dict]]:
    """Distribution-shift classification protocol.

    For each of ``CREDIT_SEEDS`` splits: hold out 20% for testing, downsample the
    training majority class to 10% of the minority, pick the tail level by
    5-fold cross-validated accuracy on the shifted training set over
    ``CREDIT_P_GRID``, then compare the tuned tail-risk model against the
    mean-loss baseline on the untouched test set.
    """
    model = ModelSpec(kind="linear", loss="logistic")
    reg = 1.0
    w0 = np.zeros(dataset.features.shape[1])
    per_seed = []
    predictions: list[dict] = []
    for k in range(CREDIT_SEEDS):
        split_seed = seed + k
        train_idx, test_idx = split_indices(dataset.n_rows, 0.8, split_seed)
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        shifted = downsample_majority(train, CREDIT_DOWNSAMPLE_RATIO, seed=split_seed)

        # one loss map per fold serves every p: its prediction memo is keyed on the bytes of w
        folds = []
        for held in _cv_folds(shifted.n_rows, CREDIT_FOLDS, split_seed):
            keep = np.setdiff1d(np.arange(shifted.n_rows), held)
            folds.append((pointwise_loss_map(shifted.subset(keep), model), shifted.subset(held)))
        cv_table = {}
        cv_not_converged = 0
        for p in CREDIT_P_GRID:
            scores = []
            for fold_map, fold_val in folds:
                oracle = smoothed_objective(fold_map, p, STUDY_SMOOTHING, reg)
                result = minimize(oracle, w0)
                cv_not_converged += result.status != CONVERGED
                margins = predict(fold_val, model, result.w_star)
                scores.append(classification_metrics(fold_val.targets, margins)["accuracy"])
            cv_table[p] = float(np.mean(scores))
        best_p = max(CREDIT_P_GRID, key=lambda p: (cv_table[p], -p))

        final_map = pointwise_loss_map(shifted, model)
        sq_result = minimize(smoothed_objective(final_map, best_p, STUDY_SMOOTHING, reg), w0)
        erm_result = minimize(erm_objective(final_map, reg), w0)

        sq_margins = predict(test, model, sq_result.w_star)
        erm_margins = predict(test, model, erm_result.w_star)
        seed_entry = {
            "seed": split_seed,
            "best_p": best_p,
            "cv_accuracy": {str(p): cv_table[p] for p in CREDIT_P_GRID},
            "erm": classification_metrics(test.targets, erm_margins),
            "superquantile": classification_metrics(test.targets, sq_margins),
            "optim": {
                "erm": {"status": erm_result.status, "iterations": erm_result.iterations},
                "superquantile": {"status": sq_result.status, "iterations": sq_result.iterations},
                "cv_not_converged": cv_not_converged,
            },
        }
        per_seed.append(seed_entry)
        predictions += _records(seed=np.full(test.n_rows, split_seed), row=test_idx, target=test.targets,
                                margin_erm=erm_margins, margin_superquantile=sq_margins)

    def _stats(name, key):
        vals = np.array([s[name][key] for s in per_seed])
        return {"mean": float(vals.mean()), "std": float(vals.std())}

    report = {
        "experiment": "credit",
        "seed": seed,
        "config": {"p_grid": list(CREDIT_P_GRID), "folds": CREDIT_FOLDS, "nu": STUDY_SMOOTHING.nu,
                   "reg": reg, "downsample_ratio": CREDIT_DOWNSAMPLE_RATIO, "n_seeds": CREDIT_SEEDS},
        "per_seed": per_seed,
        "summary": {name: {key: _stats(name, key) for key in ("accuracy", "precision")}
                    for name in ("erm", "superquantile")},
    }
    return report, predictions


CONVERGENCE_P = 0.9
CONVERGENCE_SIZES = (100, 1_000, 10_000, 100_000)
CONVERGENCE_REPLICATES = 50
CONVERGENCE_REFERENCE = 1_000_000


def run_convergence(seed: int = 0) -> tuple[dict, list[dict]]:
    """Monte-Carlo check that the empirical tail risk stabilizes with n.

    At the zero parameter vector, compare the tail risk at level
    ``CONVERGENCE_P`` of n fresh losses with a large-sample reference of
    ``CONVERGENCE_REFERENCE`` losses; the median absolute gap over the
    ``CONVERGENCE_REPLICATES`` replicates shrinks as n runs through
    ``CONVERGENCE_SIZES``.
    """
    sizes, replicates = CONVERGENCE_SIZES, CONVERGENCE_REPLICATES
    w_bar = np.array(TOY_W_BAR)

    def loss_sample(rng: np.random.Generator, size: int) -> np.ndarray:
        # squared loss of the zero model, whose prediction is exactly +0.0
        x = rng.uniform(-1.0, 3.0, size)
        y = w_bar[0] + w_bar[1] * x + w_bar[2] * x**2 + rng.normal(0.0, 1.0, size)
        return 0.5 * y**2

    children = np.random.SeedSequence(seed).spawn(1 + len(sizes) * replicates)
    reference_sample = loss_sample(np.random.default_rng(children[0]), CONVERGENCE_REFERENCE)
    reference = superquantile(reference_sample, CONVERGENCE_P)

    rows: list[dict] = []
    medians = []
    for si, size in enumerate(sizes):
        gaps = []
        for r in range(replicates):
            rng = np.random.default_rng(children[1 + si * replicates + r])
            gaps.append(abs(superquantile(loss_sample(rng, size), CONVERGENCE_P) - reference))
        rows += _records(n=np.full(replicates, size), replicate=np.arange(replicates), gap=gaps)
        medians.append(float(np.median(gaps)))

    report = {
        "experiment": "convergence",
        "seed": seed,
        "config": {"p": CONVERGENCE_P, "sizes": list(sizes), "replicates": replicates,
                   "reference_size": CONVERGENCE_REFERENCE},
        "reference_value": float(reference),
        "median_gaps": medians,
        "strictly_decreasing": bool(all(a > b for a, b in zip(medians, medians[1:]))),
    }
    return report, rows


def default_nu_grid(values: np.ndarray) -> np.ndarray:
    """``NU_GRID_POINTS`` log-spaced smoothing strengths bracketing the data scale."""
    scale = float(values.max() - values.min()) or 1.0
    return scale * np.logspace(-3.0, 3.0, NU_GRID_POINTS)


def run_sweep(values, p: float, kind: str = "euclidean",
              grid=None) -> tuple[dict, list[dict], list[dict]]:
    """Smoothed value and weight distribution across smoothing strengths.

    Also probes the two extremes: at huge strength the value approaches the
    plain mean with near-uniform weights, at vanishing strength it is within
    the divergence bound of the exact tail risk.
    """
    u = as_sample(values)
    n = u.size
    if grid is None:
        grid = default_nu_grid(u)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("the nu grid is empty")
    exact = superquantile(u, p)
    mean = float(u.mean())
    order = np.argsort(u, kind="stable")

    rows: list[dict] = []
    weight_rows: list[dict] = []
    for nu in grid:
        spec = SmoothingSpec(kind, float(nu))
        value, weights = smoothed_superquantile(u, spec, p)
        rows.append({
            "nu": float(nu),
            "value": value,
            "weight_min": float(weights.min()),
            "weight_max": float(weights.max()),
            "weight_sup_dist_uniform": float(np.abs(weights - 1.0 / n).max()),
        })
        weight_rows += _records(nu=np.full(n, nu), rank=np.arange(n), value=u[order], weight=weights[order])

    data_range = float(u.max() - u.min()) or 1.0
    tiny, huge = 1e-9 * data_range, 1e9 * data_range
    value_tiny, _ = smoothed_superquantile(u, SmoothingSpec(kind, tiny), p)
    value_huge, weights_huge = smoothed_superquantile(u, SmoothingSpec(kind, huge), p)
    dmax_tiny = divergence_max(SmoothingSpec(kind, tiny), n, p)
    small_ok = abs(value_tiny - exact) <= 2.0 * tiny * dmax_tiny + 1e-12 * max(1.0, abs(exact))
    large_ok = abs(value_huge - mean) <= 1e-6 * max(1.0, abs(mean))
    uniform_ok = bool(np.abs(weights_huge - 1.0 / n).max() <= 1e-6)

    report = {
        "experiment": "sweep_nu",
        "config": {"p": p, "smoothing": kind, "grid": [float(g) for g in grid], "n": n},
        "superquantile": exact,
        "mean": mean,
        "endpoints": {
            "nu_small": tiny, "value_small": value_tiny, "bound_small": 2.0 * tiny * dmax_tiny,
            "nu_large": huge, "value_large": value_huge,
            "small_ok": bool(small_ok), "large_ok": bool(large_ok), "uniform_ok": uniform_ok,
        },
    }
    return report, rows, weight_rows
