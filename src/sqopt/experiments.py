"""Experiment drivers behind the command line interface.

Each driver is a pure function from a seed (plus optional dataset) to a
report dictionary and tabular prediction data, so the studies can run and be
checked without touching the filesystem.  The CLI layer only parses flags and
writes the artifacts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import superquantile
from .data import SplitSpec, SyntheticSpec, downsample_majority, generate_quadratic, split_indices
from .models import Dataset, GroupStructure, ModelSpec, group_metrics, pointwise_loss_map, grouped_loss_map, predict
from .optim import CONVERGED, minimize
from .oracles import erm_objective, smoothed_objective
from .smoothing import SmoothingSpec, divergence_max, smoothed_superquantile

__all__ = [
    "FitSettings",
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

CREDIT_P_GRID = (0.8, 0.85, 0.9, 0.95, 0.99)
CREDIT_FOLDS = 5
CREDIT_SEEDS = 5
CREDIT_DOWNSAMPLE_RATIO = 0.10
FEDERATED_CONFORMITY_LEVEL = 0.2
NU_GRID_POINTS = 13


@dataclass(frozen=True)
class FitSettings:
    """Configuration shared by the fit command and the named experiments."""

    loss: str = "squared"
    model_kind: str = "linear"
    degree: int = 1
    p: float = 0.9
    nu: float = 0.1
    smoothing: str = "euclidean"
    reg: float = 0.0
    train_fraction: float = 0.8
    seed: int = 0

    def model(self) -> ModelSpec:
        return ModelSpec(kind=self.model_kind, degree=self.degree, loss=self.loss)

    def smoothing_spec(self) -> SmoothingSpec:
        return SmoothingSpec(self.smoothing, self.nu)

    def config_dict(self) -> dict:
        """Every setting but the seed, which the report records on its own."""
        config = asdict(self)
        del config["seed"]
        return config


def regression_metrics(targets: np.ndarray, predictions: np.ndarray) -> dict:
    """Mean and upper percentiles of the absolute residuals."""
    residuals = np.abs(targets - predictions)
    return {
        "residual_mean": float(residuals.mean()),
        "residual_p80": float(np.percentile(residuals, 80)),
        "residual_p90": float(np.percentile(residuals, 90)),
        "residual_p95": float(np.percentile(residuals, 95)),
    }


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


def _split_metrics(dataset: Dataset, model: ModelSpec, w: np.ndarray, task: str) -> dict:
    preds = predict(dataset, model, w)
    if task == "regression":
        return regression_metrics(dataset.targets, preds)
    return classification_metrics(dataset.targets, preds)


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
    task = "classification" if settings.loss == "logistic" else "regression"
    model = settings.model()
    train_idx, test_idx = split_indices(dataset.n_rows, SplitSpec(settings.train_fraction, settings.seed))
    train, test = dataset.subset(train_idx), dataset.subset(test_idx)

    loss_map = pointwise_loss_map(train, model)
    w0 = np.zeros(loss_map.dim)
    erm_result = minimize(erm_objective(loss_map, settings.reg), w0)
    sq_result = minimize(
        smoothed_objective(loss_map, settings.p, settings.smoothing_spec(), settings.reg), w0)

    report = {
        "experiment": "fit",
        "seed": settings.seed,
        "config": settings.config_dict(),
        "task": task,
        "n_rows": dataset.n_rows,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "models": {},
    }
    predictions: list[dict] = []
    fits = {"erm": erm_result, "superquantile": sq_result}
    all_preds = {}
    for name, result in fits.items():
        all_preds[name] = predict(dataset, model, result.w_star)
        entry = {
            "optim": _optim_summary(result),
            "metrics": {
                "train": _split_metrics(train, model, result.w_star, task),
                "test": _split_metrics(test, model, result.w_star, task),
            },
        }
        if groups is not None:
            entry["group_losses"] = [float(v) for v in group_metrics(dataset, model, groups, result.w_star)]
        report["models"][name] = entry

    in_train = np.zeros(dataset.n_rows, dtype=bool)
    in_train[train_idx] = True
    for i in range(dataset.n_rows):
        record = {
            "row": i,
            "split": "train" if in_train[i] else "test",
            "target": float(dataset.targets[i]),
            "prediction_erm": float(all_preds["erm"][i]),
            "prediction_superquantile": float(all_preds["superquantile"][i]),
        }
        if groups is not None:
            record["group"] = int(groups.assignment[i])
        predictions.append(record)
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
    settings = FitSettings(loss="squared", model_kind="polynomial", degree=2,
                           p=0.9, nu=0.1, smoothing="euclidean", reg=0.0, seed=seed)
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
        "superquantile": minimize(smoothed_objective(point_map, 0.9, SmoothingSpec("euclidean", 0.1)), w0),
        "grouped_superquantile": minimize(
            smoothed_objective(device_map, p_grouped, SmoothingSpec("euclidean", 0.1)), w0),
    }

    subgroup = GroupStructure(np.where(groups.assignment == 4, 1, 0))
    report = {
        "experiment": "federated",
        "seed": seed,
        "config": {"p_pooled": 0.9, "p_grouped": p_grouped, "nu": 0.1,
                   "smoothing": "euclidean", "conformity_level": FEDERATED_CONFORMITY_LEVEL},
        "models": {},
    }
    predictions: list[dict] = []
    preds = {}
    for name, result in fits.items():
        preds[name] = predict(dataset, model, result.w_star)
        report["models"][name] = {
            "optim": _optim_summary(result),
            "device_losses": [float(v) for v in group_metrics(dataset, model, groups, result.w_star)],
            "subgroup_losses": [float(v) for v in group_metrics(dataset, model, subgroup, result.w_star)],
        }
    for i in range(dataset.n_rows):
        predictions.append({
            "row": i,
            "target": float(dataset.targets[i]),
            "device": int(groups.assignment[i]),
            "prediction_erm": float(preds["erm"][i]),
            "prediction_superquantile": float(preds["superquantile"][i]),
            "prediction_grouped_superquantile": float(preds["grouped_superquantile"][i]),
        })
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
    settings = FitSettings(loss="squared", model_kind="linear", p=0.98, nu=0.1,
                           smoothing="euclidean", reg=1.0, seed=seed)
    report, predictions = fit_models(dataset, settings)
    report["experiment"] = "abalone"
    return report, predictions


def synthetic_credit(n: int = 900, seed: int = 7) -> Dataset:
    """Credit-style binary classification stand-in.

    Two mostly separated classes with bounded feature noise (tail-risk
    training is only sensible when the hardest examples are not hopeless
    outliers), a slight positive majority so the training-time downsampling
    induces a genuine label shift, and a constant column so that the
    imbalance can act on the intercept.
    """
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
    nu, reg = 0.1, 1.0
    w0 = np.zeros(dataset.features.shape[1])
    per_seed = []
    predictions: list[dict] = []
    for k in range(CREDIT_SEEDS):
        split_seed = seed + k
        train_idx, test_idx = split_indices(dataset.n_rows, SplitSpec(0.8, split_seed))
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)
        shifted = downsample_majority(train, CREDIT_DOWNSAMPLE_RATIO, seed=split_seed)

        folds = _cv_folds(shifted.n_rows, CREDIT_FOLDS, split_seed)
        cv_table = {}
        cv_not_converged = 0
        for p in CREDIT_P_GRID:
            scores = []
            for j in range(CREDIT_FOLDS):
                held = folds[j]
                keep = np.setdiff1d(np.arange(shifted.n_rows), held)
                fold_train = shifted.subset(keep)
                fold_val = shifted.subset(held)
                oracle = smoothed_objective(pointwise_loss_map(fold_train, model), p,
                                            SmoothingSpec("euclidean", nu), reg)
                result = minimize(oracle, w0)
                cv_not_converged += result.status != CONVERGED
                margins = predict(fold_val, model, result.w_star)
                scores.append(classification_metrics(fold_val.targets, margins)["accuracy"])
            cv_table[p] = float(np.mean(scores))
        best_p = max(CREDIT_P_GRID, key=lambda p: (cv_table[p], -p))

        final_map = pointwise_loss_map(shifted, model)
        sq_result = minimize(smoothed_objective(final_map, best_p, SmoothingSpec("euclidean", nu), reg), w0)
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
        for i in range(test.n_rows):
            predictions.append({
                "seed": split_seed,
                "row": int(test_idx[i]),
                "target": float(test.targets[i]),
                "margin_erm": float(erm_margins[i]),
                "margin_superquantile": float(sq_margins[i]),
            })

    def _stats(name, key):
        vals = np.array([s[name][key] for s in per_seed])
        return {"mean": float(vals.mean()), "std": float(vals.std())}

    report = {
        "experiment": "credit",
        "seed": seed,
        "config": {"p_grid": list(CREDIT_P_GRID), "folds": CREDIT_FOLDS, "nu": nu, "reg": reg,
                   "downsample_ratio": CREDIT_DOWNSAMPLE_RATIO, "n_seeds": CREDIT_SEEDS},
        "per_seed": per_seed,
        "summary": {
            "erm": {"accuracy": _stats("erm", "accuracy"), "precision": _stats("erm", "precision")},
            "superquantile": {"accuracy": _stats("superquantile", "accuracy"),
                              "precision": _stats("superquantile", "precision")},
        },
    }
    return report, predictions


CONVERGENCE_SIZES = (100, 1_000, 10_000, 100_000)
CONVERGENCE_REPLICATES = 50
CONVERGENCE_REFERENCE = 1_000_000


def run_convergence(seed: int = 0, p: float = 0.9,
                    sizes: tuple[int, ...] = CONVERGENCE_SIZES,
                    replicates: int = CONVERGENCE_REPLICATES,
                    reference_size: int = CONVERGENCE_REFERENCE) -> tuple[dict, list[dict]]:
    """Monte-Carlo check that the empirical tail risk stabilizes with n.

    At a fixed parameter vector, compare the tail risk of n fresh losses with
    a large-sample reference; the median absolute gap over the replicates
    shrinks as n grows.
    """
    w_bar = np.array(TOY_W_BAR)
    w_eval = np.zeros(3)

    def loss_sample(rng: np.random.Generator, size: int) -> np.ndarray:
        x = rng.uniform(-1.0, 3.0, size)
        y = w_bar[0] + w_bar[1] * x + w_bar[2] * x**2 + rng.normal(0.0, 1.0, size)
        z = w_eval[0] + w_eval[1] * x + w_eval[2] * x**2
        return 0.5 * (y - z) ** 2

    children = np.random.SeedSequence(seed).spawn(1 + len(sizes) * replicates)
    reference = superquantile(loss_sample(np.random.default_rng(children[0]), reference_size), p)

    rows: list[dict] = []
    medians = []
    for si, size in enumerate(sizes):
        gaps = []
        for r in range(replicates):
            rng = np.random.default_rng(children[1 + si * replicates + r])
            gap = abs(superquantile(loss_sample(rng, size), p) - reference)
            gaps.append(gap)
            rows.append({"n": size, "replicate": r, "gap": float(gap)})
        medians.append(float(np.median(gaps)))

    report = {
        "experiment": "convergence",
        "seed": seed,
        "config": {"p": p, "sizes": list(sizes), "replicates": replicates,
                   "reference_size": reference_size},
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
    u = np.asarray(values, dtype=float).reshape(-1)
    n = u.size
    if grid is None:
        grid = default_nu_grid(u)
    grid = np.asarray(grid, dtype=float)
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
        for rank, idx in enumerate(order):
            weight_rows.append({"nu": float(nu), "rank": rank,
                                "value": float(u[idx]), "weight": float(weights[idx])})

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
