"""Output checks computed apart from sqopt, with numpy only.

Each function returns a list of problems (empty when the output passes).  None
of them compares against a stored copy of an earlier output: they recompute
the quantity another way, or test a property every correct output has.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Tolerances fixed from float64 rounding: the program solves the scalar dual to
# ~1e-14 and the solver stops at a gradient sup-norm of 1e-6.
VALUE_RTOL = 1e-9
WEIGHT_TOL = 1e-7  # relative to the cap 1/(n(1-p))
GRAD_TOL = 1e-5
RIDGE_TOL = 1e-4


def _close(a, b, rtol=VALUE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def tail_average(u: np.ndarray, p: float) -> float:
    """Superquantile by sorting: mean of the top ``n(1-p)`` values, the last one fractional."""
    mass = u.size * (1.0 - p)
    desc = np.sort(u)[::-1]
    share = np.clip(mass - np.arange(u.size), 0.0, 1.0)
    return float(share @ desc / mass)


def capped_simplex_projection(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``{0 <= q <= cap, sum q = 1}``.

    ``q = clip(v - tau, 0, cap)``; tau by bisection, then exactly from the
    coordinates left strictly inside the bounds.
    """
    lo, hi = float(v.min()) - cap, float(v.max())
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        if np.clip(v - tau, 0.0, cap).sum() > 1.0:
            lo = tau
        else:
            hi = tau
    q = np.clip(v - tau, 0.0, cap)
    inside = (q > 0.0) & (q < cap)
    if inside.any():
        tau = (float(v[inside].sum()) + cap * float((q >= cap).sum()) - 1.0) / float(inside.sum())
        q = np.clip(v - tau, 0.0, cap)
    return q


def kl_water_filling(u: np.ndarray, nu: float, cap: float) -> np.ndarray:
    """Maximizer of ``q @ u - nu * KL(q || uniform)`` over the capped simplex.

    ``q_i = min(cap, c exp(u_i / nu))``: saturate the k largest values and
    give the rest the remaining mass in proportion to ``exp(u_i / nu)``,
    for the smallest k at which the (k+1)-th largest stays below the cap.
    Worked in logs, since ``exp(u / nu)`` over- or underflows for small nu.
    """
    order = np.argsort(-u, kind="stable")
    a = u[order] / nu
    log_tail = np.logaddexp.accumulate(a[::-1])[::-1]  # log sum_{i >= k} exp(a_i)
    ks = np.arange(min(u.size, int(math.floor(1.0 / cap + 1e-12)) + 1))
    with np.errstate(divide="ignore"):
        log_scale = np.log(np.maximum(1.0 - ks * cap, 0.0)) - log_tail[ks]
    k = int(np.argmax(log_scale + a[ks] <= math.log(cap) + 1e-12))
    q_sorted = np.concatenate([np.full(k, cap), np.exp(log_scale[k] + a[k:])])
    q = np.empty_like(q_sorted)
    q[order] = q_sorted
    return q


def divergence(q: np.ndarray, kind: str) -> float:
    n = q.size
    if kind == "euclidean":
        return float(0.5 * ((q - 1.0 / n) ** 2).sum())
    pos = q > 0.0
    return float((q[pos] * np.log(n * q[pos])).sum())


def divergence_max(kind: str, n: int, cap: float) -> float:
    """Divergence at the most concentrated vertex of the capped simplex."""
    full = min(int(math.floor(1.0 / cap + 1e-12)), n)
    q = np.zeros(n)
    q[:full] = cap
    if full < n:
        q[full] = max(1.0 - full * cap, 0.0)
    return divergence(q, kind)


def smoothed_weights(u: np.ndarray, kind: str, nu: float, p: float) -> np.ndarray:
    cap = 1.0 / (u.size * (1.0 - p))
    if kind == "euclidean":
        return capped_simplex_projection(1.0 / u.size + u / nu, cap)
    return kl_water_filling(u, nu, cap)


def check_tail_risk(u, kind, nu, p, exact, smoothed_value, weights, label):
    """Exact and smoothed superquantile of ``u`` as the program computed them."""
    problems = []
    n = u.size
    cap = 1.0 / (n * (1.0 - p))
    reference = tail_average(u, p)
    if not _close(exact, reference):
        problems.append(f"{label}: superquantile {exact!r} != sorted tail average {reference!r}")
    if weights.min() < 0.0 or weights.max() > cap * (1.0 + 1e-12):
        problems.append(f"{label}: weights outside [0, {cap!r}]")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        problems.append(f"{label}: weights sum to {float(weights.sum())!r}")
    q = smoothed_weights(u, kind, nu, p)
    gap = float(np.abs(weights - q).max())
    if gap > WEIGHT_TOL * cap:
        problems.append(f"{label}: weights differ from the independent {kind} solution by {gap!r}")
    value = float(q @ u) - nu * divergence(q, kind)
    if not _close(smoothed_value, value):
        problems.append(f"{label}: smoothed value {smoothed_value!r} != {value!r}")
    lower = reference - nu * divergence_max(kind, n, cap)
    slack = VALUE_RTOL * max(1.0, abs(reference))
    if not lower - slack <= smoothed_value <= reference + slack:
        problems.append(f"{label}: smoothed value {smoothed_value!r} outside [{lower!r}, {reference!r}]")
    return problems, q


def status_problems(label, result):
    if result.status != "converged":
        return [f"{label}: status {result.status!r} after {result.iterations} iterations"]
    return []


def check_stationary(grad, label):
    norm = float(np.abs(grad).max())
    if norm > GRAD_TOL:
        return [f"{label}: recomputed gradient sup-norm {norm!r} > {GRAD_TOL}"]
    return []


def check_ridge(x, y, reg, w, label):
    """Squared-loss ERM with ridge ``reg/(2n)|w|^2`` solves ``(X'X + reg I) w = X'y``."""
    w_ref = np.linalg.solve(x.T @ x + reg * np.eye(x.shape[1]), x.T @ y)
    gap = float(np.abs(w - w_ref).max())
    if gap > RIDGE_TOL * max(1.0, float(np.abs(w_ref).max())):
        return [f"{label}: ERM weights differ from the normal equations by {gap!r}"]
    return []


# -- study artifacts ---------------------------------------------------------

def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    out = {}
    for j, name in enumerate(header):
        column = [row[j] for row in body]
        try:
            out[name] = np.array([float(c) for c in column])
        except ValueError:
            out[name] = np.array(column)
    return out


def _metric_problems(label, reported: dict, recomputed: dict):
    return [f"{label}: {key} reported {reported[key]!r}, recomputed {value!r}"
            for key, value in recomputed.items() if not _close(reported[key], value)]


def _classification(targets, margins):
    predicted = np.where(margins > 0, 1.0, -1.0)
    positives = predicted == 1.0
    precision = float((targets[positives] == 1.0).mean()) if positives.any() else 0.0
    return {"accuracy": float((predicted == targets).mean()), "precision": precision}


def check_credit(report, rows):
    problems = []
    for entry in report["per_seed"]:
        mine = rows["seed"] == entry["seed"]
        targets = rows["target"][mine]
        for model in ("erm", "superquantile"):
            recomputed = _classification(targets, rows["margin_" + model][mine])
            problems += _metric_problems(f"credit seed {entry['seed']} {model}", entry[model], recomputed)
    for model in ("erm", "superquantile"):
        for key in ("accuracy", "precision"):
            values = np.array([entry[model][key] for entry in report["per_seed"]])
            problems += _metric_problems(f"credit summary {model} {key}", report["summary"][model][key],
                                         {"mean": float(values.mean()), "std": float(values.std())})
    return problems


def check_convergence(report, rows):
    sizes = report["config"]["sizes"]
    medians = [float(np.median(rows["gap"][rows["n"] == size])) for size in sizes]
    problems = _metric_problems("convergence median gaps", dict(enumerate(report["median_gaps"])),
                                dict(enumerate(medians)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    if report["strictly_decreasing"] != decreasing or not decreasing:
        problems.append(f"convergence: strictly_decreasing {report['strictly_decreasing']!r}, "
                        f"recomputed {decreasing!r}")
    return problems


STUDY_CHECKS = {
    "credit": check_credit,
    "convergence": check_convergence,
}


def check_study_output(name, out_dir: Path):
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    rows = read_csv(out_dir / "predictions.csv")
    return STUDY_CHECKS[name](report, rows)


def check_sweep(out_dir: Path, values: np.ndarray, kind: str, p: float):
    """Every smoothed value and weight of a nu sweep against the independent solution."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    sweep = read_csv(out_dir / "sweep.csv")
    weights = read_csv(out_dir / "weights_by_nu.csv")
    n = values.size
    cap = 1.0 / (n * (1.0 - p))
    problems = _metric_problems("sweep", report, {"superquantile": tail_average(values, p),
                                                  "mean": float(values.mean())})
    problems += [f"sweep: endpoint check {key} is false" for key in ("small_ok", "large_ok", "uniform_ok")
                 if not report["endpoints"][key]]
    order = np.argsort(values, kind="stable")
    for nu, value in zip(sweep["nu"], sweep["value"]):
        q = smoothed_weights(values, kind, nu, p)
        expected = float(q @ values) - nu * divergence(q, kind)
        if not _close(value, expected):
            problems.append(f"sweep nu={nu!r}: value {value!r} != {expected!r}")
        mine = weights["nu"] == nu
        reported = np.empty(n)
        reported[order[weights["rank"][mine].astype(int)]] = weights["weight"][mine]
        gap = float(np.abs(reported - q).max())
        if gap > WEIGHT_TOL * cap:
            problems.append(f"sweep nu={nu!r}: weights differ from the independent solution by {gap!r}")
    return problems
