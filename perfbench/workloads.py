"""The three workloads: inputs made from the seed, one timed operation, its checks.

An operation is one round of identical work.  ``tall`` and ``wide`` fit one
model per configuration in their table; ``study`` runs three CLI commands.  Each
fit or CLI invocation is one attempted unit, and it fails when its status is
not ``converged``, its CLI exit code is not 0, or a check in ``checks`` finds
a problem.

Every call into the fit loop looks its name up in ``sqopt.experiments``, where
the traced run wraps it (see ``spans.py``).
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

import sqopt.cli as cli
import sqopt.experiments as experiments
from sqopt.core import superquantile
from sqopt.models import Dataset, GroupStructure, ModelSpec
from sqopt.smoothing import SmoothingSpec, smoothed_superquantile

import checks

REG = 1.0
SQUARED = ModelSpec(kind="linear", loss="squared")

# tall: many rows, few features; the O(n) passes of the dual solve dominate
TALL_N, TALL_D = 40_000, 20
TALL_FITS = (  # (divergence, p, nu)
    ("euclidean", 0.90, 1.0),
    ("euclidean", 0.95, 3.0),
    ("euclidean", 0.99, 30.0),
    ("kl", 0.90, 0.01),
    ("kl", 0.95, 0.03),
    ("kl", 0.99, 0.1),
)

# wide: many features, 100 groups; the n x d loss-map passes dominate and the
# dual solve sees only the 100 group losses
WIDE_N, WIDE_D, WIDE_GROUPS = 20_000, 250, 100
WIDE_FITS = (  # (loss map, divergence or None for the mean loss, p, nu)
    ("grouped", "euclidean", 0.90, 1.0),
    ("grouped", "euclidean", 0.80, 10.0),
    ("grouped", "kl", 0.95, 0.1),
    ("grouped", "kl", 0.80, 1.0),
    ("pointwise", None, None, None),
)

# study: hundreds of small fits (credit), the exact superquantile on samples of
# up to 1e6 (convergence), and the dual solve across a 13-point nu grid with
# large CSV artifacts (sweep-nu).  Left out, because they fail on some seeds
# only and a unit like that cannot give a steady failed share:
# `experiment fairness` and `experiment toyreg`, whose smoothed fits end in
# line_search_failure (fairness at seeds 3, 12, 25, 28, 32, 33, 43, 46 of
# 0-59; toyreg at 12 and 59), and `sweep-nu --smoothing kl`, whose own large-nu
# check `large_ok` is false at seeds 8, 9, 11, 15, 17, 18, 29, 31, 35 of 0-39.
STUDY_P = 0.9
STUDY_SWEEP_N = 500
STUDY_COMMANDS = ("credit", "convergence", "sweep")


def regression_data(rng, n, d, n_groups=0):
    """Gaussian features, a unit-norm linear trend and heteroscedastic noise.

    With groups, rows are dealt at random to ``n_groups`` equal groups that
    add their own offset and noise scale, so the group losses differ.  The
    offsets and scales are fixed grids and the trend has unit norm, so a new
    seed redraws the sample, not the shape of the problem: iteration counts,
    and so round times, then vary little from seed to seed.
    """
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    w_true /= np.linalg.norm(w_true)
    noise_scale = 0.5 + np.abs(x[:, 0])
    assignment = None
    offset = 0.0
    if n_groups:
        assignment = rng.permutation(n) % n_groups
        offset = np.linspace(-1.0, 1.0, n_groups)[assignment]
        # the scale grid is shuffled once, by a fixed seed, apart from the offsets
        scales = np.linspace(0.5, 1.5, n_groups)[np.random.default_rng(0).permutation(n_groups)]
        noise_scale = noise_scale * scales[assignment]
    y = x @ w_true + offset + noise_scale * rng.standard_normal(n)
    return Dataset(x, y), assignment


def smoothed_fit(loss_map, kind, p, nu):
    oracle = experiments.smoothed_objective(loss_map, p, SmoothingSpec(kind, nu), REG)
    return experiments.minimize(oracle, np.zeros(loss_map.dim))


def check_smoothed_fit(label, result, x, y, kind, p, nu, assignment=None):
    """Tail-risk checks at the fitted ``w``, and its first-order optimality."""
    w = result.w_star
    residual = x @ w - y
    row_losses = 0.5 * residual**2
    if assignment is None:
        u = row_losses
        counts = None
    else:
        counts = np.bincount(assignment).astype(float)
        u = np.bincount(assignment, weights=row_losses) / counts
    value, weights = smoothed_superquantile(u, SmoothingSpec(kind, nu), p)
    problems, q = checks.check_tail_risk(u, kind, nu, p, superquantile(u, p), value, weights, label)
    row_weights = q if counts is None else (q / counts)[assignment]
    grad = x.T @ (row_weights * residual) + (REG / u.size) * w
    return problems + checks.check_stationary(grad, label)


class TallWorkload:
    def __init__(self, seed, tracer):
        rng = np.random.default_rng(seed)
        self.data, _ = tracer.call("data", regression_data, (rng, TALL_N, TALL_D), {})
        self.loss_map = experiments.pointwise_loss_map(self.data, SQUARED)

    def run(self, op):
        return [smoothed_fit(self.loss_map, kind, p, nu) for kind, p, nu in TALL_FITS]

    def check(self, op, results):
        x, y = self.data.features, self.data.targets
        return [checks.status_problems(f"tall {spec}", result)
                + check_smoothed_fit(f"tall {spec}", result, x, y, *spec)
                for spec, result in zip(TALL_FITS, results)]


class WideWorkload:
    def __init__(self, seed, tracer):
        rng = np.random.default_rng(seed)
        self.data, assignment = tracer.call("data", regression_data,
                                            (rng, WIDE_N, WIDE_D, WIDE_GROUPS), {})
        self.groups = GroupStructure(assignment)
        self.maps = {
            "pointwise": experiments.pointwise_loss_map(self.data, SQUARED),
            "grouped": experiments.grouped_loss_map(self.data, SQUARED, self.groups),
        }

    def run(self, op):
        results = []
        for map_name, kind, p, nu in WIDE_FITS:
            loss_map = self.maps[map_name]
            if kind is None:
                oracle = experiments.erm_objective(loss_map, REG)
                results.append(experiments.minimize(oracle, np.zeros(loss_map.dim)))
            else:
                results.append(smoothed_fit(loss_map, kind, p, nu))
        return results

    def check(self, op, results):
        x, y = self.data.features, self.data.targets
        out = []
        for (map_name, kind, p, nu), result in zip(WIDE_FITS, results):
            label = f"wide {map_name} {kind} p={p} nu={nu}"
            problems = checks.status_problems(label, result)
            if kind is None:
                problems += checks.check_ridge(x, y, REG, result.w_star, label)
            else:
                assignment = self.groups.assignment if map_name == "grouped" else None
                problems += check_smoothed_fit(label, result, x, y, kind, p, nu, assignment)
            out.append(problems)
        return out


class StudyWorkload:
    """CLI studies in one process, artifacts written under the benchmark's output directory."""

    def __init__(self, seed, tracer, work_dir: Path):
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.reference: dict[str, dict[str, bytes]] = {}
        rng = np.random.default_rng(seed)
        # heavy-tailed losses for the nu sweep, read by the CLI from a CSV file
        self.sweep_values = rng.lognormal(0.0, 1.0, STUDY_SWEEP_N)
        self.sweep_input = work_dir / "sweep_values.csv"
        self.sweep_input.write_text("\n".join(repr(float(v)) for v in self.sweep_values) + "\n",
                                    encoding="utf-8")

    def _out(self, op, name):
        return self.work_dir / f"op{op}" / name

    def _argv(self, name, out):
        common = ["--seed", str(self.seed), "--out", str(out)]
        if name == "credit":
            return ["experiment", "credit", "--synthetic", *common]
        if name == "convergence":
            return ["experiment", "convergence", *common]
        return ["sweep-nu", "--input", str(self.sweep_input), "--p", str(STUDY_P),
                "--smoothing", "euclidean", *common]

    def run(self, op):
        codes = []
        for name in STUDY_COMMANDS:
            args = self._argv(name, self._out(op, name))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(self.tracer.call("cli", cli.main, (args,), {}))
        return codes

    def check(self, op, codes):
        out = []
        artifact_bytes = 0
        for name, code in zip(STUDY_COMMANDS, codes):
            if code != 0:
                out.append([f"study {name}: exit code {code}"])
                continue
            out_dir = self._out(op, name)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            artifact_bytes += sum(len(b) for b in files.values())
            if name == "sweep":
                problems = checks.check_sweep(out_dir, self.sweep_values, "euclidean", STUDY_P)
            else:
                problems = checks.check_study_output(name, out_dir)
            # artifacts of the first round are the reference for every later one
            reference = self.reference.setdefault(name, files)
            if files != reference:
                problems.append(f"study {name}: artifacts differ from an earlier invocation "
                                "with the same seed")
            out.append(problems)
        self.tracer.artifact_bytes[op] = artifact_bytes
        shutil.rmtree(self.work_dir / f"op{op}")
        return out


def build(name, seed, tracer, work_dir):
    if name == "tall":
        return TallWorkload(seed, tracer)
    if name == "wide":
        return WideWorkload(seed, tracer)
    return StudyWorkload(seed, tracer, work_dir)


WORKLOADS = ("tall", "wide", "study")
