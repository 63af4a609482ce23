"""Command line interface: batch experiment runner and metric emitter.

Four subcommands: ``eval`` (quantile/superquantile of a sample), ``fit``
(mean-loss baseline vs smoothed tail-risk model on a CSV dataset),
``experiment`` (the named studies), and ``sweep-nu`` (smoothing-strength
sweep at a fixed model).  Output is JSON reports plus CSV data files; no
plotting here, figures are made from the CSVs by external tooling.

Exit codes: 0 on success (a reported optimizer failure still counts as a
run), 2 on usage or data errors.  With a fixed seed every written artifact is
byte-identical across runs on one platform; wall time goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .core import as_sample, quantile, superquantile_dual, superquantile_integral, superquantile_variational
from .data import load_csv
from .experiments import (
    FitSettings,
    fit_models,
    run_abalone,
    run_convergence,
    run_credit,
    run_fairness,
    run_federated,
    run_sweep,
    run_toyreg,
    synthetic_credit,
)
from .models import ModelSpec, pointwise_loss_map
from .smoothing import _KINDS, SmoothingSpec, smoothed_superquantile

EXPERIMENTS = ("toyreg", "federated", "fairness", "abalone", "credit", "convergence")
# the studies that read a dataset, and the file each looks for in SQOPT_DATA_DIR
DATASET_FILES = {"abalone": "abalone.csv", "credit": "australian.csv"}

__all__ = ["main", "entry"]


def _tail_level(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"p must be in [0, 1), got {text}")
    return value


def _parse_model(text: str) -> tuple[str, int]:
    if text == "linear":
        return "linear", 1
    match = re.fullmatch(r"poly(\d+)", text)
    if match:
        return "polynomial", int(match.group(1))
    raise argparse.ArgumentTypeError(f"model must be 'linear' or 'polyK', got {text!r}")


def _float_list(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _read_values(args) -> np.ndarray:
    """The sample of ``--values`` or ``--input``, checked before anything is printed or written."""
    if args.values is not None:
        return as_sample(_float_list(args.values))
    cells = []
    with open(args.input, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            cells.extend(float(c) for c in row if c.strip() != "")
    return as_sample(cells)


def _write_artifacts(out: str, report: dict, **tables: list[dict]) -> None:
    """Write ``report.json`` and one ``<keyword>.csv`` per table of row dicts into ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for stem, rows in tables.items():
        with open(out / f"{stem}.csv", "w", newline="", encoding="utf-8") as handle:
            if rows:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
                                 for row in rows)


def _print_wall_time(started: float) -> None:
    print(f"wall time: {time.perf_counter() - started:.2f}s", file=sys.stderr)


def cmd_eval(args) -> int:
    if args.smoothing is not None and args.nu is None:
        print("error: --smoothing applies only with --nu", file=sys.stderr)
        return 2
    values = _read_values(args)
    spec = None if args.nu is None else SmoothingSpec(args.smoothing or "euclidean", args.nu)
    p = args.p
    print(f"n: {values.size}")
    print(f"p: {p!r}")
    print(f"quantile: {quantile(values, p)!r}")
    print(f"superquantile_integral: {superquantile_integral(values, p)!r}")
    dual_value, weights = superquantile_dual(values, p)
    print(f"superquantile_dual: {dual_value!r}")
    var_value, eta = superquantile_variational(values, p)
    print(f"superquantile_variational: {var_value!r} (threshold {eta!r})")
    if spec is not None:
        smoothed, smooth_weights = smoothed_superquantile(values, spec, p)
        print(f"smoothed ({spec.kind}, nu={spec.nu!r}): {smoothed!r}")
        print(f"smoothed weights: min={float(smooth_weights.min())!r} "
              f"max={float(smooth_weights.max())!r} sum={float(smooth_weights.sum())!r} "
              f"nonzero={int((smooth_weights > 0).sum())}")
    return 0


def cmd_fit(args) -> int:
    started = time.perf_counter()
    task = "classification" if args.loss == "logistic" else "regression"
    dataset = load_csv(args.data, task=task)
    kind, degree = args.model
    settings = FitSettings(loss=args.loss, model_kind=kind, degree=degree, p=args.p,
                           nu=args.nu, smoothing=args.smoothing, reg=args.reg,
                           train_fraction=args.split, seed=args.seed)
    report, predictions = fit_models(dataset, settings)
    weight_rows = [{"model": name, "index": i, "value": v}
                   for name, entry in report["models"].items()
                   for i, v in enumerate(entry["optim"]["weights"])]
    _write_artifacts(args.out, report, predictions=predictions, weights=weight_rows)
    for name, entry in report["models"].items():
        print(f"{name}: status={entry['optim']['status']} test={entry['metrics']['test']}")
    _print_wall_time(started)
    return 0


def cmd_experiment(args) -> int:
    started = time.perf_counter()
    name = args.name
    if args.synthetic and name != "credit":
        print("error: --synthetic is for experiment 'credit' only", file=sys.stderr)
        return 2
    if args.data is not None and name not in DATASET_FILES:
        print(f"error: experiment {name!r} reads no dataset, --data does not apply", file=sys.stderr)
        return 2
    if name in DATASET_FILES:
        if args.synthetic:
            dataset = synthetic_credit(seed=args.seed)
        else:
            data_path = args.data
            data_dir = os.environ.get("SQOPT_DATA_DIR")
            if data_path is None and data_dir:
                candidate = Path(data_dir) / DATASET_FILES[name]
                if candidate.exists():
                    data_path = str(candidate)
            if data_path is None:
                print(f"error: experiment {name!r} needs --data (or SQOPT_DATA_DIR) pointing "
                      "to a local CSV (see scripts/fetch_datasets.py)", file=sys.stderr)
                return 2
            task = "classification" if name == "credit" else "regression"
            dataset = load_csv(data_path, task=task)
        if name == "abalone":
            report, rows = run_abalone(dataset, seed=args.seed)
        else:
            report, rows = run_credit(dataset, seed=args.seed)
    elif name == "toyreg":
        report, rows = run_toyreg(seed=args.seed)
    elif name == "federated":
        report, rows = run_federated(seed=args.seed)
    elif name == "fairness":
        report, rows = run_fairness(seed=args.seed)
    else:
        report, rows = run_convergence(seed=args.seed)

    _write_artifacts(args.out, report, predictions=rows)
    summary = {k: v for k, v in report.items() if k in
               ("experiment", "median_gaps", "strictly_decreasing", "subgroup_gap",
                "worst_subgroup_loss", "summary")}
    if "models" in report:
        summary["models"] = {
            name: entry["metrics"]["test"] if "metrics" in entry else entry.get("subgroup_losses")
            for name, entry in report["models"].items()
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    _print_wall_time(started)
    return 0


def cmd_sweep_nu(args) -> int:
    started = time.perf_counter()
    if args.data is None:
        if args.values is None and args.input is None:
            print("error: sweep-nu needs --values/--input or --data with --weights/--fit-first",
                  file=sys.stderr)
            return 2
        given = {"--weights": args.weights, "--fit-first": args.fit_first or None,
                 "--loss": args.loss, "--model": args.model, "--nu": args.nu}
        model_flags = [flag for flag, value in given.items() if value is not None]
        if model_flags:
            print(f"error: {', '.join(model_flags)} apply only with --data", file=sys.stderr)
            return 2
        values = _read_values(args)
    else:
        if args.weights is not None and args.nu is not None:
            print("error: --nu applies only with --fit-first", file=sys.stderr)
            return 2
        loss = args.loss or "squared"
        task = "classification" if loss == "logistic" else "regression"
        dataset = load_csv(args.data, task=task)
        kind, degree = args.model or ("linear", 1)
        model = ModelSpec(kind=kind, degree=degree, loss=loss)
        loss_map = pointwise_loss_map(dataset, model)
        if args.weights is not None:
            with open(args.weights, encoding="utf-8") as handle:
                w = np.array([float(line) for line in handle.read().split() if line.strip()])
            if w.size != loss_map.dim:
                raise ValueError(f"--weights file has {w.size} values, the model has {loss_map.dim} parameters")
        elif args.fit_first:
            settings = FitSettings(loss=loss, model_kind=kind, degree=degree, p=args.p,
                                   nu=0.1 if args.nu is None else args.nu,
                                   smoothing=args.smoothing, seed=args.seed)
            report, _ = fit_models(dataset, settings)
            w = np.array(report["models"]["superquantile"]["optim"]["weights"])
        else:
            print("error: provide --weights FILE or --fit-first with --data", file=sys.stderr)
            return 2
        values = loss_map.eval(w)

    report, rows, weight_rows = run_sweep(values, args.p, kind=args.smoothing, grid=args.grid)
    _write_artifacts(args.out, report, sweep=rows, weights_by_nu=weight_rows)
    print(json.dumps(report["endpoints"], indent=2, sort_keys=True))
    _print_wall_time(started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev is per parser: a long option must be spelled in full on every command
    parser = argparse.ArgumentParser(prog="sqopt", allow_abbrev=False,
                                     description="Superquantile optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="quantile and superquantile of a sample", allow_abbrev=False)
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file of loss values")
    src.add_argument("--values", help="comma-separated loss values")
    p_eval.add_argument("--p", type=_tail_level, required=True)
    p_eval.add_argument("--nu", type=float, default=None, help="also report the smoothed value")
    p_eval.add_argument("--smoothing", choices=tuple(_KINDS), default=None,
                        help="divergence of the smoothed value, needs --nu (default: euclidean)")
    p_eval.set_defaults(func=cmd_eval)

    p_fit = sub.add_parser("fit", help="train mean-loss and tail-risk models on a CSV", allow_abbrev=False)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--loss", choices=("squared", "logistic"), default="squared")
    p_fit.add_argument("--model", type=_parse_model, default=("linear", 1))
    p_fit.add_argument("--p", type=_tail_level, default=0.9)
    p_fit.add_argument("--nu", type=float, default=0.1)
    p_fit.add_argument("--smoothing", choices=tuple(_KINDS), default="euclidean")
    p_fit.add_argument("--reg", type=float, default=0.0)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--split", type=float, default=0.8, help="train fraction")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_exp = sub.add_parser("experiment", help="run a named study", allow_abbrev=False)
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", required=True)
    exp_source = p_exp.add_mutually_exclusive_group()
    exp_source.add_argument("--data", default=None, help="dataset CSV for abalone/credit")
    exp_source.add_argument("--synthetic", action="store_true",
                            help="credit only: use the bundled synthetic stand-in dataset")
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser("sweep-nu", help="smoothed value across smoothing strengths", allow_abbrev=False)
    sweep_source = p_sweep.add_mutually_exclusive_group()
    sweep_source.add_argument("--values", default=None, help="comma-separated loss values")
    sweep_source.add_argument("--input", default=None, help="CSV file of loss values")
    sweep_source.add_argument("--data", default=None, help="dataset CSV (model mode)")
    p_sweep.add_argument("--loss", choices=("squared", "logistic"), default=None,
                         help="--data mode only (default: squared)")
    p_sweep.add_argument("--model", type=_parse_model, default=None,
                         help="--data mode only (default: linear)")
    sweep_point = p_sweep.add_mutually_exclusive_group()
    sweep_point.add_argument("--weights", default=None, help="file of fixed model weights")
    sweep_point.add_argument("--fit-first", action="store_true",
                             help="fit the tail-risk model first, sweep at its solution")
    p_sweep.add_argument("--p", type=_tail_level, required=True)
    p_sweep.add_argument("--nu", type=float, default=None,
                         help="strength used by --fit-first (default: 0.1)")
    p_sweep.add_argument("--smoothing", choices=tuple(_KINDS), default="euclidean")
    p_sweep.add_argument("--grid", type=_float_list, default=None,
                         help="comma-separated nu grid (default: log-spaced around the data scale)")
    p_sweep.add_argument("--seed", type=int, default=0, help="read by --fit-first only")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep_nu)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
