"""Command line interface: batch experiment runner and metric emitter.

Four subcommands: ``eval`` (quantile/superquantile of a sample), ``fit``
(mean-loss baseline vs smoothed tail-risk model on a CSV dataset),
``experiment`` (the named studies), and ``sweep-nu`` (smoothing-strength
sweep at a fixed model).  Output is JSON reports plus CSV data files; no
plotting here, figures are made from the CSVs by external tooling.

Exit codes: 0 on success (a reported optimizer failure still counts as a
run), 2 on usage or data errors.  A command raises ``ValueError`` (or the
``OSError`` of a file it cannot read) for such an error; :func:`main` alone
prints it as ``error: ...`` and returns 2.  With a fixed seed every written
artifact is byte-identical across runs on one platform; :func:`main` times
each command and prints the wall time of one that succeeds, to stderr only.
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

from .core import (_check_integer, as_sample, check_tail, quantile, superquantile_dual, superquantile_integral,
                   superquantile_variational)
from .data import load_csv
from .experiments import (
    STUDY_SMOOTHING,
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
from .models import LOSSES, ModelSpec, pointwise_loss_map
from .smoothing import _KINDS, SmoothingSpec, smoothed_superquantile

EXPERIMENTS = ("toyreg", "federated", "fairness", "abalone", "credit", "convergence")
# the studies that read a dataset, and the file each looks for in SQOPT_DATA_DIR
DATASET_FILES = {"abalone": "abalone.csv", "credit": "australian.csv"}

__all__ = ["main", "entry"]


def _tail_level(text: str) -> float:
    value = float(text)  # a ValueError here is argparse's "invalid _tail_level value"
    try:
        return check_tail(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    value = int(text)  # a ValueError here is argparse's "invalid _seed value"
    try:
        return _check_integer(value, "seed", 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
                writer.writerows(rows)


def cmd_eval(args) -> None:
    if args.smoothing is not None and args.nu is None:
        raise ValueError("--smoothing applies only with --nu")
    values = _read_values(args)
    spec = None if args.nu is None else SmoothingSpec(args.smoothing or STUDY_SMOOTHING.kind, args.nu)
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


def cmd_fit(args) -> None:
    # both specs are checked before the data is read, the strength first
    settings = FitSettings(smoothing=SmoothingSpec(args.smoothing, args.nu),
                           model=ModelSpec(*args.model, loss=args.loss),
                           p=args.p, reg=args.reg, train_fraction=args.split, seed=args.seed)
    dataset = load_csv(args.data, task=settings.model.task)
    report, predictions = fit_models(dataset, settings)
    weight_rows = [{"model": name, "index": i, "value": v}
                   for name, entry in report["models"].items()
                   for i, v in enumerate(entry["optim"]["weights"])]
    _write_artifacts(args.out, report, predictions=predictions, weights=weight_rows)
    for name, entry in report["models"].items():
        print(f"{name}: status={entry['optim']['status']} test={entry['metrics']['test']}")


def _study_dataset(name: str, args):
    """The dataset of study ``name``: synthetic, ``--data``, or its file in SQOPT_DATA_DIR."""
    if args.synthetic:
        return synthetic_credit(seed=args.seed)
    data_path = args.data
    data_dir = os.environ.get("SQOPT_DATA_DIR")
    if data_path is None and data_dir:
        candidate = Path(data_dir) / DATASET_FILES[name]
        if candidate.exists():
            data_path = str(candidate)
    if data_path is None:
        raise ValueError(f"experiment {name!r} needs --data (or SQOPT_DATA_DIR) pointing "
                         "to a local CSV (see scripts/fetch_datasets.py)")
    return load_csv(data_path, task="classification" if name == "credit" else "regression")


def cmd_experiment(args) -> None:
    name = args.name
    if args.synthetic and name != "credit":
        raise ValueError("--synthetic is for experiment 'credit' only")
    if args.data is not None and name not in DATASET_FILES:
        raise ValueError(f"experiment {name!r} reads no dataset, --data does not apply")
    # built per call, so that it holds whatever the module's run_* names are bound to now
    studies = {"toyreg": run_toyreg, "federated": run_federated, "fairness": run_fairness,
               "abalone": run_abalone, "credit": run_credit, "convergence": run_convergence}
    inputs = (_study_dataset(name, args),) if name in DATASET_FILES else ()
    report, rows = studies[name](*inputs, seed=args.seed)
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


def cmd_sweep_nu(args) -> None:
    if args.data is None:
        if args.values is None and args.input is None:
            raise ValueError("sweep-nu needs --values/--input or --data with --weights/--fit-first")
        given = {"--weights": args.weights, "--fit-first": args.fit_first or None,
                 "--loss": args.loss, "--model": args.model, "--nu": args.nu}
        model_flags = [flag for flag, value in given.items() if value is not None]
        if model_flags:
            raise ValueError(f"{', '.join(model_flags)} apply only with --data")
        values = _read_values(args)
    else:
        if args.weights is not None and args.nu is not None:
            raise ValueError("--nu applies only with --fit-first")
        if args.weights is None and not args.fit_first:
            raise ValueError("provide --weights FILE or --fit-first with --data")
        nu = STUDY_SMOOTHING.nu if args.nu is None else args.nu
        # both specs are checked before the data is read; --weights leaves the strength at its default
        settings = FitSettings(model=ModelSpec(*(args.model or ()), loss=args.loss or ModelSpec.loss),
                               p=args.p, smoothing=SmoothingSpec(args.smoothing, nu), seed=args.seed)
        dataset = load_csv(args.data, task=settings.model.task)
        loss_map = pointwise_loss_map(dataset, settings.model)
        if args.weights is not None:
            w = np.array([float(v) for v in Path(args.weights).read_text(encoding="utf-8").split()])
            if w.size != loss_map.dim:
                raise ValueError(f"--weights file has {w.size} values, the model has {loss_map.dim} parameters")
        else:
            report, _ = fit_models(dataset, settings)
            w = np.array(report["models"]["superquantile"]["optim"]["weights"])
        values = loss_map.eval(w)

    report, rows, weight_rows = run_sweep(values, args.p, kind=args.smoothing, grid=args.grid)
    _write_artifacts(args.out, report, sweep=rows, weights_by_nu=weight_rows)
    print(json.dumps(report["endpoints"], indent=2, sort_keys=True))


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
                        help=f"divergence of the smoothed value, needs --nu (default: {STUDY_SMOOTHING.kind})")
    p_eval.set_defaults(func=cmd_eval)

    p_fit = sub.add_parser("fit", help="train mean-loss and tail-risk models on a CSV", allow_abbrev=False)
    p_fit.add_argument("--data", required=True)
    defaults = FitSettings()  # of fit, and of sweep-nu's model and seed
    p_fit.add_argument("--loss", choices=LOSSES, default=defaults.model.loss)
    p_fit.add_argument("--model", type=_parse_model, default=(defaults.model.kind, defaults.model.degree))
    p_fit.add_argument("--p", type=_tail_level, default=defaults.p)
    p_fit.add_argument("--nu", type=float, default=STUDY_SMOOTHING.nu)
    p_fit.add_argument("--smoothing", choices=tuple(_KINDS), default=STUDY_SMOOTHING.kind)
    p_fit.add_argument("--reg", type=float, default=defaults.reg)
    p_fit.add_argument("--seed", type=_seed, default=defaults.seed)
    p_fit.add_argument("--split", type=float, default=defaults.train_fraction, help="train fraction")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_exp = sub.add_parser("experiment", help="run a named study", allow_abbrev=False)
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--seed", type=_seed, default=0)
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
    p_sweep.add_argument("--loss", choices=LOSSES, default=None,
                         help=f"--data mode only (default: {defaults.model.loss})")
    p_sweep.add_argument("--model", type=_parse_model, default=None,
                         help=f"--data mode only (default: {defaults.model.kind})")
    sweep_point = p_sweep.add_mutually_exclusive_group()
    sweep_point.add_argument("--weights", default=None, help="file of fixed model weights")
    sweep_point.add_argument("--fit-first", action="store_true",
                             help="fit the tail-risk model first, sweep at its solution")
    p_sweep.add_argument("--p", type=_tail_level, required=True)
    p_sweep.add_argument("--nu", type=float, default=None,
                         help=f"strength used by --fit-first (default: {STUDY_SMOOTHING.nu})")
    p_sweep.add_argument("--smoothing", choices=tuple(_KINDS), default=STUDY_SMOOTHING.kind)
    p_sweep.add_argument("--grid", type=_float_list, default=None,
                         help="comma-separated nu grid (default: log-spaced around the data scale)")
    p_sweep.add_argument("--seed", type=_seed, default=defaults.seed, help="read by --fit-first only")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep_nu)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall time: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
