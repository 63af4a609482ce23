"""Command line surface: flags, artifacts, determinism, error codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqopt.cli import build_parser, main
from sqopt.experiments import STUDY_SMOOTHING, FitSettings, synthetic_credit
from sqopt.models import LOSSES, ModelSpec
from sqopt.smoothing import SmoothingSpec


def run(args):
    return main(args)


def exit_code(args):
    """Exit status of a run, whether argparse or the command rejects the arguments."""
    try:
        return run(args)
    except SystemExit as err:
        return err.code


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def regression_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 3, 120)
    y = 1 - 2 * x + x**2 + rng.normal(0, 1, 120)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path = tmp_path / "reg.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def classification_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 160
    y = np.where(rng.uniform(size=n) < 0.55, 1.0, -1.0)
    x = rng.uniform(-1.2, 1.2, (n, 3)) + 0.8 * y[:, None]
    rows = ["a,b,c,label"] + [f"{float(r[0])!r},{float(r[1])!r},{float(r[2])!r},"
                              f"{'good' if t > 0 else 'bad'}" for r, t in zip(x, y)]
    path = tmp_path / "cls.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestEval:
    def test_values_output(self, capsys):
        assert run(["eval", "--values", "1,2,3,4", "--p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "quantile: 2.0" in out
        assert "superquantile_integral: 3.5" in out
        assert "superquantile_dual: 3.5" in out
        assert "superquantile_variational: 3.5" in out

    def test_p_zero_is_mean(self, capsys):
        assert run(["eval", "--values", "1,2,3,4", "--p", "0"]) == 0
        assert "superquantile_integral: 2.5" in capsys.readouterr().out

    def test_smoothed_section(self, capsys):
        assert run(["eval", "--values", "0,1", "--p", "0.5", "--nu", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "smoothed (euclidean, nu=4.0): 0.5625" in out

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        assert run(["eval", "--input", str(path), "--p", "0.5"]) == 0
        assert "superquantile_integral: 3.5" in capsys.readouterr().out

    def test_p_one_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["eval", "--values", "1,2", "--p", "1"])
        assert err.value.code == 2

    def test_smoothing_without_nu_rejected(self, capsys):
        assert run(["eval", "--values", "1,2,3", "--p", "0.5", "--smoothing", "kl"]) == 2
        assert "only with --nu" in capsys.readouterr().err


class TestModuleEntry:
    @staticmethod
    def checkout_env():
        src = Path(__file__).resolve().parents[1] / "src"
        return dict(os.environ, PYTHONPATH=str(src))

    def test_python_dash_m_from_checkout(self):
        proc = subprocess.run([sys.executable, "-m", "sqopt", "eval", "--values", "1,2,3", "--p", "0.5"],
                              env=self.checkout_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout

    def test_import_loads_no_quadrature_or_optimizer(self):
        # the library needs numpy only; every scipy module is a test oracle
        code = ("import sys, sqopt, sqopt.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], env=self.checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, classification_csv, tmp_path):
        # an installed scipy that cannot be imported, as in an install without the test extra
        code = f"""
import sys
sys.modules["scipy"] = None
from sqopt import DensitySpec, conv_smoothed_positive_part
from sqopt.cli import main
assert main(["eval", "--values", "1,2,3,4", "--p", "0.5", "--nu", "0.1", "--smoothing", "kl"]) == 0
assert main(["fit", "--data", {classification_csv!r}, "--loss", "logistic", "--out", {str(tmp_path / "fit")!r}]) == 0
assert main(["experiment", "credit", "--synthetic", "--out", {str(tmp_path / "credit")!r}]) == 0
print(conv_smoothed_positive_part([-1.0, 0.0, 1.0], DensitySpec("gaussian"), 1.0).tolist())
"""
        proc = subprocess.run([sys.executable, "-c", code], env=self.checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fit" / "report.json").exists() and (tmp_path / "credit" / "report.json").exists()
        from scipy.special import ndtr

        expected = [x * ndtr(x) + math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) for x in (-1.0, 0.0, 1.0)]
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == pytest.approx(expected, rel=1e-12)


class TestFit:
    def test_artifacts_and_roundtrip(self, regression_csv, tmp_path):
        out = tmp_path / "fit"
        code = run(["fit", "--data", regression_csv, "--model", "poly2", "--p", "0.9",
                    "--nu", "0.1", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        rows = read_csv(out / "predictions.csv")
        assert report["models"]["erm"]["optim"]["status"] == "converged"
        assert len(rows) == report["n_rows"]
        # recompute every reported test metric from the predictions file
        for model_key, column in (("erm", "prediction_erm"),
                                  ("superquantile", "prediction_superquantile")):
            test_rows = [r for r in rows if r["split"] == "test"]
            residuals = np.abs([float(r["target"]) - float(r[column]) for r in test_rows])
            metrics = report["models"][model_key]["metrics"]["test"]
            assert metrics["residual_mean"] == float(residuals.mean())
            assert metrics["residual_p90"] == float(np.percentile(residuals, 90))
            assert metrics["residual_p95"] == float(np.percentile(residuals, 95))

    def test_byte_identical_reports(self, regression_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["fit", "--data", regression_csv, "--model", "poly2",
                        "--seed", "9", "--out", str(out)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "predictions.csv").read_bytes() == (out_b / "predictions.csv").read_bytes()

    def test_classification_metrics_roundtrip(self, classification_csv, tmp_path):
        out = tmp_path / "cls_fit"
        code = run(["fit", "--data", classification_csv, "--loss", "logistic", "--p", "0.9",
                    "--reg", "1.0", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        rows = [r for r in read_csv(out / "predictions.csv") if r["split"] == "test"]
        margins = np.array([float(r["prediction_erm"]) for r in rows])
        targets = np.array([float(r["target"]) for r in rows])
        accuracy = float((np.where(margins > 0, 1.0, -1.0) == targets).mean())
        assert report["models"]["erm"]["metrics"]["test"]["accuracy"] == accuracy

    def test_optimizer_failure_still_exits_zero(self, regression_csv, tmp_path):
        # near-nonsmooth regime: the line search gives up, the run reports it
        out = tmp_path / "tiny_nu"
        code = run(["fit", "--data", regression_csv, "--model", "poly2", "--p", "0.9",
                    "--nu", "1e-12", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["models"]["superquantile"]["optim"]["status"] == "line_search_failure"
        assert (out / "predictions.csv").exists()

    @pytest.mark.parametrize("flags,config", [
        ([], {"loss": "squared", "model_kind": "linear", "degree": 1, "p": 0.9, "nu": 0.1,
              "smoothing": "euclidean", "reg": 0.0, "train_fraction": 0.8}),
        (["--model", "poly2", "--p", "0.8", "--nu", "0.3", "--smoothing", "kl", "--reg", "0.5",
          "--split", "0.7"],
         {"loss": "squared", "model_kind": "polynomial", "degree": 2, "p": 0.8, "nu": 0.3,
          "smoothing": "kl", "reg": 0.5, "train_fraction": 0.7}),
    ])
    def test_config_records_every_setting(self, flags, config, regression_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", regression_csv, *flags, "--seed", "3", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["config"] == config
        assert report["seed"] == 3

    def test_logistic_config(self, classification_csv, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", "--data", classification_csv, "--loss", "logistic", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["config"] == {"loss": "logistic", "model_kind": "linear", "degree": 1, "p": 0.9,
                                    "nu": 0.1, "smoothing": "euclidean", "reg": 0.0, "train_fraction": 0.8}
        assert report["task"] == "classification"

    def test_missing_data_file(self, tmp_path):
        assert run(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_negative_reg_exits_2(self, regression_csv, tmp_path, capsys):
        assert run(["fit", "--data", regression_csv, "--reg", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "reg must be nonnegative" in capsys.readouterr().err

    def test_infinite_reg_exits_2(self, regression_csv, tmp_path, capsys):
        assert run(["fit", "--data", regression_csv, "--reg", "inf", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "reg must be nonnegative" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_split_outside_open_interval_exits_2(self, regression_csv, tmp_path, capsys):
        assert run(["fit", "--data", regression_csv, "--split", "1.5", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "train_fraction must be in (0, 1)" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_bad_model_flag(self, regression_csv, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["fit", "--data", regression_csv, "--model", "tree", "--out", str(tmp_path / "o")])
        assert err.value.code == 2


class TestExperiment:
    def test_toyreg_writes_report(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert run(["experiment", "toyreg", "--seed", "0", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["experiment"] == "toyreg"
        assert report["config"] == {"loss": "squared", "model_kind": "polynomial", "degree": 2, "p": 0.9,
                                    "nu": 0.1, "smoothing": "euclidean", "reg": 0.0, "train_fraction": 0.8}
        assert report["task"] == "regression"
        assert (out / "predictions.csv").exists()

    def test_missing_dataset_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SQOPT_DATA_DIR", raising=False)
        assert run(["experiment", "abalone", "--out", str(tmp_path / "x")]) == 2
        assert "needs --data" in capsys.readouterr().err

    def test_study_looked_up_at_call_time(self, tmp_path, monkeypatch, capsys):
        # perfbench wraps the module's run_* names; the command must call whatever they are bound to
        calls = []

        def stub(seed):
            calls.append(seed)
            return {"experiment": "stub"}, [{"x": 1}]

        monkeypatch.setattr("sqopt.cli.run_toyreg", stub)
        assert run(["experiment", "toyreg", "--seed", "7", "--out", str(tmp_path / "t")]) == 0
        assert calls == [7]
        assert read_json(tmp_path / "t" / "report.json") == {"experiment": "stub"}

    def test_data_dir_env_var(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        n = 60
        x = rng.uniform(0, 1, (n, 2))
        y = x @ np.array([1.0, -1.0]) + rng.normal(0, 0.1, n)
        lines = ["a,b,rings"] + [f"{float(r[0])!r},{float(r[1])!r},{float(t)!r}"
                                 for r, t in zip(x, y)]
        data_dir = tmp_path / "datadir"
        data_dir.mkdir()
        (data_dir / "abalone.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("SQOPT_DATA_DIR", str(data_dir))
        out = tmp_path / "aba_env"
        assert run(["experiment", "abalone", "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_credit_synthetic_smoke(self, tmp_path):
        out = tmp_path / "credit"
        assert run(["experiment", "credit", "--synthetic", "--seed", "0", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert len(report["per_seed"]) == 5
        for entry in report["per_seed"]:
            fits = entry["optim"]
            for model in ("erm", "superquantile"):
                assert fits[model]["status"] == "converged"
                assert fits[model]["iterations"] > 0
            assert fits["cv_not_converged"] == 0

    def test_abalone_style_run(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 80
        x = rng.uniform(0, 1, (n, 3))
        y = x @ np.array([3.0, -1.0, 2.0]) + rng.normal(0, 0.2, n)
        lines = ["l,d,h,rings"] + [f"{float(r[0])!r},{float(r[1])!r},{float(r[2])!r},{float(t)!r}"
                                   for r, t in zip(x, y)]
        data = tmp_path / "aba.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "aba_out"
        assert run(["experiment", "abalone", "--data", str(data), "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["config"]["p"] == 0.98

    def test_synthetic_ignores_data_dir(self, tmp_path, monkeypatch):
        # a small australian.csv in the data directory must not replace the stand-in
        rng = np.random.default_rng(6)
        rows = ["a,b,label"] + [f"{float(a)!r},{float(b)!r},{int(t)}"
                                for (a, b), t in zip(rng.normal(0, 1, (40, 2)), rng.integers(0, 2, 40))]
        data_dir = tmp_path / "datadir"
        data_dir.mkdir()
        (data_dir / "australian.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        monkeypatch.setenv("SQOPT_DATA_DIR", str(data_dir))
        out = tmp_path / "credit"
        assert run(["experiment", "credit", "--synthetic", "--seed", "0", "--out", str(out)]) == 0
        assert len(read_csv(out / "predictions.csv")) == synthetic_credit().n_rows

    def test_synthetic_with_data_rejected(self, classification_csv, tmp_path):
        assert exit_code(["experiment", "credit", "--synthetic", "--data", classification_csv,
                          "--out", str(tmp_path / "x")]) == 2

    def test_synthetic_for_abalone_rejected(self, regression_csv, tmp_path, monkeypatch):
        data_dir = tmp_path / "datadir"
        data_dir.mkdir()
        (data_dir / "abalone.csv").write_text(Path(regression_csv).read_text(encoding="utf-8"),
                                              encoding="utf-8")
        monkeypatch.setenv("SQOPT_DATA_DIR", str(data_dir))
        assert exit_code(["experiment", "abalone", "--synthetic", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flag", [["--data", "/nonexistent.csv"], ["--synthetic"]])
    @pytest.mark.parametrize("name", ["toyreg", "convergence"])
    def test_dataset_flags_rejected_where_no_dataset_is_read(self, name, flag, tmp_path, capsys):
        assert exit_code(["experiment", name, *flag, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_convergence_runs(self, tmp_path):
        out = tmp_path / "conv"
        assert run(["experiment", "convergence", "--seed", "0", "--out", str(out)]) == 0
        assert len(read_csv(out / "predictions.csv")) == 200
        assert len(read_json(out / "report.json")["median_gaps"]) == 4


# the columns whose cells are labels, and their labels; every other cell must be a plain number
LABELS = {"split": {"train", "test"}, "model": {"erm", "superquantile"}}


@pytest.mark.parametrize("command", [
    ["fit", "--data", "{reg}", "--model", "poly2"],
    ["experiment", "toyreg"],
    ["experiment", "federated"],
    ["experiment", "credit", "--synthetic"],
    ["sweep-nu", "--values", "0.1,0.9,2.3,0.4", "--p", "0.5"],
], ids=["fit", "toyreg", "federated", "credit", "sweep-nu"])
def test_every_csv_cell_is_a_number_or_a_label(command, regression_csv, tmp_path):
    out = tmp_path / "out"
    assert run([arg.format(reg=regression_csv) for arg in command] + ["--out", str(out)]) == 0
    tables = sorted(out.glob("*.csv"))
    assert tables
    for table in tables:
        rows = read_csv(table)
        assert rows, table.name
        for row in rows:
            for column, cell in row.items():
                if column in LABELS:
                    assert cell in LABELS[column]
                else:
                    float(cell)


class TestSweep:
    def test_values_mode(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        values = ",".join(str(v) for v in np.random.default_rng(2).normal(0, 1, 60))
        assert run(["sweep-nu", "--values", values, "--p", "0.5", "--grid", "0.01,0.1,1",
                    "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["endpoints"]["small_ok"] and report["endpoints"]["large_ok"]
        rows = read_csv(out / "sweep.csv")
        assert [float(r["nu"]) for r in rows] == [0.01, 0.1, 1.0]
        weights = read_csv(out / "weights_by_nu.csv")
        assert len(weights) == 3 * 60

    def test_fit_first_mode(self, regression_csv, tmp_path):
        out = tmp_path / "sweep_fit"
        assert run(["sweep-nu", "--data", regression_csv, "--model", "poly2", "--fit-first",
                    "--p", "0.9", "--grid", "0.1,1", "--out", str(out)]) == 0
        assert (out / "weights_by_nu.csv").exists()

    @pytest.mark.parametrize("grid", [",", ""])
    def test_empty_grid_rejected(self, grid, tmp_path, capsys):
        assert run(["sweep-nu", "--values", "1,2,3", "--p", "0.5", "--grid", grid,
                    "--out", str(tmp_path / "s")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid is empty" in captured.err
        assert not (tmp_path / "s").exists()

    def test_requires_some_input(self, tmp_path, capsys):
        assert run(["sweep-nu", "--p", "0.5", "--out", str(tmp_path / "s")]) == 2

    def test_point_flags_checked_before_the_data_is_read(self, tmp_path, capsys):
        assert run(["sweep-nu", "--data", str(tmp_path / "nosuch.csv"), "--p", "0.8",
                    "--out", str(tmp_path / "s")]) == 2
        captured = capsys.readouterr()
        assert "--weights FILE or --fit-first" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "s").exists()

    def test_values_with_data_rejected(self, tmp_path, capsys):
        assert exit_code(["sweep-nu", "--values", "1,2,3", "--data", "/nonexistent.csv", "--p", "0.5",
                          "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    def test_weights_with_fit_first_rejected(self, regression_csv, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5\n", encoding="utf-8")
        assert exit_code(["sweep-nu", "--data", regression_csv, "--weights", str(weights),
                          "--fit-first", "--p", "0.9", "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    def test_fit_first_without_data_rejected(self, tmp_path, capsys):
        assert exit_code(["sweep-nu", "--values", "1,2,3", "--fit-first", "--p", "0.5",
                          "--out", str(tmp_path / "s")]) == 2
        assert "only with --data" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--loss", "logistic"], ["--model", "poly3"], ["--nu", "5"],
                                       ["--model", "poly3", "--loss", "logistic", "--nu", "5"]])
    def test_model_flags_without_data_rejected(self, flags, tmp_path, capsys):
        assert run(["sweep-nu", "--values", "1,2,3", "--p", "0.5", *flags,
                    "--out", str(tmp_path / "s")]) == 2
        assert "only with --data" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_weights_must_match_the_model(self, regression_csv, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5\n0.1\n", encoding="utf-8")
        args = ["sweep-nu", "--data", regression_csv, "--weights", str(weights), "--p", "0.9"]
        assert run([*args, "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "2 values" in err and "1 parameters" in err
        assert not (tmp_path / "s").exists()
        assert run([*args, "--model", "poly1", "--out", str(tmp_path / "ok")]) == 0

    def test_nu_with_weights_rejected(self, regression_csv, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5\n0.1\n", encoding="utf-8")
        assert run(["sweep-nu", "--data", regression_csv, "--weights", str(weights), "--nu", "0.5",
                    "--p", "0.9", "--out", str(tmp_path / "s")]) == 2
        assert "only with --fit-first" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestDefaultsComeFromTheLibrary:
    """fit and sweep-nu take their defaults from FitSettings, ModelSpec and STUDY_SMOOTHING, and restate none."""

    def test_fit(self):
        settings = FitSettings()
        assert settings.model == ModelSpec() and settings.smoothing == STUDY_SMOOTHING
        args = build_parser().parse_args(["fit", "--data", "d.csv", "--out", "o"])
        assert ModelSpec(*args.model, loss=args.loss) == ModelSpec()
        assert SmoothingSpec(args.smoothing, args.nu) == STUDY_SMOOTHING
        assert (args.p, args.reg, args.seed, args.split) == (settings.p, settings.reg, settings.seed,
                                                             settings.train_fraction)
        for loss in LOSSES:
            assert build_parser().parse_args(["fit", "--data", "d.csv", "--loss", loss, "--out", "o"]).loss == loss
        # the default model, spelled out
        linear = build_parser().parse_args(["fit", "--data", "d.csv", "--model", "linear", "--out", "o"])
        assert linear.model == args.model

    def test_sweep_nu(self, capsys):
        args = build_parser().parse_args(["sweep-nu", "--values", "1,2", "--p", "0.5", "--out", "o"])
        assert (args.smoothing, args.seed) == (STUDY_SMOOTHING.kind, FitSettings().seed)
        # unset, so that they are rejected without --data; the help names the defaults they fall back to
        assert (args.loss, args.model, args.nu) == (None, None, None)
        with pytest.raises(SystemExit):
            main(["sweep-nu", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for default in (ModelSpec().loss, ModelSpec().kind, STUDY_SMOOTHING.nu):
            assert f"(default: {default})" in help_text

    def test_eval_smoothing(self, capsys):
        assert run(["eval", "--values", "1,2,3", "--p", "0.5", "--nu", "0.1"]) == 0
        assert f"smoothed ({STUDY_SMOOTHING.kind}, nu=0.1)" in capsys.readouterr().out


class TestAbbreviatedOptionsRejected:
    """Every command takes its long options spelled in full only."""

    def test_eval(self, capsys):
        assert exit_code(["eval", "--val", "1,2", "--p", "0.5"]) == 2
        assert capsys.readouterr().out == ""

    def test_fit(self, regression_csv, tmp_path):
        assert exit_code(["fit", "--dat", regression_csv, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_experiment(self, tmp_path):
        assert exit_code(["experiment", "toyreg", "--se", "1", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--w", "--fit"])
    def test_sweep_nu(self, flag, regression_csv, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5\n", encoding="utf-8")  # the one parameter of the linear model
        point = [flag, str(weights)] if flag == "--w" else [flag]
        assert exit_code(["sweep-nu", "--data", regression_csv, *point, "--p", "0.9",
                          "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_top_level(self, capsys):
        assert exit_code(["--he"]) == 2

    def test_full_spellings_still_run(self, tmp_path):
        values = tmp_path / "vals.csv"
        values.write_text("0.1,0.9\n2.3,0.4\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["sweep-nu", "--input", str(values), "--p", "0.5", "--smoothing", "kl",
                    "--seed", "1", "--out", str(out)]) == 0
        assert (out / "report.json").exists()


class TestSeedFlag:
    """A ``--seed`` below 0 exits 2 at the flag, naming it, before any data is read."""

    @pytest.mark.parametrize("command", [["fit", "--data", "nosuch.csv"], ["experiment", "convergence"],
                                         ["sweep-nu", "--values", "1,2,3", "--p", "0.5"],
                                         ["sweep-nu", "--data", "nosuch.csv", "--fit-first", "--p", "0.9"]])
    def test_negative_seed(self, command, tmp_path, capsys):
        command = [str(tmp_path / arg) if arg == "nosuch.csv" else arg for arg in command]
        assert exit_code([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: seed must be an integer >= 0, got -1" in captured.err
        assert not (tmp_path / "o").exists()


class TestWallTime:
    """``main`` prints the wall time of a command that succeeds, on stderr, and none on an error."""

    def test_eval(self, capsys):
        assert run(["eval", "--values", "1,2,3", "--p", "0.5"]) == 0
        captured = capsys.readouterr()
        assert "wall time" not in captured.out
        assert captured.err.startswith("wall time: ")
        assert run(["eval", "--values", ",", "--p", "0.5"]) == 2
        assert "wall time" not in capsys.readouterr().err


class TestEmptyOrNonFiniteSample:
    """A bad sample exits 2 with the library's message before any output."""

    @pytest.mark.parametrize("values, message", [(",", "empty sample"),
                                                 ("1,inf", "sample values must be finite")])
    def test_eval(self, values, message, capsys):
        assert run(["eval", "--values", values, "--p", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_eval_input_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("\n", encoding="utf-8")
        assert run(["eval", "--input", str(path), "--p", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty sample" in captured.err

    def test_sweep_nu(self, tmp_path, capsys):
        assert run(["sweep-nu", "--values", "", "--p", "0.5", "--out", str(tmp_path / "s")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty sample" in captured.err
        assert not (tmp_path / "s").exists()


class TestBadStrengthBeforeOutput:
    """A strength that is not positive and finite exits 2 before any output or fit."""

    @pytest.mark.parametrize("nu", ["-1", "0", "nan"])
    def test_eval(self, nu, capsys):
        assert run(["eval", "--values", "1,2,3", "--p", "0.5", "--nu", nu]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nu must be positive" in captured.err

    @pytest.mark.parametrize("command", [["fit"], ["sweep-nu", "--fit-first"]])
    def test_no_fit_runs(self, command, regression_csv, tmp_path, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr("sqopt.experiments.minimize", lambda *args: fits.append(args))
        assert run([*command, "--data", regression_csv, "--p", "0.9", "--nu", "-1",
                    "--out", str(tmp_path / "o")]) == 2
        assert fits == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nu must be positive" in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["fit"], ["sweep-nu", "--fit-first"]])
    def test_checked_before_the_data_is_read(self, command, tmp_path, capsys):
        # the strength is checked before the --data file is opened
        assert run([*command, "--data", str(tmp_path / "nosuch.csv"), "--p", "0.9", "--nu", "-1",
                    "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nu must be positive" in captured.err
        assert not (tmp_path / "o").exists()
