"""Command line surface: flags, artifacts, determinism, error codes."""

import csv
import json

import numpy as np
import pytest

from sqopt.cli import main


def run(args):
    return main(args)


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

    def test_missing_data_file(self, tmp_path):
        assert run(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_negative_reg_exits_2(self, regression_csv, tmp_path, capsys):
        assert run(["fit", "--data", regression_csv, "--reg", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "reg must be nonnegative" in capsys.readouterr().err

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
        assert (out / "predictions.csv").exists()

    def test_missing_dataset_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SQOPT_DATA_DIR", raising=False)
        assert run(["experiment", "abalone", "--out", str(tmp_path / "x")]) == 2
        assert "needs --data" in capsys.readouterr().err

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

    def test_convergence_runs(self, tmp_path):
        out = tmp_path / "conv"
        # shrink the study via the library entry; the CLI default is the full one
        from sqopt.experiments import run_convergence
        report, rows = run_convergence(seed=0, sizes=(100, 1000), replicates=5,
                                       reference_size=10_000)
        assert len(rows) == 10
        assert len(report["median_gaps"]) == 2


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

    def test_requires_some_input(self, tmp_path, capsys):
        assert run(["sweep-nu", "--p", "0.5", "--out", str(tmp_path / "s")]) == 2
