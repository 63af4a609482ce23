"""Experiment drivers: determinism, structure, recomputable metrics."""

import numpy as np
import pytest

from sqopt import tail_cap
from sqopt.experiments import (
    CONVERGENCE_REPLICATES,
    CONVERGENCE_SIZES,
    CREDIT_N,
    default_nu_grid,
    run_convergence,
    run_federated,
    run_sweep,
    run_toyreg,
    synthetic_credit,
)


class TestToyreg:
    def test_deterministic_report(self):
        a, pred_a = run_toyreg(seed=4)
        b, pred_b = run_toyreg(seed=4)
        assert a == b
        assert pred_a == pred_b

    def test_seed_changes_data(self):
        a, _ = run_toyreg(seed=4)
        b, _ = run_toyreg(seed=5)
        assert a != b

    def test_metrics_recomputable_from_predictions(self):
        report, predictions = run_toyreg(seed=2)
        test_rows = [r for r in predictions if r["split"] == "test"]
        residuals = np.abs([r["target"] - r["prediction_erm"] for r in test_rows])
        metrics = report["models"]["erm"]["metrics"]["test"]
        assert metrics["residual_mean"] == float(residuals.mean())
        assert metrics["residual_p80"] == float(np.percentile(residuals, 80))


class TestFitSettings:
    def test_p_zero_models_coincide(self):
        # at tail level zero the smoothed objective is the plain mean for any
        # smoothing strength, so the two trained models are the same model
        from sqopt.data import generate_quadratic
        from sqopt.experiments import FitSettings, fit_models, _toy_spec

        dataset, _ = generate_quadratic(_toy_spec(1))
        settings = FitSettings(loss="squared", model_kind="polynomial", degree=2,
                               p=0.0, nu=0.1, seed=1)
        report, _ = fit_models(dataset, settings)
        w_erm = np.array(report["models"]["erm"]["optim"]["weights"])
        w_sq = np.array(report["models"]["superquantile"]["optim"]["weights"])
        np.testing.assert_allclose(w_sq, w_erm, atol=1e-5)


class TestFederated:
    def test_device_cap_is_one_at_conformity_one_fifth(self):
        # five devices at conformity level 1/5: the dual cap over device
        # weights is 1/(m (1-p)) = 1, the whole simplex
        m, c = 5, 0.2
        assert tail_cap(m, 1.0 - c) == pytest.approx(1.0)
        report, _ = run_federated(seed=0)
        assert report["config"]["p_grouped"] == pytest.approx(0.8)

    def test_three_models_and_five_devices(self):
        report, predictions = run_federated(seed=1)
        assert set(report["models"]) == {"erm", "superquantile", "grouped_superquantile"}
        for entry in report["models"].values():
            assert len(entry["device_losses"]) == 5
            assert len(entry["subgroup_losses"]) == 2
        devices = {r["device"] for r in predictions}
        assert devices == {0, 1, 2, 3, 4}

    def test_subgroup_losses_recomputable(self):
        report, predictions = run_federated(seed=3)
        for name, column in (("erm", "prediction_erm"),
                             ("grouped_superquantile", "prediction_grouped_superquantile")):
            rows_alt = [r for r in predictions if r["device"] == 4]
            losses = [0.5 * (r["target"] - r[column]) ** 2 for r in rows_alt]
            assert report["models"][name]["subgroup_losses"][1] == pytest.approx(
                float(np.mean(losses)), rel=1e-12)


class TestConvergence:
    def test_medians_recomputable_from_rows(self):
        report, rows = run_convergence(seed=1)
        assert report["config"]["sizes"] == list(CONVERGENCE_SIZES)
        for i, size in enumerate(CONVERGENCE_SIZES):
            gaps = [r["gap"] for r in rows if r["n"] == size]
            assert len(gaps) == CONVERGENCE_REPLICATES
            assert report["median_gaps"][i] == float(np.median(gaps))

    def test_deterministic(self):
        a = run_convergence(seed=2)
        b = run_convergence(seed=2)
        assert a == b


class TestSweep:
    def test_grid_and_weight_dump_shapes(self):
        rng = np.random.default_rng(0)
        u = rng.normal(0, 1, 40)
        grid = [0.01, 0.1, 1.0]
        report, rows, weight_rows = run_sweep(u, 0.5, kind="euclidean", grid=grid)
        assert [r["nu"] for r in rows] == grid
        assert len(weight_rows) == 3 * 40
        assert report["endpoints"]["small_ok"]
        assert report["endpoints"]["large_ok"]
        assert report["endpoints"]["uniform_ok"]

    def test_weights_spread_toward_uniform_as_nu_grows(self):
        # standard-gaussian sample: the weight distribution flattens with nu
        # (mean deviation from uniform; the sup metric saturates at 1/n while
        # any weight is still clipped at zero)
        rng = np.random.default_rng(1)
        u = rng.normal(0, 1, 500)
        grid = [0.01, 10.0, 1e4]
        _, rows, weight_rows = run_sweep(u, 0.5, kind="euclidean", grid=grid)
        spreads = []
        for nu in grid:
            w = np.array([r["weight"] for r in weight_rows if r["nu"] == nu])
            spreads.append(float(np.abs(w - 1.0 / 500).mean()))
        assert spreads[0] > spreads[1] > spreads[2]
        assert rows[-1]["weight_sup_dist_uniform"] < rows[0]["weight_sup_dist_uniform"] + 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="^empty sample$"):
            run_sweep([], 0.5)

    def test_default_grid_brackets_scale(self):
        u = np.array([0.0, 10.0])
        grid = default_nu_grid(u)
        assert grid[0] == pytest.approx(1e-3 * 10.0)
        assert grid[-1] == pytest.approx(1e3 * 10.0)


class TestSyntheticCredit:
    def test_shape_and_classes(self):
        ds = synthetic_credit(seed=0)
        assert ds.features.shape == (CREDIT_N, 7) == (900, 7)
        values, counts = np.unique(ds.targets, return_counts=True)
        np.testing.assert_allclose(values, [-1.0, 1.0])
        assert counts[1] == round(0.56 * CREDIT_N)

    def test_deterministic(self):
        a = synthetic_credit(seed=3)
        b = synthetic_credit(seed=3)
        assert np.array_equal(a.features, b.features)
