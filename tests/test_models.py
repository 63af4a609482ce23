"""Datasets, prediction functions, losses, groups."""

import math
import sys
import threading

import numpy as np
import pytest

from sqopt import (
    Dataset,
    GroupStructure,
    ModelSpec,
    conformity,
    design_matrix,
    grouped_loss_map,
    group_metrics,
    pointwise_loss_map,
    predict,
)
from sqopt.models import _loss_dz, _loss_values

from reference import finite_difference


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.inf]]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[1.0]]), np.array([np.nan]))

    def test_one_dim_features_promoted(self):
        ds = Dataset(np.arange(4.0), np.arange(4.0))
        assert ds.features.shape == (4, 1)

    def test_subset(self):
        ds = Dataset(np.arange(10.0)[:, None], np.arange(10.0))
        sub = ds.subset([1, 3, 5])
        np.testing.assert_allclose(sub.targets, [1.0, 3.0, 5.0])

    def test_subset_boolean_mask(self):
        ds = Dataset(np.arange(5.0)[:, None], np.arange(0.0, 50.0, 10.0))
        sub = ds.subset(ds.targets > 25)
        np.testing.assert_array_equal(sub.targets, [30.0, 40.0])
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 4.0])
        assert ds.subset([]).n_rows == 0


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="model kind"):
            ModelSpec(kind="forest")
        with pytest.raises(ValueError, match="degree"):
            ModelSpec(kind="polynomial", degree=0)
        with pytest.raises(ValueError, match="loss"):
            ModelSpec(loss="hinge")

    @pytest.mark.parametrize("degree", [2.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("kind", ["linear", "polynomial"])
    def test_degree_must_be_an_integer(self, kind, degree):
        # a float would reach np.vander as a TypeError, and a bool would pass for 0 or 1
        with pytest.raises(ValueError, match="degree must be an integer"):
            ModelSpec(kind=kind, degree=degree)

    @pytest.mark.parametrize("degree", [0, 2, 7, -1])
    def test_linear_degree_is_one(self, degree):
        # a linear model reads no degree, so any other value would be ignored
        with pytest.raises(ValueError, match="linear model has degree 1"):
            ModelSpec(kind="linear", degree=degree)

    def test_numpy_integer_degree_accepted(self):
        assert ModelSpec(kind="polynomial", degree=np.int64(3)).degree == 3
        assert ModelSpec(kind="linear", degree=np.int64(1)) == ModelSpec()

    @pytest.mark.parametrize("loss,task", [("squared", "regression"), ("logistic", "classification")])
    def test_task_follows_the_loss(self, loss, task):
        assert ModelSpec(loss=loss).task == task
        assert ModelSpec(kind="polynomial", degree=2, loss=loss).task == task

    def test_polynomial_design(self):
        x = np.array([0.0, 1.0, 2.0])
        ds = Dataset(x[:, None], np.zeros(3))
        phi = design_matrix(ds, ModelSpec(kind="polynomial", degree=2))
        np.testing.assert_allclose(phi, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])

    def test_polynomial_needs_scalar_feature(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="single scalar feature"):
            design_matrix(ds, ModelSpec(kind="polynomial", degree=2))

    def test_predict_quadratic(self):
        x = np.array([0.0, 1.0, 2.0])
        ds = Dataset(x[:, None], np.zeros(3))
        w = np.array([1.0, -2.0, 1.0])
        np.testing.assert_allclose(predict(ds, ModelSpec(kind="polynomial", degree=2), w),
                                   1 - 2 * x + x**2)


class TestPointwiseLossMap:
    def test_squared_perfect_fit(self):
        x = np.array([0.0, 1.0, 2.0])
        y = 1 - 2 * x + x**2
        lm = pointwise_loss_map(Dataset(x[:, None], y), ModelSpec(kind="polynomial", degree=2))
        w = np.array([1.0, -2.0, 1.0])
        np.testing.assert_allclose(lm.eval(w), np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(lm.adjoint_apply(w, np.full(3, 1 / 3)), np.zeros(3), atol=1e-15)

    def test_squared_loss_value(self):
        lm = pointwise_loss_map(Dataset(np.array([[1.0]]), np.array([3.0])),
                                ModelSpec(kind="linear", loss="squared"))
        np.testing.assert_allclose(lm.eval(np.array([1.0])), [0.5 * 4.0])

    def test_logistic_at_zero_margin(self):
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        lm = pointwise_loss_map(ds, ModelSpec(kind="linear", loss="logistic"))
        losses = lm.eval(np.zeros(1))
        np.testing.assert_allclose(losses, [math.log(2.0)] * 2, rtol=1e-15)
        grad = lm.adjoint_apply(np.zeros(1), np.array([1.0, 0.0]))
        np.testing.assert_allclose(grad, [-0.5])  # d/dz log(1+e^{-yz}) at 0 is -y/2

    def test_logistic_overflow_safe(self):
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        lm = pointwise_loss_map(ds, ModelSpec(kind="linear", loss="logistic"))
        losses = lm.eval(np.array([1e4]))
        assert np.all(np.isfinite(losses))
        assert losses[0] == pytest.approx(0.0, abs=1e-300)
        assert losses[1] == pytest.approx(1e4, rel=1e-12)

    def test_logistic_requires_pm_one(self):
        ds = Dataset(np.array([[1.0]]), np.array([2.0]))
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            pointwise_loss_map(ds, ModelSpec(kind="linear", loss="logistic"))

    def test_logistic_positive_and_monotone_in_margin(self):
        margins = np.linspace(-5, 5, 101)
        ds = Dataset(margins[:, None], np.ones(101))
        lm = pointwise_loss_map(ds, ModelSpec(kind="linear", loss="logistic"))
        losses = lm.eval(np.array([1.0]))
        assert np.all(losses > 0)
        assert np.all(np.diff(losses) < 0)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_component_gradients_match_finite_differences(self, loss):
        rng = np.random.default_rng(41)
        n = 12
        x = rng.normal(0, 1, (n, 3))
        y = rng.normal(0, 1, n) if loss == "squared" else np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        lm = pointwise_loss_map(Dataset(x, y), ModelSpec(kind="linear", loss=loss))
        w = rng.normal(0, 1, 3)
        for i in range(0, n, 3):
            basis = np.zeros(n)
            basis[i] = 1.0
            grad = lm.adjoint_apply(w, basis)
            fd = finite_difference(lambda v: float(lm.eval(v)[i]), w)
            assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(grad).max())


def memo_instance(loss, seed=45):
    rng = np.random.default_rng(seed)
    n = 40
    x = rng.normal(0, 1, (n, 3))
    y = rng.normal(0, 1, n) if loss == "squared" else np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    ds = Dataset(x, y)
    model = ModelSpec(kind="linear", loss=loss)
    return ds, model, design_matrix(ds, model), y, rng


class TestPredictionMemo:
    """The loss map reuses the predictions of its latest point, never stale ones."""

    @staticmethod
    def direct(phi, y, loss, w, q):
        z = phi @ w
        return _loss_values(z, y, loss), phi.T @ (q * _loss_dz(z, y, loss))

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_adjoint_at_other_point_than_eval(self, loss):
        ds, model, phi, y, rng = memo_instance(loss)
        lm = pointwise_loss_map(ds, model)
        w1, w2, q = rng.normal(0, 1, 3), rng.normal(0, 1, 3), rng.uniform(0, 1, ds.n_rows)
        assert np.array_equal(lm.eval(w1), self.direct(phi, y, loss, w1, q)[0])
        assert np.array_equal(lm.adjoint_apply(w2, q), self.direct(phi, y, loss, w2, q)[1])
        assert np.array_equal(lm.eval(w2), self.direct(phi, y, loss, w2, q)[0])

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_adjoint_without_prior_eval(self, loss):
        ds, model, phi, y, rng = memo_instance(loss)
        w, q = rng.normal(0, 1, 3), rng.uniform(0, 1, ds.n_rows)
        grad = pointwise_loss_map(ds, model).adjoint_apply(w, q)
        assert np.array_equal(grad, self.direct(phi, y, loss, w, q)[1])

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_in_place_change_is_recomputed(self, loss):
        ds, model, phi, y, rng = memo_instance(loss)
        lm = pointwise_loss_map(ds, model)
        w, q = rng.normal(0, 1, 3), rng.uniform(0, 1, ds.n_rows)
        lm.eval(w)
        w[:] = rng.normal(0, 1, 3)
        assert np.array_equal(lm.adjoint_apply(w, q), self.direct(phi, y, loss, w, q)[1])

    def test_eval_returns_a_fresh_array(self):
        ds, model, phi, y, rng = memo_instance("squared")
        lm = pointwise_loss_map(ds, model)
        w = rng.normal(0, 1, 3)
        first = lm.eval(w)
        first[:] = np.nan
        assert np.array_equal(lm.eval(w), self.direct(phi, y, "squared", w, 0.0)[0])

    def test_shared_across_threads(self):
        ds, model, phi, y, rng = memo_instance("logistic")
        lm = pointwise_loss_map(ds, model)
        points = [rng.normal(0, 1, 3) for _ in range(4)]
        q = rng.uniform(0, 1, ds.n_rows)
        expected = [self.direct(phi, y, "logistic", w, q) for w in points]
        mismatches = []

        def work(k):
            for _ in range(300):
                if not (np.array_equal(lm.eval(points[k]), expected[k][0])
                        and np.array_equal(lm.adjoint_apply(points[k], q), expected[k][1])):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_grouped_map_after_in_place_change(self, loss):
        ds, model, phi, y, rng = memo_instance(loss)
        assignment = np.arange(ds.n_rows) % 4
        counts = np.bincount(assignment).astype(float)
        gm = grouped_loss_map(ds, model, GroupStructure(assignment))
        w, q = rng.normal(0, 1, 3), rng.uniform(0, 1, 4)
        gm.eval(w)
        w[:] = rng.normal(0, 1, 3)
        row_weights = (q / counts)[assignment]
        losses, grad = self.direct(phi, y, loss, w, row_weights)
        assert np.array_equal(gm.adjoint_apply(w, q), grad)
        assert np.array_equal(gm.eval(w), np.bincount(assignment, weights=losses) / counts)


class TestGroupStructure:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            GroupStructure(np.array([0, 0, 2]))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="sum to one"):
            GroupStructure(np.array([0, 1]), alpha=np.array([0.9, 0.9]))
        with pytest.raises(ValueError, match="one entry per group"):
            GroupStructure(np.array([0, 1]), alpha=np.array([1.0]))

    def test_default_alpha_uniform(self):
        groups = GroupStructure(np.array([0, 1, 2, 0]))
        np.testing.assert_allclose(groups.alpha, [1 / 3] * 3)


class TestGroupedLossMap:
    def test_matches_partitioned_average(self):
        rng = np.random.default_rng(42)
        n = 30
        ds = Dataset(rng.normal(0, 1, (n, 2)), rng.normal(0, 1, n))
        model = ModelSpec(kind="linear", loss="squared")
        assignment = rng.integers(0, 4, n)
        assignment[:4] = np.arange(4)  # every group non-empty
        groups = GroupStructure(assignment)
        gm = grouped_loss_map(ds, model, groups)
        w = rng.normal(0, 1, 2)
        point_losses = pointwise_loss_map(ds, model).eval(w)
        grouped = gm.eval(w)
        for g in range(4):
            members = point_losses[assignment == g]
            expected = 0.0
            for v in members:  # same traversal order as the packed reduction
                expected += v
            assert grouped[g] == expected / members.size

    def test_adjoint_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        n = 24
        ds = Dataset(rng.normal(0, 1, (n, 3)), rng.normal(0, 1, n))
        model = ModelSpec(kind="linear", loss="squared")
        assignment = np.arange(n) % 3
        gm = grouped_loss_map(ds, model, GroupStructure(assignment))
        w = rng.normal(0, 1, 3)
        q = np.array([0.2, 0.5, 0.3])
        grad = gm.adjoint_apply(w, q)
        fd = finite_difference(lambda v: float(q @ gm.eval(v)), w)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_single_group_is_mean_loss(self):
        rng = np.random.default_rng(44)
        ds = Dataset(rng.normal(0, 1, (9, 2)), rng.normal(0, 1, 9))
        model = ModelSpec(kind="linear", loss="squared")
        gm = grouped_loss_map(ds, model, GroupStructure(np.zeros(9, dtype=int)))
        w = rng.normal(0, 1, 2)
        assert gm.n == 1
        assert gm.eval(w)[0] == pytest.approx(pointwise_loss_map(ds, model).eval(w).mean(), rel=1e-14)

    def test_non_uniform_alpha_rejected(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros(4))
        assignment = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="uniform"):
            grouped_loss_map(ds, ModelSpec(), GroupStructure(assignment, alpha=np.array([0.7, 0.3])))
        gm = grouped_loss_map(ds, ModelSpec(), GroupStructure(assignment, alpha=np.array([0.5, 0.5])))
        assert gm.n == 2

    def test_assignment_length_checked(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ValueError, match="match the dataset"):
            grouped_loss_map(ds, ModelSpec(), GroupStructure(np.array([0, 1])))


class TestConformity:
    def test_identical_mixtures(self):
        alpha = np.full(5, 0.2)
        assert conformity(alpha, alpha) == 1.0

    def test_point_mass_on_one_group(self):
        alpha = np.full(5, 0.2)
        pi = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert conformity(pi, alpha) == pytest.approx(0.2)

    def test_point_mass_on_last_group(self):
        m = 4
        alpha = np.full(m, 1.0 / m)
        pi = np.zeros(m)
        pi[-1] = 1.0
        assert conformity(pi, alpha) == pytest.approx(1.0 / m)

    def test_unsupported_group_gives_zero(self):
        alpha = np.array([1.0, 0.0])
        pi = np.array([0.5, 0.5])
        assert conformity(pi, alpha) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="same length"):
            conformity([1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="probability vector"):
            conformity([0.7, 0.7], [0.5, 0.5])


class TestGroupMetrics:
    def test_perfect_fit_zero_vector(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 2 * x
        ds = Dataset(x[:, None], y)
        metrics = group_metrics(ds, ModelSpec(kind="linear", loss="squared"),
                                GroupStructure(np.array([0, 1, 0, 1])), np.array([2.0]))
        np.testing.assert_allclose(metrics, np.zeros(2), atol=1e-15)

    def test_single_group_equals_mean_loss(self):
        rng = np.random.default_rng(45)
        ds = Dataset(rng.normal(0, 1, (7, 2)), rng.normal(0, 1, 7))
        model = ModelSpec(kind="linear", loss="squared")
        w = rng.normal(0, 1, 2)
        metrics = group_metrics(ds, model, GroupStructure(np.zeros(7, dtype=int)), w)
        assert metrics[0] == pytest.approx(pointwise_loss_map(ds, model).eval(w).mean(), rel=1e-14)

    def test_two_group_table(self):
        rng = np.random.default_rng(46)
        ds = Dataset(rng.normal(0, 1, (10, 2)), rng.normal(0, 1, 10))
        model = ModelSpec(kind="linear", loss="squared")
        assignment = np.array([0] * 6 + [1] * 4)
        w = rng.normal(0, 1, 2)
        metrics = group_metrics(ds, model, GroupStructure(assignment), w)
        losses = pointwise_loss_map(ds, model).eval(w)
        assert metrics.shape == (2,)
        assert metrics[0] == pytest.approx(losses[:6].mean(), rel=1e-14)
        assert metrics[1] == pytest.approx(losses[6:].mean(), rel=1e-14)

    def test_non_uniform_alpha_gives_the_same_means(self):
        rng = np.random.default_rng(47)
        ds = Dataset(rng.normal(0, 1, (10, 2)), rng.normal(0, 1, 10))
        model = ModelSpec(kind="linear", loss="squared")
        assignment = np.array([0] * 6 + [1] * 4)
        w = rng.normal(0, 1, 2)
        weighted = group_metrics(ds, model, GroupStructure(assignment, alpha=[0.7, 0.3]), w)
        uniform = group_metrics(ds, model, GroupStructure(assignment), w)
        np.testing.assert_array_equal(weighted, uniform)
