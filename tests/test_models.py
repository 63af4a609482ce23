"""Datasets, prediction functions, losses, groups."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sqopt import (
    Dataset,
    GroupStructure,
    ModelSpec,
    conformity,
    design_matrix,
    grouped_loss_map,
    pointwise_loss_map,
    predict,
)
from sqopt import core, models
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

    def test_subset_positions_must_be_integers(self):
        # a cast to int would truncate [0.7, 2.9] to rows 0 and 2
        ds = Dataset(np.arange(5.0)[:, None], np.arange(5.0))
        for indices in ([0.7], [0.7, 2.9], [1, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="row indices must be finite integers"):
                ds.subset(indices)
        # a negative position would count from the end, and one past the end would reach numpy
        for indices in ([-1], [0, 5], [7.0], [1e300]):
            with pytest.raises(ValueError, match=r"row indices must lie in \[0, 5\)"):
                ds.subset(indices)
        np.testing.assert_array_equal(ds.subset([1.0]).targets, [1.0])
        np.testing.assert_array_equal(ds.subset(np.array([1.0, 3.0])).targets, [1.0, 3.0])
        np.testing.assert_array_equal(ds.subset([True, False, True, False, False]).targets, [0.0, 2.0])


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

    def test_squared_loss_bits_match_the_expression(self):
        # computed in place, it must give the bits of 0.5 * (y - z) ** 2, at overflow and in the subnormals too
        rng = np.random.default_rng(47)
        edge_z = [-1e308, 1e308, -1e200, 0.0, 0.0, 1e-308, -0.0, 3e-162, 1e154, -1e-320]
        edge_y = [1e308, -1e308, 1e200, 5e-324, 1e-160, 2e-308, 0.0, 0.0, -1e154, 1e-320]
        z = np.concatenate([rng.normal(0.0, 1e3, 2000), edge_z])
        y = np.concatenate([rng.normal(0.0, 1e3, 2000), edge_y])
        with np.errstate(over="ignore"):
            expected = 0.5 * (y - z) ** 2
            got = _loss_values(z, y, "squared")
        assert np.isinf(got[-10:-7]).all() and np.count_nonzero((got > 0) & (got < np.finfo(float).tiny))
        assert got.tobytes() == expected.tobytes()

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

    def test_logistic_derivative_matches_expit(self):
        # the sigmoid of the margin -y z against scipy's, over the range where the
        # exp(-x) in expit's 1 / (1 + exp(-x)) does not overflow, then at +-1e3 with no warning
        from scipy.special import expit

        z = np.concatenate([np.linspace(-700.0, 700.0, 14001), np.random.default_rng(46).normal(0.0, 20.0, 5000)])
        y = np.where(np.arange(z.size) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(_loss_dz(z, y, "logistic"), -y * expit(-y * z), rtol=1e-15, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            edge = _loss_dz(np.array([-1e3, 1e3, -1e3, 1e3]), np.array([1.0, 1.0, -1.0, -1.0]), "logistic")
        assert edge.tolist() == [-1.0, 0.0, 0.0, 1.0]

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


def support_instance(loss, n, d, seed=48):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, d))
    y = rng.normal(0, 1, n) if loss == "squared" else np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    ds = Dataset(x, y)
    return ds, pointwise_loss_map(ds, ModelSpec(kind="linear", loss=loss)), rng.normal(0, 1, d), rng


def weights_on(rng, n, count):
    q = np.zeros(n)
    q[rng.choice(n, count, replace=False)] = rng.uniform(0.1, 1.0, count)
    return q


def dense_adjoint(ds, loss, w, q):
    x = ds.features
    return x.T @ (q * _loss_dz(x @ w, ds.targets, loss))


def assert_close_to_dense(grad, ds, loss, w, q):
    """Within 1e-13 of the sum of the terms' magnitudes: the two products sum in another order."""
    x = ds.features
    terms = np.abs(x).T @ np.abs(q * _loss_dz(x @ w, ds.targets, loss))
    assert np.all(np.abs(grad - dense_adjoint(ds, loss, w, q)) <= 1e-13 * terms)


class TestSupportRestrictedAdjoint:
    """From 2000 rows, the adjoint reads only the rows of nonzero weight when they are few enough."""

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("d", [20, 250])
    def test_both_sides_of_the_share_rule(self, loss, d, monkeypatch):
        n = 4000
        ds, lm, w, rng = support_instance(loss, n, d)
        pays, decisions = models._support_pays, []

        def spy(count, rows, width):
            decisions.append(pays(count, rows, width))
            return decisions[-1]

        monkeypatch.setattr(models, "_support_pays", spy)
        limit = max(count for count in range(n + 1) if pays(count, n, d))
        for count in (1, n // 100, limit, limit + 1, n):
            q = weights_on(rng, n, count)
            assert_close_to_dense(lm.adjoint_apply(w, q), ds, loss, w, q)
        assert decisions == [True, True, True, False, False]

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_gather_from_the_row_gate(self, loss, monkeypatch):
        # below the gate the adjoint is the dense product, without asking the share rule
        pays, asked = models._support_pays, []
        monkeypatch.setattr(models, "_support_pays", lambda *args: asked.append(args) or pays(*args))
        gate = core._ROW_GATE
        for n, gathered in ((gate - 1, False), (gate, True)):
            asked.clear()
            ds, lm, w, rng = support_instance(loss, n, 20)
            q = weights_on(rng, n, n // 100)
            grad = lm.adjoint_apply(w, q)
            assert bool(asked) == gathered, n
            assert_close_to_dense(grad, ds, loss, w, q)
            if not gathered:
                assert grad.tobytes() == dense_adjoint(ds, loss, w, q).tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1, "3B+1"])
    def test_block_edges(self, offset):
        n, d = 2000, 640
        block = models._BLOCK_ELEMENTS // d
        count = 3 * block + 1 if offset == "3B+1" else block + offset
        assert models._support_pays(count, n, d)
        ds, lm, w, rng = support_instance("squared", n, d)
        q = weights_on(rng, n, count)
        assert_close_to_dense(lm.adjoint_apply(w, q), ds, "squared", w, q)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_zero_weights_give_exact_zeros(self, loss):
        ds, lm, w, _ = support_instance(loss, 3000, 20)
        grad = lm.adjoint_apply(w, np.zeros(3000))
        assert grad.shape == (20,) and not np.signbit(grad).any() and np.all(grad == 0.0)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_one_hot_weight_bits_match_the_dense_product(self, loss):
        # one term: no summation order to differ, as in the subdifferential's basis calls
        ds, lm, w, rng = support_instance(loss, 3000, 20)
        for i in (0, 1234, 2999):
            q = np.zeros(3000)
            q[i] = rng.uniform(0.1, 2.0)
            assert np.array_equal(lm.adjoint_apply(w, q), dense_adjoint(ds, loss, w, q))

    def test_rows_of_zero_weight_are_not_read(self):
        # a row whose prediction overflows stays out of the gradient when its weight is zero
        ds, _, w, rng = support_instance("squared", 3000, 20)
        x = ds.features.copy()
        x[7] = 1e308
        lm = pointwise_loss_map(Dataset(x, ds.targets), ModelSpec())
        q = weights_on(rng, 3000, 30)
        q[7] = 0.0
        with np.errstate(over="ignore"):
            grad = lm.adjoint_apply(np.abs(w), q)
        assert np.all(np.isfinite(grad))
        x[7] = 0.0
        assert_close_to_dense(grad, Dataset(x, ds.targets), "squared", np.abs(w), q)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_grouped_map_with_zero_weight_groups(self, loss):
        n, m = 4000, 40
        ds, _, w, rng = support_instance(loss, n, 20)
        assignment = rng.permutation(n) % m
        gm = grouped_loss_map(ds, ModelSpec(kind="linear", loss=loss), GroupStructure(assignment))
        q = weights_on(rng, m, 4)
        row_weights = (q / np.bincount(assignment))[assignment]
        assert_close_to_dense(gm.adjoint_apply(w, q), ds, loss, w, row_weights)

    def test_memory_is_bounded_by_one_block(self):
        # 15% of 20000 x 250 gathered at once would be 6 MB; one block is 1 MiB
        n, d = 20000, 250
        ds, lm, w, rng = support_instance("squared", n, d)
        q = weights_on(rng, n, 3000)
        lm.eval(w)
        tracemalloc.start()
        try:
            grad = lm.adjoint_apply(w, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20
        assert_close_to_dense(grad, ds, "squared", w, q)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_in_place_change_is_recomputed(self, loss):
        ds, lm, w, rng = support_instance(loss, 3000, 20)
        q = weights_on(rng, 3000, 100)
        lm.eval(w)
        w[:] = rng.normal(0, 1, 20)
        assert_close_to_dense(lm.adjoint_apply(w, q), ds, loss, w, q)

    def test_weights_of_another_shape_are_rejected(self):
        # the adjoint's shape check, not a gather from the first rows
        _, lm, w, _ = support_instance("squared", 3000, 20)
        with pytest.raises(ValueError):
            lm.adjoint_apply(w, np.ones(2999))


class TestWeightShape:
    """An adjoint takes one weight per loss component and rejects any other shape, on either path."""

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("n", [50, 3000])
    def test_pointwise_map(self, loss, n):
        # a column was broadcast into an (n, n) product and a scalar read as equal weights
        _, lm, w, _ = support_instance(loss, n, 3)
        lm.eval(w)
        for q in (np.full((n, 1), 1.0 / n), 1.0 / n, np.full((1, n), 1.0 / n), np.full(n + 1, 1.0 / n)):
            with pytest.raises(ValueError, match="shape"):
                lm.adjoint_apply(w, q)
        assert lm.adjoint_apply(w, np.full(n, 1.0 / n)).shape == (3,)

    def test_grouped_map(self):
        # a scalar was divided by the group counts and expanded to the rows
        ds, _, w, _ = support_instance("squared", 60, 3)
        gm = grouped_loss_map(ds, ModelSpec(), GroupStructure(np.arange(60) % 4))
        for q in (np.full((4, 1), 0.25), 0.25, np.full(60, 1.0 / 60)):
            with pytest.raises(ValueError, match="shape"):
                gm.adjoint_apply(w, q)
        assert gm.adjoint_apply(w, np.full(4, 0.25)).shape == (3,)


class TestGroupStructure:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            GroupStructure(np.array([0, 0, 2]))
        # an index past the row count leaves a group empty; it is rejected before max + 1 counts
        # are allocated, and before a cast to int that would overflow
        with pytest.raises(ValueError, match="non-empty"):
            GroupStructure([0, 1e20])
        with pytest.raises(ValueError, match="empty group assignment"):
            GroupStructure(np.array([], dtype=int))
        with pytest.raises(ValueError, match="group indices must be nonnegative"):
            GroupStructure([0, -1, 1])

    def test_group_weights_are_not_a_field(self):
        # a partition holds no weights; a group's loss is the plain average over its rows
        with pytest.raises(TypeError):
            GroupStructure(np.array([0, 1]), alpha=np.array([0.7, 0.3]))
        assert GroupStructure(np.array([0, 1, 2, 0])).n_groups == 3

    @pytest.mark.parametrize("assignment", [[0.5, 1.7, 1.2], [0, 1, 1.5], [0, 1, math.nan], [0, 1, math.inf]])
    def test_indices_must_be_finite_integers(self, assignment):
        # a cast to int would truncate [0.5, 1.7, 1.2] to [0, 1, 1]
        with pytest.raises(ValueError, match="group indices must be finite integers"):
            GroupStructure(assignment)

    def test_integral_float_indices_accepted(self):
        groups = GroupStructure([0.0, 1.0, 1.0, 2.0])
        assert groups.assignment.tolist() == [0, 1, 1, 2]
        assert groups.assignment.dtype.kind == "i"


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
        # a NaN pi would leave no support to take the minimum over
        for bad in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="pi must be a finite probability vector"):
                conformity(bad, [0.5, 0.5])
            with pytest.raises(ValueError, match="alpha must be a finite probability vector"):
                conformity([0.5, 0.5], bad)


class TestGroupMetrics:
    """Per-group mean losses, read from the grouped map's ``eval``."""

    def test_perfect_fit_zero_vector(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 2 * x
        ds = Dataset(x[:, None], y)
        gm = grouped_loss_map(ds, ModelSpec(kind="linear", loss="squared"), GroupStructure(np.array([0, 1, 0, 1])))
        np.testing.assert_allclose(gm.eval(np.array([2.0])), np.zeros(2), atol=1e-15)

    def test_single_group_equals_mean_loss(self):
        rng = np.random.default_rng(45)
        ds = Dataset(rng.normal(0, 1, (7, 2)), rng.normal(0, 1, 7))
        model = ModelSpec(kind="linear", loss="squared")
        w = rng.normal(0, 1, 2)
        metrics = grouped_loss_map(ds, model, GroupStructure(np.zeros(7, dtype=int))).eval(w)
        assert metrics[0] == pytest.approx(pointwise_loss_map(ds, model).eval(w).mean(), rel=1e-14)

    def test_two_group_table(self):
        rng = np.random.default_rng(46)
        ds = Dataset(rng.normal(0, 1, (10, 2)), rng.normal(0, 1, 10))
        model = ModelSpec(kind="linear", loss="squared")
        assignment = np.array([0] * 6 + [1] * 4)
        w = rng.normal(0, 1, 2)
        metrics = grouped_loss_map(ds, model, GroupStructure(assignment)).eval(w)
        losses = pointwise_loss_map(ds, model).eval(w)
        assert metrics.shape == (2,)
        assert metrics[0] == pytest.approx(losses[:6].mean(), rel=1e-14)
        assert metrics[1] == pytest.approx(losses[6:].mean(), rel=1e-14)
