"""Composition oracles: exact subdifferentials and smoothed gradients."""

import warnings

import numpy as np
import pytest

import sqopt.core
import sqopt.models
import sqopt.oracles
import sqopt.smoothing
from sqopt import (
    Dataset,
    GroupStructure,
    LossMap,
    ModelSpec,
    SmoothingSpec,
    grouped_loss_map,
    pointwise_loss_map,
    smoothed_value_grad,
    subdifferential,
    superquantile_dual,
    superquantile_integral,
)
from sqopt.oracles import erm_objective, finite_difference_grad, smoothed_objective
from sqopt.optim import LINE_SEARCH_FAILURE, OptimResult, minimize
from sqopt.smoothing import divergence_max, solve_dual_1d

from reference import finite_difference


def linear_loss_map(slopes):
    slopes = np.asarray(slopes, dtype=float)

    def eval_losses(w):
        return slopes * w[0]

    def adjoint(w, q):
        return np.array([float(q @ slopes)])

    return LossMap(dim=1, n=slopes.size, eval=eval_losses, adjoint_apply=adjoint)


def random_poly_instance(rng, loss="squared"):
    n = int(rng.integers(10, 60))
    x = rng.uniform(-1, 3, n)
    if loss == "squared":
        y = rng.normal(0, 2, n)
    else:
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    dataset = Dataset(x[:, None], y)
    model = ModelSpec(kind="polynomial", degree=2, loss=loss)
    return pointwise_loss_map(dataset, model), rng.normal(0, 1, 3)


class TestSubdifferential:
    def test_distinct_losses_give_singleton(self):
        # losses (w, 2w, 3w) at w=1, tail level 1/3: only the top two count
        lm = linear_loss_map([1.0, 2.0, 3.0])
        desc = subdifferential(lm, np.array([1.0]), 1.0 / 3.0)
        assert desc.is_singleton
        assert desc.hull_weight == 0.0
        np.testing.assert_allclose(desc.selected, [2.5], atol=1e-14)

    def test_tie_produces_segment(self):
        lm = linear_loss_map([1.0, 2.0])
        desc = subdifferential(lm, np.array([0.0]), 0.5)
        assert not desc.is_singleton
        assert desc.hull_weight == pytest.approx(1.0)
        np.testing.assert_allclose(desc.fixed_part, [0.0], atol=1e-15)
        # the segment's ends are the two tied losses' gradients
        np.testing.assert_allclose(desc.fixed_part + desc.hull_weight * desc.extreme_gradients[0], [1.0], atol=1e-14)
        np.testing.assert_allclose(desc.fixed_part + desc.hull_weight * desc.extreme_gradients[1], [2.0], atol=1e-14)
        np.testing.assert_allclose(desc.selected, [1.5], atol=1e-14)

    def test_identical_losses_collapse(self):
        lm = linear_loss_map([1.0, 1.0])
        desc = subdifferential(lm, np.array([2.0]), 0.5)
        np.testing.assert_allclose(desc.selected, [1.0], atol=1e-14)

    def test_p_zero_is_mean_gradient(self):
        rng = np.random.default_rng(30)
        lm, w = random_poly_instance(rng)
        desc = subdifferential(lm, w, 0.0)
        _, mean_grad = erm_objective(lm, 0.0)(w)
        np.testing.assert_allclose(desc.selected, mean_grad, rtol=1e-10, atol=1e-12)

    def test_subgradient_inequality_convex_case(self):
        # linear model + squared loss: the composition is convex in w
        rng = np.random.default_rng(31)
        for _ in range(40):
            n, d = int(rng.integers(5, 30)), 3
            dataset = Dataset(rng.normal(0, 1, (n, d)), rng.normal(0, 1, n))
            model = ModelSpec(kind="linear", loss="squared")
            lm = pointwise_loss_map(dataset, model)
            p = float(rng.uniform(0, 0.9))
            w = rng.normal(0, 1, d)
            desc = subdifferential(lm, w, p)
            f_w = superquantile_integral(lm.eval(w), p)
            for _ in range(5):
                v = w + rng.normal(0, 1, d)
                f_v = superquantile_integral(lm.eval(v), p)
                lower = f_w + float(desc.selected @ (v - w))
                assert f_v >= lower - 1e-9 * max(1.0, abs(f_v))

    def test_dual_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            lm, w = random_poly_instance(rng)
            p = float(rng.uniform(0, 0.9))
            u = lm.eval(w)
            if np.unique(u).size < u.size:
                continue
            value, q = superquantile_dual(u, p)
            desc = subdifferential(lm, w, p)
            np.testing.assert_allclose(desc.selected, lm.adjoint_apply(w, q),
                                       rtol=1e-8, atol=1e-10)
            assert value == float(q @ u)

    def test_non_finite_losses_rejected(self):
        lm = LossMap(dim=1, n=2, eval=lambda w: np.array([np.inf, 0.0]),
                     adjoint_apply=lambda w, q: np.zeros(1))
        with pytest.raises(ValueError, match="non-finite"):
            subdifferential(lm, np.zeros(1), 0.5)


class TestSmoothedValueGrad:
    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_gradient_matches_finite_differences(self, kind, loss):
        rng = np.random.default_rng(33)
        for _ in range(10):
            lm, w = random_poly_instance(rng, loss)
            p = float(rng.uniform(0.3, 0.95))
            nu = float(rng.choice([1e-2, 1e-1, 1.0]))
            spec = SmoothingSpec(kind, nu)
            _, grad = smoothed_value_grad(lm, w, p, spec)
            fd = finite_difference(lambda v: smoothed_value_grad(lm, v, p, spec)[0], w)
            err = np.abs(grad - fd).max() / max(1.0, np.abs(grad).max())
            assert err <= 1e-5

    def test_single_eval_and_adjoint_per_call(self):
        counts = {"eval": 0, "adjoint": 0}
        rng = np.random.default_rng(34)
        base, w = random_poly_instance(rng)

        def counted_eval(w):
            counts["eval"] += 1
            return base.eval(w)

        def counted_adjoint(w, q):
            counts["adjoint"] += 1
            return base.adjoint_apply(w, q)

        lm = LossMap(dim=base.dim, n=base.n, eval=counted_eval, adjoint_apply=counted_adjoint)
        smoothed_value_grad(lm, w, 0.8, SmoothingSpec("euclidean", 0.1))
        assert counts == {"eval": 1, "adjoint": 1}

    def test_large_nu_gives_mean_gradient(self):
        rng = np.random.default_rng(35)
        lm, w = random_poly_instance(rng)
        u = lm.eval(w)
        span = max(1.0, float(u.max() - u.min()))
        _, grad = smoothed_value_grad(lm, w, 0.8, SmoothingSpec("euclidean", 1e9 * span))
        _, mean_grad = erm_objective(lm, 0.0)(w)
        np.testing.assert_allclose(grad, mean_grad, rtol=1e-6, atol=1e-8)

    def test_tiny_nu_approaches_exact_subgradient(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            lm, w = random_poly_instance(rng)
            u = lm.eval(w)
            if np.unique(u).size < u.size:
                continue
            p = float(rng.uniform(0.2, 0.9))
            span = max(1.0, float(u.max() - u.min()))
            _, grad = smoothed_value_grad(lm, w, p, SmoothingSpec("euclidean", 1e-8 * span))
            desc = subdifferential(lm, w, p)
            np.testing.assert_allclose(grad, desc.selected, atol=1e-4)

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_value_sandwich_through_composition(self, kind):
        rng = np.random.default_rng(37)
        for _ in range(20):
            lm, w = random_poly_instance(rng)
            p = float(rng.uniform(0, 0.9))
            nu = float(rng.choice([1e-2, 1e-1, 1.0]))
            spec = SmoothingSpec(kind, nu)
            value, _ = smoothed_value_grad(lm, w, p, spec)
            exact = superquantile_integral(lm.eval(w), p)
            slack = 1e-10 * max(1.0, abs(exact))
            assert value <= exact + slack
            assert exact <= value + nu * divergence_max(spec, lm.n, p) + slack


class TestErmOracle:
    def test_zero_losses(self):
        lm = linear_loss_map([0.0, 0.0, 0.0])
        value, grad = erm_objective(lm, 0.0)(np.array([1.0]))
        assert value == 0.0
        np.testing.assert_allclose(grad, [0.0])

    def test_ridge_term(self):
        rng = np.random.default_rng(38)
        lm, w = random_poly_instance(rng)
        reg = 2.5
        value0, grad0 = erm_objective(lm, 0.0)(w)
        value1, grad1 = erm_objective(lm, reg)(w)
        n = lm.n
        assert value1 - value0 == pytest.approx(0.5 * reg / n * float(w @ w), rel=1e-12)
        np.testing.assert_allclose(grad1 - grad0, (reg / n) * w, rtol=1e-12, atol=1e-15)

    def test_matches_smoothed_at_p_zero(self):
        rng = np.random.default_rng(39)
        lm, w = random_poly_instance(rng)
        value_erm, grad_erm = erm_objective(lm, 0.0)(w)
        for spec in (SmoothingSpec("kl", 0.7), SmoothingSpec("euclidean", 0.7)):
            value, grad = smoothed_value_grad(lm, w, 0.0, spec)
            assert value == pytest.approx(value_erm, rel=1e-10)
            np.testing.assert_allclose(grad, grad_erm, rtol=1e-9, atol=1e-12)

    def test_objective_closure_adds_ridge(self):
        rng = np.random.default_rng(40)
        lm, w = random_poly_instance(rng)
        oracle = smoothed_objective(lm, 0.8, SmoothingSpec("euclidean", 0.1), reg=3.0)
        value, grad = oracle(w)
        base_value, base_grad = smoothed_value_grad(lm, w, 0.8, SmoothingSpec("euclidean", 0.1))
        assert value == pytest.approx(base_value + 1.5 / lm.n * float(w @ w), rel=1e-12)
        np.testing.assert_allclose(grad - base_grad, (3.0 / lm.n) * w, rtol=1e-12, atol=1e-15)

    def test_negative_reg_rejected(self):
        lm = linear_loss_map([1.0, 2.0])
        w = np.array([1.0])
        with pytest.raises(ValueError, match="reg"):
            erm_objective(lm, -1.0)(w)
        with pytest.raises(ValueError, match="reg"):
            smoothed_objective(lm, 0.5, SmoothingSpec("euclidean", 1.0), reg=-1.0)(w)

    @pytest.mark.parametrize("reg", [np.inf, np.nan])
    def test_non_finite_reg_rejected(self, reg):
        lm = linear_loss_map([1.0, 2.0])
        with pytest.raises(ValueError, match="reg must be nonnegative"):
            erm_objective(lm, reg)
        with pytest.raises(ValueError, match="reg must be nonnegative"):
            smoothed_objective(lm, 0.5, SmoothingSpec("euclidean", 1.0), reg=reg)

    @pytest.mark.parametrize("p", [1.0, -0.1])
    def test_invalid_tail_rejected_when_built(self, p):
        def unreachable(*args):
            raise AssertionError("the loss map must not be evaluated")

        lm = LossMap(dim=1, n=2, eval=unreachable, adjoint_apply=unreachable)
        with pytest.raises(ValueError, match="tail probability"):
            smoothed_objective(lm, p, SmoothingSpec("euclidean", 1.0))


class CountedMatrix(np.ndarray):
    """Design matrix that counts its n x d products (its transpose is one too)."""

    products = 0

    def __matmul__(self, other):
        CountedMatrix.products += 1
        return np.asarray(self) @ other


class TestPassesPerCall:
    """One forward and one adjoint n x d product per oracle call at a fresh point."""

    @pytest.fixture
    def counted(self, monkeypatch):
        original = sqopt.models.design_matrix
        monkeypatch.setattr(sqopt.models, "design_matrix",
                            lambda dataset, model: original(dataset, model).view(CountedMatrix))
        return CountedMatrix

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("oracle", ["smoothed", "erm"])
    def test_two_products_per_call(self, counted, grouped, oracle):
        rng = np.random.default_rng(42)
        n = 60
        ds = Dataset(rng.normal(0, 1, (n, 4)), rng.normal(0, 1, n))
        if grouped:
            lm = grouped_loss_map(ds, ModelSpec(), GroupStructure(np.arange(n) % 5))
        else:
            lm = pointwise_loss_map(ds, ModelSpec())
        for _ in range(3):
            w = rng.normal(0, 1, 4)
            counted.products = 0
            if oracle == "smoothed":
                smoothed_value_grad(lm, w, 0.8, SmoothingSpec("euclidean", 0.1))
            else:
                erm_objective(lm, 1.0)(w)
            assert counted.products == 2


class TestNonFiniteLosses:
    def test_value_grad_report_inf_and_nan(self):
        adjoint_calls = []
        for bad in (np.inf, -np.inf, np.nan):
            lm = LossMap(dim=2, n=2, eval=lambda w, bad=bad: np.array([bad, 0.0]),
                         adjoint_apply=lambda w, q: adjoint_calls.append(q) or np.zeros(2))
            for value, grad in (smoothed_value_grad(lm, np.zeros(2), 0.5, SmoothingSpec("kl", 1.0)),
                                erm_objective(lm)(np.zeros(2))):
                assert value == np.inf
                assert grad.shape == (2,) and np.all(np.isnan(grad))
        assert adjoint_calls == []

    @pytest.mark.parametrize("objective", ["smoothed", "erm"])
    def test_overflowing_line_search_is_a_status(self, objective):
        rng = np.random.default_rng(41)
        x = rng.normal(0.0, 1.0, (50, 3)) * 1e150
        y = rng.normal(0.0, 1.0, 50)
        lm = pointwise_loss_map(Dataset(x, y), ModelSpec())
        if objective == "smoothed":
            oracle = smoothed_objective(lm, 0.9, SmoothingSpec("euclidean", 0.1))
        else:
            oracle = erm_objective(lm)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = minimize(oracle, np.zeros(3))
        assert isinstance(result, OptimResult)
        assert result.status == LINE_SEARCH_FAILURE
        assert np.isfinite(result.value)


def tail_regression_map(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, d))
    y = x @ rng.normal(0.0, 1.0, d) + (0.5 + np.abs(x[:, 0])) * rng.normal(0.0, 1.0, n)
    return pointwise_loss_map(Dataset(x, y), ModelSpec()), rng


class TestWarmStartedClosure:
    """The smoothed closure carries its last dual threshold from call to call."""

    @pytest.mark.parametrize("kind,nu", [("euclidean", 0.1), ("kl", 0.05)])
    def test_same_points_replay_bit_for_bit(self, kind, nu):
        lm, rng = tail_regression_map(50, 400, 4)
        points = np.cumsum(rng.normal(0.0, 0.3, (12, 4)), axis=0)
        first = smoothed_objective(lm, 0.9, SmoothingSpec(kind, nu), 1.0)
        second = smoothed_objective(lm, 0.9, SmoothingSpec(kind, nu), 1.0)
        for w in points:
            value_a, grad_a = first(w)
            value_b, grad_b = second(w)
            assert value_a == value_b
            assert grad_a.tobytes() == grad_b.tobytes()

    @pytest.mark.parametrize("kind,nu", [("euclidean", 0.1), ("kl", 0.05)])
    def test_history_changes_only_rounding(self, kind, nu):
        lm, rng = tail_regression_map(51, 400, 4)
        w = rng.normal(0.0, 1.0, 4)
        oracle = smoothed_objective(lm, 0.8, SmoothingSpec(kind, nu))
        oracle(w + 40.0 * rng.normal(0.0, 1.0, 4))
        value, grad = oracle(w)
        fresh_value, fresh_grad = smoothed_objective(lm, 0.8, SmoothingSpec(kind, nu))(w)
        assert abs(value - fresh_value) <= 1e-12 * abs(fresh_value)
        assert np.abs(grad - fresh_grad).max() <= 1e-12 * np.abs(fresh_grad).max()

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_value_grad_is_a_cold_solve(self, kind):
        # a fresh closure per call: the public solver's bits, whatever came before
        lm, rng = tail_regression_map(52, 300, 3)
        spec = SmoothingSpec(kind, 0.2)
        for w in rng.normal(0.0, 1.0, (4, 3)):
            sol = solve_dual_1d(lm.eval(w), spec, 0.7)
            value, grad = smoothed_value_grad(lm, w, 0.7, spec)
            assert value == sol.value
            assert np.array_equal(grad, lm.adjoint_apply(w, sol.weights))


class TestWarmStartPasses:
    """A warm-started fit makes fewer weight passes than a cold one and ends in the same place."""

    @pytest.mark.parametrize("kind,nu", [("euclidean", 0.5), ("kl", 0.02)])
    def test_fewer_passes_same_fit(self, kind, nu, monkeypatch):
        lm, _ = tail_regression_map(53, 4000, 5)
        record = sqopt.smoothing._KINDS[kind]
        weights_and_curvature = record.weights_and_curvature
        solve = sqopt.oracles.solve_dual_1d
        counts = {"passes": 0}

        def counted_pass(*args):
            counts["passes"] += 1
            return weights_and_curvature(*args)

        def fit(cold):
            monkeypatch.setattr(record, "weights_and_curvature", counted_pass)
            if cold:
                monkeypatch.setattr(sqopt.oracles, "solve_dual_1d",
                                    lambda u, spec, p, start, n=None: solve(u, spec, p, n=n))
            counts["passes"] = 0
            result = minimize(smoothed_objective(lm, 0.9, SmoothingSpec(kind, nu), 1.0), np.zeros(5))
            monkeypatch.undo()
            return result, counts["passes"]

        warm, warm_passes = fit(cold=False)
        cold, cold_passes = fit(cold=True)
        assert warm.status == cold.status == "converged"
        assert warm.iterations == cold.iterations
        assert np.abs(warm.w_star - cold.w_star).max() <= 1e-10
        assert warm_passes < cold_passes


class TestOneDualSolvePerCall:
    """The smoothed oracle solves through ``sqopt.oracles.solve_dual_1d``, once per call."""

    @pytest.mark.parametrize("kind,nu", [("euclidean", 0.5), ("kl", 0.02)])
    def test_one_solve_per_oracle_call_along_a_fit(self, kind, nu, monkeypatch):
        lm, _ = tail_regression_map(54, 500, 4)
        solve = sqopt.oracles.solve_dual_1d
        solutions, starts = [], []

        def counted(u, spec, p, start=None):
            starts.append(start)
            solutions.append(solve(u, spec, p, start=start))
            return solutions[-1]

        monkeypatch.setattr(sqopt.oracles, "solve_dual_1d", counted)
        oracle = smoothed_objective(lm, 0.9, SmoothingSpec(kind, nu), 1.0)
        calls = []
        result = minimize(lambda w: calls.append(w) or oracle(w), np.zeros(4))
        assert result.status == "converged"
        assert len(solutions) == len(calls) > 0
        # each solve starts from the previous solution's start
        assert starts[0] is None
        assert starts[1:] == [sol.start for sol in solutions[:-1]]


def screened_maps(seed):
    """A 5000-row map of each loss, with its screen, and the same map rebuilt without one."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (5000, 6))
    trend = x @ rng.normal(0.0, 1.0, 6)
    noisy = trend + (0.5 + np.abs(x[:, 0])) * rng.normal(0.0, 1.0, 5000)
    for loss, y in (("squared", noisy), ("logistic", np.where(noisy > 0.0, 1.0, -1.0))):
        lm = pointwise_loss_map(Dataset(x, y), ModelSpec(loss=loss))
        yield loss, lm, LossMap(lm.dim, lm.n, lm.eval, lm.adjoint_apply)


class TestScreenedOracle:
    """From 2000 rows the smoothed oracle predicts only the rows that can reach the tail."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The sizes of the samples the oracles hand to ``sqopt.oracles.solve_dual_1d``."""
        sizes = []
        solve = sqopt.oracles.solve_dual_1d

        def counted(u, spec, p, start=None, **kwargs):
            sizes.append(np.size(u))
            return solve(u, spec, p, start=start, **kwargs)

        monkeypatch.setattr(sqopt.oracles, "solve_dual_1d", counted)
        return sizes

    @pytest.mark.parametrize("kind,nu,p", [("euclidean", 1.0, 0.9), ("euclidean", 3.0, 0.99),
                                           ("kl", 0.01, 0.9), ("kl", 0.1, 0.95)])
    def test_agrees_with_the_full_passes(self, kind, nu, p, solves):
        spec = SmoothingSpec(kind, nu)
        for loss, lm, plain in screened_maps(70):
            rng = np.random.default_rng(71)
            screened = smoothed_objective(lm, p, spec, 1.0)
            full = smoothed_objective(plain, p, spec, 1.0)
            w = np.zeros(lm.dim)
            solves.clear()
            for scale in (1e-4, 1e-3, 1e-2, 1e-6, 0.3, 1e-5, 1e-3, 2.0, 1e-4, 0.0):
                w = w + scale * rng.normal(0.0, 1.0, lm.dim)
                value, grad = screened(w)
                full_value, full_grad = full(w)
                assert abs(value - full_value) <= 1e-12 * abs(full_value), (loss, scale)
                assert np.abs(grad - full_grad).max() <= 1e-10 * np.abs(full_grad).max(), (loss, scale)
            # one solve per call, and some calls saw only part of the rows
            assert len(solves) == 20 and min(solves) < lm.n, loss

    def test_the_screen_keeps_every_row_that_reaches_the_tail(self):
        spec = SmoothingSpec("kl", 0.03)
        for loss, lm, _ in screened_maps(72):
            rng = np.random.default_rng(73)
            k = sqopt.core._rank(lm.n, 0.9)
            gap = sqopt.smoothing._floor_gap(spec, lm.n, 0.9)
            w = rng.normal(0.0, 1.0, lm.dim)
            for scale in (0.0, 1e-3, 1e-2, 0.1):
                point = w + scale * rng.normal(0.0, 1.0, lm.dim)
                kept, _ = lm.screen(point, k, gap)
                u = lm.eval(point)
                kth = np.partition(u, k - 1)[k - 1]
                reach = np.sort(u[u > kth - gap * (1.0 - 1e-9)])
                assert kept.size < lm.n or scale == 0.0, (loss, scale)
                # the largest losses are the same rows, to rounding
                assert np.allclose(np.sort(kept)[-reach.size:], reach, rtol=1e-13, atol=0.0), (loss, scale)

    def test_overflow_gives_inf_without_an_adjoint(self):
        adjoints = []
        for loss, lm, _ in screened_maps(74):
            def screen(w, k, gap, screen=lm.screen):
                u, adjoint = screen(w, k, gap)
                return u, lambda q: adjoints.append(q.size) or adjoint(q)

            counted = LossMap(lm.dim, lm.n, lm.eval, lm.adjoint_apply, screen=screen)
            oracle = smoothed_objective(counted, 0.9, SmoothingSpec("euclidean", 1.0))
            w = np.full(lm.dim, 0.1)
            for point in (w, w + 1e-3):
                assert np.isfinite(oracle(point)[0])
            calls = len(adjoints)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for bad in (np.full(lm.dim, 1e308), np.full(lm.dim, np.nan)):
                    value, grad = oracle(bad)
                    assert value == np.inf and np.all(np.isnan(grad)), loss
            assert len(adjoints) == calls, loss
            # the line search steps back: the screen still serves
            assert abs(oracle(w)[0] - smoothed_value_grad(lm, w, 0.9, SmoothingSpec("euclidean", 1.0))[0]) \
                <= 1e-12 * oracle(w)[0]

    def test_closures_of_another_tail_refresh_the_reference(self, monkeypatch):
        full_passes = []
        scores = sqopt.models._scores
        monkeypatch.setattr(sqopt.models, "_scores", lambda z, y, loss: full_passes.append(1) or scores(z, y, loss))
        _, lm, plain = next(screened_maps(75))
        rng = np.random.default_rng(76)
        spec = SmoothingSpec("euclidean", 1.0)
        oracles = {p: (smoothed_objective(lm, p, spec), smoothed_objective(plain, p, spec)) for p in (0.9, 0.95)}
        w = rng.normal(0.0, 1.0, lm.dim)
        # the second call at p = 0.9 reuses its reference; each change of p takes a new one
        for p, passes in ((0.9, 1), (0.9, 1), (0.95, 2), (0.9, 3), (0.9, 3), (0.95, 4)):
            w = w + 1e-6 * rng.normal(0.0, 1.0, lm.dim)
            value, grad = oracles[p][0](w)
            full_value, full_grad = oracles[p][1](w)
            assert len(full_passes) == passes, p
            assert abs(value - full_value) <= 1e-12 * abs(full_value), p
            assert np.abs(grad - full_grad).max() <= 1e-10 * np.abs(full_grad).max(), p

    def test_screen_from_2000_rows(self):
        rng = np.random.default_rng(77)
        for n, screened in ((1999, False), (2000, True)):
            ds = Dataset(rng.normal(0.0, 1.0, (n, 3)), rng.normal(0.0, 1.0, n))
            assert (pointwise_loss_map(ds, ModelSpec()).screen is not None) == screened, n
            groups = GroupStructure(np.arange(n) % 10)
            assert grouped_loss_map(ds, ModelSpec(), groups).screen is None

    def test_no_copy_past_the_break_even_share(self, solves):
        # a euclidean copy holds about 1 - p + 0.01 of the rows: 56% is kept, 71% is not
        _, lm, _ = next(screened_maps(80))
        w = np.full(lm.dim, 0.1)
        for p, screened in ((0.45, True), (0.3, False)):
            oracle = smoothed_objective(lm, p, SmoothingSpec("euclidean", 1.0))
            solves.clear()
            for point in (w, w + 1e-6):
                oracle(point)
            assert (min(solves) < lm.n) == screened, p

    def test_value_grad_reads_no_screen(self):
        # the one-shot oracle depends on its arguments only, not on a kept reference
        spec = SmoothingSpec("kl", 0.03)
        for loss, lm, plain in screened_maps(79):
            screens = []
            counted = LossMap(lm.dim, lm.n, lm.eval, lm.adjoint_apply,
                              screen=lambda *args, screen=lm.screen: screens.append(1) or screen(*args))
            w = np.full(lm.dim, 0.1)
            smoothed_objective(counted, 0.9, spec)(w)
            for point in (w, w + 1e-4):
                value, grad = smoothed_value_grad(counted, point, 0.9, spec)
                plain_value, plain_grad = smoothed_value_grad(plain, point, 0.9, spec)
                assert value == plain_value and np.array_equal(grad, plain_grad), loss
            assert len(screens) == 1, loss

    @pytest.mark.parametrize("kind,nu", [("euclidean", 0.5), ("kl", 0.002)])
    def test_one_solve_per_screened_call_along_a_fit(self, kind, nu, solves):
        for loss, lm, _ in screened_maps(78):
            oracle = smoothed_objective(lm, 0.9, SmoothingSpec(kind, nu), 1.0)
            calls = []
            solves.clear()
            result = minimize(lambda w: calls.append(w) or oracle(w), np.zeros(lm.dim))
            assert result.status == "converged", loss
            assert len(solves) == len(calls) > 0, loss
            assert min(solves) < lm.n, loss


class TestMalformedLossVectors:
    """An empty or multi-dimensional loss vector is a defect of the loss map, raised by both oracles."""

    @pytest.mark.parametrize("objective", ["smoothed", "erm"])
    @pytest.mark.parametrize("losses,message", [(np.array([]), "empty sample"),
                                                (np.ones((3, 1)), "one-dimensional")])
    def test_raises_value_error(self, objective, losses, message):
        lm = LossMap(dim=1, n=losses.size, eval=lambda w: losses, adjoint_apply=lambda w, q: np.zeros(1))
        if objective == "smoothed":
            oracle = smoothed_objective(lm, 0.9, SmoothingSpec("euclidean", 0.1))
        else:
            oracle = erm_objective(lm)
        with pytest.raises(ValueError, match=message):
            oracle(np.zeros(1))


class TestFiniteDifferenceHelper:
    def test_quadratic_exact(self):
        grad = finite_difference_grad(lambda w: float(w @ w), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)
