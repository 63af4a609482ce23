"""Quasi-Newton minimizer and the gradient checker."""

import numpy as np
import pytest

from sqopt import (
    Dataset,
    ModelSpec,
    SmoothingSpec,
    check_oracle,
    minimize,
    pointwise_loss_map,
)
from sqopt.optim import GRAD_TOL
from sqopt.oracles import smoothed_objective, subdifferential


def quadratic_oracle(target):
    target = np.asarray(target, dtype=float)

    def oracle(w):
        diff = w - target
        return 0.5 * float(diff @ diff), diff

    return oracle


def rosenbrock(w):
    a, b = 1.0, 100.0
    value = (a - w[0]) ** 2 + b * (w[1] - w[0] ** 2) ** 2
    grad = np.array([
        -2 * (a - w[0]) - 4 * b * w[0] * (w[1] - w[0] ** 2),
        2 * b * (w[1] - w[0] ** 2),
    ])
    return float(value), grad


def toy_smoothed_oracle(seed=0, nu=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 3, 80)
    y = 1 - 2 * x + x**2 + rng.normal(0, 1, 80)
    lm = pointwise_loss_map(Dataset(x[:, None], y), ModelSpec(kind="polynomial", degree=2))
    return smoothed_objective(lm, 0.9, SmoothingSpec("euclidean", nu))


class TestMinimize:
    def test_quadratic_exact_in_few_iterations(self):
        target = np.array([3.0, -1.0, 2.0, 0.5])
        result = minimize(quadratic_oracle(target), np.zeros(4))
        assert result.status == "converged"
        assert result.iterations <= 3
        np.testing.assert_allclose(result.w_star, target, atol=1e-6)

    def test_rosenbrock(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=300)
        assert result.status == "converged"
        np.testing.assert_allclose(result.w_star, [1.0, 1.0], atol=1e-4)

    def test_smoothed_toy_objective_converges(self):
        result = minimize(toy_smoothed_oracle(), np.zeros(3))
        assert result.status == "converged"
        assert result.grad_norm <= 1e-6

    def test_nan_oracle_reports_failure(self):
        result = minimize(lambda w: (float("nan"), w), np.zeros(2))
        assert result.status == "line_search_failure"
        assert "non-finite" in result.message

    def test_nan_after_start_reports_failure(self):
        def oracle(w):
            if np.abs(w).max() > 0:
                return float("nan"), np.full_like(w, np.nan)
            return 1.0, np.ones_like(w)

        result = minimize(oracle, np.zeros(2))
        assert result.status == "line_search_failure"

    def test_max_iter_status(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=3)
        assert result.status == "max_iter"
        assert result.iterations == 3

    def test_zero_max_iter_returns_the_start(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=0)
        assert result.status == "max_iter"
        assert result.iterations == 0
        np.testing.assert_array_equal(result.w_star, [-1.2, 1.0])

    @pytest.mark.parametrize("max_iter", [-1, 2.0, 2.5, True, None])
    def test_max_iter_must_be_a_nonnegative_integer(self, max_iter):
        # -1 would report status max_iter with iterations=-1
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=max_iter)

    def test_deterministic(self):
        oracle = toy_smoothed_oracle(seed=7)
        a = minimize(oracle, np.zeros(3))
        b = minimize(oracle, np.zeros(3))
        assert np.array_equal(a.w_star, b.w_star)
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_monotone_decrease(self):
        # the value after k iterations is the k-th accepted iterate's value,
        # and runs are deterministic, so truncated runs expose the sequence
        oracle = toy_smoothed_oracle(seed=3)
        values = [minimize(oracle, np.zeros(3), max_iter=k).value
                  for k in range(1, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_converged_meets_tolerance(self):
        assert GRAD_TOL == 1e-6
        result = minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert result.status == "converged"
        assert result.grad_norm <= 1e-6


class TestCheckOracle:
    def test_linear_oracle_is_exact(self):
        slope = np.array([2.0, -3.0])
        err = check_oracle(lambda w: (float(slope @ w), slope), np.array([0.3, 0.7]))
        assert err <= 1e-9

    def test_smoothed_oracle_passes(self):
        oracle = toy_smoothed_oracle(seed=5)
        rng = np.random.default_rng(5)
        err = check_oracle(oracle, rng.normal(0, 1, 3))
        assert err <= 1e-5

    def test_nonsmooth_point_fails_loudly(self):
        # exact tail-risk oracle at a crossing of the losses: the canonical
        # subgradient need not match central differences (no smoothness, no
        # guarantee); the checker must report a visible discrepancy
        from sqopt import LossMap, superquantile_integral

        slopes = np.array([-1.0, 0.0, 5.0])
        lm = LossMap(dim=1, n=3, eval=lambda w: slopes * w[0],
                     adjoint_apply=lambda w, q: np.array([float(q @ slopes)]))

        def exact_oracle(w):
            u = lm.eval(w)
            desc = subdifferential(lm, w, 2.0 / 3.0)
            return superquantile_integral(u, 2.0 / 3.0), desc.selected

        err = check_oracle(exact_oracle, np.array([0.0]))
        assert err > 1e-3
