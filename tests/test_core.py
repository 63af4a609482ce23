"""Exact quantile and superquantile computations on discrete samples."""

import numpy as np
import pytest

from sqopt import (
    LossMap,
    quantile,
    subdifferential,
    superquantile_dual,
    superquantile_integral,
    superquantile_variational,
    tail_cap,
)

from sqopt.core import NonFiniteSample, as_sample

from reference import brute_force_superquantile, relative_gap, sorted_quantile, sorted_tail_average


def random_sample(rng, n=None):
    n = n or int(rng.integers(1, 200))
    style = int(rng.integers(0, 3))
    if style == 0:
        return rng.normal(0.0, 1.0, n)
    if style == 1:
        return rng.normal(5.0, 40.0, n)
    return np.round(rng.normal(0.0, 2.0, n))  # heavy ties


class TestQuantile:
    def test_worked_examples(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.0
        assert quantile([1, 2, 3, 4], 0.6) == 3.0

    def test_constant_sample(self):
        for p in (0.0, 0.3, 0.99):
            assert quantile([7.5] * 9, p) == 7.5

    def test_p_zero_is_minimum(self):
        rng = np.random.default_rng(0)
        u = rng.normal(0, 1, 31)
        assert quantile(u, 0.0) == u.min()

    def test_matches_sorted_cdf_inversion(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            u = random_sample(rng)
            p = float(rng.uniform(0.0, 0.999))
            assert quantile(u, p) == sorted_quantile(u, p)

    def test_grid_p_values_no_rounding_glitch(self):
        # n*p landing a hair above an integer must not shift the order statistic
        rng = np.random.default_rng(2)
        for n in (10, 20, 100, 200):
            u = rng.normal(0, 1, n)
            for p in np.arange(0.0, 1.0, 0.1):
                assert quantile(u, float(p)) == sorted_quantile(u, float(p))
        # n*p evaluates to 7.000000000000001, 15.000000000000002 and 29.000000000000004:
        # ceil(n*p) is one past the order statistic and is stepped back down
        for n, k in ((25, 7), (29, 15), (35, 29)):
            u = rng.normal(0, 1, n)
            assert quantile(u, k / n) == sorted_quantile(u, k / n) == np.sort(u)[k - 1]

    def test_errors(self):
        with pytest.raises(ValueError, match="empty sample"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match="finite"):
            quantile([1.0, float("nan")], 0.5)
        with pytest.raises(ValueError, match="p must be"):
            quantile([1.0], 1.0)
        with pytest.raises(ValueError, match="p must be"):
            quantile([1.0], -0.1)


class TestAsSample:
    def test_non_finite_values_raise_the_subclass(self):
        for values in ([1.0, np.inf], [-np.inf], [np.nan, 0.0]):
            with pytest.raises(NonFiniteSample, match="sample values must be finite"):
                as_sample(values)

    def test_other_defects_raise_plain_value_errors(self):
        for values, message in (([], "empty sample"), ([[1.0, 2.0]], "one-dimensional"),
                                ([[np.inf], [0.0]], "one-dimensional"), (["a"], "could not convert")):
            with pytest.raises(ValueError, match=message) as raised:
                as_sample(values)
            assert not isinstance(raised.value, NonFiniteSample)

    def test_finite_values_pass_unchanged(self):
        u = np.array([3.0, -1e308, 0.0])
        assert as_sample(u) is u
        assert as_sample(2.5).tolist() == [2.5]


def split_at_quantile(u, p):
    """The split at the p-quantile, read off the exact subdifferential of the identity map.

    Returns the indices above the quantile (where the fixed part holds the cap),
    the indices tied with it (one basis vector each among the extremes), the
    hull weight gap/(1-p), and the fixed part itself.
    """
    u = np.asarray(u, dtype=float)
    desc = subdifferential(LossMap(dim=u.size, n=u.size, eval=lambda w: u,
                                   adjoint_apply=lambda w, q: q), np.zeros(u.size), p)
    above = np.flatnonzero(desc.fixed_part)
    assert (desc.fixed_part[above] == tail_cap(u.size, p)).all()
    tied = [int(np.flatnonzero(e)[0]) for e in desc.extreme_gradients]
    return above, tied, desc.hull_weight, desc.fixed_part


class TestTail:
    def test_worked_example(self):
        above, tied, hull_weight, _ = split_at_quantile([1, 2, 3, 4], 0.6)
        assert list(above) == [3]
        assert tied == [2]
        assert hull_weight == pytest.approx(0.15 / 0.4, abs=1e-15)
        assert superquantile_integral([1, 2, 3, 4], 0.6) == pytest.approx(3.625, rel=1e-15)

    def test_exact_step_gives_zero_gap(self):
        above, tied, hull_weight, _ = split_at_quantile([1, 2, 3], 1.0 / 3.0)
        assert set(above) == {1, 2}
        assert tied == [0]
        assert hull_weight == 0.0
        assert superquantile_integral([1, 2, 3], 1.0 / 3.0) == pytest.approx(2.5, rel=1e-15)

    def test_all_tied(self):
        above, tied, hull_weight, _ = split_at_quantile([4.0, 4.0], 0.5)
        assert above.size == 0
        assert tied == [0, 1]
        assert hull_weight == 1.0
        assert superquantile_integral([4.0, 4.0], 0.5) == 4.0

    def test_gap_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            u = random_sample(rng)
            p = float(rng.uniform(0.0, 0.999))
            above, tied, hull_weight, fixed = split_at_quantile(u, p)
            n = u.size
            q = quantile(u, p)
            assert (u[above] > q).all() and (u[tied] == q).all()
            assert hull_weight >= 0.0
            below = n - above.size - len(tied)
            strict = below / n - p
            assert strict < 0.0 or (p == 0.0 and strict == 0.0)
            assert superquantile_integral(u, p) == pytest.approx(
                float(fixed @ u) + hull_weight * q, rel=1e-12, abs=1e-12)


class TestSuperquantileRepresentations:
    def test_worked_examples(self):
        assert superquantile_integral([1, 2, 3, 4], 0.5) == pytest.approx(3.5, rel=1e-15)
        assert superquantile_integral([1, 2, 3, 4], 0.6) == pytest.approx(3.625, rel=1e-15)

    def test_p_zero_is_mean(self):
        rng = np.random.default_rng(4)
        u = rng.normal(0, 3, 57)
        assert superquantile_integral(u, 0.0) == pytest.approx(u.mean(), rel=1e-12)

    def test_dual_worked_examples(self):
        value, q = superquantile_dual([1, 2, 3, 4], 0.5)
        assert value == pytest.approx(3.5, rel=1e-15)
        np.testing.assert_allclose(q, [0.0, 0.0, 0.5, 0.5], atol=1e-15)
        value, q = superquantile_dual([1, 2, 3, 4], 0.75)
        assert value == pytest.approx(4.0, rel=1e-15)
        np.testing.assert_allclose(q, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_dual_constant_sample(self):
        value, q = superquantile_dual([2.5] * 6, 0.4)
        assert value == pytest.approx(2.5, rel=1e-14)
        assert abs(q.sum() - 1.0) < 1e-12

    def test_dual_tie_break_is_stable(self):
        # equal values: the cap goes to the earliest index first
        _, q = superquantile_dual([1.0, 3.0, 3.0, 0.0], 0.5)
        np.testing.assert_allclose(q, [0.0, 0.5, 0.5, 0.0], atol=1e-15)
        _, q = superquantile_dual([3.0, 1.0, 3.0, 3.0], 0.6)
        cap = tail_cap(4, 0.6)
        np.testing.assert_allclose(q, [cap, 0.0, 1.0 - cap, 0.0], atol=1e-15)

    def test_variational_worked_examples(self):
        assert superquantile_variational([1, 2, 3, 4], 0.5) == (3.5, 2.0)
        value, eta = superquantile_variational([1, 2, 3, 4], 0.6)
        assert value == pytest.approx(3.625, rel=1e-15)
        assert eta == 3.0
        assert superquantile_variational([0.0], 0.9) == (0.0, 0.0)

    def test_three_representations_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            u = random_sample(rng)
            p = float(rng.choice(np.arange(0.0, 1.0, 0.1))) if rng.uniform() < 0.5 \
                else float(rng.uniform(0.0, 0.99))
            a = superquantile_integral(u, p)
            b, _ = superquantile_dual(u, p)
            c, _ = superquantile_variational(u, p)
            assert relative_gap(a, b) < 1e-9
            assert relative_gap(a, c) < 1e-9

    def test_matches_sorted_integral_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u = random_sample(rng)
            p = float(rng.uniform(0.0, 0.99))
            assert relative_gap(superquantile_integral(u, p), sorted_tail_average(u, p)) < 1e-12

    def test_brute_force_small_n(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            u = rng.normal(0, 2, n)
            p = float(rng.uniform(0.0, 0.95))
            value, _ = superquantile_dual(u, p)
            assert abs(value - brute_force_superquantile(u, p)) < 1e-10


class TestDualFeasibility:
    def test_weights_describe_value_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            u = random_sample(rng)
            p = float(rng.uniform(0.0, 0.99))
            value, q = superquantile_dual(u, p)
            cap = tail_cap(u.size, p)
            assert q.min() >= 0.0
            assert q.max() <= cap + 1e-15
            assert abs(q.sum() - 1.0) <= 1e-12
            assert value == float(q @ u)  # same arithmetic, bit-identical


class TestCoherenceAxioms:
    def test_translation_homogeneity_monotonicity_convexity(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            u = rng.normal(0, 2, n)
            v = u + np.abs(rng.normal(0, 1, n))
            p = float(rng.uniform(0.0, 0.98))
            c = float(rng.normal(0, 5))
            lam = float(rng.uniform(0, 3))
            s_u = superquantile_integral(u, p)
            assert relative_gap(superquantile_integral(u + c, p), s_u + c) < 1e-12
            assert superquantile_integral(lam * u, p) <= lam * s_u + 1e-9 * max(1, abs(s_u))
            assert superquantile_integral(lam * u, p) >= lam * s_u - 1e-9 * max(1, abs(s_u))
            assert superquantile_integral(v, p) >= s_u - 1e-12
            mix = superquantile_integral(0.5 * u + 0.5 * v, p)
            assert mix <= 0.5 * s_u + 0.5 * superquantile_integral(v, p) + 1e-10

    def test_monotone_in_p_and_limits(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            u = rng.normal(0, 5, n)
            levels = np.sort(rng.uniform(0.0, 0.99, 5))
            values = [superquantile_integral(u, float(p)) for p in levels]
            assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))
            assert superquantile_integral(u, 0.0) == pytest.approx(u.mean(), rel=1e-12)
            if np.unique(u).size == n:
                p_hi = 1.0 - 1.0 / (2 * n)
                assert superquantile_integral(u, p_hi) == u.max()
