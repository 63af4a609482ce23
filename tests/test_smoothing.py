"""Smoothed superquantile: conjugates, dual solver, equivalence toolkit."""

import math
import warnings

import numpy as np
import pytest

from sqopt import (
    DensitySpec,
    SmoothingSpec,
    bisect_dual,
    conv_smoothed_positive_part,
    density_from_smoothing,
    divergence,
    divergence_from_density,
    divergence_max,
    quantile,
    scalar_conjugate,
    scalar_conjugate_grad,
    smoothed_positive_part,
    smoothed_superquantile,
    solve_dual_1d,
    superquantile_integral,
    tail_cap,
)
import sqopt.smoothing as smoothing_module

from reference import (
    conv_smoothed_positive_part_quadrature,
    grid_max,
    project_simplex,
    relative_gap,
    sorted_smoothed_superquantile,
)


def dual_objective(eta, u, spec, p):
    """The scalar dual function ``eta + sum_i scalar_conjugate(u_i - eta)``."""
    return float(eta + scalar_conjugate(u - eta, spec, u.size, p).sum())


def dual_derivative(eta, u, spec, p):
    """Its derivative, ``1 - sum_i scalar_conjugate_grad(u_i - eta)``."""
    return float(1.0 - scalar_conjugate_grad(u - eta, spec, u.size, p).sum())


def random_instance(rng, max_n=60):
    n = int(rng.integers(1, max_n))
    u = rng.normal(0.0, 2.0, n)
    p = float(rng.uniform(0.0, 0.98))
    return u, p


class TestSmoothingSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SmoothingSpec("huber", 1.0)
        with pytest.raises(ValueError, match="nu"):
            SmoothingSpec("euclidean", 0.0)
        with pytest.raises(ValueError, match="nu"):
            SmoothingSpec("kl", -1.0)


class TestSampleSize:
    """Every public function that takes a sample size n checks it."""

    @pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, None, np.int64(0), np.float64(2.0)])
    def test_bad_n_rejected(self, n):
        for kind in smoothing_module._KINDS:
            spec = SmoothingSpec(kind, 1.0)
            calls = [lambda: scalar_conjugate(0.5, spec, n, 0.5),
                     lambda: scalar_conjugate_grad(0.5, spec, n, 0.5),
                     lambda: divergence(np.full(3, 1.0 / 3.0), spec, n),
                     lambda: divergence_max(spec, n, 0.5),
                     lambda: smoothed_positive_part(0.5, spec, n, 0.5)]
            if kind == "euclidean":
                calls.append(lambda: density_from_smoothing(spec, n, 0.5))
            for call in calls:
                with pytest.raises(ValueError, match="sample size"):
                    call()

    def test_numpy_integer_n_accepted(self):
        for kind in smoothing_module._KINDS:
            spec = SmoothingSpec(kind, 0.7)
            s = np.linspace(-2.0, 2.0, 9)
            assert scalar_conjugate(s, spec, np.int64(3), 0.5).tobytes() == scalar_conjugate(s, spec, 3, 0.5).tobytes()
            assert divergence_max(spec, np.int32(5), 0.6) == divergence_max(spec, 5, 0.6)

    def test_divergence_needs_n_weights(self):
        for kind in smoothing_module._KINDS:
            spec = SmoothingSpec(kind, 1.0)
            for q in ([0.5, 0.5], np.full((3, 1), 1.0 / 3.0), 1.0):
                with pytest.raises(ValueError, match="shape"):
                    divergence(q, spec, 3)
            assert divergence([1.0], spec, 1) == 0.0


class TestScalarConjugate:
    def test_euclidean_flat_below_threshold(self):
        # below s = -nu/n the maximizer is t = 0 and the value freezes at -nu d(0)
        n, p, nu = 4, 0.5, 2.0
        spec = SmoothingSpec("euclidean", nu)
        floor = -nu * 0.5 / n**2
        for s in (-nu / n, -nu / n - 0.1, -50.0):
            assert scalar_conjugate(s, spec, n, p) == pytest.approx(floor, abs=1e-15)
            assert scalar_conjugate_grad(s, spec, n, p) == 0.0

    def test_euclidean_midpoint(self):
        spec = SmoothingSpec("euclidean", 1.0)
        assert scalar_conjugate(0.0, spec, 2, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert scalar_conjugate_grad(0.0, spec, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_euclidean_saturation(self):
        n, p, nu = 5, 0.6, 0.7
        spec = SmoothingSpec("euclidean", nu)
        threshold = nu * p / (n * (1.0 - p))
        cap = tail_cap(n, p)
        for s in (threshold, threshold + 1.0, 40.0):
            assert scalar_conjugate_grad(s, spec, n, p) == cap

    def test_kl_value_at_zero(self):
        # interior maximizer exp(-1)/n, value nu * t
        spec = SmoothingSpec("kl", 1.0)
        t_star = math.exp(-1.0) / 2.0
        assert scalar_conjugate_grad(0.0, spec, 2, 0.5) == pytest.approx(t_star, rel=1e-14)
        assert scalar_conjugate(0.0, spec, 2, 0.5) == pytest.approx(t_star, rel=1e-14)

    def test_kl_never_exactly_zero_but_vanishes(self):
        spec = SmoothingSpec("kl", 0.5)
        g = scalar_conjugate_grad(-5.0, spec, 3, 0.5)
        assert 0.0 < g < 1e-4
        assert scalar_conjugate_grad(-200.0, spec, 3, 0.5) < 1e-150

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_matches_grid_maximization(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            p = float(rng.uniform(0.0, 0.9))
            nu = float(10 ** rng.uniform(-1, 0.7))
            s = float(rng.normal(0, 2))
            spec = SmoothingSpec(kind, nu)
            cap = tail_cap(n, p)
            if kind == "euclidean":
                objective = lambda t: s * t - nu * 0.5 * (t - 1.0 / n) ** 2
            else:
                from scipy.special import xlogy
                objective = lambda t: s * t - nu * xlogy(t, t * n)
            reference = grid_max(objective, 0.0, cap)
            assert scalar_conjugate(s, spec, n, p) == pytest.approx(reference, abs=1e-7)

    def test_grad_is_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(12)
        s = np.linspace(-40, 40, 5001)
        for kind in ("euclidean", "kl"):
            n = int(rng.integers(1, 30))
            p = float(rng.uniform(0, 0.95))
            spec = SmoothingSpec(kind, float(10 ** rng.uniform(-2, 1)))
            g = scalar_conjugate_grad(s, spec, n, p)
            assert np.all(np.diff(g) >= -1e-15)
            assert g.min() >= 0.0 and g.max() <= tail_cap(n, p) + 1e-15

    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_scalars_rows_and_grids_agree(self, kind):
        # the passes write the capped entries in place, so a scalar goes through
        # as one entry; every shape must give the same bits entry by entry
        n, p, nu = 6, 0.75, 0.4
        record = smoothing_module._KINDS[kind](nu, n, p)
        points = np.array([record.s_floor - 1.0, record.s_floor, 0.5 * record.s_floor,
                           0.5 * record.s_cap, record.s_cap, record.s_cap + 2.0])
        spec = SmoothingSpec(kind, nu)
        for fn in (scalar_conjugate, scalar_conjugate_grad):
            row = fn(points, spec, n, p)
            grid = fn(points.reshape(2, 3), spec, n, p)
            assert row.shape == (6,) and grid.shape == (2, 3)
            assert grid.tobytes() == row.tobytes()
            for s, expected in zip(points, row):
                for scalar in (float(s), np.float64(s), np.array(s)):
                    value = fn(scalar, spec, n, p)
                    assert isinstance(value, float)
                    assert value == expected
        weights = scalar_conjugate_grad(points, spec, n, p)
        assert weights[-2] == weights[-1] == record.cap
        assert 0.0 < weights[-3] < record.cap
        if kind == "euclidean":
            assert weights[0] == weights[1] == 0.0


class TestDualSolver:
    def test_euclidean_projection_examples(self):
        # argmax q = projection of (uniform + u/nu) onto the simplex when the
        # cap is inactive (n=2, p=0.5 gives cap=1)
        u = np.array([0.0, 1.0])
        for nu, expect_w, expect_v in [(4.0, [0.375, 0.625], 0.5625), (1.0, [0.0, 1.0], 0.75)]:
            value, weights = smoothed_superquantile(u, SmoothingSpec("euclidean", nu), 0.5)
            np.testing.assert_allclose(weights, expect_w, atol=1e-12)
            assert value == pytest.approx(expect_v, abs=1e-12)
            reference = project_simplex(0.5 + u / nu)
            np.testing.assert_allclose(weights, reference, atol=1e-12)

    def test_kl_softmax_when_cap_inactive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.normal(0, 1, 2)
            nu = float(10 ** rng.uniform(-1, 1))
            sol = solve_dual_1d(u, SmoothingSpec("kl", nu), 0.5)
            soft = np.exp(u / nu - u.max() / nu)
            soft = soft / soft.sum()
            np.testing.assert_allclose(sol.weights, soft, atol=1e-12)
            # closed-form root shifted by nu*log(n) relative to the
            # unnormalized-entropy convention
            explicit = nu * (np.log(np.sum(np.exp(u / nu - 1.0))) - math.log(2.0))
            assert sol.threshold == pytest.approx(explicit, abs=1e-10 * max(1, abs(explicit)))

    def test_zero_sample_kl_is_zero(self):
        for nu in (0.1, 1.0, 10.0):
            value, weights = smoothed_superquantile([0.0, 0.0], SmoothingSpec("kl", nu), 0.5)
            assert value == pytest.approx(0.0, abs=1e-14)
            np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_weights_feasible_and_stationary(self, kind):
        rng = np.random.default_rng(14)
        for _ in range(150):
            u, p = random_instance(rng)
            nu = float(10 ** rng.uniform(-2.5, 2.0))
            spec = SmoothingSpec(kind, nu)
            sol = solve_dual_1d(u, spec, p)
            cap = tail_cap(u.size, p)
            assert sol.weights.min() >= 0.0
            assert sol.weights.max() <= cap * (1 + 1e-13)
            assert abs(sol.weights.sum() - 1.0) <= 1e-12
            grad_again = scalar_conjugate_grad(u - sol.threshold, spec, u.size, p)
            np.testing.assert_allclose(sol.weights, grad_again, atol=1e-9)
            assert abs(dual_derivative(sol.threshold, u, spec, p)) <= 1e-10

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_no_duality_gap(self, kind):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u, p = random_instance(rng)
            nu = float(10 ** rng.uniform(-2, 1.5))
            spec = SmoothingSpec(kind, nu)
            sol = solve_dual_1d(u, spec, p)
            primal = float(sol.weights @ u) - nu * divergence(sol.weights, spec, u.size)
            assert abs(primal - sol.value) <= 1e-10 * max(1.0, abs(sol.value))

    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_closed_form_matches_bisection(self, kind):
        rng = np.random.default_rng(16)
        for _ in range(120):
            n = int(rng.integers(2, 80))
            u = rng.normal(0.0, 1.0, n) * float(10 ** rng.uniform(-1, 1))
            p = float(rng.uniform(0.05, 0.95))
            nu = float(10 ** rng.uniform(-2, 1))
            spec = SmoothingSpec(kind, nu)
            a = solve_dual_1d(u, spec, p)
            b = bisect_dual(u, spec, p)
            assert abs(a.threshold - b.threshold) <= 1e-8

    def test_dual_derivative_limits(self):
        rng = np.random.default_rng(17)
        for kind in ("euclidean", "kl"):
            u = rng.normal(0, 3, 25)
            span = float(u.max() - u.min())
            for p in (0.1, 0.5, 0.9):
                spec = SmoothingSpec(kind, 0.3)
                hi = dual_derivative(u.max() + 1e6 * span, u, spec, p)
                lo = dual_derivative(u.min() - 1e6 * span, u, spec, p)
                assert hi == pytest.approx(1.0, abs=1e-9)
                assert lo == pytest.approx(-p / (1 - p), abs=1e-9)

    def test_dual_derivative_monotone(self):
        rng = np.random.default_rng(18)
        u = rng.normal(0, 2, 17)
        for kind in ("euclidean", "kl"):
            spec = SmoothingSpec(kind, 0.4)
            etas = np.linspace(u.min() - 2, u.max() + 2, 200)
            slopes = [dual_derivative(float(e), u, spec, 0.7) for e in etas]
            assert all(a <= b + 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_flat_derivative_picks_breakpoint(self):
        # a data gap with integer n(1-p) makes the derivative exactly zero on
        # a whole interval; the solver must return a point with zero slope
        u = np.array([0.0, 0.0, 10.0, 10.0])
        spec = SmoothingSpec("euclidean", 0.1)
        sol = solve_dual_1d(u, spec, 0.5)
        assert abs(dual_derivative(sol.threshold, u, spec, 0.5)) <= 1e-12
        np.testing.assert_allclose(sol.weights, [0.0, 0.0, 0.5, 0.5], atol=1e-14)
        # exact tail average 10 minus nu times the divergence of the weights
        assert sol.value == pytest.approx(10.0 - 0.1 * 0.125, abs=1e-12)

    @pytest.mark.parametrize("solver", [solve_dual_1d, bisect_dual])
    def test_kl_root_at_saturation_kink(self, solver):
        # the root sits just below the point where the larger value's weight
        # reaches the cap, and beyond it the curvature is about 1e-12, so an
        # unguarded Newton step from there jumps far off the root
        sol = solver([4.0, -2.0], SmoothingSpec("kl", 0.2), 0.5)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        assert abs(sol.value - (4.0 - 0.2 * math.log(2.0))) <= 1e-12

    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    @pytest.mark.parametrize("offset", [1e8, 1e12, 1e16])
    def test_bisection_under_large_offset(self, kind, offset):
        # a bracket placed at the raw sample's minimum would round away at this offset
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = offset + rng.normal(0.0, 1.0, 50)
            p = float(rng.choice([0.5, 0.9]))
            spec = SmoothingSpec(kind, float(10 ** rng.uniform(-2, 1)))
            sol = bisect_dual(u, spec, p)
            exact = superquantile_integral(u, p)
            slack = 4.0 * np.finfo(float).eps * abs(exact)
            assert sol.weights.min() >= 0.0 and sol.weights.max() <= tail_cap(u.size, p)
            assert abs(sol.weights.sum() - 1.0) <= 1e-9
            assert exact - spec.nu * divergence_max(spec, u.size, p) - slack <= sol.value <= exact + slack

    def test_errors(self):
        with pytest.raises(ValueError, match="finite"):
            solve_dual_1d([1.0, float("inf")], SmoothingSpec("euclidean", 1.0), 0.5)


def edge_instances(rng, count):
    """Samples that stress the dual solver's resolution and its bracket."""
    families = ("continuous", "ties", "offset", "huge", "constant")
    for k in range(count):
        family = families[k % len(families)]
        n = int(rng.choice([1, 2, 3, 10, 200, 5000]))
        p = float(rng.choice([0.0, 0.5, 0.9, 0.999, 0.999999]))
        z = rng.normal(0.0, 1.0, n)
        scale = 1e12 if family == "huge" else 1.0
        u = {"continuous": z, "ties": np.round(z), "offset": 1e8 + z,
             "huge": z * scale, "constant": np.full(n, 3.0)}[family]
        nu = scale * float(10 ** rng.uniform(-8, 8))
        yield family, u, p, nu


class TestSolverEdgeBattery:
    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_feasible_and_sandwiched(self, kind):
        eps = np.finfo(float).eps
        failures = []
        for family, u, p, nu in edge_instances(np.random.default_rng(27), 1500):
            spec = SmoothingSpec(kind, nu)
            sol = solve_dual_1d(u, spec, p)
            exact = superquantile_integral(u, p)
            dmax = divergence_max(spec, u.size, p)
            slack = 1e-12 * max(1.0, abs(exact)) + 4.0 * eps * nu * max(1.0, dmax)
            ok = (sol.weights.min() >= 0.0 and sol.weights.max() <= tail_cap(u.size, p)
                  and abs(sol.weights.sum() - 1.0) <= 1e-7
                  and exact - nu * dmax - slack <= sol.value <= exact + slack)
            if not ok:
                failures.append((family, u.size, p, nu, float(sol.weights.sum()) - 1.0))
        assert not failures, f"{len(failures)} failures, first: {failures[:3]}"


class TestTinyNuIntegerSamples:
    """Integer samples at nu far below their spacing: ties and a stiff KL exponential."""

    def test_feasible_and_sandwiched(self):
        # a Newton step that leaves eta where it was must bisect, not end the solve
        rng = np.random.default_rng(0)
        failures = []
        for _ in range(2000):
            n = int(rng.integers(2, 50))
            p = float(rng.choice([0.5, 0.75, 0.9]))
            u = rng.integers(0, 10, n).astype(float)
            exact = superquantile_integral(u, p)
            slack = 1e-12 * max(1.0, abs(exact))
            for nu in (1e-17, 1e-20):
                for kind in smoothing_module._KINDS:
                    spec = SmoothingSpec(kind, nu)
                    sol = solve_dual_1d(u, spec, p)
                    ok = (sol.weights.min() >= 0.0 and sol.weights.max() <= tail_cap(n, p)
                          and abs(sol.weights.sum() - 1.0) <= 1e-12
                          and exact - nu * divergence_max(spec, n, p) - slack <= sol.value <= exact + slack)
                    if not ok:
                        failures.append((kind, u.tolist(), p, nu, float(sol.weights.sum()) - 1.0))
        assert not failures, f"{len(failures)} failures, first: {failures[:3]}"

    def test_kl_sums_to_one(self):
        sol = solve_dual_1d([0.0, 1.0, 2.0, 5.0], SmoothingSpec("kl", 1e-17), 0.5)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.value == pytest.approx(superquantile_integral([0.0, 1.0, 2.0, 5.0], 0.5), rel=1e-12)


def warm_starts(rng, u, cold):
    """Newton starts for one sample, measured from its p-quantile.

    The cold solve's own, that one perturbed, the sample's extremes moved 1e3
    outwards, one about 1e6 away, and the non-finite ones.
    """
    return (cold, cold + rng.normal() * (1.0 + 1e-3 * abs(cold)), float(u.max()) + 1e3,
            float(u.min()) - 1e3, float(rng.choice([-1.0, 1.0]) * 1e6 * rng.uniform(0.5, 2.0)),
            math.nan, math.inf, -math.inf)


class TestWarmStartEdgeBattery:
    """The oracle's warm-started solve meets the edge battery's criteria from any start."""

    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_feasible_and_sandwiched_from_any_start(self, kind):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(28)
        failures = []
        solves = 0
        for family, u, p, nu in edge_instances(np.random.default_rng(27), 1500):
            spec = SmoothingSpec(kind, nu)
            exact = superquantile_integral(u, p)
            dmax = divergence_max(spec, u.size, p)
            slack = 1e-12 * max(1.0, abs(exact)) + 4.0 * eps * nu * max(1.0, dmax)
            for start in warm_starts(rng, u, solve_dual_1d(u, spec, p).start):
                sol = solve_dual_1d(u, spec, p, start=start)
                solves += 1
                ok = (sol.weights.min() >= 0.0 and sol.weights.max() <= tail_cap(u.size, p)
                      and abs(sol.weights.sum() - 1.0) <= 1e-7
                      and exact - nu * dmax - slack <= sol.value <= exact + slack)
                if not ok:
                    failures.append((family, u.size, p, nu, start, float(sol.weights.sum()) - 1.0))
        assert solves == 1500 * 8
        assert not failures, f"{len(failures)} failures, first: {failures[:3]}"

    def test_start_outside_bracket_is_cold(self):
        u = np.random.default_rng(29).normal(0.0, 1.0, 300)
        spec = SmoothingSpec("kl", 0.05)
        cold = solve_dual_1d(u, spec, 0.9)
        # a bisection solution's start is NaN, a cold start
        bisected = bisect_dual(u, spec, 0.9).start
        assert math.isnan(bisected)
        for start in (None, math.nan, bisected, math.inf, -math.inf, float(u.max()) + 1e3, float(u.min()) - 1e3):
            sol = solve_dual_1d(u, spec, 0.9, start=start)
            assert sol.threshold == cold.threshold and sol.value == cold.value
            assert sol.weights.tobytes() == cold.weights.tobytes()

    @pytest.mark.parametrize("nu", [0.01, 0.03])
    def test_kl_warm_start_is_kept_where_the_model_has_no_root(self, nu, monkeypatch):
        # scripts/dual_timing.py's seed-0 sample at n = 160, p = 0.9, moved by a relative 1e-3: at
        # the warm start the 16 capped rows alone hold weight 1, so the Newton model in
        # x = exp(-eta/nu) has no root; bisecting the cold bracket from there took 14 passes
        rng = np.random.default_rng(0)
        x = rng.standard_normal(160)
        u = 0.5 * ((0.5 + np.abs(x)) * rng.standard_normal(160)) ** 2
        moved = u * (1.0 + 1e-3 * rng.standard_normal(160))
        spec = SmoothingSpec("kl", nu)
        start = solve_dual_1d(u, spec, 0.9).start
        record = smoothing_module._KINDS["kl"]
        weights_and_curvature = record.weights_and_curvature
        passes = []

        def counted_pass(*args):
            passes[-1] += 1
            return weights_and_curvature(*args)

        monkeypatch.setattr(record, "weights_and_curvature", counted_pass)
        solves = []
        for guess in (None, start):
            passes.append(0)
            solves.append(solve_dual_1d(moved, spec, 0.9, start=guess))
        monkeypatch.undo()
        cold, warm = solves
        assert 0 < passes[1] <= passes[0]
        assert warm.value == pytest.approx(cold.value, rel=1e-14)
        np.testing.assert_allclose(warm.weights, cold.weights, rtol=0.0, atol=1e-12)


def floor_rows(u, spec, p):
    """Rows that the dual solve's filter drops by its rule: ``v_i <= lo + s_floor``.

    ``v`` is the sample centred at its p-quantile and ``lo = -s_cap`` the
    lower end of the bracket.
    """
    kind = smoothing_module._KINDS[spec.kind](spec.nu, u.size, p)
    return u - quantile(u, p) <= -kind.s_cap + kind.s_floor


def filter_instances(rng):
    """``(label, kind, u, p, nu)``: the edge cases of the candidate filter."""
    for kind, nu in (("euclidean", 1.0), ("kl", 0.01)):
        # 49 rows below the quantile 5.0, most of them at the floor, one ulp
        # on either side of it, or below it; 50 rows above the quantile
        record = smoothing_module._KINDS[kind](nu, 100, 0.5)
        at = 5.0 + (-record.s_cap + record.s_floor)
        low = np.concatenate([np.full(20, at), np.full(5, np.nextafter(at, 0.0)), np.full(5, np.nextafter(at, -1.0)),
                              5.0 + (at - 5.0) * rng.uniform(1.0, 3.0, 19)])
        yield "ties at the floor", kind, rng.permutation(np.concatenate([low, [5.0], 5.0 + rng.uniform(0.0, 1.0, 50)])), 0.5, nu
        # n p just above an integer: the 8 rows from the quantile 5.0 up sum
        # to 1.0001 at the cap, so the root lies just above lo, and the two
        # rows just above the floor carry weight there
        record = smoothing_module._KINDS[kind](nu, 10, 0.2001)
        above_floor = 5.0 + (-record.s_cap + record.s_floor) + np.array([0.25, 0.75]) * nu / 10
        yield "root near lo", kind, np.concatenate([above_floor, [5.0], 5.0 + rng.uniform(0.0, 1.0, 7)]), 0.2001, nu
    for kind in smoothing_module._KINDS:
        yield "n = 1", kind, np.array([3.0]), 0.7, 0.5
        yield "n = 5000", kind, rng.normal(0.0, 1.0, 5000) ** 2, 0.9, 0.01
        yield "p = 0.999999", kind, rng.normal(0.0, 1.0, 300), 0.999999, 0.1
        yield "huge nu", kind, rng.normal(0.0, 1.0, 300), 0.9, 1e6
        yield "tiny nu", kind, rng.normal(0.0, 1.0, 300), 0.9, 1e-8
        yield "1e8 offset", kind, 1e8 + rng.normal(0.0, 1.0, 300), 0.9, 0.05
        yield "integer ties", kind, np.round(rng.normal(0.0, 2.0, 300)), 0.8, 1e-3


class TestIterationBudget:
    """A solve that spends ``_NEWTON_MAX_ITER`` passes returns the solution at its last ``eta``."""

    # nu where neither kind converges within two passes, below and above the row gate
    @pytest.mark.parametrize("kind, nu", [("euclidean", 20.0), ("kl", 0.05)])
    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("n", [50, 3000])
    def test_spent_budget_returns_its_own_threshold(self, kind, nu, budget, n, monkeypatch):
        monkeypatch.setattr(smoothing_module, "_NEWTON_MAX_ITER", budget)
        u = np.random.default_rng(31).normal(0.0, 2.0, n)
        p, spec = 0.9, SmoothingSpec(kind, nu)
        sol = solve_dual_1d(u, spec, p)
        # the budget ran out before the slope reached its tolerance
        assert abs(sol.weights.sum() - 1.0) > 1e-6
        s = u - sol.threshold
        np.testing.assert_allclose(sol.weights, scalar_conjugate_grad(s, spec, n, p), rtol=0.0,
                                   atol=1e-12 * tail_cap(n, p))
        assert relative_gap(sol.value, sol.threshold + scalar_conjugate(s, spec, n, p).sum()) <= 1e-12


class TestCandidateFilter:
    """The dual solve drops the rows at their floor weight before its first pass.

    The filter runs only on samples large enough to pay for it; here the
    size gate is lowered, so that it runs on every instance.
    """

    @pytest.fixture(autouse=True)
    def filter_always(self, monkeypatch):
        monkeypatch.setattr(smoothing_module, "_ROW_GATE", 1)

    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_floor_bounds_the_dropped_weights(self, kind):
        # below s_floor a weight is 0 (euclidean) or below exp(-41)/n (kl),
        # and its value is floor_value
        for n, p, nu in ((1, 0.0, 1.0), (7, 0.5, 0.3), (4000, 0.99, 1e-3)):
            spec = SmoothingSpec(kind, nu)
            record = smoothing_module._KINDS[kind](nu, n, p)
            s = record.s_floor - np.array([0.0, 1e-9, 1.0, 1e3]) * nu
            weights = scalar_conjugate_grad(s, spec, n, p)
            bound = 0.0 if kind == "euclidean" else math.exp(-41.0) / n
            assert np.all(weights <= bound)
            floor_value = scalar_conjugate(s[0], spec, n, p)
            # at s_floor itself a kl value is nu exp(-41)/n, up to rounding
            assert record.floor_value == pytest.approx(floor_value, rel=1e-15, abs=(1.0 + 1e-12) * nu * bound)

    def test_dropped_euclidean_weights_are_zero(self):
        rng = np.random.default_rng(62)
        dropped_somewhere = 0
        for label, kind, u, p, nu in filter_instances(rng):
            if kind != "euclidean":
                continue
            spec = SmoothingSpec(kind, nu)
            dropped = floor_rows(u, spec, p)
            dropped_somewhere += int(dropped.sum())
            for sol in (solve_dual_1d(u, spec, p), solve_dual_1d(u, spec, p, start=0.0)):
                assert np.all(sol.weights[dropped] == 0.0), label
        assert dropped_somewhere > 0

    def test_dropped_kl_mass_is_below_bound(self):
        rng = np.random.default_rng(63)
        dropped_somewhere = 0
        for label, kind, u, p, nu in filter_instances(rng):
            if kind != "kl":
                continue
            spec = SmoothingSpec(kind, nu)
            dropped = floor_rows(u, spec, p)
            dropped_somewhere += int(dropped.sum())
            sol = solve_dual_1d(u, spec, p)
            # what the dropped rows would weigh at the solution's threshold
            exact = scalar_conjugate_grad(u[dropped] - sol.threshold, spec, u.size, p)
            assert exact.sum() < math.exp(-41.0), label
            assert np.all(sol.weights[dropped] <= math.exp(-41.0) / u.size), label
        assert dropped_somewhere > 0

    def test_agrees_with_bisection_and_sorted_reference(self):
        rng = np.random.default_rng(64)
        eps = np.finfo(float).eps
        for label, kind, u, p, nu in filter_instances(rng):
            spec = SmoothingSpec(kind, nu)
            sol = solve_dual_1d(u, spec, p)
            cap = tail_cap(u.size, p)
            value, weights = sorted_smoothed_superquantile(u, kind, nu, p)
            # 4 eps nu: the KL value at large nu is known to be off by about eps nu
            slack = 1e-12 * max(1.0, abs(value)) + 4.0 * eps * nu
            ref = bisect_dual(u, spec, p)
            for other_value, other_weights in ((value, weights), (ref.value, ref.weights)):
                assert abs(sol.value - other_value) <= slack, (label, kind)
                assert np.abs(sol.weights - other_weights).max() <= 1e-12 * cap, (label, kind)
            assert abs(sol.weights.sum() - 1.0) <= 1e-12, (label, kind)

    def test_matches_the_unfiltered_solve(self, monkeypatch):
        rng = np.random.default_rng(65)
        instances = list(filter_instances(rng))
        filtered = [(solve_dual_1d(u, SmoothingSpec(kind, nu), p), floor_rows(u, SmoothingSpec(kind, nu), p))
                    for _, kind, u, p, nu in instances]
        monkeypatch.setattr(smoothing_module, "_ROW_GATE", math.inf)
        for (label, kind, u, p, nu), (sol, dropped) in zip(instances, filtered):
            full = solve_dual_1d(u, SmoothingSpec(kind, nu), p)
            cap = tail_cap(u.size, p)
            if not dropped.any():
                # the filter drops a subset of these rows; with none, the same passes on the same rows
                assert sol.value == full.value and sol.threshold == full.threshold, (label, kind)
                assert sol.weights.tobytes() == full.weights.tobytes(), (label, kind)
            assert abs(sol.value - full.value) <= 4.0 * np.finfo(float).eps * max(1.0, abs(full.value)), (label, kind)
            assert np.abs(sol.weights - full.weights).max() <= 1e-12 * cap, (label, kind)


class TestFilterGate:
    @pytest.mark.parametrize("kind", list(smoothing_module._KINDS))
    def test_filter_runs_only_on_large_samples(self, kind, monkeypatch):
        rng = np.random.default_rng(66)
        spec = SmoothingSpec(kind, 0.01)
        gathered = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda mask: gathered.append(mask.size) or flatnonzero(mask))
        gate = smoothing_module._ROW_GATE
        for n, filtered in ((160, False), (gate - 1, False), (gate, True)):
            gathered.clear()
            sol = solve_dual_1d(rng.normal(0.0, 1.0, n) ** 2, spec, 0.9)
            assert bool(gathered) == filtered, n
            assert abs(sol.weights.sum() - 1.0) <= 1e-12, n


class TestPreScreenedSolve:
    """``solve_dual_1d(u[kept], spec, p, start, n=u.size)`` is the solve on all of ``u``.

    ``kept`` holds every candidate of the filter and some of the rows it
    drops; the others are left out by the caller, as a screened loss map does.
    """

    @staticmethod
    def candidates(u, spec, p):
        # the filter's own rule, with the same bits: v > -gap
        return u - quantile(u, p) > -smoothing_module._floor_gap(spec, u.size, p)

    @pytest.mark.parametrize("kind,nu", [("euclidean", 1.0), ("kl", 0.01)])
    @pytest.mark.parametrize("n", [2000, 5000])
    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, 0.999])
    def test_matches_the_full_solve(self, kind, nu, n, p):
        rng = np.random.default_rng(67)
        spec = SmoothingSpec(kind, nu)
        squares = rng.normal(0.0, 1.0, n) ** 2
        # the second sample is rounded to 0.1, so that many rows tie with the quantile
        for label, u in (("distinct", squares), ("ties", np.round(squares, 1))):
            candidates = self.candidates(u, spec, p)
            dropped_some = False
            for kept in (candidates, candidates | (rng.random(n) < 0.5)):
                dropped_some |= not kept.all()
                full = solve_dual_1d(u, spec, p)
                for start in (None, full.start, full.start + 1e-3 * nu):
                    ref = solve_dual_1d(u, spec, p, start=start)
                    sol = solve_dual_1d(u[kept], spec, p, start=start, n=n)
                    assert sol.threshold == ref.threshold and sol.value == ref.value, (label, start)
                    assert sol.start == ref.start, (label, start)
                    assert sol.weights.tobytes() == ref.weights[kept].tobytes(), (label, start)
                    assert np.all(ref.weights[~kept] == 0.0), (label, start)
            # at p = 0 the quantile is the minimum and no row sits a gap below it
            assert dropped_some == (p > 0.0), label

    def test_bad_sizes_rejected(self):
        rng = np.random.default_rng(68)
        spec = SmoothingSpec("euclidean", 1.0)
        u = rng.normal(0.0, 1.0, 5000) ** 2
        top = np.sort(u)[1000:]  # m = 4000 values
        for n in (3999, 0, 4000.0, 5000.0, 4500.5, True, "5000"):
            with pytest.raises(ValueError, match="sample size n"):
                solve_dual_1d(top, spec, 0.5, n=n)
        # n - m omitted rows at or above the quantile's rank k leave it no rank among the m
        for n, p in ((8000, 0.5), (9000, 0.5), (5000, 0.2), (4001, 0.0)):
            with pytest.raises(ValueError, match="reach the p-quantile"):
                solve_dual_1d(top, spec, p, n=n)
        # n = 7999, p = 0.5: k - (n - m) = 4000 - 3999 = 1, the smallest given value is the quantile
        sol = solve_dual_1d(top, spec, 0.5, n=7999)
        assert sol.weights.shape == top.shape and abs(sol.weights.sum() - 1.0) <= 1e-12


class TestApproximationQuality:
    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_sandwich_bound(self, kind):
        rng = np.random.default_rng(19)
        for _ in range(150):
            u, p = random_instance(rng)
            nu = float(10 ** rng.uniform(-3, 2))
            spec = SmoothingSpec(kind, nu)
            exact = superquantile_integral(u, p)
            value, _ = smoothed_superquantile(u, spec, p)
            slack = 1e-10 * max(1.0, abs(exact))
            assert value <= exact + slack
            assert exact <= value + nu * divergence_max(spec, u.size, p) + slack

    def test_divergence_max_dominates_polytope(self):
        rng = np.random.default_rng(20)
        for kind in ("euclidean", "kl"):
            for _ in range(40):
                n = int(rng.integers(1, 8))
                p = float(rng.uniform(0, 0.9))
                spec = SmoothingSpec(kind, 1.0)
                cap = tail_cap(n, p)
                dmax = divergence_max(spec, n, p)
                raw = np.abs(rng.normal(0, 1, n)) + 1e-3
                q = np.minimum(raw / raw.sum(), cap)
                q += (1.0 - q.sum()) / n  # nudge back onto the simplex
                if q.max() <= cap and q.min() >= 0:
                    assert divergence(q, spec, n) <= dmax + 1e-12

    def test_uniform_weights_have_zero_divergence(self):
        for kind in ("euclidean", "kl"):
            assert divergence(np.full(5, 0.2), SmoothingSpec(kind, 1.0), 5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_small_nu_recovers_exact_value(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(40):
            u, p = random_instance(rng)
            nu = 1e-9 * max(1.0, float(u.max() - u.min()))
            spec = SmoothingSpec(kind, nu)
            value, _ = smoothed_superquantile(u, spec, p)
            exact = superquantile_integral(u, p)
            assert abs(value - exact) <= nu * divergence_max(spec, u.size, p) + 1e-12 * max(1, abs(exact))

    def test_large_nu_euclidean_tends_to_mean_and_uniform(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            u, p = random_instance(rng, max_n=40)
            span = max(1.0, float(u.max() - u.min()))
            value, weights = smoothed_superquantile(u, SmoothingSpec("euclidean", 1e9 * span), p)
            assert relative_gap(value, float(u.mean())) < 1e-6
            assert np.abs(weights - 1.0 / u.size).max() < 1e-6

    def test_p_zero_equals_mean_for_any_nu(self):
        rng = np.random.default_rng(23)
        u = rng.normal(3, 2, 33)
        for kind in ("euclidean", "kl"):
            for nu in (1e-3, 1.0, 1e3):
                value, weights = smoothed_superquantile(u, SmoothingSpec(kind, nu), 0.0)
                assert value == pytest.approx(u.mean(), rel=1e-10)
                np.testing.assert_allclose(weights, np.full(u.size, 1 / u.size), atol=1e-10)


class TestScipyCrossCheck:
    """The primal maximization over the capped simplex, solved by SLSQP, gives the same value and weights."""

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_primal_maximization_agrees(self, kind):
        from scipy.optimize import minimize
        from scipy.special import xlogy

        rng = np.random.default_rng(24)
        for _ in range(4):
            n = int(rng.integers(3, 10))
            u = rng.normal(0, 1, n)
            p = float(rng.uniform(0.1, 0.8))
            nu = float(10 ** rng.uniform(-0.7, 0.3))
            if kind == "euclidean":
                def penalty(q):
                    return 0.5 * np.sum((q - 1.0 / n) ** 2)
            else:
                def penalty(q):  # KL to the uniform weights, 0 log 0 = 0
                    return np.sum(xlogy(q, n * q))
            result = minimize(lambda q: nu * penalty(q) - u @ q, np.full(n, 1.0 / n), method="SLSQP",
                              bounds=[(0.0, tail_cap(n, p))] * n,
                              constraints=[{"type": "eq", "fun": lambda q: np.sum(q) - 1.0}],
                              options={"ftol": 1e-14, "maxiter": 1000})
            assert result.success, result.message
            value, weights = smoothed_superquantile(u, SmoothingSpec(kind, nu), p)
            assert -result.fun == pytest.approx(value, abs=1e-10)
            np.testing.assert_allclose(result.x, weights, atol=1e-6)


class TestPositivePartSmoothing:
    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_scaling_identity_with_conjugate(self, kind):
        # rescaling the divergence from [0, cap] to [0, 1] multiplies the
        # conjugate by n(1-p); the two routes use different arithmetic
        for (n, p, nu) in [(7, 0.3, 0.5), (20, 0.9, 0.05), (3, 0.0, 2.0), (50, 0.77, 1e-2)]:
            spec = SmoothingSpec(kind, nu)
            s = np.linspace(-6.0, 6.0, 2001) * max(1.0, nu)
            lhs = n * (1.0 - p) * scalar_conjugate(s, spec, n, p)
            rhs = smoothed_positive_part(s, spec, n, p)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_euclidean_negative_limit(self):
        n, p, nu = 6, 0.4, 1.3
        spec = SmoothingSpec("euclidean", nu)
        floor = -nu * (1.0 - p) / (2.0 * n)
        assert smoothed_positive_part(-50.0, spec, n, p) == pytest.approx(floor, abs=1e-15)
        # grid-search confirmation of the constrained maximum
        c = n * (1 - p)
        reference = grid_max(lambda t: -50.0 * t - nu * (t - (1 - p)) ** 2 / (2 * c), 0.0, 1.0)
        assert smoothed_positive_part(-50.0, spec, n, p) == pytest.approx(reference, abs=1e-9)

    def test_slope_one_regime(self):
        n, p, nu = 5, 0.6, 0.8
        spec = SmoothingSpec("euclidean", nu)
        big = np.array([5.0, 9.0, 40.0])
        vals = smoothed_positive_part(big, spec, n, p)
        diffs = vals - big
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    @pytest.mark.parametrize("kind", ["euclidean", "kl"])
    def test_min_form_reproduces_smoothed_superquantile(self, kind):
        from scipy.optimize import minimize_scalar
        rng = np.random.default_rng(25)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            u = rng.normal(0, 3, n)
            p = float(rng.uniform(0.05, 0.95))
            nu = float(10 ** rng.uniform(-2, 0.5))
            spec = SmoothingSpec(kind, nu)
            value, _ = smoothed_superquantile(u, spec, p)
            c = n * (1.0 - p)
            result = minimize_scalar(
                lambda eta: eta + smoothed_positive_part(u - eta, spec, n, p).sum() / c,
                bounds=(float(u.min()) - 3 * nu - 1, float(u.max()) + 3 * nu + 1),
                method="bounded", options={"xatol": 1e-12})
            assert relative_gap(result.fun, value) < 1e-9


class TestConvolutionSmoothing:
    def test_logistic_is_softplus(self):
        dens = DensitySpec("logistic")
        etas = np.linspace(-30, 30, 301)
        np.testing.assert_allclose(conv_smoothed_positive_part(etas, dens, 1.0),
                                   np.logaddexp(0.0, etas), rtol=1e-14)

    def test_symmetric_density_at_zero(self):
        # value at zero is half the mean absolute deviation of the mollifier
        assert conv_smoothed_positive_part(0.0, DensitySpec("logistic"), 1.0) == pytest.approx(math.log(2.0))
        assert conv_smoothed_positive_part(0.0, DensitySpec("gaussian"), 1.0) == \
            pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        assert conv_smoothed_positive_part(0.0, DensitySpec("uniform", -1, 1), 1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("kind,a,b", [("logistic", 0, 0), ("gaussian", 0, 0),
                                          ("uniform", -1.0, 1.0), ("uniform", -0.3, 2.0)])
    def test_matches_quadrature(self, kind, a, b):
        dens = DensitySpec(kind, a, b) if kind == "uniform" else DensitySpec(kind)
        for nu in (0.2, 1.0, 2.5):
            for x in np.linspace(-5, 5, 21):
                closed = conv_smoothed_positive_part(float(x), dens, nu)
                quadrature = conv_smoothed_positive_part_quadrature(float(x), dens, nu)
                assert closed == pytest.approx(quadrature, abs=1e-9)

    def test_pointwise_limit_to_positive_part(self):
        for kind in ("logistic", "gaussian"):
            dens = DensitySpec(kind)
            for x in (-3.0, -0.5, 0.7, 4.0):
                assert conv_smoothed_positive_part(x, dens, 1e-8) == pytest.approx(max(x, 0.0), abs=1e-7)

    def test_convex_and_above_positive_part(self):
        xs = np.linspace(-4, 4, 401)
        for kind in ("logistic", "gaussian"):
            vals = conv_smoothed_positive_part(xs, DensitySpec(kind), 0.7)
            assert np.all(np.diff(vals, 2) >= -1e-12)
            assert np.all(vals >= np.maximum(xs, 0.0) - 1e-12)

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("kind", ["logistic", "gaussian", "uniform"])
    def test_strength_must_be_positive_and_finite(self, kind, nu):
        # as SmoothingSpec: at nu = inf the logistic form would return inf for every x
        with pytest.raises(ValueError, match="nu must be positive"):
            conv_smoothed_positive_part(1.0, DensitySpec(kind), nu)

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="unknown density"):
            DensitySpec("laplace")

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                     (0.0, math.nan), (math.nan, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_uniform_support_must_be_a_finite_interval(self, a, b):
        # with b = inf the pdf, cdf and smoothed positive part at 0.5 would all be 0.0, no smoothing
        with pytest.raises(ValueError, match="finite a < b"):
            DensitySpec("uniform", a, b)

    @pytest.mark.parametrize("kind", ["logistic", "gaussian"])
    @pytest.mark.parametrize("a,b", [(3.0, 9.0), (-1.0, 2.0), (0.0, 1.0)])
    def test_support_of_unbounded_density_rejected(self, kind, a, b):
        # pdf, mean and the smoothed positive part would ignore the support
        with pytest.raises(ValueError, match="no support parameters"):
            DensitySpec(kind, a, b)
        assert DensitySpec(kind, -1.0, 1.0) == DensitySpec(kind)


class TestAgainstScipySpecial:
    """The library's numpy and standard-library forms against ``scipy.special``."""

    def test_logistic_cdf_is_expit(self):
        from scipy.special import expit

        x = np.concatenate([np.linspace(-700.0, 700.0, 14001), np.random.default_rng(47).normal(0.0, 20.0, 5000)])
        np.testing.assert_allclose(DensitySpec("logistic").cdf(x), expit(x), rtol=1e-15, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert DensitySpec("logistic").cdf(np.array([-1e3, 1e3])).tolist() == [0.0, 1.0]

    def test_gaussian_cdf_is_ndtr(self):
        from scipy.special import ndtr

        x = np.linspace(-20.0, 20.0, 40001)
        np.testing.assert_allclose(DensitySpec("gaussian").cdf(x), ndtr(x), rtol=1e-12, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert DensitySpec("gaussian").cdf(np.array([-1e3, 1e3])).tolist() == [0.0, 1.0]
            assert conv_smoothed_positive_part(np.array([-1e3, 1e3]), DensitySpec("gaussian"), 1.0).tolist() == \
                [0.0, 1e3]

    def test_gaussian_quantile_is_ndtri(self):
        from scipy.special import ndtri

        t = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1], 10.0 ** -np.arange(1.0, 300.0),
                            1.0 - 10.0 ** -np.arange(1.0, 16.0)])
        np.testing.assert_allclose(DensitySpec("gaussian").quantile_fn(t), ndtri(t), rtol=1e-14, atol=0.0)
        edges = np.array([0.0, 1.0, -0.5, 1.5, math.nan])
        expected = [-math.inf, math.inf, math.nan, math.nan, math.nan]
        np.testing.assert_array_equal(ndtri(edges), expected)
        np.testing.assert_array_equal(DensitySpec("gaussian").quantile_fn(edges), expected)
        assert DensitySpec("gaussian").quantile_fn(0.0) == -math.inf

    def test_logistic_quantile_edges_are_silent(self):
        # the suite turns RuntimeWarning into an error, so a warning at an end fails here
        logistic = DensitySpec("logistic")
        edges = np.array([0.0, 1.0, -0.5, 1.5, math.nan])
        np.testing.assert_array_equal(logistic.quantile_fn(edges), [-math.inf, math.inf, math.nan, math.nan, math.nan])
        assert logistic.quantile_fn(0.0) == -math.inf and logistic.quantile_fn(1.0) == math.inf
        assert math.isnan(logistic.quantile_fn(1.5))
        t = np.linspace(0.0, 1.0, 101)[1:-1]
        np.testing.assert_allclose(logistic.cdf(logistic.quantile_fn(t)), t, rtol=1e-14, atol=0.0)

    def test_kl_divergence_is_xlogy_sum(self):
        from scipy.special import xlogy

        rng = np.random.default_rng(48)
        for n in (1, 2, 7, 100, 5000):
            keep = rng.uniform(size=n) < 0.7
            keep[0] = True
            q = rng.dirichlet(np.ones(n)) * keep
            q /= q.sum()
            expected = float(xlogy(q, q * n).sum())
            assert divergence(q, SmoothingSpec("kl", 1.0), n) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestDensityDivergenceConversions:
    def test_logistic_divergence_is_binary_entropy(self):
        dbar = divergence_from_density(DensitySpec("logistic"))
        t = np.linspace(1e-9, 1 - 1e-9, 501)
        expected = t * np.log(t) + (1 - t) * np.log1p(-t)
        np.testing.assert_allclose(dbar(t), expected, atol=1e-12)
        assert dbar(0.5) == pytest.approx(-math.log(2.0))
        assert dbar(0.0) == 0.0
        assert dbar(1.0) == 0.0

    @pytest.mark.parametrize("kind,a,b", [("logistic", 0, 0), ("gaussian", 0, 0),
                                          ("uniform", -1.0, 1.0)])
    def test_conjugacy_recovers_convolution(self, kind, a, b):
        dens = DensitySpec(kind, a, b) if kind == "uniform" else DensitySpec(kind)
        dbar = divergence_from_density(dens)
        grid = np.linspace(0.0, 1.0, 4001)
        penalties = dbar(grid)
        for x in np.linspace(-8, 8, 33):
            candidates = x * grid - penalties
            stationary = float(dens.cdf(x))
            best = max(float(candidates.max()), x * stationary - float(dbar(stationary)))
            assert best == pytest.approx(conv_smoothed_positive_part(float(x), dens, 1.0), abs=1e-7)

    def test_softplus_entropy_conjugacy_from_sigmoid(self):
        dbar = divergence_from_density(DensitySpec("logistic"))
        etas = np.linspace(-30, 30, 601)
        t_star = 1.0 / (1.0 + np.exp(-etas))
        inner = etas * t_star - dbar(t_star)
        np.testing.assert_allclose(inner, np.logaddexp(0.0, etas), atol=1e-8)

    def test_domain_check(self):
        dbar = divergence_from_density(DensitySpec("logistic"))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dbar(1.5)


class TestDensityFromSmoothing:
    def test_euclidean_reconstruction(self):
        for (n, p, nu) in [(5, 0.4, 1.0), (30, 0.9, 0.3), (4, 0.0, 1.0), (12, 0.75, 2.0)]:
            spec = SmoothingSpec("euclidean", nu)
            recovered = density_from_smoothing(spec, n, p)
            dens = recovered.density
            assert nu * dens.a == pytest.approx(-nu / n, rel=1e-15)
            assert nu * dens.b == pytest.approx(nu * p / (n * (1 - p)), rel=1e-15, abs=1e-15)
            mass = dens.pdf(0.5 * (dens.a + dens.b)) * (dens.b - dens.a)
            assert mass == pytest.approx(1.0, rel=1e-12)
            assert recovered.max_reconstruction_error <= 1e-4
            assert recovered.tail_value == pytest.approx(-nu * (1 - p) / (2 * n), rel=1e-15)

    def test_pdf_support(self):
        dens = density_from_smoothing(SmoothingSpec("euclidean", 1.0), 5, 0.4).density
        assert dens.kind == "uniform"
        assert dens.pdf(0.5 * (dens.a + dens.b)) == 1.0 / (dens.b - dens.a)
        assert dens.pdf(dens.a - 1.0) == 0.0
        assert dens.pdf(dens.b + 1.0) == 0.0

    @pytest.mark.parametrize("n,p", [(5, 0.4), (30, 0.9), (4, 0.0), (12, 0.75)])
    def test_divergence_round_trip(self, n, p):
        # the conjugate of the recovered density's divergence, plus the tail
        # constant, is the unit-strength smoothed positive part
        spec = SmoothingSpec("euclidean", 1.0)
        recovered = density_from_smoothing(spec, n, p)
        dens = recovered.density
        dbar = divergence_from_density(dens)
        grid = np.linspace(0.0, 1.0, 4001)
        penalties = dbar(grid)
        width = dens.b - dens.a
        worst = 0.0
        for x in np.linspace(dens.a - width, dens.b + width, 41):
            stationary = float(dens.cdf(x))
            best = max(float((x * grid - penalties).max()), x * stationary - float(dbar(stationary)))
            rebuilt = best + recovered.tail_value
            worst = max(worst, abs(rebuilt - float(smoothed_positive_part(x, spec, n, p))))
        assert worst <= 1e-12

    def test_kl_rejected(self):
        with pytest.raises(ValueError, match="euclidean"):
            density_from_smoothing(SmoothingSpec("kl", 1.0), 5, 0.4)


class TestOneConjugatePerPass:
    @pytest.mark.parametrize("kind,elementwise", [("euclidean", "clip"), ("kl", "exp")])
    def test_value_reuses_last_pass(self, kind, elementwise, monkeypatch):
        # the weight formula runs once per Newton pass, and the value adds no run of its own
        counts = {"passes": 0, "elementwise": 0}
        record = smoothing_module._KINDS[kind]
        weights_and_curvature = record.weights_and_curvature
        numpy_fn = getattr(np, elementwise)

        def counted_pass(*args):
            counts["passes"] += 1
            return weights_and_curvature(*args)

        def counted_fn(*args, **kwargs):
            counts["elementwise"] += 1
            return numpy_fn(*args, **kwargs)

        u = np.random.default_rng(7).normal(0.0, 1.0, 500)
        monkeypatch.setattr(record, "weights_and_curvature", counted_pass)
        monkeypatch.setattr(np, elementwise, counted_fn)
        solve_dual_1d(u, SmoothingSpec(kind, 0.1), 0.9)
        monkeypatch.undo()
        assert counts["passes"] >= 1
        assert counts["elementwise"] == counts["passes"]


class TestDualObjectiveHelpers:
    def test_objective_value_at_solution_matches(self):
        rng = np.random.default_rng(26)
        u = rng.normal(0, 1, 21)
        spec = SmoothingSpec("euclidean", 0.3)
        sol = solve_dual_1d(u, spec, 0.6)
        assert dual_objective(sol.threshold, u, spec, 0.6) == pytest.approx(sol.value, rel=1e-14)
