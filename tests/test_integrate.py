from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.stats import norm

from hiermix import integrate
from hiermix.estimator import fit_model
from hiermix.integrate import (
    Adaptation,
    ReKernel,
    adapt_locations,
    gh_grid,
    gh_rule,
    halton,
    kernel_draws,
    log_correction,
    logsumexp,
    place_nodes,
)


def refused_fit(**settings):
    """Fit 4 clusters of 2 rows with integration settings that the fit's
    plan (``likelihood.default_plan``, which checks what reaches the
    rules and kernels here) must refuse before fitting."""
    data = {"id": np.repeat([1.0, 2.0, 3.0, 4.0], 2), "y": np.linspace(-1.0, 1.0, 8)}
    fit_model("(y M1[id], family(gaussian))", data, **settings)


def normal_moment(k: int) -> float:
    """E[X^k] for X ~ N(0,1): 0 for odd k, double factorial for even."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestGhRule:
    def test_single_point(self):
        r = gh_rule(1)
        np.testing.assert_array_equal(r.nodes, [0.0])
        np.testing.assert_array_equal(r.weights, [1.0])

    def test_two_points(self):
        r = gh_rule(2)
        np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_three_points(self):
        r = gh_rule(3)
        np.testing.assert_allclose(r.nodes, [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-13)
        np.testing.assert_allclose(r.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-13)

    @pytest.mark.parametrize("q", range(1, 21))
    def test_moment_exactness(self, q):
        # the rule integrates x^k against N(0,1) exactly for k <= 2q-1.
        # High moments are astronomically large (k=38 is ~8e21) and odd
        # moments are exact zeros reached by cancelling ~1e18-sized
        # terms, so the 1e-12 tolerance is relative to the integrand
        # scale E|X|^k (floor 1), the conditioning of the quadrature sum
        r = gh_rule(q)
        for k in range(2 * q):
            approx = float(r.weights @ r.nodes**k)
            exact = normal_moment(k)
            scale = max(1.0, float(r.weights @ np.abs(r.nodes) ** k))
            assert abs(approx - exact) < 1e-12 * scale, (q, k)

    def test_symmetry(self):
        r = gh_rule(8)
        np.testing.assert_array_equal(r.nodes, -r.nodes[::-1])
        np.testing.assert_array_equal(r.weights, r.weights[::-1])

    def test_grid(self):
        r = gh_rule(3)
        nodes, logw, log_std = gh_grid(r, 2)
        assert nodes.shape == (9, 2)
        assert abs(np.exp(logw).sum() - 1.0) < 1e-12
        np.testing.assert_allclose(log_std, norm.logpdf(nodes).sum(axis=1), rtol=1e-14)


class TestHalton:
    def test_base2_sequence(self):
        h = halton(4, 1, skip=0)
        np.testing.assert_allclose(h.values[:, 0], [0.5, 0.25, 0.75, 0.125])

    def test_base3_sequence(self):
        h = halton(4, 2, skip=0)
        np.testing.assert_allclose(h.values[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9])

    def test_first_bases_are_primes(self):
        h = halton(1, 6, skip=0)
        assert h.bases == (2, 3, 5, 7, 11, 13)

    def test_mean_near_half(self):
        h = halton(1000, 1, skip=0)
        assert abs(h.values.mean() - 0.5) < 0.01

    def test_prefix_stability(self):
        a = halton(50, 3, skip=15)
        b = halton(200, 3, skip=15)
        np.testing.assert_array_equal(a.values, b.values[:50])

    def test_open_interval(self):
        h = halton(500, 4, skip=0)
        assert np.all(h.values > 0) and np.all(h.values < 1)

    def test_skip_shifts(self):
        a = halton(10, 1, skip=5)
        b = halton(15, 1, skip=0)
        np.testing.assert_array_equal(a.values, b.values[5:])

    def test_negative_skip_rejected(self):
        # index 0 and below would give 0 and repeated points, which
        # ndtri turns into -inf draws
        with pytest.raises(ValueError, match="skip"):
            refused_fit(method="qmc", skip=-20)


class TestScaleDerivatives:
    @pytest.mark.parametrize("dist,df", [("normal", None), ("t", 5)])
    def test_match_central_differences(self, dist, df):
        kern = ReKernel(1, dist, df)
        b = np.array([-2.5, -0.3, 0.0, 0.8, 4.0])
        tau, h = -0.4, 1e-5

        def density(t):
            return kern.log_density(b[:, None], np.array([[np.exp(t)]]))

        d1, d2 = kern.scale_derivatives(b, np.array([[np.exp(tau)]]))
        np.testing.assert_allclose(d1, (density(tau + h) - density(tau - h)) / (2 * h), rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(
            d2, (density(tau + h) - 2 * density(tau) + density(tau - h)) / (h * h), rtol=1e-4, atol=1e-4
        )


class TestKernelDraws:
    def test_median_uniform_maps_to_zero(self):
        kern = ReKernel(2)
        u = halton(3, 2, 0)
        u = type(u)(np.full((3, 2), 0.5), u.bases, 0)
        draws = kernel_draws(kern, u)
        np.testing.assert_allclose(draws, 0.0, atol=1e-12)

    def test_normal_covariance(self):
        kern = ReKernel(2)
        chol = np.array([[1.0, 0.0], [0.6, 0.8]])
        u = halton(50_000, 2, skip=15)
        draws = kernel_draws(kern, u) @ chol.T
        cov = np.cov(draws.T)
        target = chol @ chol.T
        np.testing.assert_allclose(cov, target, rtol=0.02, atol=0.02)

    def test_t_covariance_inflation(self):
        # t(5) has covariance df/(df-2) = 5/3 times the scale matrix
        kern = ReKernel(2, dist="t", df=5)
        chol = np.array([[1.0, 0.0], [0.3, 0.9]])
        u = halton(200_000, 3, skip=15)
        draws = kernel_draws(kern, u) @ chol.T
        cov = np.cov(draws.T)
        target = (5.0 / 3.0) * chol @ chol.T
        np.testing.assert_allclose(cov, target, rtol=0.05, atol=0.05)

    def test_t_needs_extra_column(self):
        kern = ReKernel(2, dist="t", df=4)
        with pytest.raises(ValueError):
            kernel_draws(kern, halton(10, 2, 0))

    def test_gh_nodes_through_scale_transform(self):
        # pushing GH nodes through the Cholesky scale reproduces the rule
        # for the scaled normal: weights unchanged, second moment L L'
        rule = gh_rule(7)
        chol = np.array([[1.7]])
        x = rule.nodes[:, None] @ chol.T
        np.testing.assert_allclose(float(rule.weights @ x[:, 0] ** 2), 1.7**2, rtol=1e-12)
        np.testing.assert_allclose(float(rule.weights @ x[:, 0]), 0.0, atol=1e-12)

    def test_density_normal(self):
        kern = ReKernel(1)
        chol = np.array([[2.0]])
        b = np.array([[1.0]])
        expected = -0.5 * np.log(2 * np.pi) - np.log(2.0) - 0.5 * (1.0 / 2.0) ** 2
        np.testing.assert_allclose(kern.log_density(b, chol)[0], expected)

    def test_density_t_matches_scipy(self):
        from scipy.stats import t as t_dist

        kern = ReKernel(1, dist="t", df=4)
        chol = np.array([[1.5]])
        b = np.array([[0.7]])
        expected = t_dist.logpdf(0.7 / 1.5, df=4) - np.log(1.5)
        np.testing.assert_allclose(kern.log_density(b, chol)[0], expected, rtol=1e-12)


def adapt_one(logcond, kern, chol, q):
    """Adapt a single cell: ``logcond`` maps nodes (M, dim) to (M,)."""
    grid = gh_grid(gh_rule(q), kern.dim)
    fit = adapt_locations(lambda x: logcond(x[0])[None], kern, chol, grid, np.ones(1, bool))
    return fit.shift[0], fit.scale[0], fit.iterations[0], fit.fallback[0]


def conjugate(y, s2, sb2):
    """Log conditional of y_j ~ N(b, s2) and the closed-form posterior
    mean and sd of b under b ~ N(0, sb2).
    """
    post_var = 1.0 / (len(y) / s2 + 1.0 / sb2)

    def logcond(b):
        return np.sum(-0.5 * np.log(2 * np.pi * s2) - 0.5 * (y[None, :] - b) ** 2 / s2, axis=1)

    return logcond, post_var * np.sum(y) / s2, np.sqrt(post_var)


class TestAdaptLocations:
    def test_conjugate_gaussian_posterior(self):
        rng = np.random.default_rng(11)
        logcond, mean, sd = conjugate(rng.normal(1.2, 0.5, size=8), 0.25, 1.44)
        mu, lam, _, flagged = adapt_one(logcond, ReKernel(1), np.array([[1.2]]), 9)
        assert not flagged
        assert abs(mu[0] - mean) < 1e-8
        assert abs(lam[0, 0] - sd) < 1e-8

    def test_sharp_posterior_does_not_collapse(self):
        # the prior-scaled 5-point grid puts almost all posterior weight on
        # the node at 2.0; an unlimited covariance update shrinks the rule
        # to ~0 there and reports convergence
        logcond, mean, sd = conjugate(np.full(4, 3.0), 0.09, 0.49)
        mu, lam, iters, flagged = adapt_one(logcond, ReKernel(1), np.array([[0.7]]), 5)
        assert not flagged and iters < 20
        assert abs(mu[0] - mean) < 1e-8
        assert abs(lam[0, 0] - sd) < 1e-8

    def test_sharp_two_dimensional_posterior(self):
        # y_j ~ N(b1 + b2 t_j, s2): with many times the posterior is sharp
        # and strongly correlated, far narrower than the prior in one
        # direction only
        rng = np.random.default_rng(13)
        t = np.linspace(0.0, 4.0, 30)
        Z = np.column_stack([np.ones_like(t), t])
        s2, prior = 0.04, np.diag([0.8, 0.5])
        y = Z @ np.array([0.6, -0.3]) + rng.normal(0, 0.2, t.size)
        cov = np.linalg.inv(Z.T @ Z / s2 + np.linalg.inv(prior @ prior.T))
        mean = cov @ Z.T @ y / s2

        def logcond(b):
            return np.sum(-0.5 * (y[None, :] - b @ Z.T) ** 2 / s2, axis=1)

        mu, lam, iters, flagged = adapt_one(logcond, ReKernel(2), prior, 5)
        assert not flagged and iters < 20
        np.testing.assert_allclose(mu, mean, atol=1e-8)
        np.testing.assert_allclose(lam @ lam.T, cov, atol=1e-8)

    def test_cells_adapt_independently(self):
        rng = np.random.default_rng(12)
        ys = [rng.normal(m, 0.5, size=6) for m in (-1.0, 0.3, 2.0)]
        parts = [conjugate(y, 0.25, 1.0) for y in ys]
        fit = adapt_locations(
            lambda x: np.stack([p[0](x[g]) for g, p in enumerate(parts)]),
            ReKernel(1),
            np.eye(1),
            gh_grid(gh_rule(7), 1),
            np.array([True, False, True]),
        )
        mu, lam, flagged = fit.shift, fit.scale, fit.fallback
        assert not flagged.any()
        for g in (0, 2):
            assert abs(mu[g, 0] - parts[g][1]) < 1e-8
            assert abs(lam[g, 0, 0] - parts[g][2]) < 1e-8
        # an inactive cell keeps the prior
        np.testing.assert_array_equal(mu[1], [0.0])
        np.testing.assert_array_equal(lam[1], np.eye(1))

    def test_flat_likelihood_keeps_prior(self):
        mu, lam, _, _ = adapt_one(lambda x: np.zeros(len(x)), ReKernel(1), np.array([[0.8]]), 9)
        assert abs(mu[0]) < 1e-8
        assert abs(lam[0, 0] - 0.8) < 1e-6

    def test_nonfinite_integrand_flags_fallback(self):
        chol = np.array([[1.0]])
        mu, lam, _, flagged = adapt_one(lambda x: np.full(len(x), -np.inf), ReKernel(1), chol, 7)
        assert flagged
        np.testing.assert_array_equal(mu, [0.0])
        np.testing.assert_array_equal(lam, chol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_nodes_make_a_cell_fall_back(self, bad):
        # a cell whose conditional is NaN or +inf at some of its nodes has no
        # finite log integral, which the integration would read as a
        # non-finite value: it falls back, flagged, to (0, prior scale),
        # and the cells beside it adapt as they do when it is finite
        rng = np.random.default_rng(15)
        parts = [conjugate(rng.normal(m, 0.5, size=6), 0.25, 0.81) for m in (-1.0, 0.4, 2.0)]
        chol, grid, active = np.array([[0.9]]), gh_grid(gh_rule(7), 1), np.ones(3, dtype=bool)

        def finite(x):
            return np.stack([p[0](x[g]) for g, p in enumerate(parts)])

        def broken(x):
            out = finite(x)
            out[1, ::2] = bad
            return out

        fit = adapt_locations(broken, ReKernel(1), chol, grid, active)
        clean = adapt_locations(finite, ReKernel(1), chol, grid, active)
        mu, lam = fit.shift, fit.scale
        np.testing.assert_array_equal(fit.fallback, [False, True, False])
        assert not clean.fallback.any()
        np.testing.assert_array_equal(mu[1], [0.0])
        np.testing.assert_array_equal(lam[1], chol)
        for g in (0, 2):
            assert mu[g].tobytes() == clean.shift[g].tobytes() and lam[g].tobytes() == clean.scale[g].tobytes()
            assert abs(mu[g, 0] - parts[g][1]) < 1e-8 and abs(lam[g, 0, 0] - parts[g][2]) < 1e-8

    def test_start_warm_and_flagged_cells_cold(self):
        # cell 0 adapts, cell 1 falls back, cell 2 is inactive; adapted
        # again under a new prior scale from that result, cells 1 and 2
        # start at (0, the new prior scale), as a cold start does
        rng = np.random.default_rng(14)
        parts = [conjugate(rng.normal(m, 0.5, size=6), 0.25, 1.3**2) for m in (-1.0, 0.4, 2.0)]
        active, grid = np.array([True, True, False]), gh_grid(gh_rule(7), 1)

        def finite(x):
            return np.stack([p[0](x[g]) for g, p in enumerate(parts)])

        def broken(x):
            out = finite(x)
            out[1] = np.nan
            return out

        first = adapt_locations(broken, ReKernel(1), np.array([[0.7]]), grid, active)
        np.testing.assert_array_equal(first.fallback, [False, True, False])
        chol = np.array([[1.3]])
        warm = adapt_locations(finite, ReKernel(1), chol, grid, active, start=first)
        cold = adapt_locations(finite, ReKernel(1), chol, grid, active)
        assert not warm.fallback.any()
        for g in (1, 2):
            assert warm.iterations[g] == cold.iterations[g]
            assert warm.shift[g].tobytes() == cold.shift[g].tobytes()
            assert warm.scale[g].tobytes() == cold.scale[g].tobytes()
        np.testing.assert_array_equal(warm.scale[2], chol)
        for g in (0, 1):
            assert abs(warm.shift[g, 0] - parts[g][1]) < 1e-8 and abs(warm.scale[g, 0, 0] - parts[g][2]) < 1e-8
        # from a converged result, every active cell stops at its first pass
        again = adapt_locations(finite, ReKernel(1), chol, grid, active, start=warm)
        np.testing.assert_array_equal(again.iterations, [1, 1, 0])

    def test_converged_cells_keep_the_rule_last_evaluated(self):
        # a cell whose step falls below tol keeps the shift and scale that
        # sweep evaluated; with every cell converged no further evaluation
        # runs, and the value is that sweep's log integral, bit for bit
        rng = np.random.default_rng(16)
        parts = [conjugate(rng.normal(m, 0.5, size=6), 0.25, 0.81) for m in (-1.0, 0.4, 2.0)]
        chol, grid, kernel = np.array([[0.9]]), gh_grid(gh_rule(7), 1), ReKernel(1)
        seen = []

        def log_conditional(x):
            seen.append(x.copy())
            return np.stack([p[0](x[g]) for g, p in enumerate(parts)])

        fit = adapt_locations(log_conditional, kernel, chol, grid, np.ones(3, dtype=bool))
        assert not fit.fallback.any() and not fit.capped.any()
        assert len(seen) == fit.iterations.max()
        x, logdet = place_nodes(grid[0], fit.shift, fit.scale)
        assert x.tobytes() == seen[-1].tobytes()
        expect = logsumexp(log_correction(grid, kernel, chol, x, logdet) + log_conditional(x))
        assert fit.value.tobytes() == expect.tobytes()

    def test_value_after_a_last_sweep_that_moved_cells(self):
        # cell 0 is capped by max_iter, cell 1 falls back in the last sweep
        # (its conditional is NaN beyond 1.2, which the prior's nodes do not
        # reach and the next sweep's do) and cell 2 is inactive: every cell
        # is evaluated once more at the rule returned, with no update
        chol, grid, kernel = np.array([[0.3]]), gh_grid(gh_rule(7), 1), ReKernel(1)
        centre = np.array([[2.0], [3.0], [0.0]])
        calls = []

        def log_conditional(x):
            calls.append(1)
            out = -0.5 * 40.0 * (x[..., 0] - centre) ** 2
            out[1, x[1, :, 0] > 1.2] = np.nan
            return out

        fit = adapt_locations(log_conditional, kernel, chol, grid, np.array([True, True, False]), max_iter=2)
        np.testing.assert_array_equal(fit.capped, [True, False, False])
        np.testing.assert_array_equal(fit.fallback, [False, True, False])
        np.testing.assert_array_equal(fit.iterations, [2, 1, 0])
        assert len(calls) == 3
        for g in (1, 2):
            np.testing.assert_array_equal(fit.shift[g], [0.0])
            np.testing.assert_array_equal(fit.scale[g], chol)
        x, logdet = place_nodes(grid[0], fit.shift, fit.scale)
        with np.errstate(invalid="ignore"):
            expect = logsumexp(log_correction(grid, kernel, chol, x, logdet) + log_conditional(x))
        assert np.isfinite(expect).all()
        assert fit.value.tobytes() == expect.tobytes()
        # a caller that does not read the value gets the same rule without
        # the closing evaluation
        calls.clear()
        active = np.array([True, True, False])
        unread = adapt_locations(log_conditional, kernel, chol, grid, active, max_iter=2, value=False)
        assert len(calls) == 2 and unread.value is None
        for name, got, want in zip(Adaptation._fields[:5], unread, fit):
            assert got.tobytes() == want.tobytes(), name

    def test_t_kernel_requires_df_above_two(self):
        # the adaptation's moments need a finite kernel variance
        with pytest.raises(ValueError):
            refused_fit(method="aghq", redistribution="t", t_df=2)


@st.composite
def _adaptation_cases(draw) -> tuple:
    """A one-dimensional adaptation of 1 to 6 cells under a normal or
    t(5) kernel on 2 to 9 points: each cell's conditional is Gaussian or
    Poisson-like in its random effect, up to e^12 times sharper than the
    prior, so that the 1/16 floor binds, and is finite, -inf or NaN at
    every node or at some; some cells are inactive. The start is cold, or
    warm from drawn shifts and scales with some cells flagged.
    """
    k = draw(st.integers(1, 6))

    def per_cell(strategy):
        return np.array(draw(st.lists(strategy, min_size=k, max_size=k)))

    def within(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    dist = draw(st.sampled_from(["normal", "t"]))
    kernel = ReKernel(1, dist, 5 if dist == "t" else None)
    chol = np.array([[np.exp(draw(within(-3.0, 2.0)))]])
    grid = gh_grid(gh_rule(draw(st.integers(2, 9))), 1)
    centre, log_sharp = per_cell(within(-4.0, 4.0)), per_cell(within(-4.0, 12.0))
    poisson = per_cell(st.booleans())
    kind = per_cell(st.sampled_from(["finite"] * 4 + ["-inf", "nan", "some -inf", "some nan"]))
    active = per_cell(st.booleans())
    start = None
    if draw(st.booleans()):
        mu = per_cell(within(-3.0, 3.0))[:, None]
        lam = np.exp(per_cell(within(-6.0, 2.0)))[:, None, None]
        flagged = per_cell(st.booleans())
        start = Adaptation(mu, lam, np.zeros(k, dtype=int), flagged, np.zeros(k, dtype=bool), np.zeros(k))

    def log_conditional(x):
        b, sharp = x[..., 0], np.exp(log_sharp)[:, None]
        d = b - centre[:, None]
        # a Poisson count of about sharp at log-rate centre: y d - n (exp(d) - 1)
        out = np.where(poisson[:, None], sharp * (d - np.expm1(d)), -0.5 * sharp * d * d)
        out[kind == "-inf"] = -np.inf
        out[kind == "nan"] = np.nan
        out[(kind == "some -inf")[:, None] & (d > 0.0)] = -np.inf
        out[(kind == "some nan")[:, None] & (np.arange(x.shape[1]) % 2 == 0)] = np.nan
        return out

    max_iter = draw(st.sampled_from([20, 20, 3]))
    return log_conditional, kernel, chol, grid, active, max_iter, start


class TestScalarMomentStep:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_adaptation_cases())
    def test_matches_matrix_step(self, case):
        # a one-dimensional level's scalar step gives the matrix step's
        # shifts, scales, iteration counts, fallback and capped flags and
        # values, bit for bit: the same loop run again with the matrix step
        # in its place
        log_conditional, kernel, chol, grid, active, max_iter, start = case
        got = adapt_locations(log_conditional, kernel, chol, grid, active, max_iter=max_iter, start=start)
        with mock.patch.object(integrate, "_scalar_scale_step", integrate._scale_step):
            expect = adapt_locations(log_conditional, kernel, chol, grid, active, max_iter=max_iter, start=start)
        for name, g, e in zip(Adaptation._fields, got, expect):
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), name
