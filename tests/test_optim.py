import math
import threading

import numpy as np
import pytest

import hiermix as hm
from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.optim import FitError, SingularDesignError, fd_gradient, fd_hessian, initial_values, maximize
from hiermix.predictor import compile_program


class TestFiniteDifferences:
    def test_cubic_gradient_and_curvature(self):
        f = lambda th: th[0] ** 3
        g = fd_gradient(f, np.array([2.0]))
        np.testing.assert_allclose(g, [12.0], rtol=1e-6)
        h = fd_hessian(f, np.array([2.0]))
        np.testing.assert_allclose(h, [[12.0]], rtol=1e-4)

    def test_quadratic_bowl(self):
        f = lambda th: float(np.sum(th**2))
        theta = np.zeros(3)
        np.testing.assert_allclose(fd_gradient(f, theta), np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(fd_hessian(f, theta), 2 * np.eye(3), atol=1e-6)

    def test_cross_terms(self):
        f = lambda th: th[0] * th[1] + 0.5 * th[0] ** 2
        h = fd_hessian(f, np.array([0.3, -0.8]))
        np.testing.assert_allclose(h, [[1.0, 1.0], [1.0, 0.0]], atol=1e-6)

    def test_nonfinite_probe_shrinks_step(self):
        # objective only defined for th < 1.0000001; probes shrink inward
        def f(th):
            return float(th[0]) if th[0] < 1.0000001 else np.nan

        g = fd_gradient(f, np.array([1.0]))
        np.testing.assert_allclose(g, [1.0], rtol=1e-4)

    def test_hopeless_objective_fails(self):
        with pytest.raises(FitError):
            fd_gradient(lambda th: np.nan, np.array([0.0]))

    def test_hessian_shrinks_near_boundary(self):
        # the objective is only defined on th < 1.0001; the default probe
        # at +2h crosses it, so the step must shrink rather than fail
        def f(th):
            return -((th[0] - 1.0) ** 2) if th[0] < 1.0001 else np.nan

        h = fd_hessian(f, np.array([1.0]))
        np.testing.assert_allclose(h, [[-2.0]], rtol=1e-4)
        with pytest.raises(FitError):
            fd_hessian(lambda th: np.nan if th[0] != 0.5 else 0.0, np.array([0.5]))

    @staticmethod
    def _smooth5(u):
        """A smooth, non-quadratic, non-separable function of 5 arguments
        and its analytic Hessian."""
        w = np.array([0.3, -0.5, 0.2, 0.4, -0.1])
        r = 1.0 + u @ u
        value = np.exp(w @ u) - np.log1p(u @ u) + u[0] * u[1] * u[2]
        hess = np.exp(w @ u) * np.outer(w, w) - 2.0 * np.eye(5) / r + 4.0 * np.outer(u, u) / r**2
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            hess[i, j] += u[k]
            hess[j, i] += u[k]
        return value, hess

    @pytest.mark.parametrize("along", ["axes", "eigenvectors"])
    @pytest.mark.parametrize("scale", [1.0, 1e4], ids=["unit", "large"])
    def test_hessian_matches_analytic_with_p_p_plus_1_points(self, scale, along):
        # at theta = scale * u the steps scale with |theta_i|, so g(theta /
        # scale) is differenced with the same relative accuracy as g at u;
        # along the eigenvectors of a Hessian from a nearby point, every
        # probe moves every slot and the result is mapped back
        u = np.array([0.7, -0.4, 0.9, -1.0, 0.25])
        p = len(u)
        points = []

        def f(th):
            points.append(th.copy())
            return self._smooth5(th / scale)[0]

        theta = scale * u
        near = self._smooth5(u + 0.1)[1] / scale**2 if along == "eigenvectors" else None
        h = fd_hessian(f, theta, f0=f(theta), near=near)
        assert len(points) == 1 + p * (p + 1)
        assert np.count_nonzero(points[1] != theta) == (1 if near is None else p)
        expect = self._smooth5(u)[1] / scale**2
        assert np.all(expect[np.triu_indices(p, 1)] != 0.0)
        np.testing.assert_allclose(h, expect, rtol=0, atol=1e-6 * np.max(np.abs(expect)))
        assert h.tobytes() == h.T.tobytes()

    def test_pinned_slots_are_not_probed(self):
        u = np.array([0.7, -0.4, 0.9, -1.0, 0.25])
        free = np.array([True, False, True, True, False])
        idx = np.flatnonzero(free)
        probes = []

        def f(th):
            probes.append(th.copy())
            return self._smooth5(th)[0]

        def restricted(v):
            th = u.copy()
            th[idx] = v
            return self._smooth5(th)[0]

        g = fd_gradient(f, u, free=free)
        h = fd_hessian(f, u, f0=f(u), free=free)
        q = len(idx)
        assert len(probes) == 2 * q + 1 + q * (q + 1)
        assert all(np.array_equal(x[~free], u[~free]) for x in probes)
        assert not g[~free].any() and not h[~free].any() and not h[:, ~free].any()
        assert g[idx].tobytes() == fd_gradient(restricted, u[idx]).tobytes()
        assert h[np.ix_(idx, idx)].tobytes() == fd_hessian(restricted, u[idx]).tobytes()
        # every slot pinned: nothing to probe
        probes.clear()
        pinned = np.zeros(5, dtype=bool)
        assert not fd_gradient(f, u, free=pinned).any() and not fd_hessian(f, u, 0.0, free=pinned).any()
        assert not probes

    def test_gradient_step_refinement_on_frailty_model(self):
        # central differences at step h and h/4 agree to relative 1e-4
        rng = np.random.default_rng(0)
        g = 30
        b = rng.normal(0, 0.5, g)
        cid = np.repeat(np.arange(g) + 1.0, 2)
        t = rng.exponential(size=2 * g) / (0.3 * np.exp(b[cid.astype(int) - 1]))
        y = np.minimum(t, 5.0)
        d = (t < 5.0).astype(float)
        frame = as_frame({"id": cid, "y": y, "d": d})
        prog = compile_program(parse_model_spec("(y M1[id], family(weibull, failure(d)))"), frame)
        from hiermix.likelihood import LikelihoodEvaluator, default_plan

        ev = LikelihoodEvaluator(prog, default_plan(prog, points=11))
        theta = np.array([-1.1, 0.1, math.log(0.55)])
        ev.refresh(theta)
        g1 = fd_gradient(ev.logl, theta)

        def quarter_step(f, th):
            out = np.empty_like(th)
            for i in range(len(th)):
                h = 0.25 * (np.finfo(float).eps ** (1 / 3)) * max(abs(th[i]), 1.0)
                up, dn = th.copy(), th.copy()
                up[i] += h
                dn[i] -= h
                out[i] = (f(up) - f(dn)) / (2 * h)
            return out

        g2 = quarter_step(ev.logl, theta)
        np.testing.assert_allclose(g1, g2, rtol=1e-4, atol=1e-6)


class TestMaximize:
    def test_quadratic_one_step(self):
        res = maximize(lambda th: -((th[0] - 3.0) ** 2), np.array([0.0]))
        assert res.converged
        np.testing.assert_allclose(res.theta, [3.0], atol=1e-7)
        assert res.iterations <= 3

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(1)
        y = rng.normal(1.5, 0.8, 60)

        def logl(th):
            mu, s = th[0], math.exp(th[1])
            return float(np.sum(-0.5 * math.log(2 * math.pi) - th[1] - 0.5 * ((y - mu) / s) ** 2))

        res = maximize(logl, np.array([0.0, 0.0]))
        assert res.converged
        lls = [row[1] for row in res.trace]
        assert all(b >= a for a, b in zip(lls, lls[1:]))
        np.testing.assert_allclose(res.theta[0], y.mean(), atol=1e-8)
        np.testing.assert_allclose(math.exp(2 * res.theta[1]), y.var(), rtol=1e-6)

    def test_gaussian_ml_closed_form(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0.7, 1.3, 80)
        res = hm.fit_model("(y, family(gaussian))", {"y": y})
        np.testing.assert_allclose(res.estimate("_cons"), y.mean(), atol=1e-8)
        np.testing.assert_allclose(res.estimate("sd(resid)") ** 2, y.var(), rtol=1e-6)

    def test_exponential_ml_closed_form(self):
        rng = np.random.default_rng(3)
        t = rng.exponential(2.0, 120)
        y = np.minimum(t, 4.0)
        d = (t < 4.0).astype(float)
        res = hm.fit_model("(y, family(exponential, failure(d)))", {"y": y, "d": d})
        lam_hat = d.sum() / y.sum()
        np.testing.assert_allclose(math.exp(res.estimate("_cons")), lam_hat, rtol=1e-8)

    def test_free_mask_fixes_parameters(self):
        res = maximize(
            lambda th: -((th[0] - 3.0) ** 2) - (th[1] - 1.0) ** 2,
            np.array([0.0, 0.25]),
            free_mask=np.array([True, False]),
        )
        np.testing.assert_allclose(res.theta, [3.0, 0.25], atol=1e-7)

    def test_covariate_scaling_invariance(self):
        rng = np.random.default_rng(4)
        g = 20
        b = rng.normal(0, 0.5, g)
        cid = np.repeat(np.arange(g) + 1.0, 4)
        x = rng.normal(size=4 * g)
        y = 0.8 * x + b[cid.astype(int) - 1] + rng.normal(0, 0.5, 4 * g)
        r1 = hm.fit_model("(y x M1[id], family(gaussian))", {"id": cid, "x": x, "y": y})
        r2 = hm.fit_model("(y x M1[id], family(gaussian))", {"id": cid, "x": 10 * x, "y": y})
        np.testing.assert_allclose(r2.estimate("x"), r1.estimate("x") / 10, rtol=1e-6)
        np.testing.assert_allclose(r1.logl, r2.logl, atol=1e-6)

    def test_delta_method_se(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0.0, 1.4, 50)
        res = hm.fit_model("(y, family(gaussian))", {"y": y})
        i = res.names.index("ln_sd")
        se_log = math.sqrt(res.cov[i, i])
        est = res.estimate("sd(resid)")
        np.testing.assert_allclose(res.se("sd(resid)"), est * se_log, rtol=1e-10)

    @pytest.mark.parametrize("w", [[1.0, 1.0], [0.6, 1.0]], ids=["diagonal", "skew"])
    def test_ridge_standard_errors(self, w):
        # a ridge -exp(4 w.x)/16 + w.x/4 - 1e-4|x|^2, x = theta - c, with
        # its maximum at c, where the information is 1e4 times weaker
        # across w than along it. Probed
        # along the axes, the seven-point formula's O(h^2) cross-term
        # error does not cancel across the ridge (relative SE errors of
        # 3e-4 and 1e-4 here); the final Hessian follows the eigenvectors
        # of the last Newton Hessian, where it does.
        w, c = np.array(w), np.array([0.3, 0.9])

        def objective(th):
            t = (th - c) @ w
            return -math.exp(4.0 * t) / 16.0 + t / 4.0 - 1e-4 * float((th - c) @ (th - c))

        res = maximize(objective, np.zeros(2))
        assert res.converged and res.iterations > 2
        cov = np.linalg.inv(-res.hessian)
        exact = np.linalg.inv(np.outer(w, w) + 2e-4 * np.eye(2))
        across = np.array([w[1], -w[0]]) / np.hypot(*w)
        np.testing.assert_allclose(np.diag(cov), np.diag(exact), rtol=2e-5)
        np.testing.assert_allclose(across @ cov @ across, across @ exact @ across, rtol=2e-5)

    @staticmethod
    def counted(f):
        """f with a list of the points it was called at."""
        points = []

        def objective(th):
            points.append(th.copy())
            return f(th)

        return objective, points

    def test_converged_fit_reuses_final_gradient(self):
        p = 2
        objective, points = self.counted(lambda th: -((th[0] - 1.5) ** 2) - 2.0 * (th[1] + 0.5) ** 4 - th[0] * th[1])
        res = maximize(objective, np.zeros(p))
        assert res.converged
        # start + per accepted step a gradient, a Hessian and the line
        # search + the stopping iteration's gradient + the final Hessian
        steps = sum(2 * p + p * (p + 1) + halvings + 1 for _, _, _, halvings in res.trace)
        assert len(points) == 1 + steps + 2 * p + p * (p + 1)
        np.testing.assert_array_equal(res.grad, fd_gradient(objective, res.theta))

    def test_failed_fit_reuses_final_derivatives(self):
        # a kink at 0 where the right slope is -1 and the left one 2: the
        # central-difference slope 0.5 points uphill into a descent
        objective, points = self.counted(lambda th: (-th[0] if th[0] > 0 else 2.0 * th[0]) - th[1] ** 2)
        res = maximize(objective, np.zeros(2))
        assert res.message == "no ascent step found" and not res.converged
        # start + gradient + Hessian + 17 line-search points, nothing after
        p = 2
        assert len(points) == 1 + 2 * p + p * (p + 1) + 17
        np.testing.assert_array_equal(res.grad, fd_gradient(objective, res.theta))
        np.testing.assert_array_equal(res.hessian, fd_hessian(objective, res.theta))

    def test_objective_reevaluated_only_after_a_changing_refresh(self):
        f = lambda th: -((th[0] - 1.5) ** 2) - 2.0 * (th[1] + 0.5) ** 4
        runs = {}
        for changed in (False, True):
            objective, points = self.counted(f)
            res = maximize(objective, np.zeros(2), refresh=lambda th: changed)
            runs[changed] = (res, len(points))
        (still, n_still), (moved, n_moved) = runs[False], runs[True]
        assert n_moved - n_still == len(moved.trace) > 0
        assert still.theta.tobytes() == moved.theta.tobytes() and still.logl == moved.logl

    def test_one_thread_pool_per_fit(self):
        # the worker threads, and the likelihood workspaces they keep,
        # live for the whole fit instead of one objective call
        # (the Thread objects are kept, so two threads never compare equal)
        seen = set()

        def objective(th):
            seen.add(threading.current_thread())
            x = np.atleast_2d(th)
            vals = -((x[:, 0] - 1.5) ** 2) - 2.0 * (x[:, 1] + 0.5) ** 4 - x[:, 0] * x[:, 1]
            return vals if np.ndim(th) == 2 else float(vals[0])

        res = maximize(objective, np.zeros(2), threads=2, stacked=True)
        assert res.converged and res.iterations > 2
        workers = seen - {threading.main_thread()}
        assert 1 <= len(workers) <= 2

    def test_starting_point_must_be_finite(self):
        with pytest.raises(FitError, match="starting"):
            maximize(lambda th: np.nan, np.array([0.0]))


def separated_bernoulli(seed=1):
    """30 clusters x 4 rows with y = (x > 0): x separates the outcome."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=120)
    return {"id": np.repeat(np.arange(1.0, 31.0), 4), "x": x, "y": (x > 0).astype(float)}


class TestInitialValues:
    def test_separation_gives_bounded_start_and_flagged_fit(self):
        # the IRLS estimates diverge; unbounded, the start overflowed and
        # the fit raised "objective is not finite at the starting values"
        spec = "(y x M1[id], family(bernoulli))"
        data = separated_bernoulli()
        prog = compile_program(parse_model_spec(spec), as_frame(data))
        with np.errstate(over="raise"):
            theta0 = initial_values(prog)
        eta = theta0[prog.slot_index("x")] * data["x"] + theta0[prog.slot_index("_cons")]
        assert np.all(np.isfinite(theta0)) and np.max(np.abs(eta)) <= 15.0
        result = hm.fit_model(spec, data)
        assert np.isfinite(result.logl)
        assert not (result.converged and result.optimum_verified)

    def test_gaussian_least_squares(self):
        rng = np.random.default_rng(6)
        n = 60
        x = rng.normal(size=n)
        y = 2.0 - 1.5 * x + rng.normal(0, 0.5, n)
        ids = np.arange(n, dtype=float) % 10 + 1
        prog = compile_program(
            parse_model_spec("(y x M1[id], family(gaussian))"), as_frame({"id": ids, "x": x, "y": y})
        )
        theta0 = initial_values(prog)
        X = np.column_stack([x, np.ones(n)])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(theta0[:2], beta, rtol=1e-8)
        resid = y - X @ beta
        np.testing.assert_allclose(theta0[2], math.log(np.sqrt(np.mean(resid**2))), rtol=1e-8)
        np.testing.assert_allclose(theta0[3], math.log(0.5))

    def test_zero_column_reported(self):
        prog = compile_program(
            parse_model_spec("(y x, family(gaussian))"),
            as_frame({"x": np.zeros(5), "y": np.arange(5.0)}),
        )
        with pytest.raises(SingularDesignError, match="x"):
            initial_values(prog)

    def test_collinear_columns_reported(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=12)
        prog = compile_program(
            parse_model_spec("(y x w, family(gaussian))"),
            as_frame({"x": x, "w": 2 * x, "y": rng.normal(size=12)}),
        )
        with pytest.raises(SingularDesignError, match="rank deficient"):
            initial_values(prog)

    def test_joint_association_starts_at_zero(self):
        rng = np.random.default_rng(8)
        n = 12
        data = {
            "id": np.arange(n, dtype=float) + 1,
            "time": np.tile([0.0, 1.0, 2.0], 4)[:n],
            "logb": rng.normal(size=n),
            "stime": np.where(np.arange(n) % 3 == 0, rng.uniform(1, 4, n), np.nan),
            "died": np.where(np.arange(n) % 3 == 0, 1.0, np.nan),
        }
        prog = compile_program(
            parse_model_spec(
                "(stime EV[logb]@alpha, family(weibull, failure(died)))"
                " (logb fp(1)@l1 M1[id], family(gaussian) timevar(time))"
            ),
            as_frame(data),
        )
        theta0 = initial_values(prog)
        assert theta0[prog.slot_index("alpha")] == 0.0
