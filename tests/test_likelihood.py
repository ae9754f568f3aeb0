import functools
import math
import re
import sys
import threading
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings

import hiermix as hm
import hiermix.estimator as estimator
import hiermix.likelihood as likelihood
import hiermix.optim as optim
from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.likelihood import IntegrationPlan, LevelPlan, LikelihoodEvaluator, default_plan, logsumexp
from hiermix.cli import main
from hiermix.optim import FitError, fd_gradient, fd_hessian, initial_values
from hiermix.predictor import compile_program
from hiermix.workspace import Workspace
from oracles import marginal_logl, profile_report


def gaussian_cluster_data(g=12, n=4, seed=1, sd_b=0.8, sd_e=0.6):
    rng = np.random.default_rng(seed)
    b = rng.normal(0, sd_b, g)
    cid = np.repeat(np.arange(g) + 1.0, n)
    x = rng.normal(size=g * n)
    y = 1.0 + 0.5 * x + b[cid.astype(int) - 1] + rng.normal(0, sd_e, g * n)
    return {"id": cid, "x": x, "y": y}


def mvn_marginal(data, theta):
    """Closed-form marginal of the random-intercept linear mixed model:
    per cluster y ~ N(X beta, sb^2 J + s^2 I).
    """
    beta = theta[:2]
    s, sb = math.exp(theta[2]), math.exp(theta[3])
    ids = data["id"]
    total = 0.0
    for g in np.unique(ids):
        m = ids == g
        yy = np.asarray(data["y"])[m]
        X = np.column_stack([np.asarray(data["x"])[m], np.ones(m.sum())])
        V = sb**2 * np.ones((m.sum(), m.sum())) + s**2 * np.eye(m.sum())
        r = yy - X @ beta
        _, ld = np.linalg.slogdet(V)
        total += -0.5 * (m.sum() * math.log(2 * math.pi) + ld + r @ np.linalg.solve(V, r))
    return total


def three_level_data(trials, patients, reps, sd, seed):
    """y = 1 + 0.5 x + u[trial] + v[pat] + e with trial and patient effects
    set to standardized normal scores in shuffled order, so that their
    spread is exactly ``sd[0]`` and ``sd[1]``; residual sd ``sd[2]``.
    """
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)

    def scores(n):
        z = ndtri((np.arange(n) + 0.5) / n)
        return z / z.std()

    u = sd[0] * rng.permutation(scores(trials))
    v = sd[1] * np.concatenate([rng.permutation(scores(patients)) for _ in range(trials)])
    trial = np.repeat(np.arange(trials), patients * reps)
    pat = np.repeat(np.arange(trials * patients), reps)
    x = rng.normal(size=trial.size)
    y = 1.0 + 0.5 * x + u[trial] + v[pat] + sd[2] * rng.normal(size=x.size)
    return {"trial": trial + 1.0, "pat": pat + 1.0, "x": x, "y": y}


def lmm3_marginal(data, beta, sd_resid, sd_trial, sd_pat):
    """Closed-form marginal of the 3-level random-intercept model: per
    trial y ~ N(X beta, sd_trial^2 J + sd_pat^2 Z Z' + sd_resid^2 I), Z
    mapping rows to patients.
    """
    total = 0.0
    for t in np.unique(data["trial"]):
        m = data["trial"] == t
        X = np.column_stack([data["x"][m], np.ones(m.sum())])
        same_pat = (data["pat"][m][:, None] == data["pat"][m][None, :]).astype(float)
        V = sd_trial**2 + sd_pat**2 * same_pat + sd_resid**2 * np.eye(m.sum())
        r = data["y"][m] - X @ beta
        _, ld = np.linalg.slogdet(V)
        total += -0.5 * (m.sum() * math.log(2 * math.pi) + ld + r @ np.linalg.solve(V, r))
    return total


def make(data, text):
    frame = as_frame(data)
    return compile_program(parse_model_spec(text), frame)


THETA = np.array([0.45, 0.9, math.log(0.65), math.log(0.75)])


def cross_method_model():
    """10 trials x 5 patients x 3 rows, random intercepts per trial and
    patient, with its parameter vector and quadrature and QMC plans.
    """
    rng = np.random.default_rng(4)
    trial = np.repeat(np.arange(10) + 1.0, 15)
    pat = np.repeat(np.arange(50) + 1.0, 3)
    y = (
        1.0
        + np.repeat(rng.normal(0, 0.5, 10), 15)
        + np.repeat(rng.normal(0, 0.7, 50), 3)
        + rng.normal(0, 0.5, 150)
    )
    data = {"trial": trial, "pat": pat, "y": y}
    prog = make(data, "(y M1[trial] M2[trial>pat], family(gaussian))")
    theta = np.array([1.0, math.log(0.5), math.log(0.5), math.log(0.7)])
    plan_a = default_plan(prog, points=15)
    # level-specific techniques: quadrature at the top, draws inside
    plan_b = IntegrationPlan(
        levels={
            "trial": LevelPlan(method="aghq", q=15),
            "pat": LevelPlan(method="qmc", m=20_000),
        }
    )
    return prog, theta, plan_a, plan_b


class TestMarginalLogl:
    def test_no_latents_is_plain_sum(self):
        rng = np.random.default_rng(2)
        data = {"y": rng.normal(size=30), "x": rng.normal(size=30)}
        prog = make(data, "(y x, family(gaussian))")
        plan = default_plan(prog)
        theta = np.array([0.3, -0.2, math.log(1.1)])
        from hiermix.families import logl_gaussian

        mu = 0.3 * np.asarray(data["x"]) - 0.2
        expect = logl_gaussian(np.asarray(data["y"]), mu, 1.1).sum()
        np.testing.assert_allclose(marginal_logl(prog, plan, theta), expect, rtol=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        theta=st.tuples(
            st.floats(-1.0, 2.0),
            st.floats(-1.0, 2.0),
            st.floats(math.log(0.2), math.log(3.0)),
            st.floats(math.log(0.2), math.log(3.0)),
        ).map(np.array)
    )
    @example(theta=THETA)
    def test_two_level_gaussian_matches_closed_form(self, theta):
        data = gaussian_cluster_data()
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = default_plan(prog, points=15)
        got = marginal_logl(prog, plan, theta)
        assert abs(got - mvn_marginal(data, theta)) < 1e-8

    def test_three_level_cross_method(self):
        prog, theta, plan_a, plan_b = cross_method_model()
        la = marginal_logl(prog, plan_a, theta)
        lb = marginal_logl(prog, plan_b, theta)
        assert abs(la - lb) / abs(la) < 1e-3

    def test_single_zero_draw_equals_conditional_at_zero(self):
        data = gaussian_cluster_data(g=6, n=3)
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = IntegrationPlan(levels={"id": LevelPlan(method="qmc", m=1)}, skip=0)
        got = marginal_logl(prog, plan, THETA)
        # first Halton point is 1/2, i.e. the zero draw; conditional at
        # b = 0 is the fixed-effects Gaussian likelihood
        from hiermix.families import logl_gaussian

        mu = THETA[0] * np.asarray(data["x"]) + THETA[1]
        expect = logl_gaussian(np.asarray(data["y"]), mu, math.exp(THETA[2])).sum()
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_qmc_accuracy(self):
        data = gaussian_cluster_data(g=15, n=5, seed=7)
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = default_plan(prog, method="qmc", draws=5000)
        got = marginal_logl(prog, plan, THETA)
        exact = mvn_marginal(data, THETA)
        assert abs(got - exact) / abs(exact) < 1e-3

    def test_doubling_draws_shrinks_median_error(self):
        # doubling from a power of two: base-2 radical-inverse prefixes
        # are most uniform at power-of-two lengths
        sizes = (256, 512, 1024)
        errors = {m: [] for m in sizes}
        for rep in range(50):
            data = gaussian_cluster_data(g=8, n=3, seed=100 + rep)
            prog = make(data, "(y x M1[id], family(gaussian))")
            exact = mvn_marginal(data, THETA)
            for m in sizes:
                plan = default_plan(prog, method="qmc", draws=m)
                errors[m].append(abs(marginal_logl(prog, plan, THETA) - exact))
        med = [np.median(errors[m]) for m in sizes]
        assert med[0] > med[1] > med[2]

    def test_permutation_invariance(self):
        data = gaussian_cluster_data(g=10, n=4, seed=5)
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = default_plan(prog, points=9)
        base = marginal_logl(prog, plan, THETA)
        rng = np.random.default_rng(0)
        for _ in range(3):
            perm = rng.permutation(len(data["y"]))
            shuffled = {k: np.asarray(v)[perm] for k, v in data.items()}
            prog2 = make(shuffled, "(y x M1[id], family(gaussian))")
            got = marginal_logl(prog2, default_plan(prog2, points=9), THETA)
            assert abs(got - base) < 1e-12
        # three levels: shuffled rows and relabelled trial and patient ids
        # give the same value bit for bit
        d3 = three_level_data(trials=3, patients=6, reps=2, sd=(0.8, 0.7, 0.5), seed=9)
        text = "(y x M1[trial] M2[trial>pat], family(gaussian))"
        theta3 = np.array([0.3, 1.0, math.log(0.5), math.log(0.8), math.log(0.7)])
        prog3 = make(d3, text)
        base3 = marginal_logl(prog3, default_plan(prog3, points=5), theta3)
        for _ in range(3):
            perm = rng.permutation(len(d3["y"]))
            shuffled = {k: np.asarray(v)[perm] for k, v in d3.items()}
            for level in ("trial", "pat"):
                ids = np.unique(shuffled[level])
                relabel = dict(zip(ids, 1000.0 + rng.permutation(ids.size)))
                shuffled[level] = np.array([relabel[v] for v in shuffled[level]])
            prog4 = make(shuffled, text)
            assert marginal_logl(prog4, default_plan(prog4, points=5), theta3) == base3

    @pytest.mark.parametrize(
        "inner",
        [
            LevelPlan(q=9),
            LevelPlan(q=9, adaptive=False),
            LevelPlan(method="qmc", m=2000),
            LevelPlan(q=9, dist="t", df=5),
        ],
        ids=["aghq", "aghq-nonadaptive", "qmc", "aghq-t5"],
    )
    def test_nesting_consistency_with_degenerate_outer_level(self, inner):
        rng = np.random.default_rng(6)
        trial = np.repeat([1.0, 2.0, 3.0, 4.0], 9)
        pat = np.repeat(np.arange(12) + 1.0, 3)
        y = 0.5 + np.repeat(rng.normal(0, 0.8, 12), 3) + rng.normal(0, 0.5, 36)
        d3 = {"trial": trial, "pat": pat, "y": y}
        p3 = make(d3, "(y M1[trial] M2[trial>pat], family(gaussian))")
        p2 = make(d3, "(y M2[pat], family(gaussian))")
        theta3 = np.array([0.4, math.log(0.6), -20.0, math.log(0.8)])
        theta2 = np.array([0.4, math.log(0.6), math.log(0.8)])
        l3 = marginal_logl(p3, IntegrationPlan(levels={"trial": LevelPlan(q=9), "pat": inner}), theta3)
        l2 = marginal_logl(p2, IntegrationPlan(levels={"pat": inner}), theta2)
        assert abs(l3 - l2) < 1e-6

    @pytest.mark.parametrize("points", [5, 9])
    def test_nested_aghq_exact_for_sharp_posteriors(self, points):
        # 4 rows per patient with residual sd 0.3 make each patient's
        # posterior far narrower than the prior-scaled grid; nested
        # adaptive quadrature is still exact for a Gaussian model
        from scipy.optimize import minimize

        data = three_level_data(trials=3, patients=2, reps=4, sd=(1.0, 0.7, 0.3), seed=1)
        prog = make(data, "(y x M1[trial] M2[trial>pat], family(gaussian))")
        X = np.column_stack([data["x"], np.ones(data["x"].size)])
        start = np.r_[np.linalg.lstsq(X, data["y"], rcond=None)[0], np.full(3, math.log(0.5))]
        opt = minimize(lambda p: -lmm3_marginal(data, p[:2], *np.exp(p[2:])), start, method="BFGS", options={"gtol": 1e-9})
        theta = opt.x  # x, _cons, ln_sd, ln_sd(M1), ln_sd(M2): the closed-form maximum
        exact = lmm3_marginal(data, theta[:2], *np.exp(theta[2:]))
        plan = default_plan(prog, points=points)
        assert abs(marginal_logl(prog, plan, theta) - exact) < 1e-8 * abs(exact)
        rep = profile_report(prog, plan, theta)
        assert not rep["adaptation_fallbacks"]
        assert max(n for key, n in rep["adaptation_iterations"].items() if key[0] == "trial") < 10

    def test_aghq_convergence_toward_high_q(self):
        # non-adaptive quadrature so the Q-sequence has real error to shed
        data = gaussian_cluster_data(g=10, n=4, seed=8)
        prog = make(data, "(y x M1[id], family(gaussian))")
        ref = marginal_logl(prog, default_plan(prog, points=35, adaptive=False), THETA)
        errs = [abs(marginal_logl(prog, default_plan(prog, points=q, adaptive=False), THETA) - ref) for q in (3, 5, 9, 15, 25)]
        assert all(errs[i] >= errs[i + 1] - 1e-12 for i in range(len(errs) - 1))

    def test_t_kernel_high_df_approaches_normal(self):
        # frailty test model: exponential recurrences with a shared
        # log-hazard intercept per subject. The kernel discrepancy is
        # O(clusters / df), so the comparison is tied to this model scale
        rng = np.random.default_rng(5)
        g = 40
        b = rng.normal(0, 0.5, g)
        cid = np.repeat(np.arange(g) + 1.0, 6)
        t = rng.exponential(size=6 * g) / (0.4 * np.exp(b[cid.astype(int) - 1]))
        y = np.minimum(t, 4.0)
        d = (t < 4.0).astype(float)
        data = {"id": cid, "y": y, "d": d}
        prog = make(data, "(y M1[id], family(exponential, failure(d)))")
        theta = np.array([-0.9, math.log(0.7)])
        ln = marginal_logl(prog, default_plan(prog, points=15), theta)
        lt = marginal_logl(
            prog, default_plan(prog, points=15, method="aghq", redistribution="t", t_df=200), theta
        )
        assert abs(ln - lt) / abs(ln) < 1e-4

    def test_cluster_without_observations_contributes_zero(self):
        data = gaussian_cluster_data(g=8, n=3, seed=10)
        # blank out every response of cluster 5; the cluster keeps its rows
        mask = data["id"] == 5.0
        y2 = np.asarray(data["y"], dtype=float).copy()
        y2[mask] = np.nan
        with_empty = {"id": data["id"], "x": data["x"], "y": y2}
        without = {k: np.asarray(v)[~mask] for k, v in data.items()}
        pa = make(with_empty, "(y x M1[id], family(gaussian))")
        pb = make(without, "(y x M1[id], family(gaussian))")
        la = marginal_logl(pa, default_plan(pa, points=9), THETA)
        lb = marginal_logl(pb, default_plan(pb, points=9), THETA)
        np.testing.assert_allclose(la, lb, rtol=1e-12)

    def test_nonfinite_poisons_total(self):
        data = gaussian_cluster_data(g=4, n=3)
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = default_plan(prog)
        bad = THETA.copy()
        bad[2] = np.nan
        ev = LikelihoodEvaluator(prog, plan)
        assert ev.logl(bad) == -np.inf


class TestPlans:
    def test_plan_must_cover_levels(self):
        data = gaussian_cluster_data(g=4, n=2)
        prog = make(data, "(y x M1[id], family(gaussian))")
        with pytest.raises(ValueError, match="cover"):
            IntegrationPlan(levels={}).validate(prog)
        with pytest.raises(ValueError, match="cover"):
            IntegrationPlan(levels={"id": LevelPlan(), "extra": LevelPlan()}).validate(prog)

    def test_t_quadrature_needs_low_dimension(self):
        rng = np.random.default_rng(11)
        data = {
            "id": np.repeat([1.0, 2.0, 3.0], 4),
            "y": rng.normal(size=12),
            "a": rng.normal(size=12),
            "b": rng.normal(size=12),
        }
        prog = make(data, "(y M1[id] a#M2[id] b#M3[id], family(gaussian))")
        with pytest.raises(ValueError, match="limited to 2"):
            default_plan(prog, method="aghq", redistribution="t", t_df=5)

    def test_t_quadrature_needs_df_above_two(self):
        data = gaussian_cluster_data(g=4, n=2)
        prog = make(data, "(y x M1[id], family(gaussian))")
        with pytest.raises(ValueError, match="df > 2"):
            default_plan(prog, method="aghq", redistribution="t", t_df=2)

    def test_negative_skip_rejected_without_qmc(self):
        # no level draws Halton points, so only the plan can reject it
        data = gaussian_cluster_data(g=4, n=2)
        prog = make(data, "(y x M1[id], family(gaussian))")
        with pytest.raises(ValueError, match="skip"):
            default_plan(prog, skip=-20)


class TestProfileReport:
    def test_node_counts_two_effects(self):
        rng = np.random.default_rng(12)
        g = 38
        data = {
            "id": np.repeat(np.arange(g) + 1.0, 2),
            "y": rng.normal(size=2 * g),
            "x": rng.normal(size=2 * g),
        }
        prog = make(data, "(y M1[id] x#M2[id], family(gaussian))")
        plan = default_plan(prog, points=7)
        rep = profile_report(prog, plan, np.array([0.0, 0.0, 0.0, 0.0, 0.0]))
        assert rep["levels"]["id"]["nodes"] == 49
        # one likelihood call evaluates every unit at each node pair
        assert rep["conditional_evaluations_per_call"] >= 38 * 49

    def test_six_effects_node_count(self):
        rng = np.random.default_rng(13)
        cols = {f"x{j}": rng.normal(size=8) for j in range(5)}
        data = {"id": np.repeat([1.0, 2.0], 4), "y": rng.normal(size=8), **cols}
        text = "(y M1[id] " + " ".join(f"x{j}#M{j + 2}[id]" for j in range(5)) + ", family(gaussian))"
        prog = make(data, text)
        plan = default_plan(prog, points=7)
        ev = LikelihoodEvaluator(prog, plan)
        assert ev.level_states[0].m == 7**6

    def test_qmc_draw_count(self):
        data = gaussian_cluster_data(g=5, n=2)
        prog = make(data, "(y x M1[id], family(gaussian))")
        plan = default_plan(prog, method="qmc", draws=500)
        rep = profile_report(prog, plan, THETA)
        assert rep["levels"]["id"]["nodes"] == 500


class TestLogsumexp:
    """The module's logsumexp repeats scipy's real-input arithmetic, with
    new temporaries or with one workspace reused across shapes.
    """

    def test_random_rows(self):
        rng = np.random.default_rng(21)
        ws = Workspace()
        for shape in [(40, 1), (40, 5), (300, 200), (40, 5)]:
            a = rng.normal(0.0, 30.0, shape)
            expect = scipy.special.logsumexp(a, axis=1).tobytes()
            assert logsumexp(a).tobytes() == expect
            ws.reset()
            assert logsumexp(a, ws.take).tobytes() == expect

    def test_edge_rows(self):
        inf, nan = np.inf, np.nan
        a = np.array(
            [
                [-inf, -inf, -inf, -inf],  # all -inf
                [1.0, inf, 2.0, -inf],  # +inf
                [1.0, nan, 2.0, 3.0],  # nan
                [2.5, 2.5, -1.0, 2.5],  # ties at the max
                [-800.0, -800.0, -801.0, -900.0],  # exp underflows
                [700.0, 710.0, 705.0, 0.0],  # exp overflows
                [inf, inf, 0.0, 0.0],
                [-inf, 3.0, -inf, -inf],
            ]
        )
        with np.errstate(all="ignore"):
            expect = scipy.special.logsumexp(a, axis=1)
        ws = Workspace()
        assert logsumexp(a, ws.take).tobytes() == expect.tobytes()
        one = np.array([[-inf], [inf], [nan], [-3.25]])
        with np.errstate(all="ignore"):
            expect = scipy.special.logsumexp(one, axis=1)
        ws.reset()
        assert logsumexp(one, ws.take).tobytes() == expect.tobytes()


def _row_twin(spec: str, cols: dict) -> tuple[str, dict]:
    """The model with each random intercept such as ``M1[id]`` written
    ``one#M1[id]``, ``one`` a column of ones: the same model and
    parameter names, which the likelihood evaluates row by row instead
    of per cluster."""
    return re.sub(r" (M\d+\[)", r" one#\1", spec), {**cols, "one": np.ones(len(cols["id"]))}


def _frailty_t5(twin: bool = False):
    data = hm.simulate(
        "(t trt M1[id], family(weibull, failure(d))), redistribution(t) df(5)",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        levels={"id": 40},
        covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
        outcomes=[{"censoring": 5.0, "records": 3}],
        seed=3,
    )
    spec, cols = "(t trt M1[id], family(weibull, failure(d)))", {n: data.col(n) for n in data.names}
    if twin:
        spec, cols = _row_twin(spec, cols)
    prog = make(cols, spec)
    assert (prog.outcomes[0].intercepts is None) == twin
    return prog, default_plan(prog, method="qmc", redistribution="t", t_df=5, draws=301)


def _rp():
    data = hm.simulate(
        "(t trt M1[id], family(weibull, failure(d)))",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        levels={"id": 40},
        covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
        outcomes=[{"censoring": 5.0, "records": 3}],
        seed=4,
    )
    prog = make({n: data.col(n) for n in data.names}, "(t trt M1[id], family(rp, failure(d) scale(h) df(3)))")
    return prog, default_plan(prog, points=9)


def _nested_qmc():
    prog, _, _, _ = cross_method_model()
    plan = IntegrationPlan(levels={"trial": LevelPlan(method="aghq", q=5), "pat": LevelPlan(method="qmc", m=303)})
    return prog, plan


def _joint(link):
    spec = (
        f"(stime trt {link}[logb]@a1, family(weibull, failure(died)))"
        " (logb fp(1)@slope fp(1)#M2[id] M1[id], family(gaussian) timevar(time))"
    )
    truth = {
        "stime:trt": -0.3,
        "a1": 0.4,
        "stime:_cons": -1.6,
        "stime:ln_gamma": math.log(1.2),
        "slope": 0.3,
        "logb:_cons": 1.0,
        "logb:ln_sd": math.log(0.3),
        "ln_sd(M1)": math.log(0.8),
        "ln_sd(M2)": math.log(0.3),
    }
    data = hm.simulate(
        spec,
        truth,
        levels={"id": 20},
        covariates={"trt": {"dist": "bernoulli"}},
        outcomes=[{"censoring": 5.0}, {"times": [0.0, 0.5, 1.0, 2.0]}],
        seed=2,
    )
    prog = make({n: data.col(n) for n in data.names}, spec)
    return prog, default_plan(prog, method="qmc", draws=51)


class TestChunkedEvaluation:
    """Evaluating the innermost level in column chunks changes no bit."""

    @pytest.mark.parametrize(
        "build",
        [_frailty_t5, lambda: _frailty_t5(twin=True), _nested_qmc, _rp, lambda: _joint("EV"), lambda: _joint("iEV")],
        ids=["frailty_t5_qmc", "frailty_t5_qmc_rows", "nested_qmc_inner", "rp", "joint_ev", "joint_iev"],
    )
    def test_chunked_equals_one_chunk(self, build, monkeypatch):
        prog, plan = build()
        theta = initial_values(prog)

        def values():
            ev = LikelihoodEvaluator(prog, plan)
            out = []
            for shift in (0.0, 0.02):
                ev.refresh(theta + shift)
                out.append(ev.logl(theta + shift))
            return out

        monkeypatch.setattr(likelihood, "_CHUNK_VALUES", 1 << 40)
        whole = values()
        assert np.all(np.isfinite(whole))
        # one-column chunks and seven-column ones, which split an
        # outer-node combination, then chunks of two whole combinations
        # and a shorter last one
        rows = sum(co.rows.size for co in prog.outcomes)
        nodes = LikelihoodEvaluator(prog, plan).level_states[-1].m
        for chunk in (1, 7 * rows, int(2.5 * nodes * rows)):
            monkeypatch.setattr(likelihood, "_CHUNK_VALUES", chunk)
            assert values() == whole

    def test_one_call_peak_memory(self):
        # 50 patients x 20 000 draws at each of 15 trial nodes: 139 MiB on
        # one-combination blocks, 34 MiB with column chunks
        prog, theta, _, plan = cross_method_model()
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta)
        tracemalloc.start()
        try:
            value = ev.logl(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < 64 * 2**20

    def test_refresh_reports_adaptation(self):
        data = gaussian_cluster_data(g=5, n=2)
        prog = make(data, "(y x M1[id], family(gaussian))")
        assert LikelihoodEvaluator(prog, default_plan(prog)).refresh(THETA) is True
        assert LikelihoodEvaluator(prog, default_plan(prog, adaptive=False)).refresh(THETA) is False
        assert LikelihoodEvaluator(prog, default_plan(prog, method="qmc")).refresh(THETA) is False


def _nested_aghq():
    prog, _, _, _ = cross_method_model()
    return prog, default_plan(prog, points=5)


def _user_ancillary():
    def batch_gauss(ctx):
        sd = np.exp(ctx.ancillary(1))
        return -0.5 * np.log(2 * np.pi) - np.log(sd) - 0.5 * ((ctx.response() - ctx.linpred()) / sd) ** 2

    hm.register_user_family(loglf=batch_gauss, n_anc=1)
    prog = make(gaussian_cluster_data(g=15, n=3), "(y x M1[id], family(user, loglf(batch_gauss)) np(1))")
    return prog, default_plan(prog, points=7)


def _no_latent_hazard_quadrature():
    # a time-dependent effect without random effects: the hazard
    # quadrature sums one node column per call
    prog, _ = _rp()
    data = {n: prog.frame.col(n) for n in ("t", "d", "trt")}
    prog = make(data, "(t trt fp(1)#trt, family(weibull, failure(d)))")
    return prog, IntegrationPlan()


def _probe_stack(theta):
    """Derivative-style probes around theta: the base point, each
    coordinate moved up and down, and one pair moved together."""
    p = len(theta)
    stack = [theta.copy()]
    for i in range(p):
        for s in (0.01, -0.01):
            x = theta.copy()
            x[i] += s
            stack.append(x)
    x = theta.copy()
    x[0] += 0.01
    x[p - 1] -= 0.01
    stack.append(x)
    return np.array(stack)


def _stackable(f):
    """A one-point objective that also maps a (K, p) stack to K values."""

    def objective(th):
        th = np.asarray(th)
        return f(th) if th.ndim == 1 else np.array([f(x) for x in th])

    return objective


class TestBatchedEvaluation:
    """A (K, p) stack of parameter vectors evaluates, bit for bit, to the
    K single-vector calls."""

    @pytest.mark.parametrize(
        "build",
        [
            _frailty_t5,
            lambda: _frailty_t5(twin=True),
            _nested_qmc,
            _nested_aghq,
            _rp,
            lambda: _joint("EV"),
            lambda: _joint("iEV"),
            _user_ancillary,
            _no_latent_hazard_quadrature,
        ],
        ids=[
            "frailty_t5_qmc",
            "frailty_t5_qmc_rows",
            "nested_qmc_inner",
            "nested_aghq",
            "rp",
            "joint_ev",
            "joint_iev",
            "user_anc",
            "no_latent",
        ],
    )
    def test_stack_equals_single_calls(self, build, monkeypatch):
        prog, plan = build()
        theta = initial_values(prog)
        stack = _probe_stack(theta)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta + 0.02)
        single = np.array([ev.logl(x) for x in stack])
        assert np.all(np.isfinite(single))
        rows = sum(co.rows.size for co in prog.outcomes)
        inner = ev.level_states[-1] if ev.level_states else None
        nodes = inner.m if inner else 1
        columns = inner.n_combos * nodes if inner else 1  # innermost columns of one vector
        one = ev.n_values * columns
        default = (likelihood._GROUP_VALUES, likelihood._CHUNK_VALUES)
        budgets = [
            (1 << 40, 1 << 40),  # one group, one chunk
            (int(2.5 * one), 1 << 40),  # groups of two
            (int(3.3 * one), int(1.5 * rows * columns)),  # groups of three, chunks across vectors
            (int(3.3 * one), int(2.5 * rows * nodes)),  # chunks of two combinations, then a shorter last one
            (int(3.3 * one), 7 * rows),  # seven-column chunks, which split a combination
            (7 * one, 7 * rows * columns),  # groups of seven
            default,
        ]
        for group, chunk in budgets:
            monkeypatch.setattr(likelihood, "_GROUP_VALUES", group)
            monkeypatch.setattr(likelihood, "_CHUNK_VALUES", chunk)
            ev = LikelihoodEvaluator(prog, plan)  # the budgets fix its shapes
            ev.refresh(theta + 0.02)
            batch = ev.logl(stack)
            assert batch.shape == (len(stack),)
            assert batch.tobytes() == single.tobytes(), (group, chunk)
            # single calls after the stack reuse its buffers at other shapes
            again = np.array([ev.logl(x) for x in stack])
            assert again.tobytes() == single.tobytes(), (group, chunk)

    def test_stack_adapts_at_its_first_vector(self, monkeypatch):
        # without a refresh, the first vector adapts, as in single calls
        monkeypatch.setattr(likelihood, "_GROUP_VALUES", 1 << 40)
        prog, plan = _nested_aghq()
        stack = _probe_stack(initial_values(prog))
        one = LikelihoodEvaluator(prog, plan)
        single = np.array([one.logl(x) for x in stack])
        assert LikelihoodEvaluator(prog, plan).logl(stack).tobytes() == single.tobytes()

    def test_nonfinite_vectors_stay_alone(self):
        prog, plan = _rp()
        theta = initial_values(prog)
        stack = _probe_stack(theta)
        stack[2, prog.slot_index("rcs1")] = -50.0  # a negative hazard at every event time
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta)
        values = ev.logl(stack)
        assert values[2] == -np.inf
        assert values.tobytes() == np.array([ev.logl(x) for x in stack]).tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_fd_derivatives_batched_equal_pointwise(self, threads):
        prog, plan = _nested_aghq()
        theta = initial_values(prog)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta)
        g = fd_gradient(ev.logl, theta)
        h = fd_hessian(ev.logl, theta)
        calls = ev.n_calls
        assert fd_gradient(ev.logl, theta, threads, stacked=True).tobytes() == g.tobytes()
        assert fd_hessian(ev.logl, theta, None, threads, stacked=True).tobytes() == h.tobytes()
        # a gradient, a Hessian and its centre point: one call per thread each
        assert ev.n_calls - calls == 2 * threads + 1

    @pytest.mark.parametrize("threads", [1, 3])
    def test_fd_hessian_along_eigenvectors_batched_equal_pointwise(self, threads):
        prog, plan = _nested_aghq()
        theta = initial_values(prog)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta)
        near = fd_hessian(ev.logl, theta)
        h = fd_hessian(ev.logl, theta, near=near)
        assert fd_hessian(ev.logl, theta, None, threads, stacked=True, near=near).tobytes() == h.tobytes()

    def test_fd_shrink_cases_batched_equal_pointwise(self):
        def edge(th):
            return float(th[0]) if th[0] < 1.0000001 else np.nan

        def bowl(th):
            return -((th[0] - 1.0) ** 2) if th[0] < 1.0001 else np.nan

        theta = np.array([1.0])
        for f in (edge, bowl):
            g = fd_gradient(f, theta)
            assert fd_gradient(_stackable(f), theta, stacked=True).tobytes() == g.tobytes()
        h = fd_hessian(bowl, theta)
        np.testing.assert_allclose(h, [[-2.0]], rtol=1e-4)
        assert fd_hessian(_stackable(bowl), theta, stacked=True).tobytes() == h.tobytes()
        with pytest.raises(FitError):
            fd_hessian(_stackable(lambda th: np.nan if th[0] != 0.5 else 0.0), np.array([0.5]), stacked=True)

    def test_fixed_fit_equals_pointwise_fit(self, monkeypatch):
        data = gaussian_cluster_data(g=10, n=3)
        spec = "(y x M1[id], family(gaussian))"
        batched = hm.fit_model(spec, data, points=5, fixed={"x": 0.5})
        maximize = estimator.maximize
        monkeypatch.setattr(estimator, "maximize", lambda *a, **k: maximize(*a, **{**k, "stacked": False}))
        pointwise = hm.fit_model(spec, data, points=5, fixed={"x": 0.5})
        assert batched.theta[pointwise.names.index("x")] == 0.5
        assert batched.theta.tobytes() == pointwise.theta.tobytes()
        assert batched.cov.tobytes() == pointwise.cov.tobytes()
        assert (batched.logl, batched.message, batched.iterations) == (
            pointwise.logl,
            pointwise.message,
            pointwise.iterations,
        )
        assert pointwise.profile["objective_points"] == pointwise.profile["likelihood_calls"]
        assert batched.profile["objective_points"] == pointwise.profile["objective_points"]
        assert batched.profile["likelihood_calls"] < pointwise.profile["likelihood_calls"]


def _frailty_chunks(twin: bool = False):
    """A QMC t-frailty model one parameter vector of which spans three
    chunks at the default budgets, the last narrower: 300 rows x 500
    draws, 218 columns per chunk."""
    spec = "(t trt M1[id], family(weibull, failure(d)))"
    data = hm.simulate(
        spec + ", redistribution(t) df(5)",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        levels={"id": 100},
        covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
        outcomes=[{"censoring": 5.0, "records": 3}],
        seed=7,
    )
    cols = {n: data.col(n) for n in data.names}
    if twin:
        spec, cols = _row_twin(spec, cols)
    prog = make(cols, spec)
    assert (prog.outcomes[0].intercepts is None) == twin
    return spec, cols, prog, default_plan(prog, method="qmc", redistribution="t", t_df=5, draws=500)


class TestWorkspace:
    """Each thread's chunk buffers are reused across chunks and calls
    without carrying a value from one into another."""

    twin = False  # the model's one#M1[id] twin (see TestWorkspaceRows)

    def test_model_spans_three_chunks(self):
        _, _, prog, plan = _frailty_chunks(self.twin)
        ev = LikelihoodEvaluator(prog, plan)
        draws = ev.level_states[-1].m
        assert draws // ev.chunk_columns >= 2 and 0 < draws % ev.chunk_columns < ev.chunk_columns

    def test_repeated_and_stacked_calls(self):
        _, _, prog, plan = _frailty_chunks(self.twin)
        a = initial_values(prog)
        b = a + 0.05
        ev = LikelihoodEvaluator(prog, plan)
        first = ev.logl(a)
        assert ev.logl(b) != first
        assert ev.logl(a) == first
        stack = _probe_stack(a)
        fresh = np.array([LikelihoodEvaluator(prog, plan).logl(x) for x in stack])
        assert ev.logl(stack).tobytes() == fresh.tobytes()

    def test_thread_count_byte_identical(self, tmp_path):
        spec, cols, _, _ = _frailty_chunks(self.twin)
        path = tmp_path / "frailty.csv"
        names = list(cols)
        rows = [",".join(names)] + [",".join(format(v, ".17g") for v in row) for row in zip(*cols.values())]
        path.write_text("\n".join(rows) + "\n")
        docs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.txt"
            argv = ["fit", "--spec", spec, "--data", str(path), "--out", str(out), "--threads", threads, "--quiet"]
            assert main(argv + ["--method", "qmc", "--redistribution", "t", "--df", "5", "--draws", "500"]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_concurrent_calls_on_one_evaluator(self):
        # more threads than cores, switching often: a buffer shared by two
        # threads would mix their values
        _, _, prog, plan = _frailty_chunks(self.twin)
        thetas = [initial_values(prog) + 0.03 * i for i in range(4)]
        ev = LikelihoodEvaluator(prog, plan)
        expect = [ev.logl(th) for th in thetas]
        got = [[] for _ in thetas]

        def work(i):
            for _ in range(3):
                got[i].append(ev.logl(thetas[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(len(thetas))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [[v] * 3 for v in expect]

    def test_warm_call_allocates_a_third_of_the_chunk_temporaries(self):
        # a warm call before per-thread buffers peaked at 3 793 738 bytes
        # traced on this model (numpy 2.4): every chunk allocated its own
        # temporaries
        _, _, prog, plan = _frailty_chunks(self.twin)
        theta = initial_values(prog)
        ev = LikelihoodEvaluator(prog, plan)
        ev.logl(theta)
        tracemalloc.start()
        try:
            ev.logl(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3793738 / 3


class TestWorkspaceRows(TestWorkspace):
    """The same on the one#M1[id] twin, which keeps the rows x columns
    chunk path covered now that the t-frailty model is summed per
    cluster."""

    twin = True


def test_single_and_stacked_calls_keep_their_buffers():
    # the two kinds of call request their buffers in different orders, so
    # a slot is a float array for one and a bool array for the other
    prog, plan = _nested_aghq()
    theta = initial_values(prog)
    ev = LikelihoodEvaluator(prog, plan)
    ev.refresh(theta)
    ev.logl(theta)
    ev.logl(_probe_stack(theta))
    slots = ev._workspace()._slots
    warm = [slot[0] for slot in slots]
    for x in (theta, _probe_stack(theta), theta):
        ev.logl(x)
    assert len(slots) == len(warm) and all(slot[0] is buf for slot, buf in zip(slots, warm))


def _poisson_aghq(outlier: bool = False):
    """15 clusters x 4 Poisson counts with a random intercept; with
    ``outlier``, cluster 1's covariate is 1000, so that eta overflows at
    its every node once the coefficient of x is 1."""
    rng = np.random.default_rng(21)
    cid = np.repeat(np.arange(15) + 1.0, 4)
    x = rng.normal(size=cid.size)
    y = rng.poisson(np.exp(0.3 + 0.4 * x + np.repeat(rng.normal(0, 0.6, 15), 4))).astype(float)
    if outlier:
        x[cid == 1.0], y[cid == 1.0] = 1000.0, 2.0
    prog = make({"id": cid, "x": x, "y": y}, "(y x M1[id], family(poisson))")
    return prog, default_plan(prog, points=7)


class TestWarmAdaptation:
    """Each refresh starts from the previous one's adaptation, and each
    inner re-adaptation from the one at the previous outer step."""

    @pytest.mark.parametrize(
        "build,per_refresh",
        [(_nested_aghq, {"trial": 1, "pat": 2}), (_poisson_aghq, {"id": 1})],
        ids=["nested_gaussian", "poisson"],
    )
    def test_warm_refresh_matches_cold(self, build, per_refresh):
        prog, plan = build()
        theta = initial_values(prog)
        moved = theta + np.linspace(-0.1, 0.1, theta.size)
        warm = LikelihoodEvaluator(prog, plan)
        warm.refresh(theta)
        first = warm.profile_report()["adaptation_sweeps"]
        warm.refresh(moved)
        cold = LikelihoodEvaluator(prog, plan)
        cold.refresh(moved)
        expect = cold.logl(moved)
        assert abs(warm.logl(moved) - expect) <= 1e-10 * abs(expect)
        # from the previous refresh's result: fewer passes than from the prior
        sweeps = warm.profile_report()["adaptation_sweeps"]
        cold_sweeps = cold.profile_report()["adaptation_sweeps"]
        assert all(sweeps[name] - first[name] < cold_sweeps[name] for name in sweeps)
        # at an unchanged theta every cell is converged at its first pass
        warm.refresh(moved)
        rep = warm.profile_report()
        assert max(rep["adaptation_iterations"].values()) == 1
        assert not rep["adaptation_fallbacks"]
        assert {name: n - sweeps[name] for name, n in rep["adaptation_sweeps"].items()} == per_refresh

    def test_fallback_cell_restarts_cold(self):
        prog, plan = _poisson_aghq(outlier=True)
        slot = prog.slot_index
        overflow = np.zeros(prog.n_params)
        overflow[[slot("x"), slot("ln_sd(M1)")]] = 1.0, math.log(0.6)
        theta = np.zeros(prog.n_params)
        theta[[slot("x"), slot("_cons"), slot("ln_sd(M1)")]] = 0.001, 0.3, math.log(0.9)
        warm = LikelihoodEvaluator(prog, plan)
        warm.refresh(overflow)
        assert warm.profile_report()["adaptation_fallbacks"] == [("id", 0, 0)]
        warm.refresh(theta)
        cold = LikelihoodEvaluator(prog, plan)
        cold.refresh(theta)
        (mu_w, lam_w, it_w, fb_w), (mu_c, lam_c, it_c, fb_c) = warm.adapted[0], cold.adapted[0]
        assert not fb_w.any() and not fb_c.any()
        # the flagged cell started at (0, the current prior scale), as a
        # cold start does, not at the scale it fell back to: same bits
        assert mu_w[0].tobytes() == mu_c[0].tobytes()
        assert lam_w[0].tobytes() == lam_c[0].tobytes()
        assert it_w[0] == it_c[0] > 1
        expect = cold.logl(theta)
        assert abs(warm.logl(theta) - expect) <= 1e-10 * abs(expect)


def _clustered_survival(family: str, entry: bool, seed: int) -> dict:
    """25 clusters x 3 rows from a proportional-hazards model with a
    normal random intercept, censored uniformly on (0.5, 4); cluster 1
    has no events, and with ``entry`` every other row enters late."""
    rng = np.random.default_rng(seed)
    cid = np.repeat(np.arange(25) + 1.0, 3)
    x = rng.normal(size=cid.size)
    eta = -0.5 + 0.4 * x + np.repeat(rng.normal(0, 0.6, 25), 3)
    h0 = -np.log(rng.uniform(size=cid.size)) * np.exp(-eta)  # H0 at the event time
    t = {"exponential": h0, "weibull": h0 ** (1 / 1.3), "gompertz": np.log1p(0.2 * h0) / 0.2}[family]
    c = rng.uniform(0.5, 4.0, size=cid.size)
    cols = {"id": cid, "x": x, "y": np.minimum(t, c), "d": np.where((t <= c) & (cid != 1), 1.0, 0.0)}
    cols["y"] = np.where(cid == 1, c, cols["y"])
    if entry:
        cols["t0"] = np.where(np.arange(cid.size) % 2 == 0, 0.4 * cols["y"], 0.0)
    return cols


def _nested_counts(seed: int) -> dict:
    """Poisson counts, 6 groups x 3 subgroups x 3 rows, with normal
    intercepts per group and subgroup."""
    rng = np.random.default_rng(seed)
    group, sub = np.repeat(np.arange(6) + 1.0, 9), np.repeat(np.arange(18) + 1.0, 3)
    x = rng.normal(size=group.size)
    eta = 0.2 + 0.3 * x + np.repeat(rng.normal(0, 0.5, 6), 9) + np.repeat(rng.normal(0, 0.4, 18), 3)
    return {"id": group, "sub": sub, "x": x, "y": rng.poisson(np.exp(eta)).astype(float)}


# (data, spec, plan options) of models whose outcome is summed per cluster
_PER_CLUSTER = {
    "exponential_entry_aghq": (
        lambda: _clustered_survival("exponential", True, 31),
        "(y x M1[id], family(exponential, failure(d) ltrunc(t0)))",
        dict(points=7),
    ),
    "weibull_t_qmc": (
        lambda: _clustered_survival("weibull", False, 32),
        "(y x M1[id], family(weibull, failure(d)))",
        dict(method="qmc", redistribution="t", t_df=5, draws=101),
    ),
    "gompertz_entry_qmc": (
        lambda: _clustered_survival("gompertz", True, 33),
        "(y x M1[id], family(gompertz, failure(d) ltrunc(t0)))",
        dict(method="qmc", draws=64),
    ),
    "poisson_nested_aghq": (
        lambda: _nested_counts(34),
        "(y x M1[id] M2[id>sub], family(poisson))",
        dict(points=5),
    ),
}


@functools.cache
def _per_cluster_pair(case: str):
    """The per-cluster model, its row-path twin (every intercept written
    ``one#...``), their plans and start values."""
    build, spec, options = _PER_CLUSTER[case]
    twin_spec, cols = _row_twin(spec, build())
    prog, twin = make(cols, spec), make(cols, twin_spec)
    assert prog.outcomes[0].intercepts is not None and twin.outcomes[0].intercepts is None
    assert prog.slot_names() == twin.slot_names()
    plans = default_plan(prog, **options), default_plan(twin, **options)
    return prog, twin, plans, initial_values(prog)


class TestPerClusterPath:
    """An outcome whose linear predictor is a row part plus random
    intercepts, under an exp-linear family, is summed per cluster; its
    one#M1[id] twin is evaluated row by row and must give the same
    values within rounding, and -inf in the same places."""

    def test_only_pure_intercepts_collapse(self):
        cols = _clustered_survival("weibull", False, 1)
        cols["one"] = np.ones(len(cols["id"]))
        kept = ["(y x M1[id], family(weibull, failure(d)))", "(y x M1[id] M1[id], family(exponential, failure(d)))"]
        for spec in kept:
            assert make(cols, spec).outcomes[0].intercepts is not None, spec
        row_path = [
            "(y x one#M1[id], family(weibull, failure(d)))",
            "(y x M1[id]@b, family(weibull, failure(d)))",
            "(y x x#M1[id] M2[id], family(weibull, failure(d)))",
            "(y x M1[id], family(lognormal, failure(d)))",
            "(y x fp(1)#x M1[id], family(weibull, failure(d)))",
            "(y x, family(weibull, failure(d)))",
        ]
        for spec in row_path:
            assert make(cols, spec).outcomes[0].intercepts is None, spec

    @pytest.mark.parametrize("case", sorted(_PER_CLUSTER))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_row_twin(self, case, data):
        prog, twin, (plan, twin_plan), start = _per_cluster_pair(case)
        # adapted near the start values; four vectors around them, some
        # so far out (scale 1000) that they overflow
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5]))]
        scales += data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 1000.0]), min_size=4, max_size=4))
        offsets = data.draw(hnp.arrays(float, (5, prog.n_params), elements=st.floats(-1.0, 1.0)))
        adapt_at, *stack = start + np.asarray(scales)[:, None] * offsets
        stack = np.array(stack)
        values = {}
        for name, p, pl in (("per_cluster", prog, plan), ("rows", twin, twin_plan)):
            ev = LikelihoodEvaluator(p, pl)
            ev.refresh(adapt_at)
            values[name] = ev.logl(stack)
            # two threads, one sub-stack each: the same bits
            assert optim._values(ev.logl, stack, True, 2).tobytes() == values[name].tobytes()
            assert np.array([ev.logl(x) for x in stack]).tobytes() == values[name].tobytes()
        got, expect = values["per_cluster"], values["rows"]
        assert not np.isnan(got).any()
        assert np.array_equal(np.isneginf(got), np.isneginf(expect)), (got, expect)
        # a far vector's finite value may sum terms that cancel, such as
        # e^eta H0(t) - e^eta H0(t0) at a Gompertz gamma of -1000, in
        # either form: only where it is -inf is compared
        near = np.isfinite(expect) & (np.asarray(scales[1:]) <= 2.0)
        assert np.all(np.abs(got[near] - expect[near]) <= 1e-12 * np.abs(expect[near])), (got, expect)

    def test_fit_matches_row_twin(self):
        prog, twin, (plan, twin_plan), _ = _per_cluster_pair("weibull_t_qmc")
        a, b = (hm.fit_model(p.spec, p.frame, method="qmc", redistribution="t", t_df=5, draws=101) for p in (prog, twin))
        assert a.iterations == b.iterations and a.converged and b.converged
        assert abs(a.logl - b.logl) <= 1e-10 * abs(b.logl)
        np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-7)
