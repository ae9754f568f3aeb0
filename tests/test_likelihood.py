import functools
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings

import hiermix as hm
import hiermix.likelihood as likelihood
import hiermix.optim as optim
from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.integrate import adapt_locations
from hiermix.likelihood import IntegrationPlan, LevelPlan, LikelihoodEvaluator, default_plan, logsumexp
from hiermix.cli import main
from hiermix.optim import initial_values
from hiermix.predictor import compile_program
from oracles import (
    adaptive_exact_counts,
    gaussian_marginal,
    intercept_levels,
    marginal_logl,
    profile_report,
    record_evaluator_calls,
)


def gaussian_cluster_data(g=12, n=4, seed=1, sd_b=0.8, sd_e=0.6):
    rng = np.random.default_rng(seed)
    b = rng.normal(0, sd_b, g)
    cid = np.repeat(np.arange(g) + 1.0, n)
    x = rng.normal(size=g * n)
    y = 1.0 + 0.5 * x + b[cid.astype(int) - 1] + rng.normal(0, sd_e, g * n)
    return {"id": cid, "x": x, "y": y}


def xc(data) -> np.ndarray:
    """The fixed design of ``(y x ...)``: columns x and the constant."""
    return np.column_stack([data["x"], np.ones(len(data["x"]))])


def cluster_marginal(data, theta) -> float:
    """``gaussian_marginal`` of ``(y x M1[id], family(gaussian))`` at
    theta (x, _cons, ln_sd, ln_sd(M1))."""
    sd, sd_id = np.exp(theta[2:])
    return gaussian_marginal(data["y"], xc(data), theta[:2], [sd], intercept_levels([data["id"]], [sd_id]))


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


def trial_marginal(data, theta) -> float:
    """``gaussian_marginal`` of ``(y x M1[trial] M2[trial>pat],
    family(gaussian))`` at theta (x, _cons, ln_sd, ln_sd(M1), ln_sd(M2))."""
    sd, *sds = np.exp(theta[2:])
    return gaussian_marginal(data["y"], xc(data), theta[:2], [sd], intercept_levels([data["trial"], data["pat"]], sds))


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
        assert abs(got - cluster_marginal(data, theta)) < 1e-8

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
        exact = cluster_marginal(data, THETA)
        assert abs(got - exact) / abs(exact) < 1e-3

    def test_doubling_draws_shrinks_median_error(self):
        # doubling from a power of two: base-2 radical-inverse prefixes
        # are most uniform at power-of-two lengths
        sizes = (256, 512, 1024)
        errors = {m: [] for m in sizes}
        for rep in range(50):
            data = gaussian_cluster_data(g=8, n=3, seed=100 + rep)
            prog = make(data, "(y x M1[id], family(gaussian))")
            exact = cluster_marginal(data, THETA)
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
        opt = minimize(lambda p: -trial_marginal(data, p), start, method="BFGS", options={"gtol": 1e-9})
        theta = opt.x  # x, _cons, ln_sd, ln_sd(M1), ln_sd(M2): the closed-form maximum
        exact = trial_marginal(data, theta)
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


def _assert_placed_at_a_fixed_point(ev: LikelihoodEvaluator, theta: np.ndarray) -> None:
    """Assert that every level of an evaluator refreshed at theta was
    placed at its cells' closed-form posterior, with 0 sweeps, at a fixed
    point of the sweeps: ``adapt_locations`` started at the placed rule,
    with the levels inside it at theirs, returns that rule bit for bit,
    with 1 iteration at every active cell; and that a refresh at theta
    places the same nodes and adds 0 to ``conditional_evaluations``."""
    sums, outer = ev._all_sums(theta), []
    for pos, st in enumerate(ev.level_states):
        placed = ev.adapted[pos]
        assert not placed.iterations.any() and not placed.fallback.any() and not placed.capped.any()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fit = adapt_locations(
                lambda x: ev._conditional(theta, pos, outer, x, sums)[0],
                st.kernel,
                ev.level_chol(st, theta),
                st.grid,
                st.cells,
                start=placed,
            )
        assert fit.shift.tobytes() == placed.shift.tobytes() and fit.scale.tobytes() == placed.scale.tobytes()
        assert (fit.iterations == st.cells).all() and not fit.fallback.any() and not fit.capped.any()
        outer = outer + [ev._as_outer(pos, ev.placed[pos][0])]
    evaluations, nodes = ev.profile_report()["conditional_evaluations"], [x.tobytes() for x, _ in ev.placed.values()]
    ev.refresh(theta)
    assert ev.profile_report()["conditional_evaluations"] == evaluations
    assert [x.tobytes() for x, _ in ev.placed.values()] == nodes


class TestProfileReport:
    def test_capped_cells_are_listed(self):
        # posteriors far in the prior's tail: counts of thousands put every
        # cluster's intercept about 150 prior scales out, under a posterior
        # far narrower than the prior, so every cell stops at the
        # 20-iteration limit, unconverged and not flagged as a fallback
        data = gaussian_cluster_data()
        prog = make(dict(data, y=np.round(np.exp(data["y"] + 7.0))), "(y x M1[id], family(poisson))")
        plan = default_plan(prog, points=15)
        far, near = LikelihoodEvaluator(prog, plan), LikelihoodEvaluator(prog, plan)
        far.refresh(np.array([2.7, -2.82, -2.87]))
        report = far.profile_report()
        assert report["adaptation_fallbacks"] == []
        assert report["adaptation_capped"] == [("id", unit, 0) for unit in range(12)]
        assert all(report["adaptation_iterations"][key] == 20 for key in report["adaptation_capped"])
        near.refresh(initial_values(prog))
        assert near.profile_report()["adaptation_capped"] == []

    def test_far_gaussian_cells_start_at_their_posterior(self):
        # the same far-off posteriors under a Gaussian outcome, where they
        # are normal and known in closed form: every cell is placed there,
        # a fixed point of the sweeps, without a sweep, and the
        # log-likelihood is the closed form's (iterated from the prior, all
        # 12 cells capped and it read -92118.45 against -39645.55)
        data = gaussian_cluster_data()
        prog = make(data, "(y x M1[id], family(gaussian))")
        theta = np.array([2.7, -2.82, -2.69, -2.87])
        ev = LikelihoodEvaluator(prog, default_plan(prog, points=15))
        ev.refresh(theta)
        expect = cluster_marginal(data, theta)
        assert abs(ev.logl(theta) - expect) <= 1e-8 * abs(expect)
        report = ev.profile_report()
        assert report["adaptation_capped"] == [] and report["adaptation_fallbacks"] == []
        assert report["adaptation_sweeps"] == {"id": 0}
        assert set(report["adaptation_iterations"].values()) == {0}
        _assert_placed_at_a_fixed_point(ev, theta)

    def test_non_finite_closed_form_start_sweeps(self):
        # cluster 3's residuals sum past the float range, so its
        # closed-form start is not finite: the level adapts by sweeps, its
        # other cells starting at their posterior, where their first sweep
        # keeps them, and that cell from the prior, where its log integral
        # is -inf and it falls back
        data = gaussian_cluster_data()
        y = np.where(data["id"] == 3.0, 1.7e308, data["y"])
        prog = make(dict(data, y=y), "(y x M1[id], family(gaussian))")
        theta = np.array([0.5, 1.0, math.log(0.6), math.log(0.8)])
        ev = LikelihoodEvaluator(prog, default_plan(prog))
        assert ev.posterior_start
        ev.refresh(theta)
        with np.errstate(over="ignore"):
            start = ev._posterior(theta, 0, [], ev._all_sums(theta))
        assert np.flatnonzero(start.fallback).tolist() == [2]
        report = ev.profile_report()
        assert report["adaptation_sweeps"] == {"id": 1}
        assert report["adaptation_fallbacks"] == [("id", 2, 0)] and report["adaptation_capped"] == []
        assert report["adaptation_iterations"] == {("id", unit, 0): int(unit != 2) for unit in range(12)}
        fit, kept = ev.adapted[0], ~start.fallback
        assert fit.shift[kept].tobytes() == start.shift[kept].tobytes()
        assert fit.scale[kept].tobytes() == start.scale[kept].tobytes()
        assert ev.logl(theta) == -np.inf

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
    """The module's logsumexp repeats scipy's real-input arithmetic."""

    def test_random_rows(self):
        rng = np.random.default_rng(21)
        for shape in [(40, 1), (40, 5), (300, 200), (40, 5)]:
            a = rng.normal(0.0, 30.0, shape)
            expect = scipy.special.logsumexp(a, axis=1).tobytes()
            assert logsumexp(a).tobytes() == expect

    def test_edge_rows(self):
        a, one = self.edge_rows()
        with np.errstate(all="ignore"):
            expect = scipy.special.logsumexp(a, axis=1)
        assert logsumexp(a).tobytes() == expect.tobytes()
        with np.errstate(all="ignore"):
            expect = scipy.special.logsumexp(one, axis=1)
        assert logsumexp(one).tobytes() == expect.tobytes()

    def test_weights(self):
        # the value keeps its bytes; the weights are exp(a - value) on rows
        # with a finite value, and NaN throughout the others
        rng = np.random.default_rng(21)
        rows = [rng.normal(0.0, 30.0, shape) for shape in [(40, 1), (40, 5), (300, 200)]]
        for a in rows + list(self.edge_rows()):
            value, w = logsumexp(a.copy(), weights=True)
            assert value.tobytes() == logsumexp(a.copy()).tobytes()
            finite = np.isfinite(value)
            with np.errstate(all="ignore"):
                expect = np.exp(a[finite] - value[finite, None])
            np.testing.assert_allclose(w[finite], expect, rtol=1e-13, atol=0.0)
            assert np.all(np.abs(w[finite].sum(axis=1) - 1.0) <= 1e-13)
            assert np.isnan(w[~finite]).all()

    def test_ties_counted_per_row_past_a_row_without_a_finite_maximum(self):
        # a NaN row and an all -inf row have no tie, a row of three tied
        # maxima has three: over the whole array as many ties as rows,
        # although the ordinary rows alone have one each
        nan, inf = np.nan, np.inf
        arrays = [
            np.array([[1.0, nan, 2.0, 0.0], [-inf] * 4, [4.0, 4.0, 4.0, -0.7], [0.5, -1.0, 2.0, 1.5], [3.0, 1.0, -2.0, 0.0]]),
            np.array([[nan, 1.0, 2.0, 0.0], [2.0, 5.0, 5.0, -0.7], [0.5, -1.0, 2.0, 1.5], [3.0, 1.0, -2.0, 0.0]]),
        ]
        for a in arrays:
            with np.errstate(all="ignore"):
                assert np.count_nonzero(a - np.max(a, axis=1, keepdims=True) == 0.0) == len(a)
                expect = scipy.special.logsumexp(a, axis=1)
            assert logsumexp(a.copy()).tobytes() == expect.tobytes()
            value, w = logsumexp(a.copy(), weights=True)
            assert value.tobytes() == expect.tobytes()
            finite = np.isfinite(value)
            np.testing.assert_allclose(w[finite], np.exp(a[finite] - value[finite, None]), rtol=1e-13, atol=0.0)
            assert np.isnan(w[~finite]).all()

    @staticmethod
    def edge_rows() -> tuple[np.ndarray, np.ndarray]:
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
        return a, np.array([[-inf], [inf], [nan], [-3.25]])


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


def _rp(twin: bool = False):
    """A spline-baseline frailty model, summed per cluster; with ``twin``
    its one#M1[id] twin, which ``rp_logl`` evaluates row by row."""
    data = hm.simulate(
        "(t trt M1[id], family(weibull, failure(d)))",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        levels={"id": 40},
        covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
        outcomes=[{"censoring": 5.0, "records": 3}],
        seed=4,
    )
    spec, cols = "(t trt M1[id], family(rp, failure(d) scale(h) df(3)))", {n: data.col(n) for n in data.names}
    if twin:
        spec, cols = _row_twin(spec, cols)
    prog = make(cols, spec)
    assert (prog.outcomes[0].intercepts is None) == twin
    return prog, default_plan(prog, points=9)


def _nested_trials():
    """10 trials (``id``) x 10 patients x 3 rows under 5-point adaptive
    quadrature at both levels, summed per patient."""
    data = three_level_data(10, 10, 3, (0.8, 0.7, 0.6), seed=2)
    data["id"] = data.pop("trial")
    prog = make(data, "(y x M1[id] M2[id>pat], family(gaussian))")
    return prog, default_plan(prog, points=5)


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
    """Evaluating the innermost level in column chunks changes no bit of
    a value, an adaptation or a derivative pass."""

    @pytest.mark.parametrize(
        "build",
        [
            _frailty_t5,
            lambda: _frailty_t5(twin=True),
            _nested_qmc,
            _rp,
            lambda: _rp(twin=True),
            lambda: _joint("EV"),
            lambda: _joint("iEV"),
        ],
        ids=["frailty_t5_qmc", "frailty_t5_qmc_rows", "nested_qmc_inner", "rp", "rp_rows", "joint_ev", "joint_iev"],
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
                if ev.exact:
                    out.append(b"".join(np.asarray(v).tobytes() for v in ev.derivatives(theta + shift)))
            return out

        default = likelihood._CHUNK_VALUES
        monkeypatch.setattr(likelihood, "_CHUNK_VALUES", 1 << 40)
        whole = values()
        assert np.all(np.isfinite([v for v in whole if isinstance(v, float)]))
        # one-column chunks and seven-column ones, which split an
        # outer-node combination, then chunks of two whole combinations
        # and a shorter last one, then the default budget. A chunk's
        # largest arrays are innermost units or the rows evaluated row by
        # row, times its columns
        ev = LikelihoodEvaluator(prog, plan)
        inner = ev.level_states[-1]
        size = max(inner.n_units, sum(co.rows.size for k, co in enumerate(prog.outcomes) if k not in ev.per_unit))
        for chunk in (1, 7 * size, int(2.5 * inner.m * size), default):
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


def _probe_vectors(theta):
    """Derivative-style probes around theta: the base point, each
    coordinate moved up and down, and one pair moved together."""
    p = len(theta)
    vectors = [theta.copy()]
    for i in range(p):
        for s in (0.01, -0.01):
            x = theta.copy()
            x[i] += s
            vectors.append(x)
    x = theta.copy()
    x[0] += 0.01
    x[p - 1] -= 0.01
    vectors.append(x)
    return np.array(vectors)


class TestBatchedEvaluation:
    """The probe vectors of a derivative, evaluated one call each: the
    same values whatever the chunk budget, and one call per probe."""

    @pytest.mark.parametrize(
        "build",
        [
            _frailty_t5,
            lambda: _frailty_t5(twin=True),
            _nested_qmc,
            _nested_aghq,
            _rp,
            lambda: _rp(twin=True),
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
            "rp_rows",
            "joint_ev",
            "joint_iev",
            "user_anc",
            "no_latent",
        ],
    )
    def test_stack_equals_single_calls(self, build, monkeypatch):
        prog, plan = build()
        theta = initial_values(prog)
        vectors = _probe_vectors(theta)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta + 0.02)
        single = np.array([ev.logl(x) for x in vectors])
        assert np.all(np.isfinite(single))
        rows = sum(co.rows.size for co in prog.outcomes)
        nodes = ev.level_states[-1].m if ev.level_states else 1
        budgets = [
            1 << 40,  # one chunk
            int(2.5 * rows * nodes),  # chunks of two combinations, then a shorter last one
            7 * rows,  # seven-column chunks, which split a combination
            likelihood._CHUNK_VALUES,
        ]
        for chunk in budgets:
            monkeypatch.setattr(likelihood, "_CHUNK_VALUES", chunk)
            ev = LikelihoodEvaluator(prog, plan)  # the budget fixes its shapes
            ev.refresh(theta + 0.02)
            values = np.array([ev.logl(x) for x in vectors])
            assert values.tobytes() == single.tobytes(), chunk

    def test_first_call_adapts_at_its_vector(self):
        # without a refresh, the first call adapts at its own vector, as a
        # refresh there would
        prog, plan = _nested_aghq()
        vectors = _probe_vectors(initial_values(prog))
        lazy = LikelihoodEvaluator(prog, plan)
        refreshed = LikelihoodEvaluator(prog, plan)
        refreshed.refresh(vectors[0])
        expect = np.array([refreshed.logl(x) for x in vectors])
        assert np.array([lazy.logl(x) for x in vectors]).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_derivatives_take_one_call_per_thread(self, threads, monkeypatch):
        # maximize evaluates each gradient and Hessian probe in a call of
        # its own, on one pool of threads
        prog, plan = _nested_aghq()
        ev = LikelihoodEvaluator(prog, plan)
        p = prog.n_params
        calls = []
        for name, points in (("fd_gradient", 2 * p), ("fd_hessian", p * (p + 1))):

            def counted(*args, real=getattr(optim, name), points=points, **kwargs):
                before = ev.n_calls
                out = real(*args, **kwargs)
                calls.append((ev.n_calls - before, points))
                return out

            monkeypatch.setattr(optim, name, counted)
        res = optim.maximize(ev.logl, initial_values(prog), refresh=ev.refresh, threads=threads)
        assert res.converged and len(calls) > 2
        assert all(made == points for made, points in calls), calls


def test_scalar_ancillary_hook_fits_like_the_builtin_gaussian():
    # ctx.ancillary(j) is a scalar at every call, finite-difference
    # probes included, so a hook may use math functions on it
    def scalar_gauss(ctx):
        sd = math.exp(ctx.ancillary(1))
        return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((ctx.response() - ctx.linpred()) / sd) ** 2

    hm.register_user_family(loglf=scalar_gauss, n_anc=1)
    data = gaussian_cluster_data(g=15, n=3)
    builtin = hm.fit_model("(y x M1[id], family(gaussian))", data)
    hook = hm.fit_model("(y x M1[id], family(user, loglf(scalar_gauss)) np(1))", data)
    assert hook.converged and hook.profile["derivative_passes"] == 0
    assert abs(hook.logl - builtin.logl) <= 1e-10 * abs(builtin.logl)


def _frailty_chunks(twin: bool = False):
    """A QMC t-frailty model one parameter vector of which spans three
    chunks at the default budgets, the last narrower: summed per cluster,
    100 clusters x 1500 draws, 655 columns per chunk; its twin, 300 rows x
    500 draws, 218 columns per chunk."""
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
    return spec, cols, prog, default_plan(prog, method="qmc", redistribution="t", t_df=5, draws=500 if twin else 1500)


class TestWorkspace:
    """Chunked evaluation gives the same values across chunks, calls and
    threads, none carrying a value into another."""

    twin = False  # the model's one#M1[id] twin (see TestWorkspaceRows)

    def test_model_spans_three_chunks(self):
        _, _, prog, plan = _frailty_chunks(self.twin)
        ev = LikelihoodEvaluator(prog, plan)
        draws = ev.level_states[-1].m
        assert draws // ev.chunk_columns >= 2 and 0 < draws % ev.chunk_columns < ev.chunk_columns

    def test_repeated_calls(self):
        _, _, prog, plan = _frailty_chunks(self.twin)
        a = initial_values(prog)
        b = a + 0.05
        ev = LikelihoodEvaluator(prog, plan)
        first = ev.logl(a)
        assert ev.logl(b) != first
        assert ev.logl(a) == first
        vectors = _probe_vectors(a)
        fresh = np.array([LikelihoodEvaluator(prog, plan).logl(x) for x in vectors])
        assert np.array([ev.logl(x) for x in vectors]).tobytes() == fresh.tobytes()

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


class TestWorkspaceRows(TestWorkspace):
    """The same on the one#M1[id] twin, which keeps the rows x columns
    chunk path covered now that the t-frailty model is summed per
    cluster."""

    twin = True


# run in a fresh interpreter: glibc's malloc thresholds are process-wide
# and only rise, and this one has long since raised them
_FAULT_SCRIPT = """
import resource

import numpy as np

import hiermix as hm
from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.likelihood import LikelihoodEvaluator, default_plan
from hiermix.optim import initial_values
from hiermix.predictor import compile_program

data = hm.simulate(
    "(t trt M1[id], family(weibull, failure(d))), redistribution(t) df(5)",
    {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
    levels={"id": 300},
    covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
    outcomes=[{"censoring": 5.0, "records": 4}],
    seed=1,
)
cols = {n: data.col(n) for n in data.names}
cols["one"] = np.ones(len(cols["id"]))
prog = compile_program(parse_model_spec("(t trt one#M1[id], family(weibull, failure(d)))"), as_frame(cols))
ev = LikelihoodEvaluator(prog, default_plan(prog, method="qmc", redistribution="t", t_df=5, draws=200))
theta = initial_values(prog)
vectors = theta + 0.01 * np.arange(6)[:, None]


def calls():
    ev.logl(theta)
    for x in vectors:
        ev.logl(x)


calls()
calls()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(8):
    calls()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the freed block acts on glibc's malloc thresholds",
)
def test_warm_calls_fault_in_no_pages():
    # the one#M1[id] twin of a 300-cluster t-frailty model, 1200 rows x
    # 200 draws, whose chunk temporaries are about 0.5 MB each: without
    # the block the evaluator frees when it is built, every chunk maps
    # them afresh, about 1000 minor faults per call
    src = str(Path(likelihood.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) <= 500


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
        [(_nested_aghq, {"trial": 0, "pat": 0}), (_poisson_aghq, {"id": 1})],
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
        sweeps = warm.profile_report()["adaptation_sweeps"]
        cold_sweeps = cold.profile_report()["adaptation_sweeps"]
        if warm.posterior_start:
            # every adaptation, warm or cold, places the cells at their
            # exact posterior, the same nodes, without a sweep, at a fixed
            # point of the sweeps; a refresh at an unchanged theta
            # evaluates nothing
            assert first == sweeps == cold_sweeps == per_refresh
            assert [x.tobytes() for x, _ in warm.placed.values()] == [x.tobytes() for x, _ in cold.placed.values()]
            _assert_placed_at_a_fixed_point(cold, moved)
            _assert_placed_at_a_fixed_point(warm, moved)
            return
        # from the previous refresh's result: fewer passes than from the prior
        assert all(sweeps[name] - first[name] < cold_sweeps[name] for name in sweeps)
        # at an unchanged theta every cell is converged at its first pass
        warm.refresh(moved)
        rep = warm.profile_report()
        assert max(rep["adaptation_iterations"].values()) == 1
        assert not rep["adaptation_fallbacks"]
        assert {name: n - sweeps[name] for name, n in rep["adaptation_sweeps"].items()} == per_refresh

    @pytest.mark.parametrize("case", ["nested_gaussian", "poisson_nested_aghq", "poisson_nested_aghq_qmc"])
    def test_nested_refresh_reads_inner_values(self, case, monkeypatch):
        # the outer adaptation's last evaluation is at the rule it keeps,
        # and the inner sums it read there are those of an evaluation at the
        # inner rule kept, bit for bit; an adaptive inner level is not
        # integrated again, a QMC one is
        if case == "nested_gaussian":
            prog, plan = _nested_aghq()
        else:
            build, spec, options = _PER_CLUSTER[case]
            prog = make(build(), spec)
            plan = default_plan(prog, **options)
        ev = LikelihoodEvaluator(prog, plan)
        theta = initial_values(prog)
        ev.refresh(theta)  # from the prior: the next refresh starts warm
        theta = theta + np.linspace(-0.05, 0.05, theta.size)
        conditional, integrate_level = ev._conditional, ev._integrate
        seen, inner_integrals = [], []

        def spy_conditional(theta, pos, outer, x, sums, terms=None, refresh=False):
            out = conditional(theta, pos, outer, x, sums, terms, refresh)
            if refresh and pos == 0:
                seen.append((x, out[0]))
            return out

        def spy_integrate(theta, pos, *args):
            inner_integrals.append(pos)
            return integrate_level(theta, pos, *args)

        monkeypatch.setattr(ev, "_conditional", spy_conditional)
        monkeypatch.setattr(ev, "_integrate", spy_integrate)
        evaluations = ev.profile_report()["conditional_evaluations"]
        ev.refresh(theta)
        monkeypatch.undo()
        if ev.posterior_start:
            # every level is placed at its cells' closed-form posterior: the
            # outer level does not sweep, so it reads no inner value, and
            # nothing is evaluated or integrated
            assert seen == [] and inner_integrals == []
            assert ev.profile_report()["conditional_evaluations"] == evaluations
            _assert_placed_at_a_fixed_point(ev, theta)
            return
        assert bool(inner_integrals) == (case == "poisson_nested_aghq_qmc")
        x, cond = seen[-1]
        assert x.tobytes() == ev.placed[0][0].tobytes()
        again = ev._conditional(theta, 0, [], x, ev._all_sums(theta))[0]
        assert cond.tobytes() == again.tobytes()

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
        w, c = warm.adapted[0], cold.adapted[0]
        assert not w.fallback.any() and not c.fallback.any()
        # the flagged cell started at (0, the current prior scale), as a
        # cold start does, not at the scale it fell back to: same bits
        assert w.shift[0].tobytes() == c.shift[0].tobytes()
        assert w.scale[0].tobytes() == c.scale[0].tobytes()
        assert w.iterations[0] == c.iterations[0] > 1
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


def _repeated_measures(seed: int) -> dict:
    """25 subjects x 4 visits at times 0 to 3, with a normal intercept
    per subject and a mean that falls with time: a Gaussian response y
    and Poisson counts k."""
    rng = np.random.default_rng(seed)
    cid, time = np.repeat(np.arange(25) + 1.0, 4), np.tile([0.0, 1.0, 2.0, 3.0], 25)
    x = rng.normal(size=cid.size)
    eta = 0.2 + 0.3 * x - 0.2 * time + np.repeat(rng.normal(0, 0.6, 25), 4)
    return {"id": cid, "time": time, "x": x, "y": eta + rng.normal(0, 0.5, cid.size),
            "k": rng.poisson(np.exp(eta)).astype(float)}


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
    "poisson_gh": (
        lambda: _nested_counts(35),
        "(y x M1[id], family(poisson))",
        dict(points=9, adaptive=False),
    ),
    # Gaussian intercepts per group and subgroup
    "gaussian_nested_qmc": (
        lambda: _nested_columns(6, [3], np.random.default_rng(38)),
        "(y x M1[id] M2[id>sub], family(gaussian))",
        dict(method="qmc", draws=16),
    ),
    # a time trend under timevar() belongs to the row part
    "gaussian_fp_timevar_aghq": (
        lambda: _repeated_measures(39),
        "(y x fp(1) M1[id], family(gaussian) timevar(time))",
        dict(points=7),
    ),
    "poisson_rcs_timevar_qmc": (
        lambda: _repeated_measures(40),
        "(k x rcs(knots(0 1 3)) M1[id], family(poisson) timevar(time))",
        dict(method="qmc", draws=64),
    ),
    # two outcomes share the frailty, which enters the counts twice
    "joint_weibull_poisson_t_aghq": (
        lambda: _with_counts(_clustered_survival("weibull", False, 36), 37),
        "(y x M1[id], family(weibull, failure(d))) (k x M1[id] M1[id], family(poisson))",
        dict(points=7, redistribution="t", t_df=5, method="aghq"),
    ),
    # the same on shared QMC nodes, where the counts' feature is
    # S e^(m) e^(2 u)
    "joint_weibull_poisson_t_qmc": (
        lambda: _with_counts(_clustered_survival("weibull", False, 42), 43),
        "(y x M1[id], family(weibull, failure(d))) (k x M1[id] M1[id], family(poisson))",
        dict(method="qmc", redistribution="t", t_df=5, draws=64),
    ),
    # shared QMC nodes inside adaptive quadrature, whose nodes enter the
    # inner level's per-cell coefficients S e^(m + l)
    "poisson_nested_aghq_qmc": (
        lambda: _nested_counts(44),
        "(y x M1[id] M2[id>sub], family(poisson))",
        dict(method={"id": "aghq", "sub": "qmc"}, points=3, draws=16),
    ),
}
# the per-cluster models whose latent levels all have one dimension, so
# that their fits take exact derivatives: all of them
_EXACT = sorted(_PER_CLUSTER)


def _with_counts(cols: dict, seed: int) -> dict:
    """The columns with Poisson counts k whose log mean is 0.3 x plus
    twice a normal cluster effect."""
    rng = np.random.default_rng(seed)
    b = np.repeat(rng.normal(0, 0.4, 25), 3)
    return {**cols, "k": rng.poisson(np.exp(0.3 * cols["x"] + 2 * b)).astype(float)}


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
        kept = [
            "(y x M1[id], family(weibull, failure(d)))",
            "(y x M1[id] M1[id], family(exponential, failure(d)))",
            "(y x M1[id], family(gaussian))",
        ]
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
        adapt_at, *vectors = start + np.asarray(scales)[:, None] * offsets
        values, first = {}, None
        for name, p, pl in (("per_cluster", prog, plan), ("rows", twin, twin_plan)):
            ev = LikelihoodEvaluator(p, pl)
            if first is not None and first.posterior_start:
                # an exact start adapts the per-cluster form to a rule up to
                # the tolerance away from the row form's iterated one: give
                # the twin that rule, so that both forms evaluate at one rule
                ev.adapted, ev.placed = dict(first.adapted), dict(first.placed)
            else:
                ev.refresh(adapt_at)
            first = first or ev
            values[name] = np.array([ev.logl(x) for x in vectors])
            # on two threads, as maximize's pool evaluates probes: the same bits
            with optim._thread_pool(2) as pool:
                assert np.array(list(pool.map(ev.logl, vectors))).tobytes() == values[name].tobytes()
        got, expect = values["per_cluster"], values["rows"]
        assert not np.isnan(got).any()
        assert np.array_equal(np.isneginf(got), np.isneginf(expect)), (got, expect)
        # a far vector's finite value may sum terms that cancel, such as
        # e^eta H0(t) - e^eta H0(t0) at a Gompertz gamma of -1000, in
        # either form: only where it is -inf is compared
        near = np.isfinite(expect) & (np.asarray(scales[1:]) <= 2.0)
        assert np.all(np.abs(got[near] - expect[near]) <= 1e-12 * np.abs(expect[near])), (got, expect)

    def test_nan_unit_values_read_as_neginf(self):
        # as at the rows: a unit's NaN value at a node is -inf, and every
        # other value, +inf included, is kept
        inf, nan = np.inf, np.nan
        a = np.array([[1.0, nan, 2.0], [0.5, -1.0, inf], [nan, nan, -inf], [3.0, -inf, 0.0]])
        expect = np.where(np.isnan(a), -inf, a)
        likelihood._nan_as_neginf(a)
        assert a.tobytes() == expect.tobytes()

    def test_overflowing_cells_are_formed_node_by_node(self):
        # at _cons + 700, e^m overflows, so on the shared QMC nodes every
        # cell's factor of S e^(L + m) does; at ln_sd(M1) = 1.5 the t(5)
        # draws reach far enough below 0 that S e^(L + m) stays finite at
        # some nodes, so the value is finite, as the twin's, only where
        # such cells are formed node by node
        prog, twin, (plan, twin_plan), start = _per_cluster_pair("weibull_t_qmc")
        names = prog.slot_names()
        theta = start.copy()
        theta[names.index("_cons")] += 700.0
        theta[names.index("ln_sd(M1)")] = 1.5
        ev = LikelihoodEvaluator(prog, plan)
        got, expect = ev.logl(theta), LikelihoodEvaluator(twin, twin_plan).logl(theta)
        assert math.isfinite(got) and math.isfinite(expect)
        assert abs(got - expect) <= 1e-12 * abs(expect), (got, expect)
        assert ev.derivatives(theta)[0] == got

    def test_fit_matches_row_twin(self):
        prog, twin, (plan, twin_plan), _ = _per_cluster_pair("weibull_t_qmc")
        a, b = (hm.fit_model(p.spec, p.frame, method="qmc", redistribution="t", t_df=5, draws=101) for p in (prog, twin))
        assert a.iterations == b.iterations and a.converged and b.converged
        assert abs(a.logl - b.logl) <= 1e-10 * abs(b.logl)
        np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-7)


def _relative_gap(got: np.ndarray, expect: np.ndarray) -> float:
    """max |got - expect| over the largest |expect| entry (at least 1)."""
    return float(np.max(np.abs(got - expect)) / max(1.0, np.max(np.abs(expect))))


def _jacobian(fn, theta: np.ndarray) -> np.ndarray:
    """Central differences of a vector function, step 1e-5 max(|theta_i|, 1)."""
    steps = np.diag(1e-5 * np.maximum(np.abs(theta), 1.0))
    return np.array([(fn(theta + s) - fn(theta - s)) / (2.0 * s[i]) for i, s in enumerate(steps)]).T


def _second_differences(fn, theta: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central second differences of a scalar function, step h: the step
    that keeps their rounding error near eps |fn| / h^2 small."""
    steps = h * np.eye(theta.size)

    def cross(a, b):
        return (fn(theta + a + b) - fn(theta + a - b) - fn(theta - a + b) + fn(theta - a - b)) / (4 * h * h)

    return np.array([[cross(a, b) for b in steps] for a in steps])


def _score_jacobian(ev: LikelihoodEvaluator, theta: np.ndarray) -> np.ndarray:
    """Central differences of the exact score (``_jacobian``)."""
    return _jacobian(lambda x: ev.derivatives(x)[1], theta)


@st.composite
def _random_intercept_models(draw) -> tuple:
    """A Poisson, a Weibull or a joint Weibull and Poisson model with one
    normal random intercept (entering the counts once or twice), on 2 to
    5 clusters of 1 to 300 rows, under QMC or non-adaptive quadrature:
    its evaluator and start values."""
    family = draw(st.sampled_from(["poisson", "weibull", "joint"]))
    sizes = draw(st.lists(st.integers(1, 300), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cid = np.repeat(np.arange(len(sizes)) + 1.0, sizes)
    x = rng.normal(size=cid.size)
    eta = -0.5 + 0.3 * x + np.repeat(rng.normal(0, 0.8, len(sizes)), sizes)
    h0 = -np.log(rng.uniform(size=cid.size)) * np.exp(-eta)
    t, c = h0 ** (1 / 1.3), rng.uniform(0.5, 4.0, size=cid.size)
    cols = {"id": cid, "x": x, "y": np.minimum(t, c), "d": (t <= c).astype(float), "k": rng.poisson(np.exp(eta))}
    counts = f"(k x {draw(st.sampled_from(['M1[id]', 'M1[id] M1[id]']))}, family(poisson))"
    survival = "(y x M1[id], family(weibull, failure(d)))"
    spec = {"poisson": counts, "weibull": survival, "joint": f"{survival} {counts}"}[family]
    options = draw(
        st.sampled_from(
            [
                dict(method="qmc", draws=64),
                dict(method="qmc", redistribution="t", t_df=5, draws=101),
                dict(points=9, adaptive=False),
            ]
        )
    )
    prog = make(cols, spec)
    return LikelihoodEvaluator(prog, default_plan(prog, **options)), initial_values(prog)


class TestExactDerivatives:
    """On a per-cluster model with one latent level of one dimension,
    ``derivatives`` gives the log-likelihood, the exact score (Fisher's
    identity) and the observed information (Louis 1982) in one pass; the
    finite differences of its one#M1[id] twin must agree."""

    def test_scope(self):
        for case in _EXACT:
            prog, twin, (plan, twin_plan), _ = _per_cluster_pair(case)
            assert LikelihoodEvaluator(prog, plan).exact, case
            assert not LikelihoodEvaluator(twin, twin_plan).exact, case
        cols = _clustered_survival("weibull", False, 1)
        prog = make(cols, "(y x M1[id] M2[id], family(weibull, failure(d)))")  # a level of dimension 2
        assert prog.outcomes[0].intercepts is not None
        assert not LikelihoodEvaluator(prog, default_plan(prog, points=3)).exact
        cols = {**_clustered_survival("weibull", False, 1), "z": np.linspace(0.0, 1.0, 75)}
        prog = make(cols, "(y x M1[id], family(weibull, failure(d))) (z x, family(gaussian))")
        assert not LikelihoodEvaluator(prog, default_plan(prog)).exact
        with pytest.raises(ValueError, match="exact derivatives"):
            LikelihoodEvaluator(prog, default_plan(prog)).derivatives(initial_values(prog))

    @pytest.mark.parametrize("case", _EXACT)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_twin_finite_differences(self, case, data):
        prog, twin, (plan, twin_plan), start = _per_cluster_pair(case)
        # drawn as in TestPerClusterPath.test_matches_row_twin
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5]))]
        scales += data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 1000.0]), min_size=4, max_size=4))
        offsets = data.draw(hnp.arrays(float, (5, prog.n_params), elements=st.floats(-1.0, 1.0)))
        adapt_at, *vectors = start + np.asarray(scales)[:, None] * offsets
        ev, rows = LikelihoodEvaluator(prog, plan), LikelihoodEvaluator(twin, twin_plan)
        ev.refresh(adapt_at)
        rows.refresh(adapt_at)
        for scale, theta in zip(scales[1:], vectors):
            value, score, info = ev.derivatives(theta)
            expect = ev.logl(theta)
            if not np.isfinite(expect):
                # the one non-finite rule: maximize ends the fit on these
                assert value == expect == -np.inf
                assert np.isnan(score).all() and np.isnan(info).all()
                continue
            assert value == expect  # bit for bit: both from _row_sums
            assert np.array_equal(info, info.T, equal_nan=True)
            if scale > 2.0:  # far out, the finite differences are not a reference
                continue
            assert np.isfinite(score).all() and np.isfinite(info).all()
            assert _relative_gap(score, optim.fd_gradient(rows.logl, theta)) <= 1e-6
            assert _relative_gap(-info, _score_jacobian(ev, theta)) <= 1e-6
            # extrapolated: the seven-point Hessian's own error, truncation
            # far from where the quadrature was adapted or rounding where
            # the information is small beside the log-likelihood, reaches
            # 1.16e-5 of it (test_far_joint_vector)
            assert _relative_gap(-info, _extrapolated(optim.fd_hessian, rows.logl, theta, 2)) <= 1e-5

    def test_far_joint_vector(self):
        # every coordinate 1.75 from the start values (scale 2, offsets
        # 0.875) on shared QMC nodes: the twin's seven-point Hessian misses
        # the exact information by 1.16e-5 of it, its extrapolation by
        # 2.0e-8, and the differences of the exact score by 1.6e-7
        prog, twin, (plan, twin_plan), start = _per_cluster_pair("joint_weibull_poisson_t_qmc")
        ev, rows = LikelihoodEvaluator(prog, plan), LikelihoodEvaluator(twin, twin_plan)
        theta = start + 2.0 * 0.875
        value, score, info = ev.derivatives(theta)
        assert value == ev.logl(theta) and np.isfinite(score).all() and np.isfinite(info).all()
        assert _relative_gap(score, optim.fd_gradient(rows.logl, theta)) <= 1e-6
        assert _relative_gap(-info, _score_jacobian(ev, theta)) <= 1e-6
        assert _relative_gap(-info, _extrapolated(optim.fd_hessian, rows.logl, theta, 2)) <= 1e-5

    def test_pass_is_counted_apart_from_logl(self):
        prog, _, (plan, _), start = _per_cluster_pair("weibull_t_qmc")
        ev = LikelihoodEvaluator(prog, plan)
        for _ in range(3):
            ev.derivatives(start)
        report = ev.profile_report()
        assert report["derivative_passes"] == 3
        assert report["likelihood_calls"] == 0
        # the passes' time and their active units x nodes are counted (QMC
        # does not adapt, so nothing else evaluates)
        st = ev.level_states[0]
        assert report["wall_time_s"] > 0 and report["conditional_evaluations"] > 0
        assert report["conditional_evaluations"] == 3 * int(st.active.sum()) * st.m
        assert report["conditional_evaluations_per_call"] == int(st.active.sum()) * st.m
        # a fit takes every value from a pass: one at the start and one per
        # line-search point (QMC does not refresh), and never calls logl
        res = hm.fit_model(prog.spec, prog.frame, method="qmc", redistribution="t", t_df=5, draws=101)
        assert res.converged
        assert res.profile["likelihood_calls"] == 0
        assert res.profile["derivative_passes"] == res.iterations + sum(h for *_, h in res.trace)

    def test_pinned_slot_matches_twin(self):
        prog, twin, _, _ = _per_cluster_pair("gompertz_entry_qmc")
        fits = [
            hm.fit_model(p.spec, p.frame, method="qmc", draws=64, fixed={"gamma": 0.15}) for p in (prog, twin)
        ]
        exact, rows = fits
        assert exact.profile["derivative_passes"] > 0 and rows.profile["derivative_passes"] == 0
        assert exact.converged and exact.optimum_verified and rows.converged and rows.optimum_verified
        assert exact.estimate("gamma") == 0.15 and exact.se("gamma") is None and rows.se("gamma") is None
        for name in ("x", "_cons", "sd(M1)"):
            assert abs(exact.se(name) - rows.se(name)) <= 1e-5 * rows.se(name), name
            assert abs(exact.estimate(name) - rows.estimate(name)) <= 1e-3 * rows.se(name), name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_random_intercept_models(), data=st.data())
    def test_scaled_nodes_match_finite_differences(self, model, data):
        # QMC and non-adaptive quadrature, on which every unit has the same
        # nodes, with up to 300 rows per cluster; some vectors so far out
        # (scale 1000) that the log-likelihood is -inf
        ev, start = model
        assert ev.exact and not ev.level_states[0].adaptive
        scales = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 1000.0]), min_size=4, max_size=4))
        offsets = data.draw(hnp.arrays(float, (4, start.size), elements=st.floats(-1.0, 1.0)))
        for scale, theta in zip(scales, start + np.asarray(scales)[:, None] * offsets):
            value, score, info = ev.derivatives(theta)
            assert value == ev.logl(theta)  # bit for bit
            if not np.isfinite(value):
                assert value == -np.inf and np.isnan(score).all() and np.isnan(info).all()
                continue
            if scale > 2.0:  # far out, the finite differences are not a reference
                continue
            assert np.isfinite(score).all() and np.isfinite(info).all()
            assert np.array_equal(info, info.T)
            # extrapolated: on clusters of 300 rows at scale 2, the plain
            # differences' truncation error reaches 3.5e-5 of the information
            assert _relative_gap(score, _extrapolated(optim.fd_gradient, ev.logl, theta, 1)) <= 1e-6
            score_at = lambda x: ev.derivatives(x)[1]
            assert _relative_gap(-info, _extrapolated(_jacobian, score_at, theta, 1)) <= 1e-6
            assert _relative_gap(-info, _extrapolated(optim.fd_hessian, ev.logl, theta, 2)) <= 1e-5

    @pytest.mark.parametrize(
        "build,chunk",
        [(_frailty_t5, None), (_rp, None), (_nested_trials, 1)],
        ids=["frailty_t5_qmc", "rp_aghq", "nested_aghq_unit_blocks"],
    )
    def test_pass_invariant_to_row_order_and_labels(self, build, chunk, monkeypatch):
        # a unit's sums add its rows in their canonical order, and each
        # score and information entry adds the units in ascending order of
        # its values: shuffled rows and relabelled clusters give the same
        # pass bit for bit, on adaptive nodes after the same refresh. On
        # the nested model relabelled trials leave the patients' ids out
        # of the rows' order, here in blocks of one patient
        prog, plan = build()
        if chunk is not None:
            monkeypatch.setattr(likelihood, "_CHUNK_VALUES", chunk)
        theta = initial_values(prog) + 0.05
        cols = {name: prog.frame.col(name) for name in prog.frame.names}
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(cols["id"]))
        ids = np.unique(cols["id"])
        relabel = dict(zip(ids, 1000.0 + rng.permutation(ids.size)))
        variants = [cols, {**cols, "id": np.array([relabel[v] for v in cols["id"]])}]
        variants.append({name: col[perm] for name, col in variants[1].items()})
        passes = []
        for variant in variants:
            ev = LikelihoodEvaluator(compile_program(prog.spec, as_frame(variant)), plan)
            ev.refresh(theta)
            passes.append(b"".join(np.asarray(v).tobytes() for v in ev.derivatives(theta)))
        assert passes[1] == passes[0]
        assert passes[2] == passes[0]

    def test_non_finite_derivatives_end_the_fit(self):
        prog, _, (plan, _), start = _per_cluster_pair("exponential_entry_aghq")
        ev = LikelihoodEvaluator(prog, plan)

        def broken(theta):
            value, score, info = ev.derivatives(theta)
            return value, score, np.full_like(info, np.inf)

        res = optim.maximize(ev.logl, start, refresh=ev.refresh, derivatives=broken)
        assert not res.converged and not res.optimum_verified
        assert res.message == "the exact score or information is not finite"

    @pytest.mark.parametrize("shift", [703.125, 707.0])
    def test_sums_past_the_float_range_follow_the_non_finite_rule(self, shift):
        # every unit's value is finite, but a sum over the units leaves the
        # float range, where math.fsum raises: at +703.125 the information's
        # (the log-likelihood, -7.37e306, is finite), at +707 the
        # log-likelihood's too, on either path
        prog, twin, (plan, twin_plan), start = _per_cluster_pair("poisson_rcs_timevar_qmc")
        theta = start.copy()
        theta[prog.slot_index("_cons")] += shift
        ev = LikelihoodEvaluator(prog, plan)
        value, score, info = ev.derivatives(theta)
        assert value == ev.logl(theta)
        assert np.isnan(info).all()
        if shift < 707.0:
            assert np.isfinite(value) and value < -1e306
        else:
            assert value == -np.inf and np.isnan(score).all()
            assert LikelihoodEvaluator(twin, twin_plan).logl(theta) == -np.inf


def _nested_columns(outer: int, children: list, rng) -> dict:
    """Ids of ``outer`` outermost units and, at each deeper level,
    ``children[i]`` children per parent (globally unique ids), with 2 or
    3 rows per innermost unit; a covariate x and a normal intercept of sd
    0.6 per unit of every level, and from them a Gaussian response y,
    Poisson counts k and censored Weibull times t with event flags d."""
    ids = [np.arange(outer)]
    for n in children:
        ids = [np.repeat(col, n) for col in ids] + [np.arange(ids[0].size * n)]
    rows = rng.integers(2, 4, size=ids[-1].size)
    ids = [np.repeat(col, rows) for col in ids]
    x = rng.normal(size=rows.sum())
    eta = -0.3 + 0.4 * x + sum(rng.normal(0, 0.6, col.max() + 1)[col] for col in ids)
    h0 = -np.log(rng.uniform(size=x.size)) * np.exp(-eta)
    t, c = h0 ** (1 / 1.3), rng.uniform(0.5, 4.0, size=x.size)
    cols = dict(zip(["id", "sub", "rep"], (col + 1.0 for col in ids)))
    return {**cols, "x": x, "y": eta + rng.normal(0, 0.5, x.size), "k": rng.poisson(np.exp(eta)).astype(float),
            "t": np.minimum(t, c), "d": (t <= c).astype(float)}


@st.composite
def _nested_intercept_models(draw) -> tuple:
    """A model with random intercepts at 1 to 3 nested levels under a
    Gaussian, Poisson or Weibull family, or a Gaussian outcome and Poisson
    counts that share the outermost intercept, on 2 to 4 outermost units;
    each level under adaptive quadrature, QMC or non-adaptive quadrature,
    with a normal or t(5) kernel: its evaluator, its row twin's (every
    intercept written ``one#...``) and its start values."""
    depth = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    children = draw(st.lists(st.integers(1, 3), min_size=depth - 1, max_size=depth - 1))
    cols = _nested_columns(draw(st.integers(2, 4)), children, rng)
    names = ["id", "sub", "rep"][:depth]
    terms = " ".join(f"M{i + 1}[{'>'.join(names[: i + 1])}]" for i in range(depth))
    family = draw(st.sampled_from(["gaussian", "poisson", "weibull", "joint"]))
    spec = {
        "gaussian": f"(y x {terms}, family(gaussian))",
        "poisson": f"(k x {terms}, family(poisson))",
        "weibull": f"(t x {terms}, family(weibull, failure(d)))",
        "joint": f"(y x {terms}, family(gaussian)) (k x M1[id], family(poisson))",
    }[family]
    methods = {n: draw(st.sampled_from(["aghq", "qmc"])) for n in names}
    options = dict(
        method=methods,
        redistribution={n: draw(st.sampled_from(["normal", "t"])) for n in names},
        t_df=5,
        points=draw(st.sampled_from([3, 5])),
        draws=draw(st.sampled_from([5, 9])),
        adaptive=draw(st.booleans()),
    )
    twin_spec, twin_cols = _row_twin(spec, cols)
    prog, twin = make(cols, spec), make(twin_cols, twin_spec)
    assert prog.slot_names() == twin.slot_names()
    evs = [LikelihoodEvaluator(p, default_plan(p, **options)) for p in (prog, twin)]
    return (*evs, initial_values(prog))


class TestNestedExactDerivatives:
    """At any depth of one-dimensional levels, on adaptive or scaled nodes,
    ``derivatives`` gives ``logl``'s value bit for bit, and a score and
    information that the finite differences of the same model confirm;
    the per-unit forms agree with their row twins."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_nested_intercept_models(), data=st.data())
    def test_pass_matches_finite_differences(self, model, data):
        ev, twin, start = model
        assert ev.exact and not twin.exact
        # adapted near the start values; three vectors around them, some so
        # far out (scale 1000) that the log-likelihood is -inf
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5]))]
        scales += data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1000.0]), min_size=3, max_size=3))
        offsets = data.draw(hnp.arrays(float, (4, start.size), elements=st.floats(-1.0, 1.0)))
        adapt_at, *vectors = start + np.asarray(scales)[:, None] * offsets
        ev.refresh(adapt_at)
        twin.refresh(adapt_at)
        for scale, theta in zip(scales[1:], vectors):
            value, score, info = ev.derivatives(theta)
            expect, rows = ev.logl(theta), twin.logl(theta)
            assert np.isneginf(expect) == np.isneginf(rows)
            if not np.isfinite(expect):
                assert value == expect == -np.inf
                assert np.isnan(score).all() and np.isnan(info).all()
                continue
            assert value == expect  # bit for bit: the same recursion
            if scale > 2.0:  # far out, the finite differences are not a reference
                continue
            assert abs(expect - rows) <= 1e-12 * abs(rows)
            assert np.isfinite(score).all() and np.isfinite(info).all()
            assert np.array_equal(info, info.T)
            assert _relative_gap(score, optim.fd_gradient(ev.logl, theta)) <= 1e-6
            assert _relative_gap(-info, _score_jacobian(ev, theta)) <= 1e-6
            assert _relative_gap(-info, optim.fd_hessian(ev.logl, theta)) <= 1e-5

    @pytest.mark.parametrize(
        "spec,options",
        [
            ("(y x M1[id] M2[id>sub], family(gaussian))", dict(method="qmc", draws=20)),
            ("(t x M1[id] M2[id>sub], family(weibull, failure(d)))", dict(method={"id": "aghq", "sub": "qmc"}, draws=15)),
            ("(t x M1[id], family(weibull, failure(d)))", dict(method="qmc", redistribution="t", t_df=5, draws=101)),
            ("(k x M1[id] M2[id>sub], family(poisson))", dict(relabel=True)),
        ],
        ids=["gaussian_qmc", "weibull_aghq_qmc", "weibull_t5_qmc", "poisson_aghq_relabelled"],
    )
    def test_unit_blocks_change_no_bit(self, spec, options, monkeypatch):
        # the innermost node features are formed for blocks of units; one unit
        # per block gives the same pass, bit for bit, also on adaptive nodes
        # where the inner ids, relabelled at random, do not follow the outer
        cols, options = _nested_columns(7, [5], np.random.default_rng(3)), dict(options)
        if options.pop("relabel", False):
            ids, at = np.unique(cols["sub"], return_inverse=True)
            cols["sub"] = np.random.default_rng(4).permutation(ids)[at]
        prog = make(cols, spec)
        ev = LikelihoodEvaluator(prog, default_plan(prog, points=3, **options))
        theta = initial_values(prog) + 0.05
        ev.refresh(theta)
        whole = ev.derivatives(theta)
        monkeypatch.setattr(likelihood, "_CHUNK_VALUES", 1)
        blocked = ev.derivatives(theta)
        assert whole[0] == blocked[0]
        assert whole[1].tobytes() == blocked[1].tobytes() and whole[2].tobytes() == blocked[2].tobytes()

    def test_degenerate_outer_level(self, monkeypatch):
        # one patient per trial: the two intercepts are confounded and only
        # the sum of their variances is identified
        rng = np.random.default_rng(8)
        trial = np.repeat(np.arange(12) + 1.0, 3)
        x = rng.normal(size=trial.size)
        y = 1.0 + 0.5 * x + np.repeat(rng.normal(0, 1.0, 12), 3) + rng.normal(0, 0.6, x.size)
        data = {"trial": trial, "pat": trial + 100.0, "x": x, "y": y}
        spec = "(y x M1[trial] M2[trial>pat], family(gaussian))"
        prog = make(data, spec)
        ev = LikelihoodEvaluator(prog, default_plan(prog, points=5))
        assert ev.exact
        start = initial_values(prog)
        ev.refresh(start)
        for theta in (start, start + 0.2):
            value, score, info = ev.derivatives(theta)
            assert value == ev.logl(theta)
            assert _relative_gap(score, optim.fd_gradient(ev.logl, theta)) <= 1e-6
            assert _relative_gap(-info, optim.fd_hessian(ev.logl, theta)) <= 1e-5
        calls = record_evaluator_calls(monkeypatch)
        res = hm.fit_model(spec, data, points=5)
        counts = adaptive_exact_counts(calls, res.trace)
        assert (res.profile["derivative_passes"], res.profile["likelihood_calls"]) == counts
        # the flat direction between the two standard deviations leaves the
        # optimum unverified, and the fit says so
        assert res.converged, res.message
        assert res.optimum_verified or res.message.startswith("converged (optimum not verified"), res.message

    def test_nested_fit_takes_passes_where_it_keeps_them(self, monkeypatch):
        data = three_level_data(4, 3, 2, (0.8, 0.7, 0.6), seed=1)
        calls = record_evaluator_calls(monkeypatch)
        res = hm.fit_model("(y x M1[trial] M2[trial>pat], family(gaussian))", data, points=5)
        assert res.converged and res.optimum_verified and res.message == "converged"
        # each refresh changes the objective on adaptive nodes and discards
        # the pass: one pass at the start, one after each refresh and one
        # per rounding-floor test; every other line-search point is a logl call
        counts = adaptive_exact_counts(calls, res.trace)
        assert (res.profile["derivative_passes"], res.profile["likelihood_calls"]) == counts
        assert calls.count("refresh") == 1 + len(res.trace)
        assert res.profile["adaptation_capped"] == []
        expect = trial_marginal(data, res.theta)
        assert abs(res.logl - expect) <= 1e-8 * abs(expect)


@st.composite
def _gaussian_intercept_designs(draw) -> tuple:
    """Random intercepts at 1 to 3 nested levels, shared by one Gaussian
    outcome y or by two, y and y2, on 2 to 4 outermost units; a parameter
    vector near the start values and a point count from 2 to 9: the
    program, the vector, the count and the oracle's log-likelihood as a
    function of the vector (``gaussian_marginal``)."""
    depth = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    children = draw(st.lists(st.integers(1, 3), min_size=depth - 1, max_size=depth - 1))
    cols = _nested_columns(draw(st.integers(2, 4)), children, rng)
    cols["y2"] = cols["y"] - 0.8 + 0.3 * cols["x"] + rng.normal(0, 0.7, cols["x"].size)
    names = ["id", "sub", "rep"][:depth]
    terms = " ".join(f"M{i + 1}[{'>'.join(names[: i + 1])}]" for i in range(depth))
    responses = ["y", "y2"][: draw(st.integers(1, 2))]
    prog = make(cols, " ".join(f"({y} x {terms}, family(gaussian))" for y in responses))
    theta = initial_values(prog) + draw(hnp.arrays(float, prog.n_params, elements=st.floats(-0.3, 0.3)))
    # stacked per outcome: its rows, its block of the fixed design and
    # its residual sd, and every level's units repeated
    n, k = cols["x"].size, len(responses)
    y = np.concatenate([cols[name] for name in responses])
    X = np.kron(np.eye(k), xc(cols))
    units = [np.tile(cols[name], k) for name in names]

    def oracle(theta):  # per outcome x, _cons and ln_sd, then each level's ln_sd
        per = theta[: 3 * k].reshape(k, 3)
        levels = intercept_levels(units, np.exp(theta[3 * k :]))
        return gaussian_marginal(y, X, per[:, :2].ravel(), np.exp(per[:, 2]), levels, np.repeat(np.arange(k), n))

    return prog, theta, draw(st.integers(2, 9)), oracle


class TestGaussianIntercepts:
    """Gaussian outcomes with random intercepts at nested levels, summed
    per unit: adaptive quadrature is exact for them at any point count it
    takes, and the exact pass's score and information are the closed
    form's. It refuses 2 points, whose mean-variance step keeps any scale
    (both nodes sit one scale from the shift): on 2 clusters of 2 or 3
    rows such a rule missed the closed form by 6.4 log-units."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(design=_gaussian_intercept_designs())
    def test_adaptive_quadrature_and_pass_match_the_closed_form(self, design):
        prog, theta, points, oracle = design
        assert all(co.intercepts is not None for co in prog.outcomes)
        if points == 2:
            with pytest.raises(ValueError, match="adaptive quadrature needs at least 3 points"):
                default_plan(prog, points=points)
            return
        plan = default_plan(prog, points=points)
        exact = oracle(theta)
        assert abs(marginal_logl(prog, plan, theta) - exact) <= 1e-10 * abs(exact)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(theta)
        # every level is placed at its cells' exact posterior, without a
        # sweep, at a fixed point of the sweeps
        _assert_placed_at_a_fixed_point(ev, theta)
        value, score, info = ev.derivatives(theta)
        assert _relative_gap(score, _extrapolated(optim.fd_gradient, oracle, theta, 1)) <= 1e-6
        assert _relative_gap(-info, _extrapolated(_second_differences, oracle, theta, 2)) <= 1e-6


@st.composite
def _rp_models(draw) -> tuple:
    """A spline-baseline frailty model, df(1) to df(4), on 10 to 25
    clusters of 2 to 4 Weibull rows, under adaptive quadrature or QMC
    with a normal or t(5) kernel: its evaluator, its row twin's
    (``one#M1[id]``) and its start values."""
    df = draw(st.integers(1, 4))
    data = hm.simulate(
        "(t trt M1[id], family(weibull, failure(d)))",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": draw(st.sampled_from([-0.3, 0.26])), "ln_sd(M1)": -0.51},
        levels={"id": draw(st.integers(10, 25))},
        covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
        outcomes=[{"censoring": 5.0, "records": draw(st.integers(2, 4))}],
        seed=draw(st.integers(0, 2**16)),
    )
    spec, cols = f"(t trt M1[id], family(rp, failure(d) scale(h) df({df})))", {n: data.col(n) for n in data.names}
    options = draw(
        st.sampled_from(
            [
                dict(points=7),
                dict(method="qmc", draws=64),
                dict(method="qmc", redistribution="t", t_df=5, draws=101),
            ]
        )
    )
    twin_spec, twin_cols = _row_twin(spec, cols)
    prog, twin = make(cols, spec), make(twin_cols, twin_spec)
    assert prog.slot_names() == twin.slot_names()
    evs = [LikelihoodEvaluator(p, default_plan(p, **options)) for p in (prog, twin)]
    return (*evs, initial_values(prog))


def _rp_vectors(data, ev: LikelihoodEvaluator, start: np.ndarray, scales: list) -> np.ndarray:
    """Vectors around the start values at the given scales, whose spline
    coefficients move a tenth as far: their columns grow with log time
    cubed."""
    spline = np.array([slot.kind == "spline" for slot in ev.program.slots])
    offsets = data.draw(hnp.arrays(float, (len(scales), start.size), elements=st.floats(-1.0, 1.0)))
    return start + np.asarray(scales)[:, None] * np.where(spline, 0.1, 1.0) * offsets


def _extrapolated(fd, fn, theta: np.ndarray, order: int) -> np.ndarray:
    """Richardson's extrapolation (4 D(h/2) - D(h)) / 3 of the central
    differences D(h) = fd(fn, theta) of a derivative of the given order,
    which cancels their O(h^2) truncation error; D(h/2) is 2^order times
    fd of fn at theta + (x - theta) / 2."""
    halved = fd(lambda x: fn(theta + (np.asarray(x) - theta) / 2.0), theta) * 2.0**order
    return (4.0 * halved - fd(fn, theta)) / 3.0


class TestRpExactDerivatives:
    """A spline-baseline (``rp``) outcome with random intercepts and a
    time-constant linear predictor is summed per cluster: its row part
    includes the spline s(log y) gamma, and A = [event] log(s' gamma / y).
    Its fits take exact derivative passes, held to the same bounds as the
    other exact forms; its one#M1[id] twin keeps ``rp_logl``'s row path.

    The finite differences are extrapolated (``_extrapolated``). On these
    data, whose log times span 7 to 9 as the benchmark's do, the spline
    columns' derivatives give the log-likelihood third derivatives large
    enough that the plain central differences' own truncation error
    reaches 1.0e-6 of the score, 1.8e-6 (the score's differences) and
    5e-5 (the seven-point Hessian) of the information, where their
    extrapolations agree with the pass within 3e-10, 6e-11 and 1.5e-7."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_rp_models(), data=st.data())
    def test_pass_matches_finite_differences(self, model, data):
        ev, twin, start = model
        assert ev.exact and not twin.exact
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5])) for _ in range(3)]
        adapt_at, *vectors = _rp_vectors(data, ev, start, scales)
        ev.refresh(adapt_at)
        for theta in vectors:
            value, score, info = ev.derivatives(theta)
            assert value == ev.logl(theta)  # bit for bit
            if not np.isfinite(value):
                assert value == -np.inf and np.isnan(score).all() and np.isnan(info).all()
                continue
            assert np.isfinite(score).all() and np.isfinite(info).all()
            assert np.array_equal(info, info.T)
            assert _relative_gap(score, _extrapolated(optim.fd_gradient, ev.logl, theta, 1)) <= 1e-6
            score_at = lambda x: ev.derivatives(x)[1]
            assert _relative_gap(-info, _extrapolated(_jacobian, score_at, theta, 1)) <= 1e-6
            assert _relative_gap(-info, _extrapolated(optim.fd_hessian, ev.logl, theta, 2)) <= 1e-5
        # a negative hazard at every event time: -inf, and NaN derivatives
        theta = vectors[0].copy()
        theta[ev.program.slot_index("rcs1")] = -50.0
        value, score, info = ev.derivatives(theta)
        assert value == ev.logl(theta) == -np.inf
        assert np.isnan(score).all() and np.isnan(info).all()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_rp_models(), data=st.data())
    def test_matches_row_twin(self, model, data):
        # the per-cluster form and rp_logl's rows differ by rounding: within
        # 1e-12 relative, and -inf in the same places, up to 2 away from
        # the start values
        ev, twin, start = model
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5]))]
        scales += data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0]), min_size=4, max_size=4))
        adapt_at, *vectors = _rp_vectors(data, ev, start, scales)
        ev.refresh(adapt_at)
        twin.refresh(adapt_at)
        got, expect = (np.array([e.logl(x) for x in vectors]) for e in (ev, twin))
        assert np.array_equal(np.isneginf(got), np.isneginf(expect)), (got, expect)
        finite = np.isfinite(expect)
        assert np.all(np.abs(got[finite] - expect[finite]) <= 1e-12 * np.abs(expect[finite])), (got, expect)

    def test_underflowing_cumulative_hazard_stays_finite(self):
        # at _cons = -760 every row's H = exp(s gamma + eta) underflows to
        # 0; both forms take the log hazard as s gamma + eta + log(dF / y)
        values = []
        for twin in (False, True):
            prog, plan = _rp(twin)
            theta = initial_values(prog)
            theta[prog.slot_index("_cons")] = -760.0
            ev = LikelihoodEvaluator(prog, plan)
            ev.refresh(theta)
            values.append(ev.logl(theta))
        got, expect = values
        assert np.isfinite(expect) and abs(got - expect) <= 1e-12 * abs(expect), values

    def test_fit_takes_exact_derivatives(self, monkeypatch):
        # the fit of the per-cluster form against its twin's finite
        # differences: log-likelihood within 1e-9 relative, estimates
        # within 1e-3 standard errors, standard errors within 1e-5 relative
        (prog, _), (twin_prog, _) = _rp(), _rp(twin=True)
        calls = record_evaluator_calls(monkeypatch)
        res = hm.fit_model(prog.spec, prog.frame, points=9)
        counts = adaptive_exact_counts(calls, res.trace)
        twin = hm.fit_model(twin_prog.spec, twin_prog.frame, points=9)
        assert res.converged and res.optimum_verified and twin.converged and twin.optimum_verified
        assert res.message == "converged"
        assert (res.profile["derivative_passes"], res.profile["likelihood_calls"]) == counts
        assert twin.profile["derivative_passes"] == 0
        assert abs(res.logl - twin.logl) <= 1e-9 * abs(twin.logl)
        for name in ("trt", "_cons", "rcs1", "sd(M1)"):
            assert abs(res.estimate(name) - twin.estimate(name)) <= 1e-3 * twin.se(name), name
            assert abs(res.se(name) - twin.se(name)) <= 1e-5 * twin.se(name), name


def _scope_frame(spec: str, truth: dict, **kwargs) -> dict:
    frame = hm.simulate(spec, truth, seed=3, **kwargs)
    return {n: frame.col(n) for n in frame.names}


class TestExactScope:
    """Which models take ``derivatives``: every latent level of dimension 1
    and every outcome a row part plus random intercepts under an
    exp-linear or Gaussian family. A model that silently fell back to
    finite differences would fail here."""

    def test_benchmark_and_intercept_models(self):
        weibull = _scope_frame(
            "(t trt M1[id], family(weibull, failure(d)))",
            {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
            levels={"id": 30},
            covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
            outcomes=[{"censoring": 5.0, "records": 2}],
        )
        weibull["rate"] = np.full(weibull["t"].size, 0.01)
        weibull["t0"] = np.where(np.arange(weibull["t"].size) % 2 == 0, 0.3 * weibull["t"], 0.0)
        counts = _nested_columns(3, [2, 2], np.random.default_rng(2))
        counts["b"] = (counts["k"] > 0).astype(float)
        nested = three_level_data(3, 2, 2, (0.8, 0.7, 0.6), seed=1)
        slopes = {**nested, "one": np.ones(nested["x"].size)}
        joint = _scope_frame(
            "(stime trt EV[logb]@a1, family(weibull, failure(died)))"
            " (logb fp(1)@slope fp(1)#M2[id] M1[id], family(gaussian) timevar(time))",
            {"stime:trt": -0.3, "a1": 0.4, "stime:_cons": -1.6, "stime:ln_gamma": 0.18, "slope": 0.3,
             "logb:_cons": 1.0, "logb:ln_sd": -1.2, "ln_sd(M1)": -0.22, "ln_sd(M2)": -1.2},
            levels={"id": 20},
            covariates={"trt": {"dist": "bernoulli"}},
            outcomes=[{"censoring": 5.0}, {"times": [0.0, 0.5, 1.0, 2.0]}],
        )
        longitudinal = _scope_frame(
            "(y x fp(1) M1[id], family(gaussian) timevar(time))",
            {"x": 0.4, "fp(1)": -0.3, "_cons": 1.0, "ln_sd": -0.7, "ln_sd(M1)": -0.5},
            levels={"id": 20},
            outcomes=[{"times": [0.0, 0.5, 1.0, 2.0, 3.0]}],
        )
        three = _scope_frame(
            "(y x fp(1) M1[c] M2[c>id], family(gaussian) timevar(time))",
            {"x": 0.4, "fp(1)": -0.3, "_cons": 1.0, "ln_sd": -0.7, "ln_sd(M1)": -0.5, "ln_sd(M2)": -0.7},
            levels={"c": 5, "id": 4},
            outcomes=[{"times": [0.0, 1.0, 2.0, 3.0]}],
        )
        cases = [
            # nested3_aghq, a three-level Poisson model and frailty_qmc
            (nested, "(y x M1[trial] M2[trial>pat], family(gaussian))", dict(points=5), True),
            (counts, "(k x M1[id] M2[id>sub] M3[id>sub>rep], family(poisson))", dict(points=3), True),
            (weibull, "(t trt M1[id], family(weibull, failure(d)))", dict(method="qmc", redistribution="t", t_df=5), True),
            # rp_replicates
            (weibull, "(t trt M1[id], family(rp, failure(d) scale(h) df(3)))", dict(points=5), True),
            # Gaussian outcomes whose time trend is part of the row part
            (longitudinal, "(y x fp(1) M1[id], family(gaussian) timevar(time))", dict(points=5), True),
            (longitudinal, "(y x M1[id], family(gaussian) timevar(time))", dict(points=5), True),
            (three, "(y x fp(1) M1[c] M2[c>id], family(gaussian) timevar(time))", dict(points=5), True),
            # a time-indexed survival outcome, evaluated on its hazard quadrature
            (weibull, "(t trt fp(1) M1[id], family(weibull, failure(d)))", dict(points=5), False),
            # rp with a time-dependent effect, with bhazard and with delayed
            # entry, a Bernoulli model, joint_ev and random slopes
            (weibull, "(t trt fp(1)#trt M1[id], family(rp, failure(d) scale(h) df(3)))", dict(points=5), False),
            (weibull, "(t trt M1[id], family(rp, failure(d) scale(h) df(3) bhazard(rate)))", dict(points=5), False),
            (weibull, "(t trt M1[id], family(rp, failure(d) scale(h) df(3) ltrunc(t0)))", dict(points=5), False),
            (counts, "(b x M1[id] M2[id>sub], family(bernoulli))", dict(points=3), False),
            (joint, "(stime trt EV[logb]@a1, family(weibull, failure(died)))"
             " (logb fp(1)@slope fp(1)#M2[id] M1[id], family(gaussian) timevar(time))", dict(points=5), False),
            (slopes, "(y x M1[trial] x#M2[trial], family(gaussian))", dict(points=5), False),
            (slopes, "(y x x#M1[trial] M2[trial>pat], family(gaussian))", dict(points=5), False),
        ]
        for cols, spec, options, exact in cases:
            prog = make(cols, spec)
            assert LikelihoodEvaluator(prog, default_plan(prog, **options)).exact == exact, spec


def _check_inner_against_per_cell(ev: LikelihoodEvaluator, theta: np.ndarray) -> None:
    """One pass at theta, whose innermost score and Hessian on scaled
    nodes must match the per-cell form's on the same inputs, cell by
    cell: within 1e-9 of each cell's largest entry, and finite wherever
    the per-cell form's are. Its log-likelihood must be ``logl``'s, bit
    for bit."""
    shared = ev._inner_derivatives

    def inner(theta, w, u, feats, terms):
        copies = {k: (f.copy(), scaled, coef) for k, (f, scaled, coef) in feats.items()}
        expect = ev._per_cell(theta, w, u, copies, terms, 0, w.shape[0])
        got = shared(theta, w, u, feats, terms)
        for g, x in zip(got, expect):
            g, x = g.reshape(g.shape[:2] + (-1,)), x.reshape(x.shape[:2] + (-1,))
            finite = np.isfinite(x).all(axis=-1)
            assert np.isfinite(g[finite]).all()
            largest = np.abs(x[finite]).max(axis=-1)
            gap = np.abs(g[finite] - x[finite]).max(axis=-1)
            assert np.all(gap <= 1e-9 * largest), (gap / largest).max()
        return got

    ev._inner_derivatives = inner
    try:
        value = ev.derivatives(theta)[0]
    finally:
        del ev._inner_derivatives
    assert value == ev.logl(theta)


class TestSharedNodeMoments:
    """On scaled innermost nodes (QMC or non-adaptive quadrature), which
    every cell shares, a pass takes its innermost posterior moments from
    one node table; cell by cell they match the per-cell form's, at every
    drawn vector, the far ones (scale 1000) included."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_random_intercept_models(), data=st.data())
    def test_random_intercepts(self, model, data):
        ev, start = model
        scales = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 1000.0]), min_size=4, max_size=4))
        offsets = data.draw(hnp.arrays(float, (4, start.size), elements=st.floats(-1.0, 1.0)))
        for theta in start + np.asarray(scales)[:, None] * offsets:
            _check_inner_against_per_cell(ev, theta)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(model=_nested_intercept_models(), data=st.data())
    def test_nested_intercepts(self, model, data):
        ev, _, start = model
        assume(not ev.level_states[-1].adaptive)
        scales = [data.draw(st.sampled_from([0.0, 0.1, 0.5]))]
        scales += data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1000.0]), min_size=3, max_size=3))
        offsets = data.draw(hnp.arrays(float, (4, start.size), elements=st.floats(-1.0, 1.0)))
        adapt_at, *vectors = start + np.asarray(scales)[:, None] * offsets
        ev.refresh(adapt_at)
        for theta in vectors:
            _check_inner_against_per_cell(ev, theta)

    @pytest.mark.parametrize("case", ["weibull_t_qmc", "gaussian_nested_qmc", "joint_weibull_poisson_t_qmc", "poisson_nested_aghq_qmc"])
    def test_shared_moments_serve_every_unit_near_the_start(self, case):
        # the per-cell form is the fallback for units whose raw moments
        # could lose digits; near the start values there are none
        prog, _, (plan, _), start = _per_cluster_pair(case)
        ev = LikelihoodEvaluator(prog, plan)
        ev.refresh(start)
        shared, redone = ev._shared_derivatives, []

        def record(*args):
            out = shared(*args)
            redone.append(int(out[2].sum()))
            return out

        ev._shared_derivatives = record
        ev.derivatives(start + 0.1)
        assert redone and sum(redone) == 0
