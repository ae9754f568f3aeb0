import math

import numpy as np
import pytest

import hiermix as hm
from hiermix.data import as_frame
from hiermix.dsl import SpecValidationError, parse_model_spec
from hiermix.estimator import MixedModel, fit_model


def cluster_data(seed=0, g=25, n=4):
    rng = np.random.default_rng(seed)
    b = rng.normal(0, 0.7, g)
    cid = np.repeat(np.arange(g) + 1.0, n)
    x = rng.normal(size=g * n)
    y = 1.2 + 0.6 * x + b[cid.astype(int) - 1] + rng.normal(0, 0.5, g * n)
    return {"id": cid, "x": x, "y": y}


class TestEstimatorApi:
    def test_get_params_round_trip(self):
        m = MixedModel("(y x M1[id], family(gaussian))", points=9, skip=7)
        params = m.get_params()
        assert params["points"] == 9 and params["skip"] == 7
        m2 = MixedModel(**params)
        assert m2.get_params() == params

    def test_set_params_chains_and_validates(self):
        m = MixedModel("(y x, family(gaussian))")
        assert m.set_params(points=11).points == 11
        with pytest.raises(ValueError, match="unknown parameter"):
            m.set_params(bogus=1)

    def test_fit_sets_trailing_underscore_state(self):
        m = MixedModel("(y x M1[id], family(gaussian))", points=9)
        out = m.fit(cluster_data())
        assert out is m
        assert m.converged_
        assert set(m.params_) >= {"x", "_cons", "sd(M1)", "sd(resid)"}
        assert m.loglik_ == m.result_.logl
        assert len(m.theta_) == len(m.names_)

    def test_fit_builds_hierarchy_and_rows_once(self, monkeypatch):
        import hiermix.dsl
        import hiermix.predictor

        calls = []
        for name in ("build_hierarchy", "split_outcome_rows"):

            def counting(*args, _name=name, _original=getattr(hiermix.dsl, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in (hiermix.dsl, hiermix.predictor):
                monkeypatch.setattr(module, name, counting)
        fit_model("(y x M1[id], family(gaussian))", cluster_data(), points=3)
        assert sorted(calls) == ["build_hierarchy", "split_outcome_rows"]

    def test_zero_draws_is_an_error(self):
        # 0 is a value, not "not given": it must not fall back to 150 draws
        with pytest.raises(ValueError, match="at least one draw"):
            fit_model("(y x M1[id], family(gaussian))", cluster_data(), method="qmc", draws=0)

    def test_one_qmc_draw_is_an_error(self):
        # one draw gives every unit the same latent value, which the
        # constant absorbs: on these 10 clusters x 4 rows such fits ended
        # "verified" with standard errors up to 1e6. Two draws fit
        rng = np.random.default_rng(1)
        ids = np.repeat(np.arange(10) + 1.0, 4)
        x = rng.normal(size=40)
        y = 1 + 0.5 * x + np.repeat(rng.normal(size=10), 4) + rng.normal(size=40)
        t = rng.exponential(size=40) + 0.01
        data = {"id": ids, "x": x, "y": y, "t": t, "d": (rng.random(40) < 0.7).astype(float)}
        for spec in ("(t x M1[id], family(weibull, failure(d)))", "(y x M1[id], family(gaussian))"):
            with pytest.raises(ValueError, match="quasi-Monte Carlo needs at least 2 draws"):
                fit_model(spec, data, method="qmc", draws=1)
            assert fit_model(spec, data, method="qmc", draws=2).converged

    @pytest.mark.parametrize(
        "options,message",
        [
            (dict(points=5, draws=0), "at least one draw"),
            (dict(points=5, draws=-3), "at least one draw"),
            (dict(points={"trial": 5, "pat": 5, "typo": 9}), "names levels without latent effects"),
            (dict(draws={"trial": 50, "typo": 50}, method="qmc"), "names levels without latent effects"),
        ],
        ids=["zero_draws_aghq", "negative_draws_aghq", "points_for_unknown_level", "draws_for_unknown_level"],
    )
    def test_ignored_setting_is_an_error(self, options, message):
        # on the nested3_aghq model every level is AGHQ, which reads no
        # draw count; a setting it would ignore is refused instead
        data = {"trial": np.repeat([1.0, 2.0], 6), "pat": np.repeat(np.arange(6) + 1.0, 2), "x": np.arange(12.0)}
        data["y"] = 0.5 * data["x"] + np.sin(data["x"]) + np.repeat([0.3, -0.3], 6)
        with pytest.raises(ValueError, match=message):
            fit_model("(y x M1[trial] M2[trial>pat], family(gaussian))", data, **options)

    def test_one_point_adaptive_quadrature_is_an_error(self):
        # a single adaptive node cannot measure the posterior's spread: on
        # 80 Bernoulli clusters of 8 such a fit ended "no ascent step
        # found" with sd(M1) near 0; two keep whatever scale they start
        # from. A non-adaptive single point is allowed
        for points in (1, 2):
            with pytest.raises(ValueError, match="adaptive quadrature needs at least 3 points"):
                fit_model("(y x M1[id], family(gaussian))", cluster_data(), points=points)
        fit = fit_model("(y x M1[id], family(gaussian))", cluster_data(), points=1, adaptive=False)
        assert fit.settings["id"] == "aghq points 1 (non-adaptive) kernel normal"

    def test_positive_draws_on_a_mixed_plan(self):
        # the QMC level reads the draw count; the AGHQ level ignores it
        data = {"trial": np.repeat([1.0, 2.0], 6), "pat": np.repeat(np.arange(6) + 1.0, 2), "x": np.arange(12.0)}
        data["y"] = 0.5 * data["x"] + np.sin(data["x"]) + np.repeat([0.3, -0.3], 6)
        spec = "(y x M1[trial] M2[trial>pat], family(gaussian))"
        fit = fit_model(spec, data, method={"trial": "qmc", "pat": "aghq"}, draws=40, points=5)
        assert fit.profile["levels"]["trial"]["nodes"] == 40 and fit.profile["levels"]["pat"]["nodes"] == 5

    def test_unfitted_access_raises(self):
        m = MixedModel("(y x, family(gaussian))")
        with pytest.raises(RuntimeError, match="not fitted"):
            m.summary()

    def test_fit_accepts_csv_path(self, tmp_path):
        data = cluster_data()
        path = tmp_path / "d.csv"
        lines = ["id,x,y"] + [f"{a:g},{b:.8g},{c:.8g}" for a, b, c in zip(data["id"], data["x"], data["y"])]
        path.write_text("\n".join(lines) + "\n")
        m = MixedModel("(y x M1[id], family(gaussian))", points=9).fit(str(path))
        assert m.converged_

    def test_validation_errors_surface(self):
        with pytest.raises(SpecValidationError, match="missing_col"):
            fit_model("(y missing_col, family(gaussian))", {"y": np.ones(4)})

    def test_fixed_parameters_stay_fixed(self):
        res = fit_model("(y x M1[id], family(gaussian))", cluster_data(), fixed={"x": 0.0}, points=9)
        assert res.estimate("x") == 0.0

    def test_pinned_parameter_matches_reduced_model(self):
        # a slot pinned at 0 is a known constant: the fit, its standard
        # errors and its gradient norm are those of the model without it
        data = cluster_data(g=40, n=5)
        pinned = fit_model("(y x M1[id], family(gaussian))", data, fixed={"x": 0.0})
        reduced = fit_model("(y M1[id], family(gaussian))", data)
        np.testing.assert_allclose(pinned.logl, reduced.logl, rtol=1e-6)
        assert pinned.se("x") is None and pinned.grad_norm < 1e-5
        for row in reduced.table:
            np.testing.assert_allclose(pinned.estimate(row["name"]), row["estimate"], rtol=1e-6)
            np.testing.assert_allclose(pinned.se(row["name"]), row["se"], rtol=1e-6)
        i = pinned.names.index("x")
        assert not pinned.cov[i].any() and not pinned.cov[:, i].any()

    def test_pinned_association_gives_submodel_ses(self):
        # the joint model of acceptance criterion 6 with its association
        # pinned at 0 factors into its two submodels, standard errors too
        joint = (
            "(stime trt EV[logb]@alpha, family(exponential, failure(died)))"
            " (logb fp(1)@slope M1[id], family(gaussian) timevar(time))"
        )
        truth = {
            "stime:trt": 0.2,
            "alpha": 0.4,
            "stime:_cons": -1.4,
            "slope": 0.5,
            "logb:_cons": 0.8,
            "logb:ln_sd": math.log(0.3),
            "ln_sd(M1)": math.log(0.7),
        }
        frame = hm.simulate(
            joint,
            truth,
            levels={"id": 200},
            covariates={"trt": {"dist": "bernoulli"}},
            outcomes=[{"censoring": 5.0}, {"times": [0.0, 0.5, 1.0, 2.0, 3.0]}],
            seed=606,
        )
        data = {n: frame.col(n) for n in frame.names}
        fit_joint = fit_model(joint, data, points=9, fixed={"alpha": 0.0})
        fit_surv = fit_model("(stime trt, family(exponential, failure(died)))", data)
        fit_long = fit_model("(logb fp(1)@slope M1[id], family(gaussian) timevar(time))", data, points=9)
        assert fit_joint.se("alpha") is None
        pairs = [("stime:trt", fit_surv, "trt"), ("stime:_cons", fit_surv, "_cons")]
        pairs += [(name, fit_long, name) for name in ("slope", "sd(M1)")]
        pairs += [("logb:_cons", fit_long, "_cons"), ("logb:sd(resid)", fit_long, "sd(resid)")]
        for joint_name, sub, name in pairs:
            np.testing.assert_allclose(fit_joint.se(joint_name), sub.se(name), rtol=1e-5)

    def test_init_overrides(self):
        data = cluster_data()
        res = fit_model("(y x M1[id], family(gaussian))", data, init={"x": 0.55}, points=9)
        assert res.converged

    def test_covariance_override_changes_layout(self):
        rng = np.random.default_rng(3)
        g = 20
        cid = np.repeat(np.arange(g) + 1.0, 4)
        t = np.tile([0.0, 1.0, 2.0, 3.0], g)
        b0 = np.repeat(rng.normal(0, 0.6, g), 4)
        b1 = np.repeat(rng.normal(0, 0.3, g), 4)
        y = 1.0 + (0.3 + b1) * t + b0 + rng.normal(0, 0.4, 4 * g)
        data = {"id": cid, "t": t, "y": y}
        spec = "(y fp(1)@sl fp(1)#M2[id] M1[id], family(gaussian) timevar(t))"
        r_ind = fit_model(spec, data, points=5)
        r_un = fit_model(spec, data, points=5, covariance="unstructured")
        # latents order by first appearance: M2 (slope) then M1 (intercept)
        assert "chol(M1,M2)" in r_un.names
        assert "chol(M1,M2)" not in r_ind.names
        assert any(row["name"] == "corr(M1,M2)" for row in r_un.table)


class TestRandomEffectRecovery:
    def test_three_level_fit(self):
        rng = np.random.default_rng(44)
        trials, pats, reps = 5, 4, 2
        rows = []
        for tr in range(trials):
            u = rng.normal(0, 0.5)
            for p in range(pats):
                v = rng.normal(0, 0.7)
                for _ in range(reps):
                    rows.append((tr + 1, tr * pats + p + 1, 1.0 + u + v + rng.normal(0, 0.5)))
        arr = np.array(rows)
        data = {"trial": arr[:, 0], "pat": arr[:, 1], "y": arr[:, 2]}
        res = fit_model("(y M1[trial] M2[trial>pat], family(gaussian))", data, points=5)
        assert res.converged
        assert set(res.names) == {"_cons", "ln_sd", "ln_sd(M1)", "ln_sd(M2)"}

    def test_t_frailty_via_spec_options(self):
        import math

        from hiermix.simulate import simulate

        spec = "(y M1[id], family(weibull, failure(d))), redistribution(t) df(3)"
        frame = simulate(
            spec,
            {"_cons": -0.5, "ln_gamma": 0.2, "ln_sd(M1)": math.log(0.5)},
            levels={"id": 80},
            outcomes=[{"censoring": 6.0, "records": 4}],
            seed=50,
        )
        res = fit_model(spec, {n: frame.col(n) for n in frame.names})
        assert res.converged
        assert res.settings["id"] == "qmc draws 150 kernel t(3)"
        assert abs(res.estimate("sd(M1)") - 0.5) < 0.25

    def test_two_level_recovery(self):
        data = cluster_data(seed=42, g=80, n=6)
        res = fit_model("(y x M1[id], family(gaussian))", data, points=9)
        assert res.converged
        assert abs(res.estimate("x") - 0.6) < 0.1
        assert abs(res.estimate("sd(M1)") - 0.7) < 0.2
        assert abs(res.estimate("sd(resid)") - 0.5) < 0.1

    def test_poisson_random_intercept(self):
        rng = np.random.default_rng(11)
        g = 60
        b = rng.normal(0, 0.5, g)
        cid = np.repeat(np.arange(g) + 1.0, 5)
        x = rng.normal(size=5 * g)
        y = rng.poisson(np.exp(0.4 + 0.3 * x + b[cid.astype(int) - 1])).astype(float)
        res = fit_model("(y x M1[id], family(poisson))", {"id": cid, "x": x, "y": y}, points=9)
        assert res.converged
        assert abs(res.estimate("x") - 0.3) < 0.08
        assert abs(res.estimate("sd(M1)") - 0.5) < 0.15

    def test_bernoulli_random_intercept(self):
        rng = np.random.default_rng(12)
        g = 80
        b = rng.normal(0, 0.9, g)
        cid = np.repeat(np.arange(g) + 1.0, 8)
        x = rng.normal(size=8 * g)
        p = 1 / (1 + np.exp(-(0.2 + 0.7 * x + b[cid.astype(int) - 1])))
        y = (rng.random(8 * g) < p).astype(float)
        res = fit_model("(y x M1[id], family(bernoulli))", {"id": cid, "x": x, "y": y}, points=11)
        assert res.converged
        assert abs(res.estimate("x") - 0.7) < 0.15

    def test_relative_survival_recovers_excess_hazard(self):
        # death from disease (constant excess rate) or from the reference
        # population (known per-row rate); the excess-hazard model must
        # recover the disease rate from all-cause events
        rng = np.random.default_rng(14)
        n = 4000
        lam_excess = 0.25
        h_ref = rng.uniform(0.05, 0.4, n)
        t_exc = rng.exponential(1 / lam_excess, n)
        t_ref = rng.exponential(1 / h_ref, n)
        t = np.minimum(t_exc, t_ref)
        y = np.minimum(t, 5.0)
        d = (t < 5.0).astype(float)
        data = {"id": np.arange(n) + 1.0, "y": y, "d": d, "bh": h_ref}
        res = fit_model("(y, family(exponential, failure(d) bhazard(bh)))", data)
        assert res.converged
        assert abs(math.exp(res.estimate("_cons")) - lam_excess) < 0.03

    def test_left_truncation_recovery(self):
        # delayed entry: conditional on survival to t0, H(T) - H(t0) is a
        # unit exponential, so T = (t0^gamma + E/lam)^(1/gamma)
        rng = np.random.default_rng(15)
        n = 3000
        lam, gam = 0.3, 2.0
        t0 = rng.uniform(0.1, 1.5, n)
        e = rng.exponential(size=n)
        t = (t0**gam + e / lam) ** (1 / gam)
        y = np.minimum(t, t0 + 4.0)
        d = (t < t0 + 4.0).astype(float)
        data = {"id": np.arange(n) + 1.0, "y": y, "d": d, "t0": t0}
        res = fit_model("(y, family(weibull, failure(d) ltrunc(t0)))", data)
        assert res.converged
        assert abs(math.exp(res.estimate("_cons")) - lam) < 0.03
        assert abs(res.estimate("gamma") - gam) < 0.1
        # ignoring the delayed entry must visibly bias the fit
        res_naive = fit_model("(y, family(weibull, failure(d)))", data)
        assert abs(res_naive.estimate("gamma") - gam) > 0.2

    def test_multivariate_joint_model_smoke(self):
        # two biomarkers with random intercepts, both linked plus their
        # interaction into a survival model: the flagship specification
        # compiles and Newton steps improve the objective
        rng = np.random.default_rng(16)
        n_subj = 60
        b1 = rng.normal(0, 0.6, n_subj)
        b2 = rng.normal(0, 0.4, n_subj)
        rows = []
        for i in range(n_subj):
            t_ev = min(rng.exponential(3.0), 3.0)
            died = 1.0 if t_ev < 3.0 else 0.0
            for j, tm in enumerate([0.0, 0.5, 1.2, 2.0]):
                logb = 0.5 + 0.3 * tm + b1[i] + rng.normal(0, 0.3)
                logp = 2.4 + 0.1 * tm + b2[i] + rng.normal(0, 0.2)
                rows.append((i + 1.0, tm, logb, logp, t_ev if j == 0 else np.nan, died if j == 0 else np.nan))
        arr = np.array(rows)
        data = {
            "id": arr[:, 0],
            "time": arr[:, 1],
            "logb": arr[:, 2],
            "logp": arr[:, 3],
            "stime": arr[:, 4],
            "died": arr[:, 5],
        }
        spec = (
            "(stime EV[logb]@a1 EV[logp]@a2 EV[logb]#EV[logp]@a3, family(weibull, failure(died)))"
            " (logb fp(1)@l1 M1[id], family(gaussian) timevar(time))"
            " (logp fp(1)@l2 M2[id], family(gaussian) timevar(time))"
        )
        from hiermix.likelihood import LikelihoodEvaluator, default_plan
        from hiermix.optim import initial_values
        from hiermix.predictor import compile_program

        prog = compile_program(parse_model_spec(spec), as_frame(data))
        ev = LikelihoodEvaluator(prog, default_plan(prog, points=5))
        theta0 = initial_values(prog)
        ev.refresh(theta0)
        l0 = ev.logl(theta0)
        assert np.isfinite(l0)
        res = fit_model(spec, data, points=5, max_iter=3)
        assert res.logl > l0

    def test_derivative_and_integral_links_fit(self):
        rng = np.random.default_rng(60)
        n_subj = 60
        b0 = rng.normal(0, 0.5, n_subj)
        rows = []
        for i in range(n_subj):
            t_ev = min(rng.exponential(2.0), 3.0)
            died = 1.0 * (t_ev < 3.0)
            for j, tm in enumerate([0.0, 0.8, 1.6]):
                rows.append(
                    (i + 1.0, tm, 0.4 + 0.5 * tm + b0[i] + rng.normal(0, 0.25), t_ev if j == 0 else np.nan, died if j == 0 else np.nan)
                )
        arr = np.array(rows)
        data = {"id": arr[:, 0], "time": arr[:, 1], "logb": arr[:, 2], "stime": arr[:, 3], "died": arr[:, 4]}
        for kind in ("dEV", "iEV"):
            spec = (
                f"(stime {kind}[logb]@a, family(weibull, failure(died)))"
                " (logb fp(1)@l M1[id], family(gaussian) timevar(time))"
            )
            res = fit_model(spec, data, points=5, max_iter=4)
            assert np.isfinite(res.logl)

    def test_competing_risks_fit(self):
        rng = np.random.default_rng(61)
        n = 150
        b = rng.normal(0, 0.5, n)
        t1 = rng.exponential(size=n) / (0.3 * np.exp(b))
        t2 = rng.exponential(size=n) / (0.2 * np.exp(0.5 * b))
        t = np.minimum(np.minimum(t1, t2), 4.0)
        d1 = ((t1 < t2) & (t1 < 4.0)).astype(float)
        d2 = ((t2 <= t1) & (t2 < 4.0)).astype(float)
        data = {"id": np.arange(n) + 1.0, "stime": t, "d1": d1, "d2": d2}
        spec = (
            "(stime M1[id], family(exponential, failure(d1)))"
            " (stime M1[id]@a2, family(exponential, failure(d2)))"
        )
        res = fit_model(spec, data, points=9)
        assert res.converged
        # duplicate response names are disambiguated in the layout
        assert "stime#1:_cons" in res.names and "stime#2:_cons" in res.names

    def test_null_outcome_extra_linear_predictor(self):
        # a null outcome defines an extra predictor; a user family pins its
        # scale against one response and a survival model links EV of it
        from hiermix.families import register_user_family

        rng = np.random.default_rng(63)
        n = 150
        x = rng.normal(size=n)
        b = rng.normal(0, 0.5, n)
        eta2 = 0.8 * x + 0.3 + b
        resp = eta2 + rng.normal(0, 0.3, n)
        t = rng.exponential(size=n) / np.exp(-1.0 + 0.6 * eta2)
        y = np.minimum(t, 6.0)
        d = (t < 6.0).astype(float)
        data = {"id": np.arange(n) + 1.0, "x": x, "resp": resp, "stime": y, "died": d}

        def mean_hook(ctx):
            yv = ctx.response()
            mu = ctx.linpred_of(2)
            sd = np.exp(ctx.ancillary(1))
            return -0.5 * np.log(2 * np.pi) - np.log(sd) - 0.5 * ((yv - mu) / sd) ** 2

        register_user_family(loglf=mean_hook, n_anc=1)
        spec = (
            "(resp, family(user, loglf(mean_hook)) np(1) noconstant)"
            " (x M2[id], family(null))"
            " (stime EV[2]@alpha, family(exponential, failure(died)))"
        )
        res = fit_model(spec, data, points=9)
        assert res.converged
        assert abs(res.estimate("alpha") - 0.6) < 0.25
        assert abs(res.estimate("null:x") - 0.8) < 0.25

    def test_spline_baseline_frailty_recovery(self):
        # the recurrent-infection model shape: spline baseline on the log
        # cumulative hazard, two records per subject, shared frailty
        import math

        from hiermix.simulate import simulate

        spec = "(time age female M1[patient], family(rp, failure(infect) scale(h) knots(-1.5 0.5 2.5)))"
        truth = {
            "age": 0.007,
            "female": -1.3,
            "rcs1": 1.1,
            "rcs2": 0.08,
            "_cons": -1.2,
            "ln_sd(M1)": math.log(0.6),
        }
        frame = simulate(
            spec,
            truth,
            levels={"patient": 250},
            covariates={"age": {"dist": "normal", "mean": 44, "sd": 12}, "female": {"dist": "bernoulli"}},
            outcomes=[{"censoring": 8.0, "records": 2}],
            seed=17,
        )
        res = fit_model(spec, {n: frame.col(n) for n in frame.names}, points=9)
        assert res.converged
        assert abs(res.estimate("age") - 0.007) < 0.01
        assert abs(res.estimate("female") - (-1.3)) < 0.4
        assert abs(res.estimate("sd(M1)") - 0.6) < 0.25
        assert res.knots["time:baseline"] == [-1.5, 0.5, 2.5]
