import math

import numpy as np
import pytest
from scipy import stats

import hiermix as hm
from hiermix.simulate import SimulationError, simulate


class TestGaussianSimulation:
    def test_between_within_variance_ratio(self):
        # sd_b = sd_e = 1: the cluster-mean decomposition recovers both
        frame = simulate(
            "(y M1[id], family(gaussian))",
            {"_cons": 0.0, "ln_sd": 0.0, "ln_sd(M1)": 0.0},
            levels={"id": 200},
            outcomes=[{"times": [0, 1, 2, 3, 4]}],
            seed=42,
        )
        y = frame.col("y")
        ids = frame.col("id")
        means = np.array([y[ids == g].mean() for g in np.unique(ids)])
        within = np.array([y[ids == g].var(ddof=1) for g in np.unique(ids)]).mean()
        between = means.var(ddof=1) - within / 5  # correct the mean noise
        assert abs(between / within - 1.0) < 0.15

    def test_zero_variance_clusters_look_iid(self):
        frame = simulate(
            "(y M1[id], family(gaussian))",
            {"_cons": 0.0, "ln_sd": 0.0, "ln_sd(M1)": -12.0},
            levels={"id": 150},
            outcomes=[{"times": [0, 1, 2, 3]}],
            seed=7,
        )
        y = frame.col("y")
        ids = frame.col("id")
        groups = [y[ids == g] for g in np.unique(ids)]
        _, p = stats.f_oneway(*groups)
        assert p > 0.01

    def test_covariate_effect_propagates(self):
        frame = simulate(
            "(y x M1[id], family(gaussian))",
            {"x": 2.0, "_cons": 1.0, "ln_sd": math.log(0.1), "ln_sd(M1)": -12.0},
            levels={"id": 300},
            covariates={"x": {"dist": "normal"}},
            outcomes=[{"times": [0.0]}],
            seed=1,
        )
        slope = np.polyfit(frame.col("x"), frame.col("y"), 1)[0]
        assert abs(slope - 2.0) < 0.05

    @pytest.mark.parametrize(
        "setting,message",
        [
            ({"levels": {"id": 5, "clinic": 3}}, r"levels names levels the specification does not have: \['clinic'\]"),
            ({"covariates": {"x": {}, "age": {"dist": "uniform"}}}, r"covariates names columns that no outcome reads: \['age'\]"),
            (
                {"covariates": {"x": {"dist": "normal", "sdd": 2}}},
                r"covariate 'x': unknown settings \['sdd'\]; it takes \['dist', 'level', 'mean', 'sd'\]",
            ),
            (
                {"covariates": {"x": {"dist": "bernoulli", "sd": 2}}},
                r"covariate 'x': unknown settings \['sd'\]; it takes \['dist', 'level', 'p'\]",
            ),
        ],
        ids=["unknown_level", "unread_covariate", "misspelt_parameter", "other_distribution_parameter"],
    )
    def test_ignored_setting_is_refused(self, setting, message):
        kwargs = {"levels": {"id": 5}, "outcomes": [{"times": [0.0]}], "seed": 1, **setting}
        with pytest.raises(SimulationError, match=message):
            simulate("(y x M1[id], family(gaussian))", {"x": 1.0}, **kwargs)

    @pytest.mark.parametrize(
        "setting,message",
        [
            (
                {"covariates": {"x": {"level": "clinic"}}},
                r"covariate 'x': level 'clinic' is none of \['id', 'row'\]",
            ),
            ({"covariates": {"x": 3}}, r"covariate 'x': give its settings as a dict, got 3"),
            ({"theta": {"xx": 1.0}}, r"no parameter named 'xx' \(have: x, _cons, ln_sd, ln_sd\(M1\)\)"),
        ],
        ids=["unknown_covariate_level", "settings_not_a_dict", "unknown_parameter"],
    )
    def test_bad_setting_is_refused(self, setting, message):
        kwargs = {"theta": {"x": 1.0}, "levels": {"id": 5}, "outcomes": [{"times": [0.0]}], **setting}
        with pytest.raises(SimulationError, match=message):
            simulate("(y x M1[id], family(gaussian))", **kwargs)


class TestDiscreteSimulation:
    @pytest.mark.parametrize("family, top", [("bernoulli", 1), ("binomial, k(5)", 5)], ids=["bernoulli", "binomial"])
    def test_counts_within_their_range(self, family, top):
        # the placeholder response the program is compiled with must be
        # one the family accepts
        frame = simulate(
            f"(y x M1[id], family({family}))",
            {"x": 0.8, "_cons": 0.2, "ln_sd(M1)": -0.5},
            levels={"id": 40},
            outcomes=[{"times": [0, 1, 2]}],
            seed=3,
        )
        y = frame.col("y")
        assert set(np.unique(y)) <= set(range(top + 1))
        assert y.min() == 0 and y.max() == top


class TestSurvivalSimulation:
    def test_weibull_transformed_exponential(self):
        # with H = lam * y^gamma, the transform y^gamma is exponential(lam)
        lam, gam = 0.2, 1.3
        frame = simulate(
            "(y M1[id], family(weibull, failure(d)))",
            {"_cons": math.log(lam), "ln_gamma": math.log(gam), "ln_sd(M1)": -12.0},
            levels={"id": 5000},
            outcomes=[{}],
            seed=3,
        )
        y = frame.col("y")
        d = frame.col("d")
        assert np.all(d == 1.0)
        assert abs(np.mean(y**gam) - 1 / lam) / (1 / lam) < 0.05

    def test_censoring_applied(self):
        frame = simulate(
            "(y M1[id], family(exponential, failure(d)))",
            {"_cons": 0.0, "ln_sd(M1)": -12.0},
            levels={"id": 4000},
            outcomes=[{"censoring": 1.0}],
            seed=4,
        )
        y, d = frame.col("y"), frame.col("d")
        assert y.max() <= 1.0 + 1e-12
        # P(censored) = S(1) = exp(-1)
        assert abs((d == 0).mean() - math.exp(-1)) < 0.02

    def test_frailty_induces_correlation(self):
        frame = simulate(
            "(y M1[id], family(exponential, failure(d)))",
            {"_cons": 0.0, "ln_sd(M1)": math.log(1.0)},
            levels={"id": 800},
            outcomes=[{"records": 2}],
            seed=5,
        )
        y = np.log(frame.col("y"))
        first, second = y[0::2], y[1::2]
        r = np.corrcoef(first, second)[0, 1]
        assert r > 0.25

    def test_time_dependent_hazard_inversion(self):
        # gompertz-style log hazard via fp(1): check against the closed form
        frame = simulate(
            "(y fp(1)@g M1[id], family(exponential, failure(d)) timevar(y))",
            {"g": 0.8, "_cons": math.log(0.3), "ln_sd(M1)": -12.0},
            levels={"id": 4000},
            outcomes=[{"censoring": 8.0}],
            seed=6,
        )
        y, d = frame.col("y"), frame.col("d")
        # survival at t: exp(-0.3/0.8 * (e^{0.8 t} - 1)); compare at t = 1
        s1_hat = (y > 1.0).mean()
        s1 = math.exp(-0.3 / 0.8 * (math.exp(0.8) - 1))
        assert abs(s1_hat - s1) < 0.02

    def test_cumhazard_hook_inverts_like_weibull(self):
        # H = exp(eta) t^1.3 is the weibull family's with gamma 1.3: the
        # same theta and seed draw the same numbers, and the bisection
        # on the hook's H lands on the weibull's closed-form times
        def sim_wb_cumhaz(ctx, t):
            return np.exp(ctx.linpred()) * t ** np.exp(ctx.ancillary(1))

        hm.register_user_family(cumhazard=sim_wb_cumhaz, n_anc=1)
        values = {"trt": 0.4, "_cons": -0.8, "ln_sd(M1)": -0.5}
        common = dict(
            levels={"id": 40},
            covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
            outcomes=[{"censoring": 5.0, "records": 2}],
            seed=7,
        )
        hook = simulate(
            "(t trt M1[id], family(user, chfunction(sim_wb_cumhaz) failure(d)))",
            {**values, "anc1": math.log(1.3)},
            **common,
        )
        wb = simulate("(t trt M1[id], family(weibull, failure(d)))", {**values, "ln_gamma": math.log(1.3)}, **common)
        assert (hook.col("d") == 1.0).any() and (hook.col("d") == 0.0).any()
        np.testing.assert_array_equal(hook.col("d"), wb.col("d"))
        np.testing.assert_allclose(hook.col("t"), wb.col("t"), rtol=0, atol=1e-8)

    def test_joint_layout_and_missing_pattern(self):
        frame = simulate(
            "(stime trt EV[logb]@a, family(weibull, failure(died)))"
            " (logb fp(1)@l M1[id], family(gaussian) timevar(time))",
            {
                "stime:trt": 0.1,
                "a": 0.4,
                "stime:_cons": -1.0,
                "stime:ln_gamma": 0.0,
                "l": 0.4,
                "logb:_cons": 0.5,
                "logb:ln_sd": math.log(0.3),
                "ln_sd(M1)": math.log(0.6),
            },
            levels={"id": 50},
            covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
            outcomes=[{"censoring": 5.0}, {"times": [0.0, 0.5, 1.0, 2.0]}],
            seed=8,
        )
        ids = frame.col("id")
        stime = frame.columns["stime"]
        # one survival row per subject, on its first row
        assert np.isfinite(stime).sum() == 50
        first_rows = np.flatnonzero(np.diff(np.concatenate(([0.0], ids))) != 0)
        assert np.all(np.isfinite(stime[first_rows]))
        # fitting the generated data recovers a sane association sign
        res = hm.fit_model(
            "(stime trt EV[logb]@a, family(weibull, failure(died)))"
            " (logb fp(1)@l M1[id], family(gaussian) timevar(time))",
            {name: frame.col(name) for name in frame.names},
            points=5,
        )
        assert res.converged

    def test_rp_needs_explicit_knots(self):
        with pytest.raises(SimulationError, match="knots"):
            simulate(
                "(y M1[id], family(rp, failure(d) scale(h) df(2)))",
                [1.0, 0.1, 0.0, -1.0],
                levels={"id": 10},
                outcomes=[{"censoring": 2.0}],
            )

    def test_theta_length_checked(self):
        with pytest.raises(SimulationError, match="length"):
            simulate(
                "(y M1[id], family(exponential, failure(d)))",
                [0.0],
                levels={"id": 5},
                outcomes=[{}],
            )

    def test_determinism(self):
        args = dict(
            levels={"id": 40},
            outcomes=[{"censoring": 2.0}],
            seed=123,
        )
        a = simulate("(y M1[id], family(exponential, failure(d)))", {"ln_sd(M1)": -1.0}, **args)
        b = simulate("(y M1[id], family(exponential, failure(d)))", {"ln_sd(M1)": -1.0}, **args)
        np.testing.assert_array_equal(a.col("y"), b.col("y"))


# per family: spec, truth, outcome configuration for four rows per cluster
RECOVERY = {
    "binomial": (
        "(y x M1[id], family(binomial, k(5)))",
        {"x": 0.5, "_cons": -0.3, "ln_sd(M1)": math.log(0.6)},
        {"times": [0, 1, 2, 3]},
    ),
    "beta": (
        "(y x M1[id], family(beta))",
        {"x": 0.5, "_cons": 0.2, "ln_scale": math.log(10.0), "ln_sd(M1)": math.log(0.5)},
        {"times": [0, 1, 2, 3]},
    ),
    "negbinomial": (
        "(y x M1[id], family(negbinomial))",
        {"x": 0.4, "_cons": 0.8, "ln_alpha": math.log(0.5), "ln_sd(M1)": math.log(0.5)},
        {"times": [0, 1, 2, 3]},
    ),
    "lognormal": (
        "(t x M1[id], family(lognormal, failure(d)))",
        {"x": 0.5, "_cons": 0.5, "ln_sd": math.log(0.8), "ln_sd(M1)": math.log(0.5)},
        {"censoring": 10.0, "records": 4},
    ),
    "loglogistic": (
        "(t x M1[id], family(loglogistic, failure(d)))",
        {"x": 0.5, "_cons": -0.5, "ln_gamma": math.log(0.6), "ln_sd(M1)": math.log(0.5)},
        {"censoring": 10.0, "records": 4},
    ),
}


class TestFamilyRecovery:
    @pytest.mark.parametrize("family", list(RECOVERY))
    def test_fit_recovers_simulated_truth(self, family):
        # random intercept, 60 clusters x 4 rows: the simulation, the
        # start values and the fit of each family agree with each other
        spec, truth, outcome = RECOVERY[family]
        frame = simulate(spec, truth, levels={"id": 60}, outcomes=[outcome], seed=4)
        assert frame.col("id").size == 240
        fit = hm.fit_model(spec, frame)
        assert fit.converged and fit.optimum_verified
        se = np.sqrt(np.diag(fit.cov))
        for name, value in truth.items():
            i = fit.names.index(name)
            assert abs(fit.theta[i] - value) < 4.0 * se[i], (name, fit.theta[i], se[i])
