import math

import numpy as np
import pytest
from scipy import stats

from hiermix.basis import RcsBasis, default_knots
from hiermix.data import as_frame
from hiermix.dsl import FamilySpec, parse_model_spec
from hiermix.families import (
    FAMILIES,
    RpColumns,
    _gompertz_scaled_expm1,
    _gompertz_scaled_expm1_derivs,
    logl_bernoulli,
    logl_beta,
    logl_binomial,
    logl_gaussian,
    logl_negbin,
    make_family,
    register_user_family,
    rp_logl,
)
from hiermix.predictor import compile_program
from oracles import family_logl, hazard_quadrature_logl, surv_logl

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


BUILTIN = [name for name in FAMILIES if name != "user"]
SURVIVAL = ("exponential", "weibull", "gompertz", "lognormal", "loglogistic", "rp")


def builtin_spec(name: str, terms: str = "x") -> str:
    """An outcome of family ``name`` with the options the parser needs."""
    options = {"binomial": "k(3)", "rp": "df(2)"}.get(name, "") + (" failure(d)" if name in SURVIVAL else "")
    return f"(y {terms}, family({name}, {options}))"


class TestFamilyTable:
    @pytest.mark.parametrize("name", BUILTIN)
    def test_parsed_family_builds_the_same_survival_kind(self, name):
        fam_spec = parse_model_spec(builtin_spec(name)).outcomes[0].family
        assert fam_spec.is_survival is make_family(fam_spec).is_survival is (name in SURVIVAL)

    def test_per_cluster_families(self):
        # the families whose random-intercept outcomes are summed per cluster
        rows = np.arange(12.0)
        cols = {"id": rows // 3, "x": np.cos(rows), "d": np.ones(12)}
        summed = set()
        for name in BUILTIN:
            y = rows + 1.0 if name in SURVIVAL else rows % 2
            program = compile_program(parse_model_spec(builtin_spec(name, "x M1[id]")), as_frame({**cols, "y": y}))
            if program.outcomes[0].intercepts is not None:
                summed.add(name)
        assert summed == {"exponential", "weibull", "gompertz", "poisson", "rp", "gaussian"}


class TestDensities:
    def test_gaussian_values(self):
        np.testing.assert_allclose(logl_gaussian(0.0, 0.0, 1.0), -HALF_LOG_2PI)
        np.testing.assert_allclose(logl_gaussian(1.0, 0.0, 1.0), -HALF_LOG_2PI - 0.5)
        np.testing.assert_allclose(logl_gaussian(0.0, 0.0, 2.0), -0.5 * math.log(8 * math.pi))

    def test_gaussian_matches_scipy(self):
        rng = np.random.default_rng(0)
        y, mu, s = rng.normal(size=20), rng.normal(size=20), rng.uniform(0.5, 2, 20)
        np.testing.assert_allclose(logl_gaussian(y, mu, s), stats.norm.logpdf(y, mu, s), rtol=1e-12)

    def test_gaussian_decreases_away_from_mean(self):
        devs = np.linspace(0, 5, 40)
        vals = logl_gaussian(devs, 0.0, 1.3)
        assert np.all(np.diff(vals) < 0)

    def test_gaussian_degenerate_sigma_is_minus_inf(self):
        # a parameter-domain violation poisons the value (the optimizer
        # rejects the step); it must not raise mid-probe
        assert logl_gaussian(0.0, 0.0, 0.0) == -np.inf

    def test_poisson_values(self):
        # the fit's Poisson density, at the linear predictor log(mean)
        logl = make_family(FamilySpec("poisson")).logl
        np.testing.assert_allclose(logl(0, math.log(1.0), []), -1.0)
        np.testing.assert_allclose(logl(1, math.log(1.0), []), -1.0)
        np.testing.assert_allclose(logl(3, math.log(2.0), []), -2.0 + 3 * math.log(2) - math.log(6), rtol=1e-12)

    def test_poisson_rejects_non_integer(self):
        with pytest.raises(ValueError):
            make_family(FamilySpec("poisson")).validate_response(1.5, "y")

    def test_bernoulli(self):
        np.testing.assert_allclose(logl_bernoulli(1, 0.5), math.log(0.5))
        np.testing.assert_allclose(logl_bernoulli(0, 0.25), math.log(0.75))

    def test_binomial(self):
        np.testing.assert_allclose(logl_binomial(2, 0.5, 2), 2 * math.log(0.5))
        rng = np.random.default_rng(1)
        y = rng.integers(0, 8, 30)
        mu = rng.uniform(0.1, 0.9, 30)
        np.testing.assert_allclose(logl_binomial(y, mu, 7), stats.binom.logpmf(y, 7, mu), rtol=1e-12)

    def test_beta_matches_scipy(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(0.05, 0.95, 30)
        mu = rng.uniform(0.2, 0.8, 30)
        s = rng.uniform(1, 8, 30)
        np.testing.assert_allclose(logl_beta(y, mu, s), stats.beta.logpdf(y, mu * s, s - mu * s), rtol=1e-10)

    def test_negbin_geometric_case(self):
        # alpha=1, mu=1: m=1, p=1/2 so P(0) = 1/2
        np.testing.assert_allclose(logl_negbin(0, 1.0, 1.0), math.log(0.5), rtol=1e-12)

    def test_negbin_matches_scipy(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 12, 40)
        mu = rng.uniform(0.5, 6, 40)
        alpha = rng.uniform(0.2, 2, 40)
        m = 1 / alpha
        p = 1 / (1 + alpha * mu)
        np.testing.assert_allclose(logl_negbin(y, mu, alpha), stats.nbinom.logpmf(y, m, p), rtol=1e-10)


class TestFamilyLogl:
    """``Family.logl``, the fit's per-row log-likelihood at the linear
    predictor, against ``scipy.stats`` at the mean its link gives."""

    @pytest.mark.parametrize(
        "name, anc, k",
        [
            ("gaussian", 1.3, None),
            ("poisson", None, None),
            ("bernoulli", None, None),
            ("binomial", None, 6),
            ("beta", 7.5, None),
            ("negbinomial", 0.6, None),
        ],
    )
    def test_rows_match_scipy(self, name, anc, k):
        rng = np.random.default_rng(12)
        fam = make_family(FamilySpec(name, k=k))
        eta = rng.normal(0.3, 0.8, (40, 1, 3))  # rows, times, nodes
        mu = fam.inverse_link(eta)
        draw = {
            "gaussian": lambda: rng.normal(mu, anc),
            "poisson": lambda: rng.poisson(mu),
            "bernoulli": lambda: rng.binomial(1, mu),
            "binomial": lambda: rng.binomial(k, mu),
            "beta": lambda: rng.beta(mu * anc, (1.0 - mu) * anc),
            "negbinomial": lambda: rng.negative_binomial(1.0 / anc, 1.0 / (1.0 + anc * mu)),
        }[name]
        y = draw()[:, :, :1]  # one response per row, against every node's eta
        natural = [] if anc is None else [anc]
        got = fam.logl(y, eta, natural)
        assert got.shape == eta.shape
        np.testing.assert_allclose(got, family_logl(name, y, mu, anc, k), rtol=1e-10)


class TestClosedFormSurvival:
    def test_weibull_reduces_to_exponential(self):
        # lambda=1, gamma=1, event at 1: log h - H = 0 - 1
        np.testing.assert_allclose(surv_logl(1.0, 1, "weibull", 0.0, 1.0), -1.0)

    def test_gompertz_zero_shape_is_exponential(self):
        np.testing.assert_allclose(surv_logl(2.0, 0, "gompertz", 0.0, 0.0), -2.0)
        # series branch (|gamma t| < 0.5) agrees with the exact branch
        # just outside it
        a = surv_logl(2.0, 1, "gompertz", 0.3, 0.25 - 1e-9)
        b = surv_logl(2.0, 1, "gompertz", 0.3, 0.25 + 1e-9)
        assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, 1e-7, -1e-7, 1e-5, -1e-5, 0.3])
    def test_gompertz_derivatives_match_central_differences(self, gamma):
        t = np.array([0.05, 0.5, 1.0, 3.0])
        d1, d2 = _gompertz_scaled_expm1_derivs(gamma, t)
        h = 1e-4
        c1 = (_gompertz_scaled_expm1(gamma + h, t) - _gompertz_scaled_expm1(gamma - h, t)) / (2 * h)
        c2 = (_gompertz_scaled_expm1_derivs(gamma + h, t)[0] - _gompertz_scaled_expm1_derivs(gamma - h, t)[0]) / (2 * h)
        np.testing.assert_allclose(d1, c1, rtol=1e-6)
        np.testing.assert_allclose(d2, c2, rtol=1e-6)
        if gamma == 0.0:
            np.testing.assert_array_equal(d1, t * t / 2)
            np.testing.assert_allclose(d2, t**3 / 3, rtol=1e-15)

    @pytest.mark.parametrize("gamma,t", [(1e-5, 2.0), (-1e-5, 2.0), (0.25, 2.0), (-0.25, 2.0)], ids=["value_switch", "value_switch_neg", "series_edge", "series_edge_neg"])
    def test_gompertz_derivatives_continuous(self, gamma, t):
        # the value and its derivatives at |gamma| = 1e-5, and across
        # |gamma t| = 0.5, where they leave their series
        g_lo, g_hi = np.nextafter(gamma, 0.0), np.nextafter(gamma, 2.0 * gamma)
        below = (_gompertz_scaled_expm1(g_lo, t), *_gompertz_scaled_expm1_derivs(g_lo, t))
        above = (_gompertz_scaled_expm1(g_hi, t), *_gompertz_scaled_expm1_derivs(g_hi, t))
        for lo, hi in zip(below, above):
            assert abs(hi - lo) <= 1e-12 * abs(lo)

    @pytest.mark.parametrize("t", [1e5, 1e8])
    @pytest.mark.parametrize("x", [0.0, 1e-9, -1e-9, 9e-6, 0.3, -0.3, 0.49, 0.51, 0.9, -0.9, 2.0])
    def test_gompertz_value_at_long_times(self, x, t):
        # gamma t = x: the value is exact whatever t, not only where gamma
        # is small (at gamma = 9e-6 and t = 1e5 a switch on gamma alone
        # took the series at x = 0.9 and was 2.3% low)
        gamma = x / t
        value = float(_gompertz_scaled_expm1(gamma, t))
        expect = math.expm1(x) / gamma if gamma else t
        assert abs(value - expect) <= 1e-14 * expect
        # the derivatives against central differences of the value and of
        # the first derivative
        h = 1e-4 / t
        d1, d2 = _gompertz_scaled_expm1_derivs(gamma, t)
        value_at = lambda g: _gompertz_scaled_expm1(g, t)
        d1_at = lambda g: _gompertz_scaled_expm1_derivs(g, t)[0]
        for f, derivative in ((value_at, d1), (d1_at, d2)):
            assert abs(derivative - (f(gamma + h) - f(gamma - h)) / (2 * h)) <= 1e-8 * derivative

    @pytest.mark.parametrize("name,phi", [("weibull", 0.3), ("weibull", -0.7), ("gompertz", 0.4), ("gompertz", -0.2), ("gompertz", 0.0)])
    def test_exp_linear_ancillary_derivatives(self, name, phi):
        # A and C differentiated in the ancillary on its estimation scale
        fam = make_family(FamilySpec(name=name, failure="d"))
        rng = np.random.default_rng(9)
        y = rng.uniform(0.2, 4.0, 40)
        event = (rng.random(40) < 0.6).astype(float)
        entry = np.where(rng.random(40) < 0.5, 0.3 * y, 0.0)

        def terms(p, derivatives=False):
            return fam.exp_linear(y, fam.natural_anc(np.array([p])), event, entry, derivatives)

        # one own parameter: (n, 1) first and (n, 1, 1) second derivatives
        _, _, _, d1a, d2a, d1c, d2c = terms(phi, derivatives=True)
        assert d1a.shape == d1c.shape == (40, 1) and d2a.shape == d2c.shape == (40, 1, 1)
        h = 1e-5
        (a_up, _, c_up), (a_dn, _, c_dn) = terms(phi + h), terms(phi - h)
        d_up, d_dn = terms(phi + h, True), terms(phi - h, True)
        np.testing.assert_allclose(d1a[:, 0], (a_up - a_dn) / (2 * h), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(d1c[:, 0], (c_up - c_dn) / (2 * h), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(d2a[:, 0, 0], (d_up[3] - d_dn[3])[:, 0] / (2 * h), rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(d2c[:, 0, 0], (d_up[5] - d_dn[5])[:, 0] / (2 * h), rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("df", [1, 2, 4])
    def test_exp_linear_spline_derivatives(self, df):
        # rp: A = [event] log(s'(log y) gamma / y) differentiated in the
        # spline coefficients gamma; B = [event] and C = 1 do not depend on them
        fam = make_family(FamilySpec(name="rp", failure="d", df=df))
        rng = np.random.default_rng(10 + df)
        y = rng.uniform(0.2, 4.0, 40)
        event = (rng.random(40) < 0.6).astype(float)
        cols = RpColumns(default_knots(np.log(y), df), y)
        gamma = np.concatenate(([1.1], 0.01 * rng.normal(size=df - 1)))

        def terms(g, derivatives=False):
            return fam.exp_linear(y, g, event, np.zeros(40), derivatives, cols)

        a, b, c, d1a, d2a, d1c, d2c = terms(gamma, derivatives=True)
        assert np.isfinite(a).all() and np.array_equal(b, event) and np.array_equal(c, np.ones(40))
        assert d1a.shape == (40, df) and d2a.shape == (40, df, df) and d1c is None and d2c is None
        h = 1e-6
        for j in range(df):
            up, dn = gamma.copy(), gamma.copy()
            up[j] += h
            dn[j] -= h
            np.testing.assert_allclose(d1a[:, j], (terms(up)[0] - terms(dn)[0]) / (2 * h), rtol=1e-7, atol=1e-8)
            np.testing.assert_allclose(d2a[:, j], (terms(up, True)[3] - terms(dn, True)[3]) / (2 * h), rtol=1e-6, atol=1e-7)
        # a hazard that is not positive at an event time reads -inf there
        a = terms(-gamma)[0]
        assert np.array_equal(np.isneginf(a), event == 1) and (a[event == 0] == 0).all()

    def test_exp_linear_without_ancillary(self):
        y = np.array([1.0, 2.0])
        for name in ("exponential", "poisson"):
            fam = make_family(FamilySpec(name=name, failure="d" if name == "exponential" else None))
            out = fam.exp_linear(y, [], np.ones(2), np.zeros(2), derivatives=True)
            assert len(out) == 7 and out[3:] == (None,) * 4

    def test_weibull_censored(self):
        np.testing.assert_allclose(surv_logl(2.0, 0, "weibull", math.log(0.5), 2.0), -2.0)

    def test_lognormal_matches_scipy(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.2, 5, 50)
        eta, sig = 0.3, 0.8
        events = surv_logl(y, 1, "lognormal", eta, sig)
        expected = stats.lognorm.logpdf(y, sig, scale=np.exp(eta))
        np.testing.assert_allclose(events, expected, rtol=1e-10)
        cens = surv_logl(y, 0, "lognormal", eta, sig)
        np.testing.assert_allclose(cens, stats.lognorm.logsf(y, sig, scale=np.exp(eta)), rtol=1e-10)

    def test_loglogistic_matches_scipy(self):
        # S(y) = 1/(1 + (lam*y)^(1/gamma)) is Fisk with c = 1/gamma
        rng = np.random.default_rng(5)
        y = rng.uniform(0.2, 5, 50)
        eta, gam = -0.4, 0.7
        c = 1 / gam
        scale = 1 / np.exp(eta)
        np.testing.assert_allclose(
            surv_logl(y, 1, "loglogistic", eta, gam), stats.fisk.logpdf(y, c, scale=scale), rtol=1e-9
        )
        np.testing.assert_allclose(
            surv_logl(y, 0, "loglogistic", eta, gam), stats.fisk.logsf(y, c, scale=scale), rtol=1e-9
        )

    @pytest.mark.parametrize("family,anc", [("exponential", None), ("weibull", 1.7), ("gompertz", 0.4), ("lognormal", 0.9), ("loglogistic", 0.6)])
    def test_left_truncation_additivity(self, family, anc):
        # log-survival additivity: ll(y,d,t0) = ll(y,d,0) - ll(t0,0,0)
        rng = np.random.default_rng(6)
        for _ in range(200):
            y = rng.uniform(0.5, 4)
            t0 = rng.uniform(0.05, y * 0.9)
            d = int(rng.random() < 0.5)
            eta = rng.normal()
            full = surv_logl(y, d, family, eta, anc, t0=t0)
            split = surv_logl(y, d, family, eta, anc) - surv_logl(t0, 0, family, eta, anc)
            np.testing.assert_allclose(full, split, rtol=1e-9, atol=1e-9)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            surv_logl(-1.0, 1, "weibull", 0.0, 1.0)
        with pytest.raises(ValueError):
            surv_logl(1.0, 1, "weibull", 0.0, 1.0, t0=1.5)


class TestHazardQuadrature:
    def test_constant_hazard_exact(self):
        for q in (1, 2, 5, 30):
            v = hazard_quadrature_logl(2.0, 0, lambda t: np.zeros_like(t), q_gl=q)
            np.testing.assert_allclose(v, -2.0, rtol=1e-14)

    def test_polynomial_hazard_exact(self):
        # h(t) = 3 t^2 integrates exactly with 2 nodes: H(1.5) = 1.5^3
        v = hazard_quadrature_logl(1.5, 0, lambda t: np.log(3.0) + 2 * np.log(t), q_gl=2)
        np.testing.assert_allclose(v, -(1.5**3), rtol=1e-12)

    def test_gompertz_against_closed_form(self):
        v = hazard_quadrature_logl(3.0, 1, lambda t: 0.8 * t, q_gl=30)
        exact = surv_logl(3.0, 1, "gompertz", 0.0, 0.8)
        assert abs(v - exact) < 1e-8

    @pytest.mark.parametrize("family", ["exponential", "weibull", "gompertz"])
    def test_random_parameters_match_closed_form(self, family):
        # Weibull shapes are drawn from {1, 2, 3}: those hazards are
        # polynomials in t, which the rule integrates exactly. With the
        # linear node map, fractional shapes give t^(shape-1) integrands
        # whose endpoint behaviour limits fixed-node accuracy
        # (documented in test_decreasing_hazard_converges_slowly)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0.3, 5)
            t0 = rng.uniform(0, 0.5 * y) if rng.random() < 0.5 else 0.0
            d = int(rng.random() < 0.6)
            eta = rng.normal(scale=0.7)
            anc = {"exponential": None, "weibull": float(rng.integers(1, 4)), "gompertz": rng.normal(scale=0.4)}[family]

            def log_h(t, eta=eta, anc=anc):
                if family == "exponential":
                    return eta + np.zeros_like(t)
                if family == "weibull":
                    return eta + np.log(anc) + (anc - 1) * np.log(t)
                return eta + anc * t

            approx = hazard_quadrature_logl(y, d, log_h, t0=t0, q_gl=30)
            exact = surv_logl(y, d, family, eta, anc, t0=t0)
            assert abs(approx - exact) < 1e-7

    def test_decreasing_hazard_converges_slowly(self):
        # shape < 1 means h ~ t^(gamma-1) blows up at zero; the error is
        # real but shrinks as nodes are added
        g, y = 0.6, 3.0
        exact = surv_logl(y, 0, "weibull", 0.0, g)
        errs = [abs(hazard_quadrature_logl(y, 0, lambda t: np.log(g) + (g - 1) * np.log(t), q_gl=q) - exact) for q in (10, 40, 160)]
        assert errs[0] > errs[1] > errs[2]

    def test_nonfinite_hazard_detected(self):
        with pytest.raises(ValueError, match="finite"):
            hazard_quadrature_logl(1.0, 0, lambda t: np.full_like(t, np.inf))


class TestRpLogl:
    def test_unit_spline_event(self):
        # s(x) = x, eta = 0, y = 1: H = 1, h = 1
        basis = RcsBasis((-2.0, 2.0))
        np.testing.assert_allclose(rp_logl(RpColumns(basis, 1.0), 1, [1.0], 0.0), -1.0)

    def test_equals_weibull(self):
        # log H = g*log t + c is a Weibull with rate exp(c), shape g
        basis = RcsBasis((-3.0, 3.0))
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = rng.uniform(0.2, 4)
            d = int(rng.random() < 0.5)
            g, c = rng.uniform(0.5, 2.5), rng.normal()
            t0 = rng.uniform(0, y / 2) if rng.random() < 0.3 else 0.0
            a = rp_logl(RpColumns(basis, y, t0=t0), d, [g], c)
            b = surv_logl(y, d, "weibull", c, g, t0=t0)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_censored_ignores_reference_hazard(self):
        basis = RcsBasis((-2.0, 0.0, 2.0))
        coefs = [1.1, 0.05]
        a = rp_logl(RpColumns(basis, 2.0), 0, coefs, 0.3, bhaz=0.0)
        b = rp_logl(RpColumns(basis, 2.0), 0, coefs, 0.3, bhaz=5.0)
        np.testing.assert_allclose(a, b)

    def test_zero_reference_hazard_is_plain_model(self):
        basis = RcsBasis((-2.0, 0.0, 2.0))
        coefs = [1.1, 0.05]
        a = rp_logl(RpColumns(basis, 1.7), 1, coefs, -0.2)
        b = rp_logl(RpColumns(basis, 1.7), 1, coefs, -0.2, bhaz=0.0)
        assert a == b

    def test_reference_hazard_adds_to_event_hazard(self):
        basis = RcsBasis((-2.0, 2.0))
        # h = 1 at y=1 with s(x)=x, eta=0; bhaz 0.5 makes the event term log(1.5)
        v = rp_logl(RpColumns(basis, 1.0), 1, [1.0], 0.0, bhaz=0.5)
        np.testing.assert_allclose(v, math.log(1.5) - 1.0)

    def test_negative_total_hazard_rejected_softly(self):
        basis = RcsBasis((-2.0, 2.0))
        v = rp_logl(RpColumns(basis, 1.0), 1, [-1.0], 0.0)  # decreasing log H: negative hazard
        assert v == -np.inf

    def test_time_dependent_matches_analytic_when_constant(self):
        # passing a "time-dependent" eta that is constant must agree with
        # the analytic-derivative branch
        basis = RcsBasis((-2.0, 0.5, 2.0))
        coefs = np.array([1.3, 0.07])
        y = np.array([0.8, 1.6, 2.9])
        d = np.array([1.0, 0.0, 1.0])
        eta = 0.25
        h = 1e-5 * np.maximum(1.0, np.abs(np.log(y)))
        a = rp_logl(RpColumns(basis, y), d, coefs, eta)
        b = rp_logl(RpColumns(basis, y, log_step=h), d, coefs, eta, eta_plus=eta, eta_minus=eta)
        np.testing.assert_allclose(a, b, rtol=1e-6)

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_in_place_equals_new_array_form(self, time_dependent):
        # rp_logl and its survival_logl row terms against the direct
        # new-array expression, bit for bit: node columns, delayed entry,
        # a reference hazard or none, censored rows and negative hazards
        basis = RcsBasis((-2.0, 0.0, 1.0, 2.0))
        rng = np.random.default_rng(11)
        n, b = 40, 6
        y = rng.uniform(0.1, 5.0, (n, 1, 1))
        t0 = np.where(rng.random((n, 1, 1)) < 0.4, 0.5 * y, 0.0)
        d = (rng.random((n, 1, 1)) < 0.6).astype(float)
        reference = rng.uniform(0.0, 0.2, (n, 1, 1))
        coefs = np.array([0.6, 0.0, 0.1])  # log H falls with time at about half the rows
        eta = rng.normal(size=(n, 1, b))
        step = 1e-3 * np.ones((n, 1, 1)) if time_dependent else None
        cols = RpColumns(basis, y, t0=t0, log_step=step)
        kw = dict(eta_plus=eta + 1e-4, eta_minus=eta - 1e-4, eta_entry=eta + 0.1) if time_dependent else {}

        def times(a):
            return a @ coefs

        log_H = times(cols.at_y) + eta
        H = np.exp(log_H)
        if time_dependent:
            f_plus = times(cols.at_plus) + kw["eta_plus"]
            f_minus = times(cols.at_minus) + kw["eta_minus"]
            dF = (f_plus - f_minus) / (2.0 * cols.log_step)
        else:
            dF = times(cols.deriv_at_y)
        with np.errstate(invalid="ignore", divide="ignore"):
            # log H + log(dF / y), which stays finite where H underflows
            slope = dF / cols.y
            log_h = log_H + np.where(slope > 0, np.log(np.maximum(slope, 1e-300)), -np.inf)
        entry_eta = kw.get("eta_entry", eta)
        entry = np.where(cols.entry, np.exp(times(cols.at_t0) + entry_eta), 0.0)
        for bhaz in (None, reference):
            # a model hazard that is not positive stays -inf whatever bhaz
            with np.errstate(invalid="ignore", divide="ignore"):
                event_term = log_h if bhaz is None else np.where(log_h > -np.inf, np.log(np.exp(log_h) + bhaz), -np.inf)
            expect = np.where(d != 0, event_term, 0.0) - H + entry
            assert np.isneginf(expect).any() and np.isfinite(expect).any()

            assert rp_logl(cols, d, coefs, eta, bhaz=bhaz, **kw).tobytes() == expect.tobytes()


class TestUserFamilies:
    def test_gaussian_hook_reproduces_builtin(self):
        rng = np.random.default_rng(9)
        n = 100
        data = {
            "id": np.arange(n, dtype=float) % 10 + 1,
            "x": rng.normal(size=n),
            "y": rng.normal(size=n),
        }

        def gauss_logl(ctx):
            y = ctx.response()
            mu = ctx.linpred()
            sd = np.exp(ctx.ancillary(1))
            return -0.5 * np.log(2 * np.pi) - np.log(sd) - 0.5 * ((y - mu) / sd) ** 2

        register_user_family(loglf=gauss_logl, n_anc=1)
        from hiermix.data import as_frame
        from hiermix.dsl import parse_model_spec
        from hiermix.likelihood import LikelihoodEvaluator, default_plan
        from hiermix.predictor import compile_program

        frame = as_frame(data)
        pa = compile_program(parse_model_spec("(y x M1[id], family(gaussian))"), frame)
        pb = compile_program(
            parse_model_spec("(y x M1[id], family(user, loglf(gauss_logl)) np(1))"), frame
        )
        assert pa.n_params == pb.n_params
        theta = np.array([0.4, -0.1, math.log(0.9), math.log(0.5)])
        la = LikelihoodEvaluator(pa, default_plan(pa, points=9))
        lb = LikelihoodEvaluator(pb, default_plan(pb, points=9))
        la.refresh(theta)
        lb.refresh(theta)
        np.testing.assert_allclose(la.logl(theta), lb.logl(theta), rtol=1e-12)

    def test_cubic_log_hazard_with_zero_terms_is_exponential(self):
        rng = np.random.default_rng(10)
        n = 150
        t = rng.exponential(2.0, n)
        y = np.minimum(t, 4.0)
        d = (t < 4.0).astype(float)
        data = {"id": np.arange(n, dtype=float) + 1, "y": y, "d": d}

        def cubic_haz(ctx, t):
            b1, b2, b3 = ctx.ancillary(1), ctx.ancillary(2), ctx.ancillary(3)
            return np.exp(ctx.linpred() + b1 * t + b2 * t**2 + b3 * t**3)

        register_user_family(hazard=cubic_haz, n_anc=3)
        import hiermix as hm

        fit_user = hm.fit_model(
            "(y, family(user, hfunction(cubic_haz) failure(d)))",
            data,
            fixed={"anc1": 0.0, "anc2": 0.0, "anc3": 0.0},
        )
        fit_exp = hm.fit_model("(y, family(exponential, failure(d)))", data)
        np.testing.assert_allclose(fit_user.logl, fit_exp.logl, rtol=1e-7)
        np.testing.assert_allclose(fit_user.estimate("_cons"), fit_exp.estimate("_cons"), atol=1e-5)

    def test_cumhazard_hook_matches_hazard_hook(self):
        # the shape is pinned at 2 so the hazard is linear in t: the
        # quadrature and the numerical differentiation are both exact
        # and all three routes must land on the same optimum
        rng = np.random.default_rng(11)
        n = 80
        t = rng.weibull(2.0, n) * 2
        y = np.minimum(np.maximum(t, 1e-3), 3.0)
        d = (t < 3.0).astype(float)
        data = {"id": np.arange(n, dtype=float) + 1, "y": y, "d": d}

        def wb_haz(ctx, t):
            g = np.exp(ctx.ancillary(1))
            return np.exp(ctx.linpred()) * g * t ** (g - 1.0)

        def wb_cumhaz(ctx, t):
            g = np.exp(ctx.ancillary(1))
            return np.exp(ctx.linpred()) * t**g

        register_user_family(hazard=wb_haz, n_anc=1)
        register_user_family(cumhazard=wb_cumhaz, n_anc=1)
        import hiermix as hm

        lg2 = math.log(2.0)
        fa = hm.fit_model("(y, family(user, hfunction(wb_haz) failure(d)))", data, fixed={"anc1": lg2})
        fb = hm.fit_model("(y, family(user, chfunction(wb_cumhaz) failure(d)))", data, fixed={"anc1": lg2})
        fc = hm.fit_model("(y, family(weibull, failure(d)))", data, fixed={"ln_gamma": lg2})
        np.testing.assert_allclose(fa.logl, fc.logl, rtol=1e-9)
        np.testing.assert_allclose(fb.logl, fc.logl, rtol=1e-9)
        np.testing.assert_allclose(fa.estimate("_cons"), fc.estimate("_cons"), atol=1e-6)
        np.testing.assert_allclose(fb.estimate("_cons"), fc.estimate("_cons"), atol=1e-6)

    def test_cumhazard_hook_takes_the_reference_hazard(self):
        # bhazard adds to a chfunction hook's hazard as to the family's
        rng = np.random.default_rng(13)
        n = 80
        t = rng.weibull(1.5, n) * 2
        y = np.minimum(np.maximum(t, 1e-3), 3.0)
        data = {"y": y, "d": (t < 3.0).astype(float), "bh": rng.uniform(0.0, 0.3, n)}

        def wb_bh_cumhaz(ctx, t):
            return np.exp(ctx.linpred()) * t ** np.exp(ctx.ancillary(1))

        register_user_family(cumhazard=wb_bh_cumhaz, n_anc=1)
        import hiermix as hm

        lg = math.log(1.5)
        fb = hm.fit_model("(y, family(user, chfunction(wb_bh_cumhaz) failure(d) bhazard(bh)))", data, fixed={"anc1": lg})
        fc = hm.fit_model("(y, family(weibull, failure(d) bhazard(bh)))", data, fixed={"ln_gamma": lg})
        np.testing.assert_allclose(fb.logl, fc.logl, rtol=1e-7)
        np.testing.assert_allclose(fb.estimate("_cons"), fc.estimate("_cons"), atol=1e-6)

    def test_level1_variance_hook_matches_gaussian_when_constant(self):
        # a second (null) linear predictor models log variance; when that
        # predictor is just an intercept the model is an ordinary mixed model
        rng = np.random.default_rng(12)
        G, n = 15, 4
        b = rng.normal(0, 0.6, G)
        cid = np.repeat(np.arange(G) + 1.0, n)
        y = 0.7 + b[cid.astype(int) - 1] + rng.normal(0, 0.5, G * n)
        data = {"id": cid, "y": y}

        def lev1_logl(ctx):
            yv = ctx.response()
            mu = ctx.linpred()
            var = np.exp(ctx.linpred_of(2))
            return -0.5 * np.log(2 * np.pi * var) - 0.5 * (yv - mu) ** 2 / var

        register_user_family(loglf=lev1_logl)
        from hiermix.data import as_frame
        from hiermix.dsl import parse_model_spec
        from hiermix.likelihood import LikelihoodEvaluator, default_plan
        from hiermix.predictor import compile_program

        frame = as_frame(data)
        pu = compile_program(
            parse_model_spec("(y M1[id], family(user, loglf(lev1_logl))) (, family(null))"), frame
        )
        pg = compile_program(parse_model_spec("(y M1[id], family(gaussian))"), frame)
        # layouts: user = (_cons, null _cons, ln_sd(M1)); gaussian = (_cons, ln_sd, ln_sd(M1))
        sigma = 0.45
        tu = np.array([0.7, 2 * math.log(sigma), math.log(0.6)])
        tg = np.array([0.7, math.log(sigma), math.log(0.6)])
        lu = LikelihoodEvaluator(pu, default_plan(pu, points=11))
        lg = LikelihoodEvaluator(pg, default_plan(pg, points=11))
        lu.refresh(tu)
        lg.refresh(tg)
        np.testing.assert_allclose(lu.logl(tu), lg.logl(tg), rtol=1e-10)

    def test_registering_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            register_user_family(loglf=lambda ctx: 0, hazard=lambda ctx, t: t)
        with pytest.raises(ValueError):
            register_user_family()
