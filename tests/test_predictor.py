import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import hiermix as hm
from hiermix import predictor
from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.families import RpColumns, rp_logl
from hiermix.likelihood import LikelihoodEvaluator, default_plan
from hiermix.predictor import CompileError, EvalContext, compile_program, eval_eta, eval_ev, outcome_logl
from oracles import marginal_logl


def make_program(spec_text, data):
    frame = as_frame(data)
    spec = parse_model_spec(spec_text)
    return compile_program(spec, frame)


def survival_frame(n=24, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "patient": np.repeat(np.arange(n // 2, dtype=float) + 1, 2),
        "time": rng.uniform(0.5, 8.0, n),
        "infect": (rng.random(n) < 0.8).astype(float),
        "age": rng.normal(45, 8, n),
        "female": np.tile([0.0, 1.0], n // 2),
    }


class TestCompileLayout:
    def test_kidney_layout(self):
        prog = make_program("(time age female M1[patient], family(rp, failure(infect) scale(h) df(3)))", survival_frame())
        assert prog.slot_names() == ["age", "female", "rcs1", "rcs2", "rcs3", "_cons", "ln_sd(M1)"]

    def test_intercept_only_gaussian(self):
        prog = make_program("(y, family(gaussian))", {"y": np.arange(5.0) + 1})
        assert prog.slot_names() == ["_cons", "ln_sd"]

    def test_shared_effect_and_named_coefficient(self):
        rng = np.random.default_rng(1)
        n = 30
        data = {
            "id1": np.repeat(np.arange(10, dtype=float) + 1, 3),
            "rectime": rng.uniform(0.3, 4, n),
            "recevent": np.ones(n),
            "stime": np.where(np.arange(n) % 3 == 0, rng.uniform(1, 6, n), np.nan),
            "died": np.where(np.arange(n) % 3 == 0, 1.0, np.nan),
            "trt": np.repeat((rng.random(10) < 0.5).astype(float), 3),
        }
        prog = make_program(
            "(rectime trt M1[id1], family(weibull, failure(recevent)))"
            " (stime trt M1[id1]@alpha, family(weibull, failure(died)))",
            data,
        )
        names = prog.slot_names()
        assert names.count("alpha") == 1
        assert "ln_sd(M1)" in names
        # the shared effect appears in both compiled outcomes
        assert prog.outcomes[0].components[1].latents[0].name == "M1"
        assert prog.outcomes[1].components[1].latents[0].name == "M1"

    def test_unknown_column(self):
        with pytest.raises(CompileError, match="'nope'"):
            make_program("(y nope, family(gaussian))", {"y": np.ones(3)})

    def test_dev_requires_time_indexed_target(self):
        data = {
            "id": np.array([1.0, 1.0, 2.0, 2.0]),
            "y": np.array([0.1, 0.2, 0.3, 0.4]),
            "stime": np.array([2.0, np.nan, 3.0, np.nan]),
            "died": np.array([1.0, np.nan, 0.0, np.nan]),
        }
        with pytest.raises(CompileError, match="time-indexed"):
            make_program(
                "(stime dEV[y]@a, family(weibull, failure(died))) (y M1[id], family(gaussian))", data
            )

    def test_multicolumn_interaction_needs_coefficient(self):
        data = {
            "id": np.array([1.0, 1.0, 2.0, 2.0]),
            "y": np.array([0.1, 0.2, 0.3, 0.4]),
            "t": np.array([1.0, 2.0, 1.0, 2.0]),
        }
        with pytest.raises(CompileError, match="@coefficient"):
            make_program("(y fp(1 2)#M1[id], family(gaussian) timevar(t))", data)

    def test_gauss_legendre_rule_built_only_where_read(self):
        data = survival_frame()
        closed = make_program("(time age M1[patient], family(weibull, failure(infect)))", data)
        assert "gl_rule" not in vars(closed)
        quadrature = make_program("(time age fp(1) M1[patient], family(weibull, failure(infect)))", data)
        assert "gl_rule" in vars(quadrature)
        # too few nodes is an error even where no rule is read
        spec = parse_model_spec("(time age M1[patient], family(weibull, failure(infect)))")
        with pytest.raises(CompileError, match="at least one node"):
            compile_program(spec, as_frame(data), gl_points=0)


class TestEvalLinpred:
    def test_named_coefficient_product(self):
        prog = make_program("(y x@b, family(gaussian))", {"y": [1.0, 2.0], "x": [2.0, 5.0]})
        theta = np.zeros(prog.n_params)
        theta[prog.slot_index("b")] = 3.0
        ctx = EvalContext(prog, theta, {})
        eta = eval_eta(ctx, 0, 0)
        np.testing.assert_allclose(eta[:, 0, 0], [6.0, 15.0])

    def test_latent_interaction(self):
        data = {"id": [1.0, 2.0], "y": [0.0, 0.0], "trt": [1.0, 0.0]}
        prog = make_program("(y trt#M1[id], family(gaussian))", data)
        theta = np.zeros(prog.n_params)
        vals = {"M1": np.array([[0.4], [9.9]])}
        ctx = EvalContext(prog, theta, vals)
        eta = eval_eta(ctx, 0, 0)
        # row of unit 1: trt=1 so 0.4 added; unit 2 has trt=0
        np.testing.assert_allclose(sorted(eta[:, 0, 0]), [0.0, 0.4])

    def test_fp_time_function(self):
        data = {"y": [1.0], "t": [1.0]}
        prog = make_program("(y fp(0)@phi, family(gaussian) timevar(t))", data)
        theta = np.zeros(prog.n_params)
        theta[prog.slot_index("phi")] = 2.0
        ctx = EvalContext(prog, theta, {})
        t = np.array([[math.e]])
        eta = eval_eta(ctx, 0, 0, t)
        np.testing.assert_allclose(eta[0, 0, 0], 2.0, rtol=1e-12)

    def test_linear_in_each_coefficient(self):
        rng = np.random.default_rng(3)
        data = {"y": rng.normal(size=6), "x": rng.normal(size=6), "w": rng.normal(size=6)}
        prog = make_program("(y x@a w@b x#w@c, family(gaussian))", data)
        for name in ("a", "b", "c"):
            i = prog.slot_index(name)
            slopes = []
            for delta in (0.5, 1.0, 2.0):
                t1 = np.zeros(prog.n_params)
                t2 = t1.copy()
                t2[i] = delta
                e1 = eval_eta(EvalContext(prog, t1, {}), 0, 0)
                e2 = eval_eta(EvalContext(prog, t2, {}), 0, 0)
                slopes.append((e2 - e1)[:, 0, 0] / delta)
            np.testing.assert_allclose(slopes[0], slopes[1], atol=1e-10)
            np.testing.assert_allclose(slopes[1], slopes[2], atol=1e-10)

    def test_interaction_commutes(self):
        rng = np.random.default_rng(4)
        data = {"y": rng.normal(size=5), "a": rng.normal(size=5), "b": rng.normal(size=5)}
        p1 = make_program("(y a#b, family(gaussian))", data)
        p2 = make_program("(y b#a, family(gaussian))", data)
        theta = np.array([0.7, 0.1, 0.0])
        e1 = eval_eta(EvalContext(p1, theta, {}), 0, 0)
        e2 = eval_eta(EvalContext(p2, theta, {}), 0, 0)
        np.testing.assert_allclose(e1, e2)

    def test_missing_latent_assignment_raises(self):
        prog = make_program("(y M1[id], family(gaussian))", {"id": [1.0], "y": [0.5]})
        ctx = EvalContext(prog, np.zeros(prog.n_params), {})
        with pytest.raises(ValueError, match="M1"):
            eval_eta(ctx, 0, 0)

    def test_missing_time_raises(self):
        prog = make_program("(y fp(1)@a, family(gaussian) timevar(t))", {"y": [1.0], "t": [0.5]})
        ctx = EvalContext(prog, np.zeros(prog.n_params), {})
        with pytest.raises(ValueError, match="time"):
            eval_eta(ctx, 0, 0, None)


class TestEvalEv:
    def joint_program(self):
        data = {
            "id": np.array([1.0, 1.0, 2.0, 2.0]),
            "time": np.array([0.5, 1.5, 0.5, 1.5]),
            "logb": np.array([0.2, 0.6, 0.1, 0.5]),
            "stime": np.array([2.0, np.nan, 2.5, np.nan]),
            "died": np.array([1.0, np.nan, 0.0, np.nan]),
        }
        return make_program(
            "(stime EV[logb]@a1, family(weibull, failure(died)))"
            " (logb fp(1)@slope M1[id], family(gaussian) timevar(time))",
            data,
        )

    def theta_for(self, prog, **values):
        theta = np.zeros(prog.n_params)
        for name, v in values.items():
            theta[prog.slot_index(name)] = v
        return theta

    def test_identity_link_ev_equals_linpred(self):
        prog = self.joint_program()
        theta = self.theta_for(prog, **{"slope": 0.5, "logb:_cons": 1.0})
        vals = {"M1": np.array([[0.3], [-0.2]])}
        ctx = EvalContext(prog, theta, vals)
        rows = prog.outcomes[0].rows
        t = np.full((len(rows), 1), 2.0)
        ev = eval_ev(ctx, "EV", 1, 0, t)
        eta = eval_eta(ctx, 1, 0, t)
        np.testing.assert_allclose(ev, eta)
        # linear trajectory: a + b t with the unit's intercept shift
        expect = 1.0 + 0.5 * 2.0 + vals["M1"][prog.outcomes[0].units["id"], 0]
        np.testing.assert_allclose(ev[:, 0, 0], expect)

    def test_dev_is_slope(self):
        prog = self.joint_program()
        theta = self.theta_for(prog, **{"slope": 0.5, "logb:_cons": 1.0})
        ctx = EvalContext(prog, theta, {"M1": np.zeros((2, 1))})
        rows = prog.outcomes[0].rows
        t = np.full((len(rows), 1), 1.7)
        dev = eval_ev(ctx, "dEV", 1, 0, t)
        np.testing.assert_allclose(dev[:, 0, 0], 0.5, atol=1e-6)

    def test_iev_quadratic_exact(self):
        # integral of a + b*u over (0, t) is a*t + b*t^2/2
        prog = self.joint_program()
        a, b = 1.0, 0.5
        theta = self.theta_for(prog, **{"slope": b, "logb:_cons": a})
        ctx = EvalContext(prog, theta, {"M1": np.zeros((2, 1))})
        rows = prog.outcomes[0].rows
        t = np.full((len(rows), 1), 2.0)
        iev = eval_ev(ctx, "iEV", 1, 0, t)
        np.testing.assert_allclose(iev[:, 0, 0], a * 2.0 + b * 2.0**2 / 2, rtol=1e-12)

    def test_d2ev_quadratic_exact(self):
        data = {
            "id": np.array([1.0]),
            "time": np.array([0.5]),
            "logb": np.array([0.2]),
            "stime": np.array([2.0]),
            "died": np.array([1.0]),
        }
        prog = make_program(
            "(stime EV[logb]@a1, family(weibull, failure(died)))"
            " (logb fp(1 2)@q M1[id], family(gaussian) timevar(time))",
            data,
        )
        theta = np.zeros(prog.n_params)
        theta[prog.slot_index("q1")] = 0.7
        theta[prog.slot_index("q2")] = 0.3
        ctx = EvalContext(prog, theta, {"M1": np.zeros((1, 1))})
        t = np.full((1, 1), 1.5)
        dev = eval_ev(ctx, "dEV", 1, 0, t)
        d2ev = eval_ev(ctx, "d2EV", 1, 0, t)
        np.testing.assert_allclose(dev[0, 0, 0], 0.7 + 2 * 0.3 * 1.5, rtol=1e-6)
        np.testing.assert_allclose(d2ev[0, 0, 0], 2 * 0.3, rtol=1e-6)

    def test_logit_link_ev(self):
        data = {
            "id": np.array([1.0, 2.0]),
            "z": np.array([1.0, 0.0]),
            "stime": np.array([2.0, 2.5]),
            "died": np.array([1.0, 0.0]),
        }
        prog = make_program(
            "(stime EV[z]@a1, family(weibull, failure(died))) (z M1[id], family(bernoulli))",
            data,
        )
        ctx = EvalContext(prog, np.zeros(prog.n_params), {"M1": np.zeros((2, 1))})
        ev = eval_ev(ctx, "EV", 1, 0, None)
        np.testing.assert_allclose(ev[:, 0, 0], 0.5)


IEV_SPEC = (
    "(stime trt iEV[logb]@a1, family(weibull, failure(died)))"
    " (logb fp(1)@slope M1[id], family(gaussian) timevar(time))"
)
IEV_TRUTH = {
    "stime:trt": -0.5,
    "a1": 0.2,
    "stime:_cons": -2.0,
    "stime:ln_gamma": 0.2,
    "slope": 0.2,
    "logb:_cons": 1.0,
    "logb:ln_sd": -1.0,
    "ln_sd(M1)": -0.5,
}
FP_SPEC = "(y x fp(1)@slope M1[id], family(gaussian) timevar(time))"
FP_TRUTH = {"x": 0.5, "slope": 0.3, "_cons": 1.0, "ln_sd": -0.7, "ln_sd(M1)": -0.5}


def theta_by_name(prog, values):
    theta = np.zeros(prog.n_params)
    for name, v in values.items():
        theta[prog.slot_index(name)] = v
    return theta


class TestCompiledInputs:
    """Values fixed once the data are bound are computed at compile time:
    objective calls keep nothing, and the spline-baseline paths agree with
    the direct family computations.
    """

    @pytest.mark.parametrize(
        "spec,truth,ids,outcomes",
        [
            (IEV_SPEC, IEV_TRUTH, 20, [{"censoring": 5.0}, {"times": [0, 1, 2, 3]}]),
            (FP_SPEC, FP_TRUTH, 200, [{"times": [0, 1, 2, 3]}]),
        ],
        ids=["iev", "fp"],
    )
    def test_objective_calls_retain_no_memory(self, spec, truth, ids, outcomes):
        data = hm.simulate(spec, truth, levels={"id": ids}, outcomes=outcomes, seed=2)
        prog = make_program(spec, data)
        ev = LikelihoodEvaluator(prog, default_plan(prog, points=5))
        theta = theta_by_name(prog, truth)
        ev.refresh(theta)
        for _ in range(5):
            ev.logl(theta)
        tracemalloc.start()
        try:
            for _ in range(45):
                ev.logl(theta)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_iev_nodes_compiled_once(self, monkeypatch):
        # the iEV nodes of the survival grid and the target's fp(1) column
        # there are compiled: a warm call builds neither, and gives the
        # values of calls that build them every time, as they once did
        spec_outcomes = [{"censoring": 5.0}, {"times": [0, 1, 2, 3]}]
        data = hm.simulate(IEV_SPEC, IEV_TRUTH, levels={"id": 20}, outcomes=spec_outcomes, seed=2)
        prog = make_program(IEV_SPEC, data)
        theta = theta_by_name(prog, IEV_TRUTH)
        vectors = [theta + 0.01 * i for i in range(3)]
        grid = prog.outcomes[0].grid
        assert grid.nodes.t.shape == (grid.t.shape[0], grid.t.shape[1] * prog.gl_points)
        assert list(grid.nodes.cols) == [prog.outcomes[1].components[0].key]
        built = {"_iev_times": 0, "_time_columns": 0}
        for name in built:

            def counted(*args, real=getattr(predictor, name), name=name):
                built[name] += 1
                return real(*args)

            monkeypatch.setattr(predictor, name, counted)

        def warm_call():
            ev = LikelihoodEvaluator(prog, default_plan(prog, points=5))
            ev.refresh(theta)
            ev.logl(theta)
            built.update(dict.fromkeys(built, 0))
            return ev.logl(theta), [ev.logl(x) for x in vectors], dict(built)

        compiled = warm_call()
        nodes, grid.nodes = grid.nodes, None
        try:
            rebuilt = warm_call()
        finally:
            grid.nodes = nodes
        assert compiled[:2] == rebuilt[:2]
        assert compiled[2] == {"_iev_times": 0, "_time_columns": 0}
        assert rebuilt[2]["_iev_times"] > 0 and rebuilt[2]["_time_columns"] > 0

    @pytest.mark.parametrize(
        "spec",
        [
            "(y x fp(1 2) M1[id], family(gaussian) timevar(t))",
            "(y x#w x M1[id], family(gaussian))",
            "(y x w M1[id], family(gaussian) noconstant)",
            "(y x M1[id], family(rp, failure(d) df(2)))",
        ],
        ids=["time_function", "covariate_product", "noconstant", "rp"],
    )
    def test_design_is_the_fixed_part_of_eta(self, spec):
        # the compiled design's columns times their coefficients are the
        # linear predictor at the outcome's rows and own times where every
        # latent effect is 0, plus, for rp, the spline s(log y) times its
        # coefficients; the constant comes first
        rng = np.random.default_rng(8)
        n = 24
        data = {
            "id": np.repeat(np.arange(8.0) + 1, 3),
            "y": rng.uniform(0.5, 4.0, n),
            "d": (rng.random(n) < 0.7).astype(float),
            "x": rng.normal(size=n),
            "w": rng.normal(size=n),
            "t": np.tile([0.5, 1.0, 2.0], 8),
        }
        prog = make_program(spec, data)
        co = prog.outcomes[0]
        slots, x = co.design
        assert sorted(slots) == [i for i, slot in enumerate(prog.slots) if slot.kind in ("coef", "cons", "spline")]
        assert (slots[0] == co.cons_slot) == ("noconstant" not in spec)
        theta = rng.normal(size=prog.n_params)
        eta = eval_eta(EvalContext(prog, theta, {"M1": np.zeros((8, 1))}), 0, 0, co.grid)[:, 0, 0]
        if co.rp is not None:
            eta = eta + co.rp.at_y.reshape(n, -1) @ theta[co.spline_slots]
        np.testing.assert_allclose(x @ theta[slots], eta, rtol=1e-13, atol=1e-13)

    @staticmethod
    def rp_data(seed=3):
        return hm.simulate(
            "(t trt M1[id], family(weibull, failure(d)))",
            {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
            levels={"id": 30},
            covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
            outcomes=[{"censoring": 5.0, "records": 2}],
            seed=seed,
        )

    def test_rp_zero_time_effect_equals_model_without_it(self):
        data = self.rp_data()
        values = {"trt": 0.4, "rcs1": 1.2, "rcs2": 0.05, "rcs3": -0.02, "_cons": -0.8, "ln_sd(M1)": -0.5, "phi": 0.0}
        lls = []
        for extra in ("", " trt#fp(0)@phi"):
            prog = make_program(f"(t trt{extra} M1[id], family(rp, failure(d) df(3)))", data)
            theta = theta_by_name(prog, {k: v for k, v in values.items() if k != "phi" or extra})
            lls.append(marginal_logl(prog, default_plan(prog), theta))
        # the time-dependent path differentiates on log time numerically
        np.testing.assert_allclose(lls[1], lls[0], rtol=1e-9)

    def test_rp_left_truncation_equals_direct_family_logl(self):
        rng = np.random.default_rng(11)
        n = 40
        y = rng.uniform(0.5, 5.0, n)
        t0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.5, n) * y, 0.0)
        data = {"y": y, "d": (rng.random(n) < 0.7).astype(float), "t0": t0, "trt": (rng.random(n) < 0.5).astype(float)}
        prog = make_program("(y trt, family(rp, failure(d) ltrunc(t0) df(2)))", data)
        theta = theta_by_name(prog, {"trt": 0.3, "rcs1": 1.1, "rcs2": 0.04, "_cons": -0.6})
        engine = marginal_logl(prog, default_plan(prog), theta)
        coefs = theta[[prog.slot_index("rcs1"), prog.slot_index("rcs2")]]
        eta = theta[prog.slot_index("_cons")] + data["trt"].reshape(-1, 1, 1) * theta[prog.slot_index("trt")]
        cols = RpColumns(prog.outcomes[0].spline_basis, y.reshape(-1, 1, 1), t0=t0.reshape(-1, 1, 1))
        direct = rp_logl(cols, data["d"].reshape(-1, 1, 1), coefs, eta)
        assert engine == math.fsum(direct.ravel().tolist())


# --- every survival hazard form against references written here -----------

_Y = np.array([0.3, 0.7, 1.1, 1.6, 2.2, 0.5, 1.9, 2.8, 0.9, 1.3])
_D = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
_X = np.array([0.0, 1.0, 0.5, -0.3, 1.2, 0.8, -1.0, 0.2, 0.4, -0.6])
_T0 = np.array([0.0, 0.2, 0.0, 0.5, 1.0, 0.0, 0.4, 0.0, 0.1, 0.0])
_BH = np.array([0.05, 0.1, 0.2, 0.0, 0.3, 0.15, 0.02, 0.08, 0.12, 0.07])
_KNOTS = (-1.5, 0.2, 1.5)  # of the rp spline, on log time


def _spline(v):
    """s(v) = 1.2 v + 0.05 v2(v), a restricted cubic spline with knots
    _KNOTS, and its derivative.
    """
    lo, mid, hi = _KNOTS
    lam = (hi - mid) / (hi - lo)

    def cube(u):
        return max(u, 0.0) ** 3

    def square(u):
        return max(u, 0.0) ** 2

    v2 = cube(v - mid) - lam * cube(v - lo) - (1.0 - lam) * cube(v - hi)
    dv2 = 3.0 * (square(v - mid) - lam * square(v - lo) - (1.0 - lam) * square(v - hi))
    return 1.2 * v + 0.05 * v2, 1.2 + 0.05 * dv2


def _quad_cum(log_h):
    def cum(t, x):
        return quad(lambda s: math.exp(log_h(s, x)), 0.0, t, epsabs=0.0, epsrel=1e-13)[0]

    return cum


def _rp_td_log_cum(t, x):
    return _spline(math.log(t))[0] + _eta(x) - 0.2 * x * t


def _eta(x):  # the linear predictor at _cons -0.4, x 0.3
    return -0.4 + 0.3 * x


def _stats_form(dist):
    """(log h, H) of a scipy.stats distribution built from eta."""
    return (lambda t, x: dist(x).logpdf(t) - dist(x).logsf(t)), (lambda t, x: -dist(x).logsf(t))


def _tbl_haz(ctx, t):
    return np.exp(ctx.linpred() + ctx.ancillary(1)) * t


def _tbl_cumhaz(ctx, t):
    return np.exp(ctx.linpred()) * t**1.5


def _weibull_td_log_h(t, x):
    return _eta(x) - 0.2 * x * t + math.log(2.0) + math.log(t)


def _hook_log_h(t, x):
    return _eta(x) + 0.2 + math.log(t)


# form: (spec terms and family options, parameters beyond _cons and x, log h(t, x), H(t, x))
SURVIVAL_FORMS = {
    "exponential": (
        "x, family(exponential,",
        {},
        lambda t, x: _eta(x),
        lambda t, x: math.exp(_eta(x)) * t,
    ),
    "weibull": (
        "x, family(weibull,",
        {"ln_gamma": math.log(1.3)},
        *_stats_form(lambda x: stats.weibull_min(1.3, scale=math.exp(-_eta(x) / 1.3))),
    ),
    "gompertz": (
        "x, family(gompertz,",
        {"gamma": 0.4},
        lambda t, x: _eta(x) + 0.4 * t,
        lambda t, x: math.exp(_eta(x)) * math.expm1(0.4 * t) / 0.4,
    ),
    "lognormal": (
        "x, family(lognormal,",
        {"ln_sd": math.log(0.8)},
        *_stats_form(lambda x: stats.lognorm(0.8, scale=math.exp(_eta(x)))),
    ),
    "loglogistic": (
        "x, family(loglogistic,",
        {"ln_gamma": math.log(0.7)},
        *_stats_form(lambda x: stats.fisk(1.0 / 0.7, scale=math.exp(-_eta(x)))),
    ),
    "weibull_fp": (
        "x x#fp(1)@phi, family(weibull,",
        {"ln_gamma": math.log(2.0), "phi": -0.2},
        _weibull_td_log_h,
        _quad_cum(_weibull_td_log_h),
    ),
    "hfunction": ("x, family(user, hfunction(tbl_haz)", {"anc1": 0.2}, _hook_log_h, _quad_cum(_hook_log_h)),
    "chfunction": (
        "x, family(user, chfunction(tbl_cumhaz)",
        {},
        lambda t, x: _eta(x) + math.log(1.5 * math.sqrt(t)),
        lambda t, x: math.exp(_eta(x)) * t**1.5,
    ),
    "rp": (
        f"x, family(rp, knots({' '.join(map(str, _KNOTS))})",
        {"rcs1": 1.2, "rcs2": 0.05},
        lambda t, x: _spline(math.log(t))[0] + _eta(x) + math.log(_spline(math.log(t))[1] / t),
        lambda t, x: math.exp(_spline(math.log(t))[0] + _eta(x)),
    ),
    "rp_td": (
        f"x x#fp(1)@phi, family(rp, knots({' '.join(map(str, _KNOTS))})",
        {"rcs1": 1.2, "rcs2": 0.05, "phi": -0.2},
        lambda t, x: _rp_td_log_cum(t, x) + math.log((_spline(math.log(t))[1] - 0.2 * x * t) / t),
        lambda t, x: math.exp(_rp_td_log_cum(t, x)),
    ),
}


def _form_logl(terms: str, extra: dict, entry: bool, reference: bool):
    """outcome_logl of the model "(y {terms} ...))" at _cons -0.4, x 0.3
    and ``extra``, per data row.
    """
    options = " failure(d)" + (" ltrunc(t0)" if entry else "") + (" bhazard(bh)" if reference else "")
    prog = make_program(f"(y {terms}{options}))", {"y": _Y, "d": _D, "x": _X, "t0": _T0, "bh": _BH})
    theta = theta_by_name(prog, {"_cons": -0.4, "x": 0.3, **extra})
    ll = outcome_logl(EvalContext(prog, theta), 0)[:, 0]
    by_row = np.empty(len(ll))
    by_row[prog.outcomes[0].rows] = ll
    return by_row


class TestSurvivalForms:
    """Each survival hazard form's rows, d log(h(y) + b) - H(y) + H(t0),
    against closed forms, scipy.stats and scipy.integrate.quad.
    """

    @pytest.mark.parametrize("reference", [False, True], ids=["no_bhazard", "bhazard"])
    @pytest.mark.parametrize("entry", [False, True], ids=["no_entry", "entry"])
    @pytest.mark.parametrize("form", list(SURVIVAL_FORMS))
    def test_rows_match_reference(self, form, entry, reference):
        hm.register_user_family("tbl_haz", hazard=_tbl_haz, n_anc=1)
        hm.register_user_family("tbl_cumhaz", cumhazard=_tbl_cumhaz)
        terms, extra, log_h, cum = SURVIVAL_FORMS[form]
        expect = []
        for y, d, x, t0, b in zip(_Y, _D, _X, _T0, _BH):
            event = math.log(math.exp(log_h(y, x)) + b) if reference else log_h(y, x)
            term = d * event - cum(y, x)
            if entry and t0 > 0:
                term += cum(t0, x)
            expect.append(term)
        np.testing.assert_allclose(_form_logl(terms, extra, entry, reference), expect, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("reference", [False, True], ids=["no_bhazard", "bhazard"])
    @pytest.mark.parametrize(
        "hook,kind,negative",
        [
            # h = e^eta (t - 1): not positive before t = 1
            (lambda ctx, t: np.exp(ctx.linpred()) * (t - 1.0), "hazard", _Y <= 1.0),
            # H = e^eta (t - 0.4 t^2) falls after t = 1.25
            (lambda ctx, t: np.exp(ctx.linpred()) * (t - 0.4 * t**2), "cumhazard", _Y > 1.25),
        ],
        ids=["hfunction", "chfunction"],
    )
    def test_hook_hazard_not_positive_at_an_event_is_minus_inf(self, hook, kind, negative, reference):
        name = f"tbl_negative_{kind}"
        hm.register_user_family(name, **{kind: hook})
        option = "hfunction" if kind == "hazard" else "chfunction"
        ll = _form_logl(f"x, family(user, {option}({name})", {}, False, reference)
        at_event = negative & (_D != 0)
        assert at_event.any() and (~at_event).any()
        assert np.all(ll[at_event] == -np.inf)
        assert np.all(np.isfinite(ll[~at_event]))
