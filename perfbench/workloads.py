"""The four workloads (the three of BENCHMARK.json and ``joint_ev``):
inputs, one fit, and its check.

Each workload fits a fixed panel of data sets, generated from fixed
generator seeds, so that every run does the same numerical work: a
fit's Newton iteration count depends on its data, and the few fits a
run has time for cannot average that out. The panels of the three
in-process workloads hold one data set each, so that every fit of a run
repeats the same work and the median is steady. The run's ``--seed``
shuffles the row order of every data set and the order in which the
panel is fitted. hiermix sorts rows into a canonical order at compile
time, so a result must not depend on the shuffle. Each run holds it to
that: one data set of every panel is also fitted in a second row order,
and every fit of a data set must match its first fit bit for bit.

``nominal_fit_s`` is a workload's typical seconds per fit on the
reference machine (see README). With ``--seconds`` it fixes how many
rounds a run makes, so that the work of a run never depends on how fast
the run happens to go.

Every check compares a fit with ``oracle.py``, which never imports
hiermix, or with a property the method must have. The checks import it
when they run, after the timed fits: its scipy modules add some 40 MB
that ``peak_rss_mb`` should not count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

# full-size panels; ``tiny`` shrinks them for selfcheck.py
FRAILTY = dict(clusters=300, records=4, draws=200, panel=(1,))
NESTED = dict(trials=2, patients=3, reps=2, panel=(1,))
JOINT = dict(subjects=50, panel=(1,))
RP = dict(clusters=100, records=4, panel=tuple(range(1001, 1041)), repeat=1002)
TINY = {
    "frailty_qmc": dict(clusters=40, records=2, draws=50, panel=(1,)),
    "nested3_aghq": NESTED,
    "joint_ev": dict(subjects=25, panel=(1,)),
    "rp_replicates": dict(clusters=30, records=2, panel=(1001, 1002), repeat=1002),
}


@dataclass
class Item:
    """One data set of a panel, with what its check needs."""

    key: str
    data: object  # column dict, or a CSV path for the command-line workload
    ref: dict = field(default_factory=dict)


@dataclass
class Fit:
    seconds: float
    failed: str | None  # reason, or None when the fit succeeded
    theta: np.ndarray | None = None
    logl: float = math.nan
    result: object = None  # FitResult for in-process fits
    doc: bytes = b""  # result document for command-line fits
    start: float = math.nan  # time.perf_counter() when the fit began


def _shuffled(columns: dict, rng) -> dict:
    perm = rng.permutation(len(next(iter(columns.values()))))
    return {name: np.asarray(col, dtype=float)[perm] for name, col in columns.items()}


def _two_orders(key: str, columns: dict, rng) -> list[Item]:
    """The data set in two row orders drawn from ``rng``; both are fitted
    in every round and must give the same result bit for bit.
    """
    return [Item(key, _shuffled(columns, rng)), Item(key, _shuffled(columns, rng))]


def _frame_columns(frame) -> dict:
    return {name: frame.col(name) for name in frame.names}


def _fit_in_process(hm, spec, data, **options) -> Fit:
    start = time.perf_counter()
    try:
        result = hm.fit_model(spec, data, **options)
    except Exception as exc:  # a raising fit counts as failed; the run goes on
        return Fit(time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", start=start)
    seconds = time.perf_counter() - start
    failed = None if result.converged else f"not converged: {result.message}"
    return Fit(seconds, failed, result.theta.copy(), float(result.logl), result, start=start)


def _optimum_problem(verified: bool, max_abs_gradient: float) -> str | None:
    """The stopping rule at a converged fit: max |g_i| * max(|theta_i|, 1)
    below 1e-5, so max |g_i| is too, and a negative definite Hessian.
    """
    if not verified:
        return "optimum not verified (information matrix not positive definite)"
    if not max_abs_gradient < 1e-5:
        return f"converged with max |gradient| {max_abs_gradient:.3g}, above the 1e-5 stopping rule"
    return None


# ---------------------------------------------------------------------------


class FrailtyQmc:
    """Weibull PH with a t(5) cluster frailty, Halton QMC integration."""

    name = "frailty_qmc"
    nominal_fit_s = 2.7
    spec = "(t trt M1[id], family(weibull, failure(d)))"
    truth = {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51}

    def __init__(self, hm, size):
        self.hm, self.size = hm, size

    def setup(self, rng, workdir) -> list[Item]:
        s = self.size
        items = []
        for gen in s["panel"]:
            frame = self.hm.simulate(
                self.spec + ", redistribution(t) df(5)",
                self.truth,
                levels={"id": s["clusters"]},
                covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
                outcomes=[{"censoring": 5.0, "records": s["records"]}],
                seed=gen,
            )
            items += _two_orders(f"sim{gen}", _frame_columns(frame), rng)
        return items

    def fit(self, item: Item) -> Fit:
        return _fit_in_process(
            self.hm, self.spec, item.data, method="qmc", redistribution="t", t_df=5, draws=self.size["draws"]
        )

    def check(self, item: Item, fit: Fit) -> str | None:
        import oracle

        bad = _optimum_problem(fit.result.optimum_verified, fit.result.grad_norm)
        if bad:
            return bad
        est = dict(zip(fit.result.names, fit.theta))
        cols = item.data
        eta = est["trt"] * cols["trt"] + est["_cons"]
        exact = oracle.weibull_frailty_logl(
            cols["t"], cols["d"], eta, cols["id"], math.exp(est["ln_gamma"]), "t", math.exp(est["ln_sd(M1)"]), 5
        )
        # Halton QMC with a few hundred draws is an approximation: per
        # cluster it is within 0.01 log-units of the quadrature value
        n_clusters = np.unique(cols["id"]).size
        if abs(fit.logl - exact) > 0.01 * n_clusters:
            return f"logl {fit.logl:.6f} vs quadrature oracle {exact:.6f} over {n_clusters} clusters"
        return None


class Nested3Aghq:
    """Three-level Gaussian model, nested adaptive Gauss-Hermite at 5 points.

    The data are generated here with balanced random effects: trial and
    patient effects are standardized normal scores, shuffled by the
    generator seed, so the variance components stay away from zero and
    every fit converges in a similar number of Newton steps. Two rows per
    patient keep each patient's posterior broad enough for the
    mean-variance adaptation to hold (see README: sharper posteriors make
    the 5-point nested rule miss the closed form).
    """

    name = "nested3_aghq"
    nominal_fit_s = 4.0
    spec = "(y x M1[trial] M2[trial>pat], family(gaussian))"
    sd = (0.8, 0.7, 0.6)  # trial, patient, residual

    def __init__(self, hm, size):
        self.hm, self.size = hm, size

    def generate(self, gen: int) -> dict:
        s = self.size
        t, p, r = s["trials"], s["patients"], s["reps"]
        rng = np.random.default_rng(gen)

        def scores(n):
            z = ndtri((np.arange(n) + 0.5) / n)
            return z / z.std()

        u = self.sd[0] * rng.permutation(scores(t))
        v = self.sd[1] * np.concatenate([rng.permutation(scores(p)) for _ in range(t)])
        trial = np.repeat(np.arange(t), p * r)
        pat = np.repeat(np.arange(t * p), r)
        x = rng.normal(size=t * p * r)
        y = 1.0 + 0.5 * x + u[trial] + v[pat] + self.sd[2] * rng.normal(size=x.size)
        return {"trial": trial + 1.0, "pat": pat + 1.0, "x": x, "y": y}

    def setup(self, rng, workdir) -> list[Item]:
        items = []
        for gen in self.size["panel"]:
            items += _two_orders(f"gen{gen}", self.generate(gen), rng)
        return items

    def fit(self, item: Item) -> Fit:
        return _fit_in_process(self.hm, self.spec, item.data, points=5)

    def check(self, item: Item, fit: Fit) -> str | None:
        import oracle

        bad = _optimum_problem(fit.result.optimum_verified, fit.result.grad_norm)
        if bad:
            return bad
        cols = item.data
        X = np.column_stack([cols["x"], np.ones(cols["x"].size)])
        est = dict(zip(fit.result.names, fit.theta))
        theta = np.array([est[n] for n in ("x", "_cons", "ln_sd", "ln_sd(M1)", "ln_sd(M2)")])
        exact = oracle.lmm3_logl(cols["y"], X, cols["trial"], cols["pat"], theta[:2], *np.exp(theta[2:]))
        # adaptive quadrature is exact for a Gaussian model at any depth
        if abs(fit.logl - exact) > 1e-8 * max(1.0, abs(exact)):
            return f"logl {fit.logl!r} vs closed form {exact!r}"
        beta, sds, _ = oracle.lmm3_fit(cols["y"], X, cols["trial"], cols["pat"])
        gap = float(np.max(np.abs(theta - np.r_[beta, np.log(sds)])))
        if gap > 1e-4:
            return f"estimates differ from the closed-form maximum by {gap:.2e}"
        return None


class JointEv:
    """Weibull survival linked to a Gaussian trajectory through EV[]."""

    name = "joint_ev"
    nominal_fit_s = 4.3
    spec = (
        "(stime trt EV[logb]@a1, family(weibull, failure(died)))"
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

    def __init__(self, hm, size):
        self.hm, self.size = hm, size

    def setup(self, rng, workdir) -> list[Item]:
        items = []
        for gen in self.size["panel"]:
            frame = self.hm.simulate(
                self.spec,
                self.truth,
                levels={"id": self.size["subjects"]},
                covariates={"trt": {"dist": "bernoulli"}},
                outcomes=[{"censoring": 5.0}, {"times": [0.0, 0.5, 1.0, 2.0, 3.0]}],
                seed=gen,
            )
            items += _two_orders(f"sim{gen}", _frame_columns(frame), rng)
        return items

    def fit(self, item: Item) -> Fit:
        return _fit_in_process(self.hm, self.spec, item.data, points=5)

    @staticmethod
    def subjects(cols) -> list:
        out = []
        for sid in np.unique(cols["id"]):
            rows = cols["id"] == sid
            long = rows & np.isfinite(cols["logb"])
            surv = np.flatnonzero(rows & np.isfinite(cols["died"]))[0]
            out.append(
                (cols["time"][long], cols["logb"][long], cols["stime"][surv], cols["died"][surv], cols["trt"][surv])
            )
        return out

    def check(self, item: Item, fit: Fit) -> str | None:
        import oracle

        bad = _optimum_problem(fit.result.optimum_verified, fit.result.grad_norm)
        if bad:
            return bad
        est = dict(zip(fit.result.names, fit.theta))
        par = dict(
            c_l=est["logb:_cons"],
            slope=est["slope"],
            sd_e=math.exp(est["logb:ln_sd"]),
            sd_u1=math.exp(est["ln_sd(M1)"]),
            sd_u2=math.exp(est["ln_sd(M2)"]),
            b_trt=est["stime:trt"],
            c_s=est["stime:_cons"],
            a1=est["a1"],
            gamma=math.exp(est["stime:ln_gamma"]),
        )
        exact = oracle.JointEvOracle().logl(self.subjects(item.data), par)
        # 5-point adaptive quadrature and the 30-node hazard rule against
        # a 20-point rule and a singularity-free 64-node rule
        tol = 1e-4 * len(np.unique(item.data["id"]))
        if abs(fit.logl - exact) > tol:
            return f"logl {fit.logl:.6f} vs oracle {exact:.6f} (tolerance {tol:.3g})"
        return None


class RpReplicates:
    """Many small spline-baseline fits through the command line."""

    name = "rp_replicates"
    nominal_fit_s = 0.4
    sim_spec = "(t trt M1[id], family(weibull, failure(d)))"
    fit_spec = "(t trt M1[id], family(rp, failure(d) scale(h) df(3)))"
    truth = FrailtyQmc.truth

    def __init__(self, hm, size):
        self.hm, self.size = hm, size
        from hiermix.cli import main

        self.cli_main = main

    def setup(self, rng, workdir) -> list[Item]:
        s = self.size
        folder = os.path.join(workdir, "rp")
        os.makedirs(folder, exist_ok=True)
        items = []
        for gen in s["panel"]:
            frame = self.hm.simulate(
                self.sim_spec,
                self.truth,
                levels={"id": s["clusters"]},
                covariates={"trt": {"dist": "bernoulli", "p": 0.5}},
                outcomes=[{"censoring": 5.0, "records": s["records"]}],
                seed=gen,
            )
            items.append(self._write(folder, f"sim{gen}", _frame_columns(frame), rng))
        # the determinism check: one data set is also fitted from a second
        # file with its rows in another order; the documents must be equal
        repeat = next(it for it in items if it.key == f"sim{s['repeat']}")
        return items + [self._write(folder, repeat.key, repeat.ref["cols"], rng, suffix="-b")]

    @staticmethod
    def _write(folder, key, columns, rng, suffix="") -> Item:
        cols = _shuffled(columns, rng)
        path = os.path.join(folder, f"{key}{suffix}.csv")
        names = list(cols)
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*(cols[n] for n in names)):
                fh.write(",".join(format(v, ".12g") for v in row) + "\n")
        return Item(key, path, {"cols": cols})

    def fit(self, item: Item) -> Fit:
        out = item.data[:-4] + ".out"
        if os.path.exists(out):
            os.remove(out)
        argv = ["fit", "--spec", self.fit_spec, "--data", item.data, "--out", out, "--quiet"]
        start = time.perf_counter()
        try:
            code = self.cli_main(argv)
        except Exception as exc:  # a raising fit counts as failed; the run goes on
            return Fit(time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", start=start)
        seconds = time.perf_counter() - start
        # 0: converged; 2: not converged, document written; 3: input or
        # fit error, no document
        if code not in (0, 2) or not os.path.exists(out):
            return Fit(seconds, f"exit code {code} without a result document", start=start)
        with open(out, "rb") as fh:
            doc = fh.read()
        opt = parse_document(doc.decode())["optimization"]
        failed = None if code == 0 else f"exit code {code}: {opt['message']}"
        return Fit(seconds, failed, logl=float(opt["loglik"]), doc=doc, start=start)

    def check(self, item: Item, fit: Fit) -> str | None:
        import oracle

        doc = parse_document(fit.doc.decode())
        opt = doc["optimization"]
        bad = _optimum_problem(opt["optimum_verified"] == "true", float(opt["max_abs_gradient"]))
        if bad:
            return bad
        est = {name: _numbers(v)[0] for name, v in doc["estimates"].items()}
        knots = _numbers(next(iter(doc["model"]["knots"].values())))
        cols = item.ref["cols"]
        coefs = np.array([est[f"rcs{j + 1}"] for j in range(len(knots) - 1)])
        eta = est["trt"] * cols["trt"] + est["_cons"]
        exact = oracle.rp_frailty_logl(cols["t"], cols["d"], eta, cols["id"], knots, coefs, est["sd(M1)"])
        # the fit's 7-point adaptive rule against adaptive scipy quadrature:
        # on this panel the rule is off by up to 6.3e-5 per cluster, while
        # hiermix at 31 points meets the oracle to 1e-9
        tol = 2e-4 * len(np.unique(cols["id"]))
        if abs(fit.logl - exact) > tol:
            return f"logl {fit.logl!r} vs oracle {exact!r} (tolerance {tol:.3g})"
        return None


def _numbers(text: str) -> list[float]:
    return [float(v) if v != "." else math.nan for v in text.strip("[]").split(", ")]


def parse_document(text: str) -> dict:
    """Read the result document's indented ``key: value`` tree."""
    root: dict = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key, _, value = line.strip().partition(": ")
        if value == "" and key.endswith(":"):
            key, value = key[:-1], None
        while stack[-1][0] >= depth:
            stack.pop()
        node = stack[-1][1]
        if value is None:
            node[key] = {}
            stack.append((depth, node[key]))
        else:
            node[key] = value
    return root


WORKLOADS = {cls.name: (cls, size) for cls, size in ((FrailtyQmc, FRAILTY), (Nested3Aghq, NESTED), (JointEv, JOINT), (RpReplicates, RP))}
