"""Reference computations for the benchmark's correctness checks.

Everything here uses numpy and scipy only and never imports hiermix, so
a fault in the program cannot hide in the reference it is checked
against. Run ``python3 perfbench/oracle.py`` for the self-tests; each
compares one piece with a case whose answer is known in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Three-level linear mixed model: closed-form multivariate-normal marginal
# ---------------------------------------------------------------------------


def lmm3_logl(y, X, outer, inner, beta, sd_resid, sd_outer, sd_inner):
    """Marginal log-likelihood of y = X beta + u[outer] + v[inner] + e.

    Within one outer unit the responses are jointly normal with
    covariance sd_outer^2 J + sd_inner^2 Z Z' + sd_resid^2 I, where Z
    maps rows to inner units; outer units are independent.
    """
    y = np.asarray(y, dtype=float)
    resid = y - np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    total = 0.0
    for o in np.unique(outer):
        m = outer == o
        r = resid[m]
        same_inner = (inner[m][:, None] == inner[m][None, :]).astype(float)
        cov = sd_outer**2 + sd_inner**2 * same_inner + sd_resid**2 * np.eye(r.size)
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, r)
        total += -0.5 * (r.size * LOG_2PI + z @ z) - np.log(np.diag(chol)).sum()
    return float(total)


def lmm3_fit(y, X, outer, inner):
    """Maximum of ``lmm3_logl`` by BFGS over (beta, log sds).

    Returns (beta, (sd_resid, sd_outer, sd_inner), logl). The start is
    least squares with every log sd at log(0.5), away from the program's
    own starting values' code path.
    """
    X = np.asarray(X, dtype=float)
    beta0 = np.linalg.lstsq(X, y, rcond=None)[0]
    p = X.shape[1]

    def neg(par):
        return -lmm3_logl(y, X, outer, inner, par[:p], *np.exp(par[p:]))

    start = np.concatenate([beta0, np.full(3, math.log(0.5))])
    res = optimize.minimize(neg, start, method="BFGS", options={"gtol": 1e-9, "maxiter": 2000})
    return res.x[:p], tuple(np.exp(res.x[p:])), -float(res.fun)


# ---------------------------------------------------------------------------
# One-dimensional frailty integrals by adaptive quadrature
# ---------------------------------------------------------------------------


def frailty_log_density(dist: str, scale: float, df: int | None = None):
    """Log density of a mean-zero frailty b = scale * z, z normal or
    Student t with ``df`` degrees of freedom.
    """
    if dist == "normal":
        const = -0.5 * LOG_2PI - math.log(scale)
        return lambda b: const - 0.5 * (b / scale) ** 2
    const = special.gammaln((df + 1) / 2) - special.gammaln(df / 2) - 0.5 * math.log(df * math.pi) - math.log(scale)
    return lambda b: const - 0.5 * (df + 1) * math.log1p((b / scale) ** 2 / df)


def log_frailty_integral(a: float, big_b: float, log_dens, scale: float) -> float:
    """log of the integral over b of exp(a*b - big_b*exp(b)) * dens(b).

    This is one cluster's marginal for any proportional-hazards model in
    which the frailty adds to the log cumulative hazard: ``a`` is the
    cluster's event count, ``big_b`` its cumulative hazard at b = 0 and
    ``scale`` the frailty's scale. The integrand is scaled by its peak
    and integrated by ``scipy.integrate.quad`` in three pieces: a window
    of 30 curvature widths around the mode, and the two tails.
    """

    def g(b):
        if big_b == 0.0:
            return a * b + log_dens(b)
        if b > 700.0:  # the hazard term has driven the integrand to zero
            return -math.inf
        return a * b - big_b * math.exp(b) + log_dens(b)

    guess = math.log(a / big_b) if big_b > 0 and a > 0 else 0.0
    res = optimize.minimize_scalar(lambda b: -g(b), bracket=(guess - scale, guess))
    mode = float(res.x)
    peak = g(mode)
    width = 1.0 / math.sqrt(big_b * math.exp(min(mode, 700.0)) + 1.0 / scale**2)
    lo, hi = mode - 30.0 * width, mode + 30.0 * width

    def f(b):
        v = g(b) - peak
        return math.exp(v) if v > -745.0 else 0.0

    opts = dict(epsabs=0.0, epsrel=1e-11, limit=200)
    total = integrate.quad(f, lo, hi, points=[mode], **opts)[0]
    total += integrate.quad(f, -np.inf, lo, **opts)[0] + integrate.quad(f, hi, np.inf, **opts)[0]
    return peak + math.log(total)


def clustered_ph_logl(cluster, d, log_cum0, log_haz0, dist, scale, df=None) -> float:
    """Marginal log-likelihood of a shared-frailty proportional-hazards
    model: per record the log cumulative hazard and log hazard at b = 0,
    with the frailty b added to both.
    """
    cluster = np.asarray(cluster)
    d = np.asarray(d, dtype=float)
    log_dens = frailty_log_density(dist, scale, df)
    order = np.argsort(cluster, kind="stable")
    cl, dd = cluster[order], d[order]
    lc, lh = np.asarray(log_cum0)[order], np.asarray(log_haz0)[order]
    starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
    stops = np.r_[starts[1:], cl.size]
    total = 0.0
    for s, e in zip(starts, stops):
        a = float(dd[s:e].sum())
        const = float((dd[s:e] * lh[s:e]).sum())
        big_b = float(np.exp(lc[s:e]).sum())
        total += const + log_frailty_integral(a, big_b, log_dens, scale)
    return total


def weibull_frailty_logl(t, d, eta, cluster, gamma, dist, scale, df=None) -> float:
    """Weibull proportional hazards, H(t) = exp(eta + b) t^gamma, with a
    normal or t cluster frailty b of the given scale.
    """
    t = np.asarray(t, dtype=float)
    log_cum0 = eta + gamma * np.log(t)
    log_haz0 = eta + math.log(gamma) + (gamma - 1.0) * np.log(t)
    return clustered_ph_logl(cluster, d, log_cum0, log_haz0, dist, scale, df)


# ---------------------------------------------------------------------------
# Flexible parametric (Royston-Parmar) model, own spline code
# ---------------------------------------------------------------------------


def rcs_columns(x, knots):
    """Restricted cubic spline basis of x and its derivative: the first
    column is x, then one truncated-power column per interior knot,
    linear beyond the boundary knots.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(knots, dtype=float)
    kmin, kmax = k[0], k[-1]
    cols, dcols = [x], [np.ones_like(x)]
    for kj in k[1:-1]:
        lam = (kmax - kj) / (kmax - kmin)
        p = [np.clip(x - c, 0.0, None) for c in (kj, kmin, kmax)]
        cols.append(p[0] ** 3 - lam * p[1] ** 3 - (1.0 - lam) * p[2] ** 3)
        dcols.append(3.0 * (p[0] ** 2 - lam * p[1] ** 2 - (1.0 - lam) * p[2] ** 2))
    return np.stack(cols, axis=-1), np.stack(dcols, axis=-1)


def rp_record_terms(t, eta, knots, coefs):
    """log H and log h at b = 0 for log H(t) = s(log t) + eta."""
    logt = np.log(np.asarray(t, dtype=float))
    basis, dbasis = rcs_columns(logt, knots)
    log_cum = basis @ coefs + eta
    slope = dbasis @ coefs
    with np.errstate(divide="ignore", invalid="ignore"):
        log_haz = log_cum + np.log(slope) - logt
    return log_cum, log_haz


def rp_frailty_logl(t, d, eta, cluster, knots, coefs, scale) -> float:
    """Spline log cumulative-hazard model with a normal cluster frailty."""
    log_cum, log_haz = rp_record_terms(t, eta, knots, coefs)
    return clustered_ph_logl(cluster, d, log_cum, log_haz, "normal", scale)


# ---------------------------------------------------------------------------
# Joint longitudinal-survival model through the expected value
# ---------------------------------------------------------------------------


def _gauss_legendre01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


class JointEvOracle:
    """Weibull survival with log hazard trt*b_trt + c + a1*m(t), where
    m(t) = c_l + slope*t + u1 + u2*t is the current expected value of a
    Gaussian longitudinal outcome with random intercept u1 and slope u2.

    Each subject's marginal is a Gauss-Hermite rule centred at the
    posterior mode and scaled by the curvature there. The cumulative
    hazard is a Gauss-Legendre rule on H(T) = T^gamma * integral over
    v in (0,1) of exp(c + a1*m(T v^(1/gamma))) dv, a substitution that
    removes the t^(gamma-1) endpoint behaviour.
    """

    def __init__(self, gh_points: int = 20, gl_points: int = 64):
        gx, gw = np.polynomial.hermite.hermgauss(gh_points)
        g1, g2 = np.meshgrid(gx, gx, indexing="ij")
        self.nodes = np.stack([g1.ravel(), g2.ravel()], axis=1)  # (Q^2, 2)
        lw = np.log(gw)
        self.log_w = (lw[:, None] + lw[None, :]).ravel() + (self.nodes**2).sum(axis=1)
        self.v, self.vw = _gauss_legendre01(gl_points)

    def subject_log_joint(self, u, subj, par):
        """log f(y, T | u) + log prior(u) for u of shape (..., 2)."""
        u1, u2 = u[..., 0], u[..., 1]
        t_obs, y_obs, stime, died, trt = subj
        # longitudinal part
        mean = par["c_l"] + par["slope"] * t_obs + u1[..., None] + u2[..., None] * t_obs
        z = (y_obs - mean) / par["sd_e"]
        ll = (-0.5 * LOG_2PI - math.log(par["sd_e"]) - 0.5 * z * z).sum(axis=-1)
        # survival part
        g = par["gamma"]
        lin = par["b_trt"] * trt + par["c_s"] + par["a1"] * par["c_l"]
        rate = par["a1"] * (par["slope"] + u2)
        lin_u = lin + par["a1"] * u1
        times = stime * self.v ** (1.0 / g)
        cum = stime**g * (np.exp(lin_u[..., None] + rate[..., None] * times) @ self.vw)
        log_h = lin_u + rate * stime + math.log(g) + (g - 1.0) * math.log(stime)
        ll = ll + died * log_h - cum
        # prior
        for val, sd in ((u1, par["sd_u1"]), (u2, par["sd_u2"])):
            ll = ll - 0.5 * LOG_2PI - math.log(sd) - 0.5 * (val / sd) ** 2
        return ll

    def subject_logl(self, subj, par) -> float:
        f = lambda u: -float(self.subject_log_joint(np.asarray(u, dtype=float), subj, par))
        mode = optimize.minimize(f, np.zeros(2), method="BFGS", options={"gtol": 1e-10}).x
        step = 1e-4
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i] * step, np.eye(2)[j] * step
                hess[i, j] = (f(mode + ei + ej) - f(mode + ei - ej) - f(mode - ei + ej) + f(mode - ei - ej)) / (
                    4 * step * step
                )
        cov = np.linalg.inv(0.5 * (hess + hess.T))
        chol = np.linalg.cholesky(cov)
        u = mode + math.sqrt(2.0) * self.nodes @ chol.T
        vals = self.subject_log_joint(u, subj, par) + self.log_w
        return float(special.logsumexp(vals) + math.log(2.0) + np.log(np.diag(chol)).sum())

    def logl(self, subjects, par) -> float:
        return math.fsum(self.subject_logl(s, par) for s in subjects)


# ---------------------------------------------------------------------------
# Self-tests against known answers
# ---------------------------------------------------------------------------


def _self_test() -> None:
    from scipy import stats

    rng = np.random.default_rng(7)
    # 1. MVN marginal against scipy's multivariate normal
    outer = np.repeat([1, 2], 6)
    inner = np.repeat([1, 2, 3, 4], 3)
    X = np.column_stack([rng.normal(size=12), np.ones(12)])
    y = rng.normal(size=12)
    beta, sds = np.array([0.3, -0.2]), (0.7, 1.1, 0.4)
    ref = 0.0
    for o in (1, 2):
        m = outer == o
        same = (inner[m][:, None] == inner[m][None, :]).astype(float)
        cov = sds[1] ** 2 + sds[2] ** 2 * same + sds[0] ** 2 * np.eye(int(m.sum()))
        ref += stats.multivariate_normal(X[m] @ beta, cov).logpdf(y[m])
    assert abs(lmm3_logl(y, X, outer, inner, beta, *sds) - ref) < 1e-10
    # the BFGS maximum is stationary: no coordinate step improves it
    b_hat, sd_hat, top = lmm3_fit(y, X, outer, inner)
    for i in range(2):
        for h in (1e-4, -1e-4):
            bb = b_hat.copy()
            bb[i] += h
            assert lmm3_logl(y, X, outer, inner, bb, *sd_hat) <= top + 1e-12
    # 2. frailty integral: a normal frailty and no hazard gives E[exp(a b)]
    dens = frailty_log_density("normal", 0.6)
    assert abs(log_frailty_integral(2.0, 0.0, dens, 0.6) - 0.5 * (2.0 * 0.6) ** 2) < 1e-9
    # a t density integrates to one
    assert abs(log_frailty_integral(0.0, 0.0, frailty_log_density("t", 0.8, 5), 0.8)) < 1e-9
    # a vanishing frailty recovers the plain Weibull log-likelihood
    t = rng.uniform(0.2, 3.0, 8)
    d = (rng.random(8) < 0.6).astype(float)
    eta = rng.normal(size=8) * 0.3
    plain = float((d * (eta + math.log(1.3) + 0.3 * np.log(t)) - np.exp(eta) * t**1.3).sum())
    tiny = weibull_frailty_logl(t, d, eta, np.arange(8), 1.3, "normal", 1e-5)
    assert abs(tiny - plain) < 1e-7
    # 3. a two-knot spline is the Weibull model with gamma = coefficient
    lc, lh = rp_record_terms(t, eta, (0.0, 1.0), np.array([1.3]))
    assert np.allclose(lc, eta + 1.3 * np.log(t)) and np.allclose(lh, eta + math.log(1.3) + 0.3 * np.log(t))
    # the spline derivative matches a central difference of the basis
    knots = (-1.0, 0.0, 0.5, 1.5)
    x = np.linspace(-2.0, 2.0, 9)
    b_plus, _ = rcs_columns(x + 1e-6, knots)
    b_minus, _ = rcs_columns(x - 1e-6, knots)
    _, db = rcs_columns(x, knots)
    assert np.allclose((b_plus - b_minus) / 2e-6, db, atol=1e-6)
    # 4. joint model with no association: Gaussian closed form plus the
    # Weibull likelihood of a time-constant hazard
    par = dict(c_l=1.0, slope=0.3, sd_e=0.4, sd_u1=0.8, sd_u2=0.3, b_trt=-0.3, c_s=-1.5, a1=0.0, gamma=1.2)
    tt = np.array([0.0, 0.5, 1.0, 2.0])
    yy = 1.0 + 0.3 * tt + rng.normal(size=4) * 0.5
    subj = (tt, yy, 1.7, 1.0, 1.0)
    z = np.column_stack([np.ones(4), tt])
    cov = z @ np.diag([0.8**2, 0.3**2]) @ z.T + 0.4**2 * np.eye(4)
    ref = stats.multivariate_normal(1.0 + 0.3 * tt, cov).logpdf(yy)
    lin = -0.3 - 1.5
    ref += lin + math.log(1.2) + 0.2 * math.log(1.7) - math.exp(lin) * 1.7**1.2
    assert abs(JointEvOracle().subject_logl(subj, par) - ref) < 1e-9
    print("oracle self-tests passed")


if __name__ == "__main__":
    _self_test()
