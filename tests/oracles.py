"""Helpers that only the tests use: reference per-row log-likelihoods of
the non-survival families (``scipy.stats``), reference survival
log-likelihoods (closed forms built on the engine's family hazards, and
a Gauss-Legendre hazard quadrature for any log-hazard function),
one-shot marginal log-likelihoods and profiles from a fresh
``LikelihoodEvaluator``, and mean-variance adaptation with the matrix
step at every dimension.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from hiermix.dsl import FamilySpec
from hiermix.families import gauss_legendre, make_family
from hiermix.likelihood import LikelihoodEvaluator


def family_logl(name, y, mu, anc=None, k=None):
    """``scipy.stats``' log density or mass of responses y at means mu
    under a non-survival family; ``anc`` on the natural scale: the
    Gaussian's sd, the beta's scale s (shapes mu s and (1 - mu) s), the
    negative binomial's dispersion alpha (variance mu (1 + alpha mu));
    ``k`` the binomial's trials.
    """
    if name == "gaussian":
        return stats.norm.logpdf(y, mu, anc)
    if name == "poisson":
        return stats.poisson.logpmf(y, mu)
    if name == "bernoulli":
        return stats.bernoulli.logpmf(y, mu)
    if name == "binomial":
        return stats.binom.logpmf(y, k, mu)
    if name == "beta":
        return stats.beta.logpdf(y, mu * anc, (1.0 - mu) * anc)
    if name == "negbinomial":
        return stats.nbinom.logpmf(y, 1.0 / anc, 1.0 / (1.0 + anc * mu))
    raise ValueError(f"no reference for family {name!r}")


def surv_logl(y, d, family, eta, anc=None, t0=0.0):
    """Survival log-likelihood d*log h(y) - H(y) + H(t0) for a family
    with closed-form hazards. ``anc`` is the shape/scale on the natural
    scale (Weibull/Gompertz/log-logistic gamma, log-normal sigma).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("survival times must be positive")
    t0 = np.asarray(t0, dtype=float)
    if np.any(t0 >= y):
        raise ValueError("entry times must precede event times")
    d = np.asarray(d, dtype=float)
    fam = make_family(FamilySpec(name=family))
    anc = [] if anc is None else [anc]
    out = -fam.cum_hazard(y, eta, anc)
    out = out + np.where(t0 > 0, fam.cum_hazard(np.maximum(t0, 1e-300), eta, anc), 0.0)
    event = d != 0
    if np.any(event):
        out = out + np.where(event, d * fam.log_hazard(y, eta, anc), 0.0)
    return out


def hazard_quadrature_logl(y, d, log_hazard, t0=0.0, q_gl: int = 30):
    """d*log h(y) minus the Gauss-Legendre approximation of the
    cumulative hazard over (0, y], plus the entry-time correction over
    (0, t0]. ``log_hazard(t)`` must broadcast over an array of times.
    """
    y = float(y)
    if y <= 0:
        raise ValueError("survival time must be positive")
    if t0 >= y:
        raise ValueError("entry time must precede the event time")
    nodes, weights = gauss_legendre(q_gl)

    def cumhaz(upper: float) -> float:
        if upper <= 0:
            return 0.0
        t = 0.5 * upper * (nodes + 1.0)
        h = np.exp(np.asarray(log_hazard(t), dtype=float))
        if not np.all(np.isfinite(h)):
            raise ValueError("hazard is not finite at a quadrature node")
        return 0.5 * upper * float(weights @ h)

    out = -cumhaz(y) + cumhaz(t0)
    if d:
        lh = float(np.asarray(log_hazard(np.asarray([y])), dtype=float).ravel()[0])
        out += d * lh
    return out


def marginal_logl(program, plan, theta) -> float:
    """One-shot marginal log-likelihood (fresh rules and draws)."""
    ev = LikelihoodEvaluator(program, plan)
    ev.refresh(np.asarray(theta, dtype=float))
    return ev.logl(theta)


def profile_report(program, plan, theta) -> dict:
    """The profile of a fresh evaluator after one refresh and one call."""
    ev = LikelihoodEvaluator(program, plan)
    ev.refresh(np.asarray(theta, dtype=float))
    ev.logl(theta)
    return ev.profile_report()


def adapt_locations_matrix(log_conditional, kernel, chol, grid, active, tol=1e-8, max_iter=20, start=None):
    """``integrate.adapt_locations`` with the matrix moment step (batched
    solves, eigendecomposition and Cholesky factorization) at every
    dimension, one included: the reference for its scalar step.
    """
    nodes, logw, log_std = grid
    k, r = len(active), kernel.dim
    mu = np.zeros((k, r))
    lam = np.broadcast_to(chol[None], (k, r, r)).copy()
    iters = np.zeros(k, dtype=int)
    flagged = np.zeros(k, dtype=bool)
    active = np.array(active, dtype=bool)
    if start is not None:
        warm = active & ~start[3]
        mu[warm], lam[warm] = start[0][warm], start[1][warm]
    for _ in range(max_iter):
        if not np.any(active):
            break
        x = mu[:, None, :] + np.einsum("mr,usr->ums", nodes, lam)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logpost = logw[None] + log_conditional(x) + kernel.log_density(x, chol) - log_std[None]
        finite_top = np.max(np.where(np.isfinite(logpost), logpost, -np.inf), axis=1)
        bad = ~np.isfinite(finite_top)
        w = np.exp(logpost - np.where(bad, 0.0, finite_top)[:, None])
        w = np.where(np.isfinite(w), w, 0.0)
        norm = w.sum(axis=1)
        bad |= norm <= 0
        w = w / np.where(norm > 0, norm, 1.0)[:, None]
        mu_new = np.einsum("um,umr->ur", w, x)
        centred = x - mu_new[:, None, :]
        cov = np.einsum("um,umr,ums->urs", w, centred, centred)
        ok = np.flatnonzero(active & ~bad)
        fin = ok[np.all(np.isfinite(cov[ok]), axis=(1, 2))]
        rel = np.linalg.solve(lam[fin], np.linalg.solve(lam[fin], cov[fin]).transpose(0, 2, 1))
        e, u = np.linalg.eigh(rel)
        low = e.min(axis=1) < 1.0 / 16.0
        shrunk = fin[low]
        floored = (u[low] * np.maximum(e[low], 1.0 / 16.0)[:, None, :]) @ u[low].transpose(0, 2, 1)
        cov[shrunk] = lam[shrunk] @ floored @ lam[shrunk].transpose(0, 2, 1)
        lam_new = lam.copy()
        try:
            lam_new[ok] = np.linalg.cholesky(cov[ok])
        except np.linalg.LinAlgError:
            for g in ok:
                try:
                    lam_new[g] = np.linalg.cholesky(cov[g])
                except np.linalg.LinAlgError:
                    bad[g] = True
        newly_bad = bad & active
        if np.any(newly_bad):
            mu_new[newly_bad] = 0.0
            lam_new[newly_bad] = chol
            flagged |= newly_bad
            active &= ~newly_bad
        delta = np.maximum(np.max(np.abs(mu_new - mu), axis=1), np.max(np.abs(lam_new - lam), axis=(1, 2)))
        mu = np.where(active[:, None], mu_new, mu)
        lam = np.where(active[:, None, None], lam_new, lam)
        iters[active] += 1
        active &= delta >= tol
    return mu, lam, iters, flagged, active


def record_evaluator_calls(monkeypatch) -> list:
    """Patch ``LikelihoodEvaluator.refresh``, ``derivatives`` and ``logl``
    to append their names, call by call, to the returned list.
    """
    calls = []
    for name in ("refresh", "derivatives", "logl"):

        def wrapper(self, theta, _original=getattr(LikelihoodEvaluator, name), _name=name):
            calls.append(_name)
            return _original(self, theta)

        monkeypatch.setattr(LikelihoodEvaluator, name, wrapper)
    return calls


def adaptive_exact_counts(calls: list, trace: list) -> tuple[int, int]:
    """The derivative passes and likelihood calls of an adaptive exact fit
    that converged with this trace, under ``optim.maximize``'s contract:
    a pass at the start, one after each refresh (one per accepted step)
    and one per rounding-floor test, which is a pass that does not follow
    a refresh in ``calls`` (``record_evaluator_calls``); and one ``logl``
    call per line-search point but those the rounding-floor tests gave.
    """
    floor = sum(name == "derivatives" and (i == 0 or calls[i - 1] != "refresh") for i, name in enumerate(calls))
    return 1 + len(trace) + floor, sum(h + 1 for *_, h in trace) - floor
