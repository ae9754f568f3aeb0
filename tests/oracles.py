"""Helpers that only the tests use: reference survival log-likelihoods
(closed forms built on the engine's family hazards, and a Gauss-Legendre
hazard quadrature for any log-hazard function), and one-shot marginal
log-likelihoods and profiles from a fresh ``LikelihoodEvaluator``.
"""

from __future__ import annotations

import numpy as np

from hiermix.dsl import FamilySpec
from hiermix.families import gauss_legendre, make_family
from hiermix.likelihood import LikelihoodEvaluator


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
