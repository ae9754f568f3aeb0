"""Per-observation log-likelihoods for the built-in outcome families,
Gauss-Legendre nodes for hazard quadrature, and the user-extension
hooks.

All functions broadcast over numpy arrays; the fitting engine calls
them with (rows, time, nodes)-shaped arrays, tests mostly with scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, log_ndtr

from .basis import RcsBasis, rcs_deriv, rcs_eval

__all__ = [
    "logl_gaussian",
    "logl_bernoulli",
    "logl_binomial",
    "logl_beta",
    "logl_negbin",
    "gauss_legendre",
    "RpColumns",
    "rp_logl",
    "register_user_family",
    "user_family_hooks",
    "Family",
    "make_family",
    "INVERSE_LINKS",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _check_counts(y, what: str, upper=None):
    y = np.asarray(y, dtype=float)
    if np.any(y != np.round(y)) or np.any(y < 0):
        raise ValueError(f"{what} responses must be non-negative integers")
    if upper is not None and np.any(y > upper):
        raise ValueError(f"{what} responses must not exceed {upper}")
    return y


def _result(out, *operands):
    """``out``, or a new array of the broadcast shape of the operands
    that are not None: the array an in-place form writes its result to.
    """
    if out is not None:
        return out
    return np.empty(np.broadcast(*(v for v in operands if v is not None)).shape)


def logl_gaussian(y, mu, sigma, out=None):
    """Non-positive sigma yields -inf rather than raising, so an
    optimizer probing a degenerate scale simply rejects the step.
    Written into ``out`` when it is given (the result's shape).
    """
    sigma = np.asarray(sigma, dtype=float)
    out = _result(out, y, mu, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(np.subtract(y, mu, out=out), sigma, out=out)
        half = np.multiply(0.5, z, out=np.empty_like(out))  # 0.5 * z * z needs z and 0.5 z at once
        np.multiply(half, z, out=half)
        np.subtract(-0.5 * _LOG_2PI - np.log(sigma), half, out=out)
    if not (sigma > 0).all():
        np.copyto(out, -np.inf, where=~(sigma > 0))
    return out


def logl_bernoulli(y, mu, out=None):
    """Written into ``out`` when it is given (the result's shape), which
    may be ``mu`` itself.
    """
    y = _check_counts(y, "bernoulli", upper=1)
    mu = np.asarray(mu, dtype=float)
    out = _result(out, y, mu)
    with np.errstate(divide="ignore"):
        term = np.log(mu, out=np.empty_like(out))
        np.multiply(y, term, out=term)
        np.log1p(np.negative(mu, out=out), out=out)
        return np.add(term, np.multiply(1.0 - y, out, out=out), out=out)


def logl_binomial(y, mu, k):
    y = _check_counts(y, "binomial", upper=k)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = gammaln(k + 1.0) - gammaln(y + 1.0) - gammaln(k - y + 1.0) + y * np.log(mu) + (k - y) * np.log1p(-mu)
    return out


def logl_beta(y, mu, s):
    y = np.asarray(y, dtype=float)
    if np.any((y < 0) | (y > 1)):
        raise ValueError("beta responses must lie in [0, 1]")
    s = np.asarray(s, dtype=float)
    a = mu * s
    b = s - mu * s
    with np.errstate(divide="ignore", invalid="ignore"):
        out = gammaln(s) - gammaln(a) - gammaln(b) + (a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y)
    return np.where(s > 0, out, -np.inf)


def logl_negbin(y, mu, alpha):
    """Mean-dispersion negative binomial: variance mu*(1+alpha*mu)."""
    y = _check_counts(y, "negative binomial")
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 1.0 / alpha
        logp = -np.log1p(alpha * np.asarray(mu, dtype=float))
        log1mp = np.log(alpha * mu) + logp
        out = gammaln(y + m) - gammaln(y + 1.0) - gammaln(m) + m * logp + y * log1mp
    return np.where(alpha > 0, out, -np.inf)


# ---------------------------------------------------------------------------
# Parametric survival: closed forms
# ---------------------------------------------------------------------------


def _gompertz_scaled_expm1(gamma, t):
    """(exp(gamma*t) - 1)/gamma with a series near gamma = 0."""
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    small = np.abs(gamma) < 1e-5
    g = np.where(small, 1.0, gamma)  # avoid 0/0; the branch is discarded
    with np.errstate(over="ignore"):
        exact = np.expm1(g * t) / g
    gt = gamma * t
    series = t * (1.0 + gt / 2.0 + gt * gt / 6.0)
    return np.where(small, series, exact)


# exponential, weibull and gompertz write into ``out`` when it is given
# (the result's shape); the other families return new arrays


def _surv_log_hazard(name, t, eta, anc, out=None):
    t = np.asarray(t, dtype=float)
    if name == "exponential":
        return np.add(eta, 0.0, out=_result(out, t, eta))
    if name == "weibull":
        out = np.add(eta, np.log(anc), out=_result(out, t, eta, anc))
        return np.add(out, (anc - 1.0) * np.log(t), out=out)
    if name == "gompertz":
        return np.add(eta, anc * t, out=_result(out, t, eta, anc))
    if name == "lognormal":
        z = (np.log(t) - eta) / anc
        log_pdf = -0.5 * _LOG_2PI - 0.5 * z * z - np.log(anc) - np.log(t)
        return log_pdf - log_ndtr(-z)
    if name == "loglogistic":
        log_u = (eta + np.log(t)) / anc
        with np.errstate(over="ignore"):
            return log_u - np.log(anc) - np.log(t) - np.log1p(np.exp(log_u))
    raise ValueError(f"no closed-form hazard for family {name!r}")


def _surv_cum_hazard(name, t, eta, anc, out=None):
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if name == "exponential":
            out = np.exp(eta, out=_result(out, t, eta))
            return np.multiply(out, t, out=out)
        if name == "weibull":
            out = np.exp(eta, out=_result(out, t, eta, anc))
            return np.multiply(out, t**anc, out=out)
        if name == "gompertz":
            out = np.exp(eta, out=_result(out, t, eta, anc))
            return np.multiply(out, _gompertz_scaled_expm1(anc, t), out=out)
        if name == "lognormal":
            out = np.where(t > 0, -log_ndtr(-(np.log(np.maximum(t, 1e-300)) - eta) / anc), 0.0)
            return out
        if name == "loglogistic":
            return np.where(t > 0, np.log1p(np.exp((eta + np.log(np.maximum(t, 1e-300))) / anc)), 0.0)
    raise ValueError(f"no closed-form cumulative hazard for family {name!r}")


def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1)."""
    if q < 1:
        raise ValueError("need at least one node")
    return np.polynomial.legendre.leggauss(q)


# ---------------------------------------------------------------------------
# Spline-on-log-cumulative-hazard survival model
# ---------------------------------------------------------------------------


class RpColumns:
    """Spline columns of the log cumulative-hazard model at fixed times:
    s(log y) and its derivative; with a ``log_step``, s at
    log y +/- log_step for a time-dependent eta; s(log t0) where there
    is delayed entry (t0 > 0). Built once per data set, so that
    ``rp_logl`` only multiplies them by the coefficients.
    """

    def __init__(self, basis: RcsBasis, y, t0=0.0, log_step=None):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise ValueError("survival times must be positive")
        t0 = np.asarray(t0, dtype=float)
        x = np.log(y)
        self.y = y
        self.at_y = rcs_eval(basis, x)
        self.deriv_at_y = rcs_deriv(basis, x)
        self.log_step = None if log_step is None else np.asarray(log_step, dtype=float)
        if self.log_step is not None:
            self.at_plus = rcs_eval(basis, x + self.log_step)
            self.at_minus = rcs_eval(basis, x - self.log_step)
        self.entry = t0 > 0
        self.at_t0 = rcs_eval(basis, np.log(np.where(self.entry, t0, 1.0))) if np.any(self.entry) else None


def rp_logl(cols: RpColumns, d, coefs, eta, bhaz=0.0, eta_plus=None, eta_minus=None, eta_entry=None, empty=np.empty):
    """Survival log-likelihood on the log cumulative-hazard scale:
    log H(y) = s(log y) + eta with s a restricted cubic spline, whose
    columns at the data's times are in ``cols``.

    With a time-constant eta the hazard uses the analytic spline
    derivative. For a time-dependent eta, pass eta evaluated at
    y*exp(+/-log_step) via ``eta_plus``/``eta_minus`` (and at the entry
    time via ``eta_entry``), with ``cols`` built for that log_step; the
    log-time derivative is then a central difference. ``bhaz`` is an
    expected reference hazard added to the event hazard (zero when not
    modelling excess hazard).

    ``coefs`` is the coefficient vector, or a function that maps spline
    columns to their product with it (the engine lays the products of
    several parameter vectors over their node columns).

    Returns -inf where the total hazard at an event time is
    non-positive, so an optimizer can reject the step. The result and
    its intermediate arrays come from ``empty(shape, dtype=float)``
    (``np.empty``, or an evaluation's ``EvalContext.empty``) and are
    written in place, with the operations, in the order, of the
    new-array form.
    """
    d = np.asarray(d, dtype=float)
    if callable(coefs):
        times = coefs
    else:
        coefs = np.asarray(coefs, dtype=float)

        def times(a):
            return a @ coefs

    def plus(a, b):  # a + b in an array of its own
        return np.add(a, b, out=empty(np.broadcast_shapes(np.shape(a), np.shape(b))))

    H = plus(times(cols.at_y), eta)  # log H, then H
    with np.errstate(over="ignore"):
        np.exp(H, out=H)
    if eta_plus is not None:
        if cols.log_step is None:
            raise ValueError("time-dependent eta needs spline columns built with a log_step")
        f_plus = plus(times(cols.at_plus), eta_plus)
        f_minus = plus(times(cols.at_minus), eta_minus)
        dF = empty(np.broadcast_shapes(f_plus.shape, f_minus.shape, cols.log_step.shape))
        np.divide(np.subtract(f_plus, f_minus, out=dF), 2.0 * cols.log_step, out=dF)
    else:
        dF = times(cols.deriv_at_y)
    entry = None
    if cols.at_t0 is not None:
        entry = plus(times(cols.at_t0), eta if eta_entry is None else eta_entry)
        with np.errstate(over="ignore"):
            np.exp(entry, out=entry)
    shapes = [H.shape, np.shape(dF), np.shape(cols.y), np.shape(bhaz), d.shape]
    if entry is not None:
        shapes += [entry.shape, np.shape(cols.entry)]
    out = empty(np.broadcast_shapes(*shapes))
    # hazard h(y) = H(y) * dF/dlog(y) / y, plus bhaz; the event term
    # d log(max(h, 1e-300)) where h > 0, else -inf
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(H, dF, out=out)
        np.divide(out, cols.y, out=out)
        np.add(out, bhaz, out=out)
        positive = np.greater(out, 0.0, out=empty(out.shape, bool))
        np.log(np.maximum(out, 1e-300, out=out), out=out)
        np.copyto(out, -np.inf, where=np.logical_not(positive, out=positive))
    np.multiply(d, out, out=out)
    np.copyto(out, 0.0, where=d == 0)
    np.subtract(out, H, out=out)
    if entry is not None:
        np.copyto(entry, 0.0, where=~cols.entry)
        np.add(out, entry, out=out)
    return out


# ---------------------------------------------------------------------------
# User-defined families
# ---------------------------------------------------------------------------

_USER_FAMILIES: dict[str, dict] = {}


def register_user_family(name=None, loglf=None, hazard=None, cumhazard=None, n_anc: int = 0):
    """Register user hooks so ``family(user, ...)`` can resolve them.

    Exactly one of ``loglf`` or a hazard pairing must be given. Hooks
    receive an evaluation context (response, linear predictors of any
    outcome, ancillary slots, times); hazard hooks additionally receive
    the times at which the hazard is needed and must return the hazard
    itself. When only the cumulative hazard is supplied, the hazard is
    recovered by numerical differentiation. Returns the FamilySpec to
    embed in a model.
    """
    from .dsl import FamilySpec

    if loglf is not None and (hazard is not None or cumhazard is not None):
        raise ValueError("give either loglf or hazard/cumhazard hooks, not both")
    if loglf is None and hazard is None and cumhazard is None:
        raise ValueError("no hook given")
    hook = loglf or hazard or cumhazard
    name = name or getattr(hook, "__name__", None)
    if not name:
        raise ValueError("anonymous hooks need an explicit name")
    _USER_FAMILIES[name] = {
        "loglf": loglf,
        "hazard": hazard,
        "cumhazard": cumhazard,
        "n_anc": n_anc,
    }
    return FamilySpec(
        name="user",
        loglf=name if loglf else None,
        hazard=name if hazard else None,
        cumhazard=name if cumhazard and not hazard else None,
        n_anc=n_anc,
        failure=None,
    )


def user_family_hooks(name: str) -> dict:
    if name not in _USER_FAMILIES:
        raise KeyError(f"no user family registered under {name!r}")
    return _USER_FAMILIES[name]


# ---------------------------------------------------------------------------
# Engine-facing family objects
# ---------------------------------------------------------------------------


INVERSE_LINKS = {
    "identity": lambda eta: eta,
    "log": np.exp,
    "logit": expit,
}


@dataclass
class Family:
    """Evaluation flavour of one outcome family.

    ``anc_info`` lists (slot name, transform, report name) for the
    ancillary parameters on the estimation scale.
    """

    name: str
    link: str = "identity"
    anc_info: tuple = ()
    is_survival: bool = False
    is_null: bool = False
    k: int | None = None
    user_loglf: object = None
    user_hazard: object = None
    user_cumhazard: object = None

    @property
    def n_anc(self) -> int:
        return len(self.anc_info)

    def inverse_link(self, eta, out=None):
        """The mean at linear predictor eta, written into ``out`` when it
        is given, except for the identity link, which returns eta itself.
        """
        if out is None or self.link == "identity":
            return INVERSE_LINKS[self.link](eta)
        return INVERSE_LINKS[self.link](eta, out=out)

    def natural_anc(self, anc_est: np.ndarray) -> list:
        out = []
        for (name, transform, _), v in zip(self.anc_info, anc_est):
            out.append(np.exp(v) if transform == "exp" else v)
        return out

    def validate_response(self, y: np.ndarray, label: str) -> None:
        try:
            if self.name == "poisson" or self.name == "negbinomial":
                _check_counts(y, self.name)
            elif self.name == "bernoulli":
                _check_counts(y, self.name, upper=1)
            elif self.name == "binomial":
                _check_counts(y, self.name, upper=self.k)
            elif self.name == "beta":
                if np.any((y < 0) | (y > 1)):
                    raise ValueError("beta responses must lie in [0, 1]")
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from None

    def logl(self, y, eta, anc, out=None):
        """Log-likelihood for non-survival families given the linear
        predictor; ``anc`` on the natural scale. Gaussian, poisson and
        bernoulli write it into ``out`` when it is given (the result's
        shape); the other families return a new array.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.name == "gaussian":  # identity link: the mean is eta
                return logl_gaussian(y, eta, anc[0], out)
            if self.name == "poisson":
                mu = np.exp(eta, out=_result(out, y, eta))
                return np.subtract(np.add(np.negative(mu, out=mu), y * eta, out=mu), gammaln(y + 1.0), out=mu)
            if self.name == "bernoulli":
                mu = expit(eta, out=_result(out, y, eta))
                return logl_bernoulli(y, mu, out=mu)
            mu = self.inverse_link(eta)
            if self.name == "binomial":
                return logl_binomial(y, mu, self.k)
            if self.name == "beta":
                return logl_beta(y, mu, anc[0])
            if self.name == "negbinomial":
                return logl_negbin(y, mu, anc[0])
        raise ValueError(f"family {self.name!r} has no direct log-likelihood")

    # survival pieces (closed forms, time-constant linear predictor)
    def log_hazard(self, t, eta, anc, out=None):
        return _surv_log_hazard(self.name, t, eta, anc[0] if anc else None, out)

    def cum_hazard(self, t, eta, anc, out=None):
        return _surv_cum_hazard(self.name, t, eta, anc[0] if anc else None, out)

    def base_log_hazard(self, t, anc):
        """log h(t) - eta for proportional-hazards families, used when a
        time-dependent linear predictor forces hazard quadrature.
        """
        t = np.asarray(t, dtype=float)
        if self.name == "exponential":
            return np.zeros_like(t)
        if self.name == "weibull":
            g = anc[0]
            return np.log(g) + (g - 1.0) * np.log(t)
        if self.name == "gompertz":
            return anc[0] * t
        raise ValueError(
            f"family {self.name!r} does not support a time-dependent linear predictor "
            "(no proportional-hazards decomposition)"
        )

    def exp_linear(self, y, anc, event=None, entry=None):
        """(A, B, C) such that the log-likelihood at a time-constant
        linear predictor eta is A + B eta - C exp(eta), for the families
        in ``EXP_LINEAR``: Poisson counts y (A = -log y!, B = y, C = 1),
        or proportional-hazards survival times y with their event
        indicators and entry times (A the log baseline hazard at event
        times, else 0; B = [event]; C the baseline cumulative hazard over
        (entry, y]).
        """
        y = np.asarray(y, dtype=float)
        if self.name == "poisson":
            return -gammaln(y + 1.0), y, np.ones_like(y)
        events = event != 0
        log_h0 = np.where(events, self.base_log_hazard(y, anc), 0.0)
        cum = self.cum_hazard(y, 0.0, anc)
        later = entry > 0
        if later.any():
            cum = cum - np.where(later, self.cum_hazard(np.where(later, entry, 1.0), 0.0, anc), 0.0)
        return log_h0, events.astype(float), cum


# families whose log-likelihood is exp-linear in eta (see ``Family.exp_linear``)
EXP_LINEAR = ("exponential", "weibull", "gompertz", "poisson")
_NO_TD = ("lognormal", "loglogistic")


def make_family(fam_spec) -> Family:
    """Build the evaluation object for a parsed family specification."""
    name = fam_spec.name
    if name == "gaussian":
        return Family(name, link="identity", anc_info=(("ln_sd", "exp", "sd(resid)"),))
    if name == "poisson":
        return Family(name, link="log")
    if name == "bernoulli":
        return Family(name, link="logit")
    if name == "binomial":
        return Family(name, link="logit", k=fam_spec.k)
    if name == "beta":
        return Family(name, link="logit", anc_info=(("ln_scale", "exp", "scale"),))
    if name == "negbinomial":
        return Family(name, link="log", anc_info=(("ln_alpha", "exp", "alpha"),))
    if name == "exponential":
        return Family(name, link="log", is_survival=True)
    if name == "weibull":
        return Family(name, link="log", is_survival=True, anc_info=(("ln_gamma", "exp", "gamma"),))
    if name == "gompertz":
        return Family(name, link="log", is_survival=True, anc_info=(("gamma", "identity", "gamma"),))
    if name == "lognormal":
        return Family(name, link="identity", is_survival=True, anc_info=(("ln_sd", "exp", "sd"),))
    if name == "loglogistic":
        return Family(name, link="log", is_survival=True, anc_info=(("ln_gamma", "exp", "gamma"),))
    if name == "rp":
        return Family(name, link="log", is_survival=True)
    if name == "null":
        return Family(name, is_null=True)
    if name == "user":
        hooks = user_family_hooks(fam_spec.loglf or fam_spec.hazard or fam_spec.cumhazard)
        n_anc = fam_spec.n_anc or hooks["n_anc"]
        fam = Family(
            name,
            link="identity",
            is_survival=fam_spec.is_survival,
            anc_info=tuple((f"anc{j + 1}", "identity", f"anc{j + 1}") for j in range(n_anc)),
        )
        fam.user_loglf = hooks["loglf"]
        fam.user_hazard = hooks["hazard"]
        fam.user_cumhazard = hooks["cumhazard"]
        return fam
    raise ValueError(f"unknown family {name!r}")
