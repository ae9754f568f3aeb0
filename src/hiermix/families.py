"""The built-in outcome families, stated once in ``FAMILIES``;
per-observation log-likelihoods for them, Gauss-Legendre nodes for
hazard quadrature, and the user-extension hooks.

All functions broadcast over numpy arrays; the fitting engine calls
them with (rows, time, nodes)-shaped arrays, tests mostly with scalars.
None of them writes into an array it is given. The row functions take
responses that ``Family.validate_response`` has accepted, as
``predictor.compile_program`` does for every outcome it compiles; they
do not check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import RcsBasis, rcs_deriv, rcs_eval

__all__ = [
    "logl_gaussian",
    "logl_bernoulli",
    "logl_binomial",
    "logl_beta",
    "logl_negbin",
    "gauss_legendre",
    "RpColumns",
    "log_hazard_value",
    "survival_logl",
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


def logl_gaussian(y, mu, sigma):
    """Non-positive sigma yields -inf rather than raising, so an
    optimizer probing a degenerate scale simply rejects the step.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (np.asarray(y, dtype=float) - mu) / sigma
        out = -0.5 * _LOG_2PI - np.log(sigma) - 0.5 * z * z
    if not (sigma > 0).all():
        out = np.where(sigma > 0, out, -np.inf)
    return out


def logl_bernoulli(y, mu):
    """0/1 responses y at success probability mu."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore"):
        return y * np.log(mu) + (1.0 - y) * np.log1p(-mu)


def logl_binomial(y, mu, k):
    """Success counts y in 0..k out of k trials at success probability mu."""
    from scipy.special import gammaln

    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = gammaln(k + 1.0) - gammaln(y + 1.0) - gammaln(k - y + 1.0) + y * np.log(mu) + (k - y) * np.log1p(-mu)
    return out


def logl_beta(y, mu, s):
    """Responses y in [0, 1] at mean mu and scale s: Beta(mu s, (1 - mu) s)."""
    from scipy.special import gammaln

    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    a = mu * s
    b = s - mu * s
    with np.errstate(divide="ignore", invalid="ignore"):
        out = gammaln(s) - gammaln(a) - gammaln(b) + (a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y)
    return np.where(s > 0, out, -np.inf)


def logl_negbin(y, mu, alpha):
    """Mean-dispersion negative binomial of counts y: variance mu*(1+alpha*mu)."""
    from scipy.special import gammaln

    y = np.asarray(y, dtype=float)
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
    """(exp(gamma*t) - 1)/gamma, t f0(gamma t) with f0(x) = (e^x - 1) / x
    (1 at 0). Where |gamma t| < 0.5, as for its derivatives
    (``_gompertz_scaled_expm1_derivs``), f0 is summed as its Taylor
    series, to 17 terms: at gamma = 0 the quotient is 0/0, and the switch
    on gamma t, not gamma alone, keeps the value exact at long times.
    """
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    x = gamma * t
    near = np.abs(x) < 0.5
    xs = np.where(near, x, 0.0)
    f0 = 0.0
    for n in range(16, -1, -1):  # Horner sum of f0 = sum x^n / (n + 1)!
        f0 = f0 * xs + 1.0 / math.factorial(n + 1)
    g = np.where(near, 1.0, gamma)  # avoid 0/0; the branch is discarded
    with np.errstate(over="ignore"):
        exact = np.expm1(g * t) / g
    return np.where(near, t * f0, exact)


def _gompertz_scaled_expm1_derivs(gamma, t):
    """First and second gamma-derivatives of ``_gompertz_scaled_expm1``:
    t^2 f1(gamma t) and t^3 f2(gamma t), with f1(x) = ((x - 1) e^x + 1) / x^2
    and f2(x) = ((x^2 - 2x + 2) e^x - 2) / x^3 (1/2 and 1/3 at 0). Where
    |gamma t| < 0.5, as for the value, they are summed as their Taylor
    series: the closed forms cancel to O(x^2) and O(x^3) from O(x) terms,
    and f2 would lose 6 eps / x^2 of itself, 5e-5 at x = 5e-6.
    """
    gamma = np.asarray(gamma, dtype=float)
    t = np.asarray(t, dtype=float)
    x = gamma * t
    near = np.abs(x) < 0.5
    xs = np.where(near, x, 0.0)
    # Horner sums of f1 = sum (n + 1) x^n / (n + 2)! and
    # f2 = sum (n + 1)(n + 2) x^n / (n + 3)!, n < 16
    f1 = f2 = 0.0
    for n in range(15, -1, -1):
        f1 = f1 * xs + (n + 1) / math.factorial(n + 2)
        f2 = f2 * xs + (n + 1) * (n + 2) / math.factorial(n + 3)
    g = np.where(near, 1.0, gamma)  # avoid 0/0; the branch is discarded
    gt = g * t
    with np.errstate(over="ignore", invalid="ignore"):
        grow = np.exp(gt)
        d1 = (gt * grow - np.expm1(gt)) / (g * g)
        d2 = (t * t * grow - 2.0 * d1) / g
    return np.where(near, t * t * f1, d1), np.where(near, t * t * t * f2, d2)


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


def log_hazard_value(h):
    """The log of a hazard given as a value: log(max(h, 1e-300)) where
    h > 0, and -inf where h <= 0 or h is NaN, so that an optimizer
    rejects a step to a hazard that is not positive.
    """
    h = np.asarray(h, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(h > 0.0, np.log(np.maximum(h, 1e-300)), -np.inf)


def survival_logl(log_h, bhaz, H, H0, d, entered):
    """Log-likelihood of survival rows, d log(h(y) + b) - H(y) + H(t0),
    from the log model hazard at y, ``log_h``; the expected hazard
    ``bhaz`` b of an excess-hazard model, or None; the cumulative
    hazard at y, ``H``; and the cumulative hazard at the entry time,
    ``H0``, read only where ``entered`` holds, or None when no row has
    delayed entry. ``d`` is the 0/1 event indicator.

    With no ``bhaz`` the event term is ``log_h`` itself. With one it is
    log(exp(log_h) + b), and -inf where the model hazard is not positive
    (``log_h`` -inf), whatever b. A censored row has no event term, so
    its ``log_h`` is not read.
    """
    event = log_h
    if bhaz is not None:
        with np.errstate(over="ignore", divide="ignore"):
            event = np.where(log_h == -np.inf, -np.inf, np.log(np.exp(log_h) + bhaz))
    out = np.where(d == 0, 0.0, event) - H
    if H0 is not None:
        out = np.where(entered, out + H0, out)
    return out


def rp_logl(cols: RpColumns, d, coefs, eta, bhaz=None, eta_plus=None, eta_minus=None, eta_entry=None):
    """Survival log-likelihood on the log cumulative-hazard scale:
    log H(y) = s(log y) + eta with s a restricted cubic spline, whose
    columns at the data's times are in ``cols``.

    With a time-constant eta the hazard uses the analytic spline
    derivative. For a time-dependent eta, pass eta evaluated at
    y*exp(+/-log_step) via ``eta_plus``/``eta_minus`` (and at the entry
    time via ``eta_entry``), with ``cols`` built for that log_step; the
    log-time derivative is then a central difference. ``bhaz`` is the
    expected hazard of an excess-hazard model, or None.

    The log model hazard is log H(y) + log(dF/dlog(y) / y), the second
    term following ``log_hazard_value``: -inf where dF/dlog(y) is not
    positive. Taking log H as s + eta, not as the log of H, keeps it
    finite where H underflows to 0. The row terms are those of
    ``survival_logl``.
    """
    coefs = np.asarray(coefs, dtype=float)
    log_H = cols.at_y @ coefs + eta
    with np.errstate(over="ignore"):
        H = np.exp(log_H)
    if eta_plus is not None:
        if cols.log_step is None:
            raise ValueError("time-dependent eta needs spline columns built with a log_step")
        f_plus = cols.at_plus @ coefs + eta_plus
        f_minus = cols.at_minus @ coefs + eta_minus
        dF = (f_plus - f_minus) / (2.0 * cols.log_step)
    else:
        dF = cols.deriv_at_y @ coefs
    H0 = None
    if cols.at_t0 is not None:
        with np.errstate(over="ignore"):
            H0 = np.exp(cols.at_t0 @ coefs + (eta if eta_entry is None else eta_entry))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = log_H + log_hazard_value(dF / cols.y)
    return survival_logl(log_h, bhaz, H, H0, d, cols.entry)


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


def _expit(eta):
    from scipy.special import expit

    return expit(eta)


INVERSE_LINKS = {
    "identity": lambda eta: eta,
    "log": np.exp,
    "logit": _expit,
}


@dataclass(frozen=True)
class Family:
    """One outcome family's facts and evaluation: the built-in families
    are the entries of ``FAMILIES``, completed by ``make_family``.

    ``anc_info`` lists (slot name, transform, report name) for the
    ancillary parameters on the estimation scale.
    """

    name: str
    link: str = "identity"
    anc_info: tuple = ()
    is_survival: bool = False
    ph: bool = False  # proportional hazards: log h(t) = eta + base_log_hazard(t)
    per_cluster: str | None = None  # "exp_linear" or "gaussian" (see predictor._pure_intercepts)
    response: str | None = None  # the rule of validate_response
    options: tuple = ()  # the family() options it reads, named by the FamilySpec field each sets (scale() sets none)
    is_null: bool = False
    k: int | None = None
    user_loglf: object = None
    user_hazard: object = None
    user_cumhazard: object = None

    def inverse_link(self, eta):
        """The mean at linear predictor eta (eta itself for the identity
        link).
        """
        return INVERSE_LINKS[self.link](eta)

    def natural_anc(self, anc_est: np.ndarray) -> list:
        out = []
        for (name, transform, _), v in zip(self.anc_info, anc_est):
            out.append(np.exp(v) if transform == "exp" else v)
        return out

    def validate_response(self, y: np.ndarray, label: str) -> None:
        """Raise ValueError, prefixed with ``label``, where a response
        breaks the ``response`` rule: "counts" (non-negative integers),
        "binary" (0 or 1), "trials" (0 to ``k``) or "proportion" (in [0, 1]).
        """
        try:
            if self.response == "proportion":
                if np.any((y < 0) | (y > 1)):
                    raise ValueError(f"{self.name} responses must lie in [0, 1]")
            elif self.response is not None:
                _check_counts(y, self.name, upper={"binary": 1, "trials": self.k}.get(self.response))
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from None

    def logl(self, y, eta, anc):
        """Log-likelihood for non-survival families given the linear
        predictor; ``anc`` on the natural scale.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.name == "gaussian":  # identity link: the mean is eta
                return logl_gaussian(y, eta, anc[0])
            if self.name == "poisson":
                from scipy.special import gammaln

                return -np.exp(eta) + y * eta - gammaln(y + 1.0)
            mu = self.inverse_link(eta)
            if self.name == "bernoulli":
                return logl_bernoulli(y, mu)
            if self.name == "binomial":
                return logl_binomial(y, mu, self.k)
            if self.name == "beta":
                return logl_beta(y, mu, anc[0])
            if self.name == "negbinomial":
                return logl_negbin(y, mu, anc[0])
        raise ValueError(f"family {self.name!r} has no direct log-likelihood")

    # survival pieces (closed forms, time-constant linear predictor)
    def log_hazard(self, t, eta, anc):
        """log h(t) at linear predictor eta, ``anc`` on the natural scale:
        eta + ``base_log_hazard`` for the proportional-hazards families.
        """
        t = np.asarray(t, dtype=float)
        if self.ph:
            return eta + self.base_log_hazard(t, anc)
        if self.name == "lognormal":
            from scipy.special import log_ndtr

            z = (np.log(t) - eta) / anc[0]
            return -0.5 * _LOG_2PI - 0.5 * z * z - np.log(anc[0]) - np.log(t) - log_ndtr(-z)
        if self.name == "loglogistic":
            log_u = (eta + np.log(t)) / anc[0]
            with np.errstate(over="ignore"):
                return log_u - np.log(anc[0]) - np.log(t) - np.log1p(np.exp(log_u))
        raise ValueError(f"no closed-form hazard for family {self.name!r}")

    def cum_hazard(self, t, eta, anc):
        """H(t) at linear predictor eta, ``anc`` on the natural scale:
        exp(eta) times the baseline cumulative hazard for the
        proportional-hazards families.
        """
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.ph:
                return np.exp(eta) * self._base_cum_hazard(t, anc)
            log_t = np.log(np.maximum(t, 1e-300))
            if self.name == "lognormal":
                from scipy.special import log_ndtr

                return np.where(t > 0, -log_ndtr(-(log_t - eta) / anc[0]), 0.0)
            if self.name == "loglogistic":
                return np.where(t > 0, np.log1p(np.exp((eta + log_t) / anc[0])), 0.0)
        raise ValueError(f"no closed-form cumulative hazard for family {self.name!r}")

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

    def _base_cum_hazard(self, t, anc):
        """H(t) at eta = 0 for proportional-hazards families."""
        if self.name == "exponential":
            return t
        with np.errstate(over="ignore"):
            return t ** anc[0] if self.name == "weibull" else _gompertz_scaled_expm1(anc[0], t)

    def exp_linear(self, y, anc, event=None, entry=None, derivatives=False, spline=None):
        """(A, B, C) such that the log-likelihood at a time-constant
        linear predictor eta is A + B eta - C exp(eta), for the families
        whose ``per_cluster`` is "exp_linear": Poisson counts y (A = -log y!, B = y, C = 1);
        proportional-hazards survival times y with their event
        indicators and entry times (A the log baseline hazard at event
        times, else 0; B = [event]; C the baseline cumulative hazard over
        (entry, y], read from ``_base_cum_hazard``); or ``rp`` survival
        times without delayed entry, whose eta includes the spline
        s(log y) gamma, with ``spline`` their ``RpColumns`` and ``anc``
        the spline coefficients gamma (A = [event] log(s'(log y) gamma / y)
        by ``log_hazard_value``, B = [event], C = 1).

        With ``derivatives``, also (A', A'', C', C''), the first and
        second derivatives of A and C in the family's own parameters on
        their estimation scale, (n, r) and (n, r, r) for r of them: the
        ancillary (Weibull ``ln_gamma``, Gompertz ``gamma``) or the spline
        coefficients (``rp``, whose C' and C'' are None). Four Nones for a
        family without any.
        """
        y = np.asarray(y, dtype=float)
        if self.name == "poisson":
            from scipy.special import gammaln

            terms = -gammaln(y + 1.0), y, np.ones_like(y)
            return terms + (None,) * 4 if derivatives else terms
        events = event != 0
        if self.name == "rp":
            return _rp_exp_linear(spline, y, np.asarray(anc, dtype=float), events, derivatives)
        later = entry > 0
        t0 = np.where(later, entry, 1.0)
        entered = later.any()
        times = (y, t0) if entered else (y,)

        def over_entry(at_y, at_t0=None):  # at y less at the entry time, where there is one
            return at_y if at_t0 is None else at_y - np.where(later, at_t0, 0.0)

        if self.name == "weibull":  # ln t and t^g once per time: A = ln g + (g - 1) ln t, C = t^g
            g = anc[0]
            with np.errstate(over="ignore", invalid="ignore"):
                powers = [(np.log(t), t**g) for t in times]
            log_h0, cums = np.log(g) + (g - 1.0) * powers[0][0], [t_g for _, t_g in powers]
        else:
            log_h0, cums = self.base_log_hazard(y, anc), [self._base_cum_hazard(t, anc) for t in times]
        terms = np.where(events, log_h0, 0.0), events.astype(float), over_entry(*cums)
        if not derivatives:
            return terms
        if self.name == "exponential":
            return terms + (None,) * 4
        g = anc[0]
        if self.name == "weibull":  # in the ancillary ln(g)
            log_y = powers[0][0]
            d1a, d2a = np.where(events, 1.0 + g * log_y, 0.0), np.where(events, g * log_y, 0.0)
            derivs = []
            with np.errstate(over="ignore", invalid="ignore"):
                for log_t, t_g in powers:
                    d1 = g * t_g * log_t
                    derivs.append((d1, d1 + g * d1 * log_t))
        else:  # gompertz, ancillary g: A = g t, C = expm1(g t) / g
            d1a, d2a = np.where(events, y, 0.0), np.zeros_like(y)
            derivs = [_gompertz_scaled_expm1_derivs(g, t) for t in times]
        d1c, d2c = (over_entry(*at) for at in zip(*derivs))
        return terms + (d1a[:, None], d2a[:, None, None], d1c[:, None], d2c[:, None, None])


def _rp_exp_linear(cols: RpColumns, y, gamma, events, derivatives):
    """``Family.exp_linear`` of ``rp`` rows: with s' the spline's
    derivative columns at log y and dF = s' gamma, A = log(dF / y) at
    events, A' = s' / dF there and A'' = -A' A'^T. Each dF is summed column
    by column, so a row's value does not depend on its neighbours.
    """
    deriv = cols.deriv_at_y.reshape(y.size, -1)
    dF = deriv[:, 0] * gamma[0]
    for j in range(1, gamma.size):
        dF = dF + deriv[:, j] * gamma[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(events, log_hazard_value(dF / y), 0.0), events.astype(float), np.ones_like(y)
        if not derivatives:
            return terms
        d1a = np.where(events[:, None], deriv / dF[:, None], 0.0)
    return terms + (d1a, -d1a[:, :, None] * d1a[:, None, :], None, None)


# the options every survival family reads: its event indicator, entry
# times and expected hazard
_TIMES = ("failure", "ltrunc", "bhazard")
_PH = dict(is_survival=True, ph=True, per_cluster="exp_linear", options=_TIMES)

# Each built-in family's facts, in the order the parser lists the names.
# ``rp`` is exp-linear given its spline coefficients, where it has no
# delayed entry; "user" is completed by ``make_family`` from its hooks.
FAMILIES = {
    family.name: family
    for family in (
        Family("gaussian", anc_info=(("ln_sd", "exp", "sd(resid)"),), per_cluster="gaussian"),
        Family("poisson", "log", per_cluster="exp_linear", response="counts"),
        Family("bernoulli", "logit", response="binary"),
        Family("beta", "logit", (("ln_scale", "exp", "scale"),), response="proportion"),
        Family("binomial", "logit", response="trials", options=("k",)),
        Family("negbinomial", "log", (("ln_alpha", "exp", "alpha"),), response="counts"),
        Family("exponential", "log", **_PH),
        Family("weibull", "log", (("ln_gamma", "exp", "gamma"),), **_PH),
        Family("gompertz", "log", (("gamma", "identity", "gamma"),), **_PH),
        Family("lognormal", "identity", (("ln_sd", "exp", "sd"),), is_survival=True, options=_TIMES),
        Family("loglogistic", "log", (("ln_gamma", "exp", "gamma"),), is_survival=True, options=_TIMES),
        Family("rp", "log", is_survival=True, per_cluster="exp_linear", options=_TIMES + ("scale", "df", "knots")),
        Family("user", options=_TIMES + ("loglf", "hazard", "cumhazard", "n_anc")),
        Family("null", is_null=True),
    )
}


def make_family(fam_spec) -> Family:
    """Build the evaluation object for a parsed family specification."""
    name = fam_spec.name
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    if name != "user":
        return replace(FAMILIES[name], k=fam_spec.k)
    hooks = user_family_hooks(fam_spec.loglf or fam_spec.hazard or fam_spec.cumhazard)
    n_anc = fam_spec.n_anc or hooks["n_anc"]
    return replace(
        FAMILIES[name],
        is_survival=fam_spec.is_survival,
        anc_info=tuple((f"anc{j + 1}", "identity", f"anc{j + 1}") for j in range(n_anc)),
        user_loglf=hooks["loglf"],
        user_hazard=hooks["hazard"],
        user_cumhazard=hooks["cumhazard"],
    )
