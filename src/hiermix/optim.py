"""Newton-Raphson maximization of the marginal log-likelihood with
finite-difference or exact score and Hessian, starting values, and the
reported fit results (estimates, delta-method standard errors,
diagnostics).

An objective maps a (p,) parameter vector to a float. The probe points
of one gradient (2q) or Hessian (q(q+1)) of the q free slots are built
first and evaluated one vector at a time, through one map; a non-finite
value halves every step and evaluates the probes again. Slots pinned
during maximization are not probed. Threads belong to ``maximize``,
whose map spreads the probes over one pool. Where the model
gives its log-likelihood, exact score and information in one pass,
``maximize`` takes every derivative from it instead (its
``derivatives``), and calls the objective only at the line-search points
of a fit whose refreshes change the objective.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dsl import _integer

if TYPE_CHECKING:
    from .likelihood import IntegrationPlan

__all__ = [
    "FitError",
    "SingularDesignError",
    "fd_gradient",
    "fd_hessian",
    "maximize",
    "MaxResult",
    "initial_values",
    "FitResult",
    "build_fit_result",
]

_EPS = np.finfo(float).eps
_GRAD_STEP = _EPS ** (1.0 / 3.0)
# Newton convergence: relative objective change and scaled gradient
# below these; step halvings tried before "no ascent step found"
_LOGL_TOL = 1e-7
_GRAD_TOL = 1e-5
_MAX_HALVINGS = 16
_HESS_STEP = _EPS**0.25
# halvings of every finite-difference step before a non-finite probe
# value ends the fit
_MAX_SHRINKS = 8
_Z95 = 1.959963984540054


class FitError(RuntimeError):
    pass


class SingularDesignError(FitError):
    pass


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _thread_pool(threads: int):
    """A pool of ``threads`` workers, kept for a whole fit so that no
    objective call starts threads of its own.
    """
    # imported here: concurrent.futures loads logging, which adds about
    # 7 ms and 0.4 MB to every import of hiermix
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=threads)


def _finite_probes(objective, points_at, mapper):
    """The objective at each of the points ``points_at(scale)``, mapped by
    ``mapper``, for scale 1, or, while a value is not finite, for the
    scale halved, at most ``_MAX_SHRINKS`` times. Returns (values, scale).
    """
    scale = 1.0
    for _ in range(_MAX_SHRINKS + 1):
        vals = np.array(list(mapper(objective, points_at(scale))), dtype=float)
        if np.all(np.isfinite(vals)):
            return vals, scale
        scale *= 0.5
    raise FitError("objective is not finite near the finite-difference probe points")


def fd_gradient(objective, theta, free=None, mapper=map) -> np.ndarray:
    """Central-difference gradient, step cbrt(eps)*max(|theta_i|, 1).

    Only the slots set in the boolean mask ``free`` (default: all) are
    probed; the others' entries are 0. The 2 probe points per free slot
    are evaluated one at a time through ``mapper``; a non-finite value
    halves every step (see ``_finite_probes``).
    """
    theta = np.asarray(theta, dtype=float)
    idx = np.arange(len(theta)) if free is None else np.flatnonzero(free)
    steps = _GRAD_STEP * np.maximum(np.abs(theta[idx]), 1.0)
    ups = 2 * np.arange(len(idx))

    def points_at(scale):
        points = np.repeat(theta[None], 2 * len(idx), axis=0)
        points[ups, idx] += scale * steps
        points[ups + 1, idx] -= scale * steps
        return points

    vals, scale = _finite_probes(objective, points_at, mapper)
    grad = np.zeros(len(theta))
    grad[idx] = (vals[0::2] - vals[1::2]) / (2.0 * (scale * steps))
    return grad


def fd_hessian(objective, theta, f0=None, free=None, near=None, mapper=map) -> np.ndarray:
    """Symmetric Hessian from the seven-point formula (Abramowitz &
    Stegun 1964, 25.3), accurate to O(h^2).

    The formula differences along q directions u_k of the q free slots
    (see ``fd_gradient``; the other rows and columns are 0), with step
    h = eps^(1/4) in the scaled coordinates theta_i / max(|theta_i|, 1):
    the axes, or, given ``near`` (a Hessian from a nearby point), the
    eigenvectors of its scaled free block. The q(q+1) probe points are
    the 2q axis points theta +- h u_k and, for each pair, the corners
    theta + h (u_k + u_l) and theta - h (u_k + u_l); the axis points
    serve the diagonal and every cross term. The corners leave an error
    h^2 f_kkll / 4 in each cross term, which does not cancel along the
    nearly flat direction of a ridge when the ridge lies across the
    axes; along the eigenvectors the function is nearly separable and
    the term is small. The points are evaluated as ``fd_gradient``'s
    are, under its non-finite rule.
    """
    theta = np.asarray(theta, dtype=float)
    if f0 is None:
        f0 = objective(theta)
    idx = np.arange(len(theta)) if free is None else np.flatnonzero(free)
    q = len(idx)
    unit = np.maximum(np.abs(theta[idx]), 1.0)
    basis = np.eye(q) if near is None else np.linalg.eigh(near[np.ix_(idx, idx)] * np.outer(unit, unit))[1]
    rows, cols = np.tril_indices(q, -1)  # the pairs k > l of directions
    n_axis, n_pairs = 2 * q, len(rows)
    signs = np.zeros((n_axis + 2 * n_pairs, q))  # steps in units of h along the directions
    axis = np.arange(q)
    signs[2 * axis, axis] = 1.0
    signs[2 * axis + 1, axis] = -1.0
    corners = n_axis + 2 * np.arange(n_pairs)
    for a in (rows, cols):
        signs[corners, a] = 1.0
        signs[corners + 1, a] = -1.0
    directions = (unit[:, None] * basis).T

    def points_at(scale):
        points = np.repeat(theta[None], len(signs), axis=0)
        points[:, idx] += (scale * _HESS_STEP * signs) @ directions
        return points

    vals, scale = _finite_probes(objective, points_at, mapper)
    h = scale * _HESS_STEP
    up, dn = vals[0:n_axis:2], vals[1:n_axis:2]
    fpp, fmm = vals[n_axis::2], vals[n_axis + 1 :: 2]
    sub = np.empty((q, q))
    sub[axis, axis] = (up - 2.0 * f0 + dn) / (h * h)
    # each bracket subtracts values of nearby points before the sums
    cross = ((fpp - up[rows]) - (up[cols] - f0)) + ((fmm - dn[rows]) - (dn[cols] - f0))
    sub[rows, cols] = sub[cols, rows] = cross / (2.0 * h * h)
    # back to theta: H = B' sub B with B = basis' diag(1 / unit)
    back = basis.T / unit
    block = back.T @ sub @ back
    hess = np.zeros((len(theta), len(theta)))
    hess[np.ix_(idx, idx)] = 0.5 * (block + block.T)
    return hess


# ---------------------------------------------------------------------------
# Newton-Raphson
# ---------------------------------------------------------------------------


@dataclass
class MaxResult:
    theta: np.ndarray
    logl: float
    grad: np.ndarray
    hessian: np.ndarray
    iterations: int
    converged: bool
    message: str
    optimum_verified: bool
    free: np.ndarray  # boolean mask of the slots not pinned
    trace: list = field(default_factory=list)  # (iteration, logl, max scaled grad, halvings)


def _neg_chol(hess, free):
    """Cholesky of the negated free-block Hessian, Levenberg-regularized
    until positive definite. Returns (chol, tau used).
    """
    b = -hess[np.ix_(free, free)]
    tau = 0.0
    eye = np.eye(b.shape[0])
    for _ in range(80):
        try:
            return np.linalg.cholesky(b + tau * eye), tau
        except np.linalg.LinAlgError:
            tau = 1e-8 if tau == 0.0 else 2.0 * tau
    raise FitError("cannot regularize the Hessian to a definite matrix")


def maximize(
    objective,
    theta0,
    refresh=None,
    max_iter: int = 300,
    free_mask=None,
    clamp=None,
    monitor=None,
    threads: int = 1,
    derivatives=None,
) -> MaxResult:
    """Maximize by Newton steps with step halving.

    ``refresh`` (e.g. quadrature re-adaptation) runs once per iteration,
    not per objective call, keeping the objective smooth within one
    iteration; it returns whether it changed the objective, and only then
    is the objective re-evaluated at the new point. Convergence needs the
    relative objective change below ``_LOGL_TOL`` and
    max_i |g_i|*max(|theta_i|, 1) below ``_GRAD_TOL``; the final Hessian
    must additionally be negative definite for the optimum to be flagged
    as verified. The final gradient and Hessian are reused from the last
    iteration when it computed them at the returned point. Otherwise the
    final Hessian, which gives the standard errors, is probed along the
    eigenvectors of the last Newton Hessian (``fd_hessian``, ``near``),
    so that it stays accurate along a nearly flat ridge; the Newton
    Hessians themselves are probed along the axes. Only the
    slots set in ``free_mask`` move and are probed; the derivatives'
    entries of the others are 0. With ``threads`` > 1, the probes of each
    gradient or Hessian are evaluated one objective call each on one pool
    of ``threads`` workers kept for the whole fit. A Newton Hessian that
    no Levenberg shift makes negative definite, or a gradient or Hessian
    whose probes stay non-finite (``_finite_probes``),
    ends the fit, not converged, with the error as its message, at the
    last parameter vector; a derivative it did not compute there is NaN,
    so the optimum is not verified.

    ``derivatives``, when given, maps a vector to (objective, score,
    information), all exact (``LikelihoodEvaluator.derivatives``), and
    replaces both finite differences; its objective must equal
    ``objective``'s bit for bit. The latest pass is kept, and every
    gradient and Hessian, the final ones too, comes from it. Which
    values come from a pass follows from the first refresh's answer.
    Where refreshes change the objective (adaptive quadrature), each
    refresh discards the pass, so a pass at an accepted step would be
    thrown away: passes are taken at the start, after each refresh and
    by the rounding-floor rule below, and every other line-search point
    is one ``objective`` call. A fit then takes one pass at the start,
    one per refresh and one per rounding-floor test, and one objective
    call per line-search point but the rule's. Where they do not (no
    ``refresh``, QMC, non-adaptive quadrature), each line-search point
    is a pass, whose accepted one gives the next iteration's gradient
    and Hessian: a fit takes one pass at the start and one per
    line-search point (an accepted step or a halving), and never calls
    ``objective``. ``near`` is not used and no thread pool is started.
    Pinned slots' entries are 0, as on the finite-difference path. A
    score or information that is not finite where the fit needs it as
    a gradient or Hessian ends the fit, not converged, as a non-finite
    probe does; a line-search point whose value is not finite is
    halved, as on the finite-difference path.

    One rule holds on the exact path only, for a step whose gain is below
    what the objective's rounding resolves. When the predicted gain g's/2
    of the Newton step s is below 64 eps max(|f|, 1), the full step is
    taken if its value is within that same bound of f and its exact
    scaled gradient is smaller than at theta, before any halving; its
    pass gives the line search's first point, which then costs nothing
    more, and the step is halved only if it fails. Along a direction whose
    information is large, such as a spline coefficient's, the stopping
    rule's gradient can leave a gain of about 1e-16, which f cannot show,
    and only the exact gradient can tell that the step still descends
    toward the optimum. The finite-difference path ends "no ascent step
    found" there, since its gradient carries truncation error of that
    size.
    """
    threads, max_iter = _integer(threads, "threads"), _integer(max_iter, "max_iter")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    theta = np.asarray(theta0, dtype=float).copy()
    p = len(theta)
    free = np.ones(p, dtype=bool) if free_mask is None else np.asarray(free_mask, dtype=bool)
    if clamp is not None:
        theta = clamp(theta)
    latest = {}  # the latest exact pass: vector bytes -> (objective, score, information)

    def value(th):
        if derivatives is None:
            return objective(th)
        key = th.tobytes()
        if key not in latest:
            latest.clear()
            latest[key] = derivatives(th)
        return latest[key][0]

    def search_value(th):
        """A line-search point's value: without a pass where the next
        refresh would discard it."""
        if changing and derivatives is not None and th.tobytes() not in latest:
            return objective(th)
        return value(th)

    def exact(th):
        value(th)
        _, score, info = latest[th.tobytes()]
        if not (np.all(np.isfinite(score)) and np.all(np.isfinite(info))):
            raise FitError("the exact score or information is not finite")
        pinned = ~free
        score, hess = np.where(pinned, 0.0, score), -info
        hess[pinned] = hess[:, pinned] = 0.0
        return score, hess

    def scaled_gradient(grad, th):
        return np.max(np.abs(grad[free]) * np.maximum(np.abs(th[free]), 1.0)) if free.any() else 0.0

    def floor_step(th, f, grad, step, scaled):
        """On the exact path: (value, vector) of the full Newton step when
        its predicted gain is below what f resolves, its value is within
        that of f and its exact scaled gradient is smaller; else
        (None, None).
        """
        noise = 64.0 * _EPS * max(abs(f), 1.0)
        if derivatives is not None and 0.5 * float(grad[free] @ step[free]) < noise:
            cand = th + step if clamp is None else clamp(th + step)
            val = value(cand)
            score = latest[cand.tobytes()][1]
            if abs(val - f) <= noise and np.all(np.isfinite(score)) and scaled_gradient(score, cand) < scaled:
                return val, cand
        return None, None

    changing = refresh is not None and bool(refresh(theta))
    f = value(theta)
    if not np.isfinite(f):
        raise FitError("objective is not finite at the starting values")

    with _thread_pool(threads) if threads > 1 and derivatives is None else nullcontext() as pool:
        mapper = map if pool is None else pool.map

        def gradient(th):
            return fd_gradient(objective, th, free, mapper) if derivatives is None else exact(th)[0]

        def hessian(th, f0, near=None):
            return fd_hessian(objective, th, f0, free, near, mapper) if derivatives is None else exact(th)[1]

        trace = []
        rel_change = np.inf
        converged = False
        message = "maximum iterations reached"
        it = 0
        grad = hess = None  # derivatives at theta, when the loop has them
        last = None  # the latest Newton Hessian
        try:
            for it in range(1, max_iter + 1):
                grad = gradient(theta)
                scaled = scaled_gradient(grad, theta)
                if rel_change < _LOGL_TOL and scaled < _GRAD_TOL:
                    converged = True
                    message = "converged"
                    break
                hess = last = hessian(theta, f)
                chol, tau = _neg_chol(hess, free)
                step_free = np.linalg.solve(chol.T, np.linalg.solve(chol, grad[free]))
                step = np.zeros(p)
                step[free] = step_free
                halvings = 0
                alpha = 1.0
                f_new, theta_new = floor_step(theta, f, grad, step, scaled)
                while f_new is None and halvings <= _MAX_HALVINGS:
                    cand = theta + alpha * step
                    if clamp is not None:
                        cand = clamp(cand)
                    val = search_value(cand)
                    if np.isfinite(val) and val > f:
                        f_new, theta_new = val, cand
                        break
                    alpha *= 0.5
                    halvings += 1
                if f_new is None:
                    if scaled < _GRAD_TOL:
                        converged = True
                        message = "converged (no ascent step at a stationary point)"
                    else:
                        message = "no ascent step found"
                    break
                rel_change = abs(f_new - f) / max(abs(f_new), 1.0)
                theta, f = theta_new, f_new
                grad = hess = None
                if refresh is not None and refresh(theta):
                    latest.clear()
                    f = value(theta)
                trace.append((it, f, scaled, halvings))
                if monitor is not None:
                    monitor(it, f, scaled, halvings)
            if grad is None:
                grad = gradient(theta)
            if hess is None:
                hess = hessian(theta, f, last)
        except FitError as exc:  # from _finite_probes, _neg_chol or an exact pass
            converged, message = False, str(exc)
    grad = np.full(p, np.nan) if grad is None else grad
    hess = np.full((p, p), np.nan) if hess is None else hess
    info = -hess[np.ix_(free, free)]
    verified = bool(np.isfinite(info).all())
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        verified = False
    if converged and not verified:
        message = "converged (optimum not verified: information matrix not positive definite)"
    return MaxResult(
        theta=theta,
        logl=f,
        grad=grad,
        hessian=hess,
        iterations=it,
        converged=converged,
        message=message,
        optimum_verified=verified,
        free=free,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Starting values
# ---------------------------------------------------------------------------


# largest |eta| an IRLS start may reach: a logit mean within 3.1e-7 of 0
# or 1, a log mean of 1.1e13
_IRLS_ETA_BOUND = {"logit": 15.0, "log": 30.0}


def _glm_irls(x, y, link: str, max_iter: int = 25):
    """Small iteratively reweighted least squares for the log/logit/identity
    links, enough for starting values. A step that would take any |eta|
    past ``_IRLS_ETA_BOUND`` is halved until it does not: where the data
    separate, the estimates diverge, and the start then stops at finite,
    bounded values instead of overflowing.
    """
    n, p = x.shape
    beta = np.zeros(p)
    if link == "identity":
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        return beta
    bound = _IRLS_ETA_BOUND[link]
    mu = np.clip((y + np.mean(y)) / 2.0, 1e-3, None)
    if link == "logit":
        mu = np.clip(mu, 1e-3, 1.0 - 1e-3)
    eta = np.log(mu) if link == "log" else np.log(mu / (1.0 - mu))
    for _ in range(max_iter):
        if link == "log":
            mu = np.exp(eta)
            dmu = mu
        else:
            mu = 1.0 / (1.0 + np.exp(-eta))
            dmu = mu * (1.0 - mu)
        dmu = np.maximum(dmu, 1e-10)
        z = eta + (y - mu) / dmu
        w = dmu  # canonical links: weight = dmu/deta
        wx = x * w[:, None]
        try:
            beta_new = np.linalg.solve(x.T @ wx, wx.T @ z)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(beta_new)):
            break
        eta_new = x @ beta_new
        halvings = 0
        while np.max(np.abs(eta_new)) > bound and halvings < 60:
            beta_new = beta + 0.5 * (beta_new - beta)
            eta_new = x @ beta_new
            halvings += 1
        if np.max(np.abs(eta_new)) > bound:
            break
        if np.max(np.abs(beta_new - beta)) < 1e-8:
            beta = beta_new
            break
        beta = beta_new
        eta = eta_new
    return beta


def _by_value(x, y):
    """The rows of design x and response y in order of their values."""
    order = np.lexsort((y, *x.T[::-1]))
    return x[order], y[order]


def initial_values(program) -> np.ndarray:
    """Starting values: outcome-wise fits ignoring the random effects
    (least squares / IRLS for the standard families, moment fits for the
    survival ancillaries), log-sd of every latent effect at log(0.5),
    cross terms and association coefficients at zero. Every fit and
    moment reads the rows in order of their values, so the start does not
    depend on how clusters are labelled, which orders the compiled rows.
    """
    theta = np.zeros(program.n_params)
    for co in program.outcomes:
        fam = co.family
        if fam.is_null or co.rows.size == 0:
            continue
        if fam.is_survival:
            y = co.response
            d = co.event
            t0 = co.entry
            exposure = math.fsum((y - t0).tolist())
            events = math.fsum(d.tolist())
            base_rate = math.log(max(events, 0.5) / max(exposure, 1e-12))
            if fam.name == "lognormal":
                ly = np.sort(np.log(y))
                if co.cons_slot is not None:
                    theta[co.cons_slot] = float(np.mean(ly))
                theta[co.anc_slots[0]] = math.log(max(float(np.std(ly)), 1e-3))
            elif fam.name == "loglogistic":
                if co.cons_slot is not None:
                    theta[co.cons_slot] = -math.log(max(float(np.median(y)), 1e-12))
            elif co.spec.family.name == "rp":
                theta[co.spline_slots[0]] = 1.0
                if co.cons_slot is not None:
                    theta[co.cons_slot] = base_rate
            else:
                if co.cons_slot is not None:
                    theta[co.cons_slot] = base_rate
            continue
        slots, x = co.design
        if not slots:
            continue
        _check_design(x, [program.slots[s].name for s in slots], co.label)
        x, y = _by_value(x, co.response)
        beta = _glm_irls(x, y, fam.link)
        theta[slots] = beta
        if fam.name == "gaussian":
            resid = y - x @ beta
            sigma = max(float(np.sqrt(np.mean(resid**2))), 1e-6)
            theta[co.anc_slots[0]] = math.log(sigma)
        elif fam.name == "beta":
            mbar = float(np.clip(np.mean(y), 1e-3, 1 - 1e-3))
            var = max(float(np.var(y)), 1e-6)
            s = max(mbar * (1.0 - mbar) / var - 1.0, 0.1)
            theta[co.anc_slots[0]] = math.log(s)
        elif fam.name == "negbinomial":
            mbar = max(float(np.mean(y)), 1e-6)
            var = float(np.var(y))
            alpha = max((var - mbar) / mbar**2, 0.01)
            theta[co.anc_slots[0]] = math.log(alpha)
    for co in program.outcomes:
        for cc in co.components:
            # a null-family target starts with an all-zero predictor, so a
            # zero association coefficient would sit on a stationary ray
            if cc.slots and cc.evlinks and all(program.outcomes[j].family.is_null for _, j in cc.evlinks):
                theta[cc.slots] = 1.0
    for li in program.levels:
        for j, slot in enumerate(li.re_slots):
            theta[slot] = math.log(0.5) if j < li.dim else 0.0
    return theta


def _check_design(x, names, label):
    variances = x.var(axis=0) + np.abs(x.mean(axis=0))
    dead = [names[j] for j in np.flatnonzero(variances < 1e-12)]
    if dead:
        raise SingularDesignError(f"outcome {label}: column(s) {', '.join(dead)} are identically zero")
    rank = np.linalg.matrix_rank(x)
    if rank < x.shape[1]:
        raise SingularDesignError(
            f"outcome {label}: design of ({', '.join(names)}) is rank deficient ({rank} < {x.shape[1]})"
        )


# ---------------------------------------------------------------------------
# Reported results
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    names: list[str]
    transforms: list[str]  # per-slot reporting transform tag
    theta: np.ndarray  # estimation scale
    cov: np.ndarray  # estimation scale
    logl: float
    converged: bool
    optimum_verified: bool
    iterations: int
    message: str
    grad_norm: float
    table: list[dict]  # reporting rows, natural scale where transformed
    trace: list
    settings: dict
    knots: dict
    profile: dict
    plan: IntegrationPlan  # the integration plan the fit took

    def estimate(self, name: str) -> float:
        for row in self.table:
            if row["name"] == name:
                return row["estimate"]
        raise KeyError(name)

    def se(self, name: str) -> float:
        for row in self.table:
            if row["name"] == name:
                return row["se"]
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"log-likelihood {self.logl:.6f} after {self.iterations} iterations ({self.message})"]
        width = max(len(r["name"]) for r in self.table) if self.table else 4
        lines.append(f"{'parameter':<{width}}  {'estimate':>12}  {'std.err':>12}  {'[95% conf':>12}  {'interval]':>12}")
        for r in self.table:
            se = "" if r["se"] is None else f"{r['se']:12.6g}"
            lo = "" if r["lo"] is None else f"{r['lo']:12.6g}"
            hi = "" if r["hi"] is None else f"{r['hi']:12.6g}"
            lines.append(f"{r['name']:<{width}}  {r['estimate']:12.6g}  {se:>12}  {lo:>12}  {hi:>12}")
        return "\n".join(lines)


def build_fit_result(program, plan, maxres: MaxResult, evaluator) -> FitResult:
    from .integrate import ReKernel

    theta = maxres.theta
    free = maxres.free
    # pinned slots are known constants: the covariance is the inverse of
    # the free block of the observed information, zero elsewhere, so a
    # pinned slot gets no standard error. An information matrix that is
    # not positive definite (an unverified optimum) has no inverse that
    # is a covariance: its block is NaN, and no slot gets a standard error
    block = np.ix_(free, free)
    cov = np.zeros_like(maxres.hessian)
    if maxres.optimum_verified:
        inv = np.linalg.inv(-maxres.hessian[block])
        cov[block] = 0.5 * (inv + inv.T)
    else:
        cov[block] = np.nan

    def safe_exp(x: float) -> float:
        return math.exp(min(x, 700.0))

    table = []
    for i, slot in enumerate(program.slots):
        est = theta[i]
        var = cov[i, i]
        se = math.sqrt(var) if var > 0 else None
        if slot.transform == "exp":
            nat = safe_exp(est)
            row = {
                "name": slot.report,
                "estimate": nat,
                "se": None if se is None else nat * se,  # delta method
                "lo": None if se is None else safe_exp(est - _Z95 * se),
                "hi": None if se is None else safe_exp(est + _Z95 * se),
                "scale": "exp",
            }
        else:
            row = {
                "name": slot.report,
                "estimate": est,
                "se": se,
                "lo": None if se is None else est - _Z95 * se,
                "hi": None if se is None else est + _Z95 * se,
                "scale": "identity",
            }
        table.append(row)
    # derived standard deviations and correlations for unstructured levels
    if program.spec.covariance == "unstructured":
        for li in program.levels:
            if li.dim < 2:
                continue
            kernel = ReKernel(li.dim, structure="unstructured")
            block_idx = np.asarray(li.re_slots)
            block = theta[block_idx]
            cov_block = cov[np.ix_(block_idx, block_idx)]

            def derived(b):
                chol = kernel.build_chol(b)
                sig = chol @ chol.T
                sds = np.sqrt(np.diag(sig))
                out = list(sds)
                for i in range(1, li.dim):
                    for j in range(i):
                        out.append(sig[i, j] / (sds[i] * sds[j]))
                return np.asarray(out)

            vals = derived(block)
            jac = np.empty((len(vals), len(block)))
            for j in range(len(block)):
                hstep = 1e-6 * max(1.0, abs(block[j]))
                bp, bm = block.copy(), block.copy()
                bp[j] += hstep
                bm[j] -= hstep
                jac[:, j] = (derived(bp) - derived(bm)) / (2.0 * hstep)
            dvar = np.diag(jac @ cov_block @ jac.T)
            names = [f"sd({nm})" for nm in li.latent_names]
            for i in range(1, li.dim):
                for j in range(i):
                    names.append(f"corr({li.latent_names[i]},{li.latent_names[j]})")
            for name, val, var in zip(names, vals, dvar):
                se = math.sqrt(var) if var > 0 else None
                table.append(
                    {
                        "name": name,
                        "estimate": float(val),
                        "se": se,
                        "lo": None if se is None else float(val) - _Z95 * se,
                        "hi": None if se is None else float(val) + _Z95 * se,
                        "scale": "derived",
                    }
                )
    settings = {name: lp.describe() for name, lp in plan.levels.items()}
    return FitResult(
        names=program.slot_names(),
        transforms=[s.transform for s in program.slots],
        theta=theta.copy(),
        cov=cov,
        logl=maxres.logl,
        converged=maxres.converged,
        optimum_verified=maxres.optimum_verified,
        iterations=maxres.iterations,
        message=maxres.message,
        grad_norm=float(np.max(np.abs(maxres.grad[free]), initial=0.0)),
        table=table,
        trace=maxres.trace,
        settings=settings,
        knots={k: list(v) for k, v in program.knots.items()},
        profile=evaluator.profile_report(),
        plan=plan,
    )
