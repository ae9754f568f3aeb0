"""Numerical integration machinery for random effects.

Gauss-Hermite rules are normalized against the standard normal kernel,
Halton sets provide deterministic quasi-Monte Carlo uniforms, and
ReKernel maps a flat parameter block to a Cholesky scale for either a
normal or a multivariate-t random-effect distribution. Mean-variance
adaptation recentres a rule on the per-cluster posterior; it places
(``place_nodes``), weighs (``log_correction``) and reduces
(``logsumexp``) the nodes with the integration's (``likelihood``) code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GhRule",
    "HaltonSet",
    "ReKernel",
    "gh_rule",
    "gh_grid",
    "halton",
    "kernel_draws",
    "Adaptation",
    "adapt_locations",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GhRule:
    """One-dimensional Gauss-Hermite rule with N(0,1) weighting.

    Weights sum to 1 and integrate x^2 to 1 exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def q(self) -> int:
        return len(self.nodes)


def gh_rule(q: int) -> GhRule:
    """Nodes/weights via the symmetric tridiagonal Jacobi matrix for the
    e^{-x^2} weight, rescaled to the standard normal kernel (nodes by
    sqrt(2), weights by 1/sqrt(pi)).
    """
    if q < 1:
        raise ValueError("need at least one quadrature point")
    if q == 1:
        return GhRule(np.zeros(1), np.ones(1))
    off = np.sqrt(np.arange(1, q) / 2.0)
    jac = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jac)
    weights = vecs[0] ** 2  # already normalized: sum of squared first components is 1
    nodes = vals * math.sqrt(2.0)
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]
    # enforce exact symmetry of the computed rule
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if q % 2 == 1:
        nodes[q // 2] = 0.0
    return GhRule(nodes, weights)


def gh_grid(rule: GhRule, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor-product grid over r dimensions: (Q^r, r) nodes, (Q^r,)
    log-weights and the standard-normal log density at the nodes.
    """
    if r == 0:
        nodes, logws = np.zeros((1, 0)), np.zeros(1)
    else:
        grids = np.meshgrid(*([rule.nodes] * r), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        logw = np.log(rule.weights)
        wgrids = np.meshgrid(*([logw] * r), indexing="ij")
        logws = sum(g.ravel() for g in wgrids)
    return nodes, logws, -0.5 * r * _LOG_2PI - 0.5 * np.sum(nodes * nodes, axis=-1)


def _first_primes(r: int) -> list[int]:
    primes: list[int] = []
    n = 2
    while len(primes) < r:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(len(indices), dtype=float)
    denom = np.ones(len(indices), dtype=float)
    # peel digits until every index is exhausted
    rem = indices.astype(np.int64).copy()
    while np.any(rem > 0):
        denom *= base
        rem, digit = np.divmod(rem, base)
        out += digit / denom
    return out


@dataclass(frozen=True)
class HaltonSet:
    """Deterministic low-discrepancy uniforms in (0,1)^r."""

    values: np.ndarray  # (M, r)
    bases: tuple[int, ...]
    skip: int

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]


def halton(m: int, r: int, skip: int = 0) -> HaltonSet:
    """First m Halton points in r dimensions, bases the first r primes,
    starting after ``skip`` burn-in points.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 draws and r >= 1 dimensions")
    if skip < 0:
        raise ValueError(f"the Halton skip must be at least 0, got {skip}")
    bases = _first_primes(r)
    idx = np.arange(skip + 1, skip + m + 1)
    cols = [_radical_inverse(idx, b) for b in bases]
    return HaltonSet(np.stack(cols, axis=-1), tuple(bases), skip)


class ReKernel:
    """Random-effect distribution at one level.

    Parameterized by a Cholesky factor with log-scale diagonal; the
    sub-diagonal is free when the structure is unstructured and absent
    when independent. ``dist`` is "normal" or "t" (with ``df`` > 0; the
    adaptive/quadrature paths additionally require df > 2).
    """

    def __init__(self, dim: int, dist: str = "normal", df: int | None = None, structure: str = "independent"):
        if dist not in ("normal", "t"):
            raise ValueError(f"unknown random-effect distribution {dist!r}")
        if dist == "t":
            if df is None or df < 1:
                raise ValueError("t distribution needs a positive integer df")
        if structure not in ("independent", "unstructured"):
            raise ValueError(f"unknown covariance structure {structure!r}")
        self.dim = dim
        self.dist = dist
        self.df = df
        self.structure = structure

    def build_chol(self, block: np.ndarray) -> np.ndarray:
        """Lower-triangular scale factor from the flat parameter block:
        exp of the first ``dim`` entries on the diagonal, remaining
        entries filling the sub-diagonal row by row.
        """
        block = np.asarray(block, dtype=float)
        chol = np.diag(np.exp(block[: self.dim]))
        if self.structure == "unstructured":
            pos = self.dim
            for i in range(1, self.dim):
                chol[i, :i] = block[pos : pos + i]
                pos += i
        return chol

    def log_density(self, b: np.ndarray, chol: np.ndarray) -> np.ndarray:
        """Log density of points b (..., dim) under the kernel with the
        given Cholesky scale, which is diagonal, as ``build_chol`` makes
        it, unless the structure is unstructured: the standardized points
        are then b over its diagonal, with no triangular solve per point.
        """
        b = np.asarray(b, dtype=float)
        diag = np.diag(chol)
        if self.structure == "unstructured" and self.dim > 1:
            z = np.linalg.solve(chol, b[..., None])[..., 0]
        else:
            z = b / diag
        quad = np.sum(z * z, axis=-1)
        logdet = float(np.sum(np.log(diag)))
        r = self.dim
        if self.dist == "normal":
            return -0.5 * r * _LOG_2PI - logdet - 0.5 * quad
        from scipy.special import gammaln

        df = float(self.df)
        return (
            gammaln((df + r) / 2.0)
            - gammaln(df / 2.0)
            - 0.5 * r * math.log(df * math.pi)
            - logdet
            - 0.5 * (df + r) * np.log1p(quad / df)
        )

    def scale_derivatives(self, b: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of ``log_density`` at points b
        (...) of a one-dimensional kernel with respect to the log of its
        scale: with q = (b / scale)^2, q - 1 and -2q for the normal, and
        (df + 1) s - 1 and -2 (df + 1) s / (1 + q / df) for the t, where
        s = (q / df) / (1 + q / df).
        """
        q = np.square(np.asarray(b, dtype=float) / chol[0, 0])
        if self.dist == "normal":
            return q - 1.0, -2.0 * q
        r = q / float(self.df)
        s = r / (1.0 + r)
        return (self.df + 1.0) * s - 1.0, -2.0 * (self.df + 1.0) * s / (1.0 + r)


def kernel_draws(kernel: ReKernel, uniforms: HaltonSet) -> np.ndarray:
    """Transform uniform draws into mean-zero kernel draws (M, dim) at
    unit scale.

    Normal kernels consume dim columns; t kernels one extra column that
    drives the chi-squared mixing variable.
    """
    need = kernel.dim + (1 if kernel.dist == "t" else 0)
    if uniforms.r < need:
        raise ValueError(f"{kernel.dist} kernel in {kernel.dim} dims needs {need} uniform columns, got {uniforms.r}")
    from scipy.special import chdtri, ndtri

    z = ndtri(uniforms.values[:, : kernel.dim])
    if kernel.dist == "t":
        w = chdtri(kernel.df, 1.0 - uniforms.values[:, kernel.dim])
        z = z * np.sqrt(kernel.df / w)[:, None]
    return z


def logsumexp(a: np.ndarray, weights: bool = False):
    """log(sum(exp(a), axis=1)) of a 2-D float array, operation for
    operation as ``scipy.special.logsumexp(a, axis=1)``: the row maximum
    is taken out, its m ties contribute log(m), the rest log1p(s / m),
    and rows whose result is not finite fall back to the direct formula.
    The array is consumed: each exp(a - max) is formed once, in its
    place. The ties are the zeros of a - max, zeroed after the
    exponential, so that s sums the rest. They are counted once over
    the whole array: where every row maximum is finite, each row has at
    least one, and a count equal to the number of rows means one per
    row, at the row's ``argmax``, with m = 1. Otherwise they are counted
    row by row. The direct formula is applied to copies of the rows
    whose maximum is not finite, taken first: a row with a finite
    maximum has a finite result, or +inf where its maximum is within
    log(m + s) of the largest float, which the direct formula gives too.

    With ``weights``, also (value, weights): the posterior weights
    exp(a - value) of each row, the same exponentials, in the same
    array, with the ties set back to 1, times the reciprocal of their
    row total m + s. On a row whose value is not finite (its maximum is
    +-inf or NaN) every weight is NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = np.arange(a.shape[0])
        top = a.argmax(axis=1)  # the first maximum, or the first NaN
        a_max = a[rows, top][:, None]
        finite = np.isfinite(a_max[:, 0])
        direct = None if finite.all() else a[~finite]
        e = np.subtract(a, a_max, out=a)
        ties = e == 0.0
        if direct is None and np.count_nonzero(ties) == len(rows):
            m, ties = 1.0, (rows, top)
        else:
            m = ties.sum(axis=1, keepdims=True, dtype=a.dtype)
        np.exp(e, out=e)
        e[ties] = 0.0
        s = e.sum(axis=1, keepdims=True)
        total = s + m if weights else None
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        if direct is not None:
            out[~finite] = np.log(np.sum(np.exp(direct), axis=1))
        if not weights:
            return out
        e[ties] = 1.0
        e *= 1.0 / total
    return out, e


def place_nodes(nodes: np.ndarray, mu: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A unit rule's nodes a (M, r) placed at every cell's shift mu (K, r)
    and scale factor lam (K, r, r): x = mu + lam a (K, M, r), and the
    log-determinants log |lam| (K, 1) of the change of variables."""
    x = mu[:, None, :] + np.einsum("mr,usr->ums", nodes, lam)
    return x, np.log(np.diagonal(lam, axis1=1, axis2=2)).sum(axis=1)[:, None]


def log_correction(grid: tuple, kernel: ReKernel, chol: np.ndarray, x: np.ndarray, logdet) -> np.ndarray:
    """Log weight + prior log density - standard-normal log density +
    ``logdet`` at Gauss-Hermite nodes x placed by a change of variables of
    that log-determinant: a cell's log integral is logsumexp(this + cond)."""
    return grid[1] + kernel.log_density(x, chol) - grid[2] + logdet


class Adaptation(NamedTuple):
    """The result of ``adapt_locations``, one entry per cell."""

    shift: np.ndarray  # (K, dim)
    scale: np.ndarray  # (K, dim, dim) scale factors
    iterations: np.ndarray  # (K,) sweeps that updated the cell
    fallback: np.ndarray  # (K,) flagged: at (0, prior scale)
    capped: np.ndarray  # (K,) stopped at max_iter with the last step at or above tol
    value: np.ndarray | None  # (K,) log integral at the returned shift and scale; None where not read


def adapt_locations(
    log_conditional,
    kernel: ReKernel,
    chol: np.ndarray,
    grid: tuple[np.ndarray, np.ndarray, np.ndarray],
    active: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 20,
    start: Adaptation | None = None,
    value: bool = True,
) -> Adaptation:
    """Mean-variance adaptation (Pinheiro & Bates 1995) of a Gauss-Hermite
    grid to the posterior of every cell's random effects at once.

    A cell is one cluster, or one cluster at one combination of outer
    nodes. ``grid`` is the Gauss-Hermite grid of ``gh_grid``.
    ``log_conditional`` maps node locations (K, M, dim) to the
    conditional log-likelihood (K, M) of each cell; cells not marked in
    ``active`` keep the prior. Each sweep places, weighs and reduces the
    nodes of every cell as the integration does. A cell falls back to
    (0, prior scale) and is flagged where its log integral is not finite
    (a node at NaN or +inf, or every node at -inf), which the
    integration reads as a non-finite value, or its scale step fails.
    The scale may shrink at most 4x per step in any direction, relative
    to the scale of the step before, so a posterior sharper than the
    grid's spacing cannot collapse the rule onto one node. A
    one-dimensional level takes this step as scalar arithmetic
    (``_scalar_scale_step``), with the same results as the matrix step
    of the others (``_scale_step``).

    A cell whose step falls below ``tol`` keeps the shift and scale that
    sweep evaluated, not the step after, so that the sweep's log integral
    is the cell's ``value``. Only where the last sweep left some cell at
    a rule it did not evaluate (a cell fell back, or ``max_iter`` left
    capped cells, which took their last step) is every cell evaluated
    once more, with no update. ``value`` is thus, bit for bit,
    logsumexp(``log_correction`` + conditional) at the returned rule.
    Where the caller does not read it (``value`` false), no closing
    evaluation runs and ``value`` is None.

    Every active cell starts at (0, prior scale), or, given ``start``, at
    its shift and scale there: the result of an earlier adaptation of the
    same cells (a warm start), or a rule the caller knows, such as the
    cells' exact posterior where it has a closed form (of ``start`` only
    shift, scale and fallback are read). A cell flagged as a fallback
    there starts at (0, prior scale). A cell started at the mean and
    scale of a normal posterior finds a step of rounding size at its
    first sweep and keeps that start, whose rule integrates it exactly;
    so ``likelihood`` places a level there without a sweep where every
    active cell's closed-form start is finite.
    """
    if kernel.dist == "t" and kernel.df is not None and kernel.df <= 2:
        raise ValueError("mean-variance adaptation needs t df > 2")
    k, r = len(active), kernel.dim
    mu, lam = np.zeros((k, r)), np.broadcast_to(chol[None], (k, r, r)).copy()
    iters, flagged, active = np.zeros(k, dtype=int), np.zeros(k, dtype=bool), np.array(active, dtype=bool)
    if start is not None:
        warm = active & ~start.fallback
        mu[warm], lam[warm] = start.shift[warm], start.scale[warm]
    scale_step = _scalar_scale_step if r == 1 else _scale_step

    def evaluate(weights: bool):
        x, logdet = place_nodes(grid[0], mu, lam)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return x, logsumexp(log_correction(grid, kernel, chol, x, logdet) + log_conditional(x), weights=weights)

    stale = value  # some cell's rule is not the one the last sweep evaluated, and value is read
    for _ in range(max_iter):
        if not np.any(active):
            break
        x, (last, w) = evaluate(weights=True)
        bad = ~np.isfinite(last)
        mu_new = np.einsum("um,umr->ur", w, x)
        centred = x - mu_new[:, None, :]
        cov = np.einsum("um,umr,ums->urs", w, centred, centred)
        lam_new = scale_step(lam, cov, np.flatnonzero(active & ~bad), bad)
        newly_bad = bad & active
        if newly_bad.any():
            mu_new[newly_bad], lam_new[newly_bad] = 0.0, chol
            flagged |= newly_bad
            active &= ~newly_bad
        iters[active] += 1
        delta = np.maximum(np.max(np.abs(mu_new - mu), axis=1), np.max(np.abs(lam_new - lam), axis=(1, 2)))
        active &= delta >= tol
        moved = active | newly_bad
        mu = np.where(moved[:, None], mu_new, mu)
        lam = np.where(moved[:, None, None], lam_new, lam)
        stale = value and bool(moved.any())
    if stale:
        last = evaluate(weights=False)[1]
    return Adaptation(mu, lam, iters, flagged, active, last if value else None)


def _scale_step(lam, cov, ok, bad):
    """The new scale factors (K, r, r) of adaptation cells ``ok``: the
    Cholesky factors of their posterior covariances ``cov``, whose
    eigenvalues in the old scales' coordinates are floored at 1/16 first,
    so that no direction shrinks more than 4x per step. Marks in ``bad``
    the cells without a factor; every other cell keeps its scale.
    """
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
    return lam_new


def _scalar_scale_step(lam, cov, ok, bad):
    """``_scale_step`` of a one-dimensional level, where every matrix is
    1 x 1, on per-cell scalars: a variance below 1/16 of the old scale
    squared (var / lam / lam, as the two solves compute it) becomes
    lam (1/16) lam, as the matrix product does, and the new scale is its
    square root wherever it is above 0, which is where LAPACK's Cholesky
    factorization (potrf) accepts it.
    """
    lam1, var = lam[ok, 0, 0], cov[ok, 0, 0]
    low = var / lam1 / lam1 < 1.0 / 16.0
    var[low] = lam1[low] * (1.0 / 16.0) * lam1[low]
    good = var > 0.0
    lam_new = lam.copy()
    lam_new[ok[good], 0, 0] = np.sqrt(var[good])
    bad[ok[~good]] = True
    return lam_new
