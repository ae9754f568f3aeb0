"""Numerical integration machinery for random effects.

Gauss-Hermite rules are normalized against the standard normal kernel,
Halton sets provide deterministic quasi-Monte Carlo uniforms, and
ReKernel maps a flat parameter block to a Cholesky scale for either a
normal or a multivariate-t random-effect distribution. Mean-variance
adaptation recentres a rule on the per-cluster posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri, gammaln, ndtri

__all__ = [
    "GhRule",
    "HaltonSet",
    "ReKernel",
    "gh_rule",
    "gh_grid",
    "halton",
    "kernel_draws",
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


def gh_grid(rule: GhRule, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product grid over r dimensions: (Q^r, r) nodes and (Q^r,)
    log-weights.
    """
    if r == 0:
        return np.zeros((1, 0)), np.zeros(1)
    grids = np.meshgrid(*([rule.nodes] * r), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    logw = np.log(rule.weights)
    wgrids = np.meshgrid(*([logw] * r), indexing="ij")
    logws = sum(g.ravel() for g in wgrids)
    return nodes, logws


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
        given Cholesky scale.
        """
        b = np.asarray(b, dtype=float)
        z = np.linalg.solve(chol, b[..., None])[..., 0] if self.dim > 1 else b / chol[0, 0]
        quad = np.sum(z * z, axis=-1)
        logdet = float(np.sum(np.log(np.diag(chol))))
        r = self.dim
        if self.dist == "normal":
            return -0.5 * r * _LOG_2PI - logdet - 0.5 * quad
        df = float(self.df)
        return (
            gammaln((df + r) / 2.0)
            - gammaln(df / 2.0)
            - 0.5 * r * math.log(df * math.pi)
            - logdet
            - 0.5 * (df + r) * np.log1p(quad / df)
        )


def kernel_draws(kernel: ReKernel, uniforms: HaltonSet) -> np.ndarray:
    """Transform uniform draws into mean-zero kernel draws (M, dim) at
    unit scale.

    Normal kernels consume dim columns; t kernels one extra column that
    drives the chi-squared mixing variable.
    """
    need = kernel.dim + (1 if kernel.dist == "t" else 0)
    if uniforms.r < need:
        raise ValueError(f"{kernel.dist} kernel in {kernel.dim} dims needs {need} uniform columns, got {uniforms.r}")
    z = ndtri(uniforms.values[:, : kernel.dim])
    if kernel.dist == "t":
        w = chdtri(kernel.df, 1.0 - uniforms.values[:, kernel.dim])
        z = z * np.sqrt(kernel.df / w)[:, None]
    return z


def _std_normal_logpdf(a: np.ndarray) -> np.ndarray:
    return -0.5 * a.shape[-1] * _LOG_2PI - 0.5 * np.sum(a * a, axis=-1)


def adapt_locations(
    log_conditional,
    kernel: ReKernel,
    chol: np.ndarray,
    rule: GhRule,
    active: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 20,
    start: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean-variance adaptation (Pinheiro & Bates 1995) of a Gauss-Hermite
    grid to the posterior of every cell's random effects at once.

    A cell is one cluster, or one cluster at one combination of outer
    nodes. ``log_conditional`` maps node locations (K, M, dim) to the
    conditional log-likelihood (K, M) of each cell; cells not marked in
    ``active`` keep the prior. The scale may shrink at most 4x per step
    in any direction, relative to the scale of the step before, so a
    posterior sharper than the grid's spacing cannot collapse the rule
    onto one node. Cells whose posterior moments are not finite fall
    back to (0, prior scale) and are flagged.

    Every active cell starts at (0, prior scale), or, given ``start``,
    the result of an earlier adaptation of the same cells (a tuple as
    returned here), at that result's shift and scale: a warm start.
    A cell flagged there starts at (0, prior scale) again.

    Returns the shifts (K, dim), scale factors (K, dim, dim), iteration
    counts (K,) and fallback flags (K,).
    """
    if kernel.dist == "t" and kernel.df is not None and kernel.df <= 2:
        raise ValueError("mean-variance adaptation needs t df > 2")
    nodes, logw = gh_grid(rule, kernel.dim)
    log_std = _std_normal_logpdf(nodes)
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
        # in the old scale's coordinates, floor the new covariance's
        # eigenvalues at 1/16: no direction shrinks more than 4x per step
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
    return mu, lam, iters, flagged
