"""Time bases: fractional polynomials and restricted cubic splines.

Both bases are evaluated column-last, so an array of times with shape
``s`` yields a basis of shape ``s + (ncols,)`` that can be dotted with a
coefficient block directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FpBasis", "RcsBasis", "fp_eval", "rcs_eval", "rcs_deriv", "default_knots"]


@dataclass(frozen=True)
class FpBasis:
    """Fractional-polynomial basis of time.

    Power 0 means log(t). A power repeated k times contributes
    t^p, t^p*log(t), ..., t^p*log(t)^(k-1).
    """

    powers: tuple[float, ...]

    @property
    def ncols(self) -> int:
        return len(self.powers)

    def eval(self, t):
        return fp_eval(self, t)


@dataclass(frozen=True)
class RcsBasis:
    """Restricted cubic spline basis: linear tails, C2 at the knots.

    K knots give K-1 columns; the first column is the identity. With
    K = 2 the basis is purely linear.
    """

    knots: tuple[float, ...] = field(default=())

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        if k.size < 2:
            raise ValueError("restricted cubic spline needs at least 2 knots")
        if np.any(np.diff(k) <= 0):
            raise ValueError(f"knots must be strictly increasing, got {self.knots}")

    @property
    def ncols(self) -> int:
        return len(self.knots) - 1

    def eval(self, x):
        return rcs_eval(self, x)


def fp_eval(basis: FpBasis, t):
    """Evaluate the fractional-polynomial basis at t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("fractional polynomial requires t > 0")
    logt = np.log(t)
    cols = []
    seen: dict[float, int] = {}
    for p in basis.powers:
        rep = seen.get(p, 0)
        seen[p] = rep + 1
        col = logt if p == 0 else t**p
        if rep:
            col = col * logt**rep
        cols.append(col)
    return np.stack(cols, axis=-1)


def _cube_plus(u):
    return np.where(u > 0, u, 0.0) ** 3


def _sq_plus(u):
    return np.where(u > 0, u, 0.0) ** 2


def rcs_eval(basis: RcsBasis, x):
    """Evaluate the restricted cubic spline basis at x (any real)."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(basis.knots, dtype=float)
    cols = [x]
    kmin, kmax = k[0], k[-1]
    for kj in k[1:-1]:
        lam = (kmax - kj) / (kmax - kmin)
        cols.append(_cube_plus(x - kj) - lam * _cube_plus(x - kmin) - (1.0 - lam) * _cube_plus(x - kmax))
    return np.stack(cols, axis=-1)


def rcs_deriv(basis: RcsBasis, x):
    """d/dx of each restricted cubic spline column."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(basis.knots, dtype=float)
    cols = [np.ones_like(x)]
    kmin, kmax = k[0], k[-1]
    for kj in k[1:-1]:
        lam = (kmax - kj) / (kmax - kmin)
        cols.append(3.0 * (_sq_plus(x - kj) - lam * _sq_plus(x - kmin) - (1.0 - lam) * _sq_plus(x - kmax)))
    return np.stack(cols, axis=-1)


def default_knots(values, df: int) -> RcsBasis:
    """Knots for a df-column spline: boundaries at min/max, interior at
    equally spaced centiles of ``values`` (df=3 puts them at the 33.3rd
    and 66.7th centiles).
    """
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if df < 1:
        raise ValueError("df must be >= 1")
    distinct = np.unique(v)
    if distinct.size < df + 1:
        raise ValueError(f"need at least {df + 1} distinct values for df={df}, got {distinct.size}")
    centiles = 100.0 * np.arange(1, df) / df
    interior = np.percentile(v, centiles) if df > 1 else np.empty(0)
    knots = np.concatenate(([distinct[0]], np.atleast_1d(interior), [distinct[-1]]))
    knots = np.unique(knots)
    if knots.size < df + 1:
        raise ValueError("ties in the centiles leave too few distinct knots")
    return RcsBasis(tuple(knots.tolist()))
