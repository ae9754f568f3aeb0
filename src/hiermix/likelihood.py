"""Marginal log-likelihood over the cluster hierarchy.

Random effects are integrated level by level, inner levels conditional
on outer node values, with a per-level choice of adaptive Gauss-Hermite
quadrature or quasi-Monte Carlo draws from a normal or multivariate-t
kernel, either one rule of unit-scale nodes and log-weights. One
vectorized path serves any depth: each level is evaluated for all of its
units at every combination of outer-level nodes at once, reduced over
its own nodes, and summed into the parent units (the recursive nested
quadrature of Rabe-Hesketh, Skrondal & Pickles 2005).

Adaptive levels are re-adapted by ``refresh``, once per Newton
iteration, and each adaptation is warm-started, as in Rabe-Hesketh,
Skrondal & Pickles (2005): the evaluator keeps each level's latest
per-cell shifts and scales (``adapted``), where the next adaptation of
that level starts, and the nodes they place (``placed``), which calls
read until then. For an inner level of nested quadrature, re-adapted at
every step of the outer level's adaptation, that is the result at the
previous outer step. Cells keep one canonical order from construction
on, so the shapes always match; a cell that fell back in its latest
adaptation, and every cell at the evaluator's first, start from the
prior.

At the innermost level the conditional log-likelihood is a rows x
columns array, one column per (outer-node combination, node). Its
columns are evaluated in chunks of about ``_CHUNK_VALUES`` (2^16) rows x
columns, so that the temporaries of one evaluation stay cache-sized
however many draws a level has. A chunk is as many whole combinations
as fit; where one combination's nodes do not fit, it is a run of nodes
inside one combination, whose row sums gather over its chunks. A model
whose rows x columns fit the budget runs as one chunk. Every operation
acts on each column alone, so the chunking never changes a result.
Node axes are reduced, over whole combinations, with ``logsumexp``,
which repeats the arithmetic of ``scipy.special.logsumexp`` for real
input without its generic array-API overhead.

An outcome that ``compile_program`` gives ``intercepts`` (a row part a
plus random intercepts, under a Poisson or Gaussian family, whose time
functions are part of the row part, or an exponential, Weibull, Gompertz
or ``rp`` family with a time-constant linear predictor) is
summed per innermost unit instead of evaluated row by row. Given the sum
L of a unit's intercept values at a column, each exp-linear row's
conditional log-likelihood is A + B (a + L) - C exp(a + L) (for ``rp``,
a includes the spline s(log y) times its coefficients, A is
[event] log(s'(log y) gamma / y), B = [event] and C = 1), so the unit's is
K + D L - S exp(L + m), with K = sum(A + B a), D = sum(B),
S = sum(C exp(a - m)) and m = max(a) over its rows (Duchateau & Janssen
2008, *The Frailty Model*, ch. 2). A Gaussian unit's is quadratic in L:
with n rows, residuals r = y - a, their mean r-bar and
Q = sum((r - r-bar)^2), it is
-n (log(2 pi) / 2 + log sigma) - (Q + n (r-bar - L)^2) / (2 sigma^2).
Where each outcome's rows and intercepts sit is fixed when the evaluator
is built, in one record per outcome (``_Segments``). One routine forms
either family's unit sums from it, once per entry point (``_unit_sums``:
once per ``logl`` call, per ``refresh`` and per pass), and they are
handed down the level recursion; at each chunk one walk over an
outcome's intercepts gives L at its units (``_row_sums``), and their
units x columns form is added into the row sums. Which outcomes take
this path follows from the model alone; the two forms differ by
rounding.

The chunk shape is fixed when the evaluator is built. A chunk's
evaluation makes new arrays of about 0.5 MB each, every time. Under
glibc's default allocator settings each would be mapped and unmapped
again, faulting in fresh pages at every chunk; building an
evaluator frees one untouched 16 MiB block first, which raises glibc's
dynamic mmap and trim thresholds so that those arrays come from the
heap and stay mapped (see ``LikelihoodEvaluator.__init__``). On other
allocators the block does nothing.

``LikelihoodEvaluator.logl`` takes one parameter vector and returns a
float; the probes of a finite-difference derivative are one call each
(see ``optim``).

A model whose latent levels all have one dimension and whose outcomes
with rows are all summed per unit (``exact``) also has
``LikelihoodEvaluator.derivatives``: the log-likelihood, the exact score
(Fisher's identity) and the observed information (Louis 1982, *JRSS B*
44:226) at one parameter vector in one pass of the same level recursion
(see "exact derivatives" below). Its log-likelihood is ``logl``'s, bit
for bit. A fit of such a model takes every derivative from a pass. On
QMC and non-adaptive quadrature it takes every value from one too and
calls ``logl`` not at all; on adaptive quadrature, whose refresh would
discard a line-search point's pass, each line-search point is one
``logl`` call (see ``optim.maximize``).
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .integrate import ReKernel, adapt_locations, gh_grid, gh_rule, halton, kernel_draws
from .predictor import EvalContext, Program, outcome_logl, row_part

_LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "LevelPlan",
    "IntegrationPlan",
    "default_plan",
    "LikelihoodEvaluator",
]


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D float array, operation for
    operation as ``scipy.special.logsumexp(a, axis=1)``: the row maximum
    is taken out, its m ties contribute log(m), the rest log1p(s / m),
    and rows whose result is not finite fall back to the direct formula.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        ties = a == a_max
        m = ties.sum(axis=1, keepdims=True, dtype=a.dtype)
        rest = a.copy()
        rest[ties] = -np.inf
        rest -= a_max
        np.exp(rest, out=rest)
        s = rest.sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


@dataclass
class LevelPlan:
    method: str = "aghq"  # "aghq" | "qmc"
    q: int = 7
    m: int = 0
    dist: str = "normal"
    df: int | None = None
    adaptive: bool = True

    def describe(self) -> str:
        kern = self.dist if self.dist == "normal" else f"t({self.df})"
        if self.method == "aghq":
            mode = "adaptive" if self.adaptive else "non-adaptive"
            return f"aghq points {self.q} ({mode}) kernel {kern}"
        return f"qmc draws {self.m} kernel {kern}"


@dataclass
class IntegrationPlan:
    levels: dict[str, LevelPlan] = field(default_factory=dict)
    skip: int = 15

    def validate(self, program: Program) -> None:
        if self.skip < 0:
            raise ValueError(f"the Halton skip must be at least 0, got {self.skip}")
        needed = [li.name for li in program.levels if li.dim > 0]
        missing = [n for n in needed if n not in self.levels]
        extra = [n for n in self.levels if n not in needed]
        if missing or extra:
            raise ValueError(f"integration plan must cover exactly {needed}; missing {missing}, extra {extra}")
        for name in needed:
            lp = self.levels[name]
            dim = program.level(name).dim
            if lp.method not in ("aghq", "qmc"):
                raise ValueError(f"level {name!r}: unknown method {lp.method!r}")
            if lp.dist == "t":
                if lp.df is None or lp.df < 1:
                    raise ValueError(f"level {name!r}: t kernel needs a positive df")
                if lp.method == "aghq" and dim > 2:
                    raise ValueError(
                        f"level {name!r}: the reweighted quadrature path for t kernels is limited to 2 "
                        f"random effects (level has {dim}); use qmc"
                    )
                if lp.method == "aghq" and lp.df <= 2:
                    raise ValueError(f"level {name!r}: quadrature with a t kernel needs df > 2")
            if lp.method == "aghq" and lp.q < 1:
                raise ValueError(f"level {name!r}: need at least one quadrature point")
            if lp.method == "aghq" and lp.adaptive and lp.q < 3:
                # the adaptation cannot measure the posterior's spread: one
                # node gives it a variance of 0, and two, one scale either
                # side of the shift, give their scale's square wherever
                # their weights balance, so every scale is a fixed point
                raise ValueError(f"level {name!r}: adaptive quadrature needs at least 3 points")
            if lp.method == "qmc" and lp.m < 1:
                raise ValueError(f"level {name!r}: need at least one draw")


def default_plan(
    program: Program,
    points: int | dict = 7,
    draws: int | dict | None = None,
    method: str | dict | None = None,
    redistribution: str | dict | None = None,
    t_df: int | dict | None = None,
    adaptive: bool = True,
    skip: int = 15,
) -> IntegrationPlan:
    """Per-level defaults: adaptive quadrature with 7 points for normal
    kernels, quasi-Monte Carlo with 150 draws per dimension for t
    kernels. Every argument takes a single value or a per-level dict.
    A setting that would be silently ignored is an error: a per-level
    dict that names a level without latent effects, and a point or draw
    count below 1 for any level, whichever method it takes.
    """

    def per_level(value, name, fallback):
        if isinstance(value, dict):
            return value.get(name, fallback)
        return fallback if value is None else value

    latent = [li.name for li in program.levels if li.dim > 0]
    settings = dict(points=points, draws=draws, method=method, redistribution=redistribution, t_df=t_df)
    for what, value in settings.items():
        extra = [n for n in value if n not in latent] if isinstance(value, dict) else []
        if extra:
            raise ValueError(f"{what} names levels without latent effects: {extra}; the levels with them are {latent}")
    spec = program.spec
    plan = IntegrationPlan(skip=skip)
    for li in program.levels:
        if li.dim == 0:
            continue
        dist = per_level(redistribution, li.name, spec.re_distribution)
        df = per_level(t_df, li.name, spec.t_df)
        meth = per_level(method, li.name, "qmc" if dist == "t" else "aghq")
        q = per_level(points, li.name, 7)
        m = per_level(draws, li.name, 150 * li.dim)
        if q < 1:
            raise ValueError(f"level {li.name!r}: need at least one quadrature point")
        if m < 1:
            raise ValueError(f"level {li.name!r}: need at least one draw")
        plan.levels[li.name] = LevelPlan(method=meth, q=q, m=m, dist=dist, df=df, adaptive=adaptive)
    plan.validate(program)
    return plan


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


class _LevelState:
    """Frozen integration inputs for one latent level, and where its units
    sit: ``parent`` maps each unit to its ordinal one latent level out,
    composed through hierarchy levels without latent effects. A cell is
    one unit at one combination of outer-level nodes, ordered unit-major.
    """

    def __init__(self, info, plan: LevelPlan, skip: int, structure: str, hierarchy, outer: _LevelState | None):
        self.info = info
        self.plan = plan
        self.kernel = ReKernel(info.dim, plan.dist, plan.df, structure=structure)
        # one unit-scale rule, (M, r) nodes and (M,) log-weights: a Gauss-Hermite grid
        # (and the standard-normal log density there) or the kernel's QMC draws, each 1/M
        if plan.method == "aghq":
            self.nodes, self.logw, self.log_std = gh_grid(gh_rule(plan.q), info.dim)
        else:
            need = info.dim + (1 if plan.dist == "t" else 0)
            self.nodes = kernel_draws(self.kernel, halton(plan.m, need, skip))
            self.logw, self.log_std = np.full(plan.m, -math.log(plan.m)), None
        self.m = len(self.logw)
        self.adaptive = plan.method == "aghq" and plan.adaptive
        self.n_units = hierarchy.n_units(info.lidx)
        self.n_combos = 1 if outer is None else outer.n_combos * outer.m
        self.n_cells = self.n_units * self.n_combos
        if outer is not None:
            up = np.arange(self.n_units)
            for lvl in range(info.lidx, outer.info.lidx, -1):
                up = hierarchy.parent[lvl][up]
            self.parent = up
            self.parent_starts = np.flatnonzero(np.diff(np.sort(up), prepend=-1))
        self.active: np.ndarray | None = None  # units with rows anywhere below them


class _Segments(NamedTuple):
    """An outcome's rows by innermost unit, fixed when the evaluator is
    built: a segment is the rows of one unit, consecutive in the rows'
    order. For an outcome with ``intercepts`` also where they sit (for
    another, ``intercepts`` is empty), and the parameter slots its unit
    sums' derivatives are formed in (``_unit_sums``).
    """

    starts: np.ndarray  # each segment's first row (``reduceat``)
    units: np.ndarray | slice  # each segment's innermost unit
    row_segment: np.ndarray  # each row's segment
    n: np.ndarray  # rows per segment, as floats
    intercepts: list  # per intercept: (latent name, its unit per segment)
    inner: int  # how many of the intercepts sit at the innermost level
    slots: np.ndarray  # the row part's slots (its ``design``), then the family's own not among them
    own: np.ndarray  # where the family's own slots (``rp``'s spline coefficients, the ancillaries) sit in ``slots``


class _ExpLinearSums(NamedTuple):
    """An exp-linear outcome's unit sums (see ``_unit_sums``), one row per
    unit with rows of it, one column each.
    """

    K: np.ndarray  # sum(A + B a)
    D: np.ndarray  # sum(B)
    S: np.ndarray  # sum(C exp(a - m))
    m: np.ndarray  # max(a)

    def at(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K + D L - S exp(L + m) at summed intercepts L (units, columns);
        and the feature S exp(L + m).
        """
        e = L + self.m
        np.exp(e, out=e)
        e *= self.S
        ll = L * self.D
        ll += self.K
        ll -= e
        return ll, e

    def node_feature(self, outer, n: int) -> _NodePoly:
        """The feature at L = l + n u on shared innermost nodes u, with l
        the sum ``outer`` of the intercept values outside the innermost
        level (units, combinations) and n the count of those at it:
        S exp(m + l) e^(n u), a node polynomial.
        """
        return _NodePoly({(0, n): (self.S * np.exp(self.m + outer))[..., None]})


class _GaussianSums(NamedTuple):
    """A Gaussian outcome's unit sums (see ``_unit_sums``), laid out as
    ``_ExpLinearSums``'.
    """

    K: np.ndarray  # -n (log(2 pi) / 2 + log sigma)
    n: np.ndarray  # rows
    mean: np.ndarray  # mean residual r-bar of r = y - a
    Q: np.ndarray  # sum((r - r-bar)^2) / (2 sigma^2)
    scale: float  # sqrt(2) sigma

    def at(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K - Q - n ((r-bar - L) / scale)^2 at summed intercepts L, as
        ``_ExpLinearSums.at``; and the feature r-bar - L. Dividing before
        squaring keeps a large L finite wherever the rows' standardized
        residuals are.
        """
        d = self.mean - L
        ll = d / self.scale
        ll *= ll
        ll *= self.n
        ll += self.Q
        np.subtract(self.K, ll, out=ll)
        return ll, d

    def node_feature(self, outer, n: int) -> _NodePoly:
        """(r-bar - l) - n u, as ``_ExpLinearSums.node_feature``."""
        return _NodePoly({(0, 0): (self.mean - outer)[..., None], (1, 0): -float(n)})


class _OutcomeTerms(NamedTuple):
    """One outcome's conditional log-likelihood l at a unit, as a
    polynomial in its feature f there (``_ExpLinearSums.at``,
    ``_GaussianSums.at``), for ``LikelihoodEvaluator.derivatives``: per
    unit with rows of it, in every parameter slot,
    dl/dtheta = a + f b + f^2 c, d2l/dtheta2 = A + f B + f^2 C,
    d2l/dtheta dL = e + f e', dl/dL = v + f v' and d2l/dL2 = h + f h', at
    summed intercepts L. A term that is 0 throughout is None; v and v'
    are floats or (units, 1, 1) arrays, h and h' floats or (units,) ones.
    """

    score: tuple  # (a, b, c), (units, p) each
    hess: tuple  # (A, B, C), (units, p, p) each
    cross: tuple  # (e, e'), (units, p) each
    slope: tuple  # (v, v')
    curve: tuple  # (h, h')


# rows x columns of one conditional evaluation at the innermost level
_CHUNK_VALUES = 1 << 16
# the most that the square of a cell's raw-moment spread may exceed the
# norm of its score and Hessian entries by, before its unit takes the
# per-cell form (see ``_shared_derivatives``): raw moments then lose about
# eps times this much of that norm, 2e-11 of it
_RAW_MOMENT_SPREAD = 1e5


class LikelihoodEvaluator:
    """Compiled program plus frozen rules/draws and per-cell adaptive
    transforms. Transforms are refreshed once per outer optimizer
    iteration, keeping the objective smooth between refreshes.
    """

    def __init__(self, program: Program, plan: IntegrationPlan):
        plan.validate(program)
        self.program = program
        self.plan = plan
        structure = program.spec.covariance
        h = program.hierarchy
        self.level_states: list[_LevelState] = []
        for li in program.levels:
            if li.dim > 0:
                outer = self.level_states[-1] if self.level_states else None
                self.level_states.append(_LevelState(li, plan.levels[li.name], plan.skip, structure, h, outer))
        self._prepare_segments()
        self._plan_chunks()
        self.exact = self._exact_scope()
        if self.exact:
            # the log-scale slots of the levels whose nodes scale with them,
            # and the position there of each one's latent effect
            scaled = [st.info for st in self.level_states if not st.adaptive]
            self.tau_scaled = [info.re_slots[0] for info in scaled]
            self.scaled_index = {info.latent_names[0]: i for i, info in enumerate(scaled)}
        # Allocate and free one untouched 16 MiB block. Under glibc, freeing
        # a block that malloc mapped on its own raises M_MMAP_THRESHOLD to
        # its size and M_TRIM_THRESHOLD to twice that, for blocks up to
        # 32 MiB on 64-bit systems (the dynamic mmap threshold of
        # mallopt(3)); a larger block would not count. Chunk temporaries,
        # about 0.5 MB each, then come from the heap and stay mapped
        # instead of being mapped, faulted in and unmapped at every chunk.
        # No page of the block is touched, so resident memory does not
        # grow. The thresholds are process-wide and only rise; other
        # allocators just free the block.
        np.empty(1 << 21)
        self.adapted: dict[int, tuple] = {}  # level position -> latest adapt_locations result
        self.placed: dict[int, tuple] = {}  # level position -> its nodes x = mu + a lam, log-determinants
        self.sweeps = {st.info.name: 0 for st in self.level_states if st.adaptive}
        self.n_calls = 0
        self.n_passes = 0
        self.cond_evals = 0
        self.wall_time = 0.0

    # -- structural precomputation ------------------------------------

    def _prepare_segments(self) -> None:
        """Each outcome's ``_Segments`` (None where it has no rows), the
        outcomes with intercepts (``per_unit``), and which units at each
        level have rows below them.
        """
        program = self.program
        self.n_rows = sum(co.rows.size for co in program.outcomes)
        if not self.level_states:
            return
        h, inner = program.hierarchy, self.level_states[-1]
        self.segments: list[_Segments | None] = []
        self.per_unit = [k for k, co in enumerate(program.outcomes) if co.rows.size and co.intercepts is not None]
        has_rows = np.zeros(inner.n_units, dtype=bool)
        for co in program.outcomes:
            if co.rows.size == 0:
                self.segments.append(None)
                continue
            ordinals = co.units[inner.info.name]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(ordinals) != 0) + 1))
            units = ordinals[starts]
            has_rows[units] = True
            n = np.diff(starts, append=co.rows.size)
            intercepts = [
                (info.name, _index_or_all(co.units[info.level][starts], h.n_units(h.levels.index(info.level))))
                for info in co.intercepts or ()
            ]
            own = co.spline_slots + co.anc_slots
            slots = co.design[0] + [s for s in own if s not in co.design[0]]
            self.segments.append(
                _Segments(
                    starts=starts,
                    units=_index_or_all(units, inner.n_units),
                    row_segment=np.repeat(np.arange(starts.size), n),
                    n=n.astype(float),
                    intercepts=intercepts,
                    inner=sum(name in inner.info.latent_names for name, _ in intercepts),
                    slots=np.array(slots, dtype=int),
                    own=np.array([slots.index(s) for s in own], dtype=int),
                )
            )
        inner.active = has_rows
        for pos in range(len(self.level_states) - 1, 0, -1):
            st, outer = self.level_states[pos], self.level_states[pos - 1]
            outer.active = np.zeros(outer.n_units, dtype=bool)
            outer.active[st.parent[st.active]] = True

    def _unit_sums(self, theta: np.ndarray, k: int, derivatives: bool = False):
        """The sums of outcome k, which has intercepts, over each
        innermost unit's rows (its ``_Segments``), so that the unit's
        conditional log-likelihood at summed intercept values L follows
        from them alone (see the module docstring): ``_ExpLinearSums``, in
        which taking out m keeps exp(a - m) <= 1, so that nothing
        overflows that the rows would not; or ``_GaussianSums``. With
        ``derivatives``, also its ``_OutcomeTerms``, in all p parameter
        slots. A Gaussian outcome's, with r = y - a, r-bar its mean over a
        unit's rows, x the rows' compiled ``design``, Sx = sum(x),
        Sxx = sum(x x') and Sxr = sum((r - r-bar) x), in the row part's
        slots and ln_sd (sigma^2 = V), with feature f = r-bar - L, are:
        (Sxr + f Sx) / V and -n + (Q + n f^2) / V; -Sxx / V,
        -2 (Sxr + f Sx) / V and -2 (Q + n f^2) / V; in L, n f / V and
        -n / V; and across, -Sx / V and -2 n f / V.
        """
        co, seg, p = self.program.outcomes[k], self.segments[k], theta.size
        starts, x, shape = seg.starts, co.design[1], (seg.starts.size, p)
        a, anc = row_part(self.program, k, theta)
        if co.family.per_cluster == "gaussian":
            (sigma,) = anc
            r = co.response - a
            mean = np.add.reduceat(r, starts) / seg.n
            dev = r - mean[seg.row_segment]
            K = -seg.n * (0.5 * _LOG_2PI + np.log(sigma))
            Q = np.add.reduceat(dev * dev, starts)
            sums = _GaussianSums(*(v[:, None] for v in (K, seg.n, mean, Q / (2.0 * sigma * sigma))), math.sqrt(2.0) * sigma)
            if not derivatives:
                return sums
            sx, sxx, sxr = (np.add.reduceat(v, starts) for v in (x, x[:, :, None] * x[:, None, :], dev[:, None] * x))
            h2, n, d, s = 1.0 / (sigma * sigma), seg.n, seg.slots[: x.shape[1]], co.anc_slots[0]
            a, b, c, e, f = (np.zeros(shape) for _ in range(5))
            A, B, C = (np.zeros(shape + (p,)) for _ in range(3))
            a[:, d], a[:, s] = sxr * h2, Q * h2 - n
            b[:, d] = sx * h2
            c[:, s] = n * h2
            A[:, d[:, None], d] -= h2 * sxx
            A[:, d, s] = A[:, s, d] = -2.0 * h2 * sxr
            A[:, s, s] = -2.0 * h2 * Q
            B[:, d, s] = B[:, s, d] = -2.0 * h2 * sx
            C[:, s, s] = -2.0 * h2 * n
            e[:, d] = -h2 * sx
            f[:, s] = -2.0 * h2 * n
            curvature = -h2 * n
            return sums, _OutcomeTerms((a, b, c), (A, B, C), (e, f), (0.0, -curvature[:, None, None]), (curvature, 0.0))
        if co.rp is not None:  # rp's own parameters are its spline coefficients
            anc = theta[co.spline_slots]
        lin, b, c, *anc = co.family.exp_linear(co.response, anc, co.event, co.entry, derivatives, co.rp)
        m = np.maximum.reduceat(a, starts)
        e = np.exp(a - m[seg.row_segment])
        w = c * e
        K, D, S = (np.add.reduceat(v, starts)[:, None] for v in (lin + b * a, b, w))
        sums = _ExpLinearSums(K, D, S, m[:, None])
        if not derivatives:
            return sums
        # per row, with W = C exp(a - m), the derivatives of A + B a and of
        # W in the outcome's slots (``_Segments``), the row part's first; per
        # unit, those of W over S, 0 where S is, then placed in all p slots
        d1a, d2a, d1c, d2c = anc
        q, o, slots = x.shape[1], seg.own, seg.slots
        alpha, w1 = np.zeros((2, b.size, slots.size))
        w2 = np.zeros((b.size, slots.size, slots.size))
        alpha[:, :q] = b[:, None] * x
        w1[:, :q] = w[:, None] * x
        w2[:, :q, :q] = w1[:, :q, None] * x[:, None, :]
        if o.size:
            alpha[:, o] += d1a
        if d1c is not None:
            c1 = d1c * e[:, None]
            w1[:, o] += c1
            cross = c1[:, :, None] * x[:, None, :]
            w2[:, o, :q] += cross
            w2[:, :q, o] += np.swapaxes(cross, 1, 2)
            w2[:, o[:, None], o] += d2c * e[:, None, None]
        alpha, w1, w2 = (np.add.reduceat(v, starts) for v in (alpha, w1, w2))
        positive = S[:, 0] > 0
        a1, r1, r2, a2 = np.zeros(shape), np.zeros(shape), np.zeros(shape + (p,)), np.zeros(shape + (p,))
        a1[:, slots] = alpha
        r1[:, slots] = np.divide(w1, S, out=np.zeros_like(w1), where=positive[:, None])
        r2[:, slots[:, None], slots] = np.divide(w2, S[:, :, None], out=np.zeros_like(w2), where=positive[:, None, None])
        if o.size:
            a2[:, slots[o, None], slots[o]] = np.add.reduceat(d2a, starts)
        r1 = -r1
        return sums, _OutcomeTerms((a1, r1, None), (a2, -r2, None), (None, r1), (sums.D[:, :, None], -1.0), (0.0, -1.0))

    def level_chol(self, st: _LevelState, theta: np.ndarray) -> np.ndarray:
        return st.kernel.build_chol(theta[st.info.re_slots])

    def _plan_chunks(self) -> None:
        """The fixed shape of the innermost evaluation: columns per chunk,
        within _CHUNK_VALUES rows x columns, rounded down to whole
        outer-node combinations when one combination's nodes fit; at
        least one.
        """
        nodes = self.level_states[-1].m if self.level_states else 1
        chunk = max(1, _CHUNK_VALUES // max(1, self.n_rows))
        self.chunk_columns = chunk - chunk % nodes if chunk >= nodes else chunk

    # -- public entry points --------------------------------------------

    def refresh(self, theta: np.ndarray) -> bool:
        """Recompute the per-cell adaptive transforms at theta, starting
        from the previous ones (see ``_adapt``). Returns whether any level
        is adaptive, i.e. whether the objective may have changed.
        """
        theta = np.asarray(theta, dtype=float)
        if not any(st.adaptive for st in self.level_states):
            return False
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self._adapt(theta, 0, [], self._all_sums(theta))
        return True

    def logl(self, theta: np.ndarray) -> float:
        """Marginal log-likelihood at one parameter vector, summed over
        the outermost units with ``math.fsum`` (``_unit_totals``): -inf
        where a unit's value is not finite or the sum leaves the float
        range. A level that still has to adapt adapts first.
        """
        theta = np.asarray(theta, dtype=float)
        t_start = time.perf_counter()
        self.n_calls += 1
        try:
            return self._logl(theta)
        finally:
            self.wall_time += time.perf_counter() - t_start

    def _all_sums(self, theta: np.ndarray) -> dict:
        """Outcome -> its ``_unit_sums`` at theta, for every outcome with
        intercepts: computed once per entry point and handed down the
        level recursion.
        """
        return {k: self._unit_sums(theta, k) for k in self.per_unit}

    def _logl(self, theta: np.ndarray) -> float:
        """The value of ``logl``, uncounted."""
        if not self.level_states:
            ctx = EvalContext(self.program, theta)
            total = 0.0
            for k, co in enumerate(self.program.outcomes):
                if co.rows.size == 0:
                    continue
                ll = float(_unit_totals(outcome_logl(ctx, k)[:, 0])[0])
                self.cond_evals += 1
                if not math.isfinite(ll):
                    return -np.inf
                total += ll
            return total
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            per_unit = self._integrate(theta, 0, [], self._all_sums(theta))[0]
        total = float(_unit_totals(per_unit[self.level_states[0].active, 0])[0])
        return total if math.isfinite(total) else -np.inf

    # -- exact derivatives ------------------------------------------------
    #
    # For a model in the scope of ``exact``, the conditional log-likelihood
    # of an innermost cell at node u is a sum over outcomes k of
    # l_k(theta, L_k), with L_k the sum of k's intercept values there
    # (``_row_sums``). Given each outcome's ``_OutcomeTerms``, its score
    # and Hessian in the parameters at a node are polynomials in the
    # outcome's feature there. A level's log scale tau enters in one of
    # two ways. On scaled nodes (QMC and non-adaptive quadrature) a node
    # value is exp(tau) z with z fixed, and the node's log-correction does
    # not depend on tau, so tau acts through L: dL_k/dtau = n u, with n
    # the count of k's intercepts at that level and u its node value. On
    # adaptive quadrature's frozen nodes only the log-correction depends
    # on tau, through the prior's log density
    # (``ReKernel.scale_derivatives``). By Fisher's identity the score of
    # a cell's log integral is the posterior mean of the conditional
    # score at its nodes; by Louis (1982) its Hessian is the posterior
    # mean of the conditional Hessian plus the posterior covariance of the
    # conditional score. At the innermost level a node's conditional
    # score is a per-unit constant plus a few node features times
    # per-unit coefficients, so only the features' posterior means and
    # covariance, and the means of a few more node quantities in the
    # conditional Hessian, are taken over the nodes. One feature list
    # states them all, once (``_node_terms``), and two reductions read
    # it: node by node (``_block_derivatives``), where the list's leaves
    # are arrays at each cell's nodes, on adaptive nodes, which differ per
    # cell; and from one table of node moments (``_shared_derivatives``),
    # where they are node polynomials, on scaled nodes, which every cell
    # shares, less the units whose raw moments could lose digits. At an
    # outer level the conditional score and Hessian at a node are the
    # sums of those of its child cells, added in ``_into_parents``'s
    # order, and the covariance is taken over the node scores themselves
    # (``_louis``): the same formulas apply level by level, inside the
    # recursion that ``logl`` takes.

    def _exact_scope(self) -> bool:
        """Whether ``derivatives`` applies: every latent level has one
        dimension, and every outcome with rows is a row part plus random
        intercepts under an exp-linear (``rp`` included) or Gaussian
        family, summed per unit (``intercepts``). No option selects it.
        """
        if not self.level_states or any(st.info.dim != 1 for st in self.level_states):
            return False
        return all(co.intercepts is not None for co in self.program.outcomes if co.rows.size)

    def derivatives(self, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(log-likelihood, score, observed information) at one parameter
        vector in one pass, for a model in the scope of ``exact``. Every
        pass runs ``logl``'s level recursion (``_integrate``), so its
        log-likelihood is the one ``logl`` gives, bit for bit, and
        ``maximize`` may take a value from either; where it is -inf, the
        score and information are NaN, and so is either where a unit's
        share of it is not finite or its sum leaves the float range. Each
        is summed over the outermost units with ``math.fsum``
        (``_unit_totals``), and inner units are added in order of value,
        so the result does not depend on how units are labelled. A level
        that still has to adapt adapts first, as in ``logl``. Counted in
        ``derivative_passes``, not as a ``logl`` call; its time and its
        active units x node columns count in ``wall_time_s`` and
        ``conditional_evaluations`` as a call's do.
        """
        if not self.exact:
            raise ValueError(
                "exact derivatives need every latent level of one dimension and every outcome a row part plus "
                "random intercepts under an exponential, Weibull, Gompertz, Poisson, rp or Gaussian family"
            )
        t_start = time.perf_counter()
        self.n_passes += 1
        try:
            return self._derivative_pass(np.asarray(theta, dtype=float))
        finally:
            self.wall_time += time.perf_counter() - t_start

    def _derivative_pass(self, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The pass of ``derivatives``, uncounted."""
        p = theta.size
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sums, terms = {}, {}
            for k in self.per_unit:
                sums[k], terms[k] = self._unit_sums(theta, k, derivatives=True)
            unit_logl, unit_score, unit_hess = (v[:, 0] for v in self._integrate(theta, 0, [], sums, terms))
        act = self.level_states[0].active
        logl = float(_unit_totals(unit_logl[act])[0])
        if not math.isfinite(logl):
            return -np.inf, np.full(p, np.nan), np.full((p, p), np.nan)
        info = -_unit_totals(unit_hess[act]).reshape(p, p)
        return logl, _unit_totals(unit_score[act]), 0.5 * (info + info.T)

    # -- level-by-level integration ---------------------------------------
    #
    # Level ``pos`` is integrated for all of its cells at once, given the
    # node locations of every level outside it (``outer``: one array per
    # outer level, (n_units, combos * m, dim)). The integral over a cell
    # is logsumexp over its nodes of (weight correction + conditional
    # log-likelihood), and the conditional at a node of an outer level is
    # the sum of its child units' integrals. Adaptation is frozen within
    # one evaluation. ``sums`` are the outcomes' ``_unit_sums`` at theta. A
    # pass of ``derivatives`` also hands down the outcomes'
    # ``_OutcomeTerms`` (``terms``), and every cell then carries its score
    # and Hessian with its value (see "exact derivatives" above).

    def _nodes(self, pos: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node locations (cells, M, r) and log-corrections (cells, M) of
        every cell of level ``pos``, such that a cell's integral is
        logsumexp(corr + conditional): an adaptive level's latest placed
        nodes, where only the prior depends on theta, or the unit rule
        scaled by the Cholesky factor (reweighted to a t kernel on
        Gauss-Hermite nodes).
        """
        st = self.level_states[pos]
        chol = self.level_chol(st, theta)
        if st.adaptive:
            x, logdet = self.placed[pos]
            return x, st.logw[None] + st.kernel.log_density(x, chol) - st.log_std[None] + logdet
        x = st.nodes @ chol.T
        corr = st.logw
        if st.plan.method == "aghq" and st.plan.dist == "t":
            corr = corr + st.kernel.log_density(x, chol) - st.log_std + float(np.log(np.diag(chol)).sum())
        return np.broadcast_to(x[None], (st.n_cells,) + x.shape), np.broadcast_to(corr[None], (st.n_cells, st.m))

    def _adapt(self, theta: np.ndarray, pos: int, outer: list, sums: dict) -> None:
        """Adapt level ``pos`` at the given outer nodes, re-adapting the
        levels inside it at each trial location, then once more at the
        final one, and keep the nodes it places (``placed``). Each adaptation
        starts warm, from the level's latest result: the previous
        refresh's, or, for an inner level, the one at the previous trial
        location of the outer level. Only the first adaptation of an
        evaluator, and a cell that fell back, start from the prior.
        """
        st = self.level_states[pos]
        if st.adaptive:
            self.adapted[pos] = mu, lam, iters, *_ = adapt_locations(
                lambda x: self._conditional(theta, pos, outer, x, sums, refresh=True)[0],
                st.kernel,
                self.level_chol(st, theta),
                (st.nodes, st.logw, st.log_std),
                np.repeat(st.active, st.n_combos),
                start=self.adapted.get(pos),
            )
            logdet = np.log(np.diagonal(lam, axis1=1, axis2=2)).sum(axis=1)
            self.placed[pos] = mu[:, None, :] + np.einsum("mr,usr->ums", st.nodes, lam), logdet[:, None]
            self.sweeps[st.info.name] += int(iters.max(initial=0))
        if pos + 1 < len(self.level_states):
            self._adapt(theta, pos + 1, outer + [self._as_outer(pos, self._nodes(pos, theta)[0])], sums)

    def _as_outer(self, pos: int, x: np.ndarray) -> np.ndarray:
        st = self.level_states[pos]
        return x.reshape(st.n_units, -1, st.info.dim)

    def _conditional(self, theta, pos: int, outer: list, x: np.ndarray, sums: dict, terms=None, refresh=False):
        """Conditional log-likelihood (cells, M) of everything inside each
        cell of level ``pos``, at its node locations ``x``; with
        ``terms``, also its score (cells, M, p) and Hessian (cells, M, p, p)
        there, for a level outside the innermost.
        """
        st = self.level_states[pos]
        if pos + 1 == len(self.level_states):
            cond = np.empty((st.n_units, st.n_combos, st.m))
            for c0, c1, ll, _ in self._row_sums(theta, outer, x, sums):
                cond[:, c0:c1] = ll
            return (cond.reshape(-1, st.m),)
        inner_outer = outer + [self._as_outer(pos, x)]
        if refresh:
            self._adapt(theta, pos + 1, inner_outer, sums)
        child = self._integrate(theta, pos + 1, inner_outer, sums, terms)
        return tuple(v.reshape((-1, st.m) + v.shape[2:]) for v in self._into_parents(pos + 1, *child))

    def _integrate(self, theta, pos: int, outer: list, sums: dict, terms=None) -> tuple:
        """Log integral over level ``pos`` and every level inside it, per
        unit and outer-node combination: (n_units, n_combos); with
        ``terms``, also its score (.., p) and Hessian (.., p, p). Units
        with no rows below them integrate to exactly 0.
        """
        st = self.level_states[pos]
        if st.adaptive and pos not in self.adapted:
            self._adapt(theta, pos, outer, sums)
        x, corr = self._nodes(pos, theta)
        if pos + 1 == len(self.level_states):
            corr3 = corr.reshape(st.n_units, -1, st.m)
            parts = []
            for c0, c1, ll, feats in self._row_sums(theta, outer, x, sums, terms):
                logp = (corr3[:, c0:c1] + ll).reshape(-1, st.m)
                lse = logsumexp(logp)
                part = [lse.reshape(st.n_units, c1 - c0)]
                if terms is not None:
                    w = self._weights(logp, lse).reshape(ll.shape)
                    u = x.reshape(ll.shape[:1] + (-1, st.m))[:, c0:c1]
                    part.extend(self._inner_derivatives(theta, w, u, feats, terms))
                parts.append(part)
            out = [np.concatenate(v, axis=1) for v in zip(*parts)]
        else:
            cond, *derivs = self._conditional(theta, pos, outer, x, sums, terms)
            logp = corr + cond
            lse = logsumexp(logp)
            out = [lse.reshape(st.n_units, -1)]
            if terms is not None:
                w = self._weights(logp, lse)
                derivs = self._outer_derivatives(pos, theta, w, x, *derivs)
                out += [v.reshape((st.n_units, -1) + v.shape[1:]) for v in derivs]
        return tuple(np.where(st.active.reshape((-1,) + (1,) * (v.ndim - 1)), v, 0.0) for v in out)

    @staticmethod
    def _weights(logp: np.ndarray, lse: np.ndarray) -> np.ndarray:
        """Posterior weights (cells, M) from the cells' log terms and
        their logsumexp."""
        w = logp - lse[:, None]
        np.exp(w, out=w)
        return w

    def _inner_derivatives(self, theta, w, u, feats: dict, terms: dict) -> tuple:
        """Score (units, C, p) and Hessian (units, C, p, p) of the log
        integral of every innermost cell of C combinations, given their
        posterior weights w and node values u (units, C, M) and each
        outcome's ``features`` from ``_row_sums``: one feature list
        (``_node_terms``) read from the node table on scaled nodes
        (``_shared_derivatives``), which redoes units whose raw moments
        could lose digits node by node, and node by node on adaptive ones
        (``_per_cell``).
        """
        n_units = w.shape[0]
        if self.level_states[-1].adaptive:
            return self._per_cell(theta, w, u, feats, terms, 0, n_units)
        score, hess, redo = self._shared_derivatives(theta, w, u[0, 0], feats, terms)
        edges = np.flatnonzero(np.diff(redo, prepend=False, append=False))
        for u0, u1 in zip(edges[::2], edges[1::2]):
            score[u0:u1], hess[u0:u1] = self._per_cell(theta, w, u, feats, terms, u0, u1)
        return score, hess

    def _per_cell(self, theta, w, u, feats: dict, terms: dict, u0: int, u1: int) -> tuple:
        """``_inner_derivatives`` of the innermost units u0 to u1 node by
        node, whose node quantities, units x C x M each, are formed for
        blocks of units of at most _CHUNK_VALUES values.
        """
        _, combos, m = w.shape
        block = max(1, _CHUNK_VALUES // (combos * m))
        ends = [(b0, min(b0 + block, u1)) for b0 in range(u0, u1, block)]
        parts = [self._block_derivatives(theta, w[b0:b1], u[b0:b1], feats, terms, b0, b1) for b0, b1 in ends]
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(v) for v in zip(*parts))

    def _placer(self, k: int, u0: int, u1: int):
        """A map from outcome k's per-segment values to the innermost
        units u0 to u1: its segments' values there, 0 at units without
        rows of k. A float passes unchanged.
        """
        seg = self.segments[k].units
        if isinstance(seg, slice):  # every unit has rows of k
            rows, at = slice(u0, u1), None
        else:  # the segments of units u0 to u1, and their units among them
            rows = slice(*np.searchsorted(seg, [u0, u1]))
            at = seg[rows] - u0

        def place(v):
            if not isinstance(v, np.ndarray):
                return v
            v = v[rows]
            if at is None:
                return v
            out = np.zeros((u1 - u0,) + v.shape[1:])
            out[at] = v
            return out

        return place

    def _node_terms(self, leaves, terms: dict, u0: int, u1: int, p: int) -> tuple:
        """The innermost node features of units u0 to u1, for both
        reductions: a (units, p), the conditional score's per-unit
        constant, and the entries (parts, indices, c). An entry adds the
        sum of coefficient E[product of factors] over its parts into the
        mean conditional Hessian at its indices, a coefficient being a
        float or per-unit values shaped as a cell's entries there (a part
        without factors adds the coefficient itself); with a score
        coefficient c, its one factor is a feature. ``leaves(k, place)``
        gives outcome k's feature f and its intercept sum L_i at each
        scaled level (or None), node arrays or node polynomials alike.
        Per outcome: A; f (b, B); f^2 (c, C) where the family has it; at
        each scaled level i, e' E[f L_i] + e E[L_i] and, at each level j
        from i on, h' E[f L_i L_j] + h E[L_i L_j]. Then each level's node
        score T_i = sum_k (v_k + v'_k f_k) L_ki, whose mean is also that
        of dl/dL d2L/dtau_i2. Parts that are 0 throughout are left out.
        """
        tau = self.tau_scaled
        a = np.zeros((u1 - u0, p))
        entries = []
        node_scores = [None] * len(tau)
        whole = [(...,)]

        def both(i, j):  # the (tau_i, tau_j) entries
            return [(..., tau[i], tau[j])] + ([(..., tau[j], tau[i])] if j != i else [])

        for k in terms:
            place = self._placer(k, u0, u1)
            (ak, b, c), (A, B, C), (e, e1), (v0, v1), (h0, h1) = (tuple(map(place, pair)) for pair in terms[k])
            f, L = leaves(k, place)
            a += ak
            entries += [([(A, ())], whole, None), ([(B, (f,))], whole, b)]
            if c is not None:
                entries.append(([(C, (f * f,))], whole, c))
            for i, Li in enumerate(L):
                if Li is None:
                    continue
                T = (v1 * f + v0) * Li
                node_scores[i] = T if node_scores[i] is None else node_scores[i] + T
                cross = [(..., slice(None), tau[i]), (..., tau[i], slice(None))]
                entries.append((_present((e1, (f, Li)), (e, (Li,))), cross, None))
                for j in range(i, len(L)):
                    if L[j] is not None:
                        entries.append((_present((h1, (f, Li, L[j])), (h0, (Li, L[j]))), both(i, j), None))
        for i, T in enumerate(node_scores):
            if T is not None:
                entries.append(([(1.0, (T,))], both(i, i), _unit_rows(u1 - u0, p, tau[i])))
        return a, entries

    def _shared_derivatives(self, theta, w, u, feats: dict, terms: dict) -> tuple:
        """``_inner_derivatives`` on the scaled innermost nodes u (M,),
        which every cell shares, and the units to redo node by node.
        ``_node_terms``' leaves are node polynomials: an outcome's feature
        (from ``_row_sums``) and its intercept sum, n u at the innermost
        level, n the count in its ``_Segments``, and a per-cell constant
        outside. Every mean is a per-cell
        sum of moments E[u^a e^(b u)] from one contraction
        (``_node_moments``), and the covariance the raw second moments
        less the means' products times 2 - W, W the weights' sum, which
        is what features centred node by node give. Those differences can
        lose about eps times the square of the spread sum_r |c_r|
        sum_t |coefficient_t| sqrt(E[g_t^2]), over the terms g_t of each
        phi_r: a unit is redone where that square exceeds
        ``_RAW_MOMENT_SPREAD`` times the norm of a cell's score and Hessian
        entries, or where an entry is not finite (an e^(b u) that
        overflows at a node without weight, say).
        """
        n_units, combos, m = w.shape
        inner = len(self.tau_scaled) - 1  # the innermost level's place among the scaled levels

        def leaves(k, place):
            _, scaled, f = feats[k]
            L = [None if v is None else _NodePoly({(0, 0): place(v[:, ::m, None])}) for v in scaled]
            n = self.segments[k].inner
            L[inner] = _NodePoly({(1, 0): float(n)}) if n else None
            return _NodePoly({key: place(c) for key, c in f.items()}), L

        a, entries = self._node_terms(leaves, terms, 0, n_units, theta.size)
        products = {id(fs): functools.reduce(operator.mul, fs) for parts, _, _ in entries for _, fs in parts if fs}
        phis = [products[id(fs)] for parts, _, c in entries if c is not None for _, fs in parts]
        squares = {(r, s): phis[r] * phis[s] for r in range(len(phis)) for s in range(r, len(phis))}
        weight = _NodePoly({(0, 0): 1.0})
        moments = _node_moments(w, u, [weight, *products.values(), *squares.values()])
        hess = np.zeros((n_units, combos) + (theta.size,) * 2)
        features = _fold(entries, lambda fs: products[id(fs)].mean(moments), hess)
        W = weight.mean(moments)
        cov = np.empty((n_units, combos) + (len(features),) * 2)
        for (r, s), poly in squares.items():
            cov[..., r, s] = cov[..., s, r] = poly.mean(moments) - features[r][1] * features[s][1] * (2.0 - W)
        score, hess = _assemble(a, W, features, cov, hess)
        # what the raw second moments may lose, against the norm of each
        # cell's entries, which is not finite where an entry is not
        spread = sum(phi.magnitude(moments) * np.sqrt(np.vecdot(c, c))[:, None] for phi, (*_, c) in zip(phis, features))
        size = np.sqrt(np.vecdot(score, score) + np.vecdot(*(hess.reshape(n_units, combos, -1),) * 2))
        keep = (spread * spread <= _RAW_MOMENT_SPREAD * size) & np.isfinite(size)
        return score, hess, ~keep.all(axis=1)

    def _block_derivatives(self, theta, w, u, feats: dict, terms: dict, u0: int, u1: int) -> tuple:
        """``_inner_derivatives`` of the innermost units u0 to u1, whose
        weights and node values are w and u, node by node. ``_node_terms``'
        leaves are the features and intercept sums at the cells' nodes
        (from ``_row_sums``), and a product's mean is w
        times its factors but the last, dotted with the last over the node
        axis alone (``np.vecdot``), so that no cell's value depends on the
        block it falls in; the covariance comes from features centred node
        by node. An adaptive level adds its prior's score d1 as a feature
        and the mean of d2 (``ReKernel.scale_derivatives``).
        """
        st = self.level_states[-1]
        p, shape = theta.size, (-1,) + w.shape[1:]

        def leaves(k, place):
            f, scaled, _ = feats[k]
            f = place(f.reshape(shape))
            f[w == 0.0] = 0.0  # no inf * 0 where a node has no weight
            return f, [None if v is None else place(v.reshape(shape)) for v in scaled]

        a, entries = self._node_terms(leaves, terms, u0, u1, p)
        if st.adaptive:
            d1, d2 = st.kernel.scale_derivatives(u, self.level_chol(st, theta))
            slot = st.info.re_slots[0]
            entries += [([(1.0, (d1,))], [], _unit_rows(u1 - u0, p, slot)), ([(1.0, (d2,))], [(..., slot, slot)], None)]
        hess = np.zeros(w.shape[:2] + (p, p))
        features = _fold(entries, lambda fs: np.vecdot(functools.reduce(np.multiply, fs[:-1], w), fs[-1]), hess)
        for phi, mean_r, _ in features:
            phi -= mean_r[..., None]
        product = np.empty(w.shape)
        cov = np.empty(w.shape[:2] + (len(features),) * 2)
        for r, (phi, _, _) in enumerate(features):
            weighted_r = np.multiply(w, phi, out=product)
            for s in range(r, len(features)):
                cov[..., r, s] = cov[..., s, r] = np.vecdot(weighted_r, features[s][0])
        return _assemble(a, w.sum(axis=-1), features, cov, hess)

    def _outer_derivatives(self, pos: int, theta, w, x, score, hess) -> tuple:
        """Score and Hessian of the log integral of every cell of level
        ``pos``, given the posterior weights w (cells, M) and the sums of
        the child cells' scores and Hessians at each node.
        """
        st = self.level_states[pos]
        void = w == 0.0
        if void.any():  # a node without weight may hold a child's NaN
            score[void], hess[void] = 0.0, 0.0
        mean_hess = np.einsum("cj,cjab->cab", w, hess)
        if st.adaptive:
            self._prior_terms(st, theta, w, x[..., 0], score, mean_hess)
        return _louis(w, score, mean_hess)

    def _prior_terms(self, st: _LevelState, theta, w, u, score, mean_hess) -> None:
        """Add the log-scale derivatives of the prior log density at the
        frozen adaptive nodes u of level ``st`` to the node scores and,
        weighted by w, to the mean Hessians.
        """
        d1, d2 = st.kernel.scale_derivatives(u, self.level_chol(st, theta))
        slot = st.info.re_slots[0]
        score[..., slot] += d1
        mean_hess[..., slot, slot] += np.einsum("...j,...j->...", w, d2)

    def _row_sums(self, theta, outer: list, x: np.ndarray, sums: dict, terms=None):
        """Yield (c0, c1, ll, features) over the outer-node combinations,
        with ll (n_units, c1 - c0, M) the summed conditional row
        log-likelihood of each innermost unit at each node of combinations
        c0 to c1. The columns, one per (combination, node), are evaluated
        in chunks of ``chunk_columns``: a chunk is whole combinations, or
        nodes of one combination, which is then yielded after its last
        chunk. An outcome with intercepts is evaluated from its unit sums
        at L, the sum of its intercept values at its units, taken in one
        walk over its intercepts (``_Segments``). With ``terms``, a chunk
        is whole combinations, and ``features`` maps each such outcome to
        its feature at the chunk's columns (``_ExpLinearSums.at``,
        ``_GaussianSums.at``), to the sums of its intercept values at each
        level with scaled nodes, from the same walk, and, where the
        innermost level's nodes are scaled, to its feature as a node
        polynomial, from the sum of its intercept values outside that
        level (``node_feature``), else None; without ``terms`` it is
        empty.
        """
        st = self.level_states[-1]
        m, width = st.m, self.chunk_columns
        if terms is not None:
            width = max(m, width - width % m)
            inner = st.info.latent_names[0]
        combos = st.n_combos
        cells = x.reshape(st.n_units, combos, m, st.info.dim)
        n_active = int(st.active.sum())
        j0, end = 0, combos * m
        while j0 < end:
            j1 = min(j0 + width, end if width >= m else j0 - j0 % m + m)
            c0, c1, nodes = j0 // m, (j1 - 1) // m + 1, slice(j0 % m, (j1 - 1) % m + 1)
            if not nodes.start:  # else a later chunk of one combination: keep its sums
                out = np.zeros((st.n_units, (c1 - c0) * m))
            vals = {}
            for ost, xo in zip(self.level_states, outer):
                # node of the outer level at each combination of the chunk
                idx = np.arange(c0, c1) // (combos // xo.shape[1])
                for j, name in enumerate(ost.info.latent_names):
                    vals[name] = np.repeat(xo[:, idx, j], (j1 - j0) // (c1 - c0), axis=1)
            for j, name in enumerate(st.info.latent_names):
                vals[name] = cells[:, c0:c1, nodes, j].reshape(st.n_units, j1 - j0)
            ctx = EvalContext(self.program, theta, vals)
            part = out[:, j0 - c0 * m : j1 - c0 * m]
            features = {}
            for k, seg in enumerate(self.segments):
                if seg is None:
                    continue
                if k in sums:
                    L, scaled, outside = None, None if terms is None else [None] * len(self.tau_scaled), 0.0
                    for name, units in seg.intercepts:
                        v = vals[name] if isinstance(units, slice) else vals[name][units]
                        L = v if L is None else L + v
                        if terms is None:
                            continue
                        i = self.scaled_index.get(name)
                        if i is not None:
                            scaled[i] = v if scaled[i] is None else scaled[i] + v
                        if name != inner:  # the same at each of a combination's m nodes
                            outside = outside + v[:, ::m]
                    unit_ll, f = sums[k].at(L)
                    unit_ll[np.isnan(unit_ll)] = -np.inf  # as at the rows
                    if terms is not None:
                        features[k] = f, scaled, None if st.adaptive else sums[k].node_feature(outside, seg.inner)
                else:
                    ll = outcome_logl(ctx, k)
                    nan = np.isnan(ll)
                    if nan.any():  # rare; copying every chunk costs more than the test
                        ll = np.where(nan, -np.inf, ll)
                    # one column when ll is the same in every column; += spreads it
                    unit_ll = np.add.reduceat(ll, seg.starts, axis=0)
                part[seg.units] += unit_ll
            self.cond_evals += n_active * (j1 - j0)
            j0 = j1
            if j1 % m == 0:
                yield c0, c1, out.reshape(st.n_units, c1 - c0, m), features

    def _into_parents(self, pos: int, vals: np.ndarray, *derivs) -> tuple:
        """Sum per-unit values (n_units, n) of level ``pos``, and with them
        their score and Hessian arrays (n_units, n, ...), into the parent
        units. Children are added in order of value, so the sums do not
        depend on how units are labelled.
        """
        st = self.level_states[pos]
        order = np.lexsort((vals, np.broadcast_to(st.parent[:, None], vals.shape)), axis=0)
        out = [np.add.reduceat(np.take_along_axis(vals, order, axis=0), st.parent_starts, axis=0)]
        columns = np.arange(vals.shape[1])
        return tuple(out + [np.add.reduceat(v[order, columns], st.parent_starts, axis=0) for v in derivs])

    # -- diagnostics ------------------------------------------------------

    def profile_report(self) -> dict:
        """Integration settings per level, counters and adaptation state.
        ``likelihood_calls`` counts calls of ``logl``, one per parameter
        vector evaluated, every finite-difference probe included.
        ``derivative_passes`` counts calls of ``derivatives``, which that
        count leaves out. ``conditional_evaluations`` counts the innermost
        (active unit, node column) evaluations of calls, adaptations and
        passes alike, and ``conditional_evaluations_per_call`` divides
        them by the calls plus the passes; ``wall_time_s`` is the time
        spent in calls and passes.
        ``adaptation_iterations``, ``adaptation_fallbacks`` and
        ``adaptation_capped`` describe the latest adaptation of each cell,
        the last listing the cells it left at ``adapt_locations``'
        iteration limit with their step still at or above its tolerance;
        ``adaptation_sweeps`` counts, per
        adaptive level, the passes over its cells of every adaptation
        since the evaluator was built.
        """
        levels = {}
        for st in self.level_states:
            levels[st.info.name] = {
                "method": st.plan.method,
                "kernel": st.plan.dist if st.plan.dist == "normal" else f"t({st.plan.df})",
                "dim": st.info.dim,
                "nodes": st.m,
            }
        calls = self.n_calls + self.n_passes
        per_call = self.cond_evals / calls if calls else 0
        # keyed by (level, unit ordinal, outer-node combination)
        iterations, fallbacks, capped = {}, [], []
        for pos, (_, _, iters, flagged, stopped) in sorted(self.adapted.items()):
            st = self.level_states[pos]
            for cell in np.flatnonzero(np.repeat(st.active, st.n_combos)):
                key = (st.info.name, *divmod(int(cell), st.n_combos))
                iterations[key] = int(iters[cell])
                if flagged[cell]:
                    fallbacks.append(key)
                if stopped[cell]:
                    capped.append(key)
        return {
            "levels": levels,
            "likelihood_calls": self.n_calls,
            "derivative_passes": self.n_passes,
            "conditional_evaluations": self.cond_evals,
            "conditional_evaluations_per_call": per_call,
            "adaptation_iterations": iterations,
            "adaptation_fallbacks": fallbacks,
            "adaptation_capped": capped,
            "adaptation_sweeps": dict(self.sweeps),
            "wall_time_s": self.wall_time,
        }


def _unit_totals(values: np.ndarray) -> np.ndarray:
    """Sums of per-unit values (units, ...) over the units, entry by entry
    with ``math.fsum``, which the units' order does not change; NaN where
    a value is not finite or a sum leaves the float range (``math.fsum``
    raises there).
    """
    values = values.reshape(len(values), -1)
    try:
        if np.all(np.isfinite(values)):
            return np.array([math.fsum(col) for col in values.T.tolist()])
    except OverflowError:
        pass
    return np.full(values.shape[1], np.nan)


def _index_or_all(units: np.ndarray, n_units: int):
    """``units``, or a slice where they are all units in order, so that
    indexing with them gives a view.
    """
    return slice(None) if np.array_equal(units, np.arange(n_units)) else units


# ---------------------------------------------------------------------------
# Innermost node features of the exact derivatives
# ---------------------------------------------------------------------------


class _NodePoly(dict):
    """A node polynomial on nodes u that every cell shares: {(a, b):
    coefficient} for the sum of coefficient u^a e^(b u), a coefficient
    being a float or per-cell values (units, C, 1). ``*`` and ``+`` take
    node polynomials, floats and arrays, and per-unit values (units, 1,
    1) act on them as on node arrays (units, C, M): one expression serves
    both (``_node_terms``).
    """

    __array_ufunc__ = None  # an array operand defers to the reflected operators

    def __add__(self, other):
        return _NodePoly._sum([*self.items(), *_NodePoly._of(other).items()])

    def __mul__(self, other):
        other = _NodePoly._of(other)
        return _NodePoly._sum(
            ((a1 + a2, b1 + b2), c1 * c2) for (a1, b1), c1 in self.items() for (a2, b2), c2 in other.items()
        )

    __radd__, __rmul__ = __add__, __mul__

    @staticmethod
    def _of(value) -> _NodePoly:
        return value if isinstance(value, _NodePoly) else _NodePoly({(0, 0): value})

    @staticmethod
    def _sum(terms) -> _NodePoly:
        out = _NodePoly()
        for key, c in terms:
            out[key] = out[key] + c if key in out else c
        return out

    def mean(self, moments: dict) -> np.ndarray:
        """Its posterior mean (units, C), given the moments of its terms
        (``_node_moments``)."""
        return sum(c * moments[key] for key, c in self.items())[..., 0]

    def magnitude(self, moments: dict) -> np.ndarray:
        """sum |coefficient| sqrt(E[(u^a e^(b u))^2]) (units, C), given the
        moments of its square's terms."""
        return sum(np.abs(c) * np.sqrt(moments[2 * a, 2 * b]) for (a, b), c in self.items())[..., 0]


def _node_moments(w: np.ndarray, u: np.ndarray, polys: list) -> dict:
    """(a, b) -> the posterior means E[u^a e^(b u)] (units, C, 1) of every
    term of the given node polynomials on nodes u (M,), from one
    contraction of the cells' weights w (units, C, M) with one table of
    those node functions: a dot product per cell over the node axis
    alone, so that no cell's value depends on the cells beside it.
    """
    keys = sorted({key for poly in polys for key in poly})
    powers = {a: u**a for a in {a for a, _ in keys}}
    exps = {b: np.exp(b * u) for b in {b for _, b in keys}}
    table = np.stack([powers[a] * exps[b] if a and b else powers[a] if a else exps[b] for a, b in keys])
    return dict(zip(keys, np.vecdot(table[:, None, None, :], w)[..., None]))


def _present(*parts) -> list:
    """The (coefficient, factors) parts whose coefficient is not 0
    throughout; None stands for 0."""
    return [(c, factors) for c, factors in parts if c is not None and (c.any() if isinstance(c, np.ndarray) else c)]


def _unit_rows(n: int, p: int, slot: int) -> np.ndarray:
    """n rows of the unit vector of ``slot`` among p."""
    c = np.zeros((n, p))
    c[:, slot] = 1.0
    return c


def _fold(entries: list, mean, hess: np.ndarray) -> list:
    """Add ``_node_terms``' entries, in order, into the mean conditional
    Hessian ``hess`` (units, C, p, p), given mean(factors), the cells'
    posterior means (units, C) of a product; return the features
    (phi, E[phi], c).
    """
    features = []
    for parts, indices, c in entries:
        terms = []
        for coefficient, factors in parts:
            if factors:
                m = mean(factors)
                if c is not None:
                    features.append((factors[0], m, c))
                if isinstance(coefficient, np.ndarray):
                    m, coefficient = m.reshape(m.shape + (1,) * (coefficient.ndim - 1)), coefficient[:, None]
            terms.append(m * coefficient if factors else coefficient[:, None])
        if terms:
            total = functools.reduce(operator.add, terms)
            for index in indices:
                hess[index] += total
    return features


def _assemble(a: np.ndarray, W: np.ndarray, features: list, cov: np.ndarray, hess: np.ndarray) -> tuple:
    """The cells' score a W + E[phi]'c and Hessian, ``hess`` plus
    c' Cov(phi) c, from their features (phi, E[phi], c), their weights'
    sums W (units, C) and the features' posterior covariance ``cov``.
    """
    coef = np.stack([c for *_, c in features], axis=1)[:, None]  # (units, 1, R, p)
    means = np.stack([mean for _, mean, _ in features], axis=-1)[..., None, :]  # (units, C, 1, R)
    score = a[:, None] * W[..., None] + (means @ coef)[..., 0, :]
    hess += np.swapaxes(coef, -1, -2) @ cov @ coef
    return score, hess


def _louis(w: np.ndarray, score: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The score and Hessian of log sum_j exp(l_j) over the node axis,
    given the posterior weights w (..., nodes), the conditional scores
    dl_j (..., nodes, p) and the posterior mean of the conditional
    Hessians (..., p, p): the posterior mean of the scores (Fisher's
    identity) and ``hess`` plus their posterior covariance (Louis 1982),
    from scores centred first.
    """
    mean = np.einsum("...j,...jp->...p", w, score)
    dev = score - mean[..., None, :]
    dev *= np.sqrt(w)[..., None]
    return mean, hess + np.swapaxes(dev, -1, -2) @ dev
