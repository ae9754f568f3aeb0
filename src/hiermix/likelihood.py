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
These unit sums are computed once
per entry point (``_unit_sums``: once per ``logl`` call, per ``refresh``
and per pass) and handed down the level recursion, and each chunk adds
their units x columns form into its row sums (``_collapsed``). Which
outcomes take this path follows from the model alone; the two forms
differ by rounding.

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

import math
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
            if lp.method == "aghq" and lp.adaptive and lp.q < 2:
                # one node at the posterior mode carries no information on
                # the posterior's spread, so the adaptation collapses it
                raise ValueError(f"level {name!r}: adaptive quadrature needs at least 2 points")
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

    def coefficient(self, outer) -> np.ndarray:
        """S exp(m + l) at the sum l of the intercept values outside the
        innermost level (units, combinations): the feature at L = l + n u
        is this times e^(n u).
        """
        return self.S * np.exp(self.m + outer)


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

    def coefficient(self, outer) -> np.ndarray:
        """r-bar - l, as ``_ExpLinearSums.coefficient``: the feature at
        L = l + n u is this less n u.
        """
        return self.mean - outer


class _OutcomeTerms(NamedTuple):
    """One outcome's conditional log-likelihood l at a unit, as a
    polynomial in its feature f there (``_ExpLinearSums.at``,
    ``_GaussianSums.at``), for ``LikelihoodEvaluator.derivatives``: per
    unit with rows of it, in every parameter slot,
    dl/dtheta = a + f b + f^2 c, d2l/dtheta2 = A + f B + f^2 C,
    d2l/dtheta dL = e + f e', dl/dL = v + f v' and d2l/dL2 = h + f h', at
    summed intercepts L. A term that is 0 throughout is None; the last
    two pairs are floats or (units, 1, 1) arrays.
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
            # outcome -> how many of its intercepts sit at the innermost level
            inner = self.level_states[-1].info.latent_names[0]
            self.inner_counts = {k: [name for name, _ in at].count(inner) for k, (_, at) in self.intercept_units.items()}
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
        """Row segments per innermost unit for every outcome, and which
        units at each level have rows below them.
        """
        program = self.program
        self.n_rows = sum(co.rows.size for co in program.outcomes)
        if not self.level_states:
            return
        inner = self.level_states[-1]
        self.segments: list = []  # per outcome: (reduceat starts, unit ordinal per segment)
        # outcome with intercepts -> (segment of each row, [(latent name,
        # unit ordinal at its level per segment)])
        self.intercept_units: dict = {}
        has_rows = np.zeros(inner.n_units, dtype=bool)
        for k, co in enumerate(program.outcomes):
            if co.rows.size == 0:
                self.segments.append(None)
                continue
            ordinals = co.units[inner.info.name]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(ordinals) != 0) + 1))
            units = ordinals[starts]
            self.segments.append((starts, _index_or_all(units, inner.n_units)))
            has_rows[units] = True
            if co.intercepts is None:
                continue
            h = program.hierarchy
            at_level = [
                (info.name, _index_or_all(co.units[info.level][starts], h.n_units(h.levels.index(info.level))))
                for info in co.intercepts
            ]
            row_segment = np.repeat(np.arange(starts.size), np.diff(starts, append=co.rows.size))
            self.intercept_units[k] = row_segment, at_level
        inner.active = has_rows
        for pos in range(len(self.level_states) - 1, 0, -1):
            st, outer = self.level_states[pos], self.level_states[pos - 1]
            outer.active = np.zeros(outer.n_units, dtype=bool)
            outer.active[st.parent[st.active]] = True

    def _unit_sums(self, theta: np.ndarray, k: int, derivatives: bool = False):
        """The sums of outcome k, which has intercepts, over each
        innermost unit's rows, so that the unit's conditional
        log-likelihood at summed intercept values L follows from them
        alone (see the module docstring): ``_ExpLinearSums``, in which
        taking out m keeps exp(a - m) <= 1, so that nothing overflows that
        the rows would not; or ``_GaussianSums``. With ``derivatives``,
        also its ``_OutcomeTerms``.
        """
        co = self.program.outcomes[k]
        starts = self.segments[k][0]
        row_segment = self.intercept_units[k][0]
        if co.family.per_cluster == "gaussian":
            return self._gaussian_sums(theta, k, derivatives)
        a, anc = row_part(self.program, k, theta)
        if co.rp is not None:  # rp's own parameters are its spline coefficients
            anc = theta[co.spline_slots]
        lin, b, c, *anc = co.family.exp_linear(co.response, anc, co.event, co.entry, derivatives, co.rp)
        m = np.maximum.reduceat(a, starts)
        e = np.exp(a - m[row_segment])
        w = c * e
        K, D, S = (np.add.reduceat(v, starts)[:, None] for v in (lin + b * a, b, w))
        sums = _ExpLinearSums(K, D, S, m[:, None])
        if not derivatives:
            return sums
        # per row, with W = C exp(a - m), the derivatives of A + B a and of
        # W in the row part's slots (first) and the family's own, its
        # ancillary or ``rp``'s spline coefficients, which the row part's
        # may share; per unit, those of W over S, 0 where S is
        design, x = co.design
        d1a, d2a, d1c, d2c = anc
        own = [] if d1a is None else co.spline_slots + co.anc_slots
        slots = design + [s for s in own if s not in design]
        q, o = len(design), np.array([slots.index(s) for s in own], dtype=int)
        alpha, w1 = np.zeros((2, b.size, len(slots)))
        w2 = np.zeros((b.size, len(slots), len(slots)))
        alpha[:, :q] = b[:, None] * x
        w1[:, :q] = w[:, None] * x
        w2[:, :q, :q] = w1[:, :q, None] * x[:, None, :]
        if own:
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
        r1 = np.divide(w1, S, out=np.zeros_like(w1), where=positive[:, None])
        r2 = np.divide(w2, S[:, :, None], out=np.zeros_like(w2), where=positive[:, None, None])
        p = theta.size
        in_slots = _in_slots(slots, p)
        alpha2 = _in_slots(own, p)(np.add.reduceat(d2a, starts)) if own else np.zeros((len(starts), p, p))
        r1 = -in_slots(r1)
        hess = (alpha2, -in_slots(r2), None)
        return sums, _OutcomeTerms((in_slots(alpha), r1, None), hess, (None, r1), (sums.D[:, :, None], -1.0), (0.0, -1.0))

    def _gaussian_sums(self, theta: np.ndarray, k: int, derivatives: bool):
        """``_unit_sums`` of a Gaussian outcome. With r = y - a, r-bar its
        mean over a unit's rows, x the rows' compiled ``design``,
        Sx = sum(x), Sxx = sum(x x') and Sxr = sum((r - r-bar) x), the
        derivatives of its conditional log-likelihood at L, in the row
        part's slots and ln_sd (sigma^2 = V), with feature f = r-bar - L,
        are: (Sxr + f Sx) / V and -n + (Q + n f^2) / V; -Sxx / V,
        -2 (Sxr + f Sx) / V and -2 (Q + n f^2) / V; in L, n f / V and
        -n / V; and across, -Sx / V and -2 n f / V.
        """
        co = self.program.outcomes[k]
        starts = self.segments[k][0]
        row_segment = self.intercept_units[k][0]
        n = np.diff(starts, append=co.rows.size).astype(float)
        a, (sigma,) = row_part(self.program, k, theta)
        r = co.response - a
        mean = np.add.reduceat(r, starts) / n
        dev = r - mean[row_segment]
        K = -n * (0.5 * _LOG_2PI + np.log(sigma))
        Q = np.add.reduceat(dev * dev, starts)
        sums = _GaussianSums(*(v[:, None] for v in (K, n, mean, Q / (2.0 * sigma * sigma))), math.sqrt(2.0) * sigma)
        if not derivatives:
            return sums
        slots, x = co.design
        sx, sxx, sxr = (np.add.reduceat(v, starts) for v in (x, x[:, :, None] * x[:, None, :], dev[:, None] * x))
        h2 = 1.0 / (sigma * sigma)
        s = co.anc_slots[0]
        p = theta.size
        in_slots = _in_slots(slots, p)
        a, b, c, e, f = (np.zeros((len(starts), p)) for _ in range(5))
        A, B, C = (np.zeros((len(starts), p, p)) for _ in range(3))
        a[:, slots], a[:, s] = sxr * h2, Q * h2 - n
        b[:, slots] = sx * h2
        c[:, s] = n * h2
        A += in_slots(-h2 * sxx)
        A[:, slots, s] = A[:, s, slots] = -2.0 * h2 * sxr
        A[:, s, s] = -2.0 * h2 * Q
        B[:, slots, s] = B[:, s, slots] = -2.0 * h2 * sx
        C[:, s, s] = -2.0 * h2 * n
        e[:, slots] = -h2 * sx
        f[:, s] = -2.0 * h2 * n
        curvature = (-h2 * n)[:, None, None]
        return sums, _OutcomeTerms((a, b, c), (A, B, C), (e, f), (0.0, -curvature), (curvature, 0.0))

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
        """Marginal log-likelihood at one parameter vector. A level that
        still has to adapt adapts first.
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
        return {k: self._unit_sums(theta, k) for k in self.intercept_units}

    def _logl(self, theta: np.ndarray) -> float:
        """The value of ``logl``, uncounted."""
        if not self.level_states:
            ctx = EvalContext(self.program, theta)
            total = 0.0
            for k, co in enumerate(self.program.outcomes):
                if co.rows.size == 0:
                    continue
                ll = outcome_logl(ctx, k)[:, 0]
                self.cond_evals += 1
                if not np.all(np.isfinite(ll)):
                    return -np.inf
                total += math.fsum(ll.tolist())
            return total
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            per_unit = self._integrate(theta, 0, [], self._all_sums(theta))[0]
        col = per_unit[self.level_states[0].active, 0]
        return math.fsum(col.tolist()) if np.all(np.isfinite(col)) else -np.inf

    # -- exact derivatives ------------------------------------------------
    #
    # For a model in the scope of ``exact``, the conditional log-likelihood
    # of an innermost cell at node u is a sum over outcomes k of
    # l_k(theta, L_k), with L_k the sum of k's intercept values there
    # (``_collapsed``). Given each outcome's ``_OutcomeTerms``, its score
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
    # conditional score. At the innermost level a node's conditional score
    # is a per-unit constant plus a few node features times per-unit
    # coefficients, so only the features' posterior means and covariance
    # are taken over the nodes. On adaptive nodes, which differ per cell,
    # they are taken from the features at each cell's nodes
    # (``_block_derivatives``). On scaled nodes every cell has the same
    # node values u, each feature is a per-cell coefficient times a
    # function of u, and every mean and covariance is a per-cell
    # combination of a few moments E[u^a e^(b u)] from one table of node
    # functions (``_shared_derivatives``); a unit whose raw moments could
    # lose digits takes the per-cell form instead. At an outer
    # level the conditional score and Hessian at a node are the sums of
    # those of its child cells, added in ``_into_parents``'s order, and
    # the covariance is taken over the node scores themselves
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
        ``maximize`` may take a value from either; where it is not finite, the score and information are NaN, and so is either
        where a unit's share of it is not finite. Each is summed over the
        outermost units with ``math.fsum``, and inner units are added in
        order of value, so the result does not depend on how units are
        labelled. A level that still has to adapt adapts first, as in
        ``logl``. Counted in ``derivative_passes``, not as a ``logl``
        call; its time and its active units x node columns count in
        ``wall_time_s`` and ``conditional_evaluations`` as a call's do.
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
            for k in self.intercept_units:
                sums[k], terms[k] = self._unit_sums(theta, k, derivatives=True)
            unit_logl, unit_score, unit_hess = (v[:, 0] for v in self._integrate(theta, 0, [], sums, terms))
        act = self.level_states[0].active
        if not np.all(np.isfinite(unit_logl[act])):
            return -np.inf, np.full(p, np.nan), np.full((p, p), np.nan)

        def total(values):  # NaN throughout where a unit's value is not finite
            values = values[act].reshape(int(act.sum()), -1)
            if not np.all(np.isfinite(values)):
                return np.full(values.shape[1], np.nan)
            return np.array([math.fsum(col) for col in values.T.tolist()])

        info = -total(unit_hess).reshape(p, p)
        return math.fsum(unit_logl[act].tolist()), total(unit_score), 0.5 * (info + info.T)

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
        outcome's (feature, intercept values at each scaled level, feature
        coefficient) at the cells' nodes (``_row_sums``). On scaled nodes,
        which every cell shares, they are the shared-node moments'
        (``_shared_derivatives``), and only the units whose raw moments
        could lose digits take the per-cell form; on adaptive nodes every
        unit takes it (``_per_cell``).
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
        """``_inner_derivatives`` of the innermost units u0 to u1 in the
        per-cell form, whose node features, units x C x M each, are formed
        for blocks of units of at most _CHUNK_VALUES values.
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
        seg = self.segments[k][1]
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

    def _shared_derivatives(self, theta, w, u, feats: dict, terms: dict) -> tuple:
        """``_inner_derivatives`` on the scaled innermost nodes u (M,),
        which every cell shares, and the units to redo in the per-cell
        form. Each node feature of ``_block_derivatives`` is a node
        polynomial, per-cell coefficients times u^a e^(b u): an outcome's
        feature is S e^(m + l) e^(n u) (exp-linear) or (r-bar - l) - n u
        (Gaussian), with n its intercepts at the innermost level and l the
        sum of the others (the coefficient of ``_row_sums``); its
        intercept sum is n u at the innermost level and l_i at a scaled
        level outside; a node score T is a sum of their products. So every
        posterior mean the cells need is a per-cell sum of moments
        E[u^a e^(b u)], taken in one contraction (``_NodeMeans``), and
        their score and Hessian follow as in ``_block_derivatives``. The
        covariance is the raw second moments less the means' products
        times 2 - W, W the weights' sum, which is what features centred
        node by node give. Where the features are large beside their
        spread, those differences cancel: they can lose about eps times
        the square of the spread sum_r |c_r| sum_t |coefficient_t|
        sqrt(E[g_t^2]), over the terms g_t of each phi_r. A unit is redone
        where that square exceeds ``_RAW_MOMENT_SPREAD`` times the norm of
        a cell's score and Hessian entries, or where an entry is not
        finite (an e^(b u) that overflows at a node without weight, say).
        """
        n_units, combos, m = w.shape
        p, tau = theta.size, self.tau_scaled
        inner = len(tau) - 1  # the innermost level's place among the scaled levels
        a = np.zeros((n_units, p))
        hess = np.zeros((n_units, combos, p, p))
        linear = []  # (polynomial, coefficient, hess indices): the mean conditional Hessian
        features = []  # (phi, c)
        node_scores = [{} for _ in tau]
        whole = [(...,)]

        def both(i, j):  # the (tau_i, tau_j) entries
            return [(..., tau[i], tau[j])] + ([(..., tau[j], tau[i])] if j != i else [])

        for k, (_, scaled, coef) in feats.items():
            place = self._placer(k, 0, n_units)
            (ak, b, c), (A, B, C), (e, e1), (v0, v1), (h0, h1) = (tuple(map(place, pair)) for pair in terms[k])
            n, coef = self.inner_counts[k], place(coef)
            f = {(0, n): coef} if c is None else {(0, 0): coef, (1, 0): -float(n)}
            a += ak
            hess += A[:, None]
            linear.append((f, B[:, None], whole))
            features.append((f, b))
            if c is not None:
                f2 = _times(f, f)
                linear.append((f2, C[:, None], whole))
                features.append((f2, c))
            # k's intercept sum at each scaled level: n u at the innermost,
            # a per-cell constant outside (the same at every node of a cell)
            L = [None if v is None or i == inner else {(0, 0): place(v[:, ::m])} for i, v in enumerate(scaled)]
            if n:
                L[inner] = {(1, 0): float(n)}
            fL = [None if Li is None else _times(f, Li) for Li in L]
            for i, Li in enumerate(L):
                if Li is None:
                    continue
                node_scores[i] = _poly((1.0, node_scores[i]), (_cellwise(v0), Li), (_cellwise(v1), fL[i]))
                cross = [(..., slice(None), tau[i]), (..., tau[i], slice(None))]
                linear.append((fL[i], e1[:, None], cross))
                if e is not None:
                    linear.append((Li, e[:, None], cross))
                for j in range(i, len(L)):
                    if L[j] is not None:
                        # E[(h' f + h) L_i L_j] as h' E[f L_i L_j] + h E[L_i L_j]
                        poly = _poly((_cellwise(h1), _times(fL[i], L[j])), (_cellwise(h0), _times(Li, L[j])))
                        linear.append((poly, 1.0, both(i, j)))
        for i, T in enumerate(node_scores):
            if T:  # E[T] is also the mean of dl/dL d2L/dtau2
                linear.append((T, 1.0, both(i, i)))
                c = np.zeros((n_units, p))
                c[:, tau[i]] = 1.0
                features.append((T, c))
        weight = {(0, 0): 1.0}
        squares = {(r, s): _times(features[r][0], features[s][0]) for r in range(len(features)) for s in range(r, len(features))}
        means = _NodeMeans(w, u, [weight, *(poly for poly, _, _ in linear), *(phi for phi, _ in features), *squares.values()])
        value = means.mean
        for poly, coefficient, indices in linear:
            mean = value(poly)
            if np.ndim(coefficient) > 2:
                mean = mean.reshape(mean.shape + (1,) * (coefficient.ndim - 2))
            term = mean * coefficient
            for index in indices:
                hess[index] += term
        W = value(weight)
        mu = [value(phi) for phi, _ in features]
        score = a[:, None] * W[..., None]
        for m_r, (_, c) in zip(mu, features):
            score += m_r[..., None] * c[:, None]
        coef = np.empty((n_units, 1, len(features), p))
        for r, (_, c) in enumerate(features):
            coef[:, 0, r] = c
        cov = np.empty((n_units, combos) + (len(features),) * 2)
        for (r, s), poly in squares.items():
            cov[..., r, s] = cov[..., s, r] = value(poly) - mu[r] * mu[s] * (2.0 - W)
        hess += np.swapaxes(coef, -1, -2) @ (cov @ coef)
        # what the raw second moments may lose, against the norm of each
        # cell's entries, which is not finite where an entry is not
        spread = sum(means.magnitude(phi) * np.sqrt(np.vecdot(c, c))[:, None] for phi, c in features)
        size = np.sqrt(np.vecdot(score, score) + np.vecdot(*(hess.reshape(n_units, combos, -1),) * 2))
        keep = (spread * spread <= _RAW_MOMENT_SPREAD * size) & np.isfinite(size)
        return score, hess, ~keep.all(axis=1)

    def _block_derivatives(self, theta, w, u, feats: dict, terms: dict, u0: int, u1: int) -> tuple:
        """``_inner_derivatives`` of the innermost units u0 to u1, whose
        weights and node values are w and u, in the per-cell form. A
        node's conditional score is a + sum_r phi_r c_r over a few node
        features phi_r with per-unit coefficients c_r: each outcome's
        feature f (coefficient b) and, where it has a c term, f^2
        (coefficient c); each scaled level's node score
        T = sum_k (v_k + v'_k f_k) L_k in its log scale; and an adaptive
        level's prior score d1. The cells' score is then a + E[phi]'c, and
        their Hessian the posterior mean of the conditional Hessian plus
        c' Cov(phi) c, from features centred node by node. Every posterior
        mean is a dot product over the node axis alone (``np.vecdot``), so
        no cell's value depends on the block it falls in.
        """
        st = self.level_states[-1]
        nb, p, tau = u1 - u0, theta.size, self.tau_scaled

        def unit_vector(slot):
            c = np.zeros((nb, p))
            c[:, slot] = 1.0
            return c

        a = np.zeros((nb, p))
        hess = np.zeros(w.shape[:2] + (p, p))  # the posterior mean of the conditional Hessian
        product = np.empty(w.shape)  # one buffer for products with the weights
        features = []  # (phi, E[phi], c)
        node_scores = [None] * len(tau)  # T at each scaled level
        for k, (f, scaled, _) in feats.items():
            place = self._placer(k, u0, u1)
            (ak, b, c), (A, B, C), (e, e1), (v0, v1), (h0, h1) = (tuple(map(place, pair)) for pair in terms[k])
            f = place(f.reshape((-1,) + w.shape[1:]))
            f[w == 0.0] = 0.0  # no inf * 0 where a node has no weight
            a += ak
            hess += A[:, None]
            mean = np.vecdot(w, f)
            features.append((f, mean, b))
            hess += mean[..., None, None] * B[:, None]
            if c is not None:
                f2 = f * f
                mean = np.vecdot(w, f2)
                features.append((f2, mean, c))
                hess += mean[..., None, None] * C[:, None]
            if not tau:
                continue
            # dL/dtau = L and d2L/dtau2 = L at each scaled level, L the sum
            # of k's intercept values there; v, v', h and h' are per unit
            L = [None if v is None else place(v.reshape((-1,) + w.shape[1:])) for v in scaled]
            wf = w * f
            for i, Li in enumerate(L):
                if Li is None:
                    continue
                T = v1 * f
                T += v0
                T *= Li
                node_scores[i] = T if node_scores[i] is None else node_scores[i] + T
                cross = np.vecdot(wf, Li)[..., None] * e1[:, None]
                if e is not None:
                    cross += np.vecdot(w, Li)[..., None] * e[:, None]
                hess[..., :, tau[i]] += cross
                hess[..., tau[i], :] += cross
                for j in range(i, len(L)):
                    if L[j] is None:
                        continue
                    # E[(h' f + h) L_i L_j] as h' E[f L_i L_j] + h E[L_i L_j]
                    both = 0.0
                    if np.any(h1):
                        both = _cellwise(h1) * np.vecdot(np.multiply(wf, Li, out=product), L[j])
                    if np.any(h0):
                        both = both + _cellwise(h0) * np.vecdot(np.multiply(w, Li, out=product), L[j])
                    hess[..., tau[i], tau[j]] += both
                    if j != i:
                        hess[..., tau[j], tau[i]] += both
        for i, T in enumerate(node_scores):
            if T is not None:  # E[T] is also the mean of dl/dL d2L/dtau2
                mean = np.vecdot(w, T)
                features.append((T, mean, unit_vector(tau[i])))
                hess[..., tau[i], tau[i]] += mean
        if st.adaptive:
            d1, d2 = st.kernel.scale_derivatives(u, self.level_chol(st, theta))
            slot = st.info.re_slots[0]
            features.append((d1, np.vecdot(w, d1), unit_vector(slot)))
            hess[..., slot, slot] += np.vecdot(w, d2)
        coef = np.stack([c for _, _, c in features], axis=1)[:, None]  # (units, 1, R, p)
        means = np.stack([mean for _, mean, _ in features], axis=-1)[..., None, :]  # (units, C, 1, R)
        score = a[:, None] * w.sum(axis=-1)[..., None] + (means @ coef)[..., 0, :]  # a's mean over weights summing to about 1
        cov = np.empty(w.shape[:2] + (len(features),) * 2)
        for phi, mean, _ in features:
            phi -= mean[..., None]
        for r, (phi, _, _) in enumerate(features):
            weighted = np.multiply(w, phi, out=product)
            for s in range(r, len(features)):
                cov[..., r, s] = cov[..., s, r] = np.vecdot(weighted, features[s][0])
        hess += np.swapaxes(coef, -1, -2) @ cov @ coef
        return score, hess

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
        chunk. With ``terms``, a chunk is whole combinations, and
        ``features`` maps each outcome to its feature at the chunk's
        columns (see ``_collapsed``), to the sums of its intercept values
        at each level with scaled nodes (``_scaled_values``) and, where the
        innermost level's nodes are scaled, to its feature's per-cell
        coefficient (``_coefficient``), else None; without ``terms`` it is
        empty.
        """
        st = self.level_states[-1]
        m, width = st.m, self.chunk_columns
        if terms is not None:
            width = max(m, width - width % m)
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
            for k, segments in enumerate(self.segments):
                if segments is None:
                    continue
                starts, seg_units = segments
                if k in sums:
                    intercepts = self.intercept_units[k][1]
                    unit_ll, f = self._collapsed(sums[k], intercepts, vals)
                    if terms is not None:
                        coef = None if st.adaptive else self._coefficient(sums[k], intercepts, vals, m)
                        features[k] = f, self._scaled_values(intercepts, vals), coef
                else:
                    ll = outcome_logl(ctx, k)
                    nan = np.isnan(ll)
                    if nan.any():  # rare; copying every chunk costs more than the test
                        ll = np.where(nan, -np.inf, ll)
                    # one column when ll is the same in every column; += spreads it
                    unit_ll = np.add.reduceat(ll, starts, axis=0)
                part[seg_units] += unit_ll
            self.cond_evals += n_active * (j1 - j0)
            j0 = j1
            if j1 % m == 0:
                yield c0, c1, out.reshape(st.n_units, c1 - c0, m), features

    @staticmethod
    def _intercept_values(intercepts: list, vals: dict):
        """Yield (latent name, values at the outcome's units) for each of
        an outcome's intercepts."""
        for name, units in intercepts:
            v = vals[name]
            if not isinstance(units, slice):  # an outer level's values at each unit
                v = v[units]
            yield name, v

    @classmethod
    def _collapsed(cls, stats, intercepts: list, vals: dict) -> tuple[np.ndarray, np.ndarray]:
        """The conditional log-likelihood of one outcome's units at the
        columns of a chunk, from its unit sums ``stats`` (see
        ``_unit_sums``) at L, the sum of each unit's intercept values
        there; and its feature there (``_ExpLinearSums.at``,
        ``_GaussianSums.at``).
        """
        L = None
        for _, v in cls._intercept_values(intercepts, vals):
            L = v if L is None else L + v
        ll, feature = stats.at(L)
        ll[np.isnan(ll)] = -np.inf  # as at the rows
        return ll, feature

    def _coefficient(self, stats, intercepts: list, vals: dict, m: int) -> np.ndarray:
        """An outcome's per-cell feature coefficient on scaled innermost
        nodes at the combinations of a chunk of whole ones (units,
        combinations): ``stats.coefficient`` at the sum of its intercept
        values outside the innermost level, which are the same at each of
        a combination's m nodes.
        """
        inner = self.level_states[-1].info.latent_names[0]
        outer = [(name, units) for name, units in intercepts if name != inner]
        total = 0.0
        for _, v in self._intercept_values(outer, {name: vals[name][:, ::m] for name, _ in outer}):
            total = total + v
        return stats.coefficient(total)

    def _scaled_values(self, intercepts: list, vals: dict) -> list:
        """The sum of an outcome's intercept values at each level with
        scaled nodes, (units, columns) each, or None at a level where it
        has none: their derivatives in the levels' log scales.
        """
        out = [None] * len(self.tau_scaled)
        for name, v in self._intercept_values(intercepts, vals):
            i = self.scaled_index.get(name)
            if i is not None:
                out[i] = v if out[i] is None else out[i] + v
        return out

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


def _cellwise(h):
    """A float, or per-unit values (units, 1, 1) as (units, 1), against
    (units, C) means."""
    return h[..., 0] if isinstance(h, np.ndarray) else h


def _in_slots(slots: list, p: int):
    """A map from per-unit arrays (units, q) or (units, q, q) in the
    slots ``slots`` to arrays in all p slots, 0 elsewhere.
    """

    def place(v):
        out = np.zeros(v.shape[:1] + (p,) * (v.ndim - 1))
        out[(slice(None), *np.ix_(*[slots] * (v.ndim - 1)))] = v
        return out

    return place


def _index_or_all(units: np.ndarray, n_units: int):
    """``units``, or a slice where they are all units in order, so that
    indexing with them gives a view.
    """
    return slice(None) if np.array_equal(units, np.arange(n_units)) else units


# ---------------------------------------------------------------------------
# Posterior moments of the exact derivatives
# ---------------------------------------------------------------------------


class _NodeMeans:
    """Posterior means over one level's nodes u (M,), which every cell
    shares, of node polynomials: dicts {(a, b): coefficient} that stand
    for the sum of coefficient u^a e^(b u), each coefficient a float or
    per-cell values. Every mean comes from one contraction of the cells'
    posterior weights w (..., M) with one table of the u^a e^(b u) that
    the given polynomials hold, a dot product per cell over the node axis
    alone, so that no cell's value depends on the cells beside it; each
    polynomial's mean is taken once, however often it is given.
    """

    def __init__(self, w: np.ndarray, u: np.ndarray, polys: list):
        keys = sorted({key for poly in polys for key in poly})
        powers = {a: u**a for a in {a for a, _ in keys}}
        exps = {b: np.exp(b * u) for b in {b for _, b in keys}}
        table = np.stack([powers[a] * exps[b] if a and b else powers[a] if a else exps[b] for a, b in keys])
        self.moments = dict(zip(keys, np.vecdot(table[:, None, None, :], w)))
        self.polys, self.means = polys, {}  # the polynomials, which keep their ids, and their means
        for poly in polys:
            if id(poly) not in self.means:
                self.means[id(poly)] = sum(c * self.moments[key] for key, c in poly.items())

    def mean(self, poly: dict):
        """The mean of one of the polynomials given."""
        return self.means[id(poly)]

    def magnitude(self, poly: dict):
        """sum |coefficient| sqrt(E[(u^a e^(b u))^2]), given the square of
        the polynomial among those of the table."""
        return sum(np.abs(c) * np.sqrt(self.moments[2 * a, 2 * b]) for (a, b), c in poly.items())


def _times(p: dict, q: dict) -> dict:
    """The product of two node polynomials (``_NodeMeans``)."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key, term = (a1 + a2, b1 + b2), c1 * c2
            out[key] = out[key] + term if key in out else term
    return out


def _poly(*terms) -> dict:
    """sum c p over the (c, p) of node polynomials p; a c that is the float
    0 adds nothing."""
    out = {}
    for c, poly in terms:
        if isinstance(c, float) and c == 0.0:
            continue
        for key, v in poly.items():
            term = c * v
            out[key] = out[key] + term if key in out else term
    return out


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
