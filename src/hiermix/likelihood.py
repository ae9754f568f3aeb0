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
iteration. The evaluator keeps each level's latest per-cell shifts and
scales (``adapted``) and the nodes they place (``placed``), which calls
read until the next refresh, placed, weighed and reduced with the
adaptation's own code (``integrate``).

Where every outcome's conditional log-likelihood is quadratic in every
latent value (Gaussian outcomes summed per unit, one intercept at every
level, normal kernels: ``_posterior_scope``), the adapted rule is the
cells' exact posterior, formed in closed form once per refresh
(``_precisions``, ``_posterior``). Each level's nodes are placed there,
outermost level first and each inner level at the outer level's placed
nodes: a refresh runs no sweep and evaluates no conditional. The rule
placed is a fixed point of the mean-variance sweeps, which, started
there, find a step of rounding size and keep it. A level where some
active cell's closed-form start is not finite adapts by sweeps from it
instead, that cell from the prior.

Every other model adapts by sweeps (``adapt_locations``): a cell falls
back, to the prior's rule, where a call at the rule being adapted would
read its log integral as not finite. An inner level of nested
quadrature is re-adapted at every evaluation of the outer level's
adaptation. An adaptation ends at the rule its last evaluation was at,
so the outer level's last evaluation leaves the inner levels adapted at
its final nodes, and each evaluation reads the inner levels' integrals
from their adaptations' last evaluations, bit for bit those a call
computes, instead of integrating them again; an outermost level's
closing evaluation, which nothing would read, is not run. The sweeps
are warm-started, as in Rabe-Hesketh, Skrondal & Pickles (2005): from
the level's previous result, that of the previous refresh or, for an
inner level, that at the previous evaluation of the outer level's
adaptation. Cells keep one canonical order from construction on, so the
shapes always match; a cell that fell back in its latest adaptation,
and every cell at the evaluator's first, start from the prior.

At the innermost level the conditional log-likelihood is a units x
columns array, one column per (outer-node combination, node). Its
columns are evaluated in chunks whose arrays hold about
``_CHUNK_VALUES`` (2^16) values each, so that the temporaries of one
evaluation stay cache-sized however many draws a level has: innermost
units x columns, and rows x columns for an outcome evaluated row by
row. A chunk is as many whole combinations as fit; where one
combination's nodes do not fit, it is a run of nodes inside one
combination, whose row sums gather over its chunks. A model whose
arrays fit the budget runs as one chunk. Every operation acts on each
column alone, so the chunking never changes a result.
Node axes are reduced, over whole combinations, with ``integrate``'s
``logsumexp``, which repeats the arithmetic of ``scipy.special.logsumexp``
for real input without its generic array-API overhead, and forms each
exponential once, in the array it reduces; a derivative pass takes the
posterior weights from the same call, from those exponentials. At the
innermost level a chunk's conditional is built in one array, its
log-corrections are added into it, and ``logsumexp`` turns it into the
weights.

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
2008, *The Frailty Model*, ch. 2). On nodes that every cell shares (QMC
draws and non-adaptive quadrature), L is a per-cell sum l outside the
innermost level plus a per-node sum v at it, and S exp(L + m) is formed
as S exp(m + l + top) times exp(v - top), top the largest v at the
level: one exponential per cell and one per node. A Gaussian unit's is
quadratic in L: with n rows, residuals r = y - a, their mean r-bar and
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

from .integrate import ReKernel, adapt_locations, gh_grid, gh_rule, halton, kernel_draws, log_correction, logsumexp
from .integrate import Adaptation, place_nodes
from .predictor import EvalContext, Program, outcome_logl, row_part

_LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "LevelPlan",
    "IntegrationPlan",
    "default_plan",
    "LikelihoodEvaluator",
]


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
    points: int | dict | None = None,
    draws: int | dict | None = None,
    method: str | dict | None = None,
    redistribution: str | dict | None = None,
    t_df: int | dict | None = None,
    adaptive: bool | None = None,
    skip: int | None = None,
) -> IntegrationPlan:
    """Per-level defaults: adaptive quadrature with 7 points for normal
    kernels, quasi-Monte Carlo with 150 draws per dimension for t
    kernels; None takes ``LevelPlan``'s or ``IntegrationPlan``'s field
    default. Every argument but ``adaptive`` and ``skip`` takes a single
    value or a per-level dict.
    A setting that would be silently ignored is an error: a per-level
    dict that names a level without latent effects, and a point or draw
    count below 1 for any level, whichever method it takes. So is one
    draw on a quasi-Monte Carlo level, whose scale it leaves unidentified.
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
    spec, adaptive = program.spec, LevelPlan.adaptive if adaptive is None else adaptive
    plan = IntegrationPlan(skip=IntegrationPlan.skip if skip is None else skip)
    for li in program.levels:
        if li.dim == 0:
            continue
        dist = per_level(redistribution, li.name, spec.re_distribution)
        df = per_level(t_df, li.name, spec.t_df)
        meth = per_level(method, li.name, "qmc" if dist == "t" else "aghq")
        q = per_level(points, li.name, LevelPlan.q)
        m = per_level(draws, li.name, 150 * li.dim)
        if q < 1:
            raise ValueError(f"level {li.name!r}: need at least one quadrature point")
        if m < 1:
            raise ValueError(f"level {li.name!r}: need at least one draw")
        if meth == "qmc" and m == 1:
            raise ValueError(
                f"level {li.name!r}: quasi-Monte Carlo needs at least 2 draws; with one, every unit takes the same "
                "latent value, which the constant absorbs, so the level's scale is not identified"
            )
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
            self.grid = gh_grid(gh_rule(plan.q), info.dim)
        else:
            need = info.dim + (1 if plan.dist == "t" else 0)
            self.grid = kernel_draws(self.kernel, halton(plan.m, need, skip)), np.full(plan.m, -math.log(plan.m)), None
        self.nodes, self.logw, _ = self.grid
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
        # per latent level outside, innermost first: its unit above each
        # unit, as a column, and its node column at each combination, in
        # its nodes (units, combinations x nodes, dim) (``_posterior``)
        combos = np.arange(self.n_combos)
        self.ancestors = [] if outer is None else [(up[:, None], combos)] + [
            (units[up], columns[combos // outer.m]) for units, columns in outer.ancestors
        ]
        self.active: np.ndarray | None = None  # units with rows anywhere below them
        self.cells: np.ndarray | None = None  # cells of those units


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
    design: np.ndarray  # the row part's compiled design, transposed: (columns, rows), each row contiguous
    place: np.ndarray  # where each per-unit sum of an exp-linear outcome's derivatives goes (``_unit_sums``)


class _ExpLinearSums(NamedTuple):
    """An exp-linear outcome's unit sums (see ``_unit_sums``), one row per
    unit with rows of it, one column each.
    """

    K: np.ndarray  # sum(A + B a)
    D: np.ndarray  # sum(B)
    S: np.ndarray  # sum(C exp(a - m))
    m: np.ndarray  # max(a)

    def at(self, L: np.ndarray, shared: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """K + D L - S exp(L + m) at summed intercepts L (units, columns);
        and the feature f = S exp(L + m).

        On innermost nodes that every cell shares, ``shared`` is (l, v,
        top): the sum l of the intercept values outside the innermost
        level per cell (units, C) or 0, the sum v of those at it at each
        of a combination's nodes in L's columns, and v's largest value
        top over all of the level's nodes. f is then the product of a
        per-cell factor S exp(m + l + top) and a per-node factor
        exp(v - top): one exponential per cell and one per node. Taking
        out the level's top, which depends on theta alone, keeps the split
        the same in every chunk and every per-node factor at most 1, so
        that a cell's factor overflows where S exp(L + m) would at its top
        node. Where either factor is 0 or not finite, f is formed at that
        cell and node as without ``shared``, so that it is infinite, and
        finite, where that form is.
        """
        if shared is None:
            e = L + self.m
            np.exp(e, out=e)
            e *= self.S
        else:
            l, v, top = shared
            cells = np.broadcast_to(self.S * np.exp(self.m + l + top), (len(L), L.shape[1] // v.size))
            nodes = np.exp(v - top)
            e = (cells[:, :, None] * nodes).reshape(L.shape)
            cell_ok, node_ok = ((factor > 0.0) & (factor < np.inf) for factor in (cells, nodes))
            if not (cell_ok.all() and node_ok.all()):
                redo = ~(cell_ok[:, :, None] & node_ok).reshape(L.shape)
                m, S = (np.broadcast_to(x, L.shape)[redo] for x in (self.m, self.S))
                e[redo] = np.exp(L[redo] + m) * S
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

    def at(self, L: np.ndarray, shared: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """K - Q - n ((r-bar - L) / scale)^2 at summed intercepts L, as
        ``_ExpLinearSums.at``, which takes no exponential here and so
        reads no ``shared``; and the feature r-bar - L. Dividing before
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
        self.posterior_start = self._posterior_scope()
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
        self.adapted: dict[int, Adaptation] = {}  # level position -> latest adaptation, swept or placed
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
            slots, own = np.array(slots, dtype=int), np.array([slots.index(s) for s in own], dtype=int)
            self.segments.append(
                _Segments(
                    starts=starts,
                    units=_index_or_all(units, inner.n_units),
                    row_segment=np.repeat(np.arange(starts.size), n),
                    n=n.astype(float),
                    intercepts=intercepts,
                    inner=sum(name in inner.info.latent_names for name, _ in intercepts),
                    slots=slots,
                    own=own,
                    design=np.ascontiguousarray(co.design[1].T),
                    place=_placement(slots, own, program.n_params),
                )
            )
        inner.active = has_rows
        for pos in range(len(self.level_states) - 1, 0, -1):
            st, outer = self.level_states[pos], self.level_states[pos - 1]
            outer.active = np.zeros(outer.n_units, dtype=bool)
            outer.active[st.parent[st.active]] = True
        for st in self.level_states:
            st.cells = np.repeat(st.active, st.n_combos)

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
        -n / V; and across, -Sx / V and -2 n f / V. Either family forms
        its per-row products in one (features, rows) table from the
        transposed design in its ``_Segments``, with each feature's rows
        contiguous, and sums it per unit in one ``reduceat``, which adds
        a unit's rows in their order as a sum over each product alone
        would.
        """
        co, seg, p = self.program.outcomes[k], self.segments[k], theta.size
        starts, xt, shape = seg.starts, seg.design, (seg.starts.size, p)
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
            # per row x, x x' and (r - r-bar) x: one (features, rows) table
            q = xt.shape[0]
            table = np.empty((q * (q + 2), xt.shape[1]))
            table[:q] = xt
            np.multiply(xt[:, None], xt, out=table[q : q * (q + 1)].reshape(q, q, -1))
            np.multiply(dev, xt, out=table[q * (q + 1) :])
            unit = np.add.reduceat(table.T, starts)
            sx, sxx, sxr = unit[:, :q], unit[:, q : q * (q + 1)].reshape(-1, q, q), unit[:, q * (q + 1) :]
            h2, n, d, s = 1.0 / (sigma * sigma), seg.n, seg.slots[:q], co.anc_slots[0]
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
        # W in the outcome's slots (``_Segments``), the row part's first, and
        # the second of A in the family's own: one (features, rows) table;
        # per unit, its sums, those of W over S (0 where S is), placed in
        # all p slots
        d1a, d2a, d1c, d2c = anc
        q, o, ns = xt.shape[0], seg.own, seg.slots.size
        nw = ns * (ns + 2)
        table = np.zeros((nw + o.size * o.size, b.size))
        alpha, w1, w2 = table[:ns], table[ns : 2 * ns], table[2 * ns : nw].reshape(ns, ns, -1)
        np.multiply(b, xt, out=alpha[:q])
        np.multiply(w, xt, out=w1[:q])
        np.multiply(w1[:q, None], xt, out=w2[:q, :q])
        if o.size:
            alpha[o] += d1a.T
            table[nw:] = d2a.reshape(b.size, -1).T
        if d1c is not None:
            c1 = d1c.T * e
            w1[o] += c1
            cross = c1[:, None] * xt
            w2[o, :q] += cross
            w2[:q, o] += cross.swapaxes(0, 1)
            w2[o[:, None], o] += np.moveaxis(d2c, 0, -1) * e
        unit = np.add.reduceat(table.T, starts)
        positive = S[:, 0] > 0
        ratios = unit[:, ns:nw]
        np.divide(ratios, S, out=ratios, where=positive[:, None])
        ratios[~positive] = 0.0
        out = np.zeros((starts.size, 2 * p * (p + 1)))
        out[:, seg.place] = unit
        r = out[:, p : p * (p + 2)]
        np.negative(r, out=r)
        a1, r1 = out[:, :p], out[:, p : 2 * p]
        r2, a2 = (out[:, k : k + p * p].reshape(-1, p, p) for k in (2 * p, p * (p + 2)))
        return sums, _OutcomeTerms((a1, r1, None), (a2, r2, None), (None, r1), (sums.D[:, :, None], -1.0), (0.0, -1.0))

    def level_chol(self, st: _LevelState, theta: np.ndarray) -> np.ndarray:
        return st.kernel.build_chol(theta[st.info.re_slots])

    def _plan_chunks(self) -> None:
        """The fixed shape of the innermost evaluation: columns per chunk,
        within _CHUNK_VALUES values in each array a chunk makes, rounded
        down to whole outer-node combinations when one combination's
        nodes fit; at least one. Those arrays are innermost units x
        columns (the row sums, and the values of the outcomes summed per
        unit) and, for the outcomes evaluated row by row, their rows x
        columns.
        """
        if not self.level_states:
            return
        st = self.level_states[-1]
        rows = sum(co.rows.size for k, co in enumerate(self.program.outcomes) if k not in self.per_unit)
        chunk = max(1, _CHUNK_VALUES // max(st.n_units, rows))
        self.chunk_columns = chunk - chunk % st.m if chunk >= st.m else chunk

    # -- public entry points --------------------------------------------

    def refresh(self, theta: np.ndarray) -> bool:
        """Recompute the per-cell adaptive transforms at theta: placed at
        the cells' closed-form posterior, or adapted by sweeps from the
        previous ones (see ``_adapt``). Returns whether any level is
        adaptive, i.e. whether the objective may have changed.
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
        share of it is not finite or its sum leaves the float range. The
        log-likelihood is summed over the outermost units with
        ``math.fsum`` (``_unit_totals``), each score and information entry
        over them in ascending order of its values (one sort, then
        pairwise summation), and inner units are added in order of value
        (``_into_parents``), so the result depends neither on how units
        are labelled nor on the order of the rows. A level
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
                sums[k], unit_terms = self._unit_sums(theta, k, derivatives=True)
                terms[k] = _OutcomeTerms(*(tuple(self._by_unit(k, v) for v in pair) for pair in unit_terms))
            unit_logl, unit_score, unit_hess = (v[:, 0] for v in self._integrate(theta, 0, [], sums, terms))
        act = self.level_states[0].active
        logl = float(_unit_totals(unit_logl[act])[0])
        if not math.isfinite(logl):
            return -np.inf, np.full(p, np.nan), np.full((p, p), np.nan)
        # each entry summed over the units in ascending order of its values
        units = unit_score[act]
        columns = np.concatenate((units.T, unit_hess[act].reshape(len(units), -1).T))
        columns.sort(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            totals = columns.sum(axis=1)
        score, info = (v if np.isfinite(v).all() else np.full(v.size, np.nan) for v in (totals[:p], -totals[p:]))
        info = info.reshape(p, p)
        return logl, score, 0.5 * (info + info.T)

    # -- level-by-level integration ---------------------------------------
    #
    # Level ``pos`` is integrated for all of its cells at once, given the
    # node locations of every level outside it (``outer``: one array per
    # outer level, (n_units, combos * m, dim)). The integral over a cell
    # is logsumexp over its nodes of (weight correction + conditional
    # log-likelihood), and the conditional at a node of an outer level is
    # the sum of its child units' integrals. Adaptation is frozen within
    # one evaluation. ``sums`` are the outcomes' ``_unit_sums`` at theta,
    # keyed by outcome, and the levels' ``_precisions`` once an
    # adaptation has formed them. A pass of ``derivatives`` also hands
    # down the outcomes' ``_OutcomeTerms`` (``terms``), and every cell
    # then carries its score and Hessian with its value (see "exact
    # derivatives" above).

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
            return x, log_correction(st.grid, st.kernel, chol, x, logdet)
        x, corr = st.nodes @ chol.T, st.logw
        if st.plan.method == "aghq" and st.plan.dist == "t":
            corr = log_correction(st.grid, st.kernel, chol, x, float(np.log(np.diag(chol)).sum()))
        return np.broadcast_to(x[None], (st.n_cells,) + x.shape), np.broadcast_to(corr[None], (st.n_cells, st.m))

    def _adapt(self, theta: np.ndarray, pos: int, outer: list, sums: dict, read: bool = False) -> np.ndarray | None:
        """Adapt level ``pos`` at the given outer nodes, keep the nodes it
        places (``placed``), and leave the levels inside it adapted at them.

        In the scope of ``posterior_start`` the level is placed at its
        cells' closed-form posterior (``_posterior``): no sweep runs, no
        conditional is evaluated and every cell reports 0 iterations; the
        levels inside are then placed at its nodes. A level where some
        active cell's closed-form start is not finite adapts by sweeps from
        it instead (``adapt_locations``), that cell from the prior. Every
        other model's level sweeps warm, from its latest result: the
        previous refresh's, or, for an inner level, the one at the previous
        evaluation of the outer level (from the prior at the evaluator's
        first adaptation, and for a cell that fell back). Each evaluation
        of a sweep adapts the levels inside at the nodes evaluated, and the
        last is at the rule kept; a non-adaptive level adapts them at its
        own nodes.

        With ``read`` (an adaptive level inside a sweeping one), a level
        that swept returns its log integral per unit and outer-node
        combination (n_units, n_combos), bit for bit ``_integrate``'s at
        the kept rule: its adaptation's last ``value``. Otherwise it
        returns None, and its reader integrates a placed level; without
        ``read`` the adaptation skips its closing evaluation.
        """
        st = self.level_states[pos]
        if st.adaptive:
            start = self._posterior(theta, pos, outer, sums) if self.posterior_start else self.adapted.get(pos)
            if not self.posterior_start or start.fallback.any():
                self.adapted[pos] = fit = adapt_locations(
                    lambda x: self._conditional(theta, pos, outer, x, sums, refresh=True)[0],
                    st.kernel,
                    self.level_chol(st, theta),
                    st.grid,
                    st.cells,
                    start=start,
                    value=read,
                )
                self.placed[pos] = place_nodes(st.nodes, fit.shift, fit.scale)
                self.sweeps[st.info.name] += int(fit.iterations.max(initial=0))
                return np.where(st.active[:, None], fit.value.reshape(st.n_units, -1), 0.0) if read else None
            self.adapted[pos] = start
            self.placed[pos] = place_nodes(st.nodes, start.shift, start.scale)
        if pos + 1 < len(self.level_states):
            x = self.placed[pos][0] if st.adaptive else self._nodes(pos, theta)[0]
            self._adapt(theta, pos + 1, outer + [self._as_outer(pos, x)], sums)
        return None

    def _posterior_scope(self) -> bool:
        """Whether adaptive levels are placed at the cells' exact posterior
        (``_posterior``): some level is adaptive, every latent level has
        one dimension and a normal kernel, and every outcome with rows is
        Gaussian, summed per unit, with exactly one intercept at every
        latent level. No option selects it.
        """
        levels = self.level_states
        if not any(st.adaptive for st in levels) or any(st.info.dim != 1 or st.plan.dist != "normal" for st in levels):
            return False
        names = sorted(st.info.latent_names[0] for st in levels)
        return all(
            self.program.outcomes[k].family.per_cluster == "gaussian" and sorted(n for n, _ in seg.intercepts) == names
            for k, seg in enumerate(self.segments)
            if seg is not None
        )

    def _precisions(self, theta: np.ndarray, sums: dict) -> list:
        """Per latent level, the precision w and mean m that the rows
        below each unit give the sum of its own and its ancestors'
        intercepts; w is 0 at units without rows below them. An innermost
        unit has w = sum_k n_k / sigma_k^2 over the outcomes and m the
        w-weighted mean of their mean residuals r-bar (``_GaussianSums``).
        Integrating a unit's own value, of scale tau, out passes its parent
        the precision 1 / (1/w + tau^2) about the same m, and a parent sums
        its children's precisions and precision-weighted means in order of
        value, each sorted apart, as ``_into_parents`` sorts its columns,
        so that the sums do not depend on how units are labelled.
        """
        inner = self.level_states[-1]
        w, wm = np.zeros(inner.n_units), np.zeros(inner.n_units)
        for k in self.per_unit:
            g, units = sums[k], self.segments[k].units
            wk = g.n[:, 0] / (0.5 * g.scale * g.scale)
            w[units] += wk
            wm[units] += wk * g.mean[:, 0]
        out = [None] * len(self.level_states)
        for pos in range(len(self.level_states) - 1, -1, -1):
            m = np.divide(wm, w, out=np.zeros_like(w), where=w > 0.0)
            out[pos] = w, m
            if pos:
                st = self.level_states[pos]
                tau = self.level_chol(st, theta)[0, 0]
                passed = 1.0 / (1.0 / w + tau * tau)
                w, wm = [np.add.reduceat(v[np.lexsort((v, st.parent))], st.parent_starts) for v in (passed, passed * m)]
        return out

    def _posterior(self, theta, pos: int, outer: list, sums: dict) -> Adaptation:
        """Level ``pos``'s cells' exact posterior at the outer nodes
        ``outer`` (Liu & Pierce 1994, *Biometrika* 81:624), as an
        adaptation at which every cell has taken 0 sweeps: the rule that
        ``_adapt`` places, and at which ``adapt_locations``, started there,
        finds a step of rounding size. A cell of a unit with precision w
        and mean m (``_precisions``, formed once per entry point and kept
        in ``sums``), at level scale tau and with o the sum of its
        ancestors' node values at its combination (``ancestors``), which
        ``_row_sums`` adds into L, has the mean w (m - o) / P and the scale
        1 / sqrt(P), P = w + 1/tau^2. An inactive cell is at (0, tau), as
        ``adapt_locations`` leaves it; an active one where either value is
        not finite or the scale is 0 is flagged as a fallback, so that an
        adaptation started here starts it from the prior.
        """
        if "precisions" not in sums:
            sums["precisions"] = self._precisions(theta, sums)
        st = self.level_states[pos]
        w, m = sums["precisions"][pos]
        tau = self.level_chol(st, theta)[0, 0]
        o = np.zeros((st.n_units, st.n_combos))
        for (units, combos), x in zip(st.ancestors, reversed(outer)):
            o += x[units, combos, 0]
        precision = (w + 1.0 / (tau * tau))[:, None]
        shift = (w[:, None] * (m[:, None] - o) / precision).reshape(-1, 1)
        scale = np.repeat(1.0 / np.sqrt(precision), st.n_combos, axis=1).reshape(-1, 1, 1)
        shift[~st.cells], scale[~st.cells] = 0.0, tau
        exact = np.isfinite(shift[:, 0]) & np.isfinite(scale[:, 0, 0]) & (scale[:, 0, 0] > 0.0)
        iterations, capped = np.zeros(st.n_cells, dtype=int), np.zeros(st.n_cells, dtype=bool)
        return Adaptation(shift, scale, iterations, st.cells & ~exact, capped, None)

    def _as_outer(self, pos: int, x: np.ndarray) -> np.ndarray:
        st = self.level_states[pos]
        return x.reshape(st.n_units, -1, st.info.dim)

    def _conditional(self, theta, pos: int, outer: list, x: np.ndarray, sums: dict, terms=None, refresh=False):
        """Conditional log-likelihood (cells, M) of everything inside each
        cell of level ``pos``, at its node locations ``x``; with
        ``terms``, also its score (cells, M, p) and Hessian (cells, M, p, p)
        there, for a level outside the innermost. With ``refresh``, the
        levels inside are adapted at ``x`` first (``_adapt``), and the
        integrals of an adaptive child level that swept are its
        adaptation's values, not integrated again.
        """
        st = self.level_states[pos]
        if pos + 1 == len(self.level_states):
            cond = np.empty((st.n_units, st.n_combos, st.m))
            for c0, c1, ll, _ in self._row_sums(theta, outer, x, sums):
                cond[:, c0:c1] = ll
            return (cond.reshape(-1, st.m),)
        inner_outer = outer + [self._as_outer(pos, x)]
        value = self._adapt(theta, pos + 1, inner_outer, sums, read=True) if refresh else None
        child = (value,) if value is not None else self._integrate(theta, pos + 1, inner_outer, sums, terms)
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
                ll += corr3[:, c0:c1]  # the chunk's one buffer, which logsumexp turns into weights
                logp = ll.reshape(-1, st.m)
                if terms is None:
                    parts.append([logsumexp(logp).reshape(st.n_units, c1 - c0)])
                    continue
                lse, w = logsumexp(logp, weights=True)
                u = x.reshape(ll.shape[:1] + (-1, st.m))[:, c0:c1]
                derivs = self._inner_derivatives(theta, w.reshape(ll.shape), u, feats, terms)
                parts.append([lse.reshape(st.n_units, c1 - c0), *derivs])
            out = [np.concatenate(v, axis=1) for v in zip(*parts)]
        else:
            cond, *derivs = self._conditional(theta, pos, outer, x, sums, terms)
            logp = corr + cond
            if terms is None:
                out = [logsumexp(logp).reshape(st.n_units, -1)]
            else:
                lse, w = logsumexp(logp, weights=True)
                derivs = self._outer_derivatives(pos, theta, w, x, *derivs)
                out = [lse.reshape(st.n_units, -1)] + [v.reshape((st.n_units, -1) + v.shape[1:]) for v in derivs]
        return tuple(np.where(st.active.reshape((-1,) + (1,) * (v.ndim - 1)), v, 0.0) for v in out)

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

    def _by_unit(self, k: int, v):
        """Outcome k's per-segment values v placed by innermost unit, 0 at
        units without rows of k; unchanged where every unit has rows of k,
        or where v is a float."""
        units = self.segments[k].units
        if isinstance(units, slice) or not isinstance(v, np.ndarray):
            return v
        out = np.zeros((self.level_states[-1].n_units,) + v.shape[1:])
        out[units] = v
        return out

    def _node_terms(self, leaves, terms: dict, u0: int, u1: int, p: int) -> tuple:
        """The innermost node features of units u0 to u1, for both
        reductions: a (units, p), the conditional score's per-unit
        constant, and the entries (parts, indices, c). An entry adds the
        sum of coefficient E[product of factors] over its parts into the
        mean conditional Hessian at its indices, a coefficient being a
        float or per-unit values shaped as a cell's entries there (a part
        without factors adds the coefficient itself); with a score
        coefficient c, its one factor is a feature. ``leaves(k)`` gives
        outcome k's feature f and its intercept sum L_i at each scaled
        level (or None) at units u0 to u1, node arrays or node polynomials
        alike. Per-unit values are placed by innermost unit when formed.
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
            (ak, b, c), (A, B, C), (e, e1), (v0, v1), (h0, h1) = (
                tuple(v[u0:u1] if isinstance(v, np.ndarray) else v for v in pair) for pair in terms[k]
            )
            f, L = leaves(k)
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

        def leaves(k):
            _, scaled, f = feats[k]
            L = [None if v is None else _NodePoly({(0, 0): v[:, ::m, None]}) for v in scaled]
            n = self.segments[k].inner
            L[inner] = _NodePoly({(1, 0): float(n)}) if n else None
            return f, L

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

        def leaves(k):
            f, scaled, _ = feats[k]
            f = f.reshape(shape)[u0:u1]
            f[w == 0.0] = 0.0  # no inf * 0 where a node has no weight
            return f, [None if v is None else v.reshape(shape)[u0:u1] for v in scaled]

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
        the child cells' scores and Hessians at each node. An adaptive
        level adds the log-scale derivatives of the prior log density at
        its frozen nodes x to the node scores and, weighted by w, to the
        mean Hessians.
        """
        st = self.level_states[pos]
        void = w == 0.0
        if void.any():  # a node without weight may hold a child's NaN
            score[void], hess[void] = 0.0, 0.0
        mean_hess = np.einsum("cj,cjab->cab", w, hess)
        if st.adaptive:
            d1, d2 = st.kernel.scale_derivatives(x[..., 0], self.level_chol(st, theta))
            slot = st.info.re_slots[0]
            score[..., slot] += d1
            mean_hess[..., slot, slot] += np.einsum("...j,...j->...", w, d2)
        return _louis(w, score, mean_hess)

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
        level (``node_feature``), else an empty one, each placed by
        innermost unit (``_by_unit``); without ``terms`` it is empty.

        Where the innermost level's nodes are shared by every cell, an
        exp-linear outcome's S exp(L + m) takes one exponential per cell
        and one per node (``_ExpLinearSums.at``). A chunk's ll is one
        array, the reader's to overwrite: the values of the first outcome
        where it covers every innermost unit in order, else zeros, with
        each other outcome's added in. An outcome's NaN values count as
        -inf, as at the rows; per unit, only rows whose maximum is NaN are
        looked into.
        """
        st = self.level_states[-1]
        m, width = st.m, self.chunk_columns
        if terms is not None:
            width = max(m, width - width % m)
        inner = st.info.latent_names
        combos = st.n_combos
        cells = x.reshape(st.n_units, combos, m, st.info.dim)
        if not st.adaptive:
            # the nodes every cell shares: each outcome's sum of its
            # intercepts there, and the largest (``_ExpLinearSums.at``)
            node_sums = {}
            for k in self.per_unit:
                names = [name for name, _ in self.segments[k].intercepts if name in inner]
                node_sums[k] = sum((cells[0, 0, :, inner.index(name)] for name in names), np.zeros(m))
            tops = {k: v.max() for k, v in node_sums.items()}
        n_active = int(st.active.sum())
        j0, end = 0, combos * m
        while j0 < end:
            j1 = min(j0 + width, end if width >= m else j0 - j0 % m + m)
            c0, c1, nodes = j0 // m, (j1 - 1) // m + 1, slice(j0 % m, (j1 - 1) % m + 1)
            if not nodes.start:  # else a later chunk of one combination: keep its sums
                out = None if j1 % m == 0 else np.zeros((st.n_units, (c1 - c0) * m))
            vals = {}
            for ost, xo in zip(self.level_states, outer):
                # node of the outer level at each combination of the chunk
                idx = np.arange(c0, c1) // (combos // xo.shape[1])
                for j, name in enumerate(ost.info.latent_names):
                    vals[name] = np.repeat(xo[:, idx, j], (j1 - j0) // (c1 - c0), axis=1)
            for j, name in enumerate(inner):
                vals[name] = cells[:, c0:c1, nodes, j].reshape(st.n_units, j1 - j0)
            ctx = EvalContext(self.program, theta, vals)
            features = {}
            for k, seg in enumerate(self.segments):
                if seg is None:
                    continue
                if k in sums:
                    L, scaled, outside = None, None if terms is None else [None] * len(self.tau_scaled), 0.0
                    for name, units in seg.intercepts:
                        v = vals[name] if isinstance(units, slice) else vals[name][units]
                        L = v if L is None else L + v
                        if not st.adaptive and name not in inner:  # the same at each of a combination's m nodes
                            outside = outside + v[:, ::m]
                        if terms is not None and (i := self.scaled_index.get(name)) is not None:
                            scaled[i] = v if scaled[i] is None else scaled[i] + v
                    shared = None if st.adaptive else (outside, node_sums[k][nodes], tops[k])
                    unit_ll, f = sums[k].at(L, shared)
                    _nan_as_neginf(unit_ll)  # as at the rows
                    if terms is not None:  # placed by innermost unit
                        place = functools.partial(self._by_unit, k)
                        poly = {} if st.adaptive else sums[k].node_feature(outside, seg.inner)
                        features[k] = place(f), [*map(place, scaled)], _NodePoly(zip(poly, map(place, poly.values())))
                else:
                    ll = outcome_logl(ctx, k)
                    nan = np.isnan(ll)
                    if nan.any():  # rare; copying every chunk costs more than the test
                        ll = np.where(nan, -np.inf, ll)
                    # one column when ll is the same in every column; += spreads it
                    unit_ll = np.add.reduceat(ll, seg.starts, axis=0)
                if out is None:  # whole combinations: start from these values where they are every unit's
                    if isinstance(seg.units, slice) and unit_ll.shape[1] == j1 - j0:
                        out = unit_ll
                        continue
                    out = np.zeros((st.n_units, j1 - j0))
                out[:, j0 - c0 * m : j1 - c0 * m][seg.units] += unit_ll
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
        a cell placed at its closed-form posterior took 0 iterations.
        ``adaptation_sweeps`` counts, per adaptive level, the passes over
        its cells of every adaptation since the evaluator was built; an
        adaptation's closing evaluation, with no update, is not one, and a
        placement adds none.
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
        for pos, fit in sorted(self.adapted.items()):
            st = self.level_states[pos]
            for cell in np.flatnonzero(st.cells):
                key = (st.info.name, *divmod(int(cell), st.n_combos))
                iterations[key] = int(fit.iterations[cell])
                if fit.fallback[cell]:
                    fallbacks.append(key)
                if fit.capped[cell]:
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


def _nan_as_neginf(a: np.ndarray) -> None:
    """Set the NaN values of a 2-D array to -inf. The maximum of an array
    or a row that holds a NaN is NaN: only then are the rows whose
    maximum is NaN looked into."""
    if math.isnan(a.max()):
        rows = np.isnan(a.max(axis=1))
        sub = a[rows]
        sub[np.isnan(sub)] = -np.inf
        a[rows] = sub


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


def _placement(slots: np.ndarray, own: np.ndarray, p: int) -> np.ndarray:
    """Where ``_unit_sums`` puts the per-unit sums of an exp-linear
    outcome's derivative table, whose features are the slots' first
    derivatives of A + B a and of W, W's second, then A's second in the
    family's own slots, among p + p + p^2 + p^2 per-unit values: the
    score's constant, the first derivatives of W over S, the second, and
    the own slots' second derivatives of A, each in all p slots.
    """

    def pairs(s):
        return (s[:, None] * p + s).ravel()

    return np.concatenate((slots, p + slots, 2 * p + pairs(slots), p * (p + 2) + pairs(slots[own])))


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
