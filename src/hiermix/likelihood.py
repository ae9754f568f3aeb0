"""Marginal log-likelihood over the cluster hierarchy.

Random effects are integrated level by level, inner levels conditional
on outer node values, with a per-level choice of adaptive Gauss-Hermite
quadrature or quasi-Monte Carlo draws from a normal or multivariate-t
kernel. One vectorized path serves any depth: each level is evaluated
for all of its units at every combination of outer-level nodes at once,
reduced over its own nodes, and summed into the parent units (the
recursive nested quadrature of Rabe-Hesketh, Skrondal & Pickles 2005).

Adaptive levels are re-adapted by ``refresh``, once per Newton
iteration, and each adaptation is warm-started, as in Rabe-Hesketh,
Skrondal & Pickles (2005): the evaluator keeps each level's latest
per-cell shifts and scales (``adapted``), and the next adaptation of
that level starts from them. For an inner level of nested quadrature,
re-adapted at every step of the outer level's adaptation, that is the
result at the previous outer step. Cells keep one canonical order from
construction on, so the shapes always match; a cell that fell back in
its latest adaptation, and every cell at the evaluator's first, start
from the prior.

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
plus random intercepts, under an exponential, Weibull, Gompertz or
Poisson family with a time-constant linear predictor) is summed per
innermost unit instead of evaluated row by row. Given the sum L of a
unit's intercept values at a column, each row's conditional
log-likelihood is A + B (a + L) - C exp(a + L), so the unit's is
K + D L - S exp(L + m), with K = sum(A + B a), D = sum(B),
S = sum(C exp(a - m)) and m = max(a) over its rows (Duchateau & Janssen
2008, *The Frailty Model*, ch. 2). These are computed once per call and
parameter vector (``_unit_sums``), and each chunk adds that units x
columns form into its row sums (``_collapsed``). Which outcomes take this
path follows from the model alone; the two forms differ by rounding.

The chunk and group shapes are fixed when the evaluator is built. Each
thread that evaluates gets its own ``workspace.Workspace``: every array
a chunk's evaluation writes (its row sums, latent values at its columns
and at the rows, linear predictors, family terms) and the innermost
node reduction's temporaries are its buffers, allocated at the first
chunk and reused by every chunk and call after it, so an evaluation no
longer asks the system for fresh pages. The buffers are written in
place with the operations, in the order, that would have built new
arrays, so no value changes; none of them outlives the chunk that wrote
it, but the row sums of a combination split over several chunks, kept
until its last, and none is returned.

``LikelihoodEvaluator.logl`` also takes a (K, p) stack of parameter
vectors, such as the finite-difference probes of one Newton iteration,
and evaluates as many of them together as keep the values of the
innermost evaluation (rows x evaluation times x columns) within
``_GROUP_VALUES`` (2^14). The vectors become one more, outermost, node
axis: each gets its own level scale factors and weight corrections,
the frozen adaptation is shared, and a value that depends on the
parameters alone is computed once per vector and laid over that
vector's columns (``EvalContext.param``). Each vector's value is the
one a call with it alone returns, bit for bit; a vector that alone
exceeds the budget is evaluated alone.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .integrate import GhRule, ReKernel, adapt_locations, gh_grid, gh_rule, halton, kernel_draws
from .predictor import EvalContext, Program, exp_linear_terms, outcome_logl
from .workspace import Workspace

__all__ = [
    "LevelPlan",
    "IntegrationPlan",
    "default_plan",
    "LikelihoodEvaluator",
]

_LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a: np.ndarray, empty=np.empty) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D float array, operation for
    operation as ``scipy.special.logsumexp(a, axis=1)``: the row maximum
    is taken out, its m ties contribute log(m), the rest log1p(s / m),
    and rows whose result is not finite fall back to the direct formula.
    ``empty(shape, dtype=float)`` gives the two temporaries as large as
    ``a``, such as workspace buffers.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        ties = np.equal(a, a_max, out=empty(a.shape, bool))
        m = ties.sum(axis=1, keepdims=True, dtype=a.dtype)
        e = empty(a.shape)
        np.copyto(e, a)
        np.copyto(e, -np.inf, where=ties)
        s = np.exp(np.subtract(e, a_max, out=e), out=e).sum(axis=1, keepdims=True)
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
    """

    def per_level(value, name, fallback):
        if isinstance(value, dict):
            return value.get(name, fallback)
        return fallback if value is None else value

    spec = program.spec
    plan = IntegrationPlan(skip=skip)
    for li in program.levels:
        if li.dim == 0:
            continue
        dist = per_level(redistribution, li.name, spec.re_distribution)
        df = per_level(t_df, li.name, spec.t_df)
        meth = per_level(method, li.name, "qmc" if dist == "t" else "aghq")
        q = per_level(points, li.name, 7)
        m = per_level(draws, li.name, 0) or 150 * li.dim
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
        if plan.method == "aghq":
            self.rule: GhRule = gh_rule(plan.q)
            self.nodes, self.logw = gh_grid(self.rule, info.dim)
            self.m = len(self.logw)
            self.std_draws: np.ndarray | None = None
            self.log_std = -0.5 * info.dim * _LOG_2PI - 0.5 * (self.nodes * self.nodes).sum(axis=1)
        else:
            need = info.dim + (1 if plan.dist == "t" else 0)
            # draws at unit scale; a call only multiplies them by the scale factor
            self.std_draws = kernel_draws(self.kernel, halton(plan.m, need, skip))
            self.m = plan.m
            self.nodes = None
            self.logw = None
            self.log_std = None
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


# rows x columns of one conditional evaluation at the innermost level,
# and rows x evaluation times x columns of the innermost evaluation of
# the parameter vectors evaluated together. A group is a quarter of a chunk:
# on 400-row spline-baseline frailty fits (2800 values per vector),
# groups of 2^14 values fitted faster than groups of 2^13 or 2^16 and
# raised peak memory by 0.4 MB, where 2^16 raised it by 4.6 MB. Counting
# evaluation times keeps a joint model with hazard-quadrature grids (61
# times per survival row) at one vector per group: evaluated two at a
# time, its fits took 35% longer.
_CHUNK_VALUES = 1 << 16
_GROUP_VALUES = 1 << 14


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
        self._local = threading.local()  # .workspace: the calling thread's buffers
        self.adapted: dict[int, tuple] = {}  # level position -> latest adapt_locations result
        self.sweeps = {st.info.name: 0 for st in self.level_states if st.adaptive}
        self.n_calls = 0
        self.n_points = 0
        self.cond_evals = 0
        self.wall_time = 0.0

    # -- structural precomputation ------------------------------------

    def _prepare_segments(self) -> None:
        """Row segments per innermost unit for every outcome, which units
        at each level have rows below them, and the values one node column
        spans over the outcomes' evaluation times: rows times grid times,
        times the quadrature nodes of an iEV link.
        """
        program = self.program
        self.n_rows = sum(co.rows.size for co in program.outcomes)
        self.n_values = 0
        for co in program.outcomes:
            width = 1 if co.grid is None else co.grid.t.shape[1]
            if any(kind == "iEV" for cc in co.components for kind, _ in cc.evlinks):
                width *= program.gl_points
            self.n_values += co.rows.size * width
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

    def _unit_sums(self, thetas: np.ndarray, k: int) -> tuple:
        """Per-unit sufficient statistics of outcome k, which has
        intercepts, at each parameter vector: K = sum(A + B a), D = sum(B),
        S = sum(C exp(a - m)) and m = max(a) over each innermost unit's
        rows (see ``exp_linear_terms``), (units, vectors) arrays (D one
        column), so that the unit's conditional log-likelihood at summed
        intercept values L is K + D L - S exp(L + m). Taking out m keeps
        exp(a - m) <= 1, so nothing overflows that the rows would not.
        """
        starts = self.segments[k][0]
        row_segment = self.intercept_units[k][0]
        per_vector = []
        for theta in thetas:
            a, lin, b, c = exp_linear_terms(self.program, k, theta)
            m = np.maximum.reduceat(a, starts)
            per_vector.append(
                (np.add.reduceat(lin + b * a, starts), np.add.reduceat(c * np.exp(a - m[row_segment]), starts), m)
            )
        K, S, m = (np.stack(v, axis=1) for v in zip(*per_vector))
        return K, np.add.reduceat(b, starts)[:, None], S, m  # B does not depend on the parameters

    def level_chol(self, st: _LevelState, theta: np.ndarray) -> np.ndarray:
        return st.kernel.build_chol(theta[st.info.re_slots])

    def _per_chol(self, st: _LevelState, thetas: np.ndarray, fn) -> list:
        """fn(Cholesky factor of the level) for each parameter vector,
        computed once per distinct value of the level's parameters.
        """
        done: dict[bytes, object] = {}
        out = []
        for theta in thetas:
            key = theta[st.info.re_slots].tobytes()
            if key not in done:
                done[key] = fn(self.level_chol(st, theta))
            out.append(done[key])
        return out

    def _plan_chunks(self) -> None:
        """The fixed shapes of the innermost evaluation: parameter vectors
        per group, as many as keep the values of their innermost
        evaluation (``n_values`` x columns) within _GROUP_VALUES; and
        columns per chunk, within _CHUNK_VALUES rows x columns, rounded
        down to whole outer-node combinations when one combination's nodes
        fit. Each is at least one.
        """
        columns, nodes = 1, 1
        if self.level_states:
            inner = self.level_states[-1]
            columns, nodes = inner.n_combos * inner.m, inner.m
        self.group_size = max(1, _GROUP_VALUES // max(1, self.n_values * columns))
        chunk = max(1, _CHUNK_VALUES // max(1, self.n_rows))
        self.chunk_columns = chunk - chunk % nodes if chunk >= nodes else chunk

    def _workspace(self) -> Workspace:
        """The calling thread's buffers: threads evaluating at once never
        share one.
        """
        ws = getattr(self._local, "workspace", None)
        if ws is None:
            ws = self._local.workspace = Workspace()
        return ws

    def _context(self, thetas: np.ndarray, latent_values: dict, columns: np.ndarray, ws=None) -> EvalContext:
        if len(thetas) == 1:
            return EvalContext(self.program, thetas[0], latent_values, workspace=ws)
        return EvalContext(self.program, thetas, latent_values, columns, ws)

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
            self._adapt(theta[None], 0, [])
        return True

    def logl(self, theta: np.ndarray) -> float | np.ndarray:
        """Marginal log-likelihood at one parameter vector (a float), or
        at each row of a (K, p) stack (K values). Each value equals, bit
        for bit, the call with that vector alone. A stack is evaluated in
        groups of ``group_size`` vectors; a level that still has to adapt
        adapts at the first vector, as K single calls would.
        """
        theta = np.asarray(theta, dtype=float)
        t_start = time.perf_counter()
        self.n_calls += 1
        try:
            if theta.ndim == 1:
                self.n_points += 1
                return self._logl_group(theta[None])[0]
            self.n_points += len(theta)
            values = []
            if any(st.adaptive and pos not in self.adapted for pos, st in enumerate(self.level_states)):
                values, theta = self._logl_group(theta[:1]), theta[1:]
            for g0 in range(0, len(theta), self.group_size):
                values += self._logl_group(theta[g0 : g0 + self.group_size])
            return np.asarray(values)
        finally:
            self.wall_time += time.perf_counter() - t_start

    def _logl_group(self, thetas: np.ndarray) -> list[float]:
        """Log-likelihoods at the rows of ``thetas``, evaluated together:
        each vector is an outermost node combination of its own.
        """
        n_vec = len(thetas)
        if not self.level_states:
            ctx = self._context(thetas, {}, np.ones(n_vec, dtype=int))
            totals = [0.0] * n_vec
            for k, co in enumerate(self.program.outcomes):
                if co.rows.size == 0:
                    continue
                ll = np.broadcast_to(outcome_logl(ctx, k), (co.rows.size, n_vec))
                self.cond_evals += n_vec
                for v in range(n_vec):
                    if not np.all(np.isfinite(ll[:, v])):
                        totals[v] = -np.inf
                    elif totals[v] != -np.inf:
                        totals[v] += math.fsum(ll[:, v].tolist())
            return totals
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            per_unit = self._integrate(thetas, 0, [])
        act = per_unit[self.level_states[0].active]
        return [math.fsum(col.tolist()) if np.all(np.isfinite(col)) else -np.inf for col in act.T]

    # -- level-by-level integration ---------------------------------------
    #
    # Level ``pos`` is integrated for all of its cells at once, given the
    # node locations of every level outside it (``outer``: one array per
    # outer level, (n_units, combos * m, dim)). The integral over a cell
    # is logsumexp over its nodes of (weight correction + conditional
    # log-likelihood), and the conditional at a node of an outer level is
    # the sum of its child units' integrals. A group of K parameter
    # vectors (``thetas``) adds one outermost node axis: level ``pos``
    # then has K * n_combos combinations, vector-major, and K * n_cells
    # cells. Adaptation is frozen, so each vector's cells share it.

    def _nodes(self, pos: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node locations (cells, M, r) and log-corrections (cells, M) of
        every cell of level ``pos``, such that a cell's integral is
        logsumexp(corr + conditional).
        """
        st = self.level_states[pos]
        k, r = st.n_cells, st.info.dim
        if st.plan.method == "qmc":

            def drawn(chol):
                draws = st.std_draws @ chol.T  # (M, r)
                return np.broadcast_to(draws[None], (k, st.m, r)), np.broadcast_to(-math.log(st.m), (k, st.m))

            return self._tile(st, self._per_chol(st, thetas, drawn))
        a, logw = st.nodes, st.logw
        if st.adaptive:
            mu, lam = self.adapted[pos][:2]
            x = mu[:, None, :] + np.einsum("mr,usr->ums", a, lam)
            logdet = np.log(np.diagonal(lam, axis1=1, axis2=2)).sum(axis=1)

            def adapted(chol):
                return x, logw[None] + st.kernel.log_density(x, chol) - st.log_std[None] + logdet[:, None]

            return self._tile(st, self._per_chol(st, thetas, adapted))

        def fixed(chol):
            x = a @ chol.T
            if st.plan.dist == "normal":
                corr = logw
            else:
                logdet = float(np.log(np.diag(chol)).sum())
                corr = logw + st.kernel.log_density(x, chol) - st.log_std + logdet
            return np.broadcast_to(x[None], (k, st.m, r)), np.broadcast_to(corr[None], (k, st.m))

        return self._tile(st, self._per_chol(st, thetas, fixed))

    @staticmethod
    def _tile(st: _LevelState, parts: list) -> tuple[np.ndarray, np.ndarray]:
        """Per-vector (x, corr) over one vector's cells, as one pair over
        the cells of all vectors.
        """
        if len(parts) == 1:
            return parts[0]

        def stack(arrays):
            tail = arrays[0].shape[1:]
            cells = np.stack([v.reshape((st.n_units, st.n_combos) + tail) for v in arrays], axis=1)
            return cells.reshape((-1,) + tail)

        xs, corrs = zip(*parts)
        return stack(xs), stack(corrs)

    def _adapt(self, thetas: np.ndarray, pos: int, outer: list) -> None:
        """Adapt level ``pos`` at the given outer nodes, re-adapting the
        levels inside it at each trial location, then once more at the
        final one. ``thetas`` holds one parameter vector. Each adaptation
        starts warm, from the level's latest result: the previous
        refresh's, or, for an inner level, the one at the previous trial
        location of the outer level. Only the first adaptation of an
        evaluator, and a cell that fell back, start from the prior.
        """
        st = self.level_states[pos]
        if st.adaptive:
            self.adapted[pos] = res = adapt_locations(
                lambda x: self._conditional(thetas, pos, outer, x, refresh=True),
                st.kernel,
                self.level_chol(st, thetas[0]),
                st.rule,
                np.repeat(st.active, st.n_combos),
                start=self.adapted.get(pos),
            )
            self.sweeps[st.info.name] += int(res[2].max(initial=0))
        if pos + 1 < len(self.level_states):
            self._adapt(thetas, pos + 1, outer + [self._as_outer(pos, self._nodes(pos, thetas)[0])])

    def _as_outer(self, pos: int, x: np.ndarray) -> np.ndarray:
        st = self.level_states[pos]
        return x.reshape(st.n_units, -1, st.info.dim)

    def _conditional(self, thetas, pos: int, outer: list, x: np.ndarray, refresh: bool = False) -> np.ndarray:
        """Conditional log-likelihood (cells, M) of everything inside each
        cell of level ``pos``, at its node locations ``x``.
        """
        st = self.level_states[pos]
        if pos + 1 == len(self.level_states):
            # a new array: the next chunk reuses the buffer ``ll`` is in
            cond = np.empty((st.n_units, len(thetas) * st.n_combos, st.m))
            for c0, c1, ll in self._row_sums(thetas, outer, x):
                cond[:, c0:c1] = ll
            return cond.reshape(-1, st.m)
        inner_outer = outer + [self._as_outer(pos, x)]
        if refresh:
            self._adapt(thetas, pos + 1, inner_outer)
        child = self._integrate(thetas, pos + 1, inner_outer)
        return self._into_parents(pos + 1, child).reshape(-1, st.m)

    def _integrate(self, thetas, pos: int, outer: list) -> np.ndarray:
        """Log integral over level ``pos`` and every level inside it, per
        unit and outer-node combination: (n_units, K * n_combos). Units
        with no rows below them integrate to exactly 0.
        """
        st = self.level_states[pos]
        if st.adaptive and pos not in self.adapted:
            self._adapt(thetas, pos, outer)
        x, corr = self._nodes(pos, thetas)
        if pos + 1 == len(self.level_states):
            corr3 = corr.reshape(st.n_units, -1, st.m)
            ws = self._workspace()
            parts = [
                logsumexp(np.add(corr3[:, c0:c1], ll, out=ll).reshape(-1, st.m), ws.take).reshape(st.n_units, c1 - c0)
                for c0, c1, ll in self._row_sums(thetas, outer, x)
            ]
            per_cell = np.concatenate(parts, axis=1)
        else:
            per_cell = logsumexp(corr + self._conditional(thetas, pos, outer, x)).reshape(st.n_units, -1)
        return np.where(st.active[:, None], per_cell, 0.0)

    def _row_sums(self, thetas, outer: list, x: np.ndarray):
        """Yield (c0, c1, ll) over the outer-node combinations, with ll
        (n_units, c1 - c0, M) the summed conditional row log-likelihood of
        each innermost unit at each node of combinations c0 to c1. The
        columns, one per (combination, node), are evaluated in chunks of
        ``chunk_columns``, each with the parameter vectors of its columns:
        a chunk is whole combinations, or nodes of one combination, which
        is then yielded after its last chunk. Every array of a chunk is a
        buffer of the thread's workspace: ll is overwritten once the
        generator resumes, and the caller may overwrite it.
        """
        st = self.level_states[-1]
        ws = self._workspace()
        m, width = st.m, self.chunk_columns
        combos = len(thetas) * st.n_combos
        cells = x.reshape(st.n_units, combos, m, st.info.dim)
        n_active = int(st.active.sum())
        stats = {k: self._unit_sums(thetas, k) for k in self.intercept_units}
        j0, end = 0, combos * m
        while j0 < end:
            j1 = min(j0 + width, end if width >= m else j0 - j0 % m + m)
            c0, c1, nodes = j0 // m, (j1 - 1) // m + 1, slice(j0 % m, (j1 - 1) % m + 1)
            if nodes.start:  # a later chunk of one combination: keep its sums
                ws.reset(1)
            else:
                ws.reset()
                out = ws.take((st.n_units, (c1 - c0) * m))
                out.fill(0.0)
            vals = {}
            for ost, xo in zip(self.level_states, outer):
                # node of the outer level at each combination of the chunk
                idx = np.arange(c0, c1) // (combos // xo.shape[1])
                for j, name in enumerate(ost.info.latent_names):
                    vals[name] = ws.take((xo.shape[0], j1 - j0))
                    np.copyto(vals[name].reshape(xo.shape[0], c1 - c0, -1), xo[:, idx, j][:, :, None])
            for j, name in enumerate(st.info.latent_names):
                vals[name] = ws.take((st.n_units, j1 - j0))
                np.copyto(vals[name].reshape(st.n_units, c1 - c0, -1), cells[:, c0:c1, nodes, j])
            vector = np.arange(j0, j1) // (st.n_combos * m)  # parameter vector of each column
            ctx = self._context(thetas, vals, np.bincount(vector, minlength=len(thetas)), ws)
            part = out[:, j0 - c0 * m : j1 - c0 * m]
            for k, segments in enumerate(self.segments):
                if segments is None:
                    continue
                starts, seg_units = segments
                if k in stats:
                    sums = self._collapsed(ws, stats[k], self.intercept_units[k][1], vals, vector)
                else:
                    ll = outcome_logl(ctx, k)
                    nan = np.isnan(ll, out=ws.take(ll.shape, bool))
                    if nan.any():  # rare; copying every chunk costs more than the test
                        ll = np.where(nan, -np.inf, ll)
                    # one column when ll is the same in every column; += spreads it
                    sums = np.add.reduceat(ll, starts, axis=0, out=ws.take((starts.size, ll.shape[1])))
                part[seg_units] += sums
            self.cond_evals += n_active * (j1 - j0)
            j0 = j1
            if j1 % m == 0:
                yield c0, c1, out.reshape(st.n_units, c1 - c0, m)

    @staticmethod
    def _collapsed(ws: Workspace, stats: tuple, intercepts: list, vals: dict, vector):
        """K + D L - S exp(L + m) of one outcome's units at the columns of
        a chunk (see ``_unit_sums``), L being the sum of the unit's
        intercept values there and ``vector`` each column's parameter
        vector.
        """
        K, D, S, m = stats
        shape = (K.shape[0], vector.size)
        L = None
        for name, units in intercepts:
            v = vals[name]
            if not isinstance(units, slice):  # an outer level's values at each unit
                v = v.take(units, axis=0, out=ws.take(shape), mode="clip")
            L = v if L is None else np.add(L, v, out=ws.take(shape))
        if K.shape[1] > 1:  # the statistics of each column's parameter vector
            K, S, m = (x.take(vector, axis=1, out=ws.take(shape), mode="clip") for x in (K, S, m))
        e = np.add(L, m, out=ws.take(shape))
        np.exp(e, out=e)
        np.multiply(e, S, out=e)
        ll = np.multiply(L, D, out=ws.take(shape))
        np.add(ll, K, out=ll)
        np.subtract(ll, e, out=ll)
        nan = np.isnan(ll, out=ws.take(shape, bool))
        if nan.any():  # as at the rows: read as -inf
            np.copyto(ll, -np.inf, where=nan)
        return ll

    def _into_parents(self, pos: int, vals: np.ndarray) -> np.ndarray:
        """Sum per-unit values (n_units, n) of level ``pos`` into its
        parent units. Children are added in order of value, so the sums do
        not depend on how units are labelled.
        """
        st = self.level_states[pos]
        order = np.lexsort((vals, np.broadcast_to(st.parent[:, None], vals.shape)), axis=0)
        return np.add.reduceat(np.take_along_axis(vals, order, axis=0), st.parent_starts, axis=0)

    # -- diagnostics ------------------------------------------------------

    def profile_report(self) -> dict:
        """Integration settings per level, counters and adaptation state.
        ``likelihood_calls`` counts calls of ``logl``, a stack counting
        once; ``objective_points`` counts the parameter vectors evaluated.
        ``adaptation_iterations`` and ``adaptation_fallbacks`` describe the
        latest adaptation of each cell; ``adaptation_sweeps`` counts, per
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
        per_call = self.cond_evals / self.n_calls if self.n_calls else 0
        # keyed by (level, unit ordinal, outer-node combination)
        iterations, fallbacks = {}, []
        for pos, (_, _, iters, flagged) in sorted(self.adapted.items()):
            st = self.level_states[pos]
            for cell in np.flatnonzero(np.repeat(st.active, st.n_combos)):
                key = (st.info.name, *divmod(int(cell), st.n_combos))
                iterations[key] = int(iters[cell])
                if flagged[cell]:
                    fallbacks.append(key)
        return {
            "levels": levels,
            "likelihood_calls": self.n_calls,
            "objective_points": self.n_points,
            "conditional_evaluations": self.cond_evals,
            "conditional_evaluations_per_call": per_call,
            "adaptation_iterations": iterations,
            "adaptation_fallbacks": fallbacks,
            "adaptation_sweeps": dict(self.sweeps),
            "wall_time_s": self.wall_time,
        }


def _index_or_all(units: np.ndarray, n_units: int):
    """``units``, or a slice where they are all units in order, so that
    indexing with them gives a view.
    """
    return slice(None) if np.array_equal(units, np.arange(n_units)) else units

