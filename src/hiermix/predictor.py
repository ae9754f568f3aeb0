"""Compile a model specification against data and evaluate linear
predictors and per-observation log-likelihoods.

Evaluation is vectorized over a canonical three-axis shape
(rows, times, integration nodes); arrays carry singleton axes where a
dimension is unused and combine by broadcasting. ``compile_program``
computes everything that is fixed once the data are bound: each
outcome's rows in canonical order with their unit ordinals and
evaluation grid, covariate products at the rows of every outcome that
evaluates them, time-function columns at compiled grids, the spline
columns of the ``rp`` baseline, and the design of each outcome's fixed
part (``_fixed_design``). It also marks the outcomes whose
likelihood can be summed per cluster (``_CompiledOutcome.intercepts``,
``row_part``). An objective call computes only what
depends on the parameters or on grids it builds itself, and keeps
nothing beyond its own ``EvalContext``, which holds one parameter
vector: a value read from it is a scalar, or an array over rows and
times, the same at every node. Every node sum runs in node order
whatever the number of node columns (``_node_sum``), so a chunk's width
changes no value.

Every evaluation step is a plain array expression that returns a new
array; none writes into an array handed to it. The likelihood evaluator
keeps the chunk temporaries this makes from costing fresh pages (see
``likelihood``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import families as fam_mod
from .basis import FpBasis, RcsBasis, default_knots, rcs_eval
from .data import DataFrame, Hierarchy, OutcomeRows, build_hierarchy, split_outcome_rows
from .dsl import Covariate, EVLink, Intercept, Latent, ModelSpec, TimeFn, ValidationReport, _integer, _time_indexed
from .families import Family, gauss_legendre, make_family

__all__ = [
    "CompileError",
    "Slot",
    "LevelInfo",
    "Program",
    "EvalContext",
    "Grid",
    "compile_program",
    "eval_ev",
    "outcome_logl",
]


class CompileError(ValueError):
    pass


@dataclass
class Slot:
    """One estimation-scale parameter."""

    name: str
    transform: str = "identity"  # identity | exp
    report: str | None = None
    kind: str = "coef"  # coef | cons | spline | anc | re
    outcome: int | None = None
    level: str | None = None

    def __post_init__(self):
        if self.report is None:
            self.report = self.name


@dataclass
class LevelInfo:
    """Latent structure of one hierarchy level."""

    name: str
    lidx: int  # position in hierarchy levels, 0 = outermost
    latent_names: list[str]
    re_slots: list[int] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.latent_names)


@dataclass(eq=False)
class Grid:
    """Evaluation times (n, A) at the rows of one outcome, with the
    time-function columns of the components evaluated there, keyed by
    (outcome, component). A compiled grid at which an iEV link is
    evaluated also holds ``nodes``: the grid of that link's
    Gauss-Legendre nodes over (0, t] for every time t, (n, A x Q), with
    its own columns. Grids built during a call carry neither.
    """

    t: np.ndarray
    cols: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    nodes: Grid | None = None


class _CompiledComponent:
    def __init__(self, outcome_idx: int, comp_idx: int, comp):
        self.spec = comp
        self.key = (outcome_idx, comp_idx)
        self.cov_names: list[str] = []
        self.cov: dict[int, np.ndarray] = {}  # outcome r -> covariate product (n_r, 1, 1) at r's rows
        self.latents: list = []
        self.timefn = None  # (TimeFn, basis object, log_scale)
        self.evlinks: list[tuple[str, int]] = []
        self.slots: list[int] | None = None
        self.ncols = 1


class _CompiledOutcome:
    def __init__(self, index: int, spec, family: Family, label: str, orows: OutcomeRows):
        self.index = index
        self.spec = spec
        self.family = family
        self.label = label
        self.rows = orows.rows
        self.response = orows.response
        self.event = orows.event
        self.entry = orows.entry
        self.bhaz = orows.bhaz
        self.times = orows.times
        self.units: dict[str, np.ndarray] = {}  # level -> unit ordinal of each row
        self.components: list[_CompiledComponent] = []
        self.cons_slot: int | None = None
        self.anc_slots: list[int] = []
        self.spline_basis: RcsBasis | None = None
        self.spline_slots: list[int] = []
        self.time_indexed = False  # expected value depends on time (directly or through EV links)
        # own evaluation times: (n, 1) measurement times, or the survival
        # grid [y | y-nodes], with [| entry-nodes] when a row has delayed
        # entry, or [y | y e^step | y e^-step | t0]
        self.grid: Grid | None = None
        self.entry_mask: np.ndarray | None = None
        self.log_step: np.ndarray | None = None  # (n, 1, 1) log-time difference step
        self.rp: fam_mod.RpColumns | None = None
        self.design: tuple[list[int], np.ndarray] | None = None  # see ``_fixed_design``
        # the latent effects of a linear predictor that is a row part plus
        # random intercepts, under an exp-linear or Gaussian family, which
        # the likelihood then sums per unit (``row_part``); else None
        self.intercepts: list | None = None


class Program:
    """Model spec bound to data: parameter layout, per-outcome row sets,
    element evaluators, and hierarchy index maps.
    """

    def __init__(self, spec: ModelSpec, frame: DataFrame, hierarchy: Hierarchy, gl_points: int = 30):
        self.spec = spec
        self.frame = frame
        self.hierarchy = hierarchy
        self.gl_points = gl_points
        self.slots: list[Slot] = []
        self.outcomes: list[_CompiledOutcome] = []
        self.levels: list[LevelInfo] = []
        self.knots: dict[str, tuple[float, ...]] = {}

    @property
    def n_params(self) -> int:
        return len(self.slots)

    def slot_names(self) -> list[str]:
        return [s.name for s in self.slots]

    def slot_index(self, name: str) -> int:
        for i, s in enumerate(self.slots):
            if s.name == name or s.report == name:
                return i
        raise KeyError(f"no parameter named {name!r} (have: {', '.join(self.slot_names())})")

    def level(self, name: str) -> LevelInfo:
        for li in self.levels:
            if li.name == name:
                return li
        raise KeyError(name)

    @cached_property
    def gl_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on (-1, 1), built where first read."""
        return gauss_legendre(self.gl_points)

    def _add_slot(self, slot: Slot) -> int:
        self.slots.append(slot)
        return len(self.slots) - 1


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _unique_labels(spec: ModelSpec) -> list[str]:
    raw = [o.response or "null" for o in spec.outcomes]
    labels = []
    for k, name in enumerate(raw):
        labels.append(name if raw.count(name) == 1 else f"{name}#{k + 1}")
    return labels


def _fp_eval_relaxed(basis: FpBasis, t: np.ndarray) -> np.ndarray:
    """fp basis tolerating t == 0 when every power is positive (0^p = 0);
    log and non-positive powers still require strictly positive times.
    """
    t = np.asarray(t, dtype=float)
    if min(basis.powers) <= 0 or (t > 0).all():
        return basis.eval(t)
    if np.any(t < 0):
        raise ValueError("fractional polynomial requires non-negative times")
    safe = np.where(t > 0, t, 1.0)
    out = basis.eval(safe)
    return np.where((t > 0)[..., None], out, 0.0)


def compile_program(
    spec: ModelSpec, frame: DataFrame, report: ValidationReport | None = None, gl_points: int = 30
) -> Program:
    """Resolve every element to an evaluator, fix the parameter layout,
    and compute every evaluation input that does not depend on the
    parameters. A passing ``validate_spec`` report of the same spec and
    frame lends its hierarchy and outcome rows instead of building them
    again.
    """
    gl_points = _integer(gl_points, "gl_points")
    if gl_points < 1:
        raise CompileError(f"the Gauss-Legendre rule needs at least one node, got gl_points={gl_points}")
    if report is None:
        hierarchy, rows_list = build_hierarchy(frame, list(spec.levels)), split_outcome_rows(frame, spec)
    else:
        hierarchy, rows_list = report.hierarchy, report.outcome_rows
    program = Program(spec, frame, hierarchy, gl_points)

    labels = _unique_labels(spec)
    multi = len(spec.outcomes) > 1

    def pname(label: str, term: str) -> str:
        return f"{label}:{term}" if multi else term

    for k, outcome in enumerate(spec.outcomes):
        family = make_family(outcome.family)
        co = _CompiledOutcome(k, outcome, family, labels[k], rows_list[k])
        co.time_indexed = _time_indexed(spec, k)
        program.outcomes.append(co)
        family.validate_response(co.response, f"outcome {k + 1} ({labels[k]})")

    for k, outcome in enumerate(spec.outcomes):
        co = program.outcomes[k]
        label = labels[k]
        for c, comp in enumerate(outcome.components):
            cc = _CompiledComponent(k, c, comp)
            texts = []
            for el in comp.elements:
                if isinstance(el, Covariate):
                    if not frame.has(el.name):
                        raise CompileError(f"outcome {k + 1}, component {c + 1}: column {el.name!r} not in the data")
                    frame.col(el.name)
                    cc.cov_names.append(el.name)
                    texts.append(el.name)
                elif isinstance(el, Intercept):
                    texts.append("1")
                elif isinstance(el, Latent):
                    cc.latents.append(spec.latents[el.name])
                    texts.append(el.name)
                elif isinstance(el, EVLink):
                    j = spec.ev_target_index(el)
                    if el.kind in ("dEV", "d2EV", "iEV") and not program.outcomes[j].time_indexed:
                        raise CompileError(
                            f"outcome {k + 1}, component {c + 1}: {el.kind}[{el.target}] needs a time-indexed "
                            "target (the target has no timevar or time function)"
                        )
                    cc.evlinks.append((el.kind, j))
                    texts.append(f"{el.kind}[{el.target}]")
                elif isinstance(el, TimeFn):
                    if cc.timefn is not None:
                        raise CompileError(f"outcome {k + 1}, component {c + 1}: more than one time function")
                    basis = _resolve_timefn(program, el, co, k)
                    log_scale = outcome.family.is_survival and el.kind == "rcs"
                    cc.timefn = (el, basis, log_scale)
                    cc.ncols = basis.ncols
                    texts.append(_timefn_text(el))
            if cc.ncols > 1 and cc.latents and comp.coef is None:
                raise CompileError(
                    f"outcome {k + 1}, component {c + 1}: a multi-column time function interacting with a "
                    "latent effect needs its own @coefficient"
                )
            if comp.coef is not None:
                names = [comp.coef] if cc.ncols == 1 else [f"{comp.coef}{j + 1}" for j in range(cc.ncols)]
                cc.slots = [program._add_slot(Slot(n, kind="coef", outcome=k)) for n in names]
            elif not comp.has_latent:
                base = "#".join(texts)
                names = (
                    [pname(label, base)]
                    if cc.ncols == 1
                    else [pname(label, f"{base}[{j + 1}]") for j in range(cc.ncols)]
                )
                cc.slots = [program._add_slot(Slot(n, kind="coef", outcome=k)) for n in names]
            co.components.append(cc)
        if outcome.family.name == "rp":
            co.spline_basis = _resolve_rp_basis(program, outcome, co, k)
            co.spline_slots = [
                program._add_slot(Slot(pname(label, f"rcs{j + 1}"), kind="spline", outcome=k))
                for j in range(co.spline_basis.ncols)
            ]
        if not outcome.noconstant:
            co.cons_slot = program._add_slot(Slot(pname(label, "_cons"), kind="cons", outcome=k))
        for anc_name, transform, shown in co.family.anc_info:
            co.anc_slots.append(
                program._add_slot(
                    Slot(pname(label, anc_name), transform=transform, report=pname(label, shown), kind="anc", outcome=k)
                )
            )
        _order_rows(program, co)
        co.intercepts = _pure_intercepts(co)

    for r, co in enumerate(program.outcomes):
        _precompute_at_rows(program, r)
        co.design = _fixed_design(co)

    for lidx, lname in enumerate(hierarchy.levels):
        info = LevelInfo(lname, lidx, [li.name for li in spec.latents_at(lname)])
        if info.dim:
            # with an unstructured covariance the later diagonal entries are
            # Cholesky terms, not standard deviations; sd/corr rows are
            # derived in the reporting table instead
            chol_style = spec.covariance == "unstructured" and info.dim > 1
            for nm in info.latent_names:
                if chol_style:
                    slot = Slot(f"ln_chol({nm},{nm})", transform="exp", report=f"chol({nm},{nm})", kind="re", level=lname)
                else:
                    slot = Slot(f"ln_sd({nm})", transform="exp", report=f"sd({nm})", kind="re", level=lname)
                info.re_slots.append(program._add_slot(slot))
            if chol_style:
                for i in range(1, info.dim):
                    for j in range(i):
                        a, b = info.latent_names[i], info.latent_names[j]
                        info.re_slots.append(program._add_slot(Slot(f"chol({a},{b})", kind="re", level=lname)))
        program.levels.append(info)
    return program


def _pure_intercepts(co: _CompiledOutcome) -> list | None:
    """The latent effects of an outcome whose log-likelihood given them
    is exp-linear or quadratic in its linear predictor (its family's
    ``per_cluster`` form), with no expected hazard and, for ``rp``, no
    delayed entry, and whose linear predictor is a row part plus at
    least one random intercept: a latent effect with no covariate, time
    function, coefficient or EV[] link. The row part may not depend on
    latent effects, so no component may have an EV[] link. A survival
    outcome must be time-constant (a time-indexed one needs its time
    grid); a Poisson or Gaussian outcome's time functions are part of its
    row part. None for any other outcome.
    """
    if co.family.per_cluster is None or (co.family.is_survival and co.time_indexed) or co.bhaz is not None:
        return None
    if co.rp is not None and co.rp.at_t0 is not None:
        return None
    intercepts = []
    for cc in co.components:
        if cc.evlinks:
            return None
        if not cc.latents:
            continue
        if len(cc.latents) > 1 or cc.cov_names or cc.timefn is not None or cc.slots is not None:
            return None
        intercepts.append(cc.latents[0])
    return intercepts or None


def _fixed_design(co: _CompiledOutcome) -> tuple[list[int], np.ndarray]:
    """The slots of the part of co's linear predictor free of latent
    effects and EV[] links, and its (n, q) derivatives in them at co's
    rows: the constant first; then each such component's covariate
    product (or 1) times its time-function columns at co's own times, its
    grid's first column (a null outcome has no rows and no grid); then,
    for ``rp``, the spline columns at log y.
    """
    n = co.rows.size
    parts = [] if co.cons_slot is None else [(co.cons_slot, np.ones(n))]
    for cc in co.components:
        if cc.latents or cc.evlinks or (cc.timefn is not None and co.grid is None):
            continue
        x = cc.cov[co.index][:, 0, :] if cc.cov_names else np.ones((n, 1))
        if cc.timefn is not None:
            x = x * co.grid.cols[cc.key][:, 0, :]
        parts += zip(cc.slots, x.T)
    if co.rp is not None:
        parts += zip(co.spline_slots, co.rp.at_y.reshape(n, -1).T)
    return [s for s, _ in parts], np.column_stack([col for _, col in parts] or [np.empty((n, 0))])


def _timefn_text(el: TimeFn) -> str:
    if el.kind == "fp":
        return f"fp({' '.join(format(p, 'g') for p in el.powers)})"
    return f"rcs({el.df if el.df else len(el.knots) - 1})"


def _resolve_timefn(program: Program, el: TimeFn, co: _CompiledOutcome, k: int):
    if el.kind == "fp":
        return FpBasis(el.powers)
    if el.knots is not None:
        return RcsBasis(el.knots)
    if co.family.is_survival:
        events = co.response[co.event > 0]
        if np.unique(events).size < el.df + 1:
            raise CompileError(f"outcome {k + 1}: rcs(df({el.df})) needs more distinct uncensored event times")
        basis = default_knots(np.log(events), el.df)
    else:
        if co.times is None:
            raise CompileError(f"outcome {k + 1}: rcs() needs timevar() to place default knots")
        basis = default_knots(co.times, el.df)
    program.knots[f"{co.label}:rcs(df({el.df}))"] = basis.knots
    return basis


def _resolve_rp_basis(program: Program, outcome, co: _CompiledOutcome, k: int) -> RcsBasis:
    fam = outcome.family
    if fam.knots is not None:
        basis = RcsBasis(fam.knots)
    else:
        events = co.response[co.event > 0]
        distinct = np.unique(events)
        if distinct.size < fam.df + 1:
            raise CompileError(
                f"outcome {k + 1}: df({fam.df}) needs at least {fam.df + 1} distinct event times, got {distinct.size}"
            )
        basis = default_knots(np.log(events), fam.df)
    program.knots[f"{co.label}:baseline"] = basis.knots
    return basis


def _order_rows(program: Program, co: _CompiledOutcome) -> None:
    """Deterministic, permutation-invariant row order: unit ordinals
    (outermost level most significant), then the row's own data values
    as tie-breakers, so any input row permutation evaluates identically.
    """
    levels = program.hierarchy.levels
    co.units = {lname: program.hierarchy.row_unit[i][co.rows] for i, lname in enumerate(levels)}
    if co.rows.size == 0:
        return
    keys = []
    for comp in co.components:
        for name in comp.cov_names:
            keys.append(program.frame.col(name)[co.rows])
    for arr in (co.times, co.entry, co.event, co.response):
        if arr is not None:
            keys.append(arr)
    for lname in reversed(levels):
        keys.append(co.units[lname])
    order = np.lexsort(keys) if keys else np.arange(co.rows.size)
    co.rows = co.rows[order]
    co.units = {lname: units[order] for lname, units in co.units.items()}
    for attr in ("response", "event", "entry", "bhaz", "times"):
        v = getattr(co, attr)
        if v is not None:
            setattr(co, attr, v[order])
    if co.family.is_survival:
        _build_grids(program, co)
    elif co.times is not None:
        co.grid = Grid(co.times.reshape(-1, 1))


def _build_grids(program: Program, co: _CompiledOutcome) -> None:
    """Time grids for survival evaluation. Hazard quadrature takes the
    event time, Gauss-Legendre nodes over (0, y] and, when any row has
    delayed entry, nodes over (0, t0].
    The spline model with a time-dependent eta, and a user cumulative
    hazard without a hazard, take the event time, y shifted by +/- a
    log-time step, and the entry time. The spline model's basis columns
    at those times are computed here too.
    """
    y = co.response
    t0 = co.entry
    co.entry_mask = t0 > 0
    t0_safe = np.where(co.entry_mask, t0, 1.0)
    fam = co.family
    rp = co.spec.family.name == "rp"
    if rp or (fam.user_cumhazard is not None and fam.user_hazard is None):
        step = 1e-5 * np.maximum(1.0, np.abs(np.log(y)))
        co.log_step = step.reshape(-1, 1, 1)
        if not rp or co.time_indexed:
            co.grid = Grid(np.stack([y, y * np.exp(step), y * np.exp(-step), t0_safe], axis=1))
        if rp:
            t03 = np.where(co.entry_mask.reshape(-1, 1, 1), t0.reshape(-1, 1, 1), 0.0)
            log_step = co.log_step if co.time_indexed else None
            co.rp = fam_mod.RpColumns(co.spline_basis, y.reshape(-1, 1, 1), t0=t03, log_step=log_step)
        return
    if not (co.time_indexed or fam.user_hazard is not None):
        return  # closed-form hazards
    u = program.gl_rule[0]
    times = [y[:, None], 0.5 * y[:, None] * (u[None, :] + 1.0)]
    if co.entry_mask.any():
        times.append(0.5 * t0_safe[:, None] * (u[None, :] + 1.0))
    co.grid = Grid(np.concatenate(times, axis=1))  # (n, 1 + q), or (n, 1 + 2q) with entry


def _evaluated_at(program: Program, r: int, kinds: tuple[str, ...]) -> list[int]:
    """Outcomes whose linear predictor is evaluated at outcome r's rows:
    r and, transitively, the targets of its expected-value links of the
    given kinds. A user family's hooks may evaluate any outcome.
    """
    if program.outcomes[r].family.name == "user":
        return list(range(len(program.outcomes)))
    seen, todo = {r}, [r]
    while todo:
        for cc in program.outcomes[todo.pop()].components:
            for kind, j in cc.evlinks:
                if kind in kinds and j not in seen:
                    seen.add(j)
                    todo.append(j)
    return sorted(seen)


def _precompute_at_rows(program: Program, r: int) -> None:
    """The covariate products of every component evaluated at outcome r's
    rows, and the time-function columns of every component evaluated at
    r's own grid: r's own components and those reached through EV[]
    links, which pass the grid on unchanged. Where one of them has an
    iEV[] link, the grid's iEV nodes and the columns of the components
    evaluated there too.
    """
    co = program.outcomes[r]
    for j in _evaluated_at(program, r, ("EV", "dEV", "d2EV", "iEV")):
        for cc in program.outcomes[j].components:
            if cc.cov_names:
                cov = program.frame.col(cc.cov_names[0])[co.rows]
                for name in cc.cov_names[1:]:
                    cov = cov * program.frame.col(name)[co.rows]
                cc.cov[r] = cov.reshape(-1, 1, 1)
    if co.grid is None:
        return
    reached = _evaluated_at(program, r, ("EV",))
    _columns_at(program, co.grid, reached)
    targets = {j for i in reached for cc in program.outcomes[i].components for kind, j in cc.evlinks if kind == "iEV"}
    if targets:
        co.grid.nodes = Grid(_iev_times(program, co.grid.t))
        _columns_at(program, co.grid.nodes, sorted({i for j in targets for i in _evaluated_at(program, j, ("EV",))}))


def _columns_at(program: Program, grid: Grid, outcomes: list[int]) -> None:
    for j in outcomes:
        for cc in program.outcomes[j].components:
            if cc.timefn is not None:
                grid.cols[cc.key] = _time_columns(cc.timefn, grid.t)


def _iev_times(program: Program, t: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre nodes over (0, t] of every time of an (n, A)
    grid, (n, A x Q); 1 where t <= 0, whose integral is zero.
    """
    nodes = program.gl_rule[0]
    n, a = t.shape
    pts = 0.5 * t[:, :, None] * (nodes[None, None, :] + 1.0)
    return np.where(pts > 0.0, pts, 1.0).reshape(n, a * len(nodes))


def _time_columns(timefn, t: np.ndarray) -> np.ndarray:
    """Columns of a component's time function at an (n, A) grid."""
    _, basis, log_scale = timefn
    if isinstance(basis, FpBasis):
        return _fp_eval_relaxed(basis, t)
    return rcs_eval(basis, np.log(t) if log_scale else t)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class EvalContext:
    """One likelihood evaluation: parameter vector plus latent-effect
    value arrays, (n_units_at_level, n_nodes) per latent name.
    """

    def __init__(self, program: Program, theta: np.ndarray, latent_values: dict[str, np.ndarray] | None = None):
        self.program = program
        self.theta = np.asarray(theta, dtype=float)
        self.latent_values = latent_values or {}
        self.memo: dict = {}

    def latent_at_rows(self, info, r: int) -> np.ndarray:
        """Latent values at the rows of outcome r: (n, 1, B)."""
        vals = self.latent_values.get(info.name)
        if vals is None:
            raise ValueError(f"no value assigned to latent effect {info.name}")
        return vals[self.program.outcomes[r].units[info.level]][:, None, :]


def _as_grid(t) -> Grid | None:
    """None, a compiled Grid, or an (n,) / (n, A) array of times, which
    becomes a grid without precomputed columns.
    """
    if t is None or isinstance(t, Grid):
        return t
    t = np.asarray(t, dtype=float)
    return Grid(t if t.ndim == 2 else t.reshape(-1, 1))


def eval_eta(ctx: EvalContext, k: int, r: int, t=None) -> np.ndarray:
    """Linear predictor of outcome k at the rows of outcome r, shape
    broadcastable to (n, A, B). ``t`` is None, a Grid or an array of
    times (see ``_as_grid``); results are memoized per call by the
    identity of ``t``.
    """
    key = (k, r, id(t))
    hit = ctx.memo.get(key)
    if hit is not None and hit[0] is t:
        return hit[1]
    grid = _as_grid(t)
    program = ctx.program
    co = program.outcomes[k]
    n = program.outcomes[r].rows.size
    total = np.zeros((n, 1, 1))
    if co.cons_slot is not None:
        total = total + ctx.theta[co.cons_slot]
    for cc in co.components:
        factor = None

        def mul(x):
            nonlocal factor
            factor = x if factor is None else factor * x

        if cc.cov_names:
            mul(cc.cov[r])
        for info in cc.latents:
            mul(ctx.latent_at_rows(info, r))
        for kind, j in cc.evlinks:
            mul(eval_ev(ctx, kind, j, r, grid))
        block = None
        if cc.timefn is not None:
            if grid is None:
                raise ValueError(f"outcome {k + 1} ({co.label}): time function needs evaluation times")
            cols = grid.cols.get(cc.key)
            if cols is None:
                cols = _time_columns(cc.timefn, grid.t)
            if cc.ncols == 1:
                mul(cols[..., 0][:, :, None])
            else:
                block = cols
        if cc.slots is not None:
            if block is not None:
                mul((block @ ctx.theta[cc.slots])[:, :, None])
            else:
                mul(ctx.theta[cc.slots[0]])
        if factor is None:
            factor = np.ones((n, 1, 1))
        total = total + factor
    ctx.memo[key] = (t, total)
    return total


def row_part(program: Program, k: int, theta: np.ndarray) -> tuple[np.ndarray, list]:
    """The row part a of outcome k, which has ``intercepts``, at one
    parameter vector: its linear predictor at its rows where its
    intercepts are 0, plus, for ``rp``, the spline s(log y) times its
    coefficients, an (n,) array, summed column by column in the order of
    its compiled ``design``, so that a row's value does not depend on its
    neighbours; and its ancillaries on the natural scale.
    """
    co = program.outcomes[k]
    slots, x = co.design
    a = np.zeros(co.rows.size)
    for j, slot in enumerate(slots):
        a = a + x[:, j] * theta[slot]
    return a, co.family.natural_anc(theta[co.anc_slots])


def _node_sum(subscripts: str, weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, weights, vals)`` over a quadrature axis,
    summed in node order for every node column. einsum sums a node axis
    of one column, or a broadcast one, in another order; such input is
    summed as one column widened to two, and the sum broadcast back.
    """
    if vals.shape[-1] > 1 and vals.strides[-1] != 0:
        return np.einsum(subscripts, weights, vals)
    one = vals[..., :1]
    out = np.einsum(subscripts, weights, np.concatenate([one, one], axis=-1))[..., :1]
    return np.broadcast_to(out, out.shape[:-1] + vals.shape[-1:])


def eval_ev(ctx: EvalContext, kind: str, j: int, r: int, t) -> np.ndarray:
    """Expected value of outcome j (or its time derivative/integral) at
    the rows of outcome r and an (n, A) time grid.
    """
    program = ctx.program
    target = program.outcomes[j]
    grid = _as_grid(t)
    if target.time_indexed and grid is None:
        raise ValueError(f"EV[{target.label}] is time-indexed: evaluation times are required")

    def ev_at(times):
        return target.family.inverse_link(eval_eta(ctx, j, r, times))

    if kind == "EV":
        return ev_at(grid if target.time_indexed else None)
    t = grid.t
    if kind in ("dEV", "d2EV"):
        scale = 1e-5 if kind == "dEV" else 1e-4
        h = scale * np.maximum(1.0, np.abs(t))
        h = np.where(t > 0, np.minimum(h, 0.5 * np.maximum(t, 1e-300)), h)
        h3 = h[:, :, None]
        up = ev_at(t + h)
        dn = ev_at(t - h)
        if kind == "dEV":
            return (up - dn) / (2.0 * h3)
        mid = ev_at(grid)
        return (up - 2.0 * mid + dn) / (h3 * h3)
    if kind == "iEV":
        weights = program.gl_rule[1]
        n, a = t.shape
        qn = len(weights)
        # a compiled grid holds its nodes and their time-function columns
        vals = ev_at(grid.nodes if grid.nodes is not None else _iev_times(program, t))  # (n, A*Q, B)
        if vals.shape[:2] != (n, a * qn):  # a copy: einsum sums a broadcast node axis in another order
            vals = np.broadcast_to(vals, (n, a * qn, vals.shape[-1])).copy()
        integ = 0.5 * t[:, :, None] * _node_sum("q,naqb->nab", weights, vals.reshape(n, a, qn, -1))
        return np.where(t[:, :, None] > 0, integ, 0.0)
    raise ValueError(f"unknown expected-value kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-outcome conditional log-likelihood
# ---------------------------------------------------------------------------


class FamilyContext:
    """What a user hook may read: the response, any outcome's linear
    predictor, ancillary slots, and the measurement times.
    """

    def __init__(self, ctx: EvalContext, k: int, times: Grid | None):
        self._ctx = ctx
        self._k = k
        self._times = times

    def response(self):
        r = self._ctx.program.outcomes[self._k].response
        return None if r is None else r.reshape(-1, 1, 1)

    def times(self):
        return None if self._times is None else self._times.t[:, :, None]

    def linpred(self, t=None):
        return self._eval(self._k, t)

    def linpred_of(self, which, t=None):
        program = self._ctx.program
        if isinstance(which, int):
            j = which - 1
            if not 0 <= j < len(program.outcomes):
                raise ValueError(f"no outcome {which}")
        else:
            j = next((i for i, o in enumerate(program.outcomes) if o.label == which or o.spec.response == which), None)
            if j is None:
                raise ValueError(f"no outcome named {which!r}")
        return self._eval(j, t)

    def _eval(self, j, t):
        if t is None:
            t = self._times
        elif np.ndim(t) == 3:
            t = t[..., 0]
        return eval_eta(self._ctx, j, self._k, t)

    def ancillary(self, j: int):
        co = self._ctx.program.outcomes[self._k]
        if not 1 <= j <= len(co.anc_slots):
            raise ValueError(f"outcome {self._k + 1} has {len(co.anc_slots)} ancillary parameters, asked for {j}")
        return self._ctx.theta[co.anc_slots[j - 1]]


def outcome_logl(ctx: EvalContext, k: int) -> np.ndarray:
    """Conditional log-likelihood of outcome k's rows, one column per
    latent node: shape (n_rows, B).
    """
    program = ctx.program
    co = program.outcomes[k]
    fam = co.family
    n = co.rows.size
    if fam.is_null or n == 0:
        return np.zeros((0, 1))
    anc = fam.natural_anc(ctx.theta[co.anc_slots]) if co.anc_slots else []

    if fam.user_loglf is not None and not fam.is_survival:
        out = np.asarray(fam.user_loglf(FamilyContext(ctx, k, co.grid)), dtype=float)
        return _collapse(out, n)

    if not fam.is_survival:
        eta = eval_eta(ctx, k, k, co.grid)
        y = co.response.reshape(-1, 1, 1)
        return _collapse(fam.logl(y, eta, anc), n)

    return _survival_logl(ctx, k, anc)


def _collapse(ll: np.ndarray, n: int) -> np.ndarray:
    """(n, A, B) -> (n, B), requiring the time axis to be singleton."""
    ll = np.asarray(ll, dtype=float)
    if ll.ndim == 2:
        return np.broadcast_to(ll, (n, ll.shape[-1]))
    if ll.ndim != 3 or ll.shape[1] != 1:
        raise ValueError(f"expected (rows, 1, nodes)-shaped log-likelihood, got {ll.shape}")
    out = ll[:, 0, :]
    return np.broadcast_to(out, (n, out.shape[-1])) if out.shape[0] != n else out


def _survival_logl(ctx: EvalContext, k: int, anc) -> np.ndarray:
    """Outcome k's survival rows, (n_rows, B). Each hazard form computes
    only log h(y), H(y) and, with delayed entry, H(t0); the row terms
    are ``families.survival_logl``'s (``rp_logl`` calls it too). A hazard
    given as a value, a user hook's or a central difference of a user
    cumulative hazard, takes its log by ``log_hazard_value``.
    """
    program = ctx.program
    co = program.outcomes[k]
    fam = co.family
    y3 = co.response.reshape(-1, 1, 1)
    d = co.event.reshape(-1, 1, 1)
    t03 = co.entry.reshape(-1, 1, 1)
    emask = co.entry_mask.reshape(-1, 1, 1)
    entry = emask.any()
    bh = None if co.bhaz is None else co.bhaz.reshape(-1, 1, 1)
    n = co.rows.size

    if co.rp is not None:
        coefs = ctx.theta[co.spline_slots]
        eta = eval_eta(ctx, k, k, co.grid)
        if co.grid is None:
            return _collapse(fam_mod.rp_logl(co.rp, d, coefs, eta, bh), n)
        # grid columns are [y | y e^step | y e^-step | t0]
        at_y, plus, minus, at_t0 = np.split(np.broadcast_to(eta, (n, 4, eta.shape[-1])), 4, axis=1)
        return _collapse(fam_mod.rp_logl(co.rp, d, coefs, at_y, bh, plus, minus, at_t0), n)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if co.grid is None:
            # time-constant linear predictor, closed-form hazards
            eta = eval_eta(ctx, k, k)
            log_h = fam.log_hazard(y3, eta, anc)
            H = fam.cum_hazard(y3, eta, anc)
            H0 = fam.cum_hazard(np.where(emask, t03, 1.0), eta, anc) if entry else None
        elif fam.user_cumhazard is not None and fam.user_hazard is None:
            # grid columns are [y | y e^step | y e^-step | t0]; the hazard is
            # a central difference on log time: h = (dH/dlog t)/t
            ch = np.asarray(fam.user_cumhazard(FamilyContext(ctx, k, None), co.grid.t[:, :, None]), dtype=float)
            ch = np.broadcast_to(ch, (n, 4, ch.shape[-1]))
            h = (ch[:, 1:2, :] - ch[:, 2:3, :]) / (2.0 * co.log_step) / y3
            log_h = fam_mod.log_hazard_value(h)
            H = ch[:, 0:1, :]
            H0 = ch[:, 3:4, :] if entry else None
        else:
            # hazard quadrature: grid columns are [y | y-nodes], and
            # [| entry-nodes] with delayed entry
            q, w = program.gl_points, program.gl_rule[1]
            a = co.grid.t.shape[1]
            if fam.user_hazard is not None:
                haz = np.asarray(fam.user_hazard(FamilyContext(ctx, k, None), co.grid.t[:, :, None]), dtype=float)
                haz = np.broadcast_to(haz, (n, a, haz.shape[-1]))
                log_h = fam_mod.log_hazard_value(haz[:, 0:1, :])
                h_body = haz[:, 1 : 1 + q, :]
                h_entry = haz[:, 1 + q :, :]
            else:
                eta_all = eval_eta(ctx, k, k, co.grid)
                base = fam.base_log_hazard(co.grid.t[:, :, None], anc)
                log_all = eta_all + base
                log_all = np.broadcast_to(log_all, (n, a, log_all.shape[-1]))
                log_h = log_all[:, 0:1, :]
                h_body = np.exp(log_all[:, 1 : 1 + q, :])
                h_entry = np.exp(log_all[:, 1 + q :, :]) if entry else None
            H = 0.5 * y3 * _node_sum("q,nqb->nb", w, h_body)[:, None, :]
            H0 = 0.5 * t03 * _node_sum("q,nqb->nb", w, h_entry)[:, None, :] if entry else None
        ll = fam_mod.survival_logl(log_h, bh, H, H0, d, emask)
    return _collapse(ll, n)
