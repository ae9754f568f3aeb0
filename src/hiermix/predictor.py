"""Compile a model specification against data and evaluate linear
predictors and per-observation log-likelihoods.

Evaluation is vectorized over a canonical three-axis shape
(rows, times, integration nodes); arrays carry singleton axes where a
dimension is unused and combine by broadcasting. Caches key on array
object identity and hold a reference to the keyed array, so keys stay
valid for the lifetime of the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import families as fam_mod
from .basis import FpBasis, RcsBasis, default_knots, rcs_deriv, rcs_eval
from .data import DataFrame, Hierarchy, OutcomeRows, build_hierarchy, split_outcome_rows
from .dsl import Covariate, EVLink, Intercept, Latent, ModelSpec, TimeFn, _time_indexed
from .families import Family, gauss_legendre, make_family

__all__ = [
    "CompileError",
    "Slot",
    "LevelInfo",
    "Program",
    "EvalContext",
    "OutcomeView",
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


class OutcomeView:
    """Stable views of one outcome's row data. Object identity keys the
    evaluation caches.
    """

    __slots__ = ("rows", "response", "event", "entry", "entry_mask", "bhaz", "times", "tgrid", "rp_logstep", "n")

    def __init__(self, co):
        self.rows = co.rows
        self.n = len(self.rows)
        for name in ("response", "event", "entry", "entry_mask", "bhaz", "times", "tgrid", "rp_logstep"):
            setattr(self, name, getattr(co, name))


class _CompiledComponent:
    def __init__(self, program, outcome_idx: int, comp_idx: int, comp):
        self.spec = comp
        self.key = (outcome_idx, comp_idx)
        self.cov_names: list[str] = []
        self.latents: list = []
        self.timefn = None  # (TimeFn, basis object, log_scale)
        self.evlinks: list[tuple[str, int]] = []
        self.slots: list[int] | None = None
        self.ncols = 1
        self._program = program

    def cov_product(self, frame: DataFrame, rows: np.ndarray) -> np.ndarray | None:
        if not self.cov_names:
            return None
        cache = self._program._row_cache
        key = ("cov", self.key, id(rows))
        hit = cache.get(key)
        if hit is not None and hit[0] is rows:
            return hit[1]
        out = frame.col(self.cov_names[0])[rows]
        for name in self.cov_names[1:]:
            out = out * frame.col(name)[rows]
        out = out.reshape(-1, 1, 1)
        cache[key] = (rows, out)
        return out


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
        self.components: list[_CompiledComponent] = []
        self.cons_slot: int | None = None
        self.anc_slots: list[int] = []
        self.spline_basis: RcsBasis | None = None
        self.spline_slots: list[int] = []
        self.has_time = False  # any time-dependent element in eta
        self.time_indexed = False  # expected value depends on time (directly or through EV links)
        self.needs_grid = False  # survival likelihood requires hazard quadrature
        self.tgrid: np.ndarray | None = None
        self.entry_mask: np.ndarray | None = None
        self.rp_logstep: np.ndarray | None = None
        self.view: OutcomeView | None = None  # all rows, built after ordering


class Program:
    """Model spec bound to data: parameter layout, per-outcome row sets,
    element evaluators, and hierarchy index maps.
    """

    def __init__(self, spec: ModelSpec, frame: DataFrame, hierarchy: Hierarchy, gl_points: int = 30):
        self.spec = spec
        self.frame = frame
        self.hierarchy = hierarchy
        self.gl_points = gl_points
        self.gl_nodes, self.gl_weights = gauss_legendre(gl_points)
        self.slots: list[Slot] = []
        self.outcomes: list[_CompiledOutcome] = []
        self.levels: list[LevelInfo] = []
        self.unit_index: dict[str, np.ndarray] = {}
        self.knots: dict[str, tuple[float, ...]] = {}
        self._row_cache: dict = {}
        self._basis_cache: dict = {}

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

    def _add_slot(self, slot: Slot) -> int:
        self.slots.append(slot)
        return len(self.slots) - 1

    def basis_at(self, basis, t: np.ndarray, log_scale: bool, deriv: bool = False) -> np.ndarray:
        """Basis columns at a time grid, cached per grid object."""
        key = (id(basis), id(t), log_scale, deriv)
        hit = self._basis_cache.get(key)
        if hit is not None and hit[0] is t:
            return hit[1]
        if isinstance(basis, FpBasis):
            cols = _fp_eval_relaxed(basis, t)
        else:
            x = np.log(t) if log_scale else t
            cols = rcs_deriv(basis, x) if deriv else rcs_eval(basis, x)
        self._basis_cache[key] = (t, cols)
        return cols


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
    spec: ModelSpec, frame: DataFrame, hierarchy: Hierarchy | None = None, gl_points: int = 30
) -> Program:
    """Resolve every element to an evaluator, fix the parameter layout,
    and precompute the survival-time evaluation grids.
    """
    if hierarchy is None:
        hierarchy = build_hierarchy(frame, list(spec.levels))
    program = Program(spec, frame, hierarchy, gl_points)
    for i, name in enumerate(hierarchy.levels):
        program.unit_index[name] = hierarchy.row_unit[i]

    rows_list = split_outcome_rows(frame, spec)
    labels = _unique_labels(spec)
    multi = len(spec.outcomes) > 1

    def pname(label: str, term: str) -> str:
        return f"{label}:{term}" if multi else term

    for k, outcome in enumerate(spec.outcomes):
        family = make_family(outcome.family)
        co = _CompiledOutcome(k, outcome, family, labels[k], rows_list[k])
        co.time_indexed = _time_indexed(spec, k)
        program.outcomes.append(co)
        if co.response is not None and not family.is_survival:
            family.validate_response(co.response, f"outcome {k + 1} ({labels[k]})")

    for k, outcome in enumerate(spec.outcomes):
        co = program.outcomes[k]
        label = labels[k]
        for c, comp in enumerate(outcome.components):
            cc = _CompiledComponent(program, k, c, comp)
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
                    if program.outcomes[j].time_indexed:
                        co.has_time = True
                elif isinstance(el, TimeFn):
                    if cc.timefn is not None:
                        raise CompileError(f"outcome {k + 1}, component {c + 1}: more than one time function")
                    basis = _resolve_timefn(program, el, co, k)
                    log_scale = outcome.family.is_survival and el.kind == "rcs"
                    cc.timefn = (el, basis, log_scale)
                    cc.ncols = basis.ncols
                    texts.append(_timefn_text(el))
                    co.has_time = True
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
        for anc_name, transform, report in co.family.anc_info:
            co.anc_slots.append(
                program._add_slot(
                    Slot(pname(label, anc_name), transform=transform, report=pname(label, report), kind="anc", outcome=k)
                )
            )
        co.needs_grid = co.family.is_survival and (
            co.has_time or co.family.user_hazard is not None or co.family.user_cumhazard is not None
        )
        _order_rows(program, co)
        co.view = OutcomeView(co)

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
    if co.rows.size == 0:
        return
    keys = []
    for comp in co.components:
        for name in comp.cov_names:
            keys.append(program.frame.col(name)[co.rows])
    for arr in (co.times, co.entry, co.event, co.response):
        if arr is not None:
            keys.append(arr)
    for lname in reversed(program.hierarchy.levels):
        keys.append(program.unit_index[lname][co.rows])
    order = np.lexsort(keys) if keys else np.arange(co.rows.size)
    co.rows = co.rows[order]
    for attr in ("response", "event", "entry", "bhaz", "times"):
        v = getattr(co, attr)
        if v is not None:
            setattr(co, attr, v[order])
    if co.family.is_survival:
        _build_grids(program, co)


def _build_grids(program: Program, co: _CompiledOutcome) -> None:
    """Precompute time grids for survival evaluation: the event time,
    Gauss-Legendre nodes over (0, y], nodes over (0, t0], and for the
    spline model the log-time difference points.
    """
    y = co.response
    t0 = co.entry if co.entry is not None else np.zeros_like(y)
    co.entry_mask = t0 > 0
    if co.spec.family.name == "rp":
        step = 1e-5 * np.maximum(1.0, np.abs(np.log(y)))
        co.rp_logstep = step.reshape(-1, 1, 1)
        if co.has_time:
            t0_safe = np.where(co.entry_mask, t0, 1.0)
            co.tgrid = np.stack([y, y * np.exp(step), y * np.exp(-step), t0_safe], axis=1)
        return
    if not co.needs_grid:
        return
    u = program.gl_nodes
    ynodes = 0.5 * y[:, None] * (u[None, :] + 1.0)
    t0_safe = np.where(co.entry_mask, t0, 1.0)
    enodes = 0.5 * t0_safe[:, None] * (u[None, :] + 1.0)
    co.tgrid = np.concatenate([y[:, None], ynodes, enodes], axis=1)  # (n, 1 + 2q)


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

    def latent_at_rows(self, info, rows: np.ndarray) -> np.ndarray:
        vals = self.latent_values.get(info.name)
        if vals is None:
            raise ValueError(f"no value assigned to latent effect {info.name}")
        ordinals = self.program.unit_index[info.level][rows]
        return vals[ordinals][:, None, :]  # (n, 1, B)


def eval_eta(ctx: EvalContext, k: int, rows: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Linear predictor of outcome k at the given frame rows, shape
    broadcastable to (n, A, B). ``t`` is None or an (n,) / (n, A) time
    grid; pass the same grid object to benefit from memoization.
    """
    if t is not None and t.ndim != 2:
        t = t.reshape(-1, 1)
    key = (k, id(rows), id(t))
    hit = ctx.memo.get(key)
    if hit is not None and hit[0] is rows and hit[1] is t:
        return hit[2]
    program = ctx.program
    co = program.outcomes[k]
    theta = ctx.theta
    total = np.zeros((len(rows), 1, 1))
    if co.cons_slot is not None:
        total = total + theta[co.cons_slot]
    for cc in co.components:
        factor = None

        def mul(x):
            nonlocal factor
            factor = x if factor is None else factor * x

        cov = cc.cov_product(program.frame, rows)
        if cov is not None:
            mul(cov)
        for info in cc.latents:
            mul(ctx.latent_at_rows(info, rows))
        for kind, j in cc.evlinks:
            mul(eval_ev(ctx, kind, j, rows, t))
        block = None
        if cc.timefn is not None:
            el, basis, log_scale = cc.timefn
            if t is None:
                raise ValueError(f"outcome {k + 1} ({co.label}): time function needs evaluation times")
            cols = program.basis_at(basis, t, log_scale)
            if cc.ncols == 1:
                mul(cols[..., 0][:, :, None])
            else:
                block = cols
        if cc.slots is not None:
            coefs = theta[cc.slots]
            if block is not None:
                mul((block @ coefs)[:, :, None])
            else:
                mul(coefs[0])
        if factor is None:
            factor = np.ones((len(rows), 1, 1))
        total = total + factor
    ctx.memo[key] = (rows, t, total)
    return total


def eval_ev(ctx: EvalContext, kind: str, j: int, rows: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """Expected value of outcome j (or its time derivative/integral) at
    the given rows and an (n, A) time grid.
    """
    program = ctx.program
    target = program.outcomes[j]
    if target.time_indexed and t is None:
        raise ValueError(f"EV[{target.label}] is time-indexed: evaluation times are required")

    def ev_at(times):
        eta = eval_eta(ctx, j, rows, times)
        return target.family.inverse_link(eta)

    if kind == "EV":
        return ev_at(t if target.time_indexed else None)
    if kind in ("dEV", "d2EV"):
        scale = 1e-5 if kind == "dEV" else 1e-4
        h = scale * np.maximum(1.0, np.abs(t))
        h = np.where(t > 0, np.minimum(h, 0.5 * np.maximum(t, 1e-300)), h)
        h3 = h[:, :, None]
        up = ev_at(t + h)
        dn = ev_at(t - h)
        if kind == "dEV":
            return (up - dn) / (2.0 * h3)
        mid = ev_at(t)
        return (up - 2.0 * mid + dn) / (h3 * h3)
    if kind == "iEV":
        nodes, weights = program.gl_nodes, program.gl_weights
        n, a = t.shape
        qn = len(nodes)
        grid = 0.5 * t[:, :, None] * (nodes[None, None, :] + 1.0)  # (n, A, Q)
        safe = np.where(grid > 0, grid, 1.0)  # the integral over (0, 0] is zero
        vals = ev_at(safe.reshape(n, a * qn))  # (n, A*Q, B)
        vals = np.broadcast_to(vals, (n, a * qn, vals.shape[-1])).reshape(n, a, qn, -1)
        integ = 0.5 * t[:, :, None] * np.einsum("q,naqb->nab", weights, vals)
        return np.where(t[:, :, None] > 0, integ, 0.0)
    raise ValueError(f"unknown expected-value kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-outcome conditional log-likelihood
# ---------------------------------------------------------------------------


class FamilyContext:
    """What a user hook may read: the response, any outcome's linear
    predictor, ancillary slots, and the measurement times.
    """

    def __init__(self, ctx: EvalContext, k: int, view: OutcomeView, times: np.ndarray | None):
        self._ctx = ctx
        self._k = k
        self._view = view
        self._times = times

    def response(self):
        r = self._view.response
        return None if r is None else r.reshape(-1, 1, 1)

    def times(self):
        return None if self._times is None else self._times[:, :, None]

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
            times = self._times
        elif np.ndim(t) == 3:
            times = t[..., 0]
        else:
            times = np.asarray(t, dtype=float)
        return eval_eta(self._ctx, j, self._view.rows, times)

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
    if fam.is_null or co.rows.size == 0:
        return np.zeros((0, 1))
    view = co.view
    theta = ctx.theta
    anc = fam.natural_anc(theta[co.anc_slots]) if co.anc_slots else []

    if fam.user_loglf is not None and not fam.is_survival:
        times = None if view.times is None else view.times.reshape(-1, 1)
        fctx = FamilyContext(ctx, k, view, times)
        out = np.asarray(fam.user_loglf(fctx), dtype=float)
        return _collapse(out, view.n)

    if not fam.is_survival:
        y = view.response.reshape(-1, 1, 1)
        times = None if view.times is None else view.times.reshape(-1, 1)
        eta = eval_eta(ctx, k, view.rows, times)
        ll = fam.logl(y, eta, anc)
        return _collapse(ll, view.n)

    return _survival_logl(ctx, k, view, anc)


def _collapse(ll: np.ndarray, n: int) -> np.ndarray:
    """(n, A, B) -> (n, B), requiring the time axis to be singleton."""
    ll = np.asarray(ll, dtype=float)
    if ll.ndim == 2:
        return np.broadcast_to(ll, (n, ll.shape[-1]))
    if ll.ndim != 3 or ll.shape[1] != 1:
        raise ValueError(f"expected (rows, 1, nodes)-shaped log-likelihood, got {ll.shape}")
    out = ll[:, 0, :]
    return np.broadcast_to(out, (n, out.shape[-1])) if out.shape[0] != n else out


def _survival_logl(ctx: EvalContext, k: int, view: OutcomeView, anc) -> np.ndarray:
    program = ctx.program
    co = program.outcomes[k]
    fam = co.family
    theta = ctx.theta
    y = view.response
    d = view.event.reshape(-1, 1, 1)
    t0 = view.entry
    emask = view.entry_mask.reshape(-1, 1, 1)
    bh = None if view.bhaz is None else view.bhaz.reshape(-1, 1, 1)
    n = view.n
    q = program.gl_points
    w = program.gl_weights

    if co.spec.family.name == "rp":
        coefs = theta[co.spline_slots]
        y3 = y.reshape(-1, 1, 1)
        t03 = np.where(emask, t0.reshape(-1, 1, 1), 0.0)
        if co.has_time:
            eta_all = eval_eta(ctx, k, view.rows, view.tgrid)
            eta_all = np.broadcast_to(eta_all, (n, 4, eta_all.shape[-1]))
            ll = fam_mod.rp_logl(
                y3,
                d,
                co.spline_basis,
                coefs,
                eta_all[:, 0:1, :],
                t0=t03,
                bhaz=0.0 if bh is None else bh,
                eta_plus=eta_all[:, 1:2, :],
                eta_minus=eta_all[:, 2:3, :],
                eta_entry=eta_all[:, 3:4, :],
                log_step=view.rp_logstep,
            )
        else:
            eta = eval_eta(ctx, k, view.rows, None)
            ll = fam_mod.rp_logl(y3, d, co.spline_basis, coefs, eta, t0=t03, bhaz=0.0 if bh is None else bh)
        return _collapse(ll, n)

    if not co.needs_grid:
        # time-constant linear predictor, closed-form hazards
        eta = eval_eta(ctx, k, view.rows, None)
        y3 = y.reshape(-1, 1, 1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_h = fam.log_hazard(y3, eta, anc)
            cum = fam.cum_hazard(y3, eta, anc)
            if bh is not None:
                event = np.where(d != 0, np.log(np.exp(log_h) + bh), 0.0)
            else:
                event = np.where(d != 0, log_h, 0.0)
            ll = np.where(d != 0, event, 0.0) - cum
            if emask.any():
                t03 = t0.reshape(-1, 1, 1)
                ll = ll + np.where(emask, fam.cum_hazard(np.where(emask, t03, 1.0), eta, anc), 0.0)
        return _collapse(ll, n)

    # hazard-quadrature path: grid columns are [y | y-nodes | entry-nodes]
    fctx = FamilyContext(ctx, k, view, None)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if fam.user_cumhazard is not None and fam.user_hazard is None:
            return _user_cumhazard_logl(ctx, co, view, fctx)
        if fam.user_hazard is not None:
            haz = np.asarray(fam.user_hazard(fctx, view.tgrid[:, :, None]), dtype=float)
            haz = np.broadcast_to(haz, (n, 1 + 2 * q, haz.shape[-1]))
            log_h_event = np.log(np.maximum(haz[:, 0:1, :], 1e-300))
            h_body = haz[:, 1 : 1 + q, :]
            h_entry = haz[:, 1 + q :, :]
        else:
            eta_all = eval_eta(ctx, k, view.rows, view.tgrid)
            base = fam.base_log_hazard(view.tgrid, anc)[:, :, None]
            log_h = eta_all + base
            log_h = np.broadcast_to(log_h, (n, 1 + 2 * q, log_h.shape[-1]))
            log_h_event = log_h[:, 0:1, :]
            h_body = np.exp(log_h[:, 1 : 1 + q, :])
            h_entry = np.exp(log_h[:, 1 + q :, :])
        y3 = y.reshape(-1, 1, 1)
        t03 = t0.reshape(-1, 1, 1)
        cum = 0.5 * y3 * np.einsum("q,nqb->nb", w, h_body)[:, None, :]
        cum0 = np.where(emask, 0.5 * t03 * np.einsum("q,nqb->nb", w, h_entry)[:, None, :], 0.0)
        if bh is not None:
            event = np.where(d != 0, np.log(np.maximum(np.exp(log_h_event) + bh, 1e-300)), 0.0)
        else:
            event = np.where(d != 0, log_h_event, 0.0)
        ll = np.where(d != 0, event, 0.0) - cum + cum0
    return _collapse(ll, n)


def _user_cumhazard_logl(ctx: EvalContext, co, view: OutcomeView, fctx) -> np.ndarray:
    y = view.response
    d = view.event.reshape(-1, 1, 1)
    emask = view.entry_mask.reshape(-1, 1, 1)
    n = view.n
    delta = 1e-5 * np.maximum(1.0, np.abs(np.log(y)))
    t0 = view.entry
    tgrid = np.stack([y, y * np.exp(delta), y * np.exp(-delta), np.where(t0 > 0, t0, 1.0)], axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ch = np.asarray(co.family.user_cumhazard(fctx, tgrid[:, :, None]), dtype=float)
        ch = np.broadcast_to(ch, (n, 4, ch.shape[-1]))
        cum = ch[:, 0:1, :]
        # hazard via a central difference on log time: h = (dH/dlog t)/t
        dH = (ch[:, 1:2, :] - ch[:, 2:3, :]) / (2.0 * delta.reshape(-1, 1, 1))
        hazard = dH / y.reshape(-1, 1, 1)
        event = np.where(d != 0, np.log(np.maximum(hazard, 1e-300)), 0.0)
        cum0 = np.where(emask, ch[:, 3:4, :], 0.0)
        ll = np.where(d != 0, event, 0.0) - cum + cum0
    return _collapse(ll, n)
