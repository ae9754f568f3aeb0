"""Generate datasets from a model specification and true parameters.

The unit tree is built from per-level counts, latent effects are drawn
from the configured kernel, longitudinal responses are sampled at the
requested measurement times, and survival times invert the cumulative
hazard (closed form where available, bisection against a unit
exponential draw otherwise). The output frame is in the long layout the
fitting side reads: one row per measurement, recurrent-event rows per
record, and single-record survival values on the subject's first row.
"""

from __future__ import annotations

import operator

import numpy as np

from .data import DataFrame
from .dsl import _as_spec
from .integrate import ReKernel
from .predictor import EvalContext, FamilyContext, Program, compile_program, eval_eta

__all__ = ["simulate", "SimulationError"]

_BISECT_TOL = 1e-10
_COVARIATE_PARAMS = {"normal": ("mean", "sd"), "bernoulli": ("p",), "uniform": ("low", "high")}


class SimulationError(ValueError):
    pass


def _count(value, what: str) -> int:
    """A unit or record count, a positive integer as ``operator.index`` reads it."""
    if not hasattr(value, "__index__") or operator.index(value) < 1:
        raise SimulationError(f"{what} must be a positive integer, got {value!r}")
    return operator.index(value)


def simulate(
    spec,
    theta,
    levels: dict[str, int],
    covariates: dict | None = None,
    outcomes: list[dict] | None = None,
    seed: int = 0,
) -> DataFrame:
    """Simulate a dataset.

    levels: units per parent for every cluster level, outermost first
        (a single-level model takes ``{"id": 300}``).
    covariates: name -> {"dist": normal|bernoulli|uniform, "level": a
        level name or "row", plus the dist's parameters: mean and sd,
        p, or low and high}; default standard normal at the innermost
        level.
    outcomes: per outcome either {"times": [...]} for longitudinal
        outcomes, or {"censoring": time, "records": r} for survival
        outcomes; null outcomes take {}.
    """
    model_spec = _as_spec(spec)
    rng = np.random.default_rng(seed)
    if not model_spec.levels:
        raise SimulationError("simulation needs at least one cluster level in the specification")
    for name in model_spec.levels:
        if name not in levels:
            raise SimulationError(f"levels must give a unit count for {name!r}")
    extra = [name for name in levels if name not in model_spec.levels]
    if extra:
        raise SimulationError(
            f"levels names levels the specification does not have: {extra}; its levels are {list(model_spec.levels)}"
        )
    counts = [_count(levels[name], f"levels: the unit count for {name!r}") for name in model_spec.levels]
    outcome_cfg = outcomes or [{} for _ in model_spec.outcomes]
    if not isinstance(outcome_cfg, (list, tuple)) or not all(isinstance(cfg, dict) for cfg in outcome_cfg):
        raise SimulationError(f"outcomes must be a list with one settings dict per outcome, got {outcomes!r}")
    if len(outcome_cfg) != len(model_spec.outcomes):
        raise SimulationError(f"{len(model_spec.outcomes)} outcomes but {len(outcome_cfg)} outcome configurations")

    # --- unit tree: globally unique integer ids per level ---
    n_units = []
    total = 1
    for c in counts:
        total *= c
        n_units.append(total)
    n_subjects = n_units[-1]
    # id of the unit at each level for every innermost subject
    subj_level_ids = np.empty((n_subjects, len(counts)), dtype=int)
    for j in range(len(counts)):
        stride = int(np.prod(counts[j + 1 :])) if j + 1 < len(counts) else 1
        subj_level_ids[:, j] = np.arange(n_subjects) // stride + 1

    # --- rows per subject ---
    long_times: dict[int, list[float]] = {}
    surv_records: dict[int, int] = {}
    for k, (outcome, cfg) in enumerate(zip(model_spec.outcomes, outcome_cfg)):
        fam = outcome.family
        if fam.is_null:
            continue
        if fam.is_survival:
            surv_records[k] = _count(cfg.get("records", 1), f"outcome {k + 1} ({outcome.response}): records")
        else:
            times = cfg.get("times")
            if times is None:
                raise SimulationError(f"outcome {k + 1} ({outcome.response}): give measurement times")
            long_times[k] = [float(t) for t in times]

    time_cols = {model_spec.outcomes[k].timevar for k in long_times if model_spec.outcomes[k].timevar}
    union_times = sorted({t for ts in long_times.values() for t in ts})
    # base rows carry longitudinal measurements and single-record
    # survival values; recurrent-event records get rows of their own
    needs_base = bool(long_times) or any(r == 1 for r in surv_records.values())
    rows_per_subject = max(len(union_times), 1 if needs_base else 0)
    extra_rows = sum(r for r in surv_records.values() if r > 1)
    block = rows_per_subject + extra_rows
    if block == 0:
        raise SimulationError("no outcome generates any rows")
    n_rows = n_subjects * block

    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(model_spec.levels):
        columns[name] = np.repeat(subj_level_ids[:, j], block).astype(float)
    row_subj = np.repeat(np.arange(n_subjects), block)
    row_in_block = np.tile(np.arange(block), n_subjects)

    for name in time_cols:
        vals = np.full(n_rows, np.nan)
        for i, t in enumerate(union_times):
            vals[row_in_block == i] = t
        columns[name] = vals

    # --- covariates ---
    cov_spec = covariates or {}
    referenced = set()
    for outcome in model_spec.outcomes:
        for comp in outcome.components:
            for el in comp.elements:
                if type(el).__name__ == "Covariate":
                    referenced.add(el.name)
    extra = sorted(set(cov_spec) - referenced)
    if extra:
        raise SimulationError(
            f"covariates names columns that no outcome reads: {extra}; the outcomes read {sorted(referenced)}"
        )
    for name in sorted(referenced):
        cfg = cov_spec.get(name, {})
        if not isinstance(cfg, dict):
            raise SimulationError(f"covariate {name!r}: give its settings as a dict, got {cfg!r}")
        level = cfg.get("level", model_spec.levels[-1])
        dist = cfg.get("dist", "normal")
        if dist not in _COVARIATE_PARAMS:
            raise SimulationError(f"unknown covariate distribution {dist!r} for {name}")
        allowed = ("dist", "level", *_COVARIATE_PARAMS[dist])
        unknown = sorted(set(cfg) - set(allowed))
        if unknown:
            raise SimulationError(f"covariate {name!r}: unknown settings {unknown}; it takes {list(allowed)}")
        if level != "row" and level not in model_spec.levels:
            raise SimulationError(f"covariate {name!r}: level {level!r} is none of {[*model_spec.levels, 'row']}")
        if level == "row":
            m = n_rows
            expand = lambda v: v
        else:
            j = model_spec.levels.index(level)
            m = n_units[j]
            stride = int(np.prod(counts[j + 1 :])) if j + 1 < len(counts) else 1
            expand = lambda v, stride=stride: np.repeat(v, stride)[row_subj] if stride > 1 else v[row_subj]
        if dist == "normal":
            vals = rng.normal(cfg.get("mean", 0.0), cfg.get("sd", 1.0), size=m)
        elif dist == "bernoulli":
            vals = (rng.random(m) < cfg.get("p", 0.5)).astype(float)
        else:
            vals = rng.uniform(cfg.get("low", 0.0), cfg.get("high", 1.0), size=m)
        columns[name] = np.asarray(expand(vals), dtype=float)

    # --- placeholder responses so the specification compiles ---
    for k, outcome in enumerate(model_spec.outcomes):
        fam = outcome.family
        if fam.is_null:
            continue
        if fam.is_survival:
            if fam.name == "rp" and fam.knots is None:
                raise SimulationError(f"outcome {k + 1}: give explicit family knots() when simulating a spline baseline")
            for comp in outcome.components:
                for el in comp.elements:
                    if type(el).__name__ == "TimeFn" and el.kind == "rcs" and el.knots is None:
                        raise SimulationError(f"outcome {k + 1}: rcs() elements need explicit knots() when simulating")
            y = np.full(n_rows, np.nan)
            d = np.full(n_rows, np.nan)
            records = surv_records[k]
            if records > 1:
                offset = rows_per_subject + sum(r for kk, r in surv_records.items() if r > 1 and kk < k)
                mask = (row_in_block >= offset) & (row_in_block < offset + records)
            else:
                mask = row_in_block == 0
            y[mask] = np.linspace(0.5, 1.5, int(mask.sum()))
            d[mask] = 1.0
            columns[outcome.response] = y
            columns[fam.failure] = d
        else:
            y = np.full(n_rows, np.nan)
            for t in long_times[k]:
                i = union_times.index(t)
                y[row_in_block == i] = 0.0
            dummy = 0.5 if fam.name == "beta" else 0.0  # a response the family accepts
            y[~np.isnan(y)] = dummy
            columns[outcome.response] = y

    frame = DataFrame(columns)
    program = compile_program(model_spec, frame)

    if isinstance(theta, dict):
        vec = np.zeros(program.n_params)
        for name, value in theta.items():
            try:
                vec[program.slot_index(name)] = float(value)
            except KeyError as exc:
                raise SimulationError(exc.args[0]) from None
        theta = vec
    else:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (program.n_params,):
            raise SimulationError(
                f"theta has length {len(theta)}, the model needs {program.n_params}: {program.slot_names()}"
            )

    # --- latent effects ---
    latent_values: dict[str, np.ndarray] = {}
    for li in program.levels:
        if li.dim == 0:
            continue
        kernel = ReKernel(li.dim, model_spec.re_distribution, model_spec.t_df, structure=model_spec.covariance)
        chol = kernel.build_chol(theta[li.re_slots])
        m = program.hierarchy.n_units(li.lidx)
        z = rng.standard_normal((m, li.dim))
        if kernel.dist == "t":
            w = rng.chisquare(kernel.df, size=m)
            z = z * np.sqrt(kernel.df / w)[:, None]
        draws = z @ chol.T
        for j, name in enumerate(li.latent_names):
            latent_values[name] = draws[:, j : j + 1]

    ctx = EvalContext(program, theta, latent_values)

    # --- longitudinal responses ---
    for k, outcome in enumerate(model_spec.outcomes):
        fam_spec = outcome.family
        if fam_spec.is_null or fam_spec.is_survival:
            continue
        co = program.outcomes[k]
        fam = co.family
        rows = co.rows
        eta = eval_eta(ctx, k, k, co.grid)
        mu = fam.inverse_link(eta)[:, 0, 0]
        anc = fam.natural_anc(theta[co.anc_slots]) if co.anc_slots else []
        if fam.name == "gaussian":
            y = rng.normal(mu, anc[0])
        elif fam.name == "poisson":
            y = rng.poisson(mu).astype(float)
        elif fam.name == "bernoulli":
            y = (rng.random(len(mu)) < mu).astype(float)
        elif fam.name == "binomial":
            y = rng.binomial(fam.k, mu).astype(float)
        elif fam.name == "beta":
            s = anc[0]
            y = rng.beta(mu * s, (1.0 - mu) * s)
        elif fam.name == "negbinomial":
            alpha = anc[0]
            shape = 1.0 / alpha
            lam = rng.gamma(shape, alpha * mu)
            y = rng.poisson(lam).astype(float)
        else:
            raise SimulationError(f"cannot simulate family {fam.name!r}")
        frame.columns[outcome.response][rows] = y

    # --- survival responses ---
    for k, outcome in enumerate(model_spec.outcomes):
        fam_spec = outcome.family
        if not fam_spec.is_survival:
            continue
        cfg = outcome_cfg[k]
        censor = cfg.get("censoring")
        co = program.outcomes[k]
        rows = co.rows
        n = len(rows)
        target = -np.log(rng.random(n))  # unit exponential draws
        anc = co.family.natural_anc(theta[co.anc_slots]) if co.anc_slots else []
        times = _invert_survival(program, ctx, k, target, anc, censor)
        if censor is not None:
            event = (times < censor).astype(float)
            times = np.minimum(times, censor)
        else:
            if np.any(~np.isfinite(times)):
                raise SimulationError(
                    f"outcome {k + 1} ({outcome.response}): survival function is not invertible without censoring"
                )
            event = np.ones(n)
        frame.columns[outcome.response][rows] = times
        frame.columns[fam_spec.failure][rows] = event

    return frame


def _invert_survival(program: Program, ctx: EvalContext, k: int, target, anc, censor):
    """Solve H(t) = target per row. Closed forms for the standard
    families with a time-constant linear predictor; otherwise bisection
    up to the censoring time on the cumulative hazard: the spline's, a
    user ``chfunction``'s, or the quadrature of the hazard.
    """
    co = program.outcomes[k]
    fam = co.family
    name = fam.name
    if not co.time_indexed and name != "rp":
        eta = eval_eta(ctx, k, k)[:, 0, 0]
        lam = np.exp(eta)
        if name == "exponential":
            return target / lam
        if name == "weibull":
            return (target / lam) ** (1.0 / anc[0])
        if name == "gompertz":
            g = anc[0]
            if abs(g) < 1e-8:
                return target / lam
            inner = 1.0 + g * target / lam
            out = np.where(inner > 0, np.log(np.maximum(inner, 1e-300)) / g, np.inf)
            return out
        if name == "lognormal":
            from scipy.special import ndtri

            u = 1.0 - np.exp(-target)  # F(t) quantile level
            return np.exp(eta + anc[0] * ndtri(u))
        if name == "loglogistic":
            u = np.expm1(target)  # (lam*t)^(1/gamma)
            return np.power(u, anc[0]) / lam

    if censor is None:
        raise SimulationError("time-dependent hazards need a censoring time to bracket the inversion")

    def cumhaz(upper: np.ndarray) -> np.ndarray:
        if name == "rp":
            coefs = ctx.theta[co.spline_slots]
            from .basis import rcs_eval

            safe_t = np.maximum(upper, 1e-300)
            if co.time_indexed:
                eta = eval_eta(ctx, k, k, safe_t.reshape(-1, 1))[:, 0, 0]
            else:
                eta = eval_eta(ctx, k, k)[:, 0, 0]
            s = rcs_eval(co.spline_basis, np.log(safe_t)) @ coefs
            return np.exp(s + eta)
        if fam.user_cumhazard is not None and fam.user_hazard is None:
            ch = np.asarray(fam.user_cumhazard(FamilyContext(ctx, k, None), upper[:, None, None]), dtype=float)
            return np.broadcast_to(ch, (len(upper), 1, 1))[:, 0, 0]
        u, w = program.gl_rule
        grid = np.maximum(0.5 * upper[:, None] * (u[None, :] + 1.0), 1e-300)
        if fam.user_hazard is not None:
            h = np.asarray(fam.user_hazard(FamilyContext(ctx, k, None), grid[:, :, None]), dtype=float)
            h = np.broadcast_to(h, (len(upper), grid.shape[1], h.shape[-1]))[:, :, 0]
        else:
            eta = eval_eta(ctx, k, k, grid)
            if eta.shape[1] == 1:
                eta = np.broadcast_to(eta, (len(upper), grid.shape[1], eta.shape[2]))
            h = np.exp(eta[:, :, 0] + fam.base_log_hazard(grid, anc))
        return 0.5 * upper * (h @ w)

    lo = np.full(len(target), 1e-12)
    hi = np.full(len(target), float(censor))
    h_hi = cumhaz(hi)
    unresolved = h_hi >= target  # events before censoring: bisect those
    out = np.full(len(target), np.inf)
    lo_w, hi_w = lo.copy(), hi.copy()
    for _ in range(200):
        if not np.any(unresolved):
            break
        mid = 0.5 * (lo_w + hi_w)
        h_mid = cumhaz(mid)
        low = h_mid < target
        lo_w = np.where(unresolved & low, mid, lo_w)
        hi_w = np.where(unresolved & ~low, mid, hi_w)
        done = (hi_w - lo_w) < _BISECT_TOL
        out = np.where(unresolved & done, 0.5 * (lo_w + hi_w), out)
        unresolved &= ~done
    out = np.where(np.isinf(out) & (h_hi >= target), 0.5 * (lo_w + hi_w), out)
    return out
