"""Fitting front end: a functional ``fit_model`` and an estimator class
with the familiar fit/get_params/set_params surface so models drop into
pipeline-style tooling.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from .data import as_frame
from .dsl import SpecValidationError, _as_spec, validate_spec
from .likelihood import LikelihoodEvaluator, default_plan
from .optim import FitResult, build_fit_result, initial_values, maximize
from .predictor import compile_program

__all__ = ["fit_model", "MixedModel"]


def fit_model(
    spec,
    data,
    *,
    points: int | dict | None = None,
    draws: int | dict | None = None,
    method: str | dict | None = None,
    redistribution: str | dict | None = None,
    t_df: int | dict | None = None,
    covariance: str | None = None,
    adaptive: bool | None = None,
    skip: int | None = None,
    gl_points: int = 30,
    max_iter: int = 300,
    init: dict | np.ndarray | None = None,
    fixed: dict | None = None,
    threads: int = 1,
    verbose: bool = False,
) -> FitResult:
    """Parse, validate, compile and maximize. Integration arguments
    accept a single value or a per-level dict; ``fixed`` pins named
    parameters (estimation scale) during maximization, and they get no
    standard errors. ``points``, ``skip`` and ``adaptive`` left at None
    take ``default_plan``'s defaults. A setting that no level would read
    is a ``ValueError``: ``points`` or ``adaptive`` where no level
    integrates by quadrature, ``draws`` or ``skip`` where none integrates
    by quasi-Monte Carlo, ``t_df`` where no level has a t kernel.
    """
    model_spec = _as_spec(spec)
    if covariance is not None:
        model_spec = replace(model_spec, covariance=covariance)
    frame = as_frame(data)
    report = validate_spec(model_spec, frame)
    if not report.ok:
        raise SpecValidationError("; ".join(report.errors))
    program = compile_program(model_spec, frame, report, gl_points=gl_points)
    plan = default_plan(
        program,
        points=points,
        draws=draws,
        method=method,
        redistribution=redistribution,
        t_df=t_df,
        adaptive=adaptive,
        skip=skip,
    )
    levels = plan.levels.values()
    quadrature, qmc = (any(lp.method == kind for lp in levels) for kind in ("aghq", "qmc"))
    for what, value, reader, read in (
        ("points (--points)", points, "integrates by quadrature", quadrature),
        ("adaptive (--no-adaptive)", adaptive, "integrates by quadrature", quadrature),
        ("draws (--draws)", draws, "integrates by quasi-Monte Carlo", qmc),
        ("skip (--skip)", skip, "integrates by quasi-Monte Carlo", qmc),
        ("t_df (--df)", t_df, "has a t kernel", any(lp.dist == "t" for lp in levels)),
    ):
        if value not in (None, {}) and not read:
            raise ValueError(f"{what} is set, but no level {reader}, so none would read it")
    evaluator = LikelihoodEvaluator(program, plan)

    theta0 = initial_values(program)
    if init is not None:
        if isinstance(init, dict):
            for name, value in init.items():
                theta0[program.slot_index(name)] = float(value)
        else:
            init = np.asarray(init, dtype=float)
            if init.shape != theta0.shape:
                raise ValueError(f"init has length {len(init)}, model has {len(theta0)} parameters")
            theta0 = init.copy()
    free = np.ones(program.n_params, dtype=bool)
    if fixed:
        for name, value in fixed.items():
            idx = program.slot_index(name)
            theta0[idx] = float(value)
            free[idx] = False

    floor_idx = [i for i, s in enumerate(program.slots) if s.kind == "re" and s.transform == "exp"]

    def clamp(theta):
        out = theta.copy()
        out[floor_idx] = np.maximum(out[floor_idx], -10.0)
        return out

    monitor = None
    if verbose:

        def monitor(it, logl, scaled, halvings):
            print(f"iteration {it}: logl {logl:.8f}, max scaled gradient {scaled:.3e}, halvings {halvings}", file=sys.stderr)

    maxres = maximize(
        evaluator.logl,
        theta0,
        refresh=evaluator.refresh,
        max_iter=max_iter,
        free_mask=free,
        clamp=clamp,
        monitor=monitor,
        threads=threads,
        derivatives=evaluator.derivatives if evaluator.exact else None,
    )
    return build_fit_result(program, plan, maxres, evaluator)


class MixedModel:
    """Estimator-style wrapper: configure in the constructor, ``fit`` on
    a data frame (path, mapping of columns, or pandas frame), read the
    fitted state from trailing-underscore attributes.
    """

    _param_names = (
        "spec",
        "points",
        "draws",
        "method",
        "redistribution",
        "t_df",
        "covariance",
        "adaptive",
        "skip",
        "gl_points",
        "max_iter",
        "threads",
    )

    def __init__(
        self,
        spec,
        *,
        points=None,
        draws=None,
        method=None,
        redistribution=None,
        t_df=None,
        covariance=None,
        adaptive=None,
        skip=None,
        gl_points=30,
        max_iter=300,
        threads=1,
    ):
        self.spec = spec
        self.points = points
        self.draws = draws
        self.method = method
        self.redistribution = redistribution
        self.t_df = t_df
        self.covariance = covariance
        self.adaptive = adaptive
        self.skip = skip
        self.gl_points = gl_points
        self.max_iter = max_iter
        self.threads = threads

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "MixedModel":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"unknown parameter {name!r} (valid: {', '.join(self._param_names)})")
            setattr(self, name, value)
        return self

    def fit(self, data, init=None, fixed=None, verbose: bool = False) -> "MixedModel":
        params = self.get_params()
        result = fit_model(params.pop("spec"), data, init=init, fixed=fixed, verbose=verbose, **params)
        self.result_ = result
        self.names_ = list(result.names)
        self.theta_ = result.theta.copy()
        self.params_ = {row["name"]: row["estimate"] for row in result.table}
        self.cov_ = result.cov
        self.loglik_ = result.logl
        self.converged_ = result.converged
        self.n_iter_ = result.iterations
        return self

    def summary(self) -> str:
        self._check_fitted()
        return self.result_.summary()

    def loglik(self) -> float:
        self._check_fitted()
        return self.loglik_

    def _check_fitted(self):
        if not hasattr(self, "result_"):
            raise RuntimeError("model is not fitted; call fit(data) first")
