"""Multilevel, multivariate mixed-effects and survival models by
maximum marginal likelihood.
"""

# imported first, at a shallow stack depth: imported at the end of a chain
# of package imports, scipy.special's own import took some 15 ms longer
# (CPython 3.11, x86-64 Linux), with about 1500 more page faults
import scipy.special  # noqa: F401

from .basis import FpBasis, RcsBasis, default_knots, fp_eval, rcs_deriv, rcs_eval
from .data import DataFrame, Hierarchy, as_frame, build_hierarchy, load_csv, split_outcome_rows
from .dsl import (
    ModelSpec,
    load_spec_file,
    parse_model_spec,
    render_spec,
    save_spec_file,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .estimator import MixedModel, fit_model
from .families import register_user_family
from .integrate import GhRule, HaltonSet, ReKernel, gh_rule, halton, kernel_draws
from .likelihood import IntegrationPlan, LevelPlan, LikelihoodEvaluator, default_plan, marginal_logl
from .optim import FitResult, fd_gradient, fd_hessian, initial_values, maximize
from .predictor import compile_program
from .simulate import simulate

__version__ = "0.1.0"

__all__ = [
    "FpBasis",
    "RcsBasis",
    "default_knots",
    "fp_eval",
    "rcs_deriv",
    "rcs_eval",
    "DataFrame",
    "Hierarchy",
    "as_frame",
    "build_hierarchy",
    "load_csv",
    "split_outcome_rows",
    "ModelSpec",
    "parse_model_spec",
    "render_spec",
    "spec_to_dict",
    "spec_from_dict",
    "load_spec_file",
    "save_spec_file",
    "validate_spec",
    "MixedModel",
    "fit_model",
    "register_user_family",
    "GhRule",
    "HaltonSet",
    "ReKernel",
    "gh_rule",
    "halton",
    "kernel_draws",
    "IntegrationPlan",
    "LevelPlan",
    "LikelihoodEvaluator",
    "default_plan",
    "marginal_logl",
    "FitResult",
    "fd_gradient",
    "fd_hessian",
    "initial_values",
    "maximize",
    "compile_program",
    "simulate",
    "__version__",
]
