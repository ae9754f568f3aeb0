"""Multilevel, multivariate mixed-effects and survival models by
maximum marginal likelihood.

The package exports the names README documents; everything else is
internal.
"""

# imported first, at a shallow stack depth: imported at the end of a chain
# of package imports, scipy.special's own import took some 15 ms longer
# (CPython 3.11, x86-64 Linux), with about 1500 more page faults
import scipy.special  # noqa: F401

from .dsl import load_spec_file, save_spec_file
from .estimator import MixedModel, fit_model
from .families import register_user_family
from .optim import FitResult
from .simulate import simulate

__version__ = "0.1.0"

__all__ = [
    "fit_model",
    "FitResult",
    "MixedModel",
    "register_user_family",
    "save_spec_file",
    "load_spec_file",
    "simulate",
]
