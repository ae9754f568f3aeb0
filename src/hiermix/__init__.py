"""Multilevel, multivariate mixed-effects and survival models by
maximum marginal likelihood.

The package exports the names README documents; everything else is
internal.

Importing the package loads numpy only. The functions that call
scipy.special import it at their first call, so a fit that needs none of
it never loads it: Gaussian, exponential, Weibull, Gompertz,
log-logistic and ``rp`` outcomes under quadrature with normal random
effects.
"""

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
