"""Locally D- and A-optimal designs for gamma models without intercept.

The package constructs closed-form optimal designs where theory provides
them, verifies optimality through equivalence-theorem sensitivity checks
on candidate sets, computes weights numerically with a certified Newton
solver where no closed form exists, and quantifies robustness through
D-efficiency sweeps.
"""

# Each module's __all__ is the one list of its public names.
from .model_core import *
from .equivalence import *
from .analytic_designs import *
from .transforms import *
from .solver import *
from .efficiency import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
