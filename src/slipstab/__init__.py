"""Stability of steady frictional sliding under rate-and-state friction.

From the single-degree-of-freedom spring block up to dynamic anti-plane
sliding between dissimilar anisotropic elastic half-spaces: closed-form
critical stiffnesses, neutral (Hopf) modes and the critical wavenumber,
argument-principle certification against the full characteristic equation,
and a nonlinear time-domain oracle.

Each public name is declared once, in the `__all__` of the module that
defines it; this namespace re-exports those lists.
"""

from .errors import *
from .materials import *
from .friction import *
from .transfer import *
from .neutral import *
from .closed_forms import *
from .dispersion import *
from .simulate import *
from .verification import VerifyResult, run_all
from . import (closed_forms, dispersion, errors, friction, materials, neutral, simulate,
               transfer)

__version__ = "0.1.0"

__all__ = ["__version__",
           *errors.__all__, *materials.__all__, *friction.__all__,
           *transfer.__all__, *neutral.__all__, *closed_forms.__all__,
           *dispersion.__all__, *simulate.__all__,
           "VerifyResult", "run_all"]
