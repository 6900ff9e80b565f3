"""Stability of steady frictional sliding under rate-and-state friction.

From the single-degree-of-freedom spring block up to dynamic anti-plane
sliding between dissimilar anisotropic elastic half-spaces: closed-form
critical stiffnesses, neutral (Hopf) modes and the critical wavenumber,
argument-principle certification against the full characteristic equation,
and a nonlinear time-domain oracle.
"""

from .errors import (
    BranchPole,
    ContourThroughZero,
    DomainError,
    Inconclusive,
    InputError,
    NonpositiveVelocity,
    NotPositiveDefinite,
    SlipStabError,
    StepFailure,
    VelocityStrengthening,
)
from .materials import (
    BiMaterial,
    EffectiveMedium,
    ShearStiffness,
    effective_medium,
    make_bimaterial,
)
from .friction import (
    EvolutionLaw,
    RateState,
    friction_stress,
    nondim_q,
)
from .transfer import f_intersonic, f_laplace, f_normalized, f_subsonic
from .neutral import (
    Branch,
    NeutralMode,
    StabilityVerdict,
    SweepTable,
    critical_mode,
    critical_mode_q,
    solve_intersonic,
    solve_subsonic,
    sweep_q,
)
from .closed_forms import (
    SpringBlockParams,
    identical_isotropic_dynamic,
    quasistatic_continuum,
    spring_block_critical,
)
from .dispersion import (
    CharParams,
    RootCount,
    certify_crossing,
    characteristic_residual,
    count_unstable,
    polish_root,
)
from .simulate import (
    BlockState,
    BlockTrajectory,
    estimate_critical_stiffness,
    simulate_spring_block,
)
from .verification import VerifyResult, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SlipStabError", "NotPositiveDefinite", "NonpositiveVelocity", "DomainError",
    "VelocityStrengthening", "BranchPole", "ContourThroughZero", "StepFailure",
    "Inconclusive", "InputError",
    # materials
    "ShearStiffness", "EffectiveMedium", "BiMaterial",
    "effective_medium", "make_bimaterial",
    # friction
    "RateState", "EvolutionLaw",
    "friction_stress", "nondim_q",
    # transfer
    "f_laplace", "f_normalized", "f_subsonic", "f_intersonic",
    # neutral modes
    "Branch", "NeutralMode", "StabilityVerdict", "SweepTable",
    "solve_subsonic", "solve_intersonic", "critical_mode", "critical_mode_q",
    "sweep_q",
    # closed forms
    "SpringBlockParams", "spring_block_critical", "quasistatic_continuum",
    "identical_isotropic_dynamic",
    # dispersion
    "CharParams", "RootCount",
    "characteristic_residual", "count_unstable", "certify_crossing", "polish_root",
    # simulation
    "BlockState", "BlockTrajectory",
    "simulate_spring_block", "estimate_critical_stiffness",
    # certification
    "VerifyResult", "run_all",
]
