"""Spectral toolkit for perturbation dynamics of rotating Couette flow.

The package is organised around the shear-following frame in which the
background flow is frozen out: per-mode closed forms for the linearised
dynamics (:mod:`rotcouette.linear`), time/frequency weights that turn
transient growth into monotone energies (:mod:`rotcouette.multipliers`),
a pseudospectral nonlinear integrator (:mod:`rotcouette.simulation`),
weighted-energy diagnostics (:mod:`rotcouette.diagnostics`) and an
amplitude/viscosity sweep harness (:mod:`rotcouette.threshold`).
"""

__version__ = "0.1.0"

from .spectral import (
    GridSpec,
    SpectralField,
    WaveVector,
    integral_w,
    sobolev_norm,
    w_symbol,
)
from .linear import (
    ModeStateK,
    ZeroModeState,
    enhanced_dissipation_check,
    evolve_K_closed,
    evolve_U3,
    inviscid_damping_rates,
    phase_angle,
    zero_mode_evolve,
)
from .multipliers import (
    MultiplierParams,
    M_closed,
    check_M_bounds_and_coercivity,
    check_m_bounds,
    m_exact,
    m_ode_residual,
)
from .simulation import (
    BlowUpError,
    SimConfig,
    VelocityField,
    leray_project_L,
    nonlinear_rhs,
    propagator,
    run,
    step,
)
from .diagnostics import (
    Accumulators,
    EnergyReport,
    bootstrap_report,
    compute_K_check,
    compute_Q,
    dissipation_scaling_fits,
)
from .threshold import (
    ClassifyCriteria,
    SweepConfig,
    ThresholdResult,
    classify_run,
    sweep,
)

__all__ = [
    "__version__",
    "GridSpec",
    "SpectralField",
    "WaveVector",
    "integral_w",
    "sobolev_norm",
    "w_symbol",
    "ModeStateK",
    "ZeroModeState",
    "enhanced_dissipation_check",
    "evolve_K_closed",
    "evolve_U3",
    "inviscid_damping_rates",
    "phase_angle",
    "zero_mode_evolve",
    "MultiplierParams",
    "M_closed",
    "check_M_bounds_and_coercivity",
    "check_m_bounds",
    "m_exact",
    "m_ode_residual",
    "BlowUpError",
    "SimConfig",
    "VelocityField",
    "leray_project_L",
    "nonlinear_rhs",
    "propagator",
    "run",
    "step",
    "Accumulators",
    "EnergyReport",
    "bootstrap_report",
    "compute_K_check",
    "compute_Q",
    "dissipation_scaling_fits",
    "ClassifyCriteria",
    "SweepConfig",
    "ThresholdResult",
    "classify_run",
    "sweep",
]
