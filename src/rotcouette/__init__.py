"""Spectral toolkit for perturbation dynamics of rotating Couette flow.

The package is organised around the shear-following frame in which the
background flow is frozen out: per-mode closed forms for the linearised
dynamics (:mod:`rotcouette.linear`), time/frequency weights that turn
transient growth into monotone energies (:mod:`rotcouette.multipliers`),
a pseudospectral nonlinear integrator (:mod:`rotcouette.simulation`),
weighted-energy diagnostics (:mod:`rotcouette.diagnostics`) and an
amplitude/viscosity sweep harness (:mod:`rotcouette.threshold`).  Import
from those modules; the package root exports only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
