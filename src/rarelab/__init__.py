"""Numerical laboratory for planar rarefaction waves of scalar viscous
conservation laws under multi-dimensional periodic perturbations.

The domain is a truncated cylinder: one line direction carrying the
rarefaction, the remaining directions a flat unit torus carrying the
periodic disturbance.  The package builds the 1-d viscous profile, the
two periodic far-field solutions and their blended ansatz, simulates
the full equation, splits fields by torus averaging, and measures decay
rates, interpolation-inequality quotients and dilation scalings.
"""

__version__ = "0.1.0"

from . import ansatz, decomp, domain, fluxes, ineqlab, mdsolver, periodic, profile1d, rates
from .domain import DomainSpec, Field, gradient, laplacian, lp_norm, make_grid
from .errors import ConfigError, NumericalAbort
from .fluxes import FluxSet, burgers

__all__ = [
    "__version__",
    "ansatz",
    "decomp",
    "domain",
    "fluxes",
    "ineqlab",
    "mdsolver",
    "periodic",
    "profile1d",
    "rates",
    "DomainSpec",
    "Field",
    "FluxSet",
    "burgers",
    "ConfigError",
    "NumericalAbort",
    "gradient",
    "laplacian",
    "lp_norm",
    "make_grid",
]
