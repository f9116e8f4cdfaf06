"""Numerical laboratory for planar rarefaction waves of scalar viscous
conservation laws under multi-dimensional periodic perturbations.

The domain is a truncated cylinder: one line direction carrying the
rarefaction, the remaining directions a flat unit torus carrying the
periodic disturbance.  The package builds the 1-d viscous profile, the
two periodic far-field solutions and their blended ansatz, simulates
the full equation, splits fields by torus averaging, and measures decay
rates, interpolation-inequality quotients and dilation scalings.

`import rarelab` loads only the numpy modules: `decomp`, `domain`,
`errors`, `fluxes`, `ineqlab` and `rates`.  The four solver modules,
`ansatz`, `mdsolver`, `periodic` and `profile1d`, load on first
attribute access (`rarelab.mdsolver`, a star import, or importing them
by name).  They pull in `stepping` and with it scipy's LAPACK, which
the sweeps call and the split inequalities never do.  `rarelab._lapack`
binds the three routines the sweeps use from scipy's compiled `_flapack`
module, found by path: neither scipy's package init nor scipy.linalg's
runs, and the latter alone would cost more start-up than the whole
package.  `rarelab.cli` imports the solvers itself, so a `simulate` run
binds LAPACK when it loads the CLI and imports nothing while it runs.
"""

import importlib

__version__ = "0.1.0"

from . import decomp, domain, fluxes, ineqlab, rates
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


def __getattr__(name: str):
    # importing the submodule also binds it on the package, so this runs once per name
    if name in ("ansatz", "mdsolver", "periodic", "profile1d"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
