"""The three LAPACK routines the sweeps call, bound without running
scipy's package init or scipy.linalg's, and the version of that scipy.

`import scipy.linalg.lapack` costs 0.29-0.35 s and 27 MB of RSS over
`import scipy` (2-vCPU Xeon): its array-API layer copies numpy's
namespace, loading numpy.f2py, numpy.testing, numpy.ma and numpy.random.
`import scipy` itself costs 1.4 MB and 13 ms that no run needs.  So the
scipy directory is found with `importlib.util.find_spec`, which does not
run the package, and scipy's own `_flapack` extension is loaded from it
by its path, for 0.01-0.02 s and 3 MB.  It is the same compiled module,
and f2py modules use single-phase init, so a scipy.linalg.lapack
imported later hands out these very function objects; without the file
they come from there.

`SCIPY_VERSION`, which `cli` writes into every manifest, is the
`version` that scipy's `version.py` sets and `scipy.__version__`
re-exports; that one small file is run by its path, on its own.
"""

import importlib.machinery
import importlib.util
from pathlib import Path

__all__ = ["SCIPY_VERSION", "dgtsv", "dpttrf", "dpttrs"]


def _load(name: str, path: Path):
    """The module in the file at `path`, run under `name` and not added to sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_root = Path(_scipy.origin).parent

SCIPY_VERSION = _load("scipy.version", _root / "version.py").version

_found = [path for suffix in importlib.machinery.EXTENSION_SUFFIXES
          if (path := _root / "linalg" / f"_flapack{suffix}").is_file()]
if _found:
    _flapack = _load("scipy.linalg._flapack", _found[0])
    dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs
else:
    from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
