"""The three LAPACK routines the sweeps call, bound without scipy.linalg's
package init.

`import scipy.linalg.lapack` costs 0.29-0.35 s and 27 MB of RSS over
`import scipy` (2-vCPU Xeon): its array-API layer copies numpy's
namespace, loading numpy.f2py, numpy.testing, numpy.ma and numpy.random.
Loading scipy's own `_flapack` extension by its path costs 0.01-0.02 s
and 3 MB.  It is the same compiled module, and f2py modules use
single-phase init, so a scipy.linalg.lapack imported later hands out
these very function objects; without the file they come from there.
"""

import importlib.machinery
import importlib.util
from pathlib import Path

import scipy

__all__ = ["dgtsv", "dpttrf", "dpttrs"]

_found = [path for suffix in importlib.machinery.EXTENSION_SUFFIXES
          if (path := Path(scipy.__file__).parent / "linalg" / f"_flapack{suffix}").is_file()]
if _found:
    _spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", _found[0])
    _flapack = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_flapack)
    dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs
else:
    from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
