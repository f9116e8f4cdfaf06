"""Outside-in layer tracer for the rarelab benchmark.

The tracer never edits the package.  It replaces public functions and
classes *where the calling module binds them* (for example
``rarelab.mdsolver.advective_rhs`` or ``rarelab.cli.run_solver``) with
wrappers that time each call, and undoes every replacement on
``restore()``.  Spans are aggregated in memory per layer: call count,
self time (span minus the time of the traced spans it contains) and a
work measure (cells for kernels, bytes for ``Field`` copies).  Because
self times exclude children, the self times of all layers plus the
self time of the root span add up to the root span's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time

ROOT = "trace.remainder"


def _first_size(args, kw):
    return args[0].size


def _second_size(args, kw):
    return args[1].size


def _field_size(args, kw):
    return args[0].values.size


def _field_bytes(args, kw):
    # measured after __post_init__ ran, so `values` is the private copy
    return args[0].values.nbytes


def _advective_layer(args, kw):
    ghosts = kw.get("ghosts", args[3] if len(args) > 3 else None)
    return ("stepping.advective_rhs.cylinder" if ghosts is not None
            else "stepping.advective_rhs.farfield")


def _sweep_layer(args, kw):
    return "stepping.sweep_periodic" if args[0].periodic else "stepping.sweep_dirichlet"


# (module, attribute, layer or layer-of-call function, work-of-call function)
FUNCTIONS = (
    ("rarelab.cli", "run_solver", "mdsolver.run", None),
    ("rarelab.cli", "verify_main_theorem", "rates.verify", None),
    ("rarelab.cli", "verify_apriori", "rates.verify", None),
    ("rarelab.cli", "fit_power_law", "rates.verify", None),
    ("rarelab.cli", "exponent_ordering", "rates.verify", None),
    ("rarelab.cli", "write_norm_table", "cli.io", None),
    ("rarelab.cli", "write_rate_report", "cli.io", None),
    ("rarelab.cli", "_write_decay_plot", "cli.io", None),
    ("rarelab.mdsolver", "check_cfl", "stepping.check_cfl", _first_size),
    ("rarelab.mdsolver", "advective_rhs", _advective_layer, _first_size),
    ("rarelab.mdsolver", "evolve_profile", "profile1d.evolve_profile", None),
    ("rarelab.mdsolver", "assemble_bundle", "ansatz.assemble_bundle", None),
    ("rarelab.mdsolver", "gradient", "domain.gradient", _field_size),
    ("rarelab.mdsolver", "lp_norm", "domain.lp_norm", _field_size),
    ("rarelab.mdsolver", "tail_mass", "domain.tail_mass", _field_size),
    # the 1-d profile march reaches advective_rhs through stepping.heun_advection
    ("rarelab.stepping", "advective_rhs", "stepping.advective_rhs.line", _first_size),
    ("rarelab.ansatz", "source_term", "ansatz.source_term", None),
    ("rarelab.decomp", "decompose", "decomp.decompose", None),
    ("rarelab.decomp", "reconstruct", "decomp.reconstruct", None),
    ("rarelab.decomp", "check_membership", "decomp.check_membership", None),
    ("rarelab.decomp", "norm_bound_ratio", "decomp.norm_bound_ratio", None),
    ("rarelab.decomp", "gradient", "domain.gradient", _field_size),
    ("rarelab.decomp", "lp_norm", "domain.lp_norm", _field_size),
    ("rarelab.ineqlab", "gn_ratio", "ineqlab.gn_ratio", None),
    ("rarelab.ineqlab", "interpolation_ratio", "ineqlab.interpolation_ratio", None),
    ("rarelab.ineqlab", "gradient", "domain.gradient", _field_size),
    ("rarelab.ineqlab", "lp_norm", "domain.lp_norm", _field_size),
)

# Classes a module binds by name: the module gets a subclass whose method
# is traced, so only instances that module creates are attributed.
SUBCLASSES = (
    ("rarelab.mdsolver", "DiffusionSweep", "apply", _sweep_layer, _second_size),
    ("rarelab.mdsolver", "TorusStepper", "sweep_axis", "periodic.sweep_axis", _second_size),
    ("rarelab.ansatz", "ProfileSpline", "__init__", "profile1d.ProfileSpline", None),
)

# Methods traced on the class itself, wherever instances come from.
METHODS = (
    ("rarelab.domain", "Field", "__post_init__", "domain.Field", _field_bytes),
    ("rarelab.cli", "_Outputs", "finish", "cli.io", None),
)

# Every layer the benchmark reports, in report order; `True` marks the
# kernels, which also report ns per cell.
LAYERS = {
    "stepping.advective_rhs.cylinder": True,
    "stepping.advective_rhs.farfield": True,
    "stepping.advective_rhs.line": True,
    "stepping.sweep_periodic": True,
    "stepping.sweep_dirichlet": True,
    "periodic.sweep_axis": True,
    "stepping.check_cfl": False,
    "mdsolver.run": False,
    "profile1d.evolve_profile": False,
    "profile1d.ProfileSpline": False,
    "ansatz.assemble_bundle": False,
    "ansatz.source_term": False,
    "decomp.decompose": False,
    "decomp.reconstruct": False,
    "decomp.check_membership": False,
    "decomp.norm_bound_ratio": False,
    "ineqlab.gn_ratio": False,
    "ineqlab.interpolation_ratio": False,
    "domain.lp_norm": True,
    "domain.gradient": True,
    "domain.tail_mass": False,
    "domain.Field": False,
    "rates.verify": False,
    "cli.io": False,
}


class Tracer:
    """Per-layer calls, self seconds and work, from wrapped call sites."""

    def __init__(self):
        self.layers: dict[str, list] = {}   # layer -> [calls, self_s, work]
        self._open: list[float] = []        # child seconds of each open span
        self._undo: list[tuple] = []

    def _stat(self, layer):
        st = self.layers.get(layer)
        if st is None:
            st = self.layers[layer] = [0, 0.0, 0]
        return st

    def wrap(self, fn, layer, work=None):
        clock = time.perf_counter
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kw):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                span = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                st = self._stat(layer(args, kw) if callable(layer) else layer)
                st[0] += 1
                st[1] += span - child
                if work is not None:
                    st[2] += work(args, kw)

        return traced

    def _replace(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        for modname, attr, layer, work in FUNCTIONS:
            mod = importlib.import_module(modname)
            self._replace(mod, attr, self.wrap(getattr(mod, attr), layer, work))
        for modname, clsname, meth, layer, work in SUBCLASSES:
            mod = importlib.import_module(modname)
            base = getattr(mod, clsname)
            sub = type(clsname, (base,),
                       {meth: self.wrap(base.__dict__[meth], layer, work)})
            self._replace(mod, clsname, sub)
        for modname, clsname, meth, layer, work in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._replace(cls, meth, self.wrap(cls.__dict__[meth], layer, work))
        return self

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def run(self, body):
        """Call body() as the root span, whose self time is the remainder."""
        return self.wrap(body, ROOT)()


class StepCounter:
    """Count-only hook on the cylinder solver's per-step CFL check.

    It takes no clock readings, so the untraced run can report the
    exact step count at no measurable cost.  The 1-d profile march has
    its own check_cfl binding, which this does not see.
    """

    def __init__(self):
        import rarelab.mdsolver as mdsolver

        self.steps = 0
        self._mod = mdsolver
        self._orig = mdsolver.check_cfl

        def counted(*args, **kw):
            self.steps += 1
            return self._orig(*args, **kw)

        mdsolver.check_cfl = counted

    def restore(self):
        self._mod.check_cfl = self._orig
