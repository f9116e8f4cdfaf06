"""Every solver takes the one pinned-end line step, `profile1d.pinned_line`,
the step of the profile march and of a cylinder run's planar line, and
builds no sweep of its own: within `src/`, a Dirichlet `DiffusionSweep`
is built only by `cli._exp_profile`, for the `profile` experiment's
march, and by `mdsolver.run` for each window of the cylinder, whose ends
move with the far field, and for its profile and planar line, which
reuse the last window's sweep.

Read with the standard library's `ast`.  A build is a call of the name
`DiffusionSweep`, bare or as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {("cli.py", "_exp_profile"), ("mdsolver.py", "run")}


class _Builds(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "DiffusionSweep":
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def dirichlet_builds(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> in <scope>' for every Dirichlet DiffusionSweep built
    outside cli._exp_profile and mdsolver.run."""
    found = []
    for name, source in sorted(sources.items()):
        builds = _Builds()
        builds.visit(ast.parse(source))
        found += [f"{name}:{line} in {scope}" for scope, line in builds.found
                  if (name, scope) not in ALLOWED]
    return found


def test_one_pinned_line_step():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert {"cli.py", "mdsolver.py"} <= sources.keys()
    assert dirichlet_builds(sources) == []


def test_a_third_copy_is_found():
    sources = {
        "profile1d.py": (
            "def pinned_line(diffusion, dx1, flux, lo, hi):\n"
            "    return DiffusionSweep(8, dx1, 0.01)\n"
            "def evolve_profile(p0, flux, plan):\n"
            "    return pinned_line(DiffusionSweep(8, 0.1, 0.01), 0.1, flux, 0, 1)\n"
        ),
        "mdsolver.py": (
            "from . import stepping\n"
            "def run(config):\n"
            "    sweeps = [DiffusionSweep(8, 0.1, 0.01)]\n"
            "    sweeps += [DiffusionSweep(4, 0.25, 0.01)]\n"
            "    def sweep(state, axis):\n"
            "        return stepping.DiffusionSweep(8, 0.1, 0.01).apply(state)\n"
            "    return sweeps, sweep\n"
        ),
        "cli.py": (
            "def _exp_profile(out, p0, flux, plan):\n"
            "    return evolve_profile(p0, flux, plan, DiffusionSweep(8, 0.1, 0.01))\n"
        ),
        "solver.py": (
            "class Line:\n"
            "    def __init__(self, n, h, dt):\n"
            "        self.sweep = DiffusionSweep(n, h, dt / 2.0)\n"
        ),
    }
    assert dirichlet_builds(sources) == ["mdsolver.py:6 in run.sweep",
                                         "profile1d.py:2 in pinned_line",
                                         "profile1d.py:4 in evolve_profile",
                                         "solver.py:3 in Line.__init__"]
