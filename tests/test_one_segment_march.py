"""One march per window segment: within `mdsolver.py`, `DiffusionSweep`
and `evolve_profile` are each called at one place, inside `run`.  Every
array a segment holds, the cylinder and its profile or the line and its
profile, then steps on the segment's one Dirichlet factorization, and no
second profile march, such as one over the whole plan on the final
window, can come back beside the segment loop.

Read with the standard library's `ast`.  A call counts by the name it
calls, bare or as an attribute (stepping.DiffusionSweep), anywhere in a
function's body, nested functions and lambdas included.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "rarelab" / "mdsolver.py"
ONCE = ("DiffusionSweep", "evolve_profile")


class _Calls(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ONCE:
            self.found.append((name, ".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def call_sites(source: str) -> dict[str, list[str]]:
    """{name: ['<scope>:<line>', ...]} of the calls of each name in `ONCE`."""
    calls = _Calls()
    calls.visit(ast.parse(source))
    return {name: [f"{scope}:{line}" for called, scope, line in calls.found if called == name]
            for name in ONCE}


def test_one_sweep_and_one_profile_march_inside_run():
    sites = call_sites(SOURCE.read_text())
    for name in ONCE:
        assert len(sites[name]) == 1, (name, sites[name])
        assert sites[name][0].split(":")[0] == "run", (name, sites[name])


def test_a_second_call_site_is_found():
    source = (
        "def run(config, plan):\n"
        "    final = stepping.DiffusionSweep(8, 0.1, 0.01)\n"
        "    profiles = evolve_profile(p0, flux, plan, final)\n"
        "    for a in segments:\n"
        "        sweep = DiffusionSweep(4, 0.1, 0.01)\n"
        "        step = lambda: evolve_profile(p0, flux, plan, sweep)\n"
        "def line_march(sweep):\n"
        "    return evolve_profile(p0, flux, plan, sweep)\n"
    )
    assert call_sites(source) == {"DiffusionSweep": ["run:2", "run:5"],
                                  "evolve_profile": ["run:3", "run:6", "line_march:8"]}
