"""Every solver runs the one step/record loop: within `src/`, the Strang
step is used by `stepping.march` alone, so the order of step, check and
record is written once.

Read with the standard library's `ast`.  A use is any read of the name
`strang_step`, bare or as an attribute (stepping.strang_step), so a call
through an alias or a lambda counts as well.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = ("stepping.py", "march")


class _Uses(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == "strang_step" and isinstance(node.ctx, ast.Load):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))

    def visit_Attribute(self, node):
        if node.attr == "strang_step" and isinstance(node.ctx, ast.Load):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def strang_step_uses(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> in <scope>' for every use of strang_step outside
    stepping.march."""
    found = []
    for name, source in sorted(sources.items()):
        uses = _Uses()
        uses.visit(ast.parse(source))
        found += [f"{name}:{line} in {scope}" for scope, line in uses.found
                  if (name, scope) != ALLOWED]
    return found


def test_only_march_takes_strang_steps():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert "stepping.py" in sources
    assert strang_step_uses(sources) == []


def test_a_fourth_loop_is_found():
    sources = {
        "stepping.py": (
            "def strang_step(state, dt, ndim, sweep, rhs):\n"
            "    return state\n"
            "def march(state, plan, ndim, sweep, rhs, check, keep):\n"
            "    return [strang_step(state, plan[1], ndim, sweep, rhs)]\n"
        ),
        "solver.py": (
            "from . import stepping\n"
            "from .stepping import strang_step\n"
            "class Stepper:\n"
            "    def step(self, u):\n"
            "        return strang_step((u,), 0.1, 1, None, None)\n"
            "def run(u):\n"
            "    step = stepping.strang_step\n"
            "    return step(u)\n"
        ),
    }
    assert strang_step_uses(sources) == ["solver.py:5 in Stepper.step", "solver.py:7 in run"]
