"""One owner for the reach: within `src/`, `mdsolver.WINDOW_MARGIN` is
read only inside `cylinder_window`, so the window that a cylinder run's
cylinder, profile and line grow by at each step and the final window
they end on come from one rule and cannot drift apart.

Read with the standard library's `ast`.  A read is a load of the name,
bare or as an attribute (mdsolver.WINDOW_MARGIN), anywhere in a
function's body, nested functions and lambdas included.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OWNER = ("mdsolver.py", "cylinder_window")


class _Reads(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == "WINDOW_MARGIN" and isinstance(node.ctx, ast.Load):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))

    def visit_Attribute(self, node):
        if node.attr == "WINDOW_MARGIN" and isinstance(node.ctx, ast.Load):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def margin_reads(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> in <scope>' for every read of WINDOW_MARGIN outside
    mdsolver.cylinder_window and the functions nested in it."""
    found = []
    for name, source in sorted(sources.items()):
        reads = _Reads()
        reads.visit(ast.parse(source))
        found += [f"{name}:{line} in {scope}" for scope, line in reads.found
                  if (name, scope.split(".")[0]) != OWNER]
    return found


def test_only_the_window_rule_reads_the_margin():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert "WINDOW_MARGIN" in sources["mdsolver.py"]
    assert margin_reads(sources) == []


def test_a_second_reader_is_found():
    sources = {
        "mdsolver.py": (
            "WINDOW_MARGIN = 9.6\n"
            "def cylinder_window(config, x1, line):\n"
            "    return lambda t: round(WINDOW_MARGIN * t)\n"
            "def run(config, plan):\n"
            "    final = 3 + WINDOW_MARGIN\n"
            "    grow = lambda t: WINDOW_MARGIN * t\n"
            "    return final, grow\n"
        ),
        "cli.py": (
            "from . import mdsolver\n"
            "def reach(t):\n"
            "    return mdsolver.WINDOW_MARGIN * t\n"
        ),
    }
    assert margin_reads(sources) == ["cli.py:3 in reach", "mdsolver.py:5 in run",
                                     "mdsolver.py:6 in run"]
