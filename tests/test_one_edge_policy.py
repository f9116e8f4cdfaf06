"""One reader of L: within `mdsolver.py`, the line's half-length L takes
part in one comparison, the edge policy inside `run` (its `edge`), which
aborts a window short of the line whose edge mass has moved and only
flags the truncation of a window at L.  Every other part of the run, the
maximum principle, tau and |u - p|_inf, reads the far field beyond the
window at every width, L included, so a window at L is one more window
and no second model of the far field can come back as a branch on L.

Read with the standard library's `ast`.  A comparison counts when L is
loaded anywhere in it, as a bare name (width < L) or as an attribute
(spec.L), nested functions and lambdas included.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "rarelab" / "mdsolver.py"
OWNER = "run.edge"


class _Comparisons(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Compare(self, node):
        if any(getattr(n, "id", None) == "L" or getattr(n, "attr", None) == "L"
               for n in ast.walk(node)):
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def comparisons_of_L(source: str) -> list[str]:
    """'<scope>:<line>' of every comparison that reads L."""
    found = _Comparisons()
    found.visit(ast.parse(source))
    return [f"{scope}:{line}" for scope, line in found.found]


def test_only_the_edge_policy_compares_L():
    sites = comparisons_of_L(SOURCE.read_text())
    assert len(sites) == 1, sites
    assert sites[0].split(":")[0] == OWNER, sites


def test_a_second_comparison_is_found():
    source = (
        "def run(config, plan):\n"
        "    L = round(config.spec.L)\n"
        "    def check_line(state, t, width):\n"
        "        check((line, *means) if width < L else (line,), t)\n"
        "    def edge(state, width, t):\n"
        "        if width < L and mass > TAIL_FLOOR:\n"
        "            raise NumericalAbort('window', t, '')\n"
        "    def record(far, width):\n"
        "        return max(tau, *(torus_part(w) for w in far if width < L))\n"
        "    def sample(grid, spec):\n"
        "        return grid.L == spec.L\n"
    )
    assert comparisons_of_L(source) == ["run.check_line:4", "run.edge:6", "run.record:9",
                                        "run.sample:11"]
