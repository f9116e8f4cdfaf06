"""A constant derivative's mark has one maker and one reader: within
`src/`, only `fluxes._const` sets the `constant` attribute that carries
a constant f'' or f', and only `ansatz.mean_flux_curvature` reads it,
so no other path can shortcut a flux that is not the constant it claims.

Read with the standard library's `ast`.  Setting or deleting an
attribute `.constant` makes a mark and reading one reads it; a string
constant "constant" names it, as getattr, hasattr, setattr or
vars(...)["constant"] would, and only the reader may name it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NAME = "constant"
MAKER = ("fluxes.py", "_const")
READER = ("ansatz.py", "mean_flux_curvature")


class _Touches(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []  # (kind, scope, line)

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _found(self, kind, node):
        self.found.append((kind, ".".join(self.scope) or "<module>", node.lineno))

    def visit_Attribute(self, node):
        if node.attr == NAME:
            self._found("reads" if isinstance(node.ctx, ast.Load) else "makes", node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if node.value == NAME:
            self._found("names", node)


def mark_touches(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> <makes|reads|names> in <scope>' for every touch of
    the mark but the maker's making and the reader's reading and naming."""
    allowed = {("makes", *MAKER), ("reads", *READER), ("names", *READER)}
    found = []
    for name, source in sorted(sources.items()):
        touches = _Touches()
        touches.visit(ast.parse(source))
        found += [f"{name}:{line} {kind} in {scope}" for kind, scope, line in touches.found
                  if (kind, name, scope) not in allowed]
    return found


def test_only_fluxes_marks_and_only_the_curvature_reads():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert NAME in sources["fluxes.py"] and NAME in sources["ansatz.py"]
    assert mark_touches(sources) == []


def test_a_second_maker_and_reader_are_found():
    sources = {
        "fluxes.py": (
            "def _const(c):\n"
            "    fn = lambda u: c\n"
            "    fn.constant = c\n"
            "    return fn\n"
            "def burgers(n):\n"
            "    d2f = lambda u: 1.0\n"
            "    d2f.constant = 1.0\n"
        ),
        "ansatz.py": (
            "def mean_flux_curvature(d2f, a, b):\n"
            "    return getattr(d2f, 'constant', None)\n"
        ),
        "stepping.py": (
            "def _advective_rate(flux, spacings, u):\n"
            "    return flux.df[0].constant\n"
            "class Sweep:\n"
            "    def apply(self, df):\n"
            "        setattr(df, 'constant', 0.0)\n"
        ),
    }
    assert mark_touches(sources) == [
        "fluxes.py:7 makes in burgers",
        "stepping.py:2 reads in _advective_rate",
        "stepping.py:5 names in Sweep.apply",
    ]
