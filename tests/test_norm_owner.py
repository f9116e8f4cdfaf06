"""Kept norms have two owners: within `src/`, only `domain.lp_norm`,
for the L^p norms of a Field, and `decomp.grad_norm`, for those of its
gradient magnitude, read or write `Field._norms`, so no other code can
keep a norm that those two would not give.

Read with the standard library's `ast`.  A touch is any attribute
`._norms`, read, written or deleted, and any string constant "_norms",
so getattr(f, "_norms") and vars(f)["_norms"] count as well.  The field's
declaration in the dataclass body is a bare name and is not a touch.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NAME = "_norms"
ALLOWED = {("domain.py", "lp_norm"), ("decomp.py", "grad_norm")}


class _Touches(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _found(self, node):
        self.found.append((".".join(self.scope) or "<module>", node.lineno))

    def visit_Attribute(self, node):
        if node.attr == NAME:
            self._found(node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if node.value == NAME:
            self._found(node)


def norm_dict_touches(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> in <scope>' for every touch of the kept norms
    outside its two owners."""
    found = []
    for name, source in sorted(sources.items()):
        touches = _Touches()
        touches.visit(ast.parse(source))
        found += [f"{name}:{line} in {scope}" for scope, line in touches.found
                  if (name, scope) not in ALLOWED]
    return found


def test_only_lp_norm_touches_the_kept_norms():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert "_norms" in sources["domain.py"] and "_norms" in sources["decomp.py"]
    assert norm_dict_touches(sources) == []


def test_a_second_reader_is_found():
    sources = {
        "domain.py": (
            "class Field:\n"
            "    _norms: dict\n"
            "def lp_norm(f, p):\n"
            "    if p not in f._norms:\n"
            "        f._norms[p] = 1.0\n"
            "    return f._norms[p]\n"
        ),
        "decomp.py": (
            "class DecompositionResult:\n"
            "    field: object\n"
            "def grad_norm(f, p):\n"
            "    return f._norms[('grad', p)]\n"
            "def norm_bound_ratio(u, d, m, p):\n"
            "    return u._norms.get(p)\n"
            "class Split:\n"
            "    def forget(self):\n"
            "        vars(self.field)['_norms'].clear()\n"
            "cached = lambda f: getattr(f, '_norms')\n"
        ),
    }
    assert norm_dict_touches(sources) == [
        "decomp.py:6 in norm_bound_ratio", "decomp.py:9 in Split.forget",
        "decomp.py:10 in <module>"]
