"""No rarelab module or test module imports a name it never uses.

Read with the standard library's `ast`: a name bound by an import
statement counts as used when the module reads it anywhere or lists it
in `__all__` (a re-export).  `from __future__` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "rarelab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from dataclasses import dataclass, field\n__all__ = ['os']\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["line 3: field"]
