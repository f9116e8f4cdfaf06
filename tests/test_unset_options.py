"""Every optional parameter of a rarelab function is set by some call in
`src/` or `bench/`, so an option that no run sets cannot stay behind.

Read with the standard library's `ast`.  A parameter is optional when it
has a default.  A call sets it by keyword, or by position when it passes
that many positional arguments (a `*args` or `**kwargs` in the call sets
every parameter it could reach).  Calls match definitions by name, after
`import ... as` aliases are undone: `f(...)` and `obj.f(...)` both reach
every `def f`, and a call to a class reaches its `__init__`.  Methods do
not count `self`.  Lambdas are exempt, and so are dataclass fields, which
are not parameters of any `def` in the source and so are out of reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rarelab"

# an option no call sets -> why it stays
GOLDEN = "tests/golden/analysis_values.json holds values recorded at points=801"
ALLOWED = {
    "ineqlab.py: dilated_gn_ratio(points)": GOLDEN,
    "ineqlab.py: dilated_sobolev_ratio(points)": GOLDEN,
}


def _optional(fn: ast.FunctionDef, method: bool) -> tuple[list[str], list[str], set[str]]:
    """(positional parameters after self, the optional ones among them,
    the optional keyword-only ones) of one def."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if method:
        positional = positional[1:]
    optional = positional[len(positional) - len(a.defaults):] if a.defaults else []
    kwonly = {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return positional, optional, kwonly


def _defs(tree: ast.Module):
    """(call name, def, is a method) for every def; a method's call name
    is its own, except that __init__ is called by its class's name."""
    owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = owner.get(node)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            name = cls if cls and node.name == "__init__" else node.name
            yield name, node, cls is not None and not static


def _calls(trees):
    """(called name, positional count or None for *args, keywords or None
    for **kwargs) of every call, aliases undone."""
    alias = {a.asname: a.name for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not isinstance(f, (ast.Name, ast.Attribute)):
                continue
            name = f.id if isinstance(f, ast.Name) else f.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (alias.get(name, name), None if starred else len(node.args),
                   None if None in keywords else keywords)


def unset_options(defined: dict[str, str], calling: dict[str, str]) -> list[str]:
    """'<file>: <def>(<param>)', sorted, for each optional parameter of a
    def in the `defined` sources that no call in the `calling` sources sets."""
    calls = {}
    for name, npos, keywords in _calls([ast.parse(s) for s in calling.values()]):
        calls.setdefault(name, []).append((npos, keywords))
    found = []
    for fname, source in sorted(defined.items()):
        for name, fn, method in _defs(ast.parse(source)):
            positional, optional, kwonly = _optional(fn, method)
            for param in [*optional, *sorted(kwonly)]:
                pos = positional.index(param) if param in positional else None
                if not any((pos is not None and (npos is None or pos < npos))
                           or keywords is None or param in keywords
                           for npos, keywords in calls.get(name, [])):
                    found.append(f"{fname}: {name}({param})")
    return sorted(found)


def test_every_option_is_set_by_some_run():
    defined = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    calling = {str(p.relative_to(ROOT)): p.read_text()
               for base in (ROOT / "src", ROOT / "bench") for p in sorted(base.rglob("*.py"))}
    assert unset_options(defined, calling) == sorted(ALLOWED)


def test_an_unset_option_is_found():
    defined = {"lib.py": (
        "class Sweep:\n"
        "    def __init__(self, n, h=1.0, periodic=False):\n"
        "        pass\n"
        "    def apply(self, u, axis=0, *, out=None):\n"
        "        return u\n"
        "    @staticmethod\n"
        "    def make(n=4):\n"
        "        return Sweep(n)\n"
        "def run(u, dt=None, steps=1, **kw):\n"
        "    fn = lambda x, scale=2: x\n"
        "    return fn(u)\n"
        "def forward(u, mode='a'):\n"
        "    return u\n"
    )}
    calling = {"main.py": (
        "from lib import Sweep as S, run as go\n"
        "s = S(8, 0.5)\n"
        "s.apply(1, out=None)\n"
        "go(1, steps=3)\n"
        "Sweep.make(*sizes)\n"
        "forward(1, **opts)\n"
    )}
    assert unset_options(defined, calling) == [
        "lib.py: Sweep(periodic)", "lib.py: apply(axis)", "lib.py: run(dt)"]
