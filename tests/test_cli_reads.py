"""`cli` parses config numbers in one place: outside its two readers,
`_number` and `_numbers`, no int(...) or float(...) takes a config
lookup, cfg.get(...) or cfg[...] (every input stage names its config
`cfg`).

Read with the standard library's `ast`.  A cast counts when its argument
holds a lookup anywhere, when it maps over one (map(float, cfg[...])), or
when it sits in a comprehension that iterates over one
(int(x) for x in cfg.get(...).split(",")).
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "rarelab" / "cli.py"
READERS = {"_number", "_numbers"}
CASTS = {"int", "float"}


def _is_lookup(node) -> bool:
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id == "cfg"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cfg")


def _reads_config(node) -> bool:
    return any(_is_lookup(n) for n in ast.walk(node))


def _is_cast_name(node) -> bool:
    return isinstance(node, ast.Name) and node.id in CASTS


def config_casts(source: str) -> list[str]:
    """'line N: <expression>' for every cast of a config lookup outside the readers."""
    tree = ast.parse(source)
    inside_readers = {id(n) for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef) and f.name in READERS
                      for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_readers:
            continue
        if isinstance(node, ast.Call):
            cast = _is_cast_name(node.func) or (
                isinstance(node.func, ast.Name) and node.func.id == "map"
                and _is_cast_name(node.args[0]))
            hit = cast and any(_reads_config(a) for a in node.args)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            hit = (any(_reads_config(g.iter) for g in node.generators)
                   and any(isinstance(n, ast.Call) and _is_cast_name(n.func)
                           for n in ast.walk(node.elt)))
        else:
            continue
        if hit:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_cli_casts_config_values_only_in_its_readers():
    assert config_casts(CLI.read_text()) == []


def test_a_cast_outside_the_readers_is_found():
    source = (
        "def _number(cfg, key):\n"
        "    return int(cfg.get(key))\n"
        "def _domain(cfg, values):\n"
        "    n = int(cfg.get('dim', '2'))\n"
        "    L = float(cfg['L'].strip())\n"
        "    sizes = tuple(int(x) for x in cfg.get('sizes', '8').split(','))\n"
        "    modes = list(map(float, cfg['w0_modes'].split(',')))\n"
        "    return float(max(values)), int(n), [x for x in cfg['n_torus']]\n"
    )
    assert [hit.split(":")[0] for hit in config_casts(source)] == [
        "line 4", "line 5", "line 6", "line 7"]
