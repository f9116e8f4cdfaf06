"""One end per run: a run stage writes its artifacts and returns
(verdicts, manifest fields), and `cli.run_experiment` alone writes the
manifest (`_Outputs.finish`) and raises `RatesFailure` (exit code 3).

The source check reads `src/` with the standard library's `ast`.  A call
counts by the name it calls, bare or as an attribute (out.finish), and a
raise by the name of the exception it raises, called or bare.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rarelab import cli
from rarelab.mdsolver import NORM_COLUMNS
from test_cli import TINY_RUNS, run_cli

SRC = Path(__file__).resolve().parents[1] / "src"


class _Ends(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[tuple[str, ...], str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "finish":
            self.found.append((tuple(self.scope), "calls finish"))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "RatesFailure":
            self.found.append((tuple(self.scope), "raises RatesFailure"))
        self.generic_visit(node)


def run_ends(sources: dict[str, str]) -> list[str]:
    """'<file> in <scope> <calls finish | raises RatesFailure>' for every
    place that ends a run, in source order."""
    found = []
    for name, source in sorted(sources.items()):
        ends = _Ends()
        ends.visit(ast.parse(source))
        found += [f"{name} in {'.'.join(scope) or '<module>'} {what}" for scope, what in ends.found]
    return found


def test_only_run_experiment_ends_a_run():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in SRC.rglob("*.py")}
    assert "rarelab/cli.py" in sources
    assert run_ends(sources) == ["rarelab/cli.py in run_experiment calls finish",
                                 "rarelab/cli.py in run_experiment raises RatesFailure"]


def test_a_second_end_is_found():
    sources = {"cli.py": (
        "def _raise_on_failed(report):\n"
        "    if report:\n"
        "        raise RatesFailure('rate checks failed')\n"
        "def _exp_rates(out, src, report):\n"
        "    out.finish({'input': src})\n"
        "    _raise_on_failed(report)\n"
        "def run_experiment(cfg, outdir):\n"
        "    verdicts, fields = stage(out)\n"
        "    out.finish(fields)\n"
        "    raise RatesFailure\n"
    )}
    assert run_ends(sources) == [
        "cli.py in _raise_on_failed raises RatesFailure",
        "cli.py in _exp_rates calls finish",
        "cli.py in run_experiment calls finish",
        "cli.py in run_experiment raises RatesFailure",
    ]


@pytest.fixture
def finishes(monkeypatch):
    """The manifest fields of every `_Outputs.finish` call, in order."""
    calls, finish = [], cli._Outputs.finish
    monkeypatch.setattr(cli._Outputs, "finish",
                        lambda self, fields: calls.append(fields) or finish(self, fields))
    return calls


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_every_run_writes_its_manifest_once(tmp_path, finishes, command):
    assert run_cli(tmp_path, command, TINY_RUNS[command]) == 0
    assert len(finishes) == 1, command
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiment"] == command
    assert finishes[0].items() <= manifest.items()


def non_decaying_table(path) -> Path:
    with open(path, "w") as fh:
        fh.write(",".join(NORM_COLUMNS) + "\n")
        for t in np.linspace(0.5, 10.0, 20):
            row = [t] + [1.0 + t] * (len(NORM_COLUMNS) - 2) + [0.0]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return path


SHORT_SIMULATE = """\
experiment = simulate
dim = 2
L = 12
n1 = 96
n_torus = 8
t_end = 0.5
w0_modes = 1,1,0.1
snapshots = 0.1,0.2,0.3,0.4,0.5
"""


@pytest.mark.parametrize("command, failed", [("rates", "main_rate"), ("simulate", "phi_l1")])
def test_a_failing_run_writes_its_manifest_then_exits_3(tmp_path, capsys, finishes,
                                                         command, failed):
    text = (f"input = {non_decaying_table(tmp_path / 'norms.csv')}\n" if command == "rates"
            else SHORT_SIMULATE)
    assert run_cli(tmp_path, command, text) == 3
    assert failed in capsys.readouterr().err
    out = tmp_path / "out"
    assert json.loads((out / "rates.json").read_text())[failed]["status"] == "fail"
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256((out / "rates.json").read_bytes()).hexdigest()
    assert manifest["experiment"] == command and manifest["files"]["rates.json"] == digest
    assert len(finishes) == 1
