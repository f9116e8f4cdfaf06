"""One plan per run: within `src/`, a plan = (steps, dt, record) is drawn
only by a module's `schedule`, the one caller of `stepping.step_schedule`,
and the solvers that march a plan, `evolve_profile`, `solve_periodic`
and the cylinder's `run`, draw none.  A cylinder run hands the plan it
is handed to the profile, an input stage draws its plan once and hands
it to its run stage, and the default Courant number and tail threshold
have one owner each.

The source checks read `src/` with the standard library's `ast`.  A call
counts by the name it calls, bare or as an attribute
(stepping.step_schedule), so a call through the module counts as well.
"""

import ast
from pathlib import Path

import numpy as np

from rarelab import cli, mdsolver, periodic, profile1d, stepping
from rarelab.domain import DomainSpec
from rarelab.fluxes import burgers
from rarelab.mdsolver import SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src"
MARCHERS = ("evolve_profile", "solve_periodic", "run")


class _Calls(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[tuple[str, ...], str, int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name is not None:
            self.found.append((tuple(self.scope), name, node.lineno))
        self.generic_visit(node)


def plan_draws(sources: dict[str, str]) -> list[str]:
    """'<file>:<line> in <scope> calls <name>' for every call of a schedule
    inside a solver that marches a plan, and every call of step_schedule
    outside a function named `schedule`."""
    found = []
    for name, source in sorted(sources.items()):
        calls = _Calls()
        calls.visit(ast.parse(source))
        for scope, called, line in calls.found:
            in_marcher = bool(set(scope) & set(MARCHERS)) and "schedule" in called
            outside = called == "step_schedule" and scope[-1:] != ("schedule",)
            if in_marcher or outside:
                found.append(f"{name}:{line} in {'.'.join(scope) or '<module>'} calls {called}")
    return found


def test_only_a_schedule_draws_a_plan():
    sources = {p.name: p.read_text() for p in SRC.rglob("*.py")}
    assert {"profile1d.py", "periodic.py", "mdsolver.py"} <= set(sources)
    assert plan_draws(sources) == []


def test_a_second_plan_is_found():
    sources = {
        "mdsolver.py": (
            "def schedule(config):\n"
            "    return step_schedule(config.t_end, 1.0, None, ())\n"
            "def run(config):\n"
            "    steps, dt, record = plan = schedule(config)\n"
            "    return plan\n"
        ),
        "profile1d.py": (
            "from .stepping import step_schedule\n"
            "def schedule(p0, t_end):\n"
            "    return step_schedule(t_end, 1.0, None, ())\n"
            "def evolve_profile(p0, flux, t_end):\n"
            "    return march(p0, schedule(p0, t_end))\n"
        ),
        "periodic.py": (
            "from . import stepping\n"
            "def solve_periodic(w0, spec, t_end):\n"
            "    plan = stepping.step_schedule(t_end, 1.0, None, ())\n"
            "    return plan\n"
            "def torus_plan(t_end):\n"
            "    return stepping.step_schedule(t_end, 1.0, None, ())\n"
        ),
    }
    assert plan_draws(sources) == [
        "mdsolver.py:4 in run calls schedule",
        "periodic.py:3 in solve_periodic calls step_schedule",
        "periodic.py:6 in torus_plan calls step_schedule",
        "profile1d.py:5 in evolve_profile calls schedule",
    ]


def src_nodes():
    """(file name, node) of every node in src/."""
    return [(p.name, node) for p in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))]


def test_one_courant_number_literal():
    # 0.4 as a number or as a config default's text, anywhere in src/
    found = [(name, node.lineno) for name, node in src_nodes()
             if isinstance(node, ast.Constant) and node.value in (0.4, "0.4")]
    assert len(found) == 1 and found[0][0] == "stepping.py"
    assert stepping.CFL == 0.4
    assert SolverConfig.__dataclass_fields__["cfl"].default is stepping.CFL


def test_one_tail_threshold_default():
    # 0.25 as a config default's text anywhere in src/, or as the value a
    # name or field is given; stepping's `slope *= 0.25` is arithmetic
    nodes = src_nodes()
    texts = [(name, node.lineno) for name, node in nodes
             if isinstance(node, ast.Constant) and node.value == "0.25"]
    given = [(name, node.lineno) for name, node in nodes
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and isinstance(node.value, ast.Constant) and node.value.value == 0.25]
    assert texts == [] and len(given) == 1 and given[0][0] == "mdsolver.py"
    assert mdsolver.TAIL_THRESHOLD == 0.25
    default = SolverConfig.__dataclass_fields__["tail_threshold"].default
    assert default is mdsolver.TAIL_THRESHOLD


def test_the_run_hands_the_profile_its_own_plan(monkeypatch):
    sc = SolverConfig(spec=DomainSpec(n=2, L=12, n1=96, n_torus=(8,)), flux=burgers(2),
                      ul=-0.5, ur=0.5, w0_modes=((1, 1, 0.1),), t_end=1.0,
                      snapshot_times=tuple(np.linspace(0.0, 1.0, 11)))
    handed, evolve = [], mdsolver.evolve_profile
    monkeypatch.setattr(mdsolver, "evolve_profile",
                        lambda *args, **kw: handed.append((args[2:], kw)) or evolve(*args, **kw))
    plan = mdsolver.schedule(sc)
    traj = mdsolver.run(sc, plan)
    assert traj.planar_at is not None  # the line phase pulls from the same stream
    assert handed == [((plan,), {})] and handed[0][0][0] is plan


def counted(monkeypatch, module, alias):
    """Count the calls of `module.schedule`, through the module and through
    the name `cli` imports it as."""
    calls, schedule = [], module.schedule
    spy = lambda *args, **kw: calls.append(args) or schedule(*args, **kw)  # noqa: E731
    monkeypatch.setattr(module, "schedule", spy)
    monkeypatch.setattr(cli, alias, spy)
    return calls


def test_a_profile_run_draws_its_plan_once(monkeypatch, tmp_path):
    calls = counted(monkeypatch, profile1d, "profile_schedule")
    cfg = dict(experiment="profile", L="40", n1="800", t_end="16")
    assert cli.run_experiment(cfg, tmp_path) == 0
    assert len(calls) == 1


def test_a_periodic_run_draws_its_plan_once(monkeypatch, tmp_path):
    calls = counted(monkeypatch, periodic, "torus_schedule")
    cfg = dict(experiment="periodic", sizes="8,8")
    assert cli.run_experiment(cfg, tmp_path) == 0
    assert len(calls) == 1


def test_a_simulate_run_draws_its_plan_once(monkeypatch, tmp_path):
    calls = counted(monkeypatch, mdsolver, "solver_schedule")
    cfg = {"experiment": "simulate", "L": "12", "n1": "96", "n_torus": "8", "t_end": "2",
           "rates.window": "1,2", "w0_modes": "1,1,0.1; 0,2,0.05", "snapshots": "auto"}
    assert cli.run_experiment(cfg, tmp_path) == 0
    assert len(calls) == 1
