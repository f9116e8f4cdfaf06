"""Peak memory of the simulate path, in units of one cylinder field.

`advective_rhs` builds each direction's face fluxes in `_face_flux`,
which frees its padded copy and its reconstructions before it returns,
so a direction holds the output, its faces and one difference beyond
the helper.  The ansatz is built in place: a record holds the ansatz,
the jump Ur - Ul, mix, h and one temporary, and a constant f''
(Burgers) is averaged once, on its value, not on every cell; a
curvature that is a field (cubic) is freed once it is used.
`stepping.march` hands each state to its step in a one-item list that
the step pops, so the step frees it after its first sweep, even when a
wrapper forwards the call with `*args`.  Each full-grid temporary
that creeps back into these paths adds 1.0 to these peaks, and each
bound sits half a field above the measured peak.  The peaks are traced
by `tracemalloc` on fields of 2^17 cells (1 MiB): 32 x 4096 and
16 x 16 x 512 x1-last for the kernel, 4096 x 32 for the record and the
step.

Measured, before and after the kernel freed each direction's
temporaries, the ansatz was built in place and `march` stopped keeping
the state it steps from: `advective_rhs` with ghosts 8.32 -> 6.19
(2-d) and 9.75 -> 6.38 (3-d); `assemble_bundle` on Burgers
14.11 -> 5.21 (cubic 14.11 -> 12.11, whose curvatures are fields);
`mean_flux_curvature` on Burgers' f'' 5.00 -> 0.00; one cylinder
Strang step 11.37 -> 8.22 (9.24 while `march` kept the state it
stepped from).  On the benchmark's `cyl2d` and `cyl3d` grids the
kernel reads 8.50 -> 6.30 and 9.83 -> 6.51.  Freeing each cubic
curvature once used and scaling f'' in its node buffer took the cubic
record 12.11 -> 8.10, and the step's pop took a step forwarded through
`*args` 9.24 -> 8.22.

A run on this cylinder to t = 0.005 marches the x1 window [-20, 20],
1,280 of the 4,096 cells (`mdsolver.cylinder_window`).  Its step is
measured in units of the window's field and keeps the whole line's
bound: 8.30 against 8.22 on the whole line.  Its record is built on
the window alone and holds no field of the whole line: the whole record
peaks at 2.21 fields of the whole line (7.08 of the window's, against
7.07 on the whole line), its ansatz at 1.68 (5.39 of the window's).
When each record built the whole line's field from the window and the
far-field rows, these read 7.09 and 5.21.

Running the kernel's last axis flat and its flux sum and the Heun
update in place left every peak above unchanged (kernel 6.19 and 6.38,
bench grids 6.30 and 6.51, step 8.22 and 8.30): on fields of 256 KiB or
more numpy already reuses a temporary operand's buffer, as in
f(ul) + f(ur).  Below that size it does not, and the in-place sum and
a Burgers flux squared in its own buffer took the kernel on the
`cyl2d` window's 20 x 1360 cylinder (217 KiB) from 7.36 to 6.31.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rarelab import mdsolver, stepping
from rarelab.ansatz import assemble_bundle, far_field_grid, mean_flux_curvature
from rarelab.domain import DomainSpec
from rarelab.fluxes import burgers, cubic
from rarelab.mdsolver import SolverConfig, trig_polynomial
from rarelab.profile1d import make_initial_state

CYLINDER = DomainSpec(n=2, L=64, n1=4096, n_torus=(32,))
MODES = ((1, 1, 0.1), (0, 2, 0.05))


def peak_in_fields(fn, nbytes: int) -> float:
    """Largest memory held during one fn() beyond what was held before
    it, over the bytes of one field."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / nbytes


def bundle_peak(spec: DomainSpec, make_flux, ul: float, ur: float) -> float:
    tspec, _ = far_field_grid(spec)
    w0 = trig_polynomial([(1,) * spec.n + (0.1,)], tspec.coordinates())
    far = (ul + w0, ur + w0)
    prof = make_initial_state(spec.L, spec.n1, ul, ur)
    flux = make_flux(spec.n)
    return peak_in_fields(lambda: assemble_bundle(far, prof, flux, spec),
                          8 * int(np.prod(spec.shape)))


def one_step_config(spec: DomainSpec, modes, snapshot_times=()) -> SolverConfig:
    """A one-step run on `spec`; on `CYLINDER` its window is [-20, 20]."""
    return SolverConfig(spec=spec, flux=burgers(spec.n), ul=-0.5, ur=0.5, w0_modes=modes,
                        t_end=0.005, snapshot_times=snapshot_times)


def step_peak(monkeypatch, spec: DomainSpec, modes, star: bool = False,
              windowed: bool = False) -> float:
    """The peak of a cylinder run's one Strang step beyond what was held
    before it, in units of the cylinder state the step takes: the whole
    line, or with `windowed` the march's window.  It is traced where
    `stepping.march` takes the step, by a spy that forwards its arguments
    by name or, with `star`, as one `*args` tuple that lives as long as
    the spy; the profile's steps are not measured.  The whole run is
    traced, so the state the step starts from counts as held, and
    freeing it counts as well."""
    sc = one_step_config(spec, modes)
    plan = mdsolver.schedule(sc)
    assert plan[0] == 1
    strang_step, peaks, cells = stepping.strang_step, [], []

    def measured(held, step):
        if len(held[0]) < 2:  # the profile's (line,) state
            return step()
        cells.append(held[0][0].shape[-1])
        nbytes = held[0][0].nbytes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        stepped = step()
        peaks.append((tracemalloc.get_traced_memory()[1] - before) / nbytes)
        return stepped

    def by_name(held, dt, ndim, sweep, rhs):
        return measured(held, lambda: strang_step(held, dt, ndim, sweep, rhs))

    def by_star(*args):
        return measured(args[0], lambda: strang_step(*args))

    with monkeypatch.context() as m:
        m.setattr(stepping, "strang_step", by_star if star else by_name)
        if not windowed:
            m.setattr(mdsolver, "cylinder_window", lambda config, x1, line: lambda t: round(spec.L))
        tracemalloc.start()
        try:
            checks = mdsolver.run(sc, plan)[1]
        finally:
            tracemalloc.stop()
    assert len(peaks) == 1
    assert cells == [checks["cylinder_window"]["n1"]]  # the step held the march's state
    return peaks[0]


def record_peaks(monkeypatch, spec: DomainSpec, modes) -> tuple[float, float]:
    """(the whole record, its `assemble_bundle`), the peaks of a windowed
    one-step run's record at t_end beyond what was held before each, in
    units of one field on the whole line; the whole run is traced.  The
    march yields (step, state) to the run, which records the state before
    it asks for the next, so the record is what the run does between."""
    sc = one_step_config(spec, modes, snapshot_times=(0.005,))
    plan = mdsolver.schedule(sc)
    march, assemble_bundle, peaks = mdsolver.march, mdsolver.assemble_bundle, {}
    field = 8 * np.prod(spec.shape)

    def traced(key, fn, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peaks[key] = (tracemalloc.get_traced_memory()[1] - before) / field
        return out

    def march_spy(state, plan, ndim, sweep, rhs, check, keep):
        for item in march(state, plan, ndim, sweep, rhs, check, keep):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            yield item
            if item[0] in plan[2]:
                peaks["record"] = (tracemalloc.get_traced_memory()[1] - before) / field

    monkeypatch.setattr(mdsolver, "march", march_spy)
    monkeypatch.setattr(mdsolver, "assemble_bundle",
                        lambda *args: traced("bundle", assemble_bundle, *args))
    tracemalloc.start()
    try:
        checks = mdsolver.run(sc, plan)[1]
    finally:
        tracemalloc.stop()
    assert checks["cylinder_window"]["n1"] < spec.n1
    return peaks["record"], peaks["bundle"]


@pytest.mark.parametrize("shape, bound",
                         [((32, 4096), 6.7), ((16, 16, 512), 6.9), ((20, 1360), 6.8)],
                         ids=["2d", "3d", "2d-below-elision"])
def test_advective_rhs_with_ghosts_peak(shape, bound):
    rng = np.random.default_rng(0)
    values = rng.uniform(-1.0, 1.0, shape)
    ghosts = tuple(rng.uniform(-1.0, 1.0, (*shape[:-1], 2)) for _ in range(2))
    spacings = (1 / 32,) * len(shape)
    flux = burgers(len(shape))
    peak = peak_in_fields(lambda: stepping.advective_rhs(values, flux, spacings, ghosts=ghosts),
                          values.nbytes)
    assert peak < bound


def test_a_constant_curvature_allocates_no_field():
    a, b = np.random.default_rng(1).uniform(-1.0, 1.0, (2, *CYLINDER.shape))
    d2f = burgers(2).d2f[0]
    assert peak_in_fields(lambda: mean_flux_curvature(d2f, a, b), a.nbytes) < 0.5


def test_burgers_record_peak():
    assert bundle_peak(CYLINDER, burgers, -0.5, 0.5) < 5.7


def test_cubic_record_peak():
    # its curvatures are fields: two are held, and each is freed once used
    assert bundle_peak(CYLINDER, cubic, 0.7, 1.2) < 8.6


def test_cylinder_step_peak(monkeypatch):
    assert step_peak(monkeypatch, CYLINDER, MODES) < 8.7


def test_a_windowed_step_peak_in_window_fields(monkeypatch):
    # the march steps 1,280 of the 4,096 x1 cells, and its step holds
    # no field of the whole line
    assert step_peak(monkeypatch, CYLINDER, MODES, windowed=True) < 8.7


def test_a_windowed_record_peak(monkeypatch):
    # the record and its ansatz hold fields of the window, 1,280 of the
    # 4,096 x1 cells, and none of the whole line
    record, bundle = record_peaks(monkeypatch, CYLINDER, MODES)
    assert bundle < 2.2
    assert record < 2.7


def test_a_forwarded_step_frees_the_state_it_is_handed(monkeypatch):
    # a *args wrapper keeps its argument tuple, and the state is freed
    # only because the step pops it from the list the tuple holds
    assert step_peak(monkeypatch, CYLINDER, MODES, star=True) == pytest.approx(
        step_peak(monkeypatch, CYLINDER, MODES), abs=0.1)


def widenings(monkeypatch, spec: DomainSpec, modes, snapshot_times=()) -> list:
    """(cells before, cells after, peak) of each array a run widens beyond
    the window it held, the peak beyond what was held before in units of
    the array it widens: a run on `CYLINDER` to t = 0.03 steps [-20, 20],
    then [-21, 21]."""
    sc = replace(one_step_config(spec, modes, snapshot_times), t_end=0.03)
    widen, found = mdsolver._widen, []

    def traced(a, left, right, periods):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = widen(a, left, right, periods)
        found.append((a.shape, out.shape, (tracemalloc.get_traced_memory()[1] - before) / a.nbytes))
        return out

    monkeypatch.setattr(mdsolver, "_widen", traced)
    tracemalloc.start()
    try:
        mdsolver.run(sc, mdsolver.schedule(sc))
    finally:
        tracemalloc.stop()
    return found


def test_a_widening_stays_below_the_step(monkeypatch):
    # the widened field and the far field's periods it takes on, 1.1
    # fields; then its profile's row, widened by its end states
    (before, after, peak), profile = widenings(monkeypatch, CYLINDER, MODES)
    m1 = round(1 / CYLINDER.dx1)
    assert (before, after) == ((32, 40 * m1), (32, 42 * m1))
    assert profile[:2] == ((40 * m1,), (42 * m1,))
    assert peak < 1.6
    assert peak < step_peak(monkeypatch, CYLINDER, MODES, windowed=True)


def test_a_line_pair_widens_as_one(monkeypatch):
    # no modes: the run hands off at t = 0, and its [line; profile] pair is
    # widened by the far-field means and the end states in one array
    (before, after, peak), = widenings(monkeypatch, CYLINDER, (), snapshot_times=(0.0,))
    m1 = round(1 / CYLINDER.dx1)
    assert (before, after) == ((2, 40 * m1), (2, 42 * m1))
    assert peak < 1.6


def test_a_burgers_record_stays_below_the_step(monkeypatch):
    assert bundle_peak(CYLINDER, burgers, -0.5, 0.5) <= step_peak(monkeypatch, CYLINDER, MODES)
