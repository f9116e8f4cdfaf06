"""`cli.validate` is total: on any finite value of the step and range keys
it returns its findings and raises nothing.  Each config is tiny, and
`validate` runs the input stage only, so no run starts."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelab import cli
from rarelab.domain import MAX_CELLS
from rarelab.stepping import MAX_STEPS

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"
CONFIGS = {
    "simulate": dict(experiment="simulate", dim="2", L="12", n1="96", n_torus="8", t_end="2",
                     w0_modes="1,1,0.1", snapshots="auto"),
    "periodic": dict(experiment="periodic", sizes="8,8"),
    "profile": dict(experiment="profile", L="40", n1="800", t_end="16"),
}
# the step and range keys each experiment reads
KEYS = {"simulate": ("dt", "t_end", "ul", "ur"), "periodic": ("dt", "t_end", "ubar"),
        "profile": ("t_end", "ul", "ur")}

# every finite double, subnormals included, with the extremes drawn often
finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 1e-320, 1e308, -1e308, 1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(CONFIGS)))
def test_validate_returns_findings_and_raises_nothing(data, kind):
    values = data.draw(st.dictionaries(st.sampled_from(KEYS[kind]), finite_doubles, min_size=1))
    cfg = {**CONFIGS[kind], **{key: repr(v) for key, v in values.items()}}
    with np.errstate(all="ignore"):
        assert isinstance(cli.validate(cfg), list)


# configs at the edge of the float range, each with its one finding (None:
# none) and no second one for the same cause; validate must reach it
# without a numpy warning
EDGE_CONFIGS = {
    "counterexample-subnormal-dilation": (
        dict(experiment="counterexample", dilations="1e-307,1"), "field values must be finite"),
    "simulate-huge-v0": (dict(CONFIGS["simulate"], v0="gaussian:1e308,0,1"),
                         "too wide to sample"),
    "simulate-cubic-huge-v0": (dict(CONFIGS["simulate"], flux="cubic", ul="0.6", ur="1",
                                    v0="gaussian:1e308,0,1"), "too wide to sample"),
    "simulate-cubic-overflowing-speed": (
        dict(CONFIGS["simulate"], flux="cubic", ul="0.6", ur="1e155"), "wave speed"),
    "simulate-cubic-largest-ur": (
        dict(CONFIGS["simulate"], flux="cubic", ul="0.6", ur="1.7e308"), "wave speed"),
    "simulate-zero-v0": (dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:0,0,1"),
                         "simulate needs a disturbance"),
    # a v0 whose every sample on the grid is 0 or subnormal is no disturbance
    "simulate-subnormal-v0-width": (
        dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:1,0,1e-320"),
        "simulate needs a disturbance"),
    "simulate-v0-off-the-line": (dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:1,1000,1"),
                                 "simulate needs a disturbance"),
    "simulate-subnormal-v0": (dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:1e-320,0,1"),
                              "simulate needs a disturbance"),
    "profile-widest-range": (dict(CONFIGS["profile"], ul="-1e308", ur="1e308"),
                             "too wide to sample"),
    "profile-cubic-overflowing-curvature": (
        dict(CONFIGS["profile"], flux="cubic", ul="0.6", ur="1e308"), "f_1'' is not finite"),
    "profile-tiny-L": (dict(CONFIGS["profile"], L="1e-300"), "t_end / dt"),
    "periodic-huge-ubar": (dict(CONFIGS["periodic"], ubar="1e200"), "t_end / dt"),
    "gn-study-huge-r": (dict(experiment="gn-study", j="1", m="2", r="2000"), None),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg, message", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
def test_an_edge_config_gives_its_finding_and_no_warning(cfg, message):
    findings = cli.validate(cfg)
    if message is None:
        assert findings == []
    else:
        assert len(findings) == 1 and message in findings[0], findings
        assert "; " not in findings[0], findings


@pytest.mark.parametrize("cfg, message", [
    (dict(CONFIGS["periodic"], dt="1e-320"), "t_end / dt"),
    (dict(CONFIGS["periodic"], t_end="1e308"), "t_end / dt"),
    (dict(CONFIGS["simulate"], dt="1e-320"), "t_end / dt"),
    (dict(CONFIGS["periodic"], flux="cubic", ubar="1e200"), "wave speed"),
], ids=["periodic-dt", "periodic-t_end", "simulate-dt", "cubic-ubar"])
def test_an_overflowing_step_count_is_a_finding(cfg, message):
    with np.errstate(all="ignore"):
        findings = cli.validate(cfg)
    assert len(findings) == 1 and message in findings[0]


@pytest.mark.parametrize("cfg", [
    dict(CONFIGS["periodic"], dt="1e-300"),
    dict(CONFIGS["periodic"], dt="1e-9"),
    dict(cli.load_config(BENCH_CONFIGS / "cyl2d_tiny.cfg"), dt="1e-300"),
], ids=["periodic-subnormal-dt", "periodic-nanosecond-dt", "cyl2d_tiny-subnormal-dt"])
def test_a_step_count_past_the_cap_is_a_finding(cfg):
    findings = cli.validate(cfg)
    assert len(findings) == 1
    assert "t_end / dt" in findings[0] and f"more than {MAX_STEPS} steps" in findings[0]


# a spec past the cap fails before anything is allocated; without the cap
# these configs allocate tens of GiB or more
@pytest.mark.parametrize("cfg, message", [
    (dict(CONFIGS["profile"], n1="100000000000"), "the grid (100000000000,) holds"),
    (dict(CONFIGS["periodic"], sizes="100000,100000"), "torus sizes (100000, 100000) hold"),
    (dict(experiment="decompose", n1="10000000000"), "the grid (10000000000, 8, 8) holds"),
    (dict(experiment="gn-study", n1="10000000000"), "the grid (10000000000, 16) holds"),
], ids=["profile", "periodic", "decompose", "gn-study"])
def test_a_grid_past_the_cell_cap_is_a_finding(cfg, message):
    findings = cli.validate(cfg)
    assert len(findings) == 1
    assert findings[0].startswith(message) and f"more than {MAX_CELLS}" in findings[0]


@pytest.mark.parametrize("cfg, message", [
    (dict(CONFIGS["simulate"], t_end="1", snapshots="1e308"),
     "snapshots entry 1e+308 lies outside"),
    (dict(CONFIGS["profile"], t_end="1.7976931348623157e308"), "t_end / dt"),
], ids=["snapshot-past-the-step-grid", "profile-largest-t_end"])
def test_an_extreme_time_is_a_finding(cfg, message):
    findings = cli.validate(cfg)
    assert len(findings) == 1 and message in findings[0]


def test_a_geometric_list_past_the_ceiling_is_a_finding():
    # 50 times more than MAX_SNAPSHOTS
    cfg = dict(CONFIGS["profile"], t_end=repr(1.00001 ** (cli.MAX_SNAPSHOTS + 50)),
               snapshots="geometric:1,1.00001")
    findings = cli.validate(cfg)
    assert len(findings) == 1
    assert findings[0].startswith("snapshots 'geometric:1,1.00001' up to t_end")
    assert findings[0].endswith(f"more than {cli.MAX_SNAPSHOTS}")


def test_a_simulate_config_without_a_disturbance_is_a_finding():
    # a zero-amplitude v0 is no disturbance either
    for modes, v0 in (("", "none"), ("1,1,0; 0,2,0", "none"), ("", "gaussian:0,0,1"),
                      ("1,1,0", "gaussian:-0,2,1")):
        findings = cli.validate(dict(CONFIGS["simulate"], w0_modes=modes, v0=v0))
        assert findings == ["simulate needs a disturbance: a w0_modes row with a nonzero "
                            "amplitude, or v0"]
    assert cli.validate(dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:0.1,0,2")) == []
    assert cli.validate(dict(CONFIGS["simulate"], v0="gaussian:0,0,1")) == []


@pytest.mark.parametrize("n_torus", [None, "8"])
@pytest.mark.parametrize("experiment", ["simulate", "decompose", "gn-study"])
def test_a_huge_dim_is_a_finding(experiment, n_torus):
    # the default n_torus is not built a direction at a time for it
    cfg = dict(experiment=experiment, dim="100000000000")
    if n_torus is not None:
        cfg["n_torus"] = n_torus
    assert cli.validate(cfg) == ["dimension must be 1, 2 or 3, got 100000000000"]


# every w0_modes row rule lives in `mdsolver.mode_problems`, which both
# experiments call before a row is sampled
@pytest.mark.parametrize("row, finding", [
    ("0,0,0.1", "mode row (0.0, 0.0, 0.1) is constant and violates the zero-average requirement"),
    ("1,0.1", "mode row (1.0, 0.1) needs 2 wavenumbers + amplitude"),
    ("0.5,1,0.1", "w0_modes row (0.5, 1.0, 0.1) needs integer wavenumbers"),
], ids=["constant", "short", "fractional"])
def test_both_experiments_give_a_row_the_same_finding(row, finding):
    for kind in ("simulate", "periodic"):
        assert cli.validate(dict(CONFIGS[kind], w0_modes=row)) == [finding], kind


def test_a_grid_the_far_field_cannot_tile_still_reports_its_bad_rows():
    findings = cli.validate(dict(CONFIGS["simulate"], n1="90", w0_modes="0,0,0.1; 1,0.1"))
    assert findings == ["1/dx1 = 3.75 must be an integer >= 4 so the unit period tiles the grid; "
                        "mode row (0.0, 0.0, 0.1) is constant and violates the zero-average "
                        "requirement; mode row (1.0, 0.1) needs 2 wavenumbers + amplitude"]
