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
KEYS = {"simulate": ("dt", "t_end", "cfl", "ul", "ur"), "periodic": ("dt", "t_end", "ubar"),
        "profile": ("t_end", "cfl", "ul", "ur")}

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
    for modes in ("", "1,1,0; 0,2,0"):
        findings = cli.validate(dict(CONFIGS["simulate"], w0_modes=modes))
        assert findings == ["simulate needs a disturbance: a w0_modes row with a nonzero "
                            "amplitude, or v0"]
    assert cli.validate(dict(CONFIGS["simulate"], w0_modes="", v0="gaussian:0.1,0,2")) == []
