"""Workload profiles: scaling rules, geometries, validation."""

import pytest

from repro.apps import ALL_PROFILES, DUAL_PLATFORM_APPS, OFP_ONLY_APPS
from repro.apps.base import InitPhase, RankGeometry, WorkloadProfile
from repro.errors import ConfigurationError
from repro.units import mib


def _weak(**kw):
    defaults = dict(
        name="w", description="", scaling="weak", reference_nodes=16,
        sync_interval=1e-2, iterations=10,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


def test_all_six_paper_apps_present():
    assert set(ALL_PROFILES) == {
        "AMG2013", "Milc", "Lulesh", "LQCD", "GeoFEM", "GAMERA",
    }
    assert set(OFP_ONLY_APPS) | set(DUAL_PLATFORM_APPS) == set(ALL_PROFILES)


def test_profiles_construct_and_are_selfconsistent():
    for name, factory in ALL_PROFILES.items():
        p = factory()
        assert p.name == name
        assert p.sync_interval > 0
        assert p.iterations > 0


def test_weak_scaling_keeps_per_thread_work():
    p = _weak()
    assert p.sync_interval_at(16) == p.sync_interval_at(8192)
    assert p.churn_bytes_at(16) == p.churn_bytes_at(8192)


def test_strong_scaling_shrinks_work():
    p = _weak(scaling="strong", reference_nodes=1024)
    assert p.sync_interval_at(2048) == pytest.approx(p.sync_interval / 2)
    assert p.sync_interval_at(512) == pytest.approx(p.sync_interval * 2)


def test_strong_scaling_messages_shrink_surface_volume():
    p = _weak(scaling="strong", reference_nodes=1024, msg_bytes=1 << 20)
    at_8x = p.msg_bytes_at(8192)
    # (1/8)^(2/3) = 1/4 of the reference surface.
    assert at_8x == pytest.approx((1 << 20) / 4, rel=0.01)
    assert p.msg_bytes_at(10**6) >= 64  # floor


def test_churn_override_per_platform():
    p = _weak(churn_bytes=0,
              churn_override={"aarch64": mib(24)})
    assert p.churn_bytes_at(16, "x86_64") == 0
    assert p.churn_bytes_at(16, "aarch64") == mib(24)


def test_geometry_matching_with_default():
    p = _weak(geometry={"x86_64": RankGeometry(16, 16)})
    ofp = p.geometry_for("x86_64")
    assert (ofp.ranks_per_node, ofp.threads_per_rank) == (16, 16)
    fug = p.geometry_for("aarch64")
    assert (fug.ranks_per_node, fug.threads_per_rank) == (4, 12)
    assert fug.threads_per_node == 48


def test_paper_appendix_geometries():
    lqcd = ALL_PROFILES["LQCD"]()
    assert lqcd.geometry_for("x86_64").ranks_per_node == 4
    assert lqcd.geometry_for("x86_64").threads_per_rank == 32
    geofem = ALL_PROFILES["GeoFEM"]()
    assert geofem.geometry_for("x86_64").ranks_per_node == 16
    gamera = ALL_PROFILES["GAMERA"]()
    assert gamera.geometry_for("x86_64").ranks_per_node == 8
    for app in ("LQCD", "GeoFEM", "GAMERA"):
        g = ALL_PROFILES[app]().geometry_for("aarch64")
        assert (g.ranks_per_node, g.threads_per_rank) == (4, 12)


def test_lulesh_churns_gamera_registers():
    lulesh = ALL_PROFILES["Lulesh"]()
    assert lulesh.churn_bytes > 0  # the heap-management mechanism
    gamera = ALL_PROFILES["GAMERA"]()
    assert gamera.scaling == "strong"
    assert gamera.steps == 3
    assert gamera.init.reg_count * gamera.init.reg_bytes_each >= mib(1024)


def test_geofem_has_large_variability():
    geofem = ALL_PROFILES["GeoFEM"]()
    others = [ALL_PROFILES[a]().variability
              for a in ALL_PROFILES if a != "GeoFEM"]
    assert geofem.variability > max(others)


def test_working_set_floor():
    p = _weak(scaling="strong", reference_nodes=16, working_set=8192)
    assert p.working_set_at(10**9) == 4096


def test_validation():
    with pytest.raises(ConfigurationError):
        _weak(scaling="diagonal")
    with pytest.raises(ConfigurationError):
        _weak(sync_interval=0.0)
    with pytest.raises(ConfigurationError):
        _weak(iterations=0)
    with pytest.raises(ConfigurationError):
        _weak(locality=1.0)
    with pytest.raises(ConfigurationError):
        _weak(variability=-0.1)
    with pytest.raises(ConfigurationError):
        RankGeometry(0, 1)
    with pytest.raises(ConfigurationError):
        InitPhase(reg_repeats=0)
    with pytest.raises(ConfigurationError):
        InitPhase(compute=-1.0)
    p = _weak()
    with pytest.raises(ConfigurationError):
        p.sync_interval_at(0)
