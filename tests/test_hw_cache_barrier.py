"""Sector cache model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.cache import A64FX_L2, CacheSpec, SectorCache


# --- sector cache -----------------------------------------------------

def test_partition_splits_capacity():
    cache = SectorCache(A64FX_L2, system_ways=2)
    assert cache.effective_size(is_system=True) == A64FX_L2.way_bytes * 2
    assert cache.effective_size(is_system=False) == A64FX_L2.way_bytes * 14
    assert (cache.effective_size(True) + cache.effective_size(False)
            == A64FX_L2.size_bytes)


def test_unpartitioned_shares_everything():
    cache = SectorCache(A64FX_L2, system_ways=0)
    assert not cache.partitioned
    assert cache.effective_size(True) == cache.effective_size(False) == \
        A64FX_L2.size_bytes


def test_pollution_isolated_when_partitioned():
    cache = SectorCache(A64FX_L2, system_ways=2)
    assert cache.pollution_factor(0.5) == 1.0


def test_pollution_grows_with_system_traffic_when_shared():
    cache = SectorCache(A64FX_L2, system_ways=0)
    assert cache.pollution_factor(0.0) == 1.0
    assert cache.pollution_factor(0.1) == pytest.approx(1.1)
    with pytest.raises(ConfigurationError):
        cache.pollution_factor(1.5)


def test_partition_bounds():
    with pytest.raises(ConfigurationError):
        SectorCache(A64FX_L2, system_ways=16)  # all ways would starve apps
    with pytest.raises(ConfigurationError):
        SectorCache(A64FX_L2, system_ways=-1)


def test_cache_spec_validation():
    with pytest.raises(ConfigurationError):
        CacheSpec(size_bytes=1000, ways=3)  # not divisible
    with pytest.raises(ConfigurationError):
        CacheSpec(size_bytes=0, ways=1)
