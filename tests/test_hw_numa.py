"""NUMA domains and layouts."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.numa import MemoryKind, NumaDomain, NumaLayout, NumaRole
from repro.units import gib


def _hbm(node_id, group):
    return NumaDomain(node_id=node_id, kind=MemoryKind.HBM2,
                      size_bytes=gib(8), role=NumaRole.GENERAL,
                      group_id=group)


def test_layout_totals_and_lookup():
    layout = NumaLayout([_hbm(i, i) for i in range(4)])
    assert layout.total_bytes() == gib(32)
    assert layout.domain(2).group_id == 2
    assert len(layout) == 4


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigurationError):
        NumaLayout([_hbm(0, 0), _hbm(0, 1)])


def test_empty_layout_rejected():
    with pytest.raises(ConfigurationError):
        NumaLayout([])


def test_unknown_domain_lookup():
    layout = NumaLayout([_hbm(0, 0)])
    with pytest.raises(ConfigurationError):
        layout.domain(5)


def test_application_bytes_counts_general_and_application():
    layout = NumaLayout([
        NumaDomain(node_id=0, kind=MemoryKind.HBM2, size_bytes=gib(7),
                   role=NumaRole.APPLICATION),
        NumaDomain(node_id=1, kind=MemoryKind.HBM2, size_bytes=gib(1),
                   role=NumaRole.SYSTEM),
        _hbm(2, 2),
    ])
    assert layout.application_bytes() == gib(15)
    plain = NumaLayout([_hbm(0, 0)])
    assert plain.application_bytes() == gib(8)


def test_local_domain_falls_back_to_general():
    layout = NumaLayout([_hbm(0, 0)])
    assert layout.local_domain(0, NumaRole.APPLICATION).role == NumaRole.GENERAL
    with pytest.raises(ConfigurationError):
        layout.local_domain(3, NumaRole.APPLICATION)


def test_domain_validation():
    with pytest.raises(ConfigurationError):
        NumaDomain(node_id=0, kind=MemoryKind.DDR4, size_bytes=0)
    with pytest.raises(ConfigurationError):
        NumaDomain(node_id=0, kind=MemoryKind.DDR4, size_bytes=1,
                   bandwidth=-1.0)
