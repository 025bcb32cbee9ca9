"""IKC timing: the round trip a delegated syscall pays."""

import pytest

from repro.errors import ConfigurationError
from repro.mckernel.ikc import IkcSpec


def test_round_trip_is_twice_one_way():
    spec = IkcSpec(one_way_latency=1.3e-6)
    assert spec.round_trip == pytest.approx(2.6e-6)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        IkcSpec(one_way_latency=-1.0)
