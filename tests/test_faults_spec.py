"""FaultSpec: validation, null scenario and JSON round trip."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultSpec


def test_default_is_none_and_inactive():
    assert FaultSpec() == FaultSpec.none()
    assert not FaultSpec.none().active


def test_any_fault_source_activates():
    assert FaultSpec(node_mtbf_hours=1000.0).active
    assert FaultSpec(oom_per_node_hour=1e-4).active
    assert FaultSpec(proxy_crash_per_node_hour=1e-4).active
    assert FaultSpec(daemon_stall_per_node_hour=1e-3).active
    assert FaultSpec(ikc_drop_prob=0.01).active
    # Tolerance knobs alone do not activate injection.
    assert not FaultSpec(max_retries=10, checkpoint_interval=600.0).active


def test_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(node_mtbf_hours=-1.0)
    with pytest.raises(ConfigurationError):
        FaultSpec(ikc_drop_prob=1.0)  # half-open interval
    with pytest.raises(ConfigurationError):
        FaultSpec(ikc_drop_prob=-0.1)
    with pytest.raises(ConfigurationError):
        FaultSpec(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        FaultSpec(max_retries=-1)
    with pytest.raises(ConfigurationError):
        FaultSpec(max_retries=2.5)
    with pytest.raises(ConfigurationError):
        FaultSpec(node_mtbf_hours=True)  # bools are not rates
    with pytest.raises(ConfigurationError):
        FaultSpec(checkpoint_cost=-5.0)


def test_rates_coerced_to_float():
    spec = FaultSpec(node_mtbf_hours=1000, daemon_stall_seconds=10)
    assert isinstance(spec.node_mtbf_hours, float)
    assert isinstance(spec.daemon_stall_seconds, float)


def test_with_overrides():
    base = FaultSpec(node_mtbf_hours=500.0)
    derived = base.with_(seed=7, max_retries=1)
    assert derived.node_mtbf_hours == 500.0
    assert derived.seed == 7 and derived.max_retries == 1
    assert base.seed == 0  # original untouched
    with pytest.raises(ConfigurationError):
        base.with_(ikc_drop_prob=2.0)


def test_json_round_trip():
    spec = FaultSpec(node_mtbf_hours=8000.0, ikc_drop_prob=0.05,
                     checkpoint_interval=600.0, checkpoint_cost=30.0,
                     seed=42)
    assert FaultSpec.from_json(spec.to_json()) == spec
    assert FaultSpec.from_dict(json.loads(spec.to_json())) == spec
    # Pretty-printed form round-trips too.
    assert FaultSpec.from_json(spec.to_json(indent=2)) == spec


def test_from_dict_rejects_unknowns():
    with pytest.raises(ConfigurationError):
        FaultSpec.from_dict({"node_mtbf_months": 1.0})
    with pytest.raises(ConfigurationError):
        FaultSpec.from_dict(["not", "a", "mapping"])
    with pytest.raises(ConfigurationError):
        FaultSpec.from_json("{truncated")


@pytest.mark.parametrize("payload, field", [
    ({"backoff_factor": "x"}, "faults.backoff_factor"),
    ({"backoff_factor": True}, "faults.backoff_factor"),
    ({"node_mtbf_hours": float("nan")}, "faults.node_mtbf_hours"),
    ({"ikc_timeout": float("inf")}, "faults.ikc_timeout"),
    ({"checkpoint_cost": 1e999}, "faults.checkpoint_cost"),
], ids=["backoff-str", "backoff-bool", "rate-nan", "timeout-inf",
        "cost-1e999"])
def test_field_types_are_checked(payload, field):
    """A mistyped or non-finite field is a diagnostic naming it, never
    a silent read (``true`` as a backoff factor of 1.0, ``NaN`` as a
    rate)."""
    # json.dumps writes NaN/Infinity, which json.loads reads back.
    with pytest.raises(ConfigurationError,
                       match=f"'{field}' must be a JSON"):
        FaultSpec.from_json(json.dumps(payload))
