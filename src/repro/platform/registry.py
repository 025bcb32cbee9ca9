"""The named platform registry: the paper's environments as data.

Every entry is a plain :class:`~repro.platform.spec.PlatformSpec` —
``repro platform show <name>`` prints the JSON, and a user-supplied
JSON file is a first-class peer of any registry entry (new machines
and OS variants are data, not code edits).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..hardware.machines import NODES_PER_RACK, fugaku
from .spec import NoiseSwitches, PlatformSpec


def _builtin_specs() -> list[PlatformSpec]:
    fugaku_nodes = fugaku().n_nodes
    specs = [
        # Oakforest-PACS: moderately tuned CentOS vs IHK/McKernel (§6.2).
        PlatformSpec(name="ofp-default", machine="oakforest-pacs",
                     os_kind="linux", tuning="ofp-default"),
        PlatformSpec(name="ofp-mckernel", machine="oakforest-pacs",
                     os_kind="mckernel", tuning="ofp-default"),
        # Fugaku: the highly tuned production stack (§4).
        PlatformSpec(name="fugaku-production", machine="fugaku",
                     os_kind="linux", tuning="fugaku-production"),
        PlatformSpec(name="fugaku-mckernel", machine="fugaku",
                     os_kind="mckernel", tuning="fugaku-production"),
        PlatformSpec(name="fugaku-untuned", machine="fugaku",
                     os_kind="linux", tuning="untuned"),
        # The 16-node A64FX testbed (Table 2 / Fig. 3, §6.3): kernel
        # noise characterisation, so node-level stragglers are off.
        PlatformSpec(name="a64fx-testbed", machine="a64fx-testbed",
                     os_kind="linux", tuning="fugaku-production",
                     noise=NoiseSwitches(include_stragglers=False)),
        PlatformSpec(name="a64fx-testbed-mckernel", machine="a64fx-testbed",
                     os_kind="mckernel", tuning="fugaku-production",
                     noise=NoiseSwitches(include_stragglers=False)),
    ]
    # Hypothetical machines for the §8 outlook: Fugaku's node design
    # replicated at 2x/4x/8x scale, production tuning held fixed.
    for scale in (2, 4, 8):
        specs.append(PlatformSpec(
            name=f"fugaku-x{scale}", machine="fugaku",
            os_kind="linux", tuning="fugaku-production",
            machine_overrides={"n_nodes": fugaku_nodes * scale,
                               "name": f"Fugaku-x{scale}"},
        ))
    return specs


_REGISTRY: dict[str, PlatformSpec] = {
    spec.name: spec for spec in _builtin_specs()
}


def platform_names() -> list[str]:
    """Registered platform names, in registration order."""
    return list(_REGISTRY)


#: Short names for the two paper machines' default platforms
#: (case-insensitive); a registered name takes precedence.
PLATFORM_ALIASES: dict[str, str] = {
    "fugaku": "fugaku-production",
    "a64fx": "fugaku-production",
    "ofp": "ofp-default",
    "oakforest": "ofp-default",
    "oakforest-pacs": "ofp-default",
    "knl": "ofp-default",
}


def get_platform(name: str) -> PlatformSpec:
    """Look up a registered platform spec by name or alias."""
    spec = _REGISTRY.get(name) \
        or _REGISTRY.get(PLATFORM_ALIASES.get(name.lower(), ""))
    if spec is None:
        raise ConfigurationError(
            f"unknown platform {name!r}; known: {platform_names()} "
            f"(aliases: {sorted(PLATFORM_ALIASES)})")
    return spec


def register_platform(spec: PlatformSpec,
                      overwrite: bool = False) -> PlatformSpec:
    """Add a spec to the registry (e.g. one loaded from JSON)."""
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"platform {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec
