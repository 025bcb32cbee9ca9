"""repro.platform — declarative, serializable platform composition.

The paper's evaluation is a grid over five ingredients: machine, OS
personality, Linux tuning, fabric and noise catalogue.  This package
makes every point of that grid *data*:

* :class:`PlatformSpec` / :class:`RunSpec` — frozen, validated,
  JSON-round-trippable descriptions of a platform and of one
  simulation cell (canonical JSON doubles as the run cache key);
* the **registry** — the paper's named environments (``ofp-default``,
  ``fugaku-production``, ``a64fx-testbed``, hypothetical
  ``fugaku-x2/4/8`` scale-outs, and their McKernel twins);
* :func:`build` — the single resolver from spec to the concrete
  ``(Machine, OsInstance, FabricSpec, noise sources)`` composite;
* :func:`compose_os` / :func:`resolve_fabric` / :func:`noise_sources`
  — the one concrete composition point every substrate shares;
* :func:`run_cells` / :func:`compare_platforms` /
  :func:`sweep_platform_apps` — spec-driven sweep entry points.

Quickstart::

    from repro.platform import build, get_platform
    resolved = build(get_platform("fugaku-production"))
    resolved.machine, resolved.os_instance, resolved.fabric

or purely from JSON::

    from repro.platform import PlatformSpec
    spec = PlatformSpec.from_json(open("my_machine.json").read())
"""

from __future__ import annotations

from .. import _lazy_exports

#: Where each re-export lives.  A reader of :mod:`repro.platform.spec`
#: alone (the job service) never loads ``compose``/``resolve`` and,
#: through them, the kernel, network and noise models.
_EXPORTS = {
    **dict.fromkeys(("compose_os", "noise_sources", "resolve_fabric"),
                    ".compose"),
    **dict.fromkeys(("get_platform", "platform_names", "register_platform"),
                    ".registry"),
    **dict.fromkeys(("ResolvedPlatform", "build", "clear_build_cache",
                     "compare_platforms", "run_cells", "sweep_platform_apps"),
                    ".resolve"),
    **dict.fromkeys(("MACHINES", "OS_KINDS", "TUNINGS", "McKernelSwitches",
                     "NoiseSwitches", "PlatformSpec", "RunSpec", "load_spec"),
                    ".spec"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
