"""Workloads: FWQ plus the paper's six applications as BSP profiles."""

from .. import _lazy_exports
from . import amg2013, gamera, geofem, lqcd, lulesh, milc
from .base import InitPhase, RankGeometry, WorkloadProfile

#: The FWQ benchmark loads the noise model, which the six profiles (and
#: so a submitted or verified RunSpec) never need: resolved on first
#: access.
__getattr__, __dir__ = _lazy_exports(__name__, dict.fromkeys((
    "DEFAULT_QUANTUM", "FtqResult", "FwqConfig", "FwqResult",
    "MpiFwqResult", "run_ftq", "run_fwq", "run_fwq_on", "run_mpi_fwq"),
    ".fwq"))

#: name -> profile factory for every paper application.
ALL_PROFILES = {
    "AMG2013": amg2013.profile,
    "Milc": milc.profile,
    "Lulesh": lulesh.profile,
    "LQCD": lqcd.profile,
    "GeoFEM": geofem.profile,
    "GAMERA": gamera.profile,
}

#: The subsets used per platform in the paper's evaluation (§6.2).
OFP_ONLY_APPS = ("AMG2013", "Milc", "Lulesh")
DUAL_PLATFORM_APPS = ("LQCD", "GeoFEM", "GAMERA")

__all__ = [
    "InitPhase",
    "RankGeometry",
    "WorkloadProfile",
    "FwqConfig",
    "FwqResult",
    "FtqResult",
    "MpiFwqResult",
    "run_ftq",
    "run_fwq",
    "run_fwq_on",
    "run_mpi_fwq",
    "DEFAULT_QUANTUM",
    "ALL_PROFILES",
    "OFP_ONLY_APPS",
    "DUAL_PLATFORM_APPS",
    "amg2013",
    "milc",
    "lulesh",
    "lqcd",
    "geofem",
    "gamera",
]
