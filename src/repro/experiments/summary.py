"""AVG — the headline claim.

"On Fugaku we observe an average of 4% speedup across all our
experiments, with a few exceptions where the LWK outperforms Linux by
up to 29%" — while on the moderately tuned OFP, McKernel consistently
and significantly outperforms Linux (up to ~2x).

The headline is derived from the Fig. 5–7 results, not measured
again: :func:`from_results` is the derivation, and the engine hands it
the results of the same call (see :data:`INPUTS`).
"""

from __future__ import annotations

import numpy as np

from . import fig5, fig6, fig7
from .report import ExperimentResult, format_table

#: The experiments the headline averages, in :func:`from_results`'
#: argument order.
INPUTS = ("fig5", "fig6", "fig7")


def _gains(result: ExperimentResult) -> list[float]:
    out = []
    for app_data in result.data.values():
        out.extend(
            (r - 1.0) * 100.0 for r in app_data["relative_performance"]
        )
    return out


def from_results(ofp5: ExperimentResult, ofp6: ExperimentResult,
                 fug: ExperimentResult) -> ExperimentResult:
    """The headline averages over Fig. 5, 6 (OFP) and 7 (Fugaku)."""
    fugaku_gains = _gains(fug)
    ofp_gains = _gains(ofp5) + _gains(ofp6)
    rows = [
        ["Fugaku mean gain", f"{np.mean(fugaku_gains):+.1f}%", "~+4%"],
        ["Fugaku max gain", f"{np.max(fugaku_gains):+.1f}%", "+29%"],
        ["OFP mean gain", f"{np.mean(ofp_gains):+.1f}%", "consistently positive"],
        ["OFP max gain", f"{np.max(ofp_gains):+.1f}%", "~+100% (2x, LULESH)"],
        ["Fugaku measurements", f"{len(fugaku_gains)}", ""],
        ["OFP measurements", f"{len(ofp_gains)}", ""],
    ]
    return ExperimentResult(
        experiment_id="summary",
        title="Headline comparison: LWK vs moderately/highly tuned Linux",
        data={
            "fugaku_mean_gain_percent": float(np.mean(fugaku_gains)),
            "fugaku_max_gain_percent": float(np.max(fugaku_gains)),
            "ofp_mean_gain_percent": float(np.mean(ofp_gains)),
            "ofp_max_gain_percent": float(np.max(ofp_gains)),
        },
        text=format_table(["Quantity", "Measured", "Paper"], rows,
                          title="Headline results"),
        paper_reference={"fugaku_mean": "+4%", "fugaku_max": "+29%"},
    )


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Run Fig. 5–7 and derive the headline from them."""
    return from_results(fig5.run(fast=fast, seed=seed),
                        fig6.run(fast=fast, seed=seed),
                        fig7.run(fast=fast, seed=seed))
