"""Inter-Kernel Communication (IKC) — the message layer between Linux
and McKernel used for system-call delegation (§5).

IKC is a pair of memory-mapped ring buffers with interrupt-based
notification.  The model keeps only what the cost model charges: the
one-way message latency, and the round trip a delegated syscall pays
on top of its Linux-side work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import us


@dataclass(frozen=True)
class IkcSpec:
    """Timing of one IKC channel pair."""

    #: One-way message latency (write + doorbell IPI + dispatch), seconds.
    one_way_latency: float = us(1.3)

    def __post_init__(self) -> None:
        if self.one_way_latency < 0:
            raise ConfigurationError("latency must be non-negative")

    @property
    def round_trip(self) -> float:
        """Request + response latency — the delegation overhead the cost
        model charges on top of the Linux-side syscall work."""
        return 2.0 * self.one_way_latency
