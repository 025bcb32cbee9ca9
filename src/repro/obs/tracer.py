"""Cross-layer span/event tracer.

The paper's central methodology (§4.2.1) is observability: the blk-mq
placement bug and every per-countermeasure noise reduction were found
with "execution time profiling and ftrace".  :class:`Tracer` is that
microscope for the *whole* simulated stack: one bounded ring buffer of
timestamped events, partitioned into named **layers** (:data:`LAYERS`),
fed by instrumentation hooks threaded through the kernel, LWK, proxy,
scheduler, perf, fault and service modules.

Design constraints, in order:

* **Zero overhead when disabled.**  Hooks consult the ambient tracer
  (:func:`get_tracer`) and bail on ``None`` — one module-global read
  and an ``is None`` test.  No tracer installed ⇒ no allocation, no
  event object, byte-identical simulation output.
* **Deterministic timestamps.**  Events carry *simulated* time (a DES
  engine clock, a cost-model accumulation, or a per-layer logical
  clock via :meth:`Tracer.advance`) — never wall time.  Two runs of
  the same seeded configuration produce identical event streams, which
  is what makes exported traces byte-reproducible (see
  :mod:`repro.obs.export`).
* **Bounded memory.**  The buffer is a ring: past ``buffer_size``
  events the oldest is overwritten and :attr:`Tracer.dropped` counts
  the loss, mirroring :class:`repro.kernel.ftrace.Ftrace` semantics.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from ..errors import ConfigurationError

#: The instrumented layers, in fixed display order (Chrome-trace track
#: order).  Hooks must name one of these; anything else is a
#: configuration error so typos never silently create a new track.
#: No model code emits ``hw`` or ``ikc``; they keep their slots so the
#: Chrome tids of the other layers stay put.
LAYERS = ("hw", "kernel", "lwk", "ikc", "proxy", "sched", "perf", "faults",
          "service")

_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


@dataclass
class TraceSpan:
    """One traced event: an instant (``duration == 0``) or a span.

    ``ts``/``duration`` are simulated seconds.  ``args`` holds small
    JSON-serializable annotations (cell keys, sequence numbers, fault
    kinds); ``seq`` is the tracer-assigned record order, the
    deterministic tie-breaker for equal timestamps.
    """

    layer: str
    name: str
    ts: float
    duration: float = 0.0
    actor: str = ""
    args: dict = field(default_factory=dict)
    seq: int = 0

    @property
    def is_span(self) -> bool:
        return self.duration > 0.0


class Tracer:
    """Bounded ring buffer of :class:`TraceSpan` records across layers."""

    def __init__(self, buffer_size: int = 1_000_000) -> None:
        if buffer_size <= 0:
            raise ConfigurationError("buffer_size must be positive")
        self.buffer_size = buffer_size
        self._events: deque[TraceSpan] = deque(maxlen=buffer_size)
        #: Events overwritten by the ring (oldest-first), like ftrace.
        self.dropped = 0
        self._seq = 0
        #: Per-layer logical clocks for layers with no native time
        #: source (see :meth:`advance`).
        self._clocks: dict[str, float] = {}

    # -- recording -----------------------------------------------------

    def event(self, layer: str, name: str, ts: float,
              duration: float = 0.0, actor: str = "",
              **args: object) -> TraceSpan:
        """Record one event.  ``duration > 0`` makes it a span."""
        if layer not in _LAYER_INDEX:
            raise ConfigurationError(
                f"unknown trace layer {layer!r} (known: {LAYERS})")
        if len(self._events) == self.buffer_size:
            self.dropped += 1  # deque(maxlen) evicts the oldest
        ev = TraceSpan(layer=layer, name=name, ts=float(ts),
                       duration=float(duration), actor=actor,
                       args=dict(args) if args else {}, seq=self._seq)
        self._seq += 1
        self._events.append(ev)
        return ev

    def span(self, layer: str, name: str, ts: float, duration: float,
             actor: str = "", **args: object) -> TraceSpan:
        """Record a completed span (explicit begin + length)."""
        return self.event(layer, name, ts, duration=duration,
                          actor=actor, **args)

    def advance(self, layer: str, amount: float = 1.0) -> float:
        """Advance the layer's logical clock; returns the *pre*-advance
        value.  Gives deterministic, monotone timestamps to layers that
        have no simulated-time source of their own (e.g. the perf
        executor laying sweep cells end to end)."""
        now = self._clocks.get(layer, 0.0)
        self._clocks[layer] = now + amount
        return now

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self._seq = 0
        self._clocks.clear()

    # -- reading -------------------------------------------------------

    @property
    def events(self) -> list[TraceSpan]:
        """Events in record order (a copy; the ring stays untouched)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def layers_seen(self) -> list[str]:
        """Distinct layers with at least one event, in display order."""
        seen = {ev.layer for ev in self._events}
        return [name for name in LAYERS if name in seen]

    def layer_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self._events:
            counts[ev.layer] = counts.get(ev.layer, 0) + 1
        return {name: counts[name] for name in LAYERS if name in counts}

    def filter(
        self,
        layers: Optional[Iterable[str]] = None,
        actors: Optional[Iterable[str]] = None,
        predicate: Optional[Callable[[TraceSpan], bool]] = None,
    ) -> list[TraceSpan]:
        layer_set = set(layers) if layers is not None else None
        actor_set = set(actors) if actors is not None else None
        out = []
        for ev in self._events:
            if layer_set is not None and ev.layer not in layer_set:
                continue
            if actor_set is not None and ev.actor not in actor_set:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out


#: The ambient tracer.  ``None`` means tracing is disabled and every
#: instrumentation hook is a no-op.
_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off.

    Instrumentation hooks call this on their hot path; keep call sites
    shaped as ``t = get_tracer()`` / ``if t is not None: ...`` so the
    disabled case costs one attribute read and a comparison.
    """
    return _TRACER


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one by default) for the block.

    Nests: the previous tracer (or the disabled state) is restored on
    exit, so a traced sub-scope never leaks into its caller.
    """
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
