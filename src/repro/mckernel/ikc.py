"""Inter-Kernel Communication (IKC) — the message layer between Linux
and McKernel used for system-call delegation (§5).

IKC is a pair of memory-mapped ring buffers with interrupt-based
notification.  The model exposes both an analytic latency (for the cost
model) and a functional DES channel (for the delegation examples):
messages carry a payload, delivery costs ``one_way_latency``, and a full
ring applies back-pressure.

Fault injection (see :mod:`repro.faults`) adds the unreliable variant:
a channel given a drop stream loses each in-flight message with
``drop_prob``; the sender detects the loss after ``redelivery_timeout``
and re-posts, up to ``max_redeliveries`` times, after which the wait
event fires with ``None`` and the channel counts a timeout — the
behaviour a wedged doorbell IRQ shows at scale.  With ``drop_prob`` at
its default 0 every path is identical to the reliable channel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError, IkcTimeoutError, ResourceError
from ..obs.tracer import get_tracer
from ..sim.engine import Engine, Event
from ..units import us


@dataclass(frozen=True)
class IkcSpec:
    """Timing/size parameters of one IKC channel pair."""

    #: One-way message latency (write + doorbell IPI + dispatch), seconds.
    one_way_latency: float = us(1.3)
    #: Ring capacity in messages.
    ring_entries: int = 512
    #: Probability one delivery is dropped in flight (0 = reliable).
    drop_prob: float = 0.0
    #: Sender-side wait before re-posting a dropped message, seconds.
    redelivery_timeout: float = us(50)
    #: Re-posts before the sender gives up on a message.
    max_redeliveries: int = 3

    def __post_init__(self) -> None:
        if self.one_way_latency < 0:
            raise ConfigurationError("latency must be non-negative")
        if self.ring_entries <= 0:
            raise ConfigurationError("ring_entries must be positive")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigurationError(
                f"drop_prob must be in [0, 1), got {self.drop_prob!r}")
        if self.redelivery_timeout < 0:
            raise ConfigurationError(
                "redelivery_timeout must be non-negative")
        if self.max_redeliveries < 0:
            raise ConfigurationError("max_redeliveries must be >= 0")

    @property
    def round_trip(self) -> float:
        """Request + response latency — the delegation overhead the cost
        model charges on top of the Linux-side syscall work."""
        return 2.0 * self.one_way_latency


@dataclass
class IkcMessage:
    """One request or response on the ring."""

    seq: int
    payload: Any


class IkcChannel:
    """A unidirectional ring buffer between two kernels.

    Functional semantics: :meth:`post` enqueues (raising when the ring
    is full — real IKC spins, which callers model as a retry loop), and
    :meth:`deliver` dequeues in FIFO order.  When bound to a DES engine
    via :meth:`post_async`, delivery events fire after the one-way
    latency.
    """

    def __init__(self, spec: IkcSpec, name: str = "ikc",
                 drop_rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self.name = name
        #: Drop-decision stream (e.g. from
        #: :meth:`repro.faults.FaultInjector.ikc_channel_rng`); None
        #: keeps the channel reliable regardless of ``spec.drop_prob``.
        self.drop_rng = drop_rng
        self._ring: deque[IkcMessage] = deque()
        self._seq = 0
        self.posted = 0
        self.delivered = 0
        self.full_events = 0
        #: Deliveries lost in flight (fault injection).
        self.dropped = 0
        #: Successful re-posts after a drop.
        self.redelivered = 0
        #: Messages abandoned after ``max_redeliveries`` drops.
        self.timeouts = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.spec.ring_entries

    def post(self, payload: Any) -> IkcMessage:
        if self.full:
            self.full_events += 1
            raise ResourceError(f"IKC ring {self.name!r} full")
        msg = IkcMessage(seq=self._seq, payload=payload)
        self._seq += 1
        self._ring.append(msg)
        self.posted += 1
        return msg

    def deliver(self) -> Optional[IkcMessage]:
        if not self._ring:
            return None
        self.delivered += 1
        return self._ring.popleft()

    def _delivery_dropped(self) -> bool:
        """Sample one in-flight loss (False on a reliable channel)."""
        if self.drop_rng is None or self.spec.drop_prob <= 0.0:
            return False
        return bool(self.drop_rng.random() < self.spec.drop_prob)

    def post_async(self, engine: Engine, payload: Any) -> Event:
        """Post under a DES engine: the returned event fires with the
        message after the one-way latency (the receive moment).

        On an unreliable channel a delivery may be dropped; the sender
        waits ``redelivery_timeout`` and re-posts, up to
        ``max_redeliveries`` times.  When the budget is exhausted the
        message is consumed off the ring (lost) and the event fires
        with ``None``; :attr:`timeouts` counts such abandonments and
        :meth:`timeout_error` builds the matching exception for
        callers that want to raise.
        """
        msg = self.post(payload)
        arrived = engine.event(name=f"{self.name}.msg{msg.seq}")
        posted_at = engine.now
        tracer = get_tracer()
        if tracer is not None:
            tracer.event("ikc", "post", ts=posted_at, actor=self.name,
                         seq=msg.seq)

        def delivery():
            redeliveries = 0
            while True:
                yield engine.timeout(self.spec.one_way_latency)
                if not self._delivery_dropped():
                    # The receiver consumes the ring slot at delivery
                    # time.
                    got = self.deliver()
                    t = get_tracer()
                    if t is not None:
                        t.span("ikc", f"msg{msg.seq}", ts=posted_at,
                               duration=engine.now - posted_at,
                               actor=self.name, seq=msg.seq,
                               redeliveries=redeliveries)
                    arrived.succeed(got)
                    return
                self.dropped += 1
                t = get_tracer()
                if t is not None:
                    t.event("ikc", "drop", ts=engine.now,
                            actor=self.name, seq=msg.seq)
                if redeliveries >= self.spec.max_redeliveries:
                    self.timeouts += 1
                    # The lost message still occupied its ring slot;
                    # discard it so the ring drains.
                    self.deliver()
                    if t is not None:
                        t.event("ikc", "timeout", ts=engine.now,
                                actor=self.name, seq=msg.seq)
                    arrived.succeed(None)
                    return
                redeliveries += 1
                self.redelivered += 1
                if t is not None:
                    t.event("ikc", "redeliver", ts=engine.now,
                            actor=self.name, seq=msg.seq)
                yield engine.timeout(self.spec.redelivery_timeout)

        engine.process(delivery(), name=f"{self.name}-deliver-{msg.seq}")
        return arrived

    def timeout_error(self, msg: IkcMessage | None = None) -> IkcTimeoutError:
        """The exception an abandoned delivery corresponds to."""
        detail = f" (msg seq {msg.seq})" if msg is not None else ""
        return IkcTimeoutError(
            f"IKC {self.name!r}: message lost after "
            f"{self.spec.max_redeliveries} redeliveries{detail}")


class IkcPair:
    """Request/response channel pair for one McKernel instance."""

    def __init__(self, spec: IkcSpec | None = None,
                 drop_rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec or IkcSpec()
        self.to_linux = IkcChannel(self.spec, name="lwk->linux",
                                   drop_rng=drop_rng)
        self.to_lwk = IkcChannel(self.spec, name="linux->lwk",
                                 drop_rng=drop_rng)

    @property
    def round_trip(self) -> float:
        return self.spec.round_trip
