"""IKC channels: FIFO delivery, back-pressure, DES latency, and the
exactly-once FIFO contract under drawn workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ResourceError
from repro.mckernel.ikc import IkcChannel, IkcMessage, IkcPair, IkcSpec
from repro.sim.engine import Engine
from repro.units import us


def test_fifo_delivery():
    ch = IkcChannel(IkcSpec())
    ch.post("a")
    ch.post("b")
    assert ch.deliver().payload == "a"
    assert ch.deliver().payload == "b"
    assert ch.deliver() is None


def test_sequence_numbers_monotone():
    ch = IkcChannel(IkcSpec())
    seqs = [ch.post(i).seq for i in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_ring_full_backpressure():
    ch = IkcChannel(IkcSpec(ring_entries=2))
    ch.post(1)
    ch.post(2)
    with pytest.raises(ResourceError):
        ch.post(3)
    assert ch.full_events == 1
    ch.deliver()
    ch.post(3)  # space again


def test_counters():
    ch = IkcChannel(IkcSpec())
    ch.post(1)
    ch.post(2)
    ch.deliver()
    assert ch.posted == 2 and ch.delivered == 1 and len(ch) == 1


def test_round_trip_is_twice_one_way():
    spec = IkcSpec(one_way_latency=1.3e-6)
    assert spec.round_trip == pytest.approx(2.6e-6)
    pair = IkcPair(spec)
    assert pair.round_trip == spec.round_trip
    assert pair.to_linux.name != pair.to_lwk.name


def test_post_async_delivers_after_latency():
    spec = IkcSpec(one_way_latency=2e-6)
    ch = IkcChannel(spec)
    eng = Engine()
    got = []

    def receiver():
        ev = ch.post_async(eng, {"syscall": "open"})
        msg = yield ev
        got.append((eng.now, msg.payload))

    eng.process(receiver())
    eng.run()
    assert got == [(2e-6, {"syscall": "open"})]
    assert ch.delivered == 1


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        IkcSpec(one_way_latency=-1.0)
    with pytest.raises(ConfigurationError):
        IkcSpec(ring_entries=0)


# -- the channel contract, under drawn workloads -----------------------


class DoubleDeliveryChannel(IkcChannel):
    """Deliberately broken ring: every delivery is performed twice —
    the duplicated-doorbell bug class the contract test must catch."""

    def deliver(self):
        msg = super().deliver()
        if msg is not None:
            self._ring.appendleft(msg)
            super().deliver()  # same slot consumed again
        return msg


class DuplicatePostChannel(IkcChannel):
    """Deliberately broken ring: ``post`` never advances the sequence
    counter, so every message carries the same number."""

    def post(self, payload):
        msg = super().post(payload)
        self._seq = msg.seq
        return msg


class PhantomDeliveryChannel(IkcChannel):
    """Deliberately broken ring: an empty ring still hands out a
    message that was never posted."""

    def deliver(self):
        msg = super().deliver()
        return msg if msg is not None else IkcMessage(self._seq + 5, None)


class InvertedChannel(IkcChannel):
    """Deliberately broken ring: delivers newest first (LIFO)."""

    def deliver(self):
        if not self._ring:
            return None
        self.delivered += 1
        return self._ring.pop()


def _increasing(seqs):
    return all(a < b for a, b in zip(seqs, seqs[1:]))


def _drive_ikc(channel_cls, ops, ring_entries=512, drop_prob=0.0, seed=0):
    """Run ``ops`` (``(op, gap)`` pairs; ``op`` is ``post``, ``deliver``
    or ``async``) against one channel under a DES engine, asserting the
    channel contract after every step and every delivery:

    * the sequence numbers delivered are exactly once, strictly
      increasing, and always a prefix of those posted;
    * ``posted == delivered + len(ring)``;
    * every ``post_async`` arrival event fires exactly once.
    """
    engine = Engine()
    chan = channel_cls(
        IkcSpec(ring_entries=ring_entries, drop_prob=drop_prob),
        drop_rng=np.random.default_rng(seed))
    posted, delivered, fired, arrivals = [], [], [], []
    post, deliver = chan.post, chan.deliver

    def check():
        assert chan.posted == chan.delivered + len(chan)
        assert delivered == posted[:len(delivered)]

    def recording_post(payload):
        msg = post(payload)
        posted.append(msg.seq)
        return msg

    def recording_deliver():
        msg = deliver()
        if msg is not None:
            delivered.append(msg.seq)
        check()
        return msg

    # post_async and its delivery process call through the instance.
    chan.post, chan.deliver = recording_post, recording_deliver

    def workload():
        for op, gap in ops:
            yield engine.timeout(gap)
            try:
                if op == "post":
                    chan.post(None)
                elif op == "deliver":
                    chan.deliver()
                else:
                    arrived = chan.post_async(engine, None)
                    arrived.callbacks.append(
                        lambda _msg, i=len(arrivals): fired.append(i))
                    arrivals.append(arrived)
            except ResourceError:
                assert chan.full
            check()

    engine.process(workload())
    engine.run()
    check()
    assert _increasing(posted) and _increasing(delivered)
    assert sorted(fired) == list(range(len(arrivals)))


IKC_OPS = st.lists(
    st.tuples(st.sampled_from(["post", "deliver", "async"]),
              st.sampled_from([0.0, us(1), us(60)])),
    max_size=20)


@settings(max_examples=50, deadline=None)
@given(ops=IKC_OPS, ring_entries=st.integers(1, 4),
       drop_prob=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_channel_is_exactly_once_fifo(ops, ring_entries, drop_prob, seed):
    _drive_ikc(IkcChannel, ops, ring_entries, drop_prob, seed)


def test_contract_catches_double_delivery():
    # Each deliver() of the broken ring consumes two slots, so the
    # counters stop balancing at its first delivery.
    with pytest.raises(AssertionError):
        _drive_ikc(DoubleDeliveryChannel, [("post", 0.0), ("deliver", 0.0)])
    with pytest.raises(AssertionError):
        _drive_ikc(DoubleDeliveryChannel, [("async", 0.0)] * 6,
                   drop_prob=0.3, seed=7)
    # The healthy ring passes the same seeded fault stream.
    _drive_ikc(IkcChannel, [("async", 0.0)] * 6, drop_prob=0.3, seed=7)


def test_clean_channel_drains_in_order():
    # The fixed case of the property: eight posts, then a drain past
    # the end of the ring.
    _drive_ikc(IkcChannel, [("post", 0.0)] * 8 + [("deliver", 0.0)] * 9)


def test_contract_catches_duplicate_phantom_and_inverted_delivery():
    two_then_drain = [("post", 0.0), ("post", 0.0),
                      ("deliver", 0.0), ("deliver", 0.0)]
    for broken, ops in ((DuplicatePostChannel, two_then_drain),
                        (PhantomDeliveryChannel, [("deliver", 0.0)]),
                        (InvertedChannel, two_then_drain)):
        with pytest.raises(AssertionError):
            _drive_ikc(broken, ops)
        _drive_ikc(IkcChannel, ops)


def test_contract_failure_on_broken_channel_is_deterministic():
    # Under one seeded drop stream the broken ring fails with the same
    # counters every time, so a failure reproduces exactly.
    def failure():
        channels = []

        def make(*args, **kwargs):
            channels.append(DoubleDeliveryChannel(*args, **kwargs))
            return channels[-1]

        with pytest.raises(AssertionError):
            _drive_ikc(make, [("async", 0.0)] * 6, drop_prob=0.3, seed=7)
        (chan,) = channels
        return (chan.posted, chan.delivered, len(chan), chan.dropped,
                chan.redelivered, chan.timeouts)

    assert failure() == failure()
