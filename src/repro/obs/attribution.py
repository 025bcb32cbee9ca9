"""Cross-layer noise attribution — §4.2.1 / Table 2, stack-wide.

The paper's tuning loop ranked interference *actors* by the time they
stole from application cores, using ftrace on one kernel.  With the
unified tracer the same workflow spans every layer: kernel daemons,
delegated syscalls, scheduler restarts, injected faults —
each event carries a layer and an actor, and
:class:`NoiseAttribution` aggregates them into ranked
:class:`~repro.kernel.ftrace.ActorSummary` rows per layer.

``repro trace summarize trace.jsonl`` is the CLI face of this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..kernel.ftrace import ActorSummary
from .tracer import LAYERS, Tracer


@dataclass
class NoiseAttribution:
    """Interference ranked per (layer, actor) — worst total time first."""

    #: layer -> actor -> summary (populated by :meth:`record`).
    by_layer: dict[str, dict[str, ActorSummary]] = field(
        default_factory=dict)

    # -- building ------------------------------------------------------

    def record(self, layer: str, actor: str, duration: float) -> None:
        if layer not in LAYERS:
            raise ConfigurationError(
                f"unknown trace layer {layer!r} (known: {LAYERS})")
        actors = self.by_layer.setdefault(layer, {})
        s = actors.get(actor)
        if s is None:
            s = actors[actor] = ActorSummary(actor=actor)
        s.count += 1
        s.total_time += duration
        s.max_duration = max(s.max_duration, duration)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "NoiseAttribution":
        attr = cls()
        for ev in tracer.events:
            attr.record(ev.layer, ev.actor or ev.name, ev.duration)
        return attr

    @classmethod
    def from_jsonl(cls, path: str) -> "NoiseAttribution":
        """Rebuild attribution from a ``trace.jsonl`` event log (the
        :func:`repro.obs.export.write_jsonl` format; ``ts``/``dur`` are
        microseconds there and converted back to seconds)."""
        attr = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    ev = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: not JSON ({exc})") from None
                if isinstance(ev, dict) and "layer" not in ev \
                        and "obs_dropped_total" in ev:
                    continue  # the ring-overflow trailer, not an event
                try:
                    attr.record(ev["layer"], ev.get("actor") or ev["name"],
                                float(ev.get("dur", 0.0)) / 1e6)
                except (KeyError, TypeError) as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: not a trace event "
                        f"({exc})") from None
        return attr

    # -- reading -------------------------------------------------------

    def rank(self, top_n: int = 10) -> list[tuple[str, ActorSummary]]:
        """The ``top_n`` worst (layer, actor) pairs stack-wide, by total
        time (ties broken by count, then name, for determinism)."""
        rows = [(layer, s)
                for layer, actors in self.by_layer.items()
                for s in actors.values()]
        rows.sort(key=lambda r: (-r[1].total_time, -r[1].count,
                                 r[0], r[1].actor))
        return rows[:top_n]

    def layer_report(self, layer: str) -> list[ActorSummary]:
        """All actors of one layer, worst first (§4.2.1 per-layer view)."""
        actors = self.by_layer.get(layer, {})
        return sorted(actors.values(),
                      key=lambda s: (-s.total_time, s.actor))

    def report(self, top_n: int = 10) -> str:
        """The ranked interference table (the Table-2 workflow, now
        cross-layer)."""
        from ..experiments.report import format_table

        rows = []
        for layer, s in self.rank(top_n):
            rows.append([
                layer, s.actor, s.count,
                f"{s.total_time * 1e3:.3f}",
                f"{s.max_duration * 1e6:.1f}",
            ])
        if not rows:
            return "no trace events recorded"
        return format_table(
            ["Layer", "Actor", "Events", "Total (ms)", "Worst (us)"],
            rows,
            title=f"Top {len(rows)} interference actors across the stack",
        )
