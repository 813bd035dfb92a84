"""Span tracer that wraps vcellsim's public functions from outside ``src/``.

Every wrapped call records a span (name, start, end, parent span, trace id)
and a call count. The trace id is the index of the TTI being processed
(-1 before the first tick), taken from the TTI handler the scenario
registers with ``Engine.on``. A span's self time is its duration minus the
time covered by its child spans; because the simulator is single-threaded,
child spans nest strictly and their durations simply add up.

Self times and counts are aggregated for every call. Full span records are
kept in memory only for the first ``SPAN_WINDOW_TTIS`` TTIs, which is enough to
inspect the per-TTI pipeline without holding millions of records.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

TICK_SPAN = "scenario.tick"
SPAN_WINDOW_TTIS = 10


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.tick_s: list[float] = []
        self.spans: list[tuple[str, float, float, Optional[int], int, int]] = []
        self.tti = -1
        self._stack: list[list] = []  # per open span: [child seconds, span id]
        self._next_id = 0

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """Return `fn` wrapped in a span; its value and exceptions pass through."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if name == TICK_SPAN:
                    self.tick_s.append(duration)
                if self.tti < SPAN_WINDOW_TTIS:
                    self.spans.append((name, start, end, parent, self.tti, span_id))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def tick_handler(self, handler: Callable[[Any], None]) -> Callable[[Any], None]:
        """Wrap the TTI handler so spans below it carry the TTI index."""

        def on_tick(event):
            self.tti = event.payload
            return handler(event)

        return self.wrap(TICK_SPAN, on_tick)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tti, span_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "tti": tti}
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap vcellsim's layer boundaries for the rest of the process.

    Names that ``vcellsim.scenario`` imports with ``from ... import`` are
    patched in that namespace, where the scenario looks them up; methods
    are patched on their classes.
    """
    import vcellsim
    from vcellsim import scenario
    from vcellsim.binder import Binder
    from vcellsim.channel import ChannelModel
    from vcellsim.engine import Engine, EventKind
    from vcellsim.mac import Mac
    from vcellsim.metrics import MetricsReport
    from vcellsim.rrc import Rrc

    counts = tracer.counts

    def on_measure(report) -> None:
        counts[f"channel.cqi_hist.{report.cqi}"] += 1

    def on_handover_check(decision) -> None:
        if decision is not None:
            counts["rrc.ho_decisions"] += 1

    def on_transmit(outcome) -> None:
        # A grant's packets are taken before the decode gate: delivered on
        # success, dropped on failure. A grant that took nothing is empty
        # and all its RBs are wasted.
        for g in outcome.grant_outcomes.values():
            carried = sum(p.size_bits for p in g.delivered) if g.decoded else g.dropped_bits
            counts["mac.grants"] += 1
            if carried == 0:
                counts["mac.empty_grants"] += 1
                counts["mac.wasted_rbs"] += g.rb_count
            elif g.decoded:
                counts["mac.useful_grants"] += 1
            else:
                counts["mac.decode_failures"] += 1

    def on_enqueue(accepted) -> None:
        if not accepted:
            counts["mac.tail_drops"] += 1

    def on_flow_events(events) -> None:
        counts["traffic.flow_events"] += len(events)

    def on_run_until(summary) -> None:
        for kind, n in summary.counts.items():
            counts[f"engine.events.{kind.name}"] += n

    patches = [
        (vcellsim, "load_config", "config.load", None),
        (vcellsim, "write_outputs", "metrics.write", None),
        (scenario, "write_outputs", "metrics.write", None),
        (scenario, "load_trace", "mobility.load_trace", None),
        (scenario, "position_at", "mobility.position_at", None),
        (scenario, "generate_flow_events", "traffic.generate", on_flow_events),
        (Binder, "live_nodes", "binder.live_nodes", None),
        (Binder, "register_node", "binder.register_node", None),
        (Binder, "deregister_node", "binder.deregister_node", None),
        (Binder, "record_allocation", "binder.record_allocation", None),
        (ChannelModel, "measure", "channel.measure", on_measure),
        (ChannelModel, "sinr", "channel.sinr", None),
        (ChannelModel, "rx_power_from_cell", "channel.rx_power_from_cell", None),
        (Rrc, "handover_check", "rrc.handover_check", on_handover_check),
        (Rrc, "initial_association", "rrc.initial_association", None),
        (Mac, "schedule_tti_rr", "mac.schedule", None),
        (Mac, "schedule_tti_maxcqi", "mac.schedule", None),
        (Mac, "transmit", "mac.transmit", on_transmit),
        (Mac, "enqueue", "mac.enqueue", on_enqueue),
        (Engine, "run_until", "engine.run_until", on_run_until),
        (MetricsReport, "verify_conservation", "metrics.verify", None),
    ]
    for owner, attr, name, hook in patches:
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], hook))

    original_on = Engine.on

    def on(engine, kind, handler):
        if kind is EventKind.TTI_TICK:
            wrapped = tracer.tick_handler(handler)
        else:
            wrapped = tracer.wrap(f"scenario.on_{kind.name.lower()}", handler)
        original_on(engine, kind, wrapped)

    Engine.on = on


# Span names reported as call counts and as self seconds.
CALLS = (
    "mobility.position_at",
    "binder.live_nodes",
    "binder.record_allocation",
    "channel.measure",
    "channel.sinr",
    "channel.rx_power_from_cell",
    "rrc.handover_check",
    "mac.schedule",
    "mac.transmit",
    "mac.enqueue",
)
SELF = CALLS[:-1] + (
    "binder.register_node",
    "binder.deregister_node",
    "rrc.initial_association",
    "scenario.tick",
)
# Metric name -> span whose self time it reports.
SPAN_SECONDS = {
    "mobility.load_trace_s": "mobility.load_trace",
    "traffic.generate_s": "traffic.generate",
    "config.load_s": "config.load",
    "metrics.verify_s": "metrics.verify",
    "metrics.write_s": "metrics.write",
    "engine.dispatch_self_s": "engine.run_until",
}
COUNTS = (
    "rrc.ho_decisions",
    "mac.grants",
    "mac.empty_grants",
    "mac.wasted_rbs",
    "mac.decode_failures",
    "mac.tail_drops",
    "traffic.flow_events",
) + tuple(f"channel.cqi_hist.{k}" for k in range(16))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    from vcellsim.engine import EventKind

    out: dict[str, tuple[float, str]] = {}
    for span in CALLS:
        out[f"{span}.calls"] = (tracer.calls[span], "count")
    for span in SELF:
        out[f"{span}.self_s"] = (tracer.self_s[span], "s")
    for metric, span in SPAN_SECONDS.items():
        out[metric] = (tracer.self_s[span], "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    for kind in EventKind:
        out[f"engine.events.{kind.name}"] = (tracer.counts[f"engine.events.{kind.name}"], "count")
    grants = tracer.counts["mac.grants"]
    useful = tracer.counts["mac.useful_grants"] / grants if grants else 0.0
    out["mac.useful_grant_ratio"] = (useful, "ratio")
    return out
