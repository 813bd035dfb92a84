"""Deterministic discrete-event core.

Simulation time is kept as integer microseconds so that TTI arithmetic is
exact; one LTE transmission slot (TTI) lasts 1 ms. Events fire strictly in
(fire_time, sequence) order, a rescheduled event keeping its number, so two
runs fed the same schedule produce the same processed-event trace bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

from .errors import EngineError

US_PER_MS = 1_000
US_PER_S = 1_000_000
TTI_US = 1_000  # one transmission slot of 1 ms


def s_to_us(seconds: float) -> int:
    return round(seconds * US_PER_S)


def ms_to_us(millis: float) -> int:
    return round(millis * US_PER_MS)


def us_to_s(us: int) -> float:
    return us / US_PER_S


class EventKind(Enum):
    TTI_TICK = "TTI_TICK"
    VEHICLE_ENTER = "VEHICLE_ENTER"
    VEHICLE_LEAVE = "VEHICLE_LEAVE"
    PACKET_ARRIVAL = "PACKET_ARRIVAL"
    BACKHAUL_DELIVERY = "BACKHAUL_DELIVERY"
    SIM_END = "SIM_END"

    __hash__ = object.__hash__  # in C, as `Direction.__hash__` (binder.py)


@dataclass
class SimEvent:
    """A scheduled occurrence; `sequence` is assigned by the engine unless set."""

    fire_time: int  # microseconds
    kind: EventKind
    payload: Any = None
    sequence: Optional[int] = None


@dataclass
class RunSummary:
    counts: dict[EventKind, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class Engine:
    """Single-threaded event queue with a monotone clock.

    Handlers are registered per event kind; kinds without a handler are
    counted but otherwise ignored, which keeps the engine testable on its
    own. Same-timestamp events fire in sequence order, for fresh events FIFO.
    A caller that presets `sequence` must not tie a pending event's (time, seq).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._seq = 0
        self._handlers: dict[EventKind, Callable[[SimEvent], None]] = {}

    def on(self, kind: EventKind, handler: Callable[[SimEvent], None]) -> None:
        self._handlers[kind] = handler

    def schedule(self, event: SimEvent) -> None:
        if event.fire_time < self.now:
            raise EngineError(
                f"event {event.kind.value} scheduled at {event.fire_time} us, "
                f"but clock is already {self.now} us"
            )
        if event.sequence is None:
            event.sequence, self._seq = self._seq, self._seq + 1
        heapq.heappush(self._heap, (event.fire_time, event.sequence, event))

    def schedule_at(self, fire_time: int, kind: EventKind, payload: Any = None) -> None:
        self.schedule(SimEvent(fire_time, kind, payload))

    def run_until(self, t_end: int) -> RunSummary:
        """Process every event with fire_time <= t_end, then set clock to t_end."""
        if t_end < self.now:
            raise EngineError(f"run_until({t_end}) is before current clock {self.now}")
        counts: dict[EventKind, int] = {}
        while self._heap and self._heap[0][0] <= t_end:
            fire_time, _, event = heapq.heappop(self._heap)
            self.now = fire_time
            counts[event.kind] = counts.get(event.kind, 0) + 1
            handler = self._handlers.get(event.kind)
            if handler is not None:
                try:
                    handler(event)
                except Exception as exc:
                    raise EngineError(
                        f"handler for {event.kind.value} (seq {event.sequence}) "
                        f"failed at t={fire_time} us: {exc}"
                    ) from exc
        self.now = t_end
        return RunSummary(counts)
