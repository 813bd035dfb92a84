"""Trace-driven vehicle mobility.

Vehicles are described by floating-car-data style CSV traces (header
``time_s,vehicle,x_m,y_m``). A vehicle exists from its first to its last
sample; positions in between are linearly interpolated. An optional
accident freezes the vehicle in place for a while and delays the rest of
its route by the same amount.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

from .engine import EventKind, SimEvent, s_to_us
from .errors import TraceError

log = logging.getLogger(__name__)

TRACE_HEADER = "time_s,vehicle,x_m,y_m"


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    time_us: int
    x: float
    y: float


@dataclass(frozen=True)
class AccidentSpec:
    """A stop of `duration_us` beginning `start_us` after vehicle departure."""

    count: int
    start_us: int
    duration_us: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("accident count must be non-negative")
        if self.start_us < 0:
            raise ValueError("accident start must be non-negative")
        if self.count > 0 and self.duration_us <= 0:
            raise ValueError("accident duration must be positive when count > 0")


@dataclass(frozen=True)
class Trajectory:
    """One vehicle's route; `samples` may be given as any sequence, kept as a tuple."""

    vehicle_name: str
    samples: tuple[TrajectorySample, ...]
    accident: AccidentSpec | None = None
    # every sample's time_us, derived once below so position_at can bisect it
    times: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        if not samples:
            raise TraceError(f"vehicle {self.vehicle_name!r} has no samples")
        times = tuple([s.time_us for s in samples])  # a list builds faster on 3.11
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise TraceError(
                    f"vehicle {self.vehicle_name!r}: non-increasing sample times "
                    f"({a} us then {b} us)"
                )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "times", times)

    @property
    def enter_us(self) -> int:
        return self.times[0]

    @property
    def leave_us(self) -> int:
        return self.times[-1]


def parse_trace(source: Union[bytes, IO[bytes], IO[str], str]) -> list[Trajectory]:
    """Parse a trace CSV into one Trajectory per vehicle.

    Rows need not be globally time-sorted, but each vehicle's rows must be
    strictly increasing in time. Returns an empty list for empty input.
    """
    raw = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = raw.count(b"\n", 0, exc.start) + 1
            raise TraceError(
                f"line {lineno}: trace is not valid UTF-8: {exc.reason} at byte {exc.start}"
            ) from exc
    else:
        text = raw

    lines = text.splitlines()
    if not lines or all(not ln.strip() for ln in lines):
        return []

    header = lines[0].strip()
    if header != TRACE_HEADER:
        raise TraceError(f"line 1: expected header {TRACE_HEADER!r}, got {header!r}")

    rows_by_vehicle: dict[str, list[TrajectorySample]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise TraceError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        time_str, vehicle, x_str, y_str = parts
        if not vehicle:
            raise TraceError(f"line {lineno}: empty vehicle name")
        try:
            t = float(time_str)
            x = float(x_str)
            y = float(y_str)
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            raise TraceError(f"line {lineno}: non-finite value")
        if t < 0:
            raise TraceError(f"line {lineno}: negative time {t}")
        sample = TrajectorySample(s_to_us(t), x, y)
        prev = rows_by_vehicle.get(vehicle)
        if prev and sample.time_us <= prev[-1].time_us:
            raise TraceError(
                f"line {lineno}: vehicle {vehicle!r} time not strictly increasing"
            )
        rows_by_vehicle.setdefault(vehicle, []).append(sample)

    return [Trajectory(name, samples) for name, samples in rows_by_vehicle.items()]


def load_trace(path) -> list[Trajectory]:
    """Parse the trace file at `path`; a TraceError names the file."""
    with open(path, "rb") as fh:
        try:
            return parse_trace(fh)
        except TraceError as exc:
            raise TraceError(f"{path}: {exc}") from exc


def position_at(traj: Trajectory, t_us: int) -> tuple[float, float]:
    """Linearly interpolated position; exact sample times return the sample."""
    if t_us < traj.enter_us or t_us > traj.leave_us:
        raise ValueError(
            f"t={t_us} us outside lifetime [{traj.enter_us}, {traj.leave_us}] "
            f"of vehicle {traj.vehicle_name!r}"
        )
    times = traj.times
    i = bisect_left(times, t_us)
    if i < len(times) and times[i] == t_us:
        s = traj.samples[i]
        return (s.x, s.y)
    lo = traj.samples[i - 1]
    hi = traj.samples[i]
    frac = (t_us - lo.time_us) / (hi.time_us - lo.time_us)
    return (lo.x + frac * (hi.x - lo.x), lo.y + frac * (hi.y - lo.y))


def apply_accident(traj: Trajectory, spec: AccidentSpec) -> Trajectory:
    """Freeze the vehicle at the accident point, then resume the route shifted.

    The position reached at departure + start is held for the accident
    duration; every later sample is delayed by that duration, extending the
    lifetime accordingly. A window that begins after the vehicle's last
    sample is ignored with a warning.
    """
    if spec.count == 0:
        return traj
    if spec.count != 1:
        raise ValueError("at most one accident per vehicle is supported")
    t_stop = traj.enter_us + spec.start_us
    if t_stop > traj.leave_us:
        log.warning(
            "vehicle %s: accident start %d us is after route end; ignored",
            traj.vehicle_name,
            t_stop,
        )
        return traj
    x0, y0 = position_at(traj, t_stop)
    dur = spec.duration_us
    head = [s for s in traj.samples if s.time_us < t_stop]
    tail = [
        TrajectorySample(s.time_us + dur, s.x, s.y)
        for s in traj.samples
        if s.time_us > t_stop
    ]
    frozen = [TrajectorySample(t_stop, x0, y0), TrajectorySample(t_stop + dur, x0, y0)]
    return Trajectory(traj.vehicle_name, head + frozen + tail, accident=spec)


def lifecycle_events(trajectories: Iterable[Trajectory]) -> list[SimEvent]:
    """One VEHICLE_ENTER and one VEHICLE_LEAVE per trajectory, time-sorted.

    Simultaneous events are ordered by vehicle name; a vehicle's ENTER
    always precedes its LEAVE.
    """
    events: list[SimEvent] = []
    for traj in trajectories:
        events.append(SimEvent(traj.enter_us, EventKind.VEHICLE_ENTER, traj.vehicle_name))
        events.append(SimEvent(traj.leave_us, EventKind.VEHICLE_LEAVE, traj.vehicle_name))
    events.sort(key=lambda e: (e.fire_time, e.payload))
    return events
