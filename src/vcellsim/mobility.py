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
import os
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, chain
from typing import IO, Iterable, Iterator

from .engine import US_PER_S, EventKind, SimEvent, s_to_us
from .errors import TraceError

log = logging.getLogger(__name__)

TRACE_HEADER = "time_s,vehicle,x_m,y_m"


@dataclass(frozen=True)
class AccidentSpec:
    """A stop of `duration_us` beginning `start_us` after vehicle departure."""

    start_us: int
    duration_us: int

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("accident start must be non-negative")
        if self.duration_us <= 0:
            raise ValueError("accident duration must be positive")


@dataclass(frozen=True)
class Trajectory:
    """One vehicle's route as three aligned sample columns: `times` (int us,
    strictly increasing) an array('q'), `xs` and `ys` array('d'). Arrays hold
    no per-row objects, so the garbage collector never walks a route."""

    vehicle_name: str
    times: array
    xs: array
    ys: array

    def __post_init__(self) -> None:
        times = self.times
        if not times:
            raise TraceError(f"vehicle {self.vehicle_name!r} has no samples")
        if not len(times) == len(self.xs) == len(self.ys):
            raise ValueError(f"vehicle {self.vehicle_name!r}: sample columns differ in length")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise TraceError(
                    f"vehicle {self.vehicle_name!r}: non-increasing sample times "
                    f"({a} us then {b} us)"
                )

    @property
    def enter_us(self) -> int:
        return self.times[0]

    @property
    def leave_us(self) -> int:
        return self.times[-1]

    @cached_property
    def top_speed(self) -> float:
        """The largest segment speed, in metres per microsecond; 0 for one sample.
        Computed on first read, as most runs never ask."""
        times, xs, ys = self.times, self.xs, self.ys
        return max(
            (
                math.hypot(xs[i] - xs[i - 1], ys[i] - ys[i - 1]) / (times[i] - times[i - 1])
                for i in range(1, len(times))
            ),
            default=0.0,
        )


def _decode(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(
            f"line {lineno}: trace is not valid UTF-8: {exc.reason} "
            f"at byte {exc.start} of the line"
        ) from exc


def parse_trace(source: IO[bytes]) -> list[Trajectory]:
    """Parse a trace CSV, read line by line from a binary file, into one
    Trajectory per vehicle.

    Rows end in LF or CRLF. They need not be globally time-sorted, but each
    vehicle's rows must be strictly increasing in time. Returns an empty
    list for an empty or all-blank input.
    """
    lines = enumerate(source, start=1)
    try:
        return _parse_lines(lines)
    except TraceError:
        # as with a whole-file decode, a bad byte anywhere is the error reported
        for lineno, raw in lines:
            _decode(raw, lineno)
        raise


def _parse_lines(lines: Iterator[tuple[int, bytes]]) -> list[Trajectory]:
    header = _decode(next(lines, (1, b""))[1], 1).strip()
    if header != TRACE_HEADER:
        if not header and all(not _decode(raw, n).strip() for n, raw in lines):
            return []
        raise TraceError(f"line 1: expected header {TRACE_HEADER!r}, got {header!r}")

    columns: dict[str, tuple[array, array, array]] = {}
    for lineno, raw in lines:
        line = _decode(raw, lineno).strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise TraceError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        time_str, vehicle, x_str, y_str = parts  # float() ignores surrounding spaces
        vehicle = vehicle.strip()
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
        if t * US_PER_S >= 2**63:  # checked as a float: s_to_us(1e303) overflows
            raise TraceError(f"line {lineno}: time {t} s is past int64 microseconds")
        t_us = s_to_us(t)
        cols = columns.get(vehicle)
        if cols is None:
            cols = columns[vehicle] = (array("q"), array("d"), array("d"))
        elif t_us <= cols[0][-1]:
            raise TraceError(
                f"line {lineno}: vehicle {vehicle!r} time not strictly increasing"
            )
        cols[0].append(t_us)
        cols[1].append(x)
        cols[2].append(y)

    return [Trajectory(name, *cols) for name, cols in columns.items()]


def load_trace(path) -> list[Trajectory]:
    """Parse the trace at `path`, or read `<path>.vcellsim-cache`; a TraceError names the file."""
    cache = f"{os.fspath(path)}.vcellsim-cache"
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        key = _cache_key(fh) if fh.seekable() else None  # a pipe can be read only once
        trajs = _read_cache(cache, key, before.st_uid) if key else None
        if trajs is None:
            try:
                trajs = parse_trace(fh)
            except TraceError as exc:
                raise TraceError(f"{path}: {exc}") from exc
            after = os.fstat(fh.fileno())  # a rewrite during the parse moves its size or mtime
            if key and (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
                _write_cache(cache, key, trajs)
    return trajs


def _cache_key(trace: IO[bytes]) -> bytes | None:
    """The cache's first line: checksums of the trace (then rewound) and its parser, and Python."""
    key, here = [sys.version, sys.byteorder], os.path.dirname(__file__)
    try:
        with open(__file__, "rb") as own, open(os.path.join(here, "engine.py"), "rb") as engine:
            for fh in (trace, own, engine):
                crc, adler = 0, 1
                for chunk in iter(partial(fh.read, 1 << 16), b""):
                    crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
                key += [crc, adler, fh.tell()]
    except OSError:  # the parse then fails as it would uncached
        return None
    finally:
        trace.seek(0)
    return repr(key).encode() + b"\n"


def _read_cache(cache: str, key: bytes, owner: int) -> list[Trajectory] | None:
    """The trajectories `cache` holds under `key`, else None. After the key: the counts of vehicles,
    name bytes and rows; rows per vehicle; newline-joined names; times; xs; ys; a CRC-32 of all."""
    with suppress(OSError, EOFError, ValueError, TraceError), open(cache, "rb") as fh:
        stat = os.fstat(fh.fileno())  # another user may plant one in /tmp; int() = 0 off POSIX
        if stat.st_uid not in (owner, getattr(os, "geteuid", int)()) or fh.read(len(key)) != key:
            return None
        cols = [key] + [array(typecode) for typecode in "qqBqddq"]
        cols[1].fromfile(fh, 3)
        vehicles, name_bytes, rows = sizes = cols[1]
        if min(sizes) < 0 or 8 * (vehicles + 3 * rows + 1) + name_bytes != stat.st_size - fh.tell():
            return None  # the counts must fill the file exactly: checked before allocating
        for col, count in zip(cols[2:], (vehicles, name_bytes, rows, rows, rows, 1)):
            col.fromfile(fh, count)
        counts, names, times, xs, ys, (stored,) = cols[2:]
        ends = list(accumulate(counts, initial=0))
        crc = reduce(lambda crc, col: zlib.crc32(col, crc), cols[:-1], 0)
        if crc != stored or ends[-1] != rows:
            return None
        return [Trajectory(name, times[a:b], xs[a:b], ys[a:b])
                for name, a, b in zip(names.tobytes().decode().split("\n"), ends, ends[1:])]


def _write_cache(cache: str, key: bytes, trajs: list[Trajectory]) -> None:
    """Replace `cache` whole with `trajs` through a temporary file, or leave it as it is."""
    tmp, counts = f"{cache}.{os.getpid()}", [len(t.times) for t in trajs]
    names = "\n".join(t.vehicle_name for t in trajs).encode()  # a parsed name holds no newline
    with suppress(OSError):  # a read-only directory, a full disk
        with open(tmp, "xb") as fh:  # exclusive: no work before it, and no planted link followed
            crc = 0
            for col in chain([key, array("q", [len(trajs), len(names), sum(counts)] + counts)],
                             [names], (t.times for t in trajs), (t.xs for t in trajs),
                             (t.ys for t in trajs)):
                crc = zlib.crc32(col, crc)
                fh.write(col)
            fh.write(array("q", [crc]))
        os.replace(tmp, cache)
    with suppress(OSError):
        os.remove(tmp)  # left by a failed write


def position_at(traj: Trajectory, t_us: int) -> tuple[float, float]:
    """Linearly interpolated position; exact sample times return the sample."""
    times, xs, ys = traj.times, traj.xs, traj.ys
    if t_us < times[0] or t_us > times[-1]:
        raise ValueError(
            f"t={t_us} us outside lifetime [{traj.enter_us}, {traj.leave_us}] "
            f"of vehicle {traj.vehicle_name!r}"
        )
    i = bisect_left(times, t_us)  # < len(times): t_us <= leave_us
    if times[i] == t_us:
        return (xs[i], ys[i])
    t0, x0, y0 = times[i - 1], xs[i - 1], ys[i - 1]
    x1, y1 = xs[i], ys[i]
    frac = (t_us - t0) / (times[i] - t0)
    return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


def apply_accident(traj: Trajectory, spec: AccidentSpec) -> Trajectory:
    """Freeze the vehicle at the accident point, then resume the route shifted.

    The position reached at departure + start is held for the accident
    duration; every later sample is delayed by that duration, extending the
    lifetime accordingly. A window that begins after the vehicle's last
    sample is ignored with a warning, and one that delays the route past
    int64 microseconds is a TraceError.
    """
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
    if traj.leave_us + dur >= 2**63:
        raise TraceError(
            f"vehicle {traj.vehicle_name!r}: accident delays its route end past int64 microseconds"
        )
    times = traj.times
    head = bisect_left(times, t_stop)  # samples before the stop
    tail = bisect_right(times, t_stop)  # samples after it, shifted by dur
    return Trajectory(
        traj.vehicle_name,
        times[:head] + array("q", [t_stop, t_stop + dur, *(t + dur for t in times[tail:])]),
        traj.xs[:head] + array("d", (x0, x0)) + traj.xs[tail:],
        traj.ys[:head] + array("d", (y0, y0)) + traj.ys[tail:],
    )


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
