import gc
import io
import math
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from vcellsim import mobility
from vcellsim.engine import EventKind, s_to_us
from vcellsim.errors import TraceError
from vcellsim.mobility import (
    AccidentSpec,
    Trajectory,
    apply_accident,
    lifecycle_events,
    load_trace,
    parse_trace,
    position_at,
)

from conftest import make_trace
from oracles import reference_position


def _traj(name, points):
    return _columns(name, [(s_to_us(t), x, y) for t, x, y in points])


def _columns(name, table):
    """A Trajectory from a (t_us, x, y) sample table."""
    times, xs, ys = zip(*table)
    return Trajectory(name, array("q", times), array("d", xs), array("d", ys))


def _table(traj):
    return list(zip(traj.times, traj.xs, traj.ys))


def _parse(content):
    """parse_trace over an in-memory binary file holding `content`."""
    return parse_trace(io.BytesIO(content.encode() if isinstance(content, str) else content))


# ----------------------------------------------------------------------
# parse_trace


def test_empty_input_gives_empty_list():
    assert _parse(b"") == []
    assert _parse("   \n  \n") == []


def test_single_vehicle_two_samples():
    trajs = _parse(make_trace([(0, "car0", 0, 0), (10, "car0", 100, 0)]))
    assert len(trajs) == 1
    t = trajs[0]
    assert t.vehicle_name == "car0"
    assert t.enter_us == 0
    assert t.leave_us == s_to_us(10)


def test_interleaved_vehicles_match_group_sort_oracle():
    rows = [
        (0.0, "car0", 0, 0),
        (0.5, "car1", 5, 5),
        (1.0, "car0", 10, 0),
        (1.5, "car1", 15, 5),
        (2.0, "car0", 20, 0),
    ]
    trajs = {t.vehicle_name: t for t in _parse(make_trace(rows))}

    # oracle: group by vehicle, then sort each group's samples by time
    oracle = {}
    for t, name, x, y in rows:
        oracle.setdefault(name, []).append((s_to_us(t), float(x), float(y)))
    for name in oracle:
        oracle[name].sort()

    assert set(trajs) == set(oracle)
    for name, samples in oracle.items():
        assert _table(trajs[name]) == samples


def test_malformed_row_reports_line_number():
    text = make_trace([(0, "car0", 0, 0)]) + "not,a,row\n"
    with pytest.raises(TraceError, match="line 3"):
        _parse(text)


def test_non_monotonic_vehicle_times_rejected():
    text = make_trace([(5, "car0", 0, 0), (4, "car0", 1, 0)])
    with pytest.raises(TraceError, match="strictly increasing"):
        _parse(text)


def test_bad_header_rejected():
    with pytest.raises(TraceError, match="line 1"):
        _parse("time,who,x,y\n0,car0,0,0\n")


def test_non_finite_coordinate_rejected():
    with pytest.raises(TraceError, match="line 2"):
        _parse(make_trace([(0, "car0", "nan", 0)]))


def test_non_utf8_bytes_raise_trace_error_with_line():
    with pytest.raises(TraceError, match="line 1: trace is not valid UTF-8"):
        _parse(b"\xff\xfe")
    text = make_trace([(0, "car0", 0, 0)]).encode() + b"1,car0,\xe9,0\n"
    with pytest.raises(TraceError, match="line 3: trace is not valid UTF-8"):
        _parse(text)


@pytest.mark.parametrize(
    "content, where",
    [
        (make_trace([(0, "car0", 0, 0)]) + "not,a,row\n", "line 3"),
        (make_trace([(0, "car0", "inf", 0)]).encode() + b"\xff", "line 3"),
        (make_trace([(0, "car0", 0, 0), (0, "car0", 1, 0)]), "line 3"),
        (make_trace([(0, "car0", 0, 0), (1, "", 1, 0)]), "line 3"),
        (make_trace([(0, "car0", 0, 0), (-1, "car1", 1, 0)]), "line 3"),
    ],
)
def test_load_trace_errors_name_the_file(tmp_path, content, where):
    path = tmp_path / "route.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(TraceError, match=re.escape(f"{path}: {where}")):
        load_trace(path)


def test_crlf_rows_parse_like_lf_rows():
    text = make_trace([(0, "car0", 0, 0), (0.5, "car0", 1.5, 2), (0.2, "car1", 3, 4)])
    assert _parse(text.replace("\n", "\r\n")) == _parse(text)
    with pytest.raises(TraceError, match="line 5: expected 4 fields"):
        _parse(text.replace("\n", "\r\n") + "1,car0\r\n")


def test_spaces_around_fields_are_stripped():
    plain = _parse(make_trace([(0, "car0", 0, 0), (0.5, "car0", 1.5, 2)]))
    spaced = _parse(make_trace([(0, "car0", 0, 0)]) + "0.5 , car0 , 1.5 , 2\n")
    assert spaced == plain
    assert spaced[0].vehicle_name == "car0"


ROWS, VEHICLES = 50_000, 50


def _many_rows_file():
    """An in-memory binary trace file of ROWS rows over VEHICLES vehicles."""
    text = make_trace(
        (f"{k // VEHICLES * 0.1:.1f}", f"car{k % VEHICLES}", k * 0.25, -k * 0.5)
        for k in range(ROWS)
    )
    return io.BytesIO(text.encode())


def _traced(load, source):
    """`load(source)` under tracemalloc; returns (peak bytes, retained bytes),
    both counted from the start of the load."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trajs = load(source)
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trajs) == VEHICLES
    assert sum(len(t.times) for t in trajs) == ROWS
    return peak, retained


def test_parsed_trace_retains_at_most_80_bytes_per_row():
    _, retained = _traced(parse_trace, _many_rows_file())
    assert retained / ROWS <= 80, f"{retained / ROWS:.1f} B per row"


def test_parse_peak_is_at_most_100_bytes_per_row():
    # the file is read one line at a time, so the peak stays near the
    # retained store (about 58 B per row) rather than adding the whole text
    peak, _ = _traced(parse_trace, _many_rows_file())
    assert peak / ROWS <= 100, f"{peak / ROWS:.1f} B per row"


def test_a_load_from_the_cache_peaks_at_100_and_retains_80_bytes_per_row(
    tmp_path, monkeypatch
):
    # the three columns are read whole (24 B per row) and sliced into the
    # store, and the trace is checksummed in 64 KiB chunks, so a cache hit
    # peaks near what a parse keeps
    trace = tmp_path / "trace.csv"
    trace.write_bytes(_many_rows_file().getvalue())
    load_trace(trace)  # writes the cache
    monkeypatch.setattr(mobility, "parse_trace", None)  # so only a cache hit can load
    peak, retained = _traced(load_trace, trace)
    assert peak / ROWS <= 100, f"{peak / ROWS:.1f} B per row at the peak"
    assert retained / ROWS <= 80, f"{retained / ROWS:.1f} B per row retained"


# ----------------------------------------------------------------------
# position_at


def test_position_at_sample_time_returns_sample():
    t = _traj("v", [(0, 0, 0), (10, 100, 50)])
    assert position_at(t, s_to_us(10)) == (100, 50)


def test_position_at_midpoint_interpolates():
    t = _traj("v", [(0, 0, 0), (10, 100, 0)])
    assert position_at(t, s_to_us(5)) == (50.0, 0.0)


def test_position_outside_lifetime_rejected():
    t = _traj("v", [(0, 0, 0), (10, 100, 0)])
    with pytest.raises(ValueError):
        position_at(t, s_to_us(10) + 1000)
    with pytest.raises(ValueError):
        position_at(t, -1)


def test_position_is_continuous_at_sample_boundaries():
    t = _traj("v", [(0, 0, 0), (5, 40, 10), (10, 100, 0)])
    eps = 1  # one microsecond
    for boundary_s in (5,):
        at = position_at(t, s_to_us(boundary_s))
        before = position_at(t, s_to_us(boundary_s) - eps)
        after = position_at(t, s_to_us(boundary_s) + eps)
        assert math.dist(at, before) < 1e-3
        assert math.dist(at, after) < 1e-3


def _probes(times, rng):
    """Lifetime ends, some sample times and their +-1 us neighbours, random times."""
    enter, leave = times[0], times[-1]
    picked = [times[1], times[-2]] + rng.sample(times, 40)
    near = [t + d for t in picked for d in (-1, 0, 1)]
    spread = [rng.randint(enter, leave) for _ in range(60)]
    return [enter, leave] + [t for t in near + spread if enter <= t <= leave]


def _assert_matches_oracle(traj, table, rng):
    for t in _probes([row[0] for row in table], rng):
        assert position_at(traj, t) == reference_position(table, t), t


@st.composite
def _long_route(draw):
    """At least 5000 samples: 1 us, 2 us and up to 5 s steps, from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(0, 10**9))
    table = []
    for _ in range(draw(st.integers(5000, 5500))):
        table.append((t, rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3)))
        t += rng.choice((1, 2, 1_000_000, rng.randint(3, 5_000_000)))
    return table, rng


@settings(max_examples=15, deadline=None)
@given(_long_route(), st.data())
def test_position_at_on_long_trajectory_matches_linear_scan_oracle(case, data):
    table, rng = case
    traj = _columns("v", table)
    _assert_matches_oracle(traj, table, rng)

    span = traj.leave_us - traj.enter_us
    spec = AccidentSpec(data.draw(st.integers(0, span)), data.draw(st.integers(1, 10**8)))
    shifted = apply_accident(traj, spec)
    _assert_matches_oracle(shifted, _table(shifted), rng)


# ----------------------------------------------------------------------
# the trajectory columns


def test_columns_are_an_int_and_two_float_arrays():
    (parsed,) = _parse(make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0), (3, "car0", 9, 2)]))
    built = _traj("v", [(0, 0, 0), (10, 100, 0), (20, 100, 50)])
    shifted = apply_accident(built, AccidentSpec(s_to_us(5), s_to_us(7)))
    for traj in (parsed, built, shifted):
        assert (traj.times.typecode, traj.xs.typecode, traj.ys.typecode) == ("q", "d", "d")
        assert len(traj.times) == len(traj.xs) == len(traj.ys)
    assert shifted.times == array("q", [s_to_us(t) for t in (0, 5, 12, 17, 27)])


def test_misaligned_columns_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        Trajectory("v", array("q", [0, 1]), array("d", [0.0]), array("d", [0.0, 1.0]))


# ----------------------------------------------------------------------
# apply_accident


def test_top_speed_is_the_fastest_segment_of_the_route():
    # stopped, then 3-4-5 m in 1 s, then 10 m/s; one sample has no segment
    t = _traj("car0", [(0, 0, 0), (10, 0, 0), (11, 3, 4), (21, 103, 4)])
    assert t.top_speed == 10.0 / 1e6  # metres per microsecond
    assert _traj("car1", [(5, 1, 1)]).top_speed == 0.0
    # the accident's freeze and shift leave the route's speeds as they were
    assert apply_accident(t, AccidentSpec(s_to_us(15), s_to_us(30))).top_speed == t.top_speed


@given(st.lists(st.tuples(st.integers(1, 5000), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=2, max_size=8))
def test_no_route_moves_faster_than_its_top_speed(steps):
    table, t = [], 0
    for dt_ms, x, y in steps:
        t += dt_ms * 1000
        table.append((t, x, y))
    traj = _columns("car", table)
    probes = sorted({traj.enter_us + (traj.leave_us - traj.enter_us) * k // 16 for k in range(17)})
    for a, b in zip(probes, probes[1:]):
        moved = math.dist(position_at(traj, a), position_at(traj, b))
        assert moved <= traj.top_speed * (b - a) * (1 + 1e-9) + 1e-9


def test_accident_freezes_position_for_the_window():
    # departure at 0, stop after 20 s, lasting 30 s
    t = _traj("car0", [(0, 0, 0), (100, 1000, 0)])
    spec = AccidentSpec(s_to_us(20), s_to_us(30))
    frozen = apply_accident(t, spec)
    x_stop, y_stop = position_at(t, s_to_us(20))
    for probe_s in (20, 25, 35, 49.999):
        assert position_at(frozen, s_to_us(probe_s)) == (x_stop, y_stop)
    assert frozen.leave_us == t.leave_us + s_to_us(30)


def test_accident_shifts_later_positions_by_duration():
    # 0 -> 1000 m over 100 s at 10 m/s; stopped during [20 s, 50 s)
    t = _traj("car0", [(0, 0, 0), (100, 1000, 0)])
    frozen = apply_accident(t, AccidentSpec(s_to_us(20), s_to_us(30)))
    x, y = position_at(frozen, s_to_us(60))
    assert x == pytest.approx(300.0)  # original position at 30 s
    assert y == 0.0


def test_accident_window_after_route_end_is_ignored():
    t = _traj("v", [(0, 0, 0), (10, 100, 0)])
    out = apply_accident(t, AccidentSpec(s_to_us(50), s_to_us(30)))
    assert out is t


@st.composite
def _route_and_accident(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    times = sorted(draw(st.lists(st.integers(1, 200), min_size=n, max_size=n, unique=True)))
    points = [(t, float(draw(st.integers(-500, 500))), float(draw(st.integers(-500, 500)))) for t in times]
    start = draw(st.integers(0, times[-1] - times[0]))
    duration = draw(st.integers(1, 60))
    return points, start, duration


@given(_route_and_accident())
def test_accident_matches_piecewise_shift_oracle(case):
    points, start_s, duration_s = case
    traj = _traj("v", points)
    spec = AccidentSpec(s_to_us(start_s), s_to_us(duration_s))
    shifted = apply_accident(traj, spec)

    t_stop = traj.enter_us + spec.start_us
    dur = spec.duration_us
    probes = [traj.enter_us, t_stop, *traj.times]
    for t in probes:
        if t < t_stop:
            # before the stop: unchanged
            assert position_at(shifted, t) == position_at(traj, t)
        else:
            # after the stop: original path delayed by the accident duration
            ox, oy = position_at(traj, t)
            sx, sy = position_at(shifted, t + dur)
            assert sx == pytest.approx(ox, abs=1e-9)
            assert sy == pytest.approx(oy, abs=1e-9)
    # inside the window the position is pinned at the stop point
    stop_pos = position_at(traj, t_stop)
    for frac in (0.0, 0.5, 0.99):
        t_in = t_stop + int(frac * dur)
        assert position_at(shifted, t_in) == stop_pos


@given(_route_and_accident())
def test_accident_preserves_path_length(case):
    points, start_s, duration_s = case
    traj = _traj("v", points)
    shifted = apply_accident(traj, AccidentSpec(s_to_us(start_s), s_to_us(duration_s)))

    def path_length(t):
        points = list(zip(t.xs, t.ys))
        return sum(math.dist(a, b) for a, b in zip(points, points[1:]))

    assert path_length(shifted) == pytest.approx(path_length(traj), abs=1e-6)


# ----------------------------------------------------------------------
# lifecycle_events


def test_single_vehicle_enter_then_leave():
    events = lifecycle_events([_traj("car0", [(0, 0, 0), (10, 1, 0)])])
    assert [(e.kind, e.fire_time) for e in events] == [
        (EventKind.VEHICLE_ENTER, 0),
        (EventKind.VEHICLE_LEAVE, s_to_us(10)),
    ]


def test_ten_staggered_vehicles_give_twenty_sorted_events():
    trajs = [_traj(f"car{i}", [(i, 0, 0), (i + 20, 10, 0)]) for i in range(10)]
    events = lifecycle_events(trajs)
    assert len(events) == 20
    times = [e.fire_time for e in events]
    assert times == sorted(times)


def test_simultaneous_entries_ordered_by_name():
    trajs = [
        _traj("beta", [(0, 0, 0), (5, 1, 0)]),
        _traj("alpha", [(0, 0, 0), (6, 1, 0)]),
    ]
    events = lifecycle_events(trajs)
    assert [e.payload for e in events[:2]] == ["alpha", "beta"]


@given(st.lists(st.integers(0, 30), min_size=1, max_size=8))
def test_event_count_is_twice_trajectories(starts):
    trajs = [
        _traj(f"v{i}", [(s, 0, 0), (s + 1 + i, 5, 0)]) for i, s in enumerate(starts)
    ]
    assert len(lifecycle_events(trajs)) == 2 * len(trajs)
