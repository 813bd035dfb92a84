"""The trace cache beside a trace file: `load_trace` parses a trace once and
reads the parsed columns back from `<trace>.vcellsim-cache` while the key
(checksums of the trace and of the parser, the Python version and byte order)
matches and the cache belongs to the trace's owner or the current user.
Whatever state the cache is in, a load gives what the parse gives."""

import gc
import io
import os
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from vcellsim import mobility
from vcellsim.cli import main
from vcellsim.errors import TraceError
from vcellsim.mobility import load_trace, parse_trace

from conftest import TWO_CELLS, build_config, make_trace, write_scenario

PINNED_FILES = ("vehicles.csv", "cells.csv", "events.log")


def _cache_of(trace):
    return Path(f"{trace}.vcellsim-cache")


def _exact(trajs):
    """Every field of every trajectory, floats by their bits."""
    return [
        (t.vehicle_name, t.times.typecode, t.times.tobytes())
        + (t.xs.typecode, t.xs.tobytes(), t.ys.typecode, t.ys.tobytes())
        for t in trajs
    ]


def _warm_load(trace):
    """`load_trace` with the parser switched off: only a cache hit can answer."""
    with mock.patch.object(mobility, "parse_trace", side_effect=AssertionError("parsed")):
        return load_trace(trace)


# ----------------------------------------------------------------------
# cold and warm loads of any accepted trace

_names = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"), blacklist_characters=","),
    min_size=1,
    max_size=5,
).filter(lambda name: name == name.strip())
_coordinates = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _traces(draw):
    """Bytes of a trace: vehicles with unicode names, any finite coordinates
    (-0.0, subnormals, 1e308) and interleaved rows, in LF or CRLF, with spaces
    around fields and blank lines; sometimes no vehicle at all."""
    rows = []
    for name in draw(st.lists(_names, max_size=4, unique=True)):
        times_ms = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=6, unique=True))
        points = [(draw(_coordinates), draw(_coordinates)) for _ in times_ms]
        rows.append([(ms / 1000, name, x, y) for ms, (x, y) in zip(sorted(times_ms), points)])
    merged = []
    while any(rows):  # a random interleaving that keeps each vehicle's order
        merged.append(draw(st.sampled_from([r for r in rows if r])).pop(0))
    lines = [f"{t!r},{name},{x!r},{y!r}" for t, name, x, y in merged]
    if lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = " 0.0 , {} , 1 , 2 ".format(merged[0][1])
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = "\n".join(["time_s,vehicle,x_m,y_m", *lines]) + "\n"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text.encode()


@settings(max_examples=60, deadline=None)
@given(_traces())
def test_any_accepted_trace_loads_the_same_from_a_cold_and_a_warm_cache(data):
    try:
        parsed = parse_trace(io.BytesIO(data))
    except TraceError:
        assume(False)  # a replaced row can break a vehicle's time order
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        trace.write_bytes(data)
        cold = load_trace(trace)
        assert _cache_of(trace).is_file()
        assert _exact(cold) == _exact(_warm_load(trace)) == _exact(parsed)


# ----------------------------------------------------------------------
# a full run, whatever the cache holds

RUN_TRACE = make_trace(
    [
        (0.0, "car0", 100, 0),
        (0.3, "car0", 1900, 0),
        (0.0, "car1", 1800, 40),
        (0.25, "car1", 200, 40),
        (0.05, "car2", 950, -30),
        (0.3, "car2", 1050, -30),
    ]
)

RUN_CONFIG = build_config(
    "sim_end_s = 0.3",
    "seed = 7",
    "trace_file = trace.csv",
    "dynamic_cell_association = true",
    "enable_handover = true",
    "channel.shadowing = true",
    "handover.time_to_trigger_ms = 40",
    TWO_CELLS,
    "flow[0].direction = dl",
    "flow[0].target = ALL",
    "flow[0].packet_bits = 3000",
    "flow[0].interval_ms = 5",
    "flow[0].start_s = 0",
    "flow[0].stop_s = 0.3",
    "flow[1].direction = ul",
    "flow[1].target = car1",
    "flow[1].packet_bits = 2000",
    "flow[1].interval_ms = 10",
    "flow[1].start_s = 0",
    "flow[1].stop_s = 0.3",
)


def _run(config, out):
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in PINNED_FILES}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outputs of a run on a trace never seen before."""
    tmp = tmp_path_factory.mktemp("reference")
    return _run(write_scenario(tmp, RUN_CONFIG, RUN_TRACE), tmp / "out")


def _flip(at):
    def spoil(cache, tmp):
        data = bytearray(cache.read_bytes())
        data[at(data)] ^= 0x10
        cache.write_bytes(bytes(data))

    return spoil


def _cut(at):
    def spoil(cache, tmp):
        data = cache.read_bytes()
        cache.write_bytes(data[: at(data)])

    return spoil


def _written_for_other_bytes(cache, tmp):
    # the same length, one digit changed: only the checksums tell them apart
    other = RUN_TRACE.replace("1900", "1901")
    assert len(other) == len(RUN_TRACE)
    trace = tmp / "other" / "trace.csv"
    trace.parent.mkdir()
    trace.write_text(other, encoding="utf-8")
    load_trace(trace)
    os.replace(_cache_of(trace), cache)


def _key_end(data):
    return data.index(b"\n") + 1


SPOILERS = {
    "cold": lambda cache, tmp: cache.unlink(),
    "warm": lambda cache, tmp: None,
    "corrupt-key": _flip(lambda data: 3),
    "corrupt-vehicle-count": _flip(lambda data: _key_end(data)),
    "corrupt-row-count": _flip(lambda data: _key_end(data) + 24),
    "corrupt-name": _flip(lambda data: _key_end(data) + 24 + 3 * 8),  # after 3 row counts
    "corrupt-coordinate": _flip(lambda data: len(data) - 20),
    "corrupt-crc": _flip(lambda data: len(data) - 8),
    "empty": _cut(lambda data: 0),
    "truncated-in-key": _cut(lambda data: _key_end(data) // 2),
    "truncated-after-key": _cut(_key_end),
    "truncated-in-body": _cut(lambda data: (_key_end(data) + len(data)) // 2),
    "truncated-crc": _cut(lambda data: len(data) - 1),
    "other-trace": _written_for_other_bytes,
    "garbage": lambda cache, tmp: cache.write_bytes(os.urandom(cache.stat().st_size)),
}


@pytest.mark.parametrize("kind", sorted(SPOILERS))
def test_a_run_writes_the_same_bytes_with_any_cache(tmp_path, reference, kind):
    config = write_scenario(tmp_path, RUN_CONFIG, RUN_TRACE)
    trace, cache = tmp_path / "trace.csv", _cache_of(tmp_path / "trace.csv")
    load_trace(trace)
    SPOILERS[kind](cache, tmp_path)
    assert _run(config, tmp_path / "out") == reference
    # a miss writes the cache again, and the next load reads it
    assert _exact(_warm_load(trace)) == _exact(parse_trace(io.BytesIO(RUN_TRACE.encode())))


def test_an_unwritable_directory_still_gives_a_successful_run(tmp_path, reference, capsys):
    # An unwritable directory refuses to create the temporary file. The tests
    # may run as root, which writes anywhere, so the refusal is injected.
    config = write_scenario(tmp_path, RUN_CONFIG, RUN_TRACE)
    real_open, real_array, filled = open, mobility.array, []

    def refusing_open(file, mode="r", *args, **kwargs):
        if "w" in mode or "x" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, mode, *args, **kwargs)

    def recording_array(typecode, *args):
        filled.extend(args)
        return real_array(typecode, *args)

    with mock.patch.object(mobility, "open", refusing_open, create=True), \
            mock.patch.object(mobility, "array", recording_array):
        assert _run(config, tmp_path / "out") == reference
    assert "error" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.ini", "trace.csv"]
    # the refusal came before any column was built: the parse starts its
    # columns empty, and only the cache's write builds one from values
    assert not filled


def test_a_cache_path_that_is_a_directory_is_neither_read_nor_replaced(tmp_path, reference):
    config = write_scenario(tmp_path, RUN_CONFIG, RUN_TRACE)
    _cache_of(tmp_path / "trace.csv").mkdir()
    assert _run(config, tmp_path / "out") == reference
    assert _cache_of(tmp_path / "trace.csv").is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out", "scenario.ini", "trace.csv", "trace.csv.vcellsim-cache"
    ]


def test_a_time_past_int64_microseconds_is_a_trace_error_naming_its_line(tmp_path):
    # 1e13 s is 10**19 us, more than an int64 holds; 1e303 s overflows a float in us
    trace = tmp_path / "trace.csv"
    for seconds in (1e13, 1e303):
        trace.write_text(make_trace([(0, "car0", 0, 0), (seconds, "car0", 5, 0)]), encoding="utf-8")
        with pytest.raises(TraceError) as info:
            load_trace(trace)
        assert str(info.value) == f"{trace}: line 3: time {seconds} s is past int64 microseconds"
        assert list(tmp_path.iterdir()) == [trace]


def test_a_loaded_route_holds_no_per_row_objects(tmp_path):
    # A list of ints holds one object per row: about 40 B of it, and every
    # young collection after the load walks them all (about 2 ms for 250k
    # rows). The three typed columns hold 24 B a row and nothing to walk.
    rows, trace = 20_000, tmp_path / "trace.csv"
    trace.write_text(
        make_trace((k / 1000, f"car{k % 4}", k, -k) for k in range(rows)), encoding="utf-8"
    )
    for load in (load_trace, _warm_load):  # a parse, which writes the cache, then a cache load
        gc.collect()
        tracemalloc.start()
        try:
            trajs = load(trace)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(t.times) for t in trajs) == rows
        assert all(len(gc.get_referents(col)) <= 1 for t in trajs for col in (t.times, t.xs, t.ys))
        assert retained <= 32 * rows, f"{load.__name__}: {retained / rows:.1f} B per row"


# ----------------------------------------------------------------------
# malformed traces and hostile caches

GOOD = make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0), (0.5, "car1", 9, 9)])
MALFORMED = [
    GOOD + "not,a,row\n",
    GOOD.replace("1,car0,5", "0,car0,5"),
    GOOD + "2,car0,nan,0\n",
    GOOD.encode() + b"3,car0,\xff,0\n",
]


def _parse_error(path, content):
    """The TraceError a load raised before the cache: the parse's, naming the file."""
    with pytest.raises(TraceError) as info:
        parse_trace(io.BytesIO(content))
    return f"{path}: {info.value}"


@pytest.mark.parametrize("content", MALFORMED, ids=["fields", "order", "nan", "utf8"])
def test_a_malformed_trace_writes_no_cache_and_ignores_its_good_versions(tmp_path, content):
    content = content if isinstance(content, bytes) else content.encode()
    trace = tmp_path / "trace.csv"
    trace.write_bytes(content)
    with pytest.raises(TraceError) as info:
        load_trace(trace)
    assert str(info.value) == _parse_error(trace, content)
    assert list(tmp_path.iterdir()) == [trace]

    trace.write_text(GOOD, encoding="utf-8")
    load_trace(trace)
    stale = _cache_of(trace).read_bytes()
    trace.write_bytes(content)
    with pytest.raises(TraceError) as info:
        load_trace(trace)
    assert str(info.value) == _parse_error(trace, content)
    assert _cache_of(trace).read_bytes() == stale  # not read, not rewritten


def test_a_malformed_trace_exits_three_whatever_its_cache(tmp_path, capsys):
    config = write_scenario(tmp_path, RUN_CONFIG, RUN_TRACE)
    load_trace(tmp_path / "trace.csv")
    (tmp_path / "trace.csv").write_text(RUN_TRACE + "broken row\n", encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"runtime error: {tmp_path / 'trace.csv'}: line 8: expected 4 fields, got 1\n"


def test_a_row_count_past_the_end_of_the_cache_is_a_miss_read_within_the_file(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(make_trace((k, f"car{k % 2}", k, -k) for k in range(30)), encoding="utf-8")
    expected = _exact(load_trace(trace))
    cache = _cache_of(trace)
    data = bytearray(cache.read_bytes())
    assert len(data) < 1024
    rows_at = _key_end(data) + 16  # after the counts of vehicles and name bytes
    assert int.from_bytes(data[rows_at : rows_at + 8], sys.byteorder) == 30
    data[rows_at : rows_at + 8] = (10**6).to_bytes(8, sys.byteorder)
    cache.write_bytes(bytes(data))

    gc.collect()
    tracemalloc.start()
    try:
        got = load_trace(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _exact(got) == expected
    assert peak < 1_000_000, f"{peak} B: a count was allocated before it was checked"
    assert _exact(_warm_load(trace)) == expected  # and the miss rewrote the cache


def test_validate_warms_the_cache(tmp_path, capsys):
    config = write_scenario(tmp_path, RUN_CONFIG, RUN_TRACE)
    assert main(["validate", "--config", str(config)]) == 0
    assert _exact(_warm_load(tmp_path / "trace.csv")) == _exact(
        parse_trace(io.BytesIO(RUN_TRACE.encode()))
    )


def test_a_trace_that_changes_while_it_is_parsed_writes_no_cache(tmp_path):
    # the key is taken before the parse; a cache written under it would hand
    # the new bytes' trajectories to a later run on the old bytes. The rewrite
    # keeps the size and is seen by its mtime, so the trace is dated as one
    # written before the run: a same-size rewrite within one tick of the file
    # system's clock after the load began would go unseen.
    trace = tmp_path / "trace.csv"
    trace.write_text(GOOD, encoding="utf-8")
    os.utime(trace, (trace.stat().st_atime - 10, trace.stat().st_mtime - 10))
    real_parse = parse_trace

    def parse_then_rewrite(source):
        trajs = real_parse(source)
        trace.write_text(GOOD.replace("9,9", "8,8"), encoding="utf-8")
        return trajs

    with mock.patch.object(mobility, "parse_trace", parse_then_rewrite):
        load_trace(trace)
    assert list(tmp_path.iterdir()) == [trace]


def _planted(trace, content):
    """A well-formed cache under `trace`'s key holding the trajectories of `content`,
    as another user able to read the trace could write it."""
    with open(trace, "rb") as fh:
        key = mobility._cache_key(fh)
    mobility._write_cache(str(_cache_of(trace)), key, parse_trace(io.BytesIO(content.encode())))


def _owned_by(path, uid):
    """An `os.fstat` that reports `path` as owned by `uid`."""
    real_fstat = os.fstat

    def fstat(fd):
        st = real_fstat(fd)
        if not os.path.samestat(st, os.stat(path)):
            return st
        return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink, uid, st.st_gid,
                               st.st_size, st.st_atime, st.st_mtime, st.st_ctime))

    return mock.patch.object(os, "fstat", fstat)


def test_a_cache_owned_by_neither_the_trace_owner_nor_this_user_is_not_read(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(GOOD, encoding="utf-8")
    other = GOOD.replace("9,9", "8,8")
    expected = _exact(parse_trace(io.BytesIO(GOOD.encode())))
    _planted(trace, other)
    assert _exact(_warm_load(trace)) != expected  # trusted, it would be read

    _planted(trace, other)
    with _owned_by(_cache_of(trace), os.geteuid() + 1):
        assert _exact(load_trace(trace)) == expected
    assert _exact(_warm_load(trace)) == expected  # the miss wrote this user's cache over it


def test_a_cache_owned_by_this_user_is_read_beside_another_users_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text(GOOD, encoding="utf-8")
    load_trace(trace)
    with _owned_by(trace, os.geteuid() + 1), \
            mock.patch.object(mobility, "parse_trace", side_effect=AssertionError("parsed")):
        assert _exact(load_trace(trace)) == _exact(parse_trace(io.BytesIO(GOOD.encode())))


def test_a_link_planted_at_the_temporary_path_is_not_followed(tmp_path):
    trace, victim = tmp_path / "trace.csv", tmp_path / "victim"
    trace.write_text(GOOD, encoding="utf-8")
    victim.write_text("keep me", encoding="utf-8")
    planted = Path(f"{_cache_of(trace)}.{os.getpid()}")
    planted.symlink_to(victim)
    expected = _exact(parse_trace(io.BytesIO(GOOD.encode())))
    assert _exact(load_trace(trace)) == expected
    assert victim.read_text(encoding="utf-8") == "keep me"
    assert not _cache_of(trace).exists()
    assert _exact(load_trace(trace)) == _exact(_warm_load(trace)) == expected


def test_a_trace_read_from_a_pipe_loads_without_a_cache(tmp_path):
    fifo = tmp_path / "trace.csv"
    os.mkfifo(fifo)
    with ThreadPoolExecutor(1) as pool:
        writer = pool.submit(fifo.write_text, GOOD, encoding="utf-8")
        try:
            loaded = load_trace(fifo)
        finally:  # a reader of our own lets the writer finish if the load never opened the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.result(timeout=10)
    assert _exact(loaded) == _exact(parse_trace(io.BytesIO(GOOD.encode())))
    assert list(tmp_path.iterdir()) == [fifo]
