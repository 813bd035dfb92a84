"""Metamorphic relations: runs of related inputs must write the same bytes.

The golden and digest tests pin bytes, and the differential test compares
the optimized run with a reference run of the same input, so a fault that
both sides share is seen by neither. These tests check relations between
the runs of related inputs instead (metamorphic testing, T. Y. Chen et
al., 1998), where no oracle gives the output itself.

Both relations here are exact, byte for byte. The model reads geometry
only through `math.hypot` of coordinate differences (a distance, or a
speed along a route) and through per-coordinate interpolation along a
route. IEEE negation is exact and rounding is symmetric about 0, so an
interpolated x negates exactly; `math.hypot` takes the absolute value of
each argument and rounds its result correctly in all but rare cases, so
neither a sign nor the order of its two arguments moves it (1,000,000
random pairs at this scale agreed). Every float a run computes is then
the same when every x is negated, eNB sites and trace alike, or when x
and y are swapped everywhere, and vehicles.csv, cells.csv and events.log
must not change.

The inputs are benchmark workloads from `bench/generate.py` at seed 1,
over shorter windows: highway-loaded (shadowing, handover, round robin)
and cbr-maxcqi (max-CQI, traffic on every TTI).
"""

import dataclasses
import re

import pytest

from vcellsim.config import load_config
from vcellsim.scenario import run_scenario

from conftest import bench_generate, write_scenario

SEED = 1
WINDOW_S = {"highway-loaded": 0.5, "cbr-maxcqi": 1.0}


def _negated(value: str) -> str:
    return value[1:] if value.startswith("-") else "-" + value


# (x, y) as written -> (x, y) as written in the related input
MOVES = {
    "x negated": lambda x, y: (_negated(x), y),
    "x and y swapped": lambda x, y: (y, x),
}

SITE = re.compile(r"^(enb\[\d+\])\.x_m = (\S+)\n\1\.y_m = (\S+)$", re.MULTILINE)


def _moved_ini(ini: str, move) -> str:
    """The scenario INI with each eNB site moved."""

    def site(match):
        enb, *xy = match.groups()
        x, y = move(*xy)
        return f"{enb}.x_m = {x}\n{enb}.y_m = {y}"

    moved, sites = SITE.subn(site, ini)
    assert sites > 1
    return moved


def _moved_trace(trace: str, move) -> str:
    """The trace CSV with each sample moved."""
    header, *rows = trace.splitlines()
    assert header == "time_s,vehicle,x_m,y_m"
    out = [header]
    for row in rows:
        t, name, x, y = row.split(",")
        out.append(",".join((t, name, *move(x, y))))
    return "\n".join(out) + "\n"


def _outputs(directory, ini: str, trace: str):
    report = run_scenario(load_config(write_scenario(directory, ini, trace)))
    return report.vehicles_csv(), report.cells_csv(), report.event_log


@pytest.mark.parametrize("move", sorted(MOVES))
@pytest.mark.parametrize("workload", sorted(WINDOW_S))
def test_a_mirrored_or_transposed_world_writes_the_same_bytes(tmp_path, workload, move):
    generate = bench_generate()
    w = dataclasses.replace(generate.WORKLOADS[workload], sim_s=WINDOW_S[workload])
    ini, trace = generate.scenario_ini(w, SEED), generate.trace_csv(w, SEED)
    moved_ini, moved_trace = _moved_ini(ini, MOVES[move]), _moved_trace(trace, MOVES[move])
    assert moved_ini != ini and moved_trace != trace
    expected = _outputs(tmp_path / "as-generated", ini, trace)
    assert sum(" ATTACH " in line for line in expected[2]) == w.vehicles
    assert _outputs(tmp_path / "moved", moved_ini, moved_trace) == expected
