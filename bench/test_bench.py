"""Tests of the benchmark itself (not of vcellsim).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from generate import WORKLOADS, generate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _read(d: Path) -> tuple[bytes, bytes]:
    return (d / "trace.csv").read_bytes(), (d / "scenario.ini").read_bytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(workload, tmp_path):
    generate(workload, 7, tmp_path / "a")
    generate(workload, 7, tmp_path / "b")
    generate(workload, 8, tmp_path / "c")
    assert _read(tmp_path / "a") == _read(tmp_path / "b")
    assert _read(tmp_path / "a")[0] != _read(tmp_path / "c")[0]


def test_wrapper_passes_value_through_and_reraises():
    tracer = Tracer()
    sentinel = object()
    seen = []
    wrapped = tracer.wrap("layer.ok", lambda x, *, y: (x, y, sentinel), seen.append)
    assert wrapped(1, y=2) == (1, 2, sentinel)
    assert seen == [(1, 2, sentinel)]

    class Boom(Exception):
        pass

    def fails():
        raise Boom("kept")

    with pytest.raises(Boom, match="kept"):
        tracer.wrap("layer.fails", fails)()
    assert tracer.calls == {"layer.ok": 1, "layer.fails": 1}


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: sum(range(20000)))
    parent = tracer.wrap("parent", lambda: [child() for _ in range(3)])
    parent()
    by_name = {s[0]: s for s in tracer.spans}
    p_start, p_end = by_name["parent"][1:3]
    children = [s for s in tracer.spans if s[0] == "child"]
    assert all(s[3] == by_name["parent"][5] for s in children)
    covered = sum(s[2] - s[1] for s in children)
    assert tracer.self_s["parent"] == pytest.approx(p_end - p_start - covered)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared_and_well_named(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cbr-maxcqi",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(NAME.fullmatch(name) for name in printed)
    assert printed == declared
