"""Shared helpers for building traces, configs, and small scenarios."""

import functools
import importlib.util
import sys
from pathlib import Path

from vcellsim.binder import Direction
from vcellsim.traffic import Packet

TRACE_HEADER = "time_s,vehicle,x_m,y_m"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def make_trace(rows) -> str:
    """rows: iterable of (time_s, vehicle, x_m, y_m)."""
    lines = [TRACE_HEADER]
    for t, name, x, y in rows:
        lines.append(f"{t},{name},{x},{y}")
    return "\n".join(lines) + "\n"


def straight_line_trace(name, t0, t1, x0, x1, y=0.0):
    return [(t0, name, x0, y), (t1, name, x1, y)]


def write_scenario(tmp_path: Path, config_text: str, trace_text: str) -> Path:
    """Materialize a config + trace pair; returns the config path."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "trace.csv").write_text(trace_text, encoding="utf-8")
    config_path = tmp_path / "scenario.ini"
    config_path.write_text(config_text, encoding="utf-8")
    return config_path


TWO_CELLS = """\
enb[0].name = enb0
enb[0].x_m = 0.0
enb[0].y_m = 0.0
enb[1].name = enb1
enb[1].x_m = 2000.0
enb[1].y_m = 0.0
"""

ONE_CELL = """\
enb[0].name = enb0
enb[0].x_m = 0.0
enb[0].y_m = 0.0
"""


def build_config(*blocks: str) -> str:
    """Join config fragments; later lines may not repeat earlier keys."""
    return "\n".join(block.rstrip("\n") for block in blocks if block) + "\n"


def make_packet(bits, direction=Direction.DL):
    """A traffic packet for direct MAC calls, which read only its size and direction."""
    return Packet("f", 0, "car", direction, bits, 0)


@functools.cache
def bench_generate():
    """`bench/generate.py`, which writes the benchmark workloads; only read here."""
    spec = importlib.util.spec_from_file_location("bench_generate", BENCH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module
