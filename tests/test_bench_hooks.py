"""The benchmark tracer must still find every method and function it wraps.

`bench/tracer.py::install` looks each wrapped name up in its owner's
`__dict__`, so renaming or deleting a hooked name (say
`Binder.deregister_node` or `Rrc.initial_association`) breaks the traced
benchmark run. `install` patches classes for the whole process, so it runs
in a child interpreter here. The hooks also read fields of what the wrapped
calls return (say `GrantOutcome.rb_count`), which only a traced run reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import ONE_CELL, build_config, make_trace, write_scenario

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """\
import json, sys
import tracer
t = tracer.Tracer()
tracer.install(t)
import vcellsim
vcellsim.run_scenario(vcellsim.load_config(sys.argv[1]))
print(json.dumps({name: value for name, (value, _) in tracer.layer_metrics(t).items()}))
"""


def _in_bench(*args):
    # `-c` puts the working directory, bench/, first on the import path
    return subprocess.run(
        [sys.executable, "-c", *args],
        cwd=ROOT / "bench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_tracer_install_finds_every_hooked_name():
    proc = _in_bench("import tracer; tracer.install(tracer.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_traced_run_counts_grants_and_cqi(tmp_path):
    # Max-CQI over 6 RBs: car0 (CQI 15, 4794 bits) fits its 4000-bit packets
    # and decodes them; car1 (CQI 13 at 2 km, 3906 bits) gets the idle slots
    # but never fits one, so its grants are empty and the hook reads rb_count.
    config_path = write_scenario(
        tmp_path,
        build_config(
            "sim_end_s = 0.1",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "num_rbs = 6",
            "scheduler = maxcqi",
            ONE_CELL,
            "flow[0].direction = dl\n"
            "flow[0].target = ALL\n"
            "flow[0].packet_bits = 4000\n"
            "flow[0].interval_ms = 10\n"
            "flow[0].start_s = 0\n"
            "flow[0].stop_s = 0.05",
        ),
        make_trace(
            [(0, "car0", 100, 0), (0.1, "car0", 100, 0),
             (0, "car1", 2000, 0), (0.1, "car1", 2000, 0)]
        ),
    )
    proc = _in_bench(TRACED_RUN, str(config_path))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["mac.grants"] > 0
    assert metrics["mac.useful_grant_ratio"] > 0
    assert metrics["mac.empty_grants"] > 0 and metrics["mac.wasted_rbs"] > 0
    assert sum(metrics[f"channel.cqi_hist.{k}"] for k in range(16)) > 0
    # the hook counts len() of what set-up generates, one flow at a time:
    # every arrival the run fires, 5 per vehicle
    assert metrics["traffic.flow_events"] == metrics["engine.events.PACKET_ARRIVAL"] == 10


def test_traced_round_robin_run_counts_useful_grants(tmp_path):
    # Round robin over 6 RBs: car0 and car1 (both CQI 15) split them 3 and 3,
    # and a 2000-bit packet needs ceil(2000 / 799) = 3, so every grant
    # carries its packet: 5 packets each, 10 useful grants, none empty.
    config_path = write_scenario(
        tmp_path,
        build_config(
            "sim_end_s = 0.1",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "num_rbs = 6",
            "scheduler = rr",
            ONE_CELL,
            "flow[0].direction = dl\n"
            "flow[0].target = ALL\n"
            "flow[0].packet_bits = 2000\n"
            "flow[0].interval_ms = 10\n"
            "flow[0].start_s = 0\n"
            "flow[0].stop_s = 0.05",
        ),
        make_trace(
            [(0, "car0", 100, 0), (0.1, "car0", 100, 0),
             (0, "car1", 150, 0), (0.1, "car1", 150, 0)]
        ),
    )
    proc = _in_bench(TRACED_RUN, str(config_path))
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["mac.grants"] == 10
    assert metrics["mac.useful_grant_ratio"] == 1.0
    assert metrics["mac.empty_grants"] == 0 and metrics["mac.wasted_rbs"] == 0
    assert metrics["mac.decode_failures"] == 0
