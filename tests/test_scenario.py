import collections
import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from vcellsim import scenario as scenario_module
from vcellsim.binder import Direction, NodeKind
from vcellsim.config import load_config
from vcellsim.engine import EventKind, ms_to_us
from vcellsim.errors import ConfigError
from vcellsim.metrics import write_outputs
from vcellsim.mobility import position_at
from vcellsim.scenario import Scenario, run_scenario

from conftest import ONE_CELL, TWO_CELLS, build_config, make_trace, write_scenario
import oracles
from oracles import MeasureEveryone, reference_mode

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(tmp_path, cfg_text, trace_text):
    config = load_config(write_scenario(tmp_path, cfg_text, trace_text))
    return run_scenario(config), config


def _crossing_trace(n=10, step_s=0.2, span=1800.0):
    rows = []
    for i in range(n):
        rows.append((step_s * i, f"car{i}", 100.0 * i, 0.0))
        rows.append((2.0 + step_s * i, f"car{i}", span - 100.0 * i, 0.0))
    return make_trace(rows)


DL_FLOW = (
    "flow[0].direction = dl\n"
    "flow[0].target = ALL\n"
    "flow[0].packet_bits = 4000\n"
    "flow[0].interval_ms = 10\n"
    "flow[0].start_s = 0\n"
    "flow[0].stop_s = 2.0"
)


# ----------------------------------------------------------------------
# shapes


def test_zero_vehicle_trace_runs_to_an_empty_report(tmp_path):
    report, _ = _run(
        tmp_path,
        build_config("sim_end_s = 0.2", "trace_file = trace.csv",
                     "dynamic_cell_association = true", TWO_CELLS),
        "time_s,vehicle,x_m,y_m\n",
    )
    assert report.vehicles == {}
    assert all(
        alloc == 0 for c in report.cells.values() for alloc in c.rb_allocated.values()
    )
    csv = report.vehicles_csv()
    assert csv.splitlines()[0].startswith("vehicle,enter_s")
    assert len(csv.splitlines()) == 1  # headers only


def test_ten_vehicles_two_cells_shape(tmp_path):
    report, _ = _run(
        tmp_path,
        build_config(
            "sim_end_s = 2.5",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            TWO_CELLS,
            DL_FLOW,
        ),
        _crossing_trace(10),
    )
    assert len(report.vehicles) == 10
    for name, stats in report.vehicles.items():
        assert stats.timeline, f"{name} has an empty serving-cell timeline"
        first_time, first_cell = stats.timeline[0]
        assert first_time == stats.enter_us
        assert stats.first_cell == first_cell


def test_vehicle_entering_after_sim_end_has_no_first_cell(tmp_path):
    trace = make_trace(
        [(0.0, "car0", 0.0, 0.0), (1.0, "car0", 10.0, 0.0),
         (0.5, "late", 0.0, 0.0), (1.0, "late", 10.0, 0.0)]
    )
    report, _ = _run(
        tmp_path,
        build_config("sim_end_s = 0.2", "trace_file = trace.csv",
                     "dynamic_cell_association = true", ONE_CELL),
        trace,
    )
    assert report.vehicles["car0"].first_cell == "enb0"
    late = report.vehicles["late"]
    assert late.timeline == [] and late.first_cell == ""
    assert report.vehicles_csv().splitlines()[2].endswith(",0,,")


def test_manual_association_binds_everyone_to_the_master(tmp_path):
    # every vehicle parked right next to enb1 still attaches to enb0
    trace = make_trace(
        [(0.0, f"car{i}", 1990.0, float(i)) for i in range(3)]
        + [(1.0, f"car{i}", 1990.0, float(i)) for i in range(3)]
    )
    report, _ = _run(
        tmp_path,
        build_config(
            "sim_end_s = 0.5",
            "trace_file = trace.csv",
            "car.default.master_id = 0",
            TWO_CELLS,
        ),
        trace,
    )
    assert all(v.first_cell == "enb0" for v in report.vehicles.values())


def test_handover_disabled_keeps_serving_cell_constant(tmp_path):
    report, _ = _run(
        tmp_path,
        build_config(
            "sim_end_s = 2.5",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            TWO_CELLS,
            DL_FLOW,
        ),
        _crossing_trace(4),
    )
    for stats in report.vehicles.values():
        assert stats.handovers == 0
        assert len(stats.timeline) == 1


def test_car_override_beyond_roster_rejected(tmp_path):
    cfg = build_config(
        "sim_end_s = 0.1",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "car[3].master_id = 0",
    )
    config = load_config(
        write_scenario(tmp_path, cfg, make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0)]))
    )
    with pytest.raises(ConfigError, match="car\\[3\\]"):
        run_scenario(config)


def test_vehicle_named_like_an_enb_rejected(tmp_path):
    # it never enters, so only the load-time check can catch it
    trace = make_trace(
        [(0, "car0", 0, 0), (1, "car0", 5, 0), (5, "enb0", 0, 0), (6, "enb0", 5, 0)]
    )
    cfg = build_config(
        "sim_end_s = 0.1",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
    )
    config = load_config(write_scenario(tmp_path, cfg, trace))
    with pytest.raises(ConfigError, match="'enb0' has the name of an eNB"):
        run_scenario(config)


def test_manual_mode_without_master_rejected(tmp_path):
    cfg = build_config(
        "sim_end_s = 0.1",
        "trace_file = trace.csv",
        ONE_CELL,
    )
    config = load_config(
        write_scenario(tmp_path, cfg, make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0)]))
    )
    with pytest.raises(ConfigError, match="master_id"):
        run_scenario(config)


def test_flow_targeting_unknown_vehicle_rejected(tmp_path):
    cfg = build_config(
        "sim_end_s = 0.1",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "flow[0].direction = dl",
        "flow[0].target = ghost",
        "flow[0].packet_bits = 100",
        "flow[0].interval_ms = 10",
        "flow[0].start_s = 0",
        "flow[0].stop_s = 0.1",
    )
    config = load_config(
        write_scenario(tmp_path, cfg, make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0)]))
    )
    with pytest.raises(ConfigError, match="ghost"):
        run_scenario(config)


def test_setup_holds_only_the_arrivals_the_run_fires(tmp_path):
    # a 1 ms flow meant to last 200 s in a 0.1 s run: 200,000 arrivals would
    # take tens of MiB to set up, but only those at 0, 1, ..., 100 ms fire
    cfg = build_config(
        "sim_end_s = 0.1",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        "flow[0].direction = dl",
        "flow[0].target = car0",
        "flow[0].packet_bits = 100",
        "flow[0].interval_ms = 1",
        "flow[0].start_s = 0",
        "flow[0].stop_s = 200",
    )
    config = load_config(
        write_scenario(tmp_path, cfg, make_trace([(0, "car0", 0, 0), (1, "car0", 5, 0)]))
    )
    tracemalloc.start()
    try:
        scn = Scenario(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert scn.run().vehicles["car0"].offered_bits == 101 * 100


def test_setup_does_not_grow_with_the_run_length(tmp_path):
    # 20 vehicles with a 1 ms flow each, up and down: a 10x longer run sets
    # up the same heap (one ENTER, two pending arrivals per vehicle, SIM_END
    # and the first tick) in the same memory; up front it would hold 40x the
    # run's length in ms of arrivals
    trace = make_trace(
        [(0, f"car{v}", 50.0 * v, 0) for v in range(20)]
        + [(30, f"car{v}", 50.0 * v + 5, 0) for v in range(20)]
    )
    flows = [
        f"flow[{f}].direction = {direction}\n"
        f"flow[{f}].target = ALL\n"
        f"flow[{f}].packet_bits = 100\n"
        f"flow[{f}].interval_ms = 1\n"
        f"flow[{f}].start_s = 0\n"
        f"flow[{f}].stop_s = 30"
        for f, direction in enumerate(("dl", "ul"))
    ]
    heaps, peaks = [], []
    for sim_end_s in (1, 1, 10):  # the first set-up also pays one-off costs
        cfg = build_config(
            f"sim_end_s = {sim_end_s}",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            ONE_CELL,
            *flows,
        )
        config = load_config(write_scenario(tmp_path / str(len(heaps)), cfg, trace))
        tracemalloc.start()
        try:
            scn = Scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        heaps.append(len(scn.engine._heap))
        peaks.append(peak)
    assert heaps == [20 + 40 + 1 + 1] * 3
    assert peaks[2] < peaks[1] * 1.1  # about 50 KiB; up front, 16 MiB then 160 MiB


# ----------------------------------------------------------------------
# latency and conservation


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_latency_equals_backhaul_plus_one_tti(tmp_path, direction):
    # one lightly loaded UE close to its cell: a DL packet waits out the
    # backhaul and goes in the next slot; a UL packet goes in the slot it
    # arrives in and then crosses the backhaul
    report, config = _run(
        tmp_path,
        build_config(
            "sim_end_s = 0.5",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "backhaul.delay_ms = 7.0",
            ONE_CELL,
            DL_FLOW.replace("stop_s = 2.0", "stop_s = 0.4").replace(
                "direction = dl", f"direction = {direction}"
            ),
        ),
        make_trace([(0, "car0", 100, 0), (0.5, "car0", 150, 0)]),
    )
    stats = report.vehicles["car0"]
    assert stats.delivered_packets == 40
    expected_us = config.backhaul_delay_us + ms_to_us(1)
    assert expected_us == 8000
    assert stats.latency_sum_us == expected_us * stats.delivered_packets
    assert stats.latency_max_us == expected_us


def test_every_offered_bit_has_exactly_one_fate(tmp_path):
    report, _ = _run(
        tmp_path,
        build_config(
            "sim_end_s = 2.5",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            TWO_CELLS,
            DL_FLOW,
        ),
        _crossing_trace(6),
    )
    report.verify_conservation()  # also enforced inside run_scenario
    for stats in report.vehicles.values():
        assert stats.offered_bits == (
            stats.delivered_bits
            + stats.dropped_radio_bits
            + stats.dropped_handover_bits
            + stats.lost_core_bits
            + stats.residual_bits
        )


def test_handover_flushes_the_dl_buffer_and_keeps_the_ul_one(tmp_path):
    # car0 crosses the enb0/enb1 bisector at 50 ms. Its 30,000-bit packets
    # never fit 2 RBs, so all its DL bits and one UL packet are still queued
    # at the handover; the small UL packets before it go out.
    report, _ = _run(
        tmp_path,
        build_config(
            "sim_end_s = 0.1",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            "handover.hysteresis_db = 0",
            "handover.time_to_trigger_ms = 0",
            "num_rbs = 2",
            TWO_CELLS,
            "flow[0].direction = dl",
            "flow[0].target = car0",
            "flow[0].packet_bits = 30000",
            "flow[0].interval_ms = 10",
            "flow[0].start_s = 0",
            "flow[0].stop_s = 0.03",
            "flow[1].direction = ul",
            "flow[1].target = car0",
            "flow[1].packet_bits = 400",
            "flow[1].interval_ms = 5",
            "flow[1].start_s = 0",
            "flow[1].stop_s = 0.04",
            "flow[2].direction = ul",
            "flow[2].target = car0",
            "flow[2].packet_bits = 30000",
            "flow[2].interval_ms = 100",
            "flow[2].start_s = 0.045",
            "flow[2].stop_s = 0.1",
        ),
        make_trace([(0.0, "car0", 900.0, 0.0), (0.1, "car0", 1100.0, 0.0)]),
    )
    stats = report.vehicles["car0"]
    assert [cell for _, cell in stats.timeline] == ["enb0", "enb1"]
    assert stats.offered_bits == 3 * 30_000 + 8 * 400 + 30_000
    assert stats.dropped_handover_bits == 3 * 30_000  # exactly the DL bits
    assert stats.delivered_bits == 8 * 400
    assert stats.residual_bits == 30_000  # the UL packet survived the handover
    assert stats.dropped_radio_bits == stats.lost_core_bits == 0


# ----------------------------------------------------------------------
# determinism


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = build_config(
        "sim_end_s = 1.5",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enable_handover = true",
        "channel.shadowing = true",
        TWO_CELLS,
        DL_FLOW,
    )
    config = load_config(write_scenario(tmp_path, cfg, _crossing_trace(5)))
    a = run_scenario(config)
    b = run_scenario(config)
    assert a.vehicles_csv() == b.vehicles_csv()
    assert a.cells_csv() == b.cells_csv()
    assert a.event_log == b.event_log


def test_different_seeds_with_shadowing_differ(tmp_path):
    cfg = build_config(
        "sim_end_s = 1.5",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enable_handover = true",
        "channel.shadowing = true",
        TWO_CELLS,
        DL_FLOW,
    )
    config = load_config(write_scenario(tmp_path, cfg, _crossing_trace(5)))
    a = run_scenario(config)
    b = run_scenario(dataclasses.replace(config, seed=config.seed + 1))
    assert a.vehicles_csv() != b.vehicles_csv()


# ----------------------------------------------------------------------
# outputs


GOLDEN_CONFIG = build_config(
    "sim_end_s = 0.05",
    "trace_file = trace.csv",
    "dynamic_cell_association = true",
    "backhaul.delay_ms = 2.0",
    ONE_CELL,
    "flow[0].direction = dl",
    "flow[0].target = car0",
    "flow[0].packet_bits = 2000",
    "flow[0].interval_ms = 10",
    "flow[0].start_s = 0",
    "flow[0].stop_s = 0.05",
    "flow[1].direction = ul",
    "flow[1].target = car1",
    "flow[1].packet_bits = 1200",
    "flow[1].interval_ms = 15",
    "flow[1].start_s = 0.005",
    "flow[1].stop_s = 0.05",
)

GOLDEN_TRACE = make_trace(
    [
        (0.0, "car0", 100, 0),
        (0.05, "car0", 120, 0),
        (0.01, "car1", 300, 50),
        (0.05, "car1", 280, 50),
    ]
)

GOLDEN_VEHICLES = """\
vehicle,enter_s,leave_s,bits_offered,bits_delivered,bits_dropped_radio,bits_dropped_handover,bits_lost_core,mean_latency_ms,max_latency_ms,handovers,first_cell,cell_timeline
car0,0.000,0.050,10000,10000,0,0,0,3.000,3.000,0,enb0,0.000:enb0
car1,0.010,0.050,3600,2400,0,0,1200,3.000,3.000,0,enb0,0.010:enb0
"""

GOLDEN_CELLS = """\
cell,dir,rb_allocated,rb_capacity,utilization
enb0,DL,15,2500,0.006000
enb0,UL,4,2500,0.001600
"""

GOLDEN_LOG = """\
0.000000 ENTER car0
0.000000 ATTACH car0 cell=enb0
0.010000 ENTER car1
0.010000 ATTACH car1 cell=enb0
0.050000 LEAVE car0 residual_bits=0
0.050000 LEAVE car1 residual_bits=0
0.050000 SIM_END
"""


def _trace_cache_is_warm(tmp_path):
    return (tmp_path / "trace.csv.vcellsim-cache").is_file()


def test_golden_tiny_scenario(tmp_path):
    for cache in ("cold", "warm"):  # the second run reads the trace cache the first wrote
        assert _trace_cache_is_warm(tmp_path) == (cache == "warm")
        report, _ = _run(tmp_path, GOLDEN_CONFIG, GOLDEN_TRACE)
        assert report.vehicles_csv() == GOLDEN_VEHICLES
        assert report.cells_csv() == GOLDEN_CELLS
        assert "".join(line + "\n" for line in report.event_log) == GOLDEN_LOG


# Two small runs the bench does not make: every bench workload attaches by
# received power, which draws each UE's shadowing pairs at attach, so only
# these pin the order of the draws `measure` and `sinr` make. Vehicles enter
# in pairs and most leave mid-run; 30,000-bit DL packets outgrow the grants
# of a shared cell, so many grants carry nothing.
#  - manual: pinned cells, shadowing on, no handover. `sinr` can make a
#    pair's first draw here, so skipping it for grants that carried nothing
#    changes these bytes.
#  - sinr: association by mean DL SINR between ticks, against the last
#    completed TTI, plus handover.
THREE_CELLS_1KM = """\
enb[0].name = enb0
enb[0].x_m = 0.0
enb[0].y_m = 0.0
enb[1].name = enb1
enb[1].x_m = 1000.0
enb[1].y_m = 0.0
enb[2].name = enb2
enb[2].x_m = 2000.0
enb[2].y_m = 0.0
"""

CHURN_TRACE = make_trace(
    row
    for name, t0, t1, x0, x1, y in (
        ("car0", 0.0, 0.25, 450, 750, 40),
        ("car1", 0.0, 0.26, 1557, 1257, 55),
        ("car2", 0.022, 0.292, 534, 834, 70),
        ("car3", 0.022, 0.302, 1501, 1201, 85),
        ("car4", 0.044, 0.334, 478, 778, 40),
        ("car5", 0.044, 0.344, 1585, 1285, 55),
        ("car6", 0.066, 0.376, 562, 862, 70),
        ("car7", 0.066, 0.386, 1529, 1229, 85),
        ("car8", 0.088, 0.418, 506, 806, 40),
        ("car9", 0.088, 0.428, 1613, 1313, 55),
        ("car10", 0.11, 0.46, 590, 890, 70),
        ("car11", 0.11, 0.47, 1557, 1257, 85),
    )
    for row in ((t0, name, x0, y), (t1, name, x1, y))
)

CHURN_BASE = build_config(
    "sim_end_s = 0.4",
    "trace_file = trace.csv",
    "seed = 3",
    "channel.shadowing = true",
    THREE_CELLS_1KM,
    "flow[0].direction = dl",
    "flow[0].target = ALL",
    "flow[0].packet_bits = 30000",
    "flow[0].interval_ms = 20",
    "flow[0].start_s = 0",
    "flow[0].stop_s = 0.4",
    "flow[1].direction = ul",
    "flow[1].target = ALL",
    "flow[1].packet_bits = 4000",
    "flow[1].interval_ms = 40",
    "flow[1].start_s = 0.005",
    "flow[1].stop_s = 0.4",
)

MANUAL_CONFIG = build_config(CHURN_BASE, *(f"car[{i}].master_id = {i % 3}" for i in range(12)))

SINR_CONFIG = build_config(
    CHURN_BASE,
    "dynamic_cell_association = true",
    "association_metric = sinr",
    "enable_handover = true",
    "handover.time_to_trigger_ms = 20",
)

MANUAL_VEHICLES = """\
vehicle,enter_s,leave_s,bits_offered,bits_delivered,bits_dropped_radio,bits_dropped_handover,bits_lost_core,mean_latency_ms,max_latency_ms,handovers,first_cell,cell_timeline
car0,0.000,0.250,640000,8000,80000,0,222000,2.500,3.000,0,enb0,0.000:enb0
car1,0.000,0.260,640000,76000,42000,0,222000,4.167,8.000,0,enb1,0.000:enb1
car10,0.110,0.460,640000,424000,24000,0,192000,134.067,267.000,0,enb1,0.110:enb1
car11,0.110,0.470,640000,8000,20000,0,192000,24.500,44.000,0,enb2,0.110:enb2
car2,0.022,0.292,640000,12000,42000,0,222000,28.000,57.000,0,enb2,0.022:enb2
car3,0.022,0.302,640000,28000,0,0,192000,68.714,171.000,0,enb0,0.022:enb0
car4,0.044,0.334,640000,8000,24000,0,188000,7.000,8.000,0,enb1,0.044:enb1
car5,0.044,0.344,640000,4000,28000,0,158000,2.000,2.000,0,enb2,0.044:enb2
car6,0.066,0.376,640000,12000,20000,0,158000,2.000,2.000,0,enb0,0.066:enb0
car7,0.066,0.386,640000,24000,8000,0,128000,5.667,9.000,0,enb1,0.066:enb1
car8,0.088,0.418,640000,28000,0,0,162000,82.571,192.000,0,enb2,0.088:enb2
car9,0.088,0.428,640000,4000,24000,0,162000,4.000,4.000,0,enb0,0.088:enb0
"""

MANUAL_CELLS = """\
cell,dir,rb_allocated,rb_capacity,utilization
enb0,DL,11326,20000,0.566300
enb0,UL,8329,20000,0.416450
enb1,DL,17052,20000,0.852600
enb1,UL,1263,20000,0.063150
enb2,DL,9638,20000,0.481900
enb2,UL,8030,20000,0.401500
"""

MANUAL_LOG_SHA256 = "83d933f5501cd07526d58cb9dc6df10a74c1d1de208dc7e067ff4a0ed3f1d853"

SINR_VEHICLES = """\
vehicle,enter_s,leave_s,bits_offered,bits_delivered,bits_dropped_radio,bits_dropped_handover,bits_lost_core,mean_latency_ms,max_latency_ms,handovers,first_cell,cell_timeline
car0,0.000,0.250,640000,4000,110000,240000,222000,2.000,2.000,1,enb0,0.000:enb0;0.213:enb1
car1,0.000,0.260,640000,76000,42000,90000,222000,3.000,8.000,1,enb2,0.000:enb2;0.110:enb1
car10,0.110,0.460,640000,28000,0,0,192000,2.714,7.000,0,enb1,0.110:enb1
car11,0.110,0.470,640000,28000,0,0,192000,2.714,7.000,0,enb1,0.110:enb1
car2,0.022,0.292,640000,20000,8000,0,222000,3.200,8.000,0,enb1,0.022:enb1
car3,0.022,0.302,640000,16000,12000,0,192000,3.500,8.000,0,enb1,0.022:enb1
car4,0.044,0.334,640000,28000,4000,0,188000,2.857,8.000,0,enb1,0.044:enb1
car5,0.044,0.344,640000,20000,12000,240000,158000,3.000,7.000,2,enb1,0.044:enb1;0.064:enb2;0.217:enb1
car6,0.066,0.376,640000,16000,16000,240000,158000,3.250,7.000,1,enb0,0.066:enb0;0.238:enb1
car7,0.066,0.386,640000,4000,28000,420000,128000,2.000,2.000,1,enb2,0.066:enb2;0.344:enb1
car8,0.088,0.418,640000,16000,12000,150000,162000,3.250,7.000,1,enb0,0.088:enb0;0.195:enb1
car9,0.088,0.428,640000,24000,4000,0,162000,2.000,2.000,0,enb2,0.088:enb2
"""

SINR_CELLS = """\
cell,dir,rb_allocated,rb_capacity,utilization
enb0,DL,9014,20000,0.450700
enb0,UL,82,20000,0.004100
enb1,DL,17950,20000,0.897500
enb1,UL,594,20000,0.029700
enb2,DL,17064,20000,0.853200
enb2,UL,126,20000,0.006300
"""

SINR_LOG_SHA256 = "0d03448c0f2e1e101be352b2c65296d9e900515537b2976cc6727b80ef4b5fc9"


@pytest.mark.parametrize(
    "config_text, vehicles, cells, log_sha256",
    [
        (MANUAL_CONFIG, MANUAL_VEHICLES, MANUAL_CELLS, MANUAL_LOG_SHA256),
        (SINR_CONFIG, SINR_VEHICLES, SINR_CELLS, SINR_LOG_SHA256),
    ],
    ids=["manual", "sinr"],
)
def test_golden_three_cell_churn(tmp_path, config_text, vehicles, cells, log_sha256):
    for cache in ("cold", "warm"):  # the second run reads the trace cache the first wrote
        assert _trace_cache_is_warm(tmp_path) == (cache == "warm")
        report, _ = _run(tmp_path, config_text, CHURN_TRACE)
        assert report.vehicles_csv() == vehicles
        assert report.cells_csv() == cells
        log = "".join(line + "\n" for line in report.event_log)
        assert hashlib.sha256(log.encode()).hexdigest() == log_sha256


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so set order, change with PYTHONHASHSEED; a shadowed
    # run with handover must not let that reach its outputs
    config = write_scenario(tmp_path, SINR_CONFIG, CHURN_TRACE)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "vcellsim.cli", "run", "--config", config, "--out", out],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        names = ("vehicles.csv", "cells.csv", "events.log")
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "config_text, by_cell_id",
    [(MANUAL_CONFIG, True), (SINR_CONFIG, False)],
    ids=["manual", "sinr"],
)
def test_shadowing_is_drawn_at_attach_in_attach_order(tmp_path, config_text, by_cell_id):
    # Attach scores every cell, a pinned one too, so each vehicle's pairs with
    # all eNBs are drawn when it enters and no later query draws; the queries a
    # tick skips cannot move a draw. Received-power scores draw in ascending
    # cell id; `sinr` scores in the order each `measure` queries the cells.
    scn = Scenario(load_config(write_scenario(tmp_path, config_text, CHURN_TRACE)))
    channel, binder = scn.channel, scn.binder
    attach = scn.rrc.initial_association
    attach_order = []

    def checked_attach(ue, manual_cell=None):
        cell = attach(ue, manual_cell)
        drawn = list(channel._shadowing_db)
        assert drawn[: len(attach_order)] == attach_order
        new = drawn[len(attach_order) :]
        pairs = [(c, ue) for c in binder.cells]  # eNB ids come first
        assert (new if by_cell_id else sorted(new)) == pairs
        attach_order.extend(new)
        return cell

    scn.rrc.initial_association = checked_attach
    scn.run()
    assert len(attach_order) == 12 * 3
    # a leave drops the vehicle's pairs; the live vehicles' stay in attach order
    live = {rec.node_id for rec in binder.live_nodes(NodeKind.UE)}
    assert list(channel._shadowing_db) == [pair for pair in attach_order if pair[1] in live]


def test_shadowing_memory_tracks_live_vehicles(tmp_path):
    scn = Scenario(load_config(write_scenario(tmp_path, SINR_CONFIG, CHURN_TRACE)))
    scn.run()
    live = scn.binder.live_nodes(NodeKind.UE)
    assert 0 < len(live) < 12  # the trace's churn leaves some vehicles, not all
    assert len(scn.channel._shadowing_db) == len(live) * len(scn.binder.cells)


def test_budgets_are_kept_for_live_vehicles_only(tmp_path):
    # the A3 check's budgets in RRC, and the DL CQIs the tick keeps
    scn = Scenario(load_config(write_scenario(tmp_path, SINR_CONFIG, CHURN_TRACE)))
    kept, cqis_of_leavers = set(), []
    leave = scn._on_leave

    def checked_leave(event):
        node = scn.binder.live_id(event.payload)
        kept.update(scn.rrc._slack_m)
        cqis_of_leavers.append(node in scn._dl_cqis)
        leave(event)
        assert node not in scn.rrc._slack_m and node not in scn._dl_cqis

    scn.engine.on(EventKind.VEHICLE_LEAVE, checked_leave)
    scn.run()
    live = {rec.node_id for rec in scn.binder.live_nodes(NodeKind.UE)}
    assert kept and set(scn.rrc._slack_m) <= live
    assert any(cqis_of_leavers) and set(scn._dl_cqis) <= live


def _count_measures(scn):
    """Wrap the scenario's `measure`; returns the list of (ue, direction, buffered bits)."""
    calls = []
    measure = scn.channel.measure

    def counted(ue, cell, direction):
        calls.append((ue, direction, scn.mac.buffer_bits(ue, direction)))
        return measure(ue, cell, direction)

    scn.channel.measure = counted
    return calls


def test_tick_measures_only_backlogged_buffers(tmp_path):
    scn = Scenario(load_config(write_scenario(tmp_path, MANUAL_CONFIG, CHURN_TRACE)))
    calls = _count_measures(scn)
    scn.run()
    assert {direction for _, direction, _ in calls} == {Direction.DL, Direction.UL}
    assert all(bits > 0 for _, _, bits in calls)


@pytest.mark.parametrize("config_text", [MANUAL_CONFIG, SINR_CONFIG], ids=["manual", "sinr"])
def test_measuring_every_ue_gives_the_same_bytes(tmp_path, config_text):
    config = load_config(write_scenario(tmp_path, config_text, CHURN_TRACE))
    outputs, measures = [], []
    for forced in (False, True):
        scn = Scenario(config)
        if forced:
            scn.mac = MeasureEveryone(scn.mac)
        calls = _count_measures(scn)
        report = scn.run()
        outputs.append((report.vehicles_csv(), report.cells_csv(), report.event_log))
        measures.append(len(calls))
    assert measures[1] > measures[0]
    assert outputs[1] == outputs[0]


def test_reference_mode_checks_and_measures_every_live_ue_at_every_tick(tmp_path, monkeypatch):
    # `reference_mode` swaps the tick's A3 phase and the MAC of a built
    # scenario, and the differential test wraps the MAC's schedulers, so the
    # tick must look each up when it runs; one bound at construction would
    # leave the differential test comparing the skips, or nothing. It also
    # writes the grid grant by grant, never by row.
    config = load_config(write_scenario(tmp_path, SINR_CONFIG, CHURN_TRACE))
    scn = reference_mode(Scenario(config))
    live, checks, scheduled, measures, in_tick = [], [], [], collections.Counter(), [False]
    writes = collections.Counter()
    check, measure, tick = oracles.reference_handover_check, scn.channel.measure, scn._on_tick

    def counted_check(rrc, ue, now_us):
        checks.append(now_us)
        return check(rrc, ue, now_us)

    def counted_measure(ue, cell, direction):
        measures[direction] += in_tick[0]
        return measure(ue, cell, direction)

    def counted_tick(event):
        live.append(len(scn.binder.live_nodes(NodeKind.UE)))
        in_tick[0] = True
        tick(event)
        in_tick[0] = False

    def counted_schedule(schedule):
        return lambda cell, direction, ues, tables: (
            scheduled.append(len(ues)) or schedule(cell, direction, ues, tables)
        )

    def counted_write(name, write):
        return lambda *args: writes.update([name]) or write(*args)

    monkeypatch.setattr(oracles, "reference_handover_check", counted_check)
    scn.channel.measure = counted_measure
    for name in ("schedule_tti_rr", "schedule_tti_maxcqi"):
        setattr(scn.mac, name, counted_schedule(getattr(scn.mac, name)))
    for name in ("record_allocation", "install_row"):
        setattr(scn.binder, name, counted_write(name, getattr(scn.binder, name)))
    scn.engine.on(EventKind.TTI_TICK, counted_tick)
    scn.run()
    assert len(live) == 400 and sum(live) > 0
    assert len(checks) == measures[Direction.DL] == measures[Direction.UL] == sum(live)
    assert sum(scheduled) == 2 * sum(live)  # each live UE is a candidate in both directions
    assert writes["record_allocation"] > 0 and writes["install_row"] == 0


def test_last_uplink_sender_is_read_at_its_current_position_after_emptying_its_buffer(tmp_path):
    # car0 sends one UL packet in cell enb0 at TTI 0, which empties its buffer,
    # then jumps 800 m toward enb1 by TTI 1. car1, always UL-backlogged in
    # enb1, reads car0 on their shared RBs as interference in TTI 1, so car0
    # must be read where it is then although it is neither backlogged nor due
    # a check.
    trace = make_trace(
        [
            (0.0, "car0", 100.0, 0.0),
            (0.001, "car0", 900.0, 0.0),
            (0.1, "car0", 900.0, 0.0),
            (0.0, "car1", 1100.0, 0.0),
            (0.1, "car1", 1100.0, 0.0),
        ]
    )
    config = load_config(
        write_scenario(
            tmp_path,
            build_config(
                "sim_end_s = 0.003",
                "trace_file = trace.csv",
                "num_rbs = 6",
                TWO_CELLS.replace("2000.0", "1000.0"),
                "car[0].master_id = 0",
                "car[1].master_id = 1",
                "flow[0].direction = ul",
                "flow[0].target = car0",
                "flow[0].packet_bits = 400",
                "flow[0].interval_ms = 1000",
                "flow[0].start_s = 0",
                "flow[0].stop_s = 0.003",
                "flow[1].direction = ul",
                "flow[1].target = car1",
                "flow[1].packet_bits = 30000",
                "flow[1].interval_ms = 1",
                "flow[1].start_s = 0",
                "flow[1].stop_s = 0.003",
            ),
            trace,
        )
    )
    reports = []
    for reference in (False, True):
        scn = Scenario(config)
        if reference:
            reference_mode(scn)
        sinr = {}
        measure = scn.channel.measure

        def recorded(ue, cell, direction, scn=scn, sinr=sinr, measure=measure):
            report = measure(ue, cell, direction)
            if direction is Direction.UL and scn.engine.now == ms_to_us(1):
                sinr[scn.binder.node(ue).name] = report.mean_sinr
                if not reference:
                    car0 = scn.binder.live_id("car0")
                    assert car0 not in scn.mac.backlogged[Direction.UL]
                    assert car0 in [row[0] for row in scn.binder.last[Direction.UL].values()]
            return report

        scn.channel.measure = recorded
        scn.run()
        reports.append(sinr)
    assert "car1" in reports[0]
    assert reports[0] == {name: reports[1][name] for name in reports[0]}


def test_a_vehicle_entering_between_ticks_is_read_afresh_at_the_next_tick(tmp_path):
    # car0 enters at 10.5 ms, off a TTI boundary, 100 m from enb0, and is 900 m
    # from it (100 m from enb1) by the tick at 11 ms. `sinr` association
    # measures it at 10.5 ms; its first DL packet lands at once, so the tick
    # measures it again against enb1's DL grid, which car1's packets, too
    # big for one TTI, keep full. A position kept from 10.5 ms would read
    # CQI 15 there instead of 0.
    trace = make_trace(
        [
            (0.0105, "car0", 100.0, 0.0),
            (0.011, "car0", 900.0, 0.0),
            (0.02, "car0", 900.0, 0.0),
            (0.0, "car1", 1050.0, 0.0),
            (0.02, "car1", 1050.0, 0.0),
        ]
    )
    config = load_config(
        write_scenario(
            tmp_path,
            build_config(
                "sim_end_s = 0.015",
                "trace_file = trace.csv",
                "dynamic_cell_association = true",
                "association_metric = sinr",
                "backhaul.delay_ms = 0",
                TWO_CELLS.replace("2000.0", "1000.0"),
                "flow[0].direction = dl",
                "flow[0].target = car1",
                "flow[0].packet_bits = 60000",
                "flow[0].interval_ms = 1",
                "flow[0].start_s = 0",
                "flow[0].stop_s = 0.015",
                "flow[1].direction = dl",
                "flow[1].target = car0",
                "flow[1].packet_bits = 800",
                "flow[1].interval_ms = 1",
                "flow[1].start_s = 0.0105",
                "flow[1].stop_s = 0.015",
            ),
            trace,
        )
    )
    cqis = []
    for reference in (False, True):
        scn = Scenario(config)
        if reference:
            reference_mode(scn)
        seen = {}
        measure = scn.channel.measure

        def recorded(ue, cell, direction, scn=scn, seen=seen, measure=measure):
            report = measure(ue, cell, direction)
            if scn.binder.node(ue).name == "car0" and direction is Direction.DL:
                seen[scn.engine.now] = report.cqi
            return report

        scn.channel.measure = recorded
        scn.run()
        assert ms_to_us(10.5) in seen and scn.vehicles["car0"].stats.first_cell == "enb0"
        cqis.append(seen[ms_to_us(11)])
    assert cqis == [0, 0]


def test_a_kept_downlink_cqi_is_the_one_a_fresh_measure_reads(tmp_path):
    # enb0 and enb1 stand 2.2 d_min apart (d_min = 100 m). car0 drives at
    # 20 m/s from 1.0 to 1.2 d_min from enb0, its serving cell, toward enb1,
    # whose DL grid car1 keeps full. Its signal falls and enb1's interference
    # rises, each at 0.83R-R dB per metre, so the mean SINR falls at close to
    # the 2R dB per metre the budget allows, from about 0.6 dB above CQI 5's
    # threshold down to CQI 2. A budget from R alone would keep a CQI past
    # the threshold the UE has crossed.
    trace = make_trace(
        [
            (0.0, "car0", 100.0, 0.0),
            (1.0, "car0", 120.0, 0.0),
            (0.0, "car1", 240.0, 0.0),
            (1.0, "car1", 240.0, 0.0),
        ]
    )
    config = load_config(
        write_scenario(
            tmp_path,
            build_config(
                "sim_end_s = 1.0",
                "trace_file = trace.csv",
                "dynamic_cell_association = true",
                "backhaul.delay_ms = 0",
                "channel.min_distance_m = 100",
                TWO_CELLS.replace("2000.0", "220.0"),
                *_full_dl_flows(("car0", "car1"), stop_s=1.0),
            ),
            trace,
        )
    )
    _, scheduled, measured = _run_checking_dl_cqis(config, "car0")
    # CQI 15 at the first tick, over an empty grid; then three thresholds crossed
    assert [cqi for cqi, _ in itertools.groupby(scheduled)] == [15, 5, 4, 3, 2]
    assert len(scheduled) == 999 and len(measured) < 50  # mostly kept


def test_a_downlink_cqi_kept_in_the_source_cell_is_not_read_in_the_target(tmp_path):
    # car0 attaches to enb0 and drives at 20 m/s across the A3 point (109.2 m
    # from enb0 with 3 dB hysteresis, the cells 200 m apart), so it hands
    # over to enb1 with its SINR there 6 dB above its SINR in enb0. Its DL
    # buffer refills by the next tick, while car1 and car2, parked by enb0
    # and enb1, keep both DL grids full, so the `last` patterns never change:
    # only the serving cell tells the CQI kept in enb0 from enb1's.
    trace = make_trace(
        [
            (0.0, "car0", 99.0, 0.0),
            (0.6, "car0", 111.0, 0.0),
            (0.0, "car1", 20.0, 0.0),
            (0.6, "car1", 20.0, 0.0),
            (0.0, "car2", 180.0, 0.0),
            (0.6, "car2", 180.0, 0.0),
        ]
    )
    config = load_config(
        write_scenario(
            tmp_path,
            build_config(
                "sim_end_s = 0.6",
                "trace_file = trace.csv",
                "dynamic_cell_association = true",
                "enable_handover = true",
                "handover.time_to_trigger_ms = 0",
                "backhaul.delay_ms = 0",
                TWO_CELLS.replace("2000.0", "200.0"),
                *_full_dl_flows(("car0", "car1", "car2"), stop_s=0.6),
            ),
            trace,
        )
    )
    scn, scheduled, measured = _run_checking_dl_cqis(config, "car0")
    assert "0.509000 HANDOVER car0 enb0->enb1" in scn.log
    # CQI 2 in enb0 just before the handover, 5 in enb1 from the next tick
    assert [cqi for cqi, _ in itertools.groupby(scheduled)] == [15, 4, 3, 2, 5]
    assert len(scheduled) == 599 and len(measured) < 60  # mostly kept


def _full_dl_flows(cars, stop_s):
    """Config lines of one DL flow per car whose packets are too big for one
    TTI, so each car's cell grants all its RBs at every tick."""
    lines = []
    for i, car in enumerate(cars):
        lines += [
            f"flow[{i}].direction = dl",
            f"flow[{i}].target = {car}",
            f"flow[{i}].packet_bits = 60000",
            f"flow[{i}].interval_ms = 1",
            f"flow[{i}].start_s = 0",
            f"flow[{i}].stop_s = {stop_s}",
        ]
    return lines


def _run_checking_dl_cqis(config, vehicle):
    """Run the scenario, asserting at every tick that each DL CQI `vehicle`
    is scheduled with is the one a fresh `measure` reads; return the
    scenario, those CQIs and the times of the vehicle's DL measures."""
    scn = Scenario(config)
    measure, schedule = scn.channel.measure, scn.mac.schedule_tti_rr
    measured, scheduled = [], []

    def watched(ue, direction):
        return direction is Direction.DL and scn.binder.node(ue).name == vehicle

    def counted(ue, cell, direction):
        if watched(ue, direction):
            measured.append(scn.engine.now)
        return measure(ue, cell, direction)

    def checked(cell, direction, ues, tables):
        for ue, cqi in ues:
            if watched(ue, direction):
                assert cqi == measure(ue, cell, direction).cqi, scn.engine.now
                scheduled.append(cqi)
        return schedule(cell, direction, ues, tables)

    scn.channel.measure, scn.mac.schedule_tti_rr = counted, checked
    scn.run()
    return scn, scheduled, measured


def test_maxcqi_link_adaptation_misses_its_error_target(tmp_path):
    # Pins the model's link adaptation, not a fix: every CQI reads 15, since
    # the wideband mean over the last grid is dominated by RBs no other cell
    # uses, while max-CQI packs each cell's grants from RB 0 upward, where
    # the cells collide. So far more than the 10% block errors a CQI aims at
    # fail to decode, and with no HARQ each failure drops its packets.
    rows = []
    for i in range(6):
        x = -300.0 + 2600.0 * (i + 0.5) / 6
        rows += [(0.0, f"car{i}", x, 5.0), (1.0, f"car{i}", x, 5.0)]
    config_text = build_config(
        "sim_end_s = 0.2",
        "trace_file = trace.csv",
        "scheduler = maxcqi",
        "dynamic_cell_association = true",
        THREE_CELLS_1KM,
        "flow[0].direction = dl",
        "flow[0].target = ALL",
        "flow[0].packet_bits = 800",
        "flow[0].interval_ms = 5",
        "flow[0].start_s = 0",
        "flow[0].stop_s = 0.2",
        "flow[1].direction = ul",
        "flow[1].target = ALL",
        "flow[1].packet_bits = 400",
        "flow[1].interval_ms = 10",
        "flow[1].start_s = 0",
        "flow[1].stop_s = 0.2",
    )
    scn = Scenario(load_config(write_scenario(tmp_path, config_text, make_trace(rows))))
    cqis, outcomes = collections.Counter(), []
    measure, transmit = scn.channel.measure, scn.mac.transmit

    def measured(*args):
        report = measure(*args)
        cqis[report.cqi] += 1
        return report

    def transmitted(allocation, channel):
        outcome = transmit(allocation, channel)
        outcomes.extend(outcome.grant_outcomes.values())
        return outcome

    scn.channel.measure, scn.mac.transmit = measured, transmitted
    scn.run()
    carried = [g for g in outcomes if g.delivered or g.dropped_bits]
    failed = sum(not g.decoded for g in carried)
    assert len(carried) > 300 and set(cqis) == {15}
    assert failed / len(carried) > 0.3


def _crowd(vehicles: int, sim_s: float, seed: int = 5):
    """(config text, trace text): `vehicles` slots over 4 cells 1 km apart,
    each a vehicle at 0-3 m/s that leaves within twice the run and a
    successor that enters 10-50 ms later; no traffic, handover on."""
    rng = random.Random(seed)
    rows = []
    for i in range(vehicles):
        x0, y = -500.0 + 4000.0 * (i + rng.random()) / vehicles, rng.uniform(-300.0, 300.0)
        leave = round(0.01 + 2 * sim_s * (i + rng.random()) / vehicles, 3)
        lives = [(f"v{i}a", 0.0, leave)]
        if leave < sim_s:
            lives.append((f"v{i}b", round(leave + 0.01 + 0.04 * rng.random(), 3), 2 * sim_s + 1))
        for name, t0, t1 in lives:
            speed = rng.uniform(-3.0, 3.0)
            rows += [(t0, name, x0, y), (t1, name, round(x0 + speed * (t1 - t0), 3), y)]
    config = build_config(
        f"sim_end_s = {sim_s}",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enable_handover = true",
        *(f"enb[{i}].x_m = {1000.0 * i}\nenb[{i}].y_m = 0.0" for i in range(4)),
    )
    return config, make_trace(rows)


def test_idle_vehicles_are_neither_read_nor_checked_each_tti(tmp_path, monkeypatch):
    # Counts, not timings: a tick reads and checks an idle UE only when its
    # A3 check falls due, which the movement budget puts far apart at 0-3
    # m/s. Reading and checking every live UE every TTI would make about
    # 60 x 200 = 12,000 calls of each here.
    config_text, trace_text = _crowd(vehicles=60, sim_s=0.2)
    scn = Scenario(load_config(write_scenario(tmp_path, config_text, trace_text)))
    positions = []
    monkeypatch.setattr(
        scenario_module, "position_at", lambda traj, t: positions.append(t) or position_at(traj, t)
    )
    checks = []
    check = scn.rrc.handover_check
    scn.rrc.handover_check = lambda ue, now: checks.append(now) or check(ue, now)
    enters = []
    enter = scn._on_enter
    scn.engine.on(EventKind.VEHICLE_ENTER, lambda event: enters.append(event) or enter(event))
    scn.run()
    assert len(enters) > 60  # some vehicles churned in the window
    # every vehicle is checked in its first TTI; few are checked again
    assert len(checks) <= 2 * len(enters)
    # one position at attach, one per check
    assert len(positions) <= len(enters) + len(checks)


def test_due_queue_holds_one_entry_per_live_vehicle(tmp_path):
    # every due time is capped at the vehicle's departure, so once a tick has
    # popped what is due, no entry of a vehicle that left is kept
    scn = Scenario(load_config(write_scenario(tmp_path, SINR_CONFIG, CHURN_TRACE)))
    tick = scn._on_tick
    sizes = []

    def checked_tick(event):
        tick(event)
        queued = [ue for _, ue in scn._checks]
        live = {rec.node_id for rec in scn.binder.live_nodes(NodeKind.UE)}
        assert sorted(queued) == sorted(live)
        sizes.append(len(queued))

    scn.engine.on(EventKind.TTI_TICK, checked_tick)
    scn.run()
    assert max(sizes) > 0


@pytest.mark.parametrize(
    "config_text",
    [
        build_config(CHURN_BASE, "dynamic_cell_association = true"),
        SINR_CONFIG.replace(THREE_CELLS_1KM, ONE_CELL),
    ],
    ids=["handover-off", "one-cell"],
)
def test_no_ue_is_ever_due_without_a_neighbour_to_hand_over_to(tmp_path, config_text):
    scn = Scenario(load_config(write_scenario(tmp_path, config_text, CHURN_TRACE)))
    checks = []
    scn.rrc.handover_check = lambda ue, now: checks.append(ue)
    scn.run()
    assert checks == [] and scn._checks == []


def test_write_outputs_creates_all_files_and_overwrites(tmp_path):
    report, _ = _run(tmp_path, GOLDEN_CONFIG, GOLDEN_TRACE)
    out = tmp_path / "out"
    first = write_outputs(report, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "cells.csv",
        "events.log",
        "run.csv",
        "vehicles.csv",
    ]
    assert (out / "vehicles.csv").read_text() == GOLDEN_VEHICLES
    # rerun into the same directory replaces the files cleanly
    write_outputs(report, out)
    assert (out / "vehicles.csv").read_text() == GOLDEN_VEHICLES
    run_line = (out / "run.csv").read_text().splitlines()
    assert run_line[0] == "seed,sim_end_s,events,wall_ms"
    seed, sim_end, events, wall = run_line[1].split(",")
    assert seed == "1" and sim_end == "0.050"
    assert int(events) > 0 and int(wall) >= 0
