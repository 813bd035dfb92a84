"""The optimized run against a reference run with every skip patched out.

`oracles.reference_mode` takes out the due times that the A3 check's
movement budget sets, which let a tick leave a UE unchecked and unread,
the DL CQI a tick keeps until the UE may have moved far enough to change
it, and the guard that measures only backlogged UEs. The skips are exact
by argument, so both runs must write the same vehicles.csv, cells.csv and
events.log, whatever the scenario; every CQI the optimized run's ticks
hand the scheduler, kept or measured, must equal the reference's at the
same TTI; and every CQI report the optimized run takes must read the mean
SINR the reference reads at the same TTI, which holds only if every
position read is current. The scenarios are drawn small: 2-5 cells, 3-20
vehicles that enter, leave and crash, 0.5-3 s, handover mostly on. Enter,
accident and flow start times are drawn in microseconds, so vehicles
attach, and routes bend, between ticks. A route has 1-4 segments, each
stopped, driven at up to 60 m/s or a jump of up to half the eNB spacing
in 1-5 ms, so a vehicle's top speed need not be its first. Half of the
scenarios set the coupling distance near half the eNB spacing, where
best - serving and the mean SINR move at close to the 2R dB per metre
the budgets allow, so a looser bound shows as a late handover or a stale
CQI.

The reference run also schedules every cell from scratch, with the MAC's
memo of earlier schedules emptied before each call, and every non-empty
schedule's grants must equal the reference's at the same TTI, so the
comparison covers every schedule the memo hands out again. It records
each grant in the grid on its own and checks each at transmit, where the
optimized run installs the row each deal built and checks it once. Half
of the scenarios add a downlink flow whose packets exceed what `num_rbs`
RBs carry at CQI 15 (799 bits each): they never fit a grant, so their UE
stays backlogged and its cell deals the same backlog TTI after TTI.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from vcellsim.config import load_config
from vcellsim.engine import EventKind
from vcellsim.rrc import ASSOCIATION_METRICS
from vcellsim.scenario import Scenario

from conftest import build_config, make_trace, write_scenario
from oracles import reference_mode


MS = 1000  # us


def _seconds(us: int) -> str:
    return f"{us / 1e6:.6f}"


def _route(draw, enter_us: int, leave_us: int, x0: float, spacing: float) -> list[tuple[int, float]]:
    """(us, x) samples from `enter_us` to `leave_us` in 1-4 segments of whole ms."""
    samples = [(enter_us, x0)]
    segments = draw(st.integers(1, 4))
    while samples[-1][0] < leave_us:
        t, x = samples[-1]
        kind = draw(st.sampled_from(("drive", "stop", "jump")))
        left = (leave_us - t) // MS
        if len(samples) == segments or left < 2:
            dt = leave_us - t
        elif kind == "jump":
            dt = draw(st.integers(1, min(5, left - 1))) * MS
        else:
            dt = draw(st.integers(1, left - 1)) * MS
        if kind == "stop":
            dx = 0.0
        elif kind == "jump":
            dx = draw(st.integers(-int(spacing) // 2, int(spacing) // 2))
        else:
            dx = draw(st.integers(-60, 60)) * dt / 1e6  # m/s along x
        samples.append((t + dt, x + dx))
    return samples


@st.composite
def scenarios(draw):
    """(config text, trace text) of one small scenario."""
    n_cells = draw(st.integers(2, 5))
    spacing = draw(st.sampled_from((300.0, 600.0, 1000.0)))
    sim_us = draw(st.integers(500, 3000)) * MS
    min_distance = 0.45 * spacing if draw(st.booleans()) else 35.0
    num_rbs = draw(st.sampled_from((6, 15)))
    lines = [
        f"sim_end_s = {_seconds(sim_us)}",
        "trace_file = trace.csv",
        f"seed = {draw(st.integers(0, 1000))}",
        f"num_rbs = {num_rbs}",
        f"scheduler = {draw(st.sampled_from(('rr', 'maxcqi')))}",
        f"enable_handover = {str(draw(st.integers(0, 3)) > 0).lower()}",
        f"handover.hysteresis_db = {draw(st.sampled_from((0.0, 0.5, 1.0, 3.0)))}",
        f"handover.time_to_trigger_ms = {draw(st.sampled_from((0, 1, 20, 100)))}",
        f"association_metric = {draw(st.sampled_from(ASSOCIATION_METRICS))}",
        f"channel.shadowing = {str(draw(st.booleans())).lower()}",
        f"channel.min_distance_m = {min_distance}",
    ]
    if draw(st.integers(0, 3)):
        lines.append("dynamic_cell_association = true")
    else:
        lines.append(f"car.default.master_id = {draw(st.integers(0, n_cells - 1))}")
    for i in range(n_cells):
        lines += [
            f"enb[{i}].x_m = {i * spacing}",
            f"enb[{i}].y_m = {draw(st.sampled_from((0.0, 25.0, -50.0)))}",
            f"enb[{i}].tx_power_dbm = {draw(st.sampled_from((40.0, 46.0)))}",
        ]

    n_vehicles = draw(st.integers(3, 20))
    rows = []
    for v in range(n_vehicles):
        name = f"car{v}"
        enter_us = draw(st.integers(0, sim_us * 2 // 3))
        life_us = draw(st.integers(200, sim_us // MS + 500)) * MS  # some outlive the run
        leave_us = enter_us + life_us
        if draw(st.booleans()):  # start near a cell border
            x0 = (draw(st.integers(0, n_cells - 2)) + 0.5) * spacing + draw(st.integers(-60, 60))
        else:
            x0 = draw(st.integers(-100, int((n_cells - 1) * spacing) + 100))
        y = draw(st.integers(-60, 60))
        rows += [
            (_seconds(t), name, x, y) for t, x in _route(draw, enter_us, leave_us, x0, spacing)
        ]
        if draw(st.integers(0, 3)) == 0:
            lines += [
                f"car[{v}].accident.count = 1",
                f"car[{v}].accident.start_s = {_seconds(draw(st.integers(0, life_us - 1)))}",
                f"car[{v}].accident.duration_s = {_seconds(draw(st.integers(50, 1000)) * MS)}",
            ]

    saturated = draw(st.booleans())
    for f in range(draw(st.integers(0, 3)) + saturated):
        target = draw(st.sampled_from(["ALL"] + [f"car{v}" for v in range(n_vehicles)]))
        if saturated and f == 0:  # never fits a grant: the cell repeats its schedule
            direction, bits = "dl", num_rbs * 799 + draw(st.integers(1, 4000))
        else:
            direction = draw(st.sampled_from(("dl", "ul")))
            bits = draw(st.sampled_from((800, 4000, 30000)))
        lines += [
            f"flow[{f}].direction = {direction}",
            f"flow[{f}].target = {target}",
            f"flow[{f}].packet_bits = {bits}",
            f"flow[{f}].interval_ms = {draw(st.sampled_from((5, 20, 50)))}",
            # buffers empty out of step
            f"flow[{f}].start_s = {_seconds(draw(st.integers(0, 50 * MS - 1)))}",
            f"flow[{f}].stop_s = {_seconds(sim_us)}",
        ]
    return build_config(*lines), make_trace(rows)


def _outputs(config, reference: bool):
    """The run's output bytes, the mean SINR of each CQI report its ticks
    take and each CQI its ticks schedule with, both by (TTI start, UE, cell,
    direction), and each non-empty schedule's grants by (TTI start, cell,
    direction)."""
    scn = Scenario(config)
    if reference:
        reference_mode(scn)
    ticks, measure = [], scn.channel.measure
    reports, cqis, grants = {}, {}, {}

    def recorded(ue, cell, direction):
        report = measure(ue, cell, direction)
        if ticks and ticks[-1] == scn.engine.now:
            reports[(scn.engine.now, ue, cell, direction)] = report.mean_sinr
        return report

    tick = scn._on_tick

    def on_tick(event):
        ticks.append(scn.engine.now)
        tick(event)

    def scheduling(schedule):
        def recorded_schedule(cell, direction, ues, tables):
            for ue, cqi in ues:
                cqis[(scn.engine.now, ue, cell, direction)] = cqi
            alloc = schedule(cell, direction, ues, tables)
            if alloc.grants:
                grants[(scn.engine.now, cell, direction)] = {
                    ue: (g.rb_set, g.cqi_used) for ue, g in alloc.grants.items()
                }
            return alloc

        return recorded_schedule

    scn.channel.measure = recorded
    for name in ("schedule_tti_rr", "schedule_tti_maxcqi"):
        setattr(scn.mac, name, scheduling(getattr(scn.mac, name)))
    scn.engine.on(EventKind.TTI_TICK, on_tick)
    report = scn.run()
    outputs = (report.vehicles_csv(), report.cells_csv(), report.event_log)
    return outputs, reports, cqis, grants


def _repeats(grants) -> int:
    """How many schedules, in time order, deal what their cell and direction
    dealt the last time."""
    last, count = {}, 0
    for (_, cell, direction), dealt in grants.items():
        count += dealt == last.get((cell, direction))
        last[(cell, direction)] = dealt
    return count


def test_optimized_run_writes_the_reference_bytes():
    handovers, repeats = [], []

    @settings(
        max_examples=30,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),  # no shrinking: fail fast
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenarios())
    def check(case):
        config_text, trace_text = case
        with tempfile.TemporaryDirectory() as tmp:
            config = load_config(write_scenario(Path(tmp), config_text, trace_text))
            optimized, reports, cqis, grants = _outputs(config, reference=False)
            expected, reference_reports, reference_cqis, reference_grants = _outputs(
                config, reference=True
            )
            assert optimized == expected
            assert cqis == {key: reference_cqis[key] for key in cqis}
            assert reports == {key: reference_reports[key] for key in reports}
            assert grants == reference_grants
        handovers.append(sum(" HANDOVER " in line for line in optimized[2]))
        repeats.append(_repeats(grants))

    check()
    assert any(handovers), "no drawn scenario handed a vehicle over"
    assert sum(map(bool, repeats)) >= 5, "too few drawn scenarios repeated a schedule"
