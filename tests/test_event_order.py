"""A run fires its events in the order of the eager schedule.

Set-up schedules only each flow's first arrival, and each arrival
reschedules the flow's next; `oracles.eager_mode` instead schedules every
arrival up front, as one list per flow. Both runs must process the same
(time, kind, key) sequence, where the key is the packet id of an arrival
or backhaul delivery, the vehicle of an enter or leave and the index of a
tick. The scenarios are drawn to put many events at one time: flows with
sub-TTI and TTI-multiple intervals, starts on vehicle enter times, and
backhaul delays of 0 and of whole and half TTIs.
"""

import random

from vcellsim.config import load_config
from vcellsim.engine import EventKind
from vcellsim.scenario import Scenario

from conftest import build_config, make_trace, write_scenario
from oracles import eager_mode

INTERVALS_MS = (0.25, 0.5, 0.75, 1, 1.5, 2, 3)
DELAYS_MS = (0, 0.5, 1, 1.5, 3)


def _scenario(rng: random.Random) -> tuple[str, str]:
    """(config text, trace text) of one small scenario with 1-5 flows."""
    sim_ms = rng.randrange(20, 80)
    n_cells = rng.randint(1, 2)
    lines = [
        f"sim_end_s = {sim_ms / 1000}",
        "trace_file = trace.csv",
        f"seed = {rng.randrange(1000)}",
        "num_rbs = 6",
        f"scheduler = {rng.choice(('rr', 'maxcqi'))}",
        "dynamic_cell_association = true",
        f"backhaul.delay_ms = {rng.choice(DELAYS_MS)}",
    ]
    for i in range(n_cells):
        lines += [f"enb[{i}].x_m = {i * 1000.0}", f"enb[{i}].y_m = 0.0"]

    rows, enters_ms = [], []
    for v in range(rng.randint(2, 5)):
        enter_ms = rng.choice((0, 0, 0.5, 1, 2, rng.randrange(sim_ms)))
        leave_ms = enter_ms + rng.choice((rng.randrange(5, 40), sim_ms))
        x = rng.uniform(0.0, 1000.0 * (n_cells - 1) + 200.0)
        rows += [(enter_ms / 1000, f"car{v}", x, 10.0), (leave_ms / 1000, f"car{v}", x + 5.0, 10.0)]
        enters_ms.append(enter_ms)

    for f in range(rng.randint(1, 5)):
        start_ms = rng.choice(enters_ms + [0, rng.randrange(sim_ms)])
        stop_ms = rng.choice((sim_ms + 10, start_ms + rng.randrange(1, 30)))
        lines += [
            f"flow[{f}].direction = {rng.choice(('dl', 'ul'))}",
            f"flow[{f}].target = {rng.choice(['ALL'] + [f'car{v}' for v in range(len(enters_ms))])}",
            f"flow[{f}].packet_bits = {rng.choice((800, 4000))}",
            f"flow[{f}].interval_ms = {rng.choice(INTERVALS_MS)}",
            f"flow[{f}].start_s = {start_ms / 1000}",
            f"flow[{f}].stop_s = {stop_ms / 1000}",
        ]
    return build_config(*lines), make_trace(rows)


def _key(event):
    if event.kind in (EventKind.PACKET_ARRIVAL, EventKind.BACKHAUL_DELIVERY):
        return event.payload.packet_id
    return event.payload


def _processed(config, eager: bool) -> tuple[list, bytes]:
    """The run's processed (time, kind, key) sequence, and its events.log."""
    scn = Scenario(config)
    if eager:
        eager_mode(scn)
    seen = []

    def recorded(handler):
        def record(event):
            seen.append((event.fire_time, event.kind, _key(event)))
            handler(event)

        return record

    for kind, handler in list(scn.engine._handlers.items()):
        scn.engine.on(kind, recorded(handler))
    report = scn.run()
    return seen, report.event_log


def _shared_times(seen) -> set[str]:
    """Which other events share a time with some arrival in a processed sequence."""
    by_time: dict[int, list] = {}
    for t, kind, key in seen:
        by_time.setdefault(t, []).append((kind, key))
    shared = set()
    for events in by_time.values():
        flows = {key.split("#")[0] for kind, key in events if kind is EventKind.PACKET_ARRIVAL}
        if not flows:
            continue
        kinds = {kind for kind, _ in events}
        if len(flows) > 1:
            shared.add("another flow")
        for kind in (EventKind.TTI_TICK, EventKind.BACKHAUL_DELIVERY, EventKind.VEHICLE_ENTER):
            if kind in kinds:
                shared.add(kind.name)
    return shared


def test_lazy_arrivals_fire_in_the_eager_order(tmp_path):
    shared = set()
    for seed in range(40):
        config_path = write_scenario(tmp_path / str(seed), *_scenario(random.Random(seed)))
        config = load_config(config_path)
        lazy, lazy_log = _processed(config, eager=False)
        eager, eager_log = _processed(config, eager=True)
        assert lazy == eager, f"seed {seed}"
        assert lazy_log == eager_log, f"seed {seed}"
        shared |= _shared_times(lazy)
    # the order means little unless arrivals share times with other events
    assert shared == {"another flow", "TTI_TICK", "BACKHAUL_DELIVERY", "VEHICLE_ENTER"}
