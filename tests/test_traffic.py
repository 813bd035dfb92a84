import random

import pytest

from vcellsim.binder import Direction
from vcellsim.config import load_config
from vcellsim.engine import EventKind, ms_to_us, s_to_us
from vcellsim.scenario import Scenario
from vcellsim.traffic import ALL_VEHICLES, FlowSpec, expand_flows, generate_flow_events

from conftest import ONE_CELL, build_config, make_trace, write_scenario
from oracles import eager_flow_events


def _spec(**kw):
    base = dict(
        name="flow0",
        direction=Direction.DL,
        target="car0",
        packet_bits=1000,
        interval_us=ms_to_us(125),
        start_us=0,
        stop_us=s_to_us(1),
    )
    base.update(kw)
    return FlowSpec(**base)


def _times(spec):
    """Every arrival time of `spec`, with no run end to cut them short."""
    return generate_flow_events(spec, spec.stop_us)


def _arrivals(tmp_path, sim_end_s, flow):
    """The PACKET_ARRIVAL events a run of one vehicle, car0, fires, with the
    config lines of one flow, `flow[0]`."""
    cfg = build_config(
        f"sim_end_s = {sim_end_s}",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        ONE_CELL,
        *(f"flow[0].{line}" for line in flow),
    )
    trace = make_trace([(0, "car0", 100, 0), (sim_end_s + 1, "car0", 100, 0)])
    scn = Scenario(load_config(write_scenario(tmp_path, cfg, trace)))
    fired = []
    on_arrival = scn.engine._handlers[EventKind.PACKET_ARRIVAL]

    def record(event):
        fired.append((event.fire_time, event.kind, event.payload))
        on_arrival(event)

    scn.engine.on(EventKind.PACKET_ARRIVAL, record)
    scn.run()
    return fired


def test_zero_length_window_generates_nothing():
    assert len(_times(_spec(stop_us=0))) == 0


def test_cbr_window_event_count_and_bits(tmp_path):
    # oracle: arithmetic sequence 0, 125, ..., 875 ms -> 8 packets
    assert list(_times(_spec())) == [ms_to_us(125 * k) for k in range(8)]
    fired = _arrivals(
        tmp_path,
        1,
        ["direction = dl", "target = car0", "packet_bits = 1000", "interval_ms = 125",
         "start_s = 0", "stop_s = 1"],
    )
    assert len(fired) == 8
    assert all(kind == EventKind.PACKET_ARRIVAL for _, kind, _ in fired)
    assert sum(packet.size_bits for _, _, packet in fired) == 8000
    assert [packet.seq for _, _, packet in fired] == list(range(8))
    assert [packet.created_us for _, _, packet in fired] == [t for t, _, _ in fired]
    assert fired[-1][0] == ms_to_us(875)


def test_packet_ids_sequential_per_flow(tmp_path):
    fired = _arrivals(
        tmp_path,
        1,
        ["direction = dl", "target = car0", "packet_bits = 1000", "interval_ms = 250",
         "start_s = 0", "stop_s = 1"],
    )
    assert [packet.packet_id for _, _, packet in fired] == [
        "flow0#0",
        "flow0#1",
        "flow0#2",
        "flow0#3",
    ]


def test_all_target_expands_to_one_flow_per_vehicle():
    vehicles = [f"car{i}" for i in range(10)]
    flows = expand_flows([_spec(target=ALL_VEHICLES)], vehicles)
    assert len(flows) == 10
    assert sorted(f.target for f in flows) == sorted(vehicles)
    assert len({f.name for f in flows}) == 10


def test_non_all_specs_pass_through_unchanged():
    spec = _spec()
    assert expand_flows([spec], ["car0", "car1"]) == [spec]


def test_generate_rejects_unexpanded_all():
    with pytest.raises(ValueError):
        _times(_spec(target=ALL_VEHICLES))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        _spec(packet_bits=0)
    with pytest.raises(ValueError):
        _spec(interval_us=0)
    with pytest.raises(ValueError):
        _spec(start_us=10, stop_us=5)


def test_no_arrival_after_the_run_ends(tmp_path):
    # a 1 ms flow to 200 s in a run that ends at 0.5 s: the run fires events
    # up to and including its end, so the arrivals are at 0, 1, ..., 500 ms
    spec = _spec(interval_us=ms_to_us(1), stop_us=s_to_us(200))
    assert list(generate_flow_events(spec, ms_to_us(500))) == [ms_to_us(ms) for ms in range(501)]
    fired = _arrivals(
        tmp_path,
        0.5,
        ["direction = dl", "target = car0", "packet_bits = 1000", "interval_ms = 1",
         "start_s = 0", "stop_s = 200"],
    )
    assert [t for t, _, _ in fired] == [ms_to_us(ms) for ms in range(501)]
    assert [packet.seq for _, _, packet in fired] == list(range(501))


def test_a_run_longer_than_the_flow_leaves_stop_in_charge():
    assert generate_flow_events(_spec(), s_to_us(5)) == _times(_spec())


def test_times_are_the_eager_generators():
    rng = random.Random(0)
    for _ in range(300):
        start = rng.randrange(0, 5_000)
        spec = _spec(
            interval_us=rng.choice((250, 500, 750, 1_000, 1_500, 3_000, 7_919)),
            start_us=start,
            stop_us=start + rng.randrange(0, 20_000),
        )
        until = rng.randrange(0, 25_000)
        eager = eager_flow_events(spec, until)
        times = generate_flow_events(spec, until)
        assert list(times) == [event.fire_time for event in eager]
        assert len(times) == len(eager)
