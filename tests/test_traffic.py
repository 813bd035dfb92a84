import pytest

from vcellsim.binder import Direction
from vcellsim.engine import EventKind, ms_to_us, s_to_us
from vcellsim.traffic import ALL_VEHICLES, FlowSpec, expand_flows, generate_flow_events


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


def _events(spec):
    """Every arrival of `spec`, with no run end to cut them short."""
    return generate_flow_events(spec, spec.stop_us)


def test_zero_length_window_generates_nothing():
    assert _events(_spec(stop_us=0)) == []


def test_cbr_window_event_count_and_bits():
    # oracle: arithmetic sequence 0, 125, ..., 875 ms -> 8 packets
    events = _events(_spec())
    assert len(events) == 8
    assert all(e.kind == EventKind.PACKET_ARRIVAL for e in events)
    assert sum(e.payload.size_bits for e in events) == 8000
    assert [e.payload.seq for e in events] == list(range(8))
    assert events[-1].fire_time == ms_to_us(875)


def test_packet_ids_sequential_per_flow():
    events = _events(_spec(interval_us=ms_to_us(250)))
    assert [e.payload.packet_id for e in events] == [
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
        _events(_spec(target=ALL_VEHICLES))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        _spec(packet_bits=0)
    with pytest.raises(ValueError):
        _spec(interval_us=0)
    with pytest.raises(ValueError):
        _spec(start_us=10, stop_us=5)



def test_no_arrival_after_the_run_ends():
    # a 1 ms flow to 200 s in a run that ends at 0.5 s: the run fires events
    # up to and including its end, so the arrivals are at 0, 1, ..., 500 ms
    spec = _spec(interval_us=ms_to_us(1), stop_us=s_to_us(200))
    events = generate_flow_events(spec, ms_to_us(500))
    assert [e.fire_time for e in events] == [ms_to_us(ms) for ms in range(501)]
    assert [e.payload.seq for e in events] == list(range(501))


def test_a_run_longer_than_the_flow_leaves_stop_in_charge():
    assert generate_flow_events(_spec(), s_to_us(5)) == _events(_spec())
