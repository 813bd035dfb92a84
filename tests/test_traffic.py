import pytest

from vcellsim.binder import Direction
from vcellsim.engine import EventKind, ms_to_us, s_to_us
from vcellsim.traffic import (
    ALL_VEHICLES,
    BackhaulConfig,
    FlowSpec,
    Packet,
    backhaul_deliver,
    expand_flows,
    generate_flow_events,
)


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


def test_zero_length_window_generates_nothing():
    assert generate_flow_events(_spec(stop_us=0)) == []


def test_cbr_window_event_count_and_bits():
    # oracle: arithmetic sequence 0, 125, ..., 875 ms -> 8 packets
    events = generate_flow_events(_spec())
    assert len(events) == 8
    assert all(e.kind == EventKind.PACKET_ARRIVAL for e in events)
    assert sum(e.payload.size_bits for e in events) == 8000
    assert [e.payload.seq for e in events] == list(range(8))
    assert events[-1].fire_time == ms_to_us(875)


def test_packet_ids_sequential_per_flow():
    events = generate_flow_events(_spec(interval_us=ms_to_us(250)))
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
        generate_flow_events(_spec(target=ALL_VEHICLES))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        _spec(packet_bits=0)
    with pytest.raises(ValueError):
        _spec(interval_us=0)
    with pytest.raises(ValueError):
        _spec(start_us=10, stop_us=5)


def test_backhaul_delay_is_additive():
    packet = Packet("flow0", 0, "car0", Direction.DL, 1000, ms_to_us(100))
    event = backhaul_deliver(packet, BackhaulConfig(ms_to_us(10)), ms_to_us(100))
    assert event.kind == EventKind.BACKHAUL_DELIVERY
    assert event.fire_time == ms_to_us(110)
    assert event.payload is packet


def test_backhaul_zero_delay_fires_at_now():
    packet = Packet("flow0", 0, "car0", Direction.DL, 1000, 0)
    event = backhaul_deliver(packet, BackhaulConfig(0), ms_to_us(7))
    assert event.fire_time == ms_to_us(7)
