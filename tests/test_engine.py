import pytest
from hypothesis import given, strategies as st

from vcellsim.engine import (
    TTI_US,
    Engine,
    EventKind,
    SimEvent,
    ms_to_us,
    s_to_us,
)
from vcellsim.errors import EngineError


def test_schedule_single_event():
    eng = Engine()
    event = SimEvent(ms_to_us(1), EventKind.TTI_TICK)
    eng.schedule(event)
    assert event.sequence == 0
    assert eng.run_until(ms_to_us(1)).counts == {EventKind.TTI_TICK: 1}


def test_same_time_events_fire_in_insertion_order():
    eng = Engine()
    fired = []
    eng.on(EventKind.PACKET_ARRIVAL, lambda ev: fired.append(ev.payload))
    eng.schedule(SimEvent(ms_to_us(5), EventKind.PACKET_ARRIVAL, "A"))
    eng.schedule(SimEvent(ms_to_us(5), EventKind.PACKET_ARRIVAL, "B"))
    eng.run_until(ms_to_us(5))
    assert fired == ["A", "B"]


def test_an_event_with_a_preset_sequence_keeps_it():
    eng = Engine()
    event = SimEvent(ms_to_us(2), EventKind.PACKET_ARRIVAL, "A", sequence=7)
    eng.schedule(event)
    assert event.sequence == 7
    # so does one scheduled again, as a flow's next arrival is
    eng.run_until(ms_to_us(2))
    event.fire_time = ms_to_us(3)
    eng.schedule(event)
    assert event.sequence == 7


def test_events_sharing_a_slot_fire_in_time_order():
    # one flow's arrivals reuse one sequence number: time alone orders them,
    # and at a shared time the slot still decides against other events
    eng = Engine()
    fired = []
    eng.on(EventKind.PACKET_ARRIVAL, lambda ev: fired.append((eng.now, ev.payload)))
    eng.schedule(SimEvent(ms_to_us(1), EventKind.PACKET_ARRIVAL, "fresh"))  # sequence 0
    for t_ms, payload in ((3, "late"), (1, "early"), (2, "middle")):
        eng.schedule(SimEvent(ms_to_us(t_ms), EventKind.PACKET_ARRIVAL, payload, sequence=5))
    eng.run_until(ms_to_us(3))
    assert fired == [
        (ms_to_us(1), "fresh"),
        (ms_to_us(1), "early"),
        (ms_to_us(2), "middle"),
        (ms_to_us(3), "late"),
    ]


def test_a_fresh_event_takes_the_next_counter_value():
    eng = Engine()
    events = [
        SimEvent(ms_to_us(1), EventKind.TTI_TICK),
        SimEvent(ms_to_us(1), EventKind.PACKET_ARRIVAL, sequence=40),
        SimEvent(ms_to_us(1), EventKind.TTI_TICK),
    ]
    for event in events:
        eng.schedule(event)
    assert [event.sequence for event in events] == [0, 40, 1]


def test_scheduling_in_the_past_is_rejected():
    eng = Engine()
    eng.run_until(ms_to_us(7))
    with pytest.raises(EngineError):
        eng.schedule(SimEvent(ms_to_us(5), EventKind.TTI_TICK))


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    summary = eng.run_until(s_to_us(10))
    assert eng.now == s_to_us(10)
    assert summary.total == 0


def test_periodic_tti_ticks_count():
    eng = Engine()

    def tick(ev):
        nxt = ev.fire_time + TTI_US
        if nxt <= ms_to_us(100):
            eng.schedule(SimEvent(nxt, EventKind.TTI_TICK))

    eng.on(EventKind.TTI_TICK, tick)
    eng.schedule(SimEvent(ms_to_us(1), EventKind.TTI_TICK))
    summary = eng.run_until(ms_to_us(100))
    assert summary.counts[EventKind.TTI_TICK] == 100


def test_handler_failure_identifies_event():
    eng = Engine()

    def boom(ev):
        raise ValueError("broken handler")

    eng.on(EventKind.VEHICLE_ENTER, boom)
    eng.schedule(SimEvent(ms_to_us(3), EventKind.VEHICLE_ENTER, "car0"))
    with pytest.raises(EngineError, match="VEHICLE_ENTER"):
        eng.run_until(ms_to_us(10))


def test_run_until_into_the_past_rejected():
    eng = Engine()
    eng.run_until(ms_to_us(5))
    with pytest.raises(EngineError):
        eng.run_until(ms_to_us(4))


def test_events_scheduled_during_run_fire_in_same_run():
    eng = Engine()
    fired = []

    def chain(ev):
        fired.append(ev.payload)
        if ev.payload < 3:
            eng.schedule(SimEvent(eng.now, EventKind.PACKET_ARRIVAL, ev.payload + 1))

    eng.on(EventKind.PACKET_ARRIVAL, chain)
    eng.schedule(SimEvent(ms_to_us(1), EventKind.PACKET_ARRIVAL, 0))
    eng.run_until(ms_to_us(1))
    assert fired == [0, 1, 2, 3]


_event_batches = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=999)),
    max_size=60,
)


@given(_event_batches)
def test_processing_order_is_by_time_then_insertion(batch):
    eng = Engine()
    seen = []
    eng.on(EventKind.PACKET_ARRIVAL, lambda ev: seen.append((eng.now, ev.sequence)))
    for fire_ms, payload in batch:
        eng.schedule(SimEvent(ms_to_us(fire_ms), EventKind.PACKET_ARRIVAL, payload))
    eng.run_until(ms_to_us(60))
    assert seen == sorted(seen)
    # clock never decreased and all events ran
    assert len(seen) == len(batch)


@given(_event_batches)
def test_replay_produces_identical_trace(batch):
    def run_once():
        eng = Engine()
        trace = []
        eng.on(
            EventKind.PACKET_ARRIVAL,
            lambda ev: trace.append((eng.now, ev.sequence, ev.payload)),
        )
        for fire_ms, payload in batch:
            eng.schedule(SimEvent(ms_to_us(fire_ms), EventKind.PACKET_ARRIVAL, payload))
        eng.run_until(ms_to_us(60))
        return trace

    assert run_once() == run_once()
