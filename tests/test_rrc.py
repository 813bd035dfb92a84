import math

import pytest

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import (
    ChannelModel,
    ChannelParams,
    CqiTables,
    received_power_dbm,
)
from vcellsim.engine import ms_to_us
from vcellsim.errors import AssociationError
from vcellsim.mac import Mac
from vcellsim.rrc import HandoverConfig, HandoverDecision, Rrc

from conftest import make_packet

PARAMS = ChannelParams()


def _two_cell_env(ho=HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0), spacing=2000.0):
    binder = Binder(num_rbs=10)
    c0 = binder.register_node(NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    c1 = binder.register_node(NodeKind.ENB, "enb1", 46.0, (spacing, 0.0)).node_id
    channel = ChannelModel(binder, PARAMS, CqiTables())
    rrc = Rrc(binder, channel, ho)
    return binder, channel, rrc, c0, c1


# ----------------------------------------------------------------------
# initial association


def test_manual_association_ignores_position():
    binder, _, rrc, c0, c1 = _two_cell_env()
    for i, x in enumerate((0.0, 1500.0, 1999.0)):  # even right next to the other cell
        ue = binder.register_node(NodeKind.UE, f"car{i}", 26.0, (x, 0.0)).node_id
        assert rrc.initial_association(ue, c0) == c0
        assert binder.node(ue).serving_cell == c0


def test_dynamic_single_cell():
    binder = Binder()
    cell = binder.register_node(NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    channel = ChannelModel(binder, PARAMS, CqiTables())
    rrc = Rrc(binder, channel, HandoverConfig())
    ue = binder.register_node(NodeKind.UE, "car0", 26.0, (5000.0, 0.0)).node_id
    assert rrc.initial_association(ue, None) == cell


def test_dynamic_picks_argmax_received_power():
    binder, _, rrc, c0, c1 = _two_cell_env(spacing=1000.0)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0, (400.0, 0.0)).node_id
    got = rrc.initial_association(ue, None)

    # oracle: evaluate received power for both cells, take the argmax
    p0 = received_power_dbm(46.0, (0.0, 0.0), (400.0, 0.0), PARAMS)
    p1 = received_power_dbm(46.0, (1000.0, 0.0), (400.0, 0.0), PARAMS)
    assert p0 > p1
    assert got == c0


def test_dynamic_tie_goes_to_lowest_cell_id():
    binder, _, rrc, c0, c1 = _two_cell_env(spacing=2000.0)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0, (1000.0, 0.0)).node_id
    assert rrc.initial_association(ue, None) == c0


def test_association_without_cells_fails():
    binder = Binder()
    channel = ChannelModel(binder, PARAMS, CqiTables())
    rrc = Rrc(binder, channel, HandoverConfig())
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    with pytest.raises(AssociationError):
        rrc.initial_association(ue, None)


def test_manual_association_to_unknown_cell_fails():
    binder, _, rrc, c0, c1 = _two_cell_env()
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    with pytest.raises(AssociationError):
        rrc.initial_association(ue, 999)


def test_sinr_metric_can_diverge_from_power_metric():
    # cell A idle-adjacent but loaded, cell B marginally stronger yet drowned
    # in A's interference: power picks B, SINR picks A
    binder = Binder(num_rbs=10)
    a = binder.register_node(NodeKind.ENB, "enbA", 46.0, (0.0, 0.0)).node_id
    b = binder.register_node(NodeKind.ENB, "enbB", 46.0, (1940.6, 0.0)).node_id
    ue = binder.register_node(NodeKind.UE, "car0", 26.0, (1000.0, 0.0)).node_id
    binder.record_allocation(Direction.DL, a, range(10), a)
    binder.end_tti()  # association between ticks reads the last completed TTI
    channel = ChannelModel(binder, PARAMS, CqiTables())

    by_power = Rrc(binder, channel, HandoverConfig(), association_metric="rx_power")
    assert by_power.initial_association(ue, None) == b

    by_sinr = Rrc(binder, channel, HandoverConfig(), association_metric="sinr")
    assert by_sinr.initial_association(ue, None) == a


def test_unknown_association_metric_rejected():
    binder, channel, _, _, _ = _two_cell_env()
    with pytest.raises(ValueError):
        Rrc(binder, channel, HandoverConfig(), association_metric="rsrq")


# ----------------------------------------------------------------------
# handover_check


def _walk(rrc, binder, ue, positions_by_ms):
    """Step the UE one position per TTI, executing any decision like the
    TTI pipeline does; returns (decision, ms) pairs."""
    mac = Mac(binder)
    decisions = []
    for ms, x in positions_by_ms:
        binder.node(ue).position = (x, 0.0)
        decision = rrc.handover_check(ue, ms_to_us(ms))
        if decision is not None:
            decisions.append((decision, ms))
            rrc.execute_handover(decision, mac)
    return decisions


def _attached_ue(binder, rrc, x=0.0):
    ue = binder.register_node(NodeKind.UE, "car0", 26.0, (x, 0.0)).node_id
    rrc.initial_association(ue, None)
    return ue


def test_disabled_handover_never_decides():
    binder, _, rrc, c0, c1 = _two_cell_env(HandoverConfig(enabled=False))
    ue = _attached_ue(binder, rrc, x=0.0)
    walk = [(ms, 100.0 + 19.0 * ms) for ms in range(100)]  # crosses deep into cell 1
    assert _walk(rrc, binder, ue, walk) == []


def test_midpoint_crossing_triggers_at_first_tti_past_the_bisector():
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0),
        spacing=2000.0,
    )
    ue = _attached_ue(binder, rrc, x=0.0)
    # 20 m per ms so the midpoint (x = 1000) is crossed between ms 50 and 51
    walk = [(ms, 20.0 * ms) for ms in range(1, 100)]
    decisions = _walk(rrc, binder, ue, walk)
    assert len(decisions) == 1
    decision, ms = decisions[0]
    assert decision.source == c0 and decision.target == c1

    # oracle: first TTI where the co-cell power strictly exceeds the serving one
    def stronger(ms):
        x = 20.0 * ms
        p0 = received_power_dbm(46.0, (0.0, 0.0), (x, 0.0), PARAMS)
        p1 = received_power_dbm(46.0, (2000.0, 0.0), (x, 0.0), PARAMS)
        return p1 > p0

    expected_ms = next(ms for ms, _ in walk if stronger(ms))
    assert ms == expected_ms == 51


def test_hysteresis_defers_to_the_closed_form_crossing():
    hysteresis = 3.0
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=hysteresis, time_to_trigger_us=0),
        spacing=2000.0,
    )
    ue = _attached_ue(binder, rrc, x=0.0)
    speed = 20.0  # m per ms
    walk = [(ms, speed * ms) for ms in range(1, 100)]
    decisions = _walk(rrc, binder, ue, walk)
    assert len(decisions) == 1
    _, ms = decisions[0]

    # closed form: B*log10(x/(D-x)) > H  =>  x > D*r/(1+r), r = 10^(H/B)
    r = 10.0 ** (hysteresis / PARAMS.pathloss_b_db)
    x_star = 2000.0 * r / (1.0 + r)
    expected_ms = math.floor(x_star / speed) + 1  # first TTI strictly past x*
    assert abs(ms - expected_ms) <= 1


def test_no_decision_before_time_to_trigger_elapses():
    ttt_ms = 5
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=ms_to_us(ttt_ms)),
        spacing=2000.0,
    )
    ue = _attached_ue(binder, rrc, x=0.0)
    # jump past the midpoint at ms 10 and stay there
    walk = [(ms, 400.0 if ms < 10 else 1600.0) for ms in range(1, 40)]
    decisions = _walk(rrc, binder, ue, walk)
    assert len(decisions) == 1
    _, ms = decisions[0]

    # oracle: per-TTI boolean condition trace; decision once it held for ttt
    condition = {m: (x > 1000.0) for m, x in walk}
    held_since = None
    expected = None
    for m, _ in walk:
        if condition[m]:
            held_since = m if held_since is None else held_since
            if m - held_since >= ttt_ms:
                expected = m
                break
        else:
            held_since = None
    assert ms == expected == 15


def test_condition_lapse_resets_the_trigger_clock():
    ttt_ms = 5
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=ms_to_us(ttt_ms)),
        spacing=2000.0,
    )
    ue = _attached_ue(binder, rrc, x=0.0)
    # condition true at ms 1..3, lapses at ms 4, then true for good
    walk = [(ms, 400.0 if ms == 4 else 1600.0) for ms in range(1, 40)]
    decisions = _walk(rrc, binder, ue, walk)
    assert len(decisions) == 1
    _, ms = decisions[0]
    assert ms == 10  # clock restarted at ms 5, fires 5 ms later


# ----------------------------------------------------------------------
# execute_handover


def test_execute_switches_cell_and_flushes_dl_buffer():
    binder, channel, rrc, c0, c1 = _two_cell_env()
    mac = Mac(binder)
    ue = _attached_ue(binder, rrc, x=0.0)
    mac.enqueue(ue, make_packet(5000))
    decision = HandoverDecision(ue=ue, source=c0, target=c1)
    dropped = rrc.execute_handover(decision, mac)
    assert dropped == 5000
    assert binder.node(ue).serving_cell == c1
    assert mac.buffer_bits(ue, Direction.DL) == 0


def test_double_handover_a_b_a_keeps_history_consistent():
    binder, channel, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0),
        spacing=2000.0,
    )
    mac = Mac(binder)
    ue = _attached_ue(binder, rrc, x=0.0)
    serving_history = [binder.node(ue).serving_cell]
    # out past the midpoint, then back
    path = [(ms, 40.0 * ms) for ms in range(1, 40)] + [
        (40 + i, 1560.0 - 40.0 * i) for i in range(40)
    ]
    for ms, x in path:
        binder.node(ue).position = (x, 0.0)
        decision = rrc.handover_check(ue, ms_to_us(ms))
        if decision is not None:
            rrc.execute_handover(decision, mac)
            serving_history.append(binder.node(ue).serving_cell)
    assert serving_history == [c0, c1, c0]
