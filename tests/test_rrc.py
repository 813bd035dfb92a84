import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import (
    ChannelModel,
    ChannelParams,
    CqiTables,
    received_power_dbm,
)
from vcellsim.engine import ms_to_us
from vcellsim.errors import AssociationError
from vcellsim.rrc import HandoverConfig, Rrc

from oracles import Positions, reference_handover_check

PARAMS = ChannelParams()


def _two_cell_env(ho=HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0), spacing=2000.0):
    binder, where = Binder(num_rbs=10), Positions()
    c0 = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    c1 = where.register(binder, NodeKind.ENB, "enb1", 46.0, (spacing, 0.0)).node_id
    channel = ChannelModel(binder, PARAMS, CqiTables(), where, where)
    rrc = Rrc(binder, channel, ho)
    return binder, channel, rrc, c0, c1


# ----------------------------------------------------------------------
# initial association


def test_manual_association_ignores_position():
    binder, channel, rrc, c0, c1 = _two_cell_env()
    for i, x in enumerate((0.0, 1500.0, 1999.0)):  # even right next to the other cell
        ue = channel.where.register(binder, NodeKind.UE, f"car{i}", 26.0, (x, 0.0)).node_id
        assert rrc.initial_association(ue, c0) == c0
        assert binder.node(ue).serving_cell == c0


def test_dynamic_single_cell():
    binder, where = Binder(), Positions()
    cell = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    channel = ChannelModel(binder, PARAMS, CqiTables(), where, where)
    rrc = Rrc(binder, channel, HandoverConfig())
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (5000.0, 0.0)).node_id
    assert rrc.initial_association(ue, None) == cell


def test_dynamic_picks_argmax_received_power():
    binder, channel, rrc, c0, c1 = _two_cell_env(spacing=1000.0)
    ue = channel.where.register(binder, NodeKind.UE, "car0", 26.0, (400.0, 0.0)).node_id
    got = rrc.initial_association(ue, None)

    # oracle: evaluate received power for both cells, take the argmax
    p0 = received_power_dbm(46.0, (0.0, 0.0), (400.0, 0.0), PARAMS)
    p1 = received_power_dbm(46.0, (1000.0, 0.0), (400.0, 0.0), PARAMS)
    assert p0 > p1
    assert got == c0


def test_dynamic_tie_goes_to_lowest_cell_id():
    binder, channel, rrc, c0, c1 = _two_cell_env(spacing=2000.0)
    ue = channel.where.register(binder, NodeKind.UE, "car0", 26.0, (1000.0, 0.0)).node_id
    assert rrc.initial_association(ue, None) == c0


def test_association_without_cells_fails():
    binder, where = Binder(), Positions()
    channel = ChannelModel(binder, PARAMS, CqiTables(), where, where)
    rrc = Rrc(binder, channel, HandoverConfig())
    ue = where.register(binder, NodeKind.UE, "car0", 26.0).node_id
    with pytest.raises(AssociationError):
        rrc.initial_association(ue, None)


def test_manual_association_to_unknown_cell_fails():
    binder, channel, rrc, c0, c1 = _two_cell_env()
    ue = channel.where.register(binder, NodeKind.UE, "car0", 26.0).node_id
    with pytest.raises(AssociationError):
        rrc.initial_association(ue, 999)


def test_sinr_metric_can_diverge_from_power_metric():
    # cell A idle-adjacent but loaded, cell B marginally stronger yet drowned
    # in A's interference: power picks B, SINR picks A
    binder, where = Binder(num_rbs=10), Positions()
    a = where.register(binder, NodeKind.ENB, "enbA", 46.0, (0.0, 0.0)).node_id
    b = where.register(binder, NodeKind.ENB, "enbB", 46.0, (1940.6, 0.0)).node_id
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (1000.0, 0.0)).node_id
    binder.record_allocation(Direction.DL, a, range(10), a)
    binder.end_tti()  # association between ticks reads the last completed TTI
    channel = ChannelModel(binder, PARAMS, CqiTables(), where, where)

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
    """Step the UE one position per TTI, switching its serving cell on each
    decision as the TTI pipeline does; returns (source, target, ms) triples."""
    decisions = []
    for ms, x in positions_by_ms:
        rrc.channel.where.place(ue, (x, 0.0))
        target = rrc.handover_check(ue, ms_to_us(ms))
        if target is not None:
            decisions.append((binder.node(ue).serving_cell, target, ms))
            binder.set_serving_cell(ue, target)
    return decisions


def _attached_ue(binder, rrc, x=0.0):
    ue = rrc.channel.where.register(binder, NodeKind.UE, "car0", 26.0, (x, 0.0)).node_id
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
    source, target, ms = decisions[0]
    assert source == c0 and target == c1

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
    *_, ms = decisions[0]

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
    *_, ms = decisions[0]

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
    *_, ms = decisions[0]
    assert ms == 10  # clock restarted at ms 5, fires 5 ms later


def _three_cell_env(ho):
    """Serving cell enb0 at the origin, enb1 on the x axis, enb2 on the y axis."""
    binder, where = Binder(num_rbs=10), Positions()
    cells = [
        where.register(binder, NodeKind.ENB, f"enb{i}", 46.0, pos).node_id
        for i, pos in enumerate([(0.0, 0.0), (2000.0, 0.0), (0.0, 2000.0)])
    ]
    rrc = Rrc(binder, ChannelModel(binder, PARAMS, CqiTables(), where, where), ho)
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (0.0, 0.0)).node_id
    rrc.initial_association(ue, cells[0])
    return binder, rrc, ue, cells


def test_equal_neighbours_hand_over_to_the_lower_id():
    binder, rrc, ue, (c0, c1, c2) = _three_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0)
    )
    rrc.channel.where.place(ue, (1500.0, 1500.0))  # on the bisector of enb1 and enb2
    p1 = rrc.channel.rx_power_from_cell(ue, c1)
    assert p1 == rrc.channel.rx_power_from_cell(ue, c2) > rrc.channel.rx_power_from_cell(ue, c0)
    assert c1 < c2
    assert rrc.handover_check(ue, 0) == c1


def test_new_best_neighbour_restarts_the_trigger_clock():
    ttt_ms = 5
    binder, rrc, ue, (c0, c1, c2) = _three_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=ms_to_us(ttt_ms))
    )
    # near enb1 at ms 1..3, then near enb2 for good: enb2 overtakes enb1
    # within the window, so the clock restarts at ms 4 and fires 5 ms later
    decisions = []
    for ms in range(1, 20):
        rrc.channel.where.place(ue, (1600.0, 0.0) if ms < 4 else (0.0, 1600.0))
        target = rrc.handover_check(ue, ms_to_us(ms))
        if target is not None:
            decisions.append((binder.node(ue).serving_cell, target, ms))
            binder.set_serving_cell(ue, target)
    assert decisions == [(c0, c2, 4 + ttt_ms)]


def test_double_handover_a_b_a_keeps_history_consistent():
    binder, channel, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0),
        spacing=2000.0,
    )
    ue = _attached_ue(binder, rrc, x=0.0)
    serving_history = [binder.node(ue).serving_cell]
    # out past the midpoint, then back
    path = [(ms, 40.0 * ms) for ms in range(1, 40)] + [
        (40 + i, 1560.0 - 40.0 * i) for i in range(40)
    ]
    for ms, x in path:
        rrc.channel.where.place(ue, (x, 0.0))
        target = rrc.handover_check(ue, ms_to_us(ms))
        if target is not None:
            binder.set_serving_cell(ue, target)
            serving_history.append(binder.node(ue).serving_cell)
    assert serving_history == [c0, c1, c0]


# ----------------------------------------------------------------------
# movement budget


def _lapsed(rrc, ue, x):
    """Put the UE at (x, 0), check it and return the budget its lapse left."""
    rrc.channel.where.place(ue, (x, 0.0))
    assert rrc.handover_check(ue, 0) is None
    return rrc.slack_m(ue)


def test_budget_is_the_margin_over_twice_the_slope_at_the_check():
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=3.0, time_to_trigger_us=0)
    )
    ue = _attached_ue(binder, rrc, x=100.0)
    for x in (100.0, 150.0, 900.0):  # 150 m lies within the budget left at 100 m
        slack = _lapsed(rrc, ue, x)
        row = rrc.channel.cell_powers(ue)
        margin_db = 3.0 - (row[1] - row[0])
        assert slack == (margin_db - 1e-6) / (2 * rrc.channel.max_loss_slope_db_per_m)


def test_budget_is_cleared_by_a_holding_condition_and_forget():
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=ms_to_us(5))
    )
    ue = _attached_ue(binder, rrc, x=100.0)
    assert _lapsed(rrc, ue, 100.0) > 0.0
    rrc.channel.where.place(ue, (1600.0, 0.0))  # far beyond the budget: enb1 is stronger
    assert rrc.handover_check(ue, ms_to_us(1)) is None  # pending, time-to-trigger
    assert rrc.slack_m(ue) == 0.0 and ue in rrc._states
    # a decision comes only from a holding condition, so it leaves no budget
    assert rrc.handover_check(ue, ms_to_us(6)) == c1
    assert rrc.slack_m(ue) == 0.0

    assert _lapsed(rrc, ue, 100.0) > 0.0
    rrc.forget(ue)
    assert rrc.slack_m(ue) == 0.0 and ue not in rrc._slack_m


def test_zero_hysteresis_tie_never_skips():
    binder, _, rrc, c0, c1 = _two_cell_env(
        HandoverConfig(enabled=True, hysteresis_db=0.0, time_to_trigger_us=0)
    )
    ue = _attached_ue(binder, rrc, x=1000.0)  # the bisector: a tie, served by enb0
    assert _lapsed(rrc, ue, 1000.0) < 0.0  # due again at the next TTI


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 1000),
    serving=st.integers(0, 2),
    hysteresis=st.sampled_from((0.0, 1.0, 3.0)),
    x0=st.floats(-100.0, 700.0),
    y0=st.floats(-100.0, 100.0),
)
def test_reference_check_lapses_everywhere_within_the_budget(seed, serving, hysteresis, x0, y0):
    # A coupling distance near half the eNB spacing makes best - serving move
    # at close to the 2R dB per metre the budget allows, so a looser budget
    # reaches points where the condition holds.
    ho = HandoverConfig(enabled=True, hysteresis_db=hysteresis, time_to_trigger_us=0)
    params = ChannelParams(min_distance_m=135.0, shadowing_enabled=True, shadowing_sigma_db=3.0)
    binder, where = Binder(num_rbs=10), Positions()
    for i in range(3):
        where.register(binder, NodeKind.ENB, f"enb{i}", 46.0, (300.0 * i, 10.0 * i))
    rrc = Rrc(binder, ChannelModel(binder, params, CqiTables(), where, where, seed=seed), ho)
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (x0, y0)).node_id
    rrc.initial_association(ue, binder.cells[serving])  # draws every pair's shadowing
    assume(rrc.handover_check(ue, 0) is None)  # with no time-to-trigger: a lapse
    budget = max(rrc.slack_m(ue), 0.0)  # a tie leaves none
    for k in range(32):
        heading = 2 * math.pi * k / 32
        for share in (0.25, 0.5, 0.75, 1.0):
            reach = share * budget
            rrc.channel.where.place(ue, (x0 + reach * math.cos(heading), y0 + reach * math.sin(heading)))
            assert reference_handover_check(rrc, ue, 0) is None
