import collections
import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import (
    CQI_EFFICIENCY,
    CQI_SINR_THRESHOLDS_DB,
    ChannelModel,
    ChannelParams,
    ChannelReport,
    CqiTables,
    PatternIndex,
    bits_per_rb,
    cqi_from_sinr,
    db_to_linear,
    decode,
    noise_dbm,
    received_power_dbm,
)
from vcellsim.errors import ChannelError

from oracles import (
    Positions,
    brute_force_mean_sinr,
    brute_force_sinr_db,
    left_to_right_mean,
    per_rb_pair_walk,
    random_allocated_scenario,
    record_random_grants,
    reference_noise_dbm,
)

PARAMS = ChannelParams()
SHADOWED = ChannelParams(shadowing_enabled=True)
TABLES = CqiTables()


def to_db(linear):
    return 10.0 * math.log10(linear)


def path_loss_db(distance_m, params):
    """The loss a 0 dBm transmitter sees at `distance_m`, bit for bit."""
    return -received_power_dbm(0.0, (0.0, 0.0), (distance_m, 0.0), params)


# ----------------------------------------------------------------------
# path loss and received power


def test_path_loss_at_one_km_is_the_intercept():
    assert path_loss_db(1000.0, PARAMS) == pytest.approx(128.1, abs=1e-12)


def test_path_loss_clamps_below_min_distance():
    assert path_loss_db(10.0, PARAMS) == path_loss_db(35.0, PARAMS)


def test_path_loss_one_decade_step():
    assert path_loss_db(10_000.0, PARAMS) == pytest.approx(128.1 + 37.6, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.0, 1000.0),
    st.floats(0.1, 100.0),
    st.floats(0.0, 5000.0),
    st.floats(0.0, 50.0),
)
def test_path_loss_never_rises_faster_than_the_channel_slope(min_distance, b_db, d, step):
    # the handover budget rests on this bound; at d_min it is tight
    params = ChannelParams(pathloss_b_db=b_db, min_distance_m=min_distance)
    where = Positions()
    slope = ChannelModel(Binder(), params, TABLES, where, where).max_loss_slope_db_per_m
    rise = path_loss_db(d + step, params) - path_loss_db(d, params)
    assert 0.0 <= rise <= slope * step + 1e-9
    tiny = min_distance * 1e-6
    assert path_loss_db(min_distance + tiny, params) - path_loss_db(min_distance, params) == (
        pytest.approx(slope * tiny, rel=1e-4)
    )


def test_a_cqi_budget_is_its_margin_to_the_nearer_band_edge_over_2r():
    where = Positions()
    channel = ChannelModel(Binder(), PARAMS, TABLES, where, where)
    two_r = 2 * channel.max_loss_slope_db_per_m
    edges = CQI_SINR_THRESHOLDS_DB
    for cqi in range(16):
        lower = edges[cqi - 1] if cqi else edges[0] - 40.0  # CQI 0 and 15 have one edge
        upper = edges[cqi] if cqi < 15 else edges[14] + 40.0
        for mean_db in (lower + 0.25, (lower + upper) / 2, upper - 0.25):
            mean = db_to_linear(mean_db)
            assert cqi_from_sinr(mean, TABLES) == cqi
            margin = min(
                mean_db - lower if cqi else math.inf, upper - mean_db if cqi < 15 else math.inf
            )
            budget = channel.cqi_budget_m(ChannelReport(mean, cqi))
            assert budget == pytest.approx((margin - 1e-6) / two_r, rel=1e-9)
    assert channel.cqi_budget_m(ChannelReport(db_to_linear(edges[4]), 5)) < 0.0  # on an edge
    assert channel.cqi_budget_m(ChannelReport(0.0, 0)) == 0.0  # an underflowed signal


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 1000),
    min_distance=st.floats(40.0, 200.0),
    sites=st.lists(
        st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)), min_size=2, max_size=4
    ),
    serving=st.integers(0, 3),
    rows=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=4, max_size=4),
    ue_xy=st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
)
def test_a_fresh_dl_measure_within_the_cqi_budget_reads_the_same_cqi(
    seed, min_distance, sites, serving, rows, ue_xy
):
    # The tick keeps a DL CQI while its UE stays within `cqi_budget_m` of the
    # point it was measured at, under the same serving cell and `last` DL grid.
    # That is exact only if a fresh measure anywhere in that disc reads the same
    # CQI. eNBs within a few coupling distances of the UE make the mean SINR
    # move at close to the 2R dB per metre the budget allows.
    params = ChannelParams(
        min_distance_m=min_distance, shadowing_enabled=True, shadowing_sigma_db=4.0
    )
    binder, where = Binder(num_rbs=6), Positions()
    cells = [
        where.register(binder, NodeKind.ENB, f"enb{i}", 46.0, xy).node_id
        for i, xy in enumerate(sites)
    ]
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, ue_xy).node_id
    cell = cells[serving % len(cells)]
    binder.set_serving_cell(ue, cell)
    for c, row in zip(cells, rows):
        rbs = [rb for rb, busy in enumerate(row) if busy]
        if rbs:
            binder.record_allocation(Direction.DL, c, rbs, c)
    binder.end_tti()  # the fixed `last` grid every measure reads
    channel = ChannelModel(binder, params, TABLES, where, where, seed=seed)
    report = channel.measure(ue, cell, Direction.DL)
    budget = max(channel.cqi_budget_m(report), 0.0)  # a report on an edge has none
    x0, y0 = ue_xy
    for k in range(32):
        heading = 2 * math.pi * k / 32
        for share in (0.25, 0.5, 0.75, 1.0):
            reach = share * budget
            where.place(ue, (x0 + reach * math.cos(heading), y0 + reach * math.sin(heading)))
            assert channel.measure(ue, cell, Direction.DL).cqi == report.cqi, (heading, reach)


def test_received_power_at_one_km():
    got = received_power_dbm(46.0, (0.0, 0.0), (1000.0, 0.0), PARAMS)
    assert got == pytest.approx(46.0 - 128.1, abs=1e-9)


def test_received_power_colocated_uses_min_distance():
    got = received_power_dbm(46.0, (5.0, 5.0), (5.0, 5.0), PARAMS)
    assert got == pytest.approx(46.0 - path_loss_db(35.0, PARAMS), abs=1e-12)


def test_received_power_linear_in_tx_power():
    base = received_power_dbm(40.0, (0.0, 0.0), (700.0, 300.0), PARAMS)
    boosted = received_power_dbm(43.0, (0.0, 0.0), (700.0, 300.0), PARAMS)
    assert boosted - base == pytest.approx(3.0, abs=1e-12)


def test_noise_closed_form():
    expected = -174.0 + 10.0 * math.log10(180e3) + 9.0
    assert noise_dbm(PARAMS) == pytest.approx(expected, abs=1e-12)
    assert noise_dbm(PARAMS) == pytest.approx(-112.447, abs=1e-3)


# ----------------------------------------------------------------------
# SINR


def _one_cell_one_ue(distance=1000.0):
    binder, where = Binder(num_rbs=10), Positions()
    cell = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (distance, 0.0)).node_id
    binder.set_serving_cell(ue, cell)
    return binder, ChannelModel(binder, PARAMS, TABLES, where, where), cell, ue


def test_sinr_without_interference_is_snr():
    binder, channel, cell, ue = _one_cell_one_ue()
    binder.record_allocation(Direction.DL, cell, [0, 1, 2], cell)
    got = [to_db(v) for v in channel.sinr(ue, cell, Direction.DL, [0, 1, 2])]
    expected = (46.0 - 128.1) - reference_noise_dbm(PARAMS)
    assert got == pytest.approx([expected] * 3, abs=1e-9)


def test_equal_power_interferer_pushes_sinr_just_below_zero():
    binder, where = Binder(num_rbs=10), Positions()
    # two cells symmetric around the UE: equal received power
    c0 = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    c1 = where.register(binder, NodeKind.ENB, "enb1", 46.0, (2000.0, 0.0)).node_id
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (1000.0, 0.0)).node_id
    binder.set_serving_cell(ue, c0)
    binder.record_allocation(Direction.DL, c0, [4], c0)
    binder.record_allocation(Direction.DL, c1, [4], c1)
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)
    got = to_db(*channel.sinr(ue, c0, Direction.DL, [4]))
    assert got < 0.0
    assert got == pytest.approx(0.0, abs=0.01)  # N is tiny next to S here


def test_sinr_on_unallocated_rb_rejected():
    binder, channel, cell, ue = _one_cell_one_ue()
    binder.record_allocation(Direction.DL, cell, [0], cell)
    with pytest.raises(ChannelError):
        channel.sinr(ue, cell, Direction.DL, [0, 1])


@pytest.mark.parametrize(
    "rbs", [[1, 0], [0, 2, 1], [3, 3], [-1], [0, -1], [9, 10]],
    ids=["descending", "dip-after-a-run", "repeat", "negative", "negative-after-0", "past-the-end"],
)
def test_a_grant_that_does_not_ascend_strictly_is_rejected_even_on_recorded_rbs(rbs):
    # every RB of the grid is recorded for this link, so only the order check
    # can reject; a negative RB would otherwise read the row from its end
    binder, channel, cell, ue = _one_cell_one_ue()
    binder.record_allocation(Direction.UL, cell, range(binder.num_rbs), ue)
    with pytest.raises(ChannelError):
        channel.check_allocated(ue, cell, Direction.UL, rbs)
    with pytest.raises(ChannelError):
        channel.sinr(ue, cell, Direction.UL, rbs)


def test_sinr_matches_brute_force_on_random_grids():
    rng = random.Random(20240)
    for _ in range(40):
        binder, channel, grants = random_allocated_scenario(rng)
        for ue, cell, direction, rbs in grants:
            got = channel.sinr(ue, cell, direction, rbs)
            grid = binder.current[direction]
            for value, rb in zip(got, rbs):
                expected = brute_force_sinr_db(
                    binder, channel.params, channel.where, ue, cell, grid, direction, rb
                )
                assert to_db(value) == pytest.approx(expected, rel=1e-9)


def test_measure_full_grid_matches_per_rb_brute_force():
    # `measure` sums per distinct pattern, the oracle per RB: equal to float order
    rng = random.Random(77)
    for _ in range(40):
        binder, channel, grants = random_allocated_scenario(rng, num_rbs=8)
        binder.end_tti()  # measure reads the last completed TTI
        serving_of = {ue: cell for ue, cell, _, _ in grants}
        for ue, cell in serving_of.items():
            for direction in (Direction.DL, Direction.UL):
                report = channel.measure(ue, cell, direction)
                expected = brute_force_mean_sinr(
                    binder, channel.params, channel.where, ue, cell, direction
                )
                assert report.mean_sinr == pytest.approx(expected, rel=1e-9)
                assert report.cqi == cqi_from_sinr(report.mean_sinr, TABLES)


def _assert_memo_matches_brute_force(binder, channel, grants):
    """Every live UE's `measure` in both directions and every grant's `sinr`
    equal the brute-force per-RB sums over the binder's grids."""
    for rec in binder.live_nodes(NodeKind.UE):
        for direction in (Direction.DL, Direction.UL):
            report = channel.measure(rec.node_id, rec.serving_cell, direction)
            expected = brute_force_mean_sinr(
                binder, channel.params, channel.where, rec.node_id, rec.serving_cell, direction
            )
            assert report.mean_sinr == pytest.approx(expected, rel=1e-9)
    for ue, cell, direction, rbs in grants:
        got = [to_db(v) for v in channel.sinr(ue, cell, direction, rbs)]
        grid = binder.current[direction]
        expected = [
            brute_force_sinr_db(binder, channel.params, channel.where, ue, cell, grid, direction, rb)
            for rb in rbs
        ]
        assert got == pytest.approx(expected, rel=1e-9)


def test_pattern_index_lists_distinct_occupants_in_first_appearance_order():
    binder = Binder(num_rbs=8)
    c0, c1 = (binder.register_node(NodeKind.ENB, f"enb{i}", 46.0).node_id for i in range(2))
    binder.record_allocation(Direction.DL, c0, [0, 1, 2, 5], c0)
    index = PatternIndex(binder.current[Direction.DL])
    assert (index.patterns, index.occupied) == ([(((c0, c0),), 4)], 4)
    binder.record_allocation(Direction.DL, c1, [2, 5, 6], c1)
    index = PatternIndex(binder.current[Direction.DL])
    assert index.patterns == [
        (((c0, c0),), 2),  # RBs 0, 1
        (((c0, c0), (c1, c1)), 2),  # RBs 2, 5
        (((c1, c1),), 1),  # RB 6
    ]
    assert index.occupied == 5
    empty = PatternIndex(binder.current[Direction.UL])
    assert (empty.patterns, empty.occupied) == ([], 0)


@pytest.mark.parametrize("seed", range(5))
def test_memoized_interference_follows_every_binder_change(seed):
    # each check fills the memos, so a change that left them stale would show
    rng = random.Random(seed)
    binder, where = Binder(num_rbs=10), Positions()
    cells = [
        where.register(binder, NodeKind.ENB, f"enb{i}", 46.0, (1000.0 * i, 0.0)).node_id
        for i in range(3)
    ]
    ues = []
    for j in range(12):
        pos = (rng.uniform(-300.0, 2300.0), rng.uniform(-300.0, 300.0))
        ue = where.register(binder, NodeKind.UE, f"car{j}", 26.0, pos).node_id
        binder.set_serving_cell(ue, cells[j % 3])
        ues.append((ue, cells[j % 3]))
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)
    check = functools.partial(_assert_memo_matches_brute_force, binder, channel)

    grants = record_random_grants(binder, rng, ues, cells)
    check(grants)  # `last` still empty
    binder.end_tti()
    grants = record_random_grants(binder, rng, ues, cells[:1])
    check(grants)
    grants += record_random_grants(binder, rng, ues, cells[1:])  # record_allocation
    check(grants)

    gone = ues.pop(0)[0]
    binder.deregister_node(gone)  # replaces both grids with copies without its UL RBs
    grants = [g for g in grants if g[0] != gone]
    check(grants)

    mover, _ = ues[0]
    where.place(mover, (2100.0, 50.0))  # a UE move, read at a later time
    check(grants)

    binder.set_serving_cell(mover, cells[2])  # measure now excludes another cell
    check(grants)

    binder.end_tti()
    check([])


@pytest.mark.parametrize("seed", range(5))
def test_shadowing_draw_order_is_the_per_rb_walk_on_random_grids(seed):
    # Shadowing is drawn at a pair's first query, so the memos must query
    # pairs in the order of a walk that visits every RB of the call.
    rng = random.Random(seed)
    binder, where = Binder(num_rbs=10), Positions()
    cells = [
        where.register(binder, NodeKind.ENB, f"enb{i}", 46.0, (1000.0 * i, 0.0)).node_id
        for i in range(3)
    ]
    ues = []
    for j in range(12):
        pos = (rng.uniform(-300.0, 2300.0), rng.uniform(-300.0, 300.0))
        ue = where.register(binder, NodeKind.UE, f"car{j}", 26.0, pos).node_id
        binder.set_serving_cell(ue, cells[j % 3])
        ues.append((ue, cells[j % 3]))
    channel = ChannelModel(binder, SHADOWED, TABLES, where, where, seed)
    walk = []
    for _ in range(2):  # the first TTI measures against an empty `last` grid
        grants = record_random_grants(binder, rng, ues, cells)
        for ue, cell in ues:
            for direction in (Direction.DL, Direction.UL):
                grid = binder.last[direction]
                walk.extend(per_rb_pair_walk(ue, cell, direction, grid, range(10)))
                channel.measure(ue, cell, direction)
        for ue, cell, direction, rbs in grants:
            walk.extend(per_rb_pair_walk(ue, cell, direction, binder.current[direction], rbs))
            channel.sinr(ue, cell, direction, rbs)
        binder.end_tti()
    assert list(channel._shadowing_db) == list(dict.fromkeys(tuple(sorted(p)) for p in walk))


def _two_cells_of_ul_grants():
    """Cell a with 4 UEs and cell b with 3, each UE on 2 UL RBs of the `last`
    grid: RBs 0-5 hold one UE of each cell, RBs 6-7 one of a's; 4 patterns.
    Returns (binder, positions, a, own UEs, other UEs)."""
    binder, where = Binder(num_rbs=10), Positions()
    a = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    b = where.register(binder, NodeKind.ENB, "enb1", 46.0, (1000.0, 0.0)).node_id
    own, others = [], []
    for j, (cell, members) in enumerate([(a, own)] * 4 + [(b, others)] * 3):
        ue = where.register(binder, NodeKind.UE, f"car{j}", 26.0, (300.0 * j, 20.0)).node_id
        binder.set_serving_cell(ue, cell)
        members.append(ue)
    for cell, members in ((a, own), (b, others)):
        for k, ue in enumerate(members):
            binder.record_allocation(Direction.UL, cell, [2 * k, 2 * k + 1], ue)
    binder.end_tti()
    return binder, where, a, own, others


def _count_pair_powers(channel):
    """Wrap the channel's pair kernel; returns a Counter of (tx, rx) evaluations."""
    evaluations = collections.Counter()
    original = channel._dbm

    def counting(tx_id, rx_id):
        evaluations[(tx_id, rx_id)] += 1
        return original(tx_id, rx_id)

    channel._dbm = counting
    return evaluations


def test_ul_measure_sums_each_interferer_once_per_tti():
    binder, where, a, own, others = _two_cells_of_ul_grants()
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)
    evaluations = _count_pair_powers(channel)
    for tti in (1, 2):
        for ue in own:
            channel.measure(ue, a, Direction.UL)
        assert [evaluations[(other, a)] for other in others] == [tti] * len(others)
        where.now += 1000  # the next tick: every position is read afresh


def test_ul_bracket_is_summed_once_per_tti_for_all_ues_of_a_cell():
    binder, where, a, own, others = _two_cells_of_ul_grants()
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)
    sums = collections.Counter()
    original = channel._interference_mw

    def counting(occupants, rx_id, serving_cell):
        sums[(rx_id, serving_cell)] += 1
        return original(occupants, rx_id, serving_cell)

    channel._interference_mw = counting
    for tti in (1, 2):
        for ue in own:
            channel.measure(ue, a, Direction.UL)
            assert sums == {(a, a): 4 * tti}  # one sum per pattern, not per RB or UE
        where.now += 1000


def test_a_downlink_bracket_is_summed_at_every_measure():
    # a DL bracket's receiver is its UE, which a tick measures once, so
    # only UL brackets are kept: two measures at one time sum twice
    binder, where = Binder(num_rbs=10), Positions()
    a = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    b = where.register(binder, NodeKind.ENB, "enb1", 46.0, (1000.0, 0.0)).node_id
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, (300.0, 0.0)).node_id
    binder.set_serving_cell(ue, a)
    binder.record_allocation(Direction.DL, a, range(4), a)
    binder.record_allocation(Direction.DL, b, range(2, 6), b)
    binder.end_tti()  # 3 patterns: a alone, a with b, b alone
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)
    sums = collections.Counter()
    original = channel._interference_mw

    def counting(occupants, rx_id, serving_cell):
        sums[(rx_id, serving_cell)] += 1
        return original(occupants, rx_id, serving_cell)

    channel._interference_mw = counting
    first = channel.measure(ue, a, Direction.DL)
    assert channel.measure(ue, a, Direction.DL) == first
    assert sums == {(ue, a): 2 * 3}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_added_interferer_never_raises_sinr(seed):
    rng = random.Random(seed)
    binder, where = Binder(num_rbs=4), Positions()
    c0 = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    c1_power, c1_xy = rng.uniform(30.0, 50.0), (rng.uniform(100, 5000), rng.uniform(-1000, 1000))
    c1 = where.register(binder, NodeKind.ENB, "enb1", c1_power, c1_xy).node_id
    ue_xy = (rng.uniform(50, 2000), rng.uniform(-500, 500))
    ue = where.register(binder, NodeKind.UE, "car0", 26.0, ue_xy).node_id
    binder.set_serving_cell(ue, c0)
    channel = ChannelModel(binder, PARAMS, TABLES, where, where)

    binder.record_allocation(Direction.DL, c0, [0], c0)
    (before,) = channel.sinr(ue, c0, Direction.DL, [0])
    binder.record_allocation(Direction.DL, c1, [0], c1)
    (after,) = channel.sinr(ue, c0, Direction.DL, [0])
    assert after < before


# ----------------------------------------------------------------------
# CQI mapping


def test_cqi_zero_below_lowest_threshold():
    assert cqi_from_sinr(db_to_linear(-30.0), TABLES) == 0


def test_cqi_fifteen_above_highest_threshold():
    assert cqi_from_sinr(db_to_linear(40.0), TABLES) == 15


def test_cqi_boundary_is_inclusive():
    # oracle: linear scan of the dB threshold table, converted per entry
    def scan(sinr):
        best = 0
        for k in range(1, 16):
            if sinr >= db_to_linear(TABLES.sinr_thresholds_db[k - 1]):
                best = k
        return best

    boundary = db_to_linear(TABLES.sinr_thresholds_db[8])  # threshold of CQI 9
    assert cqi_from_sinr(boundary, TABLES) == scan(boundary) == 9


@given(st.floats(min_value=-40.0, max_value=40.0), st.floats(min_value=0.0, max_value=10.0))
def test_cqi_is_non_decreasing_in_sinr(sinr, delta):
    assert cqi_from_sinr(db_to_linear(sinr + delta), TABLES) >= cqi_from_sinr(
        db_to_linear(sinr), TABLES
    )


# ----------------------------------------------------------------------
# decode gate


def test_decode_above_threshold():
    threshold = TABLES.sinr_thresholds_db[6]  # CQI 7
    assert decode([db_to_linear(threshold + 2.0)], 7, TABLES) is True


def test_decode_cqi15_into_deep_fade_fails():
    assert decode([db_to_linear(-5.0)], 15, TABLES) is False


@pytest.mark.parametrize("cqi", range(1, 16))
def test_decode_exactly_at_threshold_succeeds(cqi):
    # CQI selection and the decode gate read the same linear threshold
    threshold = db_to_linear(CQI_SINR_THRESHOLDS_DB[cqi - 1])
    assert cqi_from_sinr(threshold, TABLES) == cqi
    assert decode([threshold], cqi, TABLES) is True


def test_decode_rejects_cqi_zero():
    with pytest.raises(ChannelError):
        decode([db_to_linear(10.0)], 0, TABLES)


@given(st.floats(min_value=-6.7, max_value=45.0))
def test_link_adaptation_self_consistency(sinr):
    # any SINR at or above the lowest threshold decodes at its own CQI
    linear = db_to_linear(sinr)
    cqi = cqi_from_sinr(linear, TABLES)
    assert cqi >= 1
    assert decode([linear], cqi, TABLES) is True


@given(
    st.lists(st.floats(min_value=-30.0, max_value=40.0), min_size=1, max_size=20)
)
def test_decode_uses_linear_mean(sinrs):
    linear = [db_to_linear(v) for v in sinrs]
    mean = left_to_right_mean(linear)
    cqi = cqi_from_sinr(mean, TABLES)
    if cqi >= 1:
        assert decode(linear, cqi, TABLES) is True


def test_decode_sums_left_to_right_where_a_compensated_sum_decides_otherwise():
    # One RB just under n times a threshold and n - 1 RBs in a deep fade, each
    # under half an ulp of the first. Added from the left, the fades vanish; a
    # compensated sum (math.fsum, or the built-in sum from Python 3.12) keeps
    # them. Where the two means straddle the threshold, decode must side with
    # the left-to-right loop on every interpreter, so the same config and seed
    # write the same bytes.
    straddles = 0
    for cqi in range(1, 16):
        threshold = TABLES.sinr_thresholds[cqi - 1]
        for n in (3, 4, 5):
            strong = math.nextafter(threshold * n, 0.0)
            sinrs = [strong] + [0.4 * math.ulp(strong)] * (n - 1)
            if left_to_right_mean(sinrs) < threshold <= math.fsum(sinrs) / n:
                straddles += 1
                assert decode(sinrs, cqi, TABLES) is False
    assert straddles >= 40


# ----------------------------------------------------------------------
# bits per RB


def test_bits_per_rb_against_efficiency_oracle():
    # oracle: floor(spectral efficiency x 144 resource elements)
    for cqi in range(1, 16):
        expected = math.floor(CQI_EFFICIENCY[cqi - 1] * 144)
        assert bits_per_rb(cqi, TABLES) == expected
    assert bits_per_rb(1, TABLES) == 21
    assert bits_per_rb(15, TABLES) == 799


def test_bits_per_rb_rejects_cqi_zero():
    with pytest.raises(ChannelError):
        bits_per_rb(0, TABLES)


# ----------------------------------------------------------------------
# association argmax invariance and purity


def test_common_power_offset_preserves_argmax():
    rng = random.Random(9)
    for _ in range(25):
        positions = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(3)]
        ue_pos = (rng.uniform(0, 3000), rng.uniform(0, 3000))
        powers = [rng.uniform(38, 48) for _ in range(3)]
        offset = rng.uniform(-10, 10)

        def argmax(extra):
            received = [
                received_power_dbm(p + extra, pos, ue_pos, PARAMS)
                for p, pos in zip(powers, positions)
            ]
            return max(range(3), key=lambda i: (received[i], -i))

        assert argmax(0.0) == argmax(offset)


def test_channel_is_pure_without_shadowing():
    binder, channel, cell, ue = _one_cell_one_ue()
    binder.record_allocation(Direction.DL, cell, [0, 1], cell)
    first = channel.sinr(ue, cell, Direction.DL, [0, 1])
    second = channel.sinr(ue, cell, Direction.DL, [0, 1])
    assert first == second


def test_shadowing_is_fixed_per_pair_and_reciprocal():
    where = Positions()
    channel = ChannelModel(Binder(), SHADOWED, TABLES, where, where, seed=3)
    a = channel.shadowing_db(1, 2)
    assert channel.shadowing_db(1, 2) == a
    assert channel.shadowing_db(2, 1) == a  # reciprocal channel
    assert channel.shadowing_db(1, 3) != a or channel.shadowing_db(1, 4) != a


def test_shadowing_disabled_is_zero():
    where, params = Positions(), ChannelParams(shadowing_sigma_db=8.0)
    channel = ChannelModel(Binder(), params, TABLES, where, where, seed=3)
    assert channel.shadowing_db(1, 2) == 0.0


def test_shadowing_enabled_in_the_params_alone_shadows():
    binder, plain, cell, ue = _one_cell_one_ue()
    unshadowed = received_power_dbm(46.0, (0.0, 0.0), (1000.0, 0.0), PARAMS)
    channel = ChannelModel(binder, SHADOWED, TABLES, plain.where, plain.clock)
    assert channel.rx_power_from_cell(ue, cell) != unshadowed


# ----------------------------------------------------------------------
# cell_powers


def _cells_and_ues(rng, params, n_cells=4, n_ues=5):
    binder, where = Binder(num_rbs=6), Positions()
    for i in range(n_cells):
        pos = (rng.uniform(0, 3000), rng.uniform(0, 3000))
        where.register(binder, NodeKind.ENB, f"enb{i}", rng.uniform(38, 48), pos)
    ues = [
        where.register(binder, NodeKind.UE, f"car{j}", 23.0, (rng.uniform(0, 3000), 0.0)).node_id
        for j in range(n_ues)
    ]
    return binder, ChannelModel(binder, params, TABLES, where, where, seed=rng.randrange(100)), ues


@pytest.mark.parametrize("params", [PARAMS, SHADOWED], ids=["plain", "shadowed"])
def test_cell_powers_equal_the_per_pair_power_bit_for_bit(params):
    rng = random.Random(11)
    binder, channel, ues = _cells_and_ues(rng, params)
    where = channel.where
    for ue in ues:
        for _ in range(3):
            row = channel.cell_powers(ue)
            assert len(row) == len(binder.cells)
            for cell, power in zip(binder.cells, row):
                expected = received_power_dbm(
                    binder.node(cell).tx_power_dbm,
                    where(cell),
                    where(ue),
                    params,
                    channel.shadowing_db(cell, ue),
                )
                assert power == expected  # bit for bit, no tolerance
                assert channel.rx_power_from_cell(ue, cell) == expected
            where.place(ue, (rng.uniform(0, 3000), rng.uniform(0, 3000)))
