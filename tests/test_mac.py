import random
from math import ceil

import pytest
from hypothesis import given, seed, settings, strategies as st

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import ChannelModel, ChannelParams, CqiTables, bits_per_rb, decode
from vcellsim.errors import ChannelError, MacError
from vcellsim.mac import Allocation, Grant, GrantOutcome, Mac

from conftest import make_packet
from oracles import Positions, reference_maxcqi, reference_rr

TABLES = CqiTables()


def _env(n_ues=1, num_rbs=50, ue_distance=100.0):
    """One cell with n close-by UEs (interference-free, strong signal)."""
    binder, where = Binder(num_rbs=num_rbs), Positions()
    cell = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    ues = []
    for i in range(n_ues):
        rec = where.register(binder, NodeKind.UE, f"car{i}", 26.0, (ue_distance, float(i)))
        binder.set_serving_cell(rec.node_id, cell)
        ues.append(rec.node_id)
    channel = ChannelModel(binder, ChannelParams(), TABLES, where, where)
    return binder, channel, Mac(binder), cell, ues


def _fill(mac, ue, bits, direction=Direction.DL):
    assert mac.enqueue(ue, make_packet(bits, direction))


def _delivered_bits(outcome):
    return sum(p.size_bits for g in outcome.grant_outcomes.values() for p in g.delivered)


def _dropped_bits(outcome):
    return sum(g.dropped_bits for g in outcome.grant_outcomes.values())


# ----------------------------------------------------------------------
# buffers


def test_enqueue_tracks_occupancy():
    _, _, mac, _, (ue,) = _env()
    mac.enqueue(ue, make_packet(1000))
    mac.enqueue(ue, make_packet(300, Direction.UL))
    assert mac.buffer_bits(ue, Direction.DL) == 1000
    assert mac.buffer_bits(ue, Direction.UL) == 300


def test_enqueue_for_unregistered_node_rejected():
    binder, _, mac, _, _ = _env()
    with pytest.raises(MacError):
        mac.enqueue(999, make_packet(1000))


@pytest.mark.parametrize("bits", [0, -8])
def test_enqueue_non_positive_size_rejected(bits):
    _, _, mac, _, (ue,) = _env()
    with pytest.raises(MacError, match="non-positive size"):
        mac.enqueue(ue, make_packet(bits))
    assert mac.buffer_bits(ue, Direction.DL) == 0


def test_overflow_tail_drops_and_preserves_head():
    binder, _, mac, _, (ue,) = _env()
    small = Mac(binder, capacity_bits=2500)
    head = make_packet(2000)
    assert small.enqueue(ue, head) is True
    assert small.enqueue(ue, make_packet(1000)) is False
    assert small.buffer_bits(ue, Direction.DL) == 2000
    assert list(small.backlogged[Direction.DL][ue].queue) == [head]
    # a drop for a node with no buffer leaves it out of the buffer map
    assert small.enqueue(ue, make_packet(3000, Direction.UL)) is False
    assert ue not in small.backlogged[Direction.UL]


def test_clear_node_empties_both_directions():
    _, _, mac, _, (ue,) = _env()
    _fill(mac, ue, 500, Direction.DL)
    _fill(mac, ue, 300, Direction.UL)
    assert mac.clear_node(ue) == 800
    assert mac.buffer_bits(ue, Direction.DL) == 0
    assert mac.buffer_bits(ue, Direction.UL) == 0
    assert all(ue not in buffers for buffers in mac.backlogged.values())  # freed, not kept empty


def test_clear_dl_buffer_frees_only_the_dl_buffer():
    _, _, mac, _, (ue,) = _env()
    _fill(mac, ue, 500, Direction.DL)
    _fill(mac, ue, 300, Direction.UL)
    assert mac.clear(ue, Direction.DL) == 500
    assert not mac.backlogged[Direction.DL] and list(mac.backlogged[Direction.UL]) == [ue]
    assert mac.buffer_bits(ue, Direction.UL) == 300
    assert mac.clear(ue, Direction.DL) == 0


# ----------------------------------------------------------------------
# round-robin scheduling


def test_rr_single_backlogged_ue_takes_all_rbs():
    _, _, mac, cell, (ue,) = _env(1)
    _fill(mac, ue, 10**6)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15)], TABLES)
    assert len(alloc.grants[ue].rb_set) == 50


def test_rr_two_deep_buffers_split_evenly():
    _, _, mac, cell, ues = _env(2)
    for ue in ues:
        _fill(mac, ue, 10**6)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
    assert sorted(len(g.rb_set) for g in alloc.grants.values()) == [25, 25]


def test_rr_three_ues_rotate_to_equality_over_three_ttis():
    # oracle: 3-TTI pointer-walk simulation; per-TTI split is 17/17/16
    _, _, mac, cell, ues = _env(3)
    totals = {ue: 0 for ue in ues}
    for _ in range(3):
        for ue in ues:
            mac.clear_node(ue)
            _fill(mac, ue, 10**6)
        alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
        sizes = sorted(len(g.rb_set) for g in alloc.grants.values())
        assert sizes == [16, 17, 17]
        for ue, grant in alloc.grants.items():
            totals[ue] += len(grant.rb_set)
    assert set(totals.values()) == {50}


def test_rr_grants_capped_at_demand_with_spillover():
    _, _, mac, cell, ues = _env(2)
    per_rb = bits_per_rb(15, TABLES)
    _fill(mac, ues[0], 5 * per_rb)  # needs exactly 5 RBs
    _fill(mac, ues[1], 10**6)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
    assert len(alloc.grants[ues[0]].rb_set) == 5
    assert len(alloc.grants[ues[1]].rb_set) == 45


def test_rr_skips_cqi_zero_and_empty_buffers():
    _, _, mac, cell, ues = _env(3)
    _fill(mac, ues[0], 1000)
    _fill(mac, ues[1], 1000)
    # ues[2] empty; ues[1] reports CQI 0
    alloc = mac.schedule_tti_rr(
        cell, Direction.DL, [(ues[0], 12), (ues[1], 0), (ues[2], 12)], TABLES
    )
    assert set(alloc.grants) == {ues[0]}


def test_rr_no_backlog_gives_empty_allocation():
    _, _, mac, cell, ues = _env(2)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
    assert alloc.grants == {}


def test_rr_allocations_are_disjoint_and_in_bounds():
    _, _, mac, cell, ues = _env(5, num_rbs=13)
    for ue in ues:
        _fill(mac, ue, 10**5)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 7) for ue in ues], TABLES)
    seen = set()
    for grant in alloc.grants.values():
        for rb in grant.rb_set:
            assert 0 <= rb < 13
            assert rb not in seen
            seen.add(rb)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=5, max_value=60),
)
def test_rr_window_fairness(k, rounds, num_rbs):
    """K equal-CQI deep-buffered UEs get exactly equal RBs over K*L TTIs."""
    _, _, mac, cell, ues = _env(k, num_rbs=num_rbs)
    totals = {ue: 0 for ue in ues}
    for _ in range(k * rounds):
        for ue in ues:
            mac.clear_node(ue)
            _fill(mac, ue, 10**6)
        alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
        for ue, grant in alloc.grants.items():
            totals[ue] += len(grant.rb_set)
    assert len(set(totals.values())) == 1


# ----------------------------------------------------------------------
# max-CQI scheduling


def test_maxcqi_highest_cqi_takes_what_it_can_fill():
    _, _, mac, cell, ues = _env(2)
    for ue in ues:
        _fill(mac, ue, 10**6)
    alloc = mac.schedule_tti_maxcqi(
        cell, Direction.DL, [(ues[0], 7), (ues[1], 12)], TABLES
    )
    assert set(alloc.grants) == {ues[1]}
    assert len(alloc.grants[ues[1]].rb_set) == 50


def test_maxcqi_tie_breaks_to_lowest_node_id():
    _, _, mac, cell, ues = _env(2)
    for ue in ues:
        _fill(mac, ue, 10**6)
    alloc = mac.schedule_tti_maxcqi(cell, Direction.DL, [(ue, 9) for ue in ues], TABLES)
    assert set(alloc.grants) == {min(ues)}


def test_maxcqi_remainder_flows_to_runner_up():
    # oracle: greedy fill by descending CQI
    _, _, mac, cell, ues = _env(2)
    per_rb = bits_per_rb(12, TABLES)
    _fill(mac, ues[1], 10 * per_rb)  # high-CQI UE needs only 10 RBs
    _fill(mac, ues[0], 10**6)
    alloc = mac.schedule_tti_maxcqi(
        cell, Direction.DL, [(ues[0], 7), (ues[1], 12)], TABLES
    )
    assert len(alloc.grants[ues[1]].rb_set) == 10
    assert len(alloc.grants[ues[0]].rb_set) == 40


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8))
def test_maxcqi_dominance(cqis):
    """No granted UE has strictly lower CQI than an ungranted backlogged UE."""
    _, _, mac, cell, ues = _env(len(cqis), num_rbs=7)
    for ue in ues:
        _fill(mac, ue, 10**6)
    pairs = list(zip(ues, cqis))
    alloc = mac.schedule_tti_maxcqi(cell, Direction.DL, pairs, TABLES)
    backlogged = {ue: cqi for ue, cqi in pairs if cqi >= 1}
    granted = set(alloc.grants)
    for ue in granted:
        for other, other_cqi in backlogged.items():
            if other not in granted:
                assert backlogged[ue] >= other_cqi


# ----------------------------------------------------------------------
# both schedulers against their pointer-walk and greedy-fill references

# buffered bits by kind: a sub-RB buffer holds fewer bits than one RB
# carries at CQI 1 (21), so it still demands one RB
_BUFFER_BITS = {
    "empty": st.just(0),
    "sub_rb": st.integers(min_value=1, max_value=20),
    "some": st.integers(min_value=21, max_value=20_000),
    "deep": st.just(10**6),
}


@seed(1709)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["rr", "maxcqi"]), st.data())
def test_schedulers_match_their_references(scheduler, data):
    n_ues = data.draw(st.integers(min_value=1, max_value=12))
    num_rbs = data.draw(st.integers(min_value=1, max_value=60))
    _, _, mac, cell, ues = _env(n_ues, num_rbs=num_rbs)
    pointer = None
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        ues_with_cqi, bits = [], {}
        for ue in ues:
            mac.clear_node(ue)
            kind = data.draw(st.sampled_from(sorted(_BUFFER_BITS)))
            bits[ue] = data.draw(_BUFFER_BITS[kind])
            if bits[ue]:
                _fill(mac, ue, bits[ue])
            if data.draw(st.booleans()):  # a UE may be absent, even the pointer's
                ues_with_cqi.append((ue, data.draw(st.integers(min_value=0, max_value=15))))
        if scheduler == "rr":
            alloc = mac.schedule_tti_rr(cell, Direction.DL, ues_with_cqi, TABLES)
            expected, pointer = reference_rr(ues_with_cqi, bits, num_rbs, pointer, TABLES)
            assert mac._rr_pointer.get((cell, Direction.DL)) == pointer
        else:
            alloc = mac.schedule_tti_maxcqi(cell, Direction.DL, ues_with_cqi, TABLES)
            expected = reference_maxcqi(ues_with_cqi, bits, num_rbs, TABLES)
        assert {ue: (g.rb_set, g.cqi_used) for ue, g in alloc.grants.items()} == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["schedule_tti_rr", "schedule_tti_maxcqi"]), st.data())
def test_grants_ascend_strictly_within_the_grid_and_share_no_rb(scheduler, data):
    """The binder and channel take a grant's RBs as given, unsorted: each
    grant must be a strictly ascending run in 0..num_rbs-1, and a cell's
    grants disjoint, for demands below and above the rotation's length and
    any round-robin pointer."""
    num_rbs = data.draw(st.integers(min_value=1, max_value=110))
    n_ues = data.draw(st.integers(min_value=1, max_value=12))
    binder, channel, mac, cell, ues = _env(n_ues, num_rbs=num_rbs)
    mac._rr_pointer[(cell, Direction.UL)] = data.draw(st.integers(0, ues[-1] + 1))
    ues_with_cqi = []
    for ue in ues:
        cqi = data.draw(st.integers(min_value=1, max_value=15))
        demand = data.draw(st.integers(1, n_ues) | st.integers(n_ues + 1, 120))
        _fill(mac, ue, demand * bits_per_rb(cqi, TABLES), Direction.UL)
        ues_with_cqi.append((ue, cqi))
    alloc = getattr(mac, scheduler)(cell, Direction.UL, ues_with_cqi, TABLES)
    assert alloc.grants
    taken = set()
    for ue, grant in alloc.grants.items():
        rbs = grant.rb_set
        assert 0 <= rbs[0] and rbs[-1] < num_rbs
        assert all(a < b for a, b in zip(rbs, rbs[1:]))
        assert taken.isdisjoint(rbs)
        taken.update(rbs)
        binder.record_allocation(Direction.UL, cell, rbs, ue)
        channel.check_allocated(ue, cell, Direction.UL, rbs)


@pytest.mark.parametrize("scheduler", ["schedule_tti_rr", "schedule_tti_maxcqi"])
def test_schedulers_read_each_buffer_once(scheduler):
    _, _, mac, cell, ues = _env(5)
    for ue in ues[:4]:
        _fill(mac, ue, 5000)  # ues[4] stays empty
    reads = {ue: 0 for ue in ues}
    real = mac.buffer_bits

    def counting(owner, direction):
        reads[owner] += 1
        return real(owner, direction)

    mac.buffer_bits = counting
    cqis = [(ues[0], 15), (ues[1], 9), (ues[2], 9), (ues[3], 0), (ues[4], 12)]
    alloc = getattr(mac, scheduler)(cell, Direction.DL, cqis, TABLES)
    assert set(alloc.grants) == {ues[0], ues[1], ues[2]}
    # a CQI-0 UE cannot be scheduled, so its buffer need not be read
    assert reads == {ues[0]: 1, ues[1]: 1, ues[2]: 1, ues[3]: 0, ues[4]: 1}


# ----------------------------------------------------------------------
# transmit


def _record(binder, alloc):
    for ue in sorted(alloc.grants):
        tx = alloc.cell if alloc.direction == Direction.DL else ue
        binder.record_allocation(alloc.direction, alloc.cell, alloc.grants[ue].rb_set, tx)


def test_transmit_delivers_within_capacity():
    # 50 RBs at CQI 15 carry 50 * 799 = 39,950 bits: a packet of exactly
    # that size goes out, one bit more waits
    binder, channel, mac, cell, (ue,) = _env(1)
    fits, too_big = make_packet(39_950), make_packet(39_951)
    for pkt in (fits, too_big):
        mac.enqueue(ue, pkt)
        alloc = Allocation(cell, Direction.DL, {ue: Grant(tuple(range(50)), 15)})
        _record(binder, alloc)
        result = mac.transmit(alloc, channel).grant_outcomes[ue]
        binder.end_tti()
        assert result.decoded is True
        assert result.rb_count == 50
        assert result.dropped_bits == 0
        if pkt is fits:
            assert len(result.delivered) == 1 and result.delivered[0] is fits
            assert mac.buffer_bits(ue, Direction.DL) == 0
        else:
            assert result.delivered == []
            assert mac.buffer_bits(ue, Direction.DL) == 39_951


def test_transmit_oversized_packet_waits_without_segmentation():
    binder, channel, mac, cell, (ue,) = _env(1, num_rbs=2)
    per_rb = bits_per_rb(15, TABLES)
    mac.enqueue(ue, make_packet(3 * per_rb))  # needs 3 RBs, only 2 exist
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15)], TABLES)
    _record(binder, alloc)
    outcome = mac.transmit(alloc, channel)
    assert _delivered_bits(outcome) == 0
    assert _dropped_bits(outcome) == 0
    assert mac.buffer_bits(ue, Direction.DL) == 3 * per_rb  # still queued


def test_transmit_serves_fifo_prefix():
    binder, channel, mac, cell, (ue,) = _env(1, num_rbs=1)
    per_rb = bits_per_rb(15, TABLES)  # capacity for one RB
    a, b, c = make_packet(per_rb - 100), make_packet(90), make_packet(500)
    for pkt in (a, b, c):
        mac.enqueue(ue, pkt)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15)], TABLES)
    _record(binder, alloc)
    outcome = mac.transmit(alloc, channel)
    delivered = outcome.grant_outcomes[ue].delivered
    assert len(delivered) == 2
    assert delivered[0] is a and delivered[1] is b  # the queued objects come back
    assert mac.buffer_bits(ue, Direction.DL) == 500


def test_transmit_empty_allocation_is_a_no_op():
    binder, channel, mac, cell, (ue,) = _env(1)
    alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15)], TABLES)
    outcome = mac.transmit(alloc, channel)
    assert outcome.grant_outcomes == {}


def test_rr_head_of_line_livelock_delivers_nothing():
    # Pins the paper's packet-atomic round robin, not a fix: five backlogged
    # UEs split 50 RBs 10 each, but an 8000-bit packet needs 11 RBs at CQI 15.
    binder, channel, mac, cell, ues = _env(5)
    for ue in ues:
        mac.enqueue(ue, make_packet(8000))
    assert ceil(8000 / bits_per_rb(15, TABLES)) == 11
    delivered = 0
    for _ in range(20):
        alloc = mac.schedule_tti_rr(cell, Direction.DL, [(ue, 15) for ue in ues], TABLES)
        assert [len(alloc.grants[ue].rb_set) for ue in ues] == [10] * 5
        _record(binder, alloc)
        # not a decode failure: every grant's SINR clears the CQI-15 threshold
        for ue, grant in alloc.grants.items():
            assert decode(channel.sinr(ue, cell, Direction.DL, grant.rb_set), 15, TABLES)
        outcome = mac.transmit(alloc, channel)
        binder.end_tti()
        assert all(g.decoded for g in outcome.grant_outcomes.values())
        delivered += _delivered_bits(outcome)
    assert delivered == 0
    assert [mac.buffer_bits(ue, Direction.DL) for ue in ues] == [8000] * 5


def test_transmit_unrecorded_grant_rejected():
    # 2 RBs at CQI 15 carry 1598 bits: a 1000-bit packet goes into the grant,
    # an 8000-bit one stays queued, and either grant is checked against the grid
    for bits in (1000, 8000):
        binder, channel, mac, cell, (ue,) = _env(1)
        mac.enqueue(ue, make_packet(bits))
        alloc = Allocation(cell, Direction.DL, {ue: Grant((0, 1), 15)})
        with pytest.raises(ChannelError, match="not allocated"):
            mac.transmit(alloc, channel)


def test_grant_that_took_nothing_computes_no_sinr():
    binder, channel, mac, cell, (full, empty, none) = _env(3)
    mac.enqueue(full, make_packet(1000))
    mac.enqueue(empty, make_packet(8000))
    grants = {full: Grant((0, 1), 15), empty: Grant((2, 3), 15), none: Grant((4,), 15)}
    alloc = Allocation(cell, Direction.DL, grants)
    _record(binder, alloc)
    sinr_calls = []
    sinr = channel.sinr

    def counted(ue, *args):
        sinr_calls.append(ue)
        return sinr(ue, *args)

    channel.sinr = counted
    outcome = mac.transmit(alloc, channel)
    assert sinr_calls == [full]
    assert outcome.grant_outcomes[empty] == GrantOutcome(2, True, [], 0)
    assert mac.buffer_bits(empty, Direction.DL) == 8000
    # a grant for a node with no buffer leaves it out of the buffer map
    assert outcome.grant_outcomes[none] == GrantOutcome(1, True, [], 0)
    assert list(mac.backlogged[Direction.DL]) == [empty]


def test_colliding_cells_at_close_range_drop_both_grants():
    # oracle: brute-force SINR is far below the CQI-15 threshold for both
    binder, where = Binder(num_rbs=10), Positions()
    c0 = where.register(binder, NodeKind.ENB, "enb0", 46.0, (0.0, 0.0)).node_id
    c1 = where.register(binder, NodeKind.ENB, "enb1", 46.0, (50.0, 0.0)).node_id
    u0 = where.register(binder, NodeKind.UE, "car0", 26.0, (25.0, 10.0)).node_id
    u1 = where.register(binder, NodeKind.UE, "car1", 26.0, (25.0, -10.0)).node_id
    binder.set_serving_cell(u0, c0)
    binder.set_serving_cell(u1, c1)
    channel = ChannelModel(binder, ChannelParams(), TABLES, where, where)
    mac = Mac(binder)
    mac.enqueue(u0, make_packet(1000))
    mac.enqueue(u1, make_packet(1000))
    a0 = mac.schedule_tti_rr(c0, Direction.DL, [(u0, 15)], TABLES)
    a1 = mac.schedule_tti_rr(c1, Direction.DL, [(u1, 15)], TABLES)
    _record(binder, a0)
    _record(binder, a1)  # both see each other before decode
    out0 = mac.transmit(a0, channel)
    out1 = mac.transmit(a1, channel)
    assert out0.grant_outcomes[u0].decoded is False
    assert out1.grant_outcomes[u1].decoded is False
    assert out0.grant_outcomes[u0].delivered == []
    assert out0.grant_outcomes[u0].dropped_bits == 1000
    assert out1.grant_outcomes[u1].dropped_bits == 1000


# ----------------------------------------------------------------------
# conservation


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_buffer_conservation_over_random_traffic(seed):
    rng = random.Random(seed)
    binder, channel, mac, cell, ues = _env(3)
    small = Mac(binder, capacity_bits=50_000)
    keys = [(ue, d) for ue in ues for d in Direction]
    fates = {key: {"enqueued": 0, "delivered": 0, "dropped": 0, "cleared": 0} for key in keys}
    for step in range(30):
        for ue, d in keys:
            if rng.random() < 0.5:
                pkt = make_packet(rng.randint(100, 20_000), d)
                if small.enqueue(ue, pkt):
                    fates[ue, d]["enqueued"] += pkt.size_bits
        for d in Direction:
            alloc = small.schedule_tti_rr(
                cell, d, [(ue, rng.randint(1, 15)) for ue in ues], TABLES
            )
            _record(binder, alloc)
            for ue, result in small.transmit(alloc, channel).grant_outcomes.items():
                fates[ue, d]["delivered"] += sum(p.size_bits for p in result.delivered)
                fates[ue, d]["dropped"] += result.dropped_bits
        if rng.random() < 0.3:
            ue, d = rng.choice(keys)
            fates[ue, d]["cleared"] += small.clear(ue, d)
        # the buffer map holds only buffers with bits in them
        for buffers in small.backlogged.values():
            for buf in buffers.values():
                assert buf.queue and buf.occupancy_bits == sum(p.size_bits for p in buf.queue)
        binder.end_tti()
    for (ue, d), f in fates.items():
        assert f["enqueued"] == (
            f["delivered"] + f["dropped"] + f["cleared"] + small.buffer_bits(ue, d)
        )
