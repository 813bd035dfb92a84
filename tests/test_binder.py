import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.errors import LedgerError, RegistryError

from oracles import allocation_items, co_channel_transmitters, live_ids


EMPTY_GRID = {Direction.DL: {}, Direction.UL: {}}


def _binder_with_cells(n=2, num_rbs=50):
    binder = Binder(num_rbs=num_rbs)
    cells = [
        binder.register_node(NodeKind.ENB, f"enb{i}", 46.0).node_id
        for i in range(n)
    ]
    return binder, cells


# ----------------------------------------------------------------------
# registration


def test_first_registration_gets_id_one():
    binder = Binder()
    rec = binder.register_node(NodeKind.ENB, "enb0", 46.0)
    assert rec.node_id == 1


def test_ids_are_never_reused():
    binder = Binder()
    binder.register_node(NodeKind.UE, "a", 26.0)
    second = binder.register_node(NodeKind.UE, "b", 26.0)
    binder.deregister_node(second.node_id)
    third = binder.register_node(NodeKind.UE, "c", 26.0)
    assert third.node_id == 3


def test_two_enbs_and_ten_vehicles_make_twelve_live_records():
    binder, _ = _binder_with_cells(2)
    for i in range(10):
        binder.register_node(NodeKind.UE, f"car{i}", 26.0)
    assert len(binder.live_nodes()) == 12


def test_duplicate_live_name_rejected():
    binder = Binder()
    binder.register_node(NodeKind.UE, "car0", 26.0)
    with pytest.raises(RegistryError):
        binder.register_node(NodeKind.UE, "car0", 26.0)


def test_name_reusable_after_deregistration():
    binder = Binder()
    rec = binder.register_node(NodeKind.UE, "car0", 26.0)
    assert binder.live_id("car0") == rec.node_id
    binder.deregister_node(rec.node_id)
    assert binder.live_id("car0") is None
    again = binder.register_node(NodeKind.UE, "car0", 26.0)
    assert again.node_id == 2
    assert binder.live_id("car0") == 2


def test_failed_registration_consumes_no_ids():
    binder = Binder()
    binder.register_node(NodeKind.UE, "car0", 26.0)
    with pytest.raises(RegistryError):
        binder.register_node(NodeKind.UE, "car0", 26.0)
    rec = binder.register_node(NodeKind.UE, "car1", 26.0)
    assert rec.node_id == 2  # no gap


# ----------------------------------------------------------------------
# deregistration


def test_deregister_sole_ue_leaves_only_cells():
    binder, cells = _binder_with_cells(2)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    binder.record_allocation(Direction.UL, cells[0], range(5), ue)
    binder.deregister_node(ue)
    assert [r.node_id for r in binder.live_nodes()] == cells
    assert co_channel_transmitters(binder.current[Direction.UL], 0, excluding_cell=cells[1]) == []
    assert binder.cells == sorted(binder.cells) == cells

    # interleaved churn: live_nodes stays in ascending id order, cells unchanged
    ues = []
    for i in range(1, 7):
        ues.append(binder.register_node(NodeKind.UE, f"car{i}", 26.0).node_id)
        if i % 2 == 0:
            binder.deregister_node(ues.pop(-2))
        ids = [r.node_id for r in binder.live_nodes()]
        assert ids == sorted(ids) == cells + ues
        assert binder.cells == cells
    assert [r.node_id for r in binder.live_nodes(NodeKind.UE)] == ues


def test_deregister_purges_grid_like_a_rebuild():
    binder, cells = _binder_with_cells(2)
    ue1 = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    ue2 = binder.register_node(NodeKind.UE, "car1", 26.0).node_id
    binder.record_allocation(Direction.UL, cells[0], range(10), ue1)
    binder.record_allocation(Direction.UL, cells[1], range(4, 12), ue2)
    binder.end_tti()
    binder.record_allocation(Direction.UL, cells[0], range(20, 25), ue1)
    binder.record_allocation(Direction.UL, cells[1], range(3), ue2)

    binder.deregister_node(ue1)

    # oracle: rebuild both grids from scratch without the departed node
    oracle = Binder(num_rbs=50)
    ocells = [
        oracle.register_node(NodeKind.ENB, f"enb{i}", 46.0).node_id
        for i in range(2)
    ]
    oracle.register_node(NodeKind.UE, "car0", 26.0)
    oue2 = oracle.register_node(NodeKind.UE, "car1", 26.0).node_id
    oracle.record_allocation(Direction.UL, ocells[1], range(4, 12), oue2)
    oracle.end_tti()
    oracle.record_allocation(Direction.UL, ocells[1], range(3), oue2)

    # same registration order, so the same ids; no emptied RB entry may remain
    assert ocells == cells and oue2 == ue2
    assert binder.last == oracle.last
    assert binder.current == oracle.current
    for direction in Direction:  # and in the same RB and cell order
        assert list(allocation_items(binder.last[direction])) == list(
            allocation_items(oracle.last[direction])
        )
        assert list(allocation_items(binder.current[direction])) == list(
            allocation_items(oracle.current[direction])
        )


def test_deregister_replaces_a_closed_grid_instead_of_editing_it():
    # a reader may key a cache on the identity of a closed grid
    binder, cells = _binder_with_cells(2)
    ue1 = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    ue2 = binder.register_node(NodeKind.UE, "car1", 26.0).node_id
    binder.record_allocation(Direction.UL, cells[0], range(6), ue1)
    binder.record_allocation(Direction.UL, cells[1], range(3, 8), ue2)
    binder.end_tti()
    held = binder.last[Direction.UL]
    before = copy.deepcopy(held)

    binder.deregister_node(ue1)

    assert held == before
    oracle = {cells[1]: [ue2 if 3 <= rb < 8 else 0 for rb in range(50)]}
    assert binder.last == {Direction.DL: {}, Direction.UL: oracle}


def test_double_deregistration_rejected():
    binder = Binder()
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    binder.deregister_node(ue)
    with pytest.raises(RegistryError):
        binder.deregister_node(ue)


def test_deregistering_cell_is_rejected_and_changes_nothing():
    binder, cells = _binder_with_cells(2)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    binder.set_serving_cell(ue, cells[1])
    binder.record_allocation(Direction.DL, cells[1], range(3), cells[1])
    binder.record_allocation(Direction.UL, cells[1], range(2), ue)
    live_before = list(binder.live_nodes())
    grids_before = copy.deepcopy(binder.current)

    with pytest.raises(RegistryError):
        binder.deregister_node(cells[1])

    assert binder.live_nodes() == live_before
    assert binder.cells == cells
    assert binder.node(ue).serving_cell == cells[1]
    assert binder.current == grids_before


# ----------------------------------------------------------------------
# allocations


def test_record_allocation_fills_entries():
    binder, cells = _binder_with_cells(1)
    binder.record_allocation(Direction.DL, cells[0], range(25), cells[0])
    assert len(list(allocation_items(binder.current[Direction.DL]))) == 25


def test_double_allocation_within_cell_rejected():
    binder, cells = _binder_with_cells(1)
    binder.record_allocation(Direction.DL, cells[0], [3], cells[0])
    with pytest.raises(LedgerError):
        binder.record_allocation(Direction.DL, cells[0], [3], cells[0])


def test_same_rb_allowed_across_cells():
    binder, cells = _binder_with_cells(2)
    binder.record_allocation(Direction.DL, cells[0], [7], cells[0])
    binder.record_allocation(Direction.DL, cells[1], [7], cells[1])

    # oracle: per-cell uniqueness holds over the full grid
    seen = {}
    for cell, rb, _tx in allocation_items(binder.current[Direction.DL]):
        assert (cell, rb) not in seen
        seen[(cell, rb)] = True
    assert len(seen) == 2


def test_rb_out_of_range_rejected():
    binder, cells = _binder_with_cells(1, num_rbs=10)
    with pytest.raises(LedgerError):
        binder.record_allocation(Direction.DL, cells[0], [10], cells[0])


@pytest.mark.parametrize(
    "rbs",
    [[3, 2], [4, 5, 3], [2, 2], [6, 7, 7], [-1], [-1, 0], [9, 10], [10]],
    ids=["descending", "dip-after-a-run", "repeat", "repeat-after-a-run",
         "negative", "negative-first", "past-the-end", "past-the-end-alone"],
)
def test_a_grant_that_does_not_ascend_strictly_in_the_grid_changes_no_grid(rbs):
    # the ledger takes a grant's RBs as given: no sort, no dedup
    binder, cells = _binder_with_cells(2, num_rbs=10)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    binder.record_allocation(Direction.UL, cells[0], [0, 1], ue)
    binder.end_tti()
    binder.record_allocation(Direction.UL, cells[0], [8], ue)
    binder.record_allocation(Direction.UL, cells[1], [1, 2], ue)
    last, current = copy.deepcopy(binder.last), copy.deepcopy(binder.current)

    for direction in (Direction.UL, Direction.DL):  # cells[0] has a row only in UL
        with pytest.raises(LedgerError):
            binder.record_allocation(direction, cells[0], rbs, ue)

    assert binder.last == last and binder.current == current


# ----------------------------------------------------------------------
# co-channel queries


def test_no_allocations_give_empty_interferer_list():
    binder, cells = _binder_with_cells(2)
    assert co_channel_transmitters(binder.current[Direction.DL], 5, cells[0]) == []


def test_co_channel_excludes_own_cell():
    binder, cells = _binder_with_cells(2)
    binder.record_allocation(Direction.DL, cells[0], [7], cells[0])
    binder.record_allocation(Direction.DL, cells[1], [7], cells[1])
    assert [row[7] for row in binder.current[Direction.DL].values()] == cells
    got = co_channel_transmitters(binder.current[Direction.DL], 7, excluding_cell=cells[0])
    assert got == [cells[1]]


def test_ul_queries_return_ues_never_enbs():
    binder, cells = _binder_with_cells(2)
    ue = binder.register_node(NodeKind.UE, "car0", 26.0).node_id
    binder.record_allocation(Direction.DL, cells[0], [3], cells[0])
    binder.record_allocation(Direction.UL, cells[0], [3], ue)
    assert co_channel_transmitters(binder.current[Direction.UL], 3, cells[1]) == [ue]


# ----------------------------------------------------------------------
# TTI bookkeeping


def test_advance_resets_grid_and_keeps_history():
    binder, cells = _binder_with_cells(1)
    for _ in range(42):
        binder.end_tti()
    binder.record_allocation(Direction.DL, cells[0], [0], cells[0])
    assert binder.last == EMPTY_GRID
    binder.end_tti()
    assert binder.current == EMPTY_GRID
    # the closed TTI is now the last one; new allocations go to current only
    binder.record_allocation(Direction.DL, cells[0], [1], cells[0])
    assert list(allocation_items(binder.last[Direction.DL])) == [(cells[0], 0, cells[0])]
    assert list(allocation_items(binder.current[Direction.DL])) == [(cells[0], 1, cells[0])]


def test_two_tti_old_grid_discarded():
    binder, cells = _binder_with_cells(1)
    binder.record_allocation(Direction.DL, cells[0], [0], cells[0])
    old = binder.current
    binder.end_tti()
    binder.end_tti()
    assert binder.last is not old and binder.current is not old
    assert binder.last == binder.current == EMPTY_GRID


# ----------------------------------------------------------------------
# randomized registry property


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_registry_matches_set_oracle(seed):
    rng = random.Random(seed)
    binder = Binder(num_rbs=10)
    ue_oracle: set[int] = set()
    cell_oracle: set[int] = set()
    name_oracle: dict[str, int] = {}  # live name -> id
    dead_names: set[str] = set()
    names = iter(range(10_000))
    for _ in range(300):
        if ue_oracle and rng.random() < 0.4:
            victim = rng.choice(sorted(ue_oracle))
            binder.deregister_node(victim)
            ue_oracle.discard(victim)
            (name,) = [n for n, i in name_oracle.items() if i == victim]
            del name_oracle[name]
            dead_names.add(name)
        else:
            kind = NodeKind.UE if rng.random() < 0.8 else NodeKind.ENB
            if dead_names and rng.random() < 0.3:  # a departed vehicle's name comes back
                name = rng.choice(sorted(dead_names))
                dead_names.remove(name)
            else:
                name = f"n{next(names)}"
            rec = binder.register_node(kind, name, 26.0)
            (ue_oracle if kind is NodeKind.UE else cell_oracle).add(rec.node_id)
            name_oracle[name] = rec.node_id
        assert live_ids(binder) == ue_oracle | cell_oracle
        assert binder.cells == sorted(cell_oracle)
        for name, node_id in name_oracle.items():
            assert binder.live_id(name) == node_id
        for name in dead_names:
            assert binder.live_id(name) is None
