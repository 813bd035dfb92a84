"""Central bookkeeping for the simulated network.

Every node (vehicle UE or eNB) registers here and gets a run-unique id.
eNBs are registered once and stay for the whole run; only vehicle UEs join
and leave, and the binder is the only record of which vehicles are live.
The binder also keeps the resource-block ledger: for each cell and
direction, which node transmits on which RB. Downlink and uplink use two
distinct RB sets. It holds exactly two grids. `current` is the TTI
being scheduled: allocations are recorded into it and decoding reads it.
`last` is the last completed TTI: CQI measurement reads it, in the tick
and between ticks alike. `end_tti` closes a TTI, and anything older than
`last` is discarded.

Each grid direction has an occupancy-pattern index. `last` is indexed in
`end_tti` and after the deregistration purge, `current` on the first read
after a `record_allocation`. `moves` counts `set_position` calls, the only
way a position changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import LedgerError, RegistryError

DEFAULT_NUM_RBS = 50  # 10 MHz LTE grid
MAX_NUM_RBS = 110  # 20 MHz, the largest LTE grid (3GPP TS 36.211)


def check_num_rbs(num_rbs: int) -> None:
    if not 1 <= num_rbs <= MAX_NUM_RBS:
        raise ValueError(f"must be in 1..{MAX_NUM_RBS}, got {num_rbs}")


class NodeKind(Enum):
    UE = "UE"
    ENB = "ENB"


class Direction(Enum):
    DL = "DL"
    UL = "UL"


@dataclass
class NodeRecord:
    node_id: int
    kind: NodeKind
    name: str
    tx_power_dbm: float
    serving_cell: Optional[int] = None  # UE only
    position: tuple[float, float] = (0.0, 0.0)


# Per-TTI grid: direction -> rb index -> {cell id -> transmitter id}.
Grid = dict[Direction, dict[int, dict[int, int]]]


def _empty_grid() -> Grid:
    return {Direction.DL: {}, Direction.UL: {}}


class PatternIndex:
    """One grid direction's distinct occupant tuples, ((cell, transmitter), ...)
    in first-appearance order, and each RB's pattern id, in grid order.
    Compared and hashed by identity, so it keys memos of this one index."""

    def __init__(self, per_rb: dict[int, dict[int, int]]) -> None:
        ids: dict[tuple[tuple[int, int], ...], int] = {}
        self.rb_pattern = {
            rb: ids.setdefault(tuple(cells.items()), len(ids)) for rb, cells in per_rb.items()
        }
        self.patterns = list(ids)


class Binder:
    """Node registry plus RB allocation ledger.

    Node ids are handed out from a monotonic counter starting at 1 and are
    never reused, so a stale reference is always detectable. Live node
    names index their ids. `cells` holds the eNB ids in ascending order;
    eNBs never deregister.
    """

    def __init__(self, num_rbs: int = DEFAULT_NUM_RBS) -> None:
        check_num_rbs(num_rbs)
        self.num_rbs = num_rbs
        self._next_node_id = 1
        self._nodes: dict[int, NodeRecord] = {}
        self._live_ids: dict[str, int] = {}
        self.cells: list[int] = []
        self.moves = 0
        self.last: Grid = _empty_grid()
        self.current: Grid = _empty_grid()
        self._grids_changed()

    # ------------------------------------------------------------------
    # registry

    def register_node(
        self,
        kind: NodeKind,
        name: str,
        tx_power_dbm: float,
        position: tuple[float, float] = (0.0, 0.0),
    ) -> NodeRecord:
        if name in self._live_ids:
            raise RegistryError(f"a live node named {name!r} already exists")
        record = NodeRecord(
            node_id=self._next_node_id,
            kind=kind,
            name=name,
            tx_power_dbm=tx_power_dbm,
            position=position,
        )
        self._next_node_id += 1
        self._nodes[record.node_id] = record
        self._live_ids[name] = record.node_id
        if kind is NodeKind.ENB:
            self.cells.append(record.node_id)
        return record

    def deregister_node(self, node_id: int) -> None:
        """Drop a UE and purge its entries from both grids."""
        rec = self._nodes.get(node_id)
        if rec is None:
            raise RegistryError(f"node {node_id} is not live (double deregistration?)")
        if rec.kind is NodeKind.ENB:
            raise RegistryError(f"node {node_id} is an eNB; eNBs stay for the whole run")
        del self._nodes[node_id]
        del self._live_ids[rec.name]
        for grid in (self.last, self.current):
            for per_rb in grid.values():
                empty_rbs = []
                for rb, cells in per_rb.items():
                    stale = [c for c, tx in cells.items() if tx == node_id]
                    for c in stale:
                        del cells[c]
                    if not cells:
                        empty_rbs.append(rb)
                for rb in empty_rbs:
                    del per_rb[rb]
        self._grids_changed()

    def is_live(self, node_id: int) -> bool:
        return node_id in self._nodes

    def live_id(self, name: str) -> Optional[int]:
        """The id of the live node called `name`, or None."""
        return self._live_ids.get(name)

    def node(self, node_id: int) -> NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise RegistryError(f"node {node_id} is not live") from None

    def live_nodes(self, kind: Optional[NodeKind] = None) -> list[NodeRecord]:
        # ids only grow and _nodes keeps insertion order, so this is ascending
        recs = list(self._nodes.values())
        if kind is None:
            return recs
        return [r for r in recs if r.kind == kind]

    def set_serving_cell(self, ue_id: int, cell_id: int) -> None:
        rec = self.node(ue_id)
        if rec.kind != NodeKind.UE:
            raise RegistryError(f"node {ue_id} is not a UE")
        if self.node(cell_id).kind != NodeKind.ENB:
            raise RegistryError(f"node {cell_id} is not an eNB")
        rec.serving_cell = cell_id

    def set_position(self, node_id: int, position: tuple[float, float]) -> None:
        self.node(node_id).position = position
        self.moves += 1

    # ------------------------------------------------------------------
    # resource grid

    def end_tti(self) -> None:
        """Close the TTI being scheduled: it becomes `last`; `current` opens empty."""
        self.last = self.current
        self.current = _empty_grid()
        self._grids_changed()

    def _grids_changed(self) -> None:
        """Index `last` now and `current` on its next read."""
        self.last_index = {d: PatternIndex(per_rb) for d, per_rb in self.last.items()}
        self._current_index: dict[Direction, PatternIndex] = {}

    def current_index(self, direction: Direction) -> PatternIndex:
        """The `current` grid's pattern index, built on the first read after a change."""
        index = self._current_index.get(direction)
        if index is None:
            index = self._current_index[direction] = PatternIndex(self.current[direction])
        return index

    def record_allocation(
        self, direction: Direction, cell: int, rb_set: Iterable[int], transmitter: int
    ) -> None:
        """Record a grant in the `current` grid."""
        cell_rec = self.node(cell)
        if cell_rec.kind != NodeKind.ENB:
            raise RegistryError(f"allocation cell {cell} is not an eNB")
        if not self.is_live(transmitter):
            raise RegistryError(f"transmitter {transmitter} is not live")
        per_rb = self.current[direction]
        rbs = sorted(set(rb_set))
        for rb in rbs:
            if not 0 <= rb < self.num_rbs:
                raise LedgerError(f"RB index {rb} outside grid of {self.num_rbs} RBs")
            if cell in per_rb.get(rb, {}):
                raise LedgerError(
                    f"RB {rb} of cell {cell} ({direction.value}) is already allocated"
                )
        for rb in rbs:
            per_rb.setdefault(rb, {})[cell] = transmitter
        self._current_index.pop(direction, None)
