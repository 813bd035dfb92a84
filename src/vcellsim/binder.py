"""Central bookkeeping for the simulated network.

Every node (vehicle UE or eNB) registers here and gets a run-unique id.
A record holds no position: the channel reads positions from mobility.
eNBs are registered once and stay for the whole run; only vehicle UEs join
and leave, and the binder is the only record of which vehicles are live.
The binder also keeps the resource-block ledger: per direction, one row
per cell with a grant, holding the transmitter on each RB, 0 on a free one
(ids start at 1). Downlink and uplink use two distinct RB sets. A grant's
RBs must ascend strictly inside the grid, and no RB is taken twice; `book`
makes that check, once per RB. It holds exactly two grids. `current` is
the TTI being scheduled, and decoding reads it. `last` is the last
completed TTI: CQI measurement reads it, in the tick and between ticks
alike. `end_tti` closes a TTI, and anything older than `last` is
discarded.

`current` is written two ways. The tick installs, per cell and
direction, a copy of the row the MAC built and booked when it dealt the
schedule (`install_row`), once per TTI, with every granted UE live.
`record_allocation` books one grant at a time, into the cell's row or a
new one; the tick does not use it. A closed grid is never changed in
place: both write only `current`, and deregistration replaces each grid
direction with a purged copy, which drops any row left empty, so it
equals a rebuild. So a reader may key a cache of `last` on the identity
of its dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

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

    # singletons equal only to themselves; hashed in C, not by `Enum.__hash__`
    __hash__ = object.__hash__


@dataclass
class NodeRecord:
    node_id: int
    kind: NodeKind
    name: str
    tx_power_dbm: float
    serving_cell: Optional[int] = None  # UE only


# Per-TTI grid: direction -> cell id -> transmitter id per RB, 0 if free.
Grid = dict[Direction, dict[int, list[int]]]


def _empty_grid() -> Grid:
    return {Direction.DL: {}, Direction.UL: {}}


def _without(grid: Grid, node_id: int) -> Grid:
    """A copy of `grid` with `node_id`'s RBs freed and the rows left empty
    dropped; cell order is kept."""
    out = _empty_grid()
    for direction, rows in grid.items():
        for cell, row in rows.items():
            kept = [0 if tx == node_id else tx for tx in row]
            if any(kept):
                out[direction][cell] = kept
    return out


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
        self.nodes: dict[int, NodeRecord] = {}  # live records; `node` checks the id
        self._live_ids: dict[str, int] = {}
        self.cells: list[int] = []
        self.last: Grid = _empty_grid()
        self.current: Grid = _empty_grid()

    # ------------------------------------------------------------------
    # registry

    def register_node(self, kind: NodeKind, name: str, tx_power_dbm: float) -> NodeRecord:
        if name in self._live_ids:
            raise RegistryError(f"a live node named {name!r} already exists")
        record = NodeRecord(self._next_node_id, kind, name, tx_power_dbm)
        self._next_node_id += 1
        self.nodes[record.node_id] = record
        self._live_ids[name] = record.node_id
        if kind is NodeKind.ENB:
            self.cells.append(record.node_id)
        return record

    def deregister_node(self, node_id: int) -> None:
        """Drop a UE and replace both grids with copies that lack its entries."""
        rec = self.nodes.get(node_id)
        if rec is None:
            raise RegistryError(f"node {node_id} is not live (double deregistration?)")
        if rec.kind is NodeKind.ENB:
            raise RegistryError(f"node {node_id} is an eNB; eNBs stay for the whole run")
        del self.nodes[node_id]
        del self._live_ids[rec.name]
        self.last = _without(self.last, node_id)
        self.current = _without(self.current, node_id)

    def is_live(self, node_id: int) -> bool:
        return node_id in self.nodes

    def live_id(self, name: str) -> Optional[int]:
        """The id of the live node called `name`, or None."""
        return self._live_ids.get(name)

    def node(self, node_id: int) -> NodeRecord:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise RegistryError(f"node {node_id} is not live") from None

    def live_nodes(self, kind: Optional[NodeKind] = None) -> list[NodeRecord]:
        # ids only grow and `nodes` keeps insertion order, so this is ascending
        recs = list(self.nodes.values())
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

    # ------------------------------------------------------------------
    # resource grid

    def end_tti(self) -> None:
        """Close the TTI being scheduled: it becomes `last`; `current` opens empty."""
        self.last = self.current
        self.current = _empty_grid()

    def record_allocation(
        self, direction: Direction, cell: int, rb_set: Sequence[int], transmitter: int
    ) -> None:
        """Record a grant in the `current` grid: LedgerError, with nothing
        written, unless its RBs ascend strictly inside the grid and are free."""
        cell_rec = self.node(cell)
        if cell_rec.kind != NodeKind.ENB:
            raise RegistryError(f"allocation cell {cell} is not an eNB")
        if not self.is_live(transmitter):
            raise RegistryError(f"transmitter {transmitter} is not live")
        rows = self.current[direction]
        row = rows.get(cell) or [0] * self.num_rbs
        book(row, direction, cell, rb_set, transmitter)
        if rb_set:
            rows[cell] = row

    def install_row(
        self, direction: Direction, cell: int, row: Sequence[int], ues: Iterable[int]
    ) -> None:
        """Put a copy of `row`, a cell's row as `book` filled it for grants
        to `ues`, in the `current` grid: LedgerError if the cell has a row
        there already, RegistryError unless every granted UE is live."""
        rows = self.current[direction]
        if cell in rows:
            raise LedgerError(f"cell {cell} ({direction.value}) already has a row in this TTI")
        for ue in ues:
            if ue not in self.nodes:
                raise RegistryError(f"granted UE {ue} is not live")
        rows[cell] = list(row)


def book(
    row: list[int], direction: Direction, cell: int, rb_set: Sequence[int], transmitter: int
) -> None:
    """Write `transmitter` on `rb_set` in `row`, one cell's grid row:
    LedgerError, with nothing written, unless the RBs ascend strictly inside
    the row and are free."""
    num_rbs, prev = len(row), -1
    for rb in rb_set:
        if not prev < rb < num_rbs:
            raise LedgerError(f"RB {rb} after RB {prev}: not ascending in 0..{num_rbs - 1}")
        if row[rb]:
            raise LedgerError(f"RB {rb} of cell {cell} ({direction.value}) is already taken")
        prev = rb
    for rb in rb_set:
        row[rb] = transmitter
