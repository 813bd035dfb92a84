"""Control plane: initial cell association and A3-style handover.

A vehicle attaches when it enters the simulation, either to the cell it
receives most strongly (dynamic association) or to a manually configured
cell regardless of position; `Rrc.initial_association` takes that cell's
id, or None for dynamic association. Received power is the default association
metric; mean downlink SINR against the current interference picture can be
selected instead for experimentation. Attach scores every cell, a manually
configured one too, so each (vehicle, eNB) pair's shadowing is drawn at
attach, in attach order, and no later query draws. While attached, a
neighbor that exceeds the serving cell's received power by more than the
hysteresis margin for the whole time-to-trigger window makes
`handover_check` return that neighbour. RRC only decides: the tick carries
the handover out, flushing the MAC's downlink buffer toward the UE (counted
as handover-dropped) and switching the serving cell, so the UE is
schedulable in the target from the next TTI.

Path loss changes at most R = B / (d_min ln 10) dB per metre (the channel's
`max_loss_slope_db_per_m`), and eNBs never move, so best - serving moves at
most 2R|p - p0|. A check at p0 whose condition lapsed with margin
m = hysteresis - (best - serving) leaves the UE a movement budget of
(m - 1e-6) / 2R metres (`ChannelModel.movement_budget_m`; 1e-6 dB covers
float error): within that distance
of p0 the condition must lapse, and the lapse at p0 popped any pending
state, so a check there would change nothing. `slack_m` reads the budget,
so a run need not check, or even read, the UE until it may have moved that
far. A holding condition, which every handover decision needs, and `forget`
reset it to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .binder import Binder, Direction
from .channel import ChannelModel
from .errors import AssociationError


ASSOCIATION_METRICS = ("rx_power", "sinr")  # the first is the default


@dataclass(frozen=True)
class HandoverConfig:
    enabled: bool = False
    hysteresis_db: float = 3.0
    time_to_trigger_us: int = 256_000


@dataclass
class HandoverState:
    candidate: Optional[int] = None
    condition_since_us: Optional[int] = None


class Rrc:
    def __init__(
        self,
        binder: Binder,
        channel: ChannelModel,
        config: HandoverConfig,
        association_metric: str = ASSOCIATION_METRICS[0],
    ) -> None:
        if association_metric not in ASSOCIATION_METRICS:
            raise ValueError(f"unknown association metric {association_metric!r}")
        self.binder = binder
        self.channel = channel
        self.config = config
        self.association_metric = association_metric
        self._states: dict[int, HandoverState] = {}
        # per UE whose condition lapsed at its last check: its budget in metres
        self._slack_m: dict[int, float] = {}

    @property
    def can_hand_over(self) -> bool:
        return self.config.enabled and len(self.binder.cells) >= 2

    def _association_scores(self, ue: int) -> list[tuple[int, float]]:
        if self.association_metric == "rx_power":
            return list(zip(self.binder.cells, self.channel.cell_powers(ue)))
        return [
            (c, self.channel.measure(ue, c, Direction.DL).mean_sinr)
            for c in self.binder.cells
        ]

    def initial_association(self, ue: int, manual_cell: Optional[int] = None) -> int:
        """Attach the UE to `manual_cell`, or to the best cell if None; return the cell."""
        if not self.binder.cells:
            raise AssociationError("no eNB is registered")
        scores = self._association_scores(ue)  # draws every pair's shadowing
        cell = manual_cell
        if cell is None:
            cell = max(scores, key=lambda pair: pair[1])[0]
        elif cell not in self.binder.cells:
            raise AssociationError(f"manual association target {cell} is not a live eNB")
        self.binder.set_serving_cell(ue, cell)
        return cell

    def handover_check(self, ue: int, now_us: int) -> Optional[int]:
        """A3-style evaluation at current positions: the target cell, or None."""
        if not self.can_hand_over:
            return None
        serving = self.binder.node(ue).serving_cell
        powers = dict(zip(self.binder.cells, self.channel.cell_powers(ue)))
        best_cell = None
        best_power = None
        for cell_id, power in powers.items():  # ascending ids, from binder.cells
            if cell_id == serving:
                continue
            if best_power is None or power > best_power:
                best_cell, best_power = cell_id, power
        margin = self.config.hysteresis_db - (best_power - powers[serving])
        if margin >= 0.0:
            self._states.pop(ue, None)  # condition lapsed
            self._slack_m[ue] = self.channel.movement_budget_m(margin)
            return None
        self._slack_m.pop(ue, None)
        state = self._states.get(ue)
        if state is None or state.candidate != best_cell:
            state = HandoverState(candidate=best_cell, condition_since_us=now_us)
            self._states[ue] = state
        if now_us - state.condition_since_us >= self.config.time_to_trigger_us:
            self._states.pop(ue, None)
            return best_cell
        return None

    def slack_m(self, ue: int) -> float:
        """Metres the UE may move from where it was last checked before a check
        can find its A3 condition holding; 0 or less if it must be checked every TTI."""
        return self._slack_m.get(ue, 0.0)

    def forget(self, ue: int) -> None:
        self._states.pop(ue, None)
        self._slack_m.pop(ue, None)
