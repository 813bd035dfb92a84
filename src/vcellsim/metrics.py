"""Run metrics and CSV/event-log output.

Every offered bit ends in exactly one bucket (delivered, radio-dropped,
handover-dropped, lost in the core, or residual in a buffer or the
backhaul), and the report refuses to finalize if that identity breaks.
Files are written atomically (temp file + rename) so an interrupted run
never leaves a truncated CSV behind.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .binder import Direction
from .engine import us_to_s

VEHICLES_COLUMNS = (
    "vehicle,enter_s,leave_s,bits_offered,bits_delivered,bits_dropped_radio,"
    "bits_dropped_handover,bits_lost_core,mean_latency_ms,max_latency_ms,"
    "handovers,first_cell,cell_timeline"
)
CELLS_COLUMNS = "cell,dir,rb_allocated,rb_capacity,utilization"
RUN_COLUMNS = "seed,sim_end_s,events,wall_ms"


@dataclass
class VehicleStats:
    name: str
    enter_us: int
    leave_us: int
    offered_bits: int = 0
    delivered_bits: int = 0
    dropped_radio_bits: int = 0
    dropped_handover_bits: int = 0
    lost_core_bits: int = 0
    residual_bits: int = 0
    backhaul_inflight_bits: int = 0
    latency_sum_us: int = 0
    latency_max_us: int = 0
    delivered_packets: int = 0
    # (time, cell name): one entry at attach and one per handover
    timeline: list[tuple[int, str]] = field(default_factory=list)

    @property
    def first_cell(self) -> str:  # empty if the vehicle never entered
        return self.timeline[0][1] if self.timeline else ""

    @property
    def handovers(self) -> int:
        return max(len(self.timeline) - 1, 0)

    def record_delivery(self, size_bits: int, latency_us: int) -> None:
        self.delivered_bits += size_bits
        self.delivered_packets += 1
        self.latency_sum_us += latency_us
        self.latency_max_us = max(self.latency_max_us, latency_us)

    def conservation_gap(self) -> int:
        accounted = (
            self.delivered_bits
            + self.dropped_radio_bits
            + self.dropped_handover_bits
            + self.lost_core_bits
            + self.residual_bits
            + self.backhaul_inflight_bits
        )
        return self.offered_bits - accounted


@dataclass
class CellStats:
    name: str
    rb_allocated: dict[Direction, int] = field(
        default_factory=lambda: {Direction.DL: 0, Direction.UL: 0}
    )


@dataclass
class MetricsReport:
    seed: int
    sim_end_us: int
    events_processed: int
    wall_ms: int
    rb_capacity: int  # of every cell and direction: num_rbs * TTIs simulated
    vehicles: dict[str, VehicleStats] = field(default_factory=dict)
    cells: dict[str, CellStats] = field(default_factory=dict)
    event_log: list[str] = field(default_factory=list)

    def verify_conservation(self) -> None:
        for stats in self.vehicles.values():
            gap = stats.conservation_gap()
            if gap != 0:
                raise RuntimeError(
                    f"bit conservation violated for {stats.name}: {gap} bits unaccounted"
                )

    # ------------------------------------------------------------------
    # rendering

    def vehicles_csv(self) -> str:
        lines = [VEHICLES_COLUMNS]
        for name in sorted(self.vehicles):
            v = self.vehicles[name]
            if v.delivered_packets:
                mean_ms = f"{v.latency_sum_us / v.delivered_packets / 1000.0:.3f}"
                max_ms = f"{v.latency_max_us / 1000.0:.3f}"
            else:
                mean_ms = ""
                max_ms = ""
            timeline = ";".join(f"{us_to_s(t):.3f}:{cell}" for t, cell in v.timeline)
            lines.append(
                f"{v.name},{us_to_s(v.enter_us):.3f},{us_to_s(v.leave_us):.3f},"
                f"{v.offered_bits},{v.delivered_bits},{v.dropped_radio_bits},"
                f"{v.dropped_handover_bits},{v.lost_core_bits},{mean_ms},{max_ms},"
                f"{v.handovers},{v.first_cell},{timeline}"
            )
        return "\n".join(lines) + "\n"

    def cells_csv(self) -> str:
        lines = [CELLS_COLUMNS]
        capacity = self.rb_capacity
        for name in sorted(self.cells):
            c = self.cells[name]
            for direction in (Direction.DL, Direction.UL):
                allocated = c.rb_allocated[direction]
                util = allocated / capacity if capacity else 0.0
                lines.append(f"{c.name},{direction.value},{allocated},{capacity},{util:.6f}")
        return "\n".join(lines) + "\n"

    def run_csv(self) -> str:
        return (
            RUN_COLUMNS
            + "\n"
            + f"{self.seed},{us_to_s(self.sim_end_us):.3f},{self.events_processed},{self.wall_ms}\n"
        )


def _write_atomic(path: Path, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(report: MetricsReport, out_dir) -> dict[str, Path]:
    """Write vehicles.csv, cells.csv, run.csv, and events.log into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "vehicles.csv": report.vehicles_csv(),
        "cells.csv": report.cells_csv(),
        "run.csv": report.run_csv(),
        "events.log": "".join(line + "\n" for line in report.event_log),
    }
    written = {}
    for name, content in files.items():
        path = out / name
        _write_atomic(path, content)
        written[name] = path
    return written
