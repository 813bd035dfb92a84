"""Seeded, byte-deterministic inputs for the vcellsim benchmark.

Each workload is a trace CSV plus a scenario INI, written from a workload
seed and nothing else: the same (workload, seed) always yields the same
bytes, because all randomness comes from one ``random.Random`` seeded with
a string (stable across interpreter runs) and every number is formatted
with a fixed precision.

Draws are stratified (vehicle ``i`` of ``n`` starts in the ``i``-th ``1/n``
of the road or at site ``i mod sites``; departures are spread the same
way) so that a different seed moves vehicles around without changing how
much work a workload does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ENB_SPACING_M = 1000.0


@dataclass(frozen=True)
class Flow:
    direction: str  # "dl" or "ul"
    packet_bits: int
    interval_ms: int


@dataclass(frozen=True)
class Workload:
    name: str
    sim_s: float
    enbs: int
    vehicles: int
    handover: bool = True
    shadowing: bool = False
    scheduler: str = "rr"
    flows: tuple[Flow, ...] = ()
    trace_s: float = 0.0  # trace length when longer than the simulated window
    churn: bool = False  # vehicles enter and leave during the window
    near_sites: bool = False  # start within 100 m of a site, not anywhere on the road
    speed_mps: tuple[float, float] = (20.0, 35.0)


# Why each workload exists (layer it loads, layer it bypasses, the ROADMAP
# item it judges) is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "highway-loaded",
            sim_s=1.0,
            enbs=7,
            vehicles=40,
            shadowing=True,
            near_sites=True,
            flows=(Flow("dl", 8000, 20), Flow("ul", 4000, 40)),
        ),
        Workload(
            "crowd-idle",
            sim_s=0.25,
            enbs=7,
            vehicles=300,
            churn=True,
            speed_mps=(0.0, 3.0),
        ),
        Workload("long-trace", sim_s=0.1, enbs=7, vehicles=50, handover=False, trace_s=5000.0),
        Workload(
            "cbr-maxcqi",
            sim_s=4.0,
            enbs=3,
            vehicles=20,
            scheduler="maxcqi",
            flows=(Flow("dl", 800, 5), Flow("ul", 400, 10)),
        ),
    )
}


def _shuttle(x0: float, v: float, t: float, lo: float, hi: float) -> float:
    """Position of a vehicle bouncing between lo and hi at speed |v|."""
    span = hi - lo
    d = (x0 - lo + v * t) % (2 * span)
    return lo + (d if d <= span else 2 * span - d)


def _sample_times(enter: float, leave: float) -> list[float]:
    """1 Hz samples from enter to leave, with the last one exactly at leave."""
    times = []
    t = enter
    while t < leave - 1e-3:
        times.append(t)
        t += 1.0
    times.append(leave)
    return times


def _lifetimes(w: Workload, rng: random.Random) -> list[tuple[str, float, float]]:
    """(vehicle, enter_s, leave_s) for every vehicle of the trace."""
    end = max(w.trace_s, w.sim_s + 1.0)
    if not w.churn:
        return [(f"v{i:03d}", 0.0, end) for i in range(w.vehicles)]
    # Each of `vehicles` slots holds one vehicle that leaves at a stratified
    # time over twice the window, then a successor that enters 10-50 ms later:
    # about `vehicles` stay live while half of the slots turn over in the window.
    out = []
    for i in range(w.vehicles):
        leave = round(0.01 + (2 * w.sim_s - 0.01) * (i + rng.random()) / w.vehicles, 3)
        out.append((f"v{i:03d}a", 0.0, leave))
        if leave < w.sim_s:
            enter = round(leave + 0.01 + 0.04 * rng.random(), 3)
            out.append((f"v{i:03d}b", enter, end))
    rng.shuffle(out)  # the trace's row order carries no meaning
    return out


def trace_csv(w: Workload, seed: int) -> str:
    rng = random.Random(f"{w.name}:{seed}")
    lo, hi = -500.0, (w.enbs - 1) * ENB_SPACING_M + 500.0
    rows: list[tuple[float, int, str]] = []
    lifetimes = _lifetimes(w, rng)
    for i, (name, enter, leave) in enumerate(lifetimes):
        if w.near_sites:
            # Homes dealt round robin give every cell the same number of
            # vehicles whatever the seed: on highway-loaded at least 5, which
            # is enough for the round-robin livelock on every cell.
            x0 = (i % w.enbs) * ENB_SPACING_M + rng.uniform(-100.0, 100.0)
        else:
            x0 = lo + (hi - lo) * (i + rng.random()) / len(lifetimes)
        y = round(rng.uniform(-300.0, 300.0) if w.churn else rng.choice((-7.5, -2.5, 2.5, 7.5)), 2)
        v = rng.uniform(*w.speed_mps) * rng.choice((-1.0, 1.0))
        for t in _sample_times(enter, leave):
            x = _shuttle(x0, v, t - enter, lo, hi)
            rows.append((t, i, f"{t:.3f},{name},{x:.2f},{y:.2f}"))
    rows.sort()  # time-major, like floating-car data
    return "time_s,vehicle,x_m,y_m\n" + "".join(line + "\n" for _, _, line in rows)


def scenario_ini(w: Workload, seed: int) -> str:
    lines = [
        f"# benchmark workload {w.name}, seed {seed}",
        f"sim_end_s = {w.sim_s}",
        f"seed = {seed}",
        f"scheduler = {w.scheduler}",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        f"enable_handover = {'true' if w.handover else 'false'}",
        f"channel.shadowing = {'true' if w.shadowing else 'false'}",
    ]
    for i in range(w.enbs):
        lines += [f"enb[{i}].x_m = {i * ENB_SPACING_M}", f"enb[{i}].y_m = 0.0"]
    for k, flow in enumerate(w.flows):
        lines += [
            f"flow[{k}].direction = {flow.direction}",
            f"flow[{k}].target = ALL",
            f"flow[{k}].packet_bits = {flow.packet_bits}",
            f"flow[{k}].interval_ms = {flow.interval_ms}",
            f"flow[{k}].start_s = 0.0",
            f"flow[{k}].stop_s = {w.sim_s}",
        ]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write trace.csv and scenario.ini for `workload` into out_dir; return the INI."""
    w = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.csv").write_text(trace_csv(w, seed), encoding="utf-8")
    ini = out_dir / "scenario.ini"
    ini.write_text(scenario_ini(w, seed), encoding="utf-8")
    return ini

