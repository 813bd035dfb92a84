"""Acceptance suite.

One test per acceptance criterion; each prints an ``ACCEPTANCE <name>:
PASS/FAIL`` line (visible with ``pytest -s``). Expected values come from
independent oracles computed inside the tests: closed-form link-budget
arithmetic, brute-force grid summation, piecewise time-shift of the raw
trace table, set-based registry replay, and pointer-walk simulation.

Every ``run_scenario`` call in the entire test suite additionally enforces
per-vehicle bit conservation internally; the conservation criterion here
re-checks the identity explicitly on a scenario that exercises all fates.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager

import pytest

from vcellsim.binder import Binder, Direction, NodeKind
from vcellsim.channel import ChannelParams, CqiTables, bits_per_rb, noise_dbm
from vcellsim.config import load_config
from vcellsim.engine import ms_to_us, s_to_us
from vcellsim.mac import Mac
from vcellsim.metrics import write_outputs
from vcellsim.scenario import Scenario, run_scenario

from conftest import build_config, make_packet, make_trace, write_scenario
from oracles import (
    allocation_items,
    brute_force_sinr_db,
    live_ids,
    random_allocated_scenario,
    reference_path_loss_db,
    reference_position,
)

TABLES = CqiTables()
PARAMS = ChannelParams()


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# ----------------------------------------------------------------------
# 1. reference scenario shape: ten dynamic vehicles, two cells


def test_reference_scenario_shape(tmp_path):
    with criterion("scenario-shape"):
        spawn_x = [180.0 * i for i in range(10)]
        rows = []
        for i, x in enumerate(spawn_x):
            t0 = 0.3 * i
            rows.append((t0, f"car{i}", x, 0.0))
            rows.append((t0 + 3.0, f"car{i}", x + 90.0, 0.0))
        cfg = build_config(
            "sim_end_s = 6.0",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            "backhaul.delay_ms = 1.0",
            "enb[0].name = enb0\nenb[0].x_m = 0.0\nenb[0].y_m = 0.0",
            "enb[1].name = enb1\nenb[1].x_m = 1600.0\nenb[1].y_m = 0.0",
            "flow[0].direction = dl",
            "flow[0].target = ALL",
            "flow[0].packet_bits = 2000",
            "flow[0].interval_ms = 25",
            "flow[0].start_s = 0",
            "flow[0].stop_s = 6",
        )
        config = load_config(write_scenario(tmp_path, cfg, make_trace(rows)))
        started = time.perf_counter()
        report = run_scenario(config)
        wall_s = time.perf_counter() - started
        assert wall_s < 10.0, f"run took {wall_s:.1f} s"

        assert len(report.vehicles) == 10
        for i, x in enumerate(spawn_x):
            # brute-force two-cell received-power oracle at the spawn position
            p0 = 46.0 - reference_path_loss_db(abs(x - 0.0), PARAMS)
            p1 = 46.0 - reference_path_loss_db(abs(x - 1600.0), PARAMS)
            expected = "enb0" if p0 >= p1 else "enb1"
            stats = report.vehicles[f"car{i}"]
            assert stats.first_cell == expected, f"car{i} attached to {stats.first_cell}"
            assert stats.timeline[0] == (stats.enter_us, expected)


# ----------------------------------------------------------------------
# 2. accident reproduction with the reference values


def test_accident_freeze_and_shift(tmp_path):
    with criterion("accident-freeze-shift"):
        raw = [(0.0, 0.0, 0.0), (100.0, 1000.0, 0.0)]
        trace = make_trace([(t, "car0", x, y) for t, x, y in raw])
        cfg = build_config(
            "sim_end_s = 58.0",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enb[0].x_m = 0.0\nenb[0].y_m = 0.0",
            "car[0].accident.count = 1",
            "car[0].accident.start_s = 20",
            "car[0].accident.duration_s = 30",
        )
        scn = Scenario(load_config(write_scenario(tmp_path, cfg, trace)))
        # read where the channel reads it: the scenario's position provider
        # at the engine's time, on the route with the accident applied at load
        positions = {}
        for ms in range(0, 58_000):
            scn.engine.run_until(ms_to_us(ms))
            car0 = scn.binder.live_id("car0")
            if car0 is not None:
                positions[ms] = scn.channel.where(car0)

        # oracle: piecewise time-shift of the raw sample table
        table = [(s_to_us(t), x, y) for t, x, y in raw]
        t_stop = s_to_us(20)
        dur = s_to_us(30)
        stop_pos = reference_position(table, t_stop)
        shifted_table = (
            [s for s in table if s[0] < t_stop]
            + [(t_stop, *stop_pos), (t_stop + dur, *stop_pos)]
            + [(t + dur, x, y) for t, x, y in table if t > t_stop]
        )
        for ms, got in positions.items():
            t = ms_to_us(ms)
            expected = reference_position(shifted_table, t)
            assert got == expected, f"t={ms} ms: {got} != {expected}"
            if t_stop <= t < t_stop + dur:
                assert got == stop_pos  # frozen during the accident window
            elif t >= t_stop + dur:
                # same piecewise function evaluated over the original segment;
                # only float associativity differs, so allow one-ulp slack
                ox, oy = reference_position(table, t - dur)
                assert math.isclose(got[0], ox, rel_tol=0, abs_tol=1e-9)
                assert math.isclose(got[1], oy, rel_tol=0, abs_tol=1e-9)


# ----------------------------------------------------------------------
# 3. handover trigger versus closed-form crossing points


def _handover_run(tmp_path, hysteresis_db):
    trace = make_trace([(0, "car0", 0, 0), (40, "car0", 800, 0)])  # 20 m/s
    cfg = build_config(
        "sim_end_s = 25.0",
        "trace_file = trace.csv",
        "dynamic_cell_association = true",
        "enable_handover = true",
        f"handover.hysteresis_db = {hysteresis_db}",
        "handover.time_to_trigger_ms = 0",
        "enb[0].name = enb0\nenb[0].x_m = 0.0\nenb[0].y_m = 0.0",
        "enb[1].name = enb1\nenb[1].x_m = 800.0\nenb[1].y_m = 0.0",
    )
    report = run_scenario(load_config(write_scenario(tmp_path, cfg, trace)))
    return report.vehicles["car0"]


def test_handover_at_the_geometric_midpoint(tmp_path):
    with criterion("handover-midpoint"):
        stats = _handover_run(tmp_path / "mid", hysteresis_db=0.0)
        assert stats.handovers == 1, f"expected exactly one handover, got {stats.handovers}"
        trigger_ms = stats.timeline[1][0] / 1000.0
        midpoint_crossing_ms = (400.0 / 800.0) * 40_000.0  # x = 400 m at 20 m/s
        assert abs(trigger_ms - midpoint_crossing_ms) <= 1.0
        assert stats.timeline[1][1] == "enb1"


def test_handover_with_hysteresis_matches_pathloss_solution(tmp_path):
    with criterion("handover-hysteresis"):
        h = 3.0
        stats = _handover_run(tmp_path / "hyst", hysteresis_db=h)
        assert stats.handovers == 1
        trigger_ms = stats.timeline[1][0] / 1000.0
        # solve B*(log10(x) - log10(D - x)) = h for x on the line
        r = 10.0 ** (h / PARAMS.pathloss_b_db)
        x_star = 800.0 * r / (1.0 + r)
        crossing_ms = x_star / 0.02  # 0.02 m per ms
        assert abs(trigger_ms - crossing_ms) <= 1.0


# ----------------------------------------------------------------------
# 4. per-RB SINR equals brute-force summation on randomized grids


def test_sinr_brute_force_equivalence():
    with criterion("sinr-brute-force"):
        rng = random.Random(424242)
        grids = 0
        compared = 0
        while grids < 200:
            binder, channel, grants = random_allocated_scenario(rng)
            grids += 1
            for ue, cell, direction, rbs in grants:
                values = channel.sinr(ue, cell, direction, rbs)
                grid = binder.current[direction]
                for linear, rb in zip(values, rbs):
                    value = 10.0 * math.log10(linear)
                    expected = brute_force_sinr_db(
                        binder, channel.params, channel.where, ue, cell, grid, direction, rb
                    )
                    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
                    compared += 1
        assert compared > 1000  # the randomized grids actually exercised the path


# ----------------------------------------------------------------------
# 5. lifecycle/ledger fuzz against a set-based oracle


def test_lifecycle_ledger_fuzz():
    with criterion("lifecycle-ledger-fuzz"):
        rng = random.Random(987654)
        num_rbs = 16
        binder = Binder(num_rbs=num_rbs)
        live: dict[int, NodeKind] = {}
        ever_dead: set[int] = set()
        free: dict[tuple[int, Direction], set[int]] = {}
        name_counter = 0

        def cells():
            return sorted(n for n, k in live.items() if k == NodeKind.ENB)

        def ues():
            return sorted(n for n, k in live.items() if k == NodeKind.UE)

        def scan_for_dead_references():
            for grid in (binder.current, binder.last):
                for direction in (Direction.DL, Direction.UL):
                    for cell, _rb, tx in allocation_items(grid[direction]):
                        assert cell in live, f"grid names dead cell {cell}"
                        assert tx in live, f"grid names dead transmitter {tx}"

        for _ in range(10_000):
            roll = rng.random()
            if roll < 0.30 or not live:
                kind = NodeKind.ENB if (rng.random() < 0.3 or not cells()) else NodeKind.UE
                rec = binder.register_node(kind, f"n{name_counter}", 26.0)
                name_counter += 1
                live[rec.node_id] = kind
                ever_dead.discard(rec.node_id)
            elif roll < 0.50 and ues():
                # eNBs stay for the whole run; only UEs leave
                victim = rng.choice(ues())
                binder.deregister_node(victim)
                del live[victim]
                ever_dead.add(victim)
                scan_for_dead_references()
                assert binder.cells == cells()
            elif roll < 0.85 and cells():
                cell = rng.choice(cells())
                direction = rng.choice((Direction.DL, Direction.UL))
                key = (cell, direction)
                free.setdefault(key, set(range(num_rbs)))
                if free[key]:
                    rb = rng.choice(sorted(free[key]))
                    free[key].discard(rb)
                    if direction == Direction.DL:
                        tx = cell
                    else:
                        candidates = ues()
                        if not candidates:
                            continue
                        tx = rng.choice(candidates)
                    binder.record_allocation(direction, cell, [rb], tx)
            else:
                binder.end_tti()
                free = {}

        assert live_ids(binder) == set(live)
        assert live_ids(binder).isdisjoint(ever_dead)
        assert binder.cells == cells()
        scan_for_dead_references()


# ----------------------------------------------------------------------
# 6. scheduler properties over randomized inputs


def _mac_env(n_ues, num_rbs):
    binder = Binder(num_rbs=num_rbs)
    cell = binder.register_node(NodeKind.ENB, "enb0", 46.0).node_id
    ues = []
    for i in range(n_ues):
        rec = binder.register_node(NodeKind.UE, f"car{i}", 26.0)
        binder.set_serving_cell(rec.node_id, cell)
        ues.append(rec.node_id)
    return Mac(binder), cell, ues


def test_scheduler_properties():
    with criterion("scheduler-properties"):
        rng = random.Random(31337)

        # round-robin: K equal-CQI deep buffers, exactly equal totals over K*L TTIs
        for _ in range(25):
            k = rng.randint(1, 6)
            rounds = rng.randint(1, 4)
            num_rbs = rng.randint(4, 60)
            cqi = rng.randint(1, 15)
            mac, cell, ues = _mac_env(k, num_rbs)
            totals = {ue: 0 for ue in ues}
            for _ in range(k * rounds):
                for ue in ues:
                    mac.clear_node(ue)
                    mac.enqueue(ue, make_packet(10**6))
                alloc = mac.schedule_tti_rr(
                    cell, Direction.DL, [(ue, cqi) for ue in ues], TABLES
                )
                for ue, grant in alloc.grants.items():
                    totals[ue] += len(grant.rb_set)
            assert len(set(totals.values())) == 1, (k, rounds, num_rbs, totals)

        # max-CQI: no granted UE sits below an ungranted backlogged one
        for _ in range(200):
            n = rng.randint(1, 8)
            num_rbs = rng.randint(2, 20)
            mac, cell, ues = _mac_env(n, num_rbs)
            cqis = {}
            for ue in ues:
                cqis[ue] = rng.randint(0, 15)
                if rng.random() < 0.8:
                    mac.enqueue(ue, make_packet(rng.randint(100, 50_000)))
            alloc = mac.schedule_tti_maxcqi(
                cell, Direction.DL, list(cqis.items()), TABLES
            )
            backlogged = {
                ue for ue in ues if cqis[ue] >= 1 and mac.buffer_bits(ue, Direction.DL) > 0
            }
            granted = set(alloc.grants)
            ungranted = backlogged - granted
            for g in granted:
                for u in ungranted:
                    assert cqis[g] >= cqis[u], (cqis, granted)


# ----------------------------------------------------------------------
# 7. conservation identity on a run exercising every fate


def test_conservation_identity(tmp_path):
    with criterion("conservation"):
        rows = []
        for i in range(6):
            t0 = 0.2 * i
            rows.append((t0, f"car{i}", 120.0 * i, 0.0))
            rows.append((t0 + 2.0, f"car{i}", 1500.0 - 120.0 * i, 0.0))
        cfg = build_config(
            "sim_end_s = 2.0",  # cuts into later lifetimes, leaving residuals
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            "handover.hysteresis_db = 0",
            "handover.time_to_trigger_ms = 0",
            "backhaul.delay_ms = 2.0",
            "enb[0].name = enb0\nenb[0].x_m = 0.0\nenb[0].y_m = 0.0",
            "enb[1].name = enb1\nenb[1].x_m = 1500.0\nenb[1].y_m = 0.0",
            "flow[0].direction = dl",
            "flow[0].target = ALL",
            "flow[0].packet_bits = 12000",
            "flow[0].interval_ms = 4",
            "flow[0].start_s = 0",
            "flow[0].stop_s = 2.4",
            "flow[1].direction = ul",
            "flow[1].target = ALL",
            "flow[1].packet_bits = 3000",
            "flow[1].interval_ms = 7",
            "flow[1].start_s = 0",
            "flow[1].stop_s = 2.4",
        )
        report = run_scenario(load_config(write_scenario(tmp_path, cfg, make_trace(rows))))
        report.verify_conservation()
        buckets_hit = set()
        for stats in report.vehicles.values():
            assert stats.offered_bits == (
                stats.delivered_bits
                + stats.dropped_radio_bits
                + stats.dropped_handover_bits
                + stats.lost_core_bits
                + stats.residual_bits
            ), stats.name
            for bucket, value in (
                ("delivered", stats.delivered_bits),
                ("radio", stats.dropped_radio_bits),
                ("handover", stats.dropped_handover_bits),
                ("core", stats.lost_core_bits),
                ("residual", stats.residual_bits),
            ):
                if value:
                    buckets_hit.add(bucket)
        # the scenario exercises every fate, so the identity is non-trivial
        assert buckets_hit == {"delivered", "radio", "handover", "core", "residual"}


# ----------------------------------------------------------------------
# 8. determinism of outputs


def test_determinism_of_outputs(tmp_path):
    with criterion("determinism"):
        rows = []
        for i in range(5):
            rows.append((0.2 * i, f"car{i}", 150.0 * i, 0.0))
            rows.append((1.5 + 0.2 * i, f"car{i}", 1400.0 - 150.0 * i, 0.0))
        cfg = build_config(
            "sim_end_s = 1.5",
            "trace_file = trace.csv",
            "dynamic_cell_association = true",
            "enable_handover = true",
            "channel.shadowing = true",
            "enb[0].name = enb0\nenb[0].x_m = 0.0\nenb[0].y_m = 0.0",
            "enb[1].name = enb1\nenb[1].x_m = 1400.0\nenb[1].y_m = 0.0",
            "flow[0].direction = dl",
            "flow[0].target = ALL",
            "flow[0].packet_bits = 4000",
            "flow[0].interval_ms = 10",
            "flow[0].start_s = 0",
            "flow[0].stop_s = 1.5",
        )
        config = load_config(write_scenario(tmp_path, cfg, make_trace(rows)))

        out_a = write_outputs(run_scenario(config), tmp_path / "a")
        out_b = write_outputs(run_scenario(config), tmp_path / "b")
        for name in ("vehicles.csv", "cells.csv"):
            assert out_a[name].read_bytes() == out_b[name].read_bytes(), name

        other = dataclasses.replace(config, seed=config.seed + 17)
        out_c = write_outputs(run_scenario(other), tmp_path / "c")
        assert (
            out_a["vehicles.csv"].read_bytes() != out_c["vehicles.csv"].read_bytes()
            or out_a["cells.csv"].read_bytes() != out_c["cells.csv"].read_bytes()
        ), "different seeds with shadowing produced identical outputs"


# ----------------------------------------------------------------------
# 9. capacity arithmetic at pinned CQI


def _pinned_cqi_thresholds(snr_db, k):
    """A valid threshold table that maps snr_db to exactly CQI k."""
    values = []
    for j in range(1, 16):
        if j <= k:
            values.append(snr_db - 1.0 - (k - j))
        else:
            values.append(snr_db + (j - k))
    return values


@pytest.mark.parametrize("k", [1, 9, 15])
def test_capacity_arithmetic_at_fixed_cqi(tmp_path, k):
    with criterion(f"capacity-cqi-{k}"):
        total_ms = 120
        capacity = 50 * bits_per_rb(k, TABLES)
        snr_db = (46.0 - 128.1) - noise_dbm(PARAMS)  # stationary UE at 1 km
        thresholds = ", ".join(f"{v:.6f}" for v in _pinned_cqi_thresholds(snr_db, k))
        trace = make_trace([(0, "car0", 1000, 0), (total_ms / 1000.0, "car0", 1000, 0)])

        def run_with(interval_ms):
            cfg = build_config(
                f"sim_end_s = {total_ms / 1000.0}",
                "trace_file = trace.csv",
                "dynamic_cell_association = true",
                "backhaul.delay_ms = 0.0",
                f"channel.cqi_thresholds_db = {thresholds}",
                "enb[0].x_m = 0.0\nenb[0].y_m = 0.0",
                "flow[0].direction = dl",
                "flow[0].target = car0",
                f"flow[0].packet_bits = {capacity}",
                f"flow[0].interval_ms = {interval_ms}",
                "flow[0].start_s = 0",
                f"flow[0].stop_s = {total_ms / 1000.0}",
            )
            config = load_config(write_scenario(tmp_path / f"k{k}-{interval_ms}", cfg, trace))
            return run_scenario(config).vehicles["car0"]

        # critical load: one capacity-sized packet per TTI, all but the last
        # packet delivered, each serviced TTI carries exactly `capacity` bits
        stats = run_with(1.0)
        assert stats.offered_bits == total_ms * capacity
        assert stats.delivered_bits == (total_ms - 1) * capacity
        assert stats.residual_bits == capacity
        assert stats.latency_max_us == 2000  # enqueue slot + transmission slot

        # overload at twice the rate: delivery is still exactly one capacity
        # per TTI, the rest queues up
        stats = run_with(0.5)
        assert stats.offered_bits == 2 * total_ms * capacity
        assert stats.delivered_bits == (total_ms - 1) * capacity

        # under-load at half the rate: everything offered in time is delivered
        stats = run_with(2.0)
        packets_in_time = len([t for t in range(0, total_ms, 2) if t + 1 <= total_ms - 1])
        assert stats.delivered_bits == packets_in_time * capacity
        assert stats.delivered_bits == min(stats.offered_bits, packets_in_time * capacity)
