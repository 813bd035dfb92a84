"""The vcellsim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload highway-loaded --seed 1 --seconds 25 --trace 0

Generates the workload's trace and scenario from the seed, then runs it
again and again, strictly one run at a time, each in a fresh child Python
process (``bench/child.py``) writing into a fresh, empty output directory,
until ``--seconds`` have passed. A fresh directory per run matters: renaming
over existing output files made ``write_outputs`` bimodal (0.2 ms into a
new directory, 140-180 ms once the same directory had been overwritten a
few times), which would swamp ``wall_s``. The first run only warms the disk
cache and is checked but not timed.

Every run is checked: the child must exit 0 (``Scenario.run()`` raises on a
bit-conservation error) and the sha256 of ``vehicles.csv``, ``cells.csv``
and ``events.log`` must equal the digests pinned in ``digests.json`` at the
default seed, or, at any other seed, the digests of the run's first child.
A run that fails any check counts in ``failed``, and ``failed`` over
``attempted`` is the failed-run ratio; the reasons go to stderr.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over the timed runs: ``host_s_per_sim_s`` (wall time of
``Scenario.run()`` per simulated second), ``setup_s`` (``load_config`` plus
``Scenario(config)``), ``wall_s`` (set-up, run and ``write_outputs``) and
``peak_rss_mb`` (the child's ``ru_maxrss``). With ``--trace 1`` untraced and traced runs
alternate (traced runs wrap vcellsim's layer boundaries, see
``tracer.py``) and the line reports the per-layer metrics, as medians over
the traced runs, plus the tracing overhead.

Every passing run's raw numbers go to ``.bench_work/<workload>-s<seed>/runs.jsonl``
and the last traced run's spans (first TTIs only) to ``spans.jsonl`` there.

``--pin`` rewrites the default seed's digests for the workload instead of
measuring; use it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
PINNED_FILES = ("vehicles.csv", "cells.csv", "events.log")
DEFAULT_SEED = 1
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from generate import WORKLOADS, generate  # noqa: E402


class Runner:
    """Runs children for one workload and seed and keeps their results."""

    def __init__(self, config: Path, expected: Optional[dict]) -> None:
        """`expected` holds the pinned digests; None takes the first run's."""
        self.config = config
        self.work = config.parent
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_child(self, traced: bool):
        """One run in a fresh process; its result dict, or None if it failed."""
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(self.config), "--out", str(out)]
        if traced:
            cmd += ["--spans", str(self.work / "spans.jsonl")]
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            if proc.returncode != 0:
                return self._fail(f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in PINNED_FILES
            }
        except (subprocess.TimeoutExpired, OSError, ValueError, IndexError) as exc:
            return self._fail(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            return self._fail(f"output digests {digests} differ from {self.expected}")
        result["digests"] = digests
        with open(self.work / "runs.jsonl", "a", encoding="utf-8") as fh:
            summary = {k: v for k, v in result.items() if k not in ("layers", "tick_s")}
            fh.write(json.dumps(dict(summary, traced=traced)) + "\n")
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        return None


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(timed: list[dict]) -> dict:
    return {
        "host_s_per_sim_s": (
            statistics.median(r["run_s"] / r["sim_s"] for r in timed), "s/s"
        ),
        "setup_s": (median_of(timed, "setup_s"), "s"),
        "wall_s": (median_of(timed, "wall_s"), "s"),
        "peak_rss_mb": (median_of(timed, "peak_rss_mb"), "MiB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    ticks_ms = sorted(t * 1000.0 for r in traced for t in r["tick_s"])
    cuts = statistics.quantiles(ticks_ms, n=100, method="inclusive")
    out["scenario.tick_ms_p50"] = (cuts[49], "ms")
    out["scenario.tick_ms_p99"] = (cuts[98], "ms")
    out["trace.overhead_ratio"] = (
        median_of(traced, "wall_s") / median_of(untraced, "wall_s"), "ratio"
    )
    return out


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    runner.run_child(traced=False)  # warm-up, checked but not timed
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        enough = len(untraced) >= MIN_TIMED_RUNS and (not trace or len(traced) >= MIN_TIMED_RUNS)
        if time.monotonic() >= deadline and (enough or runner.failed):
            break
        use_trace = trace and len(traced) < len(untraced)
        result = runner.run_child(traced=use_trace)
        if result is not None:
            (traced if use_trace else untraced).append(result)
    if not untraced or (trace and not traced):
        return {}
    return per_layer(untraced, traced) if trace else end_to_end(untraced)


def pin(workload: str, config: Path) -> None:
    runner = Runner(config, expected=None)
    result = runner.run_child(traced=False)
    if result is None:
        sys.exit(f"cannot pin {workload}: {runner.errors}")
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    pinned[workload] = result["digests"]
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {workload}: {result['digests']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "vcellsim" / "__init__.py").is_file():
        sys.exit(f"vcellsim sources not found under {SRC}; run from a full checkout")

    work = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    config = generate(args.workload, args.seed, work)
    if args.pin:
        pin(args.workload, config)
        return

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    runner = Runner(config, expected)
    metrics = measure(runner, args.seconds, bool(args.trace))
    for message in runner.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and bool(metrics),
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
