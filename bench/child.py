"""Run one benchmark workload once, in this fresh process, and report it.

Goes through the public library API: ``load_config`` -> ``Scenario(config)``
-> ``.run()`` -> ``write_outputs`` into an output directory that must not
exist yet. Prints one JSON object with the phase times, the process's peak
RSS and, with ``--trace``, the per-layer metrics. Interpreter start and
imports happen before any timer starts. A failure (an exception, including
a bit-conservation error raised by ``run()``) exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import vcellsim
from vcellsim.scenario import Scenario

from tracer import Tracer, install, layer_metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(vcellsim.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported vcellsim from {vcellsim.__file__}, not from {src}")
    if args.out.exists():
        sys.exit(f"output directory {args.out} already exists")

    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        install(tracer)

    t0 = perf_counter()
    config = vcellsim.load_config(args.config)
    scenario = Scenario(config)
    t1 = perf_counter()
    report = scenario.run()
    t2 = perf_counter()
    vcellsim.write_outputs(report, args.out)
    t3 = perf_counter()

    result = {
        "sim_s": config.sim_end_us / 1e6,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "write_s": t3 - t2,
        "wall_s": t3 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["layers"] = layer_metrics(tracer)
        result["tick_s"] = tracer.tick_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
