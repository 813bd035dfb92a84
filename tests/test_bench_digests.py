"""The benchmark workloads must still produce their pinned output bytes.

`bench/run.py` rejects a run whose vehicles.csv, cells.csv or events.log
differ from the sha256 digests in `bench/digests.json` (seed 1). This test
makes the same check in-process, so that a change of output fails the
test suite and not only the benchmark. `tests/bench_digests.json` pins the
same files at seeds 2 and 3, so that a change which keeps seed 1's bytes by
luck of its draws still fails. It reads `bench/` and writes only into the
test's temporary directory.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vcellsim import load_config
from vcellsim.scenario import run_scenario, write_outputs

from conftest import BENCH, bench_generate

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
PINNED_SEED = 1
MORE_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "bench_digests.json").read_text(encoding="utf-8")
)
generate = bench_generate().generate


def _digests(tmp_path, workload, seed, names):
    ini = generate(workload, seed, tmp_path / "in")
    out = tmp_path / "out"
    write_outputs(run_scenario(load_config(ini)), out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_outputs_match_pinned_digests(tmp_path, workload):
    expected = DIGESTS[workload]
    assert _digests(tmp_path, workload, PINNED_SEED, expected) == expected


@pytest.mark.parametrize(
    "seed, workload",
    [(int(seed), workload) for seed in sorted(MORE_DIGESTS) for workload in sorted(MORE_DIGESTS[seed])],
)
def test_workload_outputs_match_digests_at_more_seeds(tmp_path, seed, workload):
    expected = MORE_DIGESTS[str(seed)][workload]
    assert _digests(tmp_path, workload, seed, expected) == expected
