"""The benchmark workloads must still produce their pinned output bytes.

`bench/run.py` rejects a run whose vehicles.csv, cells.csv or events.log
differ from the sha256 digests in `bench/digests.json` (seed 1). This test
makes the same check in-process, so that a change of output fails the
test suite and not only the benchmark. It reads `bench/` and writes only
into the test's temporary directory.
"""

import hashlib
import json

import pytest

from vcellsim import load_config
from vcellsim.scenario import run_scenario, write_outputs

from conftest import BENCH, bench_generate

DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
PINNED_SEED = 1
generate = bench_generate().generate


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_outputs_match_pinned_digests(tmp_path, workload):
    ini = generate(workload, PINNED_SEED, tmp_path / "in")
    out = tmp_path / "out"
    write_outputs(run_scenario(load_config(ini)), out)
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTS[workload]
    }
    assert got == DIGESTS[workload]
