"""The benchmark tracer must still find every method and function it wraps.

`bench/tracer.py::install` looks each wrapped name up in its owner's
`__dict__`, so renaming or deleting a hooked name (say
`Binder.deregister_node` or `Rrc.initial_association`) breaks the traced
benchmark run. `install` patches classes for the whole process, so it runs
in a child interpreter here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_install_finds_every_hooked_name():
    # `-c` puts the working directory, bench/, first on the import path
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT / "bench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
