"""The benchmark's span tracer wraps fiolab functions by module attribute.

``perfbench/spans.py`` installs its wrappers with ``setattr`` on each module
that imported a function by name, and refuses when one of those names is
missing or bound to a different object.  Installing it here keeps a rename
or a dropped import from surfacing only in the benchmark run.  The tracer
also reads ``out_of_box_modes`` from a canonical transform's ``Field.meta``
to count the trigonometric-sum work, so a traced apply is checked too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys; sys.path.insert(0, 'perfbench'); import spans; rec = spans.Recorder(); "
    "spans.install(rec)"
)

# psi(xi) = 2 xi keeps 7 of the 16 frequencies in the box, and each target
# sums over 16 points: one apply and one adjoint average 7 * 16 cmacs
TRACED_CANONICAL = INSTALL + """
import numpy as np
import fiolab.operators as operators
from fiolab.lattice import Field, make_grid
from fiolab.symbols import scaling_map
h = operators.canonical_transform_operator(scaling_map(2.0, 1), make_grid(1, 6.0, 16))
h.apply_adjoint(h.apply(Field(h.grid, np.ones(h.grid.shape))))
print(spans.layer_metrics(rec)["operators.trig_cmacs"])
"""


def run_python(script):
    # a subprocess, so the patched functions never reach this test session
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_span_tracer_installs():
    run_python(INSTALL)


def test_span_tracer_counts_canonical_work():
    assert float(run_python(TRACED_CANONICAL)) == 7 * 16
