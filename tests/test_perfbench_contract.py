"""The benchmark's span tracer wraps fiolab functions by module attribute.

``perfbench/spans.py`` installs its wrappers with ``setattr`` on each module
that imported a function by name, and refuses when one of those names is
missing or bound to a different object.  Installing it here keeps a rename
or a dropped import from surfacing only in the benchmark run.  The tracer
also reads ``out_of_box_modes`` from a canonical transform's ``Field.meta``
to count the trigonometric-sum work, so a traced apply is checked too, and
rebuilds the canonical handle, which must keep its ``normal``.
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

# the tracer rebuilds a canonical handle with dataclasses.replace, and the
# benchmark's m = 0 norm rows rely on the rebuilt handle keeping its Toeplitz
# normal: the relative gap between normal(u) and apply_adjoint(apply(u))
TRACED_NORMAL = INSTALL + """
import numpy as np
import fiolab.operators as operators
from fiolab.lattice import Field, make_grid, norm
from fiolab.symbols import gauss_phase, quadratic_form_symbol
g = make_grid(2, 10.0, 16)
h = operators.canonical_transform_operator(gauss_phase(quadratic_form_symbol(np.diag([1.0, 4.0]))), g)
assert h.normal is not None
rng = np.random.default_rng(0)
u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
expected = h.apply_adjoint(h.apply(u))
print(norm(h.normal(u) - expected) / norm(expected))
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


def test_traced_canonical_handle_keeps_its_normal():
    assert float(run_python(TRACED_NORMAL)) <= 1e-13
