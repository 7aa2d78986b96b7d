"""The benchmark's span tracer wraps fiolab functions by module attribute.

``perfbench/spans.py`` installs its wrappers with ``setattr`` on each module
that imported a function by name, and refuses when one of those names is
missing or bound to a different object.  Installing it here keeps a rename
or a dropped import from surfacing only in the benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys; sys.path.insert(0, 'perfbench'); import spans; spans.install(spans.Recorder())"
)


def test_span_tracer_installs():
    # a subprocess, so the patched functions never reach this test session
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
