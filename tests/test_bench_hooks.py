"""The benchmark's tracer wraps weylrack functions by name; installing it
must succeed, so a rename that would break a traced benchmark run fails
here instead."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in a fresh interpreter: install() patches modules process-wide
SCRIPT = """
import sys
sys.path[:0] = ["src", "bench"]
import weylrack.cli, tracing
tracing.install(tracing.Tracer("t"))
"""


def test_tracer_installs_on_current_names():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
