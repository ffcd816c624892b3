"""The benchmark's tracer can still hook every entry point it traces.

``perfbench/tracer.py`` rebinds public functions and methods of lenspec by
name and fails when one of them is gone, so a renamed or deleted entry
point fails here rather than at the next benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    code = ("import time\n"
            "from perfbench.tracer import Tracer\n"
            "Tracer(time.perf_counter).install()\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
