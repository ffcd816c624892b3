"""The benchmark's tracer can still hook every entry point it traces.

``perfbench/tracer.py`` rebinds public functions and methods of lenspec by
name and fails when one of them is gone, so a renamed or deleted entry
point fails here rather than at the next benchmark run.  One class table
is then built under the tracer, so its after-hooks run too: the table
hook reads ``len(ClassTable.reps)``.
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
            "from lenspec import bounds\n"
            "from lenspec.spaces import TreeModel\n"
            "tracer = Tracer(time.perf_counter)\n"
            "tracer.install()\n"
            "bounds.dilation_window(TreeModel(2, [1, 2]), TreeModel(2), 4)\n"
            "assert tracer.counts['bounds.table_classes'] > 0, tracer.counts\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
