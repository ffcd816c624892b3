"""The benchmark's tracer can still hook every entry point it traces.

``perfbench/tracer.py`` rebinds public functions and methods of lenspec by
name and fails when one of them is gone, so a renamed or deleted entry
point fails here rather than at the next benchmark run.  One class table
is then built under the tracer, so its after-hooks run too: the table
hook reads ``len(ClassTable.reps)``.  A ``verify`` run through ``cli.main``
under the tracer checks the cli hooks: the bytes of the paths ``emit``
returns and the time of the scenario parse.
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


def test_traced_verify_counts_its_parse_and_output_bytes(tmp_path):
    # cli.output_bytes sums the sizes of the paths emit returns, and
    # cli.parse times parse_scenario and load_scenario: a verify run with
    # --out reads non-zero for both
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    scenario = ROOT / "src" / "lenspec" / "scenarios" / "tree-pair.json"
    code = ("import contextlib, io, sys, time\n"
            "from perfbench.tracer import Tracer\n"
            "from lenspec import cli\n"
            "tracer = Tracer(time.perf_counter)\n"
            "tracer.install()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['verify', '--scenario', {str(scenario)!r},\n"
            f"                     '--out', {str(tmp_path)!r}, '--seed', '1'])\n"
            "assert code == 0, code\n"
            "assert tracer.counts['cli.output_bytes'] > 0, tracer.counts\n"
            "assert tracer.counts['cli.parse'] > 0, tracer.counts\n"
            "assert tracer.totals['cli.parse'] > 0, tracer.totals\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
