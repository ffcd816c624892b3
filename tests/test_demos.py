"""Each demo, the README's library quick start and its scenario example
run to completion against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(path):
    proc = _run(str(path))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_exits_0():
    [block] = re.findall(r"```python\n(.*?)```",
                         (ROOT / "README.md").read_text(), re.S)
    proc = _run("-c", block)
    assert proc.returncode == 0, proc.stderr


def test_readme_scenario_example_verifies(tmp_path):
    # the schema's example, less its // comments, is a scenario that holds
    [block] = re.findall(r"```jsonc\n(.*?)```",
                         (ROOT / "README.md").read_text(), re.S)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(re.sub(r"//[^\n]*", "", block))
    proc = _run("-m", "lenspec", "verify", "--scenario", str(scenario))
    assert proc.returncode == 0, proc.stderr
