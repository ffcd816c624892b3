"""Byte-identity of the shipped scenarios' outputs against the golden oracle.

``perfbench/golden.json`` holds, for every shipped scenario and cli seed,
the verdict, the exit code and the sha256 of ``report.json`` (without its
``env`` object) and of ``classes.csv``.  This test only reads it; re-record
it with ``python3 perfbench/golden.py`` when a report change is intended
and explained.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lenspec.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCEN_DIR = ROOT / "src" / "lenspec" / "scenarios"
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
# every scenario at seed 0, and jsr-ensemble, which draws its ensemble from
# the seed, at every recorded seed
CASES = [(name, "0") for name in sorted(GOLDEN)] + [
    ("jsr-ensemble", seed) for seed in sorted(GOLDEN["jsr-ensemble"], key=int)
    if seed != "0"]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _report_sha256(path):
    """sha256 of report.json without ``env``, hashed as the benchmark does."""
    if not path.exists():
        return None
    body = json.loads(path.read_text())
    body.pop("env", None)
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", CASES, ids=[
    name if seed == "0" else f"{name}-seed{seed}" for name, seed in CASES])
def test_shipped_scenario_matches_golden(name, seed, tmp_path, capsys):
    code = main(["verify", "--scenario", str(SCEN_DIR / f"{name}.json"),
                 "--out", str(tmp_path), "--seed", seed])
    capsys.readouterr()
    report = tmp_path / "report.json"
    got = {
        "exit_code": code,
        "verdict": json.loads(report.read_text())["verdict"],
        "report_sha256": _report_sha256(report),
        "classes_sha256": _sha256(tmp_path / "classes.csv"),
    }
    assert got == GOLDEN[name][seed]
