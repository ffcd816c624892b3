"""Byte-identity of the shipped scenarios' outputs against their goldens.

``tests/golden.json`` holds, for every shipped scenario and cli seed, the
verdict, the exit code and the sha256 of ``report.json`` (without its
``env`` object) and of ``classes.csv``.  ``tests/golden/<scenario>.json``
holds each seed-0 report without ``env`` as the text that hash is taken
of, so a failure names the lines that moved.  These tests only read them;
re-record both with ``python3 tests/record_golden.py`` when a report change
is intended and explained.
"""

import difflib
import hashlib
import json

import pytest

from lenspec.cli import main
# the recorder owns the golden paths and the report text its hashes are of
from record_golden import GOLDEN as GOLDEN_PATH, SCENARIOS as SCEN_DIR
from record_golden import TEXTS, report_text

GOLDEN = json.loads(GOLDEN_PATH.read_text())
# every scenario at seed 0, and jsr-ensemble, which draws its ensemble from
# the seed, at every recorded seed
CASES = [(name, "0") for name in sorted(GOLDEN)] + [
    ("jsr-ensemble", seed) for seed in sorted(GOLDEN["jsr-ensemble"], key=int)
    if seed != "0"]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.mark.parametrize("name,seed", CASES, ids=[
    name if seed == "0" else f"{name}-seed{seed}" for name, seed in CASES])
def test_shipped_scenario_matches_golden(name, seed, tmp_path, capsys):
    code = main(["verify", "--scenario", str(SCEN_DIR / f"{name}.json"),
                 "--out", str(tmp_path), "--seed", seed])
    capsys.readouterr()
    text = report_text(tmp_path / "report.json")
    if seed == "0":
        want = (TEXTS / f"{name}.json").read_text()
        assert text == want, "report.json moved from its golden:\n" + "\n".join(
            difflib.unified_diff(want.splitlines(), (text or "").splitlines(),
                                 f"tests/golden/{name}.json", "report.json",
                                 lineterm=""))
    got = {
        "exit_code": code,
        "verdict": json.loads(text)["verdict"],
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "classes_sha256": _sha256(tmp_path / "classes.csv"),
    }
    assert got == GOLDEN[name][seed]


def test_every_shipped_scenario_has_a_golden():
    shipped = {p.stem for p in SCEN_DIR.glob("*.json")}
    assert set(GOLDEN) == shipped
    assert {p.stem for p in TEXTS.glob("*.json")} == shipped


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_text_golden_hashes_to_its_recorded_sha256(name):
    assert _sha256(TEXTS / f"{name}.json") == GOLDEN[name]["0"]["report_sha256"]
