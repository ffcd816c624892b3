"""Record the goldens of the shipped scenarios.

Run from anywhere, with no arguments:

    python3 tests/record_golden.py

For every scenario file in ``src/lenspec/scenarios/`` and every cli seed
0..SEEDS-1 it runs ``lenspec verify --scenario FILE --out DIR --seed SEED``
in process and stores the verdict, the exit code and the sha256 of
``report.json`` (without its ``env`` object) and of ``classes.csv`` in
``tests/golden.json``.  The seed-0 ``report.json`` of each scenario, without
``env``, is written as the text those hashes are taken of, to
``tests/golden/<scenario>.json``, so a change names the fields that moved.
It then prints each (scenario, seed, field) whose value differs from the
file it replaces, or "no change".

The runs take ``PYTHONHASHSEED=0`` and BLAS/OpenMP threads pinned to 1; the
script re-starts itself under them if it was not.  Re-record only when a
change to the reports is intended, and explain each moved hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = SRC / "lenspec" / "scenarios"
GOLDEN = ROOT / "tests" / "golden.json"
TEXTS = ROOT / "tests" / "golden"
SEEDS = 8
PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def report_text(path: Path):
    """report.json without ``env``, as the text its golden hash is taken
    of; None when there is no report."""
    if not path.exists():
        return None
    body = json.loads(path.read_text())
    body.pop("env", None)
    return json.dumps(body, sort_keys=True, indent=2)


def sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def verify(main, scenario: Path, seed: int, out: Path):
    """(golden record, report text) of one ``verify`` run."""
    argv = ["verify", "--scenario", str(scenario), "--out", str(out),
            "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = report_text(out / "report.json")
    csv = out / "classes.csv"
    return {
        "classes_sha256": sha256(csv.read_bytes() if csv.exists() else None),
        "exit_code": code,
        "report_sha256": sha256(None if text is None else text.encode()),
        "verdict": None if text is None else json.loads(text)["verdict"],
    }, text


def moves(old: dict, new: dict):
    """One line per (scenario, seed, field) whose value differs."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        runs_old, runs_new = old.get(name, {}), new.get(name, {})
        for seed in sorted(runs_old.keys() | runs_new.keys(), key=int):
            a, b = runs_old.get(seed, {}), runs_new.get(seed, {})
            for field in sorted(a.keys() | b.keys()):
                if a.get(field) != b.get(field):
                    lines.append(f"{name} seed {seed} {field}: "
                                 f"{a.get(field)} -> {b.get(field)}")
    return lines


def record():
    sys.path.insert(0, str(SRC))
    from lenspec.cli import main

    golden, texts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS.glob("*.json")):
            name = scenario.stem
            golden[name] = {}
            for seed in range(SEEDS):
                out = Path(tmp) / f"{name}-{seed}"
                res, text = verify(main, scenario, seed, out)
                if res["exit_code"] in (1, 2, 3) or res["verdict"] == "violated":
                    print(f"{name} seed {seed} failed: {res}", file=sys.stderr)
                    return 1
                golden[name][str(seed)] = res
                if seed == 0:
                    texts[name] = text
            print(f"{name}: recorded", file=sys.stderr)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    TEXTS.mkdir(exist_ok=True)
    for stale in TEXTS.glob("*.json"):
        if stale.stem not in texts:
            stale.unlink()
    for name, text in texts.items():
        (TEXTS / f"{name}.json").write_text(text)
    print("\n".join(moves(old, golden)) or "no change")
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        env = {**os.environ, **PINNED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(record())
