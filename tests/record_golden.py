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

It also runs, at seed 0, ``lenspec spectrum``, ``dilation``, ``delta`` and
``jsr`` on every shipped scenario, the runs that exit 2 on an input error
included, and every demo in ``demos/``, all in process, and stores each
subcommand's exit code with the sha256 of its stdout, and each demo's
stdout, in ``tests/golden_stdout.json``; it prints each (run, field) that
moved, or "no change".

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
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = SRC / "lenspec" / "scenarios"
GOLDEN = ROOT / "tests" / "golden.json"
TEXTS = ROOT / "tests" / "golden"
STDOUT_GOLDEN = ROOT / "tests" / "golden_stdout.json"
DEMOS = ROOT / "demos"
# the subcommands pinned by their stdout, each with the flags it takes
SUBCOMMANDS = {"spectrum": ["--seed", "0"], "dilation": [], "delta": [],
               "jsr": ["--seed", "0"]}
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


def captured(run):
    """(value of ``run()``, its stdout); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        value = run()
    return value, out.getvalue()


def subcommand(main, cmd: str, scenario: Path):
    """The golden record of one ``lenspec <cmd>`` run at seed 0."""
    code, out = captured(lambda: main([cmd, "--scenario", str(scenario),
                                       *SUBCOMMANDS[cmd]]))
    return {"exit_code": code, "stdout_sha256": sha256(out.encode())}


def demo(path: Path) -> dict:
    """The golden record of one demo: its stdout."""
    return {"stdout": captured(lambda: runpy.run_path(str(path),
                                                      run_name="__main__"))[1]}


def stdout_goldens(main) -> dict:
    """The record of every subcommand run and demo, keyed by "<subcommand>
    <scenario>" and "demo <name>"."""
    runs = {f"{cmd} {scenario.stem}": subcommand(main, cmd, scenario)
            for scenario in sorted(SCENARIOS.glob("*.json"))
            for cmd in SUBCOMMANDS}
    runs.update({f"demo {path.stem}": demo(path)
                 for path in sorted(DEMOS.glob("*.py"))})
    return runs


def moves(old: dict, new: dict):
    """One line per (run, field) whose value differs, for records keyed by
    run, each a dict of fields."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        a, b = old.get(run, {}), new.get(run, {})
        lines += [f"{run} {field}: {a.get(field)!r} -> {b.get(field)!r}"
                  for field in sorted(a.keys() | b.keys())
                  if a.get(field) != b.get(field)]
    return lines


def by_seed(golden: dict) -> dict:
    """The verify records keyed by "<scenario> seed <seed>"."""
    return {f"{name} seed {seed}": res for name, runs in golden.items()
            for seed, res in runs.items()}


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
    print("\n".join(moves(by_seed(old), by_seed(golden))) or "no change")
    old = json.loads(STDOUT_GOLDEN.read_text()) if STDOUT_GOLDEN.exists() else {}
    runs = stdout_goldens(main)
    STDOUT_GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print("\n".join(moves(old, runs)) or "no change")
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        env = {**os.environ, **PINNED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(record())
