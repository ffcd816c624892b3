"""Inputs, items and per-item checks of the two benchmark workloads.

Every workload is a list of items made from one seed; an item is one call
into lenspec that a user would wait on.  Items reach lenspec through its
module attributes at call time, so the tracer's wrappers see every call.

- ``verify``: the seven shipped scenarios, each through
  ``lenspec.cli.main(["verify", ..., "--seed", seed % 8])`` with ``--out``.
- ``joint-sweep``: a seeded sample, without replacement, of the 23,478
  subsets S (|S| <= 3) of the 52 nonempty reduced words of length <= 3,
  each through ``joint_stable_profile(TreeModel(2), S, 12, engine="tree-dp")``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

SCENARIO_DIR = Path("src/lenspec/scenarios")
SCENARIOS = ("bf-tree", "identical-actions", "jsr-ensemble",
             "schottky-cobounded", "schottky-linear", "tree-pair",
             "word-metric-window")
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# goldens exist for cli seeds 0..GOLDEN_SEEDS-1; the workload seed maps
# onto them, since report.json records the seed and jsr-ensemble uses it
GOLDEN_SEEDS = 8

# The calibration block (``hostspeed.BLOCKS``) of each workload's pass,
# and of the set-up-only processes.  Over repeats of the same work on a
# 2-core Intel Xeon, verify's class enumeration slowed with the small
# block, and joint-sweep's tree-dp, which looks steps up in a memo of 100k+
# entries, with the mixed one.  Set-up (imports, inputs) rescaled by the
# mixed block spread 3% over ten seeds, and by the small one 8-13%.
CALIBRATION = {"verify": "small", "joint-sweep": "mixed"}
SETUP_CALIBRATION = "mixed"

# Items per measured second, set when the benchmark was added so that on a
# 2-core Intel Xeon a sweep of ``seconds`` takes at most about that long.
# At least 1000 items keeps ten samples above the p99 latency.
JOINT_RATE = 150
MIN_ITEMS = 1000
SMOKE_ITEMS = 30
JOINT_LEVELS = 12


def sweep_size(seconds, smoke):
    if smoke:
        return SMOKE_ITEMS
    return max(MIN_ITEMS, JOINT_RATE * seconds)


def reduced_words(max_len):
    """The nonempty reduced words over a, A, b, B of length <= max_len."""
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    out, level = [], [""]
    for _ in range(max_len):
        level = [w + x for w in level for x in "aAbB"
                 if not w or inverse[w[-1]] != x]
        out.extend(level)
    return out


class Workload:
    """Seeded items of one workload.

    ``run(item)`` performs one item and ``check(item, result)`` says whether
    its output is correct.
    """

    def __init__(self, name, seed, seconds, out_dir, smoke=False):
        self.name = name
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.smoke = smoke
        self.drift = 0
        if name == "verify":
            self._setup_verify()
            self.run, self.check = self.verify_item, self.check_verify
        elif name == "joint-sweep":
            self._setup_joint(sweep_size(seconds, smoke))
            self.run, self.check = self.joint_item, self.check_joint
        else:
            raise ValueError(f"unknown workload {name!r}")

    # ----------------------------------------------------------- verify

    def _setup_verify(self):
        from lenspec import cli

        self._cli = cli
        self.cli_seed = self.seed % GOLDEN_SEEDS
        self.golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        # a fixed order: a scenario's time depends on what ran before it in
        # the process (the first one pays the heap's warm-up), and a seeded
        # order would add that to the spread between seeds
        self.items = list(SCENARIOS)
        self.scenario_paths = {n: SCENARIO_DIR / f"{n}.json" for n in SCENARIOS}
        if self.smoke:
            self.scenario_paths = {n: self._smoke_scenario(p)
                                   for n, p in self.scenario_paths.items()}

    def _smoke_scenario(self, path):
        # a tiny copy: class tables capped at radius 6
        data = json.loads(path.read_text())
        data.setdefault("config", {})["radius_cap"] = 6
        small = self.out_dir / f"smoke-{path.name}"
        small.write_text(json.dumps(data))
        return small

    def verify_item(self, name):
        """Run one scenario through the CLI; returns its outcome record."""
        out = self.out_dir / f"verify-{name}"
        argv = ["verify", "--scenario", str(self.scenario_paths[name]),
                "--out", str(out), "--seed", str(self.cli_seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self._cli.main(argv)
        return {"exit_code": code, "out": out}

    def check_verify(self, name, res):
        """Failure and drift of one scenario run against the golden oracle."""
        out = res.pop("out")
        try:
            report = out / "report.json"
            res["verdict"] = (json.loads(report.read_text())["verdict"]
                              if report.exists() else None)
            res["report_sha256"] = _report_sha256(report)
            res["classes_sha256"] = _sha256(out / "classes.csv")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed = res["exit_code"] in (1, 2, 3) or res["verdict"] == "violated"
        golden = self.golden.get(name, {}).get(str(self.cli_seed))
        if golden != res:
            self.drift += 1
        return not failed

    # ------------------------------------------------------ joint sweep

    def _setup_joint(self, n):
        from lenspec import jsl
        from lenspec.spaces import TreeModel
        from lenspec.words import Word

        self._jsl = jsl
        self.tree = TreeModel(2)
        self.words = [Word(w) for w in reduced_words(3)]
        population = [c for k in (1, 2, 3)
                      for c in itertools.combinations(range(len(self.words)), k)]
        self.items = random.Random(self.seed).sample(population, n)

    def joint_item(self, idx):
        subset = [self.words[i] for i in idx]
        return self._jsl.joint_stable_profile(self.tree, subset, JOINT_LEVELS,
                                              engine="tree-dp")

    def check_joint(self, idx, prof):
        """Acceptance 01: certified, lo is the pair half-max, width <= 2 max|s|/12."""
        b = prof.bracket
        max_len = max(len(self.words[i].letters) for i in idx)
        return bool(b.certified and b.lo == prof.pair_half
                    and b.hi - b.lo <= Fraction(2 * max_len, JOINT_LEVELS))

    def item_label(self, item):
        """The name spans and per-item times carry; only scenarios have one."""
        return item if self.name == "verify" else None


def _sha256(path):
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_sha256(path):
    """sha256 of report.json without its ``env`` object.

    ``env`` records the Python and lenspec versions, which change no
    result; the seed it also holds is the golden's key.
    """
    if not path.exists():
        return None
    body = json.loads(path.read_text())
    body.pop("env", None)
    text = json.dumps(body, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()
