"""Record the golden oracle of the ``verify`` workload.

Run from the root of a checkout:

    python3 perfbench/golden.py

For every shipped scenario and every cli seed the workload can pass
(0..GOLDEN_SEEDS-1) it stores the verdict, the exit code and the sha256 of
``report.json`` (without its ``env`` object) and ``classes.csv`` in
``perfbench/golden.json``.  The benchmark counts a later mismatch in
``cli.report_drift``, not as a failure.  Re-record only when a change to
the reports is intended and explained.

The script runs under the environment of the benchmark's workers
(``run.child_env``: ``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED=0`` and
BLAS/OpenMP threads pinned to 1), re-starting itself if it was not.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import child_env
from workloads import GOLDEN, GOLDEN_SEEDS, SCENARIOS, Workload


def main():
    env = child_env()
    if any(os.environ.get(k) != env[k] for k in env if k != "PYTHONPATH"):
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, "src")
    golden = {name: {} for name in SCENARIOS}
    with tempfile.TemporaryDirectory(dir="perfbench") as tmp:
        for seed in range(GOLDEN_SEEDS):
            work = Workload("verify", seed, 0, tmp)
            for name in SCENARIOS:
                res = work.verify_item(name)
                if not work.check_verify(name, res):
                    print(f"{name} seed {seed} failed: {res}", file=sys.stderr)
                    return 1
                golden[name][str(seed)] = res
            print(f"seed {seed}: recorded", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
