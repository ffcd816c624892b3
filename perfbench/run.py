"""lenspec benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads are ``verify`` and ``joint-sweep`` (see ``workloads.py`` and
``NOTES.md``).  Each pass runs in a fresh worker process with BLAS/OpenMP
pinned to one thread.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
pass runs untraced, and set-up time is the median over several fresh
set-up-only processes, half started before the pass and half after it.
Both times are rescaled to a reference host speed (``hostspeed.py``).
``--trace 1`` prints the per-layer metrics: one untraced and one traced
pass of the same inputs, each in its own process, so the tracing overhead
is measured too.  Item latency percentiles and the times as measured come
from the untraced pass.  ``--smoke`` runs every workload at a tiny size
in both modes and checks that each metric of ``BENCHMARK.json`` is
printed with its unit.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment.  The full
record, worker outputs included, is saved under ``perfbench/out/``.
Exit codes: 0 a result was printed, 1 the benchmark itself failed, 2 the
checkout holds no lenspec sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("verify", "joint-sweep")
SETUP_RUNS = 10         # set-up-only processes, half before the pass
RUN_BUDGET_S = 170      # every worker of one run must end within this
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_PINS:
        env[var] = "1"
    return env


def spawn(args, deadline, *, trace=0, setup_only=False):
    """Run one worker process to completion; returns its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a worker could start")
    cmd += ["--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_BUDGET_S} s run budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-q * len(sorted_values) // 100)
    return sorted_values[max(0, min(len(sorted_values), int(rank)) - 1)]


def environment(args):
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        if not Path(".git").exists():
            return "unknown"
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": git_commit(),
        "threads": {var: "1" for var in THREAD_PINS},
    }


def collect(args, spec):
    """Run the workers of one run; returns (result line, full record)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    probes = []
    if args.trace == 0:
        # set-up probes before and after the pass, so that they sample
        # the host over the whole run
        n = 2 if args.smoke else SETUP_RUNS
        probes = [spawn(args, deadline, setup_only=True)
                  for _ in range(n // 2)]
        main = spawn(args, deadline)
        probes += [spawn(args, deadline, setup_only=True)
                   for _ in range(n - n // 2)]
        workers = [main]
        available = {
            "wall_s": (main["wall_s"], "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        wanted = spec["end_to_end"]
    else:
        base = spawn(args, deadline)
        traced = spawn(args, deadline, trace=1)
        workers = [base, traced]
        available = {k: tuple(v) for k, v in traced["layers"].items()}
        # latencies and host figures come from the untraced pass
        item_ms = sorted(base["item_ms"])
        available.update({
            "item_p50_ms": (statistics.median(item_ms), "ms"),
            "item_p99_ms": (percentile(item_ms, 99), "ms"),
            "raw.wall_s": (base["raw_wall_s"], "s"),
            "raw.setup_s": (base["raw_setup_s"], "s"),
            "host.slowdown": (base["slowdown"], "ratio"),
            "trace.overhead_frac": (traced["wall_s"] / base["wall_s"] - 1.0,
                                    "frac"),
            "cli.report_drift": (traced["report_drift"], "count"),
            "failed_frac": (traced["failed"] / traced["attempted"], "frac"),
        })
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        if m["name"] not in available:
            raise BenchError(f"metric {m['name']} was not measured")
        value, unit = available[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, {"env": environment(args), "result": result,
                    "workers": workers, "setup_probes": probes}


def smoke(args, spec):
    """Every workload at a tiny size, in both modes.

    ``collect`` fails unless each metric of ``BENCHMARK.json`` was measured
    in its unit; a smoke pass also needs every item to pass its check.
    """
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            result, _ = collect(args, spec)
            ok = ok and result["correct"]
            print(f"smoke {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics with units, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not Path("src/lenspec/__init__.py").is_file():
        print("run.py: no src/lenspec here; run from the root of a lenspec "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(args, spec)
        result, record = collect(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
