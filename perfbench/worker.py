"""One workload pass in a fresh process; prints a JSON record as its last line.

Started by ``run.py`` with the checkout root as the working directory and
``src`` on ``PYTHONPATH``.  ``--spawned`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is the system-wide monotonic clock, so the difference at the end of
the set-up is the set-up time: interpreter start, imports, and making the
inputs.

The pass is a closed loop with one client: each item starts when the
previous one has ended.  A ``HostClock`` samples the host's speed while
the pass runs; times are recorded both as measured (``raw_*``, calibration
left out) and rescaled to the reference host speed.  With
``--setup-only`` the process samples the host's speed and exits at the
point where the first item would start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostClock
from workloads import CALIBRATION, SCENARIOS, SETUP_CALIBRATION, Workload

SETUP_SAMPLES = 5       # calibration blocks before and after the set-up


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    # the host's speed is sampled before the set-up, and in a set-up-only
    # process after it too; the set-up time leaves the samples out
    clock = HostClock(SETUP_CALIBRATION if args.setup_only
                      else CALIBRATION[args.workload])
    clock.sample(SETUP_SAMPLES)
    work = Workload(args.workload, args.seed, args.seconds, out_dir,
                    smoke=args.smoke)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock=clock.now)
        tracer.install()
    raw_setup_s = time.perf_counter() - args.spawned - clock.spent
    if args.setup_only:
        clock.sample(SETUP_SAMPLES)
        slowdown = clock.median_slowdown()
        print(json.dumps({"raw_setup_s": raw_setup_s, "slowdown": slowdown,
                          "setup_s": raw_setup_s / slowdown}))
        return 0

    item_times = []     # (start, end) perf_counter of each item
    failed = 0
    errors = []
    start = time.perf_counter()
    clock.start()
    for item in work.items:
        label = work.item_label(item)
        if tracer is not None:
            tracer.item = label
        t0 = time.perf_counter()
        try:
            result = work.run(item)
        except Exception as e:  # an item that raises counts as failed
            result = e
        item_times.append((t0, time.perf_counter()))
        if isinstance(result, Exception):
            failed += 1
            errors.append(f"{item!r}: {type(result).__name__}: {result}")
        elif not work.check(item, result):
            failed += 1
            errors.append(f"{item!r}: check failed")
    end = time.perf_counter()
    clock.stop()
    raw_wall_s = end - start - clock.spent_between(start, end)
    wall_s = clock.rescale(start, end)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    labels = [work.item_label(item) for item in work.items]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(item_times),
        "failed": failed,
        "errors": errors[:20],
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "wall_s": wall_s,
        "slowdown": raw_wall_s / wall_s,
        "calibration_samples": len(clock.samples),
        "peak_rss_mb": peak_rss_mb,
        "report_drift": work.drift,
        "item_ms": [clock.rescale(a, b) * 1e3 for a, b in item_times],
        "item_labels": labels if any(labels) else None,
    }
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = {k: list(v) for k, v in
                            layer_metrics(tracer, SCENARIOS).items()}
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        record["spans"] = tracer.write_spans(spans)
        record["spans_file"] = str(spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
