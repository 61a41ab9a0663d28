"""One measurement in a fresh Python process; prints one JSON line.

Modes:
  batch   set up and run the workload's timed call, then set up again and
          run again, back to back, until ``--batch-s`` seconds have passed;
          set-up and run times are scaled to the host's speed (``speed.py``)
  check   set up, run once, then check the outputs (with the replays some
          checks need)
  traced  install span wrappers, then as check but with the traced call,
          and add the per-layer metrics; spans go to ``spans.npz``

The set-up clock starts before ``import wpansim``, so ``setup_s`` is what a
user pays in a new process before the first simulated event.  Peak memory
is read right after the first run, so it is that of one operation.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    sweep's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def batch(workload, args, meter: SpeedMeter) -> dict:
    """Set up and run until ``args.batch_s`` have passed; scaled times."""
    meter.start()
    state = workload.setup(args.seed, args.out)
    report = {"setup_s": (time.perf_counter() - SETUP_START) * meter.stop(),
              "run_s": [], "attempted": 0, "failed": 0}
    digests = set()
    first = time.perf_counter()
    while not report["run_s"] or time.perf_counter() - first < args.batch_s:
        if report["run_s"]:
            state = workload.setup(args.seed, args.out)
        meter.start()
        start = time.perf_counter()
        output = workload.run(state)
        report["run_s"].append((time.perf_counter() - start) * meter.stop())
        if "rss_mb" not in report:
            report["rss_mb"] = peak_rss_mb()
        outcome = workload.outcome(state, output)
        digests.add(outcome.digest)
        report["attempted"] += outcome.attempted
        report["failed"] += outcome.failed
    report["digest"] = sorted(digests)
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("batch", "check", "traced"),
                        required=True)
    parser.add_argument("--batch-s", type=float, default=0.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "batch":
        print(json.dumps(batch(workload, args, SpeedMeter())))
        return 0

    rec = None
    if args.mode == "traced":
        import tracing

        rec = tracing.SpanRecorder()
        tracing.install(rec)
    state = workload.setup(args.seed, args.out)
    report = {"setup_s": time.perf_counter() - SETUP_START}

    run = workload.traced_run if rec is not None else workload.run
    start = time.perf_counter()
    output = run(state)
    report["run_s"] = time.perf_counter() - start
    report["rss_mb"] = peak_rss_mb()
    outcome = workload.outcome(state, output)
    report.update(dataclasses.asdict(outcome))
    try:
        report["check"] = workload.check(state, output, args.mode == "check")
    except checks.CheckFailed as exc:
        report["check_failed"] = str(exc)
    if rec is not None:
        rec.write(args.out / "spans.npz")
        report["layers"] = tracing.layer_metrics(
            rec, records=outcome.records, delivered=outcome.delivered)
        report["spans"] = len(rec.starts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
