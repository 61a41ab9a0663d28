"""wpansim benchmark: host-time metrics of three workloads, with checked outputs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py                  # every workload, packaged seeds

Operations run in fresh Python processes (``bench/child.py``).  With
``--trace 0`` one process runs an operation and checks its outputs in full;
then processes of about ``BATCH_S`` seconds each set up and run operations
back to back until ``--seconds`` have passed, and every operation must
reproduce the checked one's SHA-256.  Each of these times its own set-up
from before ``import wpansim``, scales every time to the host's speed
(``bench/speed.py``) and reads its peak memory after its first operation.
The end-to-end metrics are medians over them.  With ``--trace 1`` one
untraced and one traced operation run, unscaled, and the per-layer metrics
come from the traced one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit status is non-zero when a check fails or an operation errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import JOBS, WORKLOADS, export_config  # noqa: E402

BATCH_S = 2.5            # how long each fresh process runs operations, in seconds
TIME_BUDGET_S = 170.0    # a run must end within 180 s
E2E_UNITS = {"setup_s": "s", "run_s": "s", "events_per_s": "events/s",
             "packets_per_s": "packets/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """An operation could not be measured (crash, timeout)."""


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out_dir = BENCH / "out" / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if workload.name == "traced-export":
            export_config(seed, self.out_dir)

    def child(self, mode: str, batch_s: float = 0.0) -> dict:
        cmd = [sys.executable, str(BENCH / "child.py"), self.workload.name,
               "--mode", mode, "--out", str(self.out_dir),
               "--batch-s", str(batch_s)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload.name} {mode}: timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload.name} {mode} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def _failures(reports: list[dict], reference: str) -> list[str]:
    problems = [r["check_failed"] for r in reports if "check_failed" in r]
    digests = set()
    for r in reports:
        digests.update([r["digest"]] if isinstance(r["digest"], str) else r["digest"])
    if digests != {reference}:
        problems.append(f"outputs differ between operations: {sorted(digests)}")
    return problems


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    first = runner.child("check")
    reports = [first]
    start = time.monotonic()
    while True:
        left = seconds - (time.monotonic() - start)
        if left <= 0 and len(reports) > 1:
            break
        reports.append(runner.child("batch", min(BATCH_S, max(left, 0.0))))
    problems = _failures(reports, first["digest"])
    events = first["events"] if first["events"] is not None else \
        first.get("check", {}).get("events")
    batches = reports[1:]
    run_s = [t for r in batches for t in r["run_s"]]
    run = statistics.median(run_s)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in batches),
        "run_s": run,
        "events_per_s": (events or 0) / run,
        "packets_per_s": first["packets"] / run,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in batches),
    }
    print(f"# {runner.workload.name}: {len(run_s)} timed operations in "
          f"{len(reports)} processes")
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in metrics.items()}, reports, problems


def _layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_efficiency", "_overhead")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def measure_traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    untraced = runner.child("check")
    traced = runner.child("traced")
    reference = untraced.get("check", {}).get("replay_digest", untraced["digest"])
    problems = _failures([untraced], untraced["digest"])
    problems += _failures([traced], reference)
    layers = dict(traced["layers"])
    job_s = untraced.get("check", {}).get("job_s")
    if job_s:
        # The traced sweep replays its jobs serially: compare like with like.
        untraced_run_s = sum(job_s)
        layers["experiment.jobs"] = len(job_s)
        layers["experiment.max_job_s"] = max(job_s)
        layers["experiment.parallel_efficiency"] = (
            untraced_run_s / (JOBS * untraced["run_s"]))
    else:
        untraced_run_s = untraced["run_s"]
        layers["experiment.jobs"] = 0
        layers["experiment.max_job_s"] = 0.0
        layers["experiment.parallel_efficiency"] = 0.0
    layers["bench.untraced_run_s"] = untraced_run_s
    layers["bench.traced_run_s"] = traced["run_s"]
    layers["bench.tracing_overhead"] = traced["run_s"] / untraced_run_s - 1
    layers["bench.spans"] = traced["spans"]
    metrics = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in layers.items()}
    return metrics, [untraced, traced], problems


def run_workload(name: str, seed, seconds: float, trace: bool) -> bool:
    deadline = time.monotonic() + TIME_BUDGET_S
    runner = Runner(WORKLOADS[name], seed, deadline)
    if trace:
        metrics, reports, problems = measure_traced(runner)
    else:
        metrics, reports, problems = measure(runner, seconds)
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    print(f"# {name}: seed {'packaged' if seed is None else seed}")
    for metric, entry in metrics.items():
        print(f"{name}  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{name}  sha256 {reports[0]['digest']}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int,
                        help="replaces the packaged seed / seed_base")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the repeated operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 bits")
    if not (ROOT / "src" / "wpansim" / "__init__.py").is_file():
        print(f"bench: no wpansim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok &= run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
