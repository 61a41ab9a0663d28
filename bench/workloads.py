"""The benchmark's workloads: set-up, the timed call, and the checks of each.

Every function that touches the simulator imports it lazily, so that the
set-up timer of a fresh process covers ``import wpansim``.  A workload's
seed replaces the scenario's ``seed`` or the sweep's ``seed_base``; ``None``
keeps the packaged one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

import checks

# Each operation is cut from the packaged size to a fraction of a second on
# the reference host, so that the medians of one run rest on dozens of them.
JOBS = 2                  # sweep worker processes: one per CPU of the reference box
NONBEACON_QUOTA = 500     # packets per device of nonbeacon-contention (packaged: 5000)
EXPORT_RUN_TIME_S = 25.0  # simulated seconds of the traced-export run (packaged: 1000)
SWEEP_QUOTA = 20          # packets per device in each sweep job
SWEEP_REPLICATIONS = 2    # two samples per point, so every stddev row is defined


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_network(spec):
    """The network ``run_scenario_full`` builds, without running it."""
    from wpansim.network import StarNetwork

    return StarNetwork(
        mode=spec.mode, n_devices=spec.n_devices, msdu=spec.msdu,
        interval_s=spec.interval_s, distribution=spec.distribution,
        csma_params=spec.csma_params(), bo=spec.bo, so=spec.so,
        queue_capacity=spec.queue_capacity, quota=spec.quota,
        run_time_s=spec.run_time_s, seed=spec.seed,
        placement=spec.placement)


def metrics_csv(row) -> str:
    from wpansim.experiment import write_metrics_csv

    buf = StringIO()
    write_metrics_csv([row], buf)
    return buf.getvalue()


@dataclass
class Outcome:
    """What one timed operation produced, as the parent process needs it."""

    packets: int
    attempted: int
    failed: int
    digest: str
    events: int | None = None   # None: counted by the check's replay instead
    records: int = 0
    delivered: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable        # (seed, out_dir) -> state; ends before the first event
    run: Callable          # state -> output; the timed call
    traced_run: Callable   # state -> output under span wrappers
    outcome: Callable      # (state, output) -> Outcome
    check: Callable        # (state, output, replay) -> dict of extra facts


# --------------------------------------------------------- single runs

@dataclass
class SingleState:
    spec: object
    net: object


def _single_setup(builtin: str, **overrides):
    def setup(seed, out_dir):
        from wpansim.scenario import load_builtin

        spec = dataclasses.replace(load_builtin(builtin), **overrides)
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        return SingleState(spec, build_network(spec))
    return setup


def _single_run(state: SingleState):
    return state.net.run()


def _single_outcome(state: SingleState, result) -> Outcome:
    row = result.metrics
    return Outcome(packets=row.generated, attempted=1, failed=0,
                   digest=sha256(metrics_csv(row).encode()),
                   events=result.summary.events_processed,
                   records=len(result.log), delivered=row.delivered)


def _single_check(state: SingleState, result, replay: bool) -> dict:
    checks.check_run(state.spec, checks.packets_from_records(result.log),
                     checks.metrics_from_row(result.metrics),
                     result.summary.end_time)
    return {}


# --------------------------------------------------------------- sweep

@dataclass
class SweepState:
    sweep: object
    jobs: list   # (point index, replication, scenario spec, seed)


def _sweep_setup(seed, out_dir):
    from wpansim.experiment import replication_seed
    from wpansim.scenario import load_builtin

    sweep = load_builtin("s6-interval")
    sweep = dataclasses.replace(
        sweep, base=dataclasses.replace(sweep.base, quota=SWEEP_QUOTA),
        replications=SWEEP_REPLICATIONS,
        seed_base=sweep.seed_base if seed is None else seed)
    jobs = []
    for index, point in enumerate(sweep.points()):
        spec = sweep.point_spec(point)
        for rep in range(sweep.replications):
            jobs.append((index, rep, spec,
                         replication_seed(sweep.seed_base, point, rep)))
    return SweepState(sweep, jobs)


def _sweep_run(state: SweepState):
    from wpansim.experiment import run_sweep

    return run_sweep(state.sweep, jobs=JOBS)


def _replay(state: SweepState) -> list:
    """Every job run alone, serially: (job, RunResult, seconds)."""
    from wpansim.experiment import run_scenario_full

    out = []
    for job in state.jobs:
        start = time.perf_counter()
        result = run_scenario_full(job[2], job[3])
        out.append((job, result, time.perf_counter() - start))
    return out


def _replay_digest(replays) -> str:
    rows = [[job[0], job[1], job[3], dataclasses.astuple(result.metrics)]
            for job, result, _ in replays]
    return sha256(json.dumps(rows).encode())


def _check_replays(replays) -> dict:
    for job, result, _ in replays:
        try:
            checks.check_run(job[2], checks.packets_from_records(result.log),
                             checks.metrics_from_row(result.metrics),
                             result.summary.end_time)
        except checks.CheckFailed as exc:
            raise checks.CheckFailed(f"point {job[0]} replication {job[1]}: {exc}")
    seconds = [s for _, _, s in replays]
    return {"events": sum(r.summary.events_processed for _, r, _ in replays),
            "job_s": seconds, "replay_digest": _replay_digest(replays)}


def _sweep_outcome(state: SweepState, output) -> Outcome:
    if isinstance(output, list):   # the traced run's serial replay
        return Outcome(
            packets=sum(r.metrics.generated for _, r, _ in output),
            attempted=len(output), failed=0, digest=_replay_digest(output),
            events=sum(r.summary.events_processed for _, r, _ in output),
            records=sum(len(r.log) for _, r, _ in output),
            delivered=sum(r.metrics.delivered for _, r, _ in output))
    samples = output.samples()
    return Outcome(packets=sum(r["generated"] or 0 for r in samples),
                   attempted=len(samples),
                   failed=sum(r["status"] != "ok" for r in samples),
                   digest=sha256(output.to_csv().encode()))


def _sweep_check(state: SweepState, output, replay: bool) -> dict:
    from dataclasses import fields

    from wpansim.experiment import METRIC_COLUMNS
    from wpansim.metrics import MetricsRow

    if isinstance(output, list):
        return _check_replays(output)
    checks.check_sweep_table(output, state.sweep, METRIC_COLUMNS)
    if not replay:
        return {}
    replays = _replay(state)
    samples = {(r["point"], r["replication"]): r for r in output.samples()}
    for (index, rep, _, seed), result, _ in replays:
        row = samples[(index, rep)]
        checks.require(row["seed"] == seed,
                       f"point {index} replication {rep}: seed {row['seed']} != {seed}")
        for f in fields(MetricsRow):
            checks.require(row[f.name] == getattr(result.metrics, f.name),
                           f"point {index} replication {rep}: {f.name} "
                           f"{row[f.name]!r} in the sweep, "
                           f"{getattr(result.metrics, f.name)!r} run alone")
    return _check_replays(replays)


# ------------------------------------------------------ traced export

@dataclass
class ExportState:
    spec: object
    config: Path
    out_dir: Path
    net: object

    def path(self, name: str) -> Path:
        return self.out_dir / name


def export_config(seed, out_dir: Path) -> Path:
    """Write the YAML copy of ``beacon-defaults`` that traced-export runs."""
    from wpansim.scenario import dump_scenario, load_builtin

    spec = load_builtin("beacon-defaults")
    spec = dataclasses.replace(spec, run_time_s=EXPORT_RUN_TIME_S,
                               seed=spec.seed if seed is None else seed)
    path = out_dir / "scenario.yaml"
    path.write_text(dump_scenario(spec))
    return path


def _export_setup(seed, out_dir):
    from wpansim.scenario import load_scenario

    config = out_dir / "scenario.yaml"
    spec = load_scenario(config)
    return ExportState(spec, config, out_dir, build_network(spec))


def _export_run(state: ExportState):
    from wpansim.cli import main

    status = main(["run", "--config", str(state.config),
                   "--out", str(state.path("metrics.csv")),
                   "--packet-log", str(state.path("packets.csv")),
                   "--trace", str(state.path("trace.tsv"))])
    checks.require(status == 0, f"wpansim run exited with status {status}")
    return state.path("metrics.csv").read_bytes()


def _export_outcome(state: ExportState, output: bytes) -> Outcome:
    row = checks.metrics_from_csv(state.path("metrics.csv"))
    return Outcome(packets=row["generated"], attempted=1, failed=0,
                   digest=sha256(output), records=row["generated"],
                   delivered=row["delivered"])


def _export_check(state: ExportState, output: bytes, replay: bool) -> dict:
    from wpansim.experiment import run_scenario_full

    packets = checks.packets_from_csv(state.path("packets.csv"))
    metrics = checks.metrics_from_csv(state.path("metrics.csv"))
    checks.check_run(state.spec, packets, metrics, None)
    checks.check_trace_counts(state.path("trace.tsv"), packets)
    if not replay:
        return {}
    # The same run without a trace: same metrics, and its event count.
    result = run_scenario_full(state.spec)
    checks.require(metrics_csv(result.metrics).encode() == output,
                   "metrics differ between the traced CLI run and a run "
                   "without a trace")
    return {"events": result.summary.events_processed}


WORKLOADS = {w.name: w for w in (
    Workload("nonbeacon-contention",
             "packaged nonbeacon-defaults at 500 packets per device: unslotted "
             "CSMA under heavy contention, where kernel, csma and phy do all "
             "the work",
             _single_setup("nonbeacon-defaults", quota=NONBEACON_QUOTA),
             _single_run, _single_run, _single_outcome, _single_check),
    Workload("sweep-mixed-load",
             "all 30 points of s6-interval through run_sweep at jobs=2: many "
             "short runs of unequal cost, per-run set-up and pool balance",
             _sweep_setup, _sweep_run, _replay, _sweep_outcome, _sweep_check),
    Workload("traced-export",
             "wpansim run on a YAML copy of beacon-defaults cut to 25 s, "
             "writing metrics, packet log and MAC trace: slotted CSMA, CAP "
             "deferral, sleep, YAML, trace and export",
             _export_setup, _export_run, _export_run, _export_outcome,
             _export_check),
)}
