"""Sweep execution: replicated scenario runs and plot-ready summaries.

A sweep's cartesian points run (optionally on forked worker processes) and
land in a :class:`ResultsTable` whose row order — point index, then
replication, then per-point aggregate rows — never depends on worker
completion order.  Each (point, replication) pair derives its own seed from
the sweep's ``seed_base``, so any single run can be reproduced in isolation
without executing the rest of the sweep.
"""

from __future__ import annotations

import csv
import marshal
import math
import os
from dataclasses import dataclass
from io import StringIO
from typing import NoReturn

from wpansim.csma import type_error
# The single-run names live with the run and its CSV; they are re-exported.
from wpansim.metrics import (METRIC_COLUMNS, MetricsRow, _fmt_cell, _metric_values,
                             discard, write_metrics_csv)
from wpansim.network import run_scenario_full
from wpansim.scenario import ScenarioSpec, SweepSpec

__all__ = [
    "replication_seed", "run_scenario", "run_scenario_full",
    "ResultsTable", "run_sweep", "read_results", "emit_plot_data",
    "METRIC_COLUMNS", "write_metrics_csv",
]


def replication_seed(seed_base: int, point: dict, replication: int) -> int:
    """Stable 64-bit seed for one replication of one sweep point.

    Hashes the point's parameters by name, an integral float as its int (1 and
    1.0 build equal specs), so neither axis order nor the point's place matters.
    """
    import hashlib  # loaded on first use, as is json: a single run needs neither
    import json
    items = sorted((name, int(v) if isinstance(v, float) and v.is_integer() else v)
                   for name, v in point.items())
    payload = json.dumps([seed_base, items, replication], separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_scenario(spec: ScenarioSpec, seed: int | None = None) -> MetricsRow:
    """Run one scenario and return its metrics row; deterministic in
    (spec, seed).  The run keeps no packet records."""
    return run_scenario_full(spec, seed, packets=discard).metrics


def _fmt_axis_value(value) -> object:
    # Compound (bo, so) axis values render as "bo-so" so they stay a single
    # CSV cell and a readable series label.
    if isinstance(value, tuple):
        return "-".join(str(v) for v in value)
    return value


@dataclass
class ResultsTable:
    """Sweep output: one 'sample' row per run plus per-point 'mean' and
    'stddev' rows, all in deterministic order."""

    columns: list[str]
    rows: list[dict]

    def write_csv(self, f) -> None:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in self.columns])

    def to_csv(self) -> str:
        buf = StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def samples(self) -> list[dict]:
        return [r for r in self.rows if r["kind"] == "sample"]


def _mean_stddev(values: list) -> tuple:
    """The aggregate rule: mean of one or more values, stddev of two or more.

    They are the values Python 3.11's ``statistics.fmean`` and
    ``statistics.stdev`` return, without Fractions: the sample variance is
    exact over the values' integer ratios, whose denominators are powers of
    two, and its square root is correctly rounded.
    """
    n = len(values)
    if not n:
        return None, None
    mean = math.fsum(values) / n
    if n == 1:
        return mean, None
    ratios = [value.as_integer_ratio() for value in values]
    den = max(d for _, d in ratios)
    nums = [num * (den // d) for num, d in ratios]
    total = sum(nums)
    # variance = (n * sum(x**2) - sum(x)**2) / (n * (n - 1)), each x = num / den
    return mean, _sqrt_of_ratio(n * sum(x * x for x in nums) - total * total,
                                n * (n - 1) * den * den)


def _sqrt_of_ratio(n: int, m: int) -> float:
    """``sqrt(n / m)`` correctly rounded: an integer root of at least 54
    bits, rounded to odd, then to the nearest float."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _run_job(job) -> tuple[dict, str | None]:
    """One run's metric cells and error: plain ints, floats, strings and
    None, so ``marshal`` carries them from a worker bit for bit."""
    spec, seed = job
    try:
        return _metric_values(run_scenario(spec, seed)), None
    except Exception as exc:  # a failed run is a result, not a crash
        return _metric_values(None), f"{type(exc).__name__}: {exc}"


def _work(jobs_list: list, index_in, index_out, out) -> NoReturn:
    """A forked worker's whole life: take job indices until the index pipe
    ends, then send ``{index: outcome}`` and exit, 0 only once it is sent."""
    status = 1
    try:
        index_out.close()             # else the index pipe never ends
        done = {}
        while record := index_in.read(4):
            index = int.from_bytes(record, "little")
            done[index] = _run_job(jobs_list[index])
        out.write(marshal.dumps(done))
        out.flush()
        status = 0
    finally:
        os._exit(status)              # never unwind into the parent's code


def _run_forked(jobs_list: list, workers: int) -> list:
    """``_run_job`` over ``jobs_list`` on ``workers`` forked processes, in
    job order.

    Each worker inherits the job list and reads the next job index, a 4-byte
    record, from one pipe that all of them share.  The parent writes whole
    records at most ``select.PIPE_BUF`` bytes at a time, so each write is
    atomic and each 4-byte read takes one whole record.  A worker that dies
    loses its outcomes, so this raises ``ChildProcessError`` with its exit
    status.  Every worker is reaped before this returns, and killed first if
    it raises.  Forking is safe only while this process runs no other thread.
    """
    import select
    import signal

    pids, results = [], []
    read_end, write_end = os.pipe()
    index_in = open(read_end, "rb", buffering=0)
    index_out = open(write_end, "wb", buffering=0)
    try:
        with index_in, index_out:
            for _ in range(workers):
                reader, writer = os.pipe()
                results.append(open(reader, "rb"))
                with open(writer, "wb") as out:
                    pid = os.fork()
                    if pid == 0:
                        _work(jobs_list, index_in, index_out, out)
                pids.append(pid)
            index_in.close()
            records = b"".join(i.to_bytes(4, "little")
                               for i in range(len(jobs_list)))
            size = select.PIPE_BUF - select.PIPE_BUF % 4
            try:
                for start in range(0, len(records), size):
                    index_out.write(records[start:start + size])
            except BrokenPipeError:
                pass                  # no worker is left; its status says why
        payloads = [f.read() for f in results]
        outcomes = {}
        for pid, payload in zip(pids, payloads):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code or not payload:
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with status {code}")
                raise ChildProcessError(
                    f"sweep worker {pid} {how} before reporting its runs")
            outcomes.update(marshal.loads(payload))
        return [outcomes[index] for index in range(len(jobs_list))]
    finally:
        for f in results:
            f.close()
        for pid in pids:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):   # still running
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass                  # reaped already


def run_sweep(sweep: SweepSpec, jobs: int = 1) -> ResultsTable:
    """Run every (point, replication) pair of a sweep.

    Failed runs keep their row (status ``failed`` with the error message) and
    are excluded from the aggregate rows.  With ``jobs`` above 1 the runs go
    to at most that many forked workers (``os.fork`` is required), and their
    outcomes are put back in job order, so output bytes depend only on the
    sweep and its seeds, never on scheduling.
    """
    if error := type_error("jobs", jobs, "int"):
        raise ValueError(error)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError("jobs above 1 need os.fork, which this platform lacks")
    points = sweep.points()
    axis_names = [name for name, _ in sweep.axes]
    columns = (["point", "replication", "kind"] + axis_names + ["seed"]
               + METRIC_COLUMNS + ["status", "error"])
    seeds = [[replication_seed(sweep.seed_base, point, rep)
              for rep in range(sweep.replications)] for point in points]
    specs = [sweep.point_spec(point) for point in points]
    jobs_list = [(spec, seed) for spec, point_seeds in zip(specs, seeds)
                 for seed in point_seeds]

    workers = min(jobs, len(jobs_list))   # never fork an idle worker
    if workers <= 1:
        outcomes = map(_run_job, jobs_list)
    else:
        outcomes = iter(_run_forked(jobs_list, workers))

    rows = []
    for index, (point, point_seeds) in enumerate(zip(points, seeds)):
        axis_cells = {name: _fmt_axis_value(point[name]) for name in axis_names}
        ok = []
        for rep, seed in enumerate(point_seeds):
            values, error = next(outcomes)
            row = {"point": index, "replication": rep, "kind": "sample",
                   **axis_cells, "seed": seed, **values,
                   "status": "ok" if error is None else "failed", "error": error}
            rows.append(row)
            if error is None:
                ok.append(row)
        mean = {"point": index, "replication": None, "kind": "mean",
                **axis_cells, "seed": None, "status": None, "error": None}
        stddev = dict(mean, kind="stddev")
        for col in METRIC_COLUMNS:
            mean[col], stddev[col] = _mean_stddev(
                [r[col] for r in ok if r[col] is not None])
        rows += [mean, stddev]
    return ResultsTable(columns=columns, rows=rows)


def _parse_cell(text: str):
    if text == "NA":
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_results(path) -> ResultsTable:
    """Read a results CSV back into a table (inverse of ``write_csv``)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            columns = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty results file") from None
        for name in columns:
            if columns.count(name) > 1:
                raise ValueError(f"{path}:1: column {name!r} appears twice")
        rows = []
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(f"{path}:{reader.line_num}: {len(row)} cells "
                                 f"where the header has {len(columns)}")
            rows.append(dict(zip(columns, map(_parse_cell, row))))
    return ResultsTable(columns=columns, rows=rows)


def _finite(column: str, value):
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"column {column!r} holds a non-finite value: "
                         f"found {value!r}")
    return value


def emit_plot_data(results: ResultsTable, x_axis: str, metric: str,
                   series_key: str | None = None) -> str:
    """Summarize sample rows into plot-ready text.

    One block per value of ``series_key`` (a single block when it is None),
    each holding tab-separated columns ``x mean stddev n`` with x ascending.
    Any plotting tool that reads whitespace-separated columns can consume it.
    A ``nan`` or ``inf`` cell in any of the three columns is a ValueError.
    """
    for name in (x_axis, metric) + ((series_key,) if series_key else ()):
        if name not in results.columns:
            raise ValueError(f"unknown column {name!r}; available: "
                             f"{', '.join(results.columns)}")
    if "kind" not in results.columns:
        raise ValueError("not a sweep results file: it has no 'kind' column")

    # series -> x -> metric values, each level in first-seen order.
    groups: dict = {}
    for row in results.samples():
        if row.get("status") != "ok":
            continue
        # A nan cell would be a group of its own and would not sort.
        series = None if series_key is None else _finite(series_key,
                                                          row[series_key])
        x = _finite(x_axis, row[x_axis])
        values = groups.setdefault(series, {}).setdefault(x, [])
        value = row[metric]
        if value is None:
            continue
        if not isinstance(value, (int, float)):
            raise ValueError(f"column {metric!r} is not numeric: "
                             f"found {value!r}")
        values.append(_finite(metric, value))

    header = "x\tmean\tstddev\tn\n"
    blocks = []
    for series, xs in groups.items():
        block = header if series_key is None else (
            f"# series: {series_key}={_fmt_cell(series)}\n" + header)
        numeric = all(isinstance(x, (int, float)) for x in xs)
        order = sorted(xs) if numeric else list(xs)
        for x in order:
            mean, stddev = _mean_stddev(xs[x])
            block += (f"{_fmt_cell(x)}\t{_fmt_cell(mean)}\t"
                      f"{_fmt_cell(stddev)}\t{len(xs[x])}\n")
        blocks.append(block)
    return "\n".join(blocks) or header
