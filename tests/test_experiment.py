"""Sweep execution: seeding, row layout, aggregates, failure handling,
the results CSV round-trip, and plot-data extraction."""

import dataclasses
import os
import random
import select
import signal
import statistics
import sys
import time
import tracemalloc

import pytest

import wpansim.experiment as experiment
from wpansim.experiment import (METRIC_COLUMNS, ResultsTable, emit_plot_data,
                                read_results, replication_seed, run_scenario,
                                run_scenario_full, run_sweep)
from wpansim.scenario import ScenarioSpec, SweepSpec, load_builtin


def _tiny_sweep(**kwargs):
    base = ScenarioSpec(mode="nonbeacon", n_devices=2, msdu=60,
                        interval_s=0.05, quota=5)
    defaults = dict(base=base, axes=(("msdu", (20, 60)),),
                    replications=3, seed_base=17)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _children() -> set[int]:
    """Pids whose parent is this process, zombies included (read from /proc)."""
    me, pids = os.getpid(), set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:                       # not a pid, or gone meanwhile
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.add(int(entry))
    return pids


@pytest.fixture
def no_stray_workers():
    """Fail the test if a process it forked outlives it.  Children that were
    already there (a spawn pool's resource tracker) do not count."""
    before = _children()
    yield
    assert _children() == before


@pytest.fixture
def deadline():
    """Raise TimeoutError in this process after ``seconds``, so that a test
    whose sweep hangs fails instead; the SIGALRM handler is restored after."""
    def on_alarm(signum, frame):
        raise TimeoutError("the sweep did not return in time")

    def arm(seconds):
        signal.setitimer(signal.ITIMER_REAL, seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        yield arm
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_replication_seeds_are_stable_and_distinct():
    a = replication_seed(1, {"msdu": 20, "n_devices": 8}, 0)
    b = replication_seed(1, {"n_devices": 8, "msdu": 20}, 0)
    assert a == b                       # axis order never matters
    assert a.bit_length() <= 64
    others = {replication_seed(1, {"msdu": 20, "n_devices": 8}, r)
              for r in range(1, 6)}
    assert a not in others and len(others) == 5
    assert replication_seed(2, {"msdu": 20, "n_devices": 8}, 0) != a


def test_an_integral_float_axis_value_seeds_as_its_int():
    # interval_s 1 and 1.0 build equal specs, so they must run alike.
    one = replication_seed(1, {"interval_s": 1}, 0)
    assert one == replication_seed(1, {"interval_s": 1.0}, 0)
    # Pinned: a sweep that writes 1.0 seeded 10735898534650747953 while axis
    # values were hashed as written; it now seeds as a sweep that writes 1.
    assert one == 11712673213836344028
    assert one != replication_seed(1, {"interval_s": 1.5}, 0)


def test_run_scenario_is_deterministic_in_spec_and_seed():
    spec = ScenarioSpec(mode="nonbeacon", n_devices=4, interval_s=0.02,
                        quota=10, seed=33)
    assert run_scenario(spec) == run_scenario(spec)
    assert run_scenario(spec, seed=99) != run_scenario(spec)
    result = run_scenario_full(spec)
    assert result.metrics == run_scenario(spec)
    assert len(result.log) == result.metrics.generated


@pytest.mark.parametrize("spec", [
    load_builtin("beacon-defaults"),
    # The s7-so point at SO 1, 0.01 s: 99% of arrivals overflow, and a window
    # would hold each overflowed record behind the one in flight.
    dataclasses.replace(load_builtin("s7-so").base, so=1, interval_s=0.01),
], ids=["beacon-defaults", "s7-so-1-0.01s"])
def test_run_scenario_keeps_no_packet_records(spec):
    # Memory follows the packets in flight, not the length of the run: a
    # kept log would raise the peak by about 27 KB per simulated second.
    def peak(seconds):
        tracemalloc.start()
        try:
            run_scenario(dataclasses.replace(spec, run_time_s=seconds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(1.0)                  # the transition table is walked once per process
    assert abs(peak(40.0) - peak(10.0)) < 16 * 1024


def test_sweep_rows_follow_point_then_replication_order():
    table = run_sweep(_tiny_sweep())
    assert table.columns[:4] == ["point", "replication", "kind", "msdu"]
    assert table.columns[-2:] == ["status", "error"]
    shape = [(r["point"], r["replication"], r["kind"]) for r in table.rows]
    assert shape == [
        (0, 0, "sample"), (0, 1, "sample"), (0, 2, "sample"),
        (0, None, "mean"), (0, None, "stddev"),
        (1, 0, "sample"), (1, 1, "sample"), (1, 2, "sample"),
        (1, None, "mean"), (1, None, "stddev")]
    samples = table.samples()
    assert len(samples) == 6
    assert all(r["status"] == "ok" for r in samples)
    assert all(r["generated"] == 10 for r in samples)   # 2 devices x 5
    # The recorded seed is exactly the derived replication seed.
    assert samples[0]["seed"] == replication_seed(17, {"msdu": 20}, 0)


def test_sweep_output_is_independent_of_worker_count(no_stray_workers):
    sweep = _tiny_sweep()
    expected = run_sweep(sweep, jobs=1).to_csv()
    assert run_sweep(sweep, jobs=2).to_csv() == expected
    assert run_sweep(sweep, jobs=64).to_csv() == expected   # forks 6


def test_sweep_rows_stay_in_job_order_when_the_first_job_finishes_last(
        no_stray_workers):
    # The first point offers ten times the packets of each other point, so on
    # two workers the other three finish while it is still running.
    sweep = _tiny_sweep(axes=(("quota", (1500, 150, 151, 152)),),
                        replications=1)
    assert run_sweep(sweep, jobs=1).to_csv() == run_sweep(sweep, jobs=2).to_csv()


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    sizes = []

    def in_process(jobs_list, workers):
        """Records the worker count; forks nothing."""
        sizes.append(workers)
        return [experiment._run_job(job) for job in jobs_list]

    monkeypatch.setattr(experiment, "_run_forked", in_process)
    sweep = _tiny_sweep()                     # 2 points x 3 replications
    expected = run_sweep(sweep).to_csv()
    assert run_sweep(sweep, jobs=64).to_csv() == expected
    assert run_sweep(sweep, jobs=4).to_csv() == expected
    run_sweep(_tiny_sweep(axes=(("msdu", (20,)),), replications=1), jobs=8)
    assert sizes == [6, 4]                    # the one-run sweep ran in-process


def test_a_sweep_longer_than_one_index_write_runs_every_job(no_stray_workers):
    base = ScenarioSpec(mode="nonbeacon", n_devices=1, msdu=20,
                        interval_s=0.05, quota=1)
    sweep = SweepSpec(base=base, axes=(("msdu", tuple(range(20, 31))),),
                      replications=100, seed_base=4)
    assert 4 * 11 * 100 > select.PIPE_BUF     # the indices take two writes
    table = run_sweep(sweep, jobs=2)
    assert table.to_csv() == run_sweep(sweep, jobs=1).to_csv()
    assert [r["status"] for r in table.samples()] == ["ok"] * 1100


def test_a_worker_that_dies_is_an_error_naming_its_status(
        monkeypatch, no_stray_workers, deadline):
    real = experiment.run_scenario
    fatal_seed = replication_seed(17, {"msdu": 60}, 1)

    def fatal(spec, seed=None):
        if seed == fatal_seed:
            os._exit(3)                       # the whole worker ends here
        return real(spec, seed)

    monkeypatch.setattr(experiment, "run_scenario", fatal)
    deadline(30)
    with pytest.raises(ChildProcessError,
                       match=r"^sweep worker \d+ exited with status 3 before "
                             r"reporting its runs$"):
        run_sweep(_tiny_sweep(), jobs=2)


def test_an_interrupted_sweep_kills_and_reaps_its_workers(
        monkeypatch, no_stray_workers, deadline):
    monkeypatch.setattr(experiment, "run_scenario",
                        lambda spec, seed=None: time.sleep(60))
    deadline(0.5)                             # lands while both workers sleep
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        run_sweep(_tiny_sweep(), jobs=2)
    assert time.monotonic() - start < 10


def test_sweep_aggregates_average_the_samples():
    table = run_sweep(_tiny_sweep())
    point0 = [r for r in table.rows if r["point"] == 0]
    samples = [r for r in point0 if r["kind"] == "sample"]
    mean = next(r for r in point0 if r["kind"] == "mean")
    stddev = next(r for r in point0 if r["kind"] == "stddev")
    rates = [r["effective_data_rate_bps"] for r in samples]
    assert mean["effective_data_rate_bps"] == pytest.approx(sum(rates) / 3)
    assert stddev["effective_data_rate_bps"] >= 0.0
    assert mean["replication"] is None and mean["seed"] is None


def _aggregate_samples() -> list[list]:
    rnd = random.Random(22)
    lists = [[rnd.randrange(10**12) for _ in range(rnd.randrange(2, 9))]
             for _ in range(40)]
    for _ in range(40):
        base, scale = rnd.uniform(-1e6, 1e6), 10.0 ** rnd.randrange(-12, 4)
        lists.append([base + rnd.uniform(-scale, scale)
                      for _ in range(rnd.randrange(2, 9))])
    pool = [0.1, 1e-300, 1e300, 5e-324, 3, 2**60 + 1, -7.5]
    lists += [rnd.choices(pool, k=rnd.randrange(2, 6)) for _ in range(40)]
    return lists


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev is correctly rounded from 3.11")
def test_aggregate_equals_statistics_fmean_and_stdev():
    for values in _aggregate_samples():
        mean, stddev = experiment._mean_stddev(values)
        assert (mean, stddev) == (statistics.fmean(values), statistics.stdev(values))
        assert type(mean) is float and type(stddev) is float


def test_aggregate_pins_its_degenerate_cases():
    assert experiment._mean_stddev([0.3] * 5) == (0.3, 0.0)
    assert experiment._mean_stddev([4, 4]) == (4.0, 0.0)
    assert experiment._mean_stddev([7]) == (7.0, None)
    assert experiment._mean_stddev([]) == (None, None)


def test_failed_runs_are_rows_not_crashes(monkeypatch, no_stray_workers):
    real = experiment.run_scenario

    def flaky(spec, seed=None):
        if spec.msdu == 60:
            raise RuntimeError("injected fault")
        return real(spec, seed)

    monkeypatch.setattr(experiment, "run_scenario", flaky)
    table = run_sweep(_tiny_sweep())          # jobs=1 runs in-process
    # Forked workers inherit the patch, and send the same rows back.
    assert run_sweep(_tiny_sweep(), jobs=2).to_csv() == table.to_csv()
    failed = [r for r in table.rows if r["status"] == "failed"]
    assert len(failed) == 3
    assert all(r["error"] == "RuntimeError: injected fault" for r in failed)
    assert all(r[c] is None for r in failed for c in METRIC_COLUMNS)
    # Aggregates for the failed point hold no values at all.
    mean1 = next(r for r in table.rows
                 if r["point"] == 1 and r["kind"] == "mean")
    assert all(mean1[c] is None for c in METRIC_COLUMNS)
    # The healthy point still aggregates normally.
    mean0 = next(r for r in table.rows
                 if r["point"] == 0 and r["kind"] == "mean")
    assert mean0["effective_data_rate_bps"] > 0


def test_results_csv_round_trips(tmp_path):
    table = run_sweep(_tiny_sweep(replications=2))
    path = tmp_path / "results.csv"
    with open(path, "w") as f:
        table.write_csv(f)
    loaded = read_results(path)
    assert loaded.columns == table.columns
    assert len(loaded.rows) == len(table.rows)
    for mine, theirs in zip(table.rows, loaded.rows):
        for col in table.columns:
            assert mine.get(col) == theirs.get(col), col
    with pytest.raises(ValueError):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        read_results(empty)


def test_rewriting_a_reloaded_table_is_byte_identical(tmp_path):
    table = run_sweep(_tiny_sweep(replications=2))
    path = tmp_path / "results.csv"
    with open(path, "w") as f:
        table.write_csv(f)
    assert read_results(path).to_csv() == table.to_csv()


def test_plot_data_groups_and_sorts(tmp_path):
    base = ScenarioSpec(mode="nonbeacon", n_devices=2, msdu=60,
                        interval_s=0.05, quota=5)
    sweep = SweepSpec(base=base,
                      axes=(("n_devices", (4, 2)), ("msdu", (60, 20))),
                      replications=2, seed_base=3)
    table = run_sweep(sweep)
    text = emit_plot_data(table, "msdu", "effective_data_rate_bps",
                          series_key="n_devices")
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("# series: n_devices=4")
    assert blocks[1].startswith("# series: n_devices=2")
    for block in blocks:
        lines = block.splitlines()
        assert lines[1] == "x\tmean\tstddev\tn"
        xs = [float(line.split("\t")[0]) for line in lines[2:]]
        assert xs == sorted(xs)          # 20 before 60 despite axis order
        assert all(line.split("\t")[3] == "2" for line in lines[2:])


def test_plot_data_without_series_is_one_block():
    table = run_sweep(_tiny_sweep(replications=2))
    text = emit_plot_data(table, "msdu", "mean_delay_s")
    lines = text.splitlines()
    assert lines[0] == "x\tmean\tstddev\tn"
    assert len(lines) == 3


@pytest.mark.parametrize("cell", [float("nan"), float("inf")])
@pytest.mark.parametrize("column", ["x", "series"])
def test_plot_data_names_a_non_finite_x_or_series_cell(column, cell):
    # Each nan cell would be a group of its own, and x would not sort.
    table = run_sweep(_tiny_sweep(axes=(("interval_s", (0.04, 0.05, 0.06)),),
                                  replications=2))
    for row, x in zip(table.samples(), [2.0, cell, 1.0, cell, 2.0, 1.0]):
        row["interval_s"] = x
    columns = dict(x_axis="interval_s") if column == "x" else dict(
        x_axis="point", series_key="interval_s")
    with pytest.raises(ValueError, match=r"^column 'interval_s' holds a "
                                         rf"non-finite value: found {cell}$"):
        emit_plot_data(table, metric="mean_delay_s", **columns)


def test_plot_data_rejects_unknown_columns():
    table = run_sweep(_tiny_sweep(replications=2))
    with pytest.raises(ValueError):
        emit_plot_data(table, "msdu", "throughput")
    with pytest.raises(ValueError):
        emit_plot_data(table, "voltage", "mean_delay_s")


def test_plot_data_on_empty_results_is_just_a_header():
    table = ResultsTable(columns=["point", "kind", "msdu", "status",
                                  "mean_delay_s"], rows=[])
    assert emit_plot_data(table, "msdu", "mean_delay_s") == "x\tmean\tstddev\tn\n"


def test_run_sweep_validates_jobs(monkeypatch):
    with pytest.raises(ValueError):
        run_sweep(_tiny_sweep(), jobs=0)
    with pytest.raises(ValueError, match="^jobs must be positive, got -1$"):
        run_sweep(_tiny_sweep(), jobs=-1)
    ran = []
    monkeypatch.setattr(experiment, "run_scenario",
                        lambda spec, seed=None: ran.append(seed))
    for jobs in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="^jobs must be an integer, got "):
            run_sweep(_tiny_sweep(), jobs=jobs)
    monkeypatch.delattr(os, "fork")           # as on Windows
    with pytest.raises(ValueError, match="^jobs above 1 need os.fork, "):
        run_sweep(_tiny_sweep(), jobs=2)
    assert ran == []                          # rejected before any job ran
