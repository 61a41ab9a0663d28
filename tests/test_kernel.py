"""Event queue ordering, stop conditions, and seeded randomness."""

import math
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from wpansim import kernel
from wpansim.kernel import (SYMBOL_RATE, EventKind, Pcg64, RngManager, Scheduler,
                            SimulationError, StopReason, rng_exponential,
                            rng_uniform_units, seconds_to_symbols)


def test_symbol_conversions():
    assert SYMBOL_RATE == 62_500
    assert seconds_to_symbols(1.0) == 62_500
    assert seconds_to_symbols(0.05) == 3125
    assert seconds_to_symbols(1000.0) == 62_500_000


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    for t in (50, 10, 30, 20, 40):
        sched.at(t, fired.append, t)
    summary = sched.run()
    assert fired == [10, 20, 30, 40, 50]
    assert summary.stop_reason is StopReason.COMPLETED
    assert summary.end_time == 50
    assert summary.events_processed == 5


def test_equal_times_fire_in_insertion_order():
    sched = Scheduler()
    fired = []
    sched.at(100, fired.append, "a")
    sched.at(100, fired.append, "b")
    sched.at(100, fired.append, "c")
    sched.run()
    assert fired == ["a", "b", "c"]


def test_handler_may_schedule_at_the_current_instant():
    sched = Scheduler()
    fired = []

    def first(_):
        sched.at(sched.now, fired.append, "chained")

    sched.at(10, first)
    sched.run()
    assert fired == ["chained"]
    assert sched.now == 10


def test_scheduling_in_the_past_is_an_error():
    sched = Scheduler()
    sched.at(10, lambda _: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(5, lambda _: None)


def test_cancel_semantics():
    sched = Scheduler()
    fired = []
    handle = sched.at(10, fired.append, "x")
    assert sched.cancel(handle) is True
    assert sched.cancel(handle) is False      # already cancelled
    keeper = sched.at(20, fired.append, "y")
    sched.run()
    assert fired == ["y"]
    assert sched.cancel(keeper) is False      # already fired


def test_a_released_entry_keeps_the_fifo_place_it_was_held_in():
    sched = Scheduler()
    fired = []
    held = sched.hold(30, fired.append, "held")

    def later(_):
        sched.at(30, fired.append, "queued")
        sched.release(held)

    sched.at(10, later)
    summary = sched.run()
    assert fired == ["held", "queued"]
    assert summary.events_processed == 3


def test_releasing_an_entry_whose_time_has_passed_is_an_error():
    sched = Scheduler()
    held = sched.hold(5, lambda _: None)
    sched.at(10, lambda _: None)
    sched.run()
    with pytest.raises(SimulationError, match="released at 5 before current time 10"):
        sched.release(held)


def test_an_entry_never_released_never_fires_and_is_not_pending():
    sched = Scheduler()
    fired = []
    sched.hold(10, fired.append, "held")
    assert not sched.pending()
    sched.at(20, fired.append, "queued")
    assert sched.pending()
    summary = sched.run()
    assert fired == ["queued"]
    assert summary.events_processed == 1
    assert not sched.pending()


def test_until_stops_exactly_at_limit_without_firing_boundary_events():
    sched = Scheduler()
    fired = []
    sched.at(10, fired.append, "early")
    sched.at(100, fired.append, "at-limit")
    sched.at(150, fired.append, "late")
    summary = sched.run(until=100)
    assert fired == ["early"]
    assert summary.stop_reason is StopReason.TIME_LIMIT
    assert summary.end_time == 100
    assert sched.now == 100


def test_running_dry_with_a_pending_limit_reports_starvation():
    sched = Scheduler()
    sched.at(10, lambda _: None)
    summary = sched.run(until=1000)
    assert summary.stop_reason is StopReason.STARVED


def test_request_stop_halts_after_current_event():
    sched = Scheduler()
    fired = []

    def stopper(_):
        fired.append("stopper")
        sched.request_stop()

    sched.at(10, stopper)
    sched.at(20, fired.append, "never")
    summary = sched.run()
    assert fired == ["stopper"]
    assert summary.stop_reason is StopReason.STOPPED


def test_equal_time_events_keep_insertion_order_and_past_errors_name_the_kind():
    sched = Scheduler()
    fired = []
    # Kinds and targets do not affect the order of equal-time events.
    sched.at(9, fired.append, "arrival", kind=EventKind.ARRIVAL, target=3)
    sched.at(5, fired.append, "beacon", kind=EventKind.BEACON, target=0)
    sched.at(9, fired.append, "cap-end", kind=EventKind.CAP_END, target=0)
    sched.at(9, fired.append, "backoff", kind=EventKind.BACKOFF, target=1)
    sched.run()
    assert fired == ["beacon", "arrival", "cap-end", "backoff"]
    with pytest.raises(SimulationError, match="event tx-end scheduled at 8"):
        sched.at(8, fired.append, kind=EventKind.TX_END, target=2)


def test_beacon_grid_schedule():
    # A chain of events every 122880 symbols stays on the exact grid.
    sched = Scheduler()
    times = []

    def beacon(k):
        times.append(sched.now)
        if k < 4:
            sched.at(sched.now + 122_880, beacon, k + 1)

    sched.at(0, beacon, 0)
    sched.run()
    assert times == [0, 122_880, 245_760, 368_640, 491_520]


# ------------------------------------------------------------------ RNG


def _words(draws, n):
    return [draws.uint32() for _ in range(n)]


def test_same_seed_reproduces_draws():
    a = RngManager(42).draws("backoff", 3)
    b = RngManager(42).draws("backoff", 3)
    assert _words(a, 20) == _words(b, 20)


def test_streams_differ_across_purpose_key_and_master():
    base = _words(RngManager(42).draws("backoff", 1), 10)
    assert _words(RngManager(42).draws("backoff", 2), 10) != base
    assert _words(RngManager(42).draws("traffic", 1), 10) != base
    assert _words(RngManager(43).draws("backoff", 1), 10) != base


def test_stream_is_insensitive_to_other_streams():
    # Drawing from one node's stream must not shift another's sequence.
    mgr = RngManager(7)
    before = _words(mgr.draws("backoff", 5), 10)
    _words(mgr.draws("backoff", 4), 1000)
    _words(mgr.draws("traffic", 5), 1000)
    assert _words(mgr.draws("backoff", 5), 10) == before


def test_uniform_units_range_and_degenerate_exponent():
    rng = RngManager(1).draws("backoff")
    draws = [rng_uniform_units(rng, 3) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 7
    draws5 = [rng_uniform_units(rng, 5) for _ in range(5000)]
    assert min(draws5) == 0 and max(draws5) == 31
    assert all(rng_uniform_units(rng, 0) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        rng_uniform_units(rng, -1)
    with pytest.raises(ValueError):
        rng_uniform_units(rng, 33)


def test_exponential_interarrival_mean_and_floor():
    rng = RngManager(2).draws("traffic")
    n = 200_000
    draws = [rng_exponential(rng, 0.025) for _ in range(n)]
    mean = sum(draws) / n
    assert mean == pytest.approx(0.025 * SYMBOL_RATE, rel=0.01)  # 1562.5
    assert min(draws) >= 1
    with pytest.raises(ValueError):
        rng_exponential(rng, 0.0)


# Every golden output depends on these streams.  numpy 2.4.6's
# Generator(PCG64(SeedSequence(...))) is the oracle; wpansim does not import
# numpy, so a numpy release that changes its streams fails here and changes
# no simulator output.

SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]


def _entropy(seed, purpose, key):
    return [seed, kernel._PURPOSE_SALT, zlib.crc32(purpose.encode("ascii")), key]


def _numpy_stream(seed, purpose="traffic", key=0):
    seq = np.random.SeedSequence(_entropy(seed, purpose, key))
    return np.random.Generator(np.random.PCG64(seq))


def _oracle_units(gen, be):
    return 0 if be == 0 else int(gen.integers(0, 1 << be))


def _oracle_gap(gen, mean_s):
    return max(1, round(gen.exponential(mean_s) * SYMBOL_RATE))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", [0, 9])
def test_seeding_and_raw_words_match_numpy(seed, key):
    oracle = _numpy_stream(seed, "backoff", key)
    draws = RngManager(seed).draws("backoff", key)
    state = oracle.bit_generator.state["state"]
    assert draws.state == (state["state"], state["inc"], None)
    assert [draws.next64() for _ in range(1000)] == (
        oracle.bit_generator.random_raw(1000).tolist())


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_one_manager_derives_interleaved_streams_as_numpy_does(seed):
    # Above 32 bits a master shares one pool per purpose across its keys;
    # interleaving purposes must keep each key's stream its own.
    mgr = RngManager(seed)
    for key in (0, 1, 9, 33, 2**32 + 3):
        for purpose in ("backoff", "traffic", "placement"):
            state = _numpy_stream(seed, purpose, key).bit_generator.state["state"]
            expected = (state["state"], state["inc"], None)
            assert mgr.draws(purpose, key).state == expected
            assert RngManager(seed).draws(purpose, key).state == expected


def test_long_entropy_seeds_as_numpy_does():
    entropy = [2**200 + 17, 0, 5, 2**64 - 1, 12, 2**33]     # 14 words
    state = np.random.PCG64(np.random.SeedSequence(entropy)).state["state"]
    assert Pcg64(entropy).state == (state["state"], state["inc"], None)


@pytest.mark.parametrize("seed", SEEDS)
def test_32_bit_halves_match_numpy_across_word_boundaries(seed):
    oracle = _numpy_stream(seed, "backoff", 2)
    draws = RngManager(seed).draws("backoff", 2)
    # Odd counts leave a kept half behind, so later calls start mid-word.
    for n in (1, 2, 3, 64, 257):
        assert _words(draws, n) == oracle.integers(0, 2**32, n, dtype=np.uint32).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_numpy(seed):
    oracle = _numpy_stream(seed, "placement")
    draws = RngManager(seed).draws("placement")
    assert [draws.uniform(0, 2 * math.pi) for _ in range(500)] == (
        oracle.uniform(0, 2 * math.pi, 500).tolist())


def test_exponentials_match_numpy_through_both_slow_paths(monkeypatch):
    # Counts the ziggurat's rare branches: the idx == 0 tail calls log1p,
    # each wedge test calls exp, and a wedge rejection draws afresh.
    counts = {"tail": 0, "wedge": 0, "draws": 0}

    class CountingMath:
        def log1p(x):
            counts["tail"] += 1
            return math.log1p(x)

        def exp(x):
            counts["wedge"] += 1
            return math.exp(x)

    def counting_draw(self):
        counts["draws"] += 1
        return draw(self)

    draw = Pcg64.standard_exponential
    monkeypatch.setattr(kernel, "math", CountingMath)
    monkeypatch.setattr(Pcg64, "standard_exponential", counting_draw)
    n = 80_000
    for seed in SEEDS:
        draws = RngManager(seed).draws("traffic", 1)
        assert [draws.standard_exponential() for _ in range(n)] == (
            _numpy_stream(seed, "traffic", 1).standard_exponential(n).tolist())
    rejected = counts["draws"] - n * len(SEEDS)
    assert counts["tail"] >= 1
    assert rejected >= 1
    assert counts["wedge"] > rejected


@pytest.mark.parametrize("seed,key", [(1, 1), (421, 8), (2**63 + 5, 0)])
def test_backoff_draws_match_per_call_draws(seed, key):
    exponents = random.Random(seed).choices(range(9), k=7 * 32 + 3)
    oracle = _numpy_stream(seed, "backoff", key)
    draws = RngManager(seed).draws("backoff", key)
    assert ([rng_uniform_units(draws, be) for be in exponents]
            == [_oracle_units(oracle, be) for be in exponents])
    # Further draws, at the exponents the simulator draws most.
    for be in (1, 2, 3, 8) * 32:
        assert rng_uniform_units(draws, be) == _oracle_units(oracle, be)


@pytest.mark.parametrize("seed,key", [(2, 1), (422, 3), (2**63 + 5, 0)])
def test_exponential_draws_match_per_call_draws(seed, key):
    means = random.Random(seed).choices([1e-4, 0.01, 0.025, 0.05, 1.0, 10.0],
                                        k=5 * 32 + 7)
    oracle = _numpy_stream(seed, "traffic", key)
    draws = RngManager(seed).draws("traffic", key)
    gaps = [rng_exponential(draws, m) for m in means]
    assert gaps == [_oracle_gap(oracle, m) for m in means]
    assert all(type(g) is int for g in gaps)


def test_draws_are_taken_on_demand():
    draws = RngManager(3).draws("backoff")
    before = draws.state
    assert rng_uniform_units(draws, 0) == 0        # a zero exponent draws nothing
    assert draws.state == before
    rng_uniform_units(draws, 3)
    assert draws.state != before
    # One 64-bit output serves two 32-bit draws: the second steps nothing.
    stepped = draws.state
    assert stepped[2] is not None
    rng_uniform_units(draws, 3)
    assert draws.state == (stepped[0], stepped[1], None)


def test_wpansim_runs_without_loading_numpy(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text("mode: nonbeacon\nn_devices: 4\nquota: 5\nseed: 8\n"
                      "placement: random\n")
    script = f"""
import sys
import wpansim
assert "numpy" not in sys.modules, "import wpansim loaded numpy"
from wpansim.cli import main
assert main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "m.csv")!r},
             "--packet-log", {str(tmp_path / "p.csv")!r},
             "--trace", {str(tmp_path / "t.tsv")!r}]) == 0
for name in ("numpy", "hashlib", "json", "statistics"):
    assert name not in sys.modules, f"wpansim run loaded {{name}}"
"""
    _run_fresh(script)
    assert (tmp_path / "p.csv").read_text().count("\n") == 1 + 4 * 5


def test_a_sweep_and_its_plot_data_load_neither_statistics_nor_fractions():
    script = """
import sys
from wpansim import ScenarioSpec, SweepSpec, emit_plot_data, run_sweep
base = ScenarioSpec(mode="nonbeacon", n_devices=2, msdu=60, interval_s=0.05, quota=3)
sweep = SweepSpec(base=base, axes=(("msdu", (20, 60)),), replications=2, seed_base=5)
table = run_sweep(sweep, jobs=2)
assert "NA" not in emit_plot_data(table, "msdu", "mean_delay_s")
loaded = [name for name in ("statistics", "fractions") if name in sys.modules]
assert not loaded, f"a sweep loaded {loaded}"
"""
    _run_fresh(script)


def _run_fresh(script: str) -> None:
    """Run ``script`` in a new interpreter that imports wpansim from ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


def test_a_run_loads_neither_the_process_pool_nor_the_sweep_layer(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text("mode: nonbeacon\nn_devices: 4\nquota: 5\nseed: 8\n")
    script = f"""
import sys
import wpansim
wpansim.StarNetwork(n_devices=4, msdu=60, interval_s=0.02, quota=5, seed=1).run()
loaded = [name for name in ("multiprocessing", "concurrent.futures.process",
                            "wpansim.experiment", "wpansim.trace", "yaml")
          if name in sys.modules]
assert not loaded, f"a network run loaded {{loaded}}"
assert wpansim.load_builtin("nonbeacon-defaults").n_devices == 8
assert "yaml" not in sys.modules, "a packaged scenario loaded yaml"
from wpansim.cli import main
assert main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "m.csv")!r},
             "--trace", {str(tmp_path / "t.tsv")!r}]) == 0
assert "yaml" in sys.modules
assert "multiprocessing" not in sys.modules, "wpansim run --trace loaded multiprocessing"
from wpansim import run_sweep
import wpansim.experiment
assert run_sweep is wpansim.experiment.run_sweep
"""
    _run_fresh(script)
    assert (tmp_path / "t.tsv").is_file()


def test_a_parallel_sweep_loads_neither_multiprocessing_nor_concurrent_futures():
    script = """
import sys
from wpansim import ScenarioSpec, SweepSpec, run_sweep
base = ScenarioSpec(mode="nonbeacon", n_devices=2, msdu=60, interval_s=0.05, quota=3)
sweep = SweepSpec(base=base, axes=(("msdu", (20, 60)),), replications=2, seed_base=5)
assert run_sweep(sweep, jobs=2).to_csv() == run_sweep(sweep).to_csv()
loaded = [name for name in ("multiprocessing", "concurrent.futures", "pickle")
          if name in sys.modules]
assert not loaded, f"a parallel sweep loaded {loaded}"
"""
    _run_fresh(script)


def test_the_package_binds_every_public_name():
    import wpansim
    import wpansim.experiment

    namespace = {}
    exec("from wpansim import *", namespace)
    assert set(wpansim.__all__) <= namespace.keys()
    assert wpansim.run_sweep is wpansim.experiment.run_sweep
    assert not hasattr(wpansim, "no_such_name")
    from wpansim import cli, csma, metrics, network, scenario
    assert [m.__name__ for m in (cli, csma, metrics, network, scenario)] == [
        "wpansim.cli", "wpansim.csma", "wpansim.metrics", "wpansim.network",
        "wpansim.scenario"]
