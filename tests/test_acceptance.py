"""Release gate: twelve end-to-end checks, one test per criterion.

Each test either verifies an exact identity, replays a deterministic run
against a closed-form oracle, or checks a trend across a parameter sweep.
Trend checks use five replications per point; "monotone" means the per-point
means are strictly ordered at the endpoints and the rank correlation against
the swept parameter has the stated sign across all points.

Sweep volumes are reduced from the packaged studies (fewer packets per run,
not fewer points or replications) to keep the gate's wall time in minutes;
the invariants and trends checked here do not depend on run length.
"""

import dataclasses
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpansim.csma import (ArmAckTimeout, CsmaParams, DeferToNextCap, DoCca,
                          Fail, IDLE_STATE, MacInput, Success, Transmit,
                          Wait, unslotted_step)
from wpansim.experiment import run_scenario_full, run_sweep, write_metrics_csv
from wpansim.kernel import SimulationError, seconds_to_symbols
from wpansim.phy import (ACK_AIRTIME, CCA_DURATION, TURNAROUND, UNIT_BACKOFF,
                         data_frame_airtime)
from wpansim.scenario import ScenarioSpec, SweepSpec, load_builtin
from wpansim.superframe import (SuperframeSchedule,
                                beacon_interval, duty_cycle, slotted_step,
                                superframe_duration)
from wpansim.trace import MacTrace

REPS = 5


# --------------------------------------------------------------- helpers


def _spearman(ys):
    """Rank correlation of ys against their positions (no ties expected
    in positions; ties in ys get average ranks)."""
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    xs = list(range(len(ys)))
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def _assert_monotone(means, direction, what):
    assert all(m is not None and math.isfinite(m) for m in means), \
        f"{what}: undefined mean in {means}"
    rho = _spearman(means)
    if direction == "increasing":
        assert means[0] < means[-1], \
            f"{what}: endpoints not increasing: {means}"
        assert rho > 0, f"{what}: rank correlation {rho:.2f} <= 0 for {means}"
    else:
        assert means[0] > means[-1], \
            f"{what}: endpoints not decreasing: {means}"
        assert rho < 0, f"{what}: rank correlation {rho:.2f} >= 0 for {means}"


def _reduced_sweep(name, axes, *, reps=REPS, **base_overrides):
    builtin = load_builtin(name)
    base = dataclasses.replace(builtin.base, **base_overrides)
    return SweepSpec(base=base, axes=axes, replications=reps,
                     seed_base=builtin.seed_base)


def _checked_table(sweep):
    """Run the sweep, requiring every sample to have completed."""
    table = run_sweep(sweep, jobs=2)
    assert all(r["status"] == "ok" for r in table.samples())
    return table


def _point_means(sweep, metric, table=None):
    """Return {axis-value-tuple: mean metric}, running the sweep unless
    its ``table`` is given."""
    if table is None:
        table = _checked_table(sweep)
    axis_names = [name for name, _ in sweep.axes]
    return {tuple(row[a] for a in axis_names): row[metric]
            for row in table.rows if row["kind"] == "mean"}


# -------------------------------------------------------------- criteria


def test_criterion_01_lone_device_delay_oracle():
    # One unsaturated device: delay = mean backoff (3.5 x 20) + CCA (8)
    # + 60-byte data frame (154) + turnaround (12) + ACK (22) = 266 symbols.
    spec = ScenarioSpec(mode="nonbeacon", n_devices=1, msdu=60,
                        interval_s=1.0, distribution="periodic",
                        quota=300, seed=101)
    metrics = run_scenario_full(spec).metrics
    assert metrics.packet_loss_rate == 0.0
    assert metrics.delivered == 300
    assert metrics.mean_delay_symbols == pytest.approx(266, rel=0.05)


def test_criterion_02_superframe_timing_identities():
    for bo in range(15):
        assert beacon_interval(bo) == 960 * 2 ** bo
        assert superframe_duration(bo) == 960 * 2 ** bo
        for so in range(bo + 1):
            assert duty_cycle(so, bo) == 2.0 ** (so - bo)


def test_criterion_03_conservation_across_the_builtin_suite():
    names = ["nonbeacon-defaults", "beacon-defaults", "s6-msdu",
             "s6-interval", "s6-maxnb", "s6-minbe", "s6-retries",
             "s7-maxnb", "s7-so", "s7-bo"]
    checked = 0
    for name in names:
        cfg = load_builtin(name)
        if isinstance(cfg, ScenarioSpec):
            sweep = SweepSpec(base=dataclasses.replace(cfg, quota=40)
                              if cfg.quota else
                              dataclasses.replace(cfg, run_time_s=20.0),
                              axes=(("msdu", (cfg.msdu,)),),
                              replications=1, seed_base=cfg.seed)
        else:
            base = (dataclasses.replace(cfg.base, quota=25)
                    if cfg.base.quota else
                    dataclasses.replace(cfg.base, run_time_s=5.0))
            sweep = SweepSpec(base=base, axes=cfg.axes, replications=1,
                              seed_base=cfg.seed_base)
        table = run_sweep(sweep, jobs=2)
        for row in table.samples():
            assert row["status"] == "ok", (name, row["error"])
            assert row["generated"] == (
                row["delivered"] + row["dropped_queue_overflow"]
                + row["dropped_channel_access"]
                + row["dropped_retry_exhausted"] + row["unresolved"]), \
                (name, row)
            checked += 1
    assert checked == 2 + 25 + 30 + 30 + 25 + 30 + 42 + 18 + 18


def _back_to_back_metrics_csvs(name):
    outputs = []
    for _ in range(2):
        result = run_scenario_full(load_builtin(name))
        buf = StringIO()
        write_metrics_csv([result.metrics], buf)
        outputs.append(buf.getvalue())
    return outputs


def test_criterion_04_reruns_are_byte_identical():
    # Each scenario's two runs go back to back in one worker process.
    names = ("nonbeacon-defaults", "beacon-defaults")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        outputs = list(pool.map(_back_to_back_metrics_csvs, names))
    for name, (first, second) in zip(names, outputs):
        assert first == second, name


def test_criterion_05_rate_and_loss_versus_msdu():
    msdu_axis = ("msdu", (20, 40, 60, 80, 100))
    for devices in (8, 32):
        sweep = _reduced_sweep("s6-msdu", (msdu_axis,), quota=250,
                               n_devices=devices)
        table = _checked_table(sweep)
        means = _point_means(sweep, "effective_data_rate_bps", table)
        rates = [means[(m,)] for m in msdu_axis[1]]
        _assert_monotone(rates, "increasing",
                         f"data rate vs MSDU at {devices} devices")
    # The loop ends on the 32-device sweep; its table also gives the loss.
    means = _point_means(sweep, "packet_loss_rate", table)
    losses = [means[(m,)] for m in msdu_axis[1]]
    _assert_monotone(losses, "increasing", "loss vs MSDU at 32 devices")


def test_criterion_06_long_intervals_relax_the_network():
    # Loss stays under 1% at 1 s and 10 s intervals for every device count.
    sweep = _reduced_sweep(
        "s6-interval",
        (("interval_s", (1, 10)), ("n_devices", (2, 4, 8, 16, 32))),
        quota=100)
    losses = _point_means(sweep, "packet_loss_rate")
    for point, loss in losses.items():
        assert loss < 0.01, f"loss {loss:.4f} at interval/devices {point}"
    # At 32 devices the delay at 1 s and 10 s is under a tenth of the
    # congested 0.01 s delay.
    sweep = _reduced_sweep("s6-interval", (("interval_s", (0.01, 1, 10)),),
                           quota=200, n_devices=32)
    delays = _point_means(sweep, "mean_delay_s")
    congested = delays[(0.01,)]
    assert delays[(1,)] < 0.10 * congested, (delays, congested)
    assert delays[(10,)] < 0.10 * congested, (delays, congested)


def test_criterion_07_min_backoff_exponent_tradeoff():
    sweep = _reduced_sweep("s6-minbe", (("min_be", (1, 2, 3, 4, 5)),),
                           quota=250, n_devices=32)
    table = _checked_table(sweep)
    delays = _point_means(sweep, "mean_delay_s", table)
    losses = _point_means(sweep, "packet_loss_rate", table)
    order = [(m,) for m in (1, 2, 3, 4, 5)]
    _assert_monotone([delays[k] for k in order], "increasing",
                     "delay vs MinBE at 32 devices")
    _assert_monotone([losses[k] for k in order], "decreasing",
                     "loss vs MinBE at 32 devices")


def test_criterion_08_order_pairs_and_access_attempts():
    pairs = ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (7, 6))
    sweep = _reduced_sweep("s7-maxnb", (("bo_so", pairs),),
                           run_time_s=40.0, max_nb=4)
    rates = _point_means(sweep, "effective_data_rate_bps")
    ordered = [rates[(f"{bo}-{so}",)] for bo, so in pairs]
    _assert_monotone(ordered, "increasing",
                     "data rate vs (BO,SO) at 50% duty cycle")

    sweep = _reduced_sweep("s7-maxnb", (("max_nb", (0, 1, 2, 3, 4, 5)),),
                           run_time_s=40.0)
    delays = _point_means(sweep, "mean_delay_s")
    ordered = [delays[(nb,)] for nb in range(6)]
    _assert_monotone(ordered, "increasing", "delay vs MaxNB at (7,6)")


def test_criterion_09_overload_saturates_every_superframe_order():
    so_axis = ("so", (1, 2, 3, 4, 5, 6))
    # At a 0.1 s interval the longer active portions drain the offered load:
    # loss falls as SO grows.
    sweep = _reduced_sweep("s7-so", (so_axis,), run_time_s=40.0,
                           interval_s=0.1)
    losses = _point_means(sweep, "packet_loss_rate")
    _assert_monotone([losses[(so,)] for so in so_axis[1]], "decreasing",
                     "loss vs SO at 0.1 s interval")
    # At a 0.01 s interval (800 packets/s offered) every CAP is saturated.
    # The model's rules cap what a saturated CAP can deliver, so that bound
    # is checked rather than a fixed loss floor (at SO 6 the cap still lets
    # loss fall to about 83%).  With T = data + turnaround + ACK symbols:
    #  - a frame goes out on the boundary after its second CCA, so its
    #    earliest start ("first") is 2 backoff periods after the CAP opens;
    #  - the whole transaction must end by SD (the deference rule);
    #  - delivered frames A then B start at least G apart, G the least
    #    grid offset at which B's frame overlaps neither of A's frames
    #    (any overlap corrupts both, the ACK included) and neither of B's
    #    CCA windows overlaps A's ACK (the coordinator at the centre is
    #    heard by every device, whoever else is hidden).  G = 240 at a
    #    60-byte MSDU.
    # A CAP thus delivers at most K = (SD - first - T) // G + 1 frames,
    # and a run at most K per beacon interval begun.  A saturated CAP that
    # doubles in length must also lose less.
    sweep = _reduced_sweep("s7-so", (so_axis,), run_time_s=40.0,
                           interval_s=0.01)
    table = _checked_table(sweep)
    losses = _point_means(sweep, "packet_loss_rate", table)
    _assert_monotone([losses[(so,)] for so in so_axis[1]], "decreasing",
                     "loss vs SO at 0.01 s interval")

    base = sweep.base
    data = data_frame_airtime(base.msdu)
    ack_start = data + TURNAROUND
    transaction = ack_start + ACK_AIRTIME

    def overlaps(start, end, frames):
        return any(start < f_end and f_start < end for f_start, f_end in frames)

    ack = ((ack_start, transaction),)
    gap = next(g for g in range(UNIT_BACKOFF, transaction + 4 * UNIT_BACKOFF,
                                UNIT_BACKOFF)
               if not overlaps(g, g + data, ((0, data),) + ack)
               and not any(overlaps(c, c + CCA_DURATION, ack)
                           for c in (g - 2 * UNIT_BACKOFF, g - UNIT_BACKOFF)))
    n_caps = math.ceil(seconds_to_symbols(base.run_time_s)
                       / beacon_interval(base.bo))
    for so in so_axis[1]:
        schedule = SuperframeSchedule(base.bo, so)
        first = schedule.cap_offset + 2 * UNIT_BACKOFF
        per_cap = (schedule.sd - first - transaction) // gap + 1
        for row in table.samples():
            if row["so"] == so:
                assert row["delivered"] <= n_caps * per_cap, \
                    (f"SO={so} replication {row['replication']} delivered "
                     f"{row['delivered']} > {n_caps} CAPs x {per_cap}")


def test_criterion_10_beacon_order_stretches_the_cycle():
    bo_axis = ("bo", (2, 3, 4, 5, 6, 7))
    sweep = _reduced_sweep("s7-bo", (bo_axis,), run_time_s=40.0,
                           interval_s=0.05)
    table = _checked_table(sweep)
    delays = _point_means(sweep, "mean_delay_s", table)
    rates = _point_means(sweep, "effective_data_rate_bps", table)
    _assert_monotone([delays[(bo,)] for bo in bo_axis[1]], "increasing",
                     "delay vs BO at SO=1")
    _assert_monotone([rates[(bo,)] for bo in bo_axis[1]], "decreasing",
                     "data rate vs BO at SO=1")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_criterion_11_machine_invariants_hold_on_random_walks(data):
    slotted = data.draw(st.booleans(), label="slotted")
    max_be = data.draw(st.integers(3, 8), label="max_be")
    params = CsmaParams(
        min_be=data.draw(st.integers(0, max_be), label="min_be"),
        max_be=max_be,
        max_nb=data.draw(st.integers(0, 5), label="max_nb"),
        max_frame_retries=data.draw(st.integers(0, 7), label="retries"),
        ack_enabled=data.draw(st.booleans(), label="ack"))
    defers_left = data.draw(st.integers(0, 3), label="defers")

    def fits():
        nonlocal defers_left
        if defers_left > 0 and data.draw(st.booleans(), label="fits"):
            defers_left -= 1
            return False
        return True

    def step(state, event):
        if slotted:
            if event is MacInput.CCA_IDLE and state.cw == 1 and not fits():
                event = MacInput.CCA_IDLE_NO_FIT
            return slotted_step(state, event, params)
        return unslotted_step(state, event, params)

    state, action = step(IDLE_STATE, MacInput.START_TX)
    transmissions = 0
    round_busies = round_ccas = 0
    outcomes = []
    for _ in range(200):          # every path terminates well before this
        if state.phase.name in ("BACKOFF", "CCA"):
            assert params.min_be <= state.be <= params.max_be, state
        assert state.cw in (0, 1, 2), state
        if isinstance(action, Wait):
            state, action = step(state, MacInput.BACKOFF_EXPIRED)
        elif isinstance(action, (DoCca, DeferToNextCap)):
            round_ccas += 1
            if data.draw(st.booleans(), label="busy"):
                round_busies += 1
                assert round_busies <= params.max_nb + 1
                state, action = step(state, MacInput.CCA_BUSY)
            else:
                state, action = step(state, MacInput.CCA_IDLE)
        elif isinstance(action, Transmit):
            transmissions += 1
            assert transmissions <= params.max_frame_retries + 1
            state, action = step(state, MacInput.TX_DONE)
        elif isinstance(action, ArmAckTimeout):
            if data.draw(st.booleans(), label="acked"):
                state, action = step(state, MacInput.ACK_RECEIVED)
            else:
                state, action = step(state, MacInput.ACK_TIMEOUT)
                round_busies = round_ccas = 0    # fresh channel access
        elif isinstance(action, (Success, Fail)):
            outcomes.append(action)
            break
        else:
            pytest.fail(f"unexpected action {action!r}")
        if not slotted:
            # one CCA per backoff stage: never more than MaxNB+1 per attempt
            assert round_ccas <= params.max_nb + 1
    assert len(outcomes) == 1, "walk did not terminate in one outcome"
    if isinstance(outcomes[0], Fail):
        assert outcomes[0].reason.name in ("CHANNEL_ACCESS_FAILURE",
                                           "RETRY_EXHAUSTED")
    # A finished frame accepts no further input.
    with pytest.raises(SimulationError):
        step(state, MacInput.TX_DONE)


def test_criterion_12_slotted_runs_stay_on_grid_and_inside_the_cap():
    trace = MacTrace()
    spec = ScenarioSpec(mode="beacon", n_devices=8, msdu=60,
                        interval_s=0.01, bo=3, so=2, run_time_s=5.0,
                        seed=112)
    result = run_scenario_full(spec, trace=trace)
    assert result.metrics.delivered > 100        # the check must have teeth
    bi, sd = beacon_interval(3), superframe_duration(2)

    ccas = trace.of_kind("cca-start")
    starts = trace.of_kind("tx-start")
    assert ccas and starts
    for ev in ccas + starts:
        assert (ev.time - (ev.sf * bi + 40)) % 20 == 0, ev

    # Containment: every instant of data and acknowledgement airtime lies in
    # the CAP band [40, SD] of its own superframe.  A frame straddling a
    # boundary would put its end in the next beacon (offset < 40) or in the
    # inactive portion (offset > SD), so these per-event checks also rule
    # out any overlap with inactive time; an acknowledgement closing exactly
    # on the CAP edge (offset == SD) is the latest a transaction may end.
    airtime = (starts + trace.of_kind("tx-end") + trace.of_kind("ack-start")
               + trace.of_kind("ack-end"))
    for ev in airtime:
        offset = ev.time - ev.sf * bi
        assert 40 <= offset <= sd, ev
