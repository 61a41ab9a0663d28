"""End-to-end star-network runs: delivery timing, drop accounting,
stop conditions, determinism, and beacon-mode structure."""

import dataclasses
import gc
import hashlib
import math
import weakref
from collections import deque
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim.csma import CsmaParams, DropReason
from wpansim.experiment import run_scenario_full, write_metrics_csv
from wpansim.kernel import Scheduler, SimulationError, seconds_to_symbols
from wpansim.metrics import MetricsRow, discard, write_packet_log
from wpansim.network import Device, StarNetwork
from wpansim.phy import (ACK_AIRTIME, CCA_DURATION, TURNAROUND, UNIT_BACKOFF,
                         Transmission, data_frame_airtime)
from wpansim.scenario import ScenarioSpec, load_builtin
from wpansim.superframe import SuperframeSchedule
from wpansim.trace import MacTrace

from metrics_oracle import metrics_row
from test_transition_table import DEFERRING, small_networks

# A lone device with acknowledgements completes one transaction in
# CCA (8) + data frame for 60 B (154) + turnaround (12) + ACK (22) symbols
# past the end of its random backoff.
LONE_TX_TAIL = 8 + 154 + 12 + 22


def test_lone_device_delivers_everything_on_schedule():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", quota=50, seed=7).run()
    m = result.metrics
    assert m.generated == 50 and m.delivered == 50
    assert m.packet_loss_rate == 0.0
    assert m.unresolved == 0
    allowed = {LONE_TX_TAIL + 20 * k for k in range(8)}   # BE=3: 0..7 units
    assert {rec.rx_time - rec.gen_time for rec in result.log} <= allowed
    # Periodic arrivals land exactly one second apart per the symbol clock.
    gens = [rec.gen_time for rec in result.log]
    assert all(b - a == 62500 for a, b in zip(gens, gens[1:]))


def test_ackless_mode_delivers_at_frame_end():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", quota=10, seed=7,
                         csma_params=CsmaParams(ack_enabled=False)).run()
    assert result.metrics.delivered == 10
    allowed = {8 + 154 + 20 * k for k in range(8)}        # no turnaround/ACK
    assert {rec.rx_time - rec.gen_time for rec in result.log} <= allowed


def test_same_seed_reproduces_the_packet_log_exactly():
    def go():
        return StarNetwork(n_devices=8, msdu=60, interval_s=0.02,
                           quota=40, seed=123).run()
    a, b = go(), go()
    assert a.log == b.log
    assert a.metrics == b.metrics
    c = StarNetwork(n_devices=8, msdu=60, interval_s=0.02,
                    quota=40, seed=124).run()
    assert c.log != a.log


def test_saturation_produces_every_drop_kind():
    # A 100 m circle puts diametrically opposite devices out of carrier-sense
    # range of each other, so colliding retransmissions can exhaust retries
    # alongside the queue and channel-access drops that load alone causes.
    result = StarNetwork(n_devices=16, msdu=100, interval_s=0.005,
                         quota=60, seed=11, circle_radius_m=100.0).run()
    m = result.metrics
    assert m.dropped_queue_overflow > 0
    assert m.dropped_channel_access > 0
    assert m.dropped_retry_exhausted > 0
    assert m.generated == 16 * 60
    assert (m.delivered + m.dropped_queue_overflow + m.dropped_channel_access
            + m.dropped_retry_exhausted + m.unresolved) == m.generated


def test_timed_run_stops_exactly_and_closes_open_packets():
    result = StarNetwork(n_devices=8, msdu=60, interval_s=0.01,
                         run_time_s=0.5, seed=3).run()
    assert result.summary.end_time == seconds_to_symbols(0.5) == 31250
    assert result.metrics.t_end_symbols == 31250
    m = result.metrics
    assert m.unresolved > 0       # something was always in flight
    assert all(rec.rx_time is not None or rec.drop_reason is not None
               for rec in result.log)


def test_quota_run_resolves_every_packet():
    result = StarNetwork(n_devices=4, msdu=60, interval_s=0.02,
                         quota=25, seed=9).run()
    m = result.metrics
    assert m.generated == 100
    assert m.unresolved == 0
    assert m.delivered + (m.dropped_queue_overflow + m.dropped_channel_access
                          + m.dropped_retry_exhausted) == 100


def test_quota_run_whose_events_run_dry_is_an_error(monkeypatch):
    # A handler that loses its event strands the packet it served; the run
    # must not close the stranded packets as unresolved_at_end and pass.
    monkeypatch.setattr(StarNetwork, "_on_ack_timeout", lambda self, dev: None)
    net = StarNetwork(n_devices=8, msdu=60, interval_s=0.01, quota=50, seed=3)
    with pytest.raises(SimulationError, match="quota unmet"):
        net.run()


def test_beacon_quota_run_whose_events_run_dry_is_an_error(monkeypatch):
    # Superframes keep rescheduling themselves; once no device event is left
    # they must stop too, or the run never ends.
    monkeypatch.setattr(StarNetwork, "_on_ack_timeout", lambda self, dev: None)
    net = StarNetwork(mode="beacon", bo=4, so=3, n_devices=8, msdu=60,
                      interval_s=0.01, quota=50, seed=3)
    with pytest.raises(SimulationError, match="quota unmet"):
        net.run()


def test_slotted_transactions_end_by_the_cap_end_and_may_end_on_it():
    # At 66 B, data + turnaround + ACK is 200 symbols, on the 20-symbol grid,
    # so a transaction can end exactly on a CAP end.
    transaction = data_frame_airtime(66) + TURNAROUND + ACK_AIRTIME
    assert transaction == 200
    trace = MacTrace()
    StarNetwork(mode="beacon", bo=2, so=1, n_devices=8, msdu=66, interval_s=0.01,
                run_time_s=10.0, seed=5, trace=trace).run()
    schedule = SuperframeSchedule(2, 1)
    flush = 0
    for ev in trace.of_kind("tx-start"):
        cap_end = schedule.cap_end_for(ev.time)
        assert ev.time + transaction <= cap_end
        flush += ev.time + transaction == cap_end
    assert flush > 0
    defers = trace.of_kind("defer")
    assert defers
    for ev in defers:
        # The deferred frame would have gone out on the next boundary.
        tx_start = ev.time + UNIT_BACKOFF - CCA_DURATION
        assert tx_start + transaction > schedule.cap_end_for(ev.time)


def test_zero_capacity_queue_drops_every_arrival_while_busy():
    result = StarNetwork(n_devices=1, msdu=118, interval_s=0.0008,
                         queue_capacity=0, quota=200, seed=5).run()
    m = result.metrics
    assert m.dropped_queue_overflow > 0
    # Whatever is not dropped on arrival went straight into service.
    assert m.dropped_queue_overflow + m.delivered \
        + m.dropped_channel_access + m.dropped_retry_exhausted == 200


def test_unbounded_queue_never_overflows():
    result = StarNetwork(n_devices=8, msdu=100, interval_s=0.002,
                         queue_capacity=None, quota=50, seed=5).run()
    assert result.metrics.dropped_queue_overflow == 0


def test_unbounded_queue_is_fifo():
    sink, resolved = StringIO(), []
    StarNetwork(n_devices=8, msdu=100, interval_s=0.002, queue_capacity=None,
                quota=50, seed=5, trace=MacTrace(sink),
                packets=resolved.append).run()
    # The run is loaded enough that frames pile up behind the one in service.
    deepest = max(_deepest_wait(lines)
                  for lines in device_lines(sink.getvalue()).values())
    assert deepest >= 2
    # A device serves one frame at a time, so the packets it delivers
    # reach the coordinator in the order they arrived.
    rx_times = {}
    for rec in resolved:
        if rec.rx_time is not None:
            rx_times.setdefault(rec.node, []).append(rec.rx_time)
    assert all(times == sorted(times) for times in rx_times.values())


def test_queue_capacity_one_holds_a_single_waiting_frame():
    sink = StringIO()
    result = StarNetwork(n_devices=1, msdu=118, interval_s=0.0008,
                         queue_capacity=1, quota=200, seed=5,
                         trace=MacTrace(sink)).run()
    (lines,) = device_lines(sink.getvalue()).values()
    assert _deepest_wait(lines) == 1
    assert result.metrics.dropped_queue_overflow > 0
    # The newest arrival is the one dropped: a frame that got into the
    # queue is never pushed out of it.
    enqueued = {pkt for _, event, pkt, _ in lines if event == "enqueue"}
    assert enqueued
    for rec in result.log:
        if str(rec.packet_id) in enqueued:
            assert rec.drop_reason is not DropReason.QUEUE_OVERFLOW


def _deepest_wait(lines):
    """The most frames one device's trace lines show waiting at once."""
    waiting, deepest = set(), 0
    for _, event, pkt, _ in lines:
        if event == "enqueue":
            waiting.add(pkt)
            deepest = max(deepest, len(waiting))
        elif event == "backoff-start":
            waiting.discard(pkt)
    return deepest


def device_lines(trace_text):
    """node -> that device's trace lines as (time, event, pkt, note), in order."""
    lines = {}
    for line in trace_text.splitlines()[1:]:
        time, node, event, pkt, *_, note = line.split("\t")
        if node != "0":
            lines.setdefault(node, []).append((int(time), event, pkt, note))
    return lines


# Four busy devices whose queues hold up to three: arrivals overflow, and a
# device often has two or more waiting when its frame resolves.
DEEP_QUEUES = dict(n_devices=4, msdu=100, interval_s=0.004, queue_capacity=3,
                   run_time_s=0.5, seed=3)


@settings(max_examples=40, deadline=None)
@given(small_networks())
@example(DEEP_QUEUES)
@example(dict(DEEP_QUEUES, queue_capacity=None))
def test_the_queue_is_drop_tail_and_serves_the_oldest_first(kwargs):
    sink = StringIO()
    StarNetwork(**kwargs, trace=MacTrace(sink)).run()
    capacity = kwargs["queue_capacity"]
    bound = math.inf if capacity is None else capacity
    for lines in device_lines(sink.getvalue()).values():
        waiting, serving, expected = deque(), None, None
        for time, event, pkt, note in lines:
            # The line an arrival or a resolution calls for comes next.
            if expected is not None:
                assert (time, event, pkt) == expected[:3]
                assert expected[3] in (None, note)
            expected = None
            if event == "arrival":
                if serving is None:     # straight into service
                    assert not waiting
                    serving = pkt
                    expected = (time, "backoff-start", pkt, None)
                elif len(waiting) < bound:
                    expected = (time, "enqueue", pkt, None)
                else:
                    expected = (time, "drop", pkt, "queue_overflow")
            elif event == "enqueue":
                waiting.append(pkt)
                assert len(waiting) <= bound
            elif event in ("delivered", "drop") and pkt == serving:
                serving = waiting.popleft() if waiting else None
                if serving is not None:
                    expected = (time, "backoff-start", serving, None)


def test_beacon_mode_runs_a_superframe_cadence():
    trace = MacTrace()
    result = StarNetwork(mode="beacon", n_devices=4, msdu=60,
                         interval_s=0.05, bo=3, so=2, quota=20, seed=21,
                         trace=trace).run()
    assert result.metrics.delivered > 0
    bi = 960 * 2 ** 3
    beacons = [ev.time for ev in trace.of_kind("beacon-start")]
    assert beacons[:4] == [0, bi, 2 * bi, 3 * bi]
    # Half duty cycle: the coordinator announces sleep each superframe.
    sleeps = [ev.time for ev in trace.of_kind("sleep")]
    assert sleeps and all(t % bi == 960 * 2 ** 2 for t in sleeps)


def test_beacon_mode_with_full_duty_cycle_never_sleeps():
    trace = MacTrace()
    StarNetwork(mode="beacon", n_devices=2, msdu=60, interval_s=0.05,
                bo=2, so=2, quota=10, seed=22, trace=trace).run()
    assert not trace.of_kind("sleep")


def test_an_ack_may_end_as_the_next_beacon_starts_when_bo_equals_so():
    # At 6 B, data + turnaround + ACK is 80 symbols, on the 20-symbol grid,
    # so a transaction can end exactly on the CAP end, which at BO = SO is
    # the next superframe start: the coordinator sends its beacon as its ACK
    # ends.
    assert data_frame_airtime(6) + TURNAROUND + ACK_AIRTIME == 80
    trace = MacTrace()
    result = StarNetwork(mode="beacon", bo=0, so=0, n_devices=2, msdu=6,
                         interval_s=0.005, run_time_s=1.0, seed=0, trace=trace).run()
    assert result.summary.end_time == seconds_to_symbols(1.0)
    beacons = {ev.time for ev in trace.of_kind("beacon-start")}
    assert any(ev.time in beacons for ev in trace.of_kind("delivered"))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StarNetwork(msdu=119, quota=1)                  # above the MSDU cap
    with pytest.raises(ValueError):
        StarNetwork(msdu=0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", bo=3, so=4, quota=1)  # SO above BO
    with pytest.raises(ValueError):
        StarNetwork(mode="nonbeacon", bo=3, so=2, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(n_devices=0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(interval_s=0.0, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(quota=None, run_time_s=None)         # no stop condition
    with pytest.raises(ValueError):
        StarNetwork(distribution="uniform", quota=1)


def test_deadline_stops_the_run_at_exactly_run_time_s():
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0,
                         distribution="periodic", run_time_s=2.5,
                         seed=2).run()
    assert result.summary.end_time == seconds_to_symbols(2.5)
    assert result.metrics.delivered == 2     # arrivals at 1 s and 2 s
    # Exactly one stop condition, as in a scenario file.
    with pytest.raises(ValueError, match="mutually exclusive"):
        StarNetwork(quota=1000, run_time_s=2.5)
    with pytest.raises(ValueError, match="stop condition is required"):
        StarNetwork()


def test_mistyped_csma_params_fail_before_the_run():
    # An int-typed float reached the backoff draw's shift mid-run.
    with pytest.raises(ValueError, match="^min_be must be an integer"):
        StarNetwork(csma_params=CsmaParams(min_be=2.0), quota=1)


def test_a_run_is_at_least_one_symbol_long():
    with pytest.raises(ValueError, match="at least one symbol"):
        StarNetwork(run_time_s=1e-6)               # rounds to 0 symbols
    # A window with no packet in it still gets a row, from build_metrics.
    result = StarNetwork(run_time_s=0.001, interval_s=10).run()
    assert result.metrics == MetricsRow(0, 0, 0, 0, 0, 0, 0, 62,
                                        0.0, None, None, None)


def test_unset_keywords_take_the_scenario_defaults():
    result = StarNetwork(quota=1, interval_s=1.0, distribution="periodic").run()
    assert result.metrics.generated == ScenarioSpec(quota=1).n_devices


def test_mac_parameters_are_set_only_through_csma_params():
    with pytest.raises(TypeError):
        StarNetwork(min_be=2, quota=1)


def test_beacon_mode_requires_both_orders():
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", bo=3, quota=1)
    with pytest.raises(ValueError):
        StarNetwork(mode="beacon", so=2, quota=1)


def test_device_out_of_reach_loses_everything_to_retries():
    # A circle radius beyond communication range leaves the coordinator
    # unreachable: every frame goes unacknowledged until retries run out.
    result = StarNetwork(n_devices=1, msdu=60, interval_s=1.0, quota=3,
                         seed=1, circle_radius_m=600.0).run()
    m = result.metrics
    assert m.delivered == 0
    assert m.dropped_retry_exhausted == 3
    assert m.packet_loss_rate == 1.0
    # Four transmissions per packet: the original and three retries.
    assert all(rec.tx_count == 4 for rec in result.log)


def test_random_placement_outputs_are_pinned(tmp_path):
    # No golden run places devices at random.  On a 100 m circle some pairs
    # are out of each other's 176 m range, so the drawn angles decide who
    # hears whom and every output byte depends on the placement stream.
    net = StarNetwork(placement="random", circle_radius_m=100.0, n_devices=16,
                      interval_s=0.05, quota=40, seed=2024)
    devices = range(1, 17)
    assert any(b not in net.medium._hears[a] for a in devices for b in devices)
    result = net.run()
    buf = StringIO()
    write_metrics_csv([result.metrics], buf)
    with open(tmp_path / "packets.csv", "w", newline="") as fh:
        write_row = write_packet_log(fh)
        for rec in result.log:
            write_row(rec)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "11a9393bce8210be9dd7a41509f56741185d4ec7fa51ca28f749f5954d1221cb")
    assert hashlib.sha256((tmp_path / "packets.csv").read_bytes()).hexdigest() == (
        "a3fb52a9e497b56b63cd545da76bbb0b39d4904bbc8cb9f6c13dcc86efec28d0")


def test_every_queued_event_fires_or_is_left_pending(monkeypatch):
    # An ACK timeout is queued only once no intact ACK can arrive, so no
    # cancelled entry costs the heap a push and a pop.
    queued, scheds = [0], []

    def counted(method):
        def wrapper(self, *args, **kwargs):
            queued[0] += 1
            scheds.append(self)
            return method(self, *args, **kwargs)
        return wrapper
    monkeypatch.setattr(Scheduler, "at", counted(Scheduler.at))
    monkeypatch.setattr(Scheduler, "release", counted(Scheduler.release))
    spec = dataclasses.replace(load_builtin("nonbeacon-defaults"), quota=200)
    result = run_scenario_full(spec)
    assert len(set(map(id, scheds))) == 1
    live = sum(entry[2] is not None for entry in scheds[0]._heap)
    assert result.metrics.delivered > 0
    assert queued[0] == result.summary.events_processed + live


@pytest.mark.parametrize("kwargs", [
    dict(n_devices=8, msdu=60, interval_s=0.01, quota=25, seed=9),
    # Stops on its time limit with an ACK in flight, its timeout held.
    dict(n_devices=8, msdu=60, interval_s=0.01, run_time_s=0.055, seed=9),
    DEFERRING,
], ids=["nonbeacon", "ack-in-flight", "deferring"])
def test_a_finished_network_is_freed_without_the_cycle_collector(kwargs):
    # The shared transition table holds no network, a finished run drops
    # its pending events and held ACK timeouts, and a transmission holds the
    # senders of the frames it overlapped, not the frames, so neither a
    # network nor its collided frames wait for the cycle collector.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()
    try:
        net = StarNetwork(**kwargs)
        log = net.run().log
        assert any(rec.tx_count > 1 for rec in log)      # frames collided
        ref = weakref.ref(net)
        del net, log
        assert ref() is None
        gc.collect()
        cyclic = {type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, (StarNetwork, Device, Transmission))}
        assert not cyclic
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# Eight devices on a 100-m circle: neighbours hear each other, while devices
# three or four places apart are hidden pairs.  Unslotted, a neighbour's CCA
# may fall in the turnaround before an ACK and its frame then corrupts it;
# a slotted CCA pair cannot both fall there, so slotted ACKs always arrive.
ACK_COLLIDING = [dict(msdu=20, interval_s=0.02, run_time_s=0.3, seed=seed)
                 for seed in (1, 2, 3)] + [
    dict(msdu=20, interval_s=0.02, quota=60, seed=4),
    dict(mode="beacon", bo=3, so=2, msdu=20, interval_s=0.02, run_time_s=0.5, seed=1),
    dict(mode="beacon", bo=1, so=0, msdu=60, interval_s=0.01, run_time_s=0.3, seed=2),
]


@pytest.mark.parametrize("kwargs", ACK_COLLIDING)
def test_an_ack_ends_only_for_a_device_that_awaits_it(kwargs):
    # The ACK handler feeds ACK_RECEIVED without checking the device's phase
    # or packet: an ACK starts only a turnaround after an intact data frame,
    # whose device then waits for it, its timeout held, and does nothing else
    # with that packet until the ACK ends.
    sink = StringIO()
    result = StarNetwork(n_devices=8, circle_radius_m=100.0, **kwargs,
                         trace=MacTrace(sink)).run()
    by_packet: dict = {}
    for line in sink.getvalue().splitlines()[1:]:
        time, node, event, pkt, *_, note = line.split("\t")
        by_packet.setdefault(pkt, []).append((int(time), node, event, note))
    # An ACK ends a turnaround (12) and its airtime (22) after the data frame;
    # the device's timeout falls macAckWaitDuration (54) after the frame.
    ack_end, timeout = 34, 20
    seen = []
    for lines in by_packet.values():
        for i, (time, node, event, _) in enumerate(lines):
            if event != "ack-end":
                continue
            own = [line for line in lines[:i] if line[1] != "0"]
            assert own[-1][0] == time - ack_end and own[-1][2:] == ("tx-end", "intact")
            if i + 1 == len(lines):     # the run stopped before the ACK resolved
                assert result.summary.end_time < time + timeout
                continue
            next_time, _, next_event, _ = lines[i + 1]
            assert (next_event, next_time) in (("delivered", time),
                                               ("ack-timeout", time + timeout))
            seen.append(next_event)
    assert "delivered" in seen
    if kwargs.get("mode") != "beacon" and "quota" not in kwargs:
        assert "ack-timeout" in seen        # some ACK was corrupted


@st.composite
def quota_or_timed_networks(draw):
    kwargs = draw(small_networks())
    if draw(st.booleans()):
        kwargs.update(run_time_s=None, quota=draw(st.integers(1, 6)))
    return kwargs


# Time-limited runs that end with packets in flight (16 and 2 unresolved).
IN_FLIGHT = [dict(n_devices=4, msdu=60, interval_s=0.004, queue_capacity=3,
                  run_time_s=0.3, seed=3), DEFERRING]


@settings(max_examples=30, deadline=None)
@given(quota_or_timed_networks())
@example(dict(n_devices=4, msdu=60, interval_s=0.004, queue_capacity=3, quota=6, seed=3))
@example(IN_FLIGHT[0])
@example(dict(DEFERRING, run_time_s=None, quota=5))
@example(IN_FLIGHT[1])
def test_a_sink_gets_the_kept_log_in_order_as_the_records_resolve(kwargs):
    kept = StarNetwork(**kwargs).run()
    handed, at = [], []
    net = StarNetwork(**kwargs, packets=lambda rec: (handed.append(rec),
                                                     at.append(net.sched.now)))
    streamed = net.run()
    assert streamed.log == [] and handed == kept.log
    assert [rec.packet_id for rec in handed] == list(range(len(handed)))
    # Without a window (a discarding run) the row is the same.
    discarded = StarNetwork(**kwargs, packets=discard).run()
    assert discarded.log == [] and discarded.summary == kept.summary
    assert streamed.metrics == kept.metrics == discarded.metrics
    if kwargs in IN_FLIGHT:
        assert kept.metrics.unresolved > 0
    t_start = kept.log[0].gen_time if kept.log else 0
    assert kept.metrics == metrics_row(kept.log, t_start, kept.summary.end_time)
    # Each record is handed on the moment it and every earlier one have
    # resolved.  A delivery resolves at its rx time, an overflow on arrival
    # and an unresolved packet at the end; other drops leave no time.
    end = streamed.summary.end_time
    latest = 0
    for rec, when in zip(handed, at):
        if rec.rx_time is not None:
            latest = max(latest, rec.rx_time)
        elif rec.drop_reason is DropReason.QUEUE_OVERFLOW:
            latest = max(latest, rec.gen_time)
        elif rec.drop_reason is DropReason.UNRESOLVED_AT_END:
            latest = end
        else:
            latest = None
        if latest is None:
            break
        assert when == latest
    assert at == sorted(at) and all(when <= end for when in at)
