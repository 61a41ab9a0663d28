"""Property-based checks for the randomized and arithmetic-heavy corners."""

import math
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim.csma import DropReason, MacQueue
from wpansim.kernel import RngManager, rng_exponential, rng_uniform_units
from wpansim.metrics import PacketRecord, build_metrics
from wpansim.phy import CCA_DURATION, COMM_RANGE_M, Medium
from wpansim.superframe import SuperframeSchedule

from metrics_oracle import (DROPS, effective_data_rate, mean_end_to_end_delay,
                            outcome_counts, packet_loss_rate)

UNIT = 20


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_uniform_backoff_draw_stays_in_its_window(be, seed):
    rng = RngManager(seed).draws("draws")
    for _ in range(20):
        units = rng_uniform_units(rng, be)
        assert 0 <= units <= 2 ** be - 1


@given(st.floats(min_value=1e-4, max_value=100.0), st.integers(min_value=0, max_value=2**32))
def test_exponential_gaps_are_positive_whole_symbols(mean_s, seed):
    rng = RngManager(seed).draws("gaps")
    gap = rng_exponential(rng, mean_s)
    assert isinstance(gap, int) and gap >= 1


@given(st.lists(st.one_of(st.just("pop"), st.integers(min_value=0, max_value=999)),
                max_size=60),
       st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
def test_queue_tracks_a_reference_deque(ops, capacity):
    q = MacQueue(capacity)
    model = deque()
    for op in ops:
        if op == "pop":
            if model:
                assert q.pop() == model.popleft()
            else:
                assert len(q) == 0
        else:
            accepted = q.offer(op)
            if capacity is None or len(model) < capacity:
                assert accepted
                model.append(op)
            else:
                assert not accepted      # newest arrival is the one dropped
        assert len(q) == len(model)
        if capacity is not None:
            assert len(q) <= capacity


@st.composite
def schedule_and_time(draw):
    bo = draw(st.integers(min_value=0, max_value=7))
    so = draw(st.integers(min_value=0, max_value=bo))
    sched = SuperframeSchedule(bo, so)
    t = draw(st.integers(min_value=0, max_value=5 * sched.bi))
    units = draw(st.integers(min_value=0, max_value=200))
    return sched, t, units


def pause_end(sched, t, units):
    """Where ``units`` whole in-CAP backoff periods, counted from the first
    boundary at or after ``t``, run out: the countdown with its pauses over
    beacons and inactive portions, and no carry-over, so it may end on a CAP
    end."""
    k = sched.index_at(t)
    cap_start, cap_end = sched.cap_bounds(k)
    b = max(-(-t // UNIT) * UNIT, cap_start)
    while True:
        if b <= cap_end:
            avail = (cap_end - b) // UNIT
            if units <= avail:
                return b + units * UNIT
            units -= avail
        k += 1
        b, cap_end = sched.cap_bounds(k)


def countdown_oracle(sched, t, units):
    """``pause_end``, then the carry rule as a check at the expiry instant:
    outside the CAP of that instant's superframe, or too close to its end for
    the two CCAs (the second must resolve before the CAP closes), the
    countdown moves on to the next CAP opening and is checked there again."""
    end = pause_end(sched, t, units)
    while True:
        cap_start, cap_end = sched.cap_bounds(sched.index_at(end))
        if cap_start <= end and end + UNIT + CCA_DURATION < cap_end:
            return end
        end = sched.next_cap_start(end)


@settings(max_examples=300)
@given(schedule_and_time())
@example((SuperframeSchedule(0, 0), 40, 46))    # pauses to a superframe start, BO = SO
@example((SuperframeSchedule(1, 1), 40, 94))
@example((SuperframeSchedule(0, 0), 941, 0))    # zero units, first boundary the CAP end
@example((SuperframeSchedule(2, 1), 1905, 0))
@example((SuperframeSchedule(2, 1), 1880, 1))   # one period short of the CAP end
@example((SuperframeSchedule(2, 1), 10, 3))     # starts in the beacon
@example((SuperframeSchedule(0, 0), 960, 0))
@example((SuperframeSchedule(2, 1), 2500, 1))   # starts in the inactive portion
@example((SuperframeSchedule(3, 0), 7000, 60))
def test_countdown_lands_on_an_in_cap_boundary(args):
    sched, t, units = args
    end = sched.countdown_end(t, units)
    assert end == countdown_oracle(sched, t, units)
    assert end >= t
    assert end % UNIT == 0
    # Inside a CAP, with the two periods of the CCA pair to spare.
    assert sched.in_cap(end)
    assert end + 2 * UNIT <= sched.cap_end_for(end)


@settings(max_examples=200)
@given(schedule_and_time())
def test_countdown_is_monotone_in_units(args):
    sched, t, units = args
    assert pause_end(sched, t, units + 1) >= pause_end(sched, t, units) + UNIT
    assert sched.countdown_end(t, units + 1) >= sched.countdown_end(t, units)


@settings(max_examples=200)
@given(schedule_and_time())
# Zero-length countdowns whose first boundary is the CAP end.
@example((SuperframeSchedule(0, 0), 941, 0))
@example((SuperframeSchedule(2, 1), 1905, 0))
def test_countdown_is_exact_when_the_cap_has_room(args):
    sched, t, units = args
    k = sched.index_at(t)
    cap_start, cap_end = sched.cap_bounds(k)
    b = max(-(-t // UNIT) * UNIT, cap_start)
    if b <= cap_end and units <= (cap_end - b) // UNIT:
        end = b + units * UNIT
        # Room for the CCA pair too, or the countdown expires at the next CAP.
        expected = end if end + 2 * UNIT <= cap_end else sched.cap_bounds(k + 1)[0]
        assert sched.countdown_end(t, units) == expected


_OUTCOMES = st.sampled_from(["delivered"] + [r for r in DropReason])


@given(st.lists(_OUTCOMES, min_size=1, max_size=200))
def test_outcome_counts_partition_any_log(outcomes):
    log = []
    for i, outcome in enumerate(outcomes):
        if outcome == "delivered":
            log.append(PacketRecord(i, 0, i * 10, 60, rx_time=i * 10 + 266))
        else:
            log.append(PacketRecord(i, 0, i * 10, 60, drop_reason=outcome))
    row = build_metrics(log, 0, 1)
    dropped = (row.dropped_queue_overflow, row.dropped_channel_access,
               row.dropped_retry_exhausted)
    assert row.generated == len(log)
    assert row.delivered + sum(dropped) + row.unresolved == row.generated
    assert row.delivered == outcomes.count("delivered")
    assert row.unresolved == outcomes.count(DropReason.UNRESOLVED_AT_END)
    counts = outcome_counts(log)
    assert dropped == tuple(counts[reason] for reason in DROPS)


@given(st.lists(st.tuples(_OUTCOMES, st.integers(min_value=1, max_value=118),
                          st.integers(min_value=0, max_value=10**6)),
                max_size=200),
       st.integers(min_value=1, max_value=10**9))
def test_one_pass_metrics_equal_the_single_metric_functions(packets, window):
    log = []
    for i, (outcome, msdu, delay) in enumerate(packets):
        if outcome == "delivered":
            log.append(PacketRecord(i, 0, i * 7, msdu, rx_time=i * 7 + delay))
        else:
            log.append(PacketRecord(i, 0, i * 7, msdu, drop_reason=outcome))
    row = build_metrics(log, 0, window)
    assert row.effective_data_rate_bps == effective_data_rate(log, 0, window)
    assert row.packet_loss_rate == packet_loss_rate(log)
    assert row.mean_delay_s == mean_end_to_end_delay(log)
    assert row.delivered == outcome_counts(log)["delivered"]


_COORD = st.floats(min_value=-400.0, max_value=400.0, allow_nan=False)


@given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=12))
def test_precomputed_audibility_equals_the_distance_test(points):
    med = Medium()
    for node_id, (x, y) in enumerate(points):
        med.add_node(node_id, x, y)
    for a, (ax, ay) in enumerate(points):
        assert a in med._hears[a]       # heard_intact's half-duplex rule needs it
        for b, (bx, by) in enumerate(points):
            assert (b in med._hears[a]) == (math.hypot(ax - bx, ay - by) <= COMM_RANGE_M)
