"""Superframe timing identities and the slotted CSMA-CA contention window."""

import pytest

from wpansim.csma import (CsmaParams, DeferToNextCap, DoCca, IDLE_STATE,
                          MacInput, Phase, Transmit, Wait)
from wpansim.kernel import SimulationError
from wpansim.superframe import (SuperframeSchedule,
                                beacon_interval, duty_cycle, slotted_step,
                                superframe_duration)
from wpansim.trace import MacTrace


def test_interval_and_duration_identities():
    assert beacon_interval(0) == 960
    assert superframe_duration(0) == 960
    assert beacon_interval(7) == 122880
    assert superframe_duration(6) == 61440
    assert beacon_interval(14) == 15728640
    assert duty_cycle(6, 7) == 0.5
    assert duty_cycle(0, 14) == 2.0 ** -14
    assert duty_cycle(5, 5) == 1.0


def test_order_ranges_are_enforced():
    with pytest.raises(ValueError):
        beacon_interval(15)
    with pytest.raises(ValueError):
        superframe_duration(-1)
    with pytest.raises(ValueError):
        duty_cycle(8, 7)           # SO above BO
    with pytest.raises(ValueError, match="so must not exceed bo"):
        SuperframeSchedule(7, 8)
    with pytest.raises(ValueError, match="bo must be <= 14"):
        SuperframeSchedule(15, 2)


def test_config_exposes_derived_quantities():
    schedule = SuperframeSchedule(7, 6)
    assert schedule.bi == beacon_interval(7) == 122880
    assert schedule.sd == superframe_duration(6) == 61440
    assert schedule.sd / schedule.bi == duty_cycle(6, 7) == 0.5


def _sched(bo, so):
    return SuperframeSchedule(bo, so)


def test_cap_opens_on_the_first_boundary_after_the_beacon():
    s = _sched(2, 1)
    assert s.cap_offset == 40              # 38-symbol beacon rounded up
    assert s.cap_bounds(0) == (40, 1920)
    assert s.cap_bounds(1) == (3880, 5760)  # BI = 3840


def test_so_zero_leaves_too_little_cap():
    # 960 - 40 = 920 symbols < the 440-symbol minimum CAP?  No: 920 >= 440,
    # so SO=0 is fine; nothing in range 0..14 violates the floor here.
    s = _sched(0, 0)
    assert s.sd - s.cap_offset >= 440
    assert s.slot_len == 60
    assert _sched(6, 6).slot_len == 3840


def test_in_cap_boundaries_are_half_open():
    s = _sched(2, 1)                       # CAP [40, 1920), BI 3840
    assert not s.in_cap(39)
    assert s.in_cap(40)
    assert s.in_cap(1919)
    assert not s.in_cap(1920)              # CAP end excluded
    assert not s.in_cap(2000)              # inactive portion
    assert s.in_cap(3880 + 5)


def test_next_cap_start_rolls_to_the_following_superframe():
    s = _sched(2, 1)
    assert s.next_cap_start(0) == 40
    assert s.next_cap_start(40) == 40      # exactly at opening: this CAP
    assert s.next_cap_start(41) == 3880
    assert s.next_cap_start(1920) == 3880
    assert s.next_cap_start(3000) == 3880


def test_cap_end_lookup_rejects_times_outside_any_cap():
    s = _sched(2, 1)
    assert s.cap_end_for(40) == 1920
    assert s.cap_end_for(1919) == 1920
    with pytest.raises(ValueError):
        s.cap_end_for(20)                  # inside the beacon
    with pytest.raises(ValueError):
        s.cap_end_for(1920)
    with pytest.raises(ValueError):
        s.cap_end_for(2500)                # asleep


def test_countdown_pauses_over_the_inactive_portion():
    s = _sched(2, 1)                       # CAP [40, 1920), next [3880, 5760)
    # From 1880 only two whole periods remain in this CAP; a five-period
    # countdown carries the remaining three into the next CAP.
    assert s.countdown_end(1880, 5) == 3880 + 3 * 20
    # A countdown that consumes the tail of the CAP leaves no room for the
    # CCA pair, so it expires at the next CAP opening.
    assert s.countdown_end(1880, 2) == 3880
    assert s.countdown_end(1880, 1) == 3880
    # Exactly two periods left: the pair fits.
    assert s.countdown_end(1880, 0) == 1880
    # A zero-length countdown whose first boundary is the CAP end is carried
    # over to the next CAP too.
    assert s.countdown_end(1905, 0) == 3880
    # Unaligned start rounds up to the grid before counting.
    assert s.countdown_end(1885, 1) == 3880
    assert s.countdown_end(1845, 1) == 1880
    # A start during sleep counts from the next CAP opening.
    assert s.countdown_end(2500, 1) == 3900
    with pytest.raises(ValueError):
        s.countdown_end(100, -1)


def test_countdown_carries_over_at_a_superframe_start_when_bo_equals_so():
    s = _sched(0, 0)                       # CAP [40, 960), next [1000, 1920)
    assert s.countdown_end(40, 44) == 920
    assert s.countdown_end(40, 45) == 1000
    assert s.countdown_end(40, 46) == 1000  # would end on the superframe start
    assert s.countdown_end(941, 0) == 1000
    assert s.countdown_end(960, 0) == 1000  # in the beacon


def test_countdown_spans_multiple_superframes_when_needed():
    s = _sched(2, 1)                       # 94 whole periods per CAP
    per_cap = (1920 - 40) // 20
    assert s.countdown_end(40, per_cap - 2) == 1880
    assert s.countdown_end(40, per_cap) == 3880
    assert s.countdown_end(40, per_cap + 1) == 3880 + 20
    assert s.countdown_end(40, 2 * per_cap + 7) == 2 * 3840 + 40 + 7 * 20


def test_slot_index_annotation():
    trace = MacTrace()
    trace.use_schedule(_sched(2, 1))       # slot_len 120
    times = [0, 119, 120, 1919, 3840 + 240]   # the last in the second superframe
    for t in times:
        trace.add(t, 0, "arrival")
    assert [ev.slot for ev in trace] == [0, 0, 1, 15, 2]


# ------------------------------------------------- slotted contention window


def _walk(events, fits=None, params=None):
    params = params or CsmaParams()
    state = IDLE_STATE
    actions = []
    for event in events:
        if event is MacInput.CCA_IDLE and state.cw == 1 and not fits():
            event = MacInput.CCA_IDLE_NO_FIT
        state, action = slotted_step(state, event, params)
        actions.append(action)
    return state, actions


def test_two_idle_ccas_precede_a_slotted_transmit():
    state, actions = _walk([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                            MacInput.CCA_IDLE, MacInput.CCA_IDLE],
                           fits=lambda: True)
    assert isinstance(actions[1], DoCca)
    assert isinstance(actions[2], DoCca)       # CW 2 -> 1: second CCA
    assert isinstance(actions[3], Transmit)
    assert state.phase is Phase.TRANSMITTING


def test_busy_cca_resets_the_contention_window():
    params = CsmaParams()
    state, _ = _walk([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                      MacInput.CCA_IDLE], params=params)
    assert state.cw == 1
    state, action = slotted_step(state, MacInput.CCA_BUSY, params)
    assert action == Wait()
    assert state.cw == 2                        # both CCAs start over
    assert state.nb == 1 and state.be == 4


def test_transaction_that_cannot_fit_defers_to_the_next_cap():
    state, actions = _walk([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                            MacInput.CCA_IDLE, MacInput.CCA_IDLE],
                           fits=lambda: False)
    assert actions[-1] == DeferToNextCap()
    # No fresh backoff draw: the machine waits in the CCA phase for the
    # caller to re-run both CCAs at the next CAP opening.
    assert state.phase is Phase.CCA
    assert state.cw == 2
    # NB and BE are untouched by a defer: it is not an escalation.
    assert state.nb == 0 and state.be == 3


@pytest.mark.parametrize("before, phase", [
    ([MacInput.START_TX, MacInput.BACKOFF_EXPIRED], "cca"),    # CW 2: first CCA
    ([MacInput.START_TX], "backoff"),
])
def test_the_cap_overrun_input_is_only_valid_after_the_second_cca(before, phase):
    state, _ = _walk(before)
    with pytest.raises(SimulationError, match=f"is not valid in phase {phase}"):
        slotted_step(state, MacInput.CCA_IDLE_NO_FIT, CsmaParams())
