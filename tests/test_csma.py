"""Unslotted CSMA-CA machine transitions, the backoff draw and the MAC
transmit queue."""

import pytest

from wpansim import csma
from wpansim.csma import (ArmAckTimeout, CsmaParams, DoCca, DropReason, Fail,
                          IDLE_STATE, MacInput, MacQueue, Phase, Success, Transmit,
                          Wait, backoff_units, unslotted_step)
from wpansim.kernel import RngManager, SimulationError, rng_uniform_units
from wpansim.phy import ACK_WAIT


def _rng(seed=1):
    return RngManager(seed).draws("backoff")


def _drive(events, params=None, state=IDLE_STATE):
    """Feed events in order; return (final state, list of actions)."""
    params = params or CsmaParams()
    actions = []
    for event in events:
        state, action = unslotted_step(state, event, params)
        actions.append(action)
    return state, actions


def test_start_draws_a_backoff_from_min_be():
    state, (action,) = _drive([MacInput.START_TX])
    assert state.phase is Phase.BACKOFF
    assert state.be == 3 and state.nb == 0 and state.retries == 0
    assert action == Wait()


def test_min_be_zero_gives_a_zero_length_first_backoff():
    params = CsmaParams(min_be=0)
    state, (action,) = _drive([MacInput.START_TX], params)
    assert action == Wait()
    assert state.be == 0
    rng = _rng()
    assert [backoff_units(rng, state.be) for _ in range(10)] == [0] * 10


def test_backoff_expiry_leads_to_cca_then_transmit():
    state, actions = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                             MacInput.CCA_IDLE])
    assert isinstance(actions[1], DoCca)
    assert isinstance(actions[2], Transmit)
    assert state.phase is Phase.TRANSMITTING


def test_busy_cca_escalates_nb_and_be_up_to_the_cap():
    params = CsmaParams(min_be=3, max_be=5, max_nb=4)
    state, _ = _drive([MacInput.START_TX], params)
    seen = []
    for _ in range(4):
        state, action = unslotted_step(state, MacInput.BACKOFF_EXPIRED, params)
        state, action = unslotted_step(state, MacInput.CCA_BUSY, params)
        seen.append((state.nb, state.be))
        assert action == Wait()
    assert seen == [(1, 4), (2, 5), (3, 5), (4, 5)]   # BE capped at MaxBE
    # fifth busy CCA exceeds MaxNB=4
    state, _ = unslotted_step(state, MacInput.BACKOFF_EXPIRED, params)
    state, action = unslotted_step(state, MacInput.CCA_BUSY, params)
    assert action == Fail(DropReason.CHANNEL_ACCESS_FAILURE)
    assert state.phase is Phase.FAILED
    assert state.retries == 0     # access failure never consumes a retry


def test_max_nb_zero_fails_on_the_first_busy_cca():
    params = CsmaParams(max_nb=0)
    state, actions = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                             MacInput.CCA_BUSY], params)
    assert actions[-1] == Fail(DropReason.CHANNEL_ACCESS_FAILURE)
    assert state.phase is Phase.FAILED


def test_acknowledged_delivery_succeeds():
    state, actions = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                             MacInput.CCA_IDLE, MacInput.TX_DONE,
                             MacInput.ACK_RECEIVED])
    assert actions[3] == ArmAckTimeout(ACK_WAIT)
    assert ACK_WAIT == 54
    assert isinstance(actions[4], Success)
    assert state.phase is Phase.SUCCESS


def test_unacknowledged_mode_succeeds_at_tx_done():
    params = CsmaParams(ack_enabled=False)
    state, actions = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                             MacInput.CCA_IDLE, MacInput.TX_DONE], params)
    assert isinstance(actions[-1], Success)
    assert state.phase is Phase.SUCCESS


def test_ack_timeout_restarts_csma_from_scratch():
    params = CsmaParams(min_be=3, max_be=5, max_nb=4, max_frame_retries=3)
    state, _ = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                       MacInput.CCA_BUSY,              # escalate BE once
                       MacInput.BACKOFF_EXPIRED, MacInput.CCA_IDLE,
                       MacInput.TX_DONE], params)
    state, action = unslotted_step(state, MacInput.ACK_TIMEOUT, params)
    assert action == Wait()
    assert state.retries == 1
    assert state.nb == 0 and state.be == 3     # NB and BE reset
    assert state.phase is Phase.BACKOFF


def test_retries_exhaust_after_max_frame_retries_timeouts():
    params = CsmaParams(max_frame_retries=3)
    state = IDLE_STATE
    state, _ = unslotted_step(state, MacInput.START_TX, params)
    for attempt in range(4):      # original + 3 retries
        state, _ = unslotted_step(state, MacInput.BACKOFF_EXPIRED, params)
        state, _ = unslotted_step(state, MacInput.CCA_IDLE, params)
        state, action = unslotted_step(state, MacInput.TX_DONE, params)
        assert isinstance(action, ArmAckTimeout)
        state, action = unslotted_step(state, MacInput.ACK_TIMEOUT, params)
    assert action == Fail(DropReason.RETRY_EXHAUSTED)
    assert state.phase is Phase.FAILED
    assert state.retries == 4


def test_zero_retries_fails_on_first_timeout():
    params = CsmaParams(max_frame_retries=0)
    state, actions = _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                             MacInput.CCA_IDLE, MacInput.TX_DONE,
                             MacInput.ACK_TIMEOUT], params)
    assert actions[-1] == Fail(DropReason.RETRY_EXHAUSTED)


def test_inputs_out_of_phase_are_rejected():
    with pytest.raises(SimulationError):
        _drive([MacInput.CCA_IDLE])
    with pytest.raises(SimulationError):
        _drive([MacInput.START_TX, MacInput.TX_DONE])
    with pytest.raises(SimulationError):
        _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                MacInput.CCA_IDLE, MacInput.ACK_RECEIVED])


def test_the_cap_overrun_input_is_rejected_without_a_cap():
    # Unslotted CSMA has no CAP: only slotted_step at CW 1 accepts it.
    with pytest.raises(SimulationError, match="not valid in phase cca"):
        _drive([MacInput.START_TX, MacInput.BACKOFF_EXPIRED,
                MacInput.CCA_IDLE_NO_FIT])


def test_parameter_ranges_are_validated():
    with pytest.raises(ValueError):
        CsmaParams(max_be=9)
    with pytest.raises(ValueError):
        CsmaParams(max_be=2)
    with pytest.raises(ValueError):
        CsmaParams(min_be=6, max_be=5)
    with pytest.raises(ValueError):
        CsmaParams(max_nb=6)
    with pytest.raises(ValueError):
        CsmaParams(max_frame_retries=8)


def test_backoff_draws_follow_the_seeded_stream():
    # A backoff is one uniform draw on 0 .. 2**BE - 1 from the device's
    # stream, nothing more: identical seeds give identical lengths.
    exponents = list(range(csma.MAX_BE + 1)) * 200
    a, b = _rng(99), _rng(99)
    units = [backoff_units(a, be) for be in exponents]
    assert units == [rng_uniform_units(b, be) for be in exponents]
    assert a.state == b.state
    for be in range(csma.MAX_BE + 1):
        assert set(units[be::csma.MAX_BE + 1]) <= set(range(2 ** be))
    assert set(units[3::csma.MAX_BE + 1]) == set(range(8))


# ------------------------------------------------------------------ queue


def test_queue_capacity_one_holds_a_single_waiting_frame():
    q = MacQueue(1)
    assert q.offer("a")
    assert not q.offer("b")        # newest arrival dropped
    assert q.pop() == "a"
    assert q.offer("c")


def test_queue_capacity_zero_rejects_everything():
    q = MacQueue(0)
    assert not q.offer("a")
    assert len(q) == 0


def test_unbounded_queue_is_fifo():
    q = MacQueue(None)
    for i in range(100):
        assert q.offer(i)
    assert [q.pop() for _ in range(100)] == list(range(100))


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        MacQueue(-1)
