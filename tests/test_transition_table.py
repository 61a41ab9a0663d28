"""Every network shares one CSMA-CA transition table per machine and params.

``network._machine`` walks a step function from ``IDLE_STATE`` under every
input into linked rows, once per process: a row maps each input its state
accepts to (next state, action, performer, next state's row).  These tests
hold the table to the step functions, entry by entry and over whole runs, and
check that a network answers an invalid input by raising, and a valid one
from its row alone: each ``Wait`` with a fresh draw and an idle second CCA
from the entry of the fit the clock gives.
"""

import re
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim import csma, network
from wpansim.csma import (IDLE_STATE, CsmaParams, DeferToNextCap, Fail, MacInput,
                          Phase, Wait)
from wpansim.kernel import RngManager, SimulationError, rng_uniform_units
from wpansim.metrics import PacketRecord
from wpansim.network import StarNetwork
from wpansim.phy import (ACK_AIRTIME, CCA_DURATION, TURNAROUND, UNIT_BACKOFF,
                         Medium, data_frame_airtime)
from wpansim.trace import MacTrace


def rows_of(idle_row):
    """state -> row, for every state that the table links from IDLE's row."""
    rows, todo = {IDLE_STATE: idle_row}, [idle_row]
    while todo:
        for state, _, _, row in todo.pop().values():
            if state not in rows:
                rows[state] = row
                todo.append(row)
    return rows


def reference_feed(self, dev, event):
    """``_feed`` without the table: the step function answers every input."""
    dev.state, action = self._step(dev.state, event, self.csma)
    network._PERFORM[type(action)](self, dev, action)


def no_step(*args):
    raise AssertionError("a table hit must not ask the step function")


def transaction(msdu, params):
    """Data frame, then turnaround and ACK when acknowledged, in symbols."""
    return data_frame_airtime(msdu) + (TURNAROUND + ACK_AIRTIME
                                       if params.ack_enabled else 0)


def reference_cca_result(self, dev):
    """``_on_cca_result`` with the CAP read from the schedule at the clock."""
    now = self.sched.now
    busy = self.medium.cca_busy(dev.id, now)
    if self.trace is not None:
        self.trace.add(now, dev.id, "cca-result", dev.current.packet_id,
                       "busy" if busy else "idle")
    event = MacInput.CCA_BUSY if busy else MacInput.CCA_IDLE
    if not busy and self.slotted and dev.state.cw == 1:
        _, cap_end = self.schedule.cap_bounds(self.schedule.index_at(now))
        if (now + (UNIT_BACKOFF - CCA_DURATION) + transaction(self.msdu, self.csma)
                > cap_end):
            event = MacInput.CCA_IDLE_NO_FIT
    self._feed(dev, event)


@st.composite
def small_networks(draw):
    max_be = draw(st.integers(3, 8))
    params = CsmaParams(min_be=draw(st.integers(0, max_be)), max_be=max_be,
                        max_nb=draw(st.integers(0, 5)),
                        max_frame_retries=draw(st.integers(0, 7)),
                        ack_enabled=draw(st.booleans()))
    kwargs = dict(n_devices=draw(st.integers(1, 6)), msdu=draw(st.integers(1, 118)),
                  interval_s=draw(st.sampled_from([0.004, 0.02, 0.1])),
                  distribution=draw(st.sampled_from(["exponential", "periodic"])),
                  placement=draw(st.sampled_from(["equal", "random"])),
                  queue_capacity=draw(st.sampled_from([None, 0, 1, 3])),
                  run_time_s=0.5, seed=draw(st.integers(0, 2**32)),
                  csma_params=params)
    if draw(st.booleans()):
        so = draw(st.integers(0, 2))
        kwargs.update(mode="beacon", so=so, bo=draw(st.integers(so, 3)))
    return kwargs


def traced_run(kwargs):
    sink = StringIO()
    net = StarNetwork(**kwargs, trace=MacTrace(sink))
    result = net.run()
    return net, (result.log, result.metrics, result.summary, sink.getvalue())


# A slotted run whose frames do not always fit the rest of the CAP.
DEFERRING = dict(mode="beacon", bo=1, so=0, n_devices=3, msdu=100,
                 interval_s=0.02, run_time_s=0.5, seed=1)

ORDERS = {"nonbeacon": dict(mode="nonbeacon"), "beacon": dict(mode="beacon", bo=2, so=1)}


# Run lengths vary with host load; a per-example deadline would make tier-1
# pass or fail by luck.
@settings(max_examples=40, deadline=None)
@given(small_networks())
@example(dict(n_devices=4, msdu=60, interval_s=0.004, distribution="exponential",
              placement="equal", queue_capacity=1, run_time_s=0.5, seed=5,
              csma_params=CsmaParams(max_nb=0, ack_enabled=False)))
@example(DEFERRING)
# A beacon quota run: no superframe opens after its last packet resolves.
@example(dict(mode="beacon", bo=2, so=1, n_devices=3, msdu=80, interval_s=0.05,
              distribution="periodic", quota=6, seed=4))
# BO = SO: each CAP ends where the next superframe starts.  Countdowns of up to
# 255 periods pause to that instant and expire at the next CAP opening.
@example(dict(mode="beacon", bo=0, so=0, n_devices=3, msdu=60, interval_s=0.02,
              run_time_s=0.5, seed=1, csma_params=CsmaParams(min_be=8, max_be=8)))
def test_the_table_replays_exactly_what_the_step_functions_answer(kwargs):
    net, shipped = traced_run(kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StarNetwork, "_feed", reference_feed)
        mp.setattr(StarNetwork, "_on_cca_result", reference_cca_result)
        _, reference = traced_run(kwargs)
    assert shipped == reference
    # Each backoff the network drew is a legal length at a legal exponent.
    backoffs = re.findall(r"\tbackoff-start\t.*be=(\d+) units=(\d+)", shipped[3])
    for be, units in backoffs:
        assert net.csma.min_be <= int(be) <= net.csma.max_be
        assert int(units) < 2 ** int(be)


def test_the_slotted_example_defers():
    _, (_, _, _, trace) = traced_run(DEFERRING)
    assert "\tdefer\t" in trace


PARAMS = {"default": CsmaParams(),
          "widest": CsmaParams(min_be=0, max_be=8, max_nb=5, max_frame_retries=7),
          "no-ack": CsmaParams(ack_enabled=False),
          "narrow-no-ack": CsmaParams(min_be=0, max_nb=1, max_frame_retries=1,
                                      ack_enabled=False)}


@pytest.mark.parametrize("step", [network.unslotted_step, network.slotted_step])
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS)
def test_every_valid_pair_has_one_entry_and_it_is_the_step_functions_answer(
        step, params, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a step function drew a random number")
    monkeypatch.setattr(csma, "rng_uniform_units", no_draw)
    # Built afresh, so that the whole walk runs without a draw.
    rows = rows_of(network._machine.__wrapped__(step, params))
    actions = set()
    for state, row in rows.items():
        for event in MacInput:
            try:
                target, action = step(state, event, params)
            except SimulationError:
                assert event.value not in row
                continue
            entry = row[event.value]
            assert entry[0] == target and entry[1] is action
            assert entry[2] is network._PERFORM[type(action)]
            assert entry[3] is rows[target]
            actions.add(type(action))
    expected = set(Phase) - ({Phase.AWAITING_ACK} if not params.ack_enabled else set())
    assert {state.phase for state in rows} == expected
    assert Wait in actions and Fail in actions
    assert (DeferToNextCap in actions) == (step is network.slotted_step)
    if params == CsmaParams():
        pairs = {network.unslotted_step: 121, network.slotted_step: 181}[step]
        assert sum(map(len, rows.values())) == pairs


@pytest.mark.parametrize("step", [network.unslotted_step, network.slotted_step])
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS)
def test_every_entry_to_one_state_holds_the_same_object(step, params):
    # The step functions build a fresh state on each call; the table keeps one.
    rows = rows_of(network._machine.__wrapped__(step, params))
    targets = [entry[0] for row in rows.values() for entry in row.values()]
    assert len({id(target) for target in targets}) == len(set(targets))


def test_networks_of_one_mode_and_params_share_one_table():
    def idle_row(mode, **params):
        return StarNetwork(**ORDERS[mode], run_time_s=1.0,
                           csma_params=CsmaParams(**params))._idle_row
    assert idle_row("beacon", max_nb=2) is idle_row("beacon", max_nb=2)
    rows = [idle_row(mode, **params) for mode in ORDERS
            for params in ({}, {"max_nb": 2}, {"ack_enabled": False})]
    assert len(set(map(id, rows))) == len(rows) == 6
    assert rows[0] is idle_row("nonbeacon")


@pytest.mark.parametrize("mode", ["nonbeacon", "beacon"])
def test_an_invalid_input_raises_and_moves_no_device(mode):
    net = StarNetwork(**ORDERS[mode], n_devices=3, msdu=60, interval_s=0.01,
                      run_time_s=0.5, seed=3)
    net.run()
    for dev in net.devices:
        assert dev.state.cw != 1        # where CCA_IDLE_NO_FIT would be valid
        state, row = dev.state, dev.row
        for invalid in (MacInput.TX_DONE if dev.state.phase is Phase.IDLE
                        else MacInput.START_TX, MacInput.CCA_IDLE_NO_FIT):
            with pytest.raises(SimulationError, match="is not valid in phase"):
                net._feed(dev, invalid)
            assert dev.state is state and dev.row is row


@pytest.mark.parametrize("mode", ["nonbeacon", "beacon"])
def test_each_hit_on_a_wait_draws_a_fresh_length(mode, monkeypatch):
    sink = StringIO()
    net = StarNetwork(**ORDERS[mode], n_devices=2, msdu=60, interval_s=0.01,
                      run_time_s=0.2, seed=3, trace=MacTrace(sink))
    row = net._idle_row
    state, action, perform, next_row = row[MacInput.START_TX.value]
    assert action == Wait() and perform is network._PERFORM[Wait]

    monkeypatch.setattr(net, "_step", no_step)
    dev = net.devices[0]
    dev.current = PacketRecord(0, dev.id, 0, 60)
    dev.rng = RngManager(11).draws("backoff", 1)
    oracle = RngManager(11).draws("backoff", 1)
    expected = [rng_uniform_units(oracle, state.be) for _ in range(2)]
    assert expected[0] != expected[1]
    for _ in range(2):
        dev.state, dev.row = IDLE_STATE, row
        net._feed(dev, MacInput.START_TX)
        assert dev.state is state and dev.row is next_row
    drawn = [int(units) for units in
             re.findall(r"\tbackoff-start\t.*units=(\d+)", sink.getvalue())]
    assert drawn == expected


def test_a_cap_fit_hit_continues_from_the_entry_of_its_answer(monkeypatch):
    net = StarNetwork(**DEFERRING)
    fits, overruns = MacInput.CCA_IDLE, MacInput.CCA_IDLE_NO_FIT
    rows = rows_of(net._idle_row)
    state = next(s for s, row in rows.items()
                 if {fits.value, overruns.value} <= row.keys())
    row = rows[state]
    monkeypatch.setattr(net, "_step", no_step)
    monkeypatch.setattr(Medium, "cca_busy", lambda *args: False)
    scheduled = []
    monkeypatch.setattr(net.sched, "at",
                        lambda time, fn, arg=None, **_: scheduled.append(fn.__name__))
    dev = net.devices[0]
    dev.current = PacketRecord(0, dev.id, 0, DEFERRING["msdu"])
    span = UNIT_BACKOFF - CCA_DURATION + transaction(DEFERRING["msdu"], net.csma)
    _, cap_end = net.schedule.cap_bounds(1)
    for event, performed in ((fits, "_begin_data_tx"), (overruns, "_issue_cca")):
        # The transaction would end on the CAP end, or one symbol after it.
        net.sched.now = cap_end - span + (event is overruns)
        dev.state, dev.row = state, row
        drawn = dev.rng.state
        net._on_cca_result(dev)
        next_state, _, _, next_row = row[event.value]
        assert dev.state is next_state and dev.row is next_row
        assert dev.rng.state == drawn
        assert scheduled.pop() == performed
