"""The per-network table of CSMA-CA transitions is only a cache.

``StarNetwork._feed`` answers an input it has seen in a state from the row
of that state in its table, and asks ``unslotted_step`` / ``slotted_step``
otherwise.  The step functions draw nothing, so each entry holds the action
as they returned it; the network draws a ``Wait``'s length when it performs
it.  The CAP fit of a slotted second CCA is an input like the CCA result
(``CCA_IDLE`` or ``CCA_IDLE_NO_FIT``), so every input has one entry.  These
tests hold the table to the step functions: whole runs match a reference
``_feed`` that asks the step function on every input (and reads the CAP from
the schedule on every read), an invalid input still raises on a warm table,
every hit on a cached ``Wait`` draws a fresh length from the stream, and an
idle second CCA continues from the entry of the fit the clock gives.
"""

import copy
import re
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim import network, superframe
from wpansim.csma import IDLE_STATE, CsmaParams, MacInput, Phase, Wait
from wpansim.kernel import RngManager, SimulationError, rng_uniform_units
from wpansim.metrics import PacketRecord
from wpansim.network import StarNetwork
from wpansim.phy import (ACK_AIRTIME, CCA_DURATION, TURNAROUND, UNIT_BACKOFF,
                         Medium, data_frame_airtime)
from wpansim.trace import MacTrace


def reference_feed(self, dev, event):
    """``_feed`` without the table: the step function answers every input."""
    if self.slotted:
        dev.state, action = network.slotted_step(dev.state, event, self.csma)
    else:
        dev.state, action = network.unslotted_step(dev.state, event, self.csma)
    network._PERFORM[type(action)](self, dev, action)


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
    if shipped[0]:                   # a packet arrived, so a transition was stored
        assert any(net._transitions.values())
    # Each backoff the network drew is a legal length at a legal exponent.
    backoffs = re.findall(r"\tbackoff-start\t.*be=(\d+) units=(\d+)", shipped[3])
    for be, units in backoffs:
        assert net.csma.min_be <= int(be) <= net.csma.max_be
        assert int(units) < 2 ** int(be)


def test_the_slotted_example_defers():
    _, (_, _, _, trace) = traced_run(DEFERRING)
    assert "\tdefer\t" in trace


@pytest.mark.parametrize("mode", ["nonbeacon", "beacon"])
def test_an_invalid_input_raises_on_a_warm_table(mode):
    net = StarNetwork(**ORDERS[mode], n_devices=3, msdu=60, interval_s=0.01,
                      run_time_s=0.5, seed=3)
    net.run()
    stored = copy.deepcopy(net._transitions)
    assert any(stored.values())
    for dev in net.devices:
        assert dev.state.cw != 1        # where CCA_IDLE_NO_FIT would be valid
        for invalid in (MacInput.TX_DONE if dev.state.phase is Phase.IDLE
                        else MacInput.START_TX, MacInput.CCA_IDLE_NO_FIT):
            for _ in range(2):
                with pytest.raises(SimulationError, match="is not valid in phase"):
                    net._feed(dev, invalid)
    assert net._transitions == stored


@pytest.mark.parametrize("mode", ["nonbeacon", "beacon"])
def test_each_hit_on_a_cached_wait_draws_a_fresh_length(mode, monkeypatch):
    net = StarNetwork(**ORDERS[mode], n_devices=2, msdu=60, interval_s=0.01,
                      run_time_s=0.2, seed=3)
    net.run()
    row = net._transitions[id(IDLE_STATE)]
    cached_state, cached_action, perform, next_row = row[MacInput.START_TX.value]
    step = superframe.slotted_step if net.slotted else network.unslotted_step
    assert cached_action is step(IDLE_STATE, MacInput.START_TX, net.csma)[1] == Wait()
    assert perform is network._PERFORM[Wait]
    assert next_row is net._transitions[id(cached_state)]

    def no_step(*args):
        raise AssertionError("a table hit must not ask the step function")
    monkeypatch.setattr(network, "unslotted_step", no_step)
    monkeypatch.setattr(network, "slotted_step", no_step)
    sink = StringIO()
    net.trace = MacTrace(sink)
    net.trace.use_schedule(net.schedule)

    dev = net.devices[0]
    dev.current = PacketRecord(0, dev.id, 0, 60)
    dev.rng = RngManager(11).draws("backoff", 1)
    oracle = RngManager(11).draws("backoff", 1)
    expected = [rng_uniform_units(oracle, cached_state.be) for _ in range(2)]
    assert expected[0] != expected[1]
    for _ in range(2):
        dev.state, dev.row = IDLE_STATE, row
        net._feed(dev, MacInput.START_TX)
        assert dev.state is cached_state and dev.row is next_row
    drawn = [int(units) for units in
             re.findall(r"\tbackoff-start\t.*units=(\d+)", sink.getvalue())]
    assert drawn == expected


def test_a_cap_fit_hit_continues_from_the_entry_of_its_answer(monkeypatch):
    net = StarNetwork(**DEFERRING)
    net.run()
    fits, overruns = MacInput.CCA_IDLE, MacInput.CCA_IDLE_NO_FIT
    states = {id(entry[0]): entry[0]
              for row in net._transitions.values() for entry in row.values()}
    state = next(s for key, s in states.items()
                 if {fits.value, overruns.value} <= net._transitions[key].keys())
    row = net._transitions[id(state)]
    assert row[overruns.value][3] is None     # a deferral's entry links no row
    # So the table has no cycle to compare.
    assert copy.deepcopy(net._transitions) == net._transitions
    expected = {event: superframe.slotted_step(state, event, net.csma)
                for event in (fits, overruns)}

    def no_step(*args):
        raise AssertionError("a table hit must not ask the step function")
    monkeypatch.setattr(network, "slotted_step", no_step)
    monkeypatch.setattr(Medium, "cca_busy", lambda *args: False)
    scheduled = []
    monkeypatch.setattr(net.sched, "at",
                        lambda time, fn, arg=None, **_: scheduled.append(fn.__name__))
    dev = net.devices[0]
    dev.current = PacketRecord(0, dev.id, 0, DEFERRING["msdu"])
    span = UNIT_BACKOFF - CCA_DURATION + transaction(DEFERRING["msdu"], net.csma)
    _, cap_end = net.schedule.cap_bounds(net.schedule.index_at(net.sched.now) + 1)
    for event, performed in ((fits, "_begin_data_tx"), (overruns, "_issue_cca")):
        # The transaction would end on the CAP end, or one symbol after it.
        net.sched.now = cap_end - span + (event is overruns)
        dev.state, dev.row = state, row
        drawn = dev.rng.state
        net._on_cca_result(dev)
        next_state, _ = expected[event]
        assert dev.state is next_state is row[event.value][0]
        assert dev.row is net._transitions[id(next_state)]
        assert dev.rng.state == drawn
        assert scheduled.pop() == performed
