"""One-hop star network simulation.

Devices placed on a circle around a central coordinator generate MSDUs and
deliver them upstream as acknowledged data frames, contending for the channel
with CSMA-CA — unslotted, or slotted under a beacon-enabled superframe with
duty cycling.  This module owns all event scheduling and each device's
drop-tail queue; the protocol decisions themselves live in the pure state
machines of ``csma`` and ``superframe``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from wpansim.csma import (ArmAckTimeout, CsmaParams, DeferToNextCap, DoCca, DropReason,
                          Fail, IDLE_STATE, MacInput, Success, Transmit,
                          TxAttemptState, Wait, backoff_units, unslotted_step)
from wpansim.kernel import (EventKind, RngManager, Scheduler, SimSummary,
                            SimulationError, StopReason, rng_exponential,
                            seconds_to_symbols)
from wpansim.metrics import MetricsRow, PacketRecord, PacketTally, build_metrics
from wpansim.phy import (ACK_AIRTIME, BEACON_AIRTIME, CCA_DURATION, FrameKind,
                         Medium, TURNAROUND, Transmission, UNIT_BACKOFF,
                         data_frame_airtime)
from wpansim.scenario import ScenarioSpec
from wpansim.superframe import SuperframeSchedule, slotted_step

if TYPE_CHECKING:
    from wpansim.trace import MacTrace

COORDINATOR = 0

# Enum class attribute lookups are slow on the hot path; bind the members once.
_EV_ARRIVAL, _EV_BACKOFF, _EV_CCA_RESULT = (EventKind.ARRIVAL, EventKind.BACKOFF,
                                            EventKind.CCA_RESULT)
_EV_TX_START, _EV_TX_END, _EV_ACK_TIMEOUT = (EventKind.TX_START, EventKind.TX_END,
                                             EventKind.ACK_TIMEOUT)
_IN_START_TX, _IN_BACKOFF_EXPIRED = MacInput.START_TX, MacInput.BACKOFF_EXPIRED
_IN_CCA_IDLE, _IN_CCA_BUSY, _IN_TX_DONE = (MacInput.CCA_IDLE, MacInput.CCA_BUSY,
                                           MacInput.TX_DONE)
_IN_ACK_RECEIVED, _IN_ACK_TIMEOUT = MacInput.ACK_RECEIVED, MacInput.ACK_TIMEOUT
_IN_CCA_IDLE_NO_FIT, _DATA, _ACK = MacInput.CCA_IDLE_NO_FIT, FrameKind.DATA, FrameKind.ACK
_QUEUE_OVERFLOW, _RETRY_EXHAUSTED = DropReason.QUEUE_OVERFLOW, DropReason.RETRY_EXHAUSTED
_INPUTS = tuple(MacInput)      # iterating an Enum class runs Python code each time


class Device:
    """Per-device MAC driver state; protocol logic lives in the step functions."""

    __slots__ = ("id", "queue", "rng", "traffic_rng", "state", "row", "current",
                 "ack_timer", "tx", "generated", "last_intact")

    def __init__(self, node_id: int, rng, traffic_rng):
        self.id = node_id
        self.queue: deque[PacketRecord] = deque()   # waiting behind ``current``
        self.rng = rng
        self.traffic_rng = traffic_rng
        self.state: TxAttemptState = IDLE_STATE
        self.row: dict = {}     # the network's transition row for ``state``
        self.current: PacketRecord | None = None
        self.ack_timer = None
        self.tx = None
        self.generated = 0
        self.last_intact = False


@dataclass(slots=True)
class RunResult:
    metrics: MetricsRow
    summary: SimSummary
    log: list[PacketRecord]     # every record, in packet_id order; [] with a sink


class StarNetwork:
    def __init__(self, *, csma_params: CsmaParams | None = None,
                 circle_radius_m: float = 50.0, trace: MacTrace | None = None,
                 packets=None, **scenario):
        """``scenario`` takes the fields of :class:`ScenarioSpec`, with its
        defaults and checks, except the MAC ones, which ``csma_params`` sets.
        ``packets`` is the records' sink: None keeps all in the result's log,
        ``metrics.discard`` none; only another sink keeps a window (PacketTally)."""
        self.csma = csma_params or CsmaParams()
        spec = ScenarioSpec(**scenario, **dataclasses.asdict(self.csma))
        n_devices = spec.n_devices

        self.slotted = spec.mode == "beacon"
        self.msdu = spec.msdu
        self.interval_s = spec.interval_s
        self._exponential = spec.distribution == "exponential"
        self.quota = spec.quota
        self.run_time_s = spec.run_time_s
        # Drop-tail: an arrival that finds this many waiting is dropped.
        self._queue_bound = (math.inf if spec.queue_capacity is None
                             else spec.queue_capacity)
        self.schedule = SuperframeSchedule(spec.bo, spec.so) if self.slotted else None
        self.trace = trace
        if trace is not None:
            trace.use_schedule(self.schedule)

        self.data_airtime = data_frame_airtime(spec.msdu)
        # From the second idle CCA's end to the end of its transaction.
        self._fit_span = (UNIT_BACKOFF - CCA_DURATION) + self.data_airtime + (
            TURNAROUND + ACK_AIRTIME if self.csma.ack_enabled else 0)

        self.sched = Scheduler()
        self.medium = Medium()
        self.medium.add_node(COORDINATOR, 0.0, 0.0)

        rngs = RngManager(spec.seed)
        if spec.placement == "random":
            placement_rng = rngs.draws("placement")
            angles = [placement_rng.uniform(0, 2 * math.pi) for _ in range(n_devices)]
        else:
            angles = [2 * math.pi * i / n_devices for i in range(n_devices)]
        self.devices: list[Device] = []
        for i in range(n_devices):
            node_id = i + 1
            self.medium.add_node(node_id,
                                 circle_radius_m * math.cos(angles[i]),
                                 circle_radius_m * math.sin(angles[i]))
            self.devices.append(Device(node_id, rngs.draws("backoff", node_id),
                                       rngs.draws("traffic", node_id)))

        self._step = slotted_step if self.slotted else unslotted_step
        self._idle_row = _machine(self._step, self.csma)
        self.packets = PacketTally(packets)
        self._resolved = 0
        self._total_quota = None if spec.quota is None else spec.quota * n_devices
        self._period_symbols = max(1, seconds_to_symbols(spec.interval_s))

    def run(self) -> RunResult:
        if self.slotted:
            self.sched.at(0, self._on_superframe_start, 0,
                          kind=EventKind.SUPERFRAME_START)
        for dev in self.devices:
            self._schedule_arrival(dev)
        until = None if self.run_time_s is None else seconds_to_symbols(self.run_time_s)
        summary = self.sched.run(until=until)
        if self.quota is not None and summary.stop_reason is not StopReason.STOPPED:
            raise SimulationError(
                f"run ended ({summary.stop_reason.value}) at t={summary.end_time} "
                f"with the packet quota unmet ({self._resolved}/"
                f"{self._total_quota} resolved)")
        # Pending events and held ACK timeouts call this network's bound methods:
        # dropped, they leave no cycle, so a finished network is freed at once.
        self.sched._heap.clear()
        for dev in self.devices:
            dev.ack_timer = None
        self.packets.close()
        metrics = build_metrics(self.packets, self.packets.first_gen, summary.end_time)
        return RunResult(metrics, summary, self.packets.log)

    def _schedule_arrival(self, dev: Device) -> None:
        if self._exponential:
            gap = rng_exponential(dev.traffic_rng, self.interval_s)
        else:
            gap = self._period_symbols
        self.sched.at(self.sched.now + gap, self._on_arrival, dev, kind=_EV_ARRIVAL)

    def _on_arrival(self, dev: Device) -> None:
        now = self.sched.now
        rec = self.packets.open(dev.id, now, self.msdu)
        dev.generated += 1
        if self.quota is None or dev.generated < self.quota:
            self._schedule_arrival(dev)
        if self.trace is not None:
            self.trace.add(now, dev.id, "arrival", rec.packet_id)
        if dev.current is None:
            dev.current = rec
            self._start_attempt(dev)
        elif len(dev.queue) < self._queue_bound:
            dev.queue.append(rec)
            if self.trace is not None:
                self.trace.add(now, dev.id, "enqueue", rec.packet_id)
        else:
            self._resolve(rec, None, _QUEUE_OVERFLOW)

    def _start_attempt(self, dev: Device) -> None:
        dev.state = IDLE_STATE
        dev.row = self._idle_row
        self._feed(dev, _IN_START_TX)

    def _feed(self, dev: Device, event: MacInput) -> None:
        known = dev.row.get(event._value_)
        if known is None:   # an invalid pair: the step function says why
            self._step(dev.state, event, self.csma)
        dev.state, action, perform, dev.row = known
        perform(self, dev, action)

    def _do_wait(self, dev: Device, action: Wait) -> None:
        now = self.sched.now
        units = backoff_units(dev.rng, dev.state.be)
        if self.trace is not None:
            self.trace.add(now, dev.id, "backoff-start", dev.current.packet_id,
                           f"be={dev.state.be} units={units}")
        if self.slotted:
            end = self.schedule.countdown_end(now, units)
        else:
            end = now + units * UNIT_BACKOFF
        self.sched.at(end, self._on_backoff_expired, dev, kind=_EV_BACKOFF)

    def _do_transmit(self, dev: Device, action: Transmit) -> None:
        if self.slotted:
            # CCA result instants sit 8 symbols into a period; the frame
            # goes out on the next 20-symbol boundary.
            self.sched.at(self.sched.now + (UNIT_BACKOFF - CCA_DURATION),
                          self._begin_data_tx, dev, kind=_EV_TX_START)
        else:
            self._begin_data_tx(dev)

    def _do_arm(self, dev: Device, action: ArmAckTimeout) -> None:
        when = self.sched.now + action.duration
        if dev.last_intact:
            # The ACK decides, at its end, whether this timeout is queued.
            dev.ack_timer = self.sched.hold(when, self._on_ack_timeout, dev)
        else:
            self.sched.at(when, self._on_ack_timeout, dev, kind=_EV_ACK_TIMEOUT)

    def _do_success(self, dev: Device, action: Success) -> None:
        if self.csma.ack_enabled or dev.last_intact:
            self._resolve(dev.current, self.sched.now)
        else:
            self._resolve(dev.current, None, _RETRY_EXHAUSTED)
        self._next_frame(dev)

    def _do_fail(self, dev: Device, action: Fail) -> None:
        self._resolve(dev.current, None, action.reason)
        self._next_frame(dev)

    def _do_defer(self, dev: Device, action: DeferToNextCap) -> None:
        now = self.sched.now
        if self.trace is not None:
            self.trace.add(now, dev.id, "defer", dev.current.packet_id)
        # Both CCAs are redone at the start of the next CAP.
        self.sched.at(self.schedule.next_cap_start(now), self._issue_cca,
                      dev, kind=_EV_BACKOFF)

    def _on_backoff_expired(self, dev: Device) -> None:
        self._feed(dev, _IN_BACKOFF_EXPIRED)

    def _issue_cca(self, dev: Device, action: DoCca | None = None) -> None:
        now = self.sched.now
        if dev.state.cw == 1:       # slotted: the second CCA of the pair
            start = now + (UNIT_BACKOFF - CCA_DURATION)  # next boundary
        else:
            start = now
        if self.trace is not None:
            self.trace.add(start, dev.id, "cca-start", dev.current.packet_id)
        self.sched.at(start + CCA_DURATION, self._on_cca_result, dev,
                      kind=_EV_CCA_RESULT)

    def _on_cca_result(self, dev: Device) -> None:
        now = self.sched.now
        busy = self.medium.cca_busy(dev.id, now)
        if self.trace is not None:
            self.trace.add(now, dev.id, "cca-result", dev.current.packet_id,
                           "busy" if busy else "idle")
        if busy:
            self._feed(dev, _IN_CCA_BUSY)
        # A slotted second CCA ends inside the CAP its pair started in: the
        # transaction must end by that CAP's end.  Unslotted states have cw 0.
        elif (dev.state.cw == 1 and now + self._fit_span
              > now - now % self.schedule.bi + self.schedule.sd):
            self._feed(dev, _IN_CCA_IDLE_NO_FIT)
        else:
            self._feed(dev, _IN_CCA_IDLE)

    def _begin_data_tx(self, dev: Device) -> None:
        now = self.sched.now
        rec = dev.current
        dev.tx = self.medium.begin_tx(
            Transmission(_DATA, dev.id, self.data_airtime, rec.packet_id), now)
        rec.tx_count += 1
        if self.trace is not None:
            self.trace.add(now, dev.id, "tx-start", rec.packet_id)
        self.sched.at(now + self.data_airtime, self._on_data_tx_end, dev,
                      kind=_EV_TX_END)

    def _on_data_tx_end(self, dev: Device) -> None:
        now = self.sched.now
        tx = dev.tx
        self.medium.end_tx(tx, now)
        intact = self.medium.heard_intact(tx, COORDINATOR)
        dev.last_intact = intact
        if self.trace is not None:
            self.trace.add(now, dev.id, "tx-end", dev.current.packet_id,
                           "intact" if intact else "corrupted")
        if intact and self.csma.ack_enabled:
            self.sched.at(now + TURNAROUND, self._begin_ack_tx, dev, kind=_EV_TX_START)
        self._feed(dev, _IN_TX_DONE)

    def _begin_ack_tx(self, dev: Device) -> None:
        now = self.sched.now
        dev.tx = self.medium.begin_tx(
            Transmission(_ACK, COORDINATOR, ACK_AIRTIME, dev.current.packet_id), now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "ack-start", dev.current.packet_id)
        self.sched.at(now + ACK_AIRTIME, self._on_ack_tx_end, dev, kind=_EV_TX_END)

    def _on_ack_tx_end(self, dev: Device) -> None:
        """Only an intact data frame starts an ACK, and its device then waits
        for it with the timeout held, so the device still awaits this ACK."""
        now = self.sched.now
        tx = dev.tx
        self.medium.end_tx(tx, now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "ack-end", tx.packet_id)
        timer, dev.ack_timer = dev.ack_timer, None
        if self.medium.heard_intact(tx, dev.id):
            self._feed(dev, _IN_ACK_RECEIVED)      # the held timeout is dropped
        else:
            self.sched.release(timer)

    def _on_ack_timeout(self, dev: Device) -> None:
        if self.trace is not None:
            self.trace.add(self.sched.now, dev.id, "ack-timeout",
                           dev.current.packet_id)
        self._feed(dev, _IN_ACK_TIMEOUT)

    def _resolve(self, rec: PacketRecord, rx_time: int | None, reason=None) -> None:
        """``rec`` was delivered at ``rx_time``, or else dropped for ``reason``."""
        if self.trace is not None:
            if rx_time is None:
                self.trace.add(self.sched.now, rec.node, "drop", rec.packet_id,
                               reason.value)
            else:
                self.trace.add(rx_time, rec.node, "delivered", rec.packet_id)
        self.packets.settle(rec, rx_time, reason)
        self._resolved += 1
        if self._resolved == self._total_quota:
            self.sched.request_stop()

    def _next_frame(self, dev: Device) -> None:
        if dev.queue:
            dev.current = dev.queue.popleft()
            self._start_attempt(dev)
        else:
            dev.current = None

    def _on_superframe_start(self, k: int) -> None:
        # A quota run whose device events ran dry opens no more superframes,
        # so the heap drains and run() reports the unmet quota.
        if self.quota is not None and not self.sched.pending():
            return
        now = self.sched.now
        self.medium.set_awake(True, now)
        btx = self.medium.begin_tx(
            Transmission(FrameKind.BEACON, COORDINATOR, BEACON_AIRTIME), now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "sf-start", -1, f"k={k}")
            self.trace.add(now, COORDINATOR, "beacon-start")
        self.sched.at(now + BEACON_AIRTIME, self._on_beacon_end, btx,
                      kind=EventKind.BEACON)
        if self.schedule.sd < self.schedule.bi:
            self.sched.at(now + self.schedule.sd, self._on_inactive_start, k,
                          kind=EventKind.CAP_END)
        self.sched.at(now + self.schedule.bi, self._on_superframe_start, k + 1,
                      kind=EventKind.SUPERFRAME_START)

    def _on_beacon_end(self, btx) -> None:
        self.medium.end_tx(btx, self.sched.now)
        if self.trace is not None:
            self.trace.add(self.sched.now, COORDINATOR, "beacon-end")

    def _on_inactive_start(self, k: int) -> None:
        now = self.sched.now
        self.medium.set_awake(False, now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "sleep", -1, f"k={k}")


# Each action's performer, called as perform(network, dev, action): the
# shared transition table must hold no network.
_PERFORM = {Wait: StarNetwork._do_wait, DoCca: StarNetwork._issue_cca,
            Transmit: StarNetwork._do_transmit, ArmAckTimeout: StarNetwork._do_arm,
            Success: StarNetwork._do_success, Fail: StarNetwork._do_fail,
            DeferToNextCap: StarNetwork._do_defer}


@functools.cache
def _machine(step, params: CsmaParams) -> dict:
    """IDLE's row of machine ``step`` under ``params``, walked once per process
    and never changed.  A row maps each input ``step`` accepts to (next state,
    action, performer, next state's row); a deferral's entry closes a cycle.
    Every entry to one state holds the same object, so a run moves its devices
    among one object per state rather than one per transition."""
    found = [(IDLE_STATE, {})]      # (state, its row); grows as the walk finds states
    rows = {IDLE_STATE: found[0]}
    for state, row in found:
        for event in _INPUTS:
            try:
                target, action = step(state, event, params)
            except SimulationError:
                continue
            entry = rows.get(target)
            if entry is None:
                entry = rows[target] = (target, {})
                found.append(entry)
            row[event._value_] = (entry[0], action, _PERFORM[type(action)], entry[1])
    return found[0][1]


def run_scenario_full(spec: ScenarioSpec, seed: int | None = None,
                      trace: MacTrace | None = None, packets=None) -> RunResult:
    """Run one scenario to its stop condition; ``seed`` overrides the scenario's."""
    net = StarNetwork(
        mode=spec.mode, n_devices=spec.n_devices, msdu=spec.msdu,
        interval_s=spec.interval_s, distribution=spec.distribution,
        csma_params=spec.csma_params(), bo=spec.bo, so=spec.so,
        queue_capacity=spec.queue_capacity, quota=spec.quota,
        run_time_s=spec.run_time_s,
        seed=spec.seed if seed is None else seed,
        placement=spec.placement, trace=trace, packets=packets)
    return net.run()
