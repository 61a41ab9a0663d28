"""One-hop star network simulation.

Devices placed on a circle around a central coordinator generate MSDUs and
deliver them upstream as acknowledged data frames, contending for the channel
with CSMA-CA — unslotted, or slotted under a beacon-enabled superframe with
duty cycling.  This module owns all event scheduling; the protocol decisions
themselves live in the pure state machines of ``csma`` and ``superframe``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from wpansim.csma import (ArmAckTimeout, CsmaParams, DeferToNextCap, DoCca, DropReason,
                          Fail, IDLE_STATE, MacInput, MacQueue, Phase, Success,
                          Transmit, TxAttemptState, Wait, backoff_wait,
                          unslotted_step)
from wpansim.kernel import (EventKind, RngManager, Scheduler, SimSummary,
                            SimulationError, StopReason, rng_exponential,
                            seconds_to_symbols)
from wpansim.metrics import MetricsRow, PacketRecord, build_metrics
from wpansim.phy import (ACK_AIRTIME, BEACON_AIRTIME, CCA_DURATION, Frame,
                         FrameKind, Medium, TURNAROUND, UNIT_BACKOFF,
                         data_frame_airtime)
from wpansim.scenario import ScenarioSpec
from wpansim.superframe import SuperframeSchedule, slotted_step
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
_AWAITING_ACK = Phase.AWAITING_ACK


class Device:
    """Per-device MAC driver state; protocol logic lives in the step functions."""

    __slots__ = ("id", "queue", "rng", "traffic_rng", "state", "current",
                 "ack_timer", "tx", "generated", "last_intact")

    def __init__(self, node_id: int, queue_capacity: int | None,
                 rng, traffic_rng):
        self.id = node_id
        self.queue = MacQueue(queue_capacity)
        self.rng = rng
        self.traffic_rng = traffic_rng
        self.state: TxAttemptState = IDLE_STATE
        self.current: PacketRecord | None = None
        self.ack_timer = None
        self.tx = None
        self.generated = 0
        self.last_intact = False


@dataclass(slots=True)
class RunResult:
    metrics: MetricsRow
    summary: SimSummary
    log: list[PacketRecord]


class StarNetwork:
    def __init__(self, *, csma_params: CsmaParams | None = None,
                 circle_radius_m: float = 50.0, trace: MacTrace | None = None,
                 **scenario):
        """``scenario`` takes the fields of :class:`ScenarioSpec`, with its
        defaults and checks, except the MAC ones, which ``csma_params`` sets."""
        self.csma = csma_params or CsmaParams()
        spec = ScenarioSpec(**scenario, **dataclasses.asdict(self.csma))
        n_devices = spec.n_devices

        self.slotted = spec.mode == "beacon"
        self.msdu = spec.msdu
        self.interval_s = spec.interval_s
        self.distribution = spec.distribution
        self.quota = spec.quota
        self.run_time_s = spec.run_time_s
        self.schedule = SuperframeSchedule(spec.bo, spec.so) if self.slotted else None
        self.trace = trace
        if trace is not None:
            trace.use_schedule(self.schedule)

        self.data_airtime = data_frame_airtime(spec.msdu)
        # Time on air a transmission must reserve before the CAP end.
        self.transaction = self.data_airtime + (
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
            self.devices.append(Device(node_id, spec.queue_capacity,
                                       rngs.draws("backoff", node_id),
                                       rngs.draws("traffic", node_id)))

        # (id(state), input value) -> (next state, action or None for a Wait):
        # a cache of the step function's answers for this network's params.
        self._transitions: dict[tuple, tuple] = {}
        self._asked_cap = False
        self.log: list[PacketRecord] = []
        self._resolved = 0
        self._total_quota = None if spec.quota is None else spec.quota * n_devices
        self._period_symbols = max(1, seconds_to_symbols(spec.interval_s))

    # ---------------------------------------------------------------- run

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
        for rec in self.log:
            if rec.rx_time is None and rec.drop_reason is None:
                rec.drop_reason = DropReason.UNRESOLVED_AT_END
        metrics = self._build_row(summary)
        return RunResult(metrics, summary, self.log)

    def _build_row(self, summary: SimSummary) -> MetricsRow:
        if not self.log:
            return MetricsRow(0, 0, 0, 0, 0, 0, 0, summary.end_time,
                              0.0, None, None, None)
        return build_metrics(self.log, self.log[0].gen_time, summary.end_time)

    # ------------------------------------------------------------ traffic

    def _schedule_arrival(self, dev: Device) -> None:
        if self.distribution == "exponential":
            gap = rng_exponential(dev.traffic_rng, self.interval_s)
        else:
            gap = self._period_symbols
        self.sched.at(self.sched.now + gap, self._on_arrival, dev, kind=_EV_ARRIVAL)

    def _on_arrival(self, dev: Device) -> None:
        now = self.sched.now
        rec = PacketRecord(len(self.log), dev.id, now, self.msdu)
        self.log.append(rec)
        dev.generated += 1
        if self.quota is None or dev.generated < self.quota:
            self._schedule_arrival(dev)
        if self.trace is not None:
            self.trace.add(now, dev.id, "arrival", rec.packet_id)
        if dev.current is None:
            dev.current = rec
            self._start_attempt(dev)
        elif dev.queue.offer(rec):
            if self.trace is not None:
                self.trace.add(now, dev.id, "enqueue", rec.packet_id)
        else:
            self._resolve_drop(rec, DropReason.QUEUE_OVERFLOW)

    # ------------------------------------------------------ MAC sequencing

    def _start_attempt(self, dev: Device) -> None:
        dev.state = IDLE_STATE
        self._feed(dev, _IN_START_TX)

    def _feed(self, dev: Device, event: MacInput) -> None:
        # Every state the machines return is interned for the life of the
        # process, so its id cannot alias; hashing the dataclass or the Enum
        # member would run Python code.
        key = (id(dev.state), event._value_)
        known = self._transitions.get(key)
        if known is None:
            dev.state, action = self._ask_step(dev, event, key)
        else:
            dev.state, action = known
            if action is None:      # a cached Wait: draw a fresh length
                action = backoff_wait(dev.rng, dev.state.be)
        self._apply(dev, action)

    def _ask_step(self, dev: Device, event: MacInput, key: tuple):
        """Ask the step function, and remember its answer unless that read
        the clock (``fits_cap``).  A Wait is remembered without its length,
        and an invalid input raises before anything is stored."""
        self._asked_cap = False
        if self.slotted:
            result = slotted_step(dev.state, event, self.csma, dev.rng,
                                  self._fits_cap)
        else:
            result = unslotted_step(dev.state, event, self.csma, dev.rng)
        if not self._asked_cap:
            state, action = result
            self._transitions[key] = (state, None) if type(action) is Wait else result
        return result

    def _apply(self, dev: Device, action) -> None:
        now = self.sched.now
        if type(action) is Wait:
            units = action.duration // UNIT_BACKOFF
            if self.trace is not None:
                self.trace.add(now, dev.id, "backoff-start", dev.current.packet_id,
                               f"be={dev.state.be} units={units}")
            if self.slotted:
                end = self.schedule.countdown_end(now, units)
                self.sched.at(end, self._on_countdown_done, dev, kind=_EV_BACKOFF)
            else:
                self.sched.at(now + action.duration, self._on_backoff_expired,
                              dev, kind=_EV_BACKOFF)
        elif type(action) is DoCca:
            self._issue_cca(dev)
        elif type(action) is Transmit:
            if self.slotted:
                # CCA result instants sit 8 symbols into a period; the frame
                # goes out on the next 20-symbol boundary.
                self.sched.at(now + (UNIT_BACKOFF - CCA_DURATION), self._begin_data_tx,
                              dev, kind=_EV_TX_START)
            else:
                self._begin_data_tx(dev)
        elif type(action) is ArmAckTimeout:
            dev.ack_timer = self.sched.at(now + action.duration, self._on_ack_timeout,
                                          dev, kind=_EV_ACK_TIMEOUT)
        elif type(action) is Success:
            rec = dev.current
            if self.csma.ack_enabled or dev.last_intact:
                rec.rx_time = now
                if self.trace is not None:
                    self.trace.add(now, dev.id, "delivered", rec.packet_id)
                self._count_resolution()
            else:
                self._resolve_drop(rec, DropReason.RETRY_EXHAUSTED)
            self._next_frame(dev)
        elif type(action) is Fail:
            self._resolve_drop(dev.current, action.reason)
            self._next_frame(dev)
        elif type(action) is DeferToNextCap:
            if self.trace is not None:
                self.trace.add(now, dev.id, "defer", dev.current.packet_id)
            # Both CCAs are redone at the start of the next CAP.
            self.sched.at(self.schedule.next_cap_start(now), self._issue_cca,
                          dev, kind=_EV_BACKOFF)
        else:
            raise SimulationError(f"unhandled MAC action {action!r}")

    def _on_backoff_expired(self, dev: Device) -> None:
        self._feed(dev, _IN_BACKOFF_EXPIRED)

    def _on_countdown_done(self, dev: Device) -> None:
        # Slotted: the countdown may complete too close to the CAP end for a
        # CCA pair (which needs to resolve strictly before nodes sleep); if so
        # it carries over to the next CAP, like the pause rule.
        now = self.sched.now
        schedule = self.schedule
        cap_start, cap_end = schedule.cap_bounds(schedule.index_at(now))
        if now < cap_start or now + UNIT_BACKOFF + CCA_DURATION >= cap_end:
            self.sched.at(schedule.next_cap_start(now), self._on_countdown_done,
                          dev, kind=_EV_BACKOFF)
            return
        self._feed(dev, _IN_BACKOFF_EXPIRED)

    def _fits_cap(self) -> bool:
        # Asked at the second idle CCA, which ends inside the CAP its pair
        # started in: the transaction must end by that CAP's end.
        self._asked_cap = True
        now = self.sched.now
        schedule = self.schedule
        _, cap_end = schedule.cap_bounds(schedule.index_at(now))
        return now + (UNIT_BACKOFF - CCA_DURATION) + self.transaction <= cap_end

    def _issue_cca(self, dev: Device) -> None:
        now = self.sched.now
        if self.slotted and dev.state.cw == 1:
            start = now + (UNIT_BACKOFF - CCA_DURATION)  # next boundary
        else:
            start = now
        if self.trace is not None:
            self.trace.add(start, dev.id, "cca-start", dev.current.packet_id)
        self.sched.at(start + CCA_DURATION, self._on_cca_result, dev,
                      kind=_EV_CCA_RESULT)

    def _on_cca_result(self, dev: Device) -> None:
        busy = self.medium.cca_busy(dev.id, self.sched.now)
        if self.trace is not None:
            self.trace.add(self.sched.now, dev.id, "cca-result",
                           dev.current.packet_id, "busy" if busy else "idle")
        self._feed(dev, _IN_CCA_BUSY if busy else _IN_CCA_IDLE)

    # ------------------------------------------------------- transmissions

    def _begin_data_tx(self, dev: Device) -> None:
        now = self.sched.now
        rec = dev.current
        frame = Frame(FrameKind.DATA, dev.id, self.data_airtime, rec.packet_id)
        dev.tx = self.medium.begin_tx(frame, now)
        rec.tx_count += 1
        if self.trace is not None:
            self.trace.add(now, dev.id, "tx-start", rec.packet_id)
        self.sched.at(now + self.data_airtime, self._on_data_tx_end, dev,
                      kind=_EV_TX_END)

    def _on_data_tx_end(self, dev: Device) -> None:
        now = self.sched.now
        tx = dev.tx
        dev.tx = None
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
        frame = Frame(FrameKind.ACK, COORDINATOR, ACK_AIRTIME, dev.current.packet_id)
        tx = self.medium.begin_tx(frame, now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "ack-start", frame.packet_id)
        self.sched.at(now + ACK_AIRTIME, self._on_ack_tx_end, (tx, dev),
                      kind=_EV_TX_END)

    def _on_ack_tx_end(self, arg) -> None:
        tx, dev = arg
        now = self.sched.now
        self.medium.end_tx(tx, now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "ack-end", tx.frame.packet_id)
        if self.medium.heard_intact(tx, dev.id):
            if (dev.state.phase is _AWAITING_ACK and dev.current is not None
                    and dev.current.packet_id == tx.frame.packet_id):
                self.sched.cancel(dev.ack_timer)
                self._feed(dev, _IN_ACK_RECEIVED)

    def _on_ack_timeout(self, dev: Device) -> None:
        if self.trace is not None:
            self.trace.add(self.sched.now, dev.id, "ack-timeout",
                           dev.current.packet_id)
        self._feed(dev, _IN_ACK_TIMEOUT)

    # --------------------------------------------------------- resolution

    def _resolve_drop(self, rec: PacketRecord, reason: DropReason) -> None:
        rec.drop_reason = reason
        if self.trace is not None:
            self.trace.add(self.sched.now, rec.node, "drop", rec.packet_id,
                           reason.value)
        self._count_resolution()

    def _count_resolution(self) -> None:
        self._resolved += 1
        if self._resolved == self._total_quota:
            self.sched.request_stop()

    def _next_frame(self, dev: Device) -> None:
        dev.current = dev.queue.pop() if len(dev.queue) else None
        if dev.current is not None:
            self._start_attempt(dev)

    # ---------------------------------------------------------- superframe

    def _on_superframe_start(self, k: int) -> None:
        # A quota run whose device events ran dry opens no more superframes,
        # so the heap drains and run() reports the unmet quota.
        if self.quota is not None and not self.sched.pending():
            return
        now = self.sched.now
        for node_id in range(len(self.devices) + 1):
            self.medium.set_awake(node_id, True, now)
        beacon = Frame(FrameKind.BEACON, COORDINATOR, BEACON_AIRTIME)
        btx = self.medium.begin_tx(beacon, now)
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
        for node_id in range(len(self.devices) + 1):
            self.medium.set_awake(node_id, False, now)
        if self.trace is not None:
            self.trace.add(now, COORDINATOR, "sleep", -1, f"k={k}")
