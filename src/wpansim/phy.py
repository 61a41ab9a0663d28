"""PHY and channel model: airtimes, binary-disc propagation, CCA, collisions.

The channel is an ideal binary disc: a frame is heard at full fidelity inside
the communication range and not at all outside it.  Propagation delay is zero.
Any temporal overlap between two frames audible at a receiver corrupts both;
there is no capture effect.  A receiver transmitting during a frame misses it
(half-duplex): it is among the frame's overlappers, and every node hears
itself.  Sleep is PAN-wide, as in a beacon-enabled PAN's inactive portion:
every radio sleeps and wakes at once, never with a frame on the air.
"""

from __future__ import annotations

import math
from enum import IntEnum

from wpansim.kernel import SimulationError

# MAC/PHY timing constants, in symbols unless noted.
UNIT_BACKOFF = 20          # aUnitBackoffPeriod
BASE_SUPERFRAME = 960      # aBaseSuperframeDuration
MIN_CAP_LENGTH = 440       # aMinCAPLength
TURNAROUND = 12            # aTurnaroundTime (rx/tx switch)
CCA_DURATION = 8           # symbols sensed per clear-channel assessment
ACK_WAIT = 54              # macAckWaitDuration, in both modes

PHY_OVERHEAD_BYTES = 6     # synchronisation header + PHY header
MAC_DATA_OVERHEAD_BYTES = 11   # data-frame MHR + FCS
ACK_MPDU_BYTES = 5
BEACON_MPDU_BYTES = 13
MAX_MSDU_BYTES = 118       # largest payload the harness accepts

SYMBOLS_PER_BYTE = 2       # 8 bits / 4 bits-per-symbol

COMM_RANGE_M = 176.0       # binary-disc radius at 1 mW tx / -85 dBm sensitivity


def frame_airtime(mpdu_len: int) -> int:
    """Airtime in symbols of a frame whose MAC-level PDU is ``mpdu_len`` bytes."""
    if mpdu_len < 0:
        raise ValueError(f"MPDU length must be non-negative, got {mpdu_len}")
    return (mpdu_len + PHY_OVERHEAD_BYTES) * SYMBOLS_PER_BYTE


def data_frame_airtime(msdu_bytes: int) -> int:
    """Airtime of a data frame carrying ``msdu_bytes`` of payload."""
    if msdu_bytes < 0:
        raise ValueError(f"MSDU size must be non-negative, got {msdu_bytes}")
    return frame_airtime(msdu_bytes + MAC_DATA_OVERHEAD_BYTES)


ACK_AIRTIME = frame_airtime(ACK_MPDU_BYTES)        # 22 symbols
BEACON_AIRTIME = frame_airtime(BEACON_MPDU_BYTES)  # 38 symbols


class FrameKind(IntEnum):
    DATA = 0
    ACK = 1
    BEACON = 2


class Transmission:
    """One frame on the air; :meth:`Medium.begin_tx` stamps its start and end."""

    __slots__ = ("kind", "src", "airtime", "packet_id", "start", "end", "overlappers")

    def __init__(self, kind: FrameKind, src: int, airtime: int, packet_id: int = -1):
        self.kind = kind
        self.src = src
        self.airtime = airtime
        self.packet_id = packet_id
        # Senders of the frames that overlapped this one in time at any point;
        # holding the frames themselves would tie overlapping ones in cycles.
        self.overlappers: list[int] = []


class Medium:
    """Shared radio medium for one PAN: who is audible to whom, and when.

    Nodes register once with a position.  A frame is one :class:`Transmission`
    from :meth:`begin_tx` to :meth:`end_tx`; reception outcomes are evaluated
    at its end, by which time every overlap has been recorded.
    """

    def __init__(self):
        self._pos: dict[int, tuple[float, float]] = {}
        # Nodes within range of each node, itself included; geometry is static.
        self._hears: dict[int, set[int]] = {}
        self._awake = True
        # Frames in start order, on the air or ended less than CCA_DURATION
        # ago; end_tx drops older ones, and each reader tests ``end`` itself.
        self._air: list[Transmission] = []

    def add_node(self, node_id: int, x: float = 0.0, y: float = 0.0) -> None:
        if node_id in self._pos:
            raise ValueError(f"node {node_id} registered twice")
        self._pos[node_id] = (x, y)
        self._hears[node_id] = set()
        for other, (ox, oy) in self._pos.items():
            if math.hypot(x - ox, y - oy) <= COMM_RANGE_M:
                self._hears[node_id].add(other)
                self._hears[other].add(node_id)

    def set_awake(self, awake: bool, now: int) -> None:
        """Wake or sleep every radio of the PAN at once.

        No frame may be on the air when the PAN falls asleep; a frame ending
        exactly now has finished and was fully heard.
        """
        if not awake:
            for tx in self._air:
                if tx.end > now:
                    raise SimulationError(f"PAN put to sleep while node {tx.src} transmits")
        self._awake = awake

    def begin_tx(self, tx: Transmission, now: int) -> Transmission:
        src = tx.src
        if not self._awake:
            raise SimulationError(f"node {src} began a frame while asleep")
        tx.start = now
        tx.end = now + tx.airtime
        for other in self._air:
            # A transmission ending exactly now does not overlap [now, end).
            if other.end > now:
                if other.src == src:
                    raise SimulationError(
                        f"node {src} began a frame while already transmitting")
                tx.overlappers.append(other.src)
                other.overlappers.append(src)
        self._air.append(tx)
        return tx

    def end_tx(self, tx: Transmission, now: int) -> None:
        if tx.end != now:
            raise SimulationError(f"transmission closed at {now}, expected {tx.end}")
        cutoff = now - CCA_DURATION
        self._air = [other for other in self._air if other.end > cutoff]

    def heard_intact(self, tx: Transmission, node_id: int) -> bool:
        """Whether ``node_id`` received the whole frame uncorrupted."""
        if node_id == tx.src:
            return False
        hears = self._hears[node_id]
        if tx.src not in hears:
            return False
        # A node that sent during the frame is an overlapper and hears itself.
        return hears.isdisjoint(tx.overlappers)

    def cca_busy(self, node_id: int, now: int) -> bool:
        """Channel state over the CCA window [now - 8, now).

        Busy when any foreign transmission audible at the node overlaps the
        window; both window and transmissions are half-open intervals.
        """
        if not self._awake:
            raise SimulationError(f"sleeping node {node_id} performed a CCA")
        hears = self._hears[node_id]
        w_start = now - CCA_DURATION
        for tx in self._air:
            src = tx.src
            if src != node_id and tx.start < now and tx.end > w_start and src in hears:
                return True
        return False
