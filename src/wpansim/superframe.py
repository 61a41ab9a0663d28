"""Beacon-enabled superframe structure, CAP-aware timing, slotted CSMA-CA.

A superframe spans one beacon interval ``BI = 960 * 2**BO`` symbols and opens
with a beacon.  The active portion lasts ``SD = 960 * 2**SO`` symbols and
divides into 16 equal slots; devices sleep for the remainder.  The contention
access period (CAP) runs from the first 20-symbol backoff boundary after the
beacon to the end of the active portion.  All backoff boundaries land on the
global 20-symbol grid because beacon intervals are multiples of 960.
"""

from __future__ import annotations

from wpansim.csma import (CsmaParams, MacAction, MacInput, TxAttemptState, _step,
                          check_range)
from wpansim.phy import BASE_SUPERFRAME, BEACON_AIRTIME, MIN_CAP_LENGTH, UNIT_BACKOFF

MAX_ORDER = 14


def beacon_interval(bo: int) -> int:
    """BI in symbols for beacon order ``bo``."""
    check_range("bo", bo, 0, MAX_ORDER)
    return BASE_SUPERFRAME * (1 << bo)


def superframe_duration(so: int) -> int:
    """SD in symbols for superframe order ``so``."""
    check_range("so", so, 0, MAX_ORDER)
    return BASE_SUPERFRAME * (1 << so)


def duty_cycle(so: int, bo: int) -> float:
    """Fraction of time the network is active: SD / BI."""
    schedule = SuperframeSchedule(bo, so)
    return schedule.sd / schedule.bi


class SuperframeSchedule:
    """Absolute-time queries against the periodic superframe structure of
    beacon order ``bo`` and superframe order ``so``, which must satisfy
    ``0 <= so <= bo <= MAX_ORDER``."""

    def __init__(self, bo: int, so: int):
        self.bi = beacon_interval(bo)
        self.sd = superframe_duration(so)
        if so > bo:
            raise ValueError(f"so must not exceed bo, got bo={bo} so={so}")
        self.slot_len = self.sd // 16
        # First boundary clear of the beacon: 38 symbols rounded up to the grid.
        self.cap_offset = -(-BEACON_AIRTIME // UNIT_BACKOFF) * UNIT_BACKOFF
        if self.sd - self.cap_offset < MIN_CAP_LENGTH:
            raise ValueError(f"so={so} leaves a CAP shorter than "
                             f"{MIN_CAP_LENGTH} symbols")

    def index_at(self, t: int) -> int:
        return t // self.bi

    def cap_bounds(self, k: int) -> tuple[int, int]:
        start = k * self.bi
        return start + self.cap_offset, start + self.sd

    def in_cap(self, t: int) -> bool:
        cap_start, cap_end = self.cap_bounds(self.index_at(t))
        return cap_start <= t < cap_end

    def next_cap_start(self, t: int) -> int:
        """First CAP opening at or after ``t``."""
        k = self.index_at(t)
        cap_start, _ = self.cap_bounds(k)
        if t <= cap_start:
            return cap_start
        return self.cap_bounds(k + 1)[0]

    def cap_end_for(self, t: int) -> int:
        """End of the CAP containing instant ``t``."""
        cap_start, cap_end = self.cap_bounds(self.index_at(t))
        if not cap_start <= t < cap_end:
            raise ValueError(f"time {t} is not inside a CAP")
        return cap_end

    def countdown_end(self, t: int, units: int) -> int:
        """Boundary where a slotted backoff of ``units`` periods expires.

        Counting starts at the first boundary at or after ``t`` and only
        consumes whole periods that lie inside a CAP; it pauses over beacons
        and inactive portions.  A countdown that completes with fewer than
        two periods left in its CAP, too few for the CCA pair, expires at the
        start of the next CAP instead (also for a zero-length countdown).
        """
        if units < 0:
            raise ValueError(f"countdown units must be non-negative, got {units}")
        start = t - t % self.bi             # of the superframe holding t
        b = max(-(-t // UNIT_BACKOFF) * UNIT_BACKOFF, start + self.cap_offset)
        while True:
            cap_end = start + self.sd
            if b <= cap_end:
                avail = (cap_end - b) // UNIT_BACKOFF
                if units + 2 <= avail:
                    return b + units * UNIT_BACKOFF
                if units <= avail:
                    return start + self.bi + self.cap_offset
                units -= avail
            start += self.bi
            b = start + self.cap_offset


def slotted_step(state: TxAttemptState, event: MacInput,
                 params: CsmaParams) -> tuple[TxAttemptState, MacAction]:
    """One transition of the slotted (beacon-mode) CSMA-CA machine.

    Differences from the unslotted variant: a contention window of two CCAs
    on consecutive backoff boundaries must both find the channel idle (any
    busy result resets CW to 2 alongside the NB/BE escalation), and the whole
    transaction (frame, turnaround, acknowledgement) must fit in the current
    CAP.  The caller observes that fit as it observes the channel: when the
    second CCA is idle but the transaction would cross the CAP end, it feeds
    ``CCA_IDLE_NO_FIT`` instead of ``CCA_IDLE``, and the frame is deferred to
    the next CAP, where both CCAs are performed anew.

    The caller draws backoff lengths and owns all boundary alignment and the
    pausing of backoff countdowns outside the CAP; this function only
    sequences the protocol.
    """
    return _step(state, event, params, True)
