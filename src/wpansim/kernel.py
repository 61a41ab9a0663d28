"""Deterministic discrete-event kernel: clock, event queue, seeded RNG streams.

Simulated time is counted in integer symbol periods of the 2.4 GHz PHY
(62,500 symbols per second), which keeps all superframe arithmetic exact.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

SYMBOL_RATE = 62_500  # symbols per second: 250 kbps O-QPSK, 4 bits/symbol


def symbols_to_seconds(symbols: int) -> float:
    return symbols / SYMBOL_RATE


def seconds_to_symbols(seconds: float) -> int:
    """Convert seconds to the nearest whole symbol count."""
    return round(seconds * SYMBOL_RATE)


class SimulationError(Exception):
    """A protocol violation or impossible schedule inside a simulation run."""


class EventKind(Enum):
    ARRIVAL = "arrival"
    BACKOFF = "backoff"
    CCA_RESULT = "cca-result"
    TX_START = "tx-start"
    TX_END = "tx-end"
    ACK_TIMEOUT = "ack-timeout"
    BEACON = "beacon"
    CAP_END = "cap-end"
    SUPERFRAME_START = "superframe-start"
    GENERIC = "generic"


class StopReason(Enum):
    TIME_LIMIT = "time_limit"
    STOPPED = "stopped"
    COMPLETED = "completed"
    STARVED = "starved"


@dataclass(frozen=True, slots=True)
class SimSummary:
    end_time: int
    events_processed: int
    stop_reason: StopReason


# Heap entry layout; (time, seq) is unique so later fields are never compared.
# The entry itself is the event's handle: cancelling or firing it clears _FN.
_TIME, _SEQ, _FN, _ARG, _KIND = range(5)


class Scheduler:
    """Event queue with a monotone clock and FIFO tie-breaking.

    Events at equal times fire in insertion order; ordering never depends
    on payload contents, so unrelated changes cannot reorder ties.
    """

    def __init__(self):
        self._heap: list[list] = []
        self._next_seq = itertools.count().__next__
        self.now = 0           # current simulated time, in symbols
        self._processed = 0
        self._stop_requested = False

    def at(self, time: int, fn, arg=None, *, kind: EventKind = EventKind.GENERIC,
           target=None) -> list:
        """Schedule ``fn(arg)`` at ``time``; scheduling in the past is an error.

        Returns the heap entry as an opaque handle for :meth:`cancel`.
        ``target`` names the node the event concerns, for callers that wrap
        this method; the scheduler does not keep it.
        """
        if time < self.now:
            raise SimulationError(
                f"event {kind.value} scheduled at {time} before current time {self.now}")
        entry = [time, self._next_seq(), fn, arg, kind]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> bool:
        """Cancel a pending event; False if it already fired or was cancelled."""
        if handle[_FN] is None:
            return False
        handle[_FN] = handle[_ARG] = None
        return True

    def pending(self) -> bool:
        """True while some scheduled event has neither fired nor been cancelled."""
        return any(entry[_FN] is not None for entry in self._heap)

    def request_stop(self) -> None:
        """Stop the run after the currently executing event completes."""
        self._stop_requested = True

    def run(self, *, until: int | None = None) -> SimSummary:
        """Process events in (fire_time, insertion) order until a stop condition.

        ``until`` stops the run with the clock set to exactly that time; events
        scheduled at or after it stay pending.  Running dry before an ``until``
        reports starvation.
        """
        heap = self._heap
        pop = heapq.heappop
        while True:
            if self._stop_requested:
                return self._finish(StopReason.STOPPED)
            if not heap:
                if until is None:
                    return self._finish(StopReason.COMPLETED)
                return self._finish(StopReason.STARVED)
            entry = heap[0]
            if until is not None and entry[_TIME] >= until:
                self.now = until
                return self._finish(StopReason.TIME_LIMIT)
            pop(heap)
            fn = entry[_FN]
            if fn is None:
                continue
            self.now = entry[_TIME]
            entry[_FN] = None
            fn(entry[_ARG])
            self._processed += 1

    def _finish(self, reason: StopReason) -> SimSummary:
        return SimSummary(self.now, self._processed, reason)


_PURPOSE_SALT = 0x802154


class RngManager:
    """Derives independent, reproducible RNG streams from one master seed.

    Streams are keyed by (purpose, key), so a node's draws do not change
    when unrelated nodes are added to the scenario.  PCG64 is fixed as the
    generator for the lifetime of the project.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & (2**64 - 1)

    def stream(self, purpose: str, key: int = 0) -> np.random.Generator:
        tag = zlib.crc32(purpose.encode("ascii"))
        seq = np.random.SeedSequence([self.master_seed, _PURPOSE_SALT, tag, key])
        return np.random.Generator(np.random.PCG64(seq))

    def draws(self, purpose: str, key: int = 0) -> BlockDraws:
        """The stream ``(purpose, key)`` read through a :class:`BlockDraws`."""
        return BlockDraws(self.stream(purpose, key))


DRAW_BLOCK = 32   # draws per refill: small, since idle buffers stay allocated


class BlockDraws:
    """A PCG64 stream read in blocks of ``DRAW_BLOCK`` draws, each block
    filled on first use, yielding exactly the values of per-call draws.

    :meth:`uint32` returns the 32-bit words that PCG64 hands out one by one
    (the low half of each 64-bit output, then its high half), as used by
    ``Generator.integers`` for 32-bit ranges.  :meth:`standard_exponential`
    returns the ziggurat draws of ``Generator.standard_exponential``.  A
    stream must use one kind only: per-call draws would interleave the two
    kinds differently.
    """

    __slots__ = ("_gen", "_u32", "_exp")

    def __init__(self, generator: np.random.Generator):
        self._gen = generator
        self._u32: list[int] = []     # pending draws, next one last
        self._exp: list[float] = []

    def uint32(self) -> int:
        if not self._u32:
            raw = self._gen.bit_generator.random_raw(DRAW_BLOCK // 2)
            halves = np.stack((raw & 0xFFFF_FFFF, raw >> 32), axis=1)
            self._u32 = halves.ravel()[::-1].tolist()
        return self._u32.pop()

    def standard_exponential(self) -> float:
        if not self._exp:
            self._exp = self._gen.standard_exponential(DRAW_BLOCK)[::-1].tolist()
        return self._exp.pop()


def rng_uniform_units(draws: BlockDraws, be: int) -> int:
    """Uniform integer in [0, 2**be - 1]: a backoff delay in whole units.

    Equals ``Generator.integers(0, 2**be)`` on the same stream: for a
    power-of-two range its Lemire method keeps the top ``be`` bits of one
    32-bit word and never rejects.
    """
    if not 0 <= be <= 32:
        raise ValueError(f"backoff exponent must be in [0, 32], got {be}")
    if be == 0:
        return 0
    return draws.uint32() >> (32 - be)


def rng_exponential(draws: BlockDraws, mean_seconds: float) -> int:
    """Exponential interarrival in symbols, rounded and clamped to >= 1.

    Equals ``max(1, round(Generator.exponential(mean_seconds) * SYMBOL_RATE))``
    on the same stream, which scales one standard exponential by the mean.
    """
    if mean_seconds <= 0:
        raise ValueError(f"mean interval must be positive, got {mean_seconds}")
    return max(1, round(draws.standard_exponential() * mean_seconds * SYMBOL_RATE))
