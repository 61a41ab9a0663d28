"""Deterministic discrete-event kernel: clock, event queue, seeded RNG streams.

Simulated time is counted in integer symbol periods of the 2.4 GHz PHY
(62,500 symbols per second), which keeps all superframe arithmetic exact.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

SYMBOL_RATE = 62_500  # symbols per second: 250 kbps O-QPSK, 4 bits/symbol


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
_TIME, _SEQ, _FN, _ARG = range(4)


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
        ``kind`` and ``target`` (the node the event concerns) are for callers
        that wrap this method; the scheduler keeps neither.
        """
        if time < self.now:
            raise SimulationError(
                f"event {kind.value} scheduled at {time} before current time {self.now}")
        entry = [time, self._next_seq(), fn, arg]
        heapq.heappush(self._heap, entry)
        return entry

    def hold(self, time: int, fn, arg=None) -> list:
        """The entry :meth:`at` would queue now, kept out of the queue: its
        ``seq`` is taken now, so :meth:`release` queues it in its FIFO place."""
        return [time, self._next_seq(), fn, arg]

    def release(self, entry: list) -> None:
        """Queue an entry from :meth:`hold`; its time must not have passed."""
        if entry[_TIME] < self.now:
            raise SimulationError(
                f"event released at {entry[_TIME]} before current time {self.now}")
        heapq.heappush(self._heap, entry)

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
_M32, _M53, _M64, _M128 = 2**32 - 1, 2**53 - 1, 2**64 - 1, 2**128 - 1


# numpy's SeedSequence hash constants depend only on how many hashes came
# before, so each is computed once: hash i of the entropy xors _HASH_A[i] and
# multiplies by _HASH_A[i + 1], output word i likewise uses _HASH_B[i : i + 2].
_HASH_A = [0x43B0D7E5]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(9)]


def _hash_a(n: int) -> list[int]:
    """The hash_a table, grown to hold at least ``n + 1`` constants."""
    while len(_HASH_A) <= n:
        _HASH_A.append(_HASH_A[-1] * 0x931E8875 & _M32)
    return _HASH_A


def _entropy_words(entropy: list[int]) -> list[int]:
    """Little-endian 32-bit words of each integer; 0 gives one word."""
    words = []
    for n in entropy:
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    return words


def _crossed_pool(words: list[int]) -> list[int]:
    """SeedSequence's pool after hashing in the first four words (zeros pad
    fewer) and mixing each pool word into the others: 16 hashes."""
    a = _hash_a(16)
    pool = []
    for i in range(4):
        value = ((words[i] if i < len(words) else 0) ^ a[i]) * a[i + 1] & _M32
        pool.append(value ^ value >> 16)
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = (pool[src] ^ a[i]) * a[i + 1] & _M32
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16)) & _M32
                pool[dst] = r ^ r >> 16
                i += 1
    return pool


def _seed_state(pool: list[int], words: list[int]) -> tuple[int, int, int, int]:
    """``generate_state(4, uint64)`` once ``words``, the entropy past the
    first four, are mixed into a copy of the crossed ``pool``."""
    pool = pool.copy()
    a = _hash_a(16 + 4 * len(words))
    i = 16
    for word in words:
        for dst in range(4):
            value = (word ^ a[i]) * a[i + 1] & _M32
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16)) & _M32
            pool[dst] = r ^ r >> 16
            i += 1
    b = _HASH_B
    out = []
    for j in range(8):
        value = (pool[j & 3] ^ b[j]) * b[j + 1] & _M32
        out.append(value ^ value >> 16)
    return (out[0] | out[1] << 32, out[2] | out[3] << 32,
            out[4] | out[5] << 32, out[6] | out[7] << 32)


# numpy's 256-level exponential ziggurat (Marsaglia & Tsang 2000): the
# ke_double, we_double and fe_double tables of its distributions.c.
_ZIGGURAT = struct.unpack("<256Q256d256d",
                          (Path(__file__).parent / "ziggurat_exp.bin").read_bytes())
_KE, _WE, _FE = _ZIGGURAT[:256], _ZIGGURAT[256:512], _ZIGGURAT[512:]
_ZIGGURAT_EXP_R = 7.6971174701310497140446280481
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWICE = 2**64 + 1   # x * _TWICE is x beside itself, so >> rot rotates it


class Pcg64:
    """A PCG64 stream (O'Neill 2014) whose draws equal numpy 2.4's
    ``Generator(PCG64(SeedSequence(entropy)))`` bit for bit.

    Values are drawn when asked for.  Each output steps the 128-bit state,
    then applies XSL-RR.  :meth:`uint32` hands out the low half of an output
    and keeps its high half for the next call, as ``Generator.integers``
    does for 32-bit ranges.  A stream should use one kind of draw only:
    numpy's 64-bit draws do not consume the kept half.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: list[int]):
        """numpy's ``SeedSequence(entropy)`` seeding."""
        words = _entropy_words(entropy)
        self._start(_seed_state(_crossed_pool(words), words[4:]))

    def _start(self, seed_state: tuple[int, int, int, int]) -> None:
        """Seed from ``generate_state(4, uint64)``, as numpy's PCG64 does."""
        w0, w1, w2, w3 = seed_state
        self._inc = (w2 << 64 | w3) << 1 & _M128 | 1
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _M128
        self._half = None

    @property
    def state(self) -> tuple:
        """``(state, inc, kept 32-bit half or None)``."""
        return self._state, self._inc, self._half

    def next64(self) -> int:
        # uint32 and standard_exponential inline this step: they are hot.
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        return ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122) & _M64

    def uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122)
        self._half = x >> 32 & _M32
        return x & _M32

    def next_double(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_double()

    def standard_exponential(self) -> float:
        """numpy's ``random_standard_exponential``: a 256-level ziggurat."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64 ^ s) & _M64) * _TWICE >> (s >> 122)
        r = x >> 11 & _M53
        idx = x >> 3 & 0xFF
        if r < _KE[idx]:
            return r * _WE[idx]    # 98.9% of draws end here
        if idx == 0:
            return _ZIGGURAT_EXP_R - math.log1p(-self.next_double())
        x = r * _WE[idx]
        if (_FE[idx - 1] - _FE[idx]) * self.next_double() + _FE[idx] < math.exp(-x):
            return x
        return self.standard_exponential()


class RngManager:
    """Derives independent, reproducible RNG streams from one master seed.

    Streams are keyed by (purpose, key), so a node's draws do not change
    when unrelated nodes are added to the scenario.  PCG64 is fixed as the
    generator for the lifetime of the project.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & _M64
        self._pools: dict[str, list[int]] = {}

    def draws(self, purpose: str, key: int = 0) -> Pcg64:
        """The stream ``(purpose, key)``: ``Pcg64([master_seed, salt, tag, key])``.

        A master seed above 32 bits fills the first four entropy words with
        the master, salt and purpose tag, so their crossed pool is derived
        once per purpose and each stream mixes in only its key.
        """
        pool = self._pools.get(purpose)
        if pool is None:
            tag = zlib.crc32(purpose.encode("ascii"))
            if self.master_seed <= _M32:
                return Pcg64([self.master_seed, _PURPOSE_SALT, tag, key])
            pool = self._pools[purpose] = _crossed_pool(
                _entropy_words([self.master_seed, _PURPOSE_SALT, tag]))
        draws = Pcg64.__new__(Pcg64)
        draws._start(_seed_state(pool, _entropy_words([key])))
        return draws


def rng_uniform_units(draws: Pcg64, be: int) -> int:
    """Uniform integer in [0, 2**be - 1]: a backoff delay in whole units.

    Equals numpy's ``Generator.integers(0, 2**be)`` on the same stream: for
    a power-of-two range its Lemire method keeps the top ``be`` bits of one
    32-bit word and never rejects.
    """
    if not 0 <= be <= 32:
        raise ValueError(f"backoff exponent must be in [0, 32], got {be}")
    if be == 0:
        return 0
    return draws.uint32() >> (32 - be)


def rng_exponential(draws: Pcg64, mean_seconds: float) -> int:
    """Exponential interarrival in symbols, rounded and clamped to >= 1.

    Equals ``max(1, round(Generator.exponential(mean_seconds) * SYMBOL_RATE))``
    on the same numpy stream, which scales one standard exponential by the
    mean.
    """
    if mean_seconds <= 0:
        raise ValueError(f"mean interval must be positive, got {mean_seconds}")
    return max(1, round(draws.standard_exponential() * mean_seconds * SYMBOL_RATE))
