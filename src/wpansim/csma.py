"""CSMA-CA transmit state machine and the MAC queue.

The machine is a pure transition function ``(state, input) -> (state, action)``:
it owns no clock, draws no random number and schedules nothing.  The caller
performs each emitted action (back off, CCA, transmit, arm a timer) and feeds
the observed outcome back as the next input, which keeps the protocol logic
unit-testable without a simulator.  A ``Wait`` says only that the device backs
off; the caller draws its length with :func:`backoff_units`.  Actions are
constants, and the network walks each machine into a table once per
parameter set (see ``network._machine``).

The slotted variant (contention window, CAP deference) shares this core; see
:func:`wpansim.superframe.slotted_step`.
"""

from __future__ import annotations

import reprlib
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum

from wpansim.kernel import Pcg64, SimulationError, rng_uniform_units
from wpansim.phy import ACK_WAIT

MAX_BE = 8   # largest permitted macMaxBE


def check_range(name: str, value, lo, hi=None) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi`` (``hi=None``: no upper
    bound).  The message starts with ``name``, which lets a scenario file
    report the error at that key's line."""
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")


# A diagnostic echoes a value two levels deep at most, so that one whose YAML
# aliases expand it to millions of items still shows in a few dozen characters.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 2
brief_repr = _BRIEF.repr


_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false")}


def type_error(name: str, value, annotation: str) -> str | None:
    """Why ``value`` cannot fill a spec field typed ``annotation``, if it cannot.

    Other annotations pass: a string field is a choice, and a structured one
    (a sweep's ``base`` and ``axes``) is checked by its spec.
    """
    kind, _, optional = annotation.partition(" | ")
    if (value is None and optional) or kind not in _TYPES:
        return None
    types, expected = _TYPES[kind]
    # bool is a subclass of int: true/false is neither integer nor number.
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        return f"{name} must be {expected}, got {brief_repr(value)}"
    return None


def check_types(spec) -> None:
    """Raise ``ValueError`` at the first field of dataclass ``spec``, in field
    order, whose value its annotation (a string, under PEP 563) rejects.  An
    int in a ``float`` field becomes a float, so equal specs compare equal."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        error = type_error(field.name, value, field.type)
        if error:
            raise ValueError(error)
        if value is not None and field.type.startswith("float"):
            try:
                object.__setattr__(spec, field.name, float(value))
            except OverflowError:   # an int past the largest float
                raise ValueError(f"{field.name} must be a finite number, "
                                 f"got {brief_repr(value)}") from None


@dataclass(frozen=True, slots=True)
class CsmaParams:
    """Tunable MAC attributes, checked against their types and permitted values."""

    min_be: int = 3             # macMinBE
    max_be: int = 5             # macMaxBE
    max_nb: int = 4             # macMaxCSMABackoffs
    max_frame_retries: int = 3  # macMaxFrameRetries
    ack_enabled: bool = True

    def __post_init__(self):
        check_types(self)
        check_range("max_be", self.max_be, 3, MAX_BE)
        check_range("min_be", self.min_be, 0, self.max_be)
        check_range("max_nb", self.max_nb, 0, 5)
        check_range("max_frame_retries", self.max_frame_retries, 0, 7)


class DropReason(Enum):
    QUEUE_OVERFLOW = "queue_overflow"
    CHANNEL_ACCESS_FAILURE = "channel_access_failure"
    RETRY_EXHAUSTED = "retry_exhausted"
    UNRESOLVED_AT_END = "unresolved_at_end"


class Phase(Enum):
    IDLE = "idle"
    BACKOFF = "backoff"
    CCA = "cca"
    TRANSMITTING = "transmitting"
    AWAITING_ACK = "awaiting_ack"
    SUCCESS = "success"
    FAILED = "failed"


class MacInput(Enum):
    START_TX = "start_tx"
    BACKOFF_EXPIRED = "backoff_expired"
    CCA_IDLE = "cca_idle"
    CCA_IDLE_NO_FIT = "cca_idle_no_fit"  # slotted, cw 1: the transaction overruns the CAP
    CCA_BUSY = "cca_busy"
    TX_DONE = "tx_done"
    ACK_RECEIVED = "ack_received"
    ACK_TIMEOUT = "ack_timeout"


# Actions the caller must carry out.  Durations are in symbols.
@dataclass(frozen=True, slots=True)
class Wait:
    """Back off for a fresh draw of :func:`backoff_units` at the state's BE."""


@dataclass(frozen=True, slots=True)
class DoCca:
    pass


@dataclass(frozen=True, slots=True)
class Transmit:
    pass


@dataclass(frozen=True, slots=True)
class ArmAckTimeout:
    duration: int


@dataclass(frozen=True, slots=True)
class Success:
    pass


@dataclass(frozen=True, slots=True)
class Fail:
    reason: DropReason


@dataclass(frozen=True, slots=True)
class DeferToNextCap:
    """Slotted only: park until the next CAP and perform both CCAs there."""


MacAction = Wait | DoCca | Transmit | ArmAckTimeout | Success | Fail | DeferToNextCap

# Actions are constants: field-less ones once, Fail once per reason.
_WAIT = Wait()
_DO_CCA = DoCca()
_TRANSMIT = Transmit()
_SUCCESS = Success()
_DEFER = DeferToNextCap()
_ARM_ACK = ArmAckTimeout(ACK_WAIT)
_FAIL_ACCESS = Fail(DropReason.CHANNEL_ACCESS_FAILURE)
_FAIL_RETRIES = Fail(DropReason.RETRY_EXHAUSTED)

# Enum class attribute lookups are slow; bind the members once.  The table
# walk (``network._machine``) asks ``_step`` about every state and input,
# about a thousand calls per machine, and these names cut its time by 40%.
_IDLE, _BACKOFF, _CCA = Phase.IDLE, Phase.BACKOFF, Phase.CCA
_TRANSMITTING, _AWAITING_ACK = Phase.TRANSMITTING, Phase.AWAITING_ACK
_SUCCEEDED, _FAILED = Phase.SUCCESS, Phase.FAILED
_START_TX, _BACKOFF_EXPIRED = MacInput.START_TX, MacInput.BACKOFF_EXPIRED
_CCA_IDLE, _CCA_BUSY = MacInput.CCA_IDLE, MacInput.CCA_BUSY
_TX_DONE, _ACK_RECEIVED, _ACK_TIMEOUT = (MacInput.TX_DONE, MacInput.ACK_RECEIVED,
                                         MacInput.ACK_TIMEOUT)


@dataclass(frozen=True, slots=True)
class TxAttemptState:
    """Live counters of one frame's delivery attempt."""

    nb: int = 0
    be: int = 0
    cw: int = 0
    retries: int = 0
    phase: Phase = Phase.IDLE


IDLE_STATE = TxAttemptState()


def backoff_units(rng: Pcg64, be: int) -> int:
    """Backoff periods of a ``Wait`` at exponent ``be``: uniform on
    0 .. 2**be - 1 (IEEE 802.15.4-2006 7.5.1.4)."""
    return rng_uniform_units(rng, be)


def _step(state: TxAttemptState, event: MacInput, params: CsmaParams,
          slotted: bool) -> tuple[TxAttemptState, MacAction]:
    phase = state.phase

    if phase is _CCA and event is _CCA_IDLE:
        if slotted and state.cw == 2:
            return TxAttemptState(state.nb, state.be, 1, state.retries, _CCA), _DO_CCA
        return TxAttemptState(state.nb, state.be, 0, state.retries,
                              _TRANSMITTING), _TRANSMIT

    if phase is _CCA and event is MacInput.CCA_IDLE_NO_FIT and slotted and state.cw == 1:
        # Hold the frame and redo both CCAs in the next CAP, without
        # drawing a new backoff.
        return TxAttemptState(state.nb, state.be, 2, state.retries, _CCA), _DEFER

    if phase is _CCA and event is _CCA_BUSY:
        nb = state.nb + 1
        if nb > params.max_nb:
            return TxAttemptState(nb, state.be, state.cw, state.retries,
                                  _FAILED), _FAIL_ACCESS
        return TxAttemptState(nb, min(state.be + 1, params.max_be), 2 if slotted else 0,
                              state.retries, _BACKOFF), _WAIT

    if phase is _BACKOFF and event is _BACKOFF_EXPIRED:
        return TxAttemptState(state.nb, state.be, state.cw, state.retries,
                              _CCA), _DO_CCA

    if phase is _TRANSMITTING and event is _TX_DONE:
        if params.ack_enabled:
            return TxAttemptState(state.nb, state.be, state.cw, state.retries,
                                  _AWAITING_ACK), _ARM_ACK
        return TxAttemptState(state.nb, state.be, state.cw, state.retries,
                              _SUCCEEDED), _SUCCESS

    if phase is _AWAITING_ACK and event is _ACK_RECEIVED:
        return TxAttemptState(state.nb, state.be, state.cw, state.retries,
                              _SUCCEEDED), _SUCCESS

    if phase is _AWAITING_ACK and event is _ACK_TIMEOUT:
        retries = state.retries + 1
        if retries > params.max_frame_retries:
            return TxAttemptState(state.nb, state.be, state.cw, retries,
                                  _FAILED), _FAIL_RETRIES
        return TxAttemptState(0, params.min_be, 2 if slotted else 0, retries,
                              _BACKOFF), _WAIT

    if phase is _IDLE and event is _START_TX:
        return TxAttemptState(0, params.min_be, 2 if slotted else 0, 0, _BACKOFF), _WAIT

    raise SimulationError(
        f"MAC input {event._value_} is not valid in phase {phase._value_}")


def unslotted_step(state: TxAttemptState, event: MacInput,
                   params: CsmaParams) -> tuple[TxAttemptState, MacAction]:
    """One transition of the unslotted (non-beacon) CSMA-CA machine.

    On busy CCA the backoff stage counter NB and the exponent BE grow until
    NB exceeds MaxNB (channel access failure); a missing acknowledgement
    restarts CSMA from scratch until retries exceed MaxFrameRetries.
    """
    return _step(state, event, params, False)


class MacQueue:
    """FIFO of frames waiting behind the one in service; overflow drops the
    newest arrival.  ``capacity=None`` removes the bound."""

    def __init__(self, capacity: int | None = 1):
        if capacity is not None and capacity < 0:
            raise ValueError(f"queue capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, item) -> bool:
        """Append ``item``; False when the queue is full and the item dropped."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def pop(self):
        return self._items.popleft()
