"""Optional per-event MAC trace for conformance checks and debugging.

Events carry the node, a short tag, and (in beacon mode) the superframe
index, slot index, and period the instant falls in.  The text form is one
tab-separated line per event with a fixed column order, stable across
versions; missing numeric fields are written as ``-``.

A :class:`MacTrace` formats each event into its text line once, when added,
and either sends the line on to a text stream (a streamed trace, which keeps
nothing) or keeps it in memory, where it is parsed back into a
:class:`TraceEvent` only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:
    from wpansim.superframe import SuperframeSchedule

COLUMNS = ["time", "node", "event", "pkt", "sf", "slot", "period", "note"]
_HEADER = "\t".join(COLUMNS) + "\n"
_NO_ANNOTATION = "\t-\t-\t-\t"


@dataclass(slots=True)
class TraceEvent:
    time: int
    node: int
    event: str
    pkt: int = -1
    sf: int = -1
    slot: int = -1
    period: str = ""
    note: str = ""


def _parse(line: str) -> TraceEvent:
    """The event of one trace line; ValueError if the line is malformed."""
    time, node, event, pkt, sf, slot, period, note = line.rstrip("\n").split("\t")
    return TraceEvent(int(time), int(node), event,
                      -1 if pkt == "-" else int(pkt),
                      -1 if sf == "-" else int(sf),
                      -1 if slot == "-" else int(slot),
                      "" if period == "-" else period,
                      "" if note == "-" else note)


class MacTrace:
    """Append-only event collection; ordering follows simulation callbacks,
    which may announce an imminent instant slightly ahead (sort by time when
    strict order matters).

    With a ``stream``, the header is written to it at once and every line as
    it is added; the queries (``len``, iteration, ``events``, ``of_kind``,
    ``write``) then raise, since the lines are only in the stream.  Without
    one, the lines are kept for those queries.
    """

    def __init__(self, stream: TextIO | None = None):
        if stream is None:
            self._lines: list[str] | None = []
            self._emit = self._lines.append
        else:
            self._lines = None
            stream.write(_HEADER)
            self._emit = stream.write
        self.use_schedule(None)

    def use_schedule(self, schedule: SuperframeSchedule | None) -> None:
        """Annotate later lines with the superframe, slot and period that
        ``schedule`` gives their instant; ``None`` leaves them blank."""
        self._schedule = schedule
        # The annotation of every instant in [_lo, _hi) is _annotation.
        if schedule is None:
            self._lo, self._hi, self._annotation = -math.inf, math.inf, _NO_ANNOTATION
        else:
            self._lo = self._hi = 0

    def add(self, time: int, node: int, event: str, pkt: int = -1,
            note: str = "") -> None:
        if not self._lo <= time < self._hi:
            self._annotate(time)
        self._emit(f"{time}\t{node}\t{event}\t{pkt if pkt >= 0 else '-'}"
                   f"{self._annotation}{note or '-'}\n")

    def _annotate(self, time: int) -> None:
        # Every boundary below (cap_offset, slot_len, sd, bi) lies on the
        # 20-symbol backoff grid, so each span is whole backoff periods.
        schedule = self._schedule
        sf, offset = divmod(time, schedule.bi)
        if offset < schedule.cap_offset:
            slot, period, lo, hi = 0, "beacon", 0, schedule.cap_offset
        elif offset < schedule.sd:
            # The active portion is exactly 16 slots, so no clamp is needed.
            slot = offset // schedule.slot_len
            period = "cap"
            lo = max(slot * schedule.slot_len, schedule.cap_offset)
            hi = (slot + 1) * schedule.slot_len
        else:
            slot, period, lo, hi = "-", "inactive", schedule.sd, schedule.bi
        start = time - offset
        self._lo, self._hi = start + lo, start + hi
        self._annotation = f"\t{sf}\t{slot}\t{period}\t"

    def _kept(self) -> list[str]:
        if self._lines is None:
            raise RuntimeError("a streamed MacTrace keeps no lines; "
                               "read its file back with read_trace")
        return self._lines

    @property
    def events(self) -> list[TraceEvent]:
        return list(map(_parse, self._kept()))

    def __len__(self) -> int:
        return len(self._kept())

    def __iter__(self):
        return map(_parse, self._kept())

    def of_kind(self, event: str) -> list[TraceEvent]:
        return [ev for ev in self if ev.event == event]

    def write(self, path) -> None:
        lines = self._kept()
        with open(path, "w") as fh:
            fh.write(_HEADER)
            fh.writelines(lines)


def read_trace(path) -> MacTrace:
    trace = MacTrace()
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != COLUMNS:
            raise ValueError(f"unrecognized trace header: {header}")
        for line in fh:
            _parse(line)        # ValueError on a malformed line
            trace._lines.append(line)
    return trace
