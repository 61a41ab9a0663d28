"""Optional per-event MAC trace for conformance checks and debugging.

Events carry the node, a short tag, and (in beacon mode) the superframe
index, slot index, and period the instant falls in.  The text form is one
tab-separated line per event with a fixed column order, stable across
versions; missing numeric fields are written as ``-``.

A :class:`MacTrace` keeps its events as those text lines: each is formatted
once when added and parsed back into a :class:`TraceEvent` only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

COLUMNS = ["time", "node", "event", "pkt", "sf", "slot", "period", "note"]
_HEADER = "\t".join(COLUMNS) + "\n"


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
    strict order matters)."""

    def __init__(self):
        self._lines: list[str] = []

    def add(self, time: int, node: int, event: str, *, pkt: int = -1, sf: int = -1,
            slot: int = -1, period: str = "", note: str = "") -> None:
        self._lines.append(f"{time}\t{node}\t{event}\t"
                           f"{pkt if pkt >= 0 else '-'}\t"
                           f"{sf if sf >= 0 else '-'}\t"
                           f"{slot if slot >= 0 else '-'}\t"
                           f"{period or '-'}\t{note or '-'}\n")

    @property
    def events(self) -> list[TraceEvent]:
        return list(map(_parse, self._lines))

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self):
        return map(_parse, self._lines)

    def of_kind(self, event: str) -> list[TraceEvent]:
        return [ev for ev in self if ev.event == event]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(_HEADER)
            fh.writelines(self._lines)


def read_trace(path) -> MacTrace:
    trace = MacTrace()
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != COLUMNS:
            raise ValueError(f"unrecognized trace header: {header}")
        for line in fh:
            ev = _parse(line)
            trace.add(ev.time, ev.node, ev.event, pkt=ev.pkt, sf=ev.sf,
                      slot=ev.slot, period=ev.period, note=ev.note)
    return trace
