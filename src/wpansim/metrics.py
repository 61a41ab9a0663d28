"""QoS metrics from the packet lifecycle records.

Every generated MSDU leaves exactly one :class:`PacketRecord` with exactly one
outcome: delivered at a known time, or dropped with a reason.  Packets still
queued or mid-transaction when a run stops are closed with the reason
``unresolved_at_end``; those are excluded from the loss-rate numerator and
denominator.

A run's :class:`PacketTally` counts each record into the integers the
metrics are made of as it gets its outcome, so the metrics are pure functions
of the records: ``tests/metrics_oracle.py`` recomputes a row from an exported
log and gets the exact same numbers.  Only a run that streams its records
(``wpansim run --packet-log``) keeps a window of them, to keep their order.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice

from wpansim.csma import DropReason
from wpansim.kernel import SYMBOL_RATE

UNRESOLVED = DropReason.UNRESOLVED_AT_END


@dataclass(slots=True)
class PacketRecord:
    packet_id: int
    node: int
    gen_time: int
    msdu_len: int
    rx_time: int | None = None
    drop_reason: DropReason | None = None
    tx_count: int = 0


@dataclass(frozen=True, slots=True)
class MetricsRow:
    """One experiment point's results: the three QoS metrics plus the counts
    that produced them."""

    generated: int
    delivered: int
    dropped_queue_overflow: int
    dropped_channel_access: int
    dropped_retry_exhausted: int
    unresolved: int
    t_start_symbols: int
    t_end_symbols: int
    effective_data_rate_bps: float
    packet_loss_rate: float | None
    mean_delay_symbols: float | None
    mean_delay_s: float | None


class PacketTally:
    """The integers the metrics of one run are made of, added as each record
    gets its outcome: counts by outcome, delivered payload bits and summed
    delay.  With ``sink`` None it keeps every record in ``log``, in
    ``packet_id`` order, and with :func:`discard` none.  Only another sink
    makes it keep a window, the records from the oldest open one on, to hand
    each on once it and every earlier one have their outcomes.
    """

    __slots__ = ("log", "kept", "sink", "generated", "first_gen", "delivered",
                 "bits", "delay_sum", "dropped")

    def __init__(self, sink=None):
        self.log: list[PacketRecord] = []
        self.sink = None if sink is discard else sink
        self.kept = self.log if sink is None else None if sink is discard else deque()
        self.first_gen = 0          # the first record's generation time
        self.generated = self.delivered = self.bits = self.delay_sum = 0
        self.dropped = dict.fromkeys(DropReason, 0)

    def open(self, node: int, gen_time: int, msdu_len: int) -> PacketRecord:
        """A new record, with the next ``packet_id``, still without outcome."""
        rec = PacketRecord(self.generated, node, gen_time, msdu_len)
        if not self.generated:
            self.first_gen = gen_time
        self.generated += 1
        if self.kept is not None:
            self.kept.append(rec)
        return rec

    def settle(self, rec: PacketRecord, rx_time: int | None, reason=None) -> None:
        """Give ``rec`` its outcome and count it: delivered at ``rx_time``, or
        else dropped for ``reason``.  A second outcome is a ``ValueError``."""
        if rec.rx_time is not None or rec.drop_reason is not None:
            raise ValueError(f"packet {rec.packet_id} has two outcomes")
        if rx_time is None:
            rec.drop_reason = reason
            self.dropped[reason] += 1
        else:
            rec.rx_time = rx_time
            self.delivered += 1
            self.bits += rec.msdu_len * 8
            self.delay_sum += rx_time - rec.gen_time
        if self.sink is not None and rec is self.kept[0]:
            window = self.kept      # hand on the head and the settled ones behind it
            while window and (window[0].rx_time is not None
                              or window[0].drop_reason is not None):
                self.sink(window.popleft())

    def close(self) -> None:
        """Settle every record still open as ``unresolved_at_end``: a tally
        that kept none only counts them.  A sink gets every record it has
        not had yet."""
        still_open = self.generated - self.delivered - sum(self.dropped.values())
        kept_open = list(islice((rec for rec in reversed(self.kept or ())  # near the end
                                 if rec.rx_time is None and rec.drop_reason is None),
                                still_open))
        self.dropped[UNRESOLVED] += still_open - len(kept_open)
        for rec in kept_open:       # newest first, so a window hands on once
            self.settle(rec, None, UNRESOLVED)


def build_metrics(tally: PacketTally, t_start: int, t_end: int) -> MetricsRow:
    """Every metric of the records ``tally`` has counted.

    The effective data rate is delivered MSDU payload bits per second over
    [t_start, t_end] symbols: headers never count, and a retransmitted packet
    counts once.  The loss rate is dropped over resolved packets; packets
    unresolved at the end are left out of both, and it is None when nothing
    resolved.  The delay is the mean generation-to-delivery time over
    delivered packets only; None when nothing was delivered (rows must show a
    not-a-value marker).
    """
    if t_end <= t_start:
        raise ValueError(f"empty measurement window: [{t_start}, {t_end}]")
    delivered, dropped = tally.delivered, tally.dropped
    unresolved = dropped[UNRESOLVED]
    resolved = tally.generated - unresolved
    delay_s = tally.delay_sum / delivered / SYMBOL_RATE if delivered else None
    return MetricsRow(
        generated=tally.generated,
        delivered=delivered,
        dropped_queue_overflow=dropped[DropReason.QUEUE_OVERFLOW],
        dropped_channel_access=dropped[DropReason.CHANNEL_ACCESS_FAILURE],
        dropped_retry_exhausted=dropped[DropReason.RETRY_EXHAUSTED],
        unresolved=unresolved,
        t_start_symbols=t_start,
        t_end_symbols=t_end,
        effective_data_rate_bps=tally.bits * SYMBOL_RATE / (t_end - t_start),
        packet_loss_rate=(resolved - delivered) / resolved if resolved else None,
        mean_delay_symbols=None if delay_s is None else delay_s * SYMBOL_RATE,
        mean_delay_s=delay_s,
    )


def discard(rec: PacketRecord) -> None:
    """The packet sink of a run that keeps no records."""


# Packet-log files: one CSV row per packet, documented column order below;
# a delivered packet's detail column holds its rx time in symbols, a dropped
# packet's holds the drop reason.
PACKET_LOG_COLUMNS = ["node", "gen_time_symbols", "msdu_len", "outcome",
                      "rx_time_symbols_or_reason", "packet_id", "tx_count"]


def write_packet_log(fh):
    """Write the header to ``fh``, a text file opened with ``newline=""``,
    and return the writer of one row, which is a packet sink."""
    # The bytes csv.writer would write, "\r\n" line ends included: no field
    # needs quoting, since each is an integer or a fixed word.
    write = fh.write
    write(",".join(PACKET_LOG_COLUMNS) + "\r\n")

    def write_row(rec: PacketRecord) -> None:
        if rec.rx_time is not None:
            outcome, detail = "delivered", rec.rx_time
        else:
            outcome, detail = "dropped", rec.drop_reason.value
        write(f"{rec.node},{rec.gen_time},{rec.msdu_len},{outcome},{detail},"
              f"{rec.packet_id},{rec.tx_count}\r\n")

    return write_row


#: Per-run output columns, in CSV order.  Times appear in symbols and seconds.
METRIC_COLUMNS = [
    "generated", "delivered", "dropped_queue_overflow",
    "dropped_channel_access", "dropped_retry_exhausted", "unresolved",
    "t_start_symbols", "t_end_symbols", "duration_s",
    "effective_data_rate_bps", "packet_loss_rate",
    "mean_delay_symbols", "mean_delay_s",
]


def _metric_values(row: MetricsRow | None) -> dict:
    if row is None:
        return {name: None for name in METRIC_COLUMNS}
    values = {f.name: getattr(row, f.name) for f in fields(MetricsRow)}
    values["duration_s"] = (row.t_end_symbols - row.t_start_symbols) / SYMBOL_RATE
    return values


def _fmt_cell(value) -> str:
    """The one cell rule of every results and metrics CSV: None is NA, a
    float its repr."""
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(rows: list[MetricsRow], f) -> None:
    """Write standalone metrics rows (the single-run CSV shape)."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(METRIC_COLUMNS)
    for row in rows:
        values = _metric_values(row)
        writer.writerow([_fmt_cell(values[col]) for col in METRIC_COLUMNS])
