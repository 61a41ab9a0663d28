"""QoS metrics computed from the packet lifecycle log.

Every generated MSDU leaves exactly one :class:`PacketRecord` with exactly one
outcome: delivered at a known time, or dropped with a reason.  Packets still
queued or mid-transaction when a run stops are closed with the reason
``unresolved_at_end``; those are excluded from the loss-rate numerator and
denominator.

All metrics are pure functions of the log, so an exported log re-yields the
exact same numbers offline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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

    @property
    def delivered(self) -> bool:
        return self.rx_time is not None

    @property
    def delay_symbols(self) -> int:
        if self.rx_time is None:
            raise ValueError(f"packet {self.packet_id} was not delivered")
        return self.rx_time - self.gen_time


@dataclass(frozen=True, slots=True)
class OutcomeCounts:
    generated: int
    delivered: int
    dropped: dict[DropReason, int]   # excludes unresolved_at_end
    unresolved: int

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())


def _walk(log: list[PacketRecord]) -> tuple[OutcomeCounts, int, int]:
    """One pass over the log: the outcome counts, plus the payload bits and
    the summed delay in symbols of the delivered packets."""
    delivered = unresolved = bits = delay_sum = 0
    dropped = {reason: 0 for reason in DropReason if reason is not UNRESOLVED}
    for rec in log:
        if rec.rx_time is not None:
            if rec.drop_reason is not None:
                raise ValueError(f"packet {rec.packet_id} has two outcomes")
            delivered += 1
            bits += rec.msdu_len * 8
            delay_sum += rec.rx_time - rec.gen_time
        elif rec.drop_reason is UNRESOLVED:
            unresolved += 1
        elif rec.drop_reason is not None:
            dropped[rec.drop_reason] += 1
        else:
            raise ValueError(f"packet {rec.packet_id} has no outcome")
    return OutcomeCounts(len(log), delivered, dropped, unresolved), bits, delay_sum


def count_outcomes(log: list[PacketRecord]) -> OutcomeCounts:
    return _walk(log)[0]


def _data_rate(bits: int, t_start: int, t_end: int) -> float:
    if t_end <= t_start:
        raise ValueError(f"empty measurement window: [{t_start}, {t_end}]")
    return bits * SYMBOL_RATE / (t_end - t_start)


def _loss_rate(counts: OutcomeCounts) -> float:
    if counts.generated == 0:
        raise ValueError("loss rate undefined: no packets generated")
    resolved = counts.generated - counts.unresolved
    if resolved == 0:
        raise ValueError("loss rate undefined: no packets resolved")
    return counts.dropped_total / resolved


def _mean_delay_s(delay_sum: int, delivered: int) -> float | None:
    if not delivered:
        return None
    return delay_sum / delivered / SYMBOL_RATE


def effective_data_rate(log: list[PacketRecord], t_start: int, t_end: int) -> float:
    """Delivered MSDU payload bits per second over [t_start, t_end] symbols.

    Headers never count; a retransmitted packet counts once.
    """
    bits = sum(rec.msdu_len * 8 for rec in log if rec.rx_time is not None)
    return _data_rate(bits, t_start, t_end)


def packet_loss_rate(log: list[PacketRecord]) -> float:
    """Dropped / generated; unresolved-at-end packets are left out of both."""
    return _loss_rate(count_outcomes(log))


def mean_end_to_end_delay(log: list[PacketRecord]) -> float | None:
    """Mean generation-to-delivery time in seconds over delivered packets only;
    None when nothing was delivered (rows must show a not-a-value marker)."""
    delays = [rec.rx_time - rec.gen_time for rec in log if rec.rx_time is not None]
    return _mean_delay_s(sum(delays), len(delays))


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


def build_metrics(log: list[PacketRecord], t_start: int, t_end: int) -> MetricsRow:
    """Every metric of the log from one pass over it; the values equal those
    of the single-metric functions."""
    counts, bits, delay_sum = _walk(log)
    rate = _data_rate(bits, t_start, t_end)
    try:
        loss = _loss_rate(counts)
    except ValueError:
        loss = None
    delay_s = _mean_delay_s(delay_sum, counts.delivered)
    return MetricsRow(
        generated=counts.generated,
        delivered=counts.delivered,
        dropped_queue_overflow=counts.dropped[DropReason.QUEUE_OVERFLOW],
        dropped_channel_access=counts.dropped[DropReason.CHANNEL_ACCESS_FAILURE],
        dropped_retry_exhausted=counts.dropped[DropReason.RETRY_EXHAUSTED],
        unresolved=counts.unresolved,
        t_start_symbols=t_start,
        t_end_symbols=t_end,
        effective_data_rate_bps=rate,
        packet_loss_rate=loss,
        mean_delay_symbols=None if delay_s is None else delay_s * SYMBOL_RATE,
        mean_delay_s=delay_s,
    )


# Packet-log files: one CSV row per packet, documented column order below;
# a delivered packet's detail column holds its rx time in symbols, a dropped
# packet's holds the drop reason.
PACKET_LOG_COLUMNS = ["node", "gen_time_symbols", "msdu_len", "outcome",
                      "rx_time_symbols_or_reason", "packet_id", "tx_count"]


def write_packet_log(path, log: list[PacketRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_LOG_COLUMNS)
        for rec in log:
            if rec.rx_time is not None:
                outcome, detail = "delivered", rec.rx_time
            else:
                outcome, detail = "dropped", rec.drop_reason.value
            writer.writerow([rec.node, rec.gen_time, rec.msdu_len, outcome,
                             detail, rec.packet_id, rec.tx_count])


def read_packet_log(path) -> list[PacketRecord]:
    log: list[PacketRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != PACKET_LOG_COLUMNS:
            raise ValueError(f"unrecognized packet-log header: {header}")
        for row in reader:
            node, gen_time, msdu_len, outcome, detail, packet_id, tx_count = row
            rec = PacketRecord(int(packet_id), int(node), int(gen_time),
                               int(msdu_len), tx_count=int(tx_count))
            if outcome == "delivered":
                rec.rx_time = int(detail)
            else:
                rec.drop_reason = DropReason(detail)
            log.append(rec)
    return log
