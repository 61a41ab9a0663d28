"""Independent oracles for ``wpansim.metrics``.

:func:`metrics_row` builds a whole row from one walk over a finished log, and
each QoS metric is also computed on its own, straight from its definition,
with the same float operations as the simulator, so results compare with
``==``.  :func:`tallied` feeds a hand-made log through a ``PacketTally`` as a
run does, and :func:`read_packet_log` reads an exported packet log back into
records.
"""

import csv
from collections import Counter

from wpansim.csma import DropReason
from wpansim.metrics import PACKET_LOG_COLUMNS, MetricsRow, PacketRecord, PacketTally

SYMBOL_RATE = 62_500   # 250 kbps O-QPSK at 4 bits per symbol
DROPS = (DropReason.QUEUE_OVERFLOW, DropReason.CHANNEL_ACCESS_FAILURE,
         DropReason.RETRY_EXHAUSTED)


def metrics_row(log: list[PacketRecord], t_start: int, t_end: int) -> MetricsRow:
    """Every metric of a finished log, from one pass over it; each record
    must have exactly one outcome."""
    delivered = bits = delay_sum = 0
    dropped = dict.fromkeys(DropReason, 0)
    for rec in log:
        if rec.rx_time is not None:
            if rec.drop_reason is not None:
                raise ValueError(f"packet {rec.packet_id} has two outcomes")
            delivered += 1
            bits += rec.msdu_len * 8
            delay_sum += rec.rx_time - rec.gen_time
        elif rec.drop_reason is not None:
            dropped[rec.drop_reason] += 1
        else:
            raise ValueError(f"packet {rec.packet_id} has no outcome")
    if t_end <= t_start:
        raise ValueError(f"empty measurement window: [{t_start}, {t_end}]")
    unresolved = dropped[DropReason.UNRESOLVED_AT_END]
    resolved = len(log) - unresolved
    delay_s = delay_sum / delivered / SYMBOL_RATE if delivered else None
    return MetricsRow(
        generated=len(log),
        delivered=delivered,
        dropped_queue_overflow=dropped[DropReason.QUEUE_OVERFLOW],
        dropped_channel_access=dropped[DropReason.CHANNEL_ACCESS_FAILURE],
        dropped_retry_exhausted=dropped[DropReason.RETRY_EXHAUSTED],
        unresolved=unresolved,
        t_start_symbols=t_start,
        t_end_symbols=t_end,
        effective_data_rate_bps=bits * SYMBOL_RATE / (t_end - t_start),
        packet_loss_rate=(resolved - delivered) / resolved if resolved else None,
        mean_delay_symbols=None if delay_s is None else delay_s * SYMBOL_RATE,
        mean_delay_s=delay_s,
    )


def tallied(log: list[PacketRecord], sink=None) -> PacketTally:
    """A closed ``PacketTally(sink)`` of ``log``, whose packet ids must be 0,
    1, ...: every record is opened first and the outcomes settle newest
    first, so that nothing is handed on before the oldest record settles.  A
    record with both outcomes settles twice; one without an outcome, or
    ``unresolved_at_end``, is left for ``close``."""
    tally = PacketTally(sink)
    opened = [tally.open(made.node, made.gen_time, made.msdu_len) for made in log]
    for made, rec in reversed(list(zip(log, opened))):
        assert rec.packet_id == made.packet_id
        rec.tx_count = made.tx_count
        if made.rx_time is not None:
            tally.settle(rec, made.rx_time)
        if made.drop_reason not in (None, DropReason.UNRESOLVED_AT_END):
            tally.settle(rec, None, made.drop_reason)
    tally.close()
    return tally


def outcome_counts(log: list[PacketRecord]) -> Counter:
    """Packets per outcome: ``"delivered"`` or a drop reason."""
    return Counter("delivered" if rec.rx_time is not None else rec.drop_reason
                   for rec in log)


def effective_data_rate(log: list[PacketRecord], t_start: int, t_end: int) -> float:
    """Delivered MSDU payload bits per second over [t_start, t_end] symbols."""
    bits = sum(rec.msdu_len * 8 for rec in log if rec.rx_time is not None)
    return bits * SYMBOL_RATE / (t_end - t_start)


def packet_loss_rate(log: list[PacketRecord]) -> float | None:
    """Dropped over resolved packets; None when nothing resolved."""
    counts = outcome_counts(log)
    resolved = len(log) - counts[DropReason.UNRESOLVED_AT_END]
    if not resolved:
        return None
    return sum(counts[reason] for reason in DROPS) / resolved


def mean_end_to_end_delay(log: list[PacketRecord]) -> float | None:
    """Mean generation-to-delivery time in seconds; None when nothing was
    delivered."""
    delays = [rec.rx_time - rec.gen_time for rec in log if rec.rx_time is not None]
    if not delays:
        return None
    return sum(delays) / len(delays) / SYMBOL_RATE


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
