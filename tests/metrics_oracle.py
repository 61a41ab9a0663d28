"""An independent oracle for ``wpansim.metrics.build_metrics``.

Each QoS metric is computed on its own, straight from its definition, with
the same float operations as the simulator, so results compare with ``==``.
:func:`read_packet_log` reads an exported packet log back into records.
"""

import csv
from collections import Counter

from wpansim.csma import DropReason
from wpansim.metrics import PACKET_LOG_COLUMNS, PacketRecord

SYMBOL_RATE = 62_500   # 250 kbps O-QPSK at 4 bits per symbol
DROPS = (DropReason.QUEUE_OVERFLOW, DropReason.CHANNEL_ACCESS_FAILURE,
         DropReason.RETRY_EXHAUSTED)


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
