"""Property checks on the simulator's outputs, computed independently here.

Nothing is compared with a stored copy of earlier output: every expected
value is recomputed from the packet log (in memory or parsed from the file
the CLI wrote) and from the PHY and superframe constants.  A failed check
raises :class:`CheckFailed`; the benchmark then reports ``correct: false``
and exits non-zero.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass

SYMBOL_RATE = 62_500  # symbols per second of the 2.4 GHz O-QPSK PHY
REL_TOL = 1e-12       # floats recomputed by another formula order

COUNT_COLUMNS = ("generated", "delivered", "dropped_queue_overflow",
                 "dropped_channel_access", "dropped_retry_exhausted",
                 "unresolved")
DROP_COLUMNS = {"queue_overflow": "dropped_queue_overflow",
                "channel_access_failure": "dropped_channel_access",
                "retry_exhausted": "dropped_retry_exhausted"}
UNRESOLVED = "unresolved_at_end"


class CheckFailed(Exception):
    """A simulator output broke a property the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True, slots=True)
class Packet:
    """One packet-log entry, independent of the simulator's own classes."""

    packet_id: int
    node: int
    gen_time: int
    msdu_len: int
    rx_time: int | None
    drop_reason: str | None
    tx_count: int


def packets_from_records(records) -> list[Packet]:
    return [Packet(r.packet_id, r.node, r.gen_time, r.msdu_len, r.rx_time,
                   None if r.drop_reason is None else r.drop_reason.value,
                   r.tx_count) for r in records]


def packets_from_csv(path) -> list[Packet]:
    """Parse a packet-log file with the documented column order."""
    packets = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        require(header == ["node", "gen_time_symbols", "msdu_len", "outcome",
                           "rx_time_symbols_or_reason", "packet_id",
                           "tx_count"],
                f"packet log header {header}")
        for node, gen, msdu, outcome, detail, pid, tx in reader:
            require(outcome in ("delivered", "dropped"),
                    f"packet {pid}: outcome {outcome!r}")
            delivered = outcome == "delivered"
            packets.append(Packet(int(pid), int(node), int(gen), int(msdu),
                                  int(detail) if delivered else None,
                                  None if delivered else detail, int(tx)))
    return packets


def _cell(text: str):
    if text == "NA":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def metrics_from_csv(path) -> dict:
    """The single row of a metrics CSV written by ``wpansim run``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) == 2, f"metrics CSV has {len(rows)} lines, expected 2")
    return {name: _cell(value) for name, value in zip(rows[0], rows[1])}


def metrics_from_row(row) -> dict:
    return {name: getattr(row, name) for name in row.__dataclass_fields__}


def _same(name: str, got, want) -> None:
    if want is None or got is None or isinstance(want, int):
        require(got == want, f"{name}: output {got!r}, recomputed {want!r}")
    else:
        require(math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0),
                f"{name}: output {got!r}, recomputed {want!r}")


def channel_constants(msdu: int) -> dict:
    """Transaction length T and the least spacing G of delivered frames.

    T is data frame + turnaround + ACK.  G is the least backoff-grid offset
    at which a second frame overlaps neither frame of the first transaction
    and neither of its two CCA windows overlaps the first ACK.
    """
    from wpansim import phy

    unit = phy.UNIT_BACKOFF
    data = phy.data_frame_airtime(msdu)
    ack_start = data + phy.TURNAROUND
    t = ack_start + phy.ACK_AIRTIME

    def clear(start, length, spans):
        return all(start + length <= a or b <= start for a, b in spans)

    gap = unit
    while not (clear(gap, data, ((0, data), (ack_start, t)))
               and clear(gap - 2 * unit, phy.CCA_DURATION, ((ack_start, t),))
               and clear(gap - unit, phy.CCA_DURATION, ((ack_start, t),))):
        gap += unit
    cap_offset = -(-phy.BEACON_AIRTIME // unit) * unit
    return {"T": t, "G": gap, "unit": unit, "cca": phy.CCA_DURATION,
            "cap_offset": cap_offset, "base_sd": phy.BASE_SUPERFRAME}


def check_run(spec, packets: list[Packet], metrics: dict,
              end_time: int | None) -> None:
    """Every property of one scenario run's packet log and metrics row.

    ``end_time`` is the simulator's reported end of run when known (in
    memory); for a run read back from files it is None and the row's own
    window is validated instead.
    """
    # Exactly one outcome per packet, packet ids unique.
    ids = Counter(p.packet_id for p in packets)
    require(len(ids) == len(packets), "duplicate packet ids in the log")
    for p in packets:
        require((p.rx_time is None) != (p.drop_reason is None),
                f"packet {p.packet_id} has {'two' if p.rx_time is not None else 'no'} outcomes")
        require(p.msdu_len == spec.msdu,
                f"packet {p.packet_id}: msdu {p.msdu_len} != {spec.msdu}")
        require(1 <= p.node <= spec.n_devices, f"packet {p.packet_id}: node {p.node}")

    counts = Counter(p.drop_reason for p in packets if p.rx_time is None)
    delivered = [p for p in packets if p.rx_time is not None]
    want = {"generated": len(packets), "delivered": len(delivered),
            "unresolved": counts.pop(UNRESOLVED, 0)}
    for reason, column in DROP_COLUMNS.items():
        want[column] = counts.pop(reason, 0)
    require(not counts, f"unknown drop reasons {dict(counts)}")
    for column in COUNT_COLUMNS:
        _same(column, metrics[column], want[column])

    per_node = Counter(p.node for p in packets)
    if spec.quota is not None:
        require(want["generated"] == spec.n_devices * spec.quota,
                f"quota stop: generated {want['generated']} != "
                f"{spec.n_devices} x {spec.quota}")
        require(all(per_node[n] == spec.quota for n in range(1, spec.n_devices + 1)),
                f"quota stop: per-node counts {dict(per_node)}")
        require(want["unresolved"] == 0,
                f"quota stop left {want['unresolved']} packets unresolved")

    # Metrics recomputed from the log.
    if packets:
        t_start = min(p.gen_time for p in packets)
        _same("t_start_symbols", metrics["t_start_symbols"], t_start)
        t_end = metrics["t_end_symbols"]
        if spec.run_time_s is not None:
            _same("t_end_symbols", t_end, round(spec.run_time_s * SYMBOL_RATE))
        if end_time is not None:
            _same("t_end_symbols", t_end, end_time)
        if delivered:
            require(t_end >= max(p.rx_time for p in delivered),
                    f"t_end_symbols {t_end} precedes a delivery")
        window = t_end - t_start
        if "duration_s" in metrics:
            _same("duration_s", metrics["duration_s"], window / SYMBOL_RATE)
        bits = sum(p.msdu_len * 8 for p in delivered)
        _same("effective_data_rate_bps", metrics["effective_data_rate_bps"],
              bits * SYMBOL_RATE / window)
        resolved = want["generated"] - want["unresolved"]
        dropped = resolved - want["delivered"]
        _same("packet_loss_rate", metrics["packet_loss_rate"],
              dropped / resolved if resolved else None)
        delays = [p.rx_time - p.gen_time for p in delivered]
        mean = sum(delays) / len(delays) if delays else None
        _same("mean_delay_symbols", metrics["mean_delay_symbols"], mean)
        _same("mean_delay_s", metrics["mean_delay_s"],
              None if mean is None else mean / SYMBOL_RATE)

    # Bounds and order.
    limit = spec.max_frame_retries + 1
    for p in delivered:
        require(1 <= p.tx_count <= limit,
                f"packet {p.packet_id} delivered after {p.tx_count} transmissions")
    if spec.ack_enabled:
        for p in packets:
            if p.drop_reason == "retry_exhausted":
                require(p.tx_count == limit,
                        f"packet {p.packet_id} retry-exhausted after {p.tx_count}")
    last_rx: dict[int, tuple[int, int]] = {}
    for p in sorted(delivered, key=lambda p: (p.node, p.gen_time, p.packet_id)):
        prev = last_rx.get(p.node)
        require(prev is None or prev[1] < p.rx_time,
                f"node {p.node}: packet {p.packet_id} delivered before "
                f"earlier packet {prev and prev[0]}")
        last_rx[p.node] = (p.packet_id, p.rx_time)

    # Channel bounds.
    c = channel_constants(spec.msdu)
    rx_times = sorted(p.rx_time for p in delivered)
    for a, b in zip(rx_times, rx_times[1:]):
        require(b - a >= c["T"], f"deliveries at {a} and {b} closer than T={c['T']}")
    if spec.mode == "nonbeacon":
        floor = c["cca"] + c["T"]
        for p in delivered:
            require(p.rx_time - p.gen_time >= floor,
                    f"packet {p.packet_id}: delay {p.rx_time - p.gen_time} < {floor}")
    else:
        bi = c["base_sd"] << spec.bo
        sd = c["base_sd"] << spec.so
        first = c["cap_offset"] + 2 * c["unit"]
        per_cap = (sd - first - c["T"]) // c["G"] + 1
        per_superframe = Counter()
        for p in delivered:
            offset = p.rx_time % bi
            require(first + c["T"] <= offset <= sd,
                    f"packet {p.packet_id}: delivered at offset {offset} of the "
                    f"beacon interval, outside [{first + c['T']}, {sd}]")
            per_superframe[p.rx_time // bi] += 1
        if per_superframe:
            k, most = per_superframe.most_common(1)[0]
            require(most <= per_cap,
                    f"superframe {k} delivered {most} > K(SO)={per_cap}")


def check_trace_counts(trace_path, packets: list[Packet]) -> None:
    """Delivered, drop and tx-start trace lines match the packet log."""
    counts = Counter()
    with open(trace_path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        require(header[:3] == ["time", "node", "event"], f"trace header {header}")
        for line in fh:
            counts[line.split("\t", 3)[2]] += 1
    want = {"delivered": sum(p.rx_time is not None for p in packets),
            "drop": sum(p.drop_reason not in (None, UNRESOLVED) for p in packets),
            "tx-start": sum(p.tx_count for p in packets)}
    for event, n in want.items():
        require(counts[event] == n, f"{counts[event]} {event} trace lines, "
                f"packet log implies {n}")


def check_sweep_table(table, sweep, metric_columns) -> None:
    """Row layout, job status, and the aggregate rows of a results table."""
    points = sweep.points()
    samples = defaultdict(list)
    aggregates = {}
    for row in table.rows:
        if row["kind"] == "sample":
            require(row["status"] == "ok",
                    f"point {row['point']} replication {row['replication']}: "
                    f"status {row['status']} ({row['error']})")
            samples[row["point"]].append(row)
        else:
            aggregates[(row["point"], row["kind"])] = row
    require(sorted(samples) == list(range(len(points))), "missing sweep points")
    for index in range(len(points)):
        rows = samples[index]
        require([r["replication"] for r in rows] == list(range(sweep.replications)),
                f"point {index}: replications {[r['replication'] for r in rows]}")
        for column in metric_columns:
            values = [r[column] for r in rows if r[column] is not None]
            mean = statistics.fmean(values) if values else None
            stdev = statistics.stdev(values) if len(values) >= 2 else None
            _same(f"point {index} mean {column}",
                  aggregates[(index, "mean")][column], mean)
            _same(f"point {index} stddev {column}",
                  aggregates[(index, "stddev")][column], stdev)
