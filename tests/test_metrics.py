"""QoS metric formulas, outcome accounting, and log file round-trips."""

import pytest

from wpansim.csma import DropReason
from wpansim.metrics import (MetricsRow, PacketRecord, build_metrics,
                             read_packet_log, write_packet_log)
from wpansim.superframe import SuperframeSchedule
from wpansim.trace import MacTrace, read_trace


def _delivered(pid, gen, rx, msdu=60, node=1):
    return PacketRecord(pid, node, gen, msdu, rx_time=rx)


def _dropped(pid, gen, reason, msdu=60, node=1):
    return PacketRecord(pid, node, gen, msdu, drop_reason=reason)


def _rate(log, t_start, t_end):
    return build_metrics(log, t_start, t_end).effective_data_rate_bps


def test_effective_data_rate_counts_payload_bits_only():
    # 40 delivered packets x 60 bytes = 19200 bits over one second of
    # symbols: 19200 bps regardless of headers or retransmissions.
    log = [_delivered(i, i * 100, i * 100 + 266) for i in range(40)]
    for rec in log:
        rec.tx_count = 3          # retries must not multiply the numerator
    assert _rate(log, 0, 62500) == pytest.approx(19200.0)
    # Dropped packets contribute nothing.
    log.append(_dropped(99, 50, DropReason.QUEUE_OVERFLOW))
    assert _rate(log, 0, 62500) == pytest.approx(19200.0)
    # Halving the window doubles the rate.
    assert _rate(log, 0, 31250) == pytest.approx(38400.0)


def test_empty_measurement_window_rejected():
    with pytest.raises(ValueError):
        build_metrics([], 100, 100)
    with pytest.raises(ValueError):
        build_metrics([], 200, 100)


def test_loss_rate_is_drops_over_resolved():
    log = ([_delivered(i, 0, 300) for i in range(6)]
           + [_dropped(6, 0, DropReason.RETRY_EXHAUSTED),
              _dropped(7, 0, DropReason.CHANNEL_ACCESS_FAILURE),
              _dropped(8, 0, DropReason.UNRESOLVED_AT_END),
              _dropped(9, 0, DropReason.UNRESOLVED_AT_END)])
    # 2 drops / 8 resolved; the two tail packets sit out.
    assert build_metrics(log, 0, 1).packet_loss_rate == pytest.approx(0.25)


def test_loss_rate_undefined_without_data():
    assert build_metrics([], 0, 1).packet_loss_rate is None
    only_tail = [_dropped(0, 0, DropReason.UNRESOLVED_AT_END)]
    assert build_metrics(only_tail, 0, 1).packet_loss_rate is None


def test_mean_delay_averages_delivered_packets_only():
    log = [_delivered(0, 1000, 1266), _delivered(1, 5000, 5532),
           _dropped(2, 0, DropReason.RETRY_EXHAUSTED)]
    # (266 + 532) / 2 symbols = 399 symbols = 6.384 ms
    assert build_metrics(log, 0, 1).mean_delay_s == pytest.approx(399 / 62500)
    assert build_metrics([log[2]], 0, 1).mean_delay_s is None
    assert build_metrics([], 0, 1).mean_delay_s is None


def test_delay_of_an_undelivered_packet_is_an_error():
    rec = _dropped(0, 0, DropReason.QUEUE_OVERFLOW)
    with pytest.raises(ValueError):
        rec.delay_symbols


def test_outcome_counting_partitions_the_log():
    log = ([_delivered(i, 0, 300) for i in range(3)]
           + [_dropped(3, 0, DropReason.QUEUE_OVERFLOW),
              _dropped(4, 0, DropReason.QUEUE_OVERFLOW),
              _dropped(5, 0, DropReason.CHANNEL_ACCESS_FAILURE),
              _dropped(6, 0, DropReason.UNRESOLVED_AT_END)])
    row = build_metrics(log, 0, 1)
    assert row.generated == 7
    assert row.delivered == 3
    assert row.dropped_queue_overflow == 2
    assert row.dropped_channel_access == 1
    assert row.dropped_retry_exhausted == 0
    assert row.unresolved == 1
    dropped = (row.dropped_queue_overflow + row.dropped_channel_access
               + row.dropped_retry_exhausted)
    assert dropped == 3
    assert row.delivered + dropped + row.unresolved == 7


def test_double_and_missing_outcomes_are_rejected():
    confused = PacketRecord(0, 1, 0, 60, rx_time=300,
                            drop_reason=DropReason.RETRY_EXHAUSTED)
    with pytest.raises(ValueError):
        build_metrics([confused], 0, 1)
    open_ended = PacketRecord(1, 1, 0, 60)
    with pytest.raises(ValueError):
        build_metrics([open_ended], 0, 1)


def test_build_metrics_assembles_a_full_row():
    log = [_delivered(0, 0, 266), _delivered(1, 100, 466),
           _dropped(2, 200, DropReason.RETRY_EXHAUSTED)]
    row = build_metrics(log, 0, 62500)
    assert isinstance(row, MetricsRow)
    assert row.generated == 3 and row.delivered == 2
    assert row.dropped_retry_exhausted == 1
    assert row.effective_data_rate_bps == pytest.approx(2 * 60 * 8.0)
    assert row.packet_loss_rate == pytest.approx(1 / 3)
    assert row.mean_delay_symbols == pytest.approx((266 + 366) / 2)
    assert row.mean_delay_s == pytest.approx(row.mean_delay_symbols / 62500)


def test_build_metrics_marks_undefined_values_as_none():
    log = [_dropped(0, 0, DropReason.UNRESOLVED_AT_END)]
    row = build_metrics(log, 0, 1000)
    assert row.packet_loss_rate is None
    assert row.mean_delay_s is None
    assert row.effective_data_rate_bps == 0.0


def test_packet_log_round_trips_through_csv(tmp_path):
    log = [_delivered(0, 0, 266), _delivered(1, 100, 466, msdu=20, node=3),
           _dropped(2, 200, DropReason.RETRY_EXHAUSTED),
           _dropped(3, 300, DropReason.QUEUE_OVERFLOW),
           _dropped(4, 400, DropReason.CHANNEL_ACCESS_FAILURE),
           _dropped(5, 500, DropReason.UNRESOLVED_AT_END)]
    log[0].tx_count = 2
    path = tmp_path / "packets.csv"
    write_packet_log(path, log)
    assert read_packet_log(path) == log


def test_packet_log_reader_rejects_foreign_headers(tmp_path):
    path = tmp_path / "notpackets.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_packet_log(path)


def test_reloaded_log_yields_identical_metrics(tmp_path):
    log = [_delivered(i, i * 50, i * 50 + 266 + i) for i in range(20)]
    log += [_dropped(20 + i, 900, DropReason.CHANNEL_ACCESS_FAILURE)
            for i in range(5)]
    path = tmp_path / "packets.csv"
    write_packet_log(path, log)
    assert build_metrics(read_packet_log(path), 0, 62500) == \
        build_metrics(log, 0, 62500)


def test_mac_trace_round_trips(tmp_path):
    trace = MacTrace()
    trace.add(120, 3, "arrival", 17)
    trace.add(160, 3, "cca-result", 17, "idle")
    trace.use_schedule(SuperframeSchedule(0, 0))
    trace.add(0, 0, "beacon-start")
    path = tmp_path / "trace.tsv"
    trace.write(path)
    reloaded = read_trace(path)
    assert reloaded.events == trace.events
    rows = reloaded.events
    assert rows[0].pkt == 17 and rows[0].sf == -1     # '-' marks absent
    assert rows[1].note == "idle"
    assert (rows[2].event, rows[2].sf, rows[2].slot, rows[2].period) == \
        ("beacon-start", 0, 0, "beacon")
    assert trace.of_kind("cca-result") == [trace.events[1]]
