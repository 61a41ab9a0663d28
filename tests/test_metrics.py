"""QoS metric formulas, outcome accounting, and log file round-trips."""

import csv
from collections import deque

import pytest

from wpansim.csma import DropReason
from wpansim.metrics import (PACKET_LOG_COLUMNS, MetricsRow, PacketRecord,
                             PacketTally, build_metrics, discard, write_packet_log)
from wpansim.superframe import SuperframeSchedule
from wpansim.trace import MacTrace, read_trace

from metrics_oracle import metrics_row, read_packet_log, tallied


def _delivered(pid, gen, rx, msdu=60, node=1):
    return PacketRecord(pid, node, gen, msdu, rx_time=rx)


def _dropped(pid, gen, reason, msdu=60, node=1):
    return PacketRecord(pid, node, gen, msdu, drop_reason=reason)


def _row(log, t_start, t_end):
    """The row of ``log`` tallied as a run tallies it, which the one-walk
    oracle must equal whatever the tally keeps."""
    row = metrics_row(log, t_start, t_end)
    for sink in (None, discard, lambda rec: None):
        assert build_metrics(tallied(log, sink), t_start, t_end) == row
    return row


# What a tally keeps: the window behind a streamed sink, the full log, or
# nothing; each maps the list its sink should fill to the sink.
MODES = {"streamed": lambda handed: handed.append,
         "kept": lambda handed: None,
         "discarded": lambda handed: discard}


def _write(path, log):
    with open(path, "w", newline="") as fh:
        write_packet_log(fh, log)


def _rate(log, t_start, t_end):
    return _row(log, t_start, t_end).effective_data_rate_bps


def test_effective_data_rate_counts_payload_bits_only():
    # 40 delivered packets x 60 bytes = 19200 bits over one second of
    # symbols: 19200 bps regardless of headers or retransmissions.
    log = [_delivered(i, i * 100, i * 100 + 266) for i in range(40)]
    for rec in log:
        rec.tx_count = 3          # retries must not multiply the numerator
    assert _rate(log, 0, 62500) == pytest.approx(19200.0)
    # Dropped packets contribute nothing.
    log.append(_dropped(40, 50, DropReason.QUEUE_OVERFLOW))
    assert _rate(log, 0, 62500) == pytest.approx(19200.0)
    # Halving the window doubles the rate.
    assert _rate(log, 0, 31250) == pytest.approx(38400.0)


def test_empty_measurement_window_rejected():
    with pytest.raises(ValueError):
        build_metrics(PacketTally(discard), 100, 100)
    with pytest.raises(ValueError):
        build_metrics(PacketTally(discard), 200, 100)


def test_loss_rate_is_drops_over_resolved():
    log = ([_delivered(i, 0, 300) for i in range(6)]
           + [_dropped(6, 0, DropReason.RETRY_EXHAUSTED),
              _dropped(7, 0, DropReason.CHANNEL_ACCESS_FAILURE),
              _dropped(8, 0, DropReason.UNRESOLVED_AT_END),
              _dropped(9, 0, DropReason.UNRESOLVED_AT_END)])
    # 2 drops / 8 resolved; the two tail packets sit out.
    assert _row(log, 0, 1).packet_loss_rate == pytest.approx(0.25)


def test_loss_rate_undefined_without_data():
    assert _row([], 0, 1).packet_loss_rate is None
    only_tail = [_dropped(0, 0, DropReason.UNRESOLVED_AT_END)]
    assert _row(only_tail, 0, 1).packet_loss_rate is None


def test_mean_delay_averages_delivered_packets_only():
    log = [_delivered(0, 1000, 1266), _delivered(1, 5000, 5532),
           _dropped(2, 0, DropReason.RETRY_EXHAUSTED)]
    # (266 + 532) / 2 symbols = 399 symbols = 6.384 ms
    assert _row(log, 0, 1).mean_delay_s == pytest.approx(399 / 62500)
    assert _row([_dropped(0, 0, DropReason.RETRY_EXHAUSTED)], 0, 1).mean_delay_s is None
    assert _row([], 0, 1).mean_delay_s is None


def test_outcome_counting_partitions_the_log():
    log = ([_delivered(i, 0, 300) for i in range(3)]
           + [_dropped(3, 0, DropReason.QUEUE_OVERFLOW),
              _dropped(4, 0, DropReason.QUEUE_OVERFLOW),
              _dropped(5, 0, DropReason.CHANNEL_ACCESS_FAILURE),
              _dropped(6, 0, DropReason.UNRESOLVED_AT_END)])
    row = _row(log, 0, 1)
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


@pytest.mark.parametrize("mode", MODES)
def test_a_record_with_two_outcomes_is_rejected(mode):
    sink = MODES[mode]([])
    confused = PacketRecord(0, 1, 0, 60, rx_time=300,
                            drop_reason=DropReason.RETRY_EXHAUSTED)
    with pytest.raises(ValueError, match="packet 0 has two outcomes"):
        tallied([confused], sink)
    with pytest.raises(ValueError, match="packet 1 has two outcomes"):
        tallied([_delivered(0, 0, 300), PacketRecord(1, 1, 0, 60, rx_time=300,
                                                     drop_reason=DropReason.QUEUE_OVERFLOW)],
                sink)
    with pytest.raises(ValueError, match="no outcome"):
        metrics_row([PacketRecord(0, 1, 0, 60)], 0, 1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("outcome", [(300, None), (None, DropReason.QUEUE_OVERFLOW)],
                         ids=["delivered", "dropped"])
def test_a_record_settled_twice_with_the_same_outcome_is_rejected(mode, outcome):
    tally = PacketTally(MODES[mode]([]))
    tally.open(1, 10, 60)
    rec = tally.open(1, 20, 60)
    tally.settle(rec, *outcome)
    with pytest.raises(ValueError, match="packet 1 has two outcomes"):
        tally.settle(rec, *outcome)
    tally.close()
    row = build_metrics(tally, tally.first_gen, 1000)
    assert (row.generated, row.unresolved) == (2, 1)
    assert row.delivered + row.dropped_queue_overflow == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("still_open", [False, True])
def test_a_second_outcome_after_the_record_was_handed_on_is_rejected(mode, still_open):
    handed = []
    tally = PacketTally(MODES[mode](handed))
    rec = tally.open(1, 10, 60)
    if still_open:
        tally.open(1, 20, 60)           # keeps a window non-empty
    tally.settle(rec, 300)
    assert handed == ([rec] if mode == "streamed" else [])
    with pytest.raises(ValueError, match="packet 0 has two outcomes"):
        tally.settle(rec, None, DropReason.RETRY_EXHAUSTED)
    assert rec.drop_reason is None and tally.dropped[DropReason.RETRY_EXHAUSTED] == 0


def test_the_tally_hands_on_records_in_order_once_every_earlier_one_resolves():
    handed = []
    tally = PacketTally(handed.append)
    a, b, c = (tally.open(1, t, 60) for t in (10, 20, 30))
    assert tally.first_gen == 10
    tally.settle(c, None, DropReason.QUEUE_OVERFLOW)
    tally.settle(b, 300)
    assert handed == [] and list(tally.kept) == [a, b, c]
    tally.settle(a, 400)
    assert handed == [a, b, c] and not tally.kept
    d = tally.open(2, 40, 60)          # still open when the run ends
    tally.close()
    assert handed == [a, b, c, d] and d.drop_reason is DropReason.UNRESOLVED_AT_END
    assert tally.log == []
    row = build_metrics(tally, tally.first_gen, 1000)
    assert row == metrics_row(handed, 10, 1000)
    assert (row.generated, row.delivered, row.unresolved) == (4, 2, 1)


@pytest.mark.parametrize("mode", ["kept", "discarded"])
def test_a_tally_without_a_sink_counts_each_record_as_it_resolves(mode):
    tally = PacketTally(MODES[mode]([]))
    a, b, c, d = (tally.open(1, t, 60) for t in (10, 20, 30, 40))
    tally.settle(c, None, DropReason.QUEUE_OVERFLOW)
    assert tally.dropped[DropReason.QUEUE_OVERFLOW] == 1
    tally.settle(b, 300)
    assert (tally.delivered, tally.bits, tally.delay_sum) == (1, 480, 280)
    assert not isinstance(tally.kept, deque)        # no window
    tally.close()
    assert tally.dropped[DropReason.UNRESOLVED_AT_END] == 2
    if mode == "kept":
        assert tally.log == [a, b, c, d]
        assert a.drop_reason is d.drop_reason is DropReason.UNRESOLVED_AT_END
    else:       # nothing kept, so nothing to mark
        assert tally.log == [] and a.drop_reason is d.drop_reason is None


def test_build_metrics_assembles_a_full_row():
    log = [_delivered(0, 0, 266), _delivered(1, 100, 466),
           _dropped(2, 200, DropReason.RETRY_EXHAUSTED)]
    row = _row(log, 0, 62500)
    assert isinstance(row, MetricsRow)
    assert row.generated == 3 and row.delivered == 2
    assert row.dropped_retry_exhausted == 1
    assert row.effective_data_rate_bps == pytest.approx(2 * 60 * 8.0)
    assert row.packet_loss_rate == pytest.approx(1 / 3)
    assert row.mean_delay_symbols == pytest.approx((266 + 366) / 2)
    assert row.mean_delay_s == pytest.approx(row.mean_delay_symbols / 62500)


def test_build_metrics_marks_undefined_values_as_none():
    log = [_dropped(0, 0, DropReason.UNRESOLVED_AT_END)]
    row = _row(log, 0, 1000)
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
    _write(path, log)
    assert read_packet_log(path) == log


def test_packet_log_bytes_are_what_csv_writer_writes(tmp_path):
    big = 2**31
    log = [_delivered(0, 0, 266), _delivered(big + 7, big, 3 * big, msdu=118, node=big)]
    log += [_dropped(i + 1, 100 * i, reason) for i, reason in enumerate(DropReason)]
    log[0].tx_count = 2
    log[1].tx_count = 7
    log[-1].tx_count = 0                  # unresolved_at_end, never sent
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_LOG_COLUMNS)
        for rec in log:
            delivered = rec.rx_time is not None
            detail = rec.rx_time if delivered else rec.drop_reason.value
            writer.writerow([rec.node, rec.gen_time, rec.msdu_len,
                             "delivered" if delivered else "dropped", detail,
                             rec.packet_id, rec.tx_count])
    path = tmp_path / "packets.csv"
    _write(path, log)
    assert path.read_bytes() == oracle.read_bytes()
    assert path.read_bytes().count(b"\r\n") == len(log) + 1
    # The returned writer appends rows one by one, as a run hands them on.
    with open(path, "w", newline="") as fh:
        write_row = write_packet_log(fh)
        for rec in log:
            write_row(rec)
    assert path.read_bytes() == oracle.read_bytes()


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
    _write(path, log)
    assert _row(read_packet_log(path), 0, 62500) == _row(log, 0, 62500)


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
