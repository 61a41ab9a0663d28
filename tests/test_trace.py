"""The MAC trace of a beacon-mode run: file round trip, queries, annotation."""

import dataclasses
from io import StringIO

import pytest

from wpansim.experiment import run_scenario_full
from wpansim.scenario import load_builtin
from wpansim.superframe import SuperframeSchedule
from wpansim.trace import COLUMNS, MacTrace, read_trace


@pytest.fixture(scope="module")
def traced_beacon_run():
    spec = dataclasses.replace(load_builtin("beacon-defaults"), run_time_s=10.0)
    trace = MacTrace()
    run_scenario_full(spec, trace=trace)
    return spec, trace


def test_written_trace_reads_back_to_the_same_events(traced_beacon_run, tmp_path):
    _, trace = traced_beacon_run
    path = tmp_path / "trace.tsv"
    trace.write(path)
    assert read_trace(path).events == trace.events
    with open(path) as fh:
        assert len(trace) == sum(1 for _ in fh) - 1
    assert len(trace) == len(trace.events) > 1000


def test_a_streamed_trace_writes_the_same_file_and_refuses_queries(
        traced_beacon_run, tmp_path):
    spec, kept = traced_beacon_run
    sink = StringIO()
    streamed = MacTrace(sink)
    run_scenario_full(spec, trace=streamed)
    path = tmp_path / "trace.tsv"
    kept.write(path)
    assert sink.getvalue() == path.read_text()
    # The lines are only in the stream: no query may answer as if empty.
    queries = [len, list, lambda t: t.events, lambda t: t.of_kind("arrival"),
               lambda t: t.write(tmp_path / "copy.tsv")]
    for query in queries:
        with pytest.raises(RuntimeError, match="streamed"):
            query(streamed)
    assert not (tmp_path / "copy.tsv").exists()


def test_of_kind_filters_the_events(traced_beacon_run):
    _, trace = traced_beacon_run
    events = trace.events
    kinds = {ev.event for ev in events}
    assert {"sf-start", "beacon-start", "sleep", "cca-start", "defer"} <= kinds
    for kind in kinds:
        assert trace.of_kind(kind) == [ev for ev in events if ev.event == kind]
    assert trace.of_kind("no-such-event") == []
    assert list(trace) == events


def test_slotted_annotation_matches_the_schedule_queries(traced_beacon_run):
    spec, trace = traced_beacon_run
    sched = SuperframeSchedule(spec.bo, spec.so)
    periods = set()
    for ev in trace:
        offset = ev.time % sched.bi
        if offset < sched.cap_offset:
            period = "beacon"
        elif offset < sched.sd:
            period = "cap"
        else:
            period = "inactive"
        slot = sched.slot_index(ev.time) if offset < sched.sd else -1
        assert (ev.sf, ev.slot, ev.period) == (sched.index_at(ev.time), slot, period), ev
        periods.add(period)
    assert periods == {"beacon", "cap", "inactive"}


def test_read_trace_rejects_a_bad_header(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("time\tnode\tevent\n0\t0\tarrival\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


@pytest.mark.parametrize("line", ["0\t0\tarrival\t-\t-\t-\t-\n",          # 7 fields
                                  "x\t0\tarrival\t-\t-\t-\t-\t-\n",       # bad time
                                  "0\t0\tarrival\t1.5\t-\t-\t-\t-\n"])    # bad pkt
def test_read_trace_rejects_a_malformed_line(tmp_path, line):
    path = tmp_path / "trace.tsv"
    path.write_text("\t".join(COLUMNS) + "\n0\t0\tarrival\t3\t-\t-\t-\t-\n" + line)
    with pytest.raises(ValueError):
        read_trace(path)
