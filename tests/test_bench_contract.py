"""The benchmark's per-layer tracing wraps names the simulator still calls.

``bench/tracing.py`` patches module functions and class methods by name; a
rename or a call path that bypasses one would silently zero a layer's
counts.  This runs one unslotted network, one slotted network traced
in memory and once more streamed, and one ``wpansim run --packet-log``
under its wrappers, and checks that every layer saw calls, that every
backoff draw and data frame was counted, and that undo restores the
originals.
"""

import csv
import sys
from io import StringIO
from pathlib import Path

from wpansim import cli, metrics, network
from wpansim.kernel import Scheduler
from wpansim.network import StarNetwork
from wpansim.trace import MacTrace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracing_wraps_live_calls_and_undoes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as is
    import tracing

    originals = (Scheduler.at, network.unslotted_step, network.slotted_step,
                 network.build_metrics, MacTrace.add, metrics.write_packet_log,
                 cli.write_packet_log)
    config = tmp_path / "tiny.yaml"
    config.write_text("mode: nonbeacon\nn_devices: 2\ninterval_s: 0.05\nquota: 5\n")
    packet_log = tmp_path / "packets.csv"
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    kept, sink = MacTrace(), StringIO()
    try:
        logs = [StarNetwork(n_devices=4, msdu=60, interval_s=0.02, quota=5,
                            seed=1).run().log]
        for trace in (kept, MacTrace(sink)):
            logs.append(StarNetwork(mode="beacon", bo=3, so=2, n_devices=4, msdu=60,
                                    interval_s=0.05, run_time_s=1.0, seed=2,
                                    trace=trace).run().log)
        assert cli.main(["run", "--config", str(config), "--out",
                         str(tmp_path / "metrics.csv"),
                         "--packet-log", str(packet_log)]) == 0
    finally:
        undo()
    assert (Scheduler.at, network.unslotted_step, network.slotted_step,
            network.build_metrics, MacTrace.add, metrics.write_packet_log,
            cli.write_packet_log) == originals
    calls = {name: n for name, (n, _) in rec.self_times().items()}
    for name in ("kernel.schedule", "kernel.rng.backoff", "csma.unslotted_step",
                 "superframe.slotted_step", "superframe.countdown_end",
                 "phy.begin_tx", "phy.end_tx", "phy.cca_busy",
                 "phy.heard_intact", "trace.add", "network.init",
                 "metrics.build_metrics", "scenario.load"):
        assert calls.get(name, 0) > 0, name
    # The CLI's packet log is written through the counted call, once.
    assert calls.get("metrics.write_packet_log") == 1
    assert len(packet_log.read_bytes().splitlines()) == 1 + 2 * 5
    # A streamed trace's lines pass through the counted call too.
    streamed = sink.getvalue().count("\n") - 1
    assert streamed == len(kept) > 0
    assert calls["trace.add"] == len(kept) + streamed
    # Every backoff draws through the counted call, also when the network
    # answers the transition from its table instead of the step function.
    backoffs = (len(kept.of_kind("backoff-start"))
                + sink.getvalue().count("\tbackoff-start\t"))
    assert backoffs > 0
    assert calls["kernel.rng.backoff"] >= backoffs
    # The PHY observers read the frame that begin_tx and end_tx take first:
    # every data frame sent is counted, and no other frame.
    sent = sum(packet.tx_count for log in logs for packet in log)
    with open(packet_log, newline="") as fh:
        sent += sum(int(row["tx_count"]) for row in csv.DictReader(fh))
    assert rec.counters["phy.data_tx"] == sent > 0
    assert 0 < rec.counters["phy.collided"] < calls["phy.end_tx"]
