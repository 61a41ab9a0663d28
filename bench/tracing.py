"""Spans around the calls into each wpansim module, for the traced run only.

:func:`install` replaces module functions and class methods of the loaded
simulator with wrappers that record one span per call (name, start, end,
parent) in compact in-memory arrays.  Nothing here is imported by an
untraced run, so untraced runs execute the simulator unmodified.

A layer's self time is the sum, over its spans, of the span's duration minus
the durations of its direct child spans.  Spans nest strictly because the
simulator is single-threaded and every wrapped call returns before its
caller does.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np

HANDLER_PREFIX = "network.handler."


class SpanRecorder:
    """Append-only span store: one entry per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as a span called ``name``.

        ``observe(result, args)``, if given, runs after the span closes, so
        its cost lands in the caller's self time, not in the layer's.
        """
        nid = self.name_id(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result
        return span

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), with few full-length temporaries."""
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        own = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(
            self.starts, dtype=np.int64)
        # Slot -1 (the last one) collects the durations of top-level spans.
        child = np.zeros(len(own) + 1, dtype=np.int64)
        np.add.at(child, parents, own)
        own -= child[:-1]
        out = {}
        for i, name in enumerate(self.names):
            mine = ids == i
            out[name] = (int(np.count_nonzero(mine)), int(own[mine].sum()) / 1e9)
        return out

    def write(self, path) -> None:
        """All spans as arrays in one ``.npz`` file (times in ns)."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 start_ns=np.frombuffer(self.starts, dtype=np.int64),
                 end_ns=np.frombuffer(self.ends, dtype=np.int64))


def install(rec: SpanRecorder):
    """Wrap the public calls of every simulator layer; returns an undo."""
    from wpansim import cli, csma, metrics, network, scenario
    from wpansim.csma import DeferToNextCap
    from wpansim.kernel import EventKind, Scheduler
    from wpansim.phy import FrameKind, Medium
    from wpansim.superframe import SuperframeSchedule
    from wpansim.trace import MacTrace

    saved = []

    def patch(owner, attr, name, observe=None):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, observe))

    count = rec.counters

    def count_data_frames(_result, args):
        if args[1].kind is FrameKind.DATA:
            count["phy.data_tx"] += 1

    def count_collided(_result, args):
        if args[1].overlappers:
            count["phy.collided"] += 1

    def count_busy(result, _args):
        count["phy.cca_busy.busy"] += result

    def count_defers(result, _args):
        if type(result[1]) is DeferToNextCap:
            count["superframe.defers"] += 1

    # Each scheduled callback becomes a handler span named after its kind,
    # created outside the kernel.schedule span so that wrapping costs fall
    # on the scheduling handler, as every span's own overhead does.
    handlers = {kind: HANDLER_PREFIX + kind.value for kind in EventKind}
    patch(Scheduler, "at", "kernel.schedule")
    timed_at = Scheduler.at

    def at(self, when, fn, arg=None, *, kind=EventKind.GENERIC, target=None):
        return timed_at(self, when, rec.wrap(handlers[kind], fn), arg,
                        kind=kind, target=target)
    Scheduler.at = at
    patch(Scheduler, "cancel", "kernel.cancel")
    patch(Scheduler, "run", "kernel.loop")
    patch(csma, "rng_uniform_units", "kernel.rng.backoff")
    patch(network, "rng_exponential", "kernel.rng.interarrival")
    patch(network, "unslotted_step", "csma.unslotted_step")
    patch(network, "slotted_step", "superframe.slotted_step", count_defers)
    patch(SuperframeSchedule, "countdown_end", "superframe.countdown_end")
    for query in ("in_cap", "cap_end_for", "next_cap_start"):
        patch(SuperframeSchedule, query, "superframe.cap_queries")
    patch(Medium, "begin_tx", "phy.begin_tx", count_data_frames)
    patch(Medium, "end_tx", "phy.end_tx", count_collided)
    patch(Medium, "cca_busy", "phy.cca_busy", count_busy)
    patch(Medium, "heard_intact", "phy.heard_intact")
    patch(network.StarNetwork, "__init__", "network.init")
    patch(network, "build_metrics", "metrics.build_metrics")
    patch(metrics, "write_packet_log", "metrics.write_packet_log")
    patch(cli, "write_packet_log", "metrics.write_packet_log")
    patch(MacTrace, "add", "trace.add")
    patch(MacTrace, "write", "trace.write")
    patch(scenario, "loads_scenario", "scenario.load")

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, *, records: int, delivered: int) -> dict:
    """The per-layer metrics of one traced run, before the experiment and
    overhead figures that the caller adds."""
    from wpansim.kernel import EventKind

    times = rec.self_times()
    count = rec.counters

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0))[1]

    out = {}
    for name in ("kernel.schedule", "kernel.rng.backoff", "kernel.rng.interarrival",
                 "csma.unslotted_step", "superframe.slotted_step",
                 "superframe.countdown_end", "superframe.cap_queries",
                 "phy.begin_tx", "phy.end_tx", "phy.cca_busy", "phy.heard_intact",
                 "trace.add"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["kernel.cancel.calls"] = calls("kernel.cancel")
    out["kernel.loop.self_s"] = self_s("kernel.loop")
    events = 0
    for kind in EventKind:
        n = calls(HANDLER_PREFIX + kind.value)
        out[f"kernel.events.{kind.value}"] = n
        events += n
    out["kernel.events"] = events
    out["kernel.fired_ratio"] = _ratio(events, calls("kernel.schedule"))
    out["network.handlers.self_s"] = sum(
        self_s(HANDLER_PREFIX + kind.value) for kind in EventKind)
    out["network.init.self_s"] = self_s("network.init")
    out["superframe.defers"] = count["superframe.defers"]
    out["phy.cca_busy.busy_ratio"] = _ratio(count["phy.cca_busy.busy"],
                                            calls("phy.cca_busy"))
    out["phy.collided_ratio"] = _ratio(count["phy.collided"], calls("phy.end_tx"))
    out["phy.data_tx_useful_ratio"] = _ratio(delivered, count["phy.data_tx"])
    out["metrics.build_metrics.self_s"] = self_s("metrics.build_metrics")
    out["metrics.write_packet_log.self_s"] = self_s("metrics.write_packet_log")
    out["metrics.records"] = records
    out["trace.write.self_s"] = self_s("trace.write")
    out["scenario.load.self_s"] = self_s("scenario.load")
    return out
