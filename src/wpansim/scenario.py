"""Scenario and sweep specs, their YAML files, and the packaged scenarios.

A scenario file is a mapping that describes one simulation run.  A sweep file
wraps a ``base`` scenario with a list of parameter ``axes`` (their cartesian
product defines the run set) plus a replication count and a seed base.  The
key-by-key reference lives in ``docs/scenario-schema.md``.

Loading is strict: unknown keys, duplicate keys, values of the wrong type, and
out-of-range parameters are all errors, each reported with file and line.

The packaged scenarios are the ``BUILTINS`` table below, built on demand by
``load_builtin`` without PyYAML; ``dump_scenario(load_builtin(name))`` gives
a YAML template for any of them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

from wpansim.csma import CsmaParams, check_range, check_types, type_error
from wpansim.kernel import SYMBOL_RATE
from wpansim.phy import MAX_MSDU_BYTES
from wpansim.superframe import SuperframeSchedule

__all__ = [
    "ScenarioError", "ScenarioSpec", "SweepSpec",
    "load_scenario", "loads_scenario", "dump_scenario",
    "BUILTINS", "load_builtin",
]


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


_CSMA_DEFAULTS = CsmaParams()


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified simulation run.

    ``quota`` (packets per device) and ``run_time_s`` are the two stop
    conditions; exactly one must be set.  ``bo``/``so`` are required in beacon
    mode and must be absent otherwise.  ``queue_capacity=None`` means an
    unbounded MAC queue.
    """

    mode: str = "nonbeacon"
    n_devices: int = 8
    msdu: int = 60
    interval_s: float = 0.025
    distribution: str = "exponential"
    min_be: int = _CSMA_DEFAULTS.min_be
    max_be: int = _CSMA_DEFAULTS.max_be
    max_nb: int = _CSMA_DEFAULTS.max_nb
    max_frame_retries: int = _CSMA_DEFAULTS.max_frame_retries
    bo: int | None = None
    so: int | None = None
    queue_capacity: int | None = 1
    quota: int | None = None
    run_time_s: float | None = None
    seed: int = 1
    placement: str = "equal"
    ack_enabled: bool = _CSMA_DEFAULTS.ack_enabled

    def __post_init__(self):
        check_types(self)
        if self.mode not in ("nonbeacon", "beacon"):
            raise ValueError(f"mode must be nonbeacon or beacon, got {self.mode!r}")
        check_range("n_devices", self.n_devices, 1)
        check_range("msdu", self.msdu, 1, MAX_MSDU_BYTES)
        if not 0 < self.interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and > 0, got {self.interval_s}")
        if self.distribution not in ("exponential", "periodic"):
            raise ValueError("distribution must be exponential or periodic, "
                             f"got {self.distribution!r}")
        if self.placement not in ("equal", "random"):
            raise ValueError(
                f"placement must be equal or random, got {self.placement!r}")
        self.csma_params()  # range-checks min_be, max_be, max_nb, max_frame_retries
        if self.mode == "beacon":
            if self.bo is None or self.so is None:
                raise ValueError("mode beacon requires both bo and so")
            SuperframeSchedule(self.bo, self.so)  # range-checks bo and so
        else:
            for name in ("bo", "so"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} is only meaningful in beacon mode")
        if self.quota is None and self.run_time_s is None:
            raise ValueError("a stop condition is required: quota or run_time_s")
        if self.quota is not None:
            if self.run_time_s is not None:
                raise ValueError("run_time_s and quota are mutually exclusive")
            check_range("quota", self.quota, 1)
        elif not 1 / SYMBOL_RATE <= self.run_time_s < math.inf:
            raise ValueError("run_time_s must be finite and at least one symbol "
                             f"(1/{SYMBOL_RATE} s), got {self.run_time_s}")
        if self.queue_capacity is not None:
            check_range("queue_capacity", self.queue_capacity, 0)
        check_range("seed", self.seed, 0, 2 ** 64 - 1)

    def csma_params(self) -> CsmaParams:
        return CsmaParams(min_be=self.min_be, max_be=self.max_be,
                          max_nb=self.max_nb,
                          max_frame_retries=self.max_frame_retries,
                          ack_enabled=self.ack_enabled)


# Scenario fields a sweep axis may vary, plus the compound (bo, so) axis used
# for equal-duty-cycle sweeps.
_AXIS_NAMES = frozenset(
    f.name for f in dataclasses.fields(ScenarioSpec) if f.name != "seed"
) | {"bo_so"}


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian parameter sweep over a base scenario.

    ``axes`` is an ordered list of (name, values); the first axis varies
    slowest.  Replication ``r`` of a point derives its seed from
    ``seed_base``, the point's parameters and ``r`` (see
    :func:`wpansim.experiment.replication_seed`), so any subset of a sweep can
    be reproduced in isolation.
    """

    base: ScenarioSpec
    axes: tuple[tuple[str, tuple], ...]
    replications: int = 5
    seed_base: int = 0

    def __post_init__(self):
        check_types(self)
        if not self.axes or not isinstance(self.axes, (tuple, list)):
            raise ValueError("axes: a sweep needs at least one axis")
        seen = set()
        for axis in self.axes:
            if (not isinstance(axis, (tuple, list)) or len(axis) != 2
                    or not isinstance(axis[0], str)
                    or not isinstance(axis[1], (tuple, list))):
                raise ValueError(f"axes: each axis must be (name, values), got {axis!r}")
            name, values = axis
            if name not in _AXIS_NAMES:
                raise ValueError(f"axes: unknown sweep axis {name!r}")
            if name in seen:
                raise ValueError(f"axes: sweep axis {name!r} appears twice")
            seen.add(name)
            if not values:
                raise ValueError(f"axes: sweep axis {name!r} has no values")
            if name == "bo_so" and not all(isinstance(v, (tuple, list)) and len(v) == 2
                                           for v in values):
                raise ValueError(f"axes: bo_so values must be (bo, so) pairs, "
                                 f"got {values!r}")
        check_range("replications", self.replications, 1)
        check_range("seed_base", self.seed_base, 0, 2 ** 64 - 1)
        # Every point of the cartesian product must itself be a valid scenario.
        for point in self.points():
            try:
                self.point_spec(point)
            except ValueError as exc:
                raise ValueError(
                    f"axes: invalid sweep point {point}: {exc}") from exc

    def points(self) -> list[dict]:
        """All axis-value combinations, first axis slowest."""
        names = [name for name, _ in self.axes]
        return [dict(zip(names, combo))
                for combo in itertools.product(*(vals for _, vals in self.axes))]

    def point_spec(self, point: dict) -> ScenarioSpec:
        """The base scenario with one point's parameters applied."""
        changes = {}
        for name, value in point.items():
            if name not in _AXIS_NAMES:
                raise ValueError(f"axes: unknown sweep axis {name!r}")
            if name == "bo_so":
                changes["bo"], changes["so"] = value
            else:
                changes[name] = value
        return dataclasses.replace(self.base, **changes)


# ---------------------------------------------------------------------------
# YAML loading with file/line diagnostics.

# Field name -> type annotation (a string under PEP 563), for axis values.
_SCENARIO_KEYS = {f.name: f.type for f in dataclasses.fields(ScenarioSpec)}
_SWEEP_KEYS = {f.name for f in dataclasses.fields(SweepSpec)}


def _collect_lines(node, prefix: tuple, lines: dict, label: str,
                   enclosing: tuple = ()) -> None:
    """Map every key/item path in the YAML document to its 1-based line.
    ``enclosing`` holds the nodes around ``node``: an alias to one of them
    would make the walk, and the document, endless."""
    import yaml
    if any(node is outer for outer in enclosing):
        raise ScenarioError(f"{label}:{lines[prefix]}: recursive alias")
    enclosing += (node,)
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key_node, value_node in node.value:
            key = key_node.value
            line = key_node.start_mark.line + 1
            if not isinstance(key, str):
                raise ScenarioError(f"{label}:{line}: mapping keys must be strings")
            if key in seen:
                raise ScenarioError(f"{label}:{line}: duplicate key {key!r}")
            seen.add(key)
            lines[prefix + (key,)] = line
            _collect_lines(value_node, prefix + (key,), lines, label, enclosing)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            lines[prefix + (i,)] = item.start_mark.line + 1
            _collect_lines(item, prefix + (i,), lines, label, enclosing)


class _Reader:
    """One mapping of a parsed file, for error messages that point at the
    offending line.  Types and ranges are the specs' to check."""

    def __init__(self, label: str, lines: dict, raw: dict, prefix: tuple = ()):
        self.label = label
        self.lines = lines
        self.raw = raw
        self.prefix = prefix

    def line(self, key=None) -> int:
        if key is not None:
            found = self.lines.get(self.prefix + (key,))
            if found is not None:
                return found
        return self.lines.get(self.prefix, 1)

    def fail(self, key, message: str):
        raise ScenarioError(f"{self.label}:{self.line(key)}: {message}")

    def reject_unknown(self, allowed) -> None:
        for key in self.raw:
            if key not in allowed:
                self.fail(key, f"unknown key {key!r}")

    def construct(self, cls, **fields):
        """``cls(**fields)``; a ``ValueError`` is reported at the line of the
        key its message starts with, or else at this mapping's line."""
        try:
            return cls(**fields)
        except ValueError as exc:
            message = str(exc)
            self.fail(re.match(r"\w*", message)[0], message)


def _build_scenario(reader: _Reader) -> ScenarioSpec:
    reader.reject_unknown(_SCENARIO_KEYS)
    return reader.construct(ScenarioSpec, **reader.raw)


def _build_sweep(reader: _Reader) -> SweepSpec:
    reader.reject_unknown(_SWEEP_KEYS)
    raw = reader.raw
    if "base" not in raw or not isinstance(raw["base"], dict):
        reader.fail("base", "a sweep needs a 'base' scenario mapping")
    base = _build_scenario(_Reader(reader.label, reader.lines, raw["base"],
                                   reader.prefix + ("base",)))

    axes_raw = raw.get("axes")
    if not isinstance(axes_raw, list):
        reader.fail("axes", "a sweep needs a non-empty 'axes' list")
    axes = []
    for i, entry in enumerate(axes_raw):
        line = reader.lines.get(reader.prefix + ("axes", i), reader.line("axes"))
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], str) or not isinstance(entry[1], list)):
            raise ScenarioError(
                f"{reader.label}:{line}: each axis must be [name, [values...]]")
        name, values = entry
        if name == "bo_so":
            for v in values:
                if (not isinstance(v, list) or len(v) != 2
                        or any(type_error(name, x, "int") for x in v)):
                    raise ScenarioError(
                        f"{reader.label}:{line}: bo_so values must be [bo, so] pairs")
            values = [tuple(v) for v in values]
        elif name in _SCENARIO_KEYS:
            for value in values:
                error = type_error(name, value, _SCENARIO_KEYS[name])
                if error:
                    raise ScenarioError(f"{reader.label}:{line}: {error}")
        axes.append((name, tuple(values)))

    counts = {key: raw[key] for key in ("replications", "seed_base") if key in raw}
    return reader.construct(SweepSpec, base=base, axes=tuple(axes), **counts)


def loads_scenario(text: str, label: str = "<string>") -> ScenarioSpec | SweepSpec:
    """Parse scenario or sweep YAML from a string; ``label`` names it in errors."""
    import yaml     # loaded on first use: a process that only runs networks skips it
    loader = yaml.SafeLoader(text)
    lines: dict = {}
    try:
        node = loader.get_single_node()
        if node is None:
            raise ScenarioError(f"{label}: file is empty")
        if not isinstance(node, yaml.MappingNode):
            raise ScenarioError(f"{label}:1: top level must be a mapping")
        _collect_lines(node, (), lines, label)
        raw = loader.construct_document(node)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:
            raise ScenarioError(f"{label}: {exc}") from exc
        what = ", ".join(filter(None, (exc.context, exc.problem)))
        raise ScenarioError(f"{label}:{mark.line + 1}: {what}") from exc
    finally:
        loader.dispose()
    reader = _Reader(label, lines, raw)
    if "axes" in raw or "base" in raw:
        return _build_sweep(reader)
    return _build_scenario(reader)


def load_scenario(path) -> ScenarioSpec | SweepSpec:
    """Load and validate a scenario or sweep file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    return loads_scenario(text, label=str(path))


# ---------------------------------------------------------------------------
# Serialization (round-trips through load_scenario).

def _scenario_dict(spec: ScenarioSpec) -> dict:
    out = {}
    for field in dataclasses.fields(ScenarioSpec):
        value = getattr(spec, field.name)
        if value is None and field.name in ("bo", "so", "quota", "run_time_s"):
            continue
        out[field.name] = value
    return out


def dump_scenario(spec: ScenarioSpec | SweepSpec) -> str:
    """Serialize a spec back to YAML text."""
    import yaml
    if isinstance(spec, SweepSpec):
        data = {
            "base": _scenario_dict(spec.base),
            "axes": [[name, [list(v) if isinstance(v, tuple) else v
                             for v in values]]
                     for name, values in spec.axes],
            "replications": spec.replications,
            "seed_base": spec.seed_base,
        }
    else:
        data = _scenario_dict(spec)
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=None)


# ---------------------------------------------------------------------------
# Packaged scenarios.

# The two packaged runs, less their seeds, are the bases of the studies.
_NONBEACON = dict(quota=5000)
_BEACON = dict(mode="beacon", interval_s=0.05, bo=7, so=6, run_time_s=1000.0)
_DEVICE_COUNTS = ("n_devices", (2, 4, 8, 16, 32))
_BEACON_INTERVALS = ("interval_s", (0.01, 0.05, 0.1))

#: name -> (one-line description, fields), in listing order.  The fields are
#: only those that differ from the specs' defaults, which are the packaged MAC
#: settings; a sweep's base scenario is under "base".
BUILTINS = {
    "nonbeacon-defaults": (
        "single non-beacon run with the default MAC settings",
        dict(_NONBEACON, seed=421)),
    "beacon-defaults": (
        "single beacon-enabled run (8 devices, BO=7, SO=6)",
        dict(_BEACON, seed=422)),
    "s6-msdu": (
        "non-beacon sweep: MSDU size crossed with device count",
        dict(base=_NONBEACON,
             axes=(("msdu", (20, 40, 60, 80, 100)), _DEVICE_COUNTS),
             seed_base=1001)),
    # A deeper transmit queue than the other non-beacon sweeps, so that
    # queueing (not just channel access) shows up in the delay metric when
    # the offered load exceeds channel capacity.
    "s6-interval": (
        "non-beacon sweep: packet interval crossed with device count",
        dict(base=dict(_NONBEACON, queue_capacity=8),
             axes=(("interval_s", (0.01, 0.025, 0.05, 0.1, 1, 10)),
                   _DEVICE_COUNTS),
             seed_base=1002)),
    "s6-maxnb": (
        "non-beacon sweep: MaxNB crossed with device count",
        dict(base=_NONBEACON,
             axes=(("max_nb", (0, 1, 2, 3, 4, 5)), _DEVICE_COUNTS),
             seed_base=1003)),
    "s6-minbe": (
        "non-beacon sweep: MinBE crossed with device count",
        dict(base=_NONBEACON,
             axes=(("min_be", (1, 2, 3, 4, 5)), _DEVICE_COUNTS),
             seed_base=1004)),
    "s6-retries": (
        "non-beacon sweep: retry limit crossed with device count",
        dict(base=_NONBEACON,
             axes=(("max_frame_retries", (0, 1, 2, 3, 4, 5)), _DEVICE_COUNTS),
             seed_base=1005)),
    # Every pair keeps SO = BO - 1, a 50% duty cycle, so the series isolate
    # superframe scale from sleep fraction.  The queue holds one inactive
    # portion's arrivals even at BO=7, so the measurement reflects
    # channel-access capacity rather than buffer losses accrued while the
    # network sleeps.
    "s7-maxnb": (
        "beacon sweep: MaxNB crossed with 50%-duty (BO, SO) pairs",
        dict(base=dict(_BEACON, queue_capacity=32),
             axes=(("max_nb", (0, 1, 2, 3, 4, 5)),
                   ("bo_so", ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5),
                              (7, 6)))),
             seed_base=1006)),
    # Duty cycle 2^(SO-7).
    "s7-so": (
        "beacon sweep: SO at BO=7 crossed with packet interval",
        dict(base=_BEACON,
             axes=(("so", (1, 2, 3, 4, 5, 6)), _BEACON_INTERVALS),
             seed_base=1007)),
    # Duty cycle 2^(1-BO); the axis runs from the longest beacon interval down
    # to the shortest.
    "s7-bo": (
        "beacon sweep: BO at SO=1 crossed with packet interval",
        dict(base=dict(_BEACON, so=1),
             axes=(("bo", (7, 6, 5, 4, 3, 2)), _BEACON_INTERVALS),
             seed_base=1008)),
}


def load_builtin(name: str) -> ScenarioSpec | SweepSpec:
    """Build one of the packaged scenarios by name."""
    if name not in BUILTINS:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; choose from "
            f"{', '.join(BUILTINS)}")
    fields = BUILTINS[name][1]
    if "axes" not in fields:
        return ScenarioSpec(**fields)
    return SweepSpec(**fields | {"base": ScenarioSpec(**fields["base"])})
