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
import functools
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

from wpansim.csma import CsmaParams, brief_repr, check_range, check_types, type_error
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
            raise ValueError(
                f"mode must be nonbeacon or beacon, got {brief_repr(self.mode)}")
        check_range("n_devices", self.n_devices, 1)
        check_range("msdu", self.msdu, 1, MAX_MSDU_BYTES)
        if not 0 < self.interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and > 0, got {self.interval_s}")
        if self.distribution not in ("exponential", "periodic"):
            raise ValueError("distribution must be exponential or periodic, "
                             f"got {brief_repr(self.distribution)}")
        if self.placement not in ("equal", "random"):
            raise ValueError("placement must be equal or random, "
                             f"got {brief_repr(self.placement)}")
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


# Field name -> type annotation (a string under PEP 563), for axis values.
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioSpec)}
# Scenario fields a sweep axis may vary, plus the compound (bo, so) axis used
# for equal-duty-cycle sweeps.
_AXIS_NAMES = (_FIELD_TYPES.keys() - {"seed"}) | {"bo_so"}


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
            raise ValueError("axes: a sweep needs a non-empty 'axes' list")
        seen = set()
        for i, axis in enumerate(self.axes):
            at = f"axes[{i}]: "
            if not (isinstance(axis, (tuple, list)) and len(axis) == 2
                    and isinstance(axis[0], str) and isinstance(axis[1], (tuple, list))):
                raise ValueError(f"{at}an axis must be a name and a list of "
                                 f"values, got {brief_repr(axis)}")
            name, values = axis
            if name not in _AXIS_NAMES:
                raise ValueError(f"{at}unknown sweep axis {brief_repr(name)}")
            if name in seen:
                raise ValueError(f"{at}sweep axis {name!r} appears twice")
            seen.add(name)
            if not values:
                raise ValueError(f"{at}sweep axis {name!r} has no values")
            for value in values:
                if name != "bo_so":
                    if error := type_error(name, value, _FIELD_TYPES[name]):
                        raise ValueError(at + error)
                elif (not isinstance(value, (tuple, list)) or len(value) != 2
                      or any(type_error(name, x, "int") for x in value)):
                    raise ValueError(f"{at}bo_so values must be (bo, so) pairs "
                                     f"of integers, got {brief_repr(value)}")
        # Lists become tuples, so that a sweep read from YAML equals the same
        # sweep written in Python.
        object.__setattr__(self, "axes", tuple(
            (name, tuple(tuple(v) if name == "bo_so" else v for v in values))
            for name, values in self.axes))
        check_range("replications", self.replications, 1)
        check_range("seed_base", self.seed_base, 0, 2 ** 64 - 1)
        # Every point of the cartesian product must itself be a valid scenario.
        for point in self.points():
            try:
                self.point_spec(point)
            except ValueError as exc:
                shown = ", ".join(f"{n!r}: {brief_repr(v)}" for n, v in point.items())
                raise ValueError(f"axes: invalid sweep point {{{shown}}}: {exc}") from exc

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
                raise ValueError(f"axes: unknown sweep axis {brief_repr(name)}")
            if name == "bo_so":
                changes["bo"], changes["so"] = value
            else:
                changes[name] = value
        return dataclasses.replace(self.base, **changes)


# ---------------------------------------------------------------------------
# YAML loading.  The specs check every value; the loader parses and places
# each error at its line.

def _collect_lines(node, prefix: tuple, lines: dict, label: str,
                   walking: dict) -> None:
    """Map every key/item path in the YAML document to its 1-based line.
    ``walking`` maps each node met so far to whether its walk is under way.
    An alias to a node under way would make the document endless; one to a
    node walked already adds no lines, or aliases of aliases would make the
    walk exponentially long."""
    import yaml
    if node in walking:
        if walking[node]:
            raise ScenarioError(f"{label}:{lines[prefix]}: recursive alias")
        return
    walking[node] = True
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
            _collect_lines(value_node, prefix + (key,), lines, label, walking)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            lines[prefix + (i,)] = item.start_mark.line + 1
            _collect_lines(item, prefix + (i,), lines, label, walking)
    walking[node] = False


def _build(cls, raw: dict, label: str, lines: dict, prefix: tuple = ()):
    """``cls`` from one mapping of a parsed file, whose key paths start with
    ``prefix``.  A ``ValueError`` from the spec is reported at the line of
    the key its message starts with (for ``axes[i]: ``, of entry ``i``), or
    else at the mapping's."""
    def fail(path: tuple, message: str):
        line = lines.get(prefix + path) or lines.get(prefix, 1)
        raise ScenarioError(f"{label}:{line}: {message}")

    names = {f.name for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in names:
            fail((key,), f"unknown key {brief_repr(key)}")
    if cls is SweepSpec:
        if not isinstance(raw.get("base"), dict):
            fail(("base",), "a sweep needs a 'base' scenario mapping")
        raw = {"axes": (), **raw, "base": _build(ScenarioSpec, raw["base"], label,
                                                lines, prefix + ("base",))}
    try:
        return cls(**raw)
    except ValueError as exc:
        message = str(exc)
        key, index = re.match(r"(\w*)(?:\[(\d+)\]: )?", message).groups()
        if index is None:
            fail((key,), message)
        fail((key, int(index)), message.partition(": ")[2])


@functools.cache
def _loader():
    """PyYAML's safe loader, except that a value its constructors reject with
    a plain ``ValueError`` (an int past Python's digit limit, a date with no
    such day) is a YAML error at that value's line."""
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except ValueError as exc:
                # The advice after ";" is meant for Python code, not files.
                what = str(exc).partition(";")[0]
                raise yaml.constructor.ConstructorError(
                    None, None, f"invalid value: {what}", node.start_mark) from exc
    return Loader


def loads_scenario(text: str, label: str = "<string>") -> ScenarioSpec | SweepSpec:
    """Parse scenario or sweep YAML from a string; ``label`` names it in errors."""
    import yaml     # loaded on first use: a process that only runs networks skips it
    lines: dict = {}
    try:
        loader = _loader()(text)            # rejects a character YAML never allows
        node = loader.get_single_node()
        if node is None:
            raise ScenarioError(f"{label}: file is empty")
        if not isinstance(node, yaml.MappingNode):
            raise ScenarioError(f"{label}:1: top level must be a mapping")
        _collect_lines(node, (), lines, label, {})
        raw = loader.construct_document(node)
    except yaml.YAMLError as exc:
        if isinstance(exc, yaml.reader.ReaderError):
            line = text.count("\n", 0, exc.position) + 1
            what = str(exc).partition("\n")[0]
        else:
            line = exc.problem_mark.line + 1
            what = ", ".join(filter(None, (exc.context, exc.problem)))
        raise ScenarioError(f"{label}:{line}: {what}") from exc
    except RecursionError:
        raise ScenarioError(f"{label}: values are nested too deeply") from None
    return _build(SweepSpec if "axes" in raw or "base" in raw else ScenarioSpec,
                  raw, label, lines)


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
        if value is not None or field.default is not None:
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
