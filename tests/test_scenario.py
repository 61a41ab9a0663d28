"""Scenario/sweep YAML loading: defaults, diagnostics, round-trips, and the
packaged configuration library."""

import dataclasses
import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpansim import scenario
from wpansim.csma import CsmaParams, type_error
from wpansim.experiment import replication_seed
from wpansim.network import StarNetwork
from wpansim.scenario import (BUILTINS, ScenarioError, ScenarioSpec,
                              SweepSpec, dump_scenario,
                              load_builtin, load_scenario, loads_scenario)


def test_minimal_file_fills_in_defaults():
    spec = loads_scenario("mode: nonbeacon\nquota: 100\n")
    assert isinstance(spec, ScenarioSpec)
    assert spec.n_devices == 8 and spec.msdu == 60
    assert spec.interval_s == 0.025
    assert spec.distribution == "exponential"
    assert (spec.min_be, spec.max_be, spec.max_nb, spec.max_frame_retries) \
        == (3, 5, 4, 3)
    assert spec.queue_capacity == 1
    assert spec.bo is None and spec.so is None
    assert spec.ack_enabled is True


def test_spec_validation_mirrors_the_loader():
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nonbeacon")            # no stop condition
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nonbeacon", quota=5, run_time_s=1.0)
    with pytest.raises(ValueError):
        ScenarioSpec(mode="beacon", quota=5)      # missing orders
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nonbeacon", quota=5, bo=3, so=2)
    with pytest.raises(ValueError):
        ScenarioSpec(mode="beacon", quota=5, bo=3, so=4)
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nonbeacon", quota=5, msdu=200)
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nonbeacon", quota=5, seed=-1)
    spec = ScenarioSpec(mode="beacon", bo=7, so=6, run_time_s=10.0)
    assert spec.csma_params().min_be == 3


@pytest.mark.parametrize("text,needle", [
    ("mode: nonbeacon\nquota: 10\nquot: 3\n", "f.yaml:3: unknown key 'quot'"),
    ("mode: beacon\nbo: 7\nso: 8\nrun_time_s: 1\n",
     "f.yaml:3: so must not exceed bo"),
    ("mode: nonbeacon\nquota: 5\nquota: 6\n", "f.yaml:3: duplicate key"),
    ("- 1\n- 2\n", "top level must be a mapping"),
    ("", "file is empty"),
    ("mode: nonbeacon\nquota: 5\nn_devices: true\n",
     "n_devices must be an integer"),
    ("mode: nonbeacon\nquota: 5\nmax_nb: 9\n", "max_nb must be <= 5"),
    ("mode: nonbeacon\nquota: 5\nmsdu: 0\n", "msdu"),
    ("mode: warp\nquota: 5\n", "mode"),
    ("mode: nonbeacon\nquota: 5\nn_devices: !custom 3\n",
     "f.yaml:3: could not determine a constructor for the tag '!custom'"),
    ("mode: nonbeacon\nquota: 5\nn_devices: 2\x00\n",
     "f.yaml:3: unacceptable character #x0000"),
])
def test_scenario_diagnostics_carry_file_and_line(text, needle):
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text, label="f.yaml")
    assert needle in str(err.value)


SWEEP_HEAD = "base: {mode: nonbeacon, quota: 5}\naxes:\n  - [msdu, [10]]\n"


@pytest.mark.parametrize("text,line,key", [
    ("mode: nonbeacon\nquota: 5\nn_devices: 0\n", 3, "n_devices"),
    ("mode: nonbeacon\nquota: 5\nmsdu: 119\n", 3, "msdu"),
    ("mode: nonbeacon\nquota: 5\ninterval_s: 0\n", 3, "interval_s"),
    ("mode: nonbeacon\nquota: 5\nmax_be: 4\nmin_be: 5\n", 4, "min_be"),
    ("mode: nonbeacon\nquota: 5\nmax_be: 9\n", 3, "max_be"),
    ("mode: nonbeacon\nquota: 5\nmax_nb: 6\n", 3, "max_nb"),
    ("mode: nonbeacon\nquota: 5\nmax_frame_retries: 8\n", 3,
     "max_frame_retries"),
    ("mode: beacon\nrun_time_s: 1\nso: 2\nbo: 15\n", 4, "bo"),
    ("mode: nonbeacon\nquota: 5\nqueue_capacity: -1\n", 3, "queue_capacity"),
    ("mode: nonbeacon\nseed: 4\nquota: 0\n", 3, "quota"),
    ("mode: nonbeacon\nquota: 5\nseed: -1\n", 3, "seed"),
    (SWEEP_HEAD + "replications: 0\n", 4, "replications"),
    (SWEEP_HEAD + "seed_base: -1\n", 4, "seed_base"),
    ("mode: nonbeacon\nquota: 5\ninterval_s: .inf\n", 3, "interval_s"),
    ("mode: nonbeacon\nquota: 5\ninterval_s: .nan\n", 3, "interval_s"),
    ("mode: nonbeacon\nseed: 4\nrun_time_s: .inf\n", 3, "run_time_s"),
    ("mode: nonbeacon\nseed: 4\nrun_time_s: .nan\n", 3, "run_time_s"),
    # An int past the largest float.
    ("mode: nonbeacon\nquota: 5\ninterval_s: 1" + "0" * 400 + "\n", 3,
     "interval_s"),
])
def test_each_range_checked_key_is_reported_at_its_line(text, line, key):
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text, label="f.yaml")
    message = str(err.value)
    assert message.startswith(f"f.yaml:{line}: ")
    assert key in message


@pytest.mark.parametrize("text,needle", [
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [msdu, [10, 20]]\n"
     "  - [msdu, [30]]\n", "appears twice"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [n_devices, []]\n",
     "has no values"),
    ("base: {mode: nonbeacon, quota: 5}\naxes: {}\n",
     "non-empty 'axes' list"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [seed, [1, 2]]\n",
     "unknown sweep axis 'seed'"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [msdu, [10]]\n"
     "replications: 0\n", "replications must be >= 1"),
    ("base: {mode: beacon, bo: 7, so: 6, run_time_s: 1}\naxes:\n"
     "  - [bo_so, [[7, 8]]]\n", "invalid sweep point"),
    ("base: {mode: nonbeacon, quota: 5, run_time_s: 2}\naxes:\n"
     "  - [msdu, [10]]\n", "mutually exclusive"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [n_devices, [2]]\n"
     "  - [msdu, [20, big]]\n", "f.yaml:4: msdu must be an integer, got 'big'"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [msdu, [true]]\n",
     "f.yaml:3: msdu must be an integer, got True"),
    ("base: {mode: nonbeacon, quota: 5}\naxes:\n  - [interval_s, [.1, x]]\n",
     "f.yaml:3: interval_s must be a number, got 'x'"),
    # Each axis rule is placed at the line of the entry it rejects.
    (SWEEP_HEAD + "  - [msdu, [30]]\n", "f.yaml:4: sweep axis 'msdu' appears twice"),
    (SWEEP_HEAD + "  - [n_devices, []]\n",
     "f.yaml:4: sweep axis 'n_devices' has no values"),
    (SWEEP_HEAD + "  - [seed, [1, 2]]\n", "f.yaml:4: unknown sweep axis 'seed'"),
    (SWEEP_HEAD + "  - [n_devices, 2]\n",
     "f.yaml:4: an axis must be a name and a list of values"),
    (SWEEP_HEAD + "  - n_devices\n",
     "f.yaml:4: an axis must be a name and a list of values, got 'n_devices'"),
])
def test_sweep_diagnostics(text, needle):
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text, label="f.yaml")
    assert needle in str(err.value)


def test_sweep_points_enumerate_first_axis_slowest():
    sweep = loads_scenario(
        "base: {mode: beacon, bo: 7, so: 6, run_time_s: 2}\n"
        "axes:\n"
        "  - [so, [1, 2]]\n"
        "  - [interval_s, [0.01, 0.1]]\n"
        "replications: 3\n"
        "seed_base: 42\n")
    assert isinstance(sweep, SweepSpec)
    assert sweep.replications == 3 and sweep.seed_base == 42
    assert sweep.points() == [
        {"so": 1, "interval_s": 0.01}, {"so": 1, "interval_s": 0.1},
        {"so": 2, "interval_s": 0.01}, {"so": 2, "interval_s": 0.1}]
    spec = sweep.point_spec(sweep.points()[0])
    assert spec.so == 1 and spec.bo == 7 and spec.interval_s == 0.01


def test_bo_so_axis_expands_into_both_orders():
    sweep = loads_scenario(
        "base: {mode: beacon, bo: 7, so: 6, run_time_s: 2}\n"
        "axes:\n"
        "  - [bo_so, [[1, 0], [3, 2]]]\n")
    assert sweep.points() == [{"bo_so": (1, 0)}, {"bo_so": (3, 2)}]
    spec = sweep.point_spec({"bo_so": (3, 2)})
    assert (spec.bo, spec.so) == (3, 2)


def test_dump_round_trips_scenarios_and_sweeps(tmp_path):
    spec = ScenarioSpec(mode="beacon", n_devices=12, msdu=80,
                        interval_s=0.04, bo=5, so=3, run_time_s=30.0,
                        seed=77, queue_capacity=None)
    text = dump_scenario(spec)
    assert loads_scenario(text) == spec
    path = tmp_path / "point.yaml"
    path.write_text(text)
    assert load_scenario(path) == spec

    sweep = SweepSpec(base=spec, axes=(("msdu", (20, 60, 100)),),
                      replications=4, seed_base=9)
    assert loads_scenario(dump_scenario(sweep)) == sweep


# name -> SHA-256 of repr(load_builtin(name)) and of the repr of its seeds
# (every point x replication of a sweep, in run order).  repr tells 1 from 1.0,
# so an int axis value turned float fails here, although its seeds stay.
_BUILTIN_DIGESTS = {
    "nonbeacon-defaults": (
        "3549f7f3b27f3a14efc1b0924b181250be8e44adb43a50c76936cafeec2a9401",
        "7c79845a6ceee07aa0976b7d02e1771bfdc570b03a5b5eb68c18b1437a8ab54b"),
    "beacon-defaults": (
        "44c26ea08dc433fc959c13c9e3c5277030e6eb3202462f6207695f32164ba610",
        "d11caadc73d8719b2959b305294c915b3f4d1254d6bf8d64c52faee0a81fac20"),
    "s6-msdu": (
        "1ea68d5c52f88fd3a1b78455c00db417c4eff212e7b8867f30069ad37ce747fa",
        "a11b99b1fa292c3d92a6ec024a937447a13cb92c65f47fec3486e4bdcc9b979b"),
    "s6-interval": (
        "4538888d9e5221729ef80492efc4f387166211970b30c9eaa8986613433cdf5e",
        "ed21072302e9792c1b4e3375b9ca56037e8e5d95a794db159c9613966d951c0b"),
    "s6-maxnb": (
        "2b144d600383c2a1b0177426778284c7226d56604a931f83e2086fb23bc1bb3b",
        "cecc2bf05b4d25ad69b48b6801a67ad01a726826ee2444a4cf27faf82080d813"),
    "s6-minbe": (
        "9e1da82adf55a0753a827bfaa79251386820243c76d2e1961331eda963b6459f",
        "113f5cfd9200caf4b2432f493579e8826711a65ea021bebdfad7c3d3d7f3da63"),
    "s6-retries": (
        "5bd3189c79638521e37275571bc738260697e87ebe805daf5158bebcc2a2a3d9",
        "73e25095e7fff7dc5d174b8f15e44ae3bc6dc7f3ad46ff3a21987cb336e6e80f"),
    "s7-maxnb": (
        "b8b5a4fb0b7470d20f7ee5939b00922a68c0a74e126b17ad785740a6b609bf38",
        "a4b22d83d1bd01b0db80ed0fc6550a644bf44cd2b71fa689aea955fb6779efd9"),
    "s7-so": (
        "aa450b3c35372a665e0ca52059f1b7a6a4ac5a529686fac477a4559de51fc151",
        "1381edd52e3618fb2fade6934f9e9f835d51ed6e22f9606b0dcec1bb5f8ad785"),
    "s7-bo": (
        "30a1491e9400d7de191fe3b706f35d7d849f161b44d547276f1560dd58ca2c5e",
        "63c0aefc1d602fb9062ae1df42fb1ed664648eb22da34916964c17a8570db526"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_builtin_loads_and_round_trips():
    assert list(BUILTINS) == list(_BUILTIN_DIGESTS)
    for name, (spec_digest, seeds_digest) in _BUILTIN_DIGESTS.items():
        cfg = load_builtin(name)
        assert loads_scenario(dump_scenario(cfg)) == cfg
        assert _sha256(repr(cfg)) == spec_digest, name
        if isinstance(cfg, SweepSpec):
            # every point constructs a valid spec
            for point in cfg.points():
                cfg.point_spec(point)
            seeds = [replication_seed(cfg.seed_base, point, rep)
                     for point in cfg.points()
                     for rep in range(cfg.replications)]
        else:
            seeds = [cfg.seed]
        assert _sha256(repr(seeds)) == seeds_digest, name


def test_builtin_table_lists_only_fields_that_differ_from_the_defaults():
    # The specs' defaults are the packaged MAC settings; an entry that
    # restates one hides which settings a study actually changes.
    run_defaults = ScenarioSpec.__dataclass_fields__
    sweep_defaults = SweepSpec.__dataclass_fields__
    for name, (description, fields) in BUILTINS.items():
        assert description and "\n" not in description, name
        if "axes" in fields:
            run_fields = fields["base"]
            for key, value in fields.items():
                if key not in ("base", "axes"):
                    assert value != sweep_defaults[key].default, (name, key)
        else:
            run_fields = fields
        for key, value in run_fields.items():
            assert value != run_defaults[key].default, (name, key)


def test_builtin_sweeps_cover_both_modes():
    kinds = {name: type(load_builtin(name)).__name__ for name in BUILTINS}
    assert kinds["nonbeacon-defaults"] == "ScenarioSpec"
    assert kinds["beacon-defaults"] == "ScenarioSpec"
    sweep_names = [n for n, k in kinds.items() if k == "SweepSpec"]
    assert len(sweep_names) == 8
    modes = {load_builtin(n).base.mode for n in sweep_names}
    assert modes == {"nonbeacon", "beacon"}


def test_unknown_builtin_is_an_error():
    with pytest.raises(ScenarioError):
        load_builtin("no-such-study")


def test_point_spec_rejects_foreign_axes():
    sweep = load_builtin("s6-msdu")
    with pytest.raises(ValueError, match="^axes: .*'warp_factor'"):
        sweep.point_spec({"warp_factor": 9})


def test_replacing_base_fields_preserves_validity():
    # Downstream consumers shrink built-ins this way; it must keep validating.
    sweep = load_builtin("s6-msdu")
    smaller = dataclasses.replace(sweep.base, quota=10)
    assert smaller.quota == 10
    with pytest.raises(ValueError):
        dataclasses.replace(sweep.base, msdu=0)


_SWEEP = SweepSpec(ScenarioSpec(quota=1), (("msdu", (20,)),))


@pytest.mark.parametrize("field,build", [
    ("seed", lambda: ScenarioSpec(seed=1.5, quota=1)),
    ("msdu", lambda: StarNetwork(msdu=60.5, quota=1)),
    ("quota", lambda: StarNetwork(quota=2.5)),
    ("n_devices", lambda: dataclasses.replace(_SWEEP.base, n_devices=True)),
    ("ack_enabled", lambda: CsmaParams(ack_enabled="no")),
    ("seed_base", lambda: dataclasses.replace(_SWEEP, seed_base=2.5)),
    ("replications", lambda: dataclasses.replace(_SWEEP, replications=1.5)),
    ("axes", lambda: dataclasses.replace(_SWEEP, axes=(("msdu", (20.5,)),))),
    ("min_be", lambda: StarNetwork(csma_params=CsmaParams(min_be=2.0), quota=1)),
    ("axes", lambda: dataclasses.replace(_SWEEP, axes=(("bo_so", (5,)),))),
    ("axes", lambda: dataclasses.replace(_SWEEP, axes=(("msdu", 5),))),
    ("axes", lambda: dataclasses.replace(_SWEEP, axes=((["msdu"], (5,)),))),
])
def test_library_paths_check_types_as_the_loader_does(field, build):
    with pytest.raises(ValueError) as err:
        build()
    # The loader places an error at the key its message starts with.
    assert re.match(r"\w+", str(err.value))[0] == field


def test_library_axis_errors_name_their_entry():
    with pytest.raises(ValueError, match=r"^axes\[1\]: sweep axis 'msdu' appears twice"):
        dataclasses.replace(_SWEEP, axes=(("msdu", (20,)), ("msdu", (30,))))
    with pytest.raises(ValueError, match=r"^axes\[0\]: bo_so values must be"):
        dataclasses.replace(_SWEEP, axes=(("bo_so", ((1, 0.5),)),))


def test_int_in_a_float_field_becomes_a_float():
    spec = ScenarioSpec(interval_s=1, run_time_s=2)
    assert type(spec.interval_s) is float and type(spec.run_time_s) is float


def test_bo_so_pair_of_a_boolean_is_reported_at_its_entry():
    with pytest.raises(ScenarioError, match="^f.yaml:4: bo_so values must be"):
        loads_scenario("base: {mode: beacon, bo: 7, so: 6, run_time_s: 1}\n"
                       "axes:\n  - [n_devices, [2]]\n  - [bo_so, [[true, 1]]]\n",
                       label="f.yaml")


def test_every_spec_field_is_type_checked_or_exempt():
    # A new field must have a type the rule checks, or be named here.
    exempt = {"mode", "distribution", "placement", "base", "axes"}
    checked = {"int", "float", "bool", "int | None", "float | None"}
    for cls in (CsmaParams, ScenarioSpec, SweepSpec):
        for f in dataclasses.fields(cls):
            if f.name not in exempt:
                assert f.type in checked, (cls.__name__, f.name, f.type)
                assert type_error(f.name, "x", f.type), (cls.__name__, f.name)


# Loader property: every text is read as a spec or rejected with one line
# that names the file.  The texts are the packaged scenarios' YAML, cut at any
# byte or with one value replaced by a drawn YAML fragment.
_TEMPLATES = [dump_scenario(load_builtin(name)) for name in BUILTINS]
# A scalar value: after a space or "[", before ",", "]" or the line's end.
_VALUE = re.compile(r"(?<=[ \[])[^\s\[\],:]+(?=[,\]]|$)", re.M)


def _doubling_aliases(n: int) -> str:
    # Anchor i lists anchor i - 1 twice: 2**n items once expanded.
    return "[&a0 [1, 1]" + "".join(f", &a{i} [*a{i - 1}, *a{i - 1}]"
                                   for i in range(1, n)) + "]"


_SCALARS = st.one_of(
    st.integers().map(str), st.floats().map(str), st.text(max_size=4),
    st.sampled_from(["true", "null", "~", "''", ".inf", ".nan", "beacon",
                     "1" + "0" * 400, "!custom 3"]))
_ALIASES = st.one_of(st.sampled_from(["*nowhere", "&x [*x]", "&x {k: *x}"]),
                     st.integers(1, 24).map(_doubling_aliases))
_FRAGMENTS = st.recursive(
    _SCALARS | _ALIASES,
    lambda inner: st.lists(inner, max_size=3).map(
        lambda items: "[" + ", ".join(items) + "]")
    | st.lists(inner, max_size=2).map(
        lambda items: "{" + ", ".join(f"k{i}: {item}"
                                      for i, item in enumerate(items)) + "}"),
    max_leaves=6)


def _loads_or_rejects_in_one_line(text: str) -> None:
    try:
        spec = loads_scenario(text, label="f.yaml")
    except ScenarioError as exc:
        assert str(exc).startswith("f.yaml") and "\n" not in str(exc), str(exc)
    else:
        assert isinstance(spec, (ScenarioSpec, SweepSpec))


def test_aliases_of_aliases_are_walked_once(monkeypatch):
    # Twenty anchors expand to 2**20 items; the line map visits each YAML node
    # once, so the walk stays as short as the file.
    walk, calls = scenario._collect_lines, []
    monkeypatch.setattr(scenario, "_collect_lines",
                        lambda *args: calls.append(args) or walk(*args))
    with pytest.raises(ScenarioError, match="^f.yaml:3: n_devices must be an integer"):
        loads_scenario("mode: nonbeacon\nquota: 5\nn_devices: "
                       + _doubling_aliases(20) + "\n", label="f.yaml")
    assert len(calls) < 100


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_TEMPLATES), st.integers(0, 1000))
def test_a_builtin_cut_at_any_byte_loads_or_is_rejected_in_one_line(text, cut):
    _loads_or_rejects_in_one_line(text[:cut])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_builtin_with_one_value_replaced_loads_or_is_rejected_in_one_line(data):
    text = data.draw(st.sampled_from(_TEMPLATES))
    start, end = data.draw(st.sampled_from(
        [match.span() for match in _VALUE.finditer(text)]))
    _loads_or_rejects_in_one_line(text[:start] + data.draw(_FRAGMENTS) + text[end:])
