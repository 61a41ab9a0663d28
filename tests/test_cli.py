"""Command-line behaviour: outputs, flag validation, and diagnostics."""

import csv
import functools
import os
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpansim.cli import main
from wpansim.experiment import METRIC_COLUMNS
from wpansim.kernel import SimulationError
from wpansim.network import StarNetwork
from wpansim.scenario import BUILTINS, ScenarioSpec, SweepSpec, load_builtin
from wpansim.trace import read_trace

from metrics_oracle import read_packet_log

def test_a_value_that_aliases_expand_is_echoed_briefly(tmp_path, monkeypatch, capsys):
    # Sixteen anchors, each listing the one before twice: 65,536 items once
    # expanded, from a file of about 300 bytes.
    anchors = ", ".join(["&a0 [1, 1]"] + [f"&a{i} [*a{i - 1}, *a{i - 1}]"
                                         for i in range(1, 16)])
    (tmp_path / "alias.yaml").write_text(
        f"mode: nonbeacon\nquota: 5\nn_devices: [{anchors}]\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "alias.yaml"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 200, lines[0][:300]
    assert lines[0].startswith("wpansim: error: alias.yaml:3: n_devices must be an integer")


def test_deep_nesting_is_a_diagnostic_not_a_traceback(tmp_path, capsys):
    bad = tmp_path / "deep.yaml"
    bad.write_text("mode: nonbeacon\nquota: 5\nn_devices: " + "[" * 1200 + "]" * 1200 + "\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"wpansim: error: {bad}: values are nested too deeply\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    # Python refuses to convert a string of more than 4,300 digits to an int.
    ("n_devices: 1" + "0" * 4400 + "\nmode: nonbeacon\nquota: 5\n", 1),
    ("mode: nonbeacon\nquota: 5\nseed: 2024-02-30\n", 3)])
def test_a_value_pyyaml_cannot_build_is_placed_at_its_line(tmp_path, capsys, text, line):
    # Both are a plain ValueError from inside PyYAML's constructors.
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["run", "--config", str(bad)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"wpansim: error: {bad}:{line}: invalid value: ")
    assert "set_int_max_str_digits" not in lines[0]


SRC = Path(__file__).resolve().parents[1] / "src"

TINY = """\
mode: nonbeacon
n_devices: 2
interval_s: 0.05
quota: 5
seed: 31
"""

TINY_SWEEP = """\
base:
  mode: nonbeacon
  n_devices: 2
  interval_s: 0.05
  quota: 5
axes:
  - [msdu, [20, 60]]
replications: 2
seed_base: 8
"""


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


@pytest.fixture
def tiny_sweep(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(TINY_SWEEP)
    return path


def test_run_writes_a_metrics_row(tiny, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["run", "--config", str(tiny), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == 2
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cells["generated"] == "10"


def test_run_defaults_to_stdout(tiny, capsys):
    assert main(["run", "--config", str(tiny)]) == 0
    assert capsys.readouterr().out.startswith("generated,")


def test_run_seed_override_changes_the_outcome(tiny, capsys):
    main(["run", "--config", str(tiny)])
    base = capsys.readouterr().out
    main(["run", "--config", str(tiny), "--seed", "31"])
    assert capsys.readouterr().out == base          # same seed, same bytes
    main(["run", "--config", str(tiny), "--seed", "32"])
    assert capsys.readouterr().out != base


def test_run_emits_packet_log_and_trace(tiny, tmp_path):
    plog = tmp_path / "packets.csv"
    trace = tmp_path / "trace.tsv"
    assert main(["run", "--config", str(tiny), "--out", str(tmp_path / "m.csv"),
                 "--packet-log", str(plog), "--trace", str(trace)]) == 0
    assert len(read_packet_log(plog)) == 10
    assert read_trace(trace).of_kind("arrival")


@pytest.mark.parametrize("outputs,needle", [
    (["--packet-log", "-"], "--packet-log cannot be '-'"),
    (["--trace", "-"], "--trace cannot be '-'"),
    (["--packet-log", "-", "--trace", "-"], "--packet-log cannot be '-'"),
    (["--packet-log", "out.tsv", "--trace", "./out.tsv"],
     "--packet-log and --trace name the same file"),
    (["--out", "m.csv", "--packet-log", "m.csv"],
     "--out and --packet-log name the same file"),
])
def test_run_rejects_clashing_outputs_before_running(tiny, tmp_path, monkeypatch,
                                                     capsys, outputs, needle):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(tiny)] + outputs) == 1
    captured = capsys.readouterr()
    assert f"wpansim: error: {needle}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.yaml"]


@pytest.fixture
def results_csv(tiny_sweep, tmp_path):
    path = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(tiny_sweep), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command,output", [
    ("run", "--out"), ("run", "--packet-log"), ("run", "--trace"),
    ("sweep", "--out"), ("plot-data", "--out"),
])
def test_no_output_may_overwrite_an_input(tiny, tiny_sweep, results_csv, tmp_path,
                                          monkeypatch, capsys, command, output):
    monkeypatch.chdir(tmp_path)
    if command == "plot-data":
        source, given = results_csv, "--results"
        extra = ["--x", "msdu", "--metric", "effective_data_rate_bps"]
    else:
        source, given = (tiny if command == "run" else tiny_sweep), "--config"
        extra = []
    names = sorted(p.name for p in tmp_path.iterdir())
    before = source.read_bytes()
    # The output names the input by another spelling of the same path.
    assert main([command, given, str(source), *extra,
                 output, f"./{source.name}"]) == 1
    captured = capsys.readouterr()
    assert f"wpansim: error: {given} and {output} name the same file" in captured.err
    assert captured.out == ""
    assert source.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_a_failed_run_exits_1_and_keeps_its_partial_trace(tiny, tmp_path,
                                                         monkeypatch, capsys):
    ended = []
    tx_end = StarNetwork._on_data_tx_end

    def fail_on_the_third(self, dev):
        ended.append(dev)
        if len(ended) == 3:
            raise SimulationError("injected failure")
        tx_end(self, dev)

    monkeypatch.setattr(StarNetwork, "_on_data_tx_end", fail_on_the_third)
    out, trace = tmp_path / "m.csv", tmp_path / "trace.tsv"
    assert main(["run", "--config", str(tiny), "--out", str(out),
                 "--trace", str(trace)]) == 1
    assert "wpansim: error: injected failure" in capsys.readouterr().err
    assert not out.exists()
    partial = read_trace(trace)         # every line parses
    assert len(partial.of_kind("tx-start")) >= 3
    assert len(partial.of_kind("tx-end")) == 2


def test_run_rejects_a_sweep_file(tiny_sweep, capsys):
    assert main(["run", "--config", str(tiny_sweep)]) == 1
    assert "use the 'sweep' subcommand" in capsys.readouterr().err


def test_sweep_runs_and_rejects_single_scenarios(tiny, tiny_sweep, tmp_path,
                                                 capsys):
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(tiny_sweep), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("point,replication,kind,msdu,seed,")
    # 2 points x (2 samples + mean + stddev)
    assert len(lines) == 1 + 2 * 4

    assert main(["sweep", "--config", str(tiny)]) == 1
    assert "use the 'run' subcommand" in capsys.readouterr().err


def test_sweep_replication_override(tiny_sweep, capsys):
    assert main(["sweep", "--config", str(tiny_sweep),
                 "--replications", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * 3       # 1 sample + 2 aggregates per point


def test_plot_data_pipeline(tiny_sweep, tmp_path, capsys):
    results = tmp_path / "results.csv"
    main(["sweep", "--config", str(tiny_sweep), "--out", str(results)])
    assert main(["plot-data", "--results", str(results), "--x", "msdu",
                 "--metric", "effective_data_rate_bps"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x\tmean\tstddev\tn"
    assert [line.split("\t")[0] for line in lines[1:]] == ["20", "60"]

    assert main(["plot-data", "--results", str(results), "--x", "msdu",
                 "--metric", "nonesuch"]) == 1
    assert "unknown column" in capsys.readouterr().err


@pytest.mark.parametrize("source,metric,needle", [
    ("sweep", "status", "column 'status' is not numeric"),
    ("run", "delivered", "not a sweep results file"),
])
def test_plot_data_on_the_wrong_input_is_a_diagnostic_not_a_traceback(
        tiny, tiny_sweep, tmp_path, source, metric, needle):
    results = tmp_path / "results.csv"
    config = tiny_sweep if source == "sweep" else tiny
    assert main([source, "--config", str(config), "--out", str(results)]) == 0
    # A separate interpreter, so that an escaping exception shows as a
    # traceback on stderr rather than as a failure of this test.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "wpansim", "plot-data", "--results", str(results),
         "--x", "generated", "--metric", metric],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert "wpansim: error:" in done.stderr and needle in done.stderr
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("column", ["kind", "status"])
def test_plot_data_needs_the_kind_and_status_columns(results_csv, capsys, column):
    # Without 'status' every row was skipped: an empty table and exit 0.
    rows = list(csv.reader(results_csv.read_text().splitlines()))
    drop = rows[0].index(column)
    results_csv.write_text("".join(",".join(row[:drop] + row[drop + 1:]) + "\n"
                                   for row in rows))
    assert _plot_data_error(results_csv, capsys) == (
        f"wpansim: error: {results_csv}: not a sweep results file: "
        "it lacks 'kind' or 'status'\n")


def _set_cell(results_csv, index: int, column: str, text: str) -> None:
    with open(results_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[index][column] = text
    with open(results_csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_plot_data_names_a_non_finite_metric_cell(results_csv, capsys, cell):
    _set_cell(results_csv, 0, "mean_delay_s", cell)
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results_csv), "--x", "msdu",
                 "--metric", "mean_delay_s"]) == 1
    assert capsys.readouterr().err == (f"wpansim: error: {results_csv}: column "
                                       f"'mean_delay_s' holds a non-finite value: "
                                       f"found {cell}\n")


def test_plot_data_names_a_non_finite_x_cell(results_csv, capsys):
    _set_cell(results_csv, 1, "msdu", "nan")
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results_csv), "--x", "msdu",
                 "--metric", "mean_delay_s"]) == 1
    assert capsys.readouterr().err == (f"wpansim: error: {results_csv}: column "
                                       "'msdu' holds a non-finite value: found nan\n")


def test_a_sweep_worker_that_dies_is_a_diagnostic(tiny_sweep, monkeypatch,
                                                  capsys):
    monkeypatch.setattr("wpansim.experiment.run_scenario",
                        lambda spec, seed=None: os._exit(3))
    assert main(["sweep", "--config", str(tiny_sweep), "--jobs", "2"]) == 1
    assert re.fullmatch(r"wpansim: error: sweep worker \d+ exited with status 3 "
                        r"before reporting its runs\n", capsys.readouterr().err)


def test_scenarios_lists_every_builtin(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        kind = ("sweep" if isinstance(load_builtin(name), SweepSpec)
                else "scenario")
        assert re.search(rf"^{name} +{kind} ", out, re.MULTILINE), name


def test_scenarios_listing_builds_no_spec(monkeypatch, capsys):
    # The kind comes from the table; building the eight packaged sweeps
    # would validate every one of their points just to print a word.
    def refuse(self):
        raise AssertionError("'scenarios' built a spec")
    monkeypatch.setattr(ScenarioSpec, "__post_init__", refuse)
    monkeypatch.setattr(SweepSpec, "__post_init__", refuse)
    assert main(["scenarios"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(BUILTINS)


def test_builtin_source_flag(capsys):
    assert main(["run", "--builtin", "no-such-name"]) == 1
    assert "unknown built-in scenario" in capsys.readouterr().err


def test_bad_yaml_diagnostic_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: nonbeacon\nquota: 5\nmax_nb: 9\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.yaml:3" in err and "max_nb" in err


def test_infinite_interval_is_a_diagnostic_not_a_traceback(tmp_path, capsys):
    bad = tmp_path / "inf.yaml"
    bad.write_text("mode: nonbeacon\nquota: 5\ninterval_s: .inf\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "wpansim: error:" in err and "inf.yaml:3" in err


@pytest.mark.parametrize("text", ["n_devices: &x [*x]\n", "a: &x [*x]\n"])
def test_a_recursive_alias_is_a_diagnostic_not_a_traceback(tmp_path, capsys, text):
    bad = tmp_path / "loop.yaml"
    bad.write_text(text)
    assert main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"wpansim: error: {bad}:1: recursive alias\n"


def _plot_data_error(results_csv, capsys, x="msdu") -> str:
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results_csv), "--x", x,
                 "--metric", "delivered"]) == 1
    return capsys.readouterr().err


def test_plot_data_rejects_a_row_with_a_missing_cell(results_csv, capsys):
    lines = results_csv.read_text().splitlines(keepends=True)
    columns = len(lines[0].split(","))
    lines[2] = lines[2].rstrip("\n").rpartition(",")[0] + "\n"
    results_csv.write_text("".join(lines))
    assert _plot_data_error(results_csv, capsys) == (
        f"wpansim: error: {results_csv}:3: {columns - 1} cells where the header "
        f"has {columns}\n")


def test_plot_data_rejects_a_file_cut_mid_row(results_csv, capsys):
    text = results_csv.read_text()
    lines = text.splitlines()
    columns = len(lines[0].split(","))
    cut = text[:-len(lines[-1]) // 2]
    results_csv.write_text(cut)
    cells = len(cut.splitlines()[-1].split(","))
    assert cells < columns
    assert _plot_data_error(results_csv, capsys) == (
        f"wpansim: error: {results_csv}:{len(lines)}: {cells} cells where the "
        f"header has {columns}\n")


def test_plot_data_rejects_a_repeated_column(results_csv, capsys):
    # With the last name winning, --x msdu would group by seed values.
    text = results_csv.read_text()
    results_csv.write_text(text.replace(",seed,", ",msdu,", 1))
    assert _plot_data_error(results_csv, capsys) == (
        f"wpansim: error: {results_csv}:1: column 'msdu' appears twice\n")


def test_missing_file_is_a_diagnostic_not_a_traceback(capsys):
    assert main(["run", "--config", "/nonexistent/x.yaml"]) == 1
    assert "wpansim: error:" in capsys.readouterr().err


@functools.cache
def _sweep_csv() -> str:
    """A real two-point results CSV, from the sweep of ``TINY_SWEEP``."""
    from wpansim.experiment import run_sweep
    from wpansim.scenario import loads_scenario
    return run_sweep(loads_scenario(TINY_SWEEP)).to_csv()


def _damaged(text: str, how: str, i: int, j: int = 0, cell: str = "") -> str:
    """``text`` cut at byte ``i``, or with line ``i``'s cell ``j`` dropped,
    ``cell`` added before it or put in its place, or with the name of
    column ``j`` repeated in place of column ``i``'s."""
    if how == "cut":
        return text[:i]
    lines = text.splitlines(keepends=True)
    cells = lines[0 if how == "repeat" else i].rstrip("\n").split(",")
    if how == "repeat":
        cells[i] = cells[j]
        i = 0
    elif how == "drop":
        del cells[j]
    elif how == "add":
        cells.insert(j, cell)
    else:
        cells[j] = cell
    lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@st.composite
def damages(draw):
    """Arguments of ``_damaged`` for the sweep CSV; a replaced cell is a
    metric's."""
    text = _sweep_csv()
    lines = text.splitlines()
    header = lines[0].split(",")
    how = draw(st.sampled_from(["cut", "drop", "add", "repeat", "replace"]))
    if how == "cut":
        return how, draw(st.integers(0, len(text)))
    if how == "repeat":
        i, j = draw(st.lists(st.integers(0, len(header) - 1), min_size=2,
                             max_size=2, unique=True))
        return how, i, j
    i = draw(st.integers(1 if how == "replace" else 0, len(lines) - 1))
    if how == "replace":
        return how, i, header.index(draw(st.sampled_from(METRIC_COLUMNS))), draw(
            st.sampled_from(["NA", "nan", "inf", "-inf", "text", "", "1e999", "9" * 400]))
    cells = len(lines[i].split(","))
    return how, i, draw(st.integers(0, cells - (how == "drop"))), draw(
        st.sampled_from(["", "1", "x"]))


@settings(max_examples=150, deadline=None)
@given(damages(), st.sampled_from(["msdu", "replication", "delivered"]),
       st.sampled_from(["delivered", "mean_delay_s", "packet_loss_rate"]),
       st.sampled_from([None, "msdu", "kind"]))
# The first two were errors that named no file; the third, an int too large
# for a float, escaped as an OverflowError.
@example(("cut", 1), "msdu", "delivered", None)
@example(("replace", 1, 6, "text"), "msdu", "delivered", None)
@example(("replace", 1, 6, "9" * 400), "msdu", "delivered", None)
def test_plot_data_on_a_damaged_results_file_returns_or_names_the_file(
        damage, x, metric, series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "results.csv")
        path.write_text(_damaged(_sweep_csv(), *damage))
        argv = ["plot-data", "--results", str(path), "--x", x, "--metric", metric,
                "--out", str(Path(tmp, "plot.txt"))]
        if series:
            argv += ["--series", series]
        err = StringIO()
        with redirect_stderr(err):
            status = main(argv)
    lines = err.getvalue().splitlines()
    if status == 0:
        assert lines == []
    else:
        assert status == 1 and len(lines) == 1, lines
        assert lines[0].startswith(f"wpansim: error: {path}"), lines[0]


def _plot_data(text: str, x: str, metric: str, series: str | None):
    """In-process ``plot-data`` on a results file holding ``text``: its exit
    status, output bytes and stderr lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "results.csv"), Path(tmp, "plot.txt")
        path.write_text(text)
        argv = ["plot-data", "--results", str(path), "--x", x, "--metric", metric,
                "--out", str(out)] + (["--series", series] if series else [])
        err = StringIO()
        with redirect_stderr(err):
            status = main(argv)
        output = out.read_bytes() if status == 0 else None
    lines = [line.replace(str(path), "<results>") for line in err.getvalue().splitlines()]
    return status, output, lines


@st.composite
def column_orders(draw):
    """A permutation of the indices of the sweep CSV's columns."""
    return draw(st.permutations(range(len(_sweep_csv().split("\n", 1)[0].split(",")))))


@settings(max_examples=40, deadline=None)
@given(column_orders(), st.sampled_from(["msdu", "replication", "point"]),
       st.sampled_from(METRIC_COLUMNS),
       st.sampled_from([None, "msdu", "kind", "replication"]))
def test_plot_data_reads_columns_by_name_not_by_place(order, x, metric, series):
    rows = [line.split(",") for line in _sweep_csv().splitlines()]
    permuted = "".join(",".join(cells[i] for i in order) + "\n" for cells in rows)
    original = _plot_data(_sweep_csv(), x, metric, series)
    assert original[0] == 0
    assert _plot_data(permuted, x, metric, series) == original


def _cell(value) -> str:
    return "NA" if value is None else repr(value) if isinstance(value, float) else str(value)


def _plot_data_oracle(rows: list[dict], by_series: bool) -> str:
    """``plot-data --x x --metric metric [--series series]`` recomputed with
    ``statistics`` from the rows of a valid results file."""
    header = "x\tmean\tstddev\tn\n"
    groups: dict = {}      # series -> x -> metric values, in first-seen order
    for row in rows:
        if row["kind"] == "sample" and row["status"] == "ok":
            values = groups.setdefault(row["series"] if by_series else None,
                                       {}).setdefault(row["x"], [])
            if row["metric"] is not None:
                values.append(row["metric"])
    blocks = []
    for series, by_x in groups.items():
        block = [f"# series: series={_cell(series)}\n"] if by_series else []
        block.append(header)
        xs = list(by_x)
        if not any(isinstance(x, str) for x in xs):
            xs.sort()
        for x in xs:
            values = by_x[x]
            mean = statistics.fmean(values) if values else None
            stddev = statistics.stdev(values) if len(values) > 1 else None
            block.append(f"{_cell(x)}\t{_cell(mean)}\t{_cell(stddev)}\t{len(values)}\n")
        blocks.append("".join(block))
    return "\n".join(blocks) or header


_WORD = st.sampled_from(["low", "high", "ack"])
_NUMBER = st.one_of(st.integers(-2**62, 2**62),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def valid_results(draw):
    """Rows of a results file: samples and aggregates, ok or failed, whose
    x and series cells are numbers or words and whose metric cells are
    numbers or NA."""
    xs = draw(st.lists(st.one_of(_NUMBER, _WORD), min_size=1, max_size=4))
    series = draw(st.lists(st.one_of(st.integers(0, 3), _WORD), min_size=1, max_size=3))
    return draw(st.lists(st.fixed_dictionaries({
        "kind": st.sampled_from(["sample", "sample", "mean", "stddev"]),
        "status": st.sampled_from(["ok", "ok", "failed"]),
        "x": st.sampled_from(xs), "series": st.sampled_from(series),
        "metric": st.one_of(st.none(), _NUMBER)}), max_size=12))


def _ok_sample(x, metric) -> dict:
    return dict(kind="sample", status="ok", x=x, series=0, metric=metric)


@settings(max_examples=100, deadline=None)
@given(valid_results(), st.booleans())
# Finite cells whose mean, or whose stddev, no float can hold were a
# traceback (an OverflowError).
@example([_ok_sample(1, 1.7e308), _ok_sample(1, 1.7e308)], False)
@example([_ok_sample(1, 1.7e308), _ok_sample(1, -1.7e308)], False)
def test_plot_data_on_a_valid_results_file_matches_a_recomputation(rows, by_series):
    columns = ["kind", "x", "series", "metric", "status"]
    text = "".join(",".join(map(_cell, row)) + "\n"
                   for row in [columns] + [[row[c] for c in columns] for row in rows])
    status, output, err = _plot_data(text, "x", "metric", "series" if by_series else None)
    try:
        expected = _plot_data_oracle(rows, by_series)
    except OverflowError:
        assert status == 1 and len(err) == 1, err
        assert err[0].startswith("wpansim: error: <results>: "), err
    else:
        assert (status, err) == (0, [])
        assert output.decode() == expected
