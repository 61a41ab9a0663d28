"""Command-line behaviour: outputs, flag validation, and diagnostics."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert capsys.readouterr().err == ("wpansim: error: column 'mean_delay_s' "
                                       f"holds a non-finite value: found {cell}\n")


def test_plot_data_names_a_non_finite_x_cell(results_csv, capsys):
    _set_cell(results_csv, 1, "msdu", "nan")
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results_csv), "--x", "msdu",
                 "--metric", "mean_delay_s"]) == 1
    assert capsys.readouterr().err == ("wpansim: error: column 'msdu' holds a "
                                       "non-finite value: found nan\n")


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
