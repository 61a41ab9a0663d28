"""Golden digests: SHA-256 of the metrics CSV, packet log and MAC trace of
ten reduced-volume runs, pinned in ``tests/golden/digests.json``, plus
``trace_sorted``, the SHA-256 of the trace's lines sorted.

A refactor or speed-up must leave every digest unchanged.  One that only
reorders trace lines within an instant re-pins ``trace`` alone, and the
unchanged ``trace_sorted`` shows that the lines themselves did not change.
A change that alters behaviour on purpose re-pins them, says so in
CHANGES.md, and shows that the sweep means moved within their stddev.  To
print the current digests as JSON:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import json
from io import StringIO
from pathlib import Path

import pytest

from wpansim.cli import main
from wpansim.experiment import replication_seed, run_scenario_full, write_metrics_csv
from wpansim.metrics import write_packet_log
from wpansim.scenario import dump_scenario, load_builtin
from wpansim.trace import MacTrace

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def _nonbeacon():
    return dataclasses.replace(load_builtin("nonbeacon-defaults"), quota=200), None


def _beacon():
    return dataclasses.replace(load_builtin("beacon-defaults"), run_time_s=25.0), None


def _sweep_point(sweep_name, point, **cut):
    """Replication 0 of one sweep point, with ``cut`` reducing its volume."""
    def make():
        sweep = load_builtin(sweep_name)
        spec = dataclasses.replace(sweep.point_spec(point), **cut)
        return spec, replication_seed(sweep.seed_base, point, 0)
    return make


# One reduced point per packaged sweep.  The non-beacon points are congested
# (16 or 32 devices); the beacon points are ones where many slotted
# countdowns complete too close to the CAP end and carry over to the next CAP.
RUNS = {
    "nonbeacon-defaults-quota200": _nonbeacon,
    "beacon-defaults-25s": _beacon,
    "s6-interval-0.01s-32dev-quota40": _sweep_point(
        "s6-interval", {"interval_s": 0.01, "n_devices": 32}, quota=40),
    "s6-maxnb-0-16dev-quota40": _sweep_point(
        "s6-maxnb", {"max_nb": 0, "n_devices": 16}, quota=40),
    "s6-minbe-1-16dev-quota40": _sweep_point(
        "s6-minbe", {"min_be": 1, "n_devices": 16}, quota=40),
    "s6-msdu-100-16dev-quota40": _sweep_point(
        "s6-msdu", {"msdu": 100, "n_devices": 16}, quota=40),
    "s6-retries-0-16dev-quota40": _sweep_point(
        "s6-retries", {"max_frame_retries": 0, "n_devices": 16}, quota=40),
    "s7-bo-2-0.01s-5s": _sweep_point(
        "s7-bo", {"bo": 2, "interval_s": 0.01}, run_time_s=5.0),
    "s7-maxnb-5-bo1so0-5s": _sweep_point(
        "s7-maxnb", {"max_nb": 5, "bo_so": [1, 0]}, run_time_s=5.0),
    "s7-so-1-0.01s-20s": _sweep_point(
        "s7-so", {"so": 1, "interval_s": 0.01}, run_time_s=20.0),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digests(trace: bytes) -> dict[str, str]:
    """The ``trace`` and ``trace_sorted`` digests of a trace file's bytes."""
    return {"trace": _sha256(trace),
            "trace_sorted": _sha256(b"".join(sorted(trace.splitlines(keepends=True))))}


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    """Digests of the three output files of one golden run."""
    spec, seed = RUNS[name]()
    trace = MacTrace()
    result = run_scenario_full(spec, seed, trace=trace)
    buf = StringIO()
    write_metrics_csv([result.metrics], buf)
    write_packet_log(out_dir / "packets.csv", result.log)
    trace.write(out_dir / "trace.tsv")
    return {"metrics": _sha256(buf.getvalue().encode()),
            "packet_log": _sha256((out_dir / "packets.csv").read_bytes()),
            **trace_digests((out_dir / "trace.tsv").read_bytes())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_pinned_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())[name]
    current = run_digests(name, tmp_path)
    changed = {k: v for k, v in current.items() if v != pinned[k]}
    assert not changed, (f"{name}: outputs changed; new digests "
                         f"{json.dumps(changed, indent=2)}")


@pytest.mark.parametrize("name", ["beacon-defaults-25s",
                                  "nonbeacon-defaults-quota200"])
def test_cli_run_streams_the_pinned_outputs(name, tmp_path):
    spec, _ = RUNS[name]()
    config = tmp_path / "scenario.yaml"
    config.write_text(dump_scenario(spec))
    files = {"metrics": tmp_path / "metrics.csv",
             "packet_log": tmp_path / "packets.csv",
             "trace": tmp_path / "trace.tsv"}
    assert main(["run", "--config", str(config), "--out", str(files["metrics"]),
                 "--packet-log", str(files["packet_log"]),
                 "--trace", str(files["trace"])]) == 0
    current = {k: _sha256(path.read_bytes()) for k, path in files.items()}
    current.update(trace_digests(files["trace"].read_bytes()))
    assert current == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: run_digests(name, Path(tmp)) for name in sorted(RUNS)},
                         indent=2))
