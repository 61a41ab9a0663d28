"""Command-line front end: run scenarios, execute sweeps, shape plot data.

Subcommands
    run        one scenario -> metrics CSV (optional packet log / MAC trace)
    sweep      sweep file -> results CSV with per-point aggregates
    plot-data  results CSV -> per-series x/mean/stddev/n text blocks
    scenarios  list the packaged scenarios and sweeps

Exit status is 0 on success and nonzero with a diagnostic on stderr for any
failure (bad file, bad flag combination, simulation error).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from io import StringIO
from pathlib import Path

from wpansim.experiment import (emit_plot_data, read_results, run_scenario_full,
                                run_sweep, write_metrics_csv)
from wpansim.kernel import SimulationError
from wpansim.metrics import write_packet_log
from wpansim.scenario import (BUILTINS, ScenarioError, ScenarioSpec, SweepSpec,
                              load_builtin, load_scenario)
from wpansim.trace import MacTrace


def _load_spec(args):
    if args.builtin:
        return load_builtin(args.builtin)
    return load_scenario(args.config)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_paths(inputs: dict, outputs: dict) -> None:
    """Reject, before anything loads, an output path that names an input or
    another output, or that is '-' for any output but --out (stdout)."""
    seen = {}
    for flag, path in (inputs | outputs).items():
        if path is None or (flag == "--out" and path == "-"):
            continue
        if path == "-" and flag in outputs:
            raise ValueError(f"{flag} cannot be '-': only --out writes to stdout")
        key = Path(path).resolve()
        if key in seen:
            raise ValueError(f"{seen[key]} and {flag} name the same file {path}")
        seen[key] = flag


def _cmd_run(args) -> int:
    _check_paths({"--config": args.config},
                 {"--out": args.out, "--packet-log": args.packet_log,
                  "--trace": args.trace})
    spec = _load_spec(args)
    if isinstance(spec, SweepSpec):
        raise ScenarioError(
            "this is a sweep definition; use the 'sweep' subcommand")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.trace:
        # The trace streams into its file as the run goes; a run that fails
        # leaves the lines written so far.
        with open(args.trace, "w") as fh:
            result = run_scenario_full(spec, trace=MacTrace(fh))
    else:
        result = run_scenario_full(spec)

    buf = StringIO()
    write_metrics_csv([result.metrics], buf)
    _write_text(args.out, buf.getvalue())
    if args.packet_log:
        write_packet_log(args.packet_log, result.log)
    return 0


def _cmd_sweep(args) -> int:
    _check_paths({"--config": args.config}, {"--out": args.out})
    spec = _load_spec(args)
    if isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            "this is a single scenario; use the 'run' subcommand")
    changes = {}
    if args.seed is not None:
        changes["seed_base"] = args.seed
    if args.replications is not None:
        changes["replications"] = args.replications
    if changes:
        spec = dataclasses.replace(spec, **changes)
    table = run_sweep(spec, jobs=args.jobs)
    _write_text(args.out, table.to_csv())
    return 0


def _cmd_plot_data(args) -> int:
    _check_paths({"--results": args.results}, {"--out": args.out})
    results = read_results(args.results)
    text = emit_plot_data(results, x_axis=args.x, metric=args.metric,
                          series_key=args.series)
    _write_text(args.out, text)
    return 0


def _cmd_scenarios(args) -> int:
    width = max(map(len, BUILTINS))
    for name, (description, fields) in BUILTINS.items():
        kind = "sweep" if "axes" in fields else "scenario"
        print(f"{name:<{width}}  {kind:<8}  {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpansim",
        description="Star-network CSMA-CA simulator and experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", metavar="PATH",
                           help="scenario or sweep YAML file")
        group.add_argument("--builtin", metavar="NAME",
                           help="packaged scenario name (see 'scenarios')")

    p_run = sub.add_parser("run", help="run a single scenario")
    add_source(p_run)
    p_run.add_argument("--seed", type=int, metavar="U64",
                       help="override the scenario's seed")
    p_run.add_argument("--out", metavar="PATH",
                       help="metrics CSV destination (default: stdout)")
    p_run.add_argument("--packet-log", metavar="PATH",
                       help="also write the per-packet outcome log")
    p_run.add_argument("--trace", metavar="PATH",
                       help="also write the MAC event trace, streamed as the "
                            "run goes")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_source(p_sweep)
    p_sweep.add_argument("--seed", type=int, metavar="U64",
                         help="override the sweep's seed base")
    p_sweep.add_argument("--replications", type=int, metavar="N",
                         help="override the sweep's replication count")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="forked worker processes, at most one per run; "
                              "above 1 needs os.fork (Linux, macOS) "
                              "(default: 1)")
    p_sweep.add_argument("--out", metavar="PATH",
                         help="results CSV destination (default: stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot-data",
                            help="summarize sweep results for plotting")
    p_plot.add_argument("--results", required=True, metavar="PATH",
                        help="results CSV produced by 'sweep'")
    p_plot.add_argument("--x", required=True, metavar="COLUMN",
                        help="x-axis column name")
    p_plot.add_argument("--metric", required=True, metavar="COLUMN",
                        help="metric column name")
    p_plot.add_argument("--series", metavar="COLUMN",
                        help="one output block per value of this column")
    p_plot.add_argument("--out", metavar="PATH",
                        help="destination (default: stdout)")
    p_plot.set_defaults(func=_cmd_plot_data)

    p_list = sub.add_parser("scenarios", help="list packaged scenarios")
    p_list.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SimulationError, ValueError, OSError) as exc:
        print(f"wpansim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
