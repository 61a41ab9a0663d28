"""Paired speed: alternate ``bench/run.py`` between two checkouts and compare.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload NAME [--workload ...]
        [--pairs 10] [--seconds 35] [--seed N] [--claim WORKLOAD:METRIC]
        [--out pairs.json]

Each pair runs ``python3 bench/run.py --workload NAME --seconds S [--seed N]``
once in each tree, in a fresh process and under ``PYTHONDONTWRITEBYTECODE=1``;
odd pairs run the parent first, even pairs the change.  The bench's own
files are only read.  Per workload and end-to-end metric it prints both
sides' medians and quartiles (``statistics.quantiles(n=4)``), the pairs the
change won (ties count for neither side), whether the medians differ by more
than the parent's interquartile range, and whether the change's median stays
within the bound that the parent's ``BENCHMARK.json`` sets.

A claim is met when the change wins at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range.  The exit status is 1 when a run fails or reports an
incorrect output, or when a series' SHA-256 differs between the trees.
The record names each tree by ``git describe --always --dirty``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

RUN_TIMEOUT_S = 300     # bench/run.py ends within 180 s by its own budget


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran as
    pair ``i``; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs, at least one, per side")
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)      # > 0: the change's median is better
    out = {
        "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
        "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
        "change_vs_parent": round(c_med / p_med - 1, 4) if p_med else None,
        "change_better_pairs": sum(sign * (p - c) > 0
                                   for p, c in zip(parent, change)),
        "medians_differ_by_more_than_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        "change_better_by_more_than_parent_iqr": gain > p_q3 - p_q1,
    }
    if bound is not None:
        out["within_bound"] = -gain <= bound * abs(p_med)
    return out


def claim_met(summary: dict, pairs: int) -> bool:
    """The gain rule: at least nine tenths of the pairs won, and a median
    better by more than the parent's interquartile range."""
    return (summary["change_better_pairs"] >= math.ceil(0.9 * pairs)
            and summary["change_better_by_more_than_parent_iqr"])


def bench_run(tree: Path, workload: str, seconds: float, seed) -> dict:
    """One ``bench/run.py`` run: its final JSON line, SHA-256 and exit status."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.splitlines()
    entry = {"exit": proc.returncode, "sha256": None, "result": None}
    for line in lines:
        if line.startswith(f"{workload}  sha256 "):
            entry["sha256"] = line.split()[-1]
    if lines and lines[-1].startswith("{"):
        entry["result"] = json.loads(lines[-1])
    if proc.returncode or entry["result"] is None:
        entry["stderr"] = proc.stderr[-2000:]
    return entry


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((tree / "src").rglob("*.py")))


def revision(tree: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or str(tree)


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "PYTHONDONTWRITEBYTECODE": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the gain the change claims")
    parser.add_argument("--out", type=Path, help="write the JSON record here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs, summary, digests, ok = {}, {}, {}, True
    for workload in args.workload:
        runs[workload] = []
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                entry = bench_run(trees[side], workload, args.seconds, args.seed)
                runs[workload].append({"pair": pair, "side": side, **entry})
                result = entry["result"] or {}
                print(f"# {workload} pair {pair} {side}: exit {entry['exit']}, "
                      f"correct {result.get('correct')}", file=sys.stderr)
        sides = {side: [r for r in runs[workload] if r["side"] == side]
                 for side in trees}
        if any(r["exit"] or not (r["result"] or {}).get("correct")
               for r in runs[workload]):
            print(f"pairs: {workload}: a run failed or was incorrect", file=sys.stderr)
            ok = False
            continue
        shas = {side: sorted({r["sha256"] for r in rs}) for side, rs in sides.items()}
        digests[workload] = shas
        if shas["parent"] != shas["change"]:
            print(f"pairs: {workload}: outputs differ between the trees: {shas}",
                  file=sys.stderr)
            ok = False
        summary[workload] = {
            "pairs": args.pairs,
            "failed": sum(r["result"]["failed"] for r in runs[workload]),
        }
        print(f"\n{workload} ({args.pairs} pairs): parent median [q1, q3] -> "
              f"change median [q1, q3], change/parent - 1, pairs won, "
              f"gap > parent IQR, within bound")
        for spec in end_to_end:
            name = spec["name"]
            values = {side: [r["result"]["metrics"][name]["value"] for r in rs]
                      for side, rs in sides.items()}
            row = compare(values["parent"], values["change"], spec["better"],
                          spec.get("bound"))
            summary[workload][name] = row
            print(f"  {name:<14} {row['parent_median']:.6g} [{row['parent_q1']:.6g}, "
                  f"{row['parent_q3']:.6g}] -> {row['change_median']:.6g} "
                  f"[{row['change_q1']:.6g}, {row['change_q3']:.6g}]  "
                  f"{row['change_vs_parent']:+.2%}  {row['change_better_pairs']}/"
                  f"{args.pairs}  {row['medians_differ_by_more_than_parent_iqr']}  "
                  f"{row.get('within_bound')}")

    record = {
        "command": "python3 bench/run.py --workload <name> --seconds "
                   f"{args.seconds:g}" + ("" if args.seed is None
                                          else f" --seed {args.seed}"),
        "machine": machine(),
        "parent": revision(trees["parent"]),
        "change": revision(trees["change"]),
        "method": f"{args.pairs} pairs per workload, parent first in odd pairs, "
                  "each side from its own checkout, workloads one after "
                  "another; quartiles are statistics.quantiles(n=4)",
        "claim": args.claim,
        "claim_met": None,
        "summary": summary,
        "sha256_per_series": digests,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": runs,
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload in summary and metric in summary[workload]:
            record["claim_met"] = claim_met(summary[workload][metric], args.pairs)
        print(f"\nclaim {args.claim}: met = {record['claim_met']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
