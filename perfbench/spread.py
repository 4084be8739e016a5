"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload vpos_sweep --seeds 1-10 [--trace 1]

Prints, per metric, the median and quartiles of the per-run values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--json``
writes the same summary, with every run's value, to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str):
    """``"1-10"`` or ``"1,5,9"`` -> list of ints."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)
    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True,
            cwd=os.path.dirname(HERE),
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in sorted(result["metrics"].items())
            if not name.endswith(".calls")
        ), flush=True)
    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {
            "unit": units[name], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "values": series,
        }
        print(f"{args.workload} {name}: median {median:.6g} {units[name]} "
              f"[{q1:.6g}, {q3:.6g}] spread {spread:.4f} n={len(series)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
