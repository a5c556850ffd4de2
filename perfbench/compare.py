"""Summarize saved run.py outputs, or compare two sets of them.

    python3 perfbench/compare.py RUN.out [RUN.out ...] [--against RUN.out ...]

Each file holds the standard output of one run.py run of one workload. For
every metric the script prints the median, the quartiles and the spread
(interquartile distance as a share of the median) of the first set and,
with --against, the second set's median and its change from the first.
Results from different kernel backends are never compared: if the "env"
lines disagree on the backend or on numba, the script exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summary(results: list[dict]) -> dict[str, tuple[float, float, float, str]]:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = (med, q1, q3, first["unit"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)

    loaded = [load(p) for p in args.runs + args.against]
    backends = {(env["backend"], env["has_numba"]) for env, _ in loaded}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    base = [res for _, res in loaded[: len(args.runs)]]
    other = [res for _, res in loaded[len(args.runs):]]
    failed = sum(r["failed"] for r in base + other)
    print(f"{len(base)} runs" + (f" against {len(other)} runs" if other else "") + f"; failed jobs {failed}")
    new = summary(other) if other else {}
    for name, (med, q1, q3, unit) in summary(base).items():
        spread = (q3 - q1) / med if med else 0.0
        line = f"{name:<44} {med:>12.5g} {unit:<13} q1 {q1:<10.5g} q3 {q3:<10.5g} spread {spread:6.1%}"
        if name in new and med:
            line += f"  -> {new[name][0]:.5g} ({new[name][0] / med - 1:+.1%})"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
