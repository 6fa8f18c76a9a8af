"""Compare two sets of benchmark results written by run.py.

    python3 perfbench/compare.py --base old/*.json --new perfbench/results/*.json

For each workload and metric it prints the median and quartiles of each set
and the change of the median, and flags a change worse than the metric's
bound in BENCHMARK.json.  It refuses (exit 2) to compare results taken with
different kernel backends, whose timings are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict:
    groups = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        groups[record["workload"], record["trace"]].append(record)
    return groups


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--new", nargs="+", required=True, help="result files of the change")
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {r["env"]["backend"] for g in (base, new) for rs in g.values() for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare results from different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        for name, spec in specs.items():
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / abs(mb) if mb else 0.0
            worse = change if spec["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if "bound" in spec and worse > spec["bound"] else ""
            print(f"  {name:40s} {spread(b):>36s} -> {spread(n):>36s} {change:+.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
