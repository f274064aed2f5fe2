"""Compare two sets of benchmark runs, workload by workload.

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload serve_live --seed $seed --seconds 15 \\
          --trace 0 --out base.jsonl
    done
    # ... the same on the changed tree into new.jsonl, then:
    python3 perfbench/compare.py base.jsonl new.jsonl

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartile spread, and flags the new median as worse when it
loses more than the metric's bound.  Runs taken on hosts with different
CPU counts are not like for like (the parallel paths only run with two
or more), so the comparison is refused.  Exit status: 0 no regression,
1 regression or failed run, 2 refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = _load(args.base), _load(args.new)
    cpus = {r["host"]["cpus"] for r in base + new}
    if len(cpus) != 1:
        print(f"refused: runs come from hosts with different CPU counts {sorted(cpus)}")
        return 2

    status = 0
    print(f"{'workload':<16} {'metric':<18} {'base median':>12} {'spread':>7} "
          f"{'new median':>12} {'spread':>7} {'change':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [
            [r["result"] for r in runs if r["workload"] == workload and r["trace"] == 0]
            for runs in (base, new)
        ]
        if not all(sides):
            continue
        if any(not r["correct"] for side in sides for r in side):
            print(f"{workload:<16} a run failed its output check")
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = []
            for side in sides:
                q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in side])
                stats.append((med, (q3 - q1) / med if med else 0.0))
            (b, bs), (n, ns) = stats
            change = (n - b) / b if b else 0.0
            worse = -change if metric["better"] == "higher" else change
            verdict = "worse" if worse > metric["bound"] else "ok"
            if verdict == "worse":
                status = 1
            print(f"{workload:<16} {name:<18} {b:>12.4g} {bs:>7.1%} "
                  f"{n:>12.4g} {ns:>7.1%} {change:>+8.1%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
