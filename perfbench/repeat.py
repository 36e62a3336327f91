#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload deep_zeros --seeds 1-10 [--trace 0]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, and writes all values to
.bench_out/repeat-<workload>-trace<t>.json.  baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.6g}"
                                             for k, m in res["metrics"].items()), flush=True)
    summary = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:48s} median {s['median']:.6g} {s['unit']:6s} spread {spread}")
    out = os.path.join(os.getcwd(), ".bench_out", f"repeat-{args.workload}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seeds": [first, last], "metrics": summary},
                  fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
