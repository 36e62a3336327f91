#!/usr/bin/env python3
"""symlab benchmark: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload deep_zeros --seed 1 --seconds 30 --trace 0

Run from the repository root (symlab is imported from ./src).  Workloads:

  desk_verify   `symlab verify --suite full` on the desk symbols (0,1/4), (0,7,3)
  symbol_sweep  the cold per-symbol path on fresh seeded p=2 symbols
  deep_zeros    `symlab zeros` at seeded degrees 60..71, p=1 and p=2
  all           each of the above in turn (humans only)

--trace 0 prints the end-to-end metrics: setup time (median of several
fresh-process set-ups), then one worker process that warms up and runs
whole rounds of items for about --seconds.  --trace 1 prints the
per-layer metrics: one fixed round untraced, then the same round in a
fresh traced process; the difference in busy time is the tracing
overhead.  The last line of standard output is one JSON object; the
exit code is 1 when any item failed its output check, 2 when the
benchmark could not run.  Full reports, with every item's inputs and
checks, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("desk_verify", "symbol_sweep", "deep_zeros")
END_TO_END = {"wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every child process is killed past this
OUT_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(root: str, deadline: float, *args: str) -> dict:
    """Run worker.py with `args`; return the JSON of its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--out-dir", os.path.join(root, OUT_DIR)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args)} exceeded the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _setup_s(root, deadline, workload, seed) -> float:
    samples = [_worker(root, deadline, "--workload", workload, "--seed", str(seed),
                       "--setup-only")["setup_s"] for _ in range(SETUP_REPEATS)]
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with >= 10 items beyond it.

    With 10 items or fewer no such rank exists and the maximum is used.
    """
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _counts(docs) -> tuple[int, int, float]:
    items = [it for d in docs for it in d["items"]]
    failed = sum(not it["ok"] for it in items)
    uses = [abs(c["measured"]) / c["bound"] for it in items
            for c in it.get("checks", []) if c["bound"] > 0]
    return len(items), failed, max(uses, default=0.0)


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "git_sha": _git_sha(root), "nproc": os.cpu_count()}
    if trace:
        plain = _worker(root, deadline, *base, "--rounds", "1")
        traced = _worker(root, deadline, *base, "--rounds", "1", "--trace")
        docs = [plain, traced]
        attempted, failed, worst = _counts(docs)
        metrics = dict(traced["per_layer"])
        metrics["bench.trace_overhead_s"] = (sum(traced["round_walls"])
                                            - sum(plain["round_walls"]))
        metrics["bench.fail_ratio"] = failed / attempted
        metrics["bench.worst_bound_use"] = worst
        info["spans_file"] = traced["spans_file"]
    else:
        setup = _setup_s(root, deadline, workload, seed)
        doc = _worker(root, deadline, *base, "--seconds", str(seconds))
        docs = [doc]
        attempted, failed, worst = _counts(docs)
        lat = [it["latency_s"] for it in doc["items"]]
        tail_s, pct = tail(lat)
        metrics = {
            "wall_s": statistics.median(doc["round_walls"]),
            "item_p50_s": statistics.median(lat),
            "item_tail_s": tail_s,
            "setup_s": setup,
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        info.update(rounds=len(doc["round_walls"]), items=len(lat), tail_percentile=pct,
                    fail_ratio=failed / attempted, worst_bound_use=worst)
    info["versions"] = docs[-1]["versions"]
    info.update(attempted=attempted, failed=failed)
    report = {"info": info, "metrics": metrics, "workers": docs}
    path = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    info["report"] = path
    return {"info": info, "metrics": metrics}


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    kind = name.rsplit(".", 1)[1]
    return "s" if kind in ("s", "self_s", "trace_overhead_s") else (
        "ratio" if kind in ("fallback_ratio", "bound_use", "fail_ratio", "worst_bound_use")
        else "count")


def _print_block(res: dict) -> None:
    info = res["info"]
    print(f"# {info['workload']}  seed={info['seed']}  trace={info['trace']}  "
          f"attempted={info['attempted']}  failed={info['failed']}")
    print("# env " + json.dumps({k: info[k] for k in ("git_sha", "nproc", "versions")}))
    if not info["trace"]:
        print(f"# {info['rounds']} round(s), {info['items']} items; item_tail_s is "
              f"p{info['tail_percentile']:.0f}; fail_ratio {info['fail_ratio']:.3g}; "
              f"worst_bound_use {info['worst_bound_use']:.4g}")
    for name, value in res["metrics"].items():
        print(f"{name:48s} {value!r:>24} {_unit(name)}")
    print(f"# report {info['report']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symlab", "__init__.py")):
        print("run from the repository root: src/symlab not found", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            _print_block(res)
            results.append(res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['info']['workload']}.{k}": {"value": v, "unit": _unit(k)}
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["info"]["attempted"] for r in results)
    failed = sum(r["info"]["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
