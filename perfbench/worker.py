"""Run one symlab benchmark workload in this process; print one JSON line.

run.py starts one worker process per workload, so peak memory and the
package's module-level caches never leak from one workload into
another.  Items run one after another (a closed loop with one client).
The worker first runs a warm-up on inputs outside the timed set, then
whole rounds of seeded items: with --rounds N exactly N rounds (used by
traced runs, whose counts must repeat), otherwise rounds until the next
one would end past --seconds, and always at least one.  Only the call
into symlab is timed; each output is checked afterwards, untraced.

    PYTHONPATH=src python3 perfbench/worker.py --workload deep_zeros --seed 1
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one thread per BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import symlab  # noqa: E402
from symlab import (  # noqa: E402
    asymptotics, branches, cli, cubic, nikishin, polyseq, quadrature, symbol,
)

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEP_N = 20  # gen_spectrum and zeros_Q degree per swept symbol
SWEEP_PSI_N = (0, 4, 8)  # psi_values / widom_psi degrees, within the gate's n <= 8


def _coeff_arg(item) -> str:
    return ",".join(repr(float(c)) for c in item["coeffs"])


class Workload:
    """`call` is the timed request into symlab; `check` judges its output;
    `warmup` runs once, untimed, on inputs outside the timed set."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"{os.getpid()}-{name}")


class DeskVerify(Workload):
    def call(self, item):
        path = self.path("verify.json")
        rc = cli.main(["verify", "--suite", "full", "--coeffs", _coeff_arg(item),
                       "--out", path])
        return rc, path

    def check(self, item, out):
        rc, path = out
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        return oracles.verify_checks(item, rc, doc)

    def warmup(self):
        # every layer once, on a symbol that is not a desk symbol
        w = inputs.WARMUP_CUBIC
        spec = ["--coeffs", _coeff_arg(w), "--out", self.path("warmup")]
        for argv in (["analyze"], ["zeros", "--n", "8"], ["spectrum", "--n", "8", "--k", "1"],
                     ["hp", "--n", "3", "--j", "2"],
                     ["density", "--measure", "sigma_2", "--grid", "-1:1:3"]):
            if cli.main(argv + spec) != 0:
                raise RuntimeError(f"warm-up {argv[0]} failed")
        os.remove(self.path("warmup"))


class DeepZeros(Workload):
    def call(self, item):
        path = self.path("zeros.csv")
        rc = cli.main(["zeros", "--n", str(item["n"]), "--coeffs", _coeff_arg(item),
                       "--out", path])
        return rc, path

    def check(self, item, out):
        rc, path = out
        with open(path) as fh:
            rows = fh.read().split()[1:]
        os.remove(path)
        zs = [float(r.split(",")[1]) for r in rows]
        return ([oracles.check("exit_code", rc, 0, rc == 0)]
                + oracles.zeros_checks(item, item["n"], zs))

    def warmup(self):
        for w in (inputs.WARMUP_TRIDIAGONAL, inputs.WARMUP_CUBIC):
            item = dict(w, n=20)
            if not all(c["passed"] for c in self.check(item, self.call(item))):
                raise RuntimeError("warm-up zeros failed")


class SymbolSweep(Workload):
    def call(self, item):
        probes = np.array([complex(re, im) for re, im in item["probes"]])
        sym, _ = cubic.cubic_build(cubic.CubicParams(*item["x"]))
        struct = symbol.critical_structure(sym)
        sys_ = nikishin.build_system(sym)
        out = {
            "coeffs": list(sym.a),
            "psi_1": [nikishin.psi_values(sys_, n, 1, probes) for n in SWEEP_PSI_N],
            "psi_p": [nikishin.psi_values(sys_, n, 2, probes) for n in SWEEP_PSI_N],
            "widom_p": [[asymptotics.widom_psi(sym, n, 2, lam) for lam in probes]
                        for n in SWEEP_PSI_N],
            "masses": [float(np.real(quadrature.integrate(
                branches.s_measure(sym, k, struct)).value)) for k in (1, 2)],
            "spectrum_n": SWEEP_N,
            "spectrum_roots": asymptotics.gen_spectrum(
                sym, SWEEP_N, 1, struct=struct, sys=sys_).roots,
            "zeros_n": SWEEP_N,
            "zeros": polyseq.zeros_Q(sym, SWEEP_N, struct),
        }
        return out, sym, sys_, struct

    def check(self, item, out):
        res, sym, sys_, struct = out
        psi_zeros = asymptotics.psi_zeros(sym, sys_, SWEEP_N, struct=struct)
        return oracles.sweep_checks(item, res, psi_zeros)

    def warmup(self):
        item = dict(inputs.WARMUP_CUBIC, probes=[[0.0, 9.0], [-3.0, -8.0]])
        if not all(c["passed"] for c in self.check(item, self.call(item))):
            raise RuntimeError("warm-up symbol failed")


WORKLOADS = {
    "desk_verify": DeskVerify,
    "symbol_sweep": SymbolSweep,
    "deep_zeros": DeepZeros,
}


def run_rounds(wl: Workload, make_round, first, args, tracer):
    """Timed rounds of items; returns (item records, per-round busy time)."""
    records, walls = [], []
    start = perf_counter()
    rnd, batch = 0, first
    while True:
        busy = 0.0
        for i, item in enumerate(batch):
            rec = {"round": rnd, "index": i, "input": item}
            t = perf_counter()
            try:
                if tracer:
                    tracer.active = True
                try:
                    out = wl.call(item)
                finally:
                    rec["latency_s"] = perf_counter() - t
                    if tracer:
                        tracer.active = False
                checks = wl.check(item, out)
                rec["checks"] = checks
                rec["ok"] = all(c["passed"] for c in checks)
            except Exception as exc:  # an item that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                rec["ok"] = False
                rec["error"] = f"{type(exc).__name__}: {exc}"
            busy += rec["latency_s"]
            records.append(rec)
        walls.append(busy)
        rnd += 1
        if args.rounds:
            if rnd >= args.rounds:
                break
        elif perf_counter() - start + statistics.median(walls) > args.seconds:
            break
        batch = make_round(args.seed, rnd)
    return records, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count (0: by time)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", default=".bench_out")
    args = ap.parse_args(argv)

    make_round = inputs.ROUNDS[args.workload]
    first = make_round(args.seed, 0)
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.out_dir)
    wl.warmup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        records, walls = run_rounds(wl, make_round, first, args, tracer)
    finally:
        if tracer:
            tracer.restore()
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "round_walls": walls,
        "items": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "mpmath": mpmath.__version__, "symlab": symlab.__version__},
    }
    if tracer:
        doc["per_layer"] = tracer.metrics()
        spans = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write_spans(spans)
        doc["spans_file"] = spans
    print(json.dumps(doc, default=_jsonable))
    return 0


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"cannot serialize {type(v).__name__}")


if __name__ == "__main__":
    raise SystemExit(main())
