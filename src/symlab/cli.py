"""Command-line front end.

Every subcommand needs exactly one symbol source (--coeffs a0,...,ap or
--cubic x1,x2) and writes machine-readable output: JSON with a top-level
schema_version and fixed field order, or CSV with a header row.  Floats
are serialized in shortest round-trip form, so identical inputs give
byte-identical output.  Exit codes: 0 success, 1 verification or
computation failure (a named SymlabError), 2 usage error, 3 internal
error (any other exception: a bug, reported with its traceback).
"""

import argparse
import json
import sys
import traceback

import numpy as np

from .asymptotics import gen_spectrum, hp_error_order
from .branches import rho_density, s_density
from .cubic import CubicParams, cubic_build
from .errors import SymlabError
from .nikishin import build_system, mu_density
from .polyseq import gen_Q, multi_index, zeros_Q
from .symbol import build_symbol, critical_structure
from .verify import run_suite

SCHEMA_VERSION = 1

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


class ConfigError(Exception):
    pass


def _parse_symbol(args):
    if (args.coeffs is None) == (args.cubic is None):
        raise ConfigError("need exactly one of --coeffs or --cubic")
    if args.cubic is not None:
        try:
            x1, x2 = (float(v) for v in args.cubic.split(","))
        except ValueError:
            raise ConfigError(f"bad --cubic {args.cubic!r}, want x1,x2")
        sym, _ = cubic_build(CubicParams(x1, x2))
        return sym
    try:
        a = [float(v) for v in args.coeffs.split(",")]
    except ValueError:
        raise ConfigError(f"bad --coeffs {args.coeffs!r}, want a0,a1,...,ap")
    if len(a) < 2:
        raise ConfigError("need at least a0,a1")
    return build_symbol(len(a) - 1, a)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, m = spec.split(":")
        a, b, m = float(a), float(b), int(m)
    except ValueError:
        raise ConfigError(f"bad --grid {spec!r}, want a:b:m")
    if m < 1:
        raise ConfigError("grid needs at least one point")
    return np.linspace(a, b, m)


def _sym_block(sym) -> dict:
    return {"p": sym.p, "a": [float(v) for v in sym.a]}


def _fin(v: float):
    # JSON has no Infinity; ray endpoints serialize as null
    return float(v) if np.isfinite(v) else None


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out_path) -> None:
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", out_path)


def _emit_csv(header, rows, out_path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    _emit("\n".join(lines) + "\n", out_path)


def cmd_analyze(sym, args) -> int:
    struct = critical_structure(sym)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "symbol": _sym_block(sym),
        "orientation": struct.orientation,
        "x": [float(v) for v in struct.x],
        "lambda": [float(v) for v in struct.lam],
        "kinds": {str(k): v for k, v in sorted(struct.kinds.items())},
        "cuts": [
            {"k": k, "lo": _fin(c.lo), "hi": _fin(c.hi)}
            for k, c in enumerate(struct.cuts, start=1)
        ],
    }
    _emit_json(doc, args.out)
    return 0


def cmd_polys(sym, args) -> int:
    seq = gen_Q(sym, args.n)
    header = ["n"] + [f"c{i}" for i in range(args.n + 1)]
    rows = []
    for m in range(args.n + 1):
        c = seq.as_float(m)
        rows.append([m] + [float(v) for v in c] + [0.0] * (args.n + 1 - c.size))
    _emit_csv(header, rows, args.out)
    return 0


def cmd_zeros(sym, args) -> int:
    zs = zeros_Q(sym, args.n)
    _emit_csv(["k", "x"], [[k + 1, float(z)] for k, z in enumerate(zs)], args.out)
    return 0


def _density_fn(sym, name: str):
    kind, _, idx = name.partition("_")
    try:
        j = int(idx)
    except ValueError:
        raise ConfigError(f"bad --measure {name!r}")
    if kind not in ("rho", "sigma", "s", "mu") or j < 1 or j > sym.p:
        raise ConfigError(
            f"bad --measure {name!r}, want rho_j, sigma_j, s_k or mu_k with index <= p"
        )
    struct = critical_structure(sym)
    if kind == "rho":
        return lambda x: rho_density(sym, j, x, struct)
    if kind == "s":
        return lambda x: s_density(sym, j, x, struct)
    if kind == "mu":
        return lambda x: mu_density(sym, j, x, struct)
    sigma = build_system(sym, struct).sigma[j - 1]
    return lambda x: float(np.real(sigma.density(np.array([x]))[0]))


def cmd_density(sym, args) -> int:
    fn = _density_fn(sym, args.measure)
    grid = _parse_grid(args.grid)
    rows = [[float(x), float(fn(float(x)))] for x in grid]
    _emit_csv(["x", "density"], rows, args.out)
    return 0


def cmd_spectrum(sym, args) -> int:
    if not 0 <= args.k <= sym.p - 1:
        raise ConfigError(f"need 0 <= k <= p-1 = {sym.p - 1}")
    rep = gen_spectrum(sym, args.n, args.k, struct=critical_structure(sym))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "symbol": _sym_block(sym),
        "k": rep.k,
        "n": rep.n,
        "roots": [float(v) for v in rep.roots],
        "counting": [float(v) for v in rep.roots],
        "hausdorff_to_cut": float(rep.hausdorff_to_cut),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_hp(sym, args) -> int:
    if not 1 <= args.j <= sym.p:
        raise ConfigError(f"need 1 <= j <= p = {sym.p}")
    if args.n < args.j:
        raise ConfigError("need n >= j so Q_{n-j} exists")
    grid = np.geomspace(1e3, 1e6, 10)
    slope = hp_error_order(sym, args.n, args.j, grid)
    nj = int(multi_index(args.n, sym.p).components[args.j - 1])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "hp",
        "symbol": _sym_block(sym),
        "n": args.n,
        "j": args.j,
        "slope": float(slope),
        "expected_order": -(nj + 1),
        "grid": {"lo": 1e3, "hi": 1e6, "count": 10},
    }
    _emit_json(doc, args.out)
    return 0


def cmd_verify(sym, args) -> int:
    results = run_suite(sym, args.suite)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "symbol": _sym_block(sym),
        "suite": args.suite,
        "checks": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "measured": float(r.measured),
                "bound": float(r.bound),
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit_json(doc, args.out)
    return 0 if doc["all_passed"] else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="symlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--coeffs", help="symbol coefficients a0,a1,...,ap")
        sp.add_argument("--cubic", help="cubic critical points x1,x2")
        sp.add_argument("--out", help="output file (default stdout)")

    common(sub.add_parser("analyze", help="critical structure JSON"))
    sp = sub.add_parser("polys", help="Q_0..Q_n coefficient CSV")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp = sub.add_parser("zeros", help="zeros of Q_n CSV")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp = sub.add_parser("density", help="measure density on a grid CSV")
    common(sp)
    sp.add_argument("--measure", required=True,
                    help="rho_j | sigma_j | s_k | mu_k")
    sp.add_argument("--grid", required=True, help="a:b:m linspace")
    sp = sub.add_parser("spectrum", help="generalized spectrum JSON")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp = sub.add_parser("hp", help="Hermite-Pade error order JSON")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp = sub.add_parser("verify", help="run the acceptance checks")
    common(sp)
    sp.add_argument("--suite", choices=("fast", "full"), default="fast")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "polys": cmd_polys,
    "zeros": cmd_zeros,
    "density": cmd_density,
    "spectrum": cmd_spectrum,
    "hp": cmd_hp,
    "verify": cmd_verify,
}


def _error_json(kind: str, message: str) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": kind, "message": message},
    }
    sys.stderr.write(json.dumps(doc, indent=2) + "\n")


def _fold_dash_values(argv):
    """Merge ``--flag value`` pairs into ``--flag=value`` for flags whose
    values may start with a dash (negative coefficients, grid endpoints).
    argparse otherwise mistakes ``-4:5:5`` or ``-2,-1`` for option strings.
    """
    greedy = ("--coeffs", "--cubic", "--grid")
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in greedy and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_fold_dash_values(list(argv)))
        if getattr(args, "n", 0) < 0:
            raise ConfigError(f"need n >= 0, got {args.n}")
        sym = _parse_symbol(args)
        return _COMMANDS[args.command](sym, args)
    except ConfigError as exc:
        _error_json("ConfigError", str(exc))
        return 2
    except SymlabError as exc:
        _error_json(type(exc).__name__, str(exc))
        return 1
    except Exception as exc:
        traceback.print_exc()
        _error_json("InternalError", f"{type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
