"""Seeded inputs for the symlab benchmark.

Only the standard library is used here, so one seed yields the same
inputs on every platform and numpy version, and nothing in this module
depends on the program under test.  Each item carries the coefficients
the program receives plus the closed-form facts (branch points, cut
ends) that the output oracles need.

Inputs are stratified: every round of a workload holds one item per
stratum, with the seed choosing a point inside each stratum.  Rounds of
different seeds therefore have the same shape and similar cost, which
keeps run-to-run spread down without fixing the inputs.
"""

from __future__ import annotations

import math
import random

# symbol_sweep strata: p=2 symbols from critical points x1 = -s*rho < x2 = -s.
# Scale s sets |lambda| ~ s; ratio rho sets the gap between Gamma_1 and the
# ray Gamma_2 (rho -> 1 closes it).  Two scale decades by two ratio decades.
SWEEP_SCALES = ((0.1, 1.0), (1.0, 10.0))
SWEEP_RATIOS = ((1.5, 3.0), (3.0, 8.0))
SWEEP_REPEAT = 4  # copies of the 2x2 grid per round -> 16 symbols

# deep_zeros strata: degree bands crossed with p = 1, 2.
ZEROS_DEGREES = ((60, 64), (64, 68), (68, 72))
ZEROS_REPEAT = 3  # copies of the 3x2 grid per round -> 18 calls
ZEROS_P2_SCALES = (0.3, 3.0)
ZEROS_P2_RATIOS = (1.5, 8.0)
ZEROS_P1_A0 = (-3.0, 3.0)
ZEROS_P1_A1 = (0.05, 20.0)

DESK = (("cheb", (0.0, 0.25)), ("can", (0.0, 7.0, 3.0)))


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rng(seed: int, workload: str, rnd: int) -> random.Random:
    # string seeding is stable across runs (hash randomization is not used)
    return random.Random(f"{workload}/{seed}/{rnd}")


def cubic_item(x1: float, x2: float) -> dict:
    """p=2 symbol 1/z + a1 z + a2 z^2 with critical points x1 < x2 < 0.

    a1 = x1^2 + x2^2 + x1 x2 and a2 = -x1 x2 (x1 + x2)/2 make
    q(z) = z^3 - a1 z - 2 a2 vanish at x1, x2 and -x1-x2.  The branch
    points lam_k = r(x_k) follow in closed form; Gamma_1 joins lam1 and
    lam3, and Gamma_2 is the ray (-inf, lam2].
    """
    a1 = x1 * x1 + x2 * x2 + x1 * x2
    a2 = -0.5 * x1 * x2 * (x1 + x2)
    lam1 = (4 * x1 * x1 + x2 * x2 + x1 * x2) / (2 * x1)
    lam2 = (4 * x2 * x2 + x1 * x1 + x1 * x2) / (2 * x2)
    lam3 = -(4 * x1 * x1 + 4 * x2 * x2 + 7 * x1 * x2) / (2 * (x1 + x2))
    return {
        "p": 2,
        "coeffs": [0.0, a1, a2],
        "x": [x1, x2],
        "gamma1": [min(lam1, lam3), max(lam1, lam3)],
        "gamma2_end": lam2,
    }


def tridiagonal_item(a0: float, a1: float) -> dict:
    """p=1 symbol 1/z + a0 + a1 z; Gamma_1 = [a0 - 2 sqrt(a1), a0 + 2 sqrt(a1)]."""
    r = 2.0 * math.sqrt(a1)
    return {"p": 1, "coeffs": [a0, a1], "gamma1": [a0 - r, a0 + r]}


def _cubic_draw(rng: random.Random, scales, ratios) -> dict:
    s = _loguniform(rng, *scales)
    rho = _loguniform(rng, *ratios)
    return cubic_item(-s * rho, -s)


def sweep_round(seed: int, rnd: int) -> list[dict]:
    """Round `rnd` of symbol_sweep: fresh p=2 symbols, one per stratum cell."""
    rng = _rng(seed, "symbol_sweep", rnd)
    items = []
    for _ in range(SWEEP_REPEAT):
        for scales in SWEEP_SCALES:
            for ratios in SWEEP_RATIOS:
                item = _cubic_draw(rng, scales, ratios)
                item["probes"] = sweep_probes(rng, item)
                items.append(item)
    return items


def sweep_probes(rng: random.Random, item: dict, count: int = 4) -> list[list[float]]:
    """Complex probes (re, im) at distance > width/2 from both cuts."""
    lo, hi = item["gamma1"]
    w = hi - lo
    out = []
    while len(out) < count:
        re = rng.uniform(lo - w, hi + w)
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.5 * w, 1.5 * w)
        out.append([re, im])
    return out


def zeros_round(seed: int, rnd: int) -> list[dict]:
    """Round `rnd` of deep_zeros: one zeros_Q call per (degree band, p) cell."""
    rng = _rng(seed, "deep_zeros", rnd)
    items = []
    for _ in range(ZEROS_REPEAT):
        for lo, hi in ZEROS_DEGREES:
            for p in (1, 2):
                if p == 1:
                    item = tridiagonal_item(rng.uniform(*ZEROS_P1_A0),
                                            _loguniform(rng, *ZEROS_P1_A1))
                else:
                    item = _cubic_draw(rng, ZEROS_P2_SCALES, ZEROS_P2_RATIOS)
                item["n"] = rng.randrange(lo, hi)
                items.append(item)
    return items


def desk_round(seed: int, rnd: int) -> list[dict]:
    """desk_verify: the two desk symbols; the suite carries its own seeds."""
    return [{"name": name, "p": len(c) - 1, "coeffs": list(c)} for name, c in DESK]


ROUNDS = {
    "desk_verify": desk_round,
    "symbol_sweep": sweep_round,
    "deep_zeros": zeros_round,
}

# Warm-up inputs, outside every timed set (no seed draws these exact values).
WARMUP_CUBIC = cubic_item(-2.5, -1.0)
WARMUP_TRIDIAGONAL = tridiagonal_item(0.5, 2.0)
