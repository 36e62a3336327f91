"""Output checks for the symlab benchmark.

Every check here is computed without the code path it judges: zeros are
tested with this module's own three-term-plus recurrence and closed
forms, cut ends come from the generator's closed forms, and index
counts from the staircase rule written out again.  A check returns
(name, measured, bound, passed); a check with bound 0 is pass/fail only
and counts through the failure ratio, not through bound use.
"""

from __future__ import annotations

import math

import numpy as np

# zeros must move a root by more than this share of the cut width to
# change sign tests; far above bisection accuracy (~1e-15 of the width)
SIGN_DELTA = 1e-9
CLOSED_FORM_BOUND = 1e-11  # p=1 zeros, error as a share of the cut width
MASS_BOUNDS = (1e-8, 1e-5)  # s_1 and s_2, as in the acceptance gate
PSI_BOUND = 1e-6  # psi_values(j=p) against widom_psi, relative
COEFF_BOUND = 1e-14


def check(name: str, measured: float, bound: float, passed: bool) -> dict:
    return {"name": name, "measured": float(measured), "bound": float(bound),
            "passed": bool(passed)}


def q_values(coeffs, n: int, x: np.ndarray) -> np.ndarray:
    """Q_n(x) from Q_{m+1} = (x - a0) Q_m - a1 Q_{m-1} - ... - ap Q_{m-p}."""
    p = len(coeffs) - 1
    hist = [np.zeros_like(x) for _ in range(p)]
    cur = np.ones_like(x)
    for _ in range(n):
        nxt = (x - coeffs[0]) * cur
        for k in range(1, p + 1):
            nxt -= coeffs[k] * hist[k - 1]
        hist = [cur] + hist[:-1]
        cur = nxt
    return cur


def staircase(n: int, p: int) -> tuple[int, ...]:
    m, k = divmod(n, p)
    return (m + 1,) * k + (m,) * (p - k)


def zeros_checks(item: dict, n: int, zs) -> list[dict]:
    """Zeros of Q_n: count, inside Gamma_1, increasing, sign change at each.

    For p = 1 the zeros are also compared with a0 + 2 sqrt(a1) cos(k pi/(n+1)).
    """
    zs = np.asarray(zs, dtype=float)
    lo, hi = item["gamma1"]
    width = hi - lo
    out = [check("zeros_count", zs.size, 0, zs.size == n)]
    if zs.size != n or not np.all(np.isfinite(zs)):
        return out
    out.append(check("zeros_inside_gamma1", 0, 0, bool(lo < zs[0] and zs[-1] < hi)))
    out.append(check("zeros_increasing", 0, 0, bool(np.all(np.diff(zs) > 0))))
    delta = SIGN_DELTA * width
    left = q_values(item["coeffs"], n, zs - delta)
    right = q_values(item["coeffs"], n, zs + delta)
    out.append(check("zeros_sign_change", 0, 0, bool(np.all(left * right < 0))))
    if item["p"] == 1:
        a0, a1 = item["coeffs"]
        k = np.arange(n, 0, -1)
        exact = a0 + 2.0 * math.sqrt(a1) * np.cos(k * np.pi / (n + 1))
        err = float(np.abs(zs - exact).max()) / width
        out.append(check("zeros_closed_form", err, CLOSED_FORM_BOUND,
                         err < CLOSED_FORM_BOUND))
    return out


def sweep_checks(item: dict, out: dict, psi_zeros) -> list[dict]:
    """Checks on one symbol_sweep item.

    `out` holds the timed outputs; `psi_zeros` are the zeros of Psi_{20,1}
    that the generalized spectrum must interlace.
    """
    res = []
    got = np.asarray(out["coeffs"], dtype=float)
    want = np.asarray(item["coeffs"], dtype=float)
    if got.shape == want.shape:
        scale = np.where(want != 0, np.abs(want), 1.0)
        cerr = float(np.max(np.abs(got - want) / scale))
    else:
        cerr = math.inf
    res.append(check("coeffs", cerr, COEFF_BOUND, cerr < COEFF_BOUND))
    for k, (mass, bound) in enumerate(zip(out["masses"], MASS_BOUNDS), start=1):
        err = abs(mass - (2 - k + 1) / 2)
        res.append(check(f"mass_s{k}", err, bound, err < bound))
    psi, widom = np.asarray(out["psi_p"]), np.asarray(out["widom_p"])
    rel = float(np.max(np.abs(psi - widom) / np.abs(widom)))
    res.append(check("psi_p_widom", rel, PSI_BOUND, rel < PSI_BOUND))
    res.append(check("psi_1_finite", 0, 0, bool(np.all(np.isfinite(out["psi_1"])))))
    n = out["spectrum_n"]
    roots = np.asarray(out["spectrum_roots"], dtype=float)
    want_count = sum(staircase(n, 2)[1:]) - 1
    res.append(check("spectrum_count", roots.size, 0, roots.size == want_count))
    zs = np.asarray(psi_zeros, dtype=float)
    inter = (roots.size == want_count and zs.size == want_count + 1
             and bool(np.all((zs[:-1] < roots) & (roots < zs[1:]))))
    res.append(check("spectrum_interlaces_psi_zeros", 0, 0, inter))
    res.extend(zeros_checks(item, out["zeros_n"], out["zeros"]))
    return res


def verify_checks(item: dict, rc: int, doc: dict) -> list[dict]:
    """The acceptance report of `symlab verify` on a desk symbol."""
    res = [check("exit_code", rc, 0, rc == 0),
           check("all_passed", 0, 0, doc.get("all_passed") is True),
           check("symbol", 0, 0, doc.get("symbol", {}).get("a") == item["coeffs"])]
    for c in doc.get("checks", []):
        res.append(check(f"verify.{c['name']}", c["measured"], c["bound"], c["passed"]))
    return res


def bound_use(checks: list[dict]) -> float:
    """Largest measured/bound over checks with a positive bound."""
    uses = [abs(c["measured"]) / c["bound"] for c in checks if c["bound"] > 0]
    return max(uses, default=0.0)
