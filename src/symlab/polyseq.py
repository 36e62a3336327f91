"""The recurrence-generated polynomial sequence Q_n and its apparatus.

Coefficient tables are exact rationals (binary-float inputs are exact
dyadics, so Fraction arithmetic is lossless).  Numeric evaluation runs
the recurrence in the value domain instead, which stays stable for
degrees far beyond what the coefficient form tolerates.

Zeros are located by induction on n: interlacing guarantees exactly one
zero of Q_{n+1} strictly between consecutive points of
{alpha, zeros(Q_n), beta}, so bracketed bisection plus one Newton step
is provably convergent and needs no eigensolver.  The bisection is the
shared sign-only `rootfind.bisect`, four steps per `eval_Q` pass; it and
the bracket-sign check read values only, Q_n' is for the Newton step.
`zeros_Q_levels` yields every level of that induction, the zeros of
Q_1, ..., Q_n in turn, and `zeros_Q` is its last level.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InterlacingViolation, NonFinite
from .rootfind import bisect
from .symbol import CriticalStructure, SymbolCoeffs, critical_structure

_BISECT_PER_CALL = 4  # zeros_Q_levels' steps per pass; 3 ties, 2 and 6 are slower


@dataclass(frozen=True)
class MultiIndex:
    n: int
    components: tuple[int, ...]


def multi_index(n: int, p: int) -> MultiIndex:
    """Staircase multi-index of |n| = n: k entries m+1 then p-k entries m."""
    if n < 0 or p < 1:
        raise ValueError("need n >= 0 and p >= 1")
    m, k = divmod(n, p)
    return MultiIndex(n=n, components=(m + 1,) * k + (m,) * (p - k))


@dataclass
class MonicPolySeq:
    """Exact coefficient table of Q_0..Q_N, low degree first."""

    sym: SymbolCoeffs
    N: int
    coeffs: list[list[Fraction]]

    def poly(self, n: int) -> list[Fraction]:
        if n < 0:
            return [Fraction(0)]
        return self.coeffs[n]

    def as_float(self, n: int) -> np.ndarray:
        return np.array([float(c) for c in self.poly(n)])


def gen_Q(sym: SymbolCoeffs, N: int) -> MonicPolySeq:
    """Q_{n+1} = (lam - a_0) Q_n - a_1 Q_{n-1} - ... - a_p Q_{n-p}."""
    if N < 0:
        raise ValueError("N must be >= 0")
    a = [Fraction(v) for v in sym.a]
    table: list[list[Fraction]] = [[Fraction(1)]]
    for n in range(N):
        qn = table[n]
        nxt = [Fraction(0)] * (n + 2)
        for i, c in enumerate(qn):
            nxt[i + 1] += c
            nxt[i] -= a[0] * c
        for k in range(1, sym.p + 1):
            if n - k < 0:
                break
            for i, c in enumerate(table[n - k]):
                nxt[i] -= a[k] * c
        table.append(nxt)
    return MonicPolySeq(sym=sym, N=N, coeffs=table)


@dataclass
class CompanionTable:
    """Companion polynomials p_n^(j) = Q_{n-1} + ... + Q_{n-j}."""

    seq: MonicPolySeq

    def poly(self, n: int, j: int) -> list[Fraction]:
        if not 1 <= j <= self.seq.sym.p:
            raise ValueError("need 1 <= j <= p")
        deg = max(n - 1, 0)
        out = [Fraction(0)] * (deg + 1)
        for i in range(1, j + 1):
            if n - i < 0:
                continue
            for m, c in enumerate(self.seq.poly(n - i)):
                out[m] += c
        return out


def gen_companion(sym: SymbolCoeffs, N: int) -> CompanionTable:
    return CompanionTable(seq=gen_Q(sym, N))


def moments(sym: SymbolCoeffs, j: int, m_max: int) -> list[Fraction]:
    """Exact moments L_j(lam^m), m = 0..m_max, via a finite band section.

    Information in (A^m v)_0 propagates down one index per multiply, so a
    section of size m_max + p + 1 reproduces the infinite operator
    exactly.
    """
    if not 1 <= j <= sym.p:
        raise ValueError("need 1 <= j <= p")
    size = m_max + sym.p + 2
    a = [Fraction(v) for v in sym.a]
    w = [Fraction(1) if i < j else Fraction(0) for i in range(size)]
    out = [w[0]]
    for _ in range(m_max):
        nxt = [Fraction(0)] * size
        for i in range(size):
            acc = w[i + 1] if i + 1 < size else Fraction(0)
            for k in range(0, sym.p + 1):
                if i - k >= 0:
                    acc += a[k] * w[i - k]
            nxt[i] = acc
        w = nxt
        out.append(w[0])
    return out


def _recurrence(sym: SymbolCoeffs, n: int, lam, derivative: bool):
    """(Q_n, Q_n' or None) in np.result_type(lam, float): real input stays
    real (the cheap path zero finding lives on), complex stays complex."""
    lam = np.asarray(lam)
    lam = lam.astype(np.result_type(lam, float), copy=False)
    shift = lam - sym.a[0]
    hist = [np.zeros_like(lam) for _ in range(sym.p)]
    dhist = list(hist)
    cur = np.ones_like(lam)
    dcur = np.zeros_like(lam) if derivative else None
    for _ in range(n):
        nxt = shift * cur
        dnxt = cur + shift * dcur if derivative else None
        for k in range(1, sym.p + 1):
            nxt = nxt - sym.a[k] * hist[k - 1]
            if derivative:
                dnxt = dnxt - sym.a[k] * dhist[k - 1]
        hist, dhist = [cur] + hist[:-1], [dcur] + dhist[:-1]
        cur, dcur = nxt, dnxt
    return cur, dcur


def eval_Q(sym: SymbolCoeffs, n: int, lam):
    """Q_n(lam) through the value-domain recurrence; scalar or array."""
    return _recurrence(sym, n, lam, derivative=False)[0][()]


def eval_Q_with_derivative(sym: SymbolCoeffs, n: int, lam):
    """(Q_n, Q_n') jointly; Q_n is bit for bit `eval_Q`'s."""
    return _recurrence(sym, n, lam, derivative=True)


def _finite_Q(m: int, vals: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """`vals`, once it and `more` are finite: past the float range the
    signs of Q_m read inf or nan, and a zero bisected on them lands
    anywhere in its bracket."""
    if not all(np.isfinite(v).all() for v in (vals, *more)):
        raise NonFinite(f"Q_{m} left the float range on Gamma_1")
    return vals


def zeros_Q_levels(
    sym: SymbolCoeffs,
    n: int,
    struct: CriticalStructure | None = None,
) -> Iterator[np.ndarray]:
    """Sorted zeros of Q_1, ..., Q_n inside Gamma_1, one level per step.

    Each level's zeros bracket the next level's, so one pass yields
    every degree up to n at the cost of the last.  A level is 14 passes:
    sign check, 48 bisection steps four to a pass, one Newton step.
    Q_m grows like (cut width / 4)^m; a level that reads a value past
    the float range raises `NonFinite` instead of trusting its signs.
    """
    struct = struct or critical_structure(sym)
    g1 = struct.cut(1)
    alpha, beta = g1.lo, g1.hi
    zeros = np.empty(0)
    for m in range(1, n + 1):
        # overflow is reported by _finite_Q as NonFinite, not by numpy;
        # the state is set per level, never held across a yield
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.concatenate(([alpha], zeros, [beta]))
            signs = np.sign(_finite_Q(m, eval_Q(sym, m, nodes)))
            # signs, not products of values: on a small-scale symbol Q_m is
            # tiny enough for a product of two values to underflow to 0
            flat = signs[:-1] * signs[1:] >= 0.0
            if np.any(flat):
                i = int(np.argwhere(flat)[0][0])
                raise InterlacingViolation(
                    f"Q_{m} does not change sign on bracket "
                    f"[{nodes[i]:.8g}, {nodes[i + 1]:.8g}]"
                )
            lo, hi = bisect(lambda x: _finite_Q(m, eval_Q(sym, m, x)),
                            nodes[:-1], nodes[1:], signs[:-1], 48,
                            per_call=_BISECT_PER_CALL)
            mid = 0.5 * (lo + hi)
            f, df = eval_Q_with_derivative(sym, m, mid)
            _finite_Q(m, f, df)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(df != 0.0, f / df, 0.0)
            step = np.where(np.abs(step) <= 8.0 * (hi - lo), step, 0.0)
            zeros = np.sort(mid - step)
        yield zeros


def zeros_Q(
    sym: SymbolCoeffs,
    n: int,
    struct: CriticalStructure | None = None,
) -> np.ndarray:
    """Sorted zeros of Q_n inside Gamma_1: the last level of `zeros_Q_levels`."""
    zeros = np.empty(0)
    for zeros in zeros_Q_levels(sym, n, struct):
        pass
    return zeros
