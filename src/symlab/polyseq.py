"""The recurrence-generated polynomial sequence Q_n and its apparatus.

Coefficient tables are exact rationals (binary-float inputs are exact
dyadics, so Fraction arithmetic is lossless).  Numeric evaluation runs
the recurrence in the value domain instead, which stays stable for
degrees far beyond what the coefficient form tolerates.

Zeros come from one routine, Sturm-sequence bisection: interlacing of
consecutive Q_k makes the sign changes along Q_0(x), ..., Q_n(x) count
the zeros of Q_n above x.  `zeros_Q` asks it for one degree and
`zeros_Q_levels` for every degree 1..n in the same passes; each level
comes out bit for bit as `zeros_Q` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InterlacingViolation, NonFinite
from .rootfind import bisect
from .symbol import Cut, SymbolCoeffs, critical_structure

_BISECT_PER_CALL = 4  # bisection steps per recurrence pass; 3 ties, 2 and 6 are slower
_SCALE_EXP = 500  # count mode keeps carried terms within 2^-500 .. 2^500


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


def _rescaled(terms: list[np.ndarray]) -> list[np.ndarray]:
    """`terms` times one power of two per point, chosen where the largest
    |term| at that point lies outside [2^-500, 2^500) to bring it into
    [1/2, 1); elsewhere the power is 2^0 and the terms are unchanged."""
    top = np.abs(terms[0])
    for t in terms[1:]:
        top = np.maximum(top, np.abs(t))
    _, e = np.frexp(top)
    shift = np.where((e <= -_SCALE_EXP) | (e > _SCALE_EXP), -e, 0)
    return [np.ldexp(t, shift) for t in terms]


def _recurrence(sym: SymbolCoeffs, n, lam, derivative: bool, count: bool = False):
    """(Q_n, Q_n' or None, sign changes or None) in np.result_type(lam, float):
    real input stays real (the cheap path zero finding lives on), complex
    stays complex.

    `n` is one degree, or an integer array of degrees broadcast against
    `lam`: each point then returns its own degree's outputs, copied out at
    the steps where some degree ends.  One degree copies nothing.

    Count mode (real lam) also counts, per point, the sign changes along
    Q_0(lam), ..., Q_n(lam), an exact zero carrying the last nonzero sign.
    It keeps each point's carried terms and derivatives in range by one
    common power of two, so it returns Q_n and Q_n' times that power:
    signs and Q_n / Q_n' hold at any scale, the values themselves do not.
    Without it the operations are exactly those of plain evaluation.
    """
    lam = np.asarray(lam)
    lam = lam.astype(np.result_type(lam, float), copy=False)
    ends = None
    if np.ndim(n):
        lam, deg = np.broadcast_arrays(lam, n)
        ends = np.bincount(deg.ravel())  # how many points end at each step
        n = ends.size - 1
    shift = lam - sym.a[0]
    hist = [np.zeros_like(lam) for _ in range(sym.p)]
    dhist = list(hist)
    cur = np.ones_like(lam)
    dcur = np.zeros_like(lam) if derivative else None
    changes = None
    if count:
        changes = np.zeros_like(lam)  # counted in floats: fewer casts
        last = np.ones_like(lam)  # the last nonzero sign, Q_0's first
        # one step moves the largest carried magnitude by at most 2^b either
        # way, 2^b = (1 + max|lam - a_0| + sum|a_k|) / min(1, |a_p|): growth
        # is bounded by the numerator, and solving the recurrence for the
        # oldest term bounds the decay.  Checked every 500/b steps, nothing
        # leaves 2^-1000 .. 2^1000 in between.
        grow = 1.0 + np.max(np.abs(shift), initial=0.0) + sum(map(abs, sym.a[1:]))
        every = max(1, int(_SCALE_EXP // np.log2(grow / min(1.0, abs(sym.a[-1])))))
    if ends is not None:  # degree-0 points already hold their outputs
        out = [v if v is None else v.copy() for v in (cur, dcur, changes)]
    for i in range(n):
        nxt = shift * cur
        dnxt = cur + shift * dcur if derivative else None
        for k in range(1, sym.p + 1):
            nxt = nxt - sym.a[k] * hist[k - 1]
            if derivative:
                dnxt = dnxt - sym.a[k] * dhist[k - 1]
        hist, dhist = [cur] + hist[:-1], [dcur] + dhist[:-1]
        cur, dcur = nxt, dnxt
        if count:
            s = np.sign(cur)
            changes -= np.minimum(s * last, 0.0)
            np.copyto(last, s, where=s != 0.0)
            if (i + 1) % every == 0:
                # one power of two per point for values and derivatives
                # alike, so Q_n / Q_n' is unchanged
                terms = _rescaled([cur, *hist, dcur, *dhist] if derivative
                                  else [cur, *hist])
                cur, hist = terms[0], terms[1:sym.p + 1]
                if derivative:
                    dcur, dhist = terms[sym.p + 1], terms[sym.p + 2:]
        if ends is not None and ends[i + 1]:
            at = deg == i + 1
            for o, v in zip(out, (cur, dcur, changes)):
                if o is not None:
                    np.copyto(o, v, where=at)
    return tuple(out) if ends is not None else (cur, dcur, changes)


def eval_Q(sym: SymbolCoeffs, n: int, lam):
    """Q_n(lam) through the value-domain recurrence; scalar or array."""
    return _recurrence(sym, n, lam, derivative=False)[0][()]


def eval_Q_with_derivative(sym: SymbolCoeffs, n: int, lam):
    """(Q_n, Q_n') jointly; Q_n is bit for bit `eval_Q`'s."""
    return _recurrence(sym, n, lam, derivative=True)[:2]


def _check_alternates(m: int, nodes: np.ndarray, signs: np.ndarray) -> None:
    """InterlacingViolation unless Q_m changes sign between each pair of
    consecutive nodes.  Signs, not products of values: on a small-scale
    symbol Q_m is tiny enough for a product of two values to underflow."""
    flat = signs[:-1] * signs[1:] >= 0.0
    if np.any(flat):
        i = int(np.argwhere(flat)[0][0])
        raise InterlacingViolation(
            f"Q_{m} does not change sign on bracket "
            f"[{nodes[i]:.8g}, {nodes[i + 1]:.8g}]"
        )


def _zeros(sym: SymbolCoeffs, degrees: range, g1: Cut) -> list[np.ndarray]:
    """Sorted zeros of Q_m inside Gamma_1, the cut `g1`, for each m in `degrees`.

    The sign changes along Q_0(x), ..., Q_m(x) count the zeros of Q_m
    above x (interlacing makes each step add 0 or 1).  One count on a
    4m+1-point grid over Gamma_1 puts every zero in a cell; 48 steps of
    the shared sign-only `rootfind.bisect` on the count, four to a pass,
    narrow all cells at once, and one Newton step finishes them: O(m^2)
    work per degree.  Every degree runs in the same passes, each point of
    the recurrence at its own degree; the count mode's rescales are powers
    of two, so a level's bits do not depend on the degrees beside it.
    Count mode keeps the recurrence in range, so any scale works.  Q_m
    must then alternate strictly in sign at alpha, between consecutive
    zeros and at beta.
    """
    ms = list(degrees)
    if not any(ms):
        return [np.empty(0) for _ in ms]

    def per_point(sizes):
        """Each degree repeated over its `sizes` points: one int for one degree."""
        return ms[0] if len(ms) == 1 else np.repeat(ms, sizes)

    def split(values, sizes):
        return np.split(values, np.cumsum(sizes)[:-1])

    def count(deg, x):
        return _recurrence(sym, deg, x, derivative=False, count=True)

    grids = [np.linspace(g1.lo, g1.hi, 4 * m + 1) for m in ms]
    sizes = [g.size for g in grids]
    counts = count(per_point(sizes), np.concatenate(grids))[2]
    lo, hi, target = [], [], []
    for m, grid, above in zip(ms, grids, split(counts, sizes)):
        for i, want in ((0, m), (-1, 0)):
            if above[i] != want:
                raise InterlacingViolation(
                    f"Q_0..Q_{m} change sign {above[i]:.0f} times at cut end "
                    f"{grid[i]:.8g}, not {want}"
                )
        # the zero with m - i zeros at or above it lies in the last cell
        # whose left end still counts m - i
        t = m - np.arange(m)
        cell = np.sum(above[:, None] >= t, axis=0) - 1
        lo.append(grid[cell])
        hi.append(grid[cell + 1])
        target.append(t)
    deg = per_point(ms)
    target = np.concatenate(target)
    lo, hi = bisect(lambda x: np.where(count(deg, x)[2] >= target, 1.0, -1.0),
                    np.concatenate(lo), np.concatenate(hi), np.ones(target.size),
                    48, per_call=_BISECT_PER_CALL)
    # one Newton step from each midpoint, dropped where it would leave 8
    # bracket widths; Q_m and Q_m' share a power of two per point
    mid = 0.5 * (lo + hi)
    f, df, _ = _recurrence(sym, deg, mid, derivative=True, count=True)
    finite = np.isfinite(f) & np.isfinite(df)
    if not finite.all():
        bad = np.broadcast_to(deg, mid.shape)[np.argmin(finite)]
        raise NonFinite(f"Q_{bad} left the float range on Gamma_1")
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(df != 0.0, f / df, 0.0)
    step = np.where(np.abs(step) <= 8.0 * (hi - lo), step, 0.0)
    levels = [np.sort(z) for z in split(mid - step, ms)]
    checks = [np.concatenate(([g1.lo], 0.5 * (z[:-1] + z[1:]), [g1.hi])) for z in levels]
    sizes = [m + 1 for m in ms]
    signs = np.sign(count(per_point(sizes), np.concatenate(checks))[0])
    for m, nodes, s in zip(ms, checks, split(signs, sizes)):
        _check_alternates(m, nodes, s)
    return levels


def zeros_Q(sym: SymbolCoeffs, n: int, struct=None) -> np.ndarray:
    """Sorted zeros of Q_n inside Gamma_1, found without the lower levels:
    O(n^2) work by Sturm sign counts, at any scale.  `InterlacingViolation`
    when the counts at the cut ends or the closing sign check disagree.

    `struct` is accepted and not read: `perfbench/worker.py` still passes
    it, and ROADMAP item 4(a) deletes it.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return _zeros(sym, range(n, n + 1), critical_structure(sym).cut(1))[0]


def zeros_Q_levels(sym: SymbolCoeffs, n: int) -> list[np.ndarray]:
    """Sorted zeros of Q_1, ..., Q_n inside Gamma_1, index m - 1 for Q_m.

    Each level is bit for bit `zeros_Q(sym, m)`, found independently of
    the others, but every level shares the same recurrence passes: O(n^3)
    work in 15 passes instead of 15n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return _zeros(sym, range(1, n + 1), critical_structure(sym).cut(1))
