"""The recurrence-generated polynomial sequence Q_n and its apparatus.

Coefficient tables are exact rationals (binary-float inputs are exact
dyadics, so Fraction arithmetic is lossless).  Numeric evaluation runs
the recurrence in the value domain instead, which stays stable for
degrees far beyond what the coefficient form tolerates.

Zeros come two ways, both on the shared sign-only `rootfind.bisect`,
four steps per recurrence pass, and one guarded Newton step.  Interlacing
of consecutive Q_k makes the sign changes along Q_0(x), ..., Q_n(x) count
the zeros of Q_n above x (Sturm-sequence bisection), so `zeros_Q` finds
one degree directly in O(n^2) work, in a count mode of the recurrence
that stays in range at any scale.  `zeros_Q_levels` walks the induction
instead: interlacing puts exactly one zero of Q_{m+1} strictly between
consecutive points of {alpha, zeros(Q_m), beta}, so it yields every level
Q_1, ..., Q_n, O(n^3) in plain floats.  Use the walk when every level is
wanted, as verify's zero ladder does (its acceptance numbers stay byte
for byte), and `zeros_Q` for one degree.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InterlacingViolation, NonFinite, Underflow
from .rootfind import bisect
from .symbol import CriticalStructure, SymbolCoeffs, critical_structure

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


def _recurrence(sym: SymbolCoeffs, n: int, lam, derivative: bool, count: bool = False):
    """(Q_n, Q_n' or None, sign changes or None) in np.result_type(lam, float):
    real input stays real (the cheap path zero finding lives on), complex
    stays complex.

    Count mode (real lam) also counts, per point, the sign changes along
    Q_0(lam), ..., Q_n(lam), an exact zero carrying the last nonzero sign.
    It keeps each point's carried terms and derivatives in range by one
    common power of two, so it returns Q_n and Q_n' times that power:
    signs and Q_n / Q_n' hold at any scale, the values themselves do not.
    Without it the operations are exactly those of plain evaluation.
    """
    lam = np.asarray(lam)
    lam = lam.astype(np.result_type(lam, float), copy=False)
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
    return cur, dcur, changes


def eval_Q(sym: SymbolCoeffs, n: int, lam):
    """Q_n(lam) through the value-domain recurrence; scalar or array."""
    return _recurrence(sym, n, lam, derivative=False)[0][()]


def eval_Q_with_derivative(sym: SymbolCoeffs, n: int, lam):
    """(Q_n, Q_n') jointly; Q_n is bit for bit `eval_Q`'s."""
    return _recurrence(sym, n, lam, derivative=True)[:2]


def _finite_Q(m: int, vals: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """`vals`, once it and `more` are finite: past the float range the
    signs of Q_m read inf or nan, and a zero bisected on them lands
    anywhere in its bracket."""
    if not all(np.isfinite(v).all() for v in (vals, *more)):
        raise NonFinite(f"Q_{m} left the float range on Gamma_1")
    return vals


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


def _newton(m: int, lo: np.ndarray, hi: np.ndarray, value_and_slope) -> np.ndarray:
    """Sorted zeros of Q_m from its bisected brackets: one Newton step from
    each midpoint, `value_and_slope(x)` giving (Q_m, Q_m') up to a common
    factor per point, dropped where it would leave 8 bracket widths."""
    mid = 0.5 * (lo + hi)
    f, df = value_and_slope(mid)
    _finite_Q(m, f, df)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(df != 0.0, f / df, 0.0)
    step = np.where(np.abs(step) <= 8.0 * (hi - lo), step, 0.0)
    return np.sort(mid - step)


def zeros_Q_levels(
    sym: SymbolCoeffs,
    n: int,
    struct: CriticalStructure | None = None,
) -> Iterator[np.ndarray]:
    """Sorted zeros of Q_1, ..., Q_n inside Gamma_1, one level per step.

    Use it when every degree up to n is wanted (verify's zero ladder):
    each level's zeros bracket the next level's, so one pass yields every
    degree at the cost of a level-by-level walk, O(n^3) in all.  A level
    is 14 passes: sign check, 48 bisection steps four to a pass, one
    Newton step.  It runs plain floats, and Q_m grows or shrinks like
    (cut width / 4)^m: a level whose bracket values leave the float range
    raises `NonFinite`, or `Underflow` when one is 0 or subnormal, instead
    of trusting its signs.  For one degree use `zeros_Q`.
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
            vals = _finite_Q(m, eval_Q(sym, m, nodes))
            if np.any(np.abs(vals) < np.finfo(float).tiny):
                i = int(np.argmin(np.abs(vals)))
                raise Underflow(f"Q_{m} is {vals[i]:.3g} at {nodes[i]:.8g}, "
                                "below the normal float range")
            signs = np.sign(vals)
            _check_alternates(m, nodes, signs)
            lo, hi = bisect(lambda x: _finite_Q(m, eval_Q(sym, m, x)),
                            nodes[:-1], nodes[1:], signs[:-1], 48,
                            per_call=_BISECT_PER_CALL)
            zeros = _newton(m, lo, hi,
                            lambda x: eval_Q_with_derivative(sym, m, x))
        yield zeros


def zeros_Q(
    sym: SymbolCoeffs,
    n: int,
    struct: CriticalStructure | None = None,
) -> np.ndarray:
    """Sorted zeros of Q_n inside Gamma_1, found without the lower levels.

    The sign changes along Q_0(x), ..., Q_n(x) count the zeros of Q_n
    above x (interlacing makes each step add 0 or 1).  One count on a
    4n+1-point grid over Gamma_1 puts every zero in a cell; 48 bisection
    steps on the count, four to a pass, narrow all n cells at once, and
    one Newton step finishes them: O(n^2) work.  Count mode keeps the
    recurrence in range, so any scale works.  Q_n must then alternate
    strictly in sign at alpha, between consecutive zeros and at beta.
    """
    struct = struct or critical_structure(sym)
    g1 = struct.cut(1)
    if n == 0:
        return np.empty(0)

    def above(x):
        """How many zeros of Q_n lie above each x."""
        return _recurrence(sym, n, x, derivative=False, count=True)[2]

    grid = np.linspace(g1.lo, g1.hi, 4 * n + 1)
    counts = above(grid)
    for i, want in ((0, n), (-1, 0)):
        if counts[i] != want:
            raise InterlacingViolation(
                f"Q_0..Q_{n} change sign {counts[i]:.0f} times at cut end "
                f"{grid[i]:.8g}, not {want}"
            )
    # the zero with n - i zeros at or above it lies in the last cell whose
    # left end still counts n - i
    target = n - np.arange(n)
    cell = np.sum(counts[:, None] >= target, axis=0) - 1
    lo, hi = bisect(lambda x: np.where(above(x) >= target, 1.0, -1.0),
                    grid[cell], grid[cell + 1], np.ones(n), 48,
                    per_call=_BISECT_PER_CALL)
    zeros = _newton(n, lo, hi,
                    lambda x: _recurrence(sym, n, x, derivative=True, count=True)[:2])
    checks = np.concatenate(([g1.lo], 0.5 * (zeros[:-1] + zeros[1:]), [g1.hi]))
    signs = np.sign(_recurrence(sym, n, checks, derivative=False, count=True)[0])
    _check_alternates(n, checks, signs)
    return zeros
