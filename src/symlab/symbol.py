"""Banded Toeplitz symbol a(z) = 1/z + a_0 + a_1 z + ... + a_p z^p.

`critical_structure` locates the critical points of r(z) = a(1/z) on the
real line, checks the p-vs-1 sign hypothesis, classifies each interior
critical value as a local min or max of r, and lays down the system of
pairwise disjoint spectral cuts.  Everything downstream (branches,
measures, asymptotics) consumes the resulting `CriticalStructure`, which
the symbol holds once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexCriticalPoints,
    DivisionAtZero,
    HypothesisViolated,
    MultipleCriticalPoints,
    NonFinite,
    ZeroLeadingCoefficient,
)
from .rootfind import roots_batched

_REALITY_TOL = 1e-10
_GAP_TOL = 1e-8


@dataclass(frozen=True)
class SymbolCoeffs:
    """Validated coefficients (a_0, ..., a_p) with a_{-1} = 1 implicit.

    `_structure` holds the symbol's `CriticalStructure` once
    `critical_structure` has built it; it takes no part in `==`, hashing
    or `repr`.
    """

    p: int
    a: tuple[float, ...]
    _structure: CriticalStructure | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Cut:
    """One spectral cut: a finite interval or a closed half line.

    `lo`/`hi` may be -inf/+inf for rays.  `index` is the 1-based cut
    number k (the cut attached to branch pair (k-1, k)).
    """

    index: int
    lo: float
    hi: float

    @property
    def is_ray(self) -> bool:
        return math.isinf(self.lo) or math.isinf(self.hi)

    @property
    def finite_end(self) -> float:
        """The branch-point end of a ray; undefined for intervals."""
        return self.lo if math.isinf(self.hi) else self.hi

    def endpoints(self) -> tuple[float, ...]:
        return tuple(e for e in (self.lo, self.hi) if math.isfinite(e))

    def scale(self) -> float:
        return max(1.0, *(abs(e) for e in self.endpoints()))

    def contains_interior(self, x, margin: float = 0.0):
        """Whether x lies strictly inside; elementwise for an array x."""
        return (self.lo + margin < x) & (x < self.hi - margin)

    def distance(self, lam: complex) -> float:
        """Euclidean distance from a complex point to the cut."""
        lam = complex(lam)
        if lam.real < self.lo:
            return abs(lam - self.lo)
        if lam.real > self.hi:
            return abs(lam - self.hi)
        return abs(lam.imag)


@dataclass(frozen=True)
class CriticalStructure:
    """Critical points x_k, values lam_k = r(x_k), kinds and cuts.

    Ordering follows the sign orientation: ascending when p critical
    points are negative, descending when p are positive.  `kinds[k]`
    ('min' or 'max') is defined for k = 2..p.  `pair_memo` holds, per
    cut k, every z_{k-1,-}(x) that `branches.pair_minus` has solved for
    this symbol: two arrays sorted together by key, the int64 bit patterns
    of the real nodes x and their values, 24 bytes per distinct node.
    The symbol holds its structure, so the memo lives as long as the
    symbol; each value is the pair member with Im(1/(z a'(z))) < 0 at its
    own node.  The memo takes no part in `==` or `repr`.
    """

    orientation: str  # "p_negative" | "p_positive"
    x: tuple[float, ...]  # x_1 ... x_{p+1}
    lam: tuple[float, ...]  # r(x_1) ... r(x_{p+1})
    kinds: dict[int, str] = field(default_factory=dict)
    cuts: tuple[Cut, ...] = ()
    pair_memo: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    def cut(self, k: int) -> Cut:
        return self.cuts[k - 1]


def build_symbol(p: int, a) -> SymbolCoeffs:
    """Validate and freeze symbol coefficients.

    `a` lists (a_0, ..., a_p); the subdiagonal weight a_{-1} = 1 is fixed.
    """
    a = tuple(float(v) for v in a)
    if p < 1 or len(a) != p + 1:
        raise ValueError(f"need p >= 1 and exactly p+1 coefficients, got p={p}, {len(a)}")
    if not all(math.isfinite(v) for v in a):
        raise NonFinite("symbol coefficients must be finite")
    if a[-1] == 0.0:
        raise ZeroLeadingCoefficient("a_p must be nonzero")
    return SymbolCoeffs(p=p, a=a)


def _eval_a(sym: SymbolCoeffs, z: np.ndarray):
    """a(z) alone, by Horner on a_0..a_p plus the 1/z term."""
    if np.any(z == 0):
        raise DivisionAtZero("symbol has a pole at z = 0")
    a = np.zeros_like(z, dtype=complex) if np.iscomplexobj(z) else np.zeros_like(z, dtype=float)
    for c in reversed(sym.a):
        a = a * z + c
    return a + 1.0 / z


def _eval_da(sym: SymbolCoeffs, z: np.ndarray):
    """a'(z) alone, by Horner on k a_k plus the -1/z^2 term."""
    if np.any(z == 0):
        raise DivisionAtZero("symbol has a pole at z = 0")
    da = np.zeros_like(z, dtype=complex) if np.iscomplexobj(z) else np.zeros_like(z, dtype=float)
    for k in range(sym.p, 0, -1):
        da = da * z + k * sym.a[k]
    return da - 1.0 / z ** 2


def eval_symbol(sym: SymbolCoeffs, z):
    """Return (a(z), r(z), a'(z), r'(z)) at a scalar or array argument."""
    z = np.asarray(z)
    az = _eval_a(sym, z)
    daz = _eval_da(sym, z)
    w = 1.0 / z
    r = np.zeros_like(az)
    dr = np.zeros_like(az)
    for c in reversed(sym.a):
        dr = dr * w + r
        r = r * w + c
    rz = r + z
    drz = 1.0 - dr / z ** 2
    if np.ndim(z) == 0:
        return az[()], rz[()], daz[()], drz[()]
    return az, rz, daz, drz


def critical_polynomial(sym: SymbolCoeffs) -> np.ndarray:
    """Coefficients (low to high) of q(z) = z^{p+1} - sum_k k a_k z^{p-k}.

    q collects the numerator of r'(z) = q(z) / z^{p+1}.
    """
    p = sym.p
    q = np.zeros(p + 2)
    q[p + 1] = 1.0
    for k in range(1, p + 1):
        q[p - k] = -k * sym.a[k]
    return q


def _flip(sym: SymbolCoeffs) -> SymbolCoeffs:
    """Symbol of -a(-z): negates lambda and mirrors critical points."""
    b = tuple((-v if k % 2 == 0 else v) for k, v in enumerate(sym.a))
    return SymbolCoeffs(p=sym.p, a=b)


def _classify(sym: SymbolCoeffs, xs: np.ndarray) -> dict[int, str]:
    """Kind of each interior critical point x_k, k = 2..p (ascending xs).

    Second-derivative sign and a midpoint comparison must agree,
    otherwise the configuration is treated as degenerate.
    """
    p = sym.p
    kinds: dict[int, str] = {}
    for k in range(2, p + 1):
        xk = xs[k - 1]
        d2 = sum(j * (j + 1) * sym.a[j] * xk ** (-(j + 2)) for j in range(1, p + 1))
        by_d2 = "min" if d2 > 0 else "max"
        left = 0.5 * (xs[k - 2] + xk)
        right = 0.5 * (xk + xs[k]) if k < p else 0.5 * xk
        _, r_at, _, _ = eval_symbol(sym, np.array([xk, left, right]))
        by_mid = "min" if (r_at[0] < r_at[1] and r_at[0] < r_at[2]) else (
            "max" if (r_at[0] > r_at[1] and r_at[0] > r_at[2]) else "?")
        if d2 == 0.0 or by_mid != by_d2:
            raise MultipleCriticalPoints(
                f"ambiguous min/max classification at x_{k} = {xk:.6g}"
            )
        kinds[k] = by_d2
    return kinds


def _points(vals: np.ndarray) -> str:
    # three significant digits at any scale: fixed decimals print tiny points as 0
    return "[" + ", ".join(f"{v:.3g}" for v in vals.tolist()) + "]"


def critical_structure(sym: SymbolCoeffs) -> CriticalStructure:
    """The symbol's critical structure, built on the first request.

    The symbol then holds it, and every later call returns that same
    object, `pair_memo` included, so a function that needs the structure
    takes the symbol and fetches it here.  A refusal is not held: it is
    raised again on each call.  Equal symbols built separately hold
    separate structures.
    """
    if sym._structure is None:
        object.__setattr__(sym, "_structure", _solve_structure(sym))
    return sym._structure


def _solve_structure(sym: SymbolCoeffs) -> CriticalStructure:
    """Solve q, verify the p-vs-1 hypothesis, classify, and build cuts."""
    roots = roots_batched(critical_polynomial(sym)[None, :])[0]
    scale = max(1.0, float(np.abs(roots).max()))
    if np.any(np.abs(roots.imag) > _REALITY_TOL * (1.0 + np.abs(roots))):
        raise ComplexCriticalPoints(
            f"critical polynomial has non-real roots: {_points(roots)}"
        )
    xs = np.sort(roots.real)
    if np.min(np.diff(xs)) <= _GAP_TOL * scale:
        raise MultipleCriticalPoints(
            f"critical points closer than {_GAP_TOL:g} * scale: {_points(xs)}"
        )
    neg = int(np.sum(xs < 0.0))
    pos = int(np.sum(xs > 0.0))
    p = sym.p
    if neg == p and pos == 1:
        orientation = "p_negative"
    elif pos == p and neg == 1:
        orientation = "p_positive"
    else:
        raise HypothesisViolated(
            f"critical points split {neg} negative / {pos} positive, need {p}-vs-1"
        )

    if orientation == "p_positive":
        inner = _solve_structure(_flip(sym))
        x = tuple(-v for v in inner.x)
        lam = tuple(-v for v in inner.lam)
        kinds = {k: ("min" if v == "max" else "max") for k, v in inner.kinds.items()}
        cuts = []
        for c in inner.cuts:
            cuts.append(Cut(index=c.index, lo=-c.hi, hi=-c.lo))
        return CriticalStructure(
            orientation="p_positive", x=x, lam=lam, kinds=kinds, cuts=tuple(cuts)
        )

    # p-negative: ascending x_1 < ... < x_p < 0 < x_{p+1}
    kinds = _classify(sym, xs)
    _, lam_arr, _, _ = eval_symbol(sym, xs)
    lam = tuple(float(v) for v in lam_arr)
    cuts = [Cut(index=1, lo=min(lam[0], lam[p]), hi=max(lam[0], lam[p]))]
    for k in range(2, p + 1):
        if kinds[k] == "max":
            cuts.append(Cut(index=k, lo=lam[k - 1], hi=math.inf))
        else:
            cuts.append(Cut(index=k, lo=-math.inf, hi=lam[k - 1]))
    _check_disjoint(cuts)
    return CriticalStructure(
        orientation="p_negative", x=tuple(map(float, xs)), lam=lam,
        kinds=kinds, cuts=tuple(cuts),
    )


def _check_disjoint(cuts) -> None:
    for i, ci in enumerate(cuts):
        for cj in cuts[i + 1:]:
            if ci.hi > cj.lo and cj.hi > ci.lo:
                raise HypothesisViolated(
                    f"cuts {ci.index} and {cj.index} overlap: "
                    f"[{ci.lo:.6g}, {ci.hi:.6g}] vs [{cj.lo:.6g}, {cj.hi:.6g}]"
                )
