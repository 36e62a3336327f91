"""Branch solver for a(z) = lambda and the objects built from branches.

The p+1 solutions ordered by modulus are the backbone of the whole
construction: boundary values on the cuts give the measure densities,
log-derivatives give the s_k system, and the vector continued fraction
reproduces (z_0, z_0^2, ..., z_0^p) at large lambda.

Boundary values on a cut are taken from below through a geometric
epsilon schedule with Richardson extrapolation.  Density evaluation on
quadrature grids takes a cheaper route: at real x inside cut k the root
set is real except for the single conjugate pair (k-1, k), and the
minus-side limit z_{k-1,-} is the member whose modulus shrinks as
lambda = x - i eps leaves the cut, the one with Im(1/(z a'(z))) < 0
(so its conjugate carries the positive s_k density).  That picks the
member at every node from a direct real-coefficient solve.  The two
routes are tested against each other.

Every measure on cut k (rho_k, s_k, the flat weights, mu_k) reads the
same z_{k-1,-}(x), and tanh-sinh nodes depend only on the cut, so
`pair_minus` memoises its values per symbol and per cut on the
`CriticalStructure`, keyed by the bit pattern of x (24 bytes per
distinct node).  The symbol holds its one structure, so the memo lives
as long as the symbol, and each node of a cut is solved once for the
symbol.  Every function here takes the symbol alone and fetches the
structure with `critical_structure`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DivisionBlowup,
    NotInCut,
    OnCut,
    UnstableOrdering,
)
from .quadrature import MeasureHandle
from .rootfind import roots_batched
from .symbol import Cut, SymbolCoeffs, _eval_a, _eval_da, critical_structure

@dataclass(frozen=True)
class CutSample:
    k: int
    x: float
    z_minus: complex
    z_plus: complex
    all_branches_minus: tuple[complex, ...]


def _branch_coeffs(sym: SymbolCoeffs, lams: np.ndarray) -> np.ndarray:
    """Rows of a_p z^{p+1} + ... + a_1 z^2 + (a_0-lam) z + 1, low to high."""
    lams = np.asarray(lams, dtype=complex).ravel()
    m = lams.size
    out = np.empty((m, sym.p + 2), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1] = sym.a[0] - lams
    for k in range(1, sym.p + 1):
        out[:, k + 1] = sym.a[k]
    return out


def solve_grid(sym: SymbolCoeffs, lams) -> np.ndarray:
    """Modulus-sorted branches for an array of lambda, shape (m, p+1)."""
    lams = np.asarray(lams, dtype=complex).ravel()
    roots = roots_batched(_branch_coeffs(sym, lams))
    # lexicographic (modulus, real, imag) for a deterministic order
    order = np.lexsort((roots.imag, roots.real, np.abs(roots)), axis=1)
    roots = np.take_along_axis(roots, order, axis=1)
    res = np.abs(_eval_a(sym, roots) - lams[:, None])
    bad = res > 1e-10 * (1.0 + np.abs(lams))[:, None]
    if bad.any():
        i = int(np.argwhere(bad)[0][0])
        raise ConvergenceFailure(
            f"branch residual {res[bad].max():.3e} at lambda = {lams[i]:.6g}"
        )
    return roots


def _richardson(values: np.ndarray) -> np.ndarray:
    """Neville table limit for samples at eps, eps/2, eps/4, ... -> 0."""
    t = [np.asarray(values[0])]
    rows = [list(t)]
    for m in range(1, len(values)):
        row = [np.asarray(values[m])]
        for i in range(1, m + 1):
            fac = 2.0 ** i
            row.append((fac * row[i - 1] - rows[m - 1][i - 1]) / (fac - 1.0))
        rows.append(row)
    return rows[-1][-1]


def boundary_values(sym: SymbolCoeffs, k: int, x: float) -> CutSample:
    """Boundary values z_{k-1,+-}(x) for x strictly inside cut k."""
    cut = critical_structure(sym).cut(k)
    if not cut.contains_interior(float(x)):
        raise NotInCut(f"x = {x:.8g} is not interior to cut {k}")
    scale = max(1.0, abs(x))
    eps = 1e-3 * scale * 0.5 ** np.arange(11)
    roots = solve_grid(sym, x - 1j * eps)  # shape (11, p+1)
    for m in range(len(eps) - 1):
        d_same = np.abs(roots[m + 1] - roots[m])
        d_cross = np.abs(roots[m + 1][None, :] - roots[m][:, None])
        np.fill_diagonal(d_cross, np.inf)
        if np.any(d_same >= d_cross.min(axis=1)):
            raise UnstableOrdering(
                f"branch labels flipped between eps={eps[m]:.3e} and {eps[m + 1]:.3e}"
            )
    limits = _richardson(roots)
    zm = complex(limits[k - 1])
    return CutSample(
        k=k, x=float(x), z_minus=zm, z_plus=zm.conjugate(),
        all_branches_minus=tuple(limits),
    )


# ---- direct densities on cuts ----

def pair_minus(sym: SymbolCoeffs, k: int, xs: np.ndarray) -> np.ndarray:
    """z_{k-1,-}(x) on a grid inside cut k, each node solved once per symbol.

    Values come from the `pair_memo[k]` of the symbol's structure; only
    nodes not yet there are solved (`_solve_pair_minus`), in one batch,
    and merged in.  Keys are the bit patterns of x, so a hit is exactly
    the node solved before (0.0 and -0.0 are distinct, NaN never
    matches), and since a row's roots do not depend on its batch the
    values are those of a fresh solve.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    keys = xs.view(np.int64)
    memo = critical_structure(sym).pair_memo
    known, vals = memo.get(k, (keys[:0], np.empty(0, dtype=complex)))
    pos = np.searchsorted(known, keys)
    hit = np.zeros(keys.size, dtype=bool)
    if known.size:
        hit = known[np.minimum(pos, known.size - 1)] == keys
    if not hit.all():
        new = np.unique(keys[~hit])
        at = np.searchsorted(known, new)
        known = np.insert(known, at, new)
        vals = np.insert(vals, at, _solve_pair_minus(sym, k, new.view(float)))
        memo[k] = (known, vals)
        pos = np.searchsorted(known, keys)
    return vals[pos]


def _solve_pair_minus(sym: SymbolCoeffs, k: int, xs: np.ndarray) -> np.ndarray:
    """Solve z_{k-1,-}(x) via the conjugate-pair shortcut.

    At real x interior to cut k all branches are real except the tied
    pair (k-1, k).  Moving to lambda = x - i eps moves z by -i eps/a'(z),
    so d|z|^2/d eps = 2 |z|^2 Im(1/(z a'(z))): the minus-side member is
    the one where that is negative.  Rows where the pair is not
    conjugate, or is real, fall back to `boundary_values`.
    """
    roots = solve_grid(sym, xs)
    za, zb = roots[:, k - 1], roots[:, k]
    ok = np.abs(za - np.conj(zb)) <= 1e-6 * (np.abs(za) + 1.0)
    zm = np.where((1.0 / (_eval_da(sym, za) * za)).imag < 0.0, za, zb)
    bad = ~ok | (np.abs(zm.imag) == 0.0)
    if bad.any():
        for i in np.flatnonzero(bad):
            zm[i] = boundary_values(sym, k, float(xs[i])).z_minus
    return zm


def s_density(sym: SymbolCoeffs, k: int, x):
    """Density of s_k at x inside cut k: (1/pi) Im(z_{k-1,+}'/z_{k-1,+}).

    Branches 0..k-2 are real there and drop out of the imaginary part,
    so only the tied pair contributes.
    """
    cut = critical_structure(sym).cut(k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(cut.contains_interior(xs)):
        raise NotInCut(f"point outside interior of cut {k}")
    zp = np.conj(pair_minus(sym, k, xs))
    out = (1.0 / _eval_da(sym, zp) / zp).imag / np.pi
    return float(out[0]) if np.ndim(x) == 0 else out


def rho_density(sym: SymbolCoeffs, j: int, x):
    """Density of the generator rho_j at x inside cut j."""
    struct = critical_structure(sym)
    cut = struct.cut(j)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(cut.contains_interior(xs)):
        raise NotInCut(f"point outside interior of cut {j}")
    zm = pair_minus(sym, j, xs)
    if j == 1:
        out = zm.imag / np.pi
    else:
        out = zm.imag / (np.pi * (xs - struct.lam[j - 1]))
    return float(out[0]) if np.ndim(x) == 0 else out


def s_measure(sym: SymbolCoeffs, k: int, struct=None) -> MeasureHandle:
    """MeasureHandle for s_k; mass (p-k+1)/p, endpoint exponents -1/2.

    `struct` is accepted and not read: `perfbench/worker.py` still passes
    it, and ROADMAP item 4(a) deletes it.
    """
    cut = critical_structure(sym).cut(k)
    tail = None if not cut.is_ray else -1.0 - 1.0 / sym.p

    def dens(xs):
        return s_density(sym, k, np.asarray(xs, dtype=float))

    return MeasureHandle(
        cut=cut, density=dens, endpoint_exponents=(-0.5, -0.5),
        tail_exponent=tail, name=f"s_{k}",
    )


def rho_measure(sym: SymbolCoeffs, j: int) -> MeasureHandle:
    """MeasureHandle for rho_j: endpoint exponents +1/2 for j = 1 (it is mu_1's
    density), -1/2 for j >= 2, which also have infinite mass, tail 1/p - 1.
    """
    cut = critical_structure(sym).cut(j)

    def dens(xs):
        return rho_density(sym, j, np.asarray(xs, dtype=float))

    return MeasureHandle(
        cut=cut, density=dens, endpoint_exponents=(0.5, 0.5) if j == 1 else (-0.5, -0.5),
        tail_exponent=None if j == 1 else 1.0 / sym.p - 1.0, name=f"rho_{j}",
    )


def conformal_map(gamma1, lam: complex) -> complex:
    """phi(lambda): exterior of [alpha, beta] onto the unit disk, phi(inf)=0."""
    if isinstance(gamma1, Cut):
        alpha, beta = gamma1.lo, gamma1.hi
    else:
        alpha, beta = gamma1
    lam = complex(lam)
    if lam.imag == 0.0 and alpha <= lam.real <= beta:
        raise OnCut(f"lambda = {lam.real:.8g} lies in [{alpha:.6g}, {beta:.6g}]")
    w = (2.0 * lam - alpha - beta) / (beta - alpha)
    s = cmath.sqrt(w * w - 1.0)
    if abs(w + s) < 1.0:
        s = -s
    return 1.0 / (w + s)


def jacobi_perron(sym: SymbolCoeffs, lam: complex, depth: int) -> tuple[complex, ...]:
    """Vector continued fraction truncated at `depth` floors.

    Converges to (z_0, z_0^2, ..., z_0^p) for lambda outside a disk
    holding Gamma_1.  The vector division is
    (n_1..n_p)/(y_1..y_p) = (n_1/y_p, n_2 y_1/y_p, ..., n_p y_{p-1}/y_p).
    """
    p = sym.p
    lam = complex(lam)
    ones = np.ones(p, dtype=complex)
    tail_num = ones.copy()
    tail_num[0] = -sym.a[p]
    tail_den = np.zeros(p, dtype=complex)
    for i in range(1, p):
        tail_den[p - 1 - i] = -sym.a[i]
    tail_den[p - 1] = lam - sym.a[0]

    def floor_parts(m: int):
        if m > p:
            return tail_num, tail_den
        den = np.zeros(p, dtype=complex)
        den[p - 1] = lam - sym.a[0]
        for i in range(1, m):
            den[p - 1 - i] = -sym.a[i]
        return ones, den

    state = np.zeros(p, dtype=complex)
    for m in range(depth, 0, -1):
        num, den = floor_parts(m)
        y = den + state
        if abs(y[-1]) <= 1e-14 * (1.0 + abs(lam)):
            raise DivisionBlowup(f"floor {m}: trailing denominator {y[-1]:.3e}")
        base = np.concatenate(([1.0 + 0.0j], y[:-1])) / y[-1]
        state = num * base
    return tuple(state)
