"""Closed-form second-type functions, approximation orders and spectra.

The Widom sum

    Psi_{n,l}(lam) = ((-1)^{p+1}/a_p) sum_{j=l}^{p} z_j^{-(n+1)} / prod_{k!=j} (z_k - z_j)

(product over k = l..p) turns the iterated transforms into pure branch
arithmetic; l = 0 reproduces Q_n itself, which is the strongest
whole-pipeline identity available.  The parity prefactor is forced by
the residue identity sum_j z_j^{-(n+1)} / prod_{k!=j}(z_j - z_k) =
-a_p Q_n(lam), where Q_n is the z^n coefficient of 1/(z(a(z) - lam)):
with a plain -1/a_p the l = 0 sum returns (-1)^p Q_n, which fails for
odd p (already at n = 0, where the sum collapses to 1/(z_0...z_p)).

On top of it sit the Hermite-Pade error orders, ratio-asymptotic rates
against the conformal map, the generalized spectra P_{n,k} as
determinants of shifted Toeplitz sections, and the related minors B_{n,k}
built from the moment functions Phi_{m,k}.

The Hermite-Pade and ratio fits need Q_n z0^j - Q_{n-j}, whose two
terms cancel far below double resolution at high n or large lambda.
The l = 0 sum gives the difference directly, with the cancelling z0
term gone, so both fits run in double precision from one batched
branch solve; they rest on the same identity that `verify`'s widom_l0
check tests against Q_n independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatch, NearBranchPoint, OnCut, RootCountMismatch
from .symbol import SymbolCoeffs, critical_structure
from .branches import s_measure, solve_grid
from .polyseq import eval_Q, gen_Q, multi_index, zeros_Q
from .quadrature import build_fixed_rule, rule_apply
from .rootfind import bisect
from .nikishin import NikishinSystem

_PSI_REACH = 0.15  # outermost Psi_{n,1} zero / ((n+1)^2 scale): 0.18-0.39 at p = 2, even n


# ---- Widom closed forms ----

def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y rounded as numpy's complex scalars round it.

    Array complex multiplication may fuse a product into the sum (FMA)
    and so differ in the last bit from the scalar product; four real
    products and two sums, each rounded, match the scalar exactly.
    """
    out = np.empty_like(x)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _widom_terms(z: np.ndarray, l: int, powers: np.ndarray) -> np.ndarray:
    """Per row, sum over j of powers[j - l] / prod_{k != j}(z[k] - z[j]), j, k >= l.

    z holds one branch tuple per row, shape (m, p + 1), and powers the
    matching (m, p + 1 - l).  Each row's product runs over increasing k
    and its sum adds increasing j to 0, as a scalar loop would.
    """
    total = np.zeros(z.shape[0], dtype=complex)
    for j in range(l, z.shape[1]):
        prod = None
        for k in range(l, z.shape[1]):
            if k != j:
                diff = z[:, k] - z[:, j]
                prod = diff if prod is None else _cmul(prod, diff)
        term = powers[:, j - l]
        total = total + (term if prod is None else term / prod)
    return total


def _tie_guard(z: np.ndarray, l: int) -> None:
    """Raise if two of z_l..z_p nearly meet in any row of z, shape (m, p + 1)."""
    sub = z[:, l:]
    if sub.shape[1] < 2:
        return
    diffs = np.abs(sub[:, :, None] - sub[:, None, :]) + np.eye(sub.shape[1])
    if np.any(diffs.min(axis=(1, 2)) < 1e-8 * (1.0 + np.abs(sub).max(axis=1))):
        raise NearBranchPoint("participating branches nearly collide")


def _prefactor(sym: SymbolCoeffs) -> float:
    return (-1.0) ** (sym.p + 1) / sym.a[sym.p]


def widom_psi(sym: SymbolCoeffs, n: int, l: int, lam):
    """Psi_{n,l}(lam) from the branch values alone.

    An array lam is solved in one batch and gives the array of values;
    a scalar lam gives a scalar.
    """
    if not 0 <= l <= sym.p:
        raise ValueError("need 0 <= l <= p")
    z = solve_grid(sym, lam)
    _tie_guard(z, l)
    terms = _widom_terms(z, l, z[:, l:] ** (-(n + 1)))
    if np.ndim(lam) == 0:
        return _prefactor(sym) * terms[0]
    return (_prefactor(sym) * terms).reshape(np.shape(lam))


# ---- Hermite-Pade and ratio fits ----

def _fit_branches(sym: SymbolCoeffs, lams: np.ndarray) -> np.ndarray:
    """The branch tuples at each lambda, from one batched solve.

    Raises `NearBranchPoint` where z0 and z1 nearly meet, and `OnCut` at a
    real lambda on Gamma_1, where z0 is one of a conjugate pair of equal
    modulus and so undefined.
    """
    z = solve_grid(sym, lams)
    z0, z1 = z[:, 0], z[:, 1]
    near = np.abs(z1 - z0) < 1e-6 * np.abs(z1)
    if near.any():
        i = int(np.argmax(near))
        raise NearBranchPoint(f"z0 and z1 nearly collide at lambda = {lams[i]:.8g}")
    on_cut = (np.imag(lams) == 0) & (np.abs(z0.imag) > 1e-8 * np.abs(z0))
    if on_cut.any():
        i = int(np.argmax(on_cut))
        raise OnCut(f"lambda = {lams[i].real:.8g} lies on Gamma_1, where z0 is undefined")
    return z


def _fit_logs(sym: SymbolCoeffs, z: np.ndarray, n: int, j: int):
    """log|Q_n| and log|Q_n z0^j - Q_{n-j}| at each row of branch tuples z.

    By the l = 0 Widom sum, Q_n z0^j - Q_{n-j} is the prefactor times
    sum_k z_k^{-(n+1)} (z0^j - z_k^j) / prod_{i!=k}(z_i - z_k): the k = 0
    term, which carries the whole cancellation, is exactly 0.  Each sum
    runs on powers divided by its leading modulus |z_0|^{n+1} or
    |z_1|^{n+1}, so no power overflows, and the scales return in logs.
    """
    r0, r1 = np.abs(z[:, :1]), np.abs(z[:, 1:2])
    q = _widom_terms(z, 0, (r0 / z) ** (n + 1))
    powers = np.zeros_like(z)
    powers[:, 1:] = (r1 / z[:, 1:]) ** (n + 1) * (z[:, :1] ** j - z[:, 1:] ** j)
    diff = _widom_terms(z, 0, powers)
    log_pref = math.log(abs(_prefactor(sym)))
    return (log_pref + np.log(np.abs(q)) - (n + 1) * np.log(r0[:, 0]),
            log_pref + np.log(np.abs(diff)) - (n + 1) * np.log(r1[:, 0]))


def hp_error_order(sym: SymbolCoeffs, n: int, j: int, lambda_grid) -> float:
    """Fitted log-log slope of |Q_n z0^j - Q_{n-j}| over a real grid.

    The expected slope is -(n_j + 1).  The difference comes from the
    l = 0 Widom sum with its cancelling term removed (see `_fit_logs`),
    the identity that `verify`'s widom_l0 check tests against Q_n.
    """
    if not 1 <= j <= sym.p:
        raise ValueError("need 1 <= j <= p")
    grid = np.asarray(lambda_grid, dtype=float)
    if not np.all(np.isfinite(grid) & (grid > 0)) or np.unique(grid).size < 2:
        raise ValueError("need a grid of at least two distinct finite points > 0")
    _, log_diff = _fit_logs(sym, _fit_branches(sym, grid), n, j)
    return float(np.polyfit(np.log(grid), log_diff, 1)[0])


def ratio_rate(sym: SymbolCoeffs, j: int, K_probe, n: int) -> np.ndarray:
    """(n + n_j)-th root of |z0^j - Q_{n-j}/Q_n| at each probe point.

    Both Q_n and the difference Q_n z0^j - Q_{n-j} come from the l = 0
    Widom sum (see `_fit_logs`), so the rate holds at any depth n.
    """
    if not 1 <= j <= sym.p:
        raise ValueError("need 1 <= j <= p")
    probes = np.atleast_1d(np.asarray(K_probe, dtype=complex))
    nj = multi_index(n, sym.p).components[j - 1]
    log_q, log_diff = _fit_logs(sym, _fit_branches(sym, probes.reshape(-1)), n, j)
    return np.exp((log_diff - log_q) / (n + nj)).reshape(probes.shape)


# ---- generalized spectra ----

@dataclass
class ToeplitzSection:
    """Size-n section of T(z^{-k}(a(z) - lam)): entry (i,j) = a_{i+k-j}.

    a_{-1} = 1 and the -lam shift sits where i + k = j; equivalently
    A_{n+k} - lam I with the first k rows and last k columns removed.
    """

    n: int
    k: int
    sym: SymbolCoeffs

    def _stack(self, lams: np.ndarray) -> np.ndarray:
        """The matrices at a 1-d array of lambda, shape (m, n, n)."""
        mats = np.zeros((lams.size, self.n, self.n), dtype=np.result_type(float, lams))
        rows = np.arange(self.n)
        # fill the p + 2 diagonals d = i + k - j = -1..p, then shift d = 0
        for d, v in enumerate((1.0, *self.sym.a), start=-1):
            cols = rows + self.k - d
            ok = (cols >= 0) & (cols < self.n)
            mats[:, rows[ok], cols[ok]] = v
        cols = rows + self.k
        ok = cols < self.n
        mats[:, rows[ok], cols[ok]] -= lams[:, None]
        return mats

    def matrix(self, lam: complex) -> np.ndarray:
        return self._stack(np.asarray([lam]))[0]

    def det(self, lam):
        """P(lam) = det `matrix(lam)`: a float or complex at a scalar lam,
        the array of values at an array of lam.  Arrays are factored as
        stacked matrices, a block of about 2^20 entries per slogdet."""
        lams = np.asarray(lam)
        if self.n == 0:
            return 1.0 if lams.ndim == 0 else np.ones(lams.shape)
        flat = lams.reshape(-1)
        out = np.empty(flat.shape, dtype=np.result_type(float, flat))
        step = max(1, 2 ** 20 // self.n ** 2)
        for s in range(0, flat.size, step):
            sign, logdet = np.linalg.slogdet(self._stack(flat[s : s + step]))
            out[s : s + step] = sign * np.exp(logdet)
        if lams.ndim:
            return out.reshape(lams.shape)
        return float(out[0].real) if np.isrealobj(out) else complex(out[0])


@dataclass
class SpectrumReport:
    """Zeros of P_{n,k}; for k = 1, `psi_zeros` are the zeros of Psi_{n,1}
    that bracketed them (None for other k)."""

    k: int
    n: int
    roots: np.ndarray
    hausdorff_to_cut: float
    psi_zeros: np.ndarray | None = None


def _hausdorff(roots: np.ndarray, cut, samples: int = 512) -> float:
    if roots.size == 0:
        return 0.0
    lo = max(cut.lo, float(roots.min()))
    hi = min(cut.hi, float(roots.max()))
    d_root = max(cut.distance(x) for x in roots)
    if hi <= lo:
        return float(d_root)
    pts = np.linspace(lo, hi, samples)
    d_cut = np.abs(pts[:, None] - roots[None, :]).min(axis=1).max()
    return float(max(d_root, d_cut))


def gen_spectrum(sym: SymbolCoeffs, n: int, k: int, struct=None,
                 sys=None) -> SpectrumReport:
    """Real zeros of P_{n,k}(lam) = det(A_n - lam I with k rows/cols cut).

    k = 0 delegates to the exact zero finder for Q_n.  For k = 1 the
    zeros of Psi_{n,1} provide guaranteed brackets by interlacing, and
    the count N_{n,1} - 1 is enforced.  Larger k falls back to a scan
    near Gamma_{k+1}.  For n <= 2k no entry of the section holds lam, so
    P_{n,k} is constant (1 on an empty section) and has no roots.

    `struct` and `sys` are accepted and not read: `perfbench/worker.py`
    still passes them, and ROADMAP item 4(a) deletes them.
    """
    if not 0 <= k <= sym.p - 1:
        raise ValueError("need 0 <= k <= p-1")
    cut = critical_structure(sym).cut(k + 1)
    if k == 0:
        roots = zeros_Q(sym, n)
        return SpectrumReport(k=0, n=n, roots=roots, hausdorff_to_cut=_hausdorff(roots, cut))
    det = ToeplitzSection(n=n - k, k=k, sym=sym).det
    if k == 1:
        psis = psi_zeros(sym, None, n)
        # P_{n,1} has degree <= 0 for n <= 1: no roots, not -1 of them
        want = max(int(np.sum(multi_index(n, sym.p).components[1:])) - 1, 0)
        signs = np.sign(det(psis))
        changes = signs[:-1] * signs[1:] < 0.0
        if not np.all(changes) or changes.size != want:
            raise RootCountMismatch(
                f"expected {want} sign changes between the {psis.size} "
                f"second-type zeros, found {int(np.sum(changes))}"
            )
        lo, hi = bisect(det, psis[:-1], psis[1:], signs[:-1], 60)
        roots = np.sort(0.5 * (lo + hi))
    else:
        psis = None
        roots = _scan_ray(det, cut, 1e-6 * cut.scale()) if n > 2 * k else np.empty(0)
    return SpectrumReport(k=k, n=n, roots=roots,
                          hausdorff_to_cut=_hausdorff(roots, cut), psi_zeros=psis)


def _ray_grid(cut, inner: float, outer: float, m: int) -> np.ndarray:
    # log-spaced offsets, outermost point first; roots cluster toward the
    # branch point like 1/n^2 while the outermost ones drift out like n^2,
    # so no single linear grid can resolve both ends at once
    e = cut.finite_end
    off = np.geomspace(outer, inner, m)
    return e - off if math.isinf(cut.lo) else e + off


def _grid_size(inner: float, outer: float) -> int:
    return min(3200, max(600, 90 * int(math.log10(outer / inner) + 1)))


def _scan_ray(f, cut, inner: float, want: int | None = None,
              per_call: int = 1, reach: float = 0.0) -> np.ndarray:
    """Sorted sign-change roots of a vectorized f on a ray cut.

    Scans a log grid from `inner` out to R = 4 scale 2^j, from the first
    j with 0.8 R >= `reach`, doubling R until the outermost sign change
    sits inside 0.8 R (and, when `want` is given, exactly `want` changes
    are seen), then bisects each bracket, `per_call` steps per call of f.
    A result stands if its outermost bracket starts past 0.8 R' for each
    skipped R', whose scan would fail (missing that root or bracketing it
    past 0.8 R'); else the scan restarts at the first R' not so covered.
    """
    radii = 4.0 * cut.scale() * 2.0 ** np.arange(24)
    first = min(int(np.searchsorted(0.8 * radii, reach)), radii.size - 1)
    for outer in radii[first:]:
        grid = _ray_grid(cut, inner, outer, _grid_size(inner, outer))
        signs = np.sign(f(grid))
        idx = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        if want is not None and idx.size > want:
            raise CountMismatch(f"found {idx.size} zeros, expected {want}")
        inside = idx.size > 0 and abs(grid[idx[0]] - cut.finite_end) < 0.8 * outer
        if inside and (want is None or idx.size == want):
            near = abs(grid[idx[0] + 1] - cut.finite_end)
            if first and near < 0.8 * radii[first - 1]:
                return _scan_ray(f, cut, inner, want, per_call, reach=near)
            lo, hi = bisect(f, grid[idx], grid[idx + 1], signs[idx], 60, per_call)
            return np.sort(0.5 * (lo + hi))
    raise CountMismatch(f"roots on Gamma_{cut.index} did not stabilize")


# ---- second-kind zeros and minors ----

def psi_zeros(sym: SymbolCoeffs, sys, n: int, struct=None) -> np.ndarray:
    """The N_{n,1} zeros of Psi_{n,1} on the second cut.

    Scans the rescaled Widom sum (branch powers over the tied pair
    modulus, tame for large n) from near _PSI_REACH (n + 1)^2 scale, as the
    outermost zero drifts out like n^2, doubling the radius until the count
    matches N_{n,1} and that zero sits well inside the scanned range.

    `sys` and `struct` are accepted and not read: `perfbench/worker.py`
    still passes them, and ROADMAP item 4(a) deletes them.
    """
    if sym.p < 2:
        raise ValueError("second-kind zeros need p >= 2")
    cut = critical_structure(sym).cut(2)
    want = int(np.sum(multi_index(n, sym.p).components[1:]))
    if want == 0:
        return np.array([])
    pref = _prefactor(sym)

    def scaled(xs: np.ndarray) -> np.ndarray:
        z = solve_grid(sym, np.asarray(xs, dtype=float))
        powers = (np.abs(z[:, 1:2]) / z[:, 1:]) ** (n + 1)
        return (pref * _widom_terms(z, 1, powers)).real

    # four steps per root solve: its cost is per call more than per row
    return _scan_ray(scaled, cut, 1e-3 * cut.scale() / (n + 1) ** 2, want,
                     per_call=4, reach=_PSI_REACH * (n + 1) ** 2 * cut.scale())


def bnk(sys: NikishinSystem, n: int, k: int, lam: complex) -> complex:
    """det of the (k+1)x(k+1) minor [Q_{n-i}, Phi_{n-i,1..k}](lam).

    Phi_{m,j}(lam) = int Q_m dsigma_j / (lam - x) over the first cut.
    Row i holds degree n - i, so k = 1 gives
    Q_n Phi_{n-1,1} - Q_{n-1} Phi_{n,1}.
    """
    lam = complex(lam)
    sym = sys.sym
    seq = gen_Q(sym, max(n, 0))
    mat = np.zeros((k + 1, k + 1), dtype=complex)
    for i in range(k + 1):
        m = n - i
        if m < 0:
            continue  # Q_{-1} = 0 and so are its moment functions
        mat[i, 0] = eval_Q(sym, m, lam)
        coef = seq.as_float(m)
        for j in range(1, k + 1):
            val, _ = rule_apply(
                sys.sigma_rule(j),
                lambda x, c=coef: np.polynomial.polynomial.polyval(x, c) / (lam - x),
            )
            mat[i, j] = val
    return complex(np.linalg.det(mat))


# ---- counting-measure comparison ----

def counting_compare(sym: SymbolCoeffs, roots, k: int,
                     window: tuple[float, float] | None = None) -> float:
    """Sup distance between the CDF of `roots` and the s_{k+1} CDF on a window.

    Both distributions are restricted to the window and renormalized.
    The limit CDF comes from the cumulative weights of a fine fixed rule
    for s_{k+1}, which resolves the endpoint singularities.
    """
    cut = critical_structure(sym).cut(k + 1)
    if window is None:
        if cut.is_ray:
            e = cut.finite_end
            r = 3.0 * cut.scale()
            window = (e - r, e) if math.isinf(cut.lo) else (e, e + r)
        else:
            window = (cut.lo, cut.hi)
    w0, w1 = window
    roots = np.asarray(roots, dtype=float)
    roots = np.sort(roots[(roots >= w0) & (roots <= w1)])
    if roots.size == 0:
        return 1.0
    rule = build_fixed_rule(s_measure(sym, k + 1), level=9)
    order = np.argsort(rule.x)
    xs = rule.x[order]
    cdf = np.cumsum(rule.w[order].real)
    s0, s1 = np.interp([w0, w1], xs, cdf)
    limit_at_roots = (np.interp(roots, xs, cdf) - s0) / (s1 - s0)
    m = roots.size
    emp_hi = np.arange(1, m + 1) / m
    emp_lo = np.arange(0, m) / m
    return float(
        np.max(np.maximum(np.abs(limit_at_roots - emp_hi),
                          np.abs(limit_at_roots - emp_lo)))
    )
