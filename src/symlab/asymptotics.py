"""Closed-form second-type functions, approximation orders and spectra.

The Widom sum

    Psi_{n,l}(lam) = ((-1)^{p+1}/a_p) sum_{j=l}^{p} z_j^{-(n+1)} / prod_{k!=j} (z_k - z_j)

(product over k = l..p) turns the iterated transforms into pure branch
arithmetic; l = 0 reproduces Q_n itself, which is the strongest
whole-pipeline identity available.  The parity prefactor is forced by
the residue identity sum_j z_j^{-(n+1)} / prod_{k!=j}(z_j - z_k) =
-a_p Q_n(lam), where Q_n is the z^n coefficient of 1/(z(a(z) - lam)):
with a plain -1/a_p the l = 0 sum returns (-1)^p Q_n, which fails for
odd p (already at n = 0, where the sum collapses to 1/(z_0...z_p)).  On top of it sit the strong limits
of z_l^{n+1} Psi_{n,l}, the Hermite-Pade error orders, ratio-asymptotic
rates against the conformal map, the generalized spectra P_{n,k} as
determinants of shifted Toeplitz sections, and the related minors
B_{n,k} built from the moment functions Phi_{m,k}.

High-n differences like Q_n z0^j - Q_{n-j} cancel far below double
resolution, so those two fits run in extended precision on the exact
coefficient tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    CountMismatch,
    NearBranchPoint,
    RootCountMismatch,
    TailDivergence,
    Underflow,
)
from .symbol import CriticalStructure, SymbolCoeffs, critical_structure
from .branches import s_measure, solve_branches, solve_grid
from .polyseq import eval_Q, gen_Q, multi_index, zeros_Q
from .quadrature import MeasureHandle, build_fixed_rule, rule_apply
from .rootfind import bisect
from .nikishin import NikishinSystem, _rho1_rule, product_measure, psi_values

_LOG_FLOOR = math.log(1e-14) - 34.0


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


def widom_psi_scaled(sym: SymbolCoeffs, n: int, l: int, lam: complex) -> complex:
    """z_l^{n+1} Psi_{n,l}(lam), evaluated through modulus-<=1 ratios."""
    if not 0 <= l <= sym.p:
        raise ValueError("need 0 <= l <= p")
    z = np.asarray(solve_branches(sym, lam).z)
    _tie_guard(z[None], l)
    powers = (z[l] / z[l:]) ** (n + 1)
    return _prefactor(sym) * _widom_terms(z[None], l, powers[None])[0]


@dataclass
class StrongLimit:
    values: np.ndarray
    limit: complex
    deviation: float


def strong_limit_check(sym: SymbolCoeffs, l: int, lam: complex, n_range) -> StrongLimit:
    """z_l^{n+1} Psi_{n,l} over n_range against its n -> infinity limit.

    The limit is -1/(a_p prod_{k>l}(z_k - z_l)); the deviation reported
    is for the last n and decays like |z_l / z_{l+1}|^n.
    """
    z = np.asarray(solve_branches(sym, lam).z)
    _tie_guard(z[None], l)
    tail = np.prod(z[l + 1 :] - z[l]) if l < sym.p else 1.0
    limit = _prefactor(sym) / tail
    values = np.array([widom_psi_scaled(sym, int(n), l, lam) for n in n_range])
    return StrongLimit(values=values, limit=complex(limit),
                       deviation=float(abs(values[-1] - limit)))


# ---- extended-precision fits ----

def _mp_coeffs(sym: SymbolCoeffs, lam) -> list:
    # z (a(z) - lam) = a_p z^{p+1} + ... + a_1 z^2 + (a_0 - lam) z + 1, high first
    out = [mp.mpf(sym.a[k]) for k in range(sym.p, 0, -1)]
    out.append(mp.mpf(sym.a[0]) - mp.mpmathify(lam))
    out.append(mp.mpf(1))
    return out


def _mp_z0(sym: SymbolCoeffs, lam):
    roots = mp.polyroots(_mp_coeffs(sym, lam), maxsteps=200, extraprec=80)
    return min(roots, key=abs)


def _mp_poly(coefs, x):
    acc = mp.mpf(0)
    for c in reversed(coefs):
        acc = acc * x + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def hp_error_order(sym: SymbolCoeffs, n: int, j: int, lambda_grid) -> float:
    """Fitted log-log slope of |Q_n z0^j - Q_{n-j}| over a real grid.

    The expected slope is -(n_j + 1).  Both polynomial values and z0 are
    computed in extended precision sized to survive the ~lambda^{n+1}
    cancellation at the top of the grid.
    """
    if not 1 <= j <= sym.p:
        raise ValueError("need 1 <= j <= p")
    grid = np.asarray(lambda_grid, dtype=float)
    seq = gen_Q(sym, n)
    qn, qnj = seq.poly(n), seq.poly(n - j)
    dps = int((n + 2) * math.log10(max(abs(grid).max(), 10.0))) + 40
    logs = []
    with mp.workdps(dps):
        for lam in grid:
            z0 = _mp_z0(sym, mp.mpf(lam))
            err = abs(_mp_poly(qn, mp.mpf(lam)) * z0**j - _mp_poly(qnj, mp.mpf(lam)))
            if err < mp.mpf("1e-300"):
                raise Underflow(f"difference {mp.nstr(err, 5)} at lambda={lam}")
            logs.append(float(mp.log10(err)))
    slope = np.polyfit(np.log10(grid), np.array(logs), 1)[0]
    return float(slope)


def ratio_rate(sym: SymbolCoeffs, j: int, K_probe, n: int) -> np.ndarray:
    """(n + n_j)-th root of |z0^j - Q_{n-j}/Q_n| at each probe point."""
    if not 1 <= j <= sym.p:
        raise ValueError("need 1 <= j <= p")
    probes = np.atleast_1d(np.asarray(K_probe, dtype=complex))
    nj = multi_index(n, sym.p).components[j - 1]
    seq = gen_Q(sym, n)
    qn, qnj = seq.poly(n), seq.poly(n - j)
    out = np.empty(probes.shape, dtype=float)
    with mp.workdps(60):
        for i, lam in enumerate(probes):
            lam_mp = mp.mpmathify(complex(lam))
            z0 = _mp_z0(sym, lam_mp)
            val = abs(z0**j - _mp_poly(qnj, lam_mp) / _mp_poly(qn, lam_mp))
            out[i] = float(val) ** (1.0 / (n + nj))
    return out


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
    d_root = max(
        max(cut.lo - x, x - cut.hi, 0.0) for x in roots
    )
    if hi <= lo:
        return float(d_root)
    pts = np.linspace(lo, hi, samples)
    d_cut = np.abs(pts[:, None] - roots[None, :]).min(axis=1).max()
    return float(max(d_root, d_cut))


def gen_spectrum(sym: SymbolCoeffs, n: int, k: int,
                 struct: CriticalStructure | None = None,
                 sys: NikishinSystem | None = None) -> SpectrumReport:
    """Real zeros of P_{n,k}(lam) = det(A_n - lam I with k rows/cols cut).

    k = 0 delegates to the exact zero finder for Q_n.  For k = 1 the
    zeros of Psi_{n,1} provide guaranteed brackets by interlacing, and
    the count N_{n,1} - 1 is enforced.  Larger k falls back to a scan
    near Gamma_{k+1}.
    """
    if not 0 <= k <= sym.p - 1:
        raise ValueError("need 0 <= k <= p-1")
    struct = struct or critical_structure(sym)
    if k == 0:
        roots = zeros_Q(sym, n, struct)
        return SpectrumReport(k=0, n=n, roots=roots,
                              hausdorff_to_cut=_hausdorff(roots, struct.cut(1)))
    det = ToeplitzSection(n=n - k, k=k, sym=sym).det
    cut = struct.cut(k + 1)
    if k == 1:
        psis = psi_zeros(sym, sys, n, struct=struct)
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
        roots = _scan_ray(det, cut, 1e-6 * cut.scale())
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
              per_call: int = 1) -> np.ndarray:
    """Sorted sign-change roots of a vectorized f on a ray cut.

    Scans a log grid from `inner` out to a radius that doubles until the
    outermost sign change sits well inside it (and, when `want` is
    given, exactly `want` changes are seen), then bisects each bracket,
    `per_call` steps per call of f.
    """
    outer = 4.0 * cut.scale()
    for _ in range(24):
        grid = _ray_grid(cut, inner, outer, _grid_size(inner, outer))
        signs = np.sign(f(grid))
        idx = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        if want is not None and idx.size > want:
            raise CountMismatch(f"found {idx.size} zeros, expected {want}")
        inside = idx.size > 0 and abs(grid[idx[0]] - cut.finite_end) < 0.8 * outer
        if inside and (want is None or idx.size == want):
            lo, hi = bisect(f, grid[idx], grid[idx + 1], signs[idx], 60, per_call)
            return np.sort(0.5 * (lo + hi))
        outer *= 2.0
    raise CountMismatch(f"roots on Gamma_{cut.index} did not stabilize")


# ---- second-kind zeros and minors ----

def psi_zeros(sym: SymbolCoeffs, sys: NikishinSystem | None, n: int,
              struct: CriticalStructure | None = None) -> np.ndarray:
    """The N_{n,1} zeros of Psi_{n,1} on the second cut.

    Scans the rescaled Widom sum (all branch powers divided by the tied
    pair modulus, so magnitudes stay tame for large n), doubling the
    truncation radius until the count matches N_{n,1} and the outermost
    zero sits well inside the scanned range.
    """
    if sym.p < 2:
        raise ValueError("second-kind zeros need p >= 2")
    struct = struct or critical_structure(sym)
    cut = struct.cut(2)
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
                     per_call=4)


def bnk(sym: SymbolCoeffs, sys: NikishinSystem, n: int, k: int, lam: complex) -> complex:
    """det of the (k+1)x(k+1) minor [Q_{n-i}, Phi_{n-i,1..k}](lam).

    Phi_{m,j}(lam) = int Q_m dsigma_j / (lam - x) over the first cut.
    Row i holds degree n - i, so k = 1 gives
    Q_n Phi_{n-1,1} - Q_{n-1} Phi_{n,1}.
    """
    lam = complex(lam)
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


def _chain_measure(sys: NikishinSystem, j: int, k: int) -> MeasureHandle:
    """rho_{j,k} = <rho_j, <rho_{j+1}, ..., rho_k>> on Gamma_j."""
    m = sys.rho[k - 1]
    for i in range(k - 1, j - 1, -1):
        m = product_measure(sys.rho[i - 1], m)
    return m


def _flat_chain_rule(sys: NikishinSystem, j: int, k: int, level: int = 7):
    """Frozen rule for (x - lam_{j+1}) drho_{j+1,k}(x), plus its tail degree."""
    key = ("flatchain", j, k, level)
    if key in sys._rules:
        return sys._rules[key]
    chain = _chain_measure(sys, j + 1, k)
    lam_next = sys.struct.lam[j]

    def dens(xs):
        xa = np.asarray(xs, dtype=float)
        return (xa - lam_next) * chain.density(xa)

    tail = chain.tail_exponent + 1.0
    handle = MeasureHandle(
        cut=chain.cut, density=dens,
        endpoint_exponents=(chain.endpoint_exponents[0] + 1.0,
                            chain.endpoint_exponents[1] + 1.0),
        tail_exponent=tail, finite_mass=False, name=f"flat_rho_{j + 1},{k}",
    )
    sys._rules[key] = (build_fixed_rule(handle, level=level), tail)
    return sys._rules[key]


def orthogonality_second_kind(sym: SymbolCoeffs, sys: NikishinSystem,
                              n: int, j: int, k: int, nu: int) -> float:
    """|int x^nu Psi_{n,j}(x) (x - lam_{j+1}) drho_{j+1,k}(x)|.

    Vanishes for nu <= n_k - delta_j - 1 (delta_1 = 0, else 1); larger
    nu probes the first live moment.
    """
    if not (1 <= j <= sym.p - 1 and j + 1 <= k <= sym.p):
        raise ValueError("need 1 <= j <= p-1 and j+1 <= k <= p")
    rule, tail = _flat_chain_rule(sys, j, k)
    decay = multi_index(n, sym.p).components[j - 1] + 2 - j
    if nu - decay + tail >= -1.0:
        raise TailDivergence(
            f"integrand tail degree {nu - decay + tail:.3f} is not integrable"
        )
    val, _ = rule_apply(
        rule,
        lambda x: x**nu * psi_values(sys, n, j, x),
        f_tail_degree=float(nu - decay),
    )
    return abs(val)


def second_kind_scale(sym: SymbolCoeffs, sys: NikishinSystem,
                      n: int, j: int, k: int, nu: int) -> float:
    """int |x^nu Psi_{n,j}| |x - lam_{j+1}| d|rho_{j+1,k}|, the residual scale."""
    rule, _ = _flat_chain_rule(sys, j, k)
    decay = multi_index(n, sym.p).components[j - 1] + 2 - j
    keep = rule.logw + (nu - decay) * rule.logx > _LOG_FLOOR
    x = rule.x[keep]
    fv = np.abs(x) ** nu * np.abs(psi_values(sys, n, j, x))
    return float((np.abs(rule.w[keep]) * fv).sum())


def orthogonality_with_psi_zeros(sym: SymbolCoeffs, sys: NikishinSystem,
                                 n: int, nu: int,
                                 zeros: np.ndarray | None = None) -> tuple[float, float]:
    """(residual, scale) of int x^nu Q_n(x) drho_1(x) / Q_{n,2}(x).

    Q_{n,2} is the monic polynomial vanishing at the second-kind zeros;
    the integral vanishes for nu < N_{n,1}.
    """
    if zeros is None:
        zeros = psi_zeros(sym, sys, n, struct=sys.struct)
    rule = _rho1_rule(sys)
    q = eval_Q(sym, n, rule.x)
    den = np.prod(rule.x[:, None] - zeros[None, :], axis=1) if zeros.size else 1.0
    fv = rule.x**nu * q / den
    terms = rule.w * fv
    return abs(float(terms.sum())), float(np.abs(terms).sum())


# ---- counting-measure comparison ----

def counting_compare(report: SpectrumReport, sym: SymbolCoeffs,
                     window: tuple[float, float] | None = None,
                     struct: CriticalStructure | None = None) -> float:
    """Sup distance between the root CDF and the s_{k+1} CDF on a window.

    Both distributions are restricted to the window and renormalized.
    The limit CDF comes from the cumulative weights of a fine fixed rule
    for s_{k+1}, which resolves the endpoint singularities.
    """
    struct = struct or critical_structure(sym)
    cut = struct.cut(report.k + 1)
    if window is None:
        if cut.is_ray:
            e = cut.finite_end
            r = 3.0 * cut.scale()
            window = (e - r, e) if math.isinf(cut.lo) else (e, e + r)
        else:
            window = (cut.lo, cut.hi)
    w0, w1 = window
    roots = np.sort(report.roots[(report.roots >= w0) & (report.roots <= w1)])
    if roots.size == 0:
        return 1.0
    rule = build_fixed_rule(s_measure(sym, report.k + 1, struct), level=9)
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
