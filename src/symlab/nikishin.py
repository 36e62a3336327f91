"""Generalized Nikishin chain and iterated second-type functions.

The chain starts from the branch measures rho_j on the cuts Gamma_j and
builds sigma_j = <rho_1, <rho_2, ..., rho_j>> on Gamma_1 by repeated
products with a linear factor,

    d<beta_j, beta_next>(x) = (x - lam_next) * hat(beta_next)(x) * dbeta_j(x),

where lam_next is the branch point of the next cut and hat denotes the
Cauchy transform.  The moment measures mu_k (densities Im z_{0,-}^k / pi
on Gamma_1) decompose over the sigma's with lower-triangular constants
c_{j,k}, c_{j,j} = 1; the off-diagonal constants are recovered by moment
matching against exact power moments of mu_j.

Also here: the symmetric branch combinations g_k^{(j)} and the iterated
weighted Cauchy transforms Psi_{n,j} of the polynomial sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OnCut, SingularMomentSystem, TailDivergence
from .symbol import CriticalStructure, SymbolCoeffs, critical_structure
from .branches import pair_minus, rho_measure, solve_branches
from .quadrature import (
    FixedRule,
    MeasureHandle,
    build_fixed_rule,
    integrate,
    rule_apply,
)
from .polyseq import eval_Q, moments, multi_index

_LOG_FLOOR = math.log(1e-14) - 34.0


def product_measure(
    beta_j: MeasureHandle, beta_next: MeasureHandle, *, level: int = 8
) -> MeasureHandle:
    """Product measure <beta_j, beta_next> on the cut of beta_j.

    The density is (x - lam_next) * hat(beta_next)(x) * beta_j'(x) with
    lam_next the finite end of the next cut.  The Cauchy transform is
    evaluated through a frozen rule on beta_next, batched over x; this
    is safe because adjacent cuts are disjoint, so the kernel stays
    bounded on the support of beta_j.
    """
    if not beta_next.cut.is_ray:
        raise ValueError("next measure must live on a ray cut")
    lam_next = beta_next.cut.finite_end
    rule = build_fixed_rule(beta_next, level=level)
    keep = rule.logw - rule.logx > _LOG_FLOOR
    t = rule.x[keep]
    w = rule.w[keep]

    def dens(x):
        xa = np.asarray(x, dtype=float)
        flat = xa.reshape(-1)
        # rows of <= 512 points bound the (x, t) matrix on long node sets
        hat = np.concatenate([
            (w / (flat[s : s + 512, None] - t)).sum(axis=-1)
            for s in range(0, max(flat.size, 1), 512)
        ]).reshape(xa.shape)
        val = (xa - lam_next) * hat * beta_j.density(xa)
        return val if xa.ndim else float(val)

    if beta_j.cut.is_ray:
        decay = -1.0 if beta_next.finite_mass else beta_next.tail_exponent + 1.0
        tail = beta_j.tail_exponent + 1.0 + decay
        mass = tail < -1.0
    else:
        tail = None
        mass = True
    name = f"<{beta_j.name or 'beta'},{beta_next.name or 'beta'}>"
    return MeasureHandle(
        cut=beta_j.cut, density=dens,
        endpoint_exponents=beta_j.endpoint_exponents,
        tail_exponent=tail, finite_mass=mass, name=name,
    )


def mu_density(sym: SymbolCoeffs, k: int, x, struct: CriticalStructure | None = None):
    """Density of mu_k on Gamma_1: Im(z_{0,-}(x)^k) / pi."""
    struct = struct or critical_structure(sym)
    xa = np.asarray(x, dtype=float)
    zm = pair_minus(sym, 1, np.atleast_1d(xa), struct)
    val = np.imag(zm**k) / np.pi
    return val.reshape(xa.shape) if xa.ndim else float(val[0])


def _mu_measure(sym: SymbolCoeffs, k: int, struct: CriticalStructure) -> MeasureHandle:
    cut = struct.cut(1)

    def dens(xs):
        return mu_density(sym, k, np.asarray(xs, dtype=float), struct)

    return MeasureHandle(
        cut=cut, density=dens, endpoint_exponents=(0.5, 0.5),
        tail_exponent=None, finite_mass=True, name=f"mu_{k}",
    )


@dataclass
class NikishinSystem:
    """The full chain for one symbol.

    rho[j-1] lives on Gamma_j; sigma[j-1] and mu[j-1] live on Gamma_1.
    c is lower triangular with unit diagonal and mu_j = sum_k c[j,k] sigma_k
    (1-based in the math, 0-based in the array).
    """

    sym: SymbolCoeffs
    struct: CriticalStructure
    rho: list[MeasureHandle]
    sigma: list[MeasureHandle]
    c: np.ndarray
    mu: list[MeasureHandle]
    _rules: dict = field(default_factory=dict, repr=False, compare=False)
    _psi: dict = field(default_factory=dict, repr=False, compare=False)

    def sigma_rule(self, j: int, level: int = 8) -> FixedRule:
        key = ("sigma", j, level)
        if key not in self._rules:
            self._rules[key] = build_fixed_rule(self.sigma[j - 1], level=level)
        return self._rules[key]


def _sigma_chain(rho: list[MeasureHandle]) -> list[MeasureHandle]:
    p = len(rho)
    sigmas = []
    for j in range(1, p + 1):
        m = rho[j - 1]
        for i in range(j - 1, 0, -1):
            m = product_measure(rho[i - 1], m)
        sigmas.append(m)
    return sigmas


def _sigma_moment(sig: MeasureHandle, m: int) -> float:
    res = integrate(sig, (lambda x: x**m) if m else None, f_tail_degree=m,
                    rel_tol=1e-11, abs_tol=1e-13)
    return float(np.real(res.value))


def build_system(sym: SymbolCoeffs,
                 struct: CriticalStructure | None = None) -> NikishinSystem:
    """Assemble rho, sigma, mu and the mixing constants for one symbol.

    The constants c_{j,k} solve the moment equations
    sum_k c_{j,k} int x^m dsigma_k = int x^m dmu_j for m = 0..j-1, with
    exact left sides int x^m dmu_j = L_j(x^m) - L_{j-1}(x^m) from the
    band moment functionals.
    """
    p = sym.p
    struct = struct or critical_structure(sym)
    rho = [rho_measure(sym, j, struct) for j in range(1, p + 1)]
    sigma = _sigma_chain(rho)
    mu = [_mu_measure(sym, k, struct) for k in range(1, p + 1)]

    # exact mu moments: the functional L_j acts as the j-th section row,
    # and mu_j = (L_j - L_{j-1}) as measures on Gamma_1
    mmax = p
    # L_0 = 0, so mu_1 inherits the L_1 moments unchanged
    exact = [[0] * (mmax + 1)] + [moments(sym, j, mmax) for j in range(1, p + 1)]
    smom = np.array([[_sigma_moment(sigma[k], m) for k in range(p)]
                     for m in range(mmax + 1)])

    c = np.eye(p)
    for j in range(2, p + 1):
        rows = j - 1
        a = smom[:rows, : j - 1]
        rhs = np.array([
            float(exact[j][m] - exact[j - 1][m]) - smom[m, j - 1]
            for m in range(rows)
        ])
        if np.linalg.cond(a) > 1e12:
            raise SingularMomentSystem(
                f"moment system for c_{j},* has condition {np.linalg.cond(a):.2e}"
            )
        c[j - 1, : j - 1] = np.linalg.solve(a, rhs)
    return NikishinSystem(sym=sym, struct=struct, rho=rho, sigma=sigma, c=c, mu=mu)


def _complete_homogeneous(deg: int, zs: np.ndarray) -> complex:
    # h_deg(z_0..z_{j-1}) by the one-variable-at-a-time recurrence
    h = np.zeros(deg + 1, dtype=complex)
    h[0] = 1.0
    for z in zs:
        for m in range(1, deg + 1):
            h[m] = h[m] + z * h[m - 1]
    return complex(h[deg])


def gkj(sym: SymbolCoeffs, j: int, k: int, lam: complex,
        struct: CriticalStructure | None = None) -> complex:
    """g_k^{(j)}: complete homogeneous symmetric of degree k-j+1 in z_0..z_{j-1}.

    Defined off Gamma_j; the inner cuts Gamma_i (i < j) are removable
    because the expression is symmetric in the branches that swap there.
    """
    if not 1 <= j <= k <= sym.p:
        raise ValueError("need 1 <= j <= k <= p")
    struct = struct or critical_structure(sym)
    cut = struct.cut(j)
    lam = complex(lam)
    tol = 1e-12 * cut.scale()
    # branch points themselves are fine: the colliding pair is symmetric
    if abs(lam.imag) <= tol and cut.contains_interior(lam.real, tol):
        raise OnCut(f"lambda {lam} lies on Gamma_{j}")
    z = solve_branches(sym, lam).z
    return _complete_homogeneous(k - j + 1, z[:j])


def orthogonality_residual(sys: NikishinSystem, qn: np.ndarray, j: int, k: int) -> float:
    """|int x^k Q_n(x) dsigma_j(x)| by the frozen sigma_j rule."""
    coef = np.asarray(qn, dtype=float)
    rule = sys.sigma_rule(j)

    def f(x):
        return x**k * np.polynomial.polynomial.polyval(x, coef)

    val, _ = rule_apply(rule, f)
    return abs(val)


def orthogonality_scale(sys: NikishinSystem, qn: np.ndarray, j: int, k: int) -> float:
    """int |x^k Q_n| d|sigma_j|, the natural scale for the residual."""
    coef = np.asarray(qn, dtype=float)
    rule = sys.sigma_rule(j)
    fv = np.abs(rule.x) ** k * np.abs(np.polynomial.polynomial.polyval(rule.x, coef))
    return float((np.abs(rule.w) * fv).sum())


def _flat_rho_rule(sys: NikishinSystem, i: int, level: int = 7) -> FixedRule:
    """Rule for the combined weight (x - lam_i) rho_i'(x) = Im z_{i-1,-}(x)/pi.

    Folding the linear factor into the density keeps the weight bounded
    at the branch point and makes the tail degree +1/p instead of the
    non-integrable 1/p - 1 of rho_i alone.
    """
    key = ("flat", i, level)
    if key in sys._rules:
        return sys._rules[key]
    sym, struct = sys.sym, sys.struct
    cut = struct.cut(i)

    def dens(xs):
        zm = pair_minus(sym, i, np.atleast_1d(np.asarray(xs, dtype=float)), struct)
        return np.imag(zm) / np.pi

    handle = MeasureHandle(
        cut=cut, density=dens, endpoint_exponents=(0.5, 0.5),
        tail_exponent=1.0 / sym.p, finite_mass=False, name=f"flat_rho_{i}",
    )
    sys._rules[key] = build_fixed_rule(handle, level=level)
    return sys._rules[key]


def _rho1_rule(sys: NikishinSystem, level: int = 8) -> FixedRule:
    key = ("rho", 1, level)
    if key not in sys._rules:
        sys._rules[key] = build_fixed_rule(sys.rho[0], level=level)
    return sys._rules[key]


def _psi_stage_values(sys: NikishinSystem, n: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of Psi_{n,j} at the nodes of the stage-(j+1) flat rule.

    Returns (nodes, weights, psi values) ready for one more transform.
    Cached on the system because the arrays do not depend on the final
    evaluation point.
    """
    key = (n, j)
    if key in sys._psi:
        return sys._psi[key]
    ndx = multi_index(n, sys.sym.p)
    rule_next = _flat_rho_rule(sys, j + 1)
    decay = ndx.components[j - 1] + 2 - j
    # tail mask: Psi_{n,j}(t)/(lam-t) falls like t^{-decay-1} against the
    # stage weight, which itself grows like t^{1/p}
    keep = rule_next.logw - (decay + 1) * rule_next.logx > _LOG_FLOOR
    t = rule_next.x[keep]
    w = rule_next.w[keep]
    psi = _psi_at(sys, n, j, t)
    sys._psi[key] = (t, w, psi)
    return sys._psi[key]


def _psi_far_coeffs(sys: NikishinSystem, n: int, terms: int = 40) -> np.ndarray:
    """Moments int t^m Q_n drho_1 for m = n_1, ..., n_1 + terms - 1.

    They power the 1/lam expansion of Psi_{n,1}.  Moments below n_1
    vanish by orthogonality and are pinned to zero instead of being kept
    as quadrature noise, which would otherwise dominate far out where
    the true value is below the double-precision floor.
    """
    key = ("far1", n)
    if key not in sys._psi:
        rule = _rho1_rule(sys)
        m0 = int(multi_index(n, sys.sym.p).components[0])
        q = eval_Q(sys.sym, n, rule.x)
        c = np.array(
            [np.sum(rule.w * rule.x ** (m0 + i) * q) for i in range(terms)]
        )
        sys._psi[key] = (m0, c)
    return sys._psi[key]


def _psi_at(sys: NikishinSystem, n: int, j: int, lam: np.ndarray) -> np.ndarray:
    """Psi_{n,j} evaluated at an array of points off Gamma_j."""
    if j == 1:
        rule = _rho1_rule(sys)
        lo, hi = sys.struct.cut(1).endpoints()
        rfar = 3.0 * max(abs(lo), abs(hi))
        flat = lam.reshape(-1)
        out = np.empty(flat.shape, dtype=complex)
        far = np.abs(flat) > rfar
        if far.any():
            # direct summation cancels catastrophically once the true
            # value drops below eps * max|Q_n|; switch to the moment
            # expansion, whose coefficients are well conditioned
            m0, c = _psi_far_coeffs(sys, n)
            zi = 1.0 / flat[far]
            acc = np.zeros(zi.shape, dtype=complex)
            for cm in c[::-1]:
                acc = acc * zi + cm
            out[far] = acc * zi ** (m0 + 1)
        if not far.all():
            idx = np.flatnonzero(~far)
            q = eval_Q(sys.sym, n, rule.x)
            for s in range(0, idx.size, 512):
                blk = flat[idx[s : s + 512]]
                out[idx[s : s + 512]] = (
                    rule.w * q / (blk[:, None] - rule.x)
                ).sum(axis=1)
        return out.reshape(lam.shape)
    t, w, psi = _psi_stage_values(sys, n, j - 1)
    out = np.empty(lam.shape, dtype=complex)
    for s in range(0, lam.size, 512):
        blk = lam.reshape(-1)[s : s + 512]
        out.reshape(-1)[s : s + 512] = (w * psi / (blk[:, None] - t)).sum(axis=1)
    return out


def _check_tail(sys: NikishinSystem, n: int, j: int) -> None:
    p = sys.sym.p
    if not 1 <= j <= p:
        raise ValueError("need 1 <= j <= p")
    ndx = multi_index(n, p)
    for i in range(2, j + 1):
        decay = ndx.components[i - 2] + 3 - i
        if decay < 1:
            raise TailDivergence(
                f"stage {i} integrand has tail degree {1.0 / p - 1.0 - decay:.3f}"
            )


def psi_values(sys: NikishinSystem, n: int, j: int, lams) -> np.ndarray:
    """Psi_{n,j} on an array of points off Gamma_j (shares the stage cache)."""
    _check_tail(sys, n, j)
    return _psi_at(sys, n, j, np.asarray(lams, dtype=complex))


def psi_iterated(sys: NikishinSystem, n: int, j: int, lam: complex) -> complex:
    """Psi_{n,j}(lam) by the nested weighted Cauchy transforms.

    Psi_{n,0} = Q_n, Psi_{n,1} = int Q_n drho_1/(lam-x), and each later
    stage integrates the previous one against (x - lam_i) drho_i/(lam-x).
    Inner stages are evaluated once on frozen quadrature nodes and cached
    on the system, so repeated calls at new lam only pay the last stage.
    """
    _check_tail(sys, n, j)
    val = _psi_at(sys, n, j, np.array([complex(lam)]))
    return complex(val[0])
