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

Also here: the iterated weighted Cauchy transforms Psi_{n,j} of the
polynomial sequence and the orthogonalities checked with them.

This module alone turns the chain into frozen tanh-sinh rules, at one
fixed level per kind.  `product_measure` freezes the next measure once
per product.  A system keeps, through `NikishinSystem._once`, one rule
per weight it integrates against and the far-field moments of Psi_{n,1};
Psi stage values are rebuilt on each call.  Every Cauchy transform of a
frozen rule, in the product densities and in Psi_{n,j}, runs through one
kernel, `_cauchy_sum`, in blocks of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMomentSystem, TailDivergence
from .symbol import SymbolCoeffs, critical_structure
from .branches import pair_minus, rho_measure
from .quadrature import (
    FixedRule,
    MeasureHandle,
    build_fixed_rule,
    integrate,
    rule_apply,
)
from .polyseq import eval_Q, moments, multi_index

_LOG_FLOOR = math.log(1e-14) - 34.0
# entries (points x nodes) per block of the Cauchy kernel: 512 KiB real,
# 1 MiB complex.  Peak RSS of run_suite(full) on both desk symbols, by
# budget: 45.7 MB at 2^16, 47.1 MB at 2^17, 65 MB at 2^20.  Below 2^16
# the per-block overhead shows: the product-measure density runs 9%
# slower at 2^15 and 25% slower at 2^14
_BLOCK_ENTRIES = 1 << 16
_FAR_TERMS = 40  # moments in the 1/lam expansion of Psi_{n,1}


def _cauchy_sum(lam: np.ndarray, t: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """sum_i wf_i / (lam - t_i) at each point of the 1-d array lam.

    The (points, nodes) kernel is formed in place in one buffer of at
    most _BLOCK_ENTRIES entries, reused block after block.  Each row is
    the same subtraction, division and contiguous sum at any block size,
    so a row's sum does not depend on its block.
    """
    out = np.empty(lam.size, dtype=np.result_type(lam, t, wf))
    rows = max(1, min(lam.size, _BLOCK_ENTRIES // max(t.size, 1)))
    buf = np.empty((rows, t.size), dtype=out.dtype)
    for s in range(0, lam.size, rows):
        r = min(rows, lam.size - s)
        blk = buf[:r]
        np.subtract(lam[s : s + r, None], t, out=blk)
        np.divide(wf, blk, out=blk)
        blk.sum(axis=1, out=out[s : s + r])
    return out


def product_measure(beta_j: MeasureHandle, beta_next: MeasureHandle) -> MeasureHandle:
    """Product measure <beta_j, beta_next> on the cut of beta_j.

    The density is (x - lam_next) * hat(beta_next)(x) * beta_j'(x) with
    lam_next the finite end of the next cut.  The Cauchy transform is
    evaluated through a frozen rule on beta_next by `_cauchy_sum`, all x
    of one call at once; this is safe because adjacent cuts are disjoint,
    so the kernel stays bounded on the support of beta_j.
    """
    if not beta_next.cut.is_ray:
        raise ValueError("next measure must live on a ray cut")
    lam_next = beta_next.cut.finite_end
    rule = build_fixed_rule(beta_next, level=8)
    keep = rule.logw - rule.logx > _LOG_FLOOR
    t = rule.x[keep]
    w = rule.w[keep]

    def dens(x):
        xa = np.asarray(x, dtype=float)
        hat = _cauchy_sum(xa.reshape(-1), t, w).reshape(xa.shape)
        val = (xa - lam_next) * hat * beta_j.density(xa)
        return val if xa.ndim else float(val)

    tail = None
    if beta_j.cut.is_ray:
        # hat(beta_next) falls like 1/x when beta_next has finite mass
        nxt = beta_next.tail_exponent
        tail = beta_j.tail_exponent + 1.0 + (-1.0 if nxt < -1.0 else nxt + 1.0)
    name = f"<{beta_j.name or 'beta'},{beta_next.name or 'beta'}>"
    return MeasureHandle(
        cut=beta_j.cut, density=dens,
        endpoint_exponents=beta_j.endpoint_exponents,
        tail_exponent=tail, name=name,
    )


def mu_density(sym: SymbolCoeffs, k: int, x):
    """Density of mu_k on Gamma_1: Im(z_{0,-}(x)^k) / pi."""
    xa = np.asarray(x, dtype=float)
    zm = pair_minus(sym, 1, np.atleast_1d(xa))
    val = np.imag(zm**k) / np.pi
    return val.reshape(xa.shape) if xa.ndim else float(val[0])


def _mu_measure(sym: SymbolCoeffs, k: int) -> MeasureHandle:
    def dens(xs):
        return mu_density(sym, k, np.asarray(xs, dtype=float))

    return MeasureHandle(
        cut=critical_structure(sym).cut(1), density=dens,
        endpoint_exponents=(0.5, 0.5), tail_exponent=None, name=f"mu_{k}",
    )


@dataclass
class NikishinSystem:
    """The full chain for one symbol.

    rho[j-1] lives on Gamma_j; sigma[j-1] and mu[j-1] live on Gamma_1.
    c is lower triangular with unit diagonal and mu_j = sum_k c[j,k] sigma_k
    (1-based in the math, 0-based in the array).  The memo holds one
    frozen rule per weight (p sigma_j and p(p-1)/2 flat rules at most) and
    40 far-field moments of Psi_{n,1} per n, each built on first use.
    The cuts are those of `critical_structure(sym)`; the symbol does not
    hold its system, so dropping the symbol frees the chain at once.
    """

    sym: SymbolCoeffs
    rho: list[MeasureHandle]
    sigma: list[MeasureHandle]
    c: np.ndarray
    mu: list[MeasureHandle]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def _once(self, key: tuple, make):
        """make(), called on the first request for `key` only."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def sigma_rule(self, j: int) -> FixedRule:
        """Frozen level-8 rule for sigma_j."""
        return self._once(("sigma", j),
                          lambda: build_fixed_rule(self.sigma[j - 1], level=8))


def _chain(rho: list[MeasureHandle], j: int, k: int) -> MeasureHandle:
    """rho_{j,k} = <rho_j, <rho_{j+1}, ..., rho_k>> on Gamma_j; sigma_k = rho_{1,k}."""
    m = rho[k - 1]
    for i in range(k - 1, j - 1, -1):
        m = product_measure(rho[i - 1], m)
    return m


def _sigma_moment(sig: MeasureHandle, m: int) -> float:
    res = integrate(sig, (lambda x: x**m) if m else None, f_tail_degree=m,
                    rel_tol=1e-11, abs_tol=1e-13)
    return float(np.real(res.value))


def build_system(sym: SymbolCoeffs) -> NikishinSystem:
    """Assemble rho, sigma, mu and the mixing constants for one symbol.

    The constants c_{j,k} solve the moment equations
    sum_k c_{j,k} int x^m dsigma_k = int x^m dmu_j for m = 0..j-1, with
    exact left sides int x^m dmu_j = L_j(x^m) - L_{j-1}(x^m) from the
    band moment functionals.
    """
    p = sym.p
    rho = [rho_measure(sym, j) for j in range(1, p + 1)]
    sigma = [_chain(rho, 1, k) for k in range(1, p + 1)]
    mu = [_mu_measure(sym, k) for k in range(1, p + 1)]

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
    return NikishinSystem(sym=sym, rho=rho, sigma=sigma, c=c, mu=mu)


# ---- frozen rules of the chain ----

def _flat_rule(sys: NikishinSystem, j: int, k: int) -> tuple[FixedRule, float]:
    """Frozen rule for (x - lam_{j+1}) drho_{j+1,k}(x), plus its tail degree.

    The base weight (x - lam_{j+1}) rho_{j+1}'(x) = Im z_{j,-}(x)/pi folds
    the linear factor into the density: it stays bounded at the branch
    point and has tail degree +1/p instead of the non-integrable 1/p - 1
    of rho_{j+1} alone.  For k > j+1 the rest of the chain multiplies it
    as one more product measure.
    """

    def make():
        def dens(xs):
            xa = np.atleast_1d(np.asarray(xs, dtype=float))
            return np.imag(pair_minus(sys.sym, j + 1, xa)) / np.pi

        flat = MeasureHandle(
            cut=critical_structure(sys.sym).cut(j + 1), density=dens,
            endpoint_exponents=(0.5, 0.5), tail_exponent=1.0 / sys.sym.p,
            name=f"flat_rho_{j + 1}",
        )
        if k > j + 1:
            flat = product_measure(flat, _chain(sys.rho, j + 2, k))
        return build_fixed_rule(flat, level=7), flat.tail_exponent

    return sys._once(("flat", j, k), make)


# ---- second-type functions ----

def _psi_stage_values(sys: NikishinSystem, n: int, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of Psi_{n,j} at the nodes of the stage-(j+1) flat rule.

    Returns (nodes, weights, psi values) ready for one more transform.
    Built afresh on each call and not kept: callers ask for a different n
    each time, so only the flat rule under the arrays is worth keeping.
    """
    decay = multi_index(n, sys.sym.p).components[j - 1] + 2 - j
    rule_next, _ = _flat_rule(sys, j, j + 1)
    # tail mask: Psi_{n,j}(t)/(lam-t) falls like t^{-decay-1} against the
    # stage weight, which itself grows like t^{1/p}
    keep = rule_next.logw - (decay + 1) * rule_next.logx > _LOG_FLOOR
    t = rule_next.x[keep]
    return t, rule_next.w[keep], _psi_at(sys, n, j, t)


def _psi_far_coeffs(sys: NikishinSystem, n: int) -> tuple[int, np.ndarray]:
    """(n_1, moments int t^m Q_n drho_1 for m = n_1, ..., n_1 + _FAR_TERMS - 1).

    They power the 1/lam expansion of Psi_{n,1}; the terms w x^m Q_n(x)
    are one running product in m, with no power table.  Moments below n_1
    vanish by orthogonality and are pinned to zero, not kept as quadrature
    noise, which would dominate far out where the true value is below eps.
    """

    def make():
        rule = sys.sigma_rule(1)
        m0 = int(multi_index(n, sys.sym.p).components[0])
        t = rule.w * rule.x ** m0 * eval_Q(sys.sym, n, rule.x)
        c = np.empty(_FAR_TERMS, dtype=t.dtype)
        for i in range(_FAR_TERMS):
            c[i] = t.sum()
            t *= rule.x
        return m0, c

    return sys._once(("far", n), make)


def _psi_at(sys: NikishinSystem, n: int, j: int, lam: np.ndarray) -> np.ndarray:
    """Psi_{n,j} evaluated at an array of points off Gamma_j."""
    flat = lam.reshape(-1)
    if j > 1:
        t, w, psi = _psi_stage_values(sys, n, j - 1)
        return _cauchy_sum(flat, t, w * psi).reshape(lam.shape)
    rule = sys.sigma_rule(1)
    lo, hi = critical_structure(sys.sym).cut(1).endpoints()
    far = np.abs(flat) > 3.0 * max(abs(lo), abs(hi))
    out = np.empty(flat.shape, dtype=complex)
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
        wq = rule.w * eval_Q(sys.sym, n, rule.x)
        out[~far] = _cauchy_sum(flat[~far], rule.x, wq)
    return out.reshape(lam.shape)


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
    """Psi_{n,j} on an array of points off Gamma_j."""
    _check_tail(sys, n, j)
    return _psi_at(sys, n, j, np.asarray(lams, dtype=complex))


# ---- orthogonalities ----

def orthogonality_residual(sys: NikishinSystem, qn: np.ndarray, j: int,
                           k: int) -> tuple[float, float]:
    """(residual, scale) of int x^k Q_n(x) dsigma_j(x) by the frozen sigma_j rule.

    The residual is the integral's modulus, the scale
    int |x^k Q_n| d|sigma_j| its natural size.
    """
    coef = np.asarray(qn, dtype=float)
    rule = sys.sigma_rule(j)

    def f(x):
        return x**k * np.polynomial.polynomial.polyval(x, coef)

    val, _ = rule_apply(rule, f)
    fv = np.abs(rule.x) ** k * np.abs(np.polynomial.polynomial.polyval(rule.x, coef))
    return abs(val), float((np.abs(rule.w) * fv).sum())


def orthogonality_second_kind(sys: NikishinSystem, n: int, j: int, k: int,
                              nu_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, scales) of int x^nu Psi_{n,j}(x) (x - lam_{j+1}) drho_{j+1,k}(x),
    nu = 0..nu_max, from one evaluation of Psi_{n,j}.

    The integrals vanish for nu <= n_k - delta_j - 1 (delta_1 = 0, else 1);
    nu = n_k - delta_j is the first live moment.  Each scale is
    int |x^nu Psi_{n,j}| |x - lam_{j+1}| d|rho_{j+1,k}|.
    """
    p = sys.sym.p
    if not (1 <= j <= p - 1 and j + 1 <= k <= p):
        raise ValueError("need 1 <= j <= p-1 and j+1 <= k <= p")
    rule, tail = _flat_rule(sys, j, k)
    decay = multi_index(n, p).components[j - 1] + 2 - j
    if nu_max - decay + tail >= -1.0:
        raise TailDivergence(
            f"integrand tail degree {nu_max - decay + tail:.3f} is not integrable"
        )
    # logx >= 0, so a node kept for one nu is kept for every larger nu
    keep = rule.logw + (nu_max - decay) * rule.logx > _LOG_FLOOR
    x, w, logw, logx = rule.x[keep], rule.w[keep], rule.logw[keep], rule.logx[keep]
    psi = psi_values(sys, n, j, x)
    residuals, scales = np.empty(nu_max + 1), np.empty(nu_max + 1)
    for nu in range(nu_max + 1):
        live = logw + (nu - decay) * logx > _LOG_FLOOR
        terms = w[live] * x[live] ** nu * psi[live]
        residuals[nu], scales[nu] = abs(terms.sum()), np.abs(terms).sum()
    return residuals, scales


def orthogonality_with_psi_zeros(sys: NikishinSystem, n: int, nu: int,
                                 zeros: np.ndarray) -> tuple[float, float]:
    """(residual, scale) of int x^nu Q_n(x) drho_1(x) / Q_{n,2}(x).

    Q_{n,2} is the monic polynomial vanishing at `zeros`, the second-kind
    zeros from `asymptotics.psi_zeros`; the integral vanishes for
    nu < N_{n,1}.
    """
    rule = sys.sigma_rule(1)
    q = eval_Q(sys.sym, n, rule.x)
    den = np.prod(rule.x[:, None] - zeros[None, :], axis=1) if zeros.size else 1.0
    fv = rule.x**nu * q / den
    terms = rule.w * fv
    return abs(float(terms.sum())), float(np.abs(terms).sum())
