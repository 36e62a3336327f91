"""Measure handles and adaptive tanh-sinh quadrature on cuts.

Supported geometries are the two shapes cuts take: finite intervals and
closed half lines.  Intervals map affinely onto the tanh-sinh abscissas,
whose double-exponential clustering absorbs the inverse-square-root
endpoint densities; rays use x = e +/- s/(1 - s), s in [0, 1), which
keeps the endpoint power integrable and compactifies the algebraic tail.

A density with exponent alpha < 0 holds nonnegligible mass inside the
last representable float before the endpoint, so evaluating it at node
values of x alone caps accuracy near 1e-8.  The declared exponents fix
this: each node weight carries the exact singular factor computed in the
substitution variable, times the ratio to the same factor at the
attainable x, so the density callable only ever contributes its
continuous part.

Densities are vectorized callables; node weights fold in the density and
the substitution Jacobian, so a fixed rule is just (x, w) plus masking
metadata for far-tail nodes whose declared contribution is negligible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonIntegrable, OnCut
from .symbol import Cut

_T_MAX = 4.5
_H0 = 0.5
_DEFAULT_MAX_LEVEL = 10
_NEAR_CUT_FACTOR = 1e-3

@functools.lru_cache(maxsize=32)  # rules and integrals use levels 0..13
def _ts_new_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, 1-sigma, dsigma/dt) at the nodes first appearing at `level`.

    Level 0 is the full grid of spacing _H0; level L > 0 adds the odd
    multiples of _H0 / 2^L.  Cached per level, so the arrays are read-only.
    """
    h = _H0 / 2 ** level
    if level == 0:
        k_max = int(math.floor(_T_MAX / h))
        t = h * np.arange(-k_max, k_max + 1)
    else:
        k_max = int(math.floor(_T_MAX / h))
        ks = np.arange(-k_max, k_max + 1)
        t = h * ks[ks % 2 != 0]
    y = 0.5 * np.pi * np.sinh(t)
    e = np.exp(-2.0 * np.abs(y))
    small = e / (1.0 + e)          # min(sigma, 1-sigma)
    big = 1.0 / (1.0 + e)
    sig = np.where(y >= 0, big, small)
    omsig = np.where(y >= 0, small, big)
    # dsigma/dt = pi*cosh(t) / (4*cosh(y)^2); cosh(y)^2 = (e^y+e^-y)^2/4
    sech2 = 4.0 * e / (1.0 + e) ** 2
    dsig = 0.25 * np.pi * np.cosh(t) * sech2
    for arr in (sig, omsig, dsig):
        arr.flags.writeable = False
    return sig, omsig, dsig


@dataclass(frozen=True)
class MeasureHandle:
    """A measure given by a density on one cut.

    endpoint_exponents declares the power-law behavior of the density at
    the (lo, hi) endpoints; a slot facing an infinite end is ignored.
    tail_exponent is the power-law degree of the density at infinity for
    rays, None for intervals; it also says whether the mass is finite
    (below -1).  The density callable must accept numpy arrays and be
    pointwise: its value at x must not depend on the other points in the
    call, since rules and sums evaluate several levels' nodes at once.
    """

    cut: Cut
    density: Callable[[np.ndarray], np.ndarray]
    endpoint_exponents: tuple[float, float]
    tail_exponent: float | None
    name: str = ""


@dataclass
class QuadResult:
    value: complex
    error: float
    levels: int
    evals: int


@dataclass
class _Piece:
    """One substitution domain: interval or ray with endpoint exponents.

    `nodes` returns clamped abscissas x and multipliers M such that the
    node weight is density(x) * M.  M folds in the Jacobian and the
    ratio of the true singular endpoint factor (computed from the
    substitution variable, immune to x-rounding) to the factor at the
    clamped x, which cancels the singular part of the density there.
    """

    kind: str  # "interval" | "ray_up" | "ray_down"
    a: float   # interval lo / ray finite end
    b: float   # interval hi (ignored for rays)
    alpha_lo: float = 0.0
    alpha_hi: float = 0.0  # rays: exponent at the finite end

    def nodes(self, level: int, scale: float):
        sig, omsig, dsig = _ts_new_nodes(level)
        if self.kind == "interval":
            r = self.b - self.a
            x = np.where(sig <= 0.5, self.a + r * sig, self.b - r * omsig)
            delta = 8e-16 * max(scale, r)
            x = np.clip(x, self.a + delta, self.b - delta)
            m = r * dsig
            if self.alpha_lo != 0.0:
                m = m * ((r * sig) / (x - self.a)) ** self.alpha_lo
            if self.alpha_hi != 0.0:
                m = m * ((r * omsig) / (self.b - x)) ** self.alpha_hi
            return x, m
        x_rel = sig / omsig
        delta = 1e-15 * max(1.0, abs(self.a))
        x_c = np.maximum(x_rel, delta)
        if self.kind == "ray_up":
            x = self.a + x_c
            d_cl = x - self.a
        else:
            x = self.a - x_c
            d_cl = self.a - x
        m = dsig / omsig ** 2
        alpha = self.alpha_hi
        if alpha != 0.0:
            m = m * (x_rel / d_cl) ** alpha
        return x, m


def _sum_piece(
    piece: _Piece,
    density: Callable,
    f: Callable | None,
    f_tail_degree: float,
    rel_tol: float,
    abs_tol: float,
    max_level: int,
    scale: float,
) -> QuadResult:
    """Adaptive tanh-sinh sum of density * f over one piece."""
    total = 0.0 + 0.0j
    evals = 0
    prev = None
    log_floor = math.log(abs_tol) - 32.0
    # levels 0-2 always run (the first convergence test is at level 2),
    # so their nodes share one density call
    first = [piece.nodes(level, scale) for level in range(min(3, max_level + 1))]
    dens = np.split(density(np.concatenate([x for x, _ in first])),
                    np.cumsum([x.size for x, _ in first])[:-1])
    for level in range(0, max_level + 1):
        if level < len(first):
            (x, jac), d = first[level], dens[level]
        else:
            x, jac = piece.nodes(level, scale)
            d = density(x)
        w = d * jac
        w = np.where(np.isfinite(w), w, 0.0)
        if f is None:
            fv = np.ones_like(x)
        else:
            absw = np.abs(w)
            with np.errstate(divide="ignore"):
                logc = np.log(np.where(absw > 0, absw, 1e-320))
            logc = logc + f_tail_degree * np.log(np.maximum(np.abs(x), 1.0))
            keep = (absw > 0) & (logc > log_floor)
            fv = np.zeros(x.shape, dtype=complex)
            if keep.any():
                fv[keep] = f(x[keep])
            w = np.where(keep, w, 0.0)
        evals += x.size
        terms = w * fv
        terms = np.where(np.isfinite(terms), terms, 0.0)
        h = _H0 / 2 ** level
        if level == 0:
            total = h * terms.sum()
        else:
            total = 0.5 * total + h * terms.sum()
        if level >= 2 and prev is not None:
            err = abs(total - prev)
            if err <= max(rel_tol * abs(total), abs_tol):
                return QuadResult(value=total, error=err, levels=level, evals=evals)
        prev = total
    err = abs(total - prev) if prev is not None else math.inf
    if err <= max(10.0 * rel_tol * abs(total), 10.0 * abs_tol):
        return QuadResult(value=total, error=err, levels=max_level, evals=evals)
    raise NoConvergence(
        f"tanh-sinh stalled at level {max_level}: value {total:.8g}, "
        f"last delta {err:.3e}"
    )


def _pieces_for(m: MeasureHandle) -> list[_Piece]:
    c = m.cut
    al, ah = m.endpoint_exponents
    if not c.is_ray:
        return [_Piece("interval", c.lo, c.hi, alpha_lo=al, alpha_hi=ah)]
    if math.isinf(c.hi):
        return [_Piece("ray_up", c.lo, math.inf, alpha_hi=al)]
    return [_Piece("ray_down", c.hi, -math.inf, alpha_hi=ah)]


def _check_integrable(m: MeasureHandle, f_tail_degree: float) -> None:
    c = m.cut
    if not c.is_ray:
        if m.endpoint_exponents[0] <= -1.0 or m.endpoint_exponents[1] <= -1.0:
            raise NonIntegrable(
                f"endpoint exponents {m.endpoint_exponents} not integrable"
            )
        return
    fin_slot = 0 if math.isinf(c.hi) else 1
    if m.endpoint_exponents[fin_slot] <= -1.0:
        raise NonIntegrable(
            f"finite-end exponent {m.endpoint_exponents[fin_slot]} not integrable"
        )
    tau = m.tail_exponent if m.tail_exponent is not None else 0.0
    if tau + f_tail_degree >= -1.0:
        raise NonIntegrable(
            f"tail degree {tau} + {f_tail_degree} >= -1 diverges at infinity"
        )


def integrate(
    m: MeasureHandle,
    f: Callable | None = None,
    *,
    f_tail_degree: float = 0.0,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
    max_level: int = _DEFAULT_MAX_LEVEL,
) -> QuadResult:
    """Integral of f against the measure (f = None integrates the mass)."""
    _check_integrable(m, f_tail_degree)
    piece = _pieces_for(m)[0]
    res = _sum_piece(
        piece, m.density, f, f_tail_degree, rel_tol, abs_tol, max_level,
        m.cut.scale(),
    )
    if abs(res.value.imag) == 0.0:
        res.value = res.value.real
    return res


def cauchy_transform(
    m: MeasureHandle,
    lam: complex,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
) -> complex:
    """hat-m(lam) = integral of d m(x) / (lam - x), lam off the cut.

    Within 1e-3 * scale of the cut, a locally fitted quadratic of the
    density is subtracted and reinstated in closed form, which keeps the
    numerator of the remaining integrand vanishing at the near point.
    """
    lam = complex(lam)
    cut = m.cut
    scale = cut.scale()
    dist = cut.distance(lam)
    if dist <= 1e-12 * scale:
        raise OnCut(f"lambda = {lam:.8g} lies on the cut of {m.name or 'measure'}")

    def fker(x):
        return 1.0 / (lam - x)

    if dist >= _NEAR_CUT_FACTOR * scale:
        return integrate(
            m, fker, f_tail_degree=-1.0, rel_tol=rel_tol, abs_tol=abs_tol
        ).value

    # near-cut path
    x0 = min(max(lam.real, cut.lo), cut.hi)
    half = 0.02 * scale
    for e in cut.endpoints():
        alpha = m.endpoint_exponents[0 if e == cut.lo else 1]
        if alpha != 0.0:
            half = min(half, 0.45 * abs(x0 - e))
    if half < 4.0 * dist or half <= 0.0:
        # too close to a singular endpoint for a clean local fit
        return integrate(
            m, fker, f_tail_degree=-1.0, rel_tol=rel_tol, abs_tol=abs_tol,
            max_level=13,
        ).value

    w1, w2 = x0 - half, x0 + half
    xs = np.array([w1 + 1e-3 * half, x0, w2 - 1e-3 * half])
    dv = m.density(xs)
    # quadratic through the three fit points, powers of (x - x0)
    t = xs - x0
    V = np.vander(t, 3, increasing=True)
    c0, c1, c2 = np.linalg.solve(V, dv)

    la, lb = np.log(lam - w1), np.log(lam - w2)
    ell = la - lb
    d1, d2 = w1 - x0, w2 - x0
    i0 = ell
    i1 = -(w2 - w1) + (lam - x0) * ell
    i2 = -(d2 ** 2 - d1 ** 2) / 2.0 - (lam - x0) * (w2 - w1) + (lam - x0) ** 2 * ell
    closed = c0 * i0 + c1 * i1 + c2 * i2

    def f_sub(x):
        q = c0 + c1 * (x - x0) + c2 * (x - x0) ** 2
        return (m.density(x) - q) / (lam - x)

    win = _Piece("interval", w1, w2)
    rest = _sum_piece(
        win, lambda x: np.ones_like(x), f_sub, 0.0, rel_tol, abs_tol, 13, scale
    )

    al, ah = m.endpoint_exponents
    sides = (
        _Piece("ray_down", w1, -math.inf) if math.isinf(cut.lo)
        else _Piece("interval", cut.lo, w1, alpha_lo=al),
        _Piece("ray_up", w2, math.inf) if math.isinf(cut.hi)
        else _Piece("interval", w2, cut.hi, alpha_hi=ah),
    )
    outer = 0.0 + 0.0j
    for piece in sides:
        if piece.kind != "interval" or piece.a < piece.b:
            outer += _sum_piece(
                piece, m.density, fker, -1.0, rel_tol, abs_tol,
                _DEFAULT_MAX_LEVEL + 2, scale,
            ).value

    val = closed + rest.value + outer
    if lam.imag == 0.0 and abs(val.imag) < 1e-9 * (1.0 + abs(val.real)):
        return complex(val.real, 0.0)
    return val


# ---- fixed rules for batched reuse ----

@dataclass
class FixedRule:
    """Frozen nodes and signed weights (density folded in) at one level.

    `coarse` marks the subset forming the level-1 rule, so an error
    estimate costs one masked sum.  `logw` supports tail masking: a
    caller integrating an f with declared tail degree d keeps node i
    when logw[i] + d*log(max(|x[i]|,1)) is above its floor.
    """

    x: np.ndarray
    w: np.ndarray
    coarse: np.ndarray
    logw: np.ndarray
    logx: np.ndarray
    level: int


def build_fixed_rule(m: MeasureHandle, level: int = 7) -> FixedRule:
    piece = _pieces_for(m)[0]
    parts = [piece.nodes(lv, m.cut.scale()) for lv in range(0, level + 1)]
    # one density call over every level's nodes
    x = np.concatenate([x for x, _ in parts])
    w = m.density(x) * np.concatenate([jac for _, jac in parts])
    w = np.where(np.isfinite(w), w, 0.0)
    # every node carries fine-grid weight h; those first appearing at a
    # level lv <= level-1 are also on the coarse grid and are marked.
    w = w * (_H0 / 2 ** level)
    coarse = np.concatenate([np.full(x.shape, lv <= level - 1)
                             for lv, (x, _) in enumerate(parts)])
    keep = w != 0.0
    x, w, coarse = x[keep], w[keep], coarse[keep]
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(w))
    logx = np.log(np.maximum(np.abs(x), 1.0))
    return FixedRule(x=x, w=w, coarse=coarse, logw=logw, logx=logx, level=level)


def rule_apply(
    rule: FixedRule,
    f: Callable,
    *,
    f_tail_degree: float = 0.0,
    abs_tol: float = 1e-14,
) -> tuple[complex, float]:
    """(integral, error estimate) of f against the rule's measure."""
    keep = rule.logw + f_tail_degree * rule.logx > math.log(abs_tol) - 32.0
    fv = np.zeros(rule.x.shape, dtype=complex)
    if keep.any():
        fv[keep] = f(rule.x[keep])
    terms = np.where(keep, rule.w * fv, 0.0)
    terms = np.where(np.isfinite(terms), terms, 0.0)
    fine = terms.sum()
    coarse = 2.0 * terms[rule.coarse].sum()
    return fine, abs(fine - coarse)
