"""Root finding: batched polynomial roots and bracketed bisection.

The workhorse is an Aberth-Ehrlich iteration vectorized over a batch of
polynomials that share one degree.  Initial points follow Bini's
convex-hull radii so that widely separated root moduli (the normal
situation here: one root ~ 1/lambda, the rest ~ lambda^(1/p)) are seeded
on the right circles from the start.

`bisect` is the one real-root refiner: every caller (zeros of Q_n,
section determinants, second-type zeros) holds sign-change brackets and
narrows them by signs alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonFinite

_MAX_ITER = 60


def _bini_radii(coeffs: np.ndarray) -> np.ndarray:
    """Initial moduli for one coefficient row (low to high degree).

    Uses the upper convex hull of (i, log|c_i|).  Returns an array of
    length deg with one radius per initial point.
    """
    deg = coeffs.shape[0] - 1
    mags = np.abs(coeffs)
    logm = np.full(deg + 1, -np.inf)
    nz = mags > 0.0
    logm[nz] = np.log(mags[nz])

    # Andrew monotone chain, upper hull only.
    hull = [0]
    for i in range(1, deg + 1):
        if not np.isfinite(logm[i]):
            continue
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # keep turn clockwise: point i1 above segment (i0, i)
            if (logm[i1] - logm[i0]) * (i - i0) >= (logm[i] - logm[i0]) * (i1 - i0):
                break
            hull.pop()
        hull.append(i)

    radii = np.empty(deg)
    pos = 0
    for a, b in zip(hull[:-1], hull[1:]):
        r = np.exp((logm[a] - logm[b]) / (b - a))
        radii[pos:pos + (b - a)] = r
        pos += b - a
    return radii


def _seed(coeffs: np.ndarray) -> np.ndarray:
    """Starting points for the whole batch, shape (m, deg)."""
    m, n1 = coeffs.shape
    deg = n1 - 1
    out = np.empty((m, deg), dtype=complex)
    # golden-angle phase spread breaks conjugate symmetry deadlocks
    base = np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.79))
    for i in range(m):
        out[i] = _bini_radii(coeffs[i]) * base
    return out


def _horner_pair(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate p(z) and p'(z); coeffs (m, n+1) low-to-high, z (m, deg)."""
    n = coeffs.shape[1] - 1
    p = np.broadcast_to(coeffs[:, n:n + 1], z.shape).astype(complex).copy()
    dp = np.zeros_like(z)
    for k in range(n - 1, -1, -1):
        dp = dp * z + p
        p = p * z + coeffs[:, k:k + 1]
    return p, dp


def roots_batched(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of polynomials, shape (m, deg), unordered.

    `coeffs` has shape (m, deg+1), low degree first, complex or real.
    Residuals are polished with up to 3 Newton steps and checked against
    1e-10 * (1 + |root|) * scale of the polynomial.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    if not np.all(np.isfinite(coeffs)):
        raise NonFinite("polynomial coefficients must be finite")
    m, n1 = coeffs.shape
    deg = n1 - 1
    lead = coeffs[:, -1]
    if np.any(np.abs(lead) == 0.0):
        raise ConvergenceFailure("leading coefficient vanished in root solve")
    monic = coeffs / lead[:, None]

    z = _seed(monic)
    active = np.ones(m, dtype=bool)
    for _ in range(_MAX_ITER):
        za = z[active]
        p, dp = _horner_pair(monic[active], za)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p / dp
            diff = za[:, :, None] - za[:, None, :]
            np.einsum("ijj->ij", diff)[:] = 1.0  # silence the diagonal
            sums = (1.0 / diff).sum(axis=2) - 1.0
            step = newton / (1.0 - newton * sums)
        step = np.where(np.isfinite(step), step, newton)
        step = np.where(np.isfinite(step), step, 0.0)
        z[active] = za - step
        moved = np.abs(step) > 1e-14 * (1.0 + np.abs(za))
        still = moved.any(axis=1)
        idx = np.flatnonzero(active)
        active[idx[~still]] = False
        if not active.any():
            break

    # Newton polish, full batch.
    for _ in range(3):
        p, dp = _horner_pair(monic, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step

    p, _ = _horner_pair(monic, z)
    scale = np.abs(monic).sum(axis=1, keepdims=True)
    bad = np.abs(p) > 1e-10 * scale * np.maximum(1.0, np.abs(z)) ** deg
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConvergenceFailure(
            f"residual {abs(p[i, j]):.3e} at root {z[i, j]:.6g} "
            f"(batch row {i}) exceeds tolerance"
        )
    return z


def roots_single(coeffs: np.ndarray) -> np.ndarray:
    """Roots of one polynomial (1-d coefficient array, low to high)."""
    return roots_batched(np.asarray(coeffs)[None, :])[0]


def bisect(f, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray,
           steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Narrow brackets [lo, hi] around sign changes of a vectorized f.

    `sign_lo` is np.sign(f(lo)), which the caller already holds.  Only
    signs are compared, never products of values, so tiny magnitudes
    cannot underflow into a false "no change".  An exact zero at a
    midpoint collapses its bracket there.  Returns the final (lo, hi).
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        s = np.sign(f(mid))
        same = s == sign_lo
        lo = np.where(same | (s == 0.0), mid, lo)
        hi = np.where(same, hi, mid)
    return lo, hi
