"""Root finding: batched polynomial roots and bracketed bisection.

The workhorse is an Aberth-Ehrlich iteration vectorized over a batch of
polynomials that share one degree.  Initial points follow Bini's
convex-hull radii so that widely separated root moduli (the normal
situation here: one root ~ 1/lambda, the rest ~ lambda^(1/p)) are seeded
on the right circles from the start.  The seeding, like the iteration,
is whole-batch array work: one hull pass over all rows, no Python loop
per row.

`bisect` is the one real-root refiner: every caller (zeros of Q_n,
section determinants, second-type zeros) holds sign-change brackets and
narrows them by signs alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonFinite

_MAX_ITER = 60


def _seed(coeffs: np.ndarray) -> np.ndarray:
    """Starting points for the whole batch, shape (m, deg).

    Bini's radii: per row, the upper convex hull of (i, log|c_i|), run as
    one Andrew monotone chain over all rows (a stack of hull indices per
    row, popped where the new point lies on or above the last segment).
    The deg roots are split among the hull edges (a, b), b - a of them on
    the circle |z| = (|c_a| / |c_b|)^(1/(b-a)).
    """
    m, n1 = coeffs.shape
    deg = n1 - 1
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(coeffs))  # log 0 = -inf: skipped below
    rows = np.arange(m)
    hull = np.zeros((m, n1), dtype=np.intp)
    size = np.ones(m, dtype=np.intp)
    for i in range(1, n1):
        li = logm[:, i]
        live = np.isfinite(li)
        while True:
            i0, i1 = hull[rows, size - 2], hull[rows, size - 1]
            l0, l1 = logm[rows, i0], logm[rows, i1]
            with np.errstate(invalid="ignore"):
                # keep turn clockwise: point i1 above segment (i0, i)
                keep = (l1 - l0) * (i - i0) >= (li - l0) * (i1 - i0)
            pop = live & (size >= 2) & ~keep
            if not pop.any():
                break
            size -= pop
        hull[live, size[live]] = i
        size += live

    # root t sits on hull edge e, from a = hull[e] <= t to b = hull[e + 1] > t
    on = np.zeros((m, n1), dtype=bool)
    r, k = np.nonzero(np.arange(n1) < size[:, None])
    on[r, hull[r, k]] = True
    e = np.cumsum(on, axis=1)[:, :deg] - 1
    row = rows[:, None]
    a, b = hull[row, e], hull[row, e + 1]
    radii = np.exp((logm[row, a] - logm[row, b]) / (b - a))
    # golden-angle phase spread breaks conjugate symmetry deadlocks
    base = np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.79))
    return radii * base


def _horner_pair(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate p(z) and p'(z); coeffs (m, n+1) low-to-high, z (m, deg)."""
    n = coeffs.shape[1] - 1
    p = np.empty_like(z)
    p[...] = coeffs[:, n:n + 1]
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
           steps: int, per_call: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Narrow brackets [lo, hi] around sign changes of a vectorized f.

    `sign_lo` is np.sign(f(lo)), which the caller already holds.  Only
    signs are compared, never products of values, so tiny magnitudes
    cannot underflow into a false "no change".  An exact zero at a
    midpoint collapses its bracket there.  Returns the final (lo, hi).

    With per_call = d > 1, f takes the 2^d - 1 midpoints the next d steps
    could visit, shape (2^d - 1, *lo.shape) in heap order (row j halves
    into rows 2j + 1 and 2j + 2), and d must divide `steps`; the result
    is bit for bit that of d single steps.
    """
    if steps % per_call:
        raise ValueError(f"per_call={per_call} does not divide steps={steps}")
    # brackets run flat, column c of every tree level belonging to bracket c
    shape = lo.shape
    lo, hi, sign_lo = np.ravel(lo), np.ravel(hi), np.ravel(sign_lo)
    cols = np.arange(lo.size)
    for _ in range(steps // per_call):
        levels, blo, bhi = [], lo[None], hi[None]
        for depth in range(per_call):
            mid = 0.5 * (blo + bhi)
            levels.append(mid)
            if depth + 1 < per_call:  # the last level's children go unread
                rows = (2 * len(mid), lo.size)
                blo = np.stack((blo, mid), axis=1).reshape(rows)
                bhi = np.stack((mid, bhi), axis=1).reshape(rows)
        tree = np.concatenate(levels)
        x = tree.reshape(len(tree), *shape) if per_call > 1 else tree.reshape(shape)
        signs = np.sign(f(x)).reshape(tree.shape)
        node = np.zeros(lo.size, dtype=np.intp)
        for _ in range(per_call):
            # a collapsed bracket (lo == hi) stays put whatever s reads
            mid = 0.5 * (lo + hi)
            s = signs[node, cols]
            same = s == sign_lo
            lo = np.where(same | (s == 0.0), mid, lo)
            hi = np.where(same, hi, mid)
            node = 2 * node + 1 + same
    return lo.reshape(shape), hi.reshape(shape)
