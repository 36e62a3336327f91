"""Root finding: batched polynomial roots and bracketed real roots.

The workhorse is an Aberth-Ehrlich iteration vectorized over a batch of
polynomials that share one degree.  Initial points follow Bini's
convex-hull radii so that widely separated root moduli (the normal
situation here: one root ~ 1/lambda, the rest ~ lambda^(1/p)) are seeded
on the right circles from the start.  The seeding, like the iteration,
is whole-batch array work: one hull pass over all rows, no Python loop
per row.  Rows are independent: a row's roots are bit for bit the same
whatever rows share its batch and wherever it sits, so callers hand over
every polynomial they know in one call, solved _BLOCK_ROWS at a time.

Real roots come from sign-change brackets, closed one of two ways.
`newton_bracketed` takes safeguarded Newton steps where the caller has
f/f' (second-type zeros, section determinants); `bisect` narrows by
signs alone where it has only a sign, as for the Sturm counts of Q_n.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonFinite

_MAX_ITER = 60
# rows per block: a 7,681-row branch solve traces at 3.0 MB, 6.8 MB unblocked
_BLOCK_ROWS = 2048
# Newton steps per bracket before giving up: Psi_{n,1} brackets settle in
# at most 11 and the widest P_{60,1} bracket of (0,7,3) in 34
_NEWTON_CAP = 100


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
    Roots are polished with 3 Newton steps, and a root z is accepted when
    |p(z)| <= 1e-10 * sum_k |c_k| |z|^k, a relative backward error of at
    most 1e-10 in the coefficients; otherwise `ConvergenceFailure`.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    if not np.all(np.isfinite(coeffs)):
        raise NonFinite("polynomial coefficients must be finite")
    lead = coeffs[:, -1]
    if np.any(np.abs(lead) == 0.0):
        raise ConvergenceFailure("leading coefficient vanished in root solve")
    monic = coeffs / lead[:, None]
    z = np.empty_like(monic[:, 1:])
    for s in range(0, len(monic), _BLOCK_ROWS):
        z[s : s + _BLOCK_ROWS] = _aberth(monic[s : s + _BLOCK_ROWS], s)
    return z


def _aberth(monic: np.ndarray, first: int) -> np.ndarray:
    """Roots of the monic rows, which start at batch row `first`."""
    z = _seed(monic)
    # the rows still iterating, kept compacted; a row is written back to z
    # when it stops moving
    rows, za, ma = np.arange(len(monic)), z, monic
    for _ in range(_MAX_ITER):
        p, dp = _horner_pair(ma, za)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p / dp
            diff = za[:, :, None] - za[:, None, :]
            np.einsum("ijj->ij", diff)[:] = 1.0  # silence the diagonal
            sums = (1.0 / diff).sum(axis=2) - 1.0
            step = newton / (1.0 - newton * sums)
        step = np.where(np.isfinite(step), step, newton)
        step = np.where(np.isfinite(step), step, 0.0)
        still = (np.abs(step) > 1e-14 * (1.0 + np.abs(za))).any(axis=1)
        za = za - step
        if not still.all():
            z[rows[~still]] = za[~still]
            rows, za, ma = rows[still], za[still], ma[still]
        if not rows.size:
            break
    z[rows] = za

    # Newton polish, full block.
    for _ in range(3):
        p, dp = _horner_pair(monic, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step

    p, _ = _horner_pair(monic, z)
    # backward-error scale: sum_k |c_k| |z|^k
    scale, _ = _horner_pair(np.abs(monic), np.abs(z))
    bad = np.abs(p) > 1e-10 * scale
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConvergenceFailure(
            f"residual {abs(p[i, j]):.3e} at root {z[i, j]:.6g} "
            f"(batch row {first + i}) exceeds tolerance"
        )
    return z


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


def newton_bracketed(fdf, lo: np.ndarray, hi: np.ndarray,
                     sign_lo: np.ndarray) -> np.ndarray:
    """Roots of a vectorized f in sign-change brackets, by safeguarded Newton.

    fdf(x) takes a 1-d array and returns (f(x), f(x)/f'(x)); only the sign
    of f is read, as in `bisect`, and `sign_lo` is np.sign(f(lo)).  A
    bracket may run either way (lo > hi).  Each row starts at its midpoint
    and narrows its bracket by the sign of f at every point it visits.  It
    stops once the step is at most 2 ulp of x, returning x - step clipped
    into the bracket, at an exact zero, or once the bracket holds only two
    adjacent floats.  Otherwise its next point is x - step when that is
    finite and strictly inside the bracket, and the midpoint when not.
    Rows that stop leave the batch, so a row's root does not depend on its
    batch.  `ConvergenceFailure` after _NEWTON_CAP steps.
    """
    shape = np.shape(lo)
    lo, hi = np.ravel(lo).astype(float), np.ravel(hi).astype(float)
    sign_lo = np.ravel(sign_lo)
    out = np.empty(lo.size)
    rows = np.arange(lo.size)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_CAP):
        if not rows.size:
            break
        f, step = fdf(x)
        s = np.sign(f)
        same = s == sign_lo
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        a, b = np.minimum(lo, hi), np.maximum(lo, hi)
        with np.errstate(invalid="ignore", over="ignore"):
            new = x - step
            # before the inside test: a last sub-ulp step may round onto an end
            conv = np.abs(step) <= 2.0 * np.spacing(np.abs(x))
            inside = (new > a) & (new < b)
        done = (s == 0.0) | conv | (np.nextafter(a, b) >= b)
        root = np.where(conv & (s != 0.0), np.clip(new, a, b), x)
        out[rows[done]] = root[done]
        x = np.where(inside, new, 0.5 * (a + b))
        keep = ~done
        rows, x, lo, hi, sign_lo = rows[keep], x[keep], lo[keep], hi[keep], sign_lo[keep]
    if rows.size:
        raise ConvergenceFailure(
            f"{rows.size} bracketed roots did not settle in {_NEWTON_CAP} Newton steps"
        )
    return out.reshape(shape)
