import numpy as np
import pytest

from symlab.rootfind import _seed, bisect


def _run(f, lo, hi, steps, per_call):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return bisect(f, lo, hi, np.sign(f(lo)), steps, per_call=per_call)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# sign changes of cos at -pi/2, pi/2, 3pi/2, 5pi/2, 7pi/2; the last
# bracket runs downward (lo > hi), which the step rule allows
COS_LO = [-2.0, 0.0, 3.0, 6.0, 10.0, 2.0]
COS_HI = [-1.0, 3.0, 6.0, 9.0, 11.0, 1.0]


@pytest.mark.parametrize("steps", [48, 60])
@pytest.mark.parametrize("per_call", [2, 3, 4])
def test_multisection_matches_single_steps_on_cos(steps, per_call):
    want = _run(np.cos, COS_LO, COS_HI, steps, 1)
    _assert_same_bits(_run(np.cos, COS_LO, COS_HI, steps, per_call), want)
    # brackets of any shape: the tree rows stack on a new leading axis
    lo2, hi2 = np.reshape(COS_LO, (2, 3)), np.reshape(COS_HI, (2, 3))
    want2 = _run(np.cos, lo2, hi2, steps, 1)
    _assert_same_bits(want2, tuple(w.reshape(2, 3) for w in want))
    _assert_same_bits(_run(np.cos, lo2, hi2, steps, per_call), want2)
    np.testing.assert_allclose(0.5 * (want[0] + want[1]),
                               np.array([-1, 1, 3, 5, 7, 1]) * np.pi / 2, atol=1e-14)


@pytest.mark.parametrize("per_call", [2, 3, 4])
def test_multisection_collapses_on_exact_zero(per_call):
    # f(x) = x hits 0 exactly at step 1 on [-1, 1], at step 2 on [-3, 1],
    # ..., at step 5 on [-31, 1]: inside and across a multisection call
    lo = [-1.0, -3.0, -7.0, -15.0, -31.0, -1.0]
    hi = [1.0, 1.0, 1.0, 1.0, 1.0, 3.0]
    want = _run(lambda x: x, lo, hi, 48, 1)
    assert np.all(want[0] == 0.0) and np.all(want[1] == 0.0)
    _assert_same_bits(_run(lambda x: x, lo, hi, 48, per_call), want)


@pytest.mark.parametrize("per_call", [1, 2, 4])
def test_f_receives_the_midpoint_tree(per_call):
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return np.cos(x)

    lo, hi = np.array(COS_LO), np.array(COS_HI)
    bisect(f, lo, hi, np.sign(np.cos(lo)), 8, per_call=per_call)
    rows = () if per_call == 1 else (2**per_call - 1,)
    assert shapes == [rows + lo.shape] * (8 // per_call)


@pytest.mark.parametrize("per_call", [1, 4])
def test_no_brackets(per_call):
    empty = np.empty(0)
    lo, hi = bisect(np.cos, empty, empty, empty, 60, per_call=per_call)
    assert lo.shape == hi.shape == (0,)


def test_per_call_must_divide_steps():
    lo, hi = np.array([0.0]), np.array([3.0])
    with pytest.raises(ValueError, match="does not divide"):
        bisect(np.cos, lo, hi, np.sign(np.cos(lo)), 48, per_call=5)


# ---- seeding: the batched hull against the per-row loop it replaced ----

def _bini_radii_reference(coeffs):
    """Bini radii of one row by a scalar monotone chain (upper hull only)."""
    deg = coeffs.shape[0] - 1
    mags = np.abs(coeffs)
    logm = np.full(deg + 1, -np.inf)
    nz = mags > 0.0
    logm[nz] = np.log(mags[nz])
    hull = [0]
    for i in range(1, deg + 1):
        if not np.isfinite(logm[i]):
            continue
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            if (logm[i1] - logm[i0]) * (i - i0) >= (logm[i] - logm[i0]) * (i1 - i0):
                break
            hull.pop()
        hull.append(i)
    radii = np.empty(deg)
    pos = 0
    for a, b in zip(hull[:-1], hull[1:]):
        radii[pos:pos + (b - a)] = np.exp((logm[a] - logm[b]) / (b - a))
        pos += b - a
    return radii


def _seed_reference(coeffs):
    m, n1 = coeffs.shape
    deg = n1 - 1
    out = np.empty((m, deg), dtype=complex)
    base = np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.79))
    for i in range(m):
        out[i] = _bini_radii_reference(coeffs[i]) * base
    return out


def _random_rows(rng, m, deg):
    """Complex rows, monic, with zero coefficients and moduli over 1e+-20."""
    shape = (m, deg + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= 10.0 ** rng.uniform(-20.0, 20.0, shape)
    c[rng.random(shape) < 0.3] = 0.0
    c[: m // 4, 0] = 0.0  # zero constant term: a root at 0
    c[:, -1] = 1.0
    return c


@pytest.mark.parametrize("deg", range(1, 7))
def test_seed_matches_per_row_hull(deg):
    rng = np.random.default_rng(deg)
    for m in (0, 1, 2, 7, 64):
        for _ in range(10):
            c = _random_rows(rng, m, deg)
            got, want = _seed(c), _seed_reference(c)
            assert got.shape == want.shape == (m, deg) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    # every interior coefficient zero: the hull is the one edge (0, deg)
    c = np.zeros((3, deg + 1), dtype=complex)
    c[:, 0], c[:, -1] = [1.0, 1e-20, 1e20], 1.0
    assert _seed(c).tobytes() == _seed_reference(c).tobytes()
    # the hull shapes the circles: z^deg - 1e20 z^(deg-1) has roots 0 and
    # 1e20, and the seeds start on those two radii
    c = np.zeros((1, deg + 1), dtype=complex)
    c[0, -2:] = -1e20, 1.0
    radii = np.abs(_seed(c)[0])
    assert radii[-1] == pytest.approx(1e20) and np.all(radii[:-1] == 0.0)
