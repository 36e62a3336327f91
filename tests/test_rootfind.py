import hashlib
import tracemalloc

import numpy as np
import pytest

from symlab import critical_structure, rootfind
from symlab.branches import solve_grid
from symlab.cubic import CubicParams, cubic_build
from symlab.errors import ConvergenceFailure
from symlab.rootfind import _seed, bisect, newton_bracketed, roots_batched


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


# ---- safeguarded Newton in sign-change brackets ----

def _cos_fdf(x):
    with np.errstate(divide="ignore"):  # at x = 0, an end of one bracket
        return np.cos(x), -np.cos(x) / np.sin(x)


def _newton(fdf, lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return newton_bracketed(fdf, lo, hi, np.sign(fdf(lo)[0]))


def test_newton_finds_cos_zeros_to_2_ulps():
    # COS_HI/COS_LO's last bracket runs downward, and so does every bracket
    # given the other way round
    want = np.array([-1, 1, 3, 5, 7, 1]) * np.pi / 2
    for lo, hi in ((COS_LO, COS_HI), (COS_HI, COS_LO)):
        got = _newton(_cos_fdf, lo, hi)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.all((got - np.minimum(lo, hi)) * (got - np.maximum(lo, hi)) <= 0)


def test_newton_keeps_the_bracket_shape():
    lo2, hi2 = np.reshape(COS_LO, (2, 3)), np.reshape(COS_HI, (2, 3))
    got = _newton(_cos_fdf, lo2, hi2)
    _assert_same_bits([got], [_newton(_cos_fdf, COS_LO, COS_HI).reshape(2, 3)])
    assert _newton(_cos_fdf, np.empty(0), np.empty(0)).shape == (0,)


def test_newton_stops_on_an_exact_zero_at_the_midpoint():
    calls = []

    def fdf(x):
        calls.append(x.copy())
        return x, np.full_like(x, 0.25)  # a step that would move it

    got = _newton(fdf, [-1.0, -3.0], [1.0, 3.0])
    assert np.all(got == 0.0) and len(calls) == 2  # the sign at lo, then one step


def test_newton_halves_where_the_step_is_not_finite():
    # f = x - 0.3 on [0, 1]: a nan step at the midpoint 0.5 sends the row to
    # the midpoint of [0, 0.5]; from there the steps are exact
    seen = []

    def fdf(x):
        seen.append(x.copy())
        step = np.where(x == 0.5, np.nan, x - 0.3)
        return x - 0.3, step

    got = _newton(fdf, [0.0], [1.0])
    assert [float(x[0]) for x in seen[1:3]] == [0.5, 0.25]
    assert abs(got[0] - 0.3) <= 2 * np.spacing(0.3)


def test_newton_row_alone_matches_its_batch():
    lo, hi = np.array(COS_LO), np.array(COS_HI)
    batch = _newton(_cos_fdf, lo, hi)
    for i in range(lo.size):
        alone = _newton(_cos_fdf, lo[i : i + 1], hi[i : i + 1])
        assert alone.tobytes() == batch[i : i + 1].tobytes()


def test_newton_refuses_a_row_that_never_settles():
    # the step always moves 1e-12 toward the root at 0.3 and stays inside:
    # neither converged nor collapsed within the cap
    def fdf(x):
        return x - 0.3, np.full_like(x, 1e-12)

    with pytest.raises(ConvergenceFailure, match="did not settle"):
        _newton(fdf, [0.0], [1.0])


def test_newton_hands_args_for_the_live_rows():
    # f = x - k/10 on [0, 1]: the k = 5 row hits its root at the midpoint
    # and leaves; the others get their own k on every later call
    seen = []

    def fdf(x, k):
        seen.append(k.copy())
        return x - 0.1 * k, x - 0.1 * k

    k = np.array([1.0, 5.0, 3.0])
    got = newton_bracketed(fdf, np.zeros(3), np.ones(3), -np.ones(3), args=(k,))
    assert seen[0].tolist() == [1.0, 5.0, 3.0] and seen[1].tolist() == [1.0, 3.0]
    assert np.all(np.abs(got - 0.1 * k) <= 2 * np.spacing(0.1 * k))


def _noisy_at_zero(calls):
    """f = x, exactly signed, with f/f' off by up to 1e-16: the rounding
    of a function whose values are of order 1 near its root at 0."""
    def fdf(x):
        calls.append(x.copy())
        return x, x + 1e-16 * np.cos(1e20 * x)
    return fdf


def test_newton_floor_settles_a_root_at_zero():
    # relative to x alone, a step of 1e-16 never counts as small near 0:
    # the row halves toward 0 through the subnormals and hits the cap
    calls = []
    with pytest.raises(ConvergenceFailure, match="did not settle"):
        newton_bracketed(_noisy_at_zero(calls), np.array([-1.0]), np.array([0.5]),
                         np.array([-1.0]))
    assert len(calls) == rootfind._NEWTON_CAP and abs(calls[-1][0]) < 1e-40
    # with the floor at the scale f is rounded at, two steps settle it
    calls = []
    got = newton_bracketed(_noisy_at_zero(calls), np.array([-1.0]), np.array([0.5]),
                           np.array([-1.0]), floor=1.0)
    assert len(calls) == 2 and abs(got[0]) <= 2 * np.spacing(1.0)


def test_newton_without_floor_keeps_its_bits():
    # sha256 of the roots newton_bracketed gave before it took a floor, on
    # the cos brackets both ways round and on a cubic with a root near 0
    # rounded at scale 5; a zero floor is the default
    def cubic_fdf(x):
        f = (x - 1e-3) * (x + 4.0) * (x - 5.0)
        return f, f / ((x + 4.0) * (x - 5.0) + (x - 1e-3) * (2.0 * x - 1.0))

    cases = ((_cos_fdf, COS_LO, COS_HI), (_cos_fdf, COS_HI, COS_LO),
             (cubic_fdf, [-1.0, 0.5, -4.5, 3.0], [0.5, -3.5, -3.0, 6.0]))
    for floor in ({}, {"floor": 0.0}):
        digest = hashlib.sha256()
        for fdf, lo, hi in cases:
            lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
            digest.update(newton_bracketed(fdf, lo, hi, np.sign(fdf(lo)[0]), **floor).tobytes())
        assert digest.hexdigest() == (
            "33e21740324c58add36acdc8fd81befeaed462f4f3e9a3da3212a0f29bc44810")


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


# ---- the residual check: backward error against sum_k |c_k| |z|^k ----

@pytest.mark.parametrize("deg", [4, 6])
def test_far_root_off_by_a_factor_is_refused(deg):
    # z^deg - 1e20 z^(deg-1): Aberth stalls on the multiple zero root and
    # leaves the large root near 1e18, a backward error of order 1
    c = np.zeros((1, deg + 1))
    c[0, -2:] = -1e20, 1.0
    with pytest.raises(ConvergenceFailure):
        roots_batched(c)



# ---- blocks: a row's roots do not depend on the block it is solved in ----

def _branch_rows():
    """z (a(z) - lam) rows of (0,7,3) and a p = 3 symbol at 50 lambdas each."""
    rng = np.random.default_rng(3)
    lams = np.concatenate([rng.uniform(-60, 60, 25),
                           rng.uniform(-60, 60, 25) + 1j * rng.uniform(-20, 20, 25)])
    rows = []
    for a in ((0.0, 7.0, 3.0), (0.0, 9.99, 6.545, 0.74)):
        c = np.zeros((lams.size, len(a) + 1), dtype=complex)
        c[:, 0], c[:, 1], c[:, 2:] = 1.0, a[0] - lams, a[1:]
        rows.append(c)
    return rows


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_change_no_bit(block, monkeypatch):
    # one row per block, and 7 rows per block with a partial last block,
    # against every row in one block
    for c in _branch_rows():
        monkeypatch.setattr(rootfind, "_BLOCK_ROWS", c.shape[0])
        want = roots_batched(c)
        monkeypatch.setattr(rootfind, "_BLOCK_ROWS", block)
        got = roots_batched(c)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_block_failure_names_the_batch_row(monkeypatch):
    # row 8 is z^4 - 1e20 z^3, refused (see above); in blocks of 7 it is
    # row 1 of the second block, and the message keeps its batch index
    c = np.zeros((10, 5))
    c[:, 0], c[:, -1] = -1.0, 1.0
    c[8, 0], c[8, -2] = 0.0, -1e20
    monkeypatch.setattr(rootfind, "_BLOCK_ROWS", 7)
    with pytest.raises(ConvergenceFailure, match=r"\(batch row 8\)"):
        roots_batched(c)


def test_branch_solve_working_set_is_bounded():
    # 7,681 rows, as many as the level-10 s_2 rule of a small-gap cubic
    # symbol: one block of all rows traces at 6.8 MB, blocks of 2048 at 3.0 MB
    sym, _ = cubic_build(CubicParams(-1.1934, -0.6424))
    cut = critical_structure(sym).cut(2)
    xs = cut.finite_end - np.geomspace(1e-6, 1e6, 7681)
    tracemalloc.start()
    try:
        solve_grid(sym, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
